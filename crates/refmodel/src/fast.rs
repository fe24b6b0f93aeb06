//! The fast architectural execution tier: a pre-decoded, basic-block
//! threaded interpreter.
//!
//! [`RefModel`] re-decodes every instruction word on every
//! step and routes all memory traffic through the pipeline's paged
//! copy-on-write store. That is the right shape for an *oracle* — maximally
//! independent, trivially auditable — but it is far too slow to be the
//! fault-free tier of a two-tier campaign. [`FastModel`] is the production
//! tier:
//!
//! * the program is decoded **once** into a [`BlockCache`]: one compact
//!   dispatch-ready `FastOp` per code word, with branch/jump targets and
//!   access sizes pre-computed, plus a basic-block map recording, for every
//!   slot, where its straight-line run ends;
//! * memory is a single flat byte array (the address space is only 768 KiB),
//!   so loads and stores are bounds-checked slice copies instead of page
//!   table walks;
//! * [`FastModel::run`] enters a basic block after **one** fetch check and
//!   then executes the whole straight-line run without re-validating the PC
//!   — alignment and the code limit are invariant inside a block.
//!
//! The tier is *architecturally bit-identical* to the reference model:
//! [`FastModel::step`] yields the same [`RefStep`] stream, the same trap
//! kinds in the same priority order, the same outcome and the same output
//! bytes for every program, valid or hostile. ALU, branch, and load
//! extension semantics are shared with `model.rs` (one source of ISA truth
//! inside this crate); what the fast tier adds — the decode cache, the block
//! map, the flat memory — is exactly what the tier cross-check
//! (`avgi-faultsim`'s `xtier` test) and the fuzz differential exercise.

use crate::model::{
    access_size, alu_value, cond_holds, extend_load, Effect, RefModel, RefOutcome, RefRun, RefStep,
    DEFAULT_MAX_STEPS,
};
use avgi_isa::instr::decode;
use avgi_isa::opcode::{Format, Opcode};
use avgi_isa::NUM_ARCH_REGS;
use avgi_muarch::mem::{MemFault, DATA_BASE, MEM_SIZE};
use avgi_muarch::{Program, TrapKind};
use std::sync::Arc;

/// Which architectural execution tier to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecTier {
    /// The step-at-a-time oracle interpreter ([`RefModel`]): re-decodes every
    /// word, shares the pipeline's paged memory. Maximally independent.
    Reference,
    /// The pre-decoded basic-block interpreter ([`FastModel`]): same commit
    /// stream at a fraction of the cost. The production fault-free tier.
    #[default]
    Fast,
}

/// One pre-decoded instruction: operands resolved to register indices,
/// immediates widened, branch/jump targets and access sizes computed at
/// decode time.
#[derive(Debug, Clone, Copy)]
enum FastOp {
    Nop,
    Halt,
    /// R-format ALU op.
    Alu {
        op: Opcode,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    /// I-format ALU op (`b` operand is the immediate).
    AluImm {
        op: Opcode,
        rd: u8,
        rs1: u8,
        imm: u32,
    },
    Load {
        op: Opcode,
        rd: u8,
        rs1: u8,
        imm: u32,
        size: u32,
    },
    Store {
        rs1: u8,
        rs2: u8,
        imm: u32,
        size: u32,
    },
    /// Conditional branch; `target` is pre-computed from the slot's PC.
    Branch {
        op: Opcode,
        rs1: u8,
        rs2: u8,
        target: u32,
    },
    /// `jal`; `target` and `link` are pre-computed from the slot's PC.
    Jal {
        rd: u8,
        target: u32,
        link: u32,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        imm: u32,
    },
    /// The word does not decode; executing it traps.
    Invalid,
}

impl FastOp {
    /// Whether the op ends a straight-line run (changes or may change
    /// control flow, or ends the program). Data traps do not count: they
    /// abort the block through the outcome, not the block map.
    fn is_terminator(&self) -> bool {
        matches!(
            self,
            FastOp::Halt
                | FastOp::Branch { .. }
                | FastOp::Jal { .. }
                | FastOp::Jalr { .. }
                | FastOp::Invalid
        )
    }
}

/// A program decoded once into dispatch-ready form: one `FastOp` and the
/// raw word per code slot, plus the basic-block map. Immutable and shared
/// (`Arc`) across every [`FastModel`] of the same program — the code region
/// is write-protected (stores below `DATA_BASE` fault), so pre-decoding is
/// sound: no program can invalidate the cache at run time.
pub struct BlockCache {
    ops: Vec<FastOp>,
    raws: Vec<u32>,
    /// For each slot, the slot index of the terminator ending its basic
    /// block (inclusive; the last slot if the block falls off the code end).
    block_end: Vec<u32>,
    /// End of the code region (exclusive), `program.code_bytes().max(4)` —
    /// the same limit [`avgi_muarch::mem::Memory`] enforces on fetches.
    code_limit: u32,
}

impl BlockCache {
    /// Decode `program` into a block cache.
    pub fn build(program: &Program) -> Self {
        // An empty program still has a 4-byte code region (one zero word
        // that traps as an undefined instruction), matching `Memory::new`.
        let slots = program.code.len().max(1);
        let mut ops = Vec::with_capacity(slots);
        let mut raws = Vec::with_capacity(slots);
        for slot in 0..slots {
            let raw = program.code.get(slot).copied().unwrap_or(0);
            let pc = (slot as u32) * 4;
            ops.push(predecode(raw, pc));
            raws.push(raw);
        }
        let mut block_end = vec![0u32; slots];
        for slot in (0..slots).rev() {
            block_end[slot] = if ops[slot].is_terminator() || slot + 1 == slots {
                slot as u32
            } else {
                block_end[slot + 1]
            };
        }
        BlockCache {
            ops,
            raws,
            block_end,
            code_limit: program.code_bytes().max(4),
        }
    }

    /// Decoded code slots.
    pub fn slots(&self) -> usize {
        self.ops.len()
    }

    /// Number of basic blocks in the cache.
    pub fn blocks(&self) -> usize {
        let mut n = 0;
        let mut slot = 0usize;
        while slot < self.ops.len() {
            slot = self.block_end[slot] as usize + 1;
            n += 1;
        }
        n
    }
}

fn predecode(raw: u32, pc: u32) -> FastOp {
    let Ok(i) = decode(raw) else {
        return FastOp::Invalid;
    };
    let (rd, rs1, rs2) = (i.rd.index(), i.rs1.index(), i.rs2.index());
    match i.op {
        Opcode::Nop => FastOp::Nop,
        Opcode::Halt => FastOp::Halt,
        op if op.is_load() => FastOp::Load {
            op,
            rd,
            rs1,
            imm: i.imm as u32,
            size: access_size(op),
        },
        op if op.is_store() => FastOp::Store {
            rs1,
            rs2,
            imm: i.imm as u32,
            size: access_size(op),
        },
        op if op.is_branch() => FastOp::Branch {
            op,
            rs1,
            rs2,
            target: pc.wrapping_add((i.imm as u32).wrapping_mul(4)),
        },
        Opcode::Jal => FastOp::Jal {
            rd,
            target: pc.wrapping_add((i.imm as u32).wrapping_mul(4)),
            link: pc.wrapping_add(4),
        },
        Opcode::Jalr => FastOp::Jalr {
            rd,
            rs1,
            imm: i.imm as u32,
        },
        op if op.format() == Format::I => FastOp::AluImm {
            op,
            rd,
            rs1,
            imm: i.imm as u32,
        },
        op => FastOp::Alu { op, rd, rs1, rs2 },
    }
}

/// The fast-tier interpreter; see the module docs.
pub struct FastModel {
    pc: u32,
    regs: [u32; NUM_ARCH_REGS as usize],
    mem: Vec<u8>,
    cache: Arc<BlockCache>,
    output_addr: u32,
    output_len: u32,
    steps: u64,
    outcome: Option<RefOutcome>,
}

impl FastModel {
    /// Decode `program` and build a model in the reset state the pipeline
    /// (and [`RefModel`]) starts from.
    pub fn new(program: &Program) -> Self {
        Self::with_cache(program, Arc::new(BlockCache::build(program)))
    }

    /// Build a model reusing an already-decoded [`BlockCache`] (campaigns
    /// re-run the same program thousands of times).
    pub fn with_cache(program: &Program, cache: Arc<BlockCache>) -> Self {
        // Flat equivalent of `Program::build_memory`: code words at
        // word-aligned offsets, then the initialized data blobs.
        let mut mem = vec![0u8; MEM_SIZE as usize];
        for (i, w) in program.code.iter().enumerate() {
            mem[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        for (addr, bytes) in &program.data {
            mem[*addr as usize..*addr as usize + bytes.len()].copy_from_slice(bytes);
        }
        FastModel {
            pc: program.entry,
            regs: [0; NUM_ARCH_REGS as usize],
            mem,
            cache,
            output_addr: program.output_addr,
            output_len: program.output_len,
            steps: 0,
            outcome: None,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Architectural register file.
    pub fn regs(&self) -> &[u32; NUM_ARCH_REGS as usize] {
        &self.regs
    }

    /// Instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// `Some` once the program halted or trapped; `None` while runnable.
    pub fn outcome(&self) -> Option<RefOutcome> {
        self.outcome
    }

    /// The program's output window, read straight from memory.
    pub fn output(&self) -> Vec<u8> {
        let a = self.output_addr as usize;
        self.mem[a..a + self.output_len as usize].to_vec()
    }

    /// The decode cache this model dispatches from.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    fn trap_step(&mut self, index: u64, pc: u32, raw: u32, ea: u32, kind: TrapKind) -> RefStep {
        self.outcome = Some(RefOutcome::Trap(kind));
        RefStep {
            index,
            pc,
            raw,
            ea,
            val: 0,
            next_pc: pc,
            effect: Effect::Trap(kind),
        }
    }

    /// Execute one instruction, yielding the identical [`RefStep`] the
    /// reference model would. Returns `None` once the program has finished
    /// (the step that halts or traps is itself returned, with `outcome`
    /// set).
    pub fn step(&mut self) -> Option<RefStep> {
        if self.outcome.is_some() {
            return None;
        }
        let index = self.steps;
        self.steps += 1;
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            return Some(self.trap_step(
                index,
                pc,
                0,
                0,
                TrapKind::Memory(MemFault::Misaligned(pc)),
            ));
        }
        if pc >= self.cache.code_limit {
            return Some(self.trap_step(
                index,
                pc,
                0,
                0,
                TrapKind::Memory(MemFault::ExecuteFault(pc)),
            ));
        }
        Some(self.exec_slot(index, pc))
    }

    /// Drive the model until it finishes or `max_steps` is exhausted.
    ///
    /// This is the hot path: the fetch check runs once per basic-block
    /// entry, not once per instruction.
    pub fn run(&mut self, max_steps: u64) -> RefRun {
        'blocks: while self.outcome.is_none() && self.steps < max_steps {
            let pc = self.pc;
            if !pc.is_multiple_of(4) || pc >= self.cache.code_limit {
                // Faulting fetch: the single-step path produces the trap.
                self.step();
                continue;
            }
            let slot = (pc >> 2) as usize;
            let block_len = u64::from(self.cache.block_end[slot] - slot as u32) + 1;
            let n = block_len.min(max_steps - self.steps);
            for k in 0..n {
                let index = self.steps;
                self.steps += 1;
                self.exec_slot(index, pc.wrapping_add((k as u32) * 4));
                if self.outcome.is_some() {
                    continue 'blocks;
                }
            }
        }
        RefRun {
            outcome: self.outcome,
            steps: self.steps,
        }
    }

    /// Execute the pre-decoded op at `pc` (fetch already validated) and
    /// advance architectural state. Mirrors `RefModel::step_inner` exactly.
    #[inline(always)]
    fn exec_slot(&mut self, index: u64, pc: u32) -> RefStep {
        let slot = (pc >> 2) as usize;
        let raw = self.cache.raws[slot];
        let mut ea = 0u32;
        let mut val = 0u32;
        let mut next_pc = pc.wrapping_add(4);
        let effect;

        match self.cache.ops[slot] {
            FastOp::Nop => {
                effect = Effect::None;
            }
            FastOp::Halt => {
                self.outcome = Some(RefOutcome::Completed);
                next_pc = pc;
                effect = Effect::Halt;
            }
            FastOp::Invalid => {
                return self.trap_step(index, pc, raw, 0, TrapKind::UndefinedInstruction);
            }
            FastOp::Load {
                op,
                rd,
                rs1,
                imm,
                size,
            } => {
                let vaddr = self.regs[rs1 as usize].wrapping_add(imm);
                if let Err(f) = check_data_access(vaddr, size, false) {
                    return self.trap_step(index, pc, raw, vaddr, TrapKind::Memory(f));
                }
                ea = vaddr;
                let mut bytes = [0u8; 4];
                let a = vaddr as usize;
                bytes[..size as usize].copy_from_slice(&self.mem[a..a + size as usize]);
                val = extend_load(op, u32::from_le_bytes(bytes));
                effect = self.write_reg(rd, val);
            }
            FastOp::Store {
                rs1,
                rs2,
                imm,
                size,
            } => {
                let vaddr = self.regs[rs1 as usize].wrapping_add(imm);
                if let Err(f) = check_data_access(vaddr, size, true) {
                    return self.trap_step(index, pc, raw, vaddr, TrapKind::Memory(f));
                }
                ea = vaddr;
                let data = self.regs[rs2 as usize];
                let masked = match size {
                    1 => data & 0xFF,
                    2 => data & 0xFFFF,
                    _ => data,
                };
                val = masked;
                let a = vaddr as usize;
                self.mem[a..a + size as usize]
                    .copy_from_slice(&masked.to_le_bytes()[..size as usize]);
                effect = Effect::Store {
                    addr: vaddr,
                    size,
                    value: masked,
                };
            }
            FastOp::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond_holds(op, self.regs[rs1 as usize], self.regs[rs2 as usize]);
                if taken {
                    next_pc = target;
                }
                effect = Effect::Control {
                    taken,
                    target,
                    link: None,
                };
            }
            FastOp::Jal { rd, target, link } => {
                val = link;
                let wb = self.write_reg(rd, link);
                next_pc = target;
                effect = Effect::Control {
                    taken: true,
                    target,
                    link: match wb {
                        Effect::RegWrite { rd, value } => Some((rd, value)),
                        _ => None,
                    },
                };
            }
            FastOp::Jalr { rd, rs1, imm } => {
                let target = self.regs[rs1 as usize].wrapping_add(imm);
                let link = pc.wrapping_add(4);
                val = link;
                let wb = self.write_reg(rd, link);
                next_pc = target;
                effect = Effect::Control {
                    taken: true,
                    target,
                    link: match wb {
                        Effect::RegWrite { rd, value } => Some((rd, value)),
                        _ => None,
                    },
                };
            }
            FastOp::Alu { op, rd, rs1, rs2 } => {
                val = alu_value(op, self.regs[rs1 as usize], self.regs[rs2 as usize]);
                effect = self.write_reg(rd, val);
            }
            FastOp::AluImm { op, rd, rs1, imm } => {
                val = alu_value(op, self.regs[rs1 as usize], imm);
                effect = self.write_reg(rd, val);
            }
        }

        self.pc = next_pc;
        RefStep {
            index,
            pc,
            raw,
            ea,
            val,
            next_pc,
            effect,
        }
    }

    #[inline(always)]
    fn write_reg(&mut self, rd: u8, v: u32) -> Effect {
        if rd == 0 {
            Effect::None
        } else {
            self.regs[rd as usize] = v;
            Effect::RegWrite { rd, value: v }
        }
    }
}

/// Flat-memory twin of [`avgi_muarch::mem::Memory::check_data_access`]:
/// identical fault kinds in the identical priority order.
#[inline(always)]
fn check_data_access(addr: u32, size: u32, is_store: bool) -> Result<(), MemFault> {
    if !addr.is_multiple_of(size) {
        return Err(MemFault::Misaligned(addr));
    }
    if u64::from(addr) + u64::from(size) > u64::from(MEM_SIZE) {
        return Err(MemFault::OutOfRange(addr));
    }
    if is_store && addr < DATA_BASE {
        return Err(MemFault::WriteToCode(addr));
    }
    Ok(())
}

/// A model of either tier behind one concrete type, so callers can pick a
/// tier at run time without generics.
pub enum TierModel {
    /// The oracle interpreter.
    Reference(RefModel),
    /// The pre-decoded fast tier.
    Fast(FastModel),
}

impl TierModel {
    /// Build a model of the requested tier from reset state.
    pub fn new(program: &Program, tier: ExecTier) -> Self {
        match tier {
            ExecTier::Reference => TierModel::Reference(RefModel::new(program)),
            ExecTier::Fast => TierModel::Fast(FastModel::new(program)),
        }
    }

    /// Execute one instruction; see [`RefModel::step`].
    pub fn step(&mut self) -> Option<RefStep> {
        match self {
            TierModel::Reference(m) => m.step(),
            TierModel::Fast(m) => m.step(),
        }
    }

    /// Drive the model until it finishes or `max_steps` is exhausted.
    pub fn run(&mut self, max_steps: u64) -> RefRun {
        match self {
            TierModel::Reference(m) => m.run(max_steps),
            TierModel::Fast(m) => m.run(max_steps),
        }
    }

    /// `Some` once the program halted or trapped; `None` while runnable.
    pub fn outcome(&self) -> Option<RefOutcome> {
        match self {
            TierModel::Reference(m) => m.outcome(),
            TierModel::Fast(m) => m.outcome(),
        }
    }

    /// The program's output window.
    pub fn output(&self) -> Vec<u8> {
        match self {
            TierModel::Reference(m) => m.output(),
            TierModel::Fast(m) => m.output(),
        }
    }
}

/// Step the two tiers side by side through one program and require the
/// identical [`RefStep`] stream, outcome, step count, and output bytes. The
/// batch path ([`FastModel::run`]) is additionally re-run standalone and
/// must land in the same final state as the stepped execution. Returns the
/// number of steps compared.
///
/// This is the tier-vs-tier leg of `avgi-faultsim`'s `xtier` test.
pub fn verify_fast_tier(program: &Program, max_steps: u64) -> Result<u64, String> {
    let budget = if max_steps == 0 {
        DEFAULT_MAX_STEPS
    } else {
        max_steps
    };
    let mut reference = RefModel::new(program);
    let mut fast = FastModel::new(program);
    let mut compared = 0u64;
    while compared < budget {
        match (reference.step(), fast.step()) {
            (Some(r), Some(f)) => {
                if r != f {
                    return Err(format!(
                        "step #{compared} differs:\n  reference: {r}\n  fast:      {f}"
                    ));
                }
                compared += 1;
            }
            (None, None) => break,
            (r, f) => {
                return Err(format!(
                    "stream lengths differ at step #{compared}: reference {r:?}, fast {f:?}"
                ));
            }
        }
    }
    if reference.outcome() != fast.outcome() {
        return Err(format!(
            "outcomes differ after {compared} steps: reference {:?}, fast {:?}",
            reference.outcome(),
            fast.outcome()
        ));
    }
    if reference.output() != fast.output() {
        return Err(format!("output bytes differ after {compared} steps"));
    }
    // The block-threaded batch path must land exactly where stepping did.
    let mut batch = FastModel::new(program);
    let run = batch.run(budget);
    if run.steps != fast.steps() || run.outcome != fast.outcome() || batch.output() != fast.output()
    {
        return Err(format!(
            "batch path disagrees with step path: {} steps / {:?} vs {} steps / {:?}",
            run.steps,
            run.outcome,
            fast.steps(),
            fast.outcome()
        ));
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avgi_isa::asm::Assembler;
    use avgi_isa::reg::{A0, A1, ZERO};

    fn countdown() -> Program {
        let mut a = Assembler::new(0);
        a.li32(A0, 100);
        a.label("loop");
        a.addi(A0, A0, -1);
        a.bne(A0, ZERO, "loop");
        a.halt();
        Program::new("countdown", a.assemble().unwrap(), 0)
    }

    #[test]
    fn fast_tier_matches_reference_on_every_workload() {
        for w in avgi_workloads::all() {
            let compared =
                verify_fast_tier(&w.program, 0).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(compared > 0, "{}: empty execution", w.name);
        }
    }

    #[test]
    fn block_cache_finds_straight_line_runs() {
        let p = countdown();
        let cache = BlockCache::build(&p);
        assert_eq!(cache.slots(), p.code.len());
        assert!(cache.blocks() >= 2, "countdown has a loop and a tail");
    }

    #[test]
    fn run_stops_exactly_at_the_step_budget() {
        let p = countdown();
        let mut m = FastModel::new(&p);
        let run = m.run(7);
        assert_eq!(run.steps, 7);
        assert_eq!(run.outcome, None);
        // Resuming finishes the program with the same totals as one run.
        let total = m.run(u64::MAX).steps;
        let mut fresh = FastModel::new(&p);
        assert_eq!(fresh.run(u64::MAX).steps, total);
        assert_eq!(fresh.outcome(), Some(RefOutcome::Completed));
    }

    #[test]
    fn misaligned_jalr_traps_identically_in_both_tiers() {
        let mut a = Assembler::new(0);
        a.addi(A1, ZERO, 2);
        a.jalr(A0, A1, 0);
        a.halt();
        let p = Program::new("misaligned", a.assemble().unwrap(), 0);
        verify_fast_tier(&p, 0).expect("misaligned fetch traps must agree");
        let mut fast = FastModel::new(&p);
        fast.run(100);
        assert_eq!(
            fast.outcome(),
            Some(RefOutcome::Trap(TrapKind::Memory(MemFault::Misaligned(2))))
        );
    }

    #[test]
    fn undecodable_word_and_runaway_pc_trap_identically() {
        // 0xFFFF_FFFF does not decode; falling off the code end execute-faults.
        for code in [vec![0xFFFF_FFFFu32], vec![0x0000_0000]] {
            let p = Program::new("hostile", code, 0);
            verify_fast_tier(&p, 1_000).expect("hostile programs must agree");
        }
    }

    #[test]
    fn empty_program_matches_memory_zero_fill() {
        let p = Program::new("empty", Vec::new(), 0);
        verify_fast_tier(&p, 10).expect("empty code region must agree");
    }
}
