//! Issue / execute: select among the operand-ready issue-queue entries,
//! execute ALU and control instructions, and the load/store unit.

use super::{ring_order, LqShadow, Sim, SqShadow};
use crate::exec;
use crate::hierarchy::Side;
use crate::mem::{MemFault, MEM_SIZE};
use crate::regfile::PhysReg;
use crate::run::TrapKind;
use avgi_isa::instr::Instr;
use avgi_isa::opcode::{Format, Opcode};

impl Sim {
    /// Select: the oldest `issue_width` operand-ready entries that can
    /// issue do so and leave the queue.
    ///
    /// Every entry in `ready` is tried every cycle until it issues, not
    /// only on the cycle it woke: a load whose operands are ready but which
    /// is blocked on an older store re-reads its base register on each
    /// retry, and that read stamps the register's ACE interval
    /// (`RegFile::read_at` → `rf_ace_cycles`) — also on a wrong path that
    /// is squashed before the load ever issues. Nothing executed here
    /// produces a register value, so the set read at entry is the set for
    /// the whole cycle.
    pub(super) fn issue(&mut self) {
        debug_assert_eq!(
            self.sched.ready & !self.sched.in_iq,
            0,
            "ready slot outside the IQ"
        );
        let mut issued = 0u32;
        for ridx in ring_order(self.sched.ready, self.rob.head()) {
            if issued == self.cfg.issue_width {
                break;
            }
            if self.try_issue(ridx) {
                issued += 1;
                self.sched.in_iq &= !(1 << ridx);
                self.sched.ready &= !(1 << ridx);
            }
        }
    }

    /// Reads a produced operand, recording the read for ACE
    /// instrumentation; an absent operand (zero register) reads as 0.
    fn operand(&mut self, p: Option<PhysReg>) -> u32 {
        match p {
            None => 0,
            Some(p) => {
                debug_assert!(self.rf.is_ready(p), "ready slot with an unproduced operand");
                self.rf.read_at(p, self.cycle)
            }
        }
    }

    /// Whether every operand of ROB slot `ridx` has been produced.
    pub(super) fn operands_ready(&self, ridx: usize) -> bool {
        let e = &self.rob[ridx];
        [e.src1, e.src2]
            .into_iter()
            .flatten()
            .all(|p| self.rf.is_ready(p))
    }

    fn try_issue(&mut self, ridx: usize) -> bool {
        let (seq, instr, pc, src1, src2) = {
            debug_assert_eq!(
                self.rob_stamp[ridx], self.scratch.gen,
                "stale issue-queue slot crossed a scratch rewind"
            );
            let e = &self.rob[ridx];
            (
                e.seq,
                e.decoded.expect("iq entries decode"),
                e.pc,
                e.src1,
                e.src2,
            )
        };
        // Both operands are ready (the slot is in `ready`); reads are
        // recorded for ACE instrumentation.
        let a = self.operand(src1);
        let b = self.operand(src2);
        let imm = instr.imm;

        match instr.op {
            op if op.is_load() => self.issue_load(ridx, seq, instr, a),
            op if op.is_store() => self.issue_store(ridx, seq, instr, a, b),
            op @ (Opcode::Jal | Opcode::Jalr) => {
                let target = match op {
                    Opcode::Jal => pc.wrapping_add((imm as u32).wrapping_mul(4)),
                    _ => a.wrapping_add(imm as u32),
                };
                self.finish_control(ridx, target, true, pc.wrapping_add(4));
                true
            }
            op if op.is_branch() => {
                let taken = exec::branch_taken(op, a, b);
                let target = if taken {
                    pc.wrapping_add((imm as u32).wrapping_mul(4))
                } else {
                    pc.wrapping_add(4)
                };
                let e = &mut self.rob[ridx];
                e.taken = taken;
                e.actual_next = target;
                e.resolved_control = true;
                self.start_executing(ridx, self.cfg.lat.alu);
                true
            }
            op => {
                let operand_b = if matches!(op.format(), Format::I) {
                    imm as u32
                } else {
                    b
                };
                let val = exec::alu(op, a, operand_b).expect("alu op");
                self.rob[ridx].val = val;
                self.start_executing(ridx, exec::latency(op, &self.cfg.lat));
                true
            }
        }
    }

    fn finish_control(&mut self, ridx: usize, target: u32, taken: bool, link: u32) {
        let e = &mut self.rob[ridx];
        e.taken = taken;
        e.actual_next = target;
        e.resolved_control = true;
        e.val = link;
        self.start_executing(ridx, self.cfg.lat.alu);
    }

    /// Marks an issued slot as executing, finishing `latency` cycles from
    /// now (the caller, `issue`, takes it out of the issue queue).
    fn start_executing(&mut self, ridx: usize, latency: u64) {
        self.sched.executing |= 1 << ridx;
        self.rob_finish[ridx] = self.cycle + latency;
    }

    fn mem_size(op: Opcode) -> u32 {
        match op {
            Opcode::Lw | Opcode::Sw => 4,
            Opcode::Lh | Opcode::Lhu | Opcode::Sh => 2,
            _ => 1,
        }
    }

    fn extend_load(op: Opcode, raw: u32) -> u32 {
        match op {
            Opcode::Lw => raw,
            Opcode::Lb => raw as u8 as i8 as i32 as u32,
            Opcode::Lbu => raw & 0xFF,
            Opcode::Lh => raw as u16 as i16 as i32 as u32,
            Opcode::Lhu => raw & 0xFFFF,
            _ => unreachable!("not a load"),
        }
    }

    /// Translates a checked data access through the DTLB: the physical
    /// address and the page-walk latency it cost.
    #[inline]
    fn translate_data(&mut self, vaddr: u32) -> (u32, u64) {
        let (paddr, walked) = self.hier.translate(Side::D, &mut self.stats, vaddr);
        (paddr, if walked { self.cfg.lat.tlb_walk } else { 0 })
    }

    /// Records the trap of a translation that left physical memory (a
    /// corrupted DTLB entry's).
    fn out_of_range(&mut self, ridx: usize, vaddr: u32, paddr: u32) -> bool {
        let trap = TrapKind::Memory(MemFault::OutOfRange(paddr));
        self.complete_with_exception(ridx, vaddr, trap)
    }

    fn issue_load(&mut self, ridx: usize, seq: u64, instr: Instr, base: u32) -> bool {
        let vaddr = base.wrapping_add(instr.imm as u32);
        let size = Self::mem_size(instr.op);
        if let Err(f) = self.hier.mem.check_data_access(vaddr, size, false) {
            return self.complete_with_exception(ridx, vaddr, TrapKind::Memory(f));
        }
        // Memory disambiguation: all older stores must have resolved
        // addresses before a load may issue (conservative policy).
        // The scan has no side effects, so it stops at the first blocking
        // store — a blocked load repeats it every cycle — and at the first
        // younger one: the SQ ring is in age order.
        let mut forward: Option<u32> = None;
        for i in self.sq.live() {
            let s = &self.sq[i];
            if s.seq >= seq {
                break;
            }
            if !s.resolved {
                return false;
            }
            // Youngest older store wins (iteration is oldest→youngest).
            let lo = s.paddr;
            let hi = s.paddr + u32::from(s.size);
            // The load's physical address isn't known yet; compare on
            // virtual addresses — identity-mapped, so equivalent in the
            // fault-free case.
            if lo < vaddr + size && vaddr < hi {
                if s.paddr == vaddr && u32::from(s.size) == size {
                    forward = Some(s.data);
                } else {
                    return false; // partial overlap: wait it out
                }
            }
        }
        let (paddr, mut lat) = self.translate_data(vaddr);
        if u64::from(paddr) + u64::from(size) > u64::from(MEM_SIZE) {
            return self.out_of_range(ridx, vaddr, paddr);
        }
        let val = match forward {
            Some(data) => {
                lat += self.cfg.lat.l1;
                Self::extend_load(instr.op, data)
            }
            None => {
                let (raw, l) = self.hier.read(Side::D, &mut self.stats, paddr, size);
                lat += l;
                Self::extend_load(instr.op, raw)
            }
        };
        // Resolve the LQ entry (shadow + injectable image) via the slot index
        // recorded at dispatch — no seq scan.
        let lqi = usize::from(self.rob[ridx].lq_slot);
        debug_assert_eq!(self.lq[lqi].seq, seq, "LQ slot/seq mismatch");
        let resolved = LqShadow {
            seq,
            resolved: true,
            paddr,
        };
        self.lq.set(lqi, resolved);
        let e = &mut self.rob[ridx];
        e.ea = vaddr;
        e.val = val;
        self.start_executing(ridx, lat.max(1));
        true
    }

    fn issue_store(&mut self, ridx: usize, seq: u64, instr: Instr, base: u32, data: u32) -> bool {
        let vaddr = base.wrapping_add(instr.imm as u32);
        let size = Self::mem_size(instr.op);
        if let Err(f) = self.hier.mem.check_data_access(vaddr, size, true) {
            return self.complete_with_exception(ridx, vaddr, TrapKind::Memory(f));
        }
        let (paddr, lat) = self.translate_data(vaddr);
        if u64::from(paddr) + u64::from(size) > u64::from(MEM_SIZE) {
            return self.out_of_range(ridx, vaddr, paddr);
        }
        let masked = match size {
            1 => data & 0xFF,
            2 => data & 0xFFFF,
            _ => data,
        };
        let sqi = usize::from(self.rob[ridx].sq_slot);
        debug_assert_eq!(self.sq[sqi].seq, seq, "SQ slot/seq mismatch");
        let resolved = SqShadow {
            seq,
            resolved: true,
            paddr,
            size: size as u8,
            data: masked,
        };
        self.sq.set(sqi, resolved);
        let e = &mut self.rob[ridx];
        e.ea = vaddr;
        e.val = masked;
        self.start_executing(ridx, (lat + self.cfg.lat.alu).max(1));
        true
    }

    /// Records a trap found at issue. The slot leaves the issue queue
    /// without executing, which is what makes it done.
    fn complete_with_exception(&mut self, ridx: usize, ea: u32, t: TrapKind) -> bool {
        let e = &mut self.rob[ridx];
        e.ea = ea;
        e.exception = Some(t);
        true
    }
}
