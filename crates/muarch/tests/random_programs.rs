//! Differential testing: random programs run on the out-of-order simulator
//! must commit exactly the architectural instruction stream of the
//! `avgi-refmodel` reference interpreter. Any divergence is a pipeline bug
//! (renaming, forwarding, speculation, cache coherence...).
//!
//! This test predates the `refmodel` crate and used to carry its own partial
//! inline interpreter, comparing only a register spill and a scratch
//! checksum. It now lockstep-checks the *entire commit trace* — every
//! committed `(pc, raw, ea, val)` — plus the final output bytes, so a
//! transient mid-program divergence can no longer hide behind a correct
//! final state, and no architectural register has to be excluded from the
//! comparison.
//!
//! Generation uses the in-repo xoshiro256** generator (`avgi-rng`) with a
//! fixed seed — reproducible offline, like the original.

use avgi_isa::instr::Instr;
use avgi_isa::opcode::Opcode;
use avgi_isa::reg::Reg;
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::mem::{DATA_BASE, OUTPUT_BASE};
use avgi_muarch::pipeline::Sim;
use avgi_muarch::program::Program;
use avgi_muarch::run::{RunControl, RunOutcome};
use avgi_refmodel::{verify_report_tier, ExecTier};
use avgi_rng::Rng;

const SCRATCH_WORDS: u32 = 64;

#[derive(Debug, Clone)]
enum GenOp {
    Alu(Opcode, u8, u8, u8),
    AluImm(Opcode, u8, u8, i32),
    Load(u8, i32),
    Store(u8, i32),
    /// Forward branch skipping 1..=3 instructions.
    SkipIf(Opcode, u8, u8, u8),
}

const R_OPS: &[Opcode] = &[
    Opcode::Add,
    Opcode::Sub,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Sll,
    Opcode::Srl,
    Opcode::Sra,
    Opcode::Slt,
    Opcode::Sltu,
    Opcode::Mul,
    Opcode::Mulh,
    Opcode::Divu,
    Opcode::Remu,
];

const I_OPS: &[Opcode] = &[
    Opcode::Addi,
    Opcode::Andi,
    Opcode::Ori,
    Opcode::Xori,
    Opcode::Slli,
    Opcode::Srli,
    Opcode::Srai,
    Opcode::Slti,
    Opcode::Lui,
];

const B_OPS: &[Opcode] = &[
    Opcode::Beq,
    Opcode::Bne,
    Opcode::Blt,
    Opcode::Bge,
    Opcode::Bltu,
    Opcode::Bgeu,
];

fn arb_genop(rng: &mut Rng) -> GenOp {
    let reg = |rng: &mut Rng| 1 + rng.gen_range_u64(u64::from(avgi_isa::NUM_ARCH_REGS) - 1) as u8;
    let word = |rng: &mut Rng| (rng.gen_range_u64(u64::from(SCRATCH_WORDS)) * 4) as i32;
    match rng.gen_range_u64(5) {
        0 => GenOp::Alu(*rng.choose(R_OPS), reg(rng), reg(rng), reg(rng)),
        1 => GenOp::AluImm(
            *rng.choose(I_OPS),
            reg(rng),
            reg(rng),
            rng.gen_range_i32(-2048, 2048),
        ),
        2 => GenOp::Load(reg(rng), word(rng)),
        3 => GenOp::Store(reg(rng), word(rng)),
        _ => GenOp::SkipIf(
            *rng.choose(B_OPS),
            reg(rng),
            reg(rng),
            1 + rng.gen_range_u64(3) as u8,
        ),
    }
}

fn materialize(ops: &[GenOp]) -> Vec<Instr> {
    let r = |x: u8| Reg::new(x).expect("in range");
    let zero = Reg::new(0).unwrap();
    // r23 (RA slot) is reserved as the scratch base pointer; keep the
    // generator off it by remapping 23 -> 22.
    let m = |x: u8| r(if x == 23 { 22 } else { x });
    let mut code = Vec::new();
    // Base pointer: r23 = DATA_BASE.
    let hi = (DATA_BASE >> 18) as i32;
    code.push(Instr::new(Opcode::Lui, r(23), zero, zero, hi));
    for op in ops {
        match *op {
            GenOp::Alu(o, rd, rs1, rs2) => code.push(Instr::new(o, m(rd), m(rs1), m(rs2), 0)),
            GenOp::AluImm(o, rd, rs1, imm) => code.push(Instr::new(o, m(rd), m(rs1), zero, imm)),
            GenOp::Load(rd, w) => code.push(Instr::new(Opcode::Lw, m(rd), r(23), zero, w)),
            GenOp::Store(rs, w) => code.push(Instr::new(Opcode::Sw, zero, r(23), m(rs), w)),
            GenOp::SkipIf(o, a, b, skip) => {
                code.push(Instr::new(o, zero, m(a), m(b), i32::from(skip) + 1))
            }
        }
    }
    code
}

/// Emits a spill epilogue (registers + scratch checksum to the output
/// region) and halt, so the final output bytes summarize the whole
/// architectural state and exercise the cache-flush path.
fn epilogue(code: &mut Vec<Instr>) {
    let zero = Reg::new(0).unwrap();
    // Landing pad: a trailing forward branch may skip up to 3 instructions
    // past the body; the simulator must reach the epilogue intact either way.
    for _ in 0..4 {
        code.push(Instr::new(Opcode::Nop, zero, zero, zero, 0));
    }
    let base = Reg::new(23).unwrap(); // still DATA_BASE
    let acc = Reg::new(22).unwrap();
    let tmp = Reg::new(21).unwrap();
    // Checksum scratch via r23 (DATA_BASE) first, then repoint r23 at the
    // output region and spill.
    code.push(Instr::new(Opcode::Addi, acc, zero, zero, 0));
    for w in 0..SCRATCH_WORDS {
        code.push(Instr::new(Opcode::Lw, tmp, base, zero, (w * 4) as i32));
        code.push(Instr::new(Opcode::Add, acc, acc, tmp, 0));
    }
    // r23 = OUTPUT_BASE.
    let hi = (OUTPUT_BASE >> 18) as i32;
    code.push(Instr::new(Opcode::Lui, base, zero, zero, hi));
    for k in 0..avgi_isa::NUM_ARCH_REGS {
        let src = Reg::new(k).unwrap();
        code.push(Instr::new(Opcode::Sw, zero, base, src, i32::from(k) * 4));
    }
    code.push(Instr::new(
        Opcode::Sw,
        zero,
        base,
        acc,
        i32::from(avgi_isa::NUM_ARCH_REGS) * 4,
    ));
    code.push(Instr::new(Opcode::Halt, zero, zero, zero, 0));
}

#[test]
fn ooo_simulator_commits_in_lockstep_with_reference_model() {
    let mut rng = Rng::seed_from_u64(0x5EED_D1FF);
    for case in 0..48 {
        let n_ops = 1 + rng.gen_range_usize(119);
        let ops: Vec<GenOp> = (0..n_ops).map(|_| arb_genop(&mut rng)).collect();
        let mut code = materialize(&ops);
        epilogue(&mut code);
        let out_words = u32::from(avgi_isa::NUM_ARCH_REGS) + 1;
        let words: Vec<u32> = code.iter().map(Instr::encode).collect();
        let program = Program::new("random", words, out_words * 4);

        let mut sim = Sim::new(&program, MuarchConfig::big());
        let r = sim.run(&RunControl {
            max_cycles: 5_000_000,
            record_trace: true,
            ..Default::default()
        });
        assert_eq!(
            r.outcome,
            RunOutcome::Completed,
            "case {case}: program must halt"
        );
        let report = verify_report_tier(&program, &r, ExecTier::Reference)
            .unwrap_or_else(|d| panic!("case {case}: lockstep divergence:\n{d}"));
        assert_eq!(
            report.committed,
            r.trace.as_ref().map(Vec::len).unwrap_or(0) as u64,
            "case {case}: lockstep must consume the whole trace"
        );
    }
}
