//! Deterministic, coverage-directed differential fuzzer.
//!
//! Generates random AvgIsa programs — valid and invalid instruction mixes —
//! runs each on the out-of-order pipeline with trace recording, and lockstep
//! checks the committed stream against the reference model
//! ([`verify_report_tier`]). The generator is seeded with the in-repo
//! [`avgi_rng::Rng`], so a `(seed, index)` pair fully reproduces a program.
//!
//! ## Bias knobs (what the generator stresses, and why)
//!
//! * **Branches and jumps** (~20% of body slots): forward skips of 1–4
//!   instructions train/mispredict the branch predictor and exercise squash
//!   paths; ~30% of programs wrap their body in a counted backward loop, and
//!   `jalr` uses absolute byte targets (the one control op that is *not*
//!   PC-relative word-scaled).
//! * **Load/store aliasing** (~30%): all regular accesses land in two 64-byte
//!   windows (scratch and output), so stores and loads of mixed sizes overlap
//!   constantly — exact-match store-to-load forwarding, partial-overlap
//!   blocking, and unresolved-store stalls all fire. A small fraction of
//!   accesses is deliberately misaligned or uses a junk base register to
//!   exercise the memory-trap commit path.
//! * **Unknown encodings** (~4%): undefined opcode bytes, undefined register
//!   fields (24..32) and non-zero pad bits. Half of these are placed in the
//!   shadow of an always-taken branch: the pipeline fetches and decodes them
//!   on the wrong path and must squash them without committing — the other
//!   half commits and must trap exactly like the reference model.
//!
//! Coverage is measured on the *committed* trace: which opcodes committed,
//! and which ordered pairs of instruction formats committed back-to-back.
//! Each program's generator sees a snapshot of the coverage so far and steers
//! a fraction of its slots toward still-uncovered opcodes.
//!
//! Failing programs are shrunk with a delta-debugging pass (chunk deletion,
//! then NOP substitution) to a minimal reproducer; see [`shrink_with`].

use crate::fast::ExecTier;
use crate::lockstep::{verify_report_tier, Divergence, LockstepReport};
use avgi_isa::encoding::{pack_i, pack_n, pack_r};
use avgi_isa::opcode::{Format, Opcode};
use avgi_isa::reg::Reg;
use avgi_isa::Instr;
use avgi_muarch::{CommitRecord, MuarchConfig, Program, RunControl, RunOutcome, Sim};
use avgi_rng::Rng;

/// Size in bytes of the two data windows (scratch at `DATA_BASE`, output at
/// `OUTPUT_BASE`) the generator aims loads and stores into.
pub const WINDOW_BYTES: u32 = 64;

/// Base register pinned to `OUTPUT_BASE` by the generated prologue.
const OUT_BASE_REG: u8 = 18;
/// Base register pinned to `DATA_BASE` by the generated prologue.
const DATA_BASE_REG: u8 = 19;
/// Loop counter register (loop-wrapped programs only).
const LOOP_REG: u8 = 20;

/// Fuzzing campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of programs to generate and check.
    pub programs: usize,
    /// Master seed; program `i` uses a seed derived from `(seed, i)`.
    pub seed: u64,
    /// Maximum body length in instructions (prologue/epilogue excluded).
    pub max_instrs: usize,
    /// Pipeline watchdog per program (cycles).
    pub max_cycles: u64,
    /// Pipeline configuration to fuzz against.
    pub config: MuarchConfig,
    /// Shrink failing programs to minimal reproducers.
    pub shrink: bool,
    /// Worker threads; `0` = all available cores. Results are deterministic
    /// regardless of thread count.
    pub threads: usize,
}

impl FuzzConfig {
    /// Defaults matched to the CI smoke budget; raise `programs` for soak.
    pub fn new(programs: usize, seed: u64) -> Self {
        FuzzConfig {
            programs,
            seed,
            max_instrs: 96,
            max_cycles: 2_000_000,
            config: MuarchConfig::big(),
            shrink: true,
            threads: 0,
        }
    }
}

/// Number of distinct instruction formats.
const NUM_FORMATS: usize = 5;

fn format_index(f: Format) -> usize {
    match f {
        Format::R => 0,
        Format::I => 1,
        Format::S => 2,
        Format::J => 3,
        Format::N => 4,
    }
}

const FORMAT_NAMES: [&str; NUM_FORMATS] = ["R", "I", "S", "J", "N"];

/// Commit-stream coverage accumulated over a fuzzing campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Commit counts indexed by opcode bits.
    opcode_commits: [u64; 256],
    /// Commit counts of ordered (previous format, next format) pairs.
    pair_commits: [[u64; NUM_FORMATS]; NUM_FORMATS],
    /// Committed records whose raw word does not decode (fetch faults and
    /// committed unknown encodings).
    pub invalid_commits: u64,
    /// Programs that ran to `Completed`.
    pub completed: u64,
    /// Programs that ended in a trap.
    pub trapped: u64,
    /// Programs stopped by the cycle watchdog (should stay 0: generated
    /// control flow always terminates).
    pub watchdogged: u64,
}

impl Default for Coverage {
    fn default() -> Self {
        Self::new()
    }
}

impl Coverage {
    pub fn new() -> Self {
        Coverage {
            opcode_commits: [0; 256],
            pair_commits: [[0; NUM_FORMATS]; NUM_FORMATS],
            invalid_commits: 0,
            completed: 0,
            trapped: 0,
            watchdogged: 0,
        }
    }

    /// Account one committed trace.
    pub fn record_trace(&mut self, trace: &[CommitRecord]) {
        let mut prev: Option<usize> = None;
        for rec in trace {
            match avgi_isa::decode(rec.raw) {
                Ok(i) => {
                    self.opcode_commits[i.op.to_bits() as usize] += 1;
                    let f = format_index(i.op.format());
                    if let Some(p) = prev {
                        self.pair_commits[p][f] += 1;
                    }
                    prev = Some(f);
                }
                Err(_) => {
                    self.invalid_commits += 1;
                    prev = None;
                }
            }
        }
    }

    /// Fold another campaign's coverage into this one (multi-seed corpora).
    pub fn merge(&mut self, other: &Coverage) {
        for (a, b) in self.opcode_commits.iter_mut().zip(&other.opcode_commits) {
            *a += b;
        }
        for (ra, rb) in self.pair_commits.iter_mut().zip(&other.pair_commits) {
            for (a, b) in ra.iter_mut().zip(rb) {
                *a += b;
            }
        }
        self.invalid_commits += other.invalid_commits;
        self.completed += other.completed;
        self.trapped += other.trapped;
        self.watchdogged += other.watchdogged;
    }

    fn record_outcome(&mut self, outcome: RunOutcome) {
        match outcome {
            RunOutcome::Completed => self.completed += 1,
            RunOutcome::Trap(_) => self.trapped += 1,
            _ => self.watchdogged += 1,
        }
    }

    /// Commits observed for one opcode.
    pub fn commits_of(&self, op: Opcode) -> u64 {
        self.opcode_commits[op.to_bits() as usize]
    }

    /// Defined opcodes that have committed at least once, out of all defined.
    pub fn opcode_coverage(&self) -> (usize, usize) {
        let all = Opcode::all();
        let covered = all.iter().filter(|op| self.commits_of(**op) > 0).count();
        (covered, all.len())
    }

    /// Ordered format pairs observed back-to-back, out of all 25.
    pub fn format_pair_coverage(&self) -> (usize, usize) {
        let covered = self
            .pair_commits
            .iter()
            .flatten()
            .filter(|c| **c > 0)
            .count();
        (covered, NUM_FORMATS * NUM_FORMATS)
    }

    /// Defined opcodes that have never committed.
    pub fn uncovered_opcodes(&self) -> Vec<Opcode> {
        Opcode::all()
            .iter()
            .copied()
            .filter(|op| self.commits_of(*op) == 0)
            .collect()
    }

    /// Human-readable coverage table (printed by the `fuzz_diff` bin and the
    /// corpus test).
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let (oc, ot) = self.opcode_coverage();
        let (pc, pt) = self.format_pair_coverage();
        let _ = writeln!(s, "opcode coverage: {oc}/{ot}");
        for chunk in Opcode::all().chunks(6) {
            let mut line = String::from(" ");
            for op in chunk {
                let _ = write!(line, " {:>5}={:<8}", op.mnemonic(), self.commits_of(*op));
            }
            let _ = writeln!(s, "{}", line.trim_end());
        }
        let _ = writeln!(s, "format-pair coverage (prev row -> next col): {pc}/{pt}");
        let _ = writeln!(
            s,
            "        {:>9} {:>9} {:>9} {:>9} {:>9}",
            "R", "I", "S", "J", "N"
        );
        for (p, row) in self.pair_commits.iter().enumerate() {
            let _ = writeln!(
                s,
                "      {} {:>9} {:>9} {:>9} {:>9} {:>9}",
                FORMAT_NAMES[p], row[0], row[1], row[2], row[3], row[4]
            );
        }
        let _ = writeln!(
            s,
            "programs: completed={} trapped={} watchdogged={}; invalid-raw commits={}",
            self.completed, self.trapped, self.watchdogged, self.invalid_commits
        );
        s
    }
}

/// A divergent program, shrunk to a minimal reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the program within the campaign.
    pub index: usize,
    /// Derived per-program seed (reproduce with `gen_program`).
    pub seed: u64,
    /// The full generated code words.
    pub original: Vec<u32>,
    /// Minimized code words that still diverge.
    pub minimized: Vec<u32>,
    /// Divergence of the minimized program.
    pub divergence: Divergence,
}

/// Result of [`run_fuzz`].
#[derive(Debug, Clone)]
pub struct FuzzReport {
    pub coverage: Coverage,
    pub failures: Vec<FuzzFailure>,
    pub programs: usize,
}

/// Derive the generator seed for program `index` of a campaign.
pub fn program_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn reg(i: u8) -> Reg {
    Reg::new(i).expect("generator register index in range")
}

fn word(op: Opcode, rd: u8, rs1: u8, rs2: u8, imm: i32) -> u32 {
    Instr::new(op, reg(rd), reg(rs1), reg(rs2), imm).raw
}

/// Redirect a destination away from the generator's reserved base/loop regs.
fn remap_rd(rd: u8) -> u8 {
    if (OUT_BASE_REG..=LOOP_REG).contains(&rd) {
        rd - 10
    } else {
        rd
    }
}

const R_ALU: [Opcode; 14] = [
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
const I_ALU: [Opcode; 9] = [
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
const LOADS: [Opcode; 5] = [Opcode::Lw, Opcode::Lb, Opcode::Lbu, Opcode::Lh, Opcode::Lhu];
const STORES: [Opcode; 3] = [Opcode::Sw, Opcode::Sb, Opcode::Sh];
const BRANCHES: [Opcode; 6] = [
    Opcode::Beq,
    Opcode::Bne,
    Opcode::Blt,
    Opcode::Bge,
    Opcode::Bltu,
    Opcode::Bgeu,
];

fn access_bytes(op: Opcode) -> u32 {
    match op {
        Opcode::Lw | Opcode::Sw => 4,
        Opcode::Lh | Opcode::Lhu | Opcode::Sh => 2,
        _ => 1,
    }
}

struct BodyCtx {
    /// Code-word index of body slot 0 (prologue length).
    body_base: usize,
    /// Body length in words.
    body_n: usize,
    /// Forward skips must not jump past the loop's decrement instruction.
    in_loop: bool,
}

impl BodyCtx {
    /// Largest forward skip allowed from body slot `i` (0 = none allowed).
    fn max_skip(&self, i: usize) -> usize {
        if self.in_loop {
            // Landing slot i+1+k may be at most body_n (the loop decrement),
            // otherwise a skip could hop over the decrement onto the backward
            // branch and never terminate.
            (self.body_n - i).saturating_sub(1).min(4)
        } else {
            // The epilogue's 4-NOP landing pad absorbs any skip of <= 4.
            4
        }
    }
}

fn random_reg(rng: &mut Rng) -> u8 {
    rng.gen_range_u64(u64::from(avgi_isa::NUM_ARCH_REGS)) as u8
}

fn gen_mem_access(rng: &mut Rng, op: Opcode) -> u32 {
    let size = access_bytes(op);
    let base = if rng.gen_bool(0.02) {
        random_reg(rng) // junk base: usually traps, sometimes aliases code
    } else if rng.gen_bool(0.5) {
        OUT_BASE_REG
    } else {
        DATA_BASE_REG
    };
    let mut offset = (rng.gen_range_u64(u64::from(WINDOW_BYTES / size)) as u32) * size;
    if size > 1 && rng.gen_bool(0.03) {
        offset += 1 + rng.gen_range_u64(u64::from(size - 1)) as u32; // misaligned -> trap
    }
    if op.is_store() {
        word(op, 0, base, random_reg(rng), offset as i32)
    } else {
        word(op, remap_rd(random_reg(rng)), base, 0, offset as i32)
    }
}

/// Generate one valid word for `op` at body slot `i`, or `None` if `op`
/// cannot be placed here (e.g. a branch with no room to land).
fn synth_for(rng: &mut Rng, op: Opcode, ctx: &BodyCtx, i: usize) -> Option<u32> {
    Some(match op.format() {
        Format::N => pack_n(Opcode::Nop.to_bits()),
        Format::R => word(
            op,
            remap_rd(random_reg(rng)),
            random_reg(rng),
            random_reg(rng),
            0,
        ),
        Format::I if op.is_load() => gen_mem_access(rng, op),
        Format::S if op.is_store() => gen_mem_access(rng, op),
        Format::S => {
            let k = ctx.max_skip(i);
            if k == 0 {
                return None;
            }
            let skip = 1 + rng.gen_range_usize(k);
            word(op, 0, random_reg(rng), random_reg(rng), skip as i32 + 1)
        }
        Format::J => {
            let k = ctx.max_skip(i);
            if k == 0 {
                return None;
            }
            let skip = 1 + rng.gen_range_usize(k);
            word(op, remap_rd(random_reg(rng)), 0, 0, skip as i32 + 1)
        }
        Format::I if op == Opcode::Jalr => {
            let k = ctx.max_skip(i);
            if k == 0 {
                return None;
            }
            let skip = 1 + rng.gen_range_usize(k);
            let target_word = ctx.body_base + i + 1 + skip;
            word(
                op,
                remap_rd(random_reg(rng)),
                0,
                0,
                (target_word * 4) as i32,
            )
        }
        Format::I => word(
            op,
            remap_rd(random_reg(rng)),
            random_reg(rng),
            0,
            rng.gen_range_i32(-2048, 2048),
        ),
    })
}

/// One raw word that does not decode: undefined opcode byte, undefined
/// register field, or non-zero pad bits.
fn gen_invalid_word(rng: &mut Rng) -> u32 {
    match rng.gen_range_u64(4) {
        0 => {
            let b = loop {
                let b = rng.gen_range_u64(256) as u8;
                if Opcode::from_bits(b).is_none() {
                    break b;
                }
            };
            (u32::from(b) << 24) | (rng.next_u32() & 0x00FF_FFFF)
        }
        1 => pack_i(
            Opcode::Addi.to_bits(),
            24 + rng.gen_range_u64(8) as u8, // undefined register encoding
            random_reg(rng),
            rng.gen_range_i32(0, 64),
        ),
        2 => {
            let pad = 1 + rng.next_u32() % 0x1FF; // non-zero R-format pad9
            pack_r(
                Opcode::Add.to_bits(),
                random_reg(rng),
                random_reg(rng),
                random_reg(rng),
            ) | pad
        }
        _ => pack_n(Opcode::Nop.to_bits()) | (1 + rng.next_u32() % 0x00FF_FFFF),
    }
}

/// Generate a complete program (prologue + body + landing pad + halt) for one
/// fuzz iteration. `coverage` is a snapshot used to steer some slots toward
/// opcodes that have not committed yet; pass a fresh [`Coverage`] for an
/// unbiased program.
pub fn gen_program(rng: &mut Rng, coverage: &Coverage, max_instrs: usize) -> Vec<u32> {
    let body_n = 1 + rng.gen_range_usize(max_instrs.max(1));
    let in_loop = body_n >= 4 && rng.gen_bool(0.3);
    let uncovered = coverage.uncovered_opcodes();

    let mut code: Vec<u32> = Vec::with_capacity(body_n + 12);
    // OUTPUT_BASE = 2 << 18, DATA_BASE = 1 << 18; `lui` shifts its imm by 18.
    code.push(word(Opcode::Lui, OUT_BASE_REG, 0, 0, 2));
    code.push(word(Opcode::Lui, DATA_BASE_REG, 0, 0, 1));
    if in_loop {
        let iters = 2 + rng.gen_range_i32(0, 3);
        code.push(word(Opcode::Addi, LOOP_REG, 0, 0, iters));
    }
    let ctx = BodyCtx {
        body_base: code.len(),
        body_n,
        in_loop,
    };

    let mut body: Vec<u32> = Vec::with_capacity(body_n + 2);
    while body.len() < body_n {
        let i = body.len();
        let remaining = body_n - i;

        if !uncovered.is_empty() && rng.gen_bool(0.15) {
            let op = *rng.choose(&uncovered);
            if let Some(w) = synth_for(rng, op, &ctx, i) {
                body.push(w);
                continue;
            }
        }

        match rng.gen_range_u64(100) {
            0..=27 => {
                let op = *rng.choose(&R_ALU);
                body.push(synth_for(rng, op, &ctx, i).expect("R-format always placeable"));
            }
            28..=46 => {
                let op = *rng.choose(&I_ALU);
                body.push(synth_for(rng, op, &ctx, i).expect("I-format ALU always placeable"));
            }
            47..=49 => body.push(pack_n(Opcode::Nop.to_bits())),
            50..=63 => {
                let op = *rng.choose(&LOADS);
                body.push(gen_mem_access(rng, op));
            }
            64..=77 => {
                let op = *rng.choose(&STORES);
                body.push(gen_mem_access(rng, op));
            }
            78..=89 => {
                let op = *rng.choose(&BRANCHES);
                match synth_for(rng, op, &ctx, i) {
                    Some(w) => body.push(w),
                    None => body.push(pack_n(Opcode::Nop.to_bits())),
                }
            }
            90..=93 => match synth_for(rng, Opcode::Jal, &ctx, i) {
                Some(w) => body.push(w),
                None => body.push(pack_n(Opcode::Nop.to_bits())),
            },
            94..=95 => match synth_for(rng, Opcode::Jalr, &ctx, i) {
                Some(w) => body.push(w),
                None => body.push(pack_n(Opcode::Nop.to_bits())),
            },
            _ => {
                // Invalid encoding; half the time hide it behind an
                // always-taken branch so it is fetched but must never commit.
                if remaining >= 2 && rng.gen_bool(0.5) {
                    body.push(word(Opcode::Beq, 0, 0, 0, 2));
                    body.push(gen_invalid_word(rng));
                } else {
                    body.push(gen_invalid_word(rng));
                }
            }
        }
    }
    debug_assert_eq!(body.len(), body_n);
    code.extend_from_slice(&body);

    if in_loop {
        code.push(word(Opcode::Addi, LOOP_REG, LOOP_REG, 0, -1));
        // Branch back to body slot 0: imm is in instruction words.
        let back = ctx.body_base as i32 - code.len() as i32;
        code.push(word(Opcode::Bne, 0, LOOP_REG, 0, back));
    }
    // Landing pad for forward skips of up to 4, then halt.
    for _ in 0..4 {
        code.push(pack_n(Opcode::Nop.to_bits()));
    }
    code.push(pack_n(Opcode::Halt.to_bits()));
    code
}

/// Run one generated program on the pipeline and lockstep-check it.
pub fn run_one(
    code: &[u32],
    config: &MuarchConfig,
    max_cycles: u64,
) -> (
    RunOutcome,
    Option<Vec<CommitRecord>>,
    Result<LockstepReport, Divergence>,
) {
    let program = Program::new("fuzz", code.to_vec(), WINDOW_BYTES);
    let mut sim = Sim::new(&program, config.clone());
    let ctl = RunControl {
        max_cycles,
        record_trace: true,
        ..RunControl::default()
    };
    let report = sim.run(&ctl);
    // The reference side of the differential runs on the fast tier: the
    // block-cache decode and trap paths get hammered by the same hostile
    // corpus the pipeline does (the tiers themselves are pinned equal by
    // `verify_fast_tier` in `avgi-faultsim`'s `xtier` test).
    let verdict = verify_report_tier(&program, &report, ExecTier::Fast);
    (report.outcome, report.trace, verdict)
}

/// Delta-debugging shrinker: repeatedly delete chunks (halving the chunk
/// size), then replace surviving words with NOPs, keeping every candidate for
/// which `still_fails` holds. Bounded by an attempt budget so pathological
/// predicates terminate.
pub fn shrink_with(code: &[u32], mut still_fails: impl FnMut(&[u32]) -> bool) -> Vec<u32> {
    const MAX_ATTEMPTS: usize = 768;
    let mut best = code.to_vec();
    let mut attempts = 0usize;

    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < best.len() && attempts < MAX_ATTEMPTS {
            let end = (i + chunk).min(best.len());
            let mut cand = best.clone();
            cand.drain(i..end);
            attempts += 1;
            if !cand.is_empty() && still_fails(&cand) {
                best = cand;
                progressed = true; // retry the same position
            } else {
                i += chunk;
            }
        }
        if attempts >= MAX_ATTEMPTS || (chunk == 1 && !progressed) {
            break;
        }
        if chunk > 1 {
            chunk = (chunk / 2).max(1);
        }
    }

    let nop = pack_n(Opcode::Nop.to_bits());
    for i in 0..best.len() {
        if attempts >= MAX_ATTEMPTS || best[i] == nop {
            continue;
        }
        let mut cand = best.clone();
        cand[i] = nop;
        attempts += 1;
        if still_fails(&cand) {
            best = cand;
        }
    }
    best
}

fn shrink_failure(code: &[u32], config: &MuarchConfig, max_cycles: u64) -> (Vec<u32>, Divergence) {
    let minimized = shrink_with(code, |cand| run_one(cand, config, max_cycles).2.is_err());
    let divergence = run_one(&minimized, config, max_cycles)
        .2
        .expect_err("shrinker preserves failure");
    (minimized, divergence)
}

/// Run a full fuzzing campaign.
///
/// Programs are generated and checked in chunks; within a chunk the coverage
/// snapshot used for steering is frozen, so results are bit-identical for any
/// `threads` setting.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.threads
    };
    const CHUNK: usize = 256;

    let mut coverage = Coverage::new();
    let mut failures = Vec::new();
    let mut next = 0usize;
    while next < cfg.programs {
        let count = CHUNK.min(cfg.programs - next);
        let frozen = coverage.clone();
        let frozen_ref = &frozen;
        // (index, code, outcome, trace, divergence) per program, index-sorted.
        type ProgramResult = (
            usize,
            Vec<u32>,
            RunOutcome,
            Option<Vec<CommitRecord>>,
            Option<Divergence>,
        );
        let results: Vec<ProgramResult> = std::thread::scope(|s| {
            let mut joins = Vec::with_capacity(threads);
            for t in 0..threads {
                let lo = next + count * t / threads;
                let hi = next + count * (t + 1) / threads;
                let cfg = &*cfg;
                joins.push(s.spawn(move || {
                    let mut out = Vec::with_capacity(hi - lo);
                    for idx in lo..hi {
                        let mut rng = Rng::seed_from_u64(program_seed(cfg.seed, idx));
                        let code = gen_program(&mut rng, frozen_ref, cfg.max_instrs);
                        let (outcome, trace, verdict) = run_one(&code, &cfg.config, cfg.max_cycles);
                        out.push((idx, code, outcome, trace, verdict.err()));
                    }
                    out
                }));
            }
            joins
                .into_iter()
                .flat_map(|j| j.join().expect("fuzz worker panicked"))
                .collect()
        });
        for (idx, code, outcome, trace, err) in results {
            coverage.record_outcome(outcome);
            if let Some(trace) = &trace {
                coverage.record_trace(trace);
            }
            if let Some(divergence) = err {
                let (minimized, divergence) = if cfg.shrink {
                    shrink_failure(&code, &cfg.config, cfg.max_cycles)
                } else {
                    (code.clone(), divergence)
                };
                failures.push(FuzzFailure {
                    index: idx,
                    seed: program_seed(cfg.seed, idx),
                    original: code,
                    minimized,
                    divergence,
                });
            }
        }
        next += count;
    }
    FuzzReport {
        coverage,
        failures,
        programs: cfg.programs,
    }
}
