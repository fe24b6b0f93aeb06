//! The out-of-order core: fetch → decode → rename/dispatch → issue/execute
//! → in-order commit.
//!
//! The model is cycle-driven and fully deterministic: given the same program
//! and configuration, every run produces an identical commit trace (cycle
//! numbers included), which is what makes on-the-fly golden-trace comparison
//! — and therefore the paper's `ETE` manifestation class — meaningful.
//!
//! [`Sim`] is a sum of parts that own their storage — the register file,
//! three [`Ring`]s (ROB, LQ, SQ), the memory [`Hierarchy`], the predictor,
//! two latches — and each part restores, compares, flips and names its dead
//! storage for itself. This module holds the machine and its cycle; the
//! stages are `impl Sim` blocks, one file each: `fetch`, `dispatch`, `issue`
//! (select, execute, the load/store unit), `commit` (writeback, control
//! resolution, squash, commit), `snapshot` (snapshot, restore, compare) and
//! `site` (the fault-site map).

mod commit;
mod dispatch;
mod fetch;
mod issue;
mod site;
mod snapshot;

pub use snapshot::Snapshot;

use crate::config::{LsqSlot, MuarchConfig, SlotSet};
use crate::fault::Fault;
use crate::hierarchy::Hierarchy;
use crate::predictor::Predictor;
use crate::program::Program;
use crate::queues::{pack_lq, pack_rob, pack_sq, LQ_ENTRY_BITS, ROB_ENTRY_BITS, SQ_ENTRY_BITS};
use crate::regfile::{PhysReg, RegFile};
use crate::ring::{Entry, Ring};
use crate::run::{ExecStats, RunControl, RunOutcome, RunReport, TrapKind};
use crate::trace::{CommitRecord, Deviation, GoldenRun};
use avgi_isa::instr::Instr;
use std::collections::VecDeque;
use std::sync::Arc;

const NO_DEST: u8 = 0xFF;

/// ROB entry flag bits (packed into the injectable image).
const FLAG_LOAD: u8 = 0b0001;
const FLAG_STORE: u8 = 0b0010;
const FLAG_CONTROL: u8 = 0b0100;
const FLAG_WRITES: u8 = 0b1000;

/// ROB payload. An entry's lifecycle state is not stored here: it is the
/// slot's membership in the [`Scheduler`]'s `in_iq` / `executing` slot sets
/// (in neither: done), and its finish cycle lives in the parallel
/// `rob_finish` array.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct RobEntry {
    seq: u64,
    pc: u32,
    raw: u32,
    decoded: Option<Instr>,
    exception: Option<TrapKind>,
    dest_arch: u8,
    new_phys: PhysReg,
    prev_phys: PhysReg,
    src1: Option<PhysReg>,
    src2: Option<PhysReg>,
    is_load: bool,
    is_store: bool,
    is_control: bool,
    /// LQ/SQ ring slot of this instruction (loads/stores only), recorded at
    /// dispatch so resolution never has to scan the queues for a sequence
    /// number.
    lq_slot: LsqSlot,
    sq_slot: LsqSlot,
    predicted_next: u32,
    actual_next: u32,
    resolved_control: bool,
    taken: bool,
    ea: u32,
    val: u32,
}

impl Entry for RobEntry {
    const IMAGE_BITS: u32 = ROB_ENTRY_BITS;

    fn image(&self) -> Option<u128> {
        let writes = self.dest_arch != NO_DEST;
        let flag = |set: bool, bit: u8| if set { bit } else { 0 };
        let flags = flag(self.is_load, FLAG_LOAD)
            | flag(self.is_store, FLAG_STORE)
            | flag(self.is_control, FLAG_CONTROL)
            | flag(writes, FLAG_WRITES);
        let dest = if writes { self.dest_arch } else { 0 };
        Some(pack_rob(self.pc, self.seq as u16, dest, flags))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct LqShadow {
    seq: u64,
    resolved: bool,
    paddr: u32,
}

impl Entry for LqShadow {
    const IMAGE_BITS: u32 = LQ_ENTRY_BITS;

    fn image(&self) -> Option<u128> {
        (self.resolved).then(|| pack_lq(self.paddr, self.seq as u16))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct SqShadow {
    seq: u64,
    resolved: bool,
    paddr: u32,
    size: u8,
    data: u32,
}

impl Entry for SqShadow {
    const IMAGE_BITS: u32 = SQ_ENTRY_BITS;

    fn image(&self) -> Option<u128> {
        (self.resolved).then(|| pack_sq(self.paddr, self.data, self.seq as u16))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Fetched {
    pc: u32,
    raw: u32,
    decoded: Option<Instr>,
    exception: Option<TrapKind>,
    predicted_next: u32,
}

/// The front end's latch: where fetch stands.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct FrontEnd {
    pc: u32,
    ready_cycle: u64,
    paused: bool,
}

/// The back end's scheduling latch. The back end is event-driven: one bit
/// per ROB slot in three sets replaces per-cycle polls of every entry.
/// `in_iq` holds the slots occupying an issue-queue entry; `ready` ⊆ `in_iq`
/// those whose operands have all been produced (set at dispatch, or by the
/// writeback that produces the last one — see `RegFile::write`);
/// `executing` the issued slots waiting for `rob_finish`. A live slot in
/// neither `in_iq` nor `executing` is done. Each stage visits only its own
/// set, oldest first ([`ring_order`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Scheduler {
    in_iq: SlotSet,
    ready: SlotSet,
    executing: SlotSet,
}

/// The growable per-run buffers (decode queue, trace, armed faults), grouped
/// into one arena-style unit with a generation counter.
///
/// Rewinding a scratch simulator resets these as a single bump:
/// [`RunScratch::rewind_to`] advances the generation and refills every
/// buffer in one place (`clone_from` into the retained capacity: an O(1)
/// length reset plus a copy of only the *live* content). The generation stamps ROB slots at dispatch, so
/// any index that leaks across a rewind (a stale slot-set bit or
/// decode-queue reference) trips a debug assertion instead of silently
/// reading a previous run's state.
#[derive(Debug, Clone)]
struct RunScratch {
    /// Bumped on every rewind; compared against `rob_stamp` at use sites.
    gen: u64,
    decode_q: VecDeque<Fetched>,
    trace: Vec<CommitRecord>,
    pending_faults: Vec<Fault>, // sorted by cycle, ascending
}

impl RunScratch {
    fn new(cfg: &MuarchConfig) -> Self {
        RunScratch {
            gen: 0,
            decode_q: VecDeque::with_capacity(2 * cfg.fetch_width as usize + 2),
            trace: Vec::new(),
            pending_faults: Vec::new(),
        }
    }

    /// The single bump-reset: invalidate everything from the previous run,
    /// then adopt `src`'s live content.
    fn rewind_to(&mut self, src: &RunScratch) {
        #[rustfmt::skip] // `gen` counts this arena's own rewinds
        let RunScratch { gen: _, decode_q, trace, pending_faults } = src;
        self.gen += 1;
        self.decode_q.clone_from(decode_q);
        self.trace.clone_from(trace);
        self.pending_faults.clone_from(pending_faults);
    }
}

/// Iterates the slots of `set` in ring (age) order starting at `head`:
/// first the slots at or above `head`, ascending, then the wrapped ones
/// below it. Holds for any ROB size up to the set width — only bits below
/// `rob_entries` are ever set, so no rotation by the ring length is needed
/// (a 32-entry ROB must not be walked as if it wrapped at 64).
///
/// The iterator owns a copy of the set: slots added or removed while it
/// runs are not seen, so callers stop iterating after a squash.
fn ring_order(set: SlotSet, head: usize) -> impl Iterator<Item = usize> {
    let below_head = set & ((1 << head) - 1);
    let mut parts = [set & !below_head, below_head];
    core::iter::from_fn(move || {
        if parts[0] == 0 {
            parts = [parts[1], 0];
            if parts[0] == 0 {
                return None;
            }
        }
        let slot = parts[0].trailing_zeros() as usize;
        parts[0] &= parts[0] - 1;
        Some(slot)
    })
}

/// The simulator: one core, one program, one run.
///
/// Construct with [`Sim::new`], optionally arm faults with
/// [`Sim::inject`], then call [`Sim::run`].
///
/// `Sim` is `Clone`: snapshotting a simulator mid-run is how campaigns
/// implement checkpointing (skipping the fault-free pre-injection period,
/// §IV.B of the paper) — see [`Sim::run_to_cycle`].
#[derive(Debug, Clone)]
pub struct Sim {
    cfg: MuarchConfig,
    cycle: u64,
    seq_next: u64,
    front: FrontEnd,
    sched: Scheduler,

    // Rename + back end. `rob_finish` and `rob_stamp` are indexed by ROB
    // slot; the stamp carries the run-scratch generation for stale-index
    // detection.
    rf: RegFile,
    rob: Ring<RobEntry>,
    rob_finish: Vec<u64>,
    rob_stamp: Vec<u64>,
    lq: Ring<LqShadow>,
    sq: Ring<SqShadow>,

    hier: Hierarchy,
    pred: Predictor,

    // Program/output.
    output_addr: u32,
    output_len: u32,

    // Fault injection.
    faults_next: usize, // cursor into `scratch.pending_faults` (applied prefix)
    first_inject_cycle: Option<u64>,

    // Tracing.
    commit_index: u64,
    first_deviation: Option<Deviation>,

    stats: ExecStats,

    // Per-run growable buffers (decode queue, trace, armed faults), reset as
    // one unit — see [`RunScratch`].
    scratch: RunScratch,
}

impl Sim {
    /// Builds a simulator for `program` under `cfg`.
    pub fn new(program: &Program, cfg: MuarchConfig) -> Self {
        cfg.validate();
        Sim {
            cycle: 0,
            seq_next: 0,
            front: FrontEnd {
                pc: program.entry,
                ..FrontEnd::default()
            },
            sched: Scheduler::default(),
            rf: RegFile::new(cfg.phys_regs),
            rob: Ring::new(cfg.rob_entries),
            rob_finish: vec![0; cfg.rob_entries as usize],
            rob_stamp: vec![0; cfg.rob_entries as usize],
            lq: Ring::new(cfg.lq_entries),
            sq: Ring::new(cfg.sq_entries),
            hier: Hierarchy::new(&cfg, program.build_memory()),
            pred: Predictor::new(cfg.predictor_entries, cfg.btb_entries),
            output_addr: program.output_addr,
            output_len: program.output_len,
            faults_next: 0,
            first_inject_cycle: None,
            commit_index: 0,
            first_deviation: None,
            stats: ExecStats::default(),
            scratch: RunScratch::new(&cfg),
            cfg,
        }
    }

    /// Arms a fault for injection during [`Sim::run`].
    pub fn inject(&mut self, fault: Fault) {
        debug_assert!(
            fault.site.bit < fault.site.structure.bit_count(&self.cfg),
            "fault bit out of range for {}",
            fault.site.structure
        );
        self.first_inject_cycle = Some(
            self.first_inject_cycle
                .map_or(fault.cycle, |c| c.min(fault.cycle)),
        );
        // Binary-search insertion keeps `pending_faults` sorted without
        // re-sorting the whole vector per call. The insertion point never
        // lands before the already-applied prefix: if it would, every
        // unapplied fault is later than this one and inserting at the cursor
        // preserves order.
        let pos = self
            .scratch
            .pending_faults
            .partition_point(|f| f.cycle <= fault.cycle)
            .max(self.faults_next);
        self.scratch.pending_faults.insert(pos, fault);
    }

    /// Runs to completion under `ctl` and reports.
    pub fn run(&mut self, ctl: &RunControl) -> RunReport {
        let outcome = self
            .run_to_cycle(u64::MAX, ctl)
            .expect("an unbounded run ends only with an outcome");
        self.report(outcome, ctl)
    }

    /// Closes a run that ended with `outcome` — however it was stepped
    /// there — and builds its report.
    pub fn report(&mut self, outcome: RunOutcome, ctl: &RunControl) -> RunReport {
        self.stats.rf_ace_cycles = self.rf.finalize_ace();
        let output = if outcome == RunOutcome::Completed {
            self.hier.flush();
            Some(self.hier.mem.read_range(self.output_addr, self.output_len))
        } else {
            None
        };
        RunReport {
            outcome,
            cycles: self.cycle,
            first_deviation: self.first_deviation,
            output,
            trace: ctl
                .record_trace
                .then(|| core::mem::take(&mut self.scratch.trace)),
            inject_cycle: self.first_inject_cycle,
            stats: self.stats,
        }
    }

    /// Executes exactly one cycle of the pipeline. Returns `Some(outcome)`
    /// when the run ends this cycle.
    fn step(&mut self, ctl: &RunControl) -> Option<RunOutcome> {
        self.apply_due_faults();
        if let Some(out) = self.writeback() {
            return Some(out);
        }
        if let Some(out) = self.commit(ctl) {
            return Some(out);
        }
        if ctl.stop_at_first_deviation && self.first_deviation.is_some() {
            return Some(RunOutcome::StoppedAtDeviation);
        }
        self.issue();
        self.dispatch();
        self.fetch();
        self.cycle += 1;
        if ctl.max_cycles > 0 && self.cycle > ctl.max_cycles {
            return Some(RunOutcome::Watchdog);
        }
        if let (Some(window), Some(at)) = (ctl.ert_window, self.first_inject_cycle) {
            // The window opens once every armed fault has been applied.
            let applied = self.faults_next == self.scratch.pending_faults.len();
            if applied && self.first_deviation.is_none() && self.cycle >= at + window {
                return Some(RunOutcome::ErtExpired);
            }
        }
        None
    }

    /// Steps under `ctl` to the *beginning* of cycle `target` (no stage of
    /// `target` has executed yet); `Some(outcome)` if the run ended first.
    /// This is how a fault-free prefix is walked to a checkpoint or an
    /// injection cycle, and how a faulty run is carried to its end; a run
    /// resumed from a snapshot taken there behaves exactly like an
    /// uninterrupted one.
    pub fn run_to_cycle(&mut self, target: u64, ctl: &RunControl) -> Option<RunOutcome> {
        while self.cycle < target {
            if let Some(out) = self.step(ctl) {
                return Some(out);
            }
        }
        None
    }

    /// Current cycle (for tests and instrumentation).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Read access to the run statistics so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Reserves trace capacity ahead of a trace-recording run.
    pub fn reserve_trace(&mut self, n: usize) {
        self.scratch.trace.reserve(n);
    }

    /// The first commit-trace deviation recorded so far.
    pub fn first_deviation(&self) -> Option<Deviation> {
        self.first_deviation
    }
}

/// Captures the golden (fault-free) run of `program` under `cfg`.
///
/// # Panics
///
/// Panics if the program does not complete within `max_cycles` — golden
/// programs are required to halt.
pub fn capture_golden(program: &Program, cfg: &MuarchConfig, max_cycles: u64) -> Arc<GoldenRun> {
    let mut sim = Sim::new(program, cfg.clone());
    // Pre-size the trace from a committed-instruction estimate (IPC ≈ 1,
    // bounded) so recording does not grow the vector incrementally.
    sim.reserve_trace((max_cycles as usize).clamp(4096, 1 << 18));
    let ctl = RunControl {
        max_cycles,
        record_trace: true,
        ..RunControl::default()
    };
    let report = sim.run(&ctl);
    assert_eq!(
        report.outcome,
        RunOutcome::Completed,
        "golden run of `{}` did not complete: {:?} after {} cycles",
        program.name,
        report.outcome,
        report.cycles,
    );
    Arc::new(GoldenRun {
        trace: report.trace.expect("trace recorded"),
        cycles: report.cycles,
        output: report.output.expect("completed"),
        stats: report.stats,
    })
}

#[cfg(test)]
mod tests;

#[cfg(test)]
#[path = "../../tests/whitebox/converged_with.rs"]
mod converged_with_tests;
