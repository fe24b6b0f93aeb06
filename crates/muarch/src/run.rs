//! Run control and run reports.

use crate::fault::Structure;
use crate::mem::MemFault;
use crate::trace::{CommitRecord, Deviation, GoldenRun};
use std::sync::Arc;

/// An architecturally visible trap that terminates the program (a crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapKind {
    /// A committed instruction word does not decode (unknown opcode,
    /// undefined register index, or non-zero pad).
    UndefinedInstruction,
    /// A memory access or instruction fetch faulted.
    Memory(MemFault),
}

/// How a simulation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// `halt` committed; the output region is valid.
    Completed,
    /// An architectural trap crashed the program.
    Trap(TrapKind),
    /// A commit-side integrity check on ROB/LQ/SQ state failed — the
    /// simulator aborted before any architectural effect (the paper's `PRE`
    /// precursor).
    IntegrityViolation(Structure),
    /// The watchdog cycle limit expired (hang).
    Watchdog,
    /// Early stop: the first commit-trace deviation was observed and
    /// `stop_at_first_deviation` was set (AVGI insights 1 & 2).
    StoppedAtDeviation,
    /// Early stop: the effective-residency-time window elapsed with no
    /// deviation (AVGI insight 3); the fault is Benign for IMM purposes.
    ErtExpired,
    /// A per-run wall-clock budget expired. No engine produces it: a run
    /// ends only by what the simulated machine does, and a hang is
    /// [`RunOutcome::Watchdog`]. The value stays because every report's
    /// outcome counters, the journal and the wire codecs name it.
    /// Classified like `Watchdog`.
    WallClockExpired,
    /// The simulator itself panicked while executing this run (an internal
    /// invariant was violated by the injected state). Produced by the
    /// campaign layer's panic isolation, never by [`crate::pipeline::Sim`]
    /// directly; the truncated panic message travels on the campaign's
    /// `InjectionResult`.
    SimAbort,
}

impl RunOutcome {
    /// Whether this outcome is a crash (trap, integrity violation, hang, or
    /// simulator abort).
    pub fn is_crash(self) -> bool {
        matches!(
            self,
            RunOutcome::Trap(_)
                | RunOutcome::IntegrityViolation(_)
                | RunOutcome::Watchdog
                | RunOutcome::WallClockExpired
                | RunOutcome::SimAbort
        )
    }
}

/// Parameters controlling one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Watchdog: abort with [`RunOutcome::Watchdog`] past this many cycles.
    /// `0` means "no limit" (only safe for golden runs of known programs).
    pub max_cycles: u64,
    /// Golden run to compare commits against (faulty runs).
    pub golden: Option<Arc<GoldenRun>>,
    /// Stop as soon as the first commit-trace deviation is seen.
    pub stop_at_first_deviation: bool,
    /// Stop `window` cycles after injection if no deviation has been seen.
    pub ert_window: Option<u64>,
    /// Record the full commit trace (golden-capture runs).
    pub record_trace: bool,
}

/// Performance/behaviour counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions fetched (including wrong-path).
    pub fetched: u64,
    /// Instructions committed.
    pub committed: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// ITLB misses.
    pub itlb_misses: u64,
    /// DTLB misses.
    pub dtlb_misses: u64,
    /// Branch mispredictions (including indirect-target mispredictions).
    pub mispredicts: u64,
    /// Instructions squashed by recovery.
    pub squashed: u64,
    /// Register-file ACE instrumentation: total cycles during which
    /// physical registers held values still to be consumed
    /// (writeback → last read, summed over registers).
    pub rf_ace_cycles: u64,
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Total cycles simulated.
    pub cycles: u64,
    /// First commit-trace deviation, if one was observed.
    pub first_deviation: Option<Deviation>,
    /// Output-region bytes (present only when the run completed).
    pub output: Option<Vec<u8>>,
    /// Full commit trace (present only when `record_trace` was set).
    pub trace: Option<Vec<CommitRecord>>,
    /// Cycle at which the (first) fault was injected, if any was armed.
    pub inject_cycle: Option<u64>,
    /// Counters.
    pub stats: ExecStats,
}

impl RunReport {
    /// Cycles simulated after fault injection — the quantity the paper's
    /// speedup comparison counts (pre-injection cycles are skipped by
    /// checkpointing in both the traditional and the AVGI flow, §IV.B).
    pub fn post_inject_cycles(&self) -> u64 {
        match self.inject_cycle {
            Some(at) => self.cycles.saturating_sub(at),
            None => self.cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_outcomes_classified() {
        assert!(RunOutcome::Trap(TrapKind::UndefinedInstruction).is_crash());
        assert!(RunOutcome::Trap(TrapKind::Memory(MemFault::OutOfRange(0))).is_crash());
        assert!(RunOutcome::IntegrityViolation(Structure::Rob).is_crash());
        assert!(RunOutcome::Watchdog.is_crash());
        assert!(RunOutcome::WallClockExpired.is_crash());
        assert!(RunOutcome::SimAbort.is_crash());
        assert!(!RunOutcome::Completed.is_crash());
        assert!(!RunOutcome::StoppedAtDeviation.is_crash());
        assert!(!RunOutcome::ErtExpired.is_crash());
    }

    #[test]
    fn post_inject_cycles_accounting() {
        let mut r = RunReport {
            outcome: RunOutcome::Completed,
            cycles: 1_000,
            first_deviation: None,
            output: None,
            trace: None,
            inject_cycle: None,
            stats: ExecStats::default(),
        };
        assert_eq!(
            r.post_inject_cycles(),
            1_000,
            "no injection: full run counts"
        );
        r.inject_cycle = Some(400);
        assert_eq!(r.post_inject_cycles(), 600);
        r.inject_cycle = Some(2_000); // armed after the end: saturates
        assert_eq!(r.post_inject_cycles(), 0);
    }
}
