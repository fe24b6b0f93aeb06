//! Commit-trace capture and golden-run comparison.
//!
//! Every committed instruction produces one [`CommitRecord`] carrying
//! exactly the observables the paper's Fig. 2 classification conditions
//! need: commit cycle, PC, the raw instruction word (opcode + operand +
//! immediate fields), the memory effective address, and the produced value.
//! A faulty run compares its records on the fly against the golden run and
//! reports the *first* mismatch as a [`Deviation`] — the moment the fault
//! "touches" the software layer.

/// One committed instruction's architectural observables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommitRecord {
    /// Cycle at which the instruction committed.
    pub cycle: u64,
    /// Program counter.
    pub pc: u32,
    /// Raw 32-bit instruction word as fetched (possibly corrupted).
    pub raw: u32,
    /// Memory effective address (loads/stores), else 0.
    pub ea: u32,
    /// Produced value: destination-register writeback, store data, else 0.
    pub val: u32,
}

impl CommitRecord {
    /// Whether two records are architecturally identical (including timing).
    pub fn matches(&self, other: &CommitRecord) -> bool {
        self == other
    }
}

/// The first point at which a faulty run's commit trace diverges from the
/// golden trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deviation {
    /// Commit index (number of instructions committed before this one).
    pub index: u64,
    /// What the fault-free run committed at this index.
    pub golden: CommitRecord,
    /// What the faulty run committed.
    pub faulty: CommitRecord,
}

/// A recorded fault-free execution: full commit trace, final output bytes,
/// timing, and run statistics (including ACE instrumentation).
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// Full commit trace.
    pub trace: Vec<CommitRecord>,
    /// Per physical register, the cycles at which a flip of its value is
    /// never read before the run frees the register: the exit at injection
    /// a campaign takes beyond dead storage.
    pub rf_un_ace: crate::regfile::UnAceIndex,
    /// Total execution cycles.
    pub cycles: u64,
    /// Bytes of the program's output region after the post-run cache flush.
    pub output: Vec<u8>,
    /// Execution statistics of the fault-free run.
    pub stats: crate::run::ExecStats,
}

impl GoldenRun {
    /// Instructions committed.
    pub fn committed(&self) -> u64 {
        self.trace.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_equality_covers_every_field() {
        let base = CommitRecord {
            cycle: 10,
            pc: 4,
            raw: 0x1000_0000,
            ea: 8,
            val: 3,
        };
        assert!(base.matches(&base));
        for (i, r) in [
            CommitRecord { cycle: 11, ..base },
            CommitRecord { pc: 8, ..base },
            CommitRecord { raw: 0, ..base },
            CommitRecord { ea: 12, ..base },
            CommitRecord { val: 4, ..base },
        ]
        .iter()
        .enumerate()
        {
            assert!(!base.matches(r), "field {i} change not detected");
        }
    }
}

#[cfg(test)]
mod golden_tests {
    use super::*;

    #[test]
    fn golden_run_committed_counts_trace_entries() {
        let g = GoldenRun {
            trace: vec![
                CommitRecord {
                    cycle: 1,
                    pc: 0,
                    raw: 0,
                    ea: 0,
                    val: 0,
                },
                CommitRecord {
                    cycle: 2,
                    pc: 4,
                    raw: 0,
                    ea: 0,
                    val: 0,
                },
            ],
            rf_un_ace: Default::default(),
            cycles: 10,
            output: vec![],
            stats: crate::run::ExecStats::default(),
        };
        assert_eq!(g.committed(), 2);
    }
}
