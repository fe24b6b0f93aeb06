//! Typed errors of the campaign engine.
//!
//! The engine distinguishes "the simulated machine crashed" (a run
//! outcome, never an error) from "the campaign infrastructure failed"
//! (this type): checkpoint construction, journal I/O, and journal/key
//! mismatches. Individual-run failures are isolated and recorded as
//! [`crate::InjectionResult`]s, so none of these variants is produced by a
//! faulty run.

use avgi_muarch::run::RunOutcome;
use core::fmt;

/// Why a campaign-engine operation failed.
#[derive(Debug)]
pub enum CampaignError {
    /// The fault-free prefix terminated before a requested snapshot point,
    /// so the checkpoint set cannot be built. A campaign over such a golden
    /// run refuses to start: `run_campaign` panics with this error.
    CheckpointPrefixEnded {
        /// How the prefix run ended.
        outcome: RunOutcome,
        /// Cycle the prefix had reached.
        at_cycle: u64,
        /// Snapshot cycle that was being run to.
        target: u64,
    },
    /// A journal file operation failed.
    Io(std::io::Error),
    /// The journal's header does not parse as a campaign header.
    JournalHeader(String),
    /// The journal on disk was written by a different campaign (key
    /// mismatch); resuming from it would silently mix incompatible results.
    JournalMismatch {
        /// Which key field differs.
        field: &'static str,
        /// Value expected by the running campaign.
        expected: String,
        /// Value found in the journal header.
        found: String,
    },
    /// A shard was asked to run a fault index outside the campaign's
    /// sampled fault list (a corrupt or mismatched work lease).
    ShardIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of faults in the campaign.
        faults: usize,
    },
    /// An interleaved shard was named that does not exist: `index` must be
    /// below `count`, or the call would re-run another shard's indices.
    ShardOutOfRange {
        /// The shard asked for.
        index: usize,
        /// The number of shards it was said to be one of.
        count: usize,
    },
    /// The campaign's fault list cannot be sampled (e.g. a zero-cycle
    /// golden run).
    Sampling(crate::sampling::SamplingError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::CheckpointPrefixEnded { outcome, at_cycle, target } => write!(
                f,
                "fault-free prefix ended ({outcome:?}) at cycle {at_cycle} before snapshot point {target}"
            ),
            CampaignError::Io(e) => write!(f, "journal I/O failed: {e}"),
            CampaignError::JournalHeader(msg) => write!(f, "malformed journal header: {msg}"),
            CampaignError::JournalMismatch { field, expected, found } => write!(
                f,
                "journal belongs to a different campaign: `{field}` is {found}, expected {expected}"
            ),
            CampaignError::ShardIndexOutOfRange { index, faults } => write!(
                f,
                "shard lease names fault index {index}, but the campaign samples only {faults} faults"
            ),
            CampaignError::ShardOutOfRange { index, count } => {
                write!(f, "no shard {index} of {count}: shard indices run 0..{count}")
            }
            CampaignError::Sampling(e) => write!(f, "fault sampling failed: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io(e) => Some(e),
            CampaignError::Sampling(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

impl From<crate::sampling::SamplingError> for CampaignError {
    fn from(e: crate::sampling::SamplingError) -> Self {
        CampaignError::Sampling(e)
    }
}

/// Why [`verified_golden`](crate::verified_golden) refused to serve a
/// golden run. Cloneable, so every later call for the same pair returns it
/// again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenError {
    /// The pipeline's fault-free commit trace diverges from the
    /// architectural reference.
    Lockstep {
        /// Workload name.
        workload: String,
        /// The first divergence, as the reference model reports it.
        divergence: String,
    },
    /// The fault-free output differs from the workload's expected bytes.
    Output {
        /// Workload name.
        workload: String,
    },
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Lockstep {
                workload,
                divergence,
            } => write!(
                f,
                "golden run of `{workload}` fails architectural lockstep:\n{divergence}"
            ),
            GoldenError::Output { workload } => write!(
                f,
                "golden run of `{workload}` does not produce the expected output"
            ),
        }
    }
}

impl std::error::Error for GoldenError {}
