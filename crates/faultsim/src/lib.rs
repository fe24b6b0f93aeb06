//! # avgi-faultsim — the statistical fault injection framework
//!
//! The GeFIN analogue of the reproduction: deterministic uniform fault
//! sampling (Leveugle et al. \[1\]), golden-run capture, and parallel
//! injection campaigns over the twelve hardware structures of the
//! microarchitecture simulator.
//!
//! Three [`RunMode`]s map to the paper's flows:
//!
//! * [`RunMode::EndToEnd`] — the traditional accelerated SFI baseline; it
//!   records the first commit-trace deviation too,
//! * [`RunMode::Instrumented`] — the same run under a second label, the
//!   §III joint HVF/AVF analysis used to learn IMM weights (kept until the
//!   journal and spec formats' next version bump),
//! * [`RunMode::FirstDeviation`] — the AVGI production mode (stop at first
//!   corruption; optional effective-residency-time window).
//!
//! A mode that stops earlier is a fold of one that stops later: the
//! simulator is deterministic, so [`CampaignResult::under`] derives a
//! campaign's results under a coarser mode without simulating.
//!
//! The campaign engine is fault-tolerant: a panicking simulator run is
//! isolated and recorded as [`avgi_muarch::run::RunOutcome::SimAbort`] (crash
//! family) instead of taking the campaign down, a run ends only by what the
//! simulated machine does (a hang by the cycle watchdog,
//! [`watchdog_budget`]), and long campaigns can be journaled to disk and
//! resumed bit-identically ([`run_campaign_journaled`]). See `DESIGN.md` §6
//! for the failure model.
//!
//! ```no_run
//! use avgi_faultsim::{golden_for, run_campaign, CampaignConfig, RunMode};
//! use avgi_muarch::{MuarchConfig, Structure};
//!
//! let w = avgi_workloads::by_name("sha").unwrap();
//! let cfg = MuarchConfig::big();
//! let golden = golden_for(&w, &cfg);
//! let campaign = CampaignConfig::new(Structure::RegFile, 200, RunMode::EndToEnd);
//! let result = run_campaign(&w, &cfg, &golden, &campaign);
//! assert_eq!(result.len(), 200);
//! ```

pub mod adaptive;
pub mod campaign;
pub mod error;
pub mod journal;
pub mod json;
pub mod sampling;
pub mod telemetry;
pub mod xcheck;

pub use adaptive::{
    build_proposal, run_adaptive, weighted_estimate, AdaptiveConfig, AdaptiveReport, Proposal,
    WeightedEstimate,
};
pub use campaign::{
    golden_for, run_campaign, run_campaign_journaled, run_campaign_with_faults, run_one,
    verified_golden, watchdog_budget, CampaignConfig, CampaignResult, CheckpointSet,
    InjectionResult, RunMode, ShardRunner,
};
pub use error::{CampaignError, GoldenError};
pub use journal::{config_hash, crc32, CampaignKey, DurabilityPolicy, Journal};
pub use sampling::{
    error_margin_at, multi_bit_burst, sample_faults, sample_size_at, wilson_interval, z_value,
    SamplingError,
};
pub use xcheck::{run_xcheck, XcheckReport};

pub use telemetry::{
    outcome_class, CampaignObserver, HistogramSnapshot, LatencyHistogram, MetricsCollector,
    MetricsSnapshot, NullObserver, OutcomeClass, ProgressObserver, SiteGrid,
};
