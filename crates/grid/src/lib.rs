//! # avgi-grid — the distributed campaign fabric
//!
//! Shards fault-injection campaigns across processes (or machines): one
//! [`Service`] owns each campaign's fault list and hands out cycle-sorted
//! work leases over a hand-rolled, length-prefixed binary protocol on TCP;
//! any number of [workers](run_worker) rebuild the campaign locally from a
//! compact [`CampaignSpec`], execute leased index batches through the same
//! [`ShardRunner`](avgi_faultsim::ShardRunner) hot path a single-process
//! campaign uses, and stream back results plus mergeable telemetry deltas.
//!
//! The fabric inherits the framework's determinism contract: every injected
//! run is a pure function of `(seed, fault index, mode)`, so the merged
//! [`CampaignResult`](avgi_faultsim::CampaignResult) — and the merged
//! telemetry's deterministic counters — are bit-identical to a
//! single-process [`run_campaign`](avgi_faultsim::run_campaign) of the same
//! configuration, no matter how many workers participate, how batches
//! interleave, or how many workers die mid-campaign (dead workers' leases
//! are detected by heartbeat expiry and reassigned; late duplicate reports
//! are discarded wholly, so nothing is double-counted).
//!
//! There is one control plane. A long-lived service takes submissions over
//! HTTP ([`http`]); a single campaign is the same [`Service`] with one
//! in-process [`submit`](Service::submit) and `exit_after: Some(1)`:
//!
//! ```no_run
//! use avgi_grid::{Service, ServiceConfig, SubmitSpec};
//! use avgi_muarch::Structure;
//!
//! let mut service = Service::bind(ServiceConfig {
//!     exit_after: Some(1),
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//! let id = service
//!     .submit(SubmitSpec::new("sha", Structure::RegFile, 500, 0xA461))
//!     .unwrap();
//! println!("listening on {}", service.local_addr().unwrap());
//! let (_stats, mut outcomes) = service.serve().unwrap(); // blocks until workers finish it
//! assert_eq!(outcomes.remove(&id).unwrap().result.len(), 500);
//! ```
//!
//! Every connection has exactly one owner — the service's loop thread on one
//! end, a worker's session thread on the other — and both read frames
//! through the one decoder, [`proto::FrameBuffer`]. Nothing in the fabric
//! takes a lock.
//!
//! The fabric is also hardened against *itself* failing: frames carry a
//! CRC32 trailer, workers hold session tokens and reconnect with jittered
//! exponential backoff ([`Backoff`]), the service sheds excess connections,
//! and the campaign journal seals every line with a checksum under a
//! configurable [`DurabilityPolicy`](avgi_faultsim::DurabilityPolicy). All
//! of it is exercised deterministically by interposing a seeded
//! [`ChaosTransport`] on the [`Transport`] abstraction, on either side of
//! the link — see the [`chaos`] module and `DESIGN.md` §12.
//!
//! The protocol (frame layout, lease state machine, merge semantics) is
//! documented in `DESIGN.md` §10 and the service in §15; `README.md` shows
//! the two-terminal localhost workflow via the `grid_coordinator` (one
//! campaign) or `grid_service` (many) and `grid_worker` binaries.

pub mod chaos;
pub mod error;
pub mod http;
pub mod proto;
pub mod queue;
pub mod sched;
pub mod service;
pub mod spec;
pub mod transport;
pub mod worker;

pub use chaos::{ChaosInterposer, ChaosPolicy, ChaosStats, ChaosTransport};
pub use error::GridError;
pub use queue::{QueuedCampaign, SubmissionQueue};
pub use sched::{FairScheduler, ShareConfig};
pub use service::{CampaignStatus, GridOutcome, Service, ServiceConfig, ServiceStats};
pub use spec::{CampaignSpec, ConfigPreset, SubmitSpec};
pub use transport::{TcpTransport, Transport};
pub use worker::{run_worker, Backoff, WorkerConfig, WorkerStats};
