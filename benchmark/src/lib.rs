//! `avgi-perf` — the repository's performance benchmark (see `README.md`).
//!
//! One run measures one workload:
//!
//! ```text
//! avgi-perf --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--record]
//! ```
//!
//! and prints, as the last line of its standard output, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics` — every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! `run`, `trace`, `noise`, `record` and `manifest` drive sets of such runs
//! as child processes; see [`orchestrate`]. The command line is in [`cli`].

pub mod campaigns;
pub mod check;
pub mod cli;
pub mod grid;
pub mod harness;
pub mod json;
pub mod measure;
pub mod orchestrate;
pub mod probes;
pub mod spans;
pub mod spec;
pub mod study;
