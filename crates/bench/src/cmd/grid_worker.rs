//! Distributed-campaign worker (`DESIGN.md` §10, §15).
//!
//! Connects to a `grid_service`, rebuilds campaigns locally from their
//! specs (workload, configuration, golden run, fault
//! list, checkpoints — all deterministic), and executes leases until the
//! peer declares the work done.
//!
//! ```text
//! avgi grid_worker --connect 127.0.0.1:4810 [--threads N] [--connect-timeout-s N] [--proto N]
//! ```
//!
//! `--proto 2` pins the worker to the JSON wire dialect (what a previous
//! release would speak); the default negotiates the binary v3 dialect.

use avgi_grid::{run_worker, WorkerConfig};
use std::process::ExitCode;
use std::time::Duration;

pub fn run(mut a: crate::Args) -> ExitCode {
    let mut wcfg = WorkerConfig::new(
        a.value::<String>("--connect ADDR")
            .unwrap_or_else(|| "127.0.0.1:4810".into()),
    );
    wcfg.threads = a.value("--threads N").unwrap_or(wcfg.threads);
    wcfg.proto = a.value("--proto N").unwrap_or(wcfg.proto);
    wcfg.connect_timeout = a
        .value("--connect-timeout-s N")
        .map_or(wcfg.connect_timeout, Duration::from_secs);
    a.finish();
    eprintln!("[worker] connecting to {}", wcfg.addr);
    match run_worker(&wcfg) {
        Ok(stats) => {
            eprintln!(
                "[worker] done: {} runtimes built, {} batches, {} runs",
                stats.campaigns, stats.batches, stats.runs
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[worker] failed: {e}");
            ExitCode::FAILURE
        }
    }
}
