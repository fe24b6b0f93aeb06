//! Distributed-campaign coordinator (`DESIGN.md` §10): the one-campaign
//! front of the control plane.
//!
//! Binds a [`Service`] with one pre-submitted campaign, serves cycle-sorted
//! fault leases to any `grid_worker` that connects, and prints the merged
//! campaign report once every index has exactly one accepted result. With
//! `--verify` the same campaign is additionally run single-process in this
//! process and the merged results plus telemetry deterministic counters
//! are compared bit-for-bit — the acceptance check the CI smoke test leans
//! on. With `--journal-dir` accepted results stream to
//! `DIR/campaign-1.jsonl` (the service's on-disk layout) and a rerun of the
//! same command resumes from it.
//!
//! ```text
//! avgi grid_coordinator --workload bitcount --structure RegFile --faults 200 \
//!     --bind 127.0.0.1:4810 [--batch N] [--lease-ms N] [--journal-dir DIR] \
//!     [--fsync-every N] [--deadline-s N] [--seed S] [--small] [--mode end|instr] \\
//!     [--burst N] [--checkpoints N] [--verify]
//! ```

use crate::args::{service_config, submit_spec};
use avgi_grid::service::reference_outcome;
use avgi_grid::{Service, ServiceConfig};
use std::process::ExitCode;

pub fn run(mut a: crate::Args) -> ExitCode {
    let spec = submit_spec(&mut a, 200);
    // One process, one campaign: the submission queue is scratch. Every
    // start submits campaign 1 afresh; what survives a restart is its
    // journal under `--journal-dir`.
    let queue = std::env::temp_dir().join(format!(
        "avgi-grid-coordinator-{}.jsonl",
        std::process::id()
    ));
    let cfg = service_config(
        &mut a,
        ServiceConfig {
            bind: "127.0.0.1:4810".into(),
            queue: queue.clone(),
            exit_after: Some(1),
            ..ServiceConfig::default()
        },
    );
    let verify = a.flag("--verify");
    a.finish();
    let _ = std::fs::remove_file(&queue);
    let (batch, lease_ms) = (cfg.batch, cfg.lease_timeout.as_millis());
    let submitted = Service::bind(cfg).and_then(|mut s| s.submit(spec.clone()).map(|id| (s, id)));
    let (service, id) = match submitted {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[coordinator] could not start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = service.local_addr().expect("bound socket has an address");
    eprintln!(
        "[coordinator] serving {} / {} ({} faults, batch {batch}, lease {lease_ms}ms) on {addr}",
        spec.structure, spec.workload, spec.faults
    );
    let served = service.serve();
    let _ = std::fs::remove_file(&queue);
    let (stats, mut outcomes) = match served {
        Ok(o) => o,
        Err(e) => {
            eprintln!("[coordinator] campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = outcomes.remove(&id).expect("the one campaign finalized");
    print!(
        "{}",
        avgi_core::grid_report(&outcome.result, &outcome.telemetry)
    );
    eprintln!(
        "[coordinator] workers {} (+{} re-attached) | leases {} granted / {} reassigned | \
         batches rejected {} | protocol errors {} ({} corrupt frames) | \
         shed {} | resumed {}",
        stats.workers_seen,
        stats.sessions_reattached,
        stats.leases_granted,
        stats.leases_reassigned,
        stats.batches_rejected,
        stats.protocol_errors,
        stats.corrupt_frames,
        stats.connections_shed,
        stats.results_resumed,
    );
    if verify {
        let reference = reference_outcome(&spec).expect("workload validated at argv");
        if !super::outcome_matches("coordinator", &reference, &outcome) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
