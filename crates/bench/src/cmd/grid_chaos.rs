//! Chaos soak harness for the campaign fabric (`DESIGN.md` §12).
//!
//! Runs an in-process one-campaign service plus N in-process workers over localhost
//! TCP with a seeded [`ChaosTransport`](avgi_grid::ChaosTransport)
//! interposed on *both* sides, so frames get dropped, bit-flipped,
//! duplicated, delayed, and connections severed mid-frame — all
//! deterministically from `--chaos-seed`. Optionally one worker is killed
//! after its first few batches (`--kill-after`) and the campaign journaled
//! (`--journal-dir`). With `--verify` the merged outcome is compared
//! bit-for-bit against a single-process reference run; any divergence
//! exits 1. `--soak N` repeats the whole exercise N times with
//! `chaos-seed + i`, which is what the CI smoke step runs.
//!
//! ```text
//! avgi grid_chaos --workload bitcount --structure RegFile --faults 96 \
//!     --workers 3 --kill-after 1 --drop 0.05 --corrupt 0.05 --dup 0.03 \
//!     --sever 0.02 --delay-ms 5 --chaos-seed 0xC4A0 --soak 2 --verify
//! ```

use crate::args::{service_config, submit_spec};
use avgi_grid::service::reference_outcome;
use avgi_grid::{
    ChaosInterposer, ChaosPolicy, GridError, GridOutcome, Service, ServiceConfig, SubmitSpec, WorkerConfig,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    spec: SubmitSpec,
    /// Everything but the per-round queue and interposer.
    service: ServiceConfig,
    workers: usize,
    kill_after: Option<usize>,
    /// The fault mix; every link of every round reseeds it.
    policy: ChaosPolicy,
    soak: u64,
    verify: bool,
}

fn parse_args(mut a: crate::Args) -> Args {
    let args = Args {
        spec: submit_spec(&mut a, 96),
        service: service_config(
            &mut a,
            ServiceConfig {
                batch: 8,
                lease_timeout: Duration::from_secs(2),
                deadline: Some(Duration::from_secs(180)),
                exit_after: Some(1),
                ..ServiceConfig::default()
            },
        ),
        workers: a.value("--workers N").unwrap_or(3),
        kill_after: a.value("--kill-after N"),
        policy: ChaosPolicy {
            seed: a.value("--chaos-seed S").unwrap_or(0xC4A0_0001),
            drop: a.value("--drop P").unwrap_or(0.05),
            corrupt: a.value("--corrupt P").unwrap_or(0.05),
            duplicate: a.value("--dup P").unwrap_or(0.03),
            sever: a.value("--sever P").unwrap_or(0.02),
            delay: a.value("--delay P").unwrap_or(0.05),
            max_delay: Duration::from_millis(a.value("--delay-ms N").unwrap_or(5).max(1)),
        },
        soak: a.value("--soak N").unwrap_or(1),
        verify: a.flag("--verify"),
    };
    a.finish();
    args
}

/// One full chaotic campaign under `chaos_seed`; returns the merged outcome
/// alongside the chaos tallies from both sides of the link.
fn run_round(args: &Args, chaos_seed: u64) -> Result<GridOutcome, GridError> {
    let link = |seed| Arc::new(ChaosInterposer::new(ChaosPolicy { seed, ..args.policy }));
    let (coord_chaos, worker_chaos) = (link(chaos_seed), link(chaos_seed ^ 0xFF));
    // Every round is campaign 1 of a fresh scratch queue.
    let queue = std::env::temp_dir().join(format!("avgi-grid-chaos-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&queue);
    let mut service = Service::bind(ServiceConfig {
        queue: queue.clone(),
        chaos: Some(coord_chaos.clone()),
        ..args.service.clone()
    })?;
    let id = service.submit(args.spec.clone())?;
    let addr = service.local_addr().expect("bound socket has an address");
    let service_thread = std::thread::spawn(move || service.serve());
    let workers: Vec<_> = (0..args.workers.max(1))
        .map(|i| {
            let mut wcfg = WorkerConfig::new(addr.to_string());
            wcfg.threads = 2;
            // Short retry budgets: a worker whose final exchange chaos ate
            // should give up on the exited service in seconds, not
            // grind through the production-sized reconnect budget.
            wcfg.connect_timeout = Duration::from_secs(1);
            wcfg.reconnect_attempts = 4;
            wcfg.read_timeout = Duration::from_secs(2);
            wcfg.backoff_base = Duration::from_millis(20);
            wcfg.backoff_cap = Duration::from_millis(250);
            wcfg.jitter_seed = chaos_seed.wrapping_add(i as u64);
            wcfg.chaos = Some(worker_chaos.clone());
            if i == 0 {
                // The designated victim dies abruptly mid-campaign, lease
                // in hand; its work must be reassigned, never recounted.
                wcfg.max_batches = args.kill_after;
            }
            std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
        })
        .collect();
    let served = service_thread.join().unwrap();
    let _ = std::fs::remove_file(&queue);
    // Workers whose final exchange chaos ate die retrying against the
    // now-exited service; the merged outcome is what's under test.
    for t in workers {
        let _ = t.join().unwrap();
    }
    let (stats, mut outcomes) = served?;
    let outcome = outcomes.remove(&id).expect("the one campaign finalized");
    eprintln!(
        "[chaos {chaos_seed:#x}] service link:     {}",
        coord_chaos.stats().summary()
    );
    eprintln!(
        "[chaos {chaos_seed:#x}] worker link:      {}",
        worker_chaos.stats().summary()
    );
    eprintln!(
        "[chaos {chaos_seed:#x}] fabric: workers {} (+{} re-attached) | leases {} / {} reassigned \
         | rejected {} | protocol errors {} ({} corrupt) | resumed {}",
        stats.workers_seen,
        stats.sessions_reattached,
        stats.leases_granted,
        stats.leases_reassigned,
        stats.batches_rejected,
        stats.protocol_errors,
        stats.corrupt_frames,
        stats.results_resumed,
    );
    if coord_chaos.stats().injected() + worker_chaos.stats().injected() == 0 {
        eprintln!("[chaos {chaos_seed:#x}] warning: no faults injected — rates too low?");
    }
    Ok(outcome)
}

pub fn run(a: crate::Args) -> ExitCode {
    let args = parse_args(a);
    let reference = args
        .verify
        .then(|| reference_outcome(&args.spec).expect("workload validated at argv"));
    let mut failed = false;
    for i in 0..args.soak.max(1) {
        let chaos_seed = args.policy.seed.wrapping_add(i);
        // A round must start cold, not resume its predecessor's journal.
        if let Some(dir) = &args.service.journal_dir {
            let _ = std::fs::remove_file(dir.join("campaign-1.jsonl"));
        }
        let outcome = match run_round(&args, chaos_seed) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("[chaos {chaos_seed:#x}] round failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        match &reference {
            None => {
                eprintln!(
                    "[chaos {chaos_seed:#x}] campaign merged: {} results",
                    outcome.result.results.len()
                );
            }
            Some(reference) => {
                let tag = format!("chaos {chaos_seed:#x}");
                failed |= !super::outcome_matches(&tag, reference, &outcome);
            }
        }
    }
    if let Some(dir) = &args.service.journal_dir {
        let _ = std::fs::remove_file(dir.join("campaign-1.jsonl"));
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
