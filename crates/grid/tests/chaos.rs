//! Seeded chaos end-to-end: the fabric under deliberate fire.
//!
//! Every test here runs a real service and real workers over localhost
//! TCP with a [`ChaosTransport`](avgi_grid::ChaosTransport) interposed on
//! one or both sides, so frames get dropped, bit-flipped, duplicated,
//! delayed, and connections severed mid-frame — deterministically, from a
//! seeded policy. The acceptance bar does not move: the merged results and
//! telemetry deterministic counters must be bit-identical to a clean
//! single-process campaign. Recovery may cost wall-clock; it must never
//! cost a bit.
//!
//! Worker *processes* are allowed to end with an error here: a worker whose
//! last `Done` was eaten by chaos dies retrying against an exited
//! service, and that is fine — the service's merged outcome is the
//! authoritative artifact under test.

mod common;

use avgi_grid::{
    ChaosInterposer, ChaosPolicy, GridOutcome, ServiceConfig, ServiceStats, SubmitSpec,
    WorkerConfig,
};
use avgi_muarch::Structure;
use common::{assert_matches_reference, scratch, OneCampaign};
use std::sync::Arc;
use std::time::Duration;

const FAULTS: usize = 48;

fn spec() -> SubmitSpec {
    SubmitSpec::new("bitcount", Structure::RegFile, FAULTS, 0xC405)
}

/// Short-fuse tuning, so chaos recovery paths (lease expiry, read timeout,
/// reconnect) play out in test time rather than production time. Every
/// call starts on a fresh queue file.
fn grid_config(dir: &std::path::Path) -> ServiceConfig {
    let queue = dir.join("queue.jsonl");
    let _ = std::fs::remove_file(&queue);
    ServiceConfig {
        queue,
        batch: 5,
        lease_timeout: Duration::from_secs(2),
        deadline: Some(Duration::from_secs(180)),
        ..ServiceConfig::default()
    }
}

/// `grid_chaos`'s retry budgets: a worker whose last `Done` chaos ate gives
/// up on the exited service in seconds.
fn worker_config(jitter_seed: u64) -> WorkerConfig {
    let mut w = WorkerConfig::new(String::new());
    w.threads = 2;
    w.connect_timeout = Duration::from_secs(1);
    w.read_timeout = Duration::from_secs(2);
    w.reconnect_attempts = 4;
    w.backoff_base = Duration::from_millis(20);
    w.backoff_cap = Duration::from_millis(250);
    w.jitter_seed = jitter_seed;
    w
}

/// Runs a distributed campaign, tolerating worker-side errors (see the
/// module docs); the service must succeed.
fn run_chaos_grid(cfg: ServiceConfig, workers: Vec<WorkerConfig>) -> (GridOutcome, ServiceStats) {
    let service = OneCampaign::start(cfg, &spec());
    let workers = service.spawn_workers(workers);
    let served = service.finish();
    for t in workers {
        let _ = t.join().unwrap();
    }
    served
}

#[test]
fn chaotic_links_both_ways_stay_bit_identical_across_seeds() {
    // Two chaos seeds, as the acceptance criteria demand: same storm
    // profile, different misfortune.
    let dir = scratch("chaos-storm");
    for chaos_seed in [0xC4A0_0001_u64, 0xC4A0_0002] {
        let coord_chaos = Arc::new(ChaosInterposer::new(ChaosPolicy::stormy(chaos_seed)));
        let worker_chaos = Arc::new(ChaosInterposer::new(ChaosPolicy::stormy(chaos_seed ^ 0xFF)));
        let grid = ServiceConfig {
            chaos: Some(coord_chaos.clone()),
            ..grid_config(&dir)
        };
        let workers = (0..2)
            .map(|i| {
                let mut w = worker_config(0x5EED_0000 + i);
                w.chaos = Some(worker_chaos.clone());
                w
            })
            .collect();
        let (outcome, stats) = run_chaos_grid(grid, workers);
        assert_matches_reference(&outcome, &spec());
        let injected = coord_chaos.stats().injected() + worker_chaos.stats().injected();
        assert!(
            injected > 0,
            "storm policy must actually injure the link (seed {chaos_seed:#x})"
        );
        eprintln!(
            "[chaos seed {chaos_seed:#x}] service side: {} | worker side: {} | stats: {stats:?}",
            coord_chaos.stats().summary(),
            worker_chaos.stats().summary(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_death_under_chaos_still_converges_bit_identically() {
    let dir = scratch("chaos-death");
    let coord_chaos = Arc::new(ChaosInterposer::new(ChaosPolicy::stormy(0xDEAD_C4A0)));
    let grid = ServiceConfig {
        chaos: Some(coord_chaos.clone()),
        ..grid_config(&dir)
    };
    // One worker dies abruptly holding a lease; the healthy one inherits
    // the abandoned indices — all through a lossy service link.
    let mut dying = worker_config(0xD1E);
    dying.max_batches = Some(1);
    let healthy = worker_config(0x11EA_17B1);
    let (outcome, stats) = run_chaos_grid(grid, vec![dying, healthy]);
    assert_matches_reference(&outcome, &spec());
    assert!(
        stats.leases_reassigned >= 1,
        "the dead worker's lease must be reassigned, stats: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_restart_with_midfile_journal_corruption_resumes_bit_identically() {
    let dir = scratch("chaos-resume");
    let grid = || ServiceConfig {
        journal_dir: Some(dir.join("journals")),
        ..grid_config(&dir)
    };
    let (outcome, _) = run_chaos_grid(grid(), vec![worker_config(0x1)]);
    assert_matches_reference(&outcome, &spec());

    // A crash plus disk corruption: tear the tail *and* flip one bit in a
    // record in the middle of what survives. The CRC suffix must catch the
    // flip, the loader must keep everything before it, and the resumed
    // campaign (campaign 1 again, on the fresh queue `grid()` starts from)
    // must re-execute the rest into a bit-identical merge.
    let journal = dir.join("journals").join("campaign-1.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert_eq!(lines.len(), 1 + FAULTS);
    let keep = 1 + (2 * FAULTS / 3);
    let mut surviving = lines[..keep].concat().into_bytes();
    let corrupt_at: usize = lines[..keep / 2].iter().map(|l| l.len()).sum::<usize>() + 10;
    surviving[corrupt_at] ^= 0x04;
    std::fs::write(&journal, &surviving).unwrap();

    let (outcome, stats) = run_chaos_grid(grid(), vec![worker_config(0x2)]);
    assert_matches_reference(&outcome, &spec());
    // Everything before the flipped record resumes; the flipped record and
    // all records after it re-execute.
    assert_eq!(stats.results_resumed, (keep / 2 - 1) as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
