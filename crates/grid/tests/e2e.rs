//! End-to-end grid campaigns over real localhost TCP sockets.
//!
//! The acceptance bar for the fabric: a service plus several workers must
//! produce a merged `CampaignResult` *and* merged telemetry deterministic
//! counters bit-identical to a single-process `run_campaign` of the same
//! configuration — including when a worker dies mid-campaign and when the
//! service restarts from its journal.

mod common;

use avgi_grid::{GridOutcome, ServiceConfig, ServiceStats, SubmitSpec, WorkerConfig};
use avgi_muarch::Structure;
use common::{assert_matches_reference, scratch, OneCampaign};
use std::path::Path;
use std::time::Duration;

const FAULTS: usize = 48;

fn spec() -> SubmitSpec {
    SubmitSpec::new("bitcount", Structure::RegFile, FAULTS, 0xE2E)
}

fn service_config(dir: &Path, batch: usize) -> ServiceConfig {
    ServiceConfig {
        queue: dir.join("queue.jsonl"),
        batch,
        lease_timeout: Duration::from_secs(20),
        deadline: Some(Duration::from_secs(300)),
        ..ServiceConfig::default()
    }
}

fn worker() -> WorkerConfig {
    let mut w = WorkerConfig::new(String::new());
    w.threads = 2;
    w
}

/// Runs a distributed campaign with the given worker configurations.
fn run_grid(cfg: ServiceConfig, workers: Vec<WorkerConfig>) -> (GridOutcome, ServiceStats) {
    let service = OneCampaign::start(cfg, &spec());
    let workers = service.spawn_workers(workers);
    let served = service.finish();
    for t in workers {
        // Healthy workers must exit cleanly; the death-hook worker returns
        // Ok with its partial stats.
        t.join().unwrap().unwrap();
    }
    served
}

#[test]
fn three_workers_match_single_process_bit_for_bit() {
    let dir = scratch("e2e-three");
    // Batch 7: deliberately not a divisor of the fault count.
    let (outcome, stats) = run_grid(service_config(&dir, 7), vec![worker(), worker(), worker()]);
    assert_matches_reference(&outcome, &spec());
    assert_eq!(stats.workers_seen, 3);
    assert!(stats.leases_granted >= (FAULTS / 7) as u64);
    assert_eq!(stats.batches_rejected, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_death_mid_campaign_converges_via_lease_reassignment() {
    let dir = scratch("e2e-death");
    // One-run batches: plenty of leases remain when the dying worker asks
    // for its fatal second one, so the death always happens mid-campaign
    // (at 4 runs a lease the healthy worker, whose dead-on-arrival runs
    // cost nothing, could on a loaded host drain all 12 first).
    // One worker dies holding a lease after its first completed batch; the
    // healthy worker must pick up the abandoned indices.
    let mut dying = worker();
    dying.max_batches = Some(1);
    let (outcome, stats) = run_grid(service_config(&dir, 1), vec![dying, worker()]);
    assert_matches_reference(&outcome, &spec());
    assert!(
        stats.leases_reassigned >= 1,
        "the dead worker's lease must be reassigned, stats: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_restart_resumes_from_journal() {
    let dir = scratch("e2e-resume");
    let cfg = ServiceConfig {
        journal_dir: Some(dir.join("journals")),
        ..service_config(&dir, 8)
    };
    let (outcome, _) = run_grid(cfg.clone(), vec![worker()]);
    assert_matches_reference(&outcome, &spec());

    // Simulate a service crash partway through: keep the journal header
    // plus half the records, then restart on a fresh queue (the
    // re-submission is campaign 1 again). The resumed service must re-lease
    // only the missing half and still match the reference exactly.
    let journal = dir.join("journals").join("campaign-1.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert_eq!(lines.len(), 1 + FAULTS);
    std::fs::write(&journal, lines[..1 + FAULTS / 2].concat()).unwrap();
    std::fs::remove_file(&cfg.queue).unwrap();

    let (outcome, stats) = run_grid(cfg, vec![worker()]);
    assert_matches_reference(&outcome, &spec());
    assert_eq!(stats.results_resumed, (FAULTS / 2) as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
