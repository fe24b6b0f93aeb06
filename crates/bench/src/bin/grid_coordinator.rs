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
//! grid_coordinator --workload bitcount --structure RegFile --faults 200 \
//!     --bind 127.0.0.1:4810 [--batch N] [--lease-ms N] [--journal-dir DIR] \
//!     [--deadline-s N] [--seed S] [--small] [--mode end|instr] [--verify]
//! ```

use avgi_faultsim::RunMode;
use avgi_grid::service::reference_outcome;
use avgi_grid::{ConfigPreset, GridOutcome, Service, ServiceConfig, SubmitSpec};
use avgi_muarch::Structure;
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    spec: SubmitSpec,
    bind: String,
    batch: usize,
    lease_ms: u64,
    journal_dir: Option<PathBuf>,
    fsync_every: u64,
    deadline_s: Option<u64>,
    verify: bool,
}

const USAGE: &str = "grid_coordinator --workload NAME --structure IDENT [--faults N] \
     [--seed S] [--small] [--mode end|instr] [--bind ADDR] [--batch N] \
     [--lease-ms N] [--journal-dir DIR] [--fsync-every N] [--deadline-s N] [--verify]";

fn parse_args() -> Args {
    let mut args = Args {
        spec: SubmitSpec::new("bitcount", Structure::RegFile, 200, 0xA461_0001),
        bind: "127.0.0.1:4810".into(),
        batch: 16,
        lease_ms: 30_000,
        journal_dir: None,
        fsync_every: 0,
        deadline_s: None,
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    let next = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next()
            .unwrap_or_else(|| panic!("{flag} needs a value\nusage: {USAGE}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => args.spec.workload = next("--workload", &mut it),
            "--structure" => {
                let s = next("--structure", &mut it);
                args.spec.structure =
                    Structure::from_ident(&s).unwrap_or_else(|| panic!("unknown structure `{s}`"));
            }
            "--faults" => {
                args.spec.faults = next("--faults", &mut it).parse().expect("--faults N");
            }
            "--seed" => args.spec.seed = next("--seed", &mut it).parse().expect("--seed S"),
            "--small" => args.spec.preset = ConfigPreset::Small,
            "--mode" => {
                args.spec.mode = match next("--mode", &mut it).as_str() {
                    "end" => RunMode::EndToEnd,
                    "instr" => RunMode::Instrumented,
                    other => panic!("unknown mode `{other}` (end|instr)"),
                };
            }
            "--bind" => args.bind = next("--bind", &mut it),
            "--batch" => args.batch = next("--batch", &mut it).parse().expect("--batch N"),
            "--lease-ms" => {
                args.lease_ms = next("--lease-ms", &mut it).parse().expect("--lease-ms N");
            }
            "--journal-dir" => {
                args.journal_dir = Some(PathBuf::from(next("--journal-dir", &mut it)));
            }
            "--fsync-every" => {
                args.fsync_every = next("--fsync-every", &mut it)
                    .parse()
                    .expect("--fsync-every N");
            }
            "--deadline-s" => {
                args.deadline_s = Some(
                    next("--deadline-s", &mut it)
                        .parse()
                        .expect("--deadline-s N"),
                );
            }
            "--verify" => args.verify = true,
            other => panic!("unknown argument `{other}`\nusage: {USAGE}"),
        }
    }
    args
}

/// Reruns the campaign single-process and compares it to the grid outcome.
/// Returns `false` on any divergence.
fn verify(spec: &SubmitSpec, outcome: &GridOutcome) -> bool {
    let reference = reference_outcome(spec).expect("workload verified at submit");
    let mut ok = true;
    if outcome.result.results != reference.result.results {
        eprintln!("[verify] FAIL: merged results differ from single-process reference");
        ok = false;
    }
    let grid_counters = outcome.telemetry.deterministic_counters_json();
    let ref_counters = reference.telemetry.deterministic_counters_json();
    if grid_counters != ref_counters {
        eprintln!("[verify] FAIL: merged telemetry counters differ");
        eprintln!("[verify]   grid: {grid_counters}");
        eprintln!("[verify]    ref: {ref_counters}");
        ok = false;
    }
    if ok {
        eprintln!(
            "[verify] OK: {} results and telemetry counters bit-identical to single-process",
            reference.result.len()
        );
    }
    ok
}

fn main() {
    let args = parse_args();
    // One process, one campaign: the submission queue is scratch. Every
    // start submits campaign 1 afresh; what survives a restart is its
    // journal under `--journal-dir`.
    let queue = std::env::temp_dir().join(format!(
        "avgi-grid-coordinator-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&queue);
    let cfg = ServiceConfig {
        bind: args.bind.clone(),
        queue: queue.clone(),
        journal_dir: args.journal_dir.clone(),
        batch: args.batch,
        lease_timeout: Duration::from_millis(args.lease_ms),
        durability: if args.fsync_every > 0 {
            avgi_faultsim::DurabilityPolicy::FsyncEveryN(args.fsync_every)
        } else {
            avgi_faultsim::DurabilityPolicy::Flush
        },
        deadline: args.deadline_s.map(Duration::from_secs),
        exit_after: Some(1),
        ..ServiceConfig::default()
    };
    let mut service = Service::bind(cfg).unwrap_or_else(|e| panic!("bind failed: {e}"));
    let id = service
        .submit(args.spec.clone())
        .unwrap_or_else(|e| panic!("campaign rejected: {e}"));
    let addr = service.local_addr().expect("bound socket has an address");
    eprintln!(
        "[coordinator] serving {} / {} ({} faults, batch {}, lease {}ms) on {addr}",
        args.spec.structure, args.spec.workload, args.spec.faults, args.batch, args.lease_ms
    );
    let served = service.serve();
    let _ = std::fs::remove_file(&queue);
    let (stats, mut outcomes) = match served {
        Ok(o) => o,
        Err(e) => {
            eprintln!("[coordinator] campaign failed: {e}");
            std::process::exit(1);
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
    if args.verify && !verify(&args.spec, &outcome) {
        std::process::exit(1);
    }
}
