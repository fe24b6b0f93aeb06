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
//! grid_chaos --workload bitcount --structure RegFile --faults 96 \
//!     --workers 3 --kill-after 1 --drop 0.05 --corrupt 0.05 --dup 0.03 \
//!     --sever 0.02 --delay-ms 5 --chaos-seed 0xC4A0 --soak 2 --verify
//! ```

use avgi_grid::service::reference_outcome;
use avgi_grid::{
    ChaosInterposer, ChaosPolicy, ConfigPreset, GridOutcome, Service, ServiceConfig, SubmitSpec,
    WorkerConfig,
};
use avgi_muarch::Structure;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    spec: SubmitSpec,
    workers: usize,
    kill_after: Option<usize>,
    chaos_seed: u64,
    drop: f64,
    corrupt: f64,
    dup: f64,
    sever: f64,
    delay: f64,
    delay_ms: u64,
    journal_dir: Option<PathBuf>,
    deadline_s: u64,
    soak: u64,
    verify: bool,
}

const USAGE: &str = "grid_chaos --workload NAME --structure IDENT [--faults N] [--seed S] \
     [--small] [--workers N] [--kill-after N] [--chaos-seed S] [--drop P] [--corrupt P] \
     [--dup P] [--sever P] [--delay P] [--delay-ms N] [--journal-dir DIR] [--deadline-s N] \
     [--soak N] [--verify]";

fn parse_u64(flag: &str, v: &str) -> u64 {
    let (v, radix) = match v.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (v, 10),
    };
    u64::from_str_radix(v, radix).unwrap_or_else(|_| panic!("{flag} needs a number, got `{v}`"))
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: SubmitSpec::new("bitcount", Structure::RegFile, 96, 0xA461_0001),
        workers: 3,
        kill_after: None,
        chaos_seed: 0xC4A0_0001,
        drop: 0.05,
        corrupt: 0.05,
        dup: 0.03,
        sever: 0.02,
        delay: 0.05,
        delay_ms: 5,
        journal_dir: None,
        deadline_s: 180,
        soak: 1,
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
            "--seed" => args.spec.seed = parse_u64("--seed", &next("--seed", &mut it)),
            "--small" => args.spec.preset = ConfigPreset::Small,
            "--workers" => args.workers = next("--workers", &mut it).parse().expect("--workers N"),
            "--kill-after" => {
                args.kill_after = Some(
                    next("--kill-after", &mut it)
                        .parse()
                        .expect("--kill-after N"),
                );
            }
            "--chaos-seed" => {
                args.chaos_seed = parse_u64("--chaos-seed", &next("--chaos-seed", &mut it));
            }
            "--drop" => args.drop = next("--drop", &mut it).parse().expect("--drop P"),
            "--corrupt" => args.corrupt = next("--corrupt", &mut it).parse().expect("--corrupt P"),
            "--dup" => args.dup = next("--dup", &mut it).parse().expect("--dup P"),
            "--sever" => args.sever = next("--sever", &mut it).parse().expect("--sever P"),
            "--delay" => args.delay = next("--delay", &mut it).parse().expect("--delay P"),
            "--delay-ms" => {
                args.delay_ms = next("--delay-ms", &mut it).parse().expect("--delay-ms N");
            }
            "--journal-dir" => {
                args.journal_dir = Some(PathBuf::from(next("--journal-dir", &mut it)));
            }
            "--deadline-s" => {
                args.deadline_s = next("--deadline-s", &mut it)
                    .parse()
                    .expect("--deadline-s N");
            }
            "--soak" => args.soak = next("--soak", &mut it).parse().expect("--soak N"),
            "--verify" => args.verify = true,
            other => panic!("unknown argument `{other}`\nusage: {USAGE}"),
        }
    }
    args
}

fn policy(args: &Args, seed: u64) -> ChaosPolicy {
    ChaosPolicy {
        drop: args.drop,
        corrupt: args.corrupt,
        duplicate: args.dup,
        sever: args.sever,
        delay: args.delay,
        max_delay: Duration::from_millis(args.delay_ms.max(1)),
        ..ChaosPolicy::calm(seed)
    }
}

/// One full chaotic campaign under `chaos_seed`; returns the merged outcome
/// alongside the chaos tallies from both sides of the link.
fn run_round(args: &Args, chaos_seed: u64) -> GridOutcome {
    let coord_chaos = Arc::new(ChaosInterposer::new(policy(args, chaos_seed)));
    let worker_chaos = Arc::new(ChaosInterposer::new(policy(args, chaos_seed ^ 0xFF)));
    // Every round is campaign 1 of a fresh scratch queue.
    let queue = std::env::temp_dir().join(format!("avgi-grid-chaos-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&queue);
    let mut service = Service::bind(ServiceConfig {
        queue: queue.clone(),
        journal_dir: args.journal_dir.clone(),
        batch: 8,
        lease_timeout: Duration::from_secs(2),
        deadline: Some(Duration::from_secs(args.deadline_s)),
        exit_after: Some(1),
        chaos: Some(coord_chaos.clone()),
        ..ServiceConfig::default()
    })
    .unwrap_or_else(|e| panic!("bind failed: {e}"));
    let id = service
        .submit(args.spec.clone())
        .unwrap_or_else(|e| panic!("campaign rejected: {e}"));
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
    let (stats, mut outcomes) = service_thread
        .join()
        .unwrap()
        .unwrap_or_else(|e| panic!("service failed: {e}"));
    let _ = std::fs::remove_file(&queue);
    let outcome = outcomes.remove(&id).expect("the one campaign finalized");
    // Workers whose final exchange chaos ate die retrying against the
    // now-exited service; the merged outcome is what's under test.
    for t in workers {
        let _ = t.join().unwrap();
    }
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
    outcome
}

fn main() {
    let args = parse_args();
    let reference = args.verify.then(|| {
        reference_outcome(&args.spec)
            .unwrap_or_else(|| panic!("unknown workload `{}`", args.spec.workload))
    });
    let mut failed = false;
    for i in 0..args.soak.max(1) {
        let chaos_seed = args.chaos_seed.wrapping_add(i);
        // A round must start cold, not resume its predecessor's journal.
        if let Some(dir) = &args.journal_dir {
            let _ = std::fs::remove_file(dir.join("campaign-1.jsonl"));
        }
        let outcome = run_round(&args, chaos_seed);
        match &reference {
            None => {
                eprintln!(
                    "[chaos {chaos_seed:#x}] campaign merged: {} results",
                    outcome.result.results.len()
                );
            }
            Some(reference) => {
                let results_ok = outcome.result.results == reference.result.results;
                let counters_ok = outcome.telemetry.deterministic_counters_json()
                    == reference.telemetry.deterministic_counters_json();
                if results_ok && counters_ok {
                    eprintln!(
                        "[chaos {chaos_seed:#x}] verify OK: {} results and telemetry counters \
                         bit-identical to single-process",
                        reference.result.len()
                    );
                } else {
                    eprintln!(
                        "[chaos {chaos_seed:#x}] verify FAIL: results {} | telemetry {}",
                        if results_ok { "ok" } else { "DIVERGED" },
                        if counters_ok { "ok" } else { "DIVERGED" },
                    );
                    failed = true;
                }
            }
        }
    }
    if let Some(dir) = &args.journal_dir {
        let _ = std::fs::remove_file(dir.join("campaign-1.jsonl"));
    }
    if failed {
        std::process::exit(1);
    }
}
