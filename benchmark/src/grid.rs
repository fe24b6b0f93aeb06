//! `grid_small_campaigns`: a closed loop of small campaigns through the
//! control plane.
//!
//! An in-process `Service` (HTTP surface and worker fabric on
//! `127.0.0.1:0`, lease batch 16, flush-durability journals in the run's
//! scratch directory) with two single-threaded protocol-3 workers attached
//! *before* the first submission. Two client threads each keep one campaign
//! outstanding: `POST /campaigns`, then `GET /campaigns/<id>` every 2 ms
//! until the body says `"done":true`. Campaigns are 64 faults, rotating
//! over four programs and three structures, in the AVGI production mode.
//! Compute is a small share of a campaign's latency, so what moves this
//! workload is the control plane: tick and idle sleeps, golden capture on
//! activation, worker runtime builds, wire, scheduler, queue.
//!
//! A run makes rounds of [`CAMPAIGNS`] campaigns, each round on a fresh
//! fleet, so peak memory does not depend on how many rounds fit in the
//! time. Every round submits the same campaigns and must return the same
//! reports, and each report must equal, byte for byte, the report of a
//! single-process campaign of the same submission.
//!
//! The benchmark counts what the control plane does and works around
//! nothing: workers start before the first submission, and a session a
//! worker loses and re-attaches is counted, not avoided.

use crate::check::{digest_str, golden_line};
use crate::harness::{best_setup, finish_trace, timed_setups, unit_seed, Ctx, Outcome};
use crate::measure::{peak_rss_mb, percentile, time, Stats};
use crate::probes;
use crate::spans::{SpanId, Tracer};
use avgi_core::default_ert_window;
use avgi_faultsim::telemetry::MetricsCollector;
use avgi_faultsim::{golden_for, run_campaign, CampaignConfig, DurabilityPolicy, RunMode};
use avgi_grid::service::reference_report;
use avgi_grid::{
    run_worker, GridError, Service, ServiceConfig, ServiceStats, SubmitSpec, WorkerConfig,
};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PROGRAMS: [&str; 4] = ["bitcount", "crc32", "sha", "qsort"];
const STRUCTURES: [Structure; 3] = [Structure::RegFile, Structure::Rob, Structure::L1DData];
/// Campaigns per round at full size.
const CAMPAIGNS: usize = 40;
const FAULTS: usize = 64;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const POLL_EVERY: Duration = Duration::from_millis(2);
/// A campaign not done by then has failed.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(30);
/// Fleets started and stopped before the first round; with one more fleet
/// per round, `setup_s` is the fastest of them all.
const SETUP_REPS: usize = 8;

/// A running service with its workers attached.
struct Fleet {
    http: SocketAddr,
    stop: Arc<AtomicBool>,
    service: JoinHandle<Result<ServiceStats, GridError>>,
    workers: Vec<JoinHandle<Result<avgi_grid::WorkerStats, GridError>>>,
    wire_v3: Arc<avgi_grid::proto::WireStats>,
}

/// One blocking request/response exchange with the one-shot HTTP surface.
fn http(addr: SocketAddr, request: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: svc\r\n\r\n"))
}

/// The integer after `"key":` in a service-generated body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

impl Fleet {
    /// Binds the service, starts it and its workers, and returns once both
    /// workers are attached.
    fn start(dir: &Path) -> Fleet {
        let stop = Arc::new(AtomicBool::new(false));
        let service = Service::bind(ServiceConfig {
            http_bind: Some("127.0.0.1:0".into()),
            queue: dir.join("queue.jsonl"),
            journal_dir: Some(dir.join("journals")),
            batch: 16,
            durability: DurabilityPolicy::Flush,
            stop: Some(stop.clone()),
            ..ServiceConfig::default()
        })
        .expect("service binds on localhost");
        let fabric = service.local_addr().expect("bound").to_string();
        let http_addr = service.http_addr().expect("http surface configured");
        let (_, wire_v3) = service.wire_stats();
        let service = std::thread::spawn(move || service.run());
        let workers = (0..WORKERS)
            .map(|i| {
                let mut wcfg = WorkerConfig::new(fabric.clone());
                wcfg.threads = 1;
                wcfg.jitter_seed = 0x5EED_0100 + i as u64;
                // A worker caught mid re-attach when its service stops
                // never hears `done`; with the default 10 s dial timeout it
                // would hold the run's teardown for over a minute. A live
                // service accepts at once, so this changes no measurement.
                wcfg.connect_timeout = Duration::from_secs(1);
                std::thread::spawn(move || run_worker(&wcfg))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match get(http_addr, "/fleet") {
                Ok((200, body)) if json_u64(&body, "workers") == Some(WORKERS as u64) => break,
                _ if Instant::now() > deadline => panic!("workers did not attach within 10 s"),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Fleet {
            http: http_addr,
            stop,
            service,
            workers,
            wire_v3,
        }
    }

    /// Asks the service to stop. It drains its workers and lingers on the
    /// HTTP surface for a second; [`Fleet::join`] waits that out.
    fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    fn join(self) -> ServiceStats {
        let stats = self
            .service
            .join()
            .expect("service thread panicked")
            .expect("service ran to its stop");
        for w in self.workers {
            // A worker that exhausted its re-attach budget has already cost
            // its campaigns their deadline; its error adds nothing here.
            let _ = w.join().expect("worker thread panicked");
        }
        stats
    }
}

/// The campaigns of a round, and the statistics of the golden runs behind
/// them.
struct Plan {
    specs: Vec<SubmitSpec>,
    golden_lines: Vec<String>,
}

/// Builds the round's submissions. The ERT window of a submission depends
/// on its program's golden length, so the four golden runs are captured
/// here (and their statistics kept for the digest).
fn plan(ctx: &Ctx, tracer: &Tracer, parent: Option<SpanId>) -> Plan {
    let cfg = MuarchConfig::big();
    let goldens: Vec<_> = PROGRAMS
        .iter()
        .map(|name| {
            let w = tracer.span("workloads.build", parent, 0, |_| {
                avgi_workloads::by_name(name).expect("benchmark programs exist")
            });
            tracer.span("muarch.golden_capture", parent, 0, |_| golden_for(&w, &cfg))
        })
        .collect();
    let base = unit_seed(ctx.seed, 0);
    let specs = (0..ctx.size(CAMPAIGNS, 4))
        .map(|i| {
            let program = i % PROGRAMS.len();
            let structure = STRUCTURES[(i / PROGRAMS.len()) % STRUCTURES.len()];
            let mut spec = SubmitSpec::new(
                PROGRAMS[program],
                structure,
                ctx.size(FAULTS, 8),
                base.wrapping_add(i as u64),
            );
            spec.mode = RunMode::FirstDeviation {
                ert_window: Some(default_ert_window(structure, goldens[program].cycles)),
            };
            spec
        })
        .collect();
    Plan {
        specs,
        golden_lines: goldens.iter().map(|g| golden_line(g)).collect(),
    }
}

/// The report a single-process campaign of `spec` produces, and the wall
/// time of that campaign (golden capture included, as the service pays it).
fn reference(spec: &SubmitSpec, threads: usize) -> (f64, String) {
    let w = avgi_workloads::by_name(&spec.workload).expect("planned programs exist");
    let cfg = spec.preset.config();
    let collector = Arc::new(MetricsCollector::new());
    let (wall, (golden, result)) = time(|| {
        let golden = golden_for(&w, &cfg);
        let mut ccfg = CampaignConfig::new(spec.structure, spec.faults, spec.mode)
            .with_seed(spec.seed)
            .with_burst(spec.burst_width)
            .with_checkpoints(spec.checkpoints)
            .with_observer(collector.clone());
        ccfg.threads = threads;
        let result = run_campaign(&w, &cfg, &golden, &ccfg);
        (golden, result)
    });
    let report = reference_report(
        &spec.workload,
        spec.structure,
        golden.cycles,
        &result.results,
        &collector.snapshot(),
    );
    (wall, report)
}

/// What a client saw of one campaign.
struct Seen {
    index: usize,
    /// `None` when the submission was refused or the campaign timed out.
    report: Option<String>,
    latency_s: f64,
    submit_rtt_s: f64,
    first_progress_s: Option<f64>,
    poll_rtts_s: Vec<f64>,
}

/// Submits campaign `index` and polls it to completion.
fn drive_campaign(
    fleet: &Fleet,
    index: usize,
    spec: &SubmitSpec,
    tracer: &Tracer,
    trial_id: u64,
) -> Seen {
    let root = tracer.begin("campaign", None, trial_id);
    let body = spec.to_json();
    let request = format!(
        "POST /campaigns HTTP/1.1\r\nHost: svc\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let started = Instant::now();
    let submitted = tracer.span("grid.submit", Some(root), trial_id, |_| {
        http(fleet.http, &request)
    });
    let mut seen = Seen {
        index,
        report: None,
        latency_s: 0.0,
        submit_rtt_s: started.elapsed().as_secs_f64(),
        first_progress_s: None,
        poll_rtts_s: Vec::new(),
    };
    let id = match submitted {
        Ok((201, resp)) => json_u64(&resp, "id"),
        _ => None,
    };
    if let Some(id) = id {
        let path = format!("/campaigns/{id}");
        while started.elapsed() < CAMPAIGN_TIMEOUT {
            let asked = Instant::now();
            let polled = tracer.span("grid.poll", Some(root), trial_id, |_| {
                get(fleet.http, &path)
            });
            seen.poll_rtts_s.push(asked.elapsed().as_secs_f64());
            if let Ok((200, body)) = polled {
                if seen.first_progress_s.is_none() && json_u64(&body, "completed") > Some(0) {
                    seen.first_progress_s = Some(started.elapsed().as_secs_f64());
                }
                if body.contains("\"done\":true") {
                    seen.report = body
                        .find("\"report\":")
                        .map(|at| body[at + "\"report\":".len()..body.len() - 1].to_string());
                    break;
                }
            }
            std::thread::sleep(POLL_EVERY);
        }
    }
    seen.latency_s = started.elapsed().as_secs_f64();
    tracer.end(root);
    seen
}

/// One round: a fresh fleet, every planned campaign through it, closed
/// loop. Returns what the clients saw (in campaign order), the round's wall
/// time from first submission to last report, the stopped fleet, and its
/// start time.
fn round(ctx: &Ctx, plan: &Plan, number: usize, tracer: &Tracer) -> (Vec<Seen>, f64, Fleet, f64) {
    // Never a directory an earlier fleet of this run has used: a service
    // resumes whatever queue and journals it finds.
    static FLEETS: AtomicUsize = AtomicUsize::new(0);
    let dir = ctx
        .tmp
        .join(format!("fleet-{}", FLEETS.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    let (setup_s, fleet) = time(|| Fleet::start(&dir));
    let next = AtomicUsize::new(0);
    let seen = Mutex::new(Vec::with_capacity(plan.specs.len()));
    let (wall, ()) = time(|| {
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = plan.specs.get(i) else { break };
                    let trial_id = (number * plan.specs.len() + i) as u64;
                    let one = drive_campaign(&fleet, i, spec, tracer, trial_id);
                    seen.lock().expect("client lock poisoned").push(one);
                });
            }
        });
    });
    fleet.stop();
    let mut seen = seen.into_inner().expect("client lock poisoned");
    seen.sort_by_key(|s| s.index);
    (seen, wall, fleet, setup_s)
}

/// Everything the rounds of a run produced.
#[derive(Default)]
struct Rounds {
    latencies_ms: Vec<f64>,
    rates: Vec<f64>,
    /// Fleet start time of each round.
    starts_s: Vec<f64>,
    /// One more plan timed after each round, so that set-up samples are
    /// spread over the run and not all taken in one phase of the host.
    plans_s: Vec<f64>,
    /// The first round's reports, the reference for later rounds.
    first: Vec<Option<String>>,
    seen: Vec<Seen>,
    service_wall_s: f64,
    /// Peak resident set when the first round ended: one fleet's worth,
    /// whatever the number of rounds that fit in the run.
    rss_after_first_mb: f64,
    stats: Vec<ServiceStats>,
    wire_bytes: u64,
    merged_runs: u64,
}

/// Runs rounds until the time is up (two under `--quick`).
fn rounds(ctx: &Ctx, plan: &Plan, seconds: f64, tracer: &Tracer, out: &mut Outcome) -> Rounds {
    let mut all = Rounds::default();
    let mut stopped = Vec::new();
    let started = Instant::now();
    for number in 0.. {
        let (seen, wall, fleet, setup_s) = round(ctx, plan, number, tracer);
        all.starts_s.push(setup_s);
        all.plans_s
            .push(time(|| self::plan(ctx, &Tracer::new(false), None)).0);
        all.service_wall_s += wall;
        let runs: usize = seen.iter().filter(|s| s.report.is_some()).count() * plan.specs[0].faults;
        all.rates.push(runs as f64 / wall);
        all.merged_runs += runs as u64;
        out.attempted += seen.len() as u64;
        if number == 0 {
            all.first = seen.iter().map(|s| s.report.clone()).collect();
            all.rss_after_first_mb = peak_rss_mb();
        }
        for s in &seen {
            match &s.report {
                None => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "round {number}: campaign {} refused or timed out",
                        s.index
                    ));
                }
                Some(report) if all.first[s.index].as_ref() != Some(report) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "round {number}: campaign {} did not repeat its first report",
                        s.index
                    ));
                }
                Some(_) => all.latencies_ms.push(s.latency_s * 1e3),
            }
        }
        all.seen.extend(seen);
        stopped.push(fleet);
        let done = if ctx.quick {
            number >= 1
        } else {
            started.elapsed().as_secs_f64() >= seconds
        };
        if done {
            break;
        }
    }
    for fleet in stopped {
        let wire = fleet.wire_v3.clone();
        all.stats.push(fleet.join());
        all.wire_bytes += wire.total().1;
    }
    all
}

/// Byte-compares the first round's reports with single-process campaigns
/// of the same submissions; returns the summed wall time of those campaigns.
fn verify_reports(ctx: &Ctx, plan: &Plan, first: &[Option<String>], out: &mut Outcome) -> f64 {
    let mut reference_wall = 0.0;
    let mut digest = String::new();
    for (i, (spec, report)) in plan.specs.iter().zip(first).enumerate() {
        let (wall, expected) = reference(spec, ctx.threads);
        reference_wall += wall;
        digest.push_str(&expected);
        digest.push('\n');
        if report.as_ref().is_some_and(|r| *r != expected) {
            out.failed += 1;
            out.problems.push(format!(
                "campaign {i} ({} / {}): service report differs from the single-process report",
                spec.workload,
                spec.structure.ident()
            ));
        }
    }
    for (name, line) in PROGRAMS.iter().zip(&plan.golden_lines) {
        out.observed.golden.insert(name.to_string(), line.clone());
    }
    out.observed.units.push(digest_str(&digest));
    out.check_against(ctx, 0);
    reference_wall
}

/// Fleets started and stopped for the set-up time alone.
fn fleet_starts(ctx: &Ctx) -> Vec<f64> {
    let fleets: Vec<(f64, Fleet)> = (0..SETUP_REPS)
        .map(|k| {
            let dir = ctx.tmp.join(format!("setup-{k}"));
            std::fs::create_dir_all(&dir).expect("scratch directory is writable");
            let (s, fleet) = time(|| Fleet::start(&dir));
            fleet.stop();
            (s, fleet)
        })
        .collect();
    fleets
        .into_iter()
        .map(|(s, fleet)| {
            fleet.join();
            s
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    // Set-up is the plan (program builds, golden-cycle lookups) plus a
    // fleet start; each is taken at its fastest.
    let (plan, mut plans) = timed_setups(SETUP_REPS, || plan(ctx, &off, None));
    let mut starts = fleet_starts(ctx);
    let all = rounds(ctx, &plan, ctx.seconds, &off, &mut out);
    verify_reports(ctx, &plan, &all.first, &mut out);
    starts.extend(&all.starts_s);
    plans.extend(&all.plans_s);
    out.set("runs_per_sec", Stats::of(&all.rates).median);
    out.set(
        "submit_to_report_p50_ms",
        percentile(&all.latencies_ms, 0.5),
    );
    out.set(
        "submit_to_report_p90_ms",
        percentile(&all.latencies_ms, 0.9),
    );
    out.set("peak_rss_mb", all.rss_after_first_mb);
    out.set("setup_s", best_setup(&plans) + best_setup(&starts));
    out
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// One large campaign through a fresh fleet against the same campaign in
/// process: how much of the engine's throughput the service keeps when
/// compute dominates.
fn large_campaign_efficiency(ctx: &Ctx, out: &mut Outcome) {
    let cfg = MuarchConfig::big();
    let golden = golden_for(
        &avgi_workloads::by_name("crc32").expect("crc32 exists"),
        &cfg,
    );
    let mut spec = SubmitSpec::new(
        "crc32",
        Structure::RegFile,
        ctx.size(8_000, 64),
        unit_seed(ctx.seed, 1),
    );
    spec.mode = RunMode::FirstDeviation {
        ert_window: Some(default_ert_window(Structure::RegFile, golden.cycles)),
    };
    let dir = ctx.tmp.join("fleet-large");
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    let fleet = Fleet::start(&dir);
    let seen = drive_campaign(&fleet, 0, &spec, &Tracer::new(false), 0);
    fleet.stop();
    let (local_s, expected) = reference(&spec, ctx.threads);
    out.attempted += 1;
    if seen.report.as_ref() != Some(&expected) {
        out.failed += 1;
        out.problems
            .push("large campaign: service report differs from the single-process report".into());
    }
    out.set("grid.large_campaign_efficiency", local_s / seen.latency_s);
    fleet.join();
}

pub fn trace(ctx: &Ctx) -> Outcome {
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    let plan = tracer.span("setup", None, 0, |id| plan(ctx, &tracer, id));

    // Untraced rounds, then traced ones: the client-side spans cost a lock
    // and a clock read per HTTP exchange.
    let plain = rounds(ctx, &plan, ctx.seconds / 4.0, &off, &mut out);
    let traced = rounds(ctx, &plan, ctx.seconds / 4.0, &tracer, &mut out);
    let reference_wall = verify_reports(ctx, &plan, &traced.first, &mut out);
    let spans = tracer.snapshot();

    let ok: Vec<&Seen> = traced.seen.iter().filter(|s| s.report.is_some()).collect();
    out.set(
        "grid.submit_rtt_ms",
        mean(ok.iter().map(|s| s.submit_rtt_s * 1e3)),
    );
    out.set(
        "grid.submit_to_first_progress_ms",
        mean(
            ok.iter()
                .filter_map(|s| s.first_progress_s)
                .map(|s| s * 1e3),
        ),
    );
    out.set(
        "grid.first_progress_to_done_ms",
        mean(
            ok.iter()
                .filter_map(|s| s.first_progress_s.map(|p| (s.latency_s - p) * 1e3)),
        ),
    );
    out.set(
        "grid.status_poll_rtt_ms",
        mean(ok.iter().flat_map(|s| &s.poll_rtts_s).map(|s| s * 1e3)),
    );

    // Counts from the service's own statistics, per campaign it completed.
    let campaigns: u64 = traced.stats.iter().map(|s| s.campaigns_completed).sum();
    let per_campaign = |pick: fn(&ServiceStats) -> u64| {
        traced.stats.iter().map(pick).sum::<u64>() as f64 / campaigns.max(1) as f64
    };
    out.set(
        "grid.leases_granted_per_campaign",
        per_campaign(|s| s.leases_granted),
    );
    out.set(
        "grid.leases_reassigned_per_campaign",
        per_campaign(|s| s.leases_reassigned),
    );
    out.set(
        "grid.protocol_errors_per_campaign",
        per_campaign(|s| s.protocol_errors),
    );
    out.set(
        "grid.sessions_reattached_per_campaign",
        per_campaign(|s| s.sessions_reattached),
    );
    out.set(
        "grid.batches_rejected",
        traced.stats.iter().map(|s| s.batches_rejected).sum::<u64>() as f64,
    );
    out.set(
        "grid.wire_bytes_per_run",
        traced.wire_bytes as f64 / traced.merged_runs.max(1) as f64,
    );
    // The same submissions take `reference_wall` in process, one after the
    // other; the service had them for `service_wall_s` per round.
    let rounds_run = traced.stats.len() as f64;
    out.set(
        "grid.service_overhead_share",
        1.0 - reference_wall * rounds_run / traced.service_wall_s,
    );
    large_campaign_efficiency(ctx, &mut out);

    probes::program_layers(&mut out, &PROGRAMS, &MuarchConfig::big());
    probes::grid(&mut out, &MuarchConfig::big(), &ctx.tmp);

    let p50 = |r: &Rounds| percentile(&r.latencies_ms, 0.5);
    if !plain.latencies_ms.is_empty() && !traced.latencies_ms.is_empty() {
        out.set(
            "trace.overhead_pct",
            (p50(&traced) / p50(&plain) - 1.0) * 100.0,
        );
    }
    finish_trace(ctx, &spans, &mut out);
    out
}
