//! The control plane end-to-end: many tenants, one fleet, no shared bits.
//!
//! Every test runs a real [`Service`] event loop on localhost — HTTP
//! submissions, durable queue, fair-share leases — with real workers, and
//! holds the fabric's acceptance bar *per tenant*: each campaign's final
//! report (results in index order plus merged telemetry deterministic
//! counters) must be byte-identical to a single-process run of the same
//! submission, no matter how the campaigns interleave on the shared
//! workers, which wire dialect each worker speaks, or how much chaos one
//! tenant's links absorb.

mod common;

use avgi_faultsim::telemetry::{CampaignObserver, MetricsCollector};
use avgi_faultsim::{CampaignError, DurabilityPolicy, RunMode};
use avgi_grid::proto::{
    send, FrameBuffer, Msg, MsgKind, WireStats, MIN_PROTO_VERSION, PROTO_VERSION,
};
use avgi_grid::service::{reference_outcome, reference_report};
use avgi_grid::worker::RUNTIME_CACHE_CAPACITY;
use avgi_grid::{
    ChaosInterposer, ChaosPolicy, GridOutcome, Service, ServiceConfig, ServiceStats,
    SubmissionQueue, SubmitSpec, WorkerConfig,
};
use avgi_muarch::Structure;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A scratch directory unique to one test (queue + journals live here).
fn scratch(name: &str) -> PathBuf {
    common::scratch(&format!("service-{name}"))
}

/// One blocking HTTP exchange against the service's one-shot surface.
fn http(addr: SocketAddr, request: String) -> Option<(u16, String)> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_nodelay(true).ok()?;
    s.write_all(request.as_bytes()).ok()?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).ok()?;
    let status = raw.split(' ').nth(1)?.parse().ok()?;
    Some((status, raw.split_once("\r\n\r\n")?.1.to_string()))
}

fn http_get(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
    http(addr, format!("GET {path} HTTP/1.1\r\nHost: svc\r\n\r\n"))
}

/// Submits a campaign over HTTP; returns its id.
fn submit(addr: SocketAddr, spec: &SubmitSpec) -> u64 {
    let body = spec.to_json();
    let (status, resp) = http(
        addr,
        format!(
            "POST /campaigns HTTP/1.1\r\nHost: svc\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
    .expect("service reachable");
    assert_eq!(status, 201, "submission refused: {resp}");
    let at = resp.find("\"id\":").expect("response carries id") + 5;
    resp[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Polls a campaign's status until it reports done; returns the final body.
fn wait_done(addr: SocketAddr, id: u64, timeout: Duration) -> String {
    let start = Instant::now();
    loop {
        if let Some((200, body)) = http_get(addr, &format!("/campaigns/{id}")) {
            if body.contains("\"done\":true") {
                return body;
            }
        }
        assert!(
            start.elapsed() < timeout,
            "campaign {id} did not finish within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The `"report":{...}` object out of a finished campaign's status body.
fn report_of(body: &str) -> &str {
    let at = body
        .find("\"report\":")
        .expect("finished body carries a report");
    &body[at + "\"report\":".len()..body.len() - 1]
}

/// Builds the identical report from a single-process run of `spec` — the
/// per-tenant bit-identity reference.
fn reference_for(spec: &SubmitSpec) -> String {
    let GridOutcome { result, telemetry } = reference_outcome(spec).unwrap();
    reference_report(
        &spec.workload,
        spec.structure,
        result.golden_cycles,
        &result.results,
        &telemetry,
    )
}

/// Short-fuse worker tuning (mirrors the chaos tests).
fn worker_config(addr: &str, jitter_seed: u64) -> WorkerConfig {
    let mut w = WorkerConfig::new(addr.to_string());
    w.threads = 2;
    w.connect_timeout = Duration::from_secs(2);
    w.read_timeout = Duration::from_secs(2);
    w.reconnect_attempts = 8;
    w.backoff_base = Duration::from_millis(20);
    w.backoff_cap = Duration::from_millis(250);
    w.jitter_seed = jitter_seed;
    w
}

/// A running service plus the handles a test needs to talk to and stop it.
struct Harness {
    fabric: String,
    http: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The service's tallies of binary-dialect (v3) links.
    wire_v3: Arc<WireStats>,
    thread: std::thread::JoinHandle<Result<ServiceStats, avgi_grid::GridError>>,
}

impl Harness {
    /// `chaos` injures the service's side of every worker link.
    fn start(dir: &std::path::Path, batch: usize, chaos: Option<Arc<ChaosInterposer>>) -> Harness {
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = ServiceConfig {
            bind: "127.0.0.1:0".into(),
            http_bind: Some("127.0.0.1:0".into()),
            queue: dir.join("queue.jsonl"),
            journal_dir: Some(dir.join("journals")),
            batch,
            lease_timeout: Duration::from_secs(2),
            durability: DurabilityPolicy::Flush,
            deadline: Some(Duration::from_secs(180)),
            stop: Some(stop.clone()),
            chaos,
            ..ServiceConfig::default()
        };
        let service = Service::bind(cfg).unwrap();
        let fabric = service.local_addr().unwrap().to_string();
        let http = service.http_addr().unwrap();
        let (_, wire_v3) = service.wire_stats();
        let thread = std::thread::spawn(move || service.run());
        Harness {
            fabric,
            http,
            stop,
            wire_v3,
            thread,
        }
    }

    /// Frames of `kind` the service has decoded from v3 peers so far.
    fn received(&self, kind: MsgKind) -> u64 {
        self.wire_v3.of(kind).0
    }

    /// Waits until the service has decoded `n` lease requests from v3
    /// peers — with no campaign submitted yet, until `n` peers are parked.
    fn wait_lease_requests(&self, n: u64) {
        let start = Instant::now();
        while self.received(MsgKind::LeaseRequest) < n {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "only {} of {n} lease requests arrived",
                self.received(MsgKind::LeaseRequest)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Signals shutdown and returns the service's final statistics.
    fn finish(self) -> ServiceStats {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().unwrap().unwrap()
    }
}

/// Two tenants interleaved over three v3 workers, optionally with the
/// service's side of every link under chaos.
fn interleaved_tenants(name: &str, chaos: Option<Arc<ChaosInterposer>>) {
    let dir = scratch(name);
    let stormy = chaos.is_some();
    let svc = Harness::start(&dir, 4, chaos);

    // Two tenants with nothing in common: different structures, seeds,
    // modes, and sizes, interleaved over the same three v3 workers.
    let spec_a = {
        let mut s = SubmitSpec::new("bitcount", Structure::RegFile, 36, 0xA11CE);
        s.mode = RunMode::Instrumented;
        s
    };
    let spec_b = {
        let mut s = SubmitSpec::new("bitcount", Structure::Rob, 28, 0xB0B);
        s.mode = RunMode::EndToEnd;
        s.weight = 3;
        s
    };
    let id_a = submit(svc.http, &spec_a);
    let id_b = submit(svc.http, &spec_b);
    assert_ne!(id_a, id_b);

    let workers: Vec<_> = (0..3)
        .map(|i| {
            let mut wcfg = worker_config(&svc.fabric, 0x5EED_0100 + i);
            if stormy {
                // A worker whose last `Done` the storm ate should give up
                // on the exited service in seconds (`grid_chaos`'s budgets).
                wcfg.connect_timeout = Duration::from_secs(1);
                wcfg.reconnect_attempts = 4;
            }
            std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
        })
        .collect();

    let body_a = wait_done(svc.http, id_a, Duration::from_secs(120));
    let body_b = wait_done(svc.http, id_b, Duration::from_secs(120));
    let stats = svc.finish();
    for t in workers {
        let _ = t.join().unwrap();
    }

    assert_eq!(report_of(&body_a), reference_for(&spec_a));
    assert_eq!(report_of(&body_b), reference_for(&spec_b));
    assert_eq!(stats.campaigns_completed, 2);
    assert_eq!(stats.campaigns_submitted, 2);
    assert!(stats.workers_seen >= 3, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interleaved_campaigns_on_a_shared_fleet_are_bit_identical_per_tenant() {
    interleaved_tenants("interleaved", None);
}

#[test]
fn interleaved_campaigns_under_a_service_side_storm_stay_bit_identical_per_tenant() {
    let chaos = Arc::new(ChaosInterposer::new(ChaosPolicy::stormy(0x5E4F_1CE5)));
    interleaved_tenants("interleaved-storm", Some(chaos.clone()));
    assert!(
        chaos.stats().injected() > 0,
        "storm policy must actually injure the service's links"
    );
}

#[test]
fn chaos_storm_on_one_tenant_leaves_every_tenant_bit_identical() {
    let dir = scratch("chaos");
    let svc = Harness::start(&dir, 4, None);

    // Tenant A outranks tenant B, so the v2 worker — whose link takes the
    // whole storm — pins to A at hello. B's frames only ever ride the
    // clean v3 links: the storm is tenant-scoped by construction, and both
    // merges must still come out exact.
    let spec_a = {
        let mut s = SubmitSpec::new("bitcount", Structure::RegFile, 40, 0xC11A05);
        s.priority = 5;
        s
    };
    let spec_b = SubmitSpec::new("bitcount", Structure::Rob, 30, 0x5AFE);
    let id_a = submit(svc.http, &spec_a);
    let id_b = submit(svc.http, &spec_b);

    let chaos = Arc::new(ChaosInterposer::new(ChaosPolicy::stormy(0xC4A0_5E1F)));
    let v2 = {
        let mut w = worker_config(&svc.fabric, 0xD1CE);
        w.proto = 2;
        w.chaos = Some(chaos.clone());
        std::thread::spawn(move || avgi_grid::run_worker(&w))
    };
    // Let the v2 worker land at least one accepted batch on A before the
    // v3 fleet joins, so both wire dialects measurably carry batch_done
    // traffic.
    let start = Instant::now();
    loop {
        if let Some((200, body)) = http_get(svc.http, &format!("/campaigns/{id_a}")) {
            let done = body.contains("\"done\":true");
            let progressed = !body.contains("\"completed\":0");
            if done || progressed {
                break;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(90),
            "v2 worker never landed a batch through the storm"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let v3s: Vec<_> = (0..2)
        .map(|i| {
            let wcfg = worker_config(&svc.fabric, 0x5EED_0200 + i);
            std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
        })
        .collect();

    let body_a = wait_done(svc.http, id_a, Duration::from_secs(150));
    let body_b = wait_done(svc.http, id_b, Duration::from_secs(150));

    // The fleet view carries per-dialect wire tallies; grab them before
    // shutdown. Both dialects must have carried batch reports, and the
    // binary encoding must be measurably smaller per frame than JSON.
    let (_, fleet) = http_get(svc.http, "/fleet").expect("fleet endpoint up");
    let stats = svc.finish();
    let _ = v2.join().unwrap();
    for t in v3s {
        let _ = t.join().unwrap();
    }

    assert_eq!(report_of(&body_a), reference_for(&spec_a));
    assert_eq!(report_of(&body_b), reference_for(&spec_b));
    assert!(
        chaos.stats().injected() > 0,
        "storm policy must actually injure the link"
    );

    let batch_done = |dialect: &str| -> (u64, u64) {
        let at = fleet.find(&format!("\"{dialect}\":")).unwrap();
        let tail = &fleet[at..];
        let at = tail.find("\"batch_done\":").unwrap();
        let obj = &tail[at..];
        let frames_at = obj.find("\"frames\":").unwrap() + 9;
        let frames: u64 = obj[frames_at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap();
        let bytes_at = obj.find("\"bytes\":").unwrap() + 8;
        let bytes: u64 = obj[bytes_at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap();
        (frames, bytes)
    };
    let (v2_frames, v2_bytes) = batch_done("v2");
    let (v3_frames, v3_bytes) = batch_done("v3");
    assert!(
        v2_frames > 0,
        "v2 dialect carried no batch reports: {fleet}"
    );
    assert!(
        v3_frames > 0,
        "v3 dialect carried no batch reports: {fleet}"
    );
    assert!(
        v3_bytes * v2_frames < v2_bytes * v3_frames,
        "binary batch_done must be smaller per frame: v2 {v2_bytes}B/{v2_frames}f vs v3 {v3_bytes}B/{v3_frames}f"
    );
    eprintln!(
        "[wire] batch_done v2 {:.0} B/frame vs v3 {:.0} B/frame | service stats: {stats:?}",
        v2_bytes as f64 / v2_frames as f64,
        v3_bytes as f64 / v3_frames as f64,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_link_that_delivers_every_service_frame_twice_costs_no_session() {
    // Every frame the service sends arrives twice: each welcome, lease,
    // spec, drain and done. Read as an answer, a second lease or spec
    // would cost the worker its session; it skips each replay instead.
    let dir = scratch("duplicated");
    let chaos = Arc::new(ChaosInterposer::new(ChaosPolicy {
        duplicate: 1.0,
        ..ChaosPolicy::calm(0xD0_0B1E)
    }));
    let svc = Harness::start(&dir, 4, Some(chaos.clone()));
    let spec = SubmitSpec::new("bitcount", Structure::RegFile, 24, 0xD0B1E);
    let id = submit(svc.http, &spec);
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let wcfg = worker_config(&svc.fabric, 0x5EED_0900 + i);
            std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
        })
        .collect();
    let body = wait_done(svc.http, id, Duration::from_secs(120));
    let stats = svc.finish();
    for t in workers {
        let wstats = t.join().unwrap().unwrap();
        assert_eq!(wstats.reconnects, 0, "{wstats:?}");
    }

    assert_eq!(report_of(&body), reference_for(&spec));
    assert!(chaos.stats().duplicated.load(Ordering::Relaxed) > 0);
    assert_eq!(stats.sessions_reattached, 0, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    // No replayed lease was run twice, none expired.
    assert_eq!(stats.batches_rejected, 0, "{stats:?}");
    assert_eq!(stats.leases_reassigned, 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_restart_resumes_queued_campaigns_bit_identically() {
    let dir = scratch("resume");
    let queue_path = dir.join("queue.jsonl");
    let journal_dir = dir.join("journals");
    std::fs::create_dir_all(&journal_dir).unwrap();

    // A submission journaled by a "previous incarnation" of the service,
    // with the first K results already sealed in its campaign journal —
    // exactly the disk state a crash mid-campaign leaves behind.
    let spec = {
        let mut s = SubmitSpec::new("bitcount", Structure::RegFile, 30, 0x7E5C0E);
        s.mode = RunMode::Instrumented;
        s
    };
    let id = {
        let mut queue = SubmissionQueue::open(&queue_path).unwrap();
        queue.submit(spec.clone()).unwrap()
    };
    const RESUMED: usize = 10;
    {
        use avgi_faultsim::journal::{CampaignKey, Journal};
        let reference = reference_outcome(&spec).unwrap().result;
        let key = CampaignKey::new(
            &spec.workload,
            &spec.preset.config(),
            reference.golden_cycles,
            &spec.campaign_config(),
        );
        let (mut journal, done) = Journal::open_with(
            &journal_dir.join(format!("campaign-{id}.jsonl")),
            &key,
            DurabilityPolicy::Flush,
        )
        .unwrap();
        assert!(done.is_empty());
        for (i, r) in reference.results.iter().take(RESUMED).enumerate() {
            journal.append(i, r).unwrap();
        }
        journal.sync().unwrap();
    }

    // The "restarted" service must pick the campaign up from the queue,
    // restore the journaled prefix without re-executing it, and finish the
    // rest into a byte-identical report.
    let svc = Harness::start(&dir, 4, None);
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let wcfg = worker_config(&svc.fabric, 0x5EED_0300 + i);
            std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
        })
        .collect();
    let body = wait_done(svc.http, id, Duration::from_secs(120));
    let stats = svc.finish();
    for t in workers {
        let _ = t.join().unwrap();
    }

    assert_eq!(report_of(&body), reference_for(&spec));
    assert_eq!(stats.campaigns_resumed, 1, "{stats:?}");
    assert_eq!(stats.results_resumed, RESUMED as u64, "{stats:?}");
    assert_eq!(stats.campaigns_completed, 1, "{stats:?}");

    // After completion the queue must be drained: a second restart has
    // nothing to resume.
    let queue = SubmissionQueue::open(&queue_path).unwrap();
    assert!(queue.pending().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_restart_refuses_a_doctored_journal_and_finishes_an_honest_one() {
    use avgi_faultsim::journal::{CampaignKey, Journal};
    let dir = scratch("refault");
    let mut spec = SubmitSpec::new("bitcount", Structure::RegFile, 8, 0xBAD_F00D);
    spec.checkpoints = 0;
    let id = {
        let mut queue = SubmissionQueue::open(&dir.join("queue.jsonl")).unwrap();
        queue.submit(spec.clone()).unwrap()
    };
    // Index 3 journaled with index 4's result: sealed, under the right
    // header — the disk state of a journal corrupted where no checksum and
    // no key field can see it.
    let reference = reference_outcome(&spec).unwrap().result;
    assert_ne!(reference.results[3].fault, reference.results[4].fault);
    let key = CampaignKey::new(
        &spec.workload,
        &spec.preset.config(),
        reference.golden_cycles,
        &spec.campaign_config(),
    );
    std::fs::create_dir_all(dir.join("journals")).unwrap();
    let path = dir.join("journals").join(format!("campaign-{id}.jsonl"));
    let (mut journal, _) = Journal::open_with(&path, &key, DurabilityPolicy::Flush).unwrap();
    journal.append(3, &reference.results[4]).unwrap();
    drop(journal);

    let restarted = Service::bind(ServiceConfig {
        queue: dir.join("queue.jsonl"),
        journal_dir: Some(dir.join("journals")),
        ..ServiceConfig::default()
    });
    match restarted {
        Err(avgi_grid::GridError::Campaign(CampaignError::JournalMismatch {
            field: "fault",
            ..
        })) => {}
        Ok(_) => panic!("the service resumed from a journal naming other faults"),
        Err(other) => panic!("expected a fault mismatch, got {other:?}"),
    }

    // The same restart over a whole, honest journal finishes the campaign
    // with no worker — and says what the reference says: nothing, since
    // this spec asks for fresh runs (no checkpoints), which is no
    // degradation.
    std::fs::remove_file(&path).unwrap();
    let (mut journal, _) = Journal::open_with(&path, &key, DurabilityPolicy::Flush).unwrap();
    for (i, r) in reference.results.iter().enumerate() {
        journal.append(i, r).unwrap();
    }
    drop(journal);
    let (_, outcomes) = Service::bind(ServiceConfig {
        queue: dir.join("queue.jsonl"),
        journal_dir: Some(dir.join("journals")),
        exit_after: Some(1),
        ..ServiceConfig::default()
    })
    .unwrap()
    .serve()
    .unwrap();
    assert_eq!(outcomes[&id].result.results, reference.results);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v2_worker_cross_version_handshake_completes_a_campaign() {
    let dir = scratch("crossver");
    let svc = Harness::start(&dir, 4, None);
    let spec = SubmitSpec::new("bitcount", Structure::RegFile, 24, 0x0DDF00D);
    let id = submit(svc.http, &spec);

    // A lone last-release worker: hellos at proto 2, negotiates the JSON
    // dialect, gets pinned to the only campaign, and carries it end to end.
    let worker = {
        let mut w = worker_config(&svc.fabric, 0xF00D);
        w.proto = 2;
        std::thread::spawn(move || avgi_grid::run_worker(&w))
    };
    let body = wait_done(svc.http, id, Duration::from_secs(120));
    let stats = svc.finish();
    let wstats = worker.join().unwrap().unwrap();

    assert_eq!(report_of(&body), reference_for(&spec));
    assert_eq!(stats.campaigns_completed, 1);
    assert_eq!(wstats.campaigns, 1);
    assert!(wstats.runs >= 24, "{wstats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Grows `path` (sparsely) to the largest size its filesystem allows, so
/// that every later append to it fails with `EFBIG`. Returns `false` on a
/// filesystem where an append still succeeds.
fn grow_to_fs_limit(path: &std::path::Path) -> bool {
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    let (mut ok, mut bad) = (file.metadata().unwrap().len(), i64::MAX as u64);
    if file.set_len(bad).is_ok() {
        ok = bad;
    }
    while ok + 1 < bad {
        let mid = ok + (bad - ok) / 2;
        if file.set_len(mid).is_ok() {
            ok = mid;
        } else {
            bad = mid;
        }
    }
    file.set_len(ok).unwrap();
    let mut probe = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    probe.write_all(b"\n").is_err()
}

#[test]
fn a_failing_journal_fails_the_run_instead_of_blaming_the_worker() {
    let dir = scratch("journal-io");
    let queue_path = dir.join("queue.jsonl");
    let mut service = Service::bind(ServiceConfig {
        queue: queue_path.clone(),
        journal_dir: Some(dir.join("journals")),
        batch: 4,
        deadline: Some(Duration::from_secs(60)),
        exit_after: Some(1),
        ..ServiceConfig::default()
    })
    .unwrap();
    let spec = SubmitSpec::new("bitcount", Structure::RegFile, 12, 0x10_FA11);
    let id = service.submit(spec.clone()).unwrap();
    // The journal is open for append inside the service; from here on the
    // disk refuses every record.
    let journal = dir.join("journals").join(format!("campaign-{id}.jsonl"));
    if !grow_to_fs_limit(&journal) {
        eprintln!("skipped: this filesystem has no file-size limit to hit");
        return;
    }
    let fabric = service.local_addr().unwrap().to_string();
    let service = std::thread::spawn(move || service.run());
    let worker = {
        let mut w = worker_config(&fabric, 0x10);
        // The service exits under the worker: give up on it quickly.
        w.connect_timeout = Duration::from_millis(200);
        w.reconnect_attempts = 2;
        std::thread::spawn(move || avgi_grid::run_worker(&w))
    };
    // The first accepted batch cannot be journaled: that is the service's
    // disk failing, so the run ends with an I/O error — not with a healthy
    // worker rejected and a result that never reached the journal.
    match service.join().unwrap() {
        Err(avgi_grid::GridError::Io(_)) => {}
        other => panic!("expected the journal failure to end the run, got {other:?}"),
    }
    let _ = worker.join().unwrap();
    // The submission was not retired, so a restart picks it up again.
    let queue = SubmissionQueue::open(&queue_path).unwrap();
    assert_eq!(queue.pending().len(), 1);
    assert_eq!(queue.pending()[0].spec, spec);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_waiting_fleet_serves_a_stream_of_campaigns_without_losing_a_session() {
    const BATCH: usize = 8;
    let dir = scratch("steady");
    let svc = Harness::start(&dir, BATCH, None);
    // The order production runs in: the fleet waits, then work arrives.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let wcfg = worker_config(&svc.fabric, 0x5EED_0400 + i);
            std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
        })
        .collect();
    svc.wait_lease_requests(2);

    let specs = [
        SubmitSpec::new("bitcount", Structure::RegFile, 20, 0x51),
        SubmitSpec::new("crc32", Structure::Rob, 17, 0x52),
        SubmitSpec::new("bitcount", Structure::Rob, 24, 0x53),
        SubmitSpec::new("crc32", Structure::RegFile, 9, 0x54),
        SubmitSpec::new("bitcount", Structure::RegFile, 16, 0x55),
        SubmitSpec::new("crc32", Structure::Rob, 30, 0x56),
    ];
    // Three back to back, one alone after an idle gap, two back to back
    // after another.
    let mut bodies = Vec::new();
    for burst in [&specs[..3], &specs[3..4], &specs[4..]] {
        let ids: Vec<u64> = burst.iter().map(|spec| submit(svc.http, spec)).collect();
        for id in ids {
            bodies.push(wait_done(svc.http, id, Duration::from_secs(120)));
        }
        std::thread::sleep(Duration::from_millis(300));
    }
    let stats = svc.finish();
    for (spec, body) in specs.iter().zip(&bodies) {
        assert_eq!(report_of(body), reference_for(spec));
    }

    // The steady state loses nothing: no worker is rejected, no session
    // re-attached, no lease handed out twice.
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    assert_eq!(stats.sessions_reattached, 0, "{stats:?}");
    assert_eq!(stats.leases_reassigned, 0, "{stats:?}");
    assert_eq!(stats.batches_rejected, 0, "{stats:?}");
    assert_eq!(
        stats.leases_granted,
        specs
            .iter()
            .map(|s| s.faults.div_ceil(BATCH) as u64)
            .sum::<u64>(),
        "{stats:?}"
    );
    assert_eq!(stats.workers_seen, 2, "{stats:?}");
    for t in workers {
        let wstats = t.join().unwrap().unwrap();
        assert_eq!(wstats.reconnects, 0, "{wstats:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_worker_asks_once_and_is_leased_without_asking_again() {
    const BATCH: usize = 4;
    let dir = scratch("parked");
    let svc = Harness::start(&dir, BATCH, None);
    let worker = {
        let mut wcfg = worker_config(&svc.fabric, 0x5EED_0500);
        // Longer than the test: the silent-timeout re-ask stays out of it.
        wcfg.read_timeout = Duration::from_secs(60);
        std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
    };
    svc.wait_lease_requests(1);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        svc.received(MsgKind::LeaseRequest),
        1,
        "a parked worker must wait in silence"
    );

    // Two leases' worth. The worker asks after each batch it reports and at
    // no other time, so three requests in all say the first lease reached
    // it unasked.
    let spec = SubmitSpec::new("bitcount", Structure::RegFile, 2 * BATCH, 0x9A4C);
    let id = submit(svc.http, &spec);
    let body = wait_done(svc.http, id, Duration::from_secs(120));
    let requests = svc.wire_v3.clone();
    let stats = svc.finish();
    let wstats = worker.join().unwrap().unwrap();

    assert_eq!(report_of(&body), reference_for(&spec));
    assert_eq!(stats.leases_granted, 2, "{stats:?}");
    assert_eq!(requests.of(MsgKind::LeaseRequest).0, 1 + 2);
    assert_eq!(requests.of(MsgKind::SpecRequest).0, 1);
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    assert_eq!((wstats.batches, wstats.reconnects), (2, 0), "{wstats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_parked_peer_that_swallows_its_pushed_lease_expires_and_a_parked_worker_finishes() {
    // The parked twin of proto_robustness's silent leaseholder: the
    // adversary asks before work exists, is answered `Drain`, and then sits
    // on the lease the service pushes it.
    let dir = scratch("parked-silent");
    let svc = Harness::start(&dir, 8, None);
    let mut adversary = TcpStream::connect(&svc.fabric).unwrap();
    adversary.set_nodelay(true).unwrap();
    adversary
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut frames = FrameBuffer::new();
    let mut next = |stream: &mut TcpStream| common::next_msg(stream, &mut frames);
    let hello = Msg::Hello {
        proto: PROTO_VERSION,
        session: None,
    };
    send(&mut adversary, &hello, MIN_PROTO_VERSION).unwrap();
    assert!(matches!(next(&mut adversary), Msg::Welcome { .. }));
    send(&mut adversary, &Msg::LeaseRequest, PROTO_VERSION).unwrap();
    assert!(matches!(next(&mut adversary), Msg::Drain));

    // The honest worker parks second, so the adversary (the lower
    // connection id) is woken first.
    let honest = {
        let mut wcfg = worker_config(&svc.fabric, 0x5EED_0600);
        wcfg.read_timeout = Duration::from_secs(60);
        std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
    };
    svc.wait_lease_requests(2);

    // One lease's worth of work: it goes to the adversary, unasked.
    let spec = SubmitSpec::new("bitcount", Structure::RegFile, 8, 0x51E7);
    let id = submit(svc.http, &spec);
    match next(&mut adversary) {
        Msg::Lease { indices, .. } => assert_eq!(indices.len(), 8),
        other => panic!("expected the pushed lease, got {other:?}"),
    }
    // Silence. The lease expires (2 s), is requeued, and reaches the honest
    // worker — parked all along — without its asking.
    let body = wait_done(svc.http, id, Duration::from_secs(60));
    drop(adversary);
    let requests = svc.wire_v3.clone();
    let stats = svc.finish();
    let wstats = honest.join().unwrap().unwrap();

    assert_eq!(report_of(&body), reference_for(&spec));
    assert_eq!(stats.leases_granted, 2, "{stats:?}");
    assert_eq!(stats.leases_reassigned, 1, "{stats:?}");
    assert_eq!(stats.batches_rejected, 0, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    // The adversary's one request, the worker's first, and the one after
    // the worker's only batch.
    assert_eq!(requests.of(MsgKind::LeaseRequest).0, 3);
    assert_eq!((wstats.batches, wstats.reconnects), (1, 0), "{wstats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_batch_whose_telemetry_overstates_its_runs_is_refused_and_its_lease_requeued() {
    // The adversary reports the right results for its lease with a telemetry
    // delta claiming `u64::MAX` completed runs. Merged, that count overflows
    // (a panic under overflow checks, a wrapped total otherwise) and the
    // report stops being the single-process one.
    let dir = scratch("telemetry-overstated");
    let svc = Harness::start(&dir, 8, None);
    let spec = SubmitSpec::new("bitcount", Structure::RegFile, 8, 0x7E1E);
    let id = submit(svc.http, &spec);
    let mut adversary = TcpStream::connect(&svc.fabric).unwrap();
    adversary.set_nodelay(true).unwrap();
    adversary
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut frames = FrameBuffer::new();
    let mut next = |stream: &mut TcpStream| common::next_msg(stream, &mut frames);
    let hello = Msg::Hello {
        proto: PROTO_VERSION,
        session: None,
    };
    send(&mut adversary, &hello, MIN_PROTO_VERSION).unwrap();
    assert!(matches!(next(&mut adversary), Msg::Welcome { .. }));
    send(&mut adversary, &Msg::LeaseRequest, PROTO_VERSION).unwrap();
    let (lease, campaign, indices) = match next(&mut adversary) {
        Msg::Lease {
            lease,
            campaign,
            indices,
        } => (lease, campaign, indices),
        other => panic!("expected a lease, got {other:?}"),
    };

    // Honest results, and the delta an honest worker would send for them —
    // but for one field.
    let reference = reference_outcome(&spec).unwrap().result.results;
    let results: Vec<_> = indices.iter().map(|&i| (i, reference[i].clone())).collect();
    let collector = MetricsCollector::new();
    collector.on_campaign_start(spec.structure, results.len());
    for (_, r) in &results {
        collector.on_run(spec.structure, r, Duration::ZERO);
    }
    let mut telemetry = collector.snapshot();
    telemetry.completed = u64::MAX;
    let report = Msg::BatchDone {
        lease,
        campaign,
        results,
        telemetry,
    };
    send(&mut adversary, &report, PROTO_VERSION).unwrap();
    match next(&mut adversary) {
        Msg::Reject { reason } => assert!(reason.contains("`completed`"), "{reason}"),
        other => panic!("expected a rejection, got {other:?}"),
    }
    drop(adversary);

    // The lease went back to the queue; an honest worker finishes the
    // campaign as if the adversary had never reported.
    let honest = {
        let wcfg = worker_config(&svc.fabric, 0x5EED_0650);
        std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
    };
    let body = wait_done(svc.http, id, Duration::from_secs(60));
    let stats = svc.finish();
    let _ = honest.join().unwrap();
    assert_eq!(report_of(&body), reference_for(&spec));
    assert_eq!(stats.protocol_errors, 1, "{stats:?}");
    assert_eq!(stats.leases_reassigned, 1, "{stats:?}");
    assert_eq!(stats.leases_granted, 2, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn more_live_campaigns_than_runtime_slots_are_rebuilt_through_spec_requests() {
    const BATCH: usize = 4;
    const CAMPAIGNS: usize = RUNTIME_CACHE_CAPACITY + 2;
    let dir = scratch("evict");
    let svc = Harness::start(&dir, BATCH, None);
    // Equal shares, two leases each, all live before the worker attaches:
    // the fair scheduler hands the one worker a lease of every campaign in
    // turn, then the second of each — by when the cache has moved on.
    let specs: Vec<SubmitSpec> = (0..CAMPAIGNS)
        .map(|i| SubmitSpec::new("bitcount", Structure::RegFile, 2 * BATCH, 0xE71C + i as u64))
        .collect();
    let ids: Vec<u64> = specs.iter().map(|spec| submit(svc.http, spec)).collect();
    let worker = {
        let wcfg = worker_config(&svc.fabric, 0x5EED_0700);
        std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
    };
    let bodies: Vec<String> = ids
        .iter()
        .map(|&id| wait_done(svc.http, id, Duration::from_secs(120)))
        .collect();
    let requests = svc.wire_v3.clone();
    let stats = svc.finish();
    let wstats = worker.join().unwrap().unwrap();

    for (spec, body) in specs.iter().zip(&bodies) {
        assert_eq!(report_of(body), reference_for(spec));
    }
    assert!(
        wstats.campaigns > CAMPAIGNS as u64,
        "no runtime was evicted and rebuilt: {wstats:?}"
    );
    // Every build went through the worker's own spec request.
    assert_eq!(requests.of(MsgKind::SpecRequest).0, wstats.campaigns);
    assert_eq!(wstats.reconnects, 0, "{wstats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    assert_eq!(stats.sessions_reattached, 0, "{stats:?}");
    assert_eq!(stats.leases_granted, 2 * CAMPAIGNS as u64, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn finished_campaigns_hold_no_journal_descriptor_and_still_serve_their_reports() {
    let dir = scratch("journal-fds");
    let svc = Harness::start(&dir, 8, None);
    let worker = {
        let wcfg = worker_config(&svc.fabric, 0x5EED_0800);
        std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
    };
    let specs: Vec<SubmitSpec> = (0..4)
        .map(|i| SubmitSpec::new("bitcount", Structure::RegFile, 12, 0xFD5 + i))
        .collect();
    let ids: Vec<u64> = specs.iter().map(|spec| submit(svc.http, spec)).collect();
    for &id in &ids {
        wait_done(svc.http, id, Duration::from_secs(120));
    }

    // The service runs in this process: none of its descriptors may still
    // point under the journal directory (one per finished campaign did).
    let journals = dir.join("journals");
    assert!(journals.join(format!("campaign-{}.jsonl", ids[0])).exists());
    match std::fs::read_dir("/proc/self/fd") {
        Err(_) => eprintln!("skipped the descriptor check: no /proc/self/fd here"),
        Ok(fds) => {
            let open: Vec<PathBuf> = fds
                .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
                .filter(|target| target.starts_with(&journals))
                .collect();
            assert!(open.is_empty(), "journals still open: {open:?}");
        }
    }
    // Closing the journal took nothing from the status surface.
    for (spec, &id) in specs.iter().zip(&ids) {
        let (status, body) = http_get(svc.http, &format!("/campaigns/{id}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(report_of(&body), reference_for(spec));
    }
    svc.finish();
    let _ = worker.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_submissions_get_a_400_and_leave_the_queue_and_the_service_alone() {
    // Three bodies that each used to take the process down — a stack
    // overflow in the parser, 24 TB of fault list in `activate`, 444 TB of
    // snapshots on every worker — the last two *after* being journaled, so
    // every restart replayed them.
    let dir = scratch("hostile-submit");
    let svc = Harness::start(&dir, 8, None);
    let honest = SubmitSpec::new("bitcount", Structure::RegFile, 8, 0x600D);
    let before = submit(svc.http, &honest);
    let queue = dir.join("queue.jsonl");
    let journaled = std::fs::read(&queue).unwrap();

    let faults = r#"{"workload":"bitcount","structure":"RegFile","faults":1000000000000,"seed":1}"#;
    let checkpoints = r#"{"workload":"bitcount","structure":"RegFile","faults":8,"seed":1,"checkpoints":4000000000}"#;
    for (body, names) in [
        ("[".repeat(100_000), "nesting"),
        (faults.to_string(), "`faults`"),
        (checkpoints.to_string(), "`checkpoints`"),
    ] {
        let request = format!(
            "POST /campaigns HTTP/1.1\r\nHost: svc\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let (status, resp) = http(svc.http, request).expect("service reachable");
        assert_eq!(status, 400, "{resp}");
        assert!(resp.contains(names), "{resp}");
    }
    assert_eq!(std::fs::read(&queue).unwrap(), journaled);

    // Still serving, and the next id is the next id.
    assert_eq!(submit(svc.http, &honest), before + 1);
    let stats = svc.finish();
    assert_eq!(stats.campaigns_submitted, 2);
    // A restart replays two submissions, not five.
    let pending = SubmissionQueue::open(&queue).unwrap();
    assert_eq!(pending.pending().len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
