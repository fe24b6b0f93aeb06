//! Adversarial peers against a live service.
//!
//! Each scenario pairs one misbehaving raw socket with one healthy worker:
//! the service must survive the misbehaviour (no hang, no crash),
//! reassign any lease the bad peer held, and still deliver a campaign
//! bit-identical to the single-process reference — proving nothing the bad
//! peer did was double-counted or lost.

mod common;

use avgi_faultsim::RunMode;
use avgi_grid::proto::{read_frame, send, write_frame, Msg, MIN_PROTO_VERSION};
use avgi_grid::{GridOutcome, ServiceConfig, ServiceStats, SubmitSpec, WorkerConfig};
use avgi_muarch::Structure;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const FAULTS: usize = 24;

fn spec() -> SubmitSpec {
    let mut spec = SubmitSpec::new("bitcount", Structure::RegFile, FAULTS, 0xBAD);
    spec.mode = RunMode::EndToEnd;
    spec
}

/// Runs a grid campaign: one healthy worker plus an adversary driven by
/// `misbehave` against a raw socket connected to the service.
fn run_with_adversary(
    lease_timeout: Duration,
    misbehave: impl FnOnce(TcpStream) + Send + 'static,
) -> (GridOutcome, ServiceStats) {
    // One scratch directory per scenario (the tests run concurrently).
    static SCENARIO: AtomicUsize = AtomicUsize::new(0);
    let n = SCENARIO.fetch_add(1, Ordering::Relaxed);
    let dir = common::scratch(&format!("robustness-{n}"));
    let cfg = ServiceConfig {
        queue: dir.join("queue.jsonl"),
        batch: 4,
        lease_timeout,
        deadline: Some(Duration::from_secs(300)),
        ..ServiceConfig::default()
    };
    let service = common::OneCampaign::start(cfg, &spec());
    let addr = service.addr;
    // Let the adversary strike first so it actually grabs work before the
    // healthy worker drains the queue.
    let adversary = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        misbehave(stream);
    });
    adversary.join().unwrap();
    let mut wcfg = WorkerConfig::new(String::new());
    wcfg.threads = 2;
    let workers = service.spawn_workers(vec![wcfg]);
    let served = service.finish();
    for t in workers {
        t.join().unwrap().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    served
}

fn assert_matches_reference(outcome: &GridOutcome) {
    common::assert_matches_reference(outcome, &spec());
    // Telemetry totals account for every fault exactly once.
    assert_eq!(outcome.telemetry.planned, FAULTS as u64);
    assert_eq!(outcome.telemetry.completed, FAULTS as u64);
}

/// Performs the hello/welcome handshake on a raw socket. The adversary
/// speaks proto v2 so every frame on its link stays JSON.
fn handshake(stream: &mut TcpStream) {
    send(
        stream,
        &Msg::Hello {
            proto: MIN_PROTO_VERSION,
            session: None,
        },
        MIN_PROTO_VERSION,
    )
    .unwrap();
    match Msg::decode(&read_frame(stream).unwrap()).unwrap() {
        Msg::Welcome { .. } => {}
        other => panic!("expected welcome, got {other:?}"),
    }
}

#[test]
fn truncated_frame_drops_the_peer_not_the_campaign() {
    let (outcome, _) = run_with_adversary(Duration::from_secs(20), |mut stream| {
        handshake(&mut stream);
        // A frame that promises 100 bytes and delivers 4, then vanishes.
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(b"oops").unwrap();
        drop(stream);
    });
    assert_matches_reference(&outcome);
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let (outcome, stats) = run_with_adversary(Duration::from_secs(20), |mut stream| {
        handshake(&mut stream);
        // Claim a 4 GiB frame; the service must refuse the prefix
        // rather than trusting it, and drop the connection.
        stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        stream
            .write_all(b"garbage that never amounts to a frame")
            .unwrap();
        // Keep the socket open: the refusal must come from the prefix
        // check, not from our disconnect.
        std::thread::sleep(Duration::from_millis(300));
        drop(stream);
    });
    assert_matches_reference(&outcome);
    assert!(stats.protocol_errors >= 1);
}

#[test]
fn silent_leaseholder_expires_and_work_is_reassigned_once() {
    // The adversary takes a lease and then neither heartbeats nor reports:
    // the death mode lease timeouts exist for. The timeout is short so the
    // sweep fires quickly; the healthy worker then redoes the indices and
    // the totals must show no double count.
    let (outcome, stats) = run_with_adversary(Duration::from_millis(500), |mut stream| {
        handshake(&mut stream);
        send(&mut stream, &Msg::LeaseRequest, MIN_PROTO_VERSION).unwrap();
        match Msg::decode(&read_frame(&mut stream).unwrap()).unwrap() {
            Msg::Lease { indices, .. } => assert!(!indices.is_empty()),
            other => panic!("expected a lease, got {other:?}"),
        }
        // Hold the socket open silently past the lease deadline.
        std::thread::sleep(Duration::from_millis(1_200));
        drop(stream);
    });
    assert_matches_reference(&outcome);
    assert!(
        stats.leases_reassigned >= 1,
        "silent lease must expire: {stats:?}"
    );
}

#[test]
fn late_report_after_reassignment_is_discarded_wholly() {
    // The adversary takes a lease, goes silent past the deadline, and THEN
    // reports a (fabricated) batch for the now-reassigned lease. The
    // service must reject the whole report — results and telemetry —
    // or the campaign would double-count.
    let (outcome, stats) = run_with_adversary(Duration::from_millis(400), |mut stream| {
        handshake(&mut stream);
        send(&mut stream, &Msg::LeaseRequest, MIN_PROTO_VERSION).unwrap();
        let (lease, indices) = match Msg::decode(&read_frame(&mut stream).unwrap()).unwrap() {
            Msg::Lease { lease, indices, .. } => (lease, indices),
            other => panic!("expected a lease, got {other:?}"),
        };
        std::thread::sleep(Duration::from_millis(1_000));
        // Report garbage results under the expired lease: a malformed
        // batch_done body exercises the rejection path. Easiest well-formed
        // frame: an empty results list (wrong length for the lease).
        let payload = format!(
            "{{\"t\":\"batch_done\",\"lease\":{lease},\"results\":[],\"telemetry\":{{\"planned\":{n},\"completed\":{n},\"retries\":0,\"aborted\":0,\"outcomes\":{{}},\"classes\":{{}},\"structures\":{{}},\"post_inject_cycles_hist\":[]}}}}",
            n = indices.len()
        );
        let _ = write_frame(&mut stream, payload.as_bytes());
        std::thread::sleep(Duration::from_millis(200));
        drop(stream);
    });
    assert_matches_reference(&outcome);
    assert!(stats.batches_rejected >= 1, "{stats:?}");
    assert!(stats.leases_reassigned >= 1, "{stats:?}");
}
