//! Adversarial peers against a live service.
//!
//! Each scenario pairs one misbehaving raw socket with one healthy worker:
//! the service must survive the misbehaviour (no hang, no crash),
//! reassign any lease the bad peer held, and still deliver a campaign
//! bit-identical to the single-process reference — proving nothing the bad
//! peer did was double-counted or lost.
//!
//! Under all of them sits the decoder:
//! `binary_decode_survives_mutated_hot_frames` feeds `Msg::decode` seeded
//! mutations of the three binary messages, and every one must come back
//! `Ok` or `Err`, never a panic.

mod common;

use avgi_faultsim::telemetry::{CampaignObserver, MetricsCollector};
use avgi_faultsim::RunMode;
use avgi_grid::proto::{
    put_varint, read_frame, send, write_frame, Msg, MIN_PROTO_VERSION, PROTO_VERSION,
};
use avgi_grid::service::reference_outcome;
use avgi_grid::{GridOutcome, ServiceConfig, ServiceStats, SubmitSpec, WorkerConfig};
use avgi_muarch::Structure;
use avgi_rng::Rng;
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

/// The binary frames a v3 link carries, as a worker and the service
/// produce them: a 16-index lease, a heartbeat, and the 16-result
/// `batch_done` answering the lease, with its real telemetry delta.
fn hot_frames() -> [Vec<u8>; 3] {
    let spec = SubmitSpec::new("bitcount", Structure::RegFile, 16, 0xF022);
    let results: Vec<_> = (reference_outcome(&spec).unwrap().result.results)
        .into_iter()
        .enumerate()
        .collect();
    let collector = MetricsCollector::new();
    collector.on_campaign_start(spec.structure, results.len());
    for (_, r) in &results {
        collector.on_run(spec.structure, r, Duration::from_micros(40));
    }
    let (lease, campaign) = (0x1_2345, 7);
    [
        Msg::Lease {
            lease,
            campaign,
            indices: (0..results.len()).collect(),
        },
        Msg::Heartbeat { lease, campaign },
        Msg::BatchDone {
            lease,
            campaign,
            results,
            telemetry: collector.snapshot(),
        },
    ]
    .map(|msg| msg.encode(PROTO_VERSION))
}

/// Damages `frame` one of five ways: flipped bits, a truncation, an
/// extension, a varint spliced over a random span, or an oversized varint
/// (a run of continuation bytes).
fn mutate(frame: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = frame.to_vec();
    let at = |rng: &mut Rng, len: usize| rng.gen_range_usize(len + 1);
    match rng.gen_range_u64(5) {
        0 => {
            for _ in 0..1 + rng.gen_range_u64(4) {
                let bit = rng.gen_range_usize(out.len() * 8);
                out[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => out.truncate(rng.gen_range_usize(out.len())),
        2 => out.extend((0..1 + rng.gen_range_u64(16)).map(|_| rng.next_u32() as u8)),
        3 => {
            let random = rng.next_u64();
            let value = *rng.choose(&[
                0,
                1,
                0x7f,
                0x80,
                0xff,
                0x100,
                u64::from(u32::MAX),
                1 << 32,
                u64::MAX,
                random,
            ]);
            let mut varint = Vec::new();
            put_varint(&mut varint, value);
            let from = at(rng, out.len());
            let to = (from + rng.gen_range_usize(12)).min(out.len());
            out.splice(from..to, varint);
        }
        _ => {
            let from = at(rng, out.len());
            let run = 1 + rng.gen_range_usize(14);
            let tail = rng.next_u32() as u8 & 0x7f;
            let varint = std::iter::repeat_n(0xffu8, run).chain([tail]);
            out.splice(from..from, varint);
        }
    }
    out
}

#[test]
fn binary_decode_survives_mutated_hot_frames() {
    const SEED: u64 = 0xDEC0_DE5E_ED00;
    const CASES: u64 = 120_000;
    let frames = hot_frames();
    let encode = |msg: &Msg| msg.encode(PROTO_VERSION);
    let mut decoded = 0u64;
    for case in 0..CASES {
        let seed = SEED ^ case;
        let mut rng = Rng::seed_from_u64(seed);
        let frame = &frames[(case % 3) as usize];
        let damaged = mutate(frame, &mut rng);
        let checked = std::panic::catch_unwind(|| {
            let Ok(msg) = Msg::decode(&damaged) else {
                return Ok(false);
            };
            let once = encode(&msg);
            let again = Msg::decode(&once).map(|m| encode(&m));
            match again {
                Ok(twice) if twice == once => Ok(true),
                Ok(_) => Err("re-encoding is not a fixed point".to_string()),
                Err(e) => Err(format!("its re-encoding does not decode: {e}")),
            }
        });
        match checked {
            Ok(Ok(ok)) => decoded += u64::from(ok),
            Ok(Err(why)) => panic!("case {case} (seed {seed:#x}): {why}; input {damaged:02x?}"),
            Err(_) => panic!("case {case} (seed {seed:#x}): decode panicked on {damaged:02x?}"),
        }
    }
    // Both answers occur: the mutations reach past the first bad byte.
    assert!(
        0 < decoded && decoded < CASES,
        "{decoded} of {CASES} decoded"
    );
}
