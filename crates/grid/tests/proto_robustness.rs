//! Adversarial peers against a live service.
//!
//! Each scenario pairs one misbehaving raw socket with one healthy worker:
//! the service must survive the misbehaviour (no hang, no crash),
//! reassign any lease the bad peer held, and still deliver a campaign
//! bit-identical to the single-process reference — proving nothing the bad
//! peer did was double-counted or lost.
//!
//! Under all of them sit the two parsers a peer reaches:
//! `binary_decode_survives_mutated_hot_frames` feeds `Msg::decode` seeded
//! mutations of the three binary messages, and every one must come back
//! `Ok` or `Err`, never a panic; `http_heads_survive_mutated_requests`
//! feeds `HttpBuffer::poll` seeded mutations of the three HTTP requests in
//! random fragments, and every poll must come back `Pending`, `Request` or
//! `Bad` within the buffer's bound. A case that fails is reported with its
//! index, its seed and its input minimised under the same check.

mod common;

use avgi_faultsim::telemetry::{CampaignObserver, MetricsCollector};
use avgi_faultsim::RunMode;
use avgi_grid::http::{HttpBuffer, HttpPoll, MAX_BODY, MAX_HEAD, READ_CHUNK};
use avgi_grid::proto::{put_varint, send, write_frame, FrameBuffer, Msg, PROTO_VERSION};
use avgi_grid::service::reference_outcome;
use avgi_grid::{GridOutcome, ServiceConfig, ServiceStats, SubmitSpec, WorkerConfig};
use avgi_muarch::Structure;
use avgi_rng::Rng;
use std::io::{Read, Write};
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

/// Performs the hello/welcome handshake on a raw socket, returning the
/// decoder for the rest of the link.
fn handshake(stream: &mut TcpStream) -> FrameBuffer {
    send(
        stream,
        &Msg::Hello {
            proto: PROTO_VERSION,
            session: None,
        },
    )
    .unwrap();
    let mut frames = FrameBuffer::new();
    match common::next_msg(stream, &mut frames) {
        Msg::Welcome { .. } => frames,
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
        let mut frames = handshake(&mut stream);
        send(&mut stream, &Msg::LeaseRequest).unwrap();
        match common::next_msg(&mut stream, &mut frames) {
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
        let mut frames = handshake(&mut stream);
        send(&mut stream, &Msg::LeaseRequest).unwrap();
        let (lease, indices) = match common::next_msg(&mut stream, &mut frames) {
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

/// Decodes `payload` as a peer's frame: `Ok(true)` when it decodes and
/// its re-encoding is a fixed point, `Ok(false)` when it is refused, and
/// `Err` naming what went wrong — a panic included.
fn decode_check(payload: &[u8]) -> Result<bool, String> {
    let encode = |msg: &Msg| msg.encode(PROTO_VERSION);
    std::panic::catch_unwind(|| {
        let Ok(msg) = Msg::decode(payload) else {
            return Ok(false);
        };
        let once = encode(&msg);
        let again = Msg::decode(&once).map(|m| encode(&m));
        match again {
            Ok(twice) if twice == once => Ok(true),
            Ok(_) => Err("re-encoding is not a fixed point".to_string()),
            Err(e) => Err(format!("its re-encoding does not decode: {e}")),
        }
    })
    .unwrap_or_else(|_| Err("decode panicked".to_string()))
}

/// Shrinks `input` while `fails` still holds of it: deletes byte ranges,
/// halving their width down to one byte, and keeps every deletion after
/// which the check still fails. The result is one-minimal: deleting any
/// single byte makes the check pass.
fn minimise(mut input: Vec<u8>, fails: impl Fn(&[u8]) -> bool) -> Vec<u8> {
    let mut width = input.len().div_ceil(2).max(1);
    loop {
        let before = input.len();
        let mut at = 0;
        while at + width <= input.len() {
            let mut shorter = input.clone();
            shorter.drain(at..at + width);
            if fails(&shorter) {
                input = shorter;
            } else {
                at += width;
            }
        }
        if width > 1 {
            width = width.div_ceil(2);
        } else if input.len() == before {
            return input;
        }
    }
}

/// Panics with a failing case: its index, its seed, why, and its input
/// shrunk by [`minimise`] under the same check.
fn fail(case: u64, seed: u64, why: &str, input: &[u8], fails: impl Fn(&[u8]) -> bool) -> ! {
    let smallest = minimise(input.to_vec(), fails);
    panic!(
        "case {case} (seed {seed:#x}): {why}; input minimised from {} to {} bytes: {smallest:02x?}",
        input.len(),
        smallest.len()
    )
}

#[test]
fn a_failing_input_is_minimised_before_it_is_reported() {
    // A synthetic check that fails while 0xab comes before 0xcd.
    let fails = |input: &[u8]| {
        let ab = input.iter().position(|&b| b == 0xab);
        ab.is_some_and(|at| input[at..].contains(&0xcd))
    };
    let input: Vec<u8> = (0..=255u8).rev().chain(0..=255).collect();
    assert!(fails(&input));
    assert_eq!(minimise(input.clone(), fails), [0xab, 0xcd]);
    // What passes is returned whole; what fails without any byte shrinks
    // to nothing.
    assert_eq!(minimise(vec![1, 2, 3], |_| false), [1, 2, 3]);
    assert_eq!(minimise(vec![1, 2, 3], |_| true), [0u8; 0]);
    let report = std::panic::catch_unwind(|| fail(7, 0x5EED, "synthetic", &input, fails));
    let report = *report.unwrap_err().downcast::<String>().unwrap();
    assert_eq!(
        report,
        "case 7 (seed 0x5eed): synthetic; input minimised from 512 to 2 bytes: [ab, cd]"
    );
}

#[test]
fn binary_decode_survives_mutated_hot_frames() {
    const SEED: u64 = 0xDEC0_DE5E_ED00;
    const CASES: u64 = 120_000;
    let frames = hot_frames();
    let mut decoded = 0u64;
    for case in 0..CASES {
        let seed = SEED ^ case;
        let mut rng = Rng::seed_from_u64(seed);
        let damaged = mutate(&frames[(case % 3) as usize], &mut rng);
        match decode_check(&damaged) {
            Ok(ok) => decoded += u64::from(ok),
            Err(why) => fail(case, seed, &why, &damaged, |input| {
                decode_check(input).is_err()
            }),
        }
    }
    // Both answers occur: the mutations reach past the first bad byte.
    assert!(
        0 < decoded && decoded < CASES,
        "{decoded} of {CASES} decoded"
    );
}

/// The three requests the HTTP surface routes, as `grid_submit` and a
/// status poller send them.
fn http_requests() -> [Vec<u8>; 3] {
    let body = SubmitSpec::new("bitcount", Structure::RegFile, 64, 0x5EED).to_json();
    [
        format!(
            "POST /campaigns HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
        "GET /campaigns/7 HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".to_string(),
        "GET /fleet HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n".to_string(),
    ]
    .map(String::into_bytes)
}

/// The most a [`HttpBuffer`] may hold: a head past [`MAX_HEAD`] by one
/// read, a body of [`MAX_BODY`], and one more read.
const BOUND: usize = MAX_HEAD + READ_CHUNK + MAX_BODY + READ_CHUNK;

/// Damages `request` one of six ways: flipped bits, a truncation, random
/// bytes spliced in, a length-like token spliced over a random span, a
/// terminator or line break spliced in, or a copied span; and, rarely, a
/// flood of more bytes than a buffer may hold.
fn mutate_request(request: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = request.to_vec();
    let at = rng.gen_range_usize(out.len() + 1);
    let to = (at + rng.gen_range_usize(12)).min(out.len());
    match rng.gen_range_u64(6) {
        0 => {
            for _ in 0..1 + rng.gen_range_u64(4) {
                let bit = rng.gen_range_usize(out.len() * 8);
                out[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => out.truncate(at),
        2 => {
            let noise: Vec<u8> = (0..1 + rng.gen_range_u64(16))
                .map(|_| rng.next_u32() as u8)
                .collect();
            out.splice(at..to, noise);
        }
        3 => {
            let token = rng
                .choose(&[
                    "0".to_string(),
                    "-1".to_string(),
                    "1".to_string(),
                    MAX_BODY.to_string(),
                    (MAX_BODY + 1).to_string(),
                    u64::MAX.to_string(),
                    "99999999999999999999999".to_string(),
                    " ".to_string(),
                    "/campaigns/".to_string(),
                    "HTTP/1.".to_string(),
                    "Content-Length:".to_string(),
                ])
                .clone();
            out.splice(at..to, token.into_bytes());
        }
        4 => {
            let cut = *rng.choose(&[&b"\r\n\r\n"[..], b"\r\n", b"\r", b"\n", b":", b"\xff"]);
            out.splice(at..to, cut.iter().copied());
        }
        5 if rng.gen_bool(0.05) => {
            // More bytes than a buffer may hold: a head that never ends, or
            // a body at or past the bound behind its own length header.
            let flood = std::iter::repeat_n(*rng.choose(&[b'a', b'\r', b'\n', 0]), BOUND);
            match out.windows(4).position(|w| w == b"\r\n\r\n") {
                Some(end) if rng.gen_bool(0.5) => {
                    let length = rng.choose(&[MAX_BODY, MAX_BODY + 1, usize::MAX]);
                    let header = format!("\r\nContent-Length: {length}");
                    out.splice(end..end, header.into_bytes());
                    out.extend(flood);
                }
                _ => drop(out.splice(at..at, flood)),
            }
        }
        _ => {
            let copy = out[at..to].to_vec();
            out.splice(at..at, copy);
        }
    }
    out
}

/// A socket handing out `bytes` in random fragments, with a `WouldBlock`
/// now and then; `WouldBlock` for good once drained (the peer holds the
/// connection open). Counts what it handed out.
struct Fragments<'a> {
    bytes: &'a [u8],
    at: usize,
    max: usize,
    rng: Rng,
}

impl Read for Fragments<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.at == self.bytes.len() || self.rng.gen_bool(0.1) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let room = buf.len().min(self.max).min(self.bytes.len() - self.at);
        let n = 1 + self.rng.gen_range_usize(room);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Feeds `damaged` to an [`HttpBuffer`] through a [`Fragments`] socket
/// handing out at most `max` bytes a read: `Ok(Some(true))` when a request
/// is routed, `Ok(Some(false))` when it is refused with a 4xx, `Ok(None)`
/// when it never completes, and `Err` naming what went wrong — a panic,
/// an I/O error, another answer, or a buffer past [`BOUND`].
fn poll_check(damaged: &[u8], max: usize, rng: Rng) -> Result<Option<bool>, String> {
    // Every poll either makes progress or is one of the socket's scattered
    // `WouldBlock`s, so this many polls drain it.
    let polls = 4 * damaged.len() + 64;
    let mut socket = Fragments {
        bytes: damaged,
        at: 0,
        max,
        rng,
    };
    std::panic::catch_unwind(move || {
        let mut buffer = HttpBuffer::new();
        for _ in 0..polls {
            let poll = buffer
                .poll(&mut socket)
                .map_err(|e| format!("I/O error {e}"))?;
            // The buffer appends and never drains: it holds what it read.
            if socket.at > BOUND {
                return Err(format!("the buffer holds {} bytes", socket.at));
            }
            match poll {
                HttpPoll::Pending => {}
                HttpPoll::Request(_) => return Ok(Some(true)),
                HttpPoll::Bad(response) if response.starts_with(b"HTTP/1.1 4") => {
                    return Ok(Some(false))
                }
                other => return Err(format!("poll returned {other:?}")),
            }
        }
        Ok(None)
    })
    .unwrap_or_else(|_| Err("poll panicked".to_string()))
}

#[test]
fn http_heads_survive_mutated_requests() {
    const SEED: u64 = 0x4177_9B0D_F022;
    const CASES: u64 = 50_000;
    let requests = http_requests();
    let (mut routed, mut refused) = (0u64, 0u64);
    for case in 0..CASES {
        let seed = SEED ^ case;
        let mut rng = Rng::seed_from_u64(seed);
        let damaged = mutate_request(&requests[(case % 3) as usize], &mut rng);
        let max = (*rng.choose(&[1, 7, 64, 512, READ_CHUNK])).max(damaged.len() / 64);
        match poll_check(&damaged, max, rng.clone()) {
            Ok(Some(true)) => routed += 1,
            Ok(Some(false)) => refused += 1,
            Ok(None) => {}
            Err(why) => fail(case, seed, &why, &damaged, |input| {
                poll_check(input, max, rng.clone()).is_err()
            }),
        }
    }
    // All three answers occur: some damage is harmless, some is refused,
    // and some leaves a request that never completes.
    assert!(
        0 < routed && 0 < refused && routed + refused < CASES,
        "{routed} routed, {refused} refused of {CASES}"
    );
}
