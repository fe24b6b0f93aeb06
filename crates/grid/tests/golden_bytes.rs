//! Golden bytes of every JSON document `avgi-grid` writes.
//!
//! Each literal below was produced by the code of the commit *before* the
//! grid's documents moved onto `faultsim::json`'s writer (every emitter was
//! a `format!` then), so the table proves the refactor changed no byte: for
//! every document kind `write(value) == literal`, `read(literal) == value`,
//! and `json::parse` accepts it. The queue lines are what a restarted
//! service replays, the JSON frames what the other end of a link parses, the
//! report what `grid_submit --verify` and `benchmark/expected.json` compare
//! by bytes.
//!
//! Two literals were re-pinned on purpose when the v2 session was deleted:
//! the `welcome` frame lost its `spec` (and `campaign`), and `/fleet` its
//! per-dialect `wire` split. Otherwise the file uses only API that exists on
//! both sides of the writer refactor, so with those two literals set back it
//! can be run at the older commit to check the rest.

mod common;

use avgi_faultsim::json::parse;
use avgi_faultsim::telemetry::MetricsSnapshot;
use avgi_faultsim::{InjectionResult, RunMode};
use avgi_grid::proto::Msg;
use avgi_grid::service::{reference_outcome, reference_report};
use avgi_grid::spec::{CampaignSpec, ConfigPreset};
use avgi_grid::{Service, ServiceConfig, SubmissionQueue, SubmitSpec, WorkerConfig};
use avgi_muarch::fault::{Fault, FaultSite, Structure};
use avgi_muarch::mem::MemFault;
use avgi_muarch::run::{RunOutcome, TrapKind};
use avgi_muarch::trace::{CommitRecord, Deviation};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn full_submission() -> SubmitSpec {
    SubmitSpec {
        workload: "crc32".into(),
        preset: ConfigPreset::Small,
        structure: Structure::Rob,
        faults: 96,
        seed: 0xBEE,
        mode: RunMode::FirstDeviation {
            ert_window: Some(500),
        },
        burst_width: 2,
        checkpoints: 4,
        priority: 3,
        weight: 5,
        quota: 16,
    }
}

const SUBMIT_FULL: &str = r#"{"workload":"crc32","preset":"small","structure":"Rob","faults":96,"seed":3054,"mode":"FirstDeviation","ert_window":500,"burst":2,"checkpoints":4,"priority":3,"weight":5,"quota":16}"#;
const SUBMIT_DEFAULT: &str = r#"{"workload":"bitcount","preset":"big","structure":"RegFile","faults":8,"seed":1,"mode":"Instrumented","ert_window":null,"burst":1,"checkpoints":8,"priority":0,"weight":1,"quota":0}"#;

fn campaign_spec(mode: RunMode) -> CampaignSpec {
    CampaignSpec {
        workload: "sha".into(),
        workload_id: 1,
        preset: ConfigPreset::Big,
        structure: Structure::RegFile,
        faults: 240,
        seed: 0xDEAD,
        mode,
        burst_width: 2,
        checkpoints: 8,
        golden_cycles: 123_456,
        config_hash: u64::MAX,
        lease_timeout_ms: 30_000,
    }
}

const SPEC_ERT: &str = r#"{"workload":"sha","workload_id":1,"preset":"big","structure":"RegFile","faults":240,"seed":57005,"mode":"FirstDeviation","ert_window":2000,"burst":2,"checkpoints":8,"golden_cycles":123456,"config_hash":18446744073709551615,"lease_timeout_ms":30000}"#;
const SPEC_E2E: &str = r#"{"workload":"sha","workload_id":1,"preset":"big","structure":"RegFile","faults":240,"seed":57005,"mode":"EndToEnd","ert_window":null,"burst":2,"checkpoints":8,"golden_cycles":123456,"config_hash":18446744073709551615,"lease_timeout_ms":30000}"#;

#[test]
fn spec_documents_match_the_bytes_the_parent_wrote() {
    let default = SubmitSpec::new("bitcount", Structure::RegFile, 8, 1);
    for (value, golden) in [(full_submission(), SUBMIT_FULL), (default, SUBMIT_DEFAULT)] {
        assert_eq!(value.to_json(), golden);
        assert_eq!(SubmitSpec::from_json(golden).unwrap(), value);
    }
    let ert = RunMode::FirstDeviation {
        ert_window: Some(2_000),
    };
    for (value, golden) in [
        (campaign_spec(ert), SPEC_ERT),
        (campaign_spec(RunMode::EndToEnd), SPEC_E2E),
    ] {
        assert_eq!(value.to_json(), golden);
        assert_eq!(
            CampaignSpec::from_json_value(&parse(golden).unwrap()).unwrap(),
            value
        );
    }
}

const QUEUE_FILE: &str = r#"{"kind":"avgi-grid-queue","version":1} b4c9a5db
{"op":"submit","id":1,"spec":{"workload":"crc32","preset":"small","structure":"Rob","faults":96,"seed":3054,"mode":"FirstDeviation","ert_window":500,"burst":2,"checkpoints":4,"priority":3,"weight":5,"quota":16}} 5517372b
{"op":"submit","id":2,"spec":{"workload":"bitcount","preset":"big","structure":"RegFile","faults":8,"seed":1,"mode":"Instrumented","ert_window":null,"burst":1,"checkpoints":8,"priority":0,"weight":1,"quota":0}} e798b9fb
{"op":"done","id":1} b113f122
"#;

#[test]
fn queue_lines_match_the_bytes_the_parent_wrote() {
    let dir = common::scratch("golden-queue");
    let path = dir.join("queue.jsonl");
    {
        let mut q = SubmissionQueue::open(&path).unwrap();
        assert_eq!(q.submit(full_submission()).unwrap(), 1);
        let default = SubmitSpec::new("bitcount", Structure::RegFile, 8, 1);
        assert_eq!(q.submit(default).unwrap(), 2);
        q.complete(1).unwrap();
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), QUEUE_FILE);
    // read(literal) == value
    std::fs::write(&path, QUEUE_FILE).unwrap();
    let q = SubmissionQueue::open(&path).unwrap();
    assert_eq!(q.next_id(), 3);
    assert_eq!(q.pending().len(), 1);
    assert_eq!(q.pending()[0].id, 2);
    assert_eq!(
        q.pending()[0].spec,
        SubmitSpec::new("bitcount", Structure::RegFile, 8, 1)
    );
    for line in QUEUE_FILE.lines() {
        parse(line.rsplit_once(' ').unwrap().0).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn results() -> Vec<InjectionResult> {
    let fault = |bit, cycle| Fault {
        site: FaultSite {
            structure: Structure::Rob,
            bit,
        },
        cycle,
    };
    vec![
        InjectionResult {
            fault: fault(1 << 40, 12345),
            outcome: RunOutcome::Completed,
            deviation: None,
            output_matches: Some(true),
            cycles: 100_000,
            post_inject_cycles: 87_655,
            abort_message: None,
        },
        InjectionResult {
            fault: fault(3, 7),
            outcome: RunOutcome::Trap(TrapKind::Memory(MemFault::Misaligned(0xdead_beef))),
            deviation: Some(Deviation {
                index: 42,
                golden: CommitRecord {
                    cycle: 99,
                    pc: 0x100,
                    raw: 0xdead_beef,
                    ea: 0,
                    val: 7,
                },
                faulty: CommitRecord {
                    cycle: 99,
                    pc: 0x104,
                    raw: 0xfeed_face,
                    ea: 4,
                    val: 8,
                },
            }),
            output_matches: Some(false),
            cycles: 500,
            post_inject_cycles: 493,
            abort_message: None,
        },
        InjectionResult {
            fault: fault(9, 2),
            outcome: RunOutcome::SimAbort,
            deviation: None,
            output_matches: None,
            cycles: 0,
            post_inject_cycles: 0,
            abort_message: Some("rob \"häd\" a\nbad\\day\u{1}".into()),
        },
    ]
}

fn telemetry() -> MetricsSnapshot {
    let mut t = MetricsSnapshot::empty();
    t.planned = 3;
    t.completed = 3;
    t.retries = 1;
    t.outcomes[0].1 = 1;
    t.outcomes[1].1 = 1;
    t.outcomes[7].1 = 1;
    t.structures[7].1 = 3;
    t.post_inject_cycles.counts[0] = 1;
    t.post_inject_cycles.counts[9] = 1;
    t.post_inject_cycles.counts[17] = 1;
    t
}

const REPORT: &str = r#"{"workload":"sha \"256\"","structure":"Rob","golden_cycles":9001,"results":[{"i":0,"fault":{"structure":"Rob","bit":1099511627776,"cycle":12345},"outcome":{"t":"Completed"},"deviation":null,"output_matches":true,"cycles":100000,"post":87655,"abort":null},{"i":1,"fault":{"structure":"Rob","bit":3,"cycle":7},"outcome":{"t":"Trap","trap":"Memory","mem":"Misaligned","addr":3735928559},"deviation":{"index":42,"golden":[99,256,3735928559,0,7],"faulty":[99,260,4277009102,4,8]},"output_matches":false,"cycles":500,"post":493,"abort":null},{"i":2,"fault":{"structure":"Rob","bit":9,"cycle":2},"outcome":{"t":"SimAbort"},"deviation":null,"output_matches":null,"cycles":0,"post":0,"abort":"rob \"häd\" a\nbad\\day\u0001"}],"telemetry":{"planned":3,"completed":3,"retries":1,"aborted":1,"outcomes":{"Completed":1,"Trap":1,"IntegrityViolation":0,"Watchdog":0,"StoppedAtDeviation":0,"ErtExpired":0,"WallClockExpired":0,"SimAbort":1},"classes":{},"structures":{"L2Tag":3},"post_inject_cycles_hist":[1,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,1]}}"#;

/// All eleven message kinds in the JSON dialect; the three hot ones in both
/// their tagged and their untagged (campaign 0) form.
fn messages() -> Vec<(Msg, &'static str)> {
    let indexed = || results().into_iter().enumerate().collect::<Vec<_>>();
    vec![
        (
            Msg::Hello {
                proto: 3,
                session: None,
            },
            r#"{"t":"hello","proto":3,"session":null}"#,
        ),
        (
            Msg::Hello {
                proto: 2,
                session: Some(u64::MAX),
            },
            r#"{"t":"hello","proto":2,"session":18446744073709551615}"#,
        ),
        (
            Msg::Welcome {
                proto: 3,
                session: 17,
            },
            r#"{"t":"welcome","proto":3,"session":17}"#,
        ),
        (Msg::LeaseRequest, r#"{"t":"lease_request"}"#),
        (
            Msg::Lease {
                lease: 7,
                campaign: 0,
                indices: vec![3, 1, 4],
            },
            r#"{"t":"lease","lease":7,"indices":[3,1,4]}"#,
        ),
        (
            Msg::Lease {
                lease: 7,
                campaign: 5,
                indices: vec![],
            },
            r#"{"t":"lease","lease":7,"campaign":5,"indices":[]}"#,
        ),
        (Msg::Drain, r#"{"t":"drain"}"#),
        (Msg::Done, r#"{"t":"done"}"#),
        (
            Msg::Heartbeat {
                lease: 9,
                campaign: 0,
            },
            r#"{"t":"heartbeat","lease":9}"#,
        ),
        (
            Msg::Heartbeat {
                lease: 9,
                campaign: 2,
            },
            r#"{"t":"heartbeat","lease":9,"campaign":2}"#,
        ),
        (
            Msg::BatchDone {
                lease: 12,
                campaign: 0,
                results: indexed(),
                telemetry: telemetry(),
            },
            r#"{"t":"batch_done","lease":12,"results":[{"i":0,"fault":{"structure":"Rob","bit":1099511627776,"cycle":12345},"outcome":{"t":"Completed"},"deviation":null,"output_matches":true,"cycles":100000,"post":87655,"abort":null},{"i":1,"fault":{"structure":"Rob","bit":3,"cycle":7},"outcome":{"t":"Trap","trap":"Memory","mem":"Misaligned","addr":3735928559},"deviation":{"index":42,"golden":[99,256,3735928559,0,7],"faulty":[99,260,4277009102,4,8]},"output_matches":false,"cycles":500,"post":493,"abort":null},{"i":2,"fault":{"structure":"Rob","bit":9,"cycle":2},"outcome":{"t":"SimAbort"},"deviation":null,"output_matches":null,"cycles":0,"post":0,"abort":"rob \"häd\" a\nbad\\day\u0001"}],"telemetry":{"planned":3,"completed":3,"retries":1,"aborted":1,"outcomes":{"Completed":1,"Trap":1,"IntegrityViolation":0,"Watchdog":0,"StoppedAtDeviation":0,"ErtExpired":0,"WallClockExpired":0,"SimAbort":1},"classes":{},"structures":{"L2Tag":3},"post_inject_cycles_hist":[1,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,1]}}"#,
        ),
        (
            Msg::BatchDone {
                lease: 12,
                campaign: 3,
                results: Vec::new(),
                telemetry: MetricsSnapshot::empty(),
            },
            r#"{"t":"batch_done","lease":12,"campaign":3,"results":[],"telemetry":{"planned":0,"completed":0,"retries":0,"aborted":0,"outcomes":{"Completed":0,"Trap":0,"IntegrityViolation":0,"Watchdog":0,"StoppedAtDeviation":0,"ErtExpired":0,"WallClockExpired":0,"SimAbort":0},"classes":{},"structures":{},"post_inject_cycles_hist":[]}}"#,
        ),
        (
            Msg::Spec {
                campaign: 6,
                spec: campaign_spec(RunMode::Instrumented),
            },
            r#"{"t":"spec","campaign":6,"spec":{"workload":"sha","workload_id":1,"preset":"big","structure":"RegFile","faults":240,"seed":57005,"mode":"Instrumented","ert_window":null,"burst":2,"checkpoints":8,"golden_cycles":123456,"config_hash":18446744073709551615,"lease_timeout_ms":30000}}"#,
        ),
        (
            Msg::SpecRequest { campaign: 11 },
            r#"{"t":"spec_request","campaign":11}"#,
        ),
        (
            Msg::Reject {
                reason: "bad \"spec\":\n\tgo away".into(),
            },
            r#"{"t":"reject","reason":"bad \"spec\":\n\tgo away"}"#,
        ),
    ]
}

#[test]
fn wire_messages_and_the_report_match_the_bytes_the_parent_wrote() {
    for (msg, golden) in messages() {
        assert_eq!(msg.to_json(), golden);
        // `encode(2)` is the same bytes: below version 3 every message is
        // JSON.
        assert_eq!(msg.encode(2), golden.as_bytes());
        let back = Msg::from_json(golden).unwrap();
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        parse(golden).unwrap();
    }
    let report = reference_report(
        "sha \"256\"",
        Structure::Rob,
        9001,
        &results(),
        &telemetry(),
    );
    assert_eq!(report, REPORT);
    parse(REPORT).unwrap();
}

/// One blocking HTTP exchange against the service's one-shot surface.
fn http(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(request).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let status = raw.split(' ').nth(1).unwrap().parse().unwrap();
    (status, raw.split_once("\r\n\r\n").unwrap().1.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: svc\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, String) {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: svc\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    http(addr, &[head.as_bytes(), body].concat())
}

const FLEET: &str = r#"{"workers":0,"sessions":0,"campaigns":[{"id":1,"done":false,"faults":8,"completed":0},{"id":2,"done":false,"faults":4,"completed":0}],"wire":{"lease":{"frames":0,"bytes":0},"batch_done":{"frames":0,"bytes":0},"heartbeat":{"frames":0,"bytes":0},"total":{"frames":0,"bytes":0}}}"#;
const STATUS_PENDING: &str =
    r#"{"id":2,"done":false,"workload":"bitcount","structure":"Rob","faults":4,"completed":0}"#;
const STATUS_DONE_HEAD: &str = r#"{"id":1,"done":true,"workload":"bitcount","structure":"RegFile","faults":8,"completed":8,"report":"#;

#[test]
fn http_bodies_match_the_bytes_the_parent_wrote() {
    let dir = common::scratch("golden-http");
    let stop = Arc::new(AtomicBool::new(false));
    let service = Service::bind(ServiceConfig {
        http_bind: Some("127.0.0.1:0".into()),
        queue: dir.join("queue.jsonl"),
        batch: 4,
        deadline: Some(Duration::from_secs(120)),
        stop: Some(stop.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    let fabric = service.local_addr().unwrap().to_string();
    let addr = service.http_addr().unwrap();
    let thread = std::thread::spawn(move || service.run());

    // Submissions: accepted, and refused by the decoder.
    let mut first = SubmitSpec::new("bitcount", Structure::RegFile, 8, 1);
    first.mode = RunMode::EndToEnd;
    let second = SubmitSpec::new("bitcount", Structure::Rob, 4, 2);
    assert_eq!(
        post(addr, "/campaigns", first.to_json().as_bytes()),
        (201, r#"{"id":1}"#.into())
    );
    assert_eq!(
        post(addr, "/campaigns", second.to_json().as_bytes()),
        (201, r#"{"id":2}"#.into())
    );
    assert_eq!(
        post(
            addr,
            "/campaigns",
            br#"{"workload":"nope","structure":"RegFile","faults":8,"seed":1}"#
        ),
        (400, r#"{"error":"submit: unknown workload `nope`"}"#.into())
    );

    // The fixed error bodies.
    for (got, want) in [
        (
            get(addr, "/campaigns/9"),
            (404, r#"{"error":"no campaign 9"}"#),
        ),
        (get(addr, "/nope"), (404, r#"{"error":"no such route"}"#)),
        (
            post(addr, "/nope", b""),
            (404, r#"{"error":"no such route"}"#),
        ),
        (
            http(addr, b"DELETE /fleet HTTP/1.1\r\n\r\n"),
            (405, r#"{"error":"method not allowed"}"#),
        ),
        (
            http(addr, b"garbage\r\n\r\n"),
            (400, r#"{"error":"bad request line"}"#),
        ),
        (
            http(
                addr,
                b"POST /campaigns HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            ),
            (400, r#"{"error":"bad content-length"}"#),
        ),
        (
            http(
                addr,
                b"POST /campaigns HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            ),
            (413, r#"{"error":"body too large"}"#),
        ),
        (
            post(addr, "/campaigns", b"\xff"),
            (400, r#"{"error":"non-UTF-8 body"}"#),
        ),
    ] {
        assert_eq!((got.0, got.1.as_str()), want);
    }

    // Before any worker arrives the fleet and status bodies are fixed.
    assert_eq!(get(addr, "/fleet"), (200, FLEET.into()));
    assert_eq!(get(addr, "/campaigns/2"), (200, STATUS_PENDING.into()));
    parse(FLEET).unwrap();
    parse(STATUS_PENDING).unwrap();

    // A finished campaign's status embeds its report.
    let mut wcfg = WorkerConfig::new(fabric);
    wcfg.threads = 2;
    let worker = std::thread::spawn(move || avgi_grid::run_worker(&wcfg));
    let started = Instant::now();
    let body = loop {
        let (status, body) = get(addr, "/campaigns/1");
        assert_eq!(status, 200);
        if body.contains("\"done\":true") {
            break body;
        }
        assert!(started.elapsed() < Duration::from_secs(60), "{body}");
        std::thread::sleep(Duration::from_millis(20));
    };
    let reference = reference_outcome(&first).unwrap();
    let report = reference_report(
        &first.workload,
        first.structure,
        reference.result.golden_cycles,
        &reference.result.results,
        &reference.telemetry,
    );
    assert_eq!(body, format!("{STATUS_DONE_HEAD}{report}}}"));
    parse(&body).unwrap();

    stop.store(true, Ordering::Relaxed);
    thread.join().unwrap().unwrap();
    let _ = worker.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
