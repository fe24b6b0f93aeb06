//! One worker session, one thread, one connection: the session thread
//! keeps a lease alive through a batch longer than the lease timeout, and
//! waits out a frame a read timeout tore in two instead of losing its
//! session.

mod common;

use avgi_faultsim::journal::config_hash;
use avgi_faultsim::{golden_for, RunMode};
use avgi_grid::proto::{
    frame_bytes, send, FrameBuffer, Msg, MsgKind, MIN_PROTO_VERSION, PROTO_VERSION,
};
use avgi_grid::{CampaignSpec, ConfigPreset, ServiceConfig, SubmitSpec, WorkerConfig};
use avgi_muarch::Structure;
use std::io::Write;
use std::net::TcpListener;
use std::time::Duration;

#[test]
fn heartbeats_keep_a_lease_alive_through_a_batch_three_timeouts_long() {
    // One lease of 160 end-to-end dijkstra runs without checkpoints, on one
    // thread: 1.0–1.3 s measured on a 2-core x86-64 host in a release
    // build, four to five lease timeouts. Beats go out every third of a
    // timeout, so 12 to 14 of them.
    const LEASE: Duration = Duration::from_millis(250);
    const FAULTS: usize = 160;
    let mut spec = SubmitSpec::new("dijkstra", Structure::RegFile, FAULTS, 0x10_4E);
    spec.mode = RunMode::EndToEnd;
    spec.checkpoints = 0;
    let dir = common::scratch("worker-long-lease");
    let service = common::OneCampaign::start(
        ServiceConfig {
            queue: dir.join("queue.jsonl"),
            batch: FAULTS,
            lease_timeout: LEASE,
            deadline: Some(Duration::from_secs(120)),
            ..ServiceConfig::default()
        },
        &spec,
    );
    let mut wcfg = WorkerConfig::new(String::new());
    wcfg.threads = 1;
    let worker = service.spawn_workers(vec![wcfg]).pop().unwrap();
    let wire = service.wire_v3.clone();
    let (outcome, stats) = service.finish();
    let wstats = worker.join().unwrap().unwrap();

    common::assert_matches_reference(&outcome, &spec);
    assert_eq!(stats.leases_granted, 1, "{stats:?}");
    assert_eq!(stats.leases_reassigned, 0, "{stats:?}");
    assert_eq!((wstats.batches, wstats.reconnects), (1, 0), "{wstats:?}");
    // Nine beats the service read span three lease timeouts: the batch
    // outlived them.
    let beats = wire.of(MsgKind::Heartbeat).0;
    assert!(
        beats >= 9,
        "only {beats} heartbeats: the batch was too short"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small campaign as a service would describe it.
fn campaign_spec() -> CampaignSpec {
    let workload_id = avgi_workloads::index_of("bitcount").unwrap();
    let workload = avgi_workloads::by_index(workload_id).unwrap();
    let cfg = ConfigPreset::Small.config();
    CampaignSpec {
        workload: workload.name.to_string(),
        workload_id,
        preset: ConfigPreset::Small,
        structure: Structure::RegFile,
        faults: 4,
        seed: 0x7EA2,
        mode: RunMode::EndToEnd,
        burst_width: 1,
        checkpoints: 2,
        golden_cycles: golden_for(&workload, &cfg).cycles,
        config_hash: config_hash(&cfg),
        lease_timeout_ms: 30_000,
    }
}

#[test]
fn a_parked_worker_waits_out_a_lease_frame_torn_by_its_read_timeout() {
    // A scripted service parks a real worker, then pushes it a lease in two
    // halves with more than the worker's read timeout between them. The
    // worker asks again while the frame sits half-read, and must then take
    // the lease whole: no torn stream, no lost session.
    const READ_TIMEOUT: Duration = Duration::from_millis(400);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut wcfg = WorkerConfig::new(listener.local_addr().unwrap().to_string());
    wcfg.threads = 1;
    wcfg.read_timeout = READ_TIMEOUT;
    wcfg.connect_timeout = Duration::from_millis(500);
    wcfg.reconnect_attempts = 1;
    let worker = std::thread::spawn(move || avgi_grid::run_worker(&wcfg));

    let (mut stream, _) = listener.accept().unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = FrameBuffer::new();
    assert!(matches!(
        common::next_msg(&mut stream, &mut frames),
        Msg::Hello { session: None, .. }
    ));
    let welcome = Msg::Welcome {
        proto: PROTO_VERSION,
        session: 1,
        campaign: 0,
        spec: None,
    };
    send(&mut stream, &welcome, MIN_PROTO_VERSION).unwrap();
    assert!(matches!(
        common::next_msg(&mut stream, &mut frames),
        Msg::LeaseRequest
    ));
    send(&mut stream, &Msg::Drain, PROTO_VERSION).unwrap();

    let lease = Msg::Lease {
        lease: 7,
        campaign: 1,
        indices: vec![0, 1, 2, 3],
    };
    let bytes = frame_bytes(&lease.encode(PROTO_VERSION)).unwrap();
    let (head, tail) = bytes.split_at(bytes.len() / 2);
    stream.write_all(head).unwrap();
    // A service that stalls in mid-frame for one and a half read timeouts.
    std::thread::sleep(READ_TIMEOUT * 3 / 2);
    stream.write_all(tail).unwrap();

    // Serve the rest as a service would: a lease request is answered
    // `Drain`, there being no more work, and a spec request its spec.
    let mut asked = 0;
    loop {
        match common::next_msg(&mut stream, &mut frames) {
            Msg::LeaseRequest => {
                asked += 1;
                send(&mut stream, &Msg::Drain, PROTO_VERSION).unwrap();
            }
            Msg::SpecRequest { campaign: 1 } => {
                let spec = Msg::Spec {
                    campaign: 1,
                    spec: campaign_spec(),
                };
                send(&mut stream, &spec, PROTO_VERSION).unwrap();
            }
            Msg::BatchDone { lease, results, .. } => {
                assert_eq!(lease, 7);
                let indices: Vec<usize> = results.iter().map(|(i, _)| *i).collect();
                assert_eq!(indices, [0, 1, 2, 3]);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // The read timed out once with the frame half-read: the worker asked
    // again, and its second request crossed the rest of the push.
    assert_eq!(asked, 1);
    send(&mut stream, &Msg::Done, PROTO_VERSION).unwrap();

    let wstats = worker.join().unwrap().unwrap();
    assert_eq!((wstats.batches, wstats.reconnects), (1, 0), "{wstats:?}");
}
