//! What the fabric's integration tests share: a scratch directory, the
//! acceptance check against the single-process reference, a one-campaign
//! service (one in-process `submit`, `exit_after: Some(1)`, the typed
//! outcome), and a raw peer's frame reader.

#![allow(dead_code)] // every test crate uses its own subset

use avgi_grid::proto::{FrameBuffer, Msg, WireStats};
use avgi_grid::service::reference_outcome;
use avgi_grid::{
    GridError, GridOutcome, Service, ServiceConfig, ServiceStats, SubmitSpec, WorkerConfig,
    WorkerStats,
};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A scratch directory unique to one test (queue + journals live here).
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avgi-grid-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fabric's acceptance bar: merged results and telemetry deterministic
/// counters bit-identical to the single-process reference.
pub fn assert_matches_reference(outcome: &GridOutcome, spec: &SubmitSpec) {
    let reference = reference_outcome(spec).unwrap();
    assert_eq!(outcome.result.results, reference.result.results);
    assert_eq!(outcome.result.workload, reference.result.workload);
    assert_eq!(outcome.result.golden_cycles, reference.result.golden_cycles);
    assert_eq!(
        outcome.telemetry.deterministic_counters_json(),
        reference.telemetry.deterministic_counters_json(),
        "merged telemetry must be bit-identical to single-process"
    );
}

/// The next message a raw peer reads from `stream`, through the one frame
/// decoder; `frames` keeps whatever that read took past the frame.
pub fn next_msg(stream: &mut TcpStream, frames: &mut FrameBuffer) -> Msg {
    let start = Instant::now();
    loop {
        if let Some(frame) = frames.poll(stream).unwrap() {
            return Msg::decode(&frame).unwrap();
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "no frame within 60 s"
        );
    }
}

type Served = Result<(ServiceStats, BTreeMap<u64, GridOutcome>), GridError>;

/// A running one-campaign service.
pub struct OneCampaign {
    pub addr: SocketAddr,
    /// The service's tallies of every frame it sent and read.
    pub wire: Arc<WireStats>,
    id: u64,
    thread: JoinHandle<Served>,
}

impl OneCampaign {
    /// Binds a service on `cfg` (made to exit after one campaign), submits
    /// `spec` in-process and starts serving it.
    pub fn start(cfg: ServiceConfig, spec: &SubmitSpec) -> OneCampaign {
        let mut service = Service::bind(ServiceConfig {
            exit_after: Some(1),
            ..cfg
        })
        .unwrap();
        let id = service.submit(spec.clone()).unwrap();
        let addr = service.local_addr().unwrap();
        let (_, wire) = service.wire_stats();
        let thread = std::thread::spawn(move || service.serve());
        OneCampaign {
            addr,
            wire,
            id,
            thread,
        }
    }

    /// Starts one worker thread per configuration, pointed at the service.
    pub fn spawn_workers(
        &self,
        workers: Vec<WorkerConfig>,
    ) -> Vec<JoinHandle<Result<WorkerStats, GridError>>> {
        workers
            .into_iter()
            .map(|mut wcfg| {
                wcfg.addr = self.addr.to_string();
                std::thread::spawn(move || avgi_grid::run_worker(&wcfg))
            })
            .collect()
    }

    /// Waits for the service to finish; it must succeed.
    pub fn finish(self) -> (GridOutcome, ServiceStats) {
        let (stats, mut outcomes) = self.thread.join().unwrap().unwrap();
        (
            outcomes.remove(&self.id).expect("campaign finalized"),
            stats,
        )
    }
}
