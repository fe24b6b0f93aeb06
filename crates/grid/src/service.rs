//! The control plane: campaigns as a service.
//!
//! [`Service`] is the fabric's one coordinator: a single-threaded,
//! poll-based event loop that owns the lease state machine (`DESIGN.md`
//! §10) and multiplexes *many* tenant campaigns over one shared worker
//! fleet, with
//!
//! * **fair-share scheduling** ([`FairScheduler`]) — priority tiers,
//!   per-campaign quotas, smooth weighted round-robin within a tier;
//! * **a durable submission queue** ([`SubmissionQueue`]) — every
//!   accepted submission survives a service restart, and per-campaign
//!   result journals (`campaign-<id>.jsonl`) resume bit-identically;
//! * **protocol v3** — binary hot messages with per-dialect wire tallies
//!   ([`WireStats`]), while v2 workers negotiate down to JSON and get
//!   pinned to a single campaign for their session;
//! * **an HTTP surface** ([`crate::http`]) — `POST /campaigns`,
//!   `GET /campaigns/<id>`, `GET /fleet`.
//!
//! A single campaign is the same loop with one in-process
//! [`submit`](Service::submit), [`ServiceConfig::exit_after`] set to one,
//! and the typed [`GridOutcome`] taken from [`serve`](Service::serve).
//!
//! Every connection — worker fabric and HTTP alike — runs nonblocking.
//! The loop accepts, reads whatever bytes arrived, advances per-connection
//! incremental parsers ([`FrameBuffer`], [`HttpBuffer`]), appends response
//! bytes to per-connection outbound buffers, and flushes those buffers as
//! sockets drain. No thread per connection, no locks: all campaign state
//! lives on the loop thread. A tick that did something is followed by the
//! next at once; the loop sleeps only after an idle tick.
//!
//! Work finds the worker. A lease request with nothing to grant is answered
//! `Drain`, which *parks* the connection: the worker waits in silence, and
//! whenever work becomes leasable (a campaign activates, a lease is
//! requeued, a batch releases quota) the service runs the same grant a
//! request would get over the parked connections and pushes each its lease
//! at once. The worker, not the service, owns the spec exchange: leased a
//! campaign it has no runtime for, it sends `SpecRequest`; the service
//! never sends a spec unasked. Golden runs are captured once per process
//! (the memo `activate` shares with the worker's rebuild), and a finished
//! campaign keeps its report but not its journal handle.
//!
//! The invariants hold *per tenant* under interleaving: a campaign's
//! merged results and telemetry deterministic counters are bit-identical
//! to a single-process run of the same spec, leases are
//! first-responder-wins, and expiry requeues honor the owning campaign's
//! priority. Cross-tenant mixing is structurally prevented — every lease
//! knows its campaign, and merged telemetry snapshots carry a campaign tag
//! that the merge asserts on.

use crate::chaos::ChaosInterposer;
use crate::error::GridError;
use crate::http::{error_response, response, HttpBuffer, HttpPoll, HttpRequest};
use crate::proto::{
    frame_bytes, negotiate, FrameBuffer, FrameError, Msg, MsgKind, WireStats, MIN_PROTO_VERSION,
};
use crate::queue::SubmissionQueue;
use crate::sched::FairScheduler;
use crate::spec::{CampaignSpec, SubmitSpec};
use crate::transport::{TcpTransport, Transport};
use avgi_faultsim::campaign::verified_golden;
use avgi_faultsim::journal::{
    check_resumed_faults, config_hash, write_record, CampaignKey, DurabilityPolicy, Journal,
};
use avgi_faultsim::json::{self, Writer};
use avgi_faultsim::sampling::sample_faults;
use avgi_faultsim::telemetry::{CampaignObserver, MetricsCollector, MetricsSnapshot};
use avgi_faultsim::{run_campaign, CampaignResult, InjectionResult};
use avgi_muarch::fault::Fault;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live worker-connection cap; beyond it a new peer is shed with a
/// [`Msg::Reject`] and closed.
pub const MAX_CONNS: usize = 64;

/// Control-plane configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker-fabric address to listen on (`"127.0.0.1:0"` picks a port).
    pub bind: String,
    /// HTTP surface address (`None` = fabric only).
    pub http_bind: Option<String>,
    /// The durable submission queue file.
    pub queue: PathBuf,
    /// Directory for per-campaign result journals (`campaign-<id>.jsonl`);
    /// `None` = campaigns are not restart-resumable.
    pub journal_dir: Option<PathBuf>,
    /// Faults per lease.
    pub batch: usize,
    /// How long a lease stays valid without a heartbeat or report.
    pub lease_timeout: Duration,
    /// How aggressively journal appends are pushed to stable storage.
    pub durability: DurabilityPolicy,
    /// Overall wall-clock failsafe (`None` = serve forever).
    pub deadline: Option<Duration>,
    /// Exit once this many campaigns have completed (`None` = keep
    /// serving). The CI smoke and tests use this for clean shutdown.
    pub exit_after: Option<u64>,
    /// Cooperative shutdown: when this flag flips true the service drains
    /// the fleet and returns (the embedding test or process owns the flag).
    pub stop: Option<Arc<std::sync::atomic::AtomicBool>>,
    /// Fault injection on every accepted worker connection's outbound
    /// frames (`None` = plain TCP). Test instrumentation; see
    /// [`crate::chaos`].
    pub chaos: Option<Arc<ChaosInterposer>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            bind: "127.0.0.1:0".into(),
            http_bind: None,
            queue: PathBuf::from("avgi-grid-queue.jsonl"),
            journal_dir: None,
            batch: 16,
            lease_timeout: Duration::from_secs(30),
            durability: DurabilityPolicy::Flush,
            deadline: None,
            exit_after: None,
            stop: None,
            chaos: None,
        }
    }
}

/// Service-level statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Campaigns accepted (HTTP or in-process submissions; excludes queue
    /// resumes).
    pub campaigns_submitted: u64,
    /// Campaigns restored from the submission queue at startup.
    pub campaigns_resumed: u64,
    /// Campaigns finished (merged result finalized).
    pub campaigns_completed: u64,
    /// Workers that completed a fresh handshake.
    pub workers_seen: u64,
    /// Reconnections that re-attached to an existing session token.
    pub sessions_reattached: u64,
    /// Leases granted (including re-grants of requeued indices).
    pub leases_granted: u64,
    /// Leases whose indices were requeued (expiry or clean disconnect).
    pub leases_reassigned: u64,
    /// Batch reports discarded (stale lease or wrong session).
    pub batches_rejected: u64,
    /// Connections dropped for protocol violations.
    pub protocol_errors: u64,
    /// Frames rejected by the CRC check.
    pub corrupt_frames: u64,
    /// Worker connections shed at the connection cap.
    pub connections_shed: u64,
    /// Results restored from per-campaign journals instead of executed.
    pub results_resumed: u64,
    /// HTTP requests served (routed; excludes malformed ones).
    pub http_requests: u64,
}

/// One campaign's public status (also what `GET /campaigns/<id>` reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Campaign id.
    pub id: u64,
    /// Whether the merged result is finalized.
    pub done: bool,
    /// Planned injections.
    pub faults: usize,
    /// Injections with an accepted result.
    pub completed: usize,
}

/// A finished campaign in typed form (the HTTP surface serves the same
/// content as a JSON report).
#[derive(Debug)]
pub struct GridOutcome {
    /// The merged campaign result — bit-identical to a single-process
    /// [`run_campaign`] of the same spec.
    pub result: CampaignResult,
    /// Merged telemetry: the sum of every accepted batch delta (plus the
    /// journal replay on resume). Its deterministic counters match a
    /// single-process campaign's; wall-clock fields are meaningless here.
    pub telemetry: MetricsSnapshot,
}

/// One live campaign.
struct Run {
    submit: SubmitSpec,
    spec: CampaignSpec,
    faults: Vec<Fault>,
    queue: VecDeque<usize>,
    results: Vec<Option<InjectionResult>>,
    remaining: usize,
    telemetry: MetricsSnapshot,
    journal: Option<Journal>,
    done: bool,
    /// Final report JSON, cached at finalization.
    report: Option<String>,
}

impl Run {
    fn completed(&self) -> usize {
        self.results.len() - self.remaining
    }

    fn into_outcome(self) -> GridOutcome {
        let ccfg = self.submit.campaign_config();
        let results = self
            .results
            .into_iter()
            .map(|r| r.expect("finalized campaign is complete"))
            .collect();
        GridOutcome {
            result: CampaignResult::new(
                &self.spec.workload,
                &ccfg,
                self.spec.golden_cycles,
                results,
            ),
            telemetry: self.telemetry,
        }
    }
}

struct LeaseRec {
    campaign: u64,
    session: u64,
    indices: Vec<usize>,
    deadline: Instant,
}

struct Session {
    /// The connection currently speaking for this token.
    conn: u64,
    /// The campaign a v2 session is pinned to (`None` for v3 sessions).
    pinned: Option<u64>,
}

struct WorkerConn {
    transport: Box<dyn Transport>,
    fb: FrameBuffer,
    /// Outbound bytes not yet accepted by the socket.
    out: Vec<u8>,
    session: Option<u64>,
    proto: u64,
    /// Flush what is queued, then drop the connection.
    close_after_flush: bool,
    /// The peer's last lease request was answered `Drain` and nothing has
    /// been granted since: it waits in silence, and
    /// [`wake_parked`](Service::wake_parked) pushes it the next lease it
    /// may have.
    parked: bool,
}

struct HttpConn {
    stream: TcpStream,
    hb: HttpBuffer,
    out: Vec<u8>,
    /// A response is queued; close once it has flushed.
    responded: bool,
}

/// The campaign-as-a-service control plane (see the module docs).
pub struct Service {
    cfg: ServiceConfig,
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    queue: SubmissionQueue,
    sched: FairScheduler,
    campaigns: BTreeMap<u64, Run>,
    leases: HashMap<u64, LeaseRec>,
    sessions: HashMap<u64, Session>,
    /// By connection id, so parked connections are woken in that order.
    conns: BTreeMap<u64, WorkerConn>,
    https: HashMap<u64, HttpConn>,
    next_conn: u64,
    next_lease: u64,
    next_session: u64,
    draining: bool,
    /// The current tick accepted a connection, decoded a frame or served a
    /// request: more may be right behind it, so the loop does not wait.
    busy: bool,
    /// Consecutive idle ticks so far (see [`idle_wait`]).
    idle_ticks: u32,
    stats: ServiceStats,
    wire_v2: Arc<WireStats>,
    wire_v3: Arc<WireStats>,
}

impl Service {
    /// Opens (and replays) the submission queue, reactivates every pending
    /// campaign — resuming its journal if one exists — and binds the
    /// listeners. Workers may connect as soon as this returns; nothing is
    /// served until [`run`](Service::run).
    pub fn bind(cfg: ServiceConfig) -> Result<Service, GridError> {
        let queue = SubmissionQueue::open(&cfg.queue)?;
        let listener = TcpListener::bind(cfg.bind.as_str())?;
        listener.set_nonblocking(true)?;
        let http_listener = match &cfg.http_bind {
            None => None,
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Some(l)
            }
        };
        let mut svc = Service {
            cfg,
            listener,
            http_listener,
            queue,
            sched: FairScheduler::new(),
            campaigns: BTreeMap::new(),
            leases: HashMap::new(),
            sessions: HashMap::new(),
            conns: BTreeMap::new(),
            https: HashMap::new(),
            next_conn: 1,
            next_lease: 1,
            next_session: 1,
            draining: false,
            busy: false,
            idle_ticks: 0,
            stats: ServiceStats::default(),
            wire_v2: Arc::new(WireStats::new()),
            wire_v3: Arc::new(WireStats::new()),
        };
        // Restart resume: every unretired submission comes back under its
        // original id, so its journal (keyed by id) resumes bit-identically.
        let pending: Vec<_> = svc
            .queue
            .pending()
            .iter()
            .map(|q| (q.id, q.spec.clone()))
            .collect();
        for (id, spec) in pending {
            svc.activate(id, spec)?;
            svc.stats.campaigns_resumed += 1;
        }
        Ok(svc)
    }

    /// The worker-fabric listening address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The HTTP listening address (if an HTTP surface was configured).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Per-dialect wire tallies (v2 = JSON links, v3 = binary links).
    /// Clone the handles before [`run`](Service::run) to inspect after.
    pub fn wire_stats(&self) -> (Arc<WireStats>, Arc<WireStats>) {
        (self.wire_v2.clone(), self.wire_v3.clone())
    }

    /// Current status of every known campaign, in id order.
    pub fn statuses(&self) -> Vec<CampaignStatus> {
        self.campaigns
            .iter()
            .map(|(&id, r)| CampaignStatus {
                id,
                done: r.done,
                faults: r.results.len(),
                completed: r.completed(),
            })
            .collect()
    }

    /// Durably enqueues and activates a campaign, returning its id: what
    /// `POST /campaigns` does, for an embedding process. Callable between
    /// [`bind`](Service::bind) and [`run`](Service::run).
    pub fn submit(&mut self, spec: SubmitSpec) -> Result<u64, GridError> {
        // Refused before it is journaled: a submission on disk is replayed
        // by every restart.
        spec.validate().map_err(GridError::Spec)?;
        let id = self.queue.submit(spec.clone())?;
        if let Err(e) = self.activate(id, spec) {
            // The submission journaled but cannot run; retire it so a
            // restart does not resurrect a poison campaign.
            let _ = self.queue.complete(id);
            self.campaigns.remove(&id);
            self.sched.deregister(id);
            return Err(e);
        }
        self.stats.campaigns_submitted += 1;
        Ok(id)
    }

    /// [`serve`](Service::serve), keeping only the statistics.
    pub fn run(self) -> Result<ServiceStats, GridError> {
        self.serve().map(|(stats, _)| stats)
    }

    /// Serves the control plane until the exit condition
    /// ([`ServiceConfig::exit_after`] or [`ServiceConfig::stop`]) is met,
    /// then drains the fleet and returns the accumulated statistics plus
    /// the [`GridOutcome`] of every finalized campaign, keyed by id.
    pub fn serve(mut self) -> Result<(ServiceStats, BTreeMap<u64, GridOutcome>), GridError> {
        let started = Instant::now();
        loop {
            self.turn()?;
            let exit_count = self
                .cfg
                .exit_after
                .is_some_and(|n| self.stats.campaigns_completed >= n);
            let stop_flag = self
                .cfg
                .stop
                .as_ref()
                .is_some_and(|f| f.load(std::sync::atomic::Ordering::Relaxed));
            if exit_count || stop_flag {
                self.drain_fleet()?;
                let outcomes = self
                    .campaigns
                    .into_iter()
                    .filter(|(_, run)| run.done)
                    .map(|(id, run)| (id, run.into_outcome()))
                    .collect();
                return Ok((self.stats, outcomes));
            }
            if let Some(deadline) = self.cfg.deadline {
                if started.elapsed() > deadline {
                    return Err(GridError::Protocol(format!(
                        "service deadline ({deadline:?}) exceeded"
                    )));
                }
            }
        }
    }

    /// One event-loop iteration: accept, pump every connection, sweep.
    /// Returns whether it accepted a connection, decoded a frame or served
    /// a request.
    fn tick(&mut self) -> Result<bool, GridError> {
        self.busy = false;
        self.accept_workers();
        self.accept_http();
        self.pump_workers()?;
        self.pump_http();
        self.sweep_leases();
        Ok(self.busy)
    }

    /// One tick, then the loop's only wait — taken after an idle tick
    /// alone: whatever a busy tick handled usually has a successor already
    /// in the socket (the request behind an accepted connection, the lease
    /// request behind a batch report), and that must not sit out a nap.
    fn turn(&mut self) -> Result<(), GridError> {
        if self.tick()? {
            self.idle_ticks = 0;
        } else {
            std::thread::sleep(idle_wait(self.idle_ticks));
            self.idle_ticks = self.idle_ticks.saturating_add(1);
        }
        Ok(())
    }

    // -- campaign lifecycle -------------------------------------------------

    /// Builds and registers campaign `id` from a submission: golden
    /// capture, fault sampling, journal resume, scheduler registration.
    fn activate(&mut self, id: u64, sub: SubmitSpec) -> Result<(), GridError> {
        let workload = avgi_workloads::by_name(&sub.workload)
            .ok_or_else(|| GridError::Spec(format!("unknown workload `{}`", sub.workload)))?;
        let workload_id = avgi_workloads::index_of(workload.name).ok_or_else(|| {
            GridError::Spec(format!("workload {:?} not in registry", workload.name))
        })?;
        let cfg = sub.preset.config();
        let golden =
            verified_golden(&workload, &cfg).map_err(|e| GridError::Spec(e.to_string()))?;
        let faults = sample_faults(sub.structure, &cfg, golden.cycles, sub.faults, sub.seed)
            .map_err(|e| GridError::Spec(format!("fault sampling failed: {e}")))?;
        let spec = CampaignSpec {
            workload: workload.name.to_string(),
            workload_id,
            preset: sub.preset,
            structure: sub.structure,
            faults: sub.faults,
            seed: sub.seed,
            mode: sub.mode,
            burst_width: sub.burst_width,
            checkpoints: sub.checkpoints,
            golden_cycles: golden.cycles,
            config_hash: config_hash(&cfg),
            lease_timeout_ms: u64::try_from(self.cfg.lease_timeout.as_millis()).unwrap_or(u64::MAX),
        };

        let mut results: Vec<Option<InjectionResult>> = vec![None; sub.faults];
        let mut telemetry = MetricsSnapshot::empty();
        let journal = match &self.cfg.journal_dir {
            None => None,
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("campaign-{id}.jsonl"));
                let key =
                    CampaignKey::new(workload.name, &cfg, golden.cycles, &sub.campaign_config());
                let (journal, done) = Journal::open_with(&path, &key, self.cfg.durability)?;
                check_resumed_faults(&done, &faults, 0)?;
                if !done.is_empty() {
                    // Replay restored results through a collector so the
                    // merged telemetry accounts for them exactly as a
                    // single-process resumed campaign would.
                    let collector = MetricsCollector::new();
                    collector.on_campaign_start(sub.structure, done.len());
                    for r in done.values() {
                        collector.on_resumed(sub.structure, r);
                    }
                    telemetry = collector.snapshot();
                }
                self.stats.results_resumed += done.len() as u64;
                for (i, r) in done {
                    results[i] = Some(r);
                }
                Some(journal)
            }
        };
        let remaining = results.iter().filter(|r| r.is_none()).count();
        let mut pending: Vec<usize> = (0..sub.faults).filter(|&i| results[i].is_none()).collect();
        // Cycle-sorted leases: consecutive indices tend to share a worker
        // checkpoint, like the single-process engine's work order.
        pending.sort_by_key(|&i| faults[i].cycle);
        self.sched.register(id, sub.share(), pending.len());
        self.campaigns.insert(
            id,
            Run {
                submit: sub,
                spec,
                faults,
                queue: pending.into(),
                results,
                remaining,
                telemetry,
                journal,
                done: false,
                report: None,
            },
        );
        if remaining == 0 {
            // Fully journaled already (restart after the last batch).
            self.finalize(id)?;
        }
        self.wake_parked();
        Ok(())
    }

    /// Seals a finished campaign: journal sync, report construction, queue
    /// retirement, scheduler deregistration.
    fn finalize(&mut self, id: u64) -> Result<(), GridError> {
        let run = self
            .campaigns
            .get_mut(&id)
            .expect("finalizing known campaign");
        // Nothing appends once `remaining == 0`: sync, then close the file —
        // finished campaigns stay in `campaigns` for the life of the
        // service, and an open journal each would exhaust its descriptors.
        if let Some(mut journal) = run.journal.take() {
            journal.sync()?;
        }
        run.done = true;
        run.report = Some(build_report(run));
        self.sched.deregister(id);
        self.queue.complete(id)?;
        self.stats.campaigns_completed += 1;
        Ok(())
    }

    /// The campaign a freshly attached v2 session gets pinned to: highest
    /// priority first, then lowest id — deterministic, and aligned with
    /// what the scheduler would serve first anyway.
    fn pick_pin(&self) -> Option<u64> {
        self.campaigns
            .iter()
            .filter(|(_, r)| !r.done)
            .max_by_key(|&(&id, r)| (r.submit.priority, std::cmp::Reverse(id)))
            .map(|(&id, _)| id)
    }

    // -- worker fabric ------------------------------------------------------

    fn wire_for(&self, proto: u64) -> &WireStats {
        if proto >= 3 {
            &self.wire_v3
        } else {
            &self.wire_v2
        }
    }

    /// Encodes `msg` in the connection's dialect and queues it for write.
    fn push(&self, conn: &mut WorkerConn, msg: &Msg) {
        let payload = msg.encode(conn.proto);
        self.wire_for(conn.proto).record(msg.kind(), payload.len());
        match frame_bytes(&payload) {
            Ok(frame) => conn.out.extend_from_slice(&frame),
            // A payload past MAX_FRAME cannot be framed; drop the peer
            // rather than desynchronize it.
            Err(_) => conn.close_after_flush = true,
        }
    }

    fn accept_workers(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.busy = true;
                    let transport: Box<dyn Transport> = match TcpTransport::new(stream) {
                        Ok(t) => Box::new(t),
                        Err(_) => continue,
                    };
                    if transport.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let transport = match &self.cfg.chaos {
                        Some(chaos) => chaos.wrap(transport),
                        None => transport,
                    };
                    let mut conn = WorkerConn {
                        transport,
                        fb: FrameBuffer::new(),
                        out: Vec::new(),
                        session: None,
                        proto: MIN_PROTO_VERSION,
                        close_after_flush: false,
                        parked: false,
                    };
                    if self.conns.len() >= MAX_CONNS {
                        self.stats.connections_shed += 1;
                        self.push(
                            &mut conn,
                            &Msg::Reject {
                                reason: "service at connection capacity".into(),
                            },
                        );
                        conn.close_after_flush = true;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(id, conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Pumps every worker connection. `Err` is a service-side failure
    /// (journal or queue I/O) that ends the run, never a peer's fault.
    fn pump_workers(&mut self) -> Result<(), GridError> {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let mut conn = self.conns.remove(&id).expect("conn id just listed");
            if self.pump_worker_conn(id, &mut conn)? {
                self.conns.insert(id, conn);
            }
        }
        Ok(())
    }

    /// Flushes and reads one worker connection. Returns `false` when the
    /// connection should be dropped.
    fn pump_worker_conn(&mut self, id: u64, conn: &mut WorkerConn) -> Result<bool, GridError> {
        if !flush_out(&mut *conn.transport, &mut conn.out) {
            self.requeue_session_if_current(conn.session, id);
            return Ok(false);
        }
        if conn.close_after_flush {
            if conn.out.is_empty() {
                let _ = conn.transport.shutdown();
                return Ok(false);
            }
            return Ok(true); // keep flushing; skip reads on a dying connection
        }
        let alive = self.read_worker_frames(id, conn)?;
        // Push out whatever the handlers queued without waiting a tick.
        if alive && !flush_out(&mut *conn.transport, &mut conn.out) {
            self.requeue_session_if_current(conn.session, id);
            return Ok(false);
        }
        Ok(alive)
    }

    /// Drains every decodable frame from one connection.
    fn read_worker_frames(&mut self, id: u64, conn: &mut WorkerConn) -> Result<bool, GridError> {
        loop {
            match conn.fb.poll(&mut *conn.transport) {
                Ok(Some(payload)) => {
                    self.busy = true;
                    if !self.handle_worker_msg(id, conn, &payload)? {
                        return Ok(false);
                    }
                }
                Ok(None) => return Ok(true),
                Err(FrameError::Closed) => {
                    // Clean close at a frame boundary: the worker left for
                    // good; hand its leases back immediately.
                    self.requeue_session_if_current(conn.session, id);
                    return Ok(false);
                }
                Err(e) => {
                    let corrupt = matches!(e, FrameError::Crc { .. });
                    self.protocol_error(id, conn, &format!("bad frame: {e}"), corrupt);
                    // Leases deliberately stay: under link corruption the
                    // "violation" is usually the link's fault, and the
                    // worker will re-attach with its session token.
                    return Ok(true);
                }
            }
        }
    }

    /// Records a violation — in the statistics and as one line on stderr,
    /// the only place the *reason* a worker was turned away is kept — and
    /// queues a `Reject` before closing.
    fn protocol_error(&mut self, id: u64, conn: &mut WorkerConn, reason: &str, corrupt: bool) {
        self.stats.protocol_errors += 1;
        if corrupt {
            self.stats.corrupt_frames += 1;
        }
        let session = conn
            .session
            .map_or_else(|| "none".to_string(), |token| token.to_string());
        eprintln!(
            "avgi-grid service: rejected worker (connection {id}, session {session}): {reason}"
        );
        self.push(
            conn,
            &Msg::Reject {
                reason: reason.to_string(),
            },
        );
        conn.close_after_flush = true;
    }

    /// Handles one decoded frame. Returns `false` to drop the connection
    /// immediately (clean `Done` handoff).
    fn handle_worker_msg(
        &mut self,
        id: u64,
        conn: &mut WorkerConn,
        payload: &[u8],
    ) -> Result<bool, GridError> {
        let msg = match Msg::decode(payload) {
            Ok(m) => m,
            Err(e) => {
                self.protocol_error(id, conn, &format!("bad message: {e}"), false);
                return Ok(true);
            }
        };
        let kind = msg.kind();
        self.wire_for(conn.proto).record(kind, payload.len());
        Ok(match msg {
            Msg::Hello { proto, session } => self.handle_hello(id, conn, proto, session),
            Msg::LeaseRequest => self.handle_lease_request(id, conn),
            Msg::Heartbeat { lease, .. } => {
                if let (Some(session), Some(l)) = (conn.session, self.leases.get_mut(&lease)) {
                    if l.session == session {
                        l.deadline = Instant::now() + self.cfg.lease_timeout;
                    }
                }
                true
            }
            Msg::BatchDone {
                lease,
                results,
                telemetry,
                ..
            } => {
                let Some(session) = conn.session else {
                    self.protocol_error(id, conn, "batch before hello", false);
                    return Ok(true);
                };
                if let Some(reason) = self.accept_batch(session, lease, results, telemetry)? {
                    self.protocol_error(id, conn, &reason, false);
                }
                true
            }
            Msg::SpecRequest { campaign } => {
                match self.campaigns.get(&campaign) {
                    Some(run) => {
                        let spec = run.spec.clone();
                        self.push(conn, &Msg::Spec { campaign, spec });
                    }
                    None => self.protocol_error(
                        id,
                        conn,
                        &format!("spec requested for unknown campaign {campaign}"),
                        false,
                    ),
                }
                true
            }
            Msg::Welcome { .. }
            | Msg::Lease { .. }
            | Msg::Drain
            | Msg::Done
            | Msg::Spec { .. }
            | Msg::Reject { .. } => {
                self.protocol_error(
                    id,
                    conn,
                    &format!("unexpected message {}", kind.name()),
                    false,
                );
                true
            }
        })
    }

    fn handle_hello(
        &mut self,
        id: u64,
        conn: &mut WorkerConn,
        peer_proto: u64,
        requested: Option<u64>,
    ) -> bool {
        let Some(proto) = negotiate(peer_proto) else {
            self.protocol_error(
                id,
                conn,
                &format!(
                    "protocol version {peer_proto} unsupported (need {}..={})",
                    MIN_PROTO_VERSION,
                    crate::proto::PROTO_VERSION
                ),
                false,
            );
            return true;
        };
        conn.proto = proto;
        // Resolve the session: a fresh hello allocates a token, a returning
        // one re-attaches (rebinding to this connection), and so does a
        // duplicate hello from a chaotic link, harmlessly.
        let token = requested.or(conn.session).unwrap_or_else(|| {
            while self.sessions.contains_key(&self.next_session) {
                self.next_session += 1;
            }
            self.next_session
        });
        match self.sessions.get_mut(&token) {
            Some(s) => {
                s.conn = id;
                self.stats.sessions_reattached += 1;
            }
            // A fresh token, or an unknown one: a worker outliving a service
            // restart. Honor it so retransmissions attribute.
            None => {
                self.sessions.insert(
                    token,
                    Session {
                        conn: id,
                        pinned: None,
                    },
                );
                self.stats.workers_seen += 1;
            }
        }
        conn.session = Some(token);
        // v2 sessions are pinned to one campaign for their whole life; v3
        // sessions are unpinned and get specs per campaign on demand.
        let (campaign, spec) = if proto < 3 {
            let pinned = self.sessions[&token].pinned.or_else(|| self.pick_pin());
            let Some(pin) = pinned else {
                // Nothing to pin a v2 worker to: send it home.
                self.push(conn, &Msg::Done);
                conn.close_after_flush = true;
                return true;
            };
            self.sessions
                .get_mut(&token)
                .expect("session just bound")
                .pinned = pinned;
            (pin, Some(self.campaigns[&pin].spec.clone()))
        } else {
            (0, None)
        };
        self.push(
            conn,
            &Msg::Welcome {
                proto,
                session: token,
                campaign,
                spec,
            },
        );
        true
    }

    /// Answers a lease request: a lease, `Done`, or — with nothing this
    /// session may serve leasable right now — `Drain`, which parks the
    /// connection until [`wake_parked`](Service::wake_parked) has a lease
    /// for it.
    fn handle_lease_request(&mut self, id: u64, conn: &mut WorkerConn) -> bool {
        let Some(token) = conn.session else {
            self.protocol_error(id, conn, "lease request before hello", false);
            return true;
        };
        conn.parked = !self.grant(conn, token);
        if conn.parked {
            self.push(conn, &Msg::Drain);
        }
        true
    }

    /// The one lease grant, for a connection that asked and for a parked
    /// one alike: queues `Done` for a session with nothing left to wait for
    /// or the next `Lease` the scheduler gives it, and returns `false`,
    /// queueing nothing, when no campaign the session may serve is leasable
    /// right now.
    fn grant(&mut self, conn: &mut WorkerConn, token: u64) -> bool {
        let pinned = self.sessions.get(&token).and_then(|s| s.pinned);
        // A pinned session whose campaign finished goes home; an unpinned
        // one goes home only when the whole service is draining.
        let finished = match pinned {
            Some(pin) => self.campaigns.get(&pin).is_none_or(|r| r.done),
            None => self.draining,
        };
        if finished {
            self.push(conn, &Msg::Done);
            conn.close_after_flush = true;
            return true;
        }
        let filter = pinned.map(|pin| move |id: u64| id == pin);
        let picked = match &filter {
            Some(f) => self.sched.pick(Some(f)),
            None => self.sched.pick(None),
        };
        let Some(campaign) = picked else {
            return false;
        };
        // The lease names its campaign; a v3 worker without a runtime for
        // it asks for the spec (`SpecRequest`), a v2 one got it at hello.
        let run = self
            .campaigns
            .get_mut(&campaign)
            .expect("scheduler picked a live campaign");
        let take = self.cfg.batch.max(1).min(run.queue.len());
        let indices: Vec<usize> = run.queue.drain(..take).collect();
        self.sched.leased(campaign, indices.len());
        let lease = self.next_lease;
        self.next_lease += 1;
        self.leases.insert(
            lease,
            LeaseRec {
                campaign,
                session: token,
                indices: indices.clone(),
                deadline: Instant::now() + self.cfg.lease_timeout,
            },
        );
        self.stats.leases_granted += 1;
        self.push(
            conn,
            &Msg::Lease {
                lease,
                campaign,
                indices,
            },
        );
        true
    }

    /// Offers every parked connection a grant, in connection-id order, and
    /// flushes what that queued at once: work finds the worker instead of
    /// waiting for its next poll. Called wherever the answer a parked
    /// connection would get can change: [`activate`](Service::activate)
    /// (new work, or a v2 pin that resumed already finished),
    /// [`requeue_lease`](Service::requeue_lease) (work back in a queue) and
    /// an accepted batch (quota released, or a v2 pin finished). A
    /// connection still without a grant stays parked and is sent nothing.
    fn wake_parked(&mut self) {
        let parked: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.parked && !c.close_after_flush)
            .map(|(&id, _)| id)
            .collect();
        for id in parked {
            let mut conn = self.conns.remove(&id).expect("conn id just listed");
            let token = conn
                .session
                .expect("only a session's lease request parks a connection");
            conn.parked = !self.grant(&mut conn, token);
            if !conn.parked {
                // A dead socket is found, and its session requeued, by
                // this connection's next pump.
                flush_out(&mut *conn.transport, &mut conn.out);
            }
            self.conns.insert(id, conn);
        }
    }

    /// Accepts or rejects one batch report. `Ok(Some(reason))` is a
    /// protocol violation by the peer; `Ok(None)` an accepted report or a
    /// silent rejection (stale lease — dropped wholly, nothing
    /// double-counted). `Err` is the service's own journal or queue failing,
    /// which ends the run; the queue still holds the campaign for a restart.
    fn accept_batch(
        &mut self,
        session: u64,
        lease: u64,
        results: Vec<(usize, InjectionResult)>,
        telemetry: MetricsSnapshot,
    ) -> Result<Option<String>, GridError> {
        let owned = self
            .leases
            .get(&lease)
            .is_some_and(|l| l.session == session);
        if !owned {
            self.stats.batches_rejected += 1;
            return Ok(None);
        }
        let rec = &self.leases[&lease];
        let campaign = rec.campaign;
        if results.len() != rec.indices.len()
            || results
                .iter()
                .zip(&rec.indices)
                .any(|((i, _), &want)| *i != want)
        {
            return Ok(Some("batch does not match its lease".into()));
        }
        let run = self
            .campaigns
            .get_mut(&campaign)
            .expect("lease names a live campaign");
        if let Some((i, r)) = results
            .iter()
            .find(|(i, r)| run.faults.get(*i) != Some(&r.fault))
        {
            return Ok(Some(format!(
                "fault mismatch at index {i}: reported {:?}",
                r.fault
            )));
        }
        if let Some(field) = undescribed_field(&telemetry, &results) {
            return Ok(Some(format!(
                "telemetry `{field}` does not describe its batch"
            )));
        }
        let rec = self.leases.remove(&lease).expect("ownership checked above");
        self.sched.completed(campaign, rec.indices.len());
        for (i, r) in results {
            if run.results[i].is_none() {
                if let Some(journal) = &mut run.journal {
                    journal.append(i, &r)?;
                }
                run.results[i] = Some(r);
                run.remaining -= 1;
            }
        }
        // Tag the delta with its tenant before merging: the merge asserts
        // agreement, so cross-campaign mixing is structurally impossible.
        run.telemetry.merge(&telemetry.with_campaign(campaign));
        if run.remaining == 0 {
            self.finalize(campaign)?;
        }
        self.wake_parked();
        Ok(None)
    }

    /// Returns a session's leased indices to their campaigns' queue fronts
    /// — but only if `conn` is still the connection speaking for it.
    fn requeue_session_if_current(&mut self, session: Option<u64>, conn: u64) {
        let Some(session) = session else { return };
        if self.sessions.get(&session).map(|s| s.conn) != Some(conn) {
            return;
        }
        let ids: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.session == session)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            self.requeue_lease(id);
        }
    }

    fn requeue_lease(&mut self, lease: u64) {
        let Some(rec) = self.leases.remove(&lease) else {
            return;
        };
        if let Some(run) = self.campaigns.get_mut(&rec.campaign) {
            for &i in rec.indices.iter().rev() {
                run.queue.push_front(i);
            }
        }
        if self.sched.contains(rec.campaign) {
            self.sched.requeued(rec.campaign, rec.indices.len());
        }
        self.stats.leases_reassigned += 1;
        self.wake_parked();
    }

    /// Requeues every lease whose deadline passed without a heartbeat.
    fn sweep_leases(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.requeue_lease(id);
        }
    }

    /// Tells every connected worker to go home and keeps answering — workers
    /// that re-attach during the grace period included — until they hang up
    /// or the period ends.
    fn drain_fleet(&mut self) -> Result<(), GridError> {
        self.draining = true;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let mut conn = self.conns.remove(&id).expect("conn id just listed");
            self.push(&mut conn, &Msg::Done);
            self.conns.insert(id, conn);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while !self.conns.is_empty() && Instant::now() < deadline {
            self.turn()?;
        }
        // Linger on the HTTP surface briefly: status clients poll
        // per-request, so give in-flight pollers one more window to fetch
        // the final reports before the listener goes away.
        if self.http_listener.is_some() {
            let linger = Instant::now() + Duration::from_millis(1_000);
            while Instant::now() < linger {
                self.turn()?;
            }
        }
        Ok(())
    }

    // -- HTTP surface -------------------------------------------------------

    fn accept_http(&mut self) {
        let Some(listener) = &self.http_listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    self.busy = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.https.insert(
                        id,
                        HttpConn {
                            stream,
                            hb: HttpBuffer::new(),
                            out: Vec::new(),
                            responded: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn pump_http(&mut self) {
        let ids: Vec<u64> = self.https.keys().copied().collect();
        for id in ids {
            let mut conn = self.https.remove(&id).expect("http conn id just listed");
            let alive = self.pump_http_conn(&mut conn);
            if alive {
                self.https.insert(id, conn);
            }
        }
    }

    fn pump_http_conn(&mut self, conn: &mut HttpConn) -> bool {
        if !conn.responded {
            match conn.hb.poll(&mut conn.stream) {
                Ok(HttpPoll::Pending) => {}
                Ok(HttpPoll::Closed) | Err(_) => return false,
                Ok(HttpPoll::Bad(resp)) => {
                    self.busy = true;
                    conn.out = resp;
                    conn.responded = true;
                }
                Ok(HttpPoll::Request(req)) => {
                    self.busy = true;
                    self.stats.http_requests += 1;
                    conn.out = self.handle_http(req);
                    conn.responded = true;
                }
            }
        }
        if !flush_out(&mut conn.stream, &mut conn.out) {
            return false;
        }
        if conn.responded && conn.out.is_empty() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            return false;
        }
        true
    }

    fn handle_http(&mut self, req: HttpRequest) -> Vec<u8> {
        match req {
            HttpRequest::Submit(spec) => match self.submit(spec) {
                Ok(id) => response(201, |w| {
                    w.key("id").u64(id);
                }),
                // The service's own disk failing is a 500; anything else is
                // a submission that cannot run.
                Err(e @ GridError::Io(_)) => error_response(500, &e.to_string()),
                Err(e) => error_response(400, &e.to_string()),
            },
            HttpRequest::Status(id) => match self.campaigns.get(&id) {
                None => error_response(404, &format!("no campaign {id}")),
                Some(run) => response(200, |w| {
                    w.key("id").u64(id);
                    w.key("done").bool(run.done);
                    w.key("workload").str(&run.spec.workload);
                    w.key("structure").str(run.spec.structure.ident());
                    w.key("faults").usize(run.results.len());
                    w.key("completed").usize(run.completed());
                    if let Some(report) = &run.report {
                        w.key("report").raw(report);
                    }
                }),
            },
            HttpRequest::Fleet => response(200, |w| {
                w.key("workers").usize(self.conns.len());
                w.key("sessions").usize(self.sessions.len());
                w.key("campaigns").array(|w| {
                    for s in self.statuses() {
                        w.object(|w| {
                            w.key("id").u64(s.id);
                            w.key("done").bool(s.done);
                            w.key("faults").usize(s.faults);
                            w.key("completed").usize(s.completed);
                        });
                    }
                });
                w.key("wire").object(|w| {
                    write_wire(w.key("v2"), &self.wire_v2);
                    write_wire(w.key("v3"), &self.wire_v3);
                });
            }),
        }
    }
}

/// The first field of a batch's telemetry delta that cannot be the count of
/// its `results`, if any: every run is planned and completed once, counts at
/// most once in each per-run tally, and skips at most the cycles it charged.
/// A delta that passes adds at most a lease's worth to the campaign's
/// counters, so [`MetricsSnapshot::merge`] cannot overflow on a peer's word.
fn undescribed_field(
    t: &MetricsSnapshot,
    results: &[(usize, InjectionResult)],
) -> Option<&'static str> {
    let runs = results.len() as u64;
    let charged: u128 = (results.iter())
        .map(|(_, r)| u128::from(r.post_inject_cycles))
        .sum();
    let over = |counts: &[u64]| counts.iter().any(|&n| n > runs);
    let over_labelled = |counts: &[(&str, u64)]| counts.iter().any(|&(_, n)| n > runs);
    [
        ("planned", t.planned != runs),
        ("completed", t.completed != runs),
        ("resumed", t.resumed > runs),
        ("retries", t.retries > runs),
        ("converged_runs", t.converged_runs > runs),
        ("outcomes", over_labelled(&t.outcomes)),
        ("classes", over_labelled(&t.classes)),
        ("structures", t.structures.iter().any(|&(_, n)| n > runs)),
        ("post_inject_cycles", over(&t.post_inject_cycles.counts)),
        ("wall_latency_us", over(&t.wall_latency_us.counts)),
        ("cycles_skipped", u128::from(t.cycles_skipped) > charged),
    ]
    .into_iter()
    .find_map(|(field, wrong)| wrong.then_some(field))
}

/// How long the loop waits after its `idle_ticks`-th consecutive idle tick:
/// 125 µs after the first, doubling to the loop's 2 ms idle period from the
/// fifth on. The reply to a frame the service just answered (a lease
/// request after a batch report, a spec request after a lease) arrives well
/// inside 2 ms, and a worker waits for the service all that time; a service
/// with nothing to do ticks every 2 ms as it always has, after four extra
/// ticks per burst of activity.
fn idle_wait(idle_ticks: u32) -> Duration {
    Duration::from_micros(2_000 >> 4u32.saturating_sub(idle_ticks))
}

/// Writes per-kind wire tallies for the `/fleet` endpoint.
fn write_wire(w: &mut Writer<'_>, wire: &WireStats) {
    fn tally(w: &mut Writer<'_>, name: &str, (frames, bytes): (u64, u64)) {
        w.key(name).object(|w| {
            w.key("frames").u64(frames);
            w.key("bytes").u64(bytes);
        });
    }
    w.object(|w| {
        for kind in [MsgKind::Lease, MsgKind::BatchDone, MsgKind::Heartbeat] {
            tally(w, kind.name(), wire.of(kind));
        }
        tally(w, "total", wire.total());
    });
}

/// The finished campaign's report: every result in index order (the exact
/// journal record shape) plus the merged telemetry's deterministic
/// counters. Byte-comparable against a single-process rebuild.
fn build_report(run: &Run) -> String {
    report_json(
        &run.spec.workload,
        run.spec.structure,
        run.spec.golden_cycles,
        run.results
            .iter()
            .map(|r| r.as_ref().expect("finalized campaign is complete")),
        &run.telemetry,
    )
}

/// Builds the same report shape from a single-process campaign — the
/// reference side of the service's bit-identity check (used by
/// `grid_submit --verify` and the service tests).
pub fn reference_report(
    workload: &str,
    structure: avgi_muarch::fault::Structure,
    golden_cycles: u64,
    results: &[InjectionResult],
    telemetry: &MetricsSnapshot,
) -> String {
    report_json(
        workload,
        structure,
        golden_cycles,
        results.iter(),
        telemetry,
    )
}

fn report_json<'a>(
    workload: &str,
    structure: avgi_muarch::fault::Structure,
    golden_cycles: u64,
    results: impl Iterator<Item = &'a InjectionResult>,
    telemetry: &MetricsSnapshot,
) -> String {
    json::object(|w| {
        w.key("workload").str(workload);
        w.key("structure").str(structure.ident());
        w.key("golden_cycles").u64(golden_cycles);
        w.key("results").array(|w| {
            for (i, r) in results.enumerate() {
                write_record(w, i, r);
            }
        });
        telemetry.write_deterministic(w.key("telemetry"));
    })
}

/// Runs `spec` single-process on the verified golden run a service would
/// activate it on: the reference every distributed outcome of the same
/// submission must equal bit for bit (what `--verify` in the bins and the
/// fabric's tests compare against). An unknown workload or a golden run
/// that fails verification is a [`GridError::Spec`], as in activation.
pub fn reference_outcome(spec: &SubmitSpec) -> Result<GridOutcome, GridError> {
    let workload = avgi_workloads::by_name(&spec.workload)
        .ok_or_else(|| GridError::Spec(format!("unknown workload `{}`", spec.workload)))?;
    let cfg = spec.preset.config();
    let golden = verified_golden(&workload, &cfg).map_err(|e| GridError::Spec(e.to_string()))?;
    let collector = Arc::new(MetricsCollector::new());
    let ccfg = spec.campaign_config().with_observer(collector.clone());
    Ok(GridOutcome {
        result: run_campaign(&workload, &cfg, &golden, &ccfg),
        telemetry: collector.snapshot(),
    })
}

/// Writes as much of `out` as the socket will take. Returns `false` on a
/// dead socket.
fn flush_out(w: &mut (impl Write + ?Sized), out: &mut Vec<u8>) -> bool {
    while !out.is_empty() {
        match w.write(out) {
            Ok(0) => return false,
            Ok(n) => {
                out.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use avgi_muarch::fault::Structure;

    #[test]
    fn a_submission_that_cannot_activate_is_retired_everywhere() {
        // Unreachable over HTTP (`SubmitSpec::from_json` rejects the name
        // first), so only the in-process door can hand `activate` a poison
        // campaign.
        let queue = std::env::temp_dir().join(format!(
            "avgi-grid-poison-queue-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&queue);
        let mut svc = Service::bind(ServiceConfig {
            queue: queue.clone(),
            ..ServiceConfig::default()
        })
        .unwrap();
        let poison = SubmitSpec::new("no-such-workload", Structure::RegFile, 8, 1);
        assert!(matches!(svc.submit(poison), Err(GridError::Spec(_))));
        assert!(svc.queue.pending().is_empty());
        assert!(svc.statuses().is_empty());
        assert!(svc.sched.pick(None).is_none());
        assert_eq!(svc.stats.campaigns_submitted, 0);
        // A restart must not resurrect it either.
        drop(svc);
        assert!(SubmissionQueue::open(&queue).unwrap().pending().is_empty());
        let _ = std::fs::remove_file(&queue);
    }

    #[test]
    fn an_out_of_bounds_submission_is_refused_before_it_is_journaled() {
        // The in-process door. Journaled first (as the decoder-less door
        // used to), `faults: 10^12` would abort in `sample_faults` before
        // the retire-on-error path could run, and again on every restart.
        let queue = std::env::temp_dir().join(format!(
            "avgi-grid-bounds-queue-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&queue);
        let mut svc = Service::bind(ServiceConfig {
            queue: queue.clone(),
            ..ServiceConfig::default()
        })
        .unwrap();
        let fresh = std::fs::read(&queue).unwrap();
        let base = SubmitSpec::new("bitcount", Structure::RegFile, 8, 1);
        for (field, hostile) in [
            (
                "faults",
                SubmitSpec {
                    faults: 1_000_000_000_000,
                    ..base.clone()
                },
            ),
            (
                "faults",
                SubmitSpec {
                    faults: 0,
                    ..base.clone()
                },
            ),
            (
                "checkpoints",
                SubmitSpec {
                    checkpoints: u32::MAX,
                    ..base.clone()
                },
            ),
            (
                "burst",
                SubmitSpec {
                    burst_width: crate::spec::MAX_BURST + 1,
                    ..base.clone()
                },
            ),
        ] {
            match svc.submit(hostile) {
                Err(GridError::Spec(m)) => assert!(m.contains(&format!("`{field}`")), "{m}"),
                other => panic!("{field}: expected a refused spec, got {other:?}"),
            }
        }
        assert_eq!(std::fs::read(&queue).unwrap(), fresh, "nothing journaled");
        assert_eq!(svc.queue.next_id(), 1, "no id spent");
        assert!(svc.statuses().is_empty());
        assert_eq!(svc.stats.campaigns_submitted, 0);
        let _ = std::fs::remove_file(&queue);
    }

    #[test]
    fn an_idle_service_ticks_every_2_ms_after_a_four_tick_ramp() {
        let ramp: Vec<u64> = (0..6).map(|n| idle_wait(n).as_micros() as u64).collect();
        assert_eq!(ramp, [125, 250, 500, 1_000, 2_000, 2_000]);
        assert_eq!(idle_wait(u32::MAX), Duration::from_millis(2));

        // And the loop waits by it. `sleep` never returns early, so an idle
        // service's first `TURNS` ticks take at least the schedule's sum:
        // it ticks no more often than every 2 ms once the ramp is behind it.
        const TURNS: u32 = 24;
        let queue =
            std::env::temp_dir().join(format!("avgi-grid-idle-queue-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&queue);
        let mut svc = Service::bind(ServiceConfig {
            queue: queue.clone(),
            ..ServiceConfig::default()
        })
        .unwrap();
        let started = Instant::now();
        for _ in 0..TURNS {
            svc.turn().unwrap();
        }
        let least: Duration = (0..TURNS).map(idle_wait).sum();
        assert_eq!(least, Duration::from_micros(1_875 + 20 * 2_000));
        assert!(started.elapsed() >= least, "{:?}", started.elapsed());
        assert_eq!(svc.idle_ticks, TURNS);
        let _ = std::fs::remove_file(&queue);
    }
}
