//! The campaign worker: rebuilds campaigns locally from their specs, then
//! executes leases until the coordinator says there is nothing left.
//!
//! A worker carries no campaign state of its own. For every campaign it
//! serves it rebuilds everything — workload, microarchitecture
//! configuration, golden run, fault list, checkpoints — deterministically
//! from a compact [`CampaignSpec`], validates the rebuild against the
//! spec's `golden_cycles` and `config_hash` cross-checks, and then loops:
//! request a lease, run the leased indices through the shared
//! [`ShardRunner`] hot path, report the results plus a fresh per-batch
//! telemetry delta.
//!
//! One thread owns each session's connection, as the service's loop thread
//! owns its side: it alone writes, and it reads every frame through the one
//! [`FrameBuffer`] decoder. A lease computes on a scoped thread while the
//! session thread waits for its results a heartbeat interval at a time,
//! sending a `heartbeat` each time the wait runs out, so slow workers are
//! distinguished from dead ones and a short batch sends none.
//!
//! A worker asks for work once. When the service has none it answers
//! `Drain` and *parks* the connection; the worker then sits in its read,
//! sending nothing, and the service pushes it the next lease the moment one
//! exists. Only after a whole silent `read_timeout` does a parked worker
//! ask again — a liveness probe, and what recovers a pushed lease that a
//! faulty link dropped. A frame half-read when that timeout fires stays
//! buffered, so asking again never tears the stream.
//!
//! ## One worker, many campaigns
//!
//! A worker's session is not tied to a campaign: leases name their
//! campaign, and the worker owns the spec exchange — a lease for a campaign
//! it holds no runtime for triggers a [`Msg::SpecRequest`] / [`Msg::Spec`]
//! round trip, and the service never sends a spec unasked. Set-up is paid once where it can be: the golden run
//! is served per (program, configuration) for the life of the process by
//! [`verified_golden`] (the registry bounds it); its checkpoint set is built
//! once and shared by every runtime alive over it with the same checkpoint
//! count, and freed with the last of them; and built runtimes (a fault list
//! and a share of a set) sit in a least-recently-leased cache of
//! [`RUNTIME_CACHE_CAPACITY`] campaigns, so interleaved leases from
//! different tenants share the rebuild while a long-lived worker's memory
//! does not grow with the number of campaigns it has served. An evicted
//! campaign that is leased again is rebuilt through the same spec request.
//!
//! ## Surviving the link
//!
//! The welcome carries a session token, and when a connection dies
//! mid-campaign (I/O error, corrupt frame, mid-session rejection) the
//! worker reconnects with exponential backoff plus deterministic jitter —
//! one handshake loop and one attempt budget for the first attach and
//! every re-attach — re-presents the token, and retransmits its last
//! unacknowledged batch report.
//! Replayed frames (a second welcome, a lease already taken, a spec
//! already built) are skipped where they land. The coordinator's
//! first-responder-wins dedup makes the retransmission idempotent: if the
//! lease survived the outage the report is accepted once, and if it
//! expired the report is silently discarded and the indices re-execute
//! deterministically elsewhere — either way nothing is double-counted.

use crate::chaos::ChaosInterposer;
use crate::error::GridError;
use crate::proto::{send, FrameBuffer, FrameError, Msg, PROTO_VERSION};
use crate::spec::CampaignSpec;
use crate::transport::{TcpTransport, Transport};
use avgi_faultsim::campaign::verified_golden;
use avgi_faultsim::journal::config_hash;
use avgi_faultsim::telemetry::{CampaignObserver, MetricsCollector};
use avgi_faultsim::ShardRunner;
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::trace::GoldenRun;
use avgi_rng::Rng;
use avgi_workloads::Workload;
use std::collections::VecDeque;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker-side configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// Threads for batch execution (`0` = all available cores).
    pub threads: usize,
    /// How long to keep retrying each (re)connection attempt's TCP dial
    /// (covers the worker starting before the coordinator, and the
    /// coordinator restarting mid-campaign).
    pub connect_timeout: Duration,
    /// How long a read may sit silent before the coordinator is presumed
    /// gone and the session is retried (a parked worker asks again
    /// instead). The coordinator answers every request promptly, so this is
    /// a liveness bound, not pacing; it also caps the heartbeat interval (a
    /// beat is always sent well inside one timeout window).
    pub read_timeout: Duration,
    /// Session-loss budget: how many *consecutive* failed handshake
    /// attempts the worker tolerates before giving up and reporting the
    /// underlying error. A successful (re-)attach resets the count — a
    /// worker that keeps getting real work keeps retrying.
    pub reconnect_attempts: u32,
    /// First reconnect backoff delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter (mixed with the attempt
    /// number; give concurrent workers different seeds to de-thunder them).
    pub jitter_seed: u64,
    /// Test hook: after completing this many batches, drop the connection
    /// abruptly on the next lease instead of executing it — simulating a
    /// worker dying mid-campaign (`None` = run to completion).
    pub max_batches: Option<usize>,
    /// Fault injection on this worker's outbound frames (`None` = plain
    /// TCP). Test instrumentation; see [`crate::chaos`].
    pub chaos: Option<Arc<ChaosInterposer>>,
}

impl WorkerConfig {
    /// A worker for `addr` with default tuning.
    pub fn new(addr: impl Into<String>) -> Self {
        WorkerConfig {
            addr: addr.into(),
            threads: 0,
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(60),
            reconnect_attempts: 8,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x5EED,
            max_batches: None,
            chaos: None,
        }
    }
}

/// What one worker contributed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Batches executed and reported.
    pub batches: u64,
    /// Individual injections executed.
    pub runs: u64,
    /// Sessions lost and re-established mid-campaign.
    pub reconnects: u64,
    /// Campaign runtimes this worker built: one per campaign it served,
    /// plus one for every time a campaign evicted from the runtime cache
    /// ([`RUNTIME_CACHE_CAPACITY`]) was leased again.
    pub campaigns: u64,
}

/// Heartbeat pacing for a lease: a third of the lease deadline, further
/// tightened to half the read timeout so a beat always lands well inside
/// one read-timeout window.
///
/// The anti-spin floor (10ms) never loosens the lease bound: for very
/// short leases the floor collapses to `lease/3`. (It used to be applied
/// *last*, so a short lease under a long read timeout paced beats slower
/// than the lease itself — heartbeats landed after expiry and live
/// workers were spuriously requeued.)
pub fn heartbeat_interval(lease_timeout: Duration, read_timeout: Duration) -> Duration {
    let third = lease_timeout / 3;
    let floor = Duration::from_millis(10)
        .min(third)
        .max(Duration::from_millis(1));
    third.min(read_timeout / 2).max(floor)
}

/// Exponential backoff with deterministic jitter: attempt `n` sleeps a
/// uniform draw from `[cap_n / 2, cap_n]` where `cap_n = base * 2^n`,
/// clamped to the ceiling. The draw comes from a seeded [`Rng`], so a
/// worker's retry schedule is a pure function of (seed, attempt) — chaos
/// tests replay byte-identically — while distinct seeds still de-thunder a
/// fleet hitting a restarting coordinator.
#[derive(Debug)]
pub struct Backoff {
    rng: Rng,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// A fresh schedule (next delay is the base-scale one).
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            rng: Rng::seed_from_u64(seed),
            base: base.max(Duration::from_millis(1)),
            cap: cap.max(base),
            attempt: 0,
        }
    }

    /// How many delays have been handed out since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Starts the schedule over (the rng stream continues — a reset replays
    /// the delay *scale*, not the exact delays).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The next delay in the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let scale = self
            .base
            .saturating_mul(1u32.checked_shl(self.attempt).unwrap_or(u32::MAX))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let hi = scale.as_nanos().min(u128::from(u64::MAX)) as u64;
        let lo = hi / 2;
        Duration::from_nanos(lo + self.rng.gen_range_u64(hi - lo + 1))
    }
}

/// Dials the coordinator, retrying until `connect_timeout`, with the same
/// jittered exponential backoff the session loop uses (the coordinator may
/// be restarting). Logs attempt counts so a stuck worker is diagnosable.
fn connect_with_retry(wcfg: &WorkerConfig) -> Result<Box<dyn Transport>, GridError> {
    let deadline = Instant::now() + wcfg.connect_timeout;
    let mut backoff = Backoff::new(
        wcfg.backoff_base,
        wcfg.backoff_cap,
        wcfg.jitter_seed ^ 0xD1A1, // distinct stream from session-loss backoff
    );
    loop {
        match TcpTransport::connect(&wcfg.addr) {
            Ok(t) => {
                let t: Box<dyn Transport> = Box::new(t);
                return Ok(match &wcfg.chaos {
                    Some(chaos) => chaos.wrap(t),
                    None => t,
                });
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    eprintln!(
                        "avgi-grid worker: giving up on {} after {} attempts: {e}",
                        wcfg.addr,
                        backoff.attempts() + 1
                    );
                    return Err(GridError::Io(e));
                }
                let delay = backoff.next_delay();
                eprintln!(
                    "avgi-grid worker: connect attempt {} to {} failed ({e}); retrying in {delay:?}",
                    backoff.attempts(),
                    wcfg.addr
                );
                std::thread::sleep(delay);
            }
        }
    }
}

/// Rebuilds the campaign the spec describes and cross-checks it.
fn rebuild(spec: &CampaignSpec) -> Result<(Workload, MuarchConfig, Arc<GoldenRun>), GridError> {
    let workload = avgi_workloads::by_index(spec.workload_id)
        .ok_or_else(|| GridError::Spec(format!("unknown workload id {}", spec.workload_id)))?;
    if workload.name != spec.workload {
        return Err(GridError::Spec(format!(
            "workload id {} is {:?} here, coordinator calls it {:?} — registry skew",
            spec.workload_id, workload.name, spec.workload
        )));
    }
    let cfg = spec.muarch_config();
    let local_hash = config_hash(&cfg);
    if local_hash != spec.config_hash {
        return Err(GridError::Spec(format!(
            "config hash mismatch for preset {:?}: local {local_hash}, coordinator {}",
            spec.preset, spec.config_hash
        )));
    }
    let golden = verified_golden(&workload, &cfg).map_err(|e| GridError::Spec(e.to_string()))?;
    if golden.cycles != spec.golden_cycles {
        return Err(GridError::Spec(format!(
            "golden run mismatch: local {} cycles, coordinator {}",
            golden.cycles, spec.golden_cycles
        )));
    }
    Ok((workload, cfg, golden))
}

/// One campaign's locally rebuilt execution state (its fault list; the
/// golden run and the checkpoint set are shared with other campaigns), kept
/// in [`Runtimes`] so interleaved leases from different tenants do not each
/// pay the rebuild.
struct Runtime {
    spec: CampaignSpec,
    runner: ShardRunner,
    /// Heartbeat pacing for this campaign's leases.
    beat: Duration,
}

impl Runtime {
    fn build(spec: CampaignSpec, wcfg: &WorkerConfig) -> Result<Runtime, GridError> {
        let (workload, cfg, golden) = rebuild(&spec)?;
        let mut ccfg = spec.campaign_config();
        ccfg.threads = wcfg.threads;
        let runner = ShardRunner::new(&workload, &cfg, &golden, &ccfg);
        let beat = heartbeat_interval(
            Duration::from_millis(spec.lease_timeout_ms),
            wcfg.read_timeout,
        );
        Ok(Runtime { spec, runner, beat })
    }
}

/// How many campaigns' runtimes a worker keeps built. A worker serves the
/// campaigns that are live at once, not every campaign it ever saw. The
/// cache holds their fault lists plus one checkpoint set per distinct golden
/// run and checkpoint count still leased (≈ 1 MB at the default 8 snapshots,
/// ≈ 14 MB at [`MAX_CHECKPOINTS`](crate::spec::MAX_CHECKPOINTS)): without a
/// bound a worker's memory grows with the number of campaigns the service
/// has finished.
pub const RUNTIME_CACHE_CAPACITY: usize = 8;

/// The runtime cache: at most [`RUNTIME_CACHE_CAPACITY`] campaigns, least
/// recently leased first. A campaign leased again after its eviction is
/// rebuilt through the same `SpecRequest` its first lease used.
#[derive(Default)]
struct Runtimes(Vec<(u64, Runtime)>);

impl Runtimes {
    fn get(&self, campaign: u64) -> Option<&Runtime> {
        self.0
            .iter()
            .find(|(c, _)| *c == campaign)
            .map(|(_, rt)| rt)
    }

    /// The runtime a lease for `campaign` executes on, now the most
    /// recently leased.
    fn lease(&mut self, campaign: u64) -> Option<&Runtime> {
        let at = self.0.iter().position(|(c, _)| *c == campaign)?;
        self.0[at..].rotate_left(1);
        self.0.last().map(|(_, rt)| rt)
    }

    /// Adds (or replaces) `campaign`'s runtime, evicting the least recently
    /// leased one when the cache is full.
    fn insert(&mut self, campaign: u64, rt: Runtime) {
        self.0.retain(|(c, _)| *c != campaign);
        if self.0.len() == RUNTIME_CACHE_CAPACITY {
            self.0.remove(0);
        }
        self.0.push((campaign, rt));
    }
}

/// One connection, owned by the session loop alone: the transport and the
/// decoder holding whatever part of a frame has arrived.
struct Link {
    stream: Box<dyn Transport>,
    frames: FrameBuffer,
}

impl Link {
    fn send(&mut self, msg: &Msg) -> std::io::Result<()> {
        send(&mut *self.stream, msg)
    }

    /// The next message, or `None` once a read has heard nothing for a
    /// whole `read_timeout`. A partial frame stays buffered across that
    /// silence, so the caller may ask again without tearing the stream.
    fn read_msg(&mut self) -> Result<Option<Msg>, GridError> {
        loop {
            let held = self.frames.buffered();
            match self.frames.poll(&mut *self.stream) {
                Ok(Some(frame)) => {
                    return Msg::decode(&frame)
                        .map(Some)
                        .map_err(|e| FrameError::Malformed(e).into())
                }
                Ok(None) if self.frames.buffered() == held => return Ok(None),
                Ok(None) => {}
                Err(FrameError::Closed) => {
                    return Err(GridError::Protocol(
                        "coordinator closed the connection".into(),
                    ))
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// What a session is lost to when the coordinator falls silent.
fn silent(wcfg: &WorkerConfig) -> GridError {
    GridError::Io(std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        format!("coordinator silent for {:?}", wcfg.read_timeout),
    ))
}

/// A completed handshake.
struct Attach {
    link: Link,
    session: u64,
}

/// Connects and handshakes, presenting `session` when re-attaching; `None`
/// when every campaign finished and there is nothing left to do.
/// Duplicate frames from a chaotic link are tolerated: any number of
/// welcomes may arrive and the first one wins.
fn establish(wcfg: &WorkerConfig, session: Option<u64>) -> Result<Option<Attach>, GridError> {
    let stream = connect_with_retry(wcfg)?;
    stream.set_read_timeout(Some(wcfg.read_timeout))?;
    let mut link = Link {
        stream,
        frames: FrameBuffer::new(),
    };
    let hello = Msg::Hello {
        proto: PROTO_VERSION,
        session,
    };
    link.send(&hello)?;
    match link.read_msg()?.ok_or_else(|| silent(wcfg))? {
        Msg::Welcome { proto, session } => {
            if proto != PROTO_VERSION {
                return Err(GridError::Protocol(format!(
                    "coordinator welcomed us at protocol version {proto}, not {PROTO_VERSION}"
                )));
            }
            Ok(Some(Attach { link, session }))
        }
        Msg::Done => Ok(None),
        Msg::Reject { reason } => Err(GridError::Protocol(reason)),
        other => Err(GridError::Protocol(format!(
            "expected welcome, got {other:?}"
        ))),
    }
}

/// Errors worth a reconnect. `Spec` and `Campaign` failures are
/// environmental (wrong binary, wrong registry) and never heal by retrying;
/// everything link-shaped — including a handshake rejection, which under
/// chaos is usually a corrupted hello — is retryable within the attempt
/// budget.
fn retryable(e: &GridError) -> bool {
    matches!(
        e,
        GridError::Io(_) | GridError::Frame(_) | GridError::Protocol(_)
    )
}

/// Absorbs a spec into the runtime cache, erroring if it contradicts what
/// we already built for that campaign (a coordinator must never mutate a
/// campaign mid-flight). The same spec again is a replay and changes
/// nothing.
fn absorb_spec(
    runtimes: &mut Runtimes,
    campaign: u64,
    spec: CampaignSpec,
    wcfg: &WorkerConfig,
    stats: &mut WorkerStats,
) -> Result<(), GridError> {
    match runtimes.get(campaign) {
        Some(rt) if rt.spec != spec => Err(GridError::Spec(format!(
            "campaign {campaign}'s spec changed mid-flight"
        ))),
        Some(_) => Ok(()),
        None => {
            runtimes.insert(campaign, Runtime::build(spec, wcfg)?);
            stats.campaigns += 1;
            Ok(())
        }
    }
}

/// Connects to a coordinator and works until it says `Done`, reconnecting
/// through link failures.
///
/// Returns the worker's own contribution statistics; the authoritative
/// merged campaigns live on the coordinator.
pub fn run_worker(wcfg: &WorkerConfig) -> Result<WorkerStats, GridError> {
    let mut backoff = Backoff::new(wcfg.backoff_base, wcfg.backoff_cap, wcfg.jitter_seed);
    let mut stats = WorkerStats::default();
    let mut runtimes = Runtimes::default();
    // The token to re-present; `None` until the first welcome.
    let mut session = None;
    // The last batch report whose delivery is unconfirmed; retransmitted on
    // re-attach (idempotent — see the module docs).
    let mut pending: Option<Msg> = None;
    // Why the last handshake or session failed. Even the first handshake
    // retries within the budget: on a chaotic link the very first welcome
    // can be a casualty.
    let mut lost: Option<GridError> = None;
    loop {
        if let Some(e) = lost.take() {
            if backoff.attempts() >= wcfg.reconnect_attempts {
                eprintln!(
                    "avgi-grid worker: giving up after {} attempts: {e}",
                    backoff.attempts()
                );
                return Err(e);
            }
            let delay = backoff.next_delay();
            let what = session.map_or("handshake failed".into(), |s| format!("session {s} lost"));
            eprintln!(
                "avgi-grid worker: {what} ({e}); attempt {} in {delay:?}",
                backoff.attempts()
            );
            std::thread::sleep(delay);
        }
        let attempt = establish(wcfg, session).and_then(|attach| {
            // Everything finished while we were away: a pending report is
            // moot (its indices completed — via us or a reassignment).
            let Some(attach) = attach else {
                return Ok(());
            };
            if session.replace(attach.session).is_some() {
                stats.reconnects += 1;
            }
            backoff.reset();
            drive_session(wcfg, attach.link, &mut runtimes, &mut stats, &mut pending)
        });
        match attempt {
            Ok(()) => return Ok(stats),
            Err(e) if retryable(&e) => lost = Some(e),
            Err(e) => return Err(e),
        }
    }
}

/// Runs one connected session until the coordinator says `Done` (or the
/// death-test hook fires). A [retryable] error loses the session; any
/// other is fatal.
///
/// Every message is handled where it lands, so a pushed lease that crosses
/// a repeated lease request, or a `Drain` that crosses a spec request,
/// costs nothing: leases queue until their runtime is built and run in
/// order. A chaotic link replays frames, and each replay is skipped: a
/// welcome (the handshake consumed the first), a lease at or before the
/// newest this link delivered (leases on one connection come in increasing
/// id order), a spec for a campaign already built (one that differs from
/// the build is refused).
fn drive_session(
    wcfg: &WorkerConfig,
    mut link: Link,
    runtimes: &mut Runtimes,
    stats: &mut WorkerStats,
    pending: &mut Option<Msg>,
) -> Result<(), GridError> {
    // Retransmit the batch whose delivery the last session never confirmed.
    if let Some(msg) = pending.as_ref() {
        link.send(msg)?;
    }
    // Leases taken and not yet run, oldest first, and the newest lease id.
    let mut leases: VecDeque<(u64, u64, Vec<usize>)> = VecDeque::new();
    let mut taken: Option<u64> = None;
    // The campaign whose spec this link asked for and has not received.
    let mut spec_asked = None;
    // A lease request is unanswered.
    let mut asked = false;
    // Answered `Drain`: the service has parked this connection and pushes
    // the next lease unasked, so the worker reads without asking.
    let mut parked = false;
    loop {
        // Run every lease whose runtime is built; fetch the spec the next
        // one lacks (its campaign never leased here, or evicted since).
        while let Some(&(lease, campaign, _)) = leases.front() {
            let Some(rt) = runtimes.lease(campaign) else {
                if spec_asked != Some(campaign) {
                    link.send(&Msg::SpecRequest { campaign })?;
                    spec_asked = Some(campaign);
                }
                break;
            };
            let (_, _, indices) = leases.pop_front().expect("front exists");
            let report = compute(&mut link, rt, lease, campaign, &indices)?;
            stats.batches += 1;
            stats.runs += indices.len() as u64;
            // Held for retransmission until the next lease or `Drain`
            // confirms it arrived.
            link.send(pending.insert(report))?;
        }
        if leases.is_empty() && !parked && !asked {
            link.send(&Msg::LeaseRequest)?;
            asked = true;
        }
        let Some(msg) = link.read_msg()? else {
            // A parked connection is silent by design. After a whole
            // `read_timeout` of it, ask again: that tells a live service
            // from a dead one, and fetches a pushed lease the link lost.
            if parked && leases.is_empty() {
                parked = false;
                continue;
            }
            return Err(silent(wcfg));
        };
        match msg {
            Msg::Welcome { .. } => {}
            Msg::Lease { lease, .. } if taken.is_some_and(|t| lease <= t) => {}
            Msg::Lease {
                lease,
                campaign,
                indices,
            } => {
                if wcfg
                    .max_batches
                    .is_some_and(|max| stats.batches as usize >= max)
                {
                    // Test hook: die abruptly with a lease in hand.
                    let _ = link.stream.shutdown();
                    return Ok(());
                }
                taken = Some(lease);
                leases.push_back((lease, campaign, indices));
                (asked, parked) = (false, false);
                *pending = None;
            }
            Msg::Drain => {
                (asked, parked) = (false, true);
                *pending = None;
            }
            Msg::Spec { campaign, spec } => {
                absorb_spec(runtimes, campaign, spec, wcfg, stats)?;
                spec_asked = spec_asked.filter(|&c| c != campaign);
            }
            Msg::Done => return Ok(()),
            Msg::Reject { reason } => return Err(GridError::Protocol(reason)),
            other => return Err(GridError::Protocol(format!("unexpected message {other:?}"))),
        }
    }
}

/// Runs one lease on a scoped thread while this thread, the link's only
/// user, keeps the lease alive: it waits for the results a heartbeat
/// interval at a time and sends a `heartbeat` each time the wait runs out.
/// Returns the batch report.
fn compute(
    link: &mut Link,
    rt: &Runtime,
    lease: u64,
    campaign: u64,
    indices: &[usize],
) -> Result<Msg, GridError> {
    let collector = Arc::new(MetricsCollector::new());
    let observer: Arc<dyn CampaignObserver> = collector.clone();
    let results = std::thread::scope(|s| {
        let (done, results) = mpsc::channel();
        let work = s.spawn(move || done.send(rt.runner.run_indices(indices, Some(observer))));
        loop {
            match results.recv_timeout(rt.beat) {
                Ok(results) => return results,
                // A beat the link fails to carry is lost with the link,
                // which the report's send finds.
                Err(RecvTimeoutError::Timeout) => {
                    let _ = link.send(&Msg::Heartbeat { lease, campaign });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    std::panic::resume_unwind(work.join().unwrap_err())
                }
            }
        }
    })?;
    Ok(Msg::BatchDone {
        lease,
        campaign,
        results,
        telemetry: collector.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ConfigPreset;
    use avgi_faultsim::RunMode;
    use avgi_muarch::fault::Structure;

    /// A small honest spec, as a service would build it.
    fn spec(seed: u64) -> CampaignSpec {
        let workload_id = avgi_workloads::index_of("bitcount").unwrap();
        let workload = avgi_workloads::by_index(workload_id).unwrap();
        let cfg = ConfigPreset::Small.config();
        CampaignSpec {
            workload: workload.name.to_string(),
            workload_id,
            preset: ConfigPreset::Small,
            structure: Structure::RegFile,
            faults: 4,
            seed,
            mode: RunMode::EndToEnd,
            burst_width: 1,
            checkpoints: 2,
            golden_cycles: verified_golden(&workload, &cfg).unwrap().cycles,
            config_hash: config_hash(&cfg),
            lease_timeout_ms: 30_000,
        }
    }

    #[test]
    fn rebuild_shares_one_golden_capture_and_cross_checks_every_build() {
        let honest = spec(1);
        let (workload, cfg, first) = rebuild(&honest).unwrap();
        let (_, _, again) = rebuild(&honest).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "one capture per process");
        assert_eq!(
            first.cycles,
            avgi_faultsim::golden_for(&workload, &cfg).cycles
        );
        // A served run skips the capture, never the checks: a spec that
        // disagrees with what this process captured is refused.
        let skewed = CampaignSpec {
            golden_cycles: honest.golden_cycles + 1,
            ..honest.clone()
        };
        assert!(matches!(rebuild(&skewed), Err(GridError::Spec(m)) if m.contains("golden run")));
        let skewed = CampaignSpec {
            config_hash: honest.config_hash ^ 1,
            ..honest
        };
        assert!(matches!(rebuild(&skewed), Err(GridError::Spec(m)) if m.contains("config hash")));
    }

    #[test]
    fn the_runtime_cache_evicts_the_least_recently_leased_campaign() {
        let mut wcfg = WorkerConfig::new("");
        wcfg.threads = 1;
        let build = |campaign: u64| Runtime::build(spec(campaign), &wcfg).unwrap();
        let mut cache = Runtimes::default();
        for campaign in 1..=RUNTIME_CACHE_CAPACITY as u64 {
            cache.insert(campaign, build(campaign));
        }
        // Campaign 1 is the oldest build but the latest lease: 2 goes.
        assert_eq!(cache.lease(1).map(|rt| rt.spec.seed), Some(1));
        cache.insert(100, build(100));
        assert!(cache.get(1).is_some() && cache.get(100).is_some());
        assert!(cache.get(2).is_none());
        assert!(cache.lease(2).is_none());
        // A rebuilt campaign replaces its runtime; nobody is evicted for it.
        cache.insert(100, build(101));
        assert_eq!(cache.get(100).map(|rt| rt.spec.seed), Some(101));
        assert_eq!(cache.0.len(), RUNTIME_CACHE_CAPACITY);
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn heartbeat_pacing_never_exceeds_a_third_of_the_lease() {
        // The regression: the 10ms anti-spin floor used to be applied last,
        // so a short lease under a long read timeout paced beats slower
        // than lease/3 — they could land after the lease expired.
        let lease = Duration::from_millis(24);
        let beat = heartbeat_interval(lease, Duration::from_secs(60));
        assert!(
            beat <= lease / 3,
            "beat {beat:?} exceeds a third of the {lease:?} lease"
        );
        // Normal operating point: lease/3 wins, comfortably under rt/2.
        assert_eq!(
            heartbeat_interval(Duration::from_secs(30), Duration::from_secs(60)),
            Duration::from_secs(10)
        );
        // A short read timeout tightens pacing further below lease/3.
        assert_eq!(
            heartbeat_interval(Duration::from_secs(30), Duration::from_secs(4)),
            Duration::from_secs(2)
        );
        // Degenerate inputs still pace (no zero-interval spin loop).
        assert!(heartbeat_interval(Duration::ZERO, Duration::from_secs(60)) > Duration::ZERO);
    }
}
