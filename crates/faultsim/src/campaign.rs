//! Fault-injection campaigns: one golden capture plus N injected runs,
//! executed across worker threads.
//!
//! The engine is fault-tolerant: a panicking simulator run is isolated with
//! [`std::panic::catch_unwind`], retried once from a fresh simulator, and —
//! if it still fails — recorded as [`RunOutcome::SimAbort`] instead of
//! poisoning the whole campaign. A run ends only by what the simulated
//! machine does; a hang is caught by the cycle watchdog
//! ([`watchdog_budget`]). A campaign therefore always yields exactly N
//! classified results, the same ones under any execution shape. A golden
//! run whose fault-free prefix cannot reach its own checkpoints is refused
//! when the campaign is set up, never worked around. Campaigns can
//! additionally stream results to an on-disk [journal](crate::journal) and
//! resume bit-identically after an interruption ([`run_campaign_journaled`]).

use crate::error::{CampaignError, GoldenError};
use crate::journal::{check_resumed_faults, config_hash, CampaignKey, Journal};
use crate::sampling::{multi_bit_burst, sample_faults};
use crate::telemetry::{CampaignObserver, NullObserver};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::{Fault, Structure};
use avgi_muarch::pipeline::{capture_golden, Sim, Snapshot};
use avgi_muarch::run::{RunControl, RunOutcome};
use avgi_muarch::trace::{Deviation, GoldenRun};
use avgi_refmodel::ExecTier;
use avgi_workloads::Workload;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, PoisonError, Weak};
use std::time::{Duration, Instant};

/// How far each injected run simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Traditional (accelerated) SFI: simulate to the end of the program and
    /// classify the final effect. Pre-injection cycles are skipped by
    /// checkpointing in both flows (§IV.B), so cost is counted post-injection.
    EndToEnd,
    /// The same run as [`RunMode::EndToEnd`] under a second label: both
    /// record the first commit-trace deviation, and their results are
    /// identical. The label names the §III joint HVF/AVF analysis (and
    /// weight learning) in journals and specs, and stays until their next
    /// format bump.
    Instrumented,
    /// The AVGI production mode (insights 1–3): stop at the first deviation,
    /// or `ert_window` cycles after injection if nothing deviated.
    FirstDeviation {
        /// Effective-residency-time stop window (`None` disables insight 3).
        ert_window: Option<u64>,
    },
}

/// Campaign parameters.
#[derive(Clone)]
pub struct CampaignConfig {
    /// Target structure.
    pub structure: Structure,
    /// Number of injections.
    pub faults: usize,
    /// RNG seed for fault sampling.
    pub seed: u64,
    /// Run mode.
    pub mode: RunMode,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Spatial multi-bit burst width (`1` = single-bit, the default model).
    pub burst_width: u32,
    /// Number of pre-injection checkpoints (`0` disables checkpointing).
    ///
    /// Checkpointing skips the fault-free pre-injection period by resuming
    /// each injected run from the latest snapshot at or before its
    /// injection cycle — the standard acceleration the paper assumes in
    /// *both* the traditional and the AVGI flow (§IV.B). Results are
    /// bit-identical with and without it.
    pub checkpoints: u32,
    /// Telemetry observer driven by the engine (`None` = unobserved).
    ///
    /// The observer sees every run — fresh, retried, or replayed from a
    /// journal — see [`CampaignObserver`] for the hook contract. Observation
    /// never changes campaign results; it is excluded from [`std::fmt::Debug`]
    /// output so journal keys and config hashes are unaffected.
    pub observer: Option<Arc<dyn CampaignObserver>>,
    /// Maximum number of runs that share one fault-free carrier (`<= 1`
    /// means one run per carrier).
    ///
    /// Consecutive runs (in injection-cycle order) that resume from the same
    /// checkpoint are grouped: one fault-free *carrier* simulator advances
    /// through the golden prefix once, and each injected run forks off it at
    /// its injection cycle via [`Sim::restore_from_sim`] — the prefix between
    /// the checkpoint and the injection cycle is simulated once per batch
    /// instead of once per run (the ZOFI observation, applied
    /// per-checkpoint). Results are bit-identical at every batch size; like
    /// `checkpoints`, the knob only moves cost.
    ///
    /// Excluded from the [`std::fmt::Debug`] identity (journal keys and config
    /// hashes), so journals written at any batch size resume interchangeably.
    pub batch: usize,
}

impl std::fmt::Debug for CampaignConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Hand-written because the observer has no `Debug`; the observer
        // and the batch size carry no campaign identity, so both are left
        // out. Nothing hashes this rendering.
        f.debug_struct("CampaignConfig")
            .field("structure", &self.structure)
            .field("faults", &self.faults)
            .field("seed", &self.seed)
            .field("mode", &self.mode)
            .field("threads", &self.threads)
            .field("burst_width", &self.burst_width)
            .field("checkpoints", &self.checkpoints)
            .finish()
    }
}

impl CampaignConfig {
    /// Single-bit campaign with `faults` injections in the given mode.
    pub fn new(structure: Structure, faults: usize, mode: RunMode) -> Self {
        CampaignConfig {
            structure,
            faults,
            seed: 0xAE61_0001,
            mode,
            threads: 0,
            burst_width: 1,
            checkpoints: 8,
            batch: 32,
            observer: None,
        }
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the multi-bit burst width.
    pub fn with_burst(mut self, width: u32) -> Self {
        self.burst_width = width.max(1);
        self
    }

    /// Sets the checkpoint count (`0` disables checkpointing).
    pub fn with_checkpoints(mut self, count: u32) -> Self {
        self.checkpoints = count;
        self
    }

    /// Sets the shared-prefix batch size (`<= 1` = one run per carrier).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Attaches a telemetry observer (e.g. a
    /// [`MetricsCollector`](crate::telemetry::MetricsCollector) or
    /// [`ProgressObserver`](crate::telemetry::ProgressObserver)).
    pub fn with_observer(mut self, observer: Arc<dyn CampaignObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The resolved worker-thread count: `threads`, with the configured `0`
    /// standing for all available cores. This is the single source of truth
    /// for the pool size — both the engine's spawn count and the
    /// worker-count figure reported through telemetry derive from it, so
    /// metrics never echo the raw `0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }
}

/// Mid-run simulator snapshots for skipping the pre-injection period.
///
/// Snapshots are taken at evenly spaced cycles of the fault-free prefix;
/// a faulty run resumes from the latest snapshot at or before its injection
/// cycle and produces exactly the results of an uninterrupted run. Each
/// worker keeps one carrier [`Sim`] and rewinds it to a batch's snapshot
/// with [`Sim::restore_from`], a copy into the buffers the carrier already
/// owns rather than a fresh allocation.
#[derive(Debug, Clone)]
pub struct CheckpointSet {
    /// In cycle order; each stands at the cycle it was built for.
    snaps: Vec<Snapshot>,
}

impl CheckpointSet {
    /// Builds `count` snapshots (cycle 0 plus `count - 1` evenly spaced
    /// points of the golden execution).
    ///
    /// Fails with [`CampaignError::CheckpointPrefixEnded`] if the fault-free
    /// prefix terminates before a snapshot point (a sign of a golden run
    /// captured under a different configuration); [`run_campaign`] refuses
    /// to start on such a golden run.
    pub fn build(
        workload: &Workload,
        cfg: &MuarchConfig,
        golden: &Arc<GoldenRun>,
        count: u32,
    ) -> Result<Self, CampaignError> {
        let ctl = RunControl {
            max_cycles: watchdog_budget(golden.cycles),
            golden: Some(golden.clone()),
            ..Default::default()
        };
        let mut sim = Sim::new(&workload.program, cfg.clone());
        let mut snaps = Vec::with_capacity(count.max(1) as usize);
        snaps.push(sim.snapshot());
        for k in 1..count.max(1) {
            let target = golden.cycles * u64::from(k) / u64::from(count);
            if let Some(outcome) = sim.run_to_cycle(target, &ctl) {
                return Err(CampaignError::CheckpointPrefixEnded {
                    outcome,
                    at_cycle: sim.cycle(),
                    target,
                });
            }
            assert_eq!(sim.cycle(), target, "a checkpoint off its cycle");
            snaps.push(sim.snapshot());
        }
        Ok(CheckpointSet { snaps })
    }

    /// [`build`](CheckpointSet::build)'s set, shared while held: callers alive
    /// together over one golden run (by identity), program, configuration and
    /// `count` hold one `Arc` and wait for one build. The table holds the build
    /// (`cell`) and the set weakly.
    ///
    /// Panics with the [`build`](CheckpointSet::build) error when the golden
    /// run cannot reach its own checkpoints, like [`ShardRunner::new`] on a
    /// golden run it cannot sample: such a campaign does not start.
    fn shared(
        workload: &Workload,
        cfg: &MuarchConfig,
        golden: &Arc<GoldenRun>,
        count: u32,
    ) -> Arc<Self> {
        type Cell = OnceLock<Arc<CheckpointSet>>;
        struct Entry {
            golden: Weak<GoldenRun>,
            key: (ImageKey, u32),
            cell: Weak<Cell>,
            set: Weak<CheckpointSet>,
        }
        static SHARED: Mutex<Vec<Entry>> = Mutex::new(Vec::new());
        let lock = || SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        let key = (image_key(workload, cfg), count);
        let cell = {
            let mut table = lock();
            table.retain(|e| {
                e.golden.strong_count() > 0 && e.cell.strong_count() + e.set.strong_count() > 0
            });
            let mine = |e: &&Entry| e.golden.as_ptr() == Arc::as_ptr(golden) && e.key == key;
            if let Some(set) = table.iter().filter(mine).find_map(|e| e.set.upgrade()) {
                return set;
            }
            let building = table.iter().filter(mine).find_map(|e| e.cell.upgrade());
            building.unwrap_or_else(|| {
                let cell = Arc::new(Cell::new());
                table.push(Entry {
                    golden: Arc::downgrade(golden),
                    key,
                    cell: Arc::downgrade(&cell),
                    set: Weak::new(),
                });
                cell
            })
        };
        cell.get_or_init(|| {
            let set = Self::build(workload, cfg, golden, count)
                .unwrap_or_else(|e| panic!("cannot checkpoint this golden run: {e}"));
            let set = Arc::new(set);
            let built = Arc::as_ptr(&cell);
            for e in lock().iter_mut().filter(|e| e.cell.as_ptr() == built) {
                e.set = Arc::downgrade(&set);
            }
            set
        })
        .clone()
    }

    /// Index of the latest snapshot at or before `cycle` — the batching key:
    /// runs sharing an index can share one fault-free carrier.
    pub fn nearest_index(&self, cycle: u64) -> usize {
        match self.snaps.binary_search_by_key(&cycle, Snapshot::cycle) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// The snapshots strictly after `cycle`, in cycle order: the golden
    /// machine at every later point a run injected at `cycle` can be
    /// compared with it ([`Sim::converged_with`]).
    pub fn after(&self, cycle: u64) -> &[Snapshot] {
        &self.snaps[self.snaps.partition_point(|s| s.cycle() <= cycle)..]
    }

    /// The snapshot at `index` (panics if out of range).
    pub fn snapshot(&self, index: usize) -> &Snapshot {
        &self.snaps[index]
    }

    /// Number of snapshots held.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Whether the set holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }
}

/// The observables of one injected run.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionResult {
    /// The injected fault (first bit of the burst for multi-bit runs).
    pub fault: Fault,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// First commit-trace deviation, if any.
    pub deviation: Option<Deviation>,
    /// For completed runs: did the output match the golden output?
    pub output_matches: Option<bool>,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Simulated cycles after injection (the cost metric of Table II).
    pub post_inject_cycles: u64,
    /// For [`RunOutcome::SimAbort`] runs: the (truncated) panic message of
    /// the simulator failure that was isolated.
    pub abort_message: Option<String>,
}

impl InjectionResult {
    /// The result this run would have produced under `mode`, a mode that
    /// stops no later than the one that produced it — the one place a
    /// window cuts a run above the simulator. The model is deterministic,
    /// so a run cut short is the longer run of the same fault, cut.
    ///
    /// Under [`RunMode::EndToEnd`] or [`RunMode::Instrumented`] the result
    /// is unchanged, and so is a [`RunOutcome::SimAbort`] under any mode.
    /// Under [`RunMode::FirstDeviation`], with `e = fault.cycle + max(w, 1)`
    /// for a window `w` and `c` the deviating commit's cycle:
    ///
    /// * a deviation before the window closes (`c < e`, or no window) stops
    ///   the run there: the result is kept if the run ended in that very
    ///   cycle (a trap or halt in the deviating commit), else it is
    ///   [`RunOutcome::StoppedAtDeviation`] at `c`;
    /// * otherwise a run that reached `e` is [`RunOutcome::ErtExpired`] at
    ///   `e`, with no deviation. A run ending in cycle `e` or later reached
    ///   it, except a [`RunOutcome::Watchdog`] ending in cycle `e`:
    ///   [`Sim::step`] tests the watchdog before the window;
    /// * otherwise the result is unchanged.
    ///
    /// Only [`CampaignResult::under`] checks that `mode` is coarser than
    /// the source's; a result does not carry its mode.
    pub fn under(&self, mode: RunMode) -> InjectionResult {
        let RunMode::FirstDeviation { ert_window } = mode else {
            return self.clone();
        };
        if self.outcome == RunOutcome::SimAbort {
            return self.clone();
        }
        let end = ert_window.map(|w| self.fault.cycle.saturating_add(w.max(1)));
        let cut = |outcome, cycles: u64| InjectionResult {
            outcome,
            output_matches: None,
            cycles,
            post_inject_cycles: cycles.saturating_sub(self.fault.cycle),
            ..self.clone()
        };
        if let Some(c) = self.deviation.map(|d| d.faulty.cycle) {
            if end.is_none_or(|e| c < e) {
                return if self.cycles == c {
                    self.clone()
                } else {
                    cut(RunOutcome::StoppedAtDeviation, c)
                };
            }
        }
        let reached = |e| match self.outcome {
            RunOutcome::Watchdog => e < self.cycles,
            _ => e <= self.cycles,
        };
        match end {
            Some(e) if reached(e) => InjectionResult {
                deviation: None,
                ..cut(RunOutcome::ErtExpired, e)
            },
            _ => self.clone(),
        }
    }
}

/// How far a mode lets a run go, ordered: one mode projects to another
/// ([`CampaignResult::under`]) only if its reach is at least the other's.
fn reach(mode: RunMode) -> (u8, u64) {
    match mode {
        RunMode::EndToEnd | RunMode::Instrumented => (2, 0),
        RunMode::FirstDeviation { ert_window: None } => (1, 0),
        RunMode::FirstDeviation {
            ert_window: Some(w),
        } => (0, w),
    }
}

/// A finished campaign: the golden reference plus every injection result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Workload name.
    pub workload: String,
    /// Target structure.
    pub structure: Structure,
    /// Run mode used.
    pub mode: RunMode,
    /// Fault-free execution length.
    pub golden_cycles: u64,
    /// Per-injection observables, in sampling order.
    pub results: Vec<InjectionResult>,
}

impl CampaignResult {
    /// Wraps per-injection results (in sampling order) as the finished
    /// campaign `ccfg` describes — the one place a `CampaignResult` is
    /// assembled, whichever door (whole campaign, shard, adaptive schedule,
    /// grid merge) produced the results.
    pub fn new(
        workload: &str,
        ccfg: &CampaignConfig,
        golden_cycles: u64,
        results: Vec<InjectionResult>,
    ) -> Self {
        CampaignResult {
            workload: workload.to_string(),
            structure: ccfg.structure,
            mode: ccfg.mode,
            golden_cycles,
            results,
        }
    }

    /// The campaign this one's fault list would have produced under `mode`:
    /// every result [projected](InjectionResult::under), field for field
    /// what simulating the campaign under `mode` returns, at no simulation.
    ///
    /// # Panics
    ///
    /// Panics, naming both modes, unless `mode` is coarser than this
    /// campaign's own or equal to it: `EndToEnd`/`Instrumented` ⊇
    /// `FirstDeviation { None }` ⊇ `FirstDeviation { Some(w) }` ⊇
    /// `FirstDeviation { Some(w' <= w) }`.
    pub fn under(&self, mode: RunMode) -> CampaignResult {
        assert!(
            reach(mode) <= reach(self.mode),
            "a {:?} campaign cannot be projected to the finer mode {mode:?}",
            self.mode
        );
        CampaignResult {
            mode,
            results: self.results.iter().map(|r| r.under(mode)).collect(),
            ..self.clone()
        }
    }

    /// Sum of post-injection cycles across all runs — the campaign's
    /// simulation cost in the paper's accounting.
    pub fn total_post_inject_cycles(&self) -> u64 {
        self.results.iter().map(|r| r.post_inject_cycles).sum()
    }

    /// Number of injections.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the campaign is empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Number of runs whose simulator panicked (isolated and recorded as
    /// [`RunOutcome::SimAbort`]).
    pub fn aborted_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome == RunOutcome::SimAbort)
            .count()
    }

    /// Fraction of runs recorded as [`RunOutcome::SimAbort`] — the
    /// per-structure abort rate of this campaign (0 for empty campaigns).
    pub fn abort_rate(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.aborted_count() as f64 / self.results.len() as f64
        }
    }
}

/// Captures the golden run for a workload (convenience wrapper with the
/// standard watchdog).
pub fn golden_for(workload: &Workload, cfg: &MuarchConfig) -> Arc<GoldenRun> {
    capture_golden(&workload.program, cfg, 50_000_000)
}

/// The key [`verified_golden`] describes, shared by [`CheckpointSet::shared`].
type ImageKey = (Vec<u32>, Vec<(u32, Vec<u8>)>, [u32; 3], Vec<u8>, u64);

fn image_key(workload: &Workload, cfg: &MuarchConfig) -> ImageKey {
    let p = &workload.program;
    (
        p.code.clone(),
        p.data.clone(),
        [p.entry, p.output_addr, p.output_len],
        workload.expected.clone(),
        config_hash(cfg),
    )
}

/// The golden run of `workload` under `cfg`: captured at most once per
/// process and verified once, on capture.
///
/// A golden run is a pure function of the program and the configuration, so
/// every campaign over the same pair shares one capture, and concurrent
/// callers for one pair wait for it while other pairs are not held up. The
/// key is the program image (code, data, entry, output range), the expected
/// output and [`config_hash`] — never the name, so a custom workload that
/// reuses a registry name is not served another program's run. A capture
/// is served only if its commit trace passes Fast-tier lockstep against the
/// architectural reference and its output equals `workload.expected`;
/// otherwise every call for the pair returns the same [`GoldenError`].
/// Served runs live for the life of the process.
pub fn verified_golden(
    workload: &Workload,
    cfg: &MuarchConfig,
) -> Result<Arc<GoldenRun>, GoldenError> {
    type Cell = Arc<OnceLock<Result<Arc<GoldenRun>, GoldenError>>>;
    static SERVED: Mutex<BTreeMap<ImageKey, Cell>> = Mutex::new(BTreeMap::new());
    let cell = SERVED
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(image_key(workload, cfg))
        .or_default()
        .clone();
    cell.get_or_init(|| {
        let golden = golden_for(workload, cfg);
        let p = &workload.program;
        avgi_refmodel::verify_golden_tier(p, &golden, ExecTier::Fast).map_err(|d| {
            GoldenError::Lockstep {
                workload: workload.name.to_string(),
                divergence: d.to_string(),
            }
        })?;
        if golden.output != workload.expected {
            return Err(GoldenError::Output {
                workload: workload.name.to_string(),
            });
        }
        Ok(golden)
    })
    .clone()
}

/// Cycle budget an injected run gets before it is declared hung: twice the
/// golden duration plus slack for short runs. Saturating — an adversarially
/// long golden run must clamp to `u64::MAX`, not wrap around to a tiny
/// budget that would misclassify every run as a hang.
pub fn watchdog_budget(golden_cycles: u64) -> u64 {
    golden_cycles.saturating_mul(2).saturating_add(20_000)
}

/// Executes one injected run on a fresh simulator from reset — the engine's
/// run with no checkpoint set and no observer, which is what makes it the
/// reference the carrier and its forks are compared against.
pub fn run_one(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    fault: Fault,
    mode: RunMode,
    burst_width: u32,
) -> InjectionResult {
    let ccfg = CampaignConfig::new(fault.site.structure, 1, mode).with_burst(burst_width);
    let engine = Engine {
        workload,
        cfg,
        golden,
        ccfg: &ccfg,
        ctl: control_for(mode, golden),
        checkpoints: None,
        observer: &NULL_OBSERVER,
    };
    engine.run_fresh(fault)
}

/// Arms `fault` (or its spatial burst) on a simulator.
pub(crate) fn inject_burst(sim: &mut Sim, fault: Fault, burst_width: u32, cfg: &MuarchConfig) {
    if burst_width <= 1 {
        // The identity burst must not clamp the sampled bit: an ill-formed
        // bit index should fail loudly in the simulator (and be isolated by
        // the engine), not be silently remapped to a different site.
        sim.inject(fault);
    } else {
        for f in multi_bit_burst(fault, burst_width, cfg) {
            sim.inject(f);
        }
    }
}

/// The run control a mode prescribes. An engine invocation builds it once
/// and steps its carriers and every run under it, so a forked run's state
/// evolution cannot differ from a fresh run's.
pub(crate) fn control_for(mode: RunMode, golden: &Arc<GoldenRun>) -> RunControl {
    let mut ctl = RunControl {
        max_cycles: watchdog_budget(golden.cycles),
        golden: Some(golden.clone()),
        ..Default::default()
    };
    if let RunMode::FirstDeviation { ert_window } = mode {
        ctl.stop_at_first_deviation = true;
        ctl.ert_window = ert_window;
    }
    ctl
}

thread_local! {
    /// Set while this thread executes an isolated run, so the process-wide
    /// panic hook can suppress the default backtrace spew for panics the
    /// engine catches and records anyway.
    static IN_ISOLATED_RUN: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Runs `f` behind the engine's panic boundary.
fn isolated<T>(f: impl FnOnce() -> T) -> std::thread::Result<T> {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_ISOLATED_RUN.with(Cell::get) {
                prev(info);
            }
        }));
    });
    IN_ISOLATED_RUN.with(|flag| flag.set(true));
    let r = catch_unwind(AssertUnwindSafe(f));
    IN_ISOLATED_RUN.with(|flag| flag.set(false));
    r
}

/// Extracts a human-readable message from a caught panic payload, truncated
/// to a bounded length so a pathological payload cannot bloat results or
/// journals.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    const MAX: usize = 200;
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    if msg.chars().count() > MAX {
        let truncated: String = msg.chars().take(MAX).collect();
        format!("{truncated}…")
    } else {
        msg
    }
}

/// Per-worker simulators, kept across runs and batches so every rewind
/// copies into buffers already allocated.
#[derive(Default)]
struct WorkerSims {
    /// Fault-free simulator advanced through the golden prefix.
    carrier: Option<Sim>,
    /// Reusable fork target, rewound to the carrier per run.
    fork: Option<Sim>,
}

/// Where an engine invocation's results persist: the campaign's journal,
/// the results it already held when it was opened, and the campaign-global
/// index of the invocation's first fault — the adaptive driver runs one
/// invocation per batch against a single journal, so local indices are
/// rebased before they hit the disk format.
pub(crate) struct JournalSink<'a> {
    pub(crate) journal: &'a Mutex<Journal>,
    pub(crate) done: &'a BTreeMap<usize, InjectionResult>,
    pub(crate) offset: usize,
}

static NULL_OBSERVER: NullObserver = NullObserver;

/// One engine invocation: the campaign context a [`ShardRunner`] owns plus
/// what lives only as long as the call — the run control every carrier and
/// run steps under, and the observer in force. Every
/// simulator a campaign creates, restores or steps is driven from here. A
/// run is positioned one of two ways: forked off a batch's carrier at its
/// injection cycle when the campaign has a checkpoint set
/// ([`Engine::run_batch`]), or fresh from reset when it has none — the
/// reference, and the retry of a failed fork ([`Engine::run_fresh`]). Both
/// end in [`Engine::finish`].
struct Engine<'a> {
    workload: &'a Workload,
    cfg: &'a MuarchConfig,
    golden: &'a Arc<GoldenRun>,
    ccfg: &'a CampaignConfig,
    ctl: RunControl,
    checkpoints: Option<&'a CheckpointSet>,
    observer: &'a dyn CampaignObserver,
}

impl Engine<'_> {
    /// Whether no bit `fault` flips — the one site, or its burst — is ever
    /// read: each lies in storage that is dead on `sim`
    /// ([`Sim::dead_on_arrival`]), or in a register the golden run frees
    /// before it reads it again
    /// ([`UnAceIndex::covers`](avgi_muarch::regfile::UnAceIndex::covers)).
    /// `sim` stands at the fault's cycle on the golden path.
    fn never_read(&self, sim: &Sim, fault: Fault) -> bool {
        let unread = |f: &Fault| {
            sim.dead_on_arrival(f.site) || self.golden.rf_un_ace.covers(f.site, f.cycle)
        };
        match self.ccfg.burst_width {
            0 | 1 => unread(&fault),
            width => multi_bit_burst(fault, width, self.cfg).iter().all(unread),
        }
    }

    /// The ending a machine equal to the golden's from `from_cycle` on
    /// reaches under the engine's control — the one place a result is
    /// derived instead of simulated: the golden's own ending (the model is
    /// deterministic), [under](InjectionResult::under) the campaign's mode.
    /// The cycles not simulated are still charged — a result never shows how
    /// it was produced — and reported through `on_converged`.
    fn golden_ending(
        &self,
        fault: Fault,
        deviation: Option<Deviation>,
        from_cycle: u64,
    ) -> InjectionResult {
        let cycles = self.golden.cycles;
        let r = InjectionResult {
            fault,
            outcome: RunOutcome::Completed,
            deviation,
            output_matches: Some(true),
            cycles,
            post_inject_cycles: cycles.saturating_sub(fault.cycle),
            abort_message: None,
        }
        .under(self.ccfg.mode);
        self.observer
            .on_converged(self.ccfg.structure, r.cycles - from_cycle);
        r
    }

    /// Arms `fault` on a positioned simulator, runs it to the end the mode
    /// prescribes and turns the report into a result — the one
    /// run-finishing step both ways of positioning a run share.
    ///
    /// `sim` stands at the beginning of the injection cycle (a fork off the
    /// carrier, which has just found the flip live) or at reset (a fresh
    /// run). `future` is the golden machine at the checkpoints after the
    /// injection cycle ([`CheckpointSet::after`]) for a fork, `&[]` for a
    /// fresh run. The run takes [`golden_ending`](Engine::golden_ending) at
    /// the first of them where its live state equals the golden's
    /// ([`Sim::converged_with`]). A run under an ERT window does not look:
    /// a comparison costs a fifth of a short window.
    fn finish(&self, sim: &mut Sim, fault: Fault, future: &[Snapshot]) -> InjectionResult {
        inject_burst(sim, fault, self.ccfg.burst_width, self.cfg);
        let ctl = &self.ctl;
        let future = if ctl.ert_window.is_some() {
            &[]
        } else {
            future
        };
        let mut ended = None;
        for snap in future {
            ended = sim.run_to_cycle(snap.cycle(), ctl);
            if ended.is_some() {
                break;
            }
            if sim.converged_with(snap) {
                return self.golden_ending(fault, sim.first_deviation(), snap.cycle());
            }
        }
        let outcome = ended
            .or_else(|| sim.run_to_cycle(u64::MAX, ctl))
            .expect("an unbounded run ends only with an outcome");
        let report = sim.report(outcome, ctl);
        InjectionResult {
            fault,
            outcome: report.outcome,
            deviation: report.first_deviation,
            output_matches: report.output.as_ref().map(|o| *o == self.golden.output),
            cycles: report.cycles,
            post_inject_cycles: report.post_inject_cycles(),
            abort_message: None,
        }
    }

    /// One whole run on a fresh simulator from reset.
    fn run_fresh(&self, fault: Fault) -> InjectionResult {
        let mut sim = Sim::new(&self.workload.program, self.cfg.clone());
        self.finish(&mut sim, fault, &[])
    }

    /// [`run_fresh`](Engine::run_fresh) behind a panic boundary: a panicking
    /// run is recorded as [`RunOutcome::SimAbort`] carrying the panic
    /// message. The decision depends only on this run's own behaviour, so
    /// results stay deterministic and thread-count-independent.
    fn run_isolated(&self, fault: Fault) -> InjectionResult {
        isolated(|| self.run_fresh(fault)).unwrap_or_else(|payload| InjectionResult {
            fault,
            outcome: RunOutcome::SimAbort,
            deviation: None,
            output_matches: None,
            cycles: 0,
            post_inject_cycles: 0,
            abort_message: Some(panic_message(payload.as_ref())),
        })
    }

    /// Executes the runs `unit` names, all resuming from `set`'s snapshot
    /// `snap_idx` and sorted ascending by injection cycle, off one shared
    /// fault-free prefix.
    ///
    /// The carrier advances fault-free from the checkpoint; each run whose
    /// fault may be read ([`Engine::never_read`] — one never read takes the
    /// golden's ending unforked) forks off it at the *beginning* of its
    /// injection cycle, arms its fault, and runs to its own end.
    /// [`Sim::step`] applies pending faults at the start of the cycle they
    /// name, so the fork is state-identical to a fresh run that armed the
    /// same fault at reset and simulated forward — the cycles before the
    /// injection cycle are fault-free in both, and the carrier steps under
    /// the engine's one control, the one the run uses. An attempt that panics,
    /// or whose carrier ends before the injection cycle (which a valid
    /// golden run cannot cause), drops both simulators — either may be torn
    /// mid-update — and the run is retried once, fresh
    /// ([`run_isolated`](Engine::run_isolated), `on_retry`). The unit's next
    /// run re-spawns its carrier from the snapshot.
    fn run_batch(
        &self,
        faults: &[Fault],
        unit: &[usize],
        set: &CheckpointSet,
        snap_idx: usize,
        sims: &mut WorkerSims,
    ) -> Vec<(usize, InjectionResult, Duration)> {
        let snap = set.snapshot(snap_idx);
        // Rewind the carrier to the batch's checkpoint in place; a worker
        // with none spawns it from the snapshot in the first attempt.
        let rewound = isolated(|| {
            if let Some(carrier) = sims.carrier.as_mut() {
                carrier.restore_from(snap);
            }
        });
        if rewound.is_err() {
            sims.carrier = None;
        }
        let mut out = Vec::with_capacity(unit.len());
        for &i in unit {
            let (fault, t0) = (faults[i], Instant::now());
            let attempt = isolated(|| {
                let carrier = sims.carrier.get_or_insert_with(|| snap.spawn());
                if carrier.run_to_cycle(fault.cycle, &self.ctl).is_some() {
                    return None; // carrier ended before the injection cycle
                }
                if self.never_read(carrier, fault) {
                    return Some(self.golden_ending(fault, None, fault.cycle));
                }
                if let Some(f) = sims.fork.as_mut() {
                    f.restore_from_sim(carrier);
                }
                let fork = sims.fork.get_or_insert_with(|| carrier.clone());
                Some(self.finish(fork, fault, set.after(fault.cycle)))
            });
            let r = attempt.ok().flatten().unwrap_or_else(|| {
                (sims.carrier, sims.fork) = (None, None);
                self.observer.on_retry(self.ccfg.structure);
                self.run_isolated(fault)
            });
            out.push((i, r, t0.elapsed()));
        }
        out
    }

    /// The worker-pool core: executes every fault of `faults` the journal
    /// does not already hold, appending each fresh result to it, and returns
    /// the results in the order of `faults`.
    fn execute(
        &self,
        faults: &[Fault],
        sink: Option<JournalSink<'_>>,
    ) -> Result<Vec<InjectionResult>, CampaignError> {
        let (observer, ccfg) = (self.observer, self.ccfg);
        if let Some(s) = &sink {
            check_resumed_faults(s.done, faults, s.offset)?;
        }
        observer.on_campaign_start(ccfg.structure, faults.len());

        let mut results: Vec<Option<InjectionResult>> = vec![None; faults.len()];
        if let Some(s) = &sink {
            for (&i, r) in s.done.range(s.offset..s.offset + faults.len()) {
                // Journaled results replay into the tallies without a
                // wall-clock sample (no simulation happens on resume).
                observer.on_resumed(ccfg.structure, r);
                results[i - s.offset] = Some(r.clone());
            }
        }
        let mut pending: Vec<usize> = Vec::with_capacity(faults.len());
        pending.extend((0..faults.len()).filter(|i| results[*i].is_none()));
        // Work in injection-cycle order so consecutive runs on one worker tend
        // to share a checkpoint, and with it a carrier. Results are stored by
        // original index, so the output order (and determinism) is unchanged.
        pending.sort_by_key(|&i| faults[i].cycle);

        // Split the cycle-sorted work into units of consecutive faults
        // resuming from the same checkpoint, capped at the batch size: one
        // carrier each. With no checkpoint set each unit is one fresh run.
        let units: Vec<(usize, &[usize])> = match self.checkpoints {
            Some(set) => {
                let cap = ccfg.batch.max(1);
                let mut units: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
                for (n, &i) in pending.iter().enumerate() {
                    let si = set.nearest_index(faults[i].cycle);
                    match units.last_mut() {
                        Some((s, r)) if *s == si && r.len() < cap => r.end = n + 1,
                        _ => units.push((si, n..n + 1)),
                    }
                }
                units.into_iter().map(|(s, r)| (s, &pending[r])).collect()
            }
            None => pending.chunks(1).map(|unit| (0, unit)).collect(),
        };

        // One resolution of the pool size, shared by the spawn loop below and
        // the worker-count figure telemetry reports. The grain of parallelism
        // is the unit, so a worker beyond the unit count would never get work.
        let workers = ccfg.effective_threads().min(units.len().max(1));
        observer.on_worker_pool(workers);
        let next = AtomicUsize::new(0);
        let slots = Mutex::new(&mut results);
        let journal_err: Mutex<Option<std::io::Error>> = Mutex::new(None);
        let record = |i: usize, r: InjectionResult, elapsed: Duration| {
            observer.on_run(ccfg.structure, &r, elapsed);
            if let Some(s) = &sink {
                if let Err(e) = s.journal.lock().unwrap().append(s.offset + i, &r) {
                    journal_err.lock().unwrap().get_or_insert(e);
                }
            }
            slots.lock().unwrap()[i] = Some(r);
        };

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut sims = WorkerSims::default();
                    loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(snap_idx, unit)) = units.get(n) else {
                            break;
                        };
                        match self.checkpoints {
                            Some(set) => {
                                // Recorded after the batch, not run by run: a
                                // journal append is a syscall, and one between
                                // every two short runs is measurably slower
                                // (`engine_rob_sha_journaled`).
                                let done = self.run_batch(faults, unit, set, snap_idx, &mut sims);
                                for (i, r, elapsed) in done {
                                    record(i, r, elapsed);
                                }
                            }
                            None => {
                                let t0 = Instant::now();
                                let r = self.run_isolated(faults[unit[0]]);
                                record(unit[0], r, t0.elapsed());
                            }
                        }
                    }
                });
            }
        });

        observer.on_campaign_end(ccfg.structure);

        if let Some(e) = journal_err.into_inner().unwrap() {
            return Err(CampaignError::Io(e));
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all faults processed"))
            .collect())
    }
}

/// Runs a full campaign for one (workload, structure) pair.
///
/// Fault sampling is deterministic in `ccfg.seed`; execution is parallel
/// but the result order matches the sampling order, so campaigns are
/// reproducible run-to-run regardless of thread count. Individual simulator
/// failures are isolated and recorded as [`RunOutcome::SimAbort`], so the
/// campaign always returns exactly `ccfg.faults` results.
///
/// Panics if the golden run cannot be sampled or cannot reach its own
/// checkpoints ([`ShardRunner::new`]).
pub fn run_campaign(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
) -> CampaignResult {
    ShardRunner::new(workload, cfg, golden, ccfg).run_all()
}

/// Like [`run_campaign`], but injecting an explicit fault list instead of
/// sampling one from `ccfg.seed` (`ccfg.faults` is ignored). Useful for
/// replaying specific faults — including ill-formed ones, which exercise the
/// engine's panic isolation rather than crashing the campaign.
pub fn run_campaign_with_faults(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
    faults: &[Fault],
) -> CampaignResult {
    ShardRunner::with_faults(workload, cfg, golden, ccfg, faults.to_vec()).run_all()
}

/// Runs a campaign journaled to `path`, resuming any results already on
/// disk.
///
/// Each completed run is appended to the journal as one flushed JSON line,
/// so an interrupted campaign loses at most its in-flight runs. Re-invoking
/// with the same arguments and path resumes: already-journaled results are
/// loaded (tolerating a torn tail), only the missing runs execute, and the
/// returned [`CampaignResult`] is bit-identical to an uninterrupted run. A
/// journal written by a different campaign (workload, structure, seed, mode,
/// burst, fault count, golden length, or microarchitecture config differ) is
/// rejected with [`CampaignError::JournalMismatch`] — as is one whose header
/// matches but whose records name other faults than the key's sampling
/// inputs regenerate, corruption the header check cannot see.
pub fn run_campaign_journaled(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
    path: &Path,
) -> Result<CampaignResult, CampaignError> {
    let faults = sample_faults(ccfg.structure, cfg, golden.cycles, ccfg.faults, ccfg.seed)?;
    let key = CampaignKey::new(workload.name, cfg, golden.cycles, ccfg);
    let (journal, done) = Journal::open(path, &key)?;
    let runner = ShardRunner::with_faults(workload, cfg, golden, ccfg, faults);
    let sink = JournalSink {
        journal: &Mutex::new(journal),
        done: &done,
        offset: 0,
    };
    let results = runner.execute(&runner.faults, None, Some(sink))?;
    Ok(runner.result(results))
}

/// The campaign context and its one executor: the unit of work
/// distribution behind `avgi-grid` and the offline `--shard I/N` mode, and
/// what every campaign entry point of this crate is a constructor over.
///
/// Construction performs the per-campaign setup exactly once — the full
/// fault list is sampled from `ccfg.seed` and the checkpoint set is taken,
/// or the campaign is refused — and
/// [`run_indices`](ShardRunner::run_indices) then executes any subset of
/// that list through the same engine as [`run_campaign`]. Because each
/// injected run is deterministic and independent, the results of a
/// partition of `0..ccfg.faults` concatenated in index order are
/// bit-identical to the unsharded campaign's, regardless of how the
/// indices are split across runners, processes, or machines.
pub struct ShardRunner {
    workload: Workload,
    cfg: MuarchConfig,
    golden: Arc<GoldenRun>,
    ccfg: CampaignConfig,
    faults: Vec<Fault>,
    checkpoints: Option<Arc<CheckpointSet>>,
}

impl ShardRunner {
    /// Samples the campaign's fault list and takes its checkpoint set.
    ///
    /// The runner owns copies of the workload and configuration and a share
    /// of the checkpoint set, so a long-lived worker can cache one runner per
    /// tenant campaign without borrowing from anything. Any observer already
    /// attached to `ccfg` is kept as the default for
    /// [`run_indices`](ShardRunner::run_indices) calls that do not supply
    /// their own.
    ///
    /// Panics if the golden run cannot be sampled or its fault-free prefix
    /// cannot reach its own checkpoints: the campaign runs one way or does
    /// not start.
    pub fn new(
        workload: &Workload,
        cfg: &MuarchConfig,
        golden: &Arc<GoldenRun>,
        ccfg: &CampaignConfig,
    ) -> Self {
        let faults = sample_faults(ccfg.structure, cfg, golden.cycles, ccfg.faults, ccfg.seed)
            .expect("ShardRunner: cannot sample faults from this golden run");
        Self::with_faults(workload, cfg, golden, ccfg, faults)
    }

    /// [`new`](ShardRunner::new) over an explicit fault list. Takes the
    /// checkpoint set `ccfg` asks for ([`CheckpointSet::shared`]);
    /// `checkpoints == 0` asks for fresh runs.
    pub(crate) fn with_faults(
        workload: &Workload,
        cfg: &MuarchConfig,
        golden: &Arc<GoldenRun>,
        ccfg: &CampaignConfig,
        faults: Vec<Fault>,
    ) -> Self {
        let checkpoints = match ccfg.checkpoints {
            0 => None,
            count => Some(CheckpointSet::shared(workload, cfg, golden, count)),
        };
        ShardRunner {
            workload: workload.clone(),
            cfg: cfg.clone(),
            golden: golden.clone(),
            ccfg: ccfg.clone(),
            faults,
            checkpoints,
        }
    }

    /// The full sampled fault list (index space shared by every shard).
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The golden run the shards replay against.
    pub fn golden(&self) -> &Arc<GoldenRun> {
        &self.golden
    }

    /// Wraps results this runner produced as a [`CampaignResult`].
    pub fn result(&self, results: Vec<InjectionResult>) -> CampaignResult {
        CampaignResult::new(self.workload.name, &self.ccfg, self.golden.cycles, results)
    }

    /// One engine invocation over `faults` (the runner's own list, a subset
    /// of it, or one batch of an adaptive schedule). `observer` overrides
    /// the campaign config's for this call.
    pub(crate) fn execute(
        &self,
        faults: &[Fault],
        observer: Option<Arc<dyn CampaignObserver>>,
        sink: Option<JournalSink<'_>>,
    ) -> Result<Vec<InjectionResult>, CampaignError> {
        let engine = Engine {
            workload: &self.workload,
            cfg: &self.cfg,
            golden: &self.golden,
            ccfg: &self.ccfg,
            ctl: control_for(self.ccfg.mode, &self.golden),
            checkpoints: self.checkpoints.as_deref(),
            observer: (observer.as_deref())
                .or(self.ccfg.observer.as_deref())
                .unwrap_or(&NULL_OBSERVER),
        };
        engine.execute(faults, sink)
    }

    fn run_all(self) -> CampaignResult {
        let results = self
            .execute(&self.faults, None, None)
            .expect("journal-free campaign cannot fail");
        self.result(results)
    }

    /// Executes the faults at `indices` (any order, duplicates allowed) and
    /// returns `(index, result)` pairs in the order given.
    ///
    /// `observer` overrides the campaign config's observer for this batch —
    /// a distributed worker attaches a fresh collector per batch so the
    /// batch's telemetry delta can be streamed back and merged. The batch
    /// runs on [`CampaignConfig::effective_threads`] workers like any
    /// campaign.
    pub fn run_indices(
        &self,
        indices: &[usize],
        observer: Option<Arc<dyn CampaignObserver>>,
    ) -> Result<Vec<(usize, InjectionResult)>, CampaignError> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.faults.len()) {
            return Err(CampaignError::ShardIndexOutOfRange {
                index: bad,
                faults: self.faults.len(),
            });
        }
        let subset: Vec<Fault> = indices.iter().map(|&i| self.faults[i]).collect();
        let results = self
            .execute(&subset, observer, None)
            .expect("journal-free shard cannot fail");
        Ok(indices.iter().copied().zip(results).collect())
    }

    /// Executes interleaved shard `index` of `count` (indices `i` with
    /// `i % count == index`) — the offline `--shard I/N` split, which keeps
    /// every shard a uniform subsample of the campaign. Fails with
    /// [`CampaignError::ShardOutOfRange`] unless `index < count`: any other
    /// pair would silently re-run another shard's indices.
    pub fn run_interleaved(
        &self,
        index: usize,
        count: usize,
        observer: Option<Arc<dyn CampaignObserver>>,
    ) -> Result<Vec<(usize, InjectionResult)>, CampaignError> {
        if index >= count {
            return Err(CampaignError::ShardOutOfRange { index, count });
        }
        let indices: Vec<usize> = (index..self.faults.len()).step_by(count).collect();
        self.run_indices(&indices, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avgi_muarch::run::TrapKind;

    fn small_campaign(structure: Structure, mode: RunMode, n: usize) -> CampaignResult {
        let w = avgi_workloads::by_name("sha").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        run_campaign(&w, &cfg, &golden, &CampaignConfig::new(structure, n, mode))
    }

    #[test]
    fn end_to_end_campaign_produces_all_results() {
        let c = small_campaign(Structure::RegFile, RunMode::EndToEnd, 40);
        assert_eq!(c.len(), 40);
        assert!(c.total_post_inject_cycles() > 0);
        assert_eq!(c.aborted_count(), 0);
        // Every completed run reports an output comparison.
        for r in &c.results {
            if r.outcome == RunOutcome::Completed {
                assert!(r.output_matches.is_some());
            }
        }
    }

    /// An ERT window of 0 or 1 closes at the end of the injection cycle —
    /// after the flip — fresh or forked, at any batch size. A run rewound to
    /// a checkpoint used to close a 0-cycle window *before* it, at `cycles
    /// == fault.cycle`: it inherited the snapshot's vacuous "every armed
    /// fault is applied".
    #[test]
    fn a_zero_ert_window_closes_after_the_flip_on_every_path() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        for &structure in Structure::all() {
            for window in [0, 1] {
                let mode = RunMode::FirstDeviation {
                    ert_window: Some(window),
                };
                let base = CampaignConfig::new(structure, 12, mode);
                let run = |checkpoints, batch| {
                    let ccfg = base.clone().with_checkpoints(checkpoints).with_batch(batch);
                    run_campaign(&w, &cfg, &golden, &ccfg).results
                };
                let reference = run(0, 1);
                for r in &reference {
                    let expired = r.outcome == RunOutcome::ErtExpired;
                    assert!(!expired || r.cycles == r.fault.cycle + 1, "{r:?}");
                }
                for (checkpoints, batch) in [(0, 32), (8, 1), (8, 32)] {
                    assert_eq!(
                        run(checkpoints, batch),
                        reference,
                        "{structure:?} window={window} checkpoints={checkpoints} batch={batch}"
                    );
                }
            }
        }
    }

    /// `InjectionResult::under` and `CampaignResult::under` on hand-built
    /// results: the boundaries a sampled campaign may never hit.
    mod under {
        use super::*;

        /// A hand-built run of a flip at cycle 100 that ended with `outcome`
        /// in cycle `cycles`, its first deviating commit in cycle `deviated`.
        fn ended(outcome: RunOutcome, cycles: u64, deviated: Option<u64>) -> InjectionResult {
            use avgi_muarch::fault::FaultSite;
            use avgi_muarch::trace::CommitRecord;
            let record = |cycle, val| CommitRecord {
                cycle,
                pc: 0x40,
                raw: 0x13,
                ea: 0,
                val,
            };
            InjectionResult {
                fault: Fault {
                    site: FaultSite {
                        structure: Structure::RegFile,
                        bit: 3,
                    },
                    cycle: 100,
                },
                outcome,
                deviation: deviated.map(|c| Deviation {
                    index: 7,
                    golden: record(c, 0),
                    faulty: record(c, 1),
                }),
                output_matches: (outcome == RunOutcome::Completed).then_some(deviated.is_none()),
                cycles,
                post_inject_cycles: cycles.saturating_sub(100),
                abort_message: None,
            }
        }

        fn window(w: u64) -> RunMode {
            RunMode::FirstDeviation {
                ert_window: Some(w),
            }
        }

        /// `source` cut to `outcome` in cycle `cycles`, as a projection cuts it.
        fn cut(source: &InjectionResult, outcome: RunOutcome, cycles: u64) -> InjectionResult {
            InjectionResult {
                outcome,
                output_matches: None,
                cycles,
                post_inject_cycles: cycles - source.fault.cycle,
                deviation: source
                    .deviation
                    .filter(|_| outcome != RunOutcome::ErtExpired),
                ..source.clone()
            }
        }

        /// `Sim::step` tests the watchdog before the ERT window, so a window
        /// closing in the cycle the watchdog fires loses to it; one cycle
        /// earlier it wins. Any other ending in cycle `e` loses to the window.
        #[test]
        fn a_window_closing_as_the_watchdog_fires_loses_to_it() {
            let hung = ended(RunOutcome::Watchdog, 1_000, None);
            assert_eq!(hung.under(window(900)), hung);
            let expired = cut(&hung, RunOutcome::ErtExpired, 999);
            assert_eq!(hung.under(window(899)), expired);
            let trapped = ended(
                RunOutcome::Trap(TrapKind::UndefinedInstruction),
                1_000,
                None,
            );
            let expired = cut(&trapped, RunOutcome::ErtExpired, 1_000);
            assert_eq!(trapped.under(window(900)), expired);
            // A deviation before the window still stops a hung run there.
            let hung = ended(RunOutcome::Watchdog, 1_000, Some(300));
            let stopped = cut(&hung, RunOutcome::StoppedAtDeviation, 300);
            assert_eq!(hung.under(window(900)), stopped);
        }

        /// A run that ended in its deviating commit's own cycle (the commit
        /// trapped) keeps its ending under any window that has not closed; one
        /// that ran on is stopped at the deviation; a deviation at or after the
        /// window's close is dropped with the rest of the run.
        #[test]
        fn a_trap_in_the_deviating_commit_keeps_its_outcome() {
            let trap = RunOutcome::Trap(TrapKind::UndefinedInstruction);
            let trapped = ended(trap, 150, Some(150));
            for mode in [RunMode::FirstDeviation { ert_window: None }, window(51)] {
                assert_eq!(trapped.under(mode), trapped, "{mode:?}");
            }
            let expired = cut(&trapped, RunOutcome::ErtExpired, 150);
            assert_eq!(trapped.under(window(50)), expired);
            let ran_on = ended(trap, 151, Some(150));
            let stopped = cut(&ran_on, RunOutcome::StoppedAtDeviation, 150);
            assert_eq!(ran_on.under(window(51)), stopped);
            assert_eq!(stopped.deviation, ran_on.deviation);
            let completed = ended(RunOutcome::Completed, 5_000, Some(400));
            let expired = cut(&completed, RunOutcome::ErtExpired, 400);
            assert_eq!(completed.under(window(300)), expired);
            assert_eq!(expired.deviation, None);
        }

        /// The window opens with the flip: a window of 0 closes, like one of 1,
        /// at the end of the injection cycle.
        #[test]
        fn window_zero_projects_as_window_one() {
            let trap = RunOutcome::Trap(TrapKind::UndefinedInstruction);
            for source in [
                ended(RunOutcome::Completed, 2_000, None),
                ended(RunOutcome::Completed, 2_000, Some(100)),
                ended(RunOutcome::Watchdog, 101, None),
                ended(trap, 100, Some(100)),
                ended(trap, 101, None),
            ] {
                assert_eq!(
                    source.under(window(0)),
                    source.under(window(1)),
                    "{source:?}"
                );
            }
            let expired = ended(RunOutcome::Completed, 2_000, None).under(window(0));
            assert_eq!(
                (expired.outcome, expired.cycles),
                (RunOutcome::ErtExpired, 101)
            );
        }

        /// The golden run commits `halt` in cycle `golden.cycles`, after a
        /// window closing at the end of the cycle before: that window expires,
        /// one closing a cycle later is beaten by the halt.
        #[test]
        fn a_window_closing_at_the_golden_halt_expires() {
            let golden = ended(RunOutcome::Completed, 2_000, None);
            let expired = cut(&golden, RunOutcome::ErtExpired, 2_000);
            assert_eq!(golden.under(window(1_900)), expired);
            assert_eq!(golden.under(window(1_901)), golden);
        }

        #[test]
        fn a_simulator_abort_passes_through_every_mode() {
            let aborted = InjectionResult {
                abort_message: Some("index out of bounds".into()),
                ..ended(RunOutcome::SimAbort, 0, None)
            };
            for mode in [
                RunMode::EndToEnd,
                RunMode::Instrumented,
                RunMode::FirstDeviation { ert_window: None },
                window(0),
                window(30_000),
            ] {
                assert_eq!(aborted.under(mode), aborted, "{mode:?}");
            }
        }

        fn campaign(mode: RunMode) -> CampaignResult {
            CampaignResult {
                workload: "hand-built".into(),
                structure: Structure::RegFile,
                mode,
                golden_cycles: 2_000,
                results: vec![ended(RunOutcome::Completed, 2_000, Some(400))],
            }
        }

        #[test]
        fn a_campaign_projects_to_its_own_mode_and_every_coarser_one() {
            let no_window = RunMode::FirstDeviation { ert_window: None };
            for (from, to) in [
                (RunMode::Instrumented, RunMode::EndToEnd),
                (RunMode::EndToEnd, RunMode::Instrumented),
                (RunMode::EndToEnd, window(200)),
                (no_window, no_window),
                (window(200), window(200)),
                (window(200), window(0)),
            ] {
                assert_eq!(campaign(from).under(to).mode, to);
            }
        }

        #[test]
        #[should_panic(
            expected = "a FirstDeviation { ert_window: Some(200) } campaign cannot be projected to the \
                    finer mode FirstDeviation { ert_window: Some(201) }"
        )]
        fn a_campaign_refuses_a_longer_window() {
            campaign(window(200)).under(window(201));
        }

        #[test]
        #[should_panic(
            expected = "a FirstDeviation { ert_window: None } campaign cannot be projected to the \
                    finer mode EndToEnd"
        )]
        fn a_campaign_refuses_to_run_on_past_a_stop() {
            campaign(RunMode::FirstDeviation { ert_window: None }).under(RunMode::EndToEnd);
        }
    }

    #[test]
    fn watchdog_budget_saturates_instead_of_overflowing() {
        // Pre-fix, `2 * golden_cycles + 20_000` wrapped for huge cycle
        // counts, producing a tiny watchdog that aborted healthy runs.
        assert_eq!(watchdog_budget(100), 20_200);
        assert_eq!(watchdog_budget(u64::MAX), u64::MAX);
        assert_eq!(watchdog_budget(u64::MAX / 2), u64::MAX);
        assert_eq!(watchdog_budget(u64::MAX / 2 - 10_001), u64::MAX - 3);
    }

    #[test]
    fn nearest_index_boundaries() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let mut sim = Sim::new(&w.program, MuarchConfig::big());
        let ctl = RunControl::default();
        let snaps = [10, 100, 250].map(|c| {
            assert!(sim.run_to_cycle(c, &ctl).is_none());
            sim.snapshot()
        });
        let set = CheckpointSet {
            snaps: snaps.to_vec(),
        };
        // Before the first snapshot: clamps to index 0.
        assert_eq!(set.nearest_index(0), 0);
        assert_eq!(set.nearest_index(9), 0);
        // Exactly on a snapshot cycle: that snapshot.
        assert_eq!(set.nearest_index(10), 0);
        assert_eq!(set.nearest_index(100), 1);
        assert_eq!(set.nearest_index(250), 2);
        // Between snapshots: the latest at or before.
        assert_eq!(set.nearest_index(99), 0);
        assert_eq!(set.nearest_index(249), 1);
        // Past the last snapshot: the last index, not one past it.
        assert_eq!(set.nearest_index(251), 2);
        assert_eq!(set.nearest_index(u64::MAX), 2);
        // The snapshots strictly after a cycle.
        assert_eq!(set.after(9).len(), 3);
        assert_eq!(set.after(10).len(), 2);
        assert_eq!(set.after(249).len(), 1);
        assert!(set.after(250).is_empty());
    }

    #[test]
    fn campaigns_are_reproducible_across_thread_counts() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let base = CampaignConfig::new(Structure::RegFile, 30, RunMode::Instrumented);
        let a = run_campaign(
            &w,
            &cfg,
            &golden,
            &CampaignConfig {
                threads: 1,
                ..base.clone()
            },
        );
        let b = run_campaign(&w, &cfg, &golden, &CampaignConfig { threads: 4, ..base });
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.fault, y.fault);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.cycles, y.cycles);
            assert_eq!(x.deviation, y.deviation);
        }
    }

    /// The unit of work, not the run, is the grain of parallelism: sixteen
    /// runs on one checkpoint are one carrier's, so a bigger pool would
    /// spawn threads that never get work. Fresh runs are one unit each.
    #[test]
    fn the_worker_pool_is_sized_by_units_of_work() {
        use crate::telemetry::MetricsCollector;
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        for (checkpoints, workers) in [(1, 1), (0, 4)] {
            let metrics = Arc::new(MetricsCollector::new());
            let ccfg = CampaignConfig {
                threads: 4,
                ..CampaignConfig::new(Structure::RegFile, 16, RunMode::EndToEnd)
            }
            .with_checkpoints(checkpoints)
            .with_observer(metrics.clone());
            assert_eq!(run_campaign(&w, &cfg, &golden, &ccfg).len(), 16);
            assert_eq!(
                metrics.snapshot().workers,
                workers,
                "checkpoints={checkpoints}"
            );
        }
    }

    #[test]
    fn first_deviation_mode_is_never_slower_post_injection() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let n = 30;
        let e2e = run_campaign(
            &w,
            &cfg,
            &golden,
            &CampaignConfig::new(Structure::RegFile, n, RunMode::EndToEnd),
        );
        let avgi = run_campaign(
            &w,
            &cfg,
            &golden,
            &CampaignConfig::new(
                Structure::RegFile,
                n,
                RunMode::FirstDeviation {
                    ert_window: Some(2_000),
                },
            ),
        );
        assert!(avgi.total_post_inject_cycles() <= e2e.total_post_inject_cycles());
    }

    #[test]
    fn rob_faults_never_silently_corrupt() {
        // The check-at-use model: a ROB fault either crashes with an
        // integrity violation before any ISA effect, or is benign.
        let c = small_campaign(Structure::Rob, RunMode::Instrumented, 60);
        for r in &c.results {
            match r.outcome {
                RunOutcome::IntegrityViolation(_) => {
                    assert!(r.deviation.is_none(), "PRE must precede any deviation");
                }
                RunOutcome::Completed => {
                    assert_eq!(r.output_matches, Some(true), "ROB fault silently escaped");
                    assert!(r.deviation.is_none());
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn checkpointed_campaigns_are_bit_identical_to_fresh_runs() {
        // The §IV.B acceleration must not change any observable: same
        // outcomes, cycles, deviations, and output comparisons.
        let w = avgi_workloads::by_name("crc32").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let base = CampaignConfig::new(Structure::L1DData, 40, RunMode::Instrumented).with_seed(77);
        let fresh = run_campaign(&w, &cfg, &golden, &base.clone().with_checkpoints(0));
        let ckpt = run_campaign(&w, &cfg, &golden, &base.with_checkpoints(6));
        for (a, b) in fresh.results.iter().zip(&ckpt.results) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn checkpoint_set_picks_latest_at_or_before() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let set = CheckpointSet::build(&w, &cfg, &golden, 4).unwrap();
        assert_eq!(set.len(), 4);
        let nearest = |cycle| set.snapshot(set.nearest_index(cycle)).cycle();
        assert_eq!(nearest(0), 0);
        let quarter = golden.cycles / 4;
        assert_eq!(nearest(quarter), quarter);
        assert_eq!(nearest(quarter + 1), quarter);
        assert_eq!(nearest(quarter - 1), 0);
        assert!(nearest(golden.cycles) <= golden.cycles);
    }

    /// The checkpoint set a runner holds, if any.
    fn set_of(runner: &ShardRunner) -> Option<&Arc<CheckpointSet>> {
        runner.checkpoints.as_ref()
    }

    fn same_set(a: &ShardRunner, b: &ShardRunner) -> bool {
        matches!((set_of(a), set_of(b)), (Some(x), Some(y)) if Arc::ptr_eq(x, y))
    }

    #[test]
    fn runners_alive_together_share_one_checkpoint_set_per_key() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        // A golden run of this test's own: the table keys by identity, so
        // no other test can hand it a set.
        let golden = golden_for(&w, &cfg);
        let ccfg = |count| {
            CampaignConfig::new(Structure::RegFile, 4, RunMode::EndToEnd).with_checkpoints(count)
        };
        let runner = |cfg: &MuarchConfig, golden: &Arc<GoldenRun>, count| {
            ShardRunner::new(&w, cfg, golden, &ccfg(count))
        };
        let a = runner(&cfg, &golden, 4);
        let b = runner(&cfg, &golden, 4);
        assert!(same_set(&a, &b), "same key, one set");
        assert!(!same_set(&a, &runner(&cfg, &golden, 5)), "another count");
        let twin = Arc::new((*golden).clone());
        assert!(!same_set(&a, &runner(&cfg, &twin, 4)), "another golden Arc");
        // A caller that pairs this golden run with another configuration
        // gets snapshots of that configuration (or none), never these.
        let small = MuarchConfig::small();
        assert!(!same_set(&a, &runner(&small, &golden, 4)), "another config");

        // Held weakly: the last runner frees the set, the next builds anew.
        let held = Arc::downgrade(set_of(&a).unwrap());
        drop((a, b));
        assert!(held.upgrade().is_none(), "freed with its last runner");
        let c = runner(&cfg, &golden, 4);
        assert!(!Weak::ptr_eq(&held, &Arc::downgrade(set_of(&c).unwrap())));
    }

    #[test]
    fn racing_runners_wait_for_one_checkpoint_build() {
        let w = avgi_workloads::by_name("crc32").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let ccfg = CampaignConfig::new(Structure::RegFile, 4, RunMode::EndToEnd);
        let start = std::sync::Barrier::new(8);
        let runners: Vec<ShardRunner> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        ShardRunner::new(&w, &cfg, &golden, &ccfg)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(runners.iter().all(|r| same_set(r, &runners[0])));
    }

    #[test]
    #[should_panic(
        expected = "cannot checkpoint this golden run: fault-free prefix ended (Completed)"
    )]
    fn a_golden_run_that_cannot_reach_its_checkpoints_is_refused() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        // Snapshot points past the program's real end: the prefix halts first.
        let mut stretched = (*golden_for(&w, &cfg)).clone();
        stretched.cycles *= 4;
        let stretched = Arc::new(stretched);
        let ccfg = CampaignConfig::new(Structure::RegFile, 4, RunMode::EndToEnd);
        ShardRunner::new(&w, &cfg, &stretched, &ccfg);
    }

    #[test]
    fn multi_bit_bursts_are_at_least_as_vulnerable() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let single =
            CampaignConfig::new(Structure::RegFile, 60, RunMode::Instrumented).with_seed(11);
        let burst = single.clone().with_burst(4);
        let s = run_campaign(&w, &cfg, &golden, &single);
        let b = run_campaign(&w, &cfg, &golden, &burst);
        let affected = |c: &CampaignResult| {
            c.results
                .iter()
                .filter(|r| {
                    r.deviation.is_some() || r.outcome.is_crash() || r.output_matches == Some(false)
                })
                .count()
        };
        assert!(
            affected(&b) >= affected(&s),
            "wider bursts cannot reduce corruption"
        );
    }

    /// A fault whose bit index is out of range genuinely panics inside the
    /// simulator, exercising the isolation machinery end to end.
    fn poisoned_faults(
        cfg: &MuarchConfig,
        golden_cycles: u64,
        n: usize,
        poison_at: &[usize],
    ) -> Vec<Fault> {
        let mut faults = sample_faults(Structure::RegFile, cfg, golden_cycles, n, 99).unwrap();
        for &i in poison_at {
            faults[i].site.bit = Structure::RegFile.bit_count(cfg) + 1_000_000;
        }
        faults
    }

    #[test]
    fn panicking_runs_are_isolated_and_recorded_as_aborts() {
        use crate::telemetry::MetricsCollector;
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let faults = poisoned_faults(&cfg, golden.cycles, 12, &[2, 7]);
        // A failed fork is retried once, fresh; a run with no checkpoint set
        // is already fresh, so it is not.
        for (checkpoints, retries) in [(8, 2), (0, 0)] {
            let metrics = Arc::new(MetricsCollector::new());
            let ccfg = CampaignConfig::new(Structure::RegFile, 12, RunMode::Instrumented)
                .with_checkpoints(checkpoints)
                .with_observer(metrics.clone());
            let c = run_campaign_with_faults(&w, &cfg, &golden, &ccfg, &faults);
            assert_eq!(c.aborted_count(), 2);
            assert_eq!(
                metrics.snapshot().retries,
                retries,
                "checkpoints={checkpoints}"
            );
        }
        let ccfg = CampaignConfig::new(Structure::RegFile, 12, RunMode::Instrumented);
        let c = run_campaign_with_faults(&w, &cfg, &golden, &ccfg, &faults);
        // Every injection yields a result; the poisoned ones are aborts.
        assert_eq!(c.len(), 12);
        assert_eq!(c.aborted_count(), 2);
        assert!((c.abort_rate() - 2.0 / 12.0).abs() < 1e-12);
        for (i, r) in c.results.iter().enumerate() {
            if i == 2 || i == 7 {
                assert_eq!(r.outcome, RunOutcome::SimAbort);
                assert!(r.outcome.is_crash());
                assert!(
                    r.abort_message.is_some(),
                    "abort must carry its panic message"
                );
                assert_eq!(r.cycles, 0);
            } else {
                assert_ne!(r.outcome, RunOutcome::SimAbort);
                assert!(r.abort_message.is_none());
            }
        }
    }

    #[test]
    fn panic_isolation_is_thread_count_independent() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let faults = poisoned_faults(&cfg, golden.cycles, 10, &[0, 5, 9]);
        let base = CampaignConfig::new(Structure::RegFile, 10, RunMode::Instrumented);
        let a = run_campaign_with_faults(
            &w,
            &cfg,
            &golden,
            &CampaignConfig {
                threads: 1,
                ..base.clone()
            },
            &faults,
        );
        let b = run_campaign_with_faults(
            &w,
            &cfg,
            &golden,
            &CampaignConfig { threads: 4, ..base },
            &faults,
        );
        assert_eq!(a.results, b.results);
        assert_eq!(a.aborted_count(), 3);
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("avgi-journal-{}-{tag}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn journaled_campaign_matches_plain_campaign() {
        let w = avgi_workloads::by_name("crc32").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let ccfg = CampaignConfig::new(Structure::RegFile, 16, RunMode::Instrumented).with_seed(5);
        let reference = run_campaign(&w, &cfg, &golden, &ccfg);
        let path = temp_journal("plain");
        let journaled = run_campaign_journaled(&w, &cfg, &golden, &ccfg, &path).unwrap();
        assert_eq!(journaled.results, reference.results);
        // Re-running against the complete journal executes nothing new and
        // still reproduces the campaign exactly.
        let replay = run_campaign_journaled(&w, &cfg, &golden, &ccfg, &path).unwrap();
        assert_eq!(replay.results, reference.results);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_journal_resumes_bit_identical() {
        let w = avgi_workloads::by_name("crc32").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let ccfg = CampaignConfig::new(Structure::L1DData, 16, RunMode::Instrumented).with_seed(9);
        let reference = run_campaign(&w, &cfg, &golden, &ccfg);
        let path = temp_journal("resume");
        run_campaign_journaled(&w, &cfg, &golden, &ccfg, &path).unwrap();
        // Simulate an interruption: keep the header plus half the records,
        // then a torn partial line (the classic crash artifact).
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        assert_eq!(lines.len(), 1 + 16, "header plus one record per injection");
        let mut truncated: String = lines[..1 + 8].concat();
        truncated.push_str("{\"i\":15,\"fault\":{\"structure\":\"Reg");
        std::fs::write(&path, &truncated).unwrap();
        let resumed = run_campaign_journaled(&w, &cfg, &golden, &ccfg, &path).unwrap();
        assert_eq!(
            resumed.results, reference.results,
            "resume must be bit-identical"
        );
        // The journal self-healed: it is whole again and fully replayable.
        let replay = run_campaign_journaled(&w, &cfg, &golden, &ccfg, &path).unwrap();
        assert_eq!(replay.results, reference.results);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_rejects_a_different_campaign() {
        let w = avgi_workloads::by_name("crc32").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let ccfg = CampaignConfig::new(Structure::RegFile, 8, RunMode::EndToEnd).with_seed(1);
        let path = temp_journal("mismatch");
        run_campaign_journaled(&w, &cfg, &golden, &ccfg, &path).unwrap();
        let other = ccfg.clone().with_seed(2);
        match run_campaign_journaled(&w, &cfg, &golden, &other, &path) {
            Err(CampaignError::JournalMismatch { field: "seed", .. }) => {}
            other => panic!("expected a seed mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journaled_campaign_preserves_aborts_across_resume() {
        // SimAbort results round-trip through the journal like any other
        // outcome: resume does not re-run (or re-panic) them.
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let faults = poisoned_faults(&cfg, golden.cycles, 6, &[1, 4]);
        let ccfg = CampaignConfig::new(Structure::RegFile, 6, RunMode::Instrumented);
        let c = run_campaign_with_faults(&w, &cfg, &golden, &ccfg, &faults);
        for (i, r) in c.results.iter().enumerate() {
            let line = crate::journal::record_line(i, r);
            let (idx, back) = crate::journal::parse_record(line.trim_end()).unwrap();
            assert_eq!(idx, i);
            assert_eq!(&back, r);
        }
    }
}
