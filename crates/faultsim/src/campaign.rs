//! Fault-injection campaigns: one golden capture plus N injected runs,
//! executed across worker threads.
//!
//! The engine is fault-tolerant: a panicking simulator run is isolated with
//! [`std::panic::catch_unwind`], retried once without its checkpoint, and —
//! if it still fails — recorded as [`RunOutcome::SimAbort`] instead of
//! poisoning the whole campaign; an optional per-run wall-clock budget turns
//! runaway runs into [`RunOutcome::WallClockExpired`]. A campaign therefore
//! always yields exactly N classified results. Campaigns can additionally
//! stream results to an on-disk [journal](crate::journal) and resume
//! bit-identically after an interruption ([`run_campaign_journaled`]).

use crate::error::CampaignError;
use crate::journal::{CampaignKey, Journal};
use crate::sampling::{multi_bit_burst, sample_faults};
use crate::telemetry::{CampaignObserver, NullObserver};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::{Fault, Structure};
use avgi_muarch::pipeline::{capture_golden, Sim, Snapshot};
use avgi_muarch::program::Program;
use avgi_muarch::run::{RunControl, RunOutcome, RunReport};
use avgi_muarch::trace::{Deviation, GoldenRun};
use avgi_refmodel::ExecTier;
use avgi_workloads::Workload;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

/// How far each injected run simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Traditional (accelerated) SFI: simulate to the end of the program and
    /// classify the final effect. Pre-injection cycles are skipped by
    /// checkpointing in both flows (§IV.B), so cost is counted post-injection.
    EndToEnd,
    /// Like [`RunMode::EndToEnd`], but additionally records the first
    /// commit-trace deviation — the instrumented runs behind the paper's
    /// §III joint HVF/AVF analysis (and behind weight learning).
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
    /// Per-run wall-clock budget (`None` = unlimited, the default).
    ///
    /// A run that exceeds the budget ends with
    /// [`RunOutcome::WallClockExpired`], which classifies like a watchdog
    /// crash. The clock is polled every
    /// [`avgi_muarch::run::WALL_CHECK_CYCLES`] simulated cycles. Note that a
    /// wall-clock limit is inherently host-speed-dependent: campaigns using
    /// it are *not* guaranteed reproducible run-to-run, which is why the
    /// default leaves it off.
    pub wall_budget: Option<Duration>,
    /// Telemetry observer driven by the engine (`None` = unobserved).
    ///
    /// The observer sees every run — fresh, retried, or replayed from a
    /// journal — see [`CampaignObserver`] for the hook contract. Observation
    /// never changes campaign results; it is excluded from [`std::fmt::Debug`]
    /// output so journal keys and config hashes are unaffected.
    pub observer: Option<Arc<dyn CampaignObserver>>,
    /// Maximum number of runs executed as one shared-prefix batch
    /// (`<= 1` disables batching).
    ///
    /// Consecutive runs (in injection-cycle order) that resume from the same
    /// checkpoint are grouped: one fault-free *carrier* simulator advances
    /// through the golden prefix once, and each injected run forks off it at
    /// its injection cycle via [`Sim::restore_from_sim`] — the prefix between
    /// the checkpoint and the injection cycle is simulated once per batch
    /// instead of once per run (the ZOFI observation, applied
    /// per-checkpoint). Results are bit-identical with and without batching;
    /// like `checkpoints`, the knob only moves cost. Batching is skipped when
    /// checkpointing is disabled or a wall-clock budget is set (the budget is
    /// accounted per whole run, which a shared prefix cannot attribute).
    ///
    /// Excluded from the [`std::fmt::Debug`] identity (journal keys and config
    /// hashes), so journals written at any batch size resume interchangeably.
    pub batch: usize,
    /// Debug-assert mode: differentially verify Masked classifications
    /// against the `avgi-refmodel` architectural reference model.
    ///
    /// When set, the golden run is lockstep-checked against an independent
    /// reference execution before any fault is injected (panicking if the
    /// simulation substrate itself is architecturally wrong), and every
    /// completed injected run whose output matches the golden output — i.e.
    /// every run the campaign classifies Masked — is re-checked against the
    /// reference model's own output bytes. Any violation panics *after* the
    /// engine drains, with the offending faults listed: a violation means
    /// classifications cannot be trusted, not that one run misbehaved.
    ///
    /// Verification never changes campaign results; like `observer` it is
    /// excluded from [`std::fmt::Debug`] output so journal keys and config
    /// hashes are unaffected.
    pub verify_masked: bool,
    /// Which architectural execution tier runs the fault-free verification
    /// work ([`verify_masked`](CampaignConfig::verify_masked) golden
    /// lockstep + reference re-execution). Defaults to [`ExecTier::Fast`],
    /// the pre-decoded interpreter; [`ExecTier::Reference`] selects the
    /// step-at-a-time oracle. The tiers are bit-identical (the `--xtier`
    /// cross-check proves it per campaign), so like `observer` and
    /// `verify_masked` the knob never changes campaign results and is
    /// excluded from [`std::fmt::Debug`] output.
    pub verify_tier: ExecTier,
}

impl std::fmt::Debug for CampaignConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Matches the previously derived output (the observer and the
        // verify_masked debug mode are deliberately omitted: they carry no
        // campaign identity).
        f.debug_struct("CampaignConfig")
            .field("structure", &self.structure)
            .field("faults", &self.faults)
            .field("seed", &self.seed)
            .field("mode", &self.mode)
            .field("threads", &self.threads)
            .field("burst_width", &self.burst_width)
            .field("checkpoints", &self.checkpoints)
            .field("wall_budget", &self.wall_budget)
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
            wall_budget: None,
            batch: 32,
            observer: None,
            verify_masked: false,
            verify_tier: ExecTier::Fast,
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

    /// Sets the per-run wall-clock budget.
    pub fn with_wall_budget(mut self, budget: Duration) -> Self {
        self.wall_budget = Some(budget);
        self
    }

    /// Sets the shared-prefix batch size (`<= 1` disables batching).
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

    /// Enables reference-model verification of Masked classifications (see
    /// [`CampaignConfig::verify_masked`]).
    pub fn with_masked_verification(mut self) -> Self {
        self.verify_masked = true;
        self
    }

    /// Selects the architectural tier for fault-free verification work (see
    /// [`CampaignConfig::verify_tier`]).
    pub fn with_verify_tier(mut self, tier: ExecTier) -> Self {
        self.verify_tier = tier;
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
/// cycle and produces exactly the results of an uninterrupted run. Workers
/// reuse one scratch [`Sim`] per thread and rewind it with
/// [`Sim::restore_from`], so per-run setup is O(dirty state) rather than a
/// full machine copy.
#[derive(Debug, Clone)]
pub struct CheckpointSet {
    cycles: Vec<u64>,
    snaps: Vec<Snapshot>,
}

impl CheckpointSet {
    /// Builds `count` snapshots (cycle 0 plus `count - 1` evenly spaced
    /// points of the golden execution).
    ///
    /// Fails with [`CampaignError::CheckpointPrefixEnded`] if the fault-free
    /// prefix terminates before a snapshot point (a sign of a golden run
    /// captured under a different configuration); [`run_campaign`] degrades
    /// to checkpoint-free execution when it hits this.
    pub fn build(
        workload: &Workload,
        cfg: &MuarchConfig,
        golden: &Arc<GoldenRun>,
        count: u32,
    ) -> Result<Self, CampaignError> {
        let ctl = RunControl {
            max_cycles: watchdog(golden.cycles),
            golden: Some(golden.clone()),
            ..Default::default()
        };
        let mut sim = Sim::new(&workload.program, cfg.clone());
        let mut cycles = Vec::with_capacity(count.max(1) as usize);
        let mut snaps = Vec::with_capacity(count.max(1) as usize);
        cycles.push(0);
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
            cycles.push(target);
            snaps.push(sim.snapshot());
        }
        Ok(CheckpointSet { cycles, snaps })
    }

    /// The latest snapshot at or before `cycle`, ready to spawn or rewind a
    /// scratch simulator.
    pub fn nearest(&self, cycle: u64) -> &Snapshot {
        &self.snaps[self.nearest_index(cycle)]
    }

    /// Index of the latest snapshot at or before `cycle` — the batching key:
    /// runs sharing an index can share one fault-free carrier.
    pub fn nearest_index(&self, cycle: u64) -> usize {
        match self.cycles.binary_search(&cycle) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
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
    /// Non-fatal degradations the engine worked around (e.g. checkpoint
    /// construction failing and the campaign falling back to fresh runs).
    pub warnings: Vec<String>,
}

impl CampaignResult {
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

    /// Number of runs that exceeded the per-run wall-clock budget.
    pub fn wall_expired_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome == RunOutcome::WallClockExpired)
            .count()
    }
}

/// Captures the golden run for a workload (convenience wrapper with the
/// standard watchdog).
pub fn golden_for(workload: &Workload, cfg: &MuarchConfig) -> Arc<GoldenRun> {
    capture_golden(&workload.program, cfg, 50_000_000)
}

/// Cycle budget an injected run gets before it is declared hung: twice the
/// golden duration plus slack for short runs. Saturating — an adversarially
/// long golden run must clamp to `u64::MAX`, not wrap around to a tiny
/// budget that would misclassify every run as a hang.
pub fn watchdog_budget(golden_cycles: u64) -> u64 {
    golden_cycles.saturating_mul(2).saturating_add(20_000)
}

fn watchdog(golden_cycles: u64) -> u64 {
    watchdog_budget(golden_cycles)
}

/// Architectural oracle backing [`CampaignConfig::verify_masked`].
///
/// Built once per campaign: construction runs the workload on the
/// `avgi-refmodel` interpreter of the configured
/// [`verify_tier`](CampaignConfig::verify_tier) — the pre-decoded fast tier
/// by default — and lockstep-verifies the golden pipeline capture against
/// it, panicking immediately on any divergence —
/// if the fault-free substrate is architecturally wrong, every
/// classification derived from it is garbage.
///
/// Per-run checks only *record* violations (engine workers run inside
/// `catch_unwind`, where a panic would be silently folded into a
/// [`RunOutcome::SimAbort`]); [`MaskedOracle::assert_clean`] panics with the
/// collected list after the engine drains.
struct MaskedOracle {
    /// Output bytes of the independent reference execution.
    expected: Vec<u8>,
    /// The program, kept for post-ERT tail completion.
    program: Program,
    /// Pre-decoded block cache shared by every tail completion — built once
    /// per campaign, like the fast tier's other consumers.
    cache: Arc<avgi_refmodel::BlockCache>,
    violations: Mutex<Vec<String>>,
}

impl MaskedOracle {
    fn new(workload: &Workload, golden: &Arc<GoldenRun>, tier: ExecTier) -> Self {
        if let Err(d) = avgi_refmodel::verify_golden_tier(&workload.program, golden, tier) {
            panic!(
                "verify_masked: golden run of `{}` fails architectural lockstep:\n{d}",
                workload.name
            );
        }
        let (model, run) = avgi_refmodel::reference_run_tier(&workload.program, tier, 0);
        assert_eq!(
            run.outcome,
            Some(avgi_refmodel::RefOutcome::Completed),
            "verify_masked: reference model did not complete `{}`",
            workload.name
        );
        MaskedOracle {
            expected: model.output(),
            program: workload.program.clone(),
            cache: Arc::new(avgi_refmodel::BlockCache::build(&workload.program)),
            violations: Mutex::new(Vec::new()),
        }
    }

    /// Re-check a completed injected run: a run whose output matches the
    /// golden output (and will therefore classify Masked) must also match
    /// the reference model's independently computed bytes.
    fn check_completed(&self, fault: &Fault, output: &[u8], golden_output: &[u8]) {
        if output == golden_output && output != self.expected {
            self.violations.lock().unwrap().push(format!(
                "fault {fault:?}: output matches golden but not the reference model"
            ));
        }
    }

    /// Re-check an `ErtExpired` run: the window elapsed with no deviation,
    /// so the run will classify Benign on the strength of its deviation-free
    /// commit prefix. Completing that prefix's *architectural tail* on the
    /// fast tier (the commits the ERT stop skipped) must reach `Completed`
    /// with the reference output — otherwise the committed count and the
    /// no-deviation claim are inconsistent with the architectural program.
    /// This validates the classification's internal consistency, not the
    /// ERT approximation itself (a latent fault past its residency is
    /// Benign by the paper's §V.A definition).
    fn check_ert_expired(&self, fault: &Fault, report: &RunReport) {
        if report.first_deviation.is_some() {
            return; // deviated runs are classified by the deviation, not ERT
        }
        let mut tail = avgi_refmodel::FastModel::with_cache(&self.program, self.cache.clone());
        let prefix = tail.run(report.stats.committed);
        if prefix.outcome.is_some() || prefix.steps != report.stats.committed {
            self.violations.lock().unwrap().push(format!(
                "fault {fault:?}: ERT stop after {} commits, but the reference program ends \
                 ({:?}) at step {}",
                report.stats.committed, prefix.outcome, prefix.steps
            ));
            return;
        }
        let end = tail.run(avgi_refmodel::DEFAULT_MAX_STEPS);
        if end.outcome != Some(avgi_refmodel::RefOutcome::Completed)
            || tail.output() != self.expected
        {
            self.violations.lock().unwrap().push(format!(
                "fault {fault:?}: post-ERT architectural tail does not complete with the \
                 reference output (outcome {:?} after {} steps)",
                end.outcome, end.steps
            ));
        }
    }

    fn assert_clean(&self, workload: &Workload) {
        let violations = self.violations.lock().unwrap();
        assert!(
            violations.is_empty(),
            "verify_masked: {} run(s) of `{}` classified Masked are not architecturally \
             equivalent to the reference execution:\n{}",
            violations.len(),
            workload.name,
            violations.join("\n")
        );
    }
}

/// Executes one injected run.
pub fn run_one(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    fault: Fault,
    mode: RunMode,
    burst_width: u32,
) -> InjectionResult {
    run_one_inner(
        workload,
        cfg,
        golden,
        fault,
        mode,
        burst_width,
        None,
        &mut None,
        None,
        None,
    )
}

/// Executes one injected run, resuming from a checkpoint when one is
/// available at or before the injection cycle.
pub fn run_one_from(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    fault: Fault,
    mode: RunMode,
    burst_width: u32,
    checkpoints: &CheckpointSet,
) -> InjectionResult {
    run_one_inner(
        workload,
        cfg,
        golden,
        fault,
        mode,
        burst_width,
        None,
        &mut None,
        Some(checkpoints),
        None,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_one_inner(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    fault: Fault,
    mode: RunMode,
    burst_width: u32,
    wall_budget: Option<Duration>,
    scratch: &mut Option<Sim>,
    checkpoints: Option<&CheckpointSet>,
    oracle: Option<&MaskedOracle>,
) -> InjectionResult {
    // Checkpointed runs reuse the caller's scratch simulator, rewinding it
    // in place (O(dirty state), allocation-free after the first run) instead
    // of cloning a full machine image per injection.
    let mut fresh;
    let sim: &mut Sim = match checkpoints {
        Some(set) => {
            let snap = set.nearest(fault.cycle);
            let had = scratch.is_some();
            let s = scratch.get_or_insert_with(|| snap.spawn());
            if had {
                s.restore_from(snap);
            }
            s
        }
        None => {
            fresh = Sim::new(&workload.program, cfg.clone());
            &mut fresh
        }
    };
    inject_burst(sim, fault, burst_width, cfg);
    let ctl = control_for(mode, golden, wall_budget);
    let report = sim.run(&ctl);
    if let Some(oracle) = oracle {
        if let Some(output) = report.output.as_ref() {
            oracle.check_completed(&fault, output, &golden.output);
        }
        if report.outcome == RunOutcome::ErtExpired {
            oracle.check_ert_expired(&fault, &report);
        }
    }
    InjectionResult {
        fault,
        outcome: report.outcome,
        deviation: report.first_deviation,
        output_matches: report.output.as_ref().map(|o| *o == golden.output),
        cycles: report.cycles,
        post_inject_cycles: report.post_inject_cycles(),
        abort_message: None,
    }
}

/// Arms `fault` (or its spatial burst) on a simulator.
fn inject_burst(sim: &mut Sim, fault: Fault, burst_width: u32, cfg: &MuarchConfig) {
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

/// The run control a mode prescribes — used identically by whole injected
/// runs and by the fault-free carrier advance of the batched engine, so a
/// forked run's state evolution cannot differ from an unbatched run's.
fn control_for(
    mode: RunMode,
    golden: &Arc<GoldenRun>,
    wall_budget: Option<Duration>,
) -> RunControl {
    match mode {
        RunMode::EndToEnd | RunMode::Instrumented => RunControl {
            max_cycles: watchdog(golden.cycles),
            golden: Some(golden.clone()),
            wall_budget,
            ..Default::default()
        },
        RunMode::FirstDeviation { ert_window } => RunControl {
            max_cycles: watchdog(golden.cycles),
            golden: Some(golden.clone()),
            stop_at_first_deviation: true,
            ert_window,
            wall_budget,
            ..Default::default()
        },
    }
}

thread_local! {
    /// Set while this thread executes an isolated run, so the process-wide
    /// panic hook can suppress the default backtrace spew for panics the
    /// engine catches and records anyway.
    static IN_ISOLATED_RUN: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_ISOLATED_RUN.with(Cell::get) {
                prev(info);
            }
        }));
    });
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

/// Executes one injected run behind a panic boundary.
///
/// A panicking run is retried once *without* its checkpoint (a corrupt or
/// mismatched snapshot is the most likely infrastructure cause); if the
/// retry also panics — or checkpointing was not in use — the run is
/// recorded as [`RunOutcome::SimAbort`] carrying the panic message. The
/// decision depends only on this run's own behaviour, so results stay
/// deterministic and thread-count-independent. A panic also discards the
/// worker's scratch simulator: it may have been torn mid-restore, and the
/// next run re-spawns a clean one from its checkpoint.
#[allow(clippy::too_many_arguments)]
fn run_one_isolated(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    fault: Fault,
    mode: RunMode,
    burst_width: u32,
    wall_budget: Option<Duration>,
    scratch: &mut Option<Sim>,
    checkpoints: Option<&CheckpointSet>,
    structure: Structure,
    observer: &dyn CampaignObserver,
    oracle: Option<&MaskedOracle>,
) -> InjectionResult {
    install_quiet_panic_hook();
    let attempt = |ckpt: Option<&CheckpointSet>, scratch: &mut Option<Sim>| {
        IN_ISOLATED_RUN.with(|f| f.set(true));
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_one_inner(
                workload,
                cfg,
                golden,
                fault,
                mode,
                burst_width,
                wall_budget,
                scratch,
                ckpt,
                oracle,
            )
        }));
        IN_ISOLATED_RUN.with(|f| f.set(false));
        r
    };
    let payload = match attempt(checkpoints, scratch) {
        Ok(r) => return r,
        Err(p) => {
            *scratch = None;
            p
        }
    };
    let payload = if checkpoints.is_some() {
        // Graceful degradation: retry once from a fresh simulator.
        observer.on_retry(structure);
        match attempt(None, &mut None) {
            Ok(r) => return r,
            Err(p) => p,
        }
    } else {
        payload
    };
    InjectionResult {
        fault,
        outcome: RunOutcome::SimAbort,
        deviation: None,
        output_matches: None,
        cycles: 0,
        post_inject_cycles: 0,
        abort_message: Some(panic_message(payload.as_ref())),
    }
}

/// Per-worker simulators of the batched engine, kept across batches so the
/// carrier stays on the journaled-restore fast path while consecutive
/// batches share a checkpoint.
#[derive(Default)]
struct BatchWorker {
    /// Fault-free simulator advanced through the golden prefix.
    carrier: Option<Sim>,
    /// Reusable fork target, rewound to the carrier per run.
    fork: Option<Sim>,
    /// Scratch for the non-batched fallback path (`run_one_isolated`).
    scratch: Option<Sim>,
}

/// Executes one shared-prefix batch: all faults resume from `snap`, sorted
/// ascending by injection cycle.
///
/// The carrier advances fault-free from the checkpoint; each run forks off
/// it at the *beginning* of its injection cycle, arms its fault, and runs to
/// its own end. [`Sim::step`] applies pending faults at the start of the
/// cycle they name, so a fork positioned at the beginning of `fault.cycle`
/// with the fault newly armed is state-identical to an unbatched scratch
/// that restored at the checkpoint, armed the same fault, and simulated
/// forward — the intervening cycles are fault-free in both, and the carrier
/// advances under the exact [`control_for`] the unbatched run would use.
/// Any panic (or a carrier that terminates before an injection cycle, which
/// a valid golden run cannot cause) drops the batch simulators and falls
/// back to [`run_one_isolated`] per remaining run, preserving the unbatched
/// engine's retry/abort semantics exactly.
#[allow(clippy::too_many_arguments)]
fn run_shared_prefix_batch(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
    batch: &[(usize, Fault)],
    snap: &Snapshot,
    worker: &mut BatchWorker,
    checkpoints: &CheckpointSet,
    observer: &dyn CampaignObserver,
    oracle: Option<&MaskedOracle>,
) -> Vec<(usize, InjectionResult, Duration)> {
    install_quiet_panic_hook();
    let prefix_ctl = control_for(ccfg.mode, golden, None);
    let guarded = |f: &mut dyn FnMut() -> Option<InjectionResult>| {
        IN_ISOLATED_RUN.with(|flag| flag.set(true));
        let r = catch_unwind(AssertUnwindSafe(f));
        IN_ISOLATED_RUN.with(|flag| flag.set(false));
        r
    };

    // Position the carrier at the batch's checkpoint (journaled restore when
    // the previous batch used the same snapshot).
    let mut carrier_ok = {
        let carrier = &mut worker.carrier;
        guarded(&mut || {
            let had = carrier.is_some();
            let c = carrier.get_or_insert_with(|| snap.spawn());
            if had {
                c.restore_from(snap);
            }
            None
        })
        .is_ok()
    };
    if !carrier_ok {
        worker.carrier = None;
    }

    let mut out = Vec::with_capacity(batch.len());
    for &(index, fault) in batch {
        let t0 = Instant::now();
        let mut batched: Option<InjectionResult> = None;
        if carrier_ok {
            let carrier = worker.carrier.as_mut().expect("carrier_ok implies carrier");
            let fork = &mut worker.fork;
            let attempt = guarded(&mut || {
                if carrier.run_to_cycle(fault.cycle, &prefix_ctl).is_some() {
                    return None; // carrier ended before the injection cycle
                }
                let had = fork.is_some();
                let f = fork.get_or_insert_with(|| carrier.clone());
                if had {
                    f.restore_from_sim(carrier);
                }
                inject_burst(f, fault, ccfg.burst_width, cfg);
                let report = f.run(&control_for(ccfg.mode, golden, ccfg.wall_budget));
                if let Some(oracle) = oracle {
                    if let Some(output) = report.output.as_ref() {
                        oracle.check_completed(&fault, output, &golden.output);
                    }
                    if report.outcome == RunOutcome::ErtExpired {
                        oracle.check_ert_expired(&fault, &report);
                    }
                }
                Some(InjectionResult {
                    fault,
                    outcome: report.outcome,
                    deviation: report.first_deviation,
                    output_matches: report.output.as_ref().map(|o| *o == golden.output),
                    cycles: report.cycles,
                    post_inject_cycles: report.post_inject_cycles(),
                    abort_message: None,
                })
            });
            match attempt {
                Ok(Some(r)) => batched = Some(r),
                Ok(None) => carrier_ok = false,
                Err(_) => {
                    // The panic may have torn either simulator mid-update;
                    // drop both and finish the batch on the fallback path
                    // (which re-attempts this fault and owns the retry/abort
                    // decision, exactly as the unbatched engine would).
                    worker.carrier = None;
                    worker.fork = None;
                    carrier_ok = false;
                }
            }
        }
        let r = batched.unwrap_or_else(|| {
            run_one_isolated(
                workload,
                cfg,
                golden,
                fault,
                ccfg.mode,
                ccfg.burst_width,
                ccfg.wall_budget,
                &mut worker.scratch,
                Some(checkpoints),
                ccfg.structure,
                observer,
                oracle,
            )
        });
        out.push((index, r, t0.elapsed()));
    }
    out
}

/// Runs a full campaign for one (workload, structure) pair.
///
/// Fault sampling is deterministic in `ccfg.seed`; execution is parallel
/// but the result order matches the sampling order, so campaigns are
/// reproducible run-to-run regardless of thread count (unless a wall-clock
/// budget is set). Individual simulator failures are isolated and recorded
/// as [`RunOutcome::SimAbort`], so the campaign always returns exactly
/// `ccfg.faults` results.
pub fn run_campaign(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
) -> CampaignResult {
    let faults = sample_faults(ccfg.structure, cfg, golden.cycles, ccfg.faults, ccfg.seed)
        .expect("run_campaign: cannot sample faults from this golden run");
    run_campaign_with_faults(workload, cfg, golden, ccfg, &faults)
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
    let (checkpoints, mut warnings) = build_checkpoints(workload, cfg, golden, ccfg);
    let (results, engine_warnings) = run_campaign_engine(
        workload,
        cfg,
        golden,
        ccfg,
        faults,
        BTreeMap::new(),
        None,
        0,
        checkpoints.as_ref(),
    )
    .expect("journal-free campaign cannot fail");
    warnings.extend(engine_warnings);
    CampaignResult {
        workload: workload.name.to_string(),
        structure: ccfg.structure,
        mode: ccfg.mode,
        golden_cycles: golden.cycles,
        results,
        warnings,
    }
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
/// rejected with [`CampaignError::JournalMismatch`].
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
    // The key already pins the sampling inputs, so journaled faults must
    // match the freshly sampled list; a mismatch means the journal is
    // corrupt in a way the header check could not see.
    for (&i, r) in &done {
        if r.fault != faults[i] {
            return Err(CampaignError::JournalMismatch {
                field: "fault",
                expected: format!("{:?}", faults[i]),
                found: format!("{:?}", r.fault),
            });
        }
    }
    let journal = Mutex::new(journal);
    let (checkpoints, mut warnings) = build_checkpoints(workload, cfg, golden, ccfg);
    let (results, engine_warnings) = run_campaign_engine(
        workload,
        cfg,
        golden,
        ccfg,
        &faults,
        done,
        Some(&journal),
        0,
        checkpoints.as_ref(),
    )?;
    warnings.extend(engine_warnings);
    Ok(CampaignResult {
        workload: workload.name.to_string(),
        structure: ccfg.structure,
        mode: ccfg.mode,
        golden_cycles: golden.cycles,
        results,
        warnings,
    })
}

/// A reusable shard executor: the unit of work distribution behind
/// `avgi-grid` and the offline `--shard I/N` mode.
///
/// Construction performs the per-campaign setup exactly once — the full
/// fault list is sampled from `ccfg.seed` and the checkpoint set is built —
/// and [`run_indices`](ShardRunner::run_indices) then executes any subset
/// of that list through the same engine as [`run_campaign`]. Because each
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
    checkpoints: Option<CheckpointSet>,
    warnings: Vec<String>,
}

impl ShardRunner {
    /// Samples the campaign's fault list and builds its checkpoint set.
    ///
    /// The runner owns copies of the workload and configuration (both are
    /// cheap to clone next to the checkpoint set), so a long-lived worker
    /// can cache one runner per tenant campaign without borrowing from
    /// anything. Any observer already attached to `ccfg` is kept as the
    /// default for [`run_indices`](ShardRunner::run_indices) calls that do
    /// not supply their own.
    pub fn new(
        workload: &Workload,
        cfg: &MuarchConfig,
        golden: &Arc<GoldenRun>,
        ccfg: &CampaignConfig,
    ) -> Self {
        let faults = sample_faults(ccfg.structure, cfg, golden.cycles, ccfg.faults, ccfg.seed)
            .expect("ShardRunner: cannot sample faults from this golden run");
        let (checkpoints, warnings) = build_checkpoints(workload, cfg, golden, ccfg);
        ShardRunner {
            workload: workload.clone(),
            cfg: cfg.clone(),
            golden: golden.clone(),
            ccfg: ccfg.clone(),
            faults,
            checkpoints,
            warnings,
        }
    }

    /// The full sampled fault list (index space shared by every shard).
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Setup degradations (e.g. checkpointing disabled).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The golden run the shards replay against.
    pub fn golden(&self) -> &Arc<GoldenRun> {
        &self.golden
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
        let mut ccfg = self.ccfg.clone();
        if observer.is_some() {
            ccfg.observer = observer;
        }
        let (results, _) = run_campaign_engine(
            &self.workload,
            &self.cfg,
            &self.golden,
            &ccfg,
            &subset,
            BTreeMap::new(),
            None,
            0,
            self.checkpoints.as_ref(),
        )
        .expect("journal-free shard cannot fail");
        Ok(indices.iter().copied().zip(results).collect())
    }

    /// Executes interleaved shard `index` of `count` (indices `i` with
    /// `i % count == index`) — the offline `--shard I/N` split, which keeps
    /// every shard a uniform subsample of the campaign.
    pub fn run_interleaved(
        &self,
        index: usize,
        count: usize,
        observer: Option<Arc<dyn CampaignObserver>>,
    ) -> Result<Vec<(usize, InjectionResult)>, CampaignError> {
        let indices: Vec<usize> = (index..self.faults.len()).step_by(count.max(1)).collect();
        self.run_indices(&indices, observer)
    }
}

/// Builds the checkpoint set a campaign configuration asks for, degrading
/// to checkpoint-free execution (with a warning) when the golden prefix
/// cannot support it.
pub(crate) fn build_checkpoints(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
) -> (Option<CheckpointSet>, Vec<String>) {
    if ccfg.checkpoints == 0 {
        return (None, Vec::new());
    }
    match CheckpointSet::build(workload, cfg, golden, ccfg.checkpoints) {
        Ok(set) => (Some(set), Vec::new()),
        Err(e) => (
            None,
            vec![format!("checkpointing disabled, running fresh: {e}")],
        ),
    }
}

/// The shared worker-pool core: executes every fault not already in `done`,
/// optionally appending each fresh result to a journal, and returns results
/// in sampling order plus any degradation warnings. Checkpoints are built
/// by the caller (see [`build_checkpoints`]) so shard runners can reuse one
/// set across many engine invocations. Journal records are written at
/// `journal_offset + i` — the adaptive driver runs one engine invocation
/// per batch against a single campaign-global journal, so local batch
/// indices must be rebased before they hit the disk format.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_campaign_engine(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
    faults: &[Fault],
    done: BTreeMap<usize, InjectionResult>,
    journal: Option<&Mutex<Journal>>,
    journal_offset: usize,
    checkpoints: Option<&CheckpointSet>,
) -> Result<(Vec<InjectionResult>, Vec<String>), CampaignError> {
    static NULL_OBSERVER: NullObserver = NullObserver;
    let observer: &dyn CampaignObserver = ccfg.observer.as_deref().unwrap_or(&NULL_OBSERVER);
    // Built before any injection: construction lockstep-verifies the golden
    // run against the reference model and panics if the substrate is wrong.
    let oracle = ccfg
        .verify_masked
        .then(|| MaskedOracle::new(workload, golden, ccfg.verify_tier));
    observer.on_campaign_start(ccfg.structure, faults.len());

    let mut warnings = Vec::new();
    let mut results: Vec<Option<InjectionResult>> = vec![None; faults.len()];
    for (i, r) in done {
        // Journaled results replay into the tallies without a wall-clock
        // sample (no simulation happens on resume).
        observer.on_resumed(ccfg.structure, &r);
        results[i] = Some(r);
    }
    let mut pending: Vec<usize> = Vec::with_capacity(faults.len());
    pending.extend((0..faults.len()).filter(|i| results[*i].is_none()));
    // Work in injection-cycle order so consecutive runs on one worker tend
    // to share a checkpoint, keeping the scratch simulator on the fast
    // journaled-restore path. Results are stored by original index, so the
    // output order (and determinism) is unchanged.
    pending.sort_by_key(|&i| faults[i].cycle);

    // Shared-prefix batching: split the cycle-sorted work into runs of
    // consecutive faults resuming from the same checkpoint, capped at the
    // configured batch size. With batching disabled (or inapplicable), each
    // unit is a single run on the classic scratch path.
    let batch_set = (ccfg.batch > 1 && ccfg.wall_budget.is_none())
        .then_some(checkpoints)
        .flatten();
    if ccfg.batch > 1 && batch_set.is_none() {
        // Batching was requested but cannot apply — without this warning the
        // campaign silently falls off a perf cliff with no way to tell which
        // execution path it actually got.
        let reason = if ccfg.wall_budget.is_some() {
            "a wall-clock budget is set (per-run accounting cannot share a prefix)"
        } else {
            "no checkpoint set is available"
        };
        warnings.push(format!(
            "shared-prefix batching disabled (batch = {}): {reason}",
            ccfg.batch
        ));
        observer.on_batching_disabled(reason);
    }
    let units: Vec<(usize, &[usize])> = match batch_set {
        Some(set) => {
            let mut units: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
            for (n, &i) in pending.iter().enumerate() {
                let si = set.nearest_index(faults[i].cycle);
                match units.last_mut() {
                    Some((s, r)) if *s == si && r.len() < ccfg.batch => r.end = n + 1,
                    _ => units.push((si, n..n + 1)),
                }
            }
            units.into_iter().map(|(s, r)| (s, &pending[r])).collect()
        }
        None => pending
            .iter()
            .enumerate()
            .map(|(n, _)| (0, &pending[n..n + 1]))
            .collect(),
    };

    // One resolution of the pool size, shared by the spawn loop below and
    // the worker-count figure telemetry reports.
    let workers = ccfg.effective_threads().min(pending.len().max(1));
    observer.on_worker_pool(workers);
    let next = AtomicUsize::new(0);
    let sink = Mutex::new(&mut results);
    let journal_err: Mutex<Option<std::io::Error>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Per-worker simulators, rewound between runs and batches.
                let mut worker = BatchWorker::default();
                let record = |i: usize, r: InjectionResult, elapsed: Duration| {
                    observer.on_run(ccfg.structure, &r, elapsed);
                    if let Some(j) = journal {
                        if let Err(e) = j.lock().unwrap().append(journal_offset + i, &r) {
                            journal_err.lock().unwrap().get_or_insert(e);
                        }
                    }
                    sink.lock().unwrap()[i] = Some(r);
                };
                loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= units.len() {
                        break;
                    }
                    let (snap_idx, unit) = &units[n];
                    match batch_set {
                        Some(set) => {
                            let batch: Vec<(usize, Fault)> =
                                unit.iter().map(|&i| (i, faults[i])).collect();
                            for (i, r, elapsed) in run_shared_prefix_batch(
                                workload,
                                cfg,
                                golden,
                                ccfg,
                                &batch,
                                set.snapshot(*snap_idx),
                                &mut worker,
                                set,
                                observer,
                                oracle.as_ref(),
                            ) {
                                record(i, r, elapsed);
                            }
                        }
                        None => {
                            let i = unit[0];
                            let t0 = Instant::now();
                            let r = run_one_isolated(
                                workload,
                                cfg,
                                golden,
                                faults[i],
                                ccfg.mode,
                                ccfg.burst_width,
                                ccfg.wall_budget,
                                &mut worker.scratch,
                                checkpoints,
                                ccfg.structure,
                                observer,
                                oracle.as_ref(),
                            );
                            record(i, r, t0.elapsed());
                        }
                    }
                }
            });
        }
    });

    observer.on_campaign_end(ccfg.structure);

    // Outside the workers' catch_unwind isolation: a violation here must be
    // loud, not folded into a SimAbort tally.
    if let Some(oracle) = &oracle {
        oracle.assert_clean(workload);
    }

    if let Some(e) = journal_err.into_inner().unwrap() {
        return Err(CampaignError::Io(e));
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("all faults processed"))
        .collect();
    Ok((results, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(c.wall_expired_count(), 0);
        assert!(c.warnings.is_empty());
        // Every completed run reports an output comparison.
        for r in &c.results {
            if r.outcome == RunOutcome::Completed {
                assert!(r.output_matches.is_some());
            }
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
        let set = CheckpointSet {
            cycles: vec![10, 100, 250],
            snaps: Vec::new(),
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
    }

    #[test]
    fn batching_disablement_is_reported_not_silent() {
        use crate::telemetry::MetricsCollector;
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);

        // A wall budget forces per-run accounting; batching cannot engage.
        let metrics = Arc::new(MetricsCollector::new());
        let ccfg = CampaignConfig::new(Structure::RegFile, 8, RunMode::EndToEnd)
            .with_wall_budget(Duration::from_secs(3_600))
            .with_observer(metrics.clone());
        assert!(ccfg.batch > 1, "batching is on by default");
        let c = run_campaign(&w, &cfg, &golden, &ccfg);
        assert_eq!(c.len(), 8);
        assert!(
            c.warnings
                .iter()
                .any(|w| w.contains("batching disabled") && w.contains("wall-clock budget")),
            "expected a batching warning, got {:?}",
            c.warnings
        );
        assert_eq!(metrics.snapshot().batching_disabled, 1);

        // No checkpoints at all: same counter, different reason.
        let metrics = Arc::new(MetricsCollector::new());
        let ccfg = CampaignConfig::new(Structure::RegFile, 8, RunMode::EndToEnd)
            .with_checkpoints(0)
            .with_observer(metrics.clone());
        let c = run_campaign(&w, &cfg, &golden, &ccfg);
        assert!(
            c.warnings
                .iter()
                .any(|w| w.contains("batching disabled") && w.contains("no checkpoint set")),
            "expected a batching warning, got {:?}",
            c.warnings
        );
        assert_eq!(metrics.snapshot().batching_disabled, 1);

        // The default configuration batches; nothing to warn about.
        let metrics = Arc::new(MetricsCollector::new());
        let ccfg = CampaignConfig::new(Structure::RegFile, 8, RunMode::EndToEnd)
            .with_observer(metrics.clone());
        let c = run_campaign(&w, &cfg, &golden, &ccfg);
        assert!(c.warnings.is_empty(), "got {:?}", c.warnings);
        assert_eq!(metrics.snapshot().batching_disabled, 0);
    }

    #[test]
    fn post_ert_tail_verification_passes_on_a_clean_campaign() {
        // `assert_clean` panics at campaign end if any ERT-expired run's
        // architectural tail fails to complete with the reference output,
        // so a passing campaign is the assertion; the any() guard makes
        // sure the path was actually exercised.
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let ccfg = CampaignConfig::new(
            Structure::RegFile,
            32,
            RunMode::FirstDeviation {
                ert_window: Some(500),
            },
        )
        .with_masked_verification();
        let c = run_campaign(&w, &cfg, &golden, &ccfg);
        assert_eq!(c.len(), 32);
        assert!(
            c.results
                .iter()
                .any(|r| r.outcome == RunOutcome::ErtExpired),
            "no ERT-expired run; the tail check was never exercised"
        );
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
        assert_eq!(set.nearest(0).cycle(), 0);
        let quarter = golden.cycles / 4;
        assert_eq!(set.nearest(quarter).cycle(), quarter);
        assert_eq!(set.nearest(quarter + 1).cycle(), quarter);
        assert_eq!(set.nearest(quarter - 1).cycle(), 0);
        assert!(set.nearest(golden.cycles).cycle() <= golden.cycles);
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
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let faults = poisoned_faults(&cfg, golden.cycles, 12, &[2, 7]);
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

    #[test]
    fn zero_wall_budget_expires_long_runs() {
        use avgi_muarch::run::WALL_CHECK_CYCLES;
        let w = avgi_workloads::by_name("sha").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        assert!(
            golden.cycles > WALL_CHECK_CYCLES,
            "workload too short to reach the first wall-clock poll"
        );
        // Fresh runs from cycle 0 with a zero budget: every run reaches the
        // first poll point before it can complete.
        let ccfg = CampaignConfig::new(Structure::RegFile, 10, RunMode::EndToEnd)
            .with_checkpoints(0)
            .with_wall_budget(Duration::ZERO);
        let c = run_campaign(&w, &cfg, &golden, &ccfg);
        assert_eq!(c.len(), 10);
        assert!(c.wall_expired_count() > 0);
        for r in &c.results {
            assert_ne!(
                r.outcome,
                RunOutcome::Completed,
                "zero budget cannot complete"
            );
        }
    }

    #[test]
    fn masked_verification_passes_and_preserves_results() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        let base = CampaignConfig::new(Structure::RegFile, 40, RunMode::EndToEnd);
        let plain = run_campaign(&w, &cfg, &golden, &base);
        let checked = run_campaign(&w, &cfg, &golden, &base.clone().with_masked_verification());
        // The oracle is observational: it must not perturb sampling,
        // outcomes, or classification.
        assert_eq!(plain.results.len(), checked.results.len());
        for (x, y) in plain.results.iter().zip(&checked.results) {
            assert_eq!(x.fault, y.fault);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.output_matches, y.output_matches);
        }
        assert!(checked
            .results
            .iter()
            .any(|r| r.output_matches == Some(true)));
    }

    #[test]
    #[should_panic(expected = "lockstep")]
    fn masked_verification_rejects_a_doctored_golden_trace() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let golden = golden_for(&w, &cfg);
        // Corrupt one golden output byte: the oracle's construction-time
        // lockstep of the fault-free run must catch the substrate lying
        // about architectural state before any injection happens.
        let mut doctored = (*golden).clone();
        doctored.output[0] ^= 0x01;
        let ccfg = CampaignConfig::new(Structure::RegFile, 4, RunMode::EndToEnd)
            .with_masked_verification();
        let _ = run_campaign(&w, &cfg, &Arc::new(doctored), &ccfg);
    }
}
