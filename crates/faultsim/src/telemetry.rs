//! Live campaign observability: lock-free metrics, run-latency histograms,
//! and structured telemetry snapshots.
//!
//! A 2,000-fault campaign (the paper's §II.D operating point) can run for
//! minutes; without telemetry it is a black box until the final
//! [`CampaignResult`](crate::CampaignResult) lands. This module makes the
//! in-flight state observable, in the spirit of ZOFI's and CHAOS's live
//! campaign statistics:
//!
//! * [`CampaignObserver`] — the hook trait the campaign engine drives. All
//!   methods have empty defaults, so observers implement only what they
//!   need; [`NullObserver`] is the no-op used when no observer is attached.
//! * [`MetricsCollector`] — the default observer: per-worker updates land
//!   on shared atomics (relaxed; only counter totals matter), so the hot
//!   injection path pays a handful of uncontended `fetch_add`s per run and
//!   no locks. Tracks per-structure run counts, per-outcome tallies,
//!   optional per-class tallies (e.g. IMM classes, via a pluggable
//!   classifier), abort/retry counts, and two log2-bucket histograms:
//!   post-injection simulated cycles and wall-clock run latency.
//! * [`MetricsSnapshot`] — a consistent-enough point-in-time copy of the
//!   counters with derived rates (runs/sec, ETA), a human-readable
//!   [`progress_line`](MetricsSnapshot::progress_line), and machine-readable
//!   JSON ([`to_json`](MetricsSnapshot::to_json) for dashboards,
//!   [`deterministic_counters_json`](MetricsSnapshot::deterministic_counters_json)
//!   for reproducibility checks).
//! * [`ProgressObserver`] — wraps a collector and emits a snapshot to a
//!   sink at a configurable interval, plus a guaranteed final snapshot at
//!   campaign end.
//!
//! Determinism contract: every counter except wall-clock-derived data
//! (`elapsed`, `runs_per_sec`, `eta`, the wall-latency histogram) and the
//! `resumed` bookkeeping count is a pure function of the campaign's
//! (seed, fault list, mode) — identical across thread counts and across
//! journal interruptions. `deterministic_counters_json` serializes exactly
//! that subset.

use crate::campaign::InjectionResult;
use crate::json::{self, Json, Writer};
use avgi_muarch::fault::Structure;
use avgi_muarch::run::RunOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of log2 histogram buckets: bucket 0 holds the value 0, bucket
/// `k` (1..=64) holds values in `[2^(k-1), 2^k)`.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index for a value (see [`HIST_BUCKETS`]).
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The `[lo, hi)` value range of bucket `i`; bucket 64's upper bound
/// saturates at `u64::MAX`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HIST_BUCKETS, "bucket index out of range: {i}");
    if i == 0 {
        (0, 1)
    } else {
        let lo = 1u64 << (i - 1);
        let hi = if i == 64 { u64::MAX } else { 1u64 << i };
        (lo, hi)
    }
}

/// A lock-free log2-bucket histogram of `u64` samples.
///
/// Recording is one relaxed `fetch_add`; buckets trade resolution for a
/// fixed footprint (65 counters cover the full `u64` range), which is the
/// right shape for latency-style distributions spanning many decades.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A plain-data copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// One count per bucket (length [`HIST_BUCKETS`]).
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// An all-zero histogram (the identity of [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; HIST_BUCKETS],
        }
    }

    /// Adds another histogram's counts into this one, bucket by bucket.
    /// Tolerates trimmed (shorter) count vectors on either side.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// An upper bound on the `q`-quantile (0..=1): the exclusive upper
    /// edge of the first bucket at which the cumulative count reaches
    /// `ceil(q * total)`. `None` on an empty histogram.
    pub fn approx_quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let need = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cum += n;
            if cum >= need {
                return Some(bucket_bounds(i).1);
            }
        }
        Some(u64::MAX)
    }

    /// Writes the bucket counts as a JSON array, trimmed after the last
    /// non-zero bucket (an empty histogram serializes as `[]`).
    pub fn write_json(&self, w: &mut Writer<'_>) {
        let last = self
            .counts
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        w.u64s(self.counts[..last].iter().copied());
    }

    /// [`write_json`](Self::write_json) into a fresh string.
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }
}

/// Stable labels for the [`RunOutcome`] families, in tally order.
pub const OUTCOME_LABELS: [&str; 8] = [
    "Completed",
    "Trap",
    "IntegrityViolation",
    "Watchdog",
    "StoppedAtDeviation",
    "ErtExpired",
    "WallClockExpired",
    "SimAbort",
];

/// Index of `SimAbort` in [`OUTCOME_LABELS`] (the campaign abort counter).
pub const SIM_ABORT_INDEX: usize = 7;

fn outcome_index(o: RunOutcome) -> usize {
    match o {
        RunOutcome::Completed => 0,
        RunOutcome::Trap(_) => 1,
        RunOutcome::IntegrityViolation(_) => 2,
        RunOutcome::Watchdog => 3,
        RunOutcome::StoppedAtDeviation => 4,
        RunOutcome::ErtExpired => 5,
        RunOutcome::WallClockExpired => 6,
        RunOutcome::SimAbort => SIM_ABORT_INDEX,
    }
}

fn structure_index(s: Structure) -> usize {
    Structure::all()
        .iter()
        .position(|&x| x == s)
        .expect("Structure::all() covers every structure")
}

/// The three-way final-outcome classification the estimators work in:
/// AVF = P(Sdc) + P(Crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeClass {
    /// The fault had no architecturally visible effect.
    Masked,
    /// The run finished with wrong output (or was stopped at a commit-trace
    /// deviation, the early-stop proxy for reaching the software).
    Sdc,
    /// The run ended in the crash family (trap, integrity violation,
    /// watchdog, wall-clock expiry, or an isolated simulator abort).
    Crash,
}

/// Classifies one injection into [`OutcomeClass`] — total over every
/// [`RunOutcome`], so adaptive estimators can consume any run mode.
///
/// End-to-end outcomes map exactly as `avgi-core`'s final-effect analysis
/// does. Early-stopped runs (first-deviation / ERT modes) have no final
/// effect there; here a run stopped *at* a deviation counts `Sdc` (the
/// fault demonstrably reached architectural state) and an ERT expiry with
/// no deviation counts `Masked` — the conservative proxies the adaptive
/// proposal needs to steer with.
pub fn outcome_class(r: &InjectionResult) -> OutcomeClass {
    match r.outcome {
        RunOutcome::Completed => match r.output_matches {
            Some(false) => OutcomeClass::Sdc,
            _ => OutcomeClass::Masked,
        },
        RunOutcome::Trap(_)
        | RunOutcome::IntegrityViolation(_)
        | RunOutcome::Watchdog
        | RunOutcome::WallClockExpired
        | RunOutcome::SimAbort => OutcomeClass::Crash,
        RunOutcome::StoppedAtDeviation | RunOutcome::ErtExpired => {
            if r.deviation.is_some() {
                OutcomeClass::Sdc
            } else {
                OutcomeClass::Masked
            }
        }
    }
}

/// Per-(bit-range × cycle-window) outcome tallies for one structure — the
/// posterior of adaptive importance sampling.
///
/// The structure's flat bit space is split into `bit_bins` equal ranges and
/// the golden execution into `cycle_bins` windows; each cell tallies how
/// many injections landed there and how many of those were *affected*
/// (non-[`Masked`](OutcomeClass::Masked)). [`record`](SiteGrid::record)
/// reads nothing but the result and cell counts are additive, so a grid is
/// a pure fold over the set of results recorded into it — identical across
/// thread counts and across journal resumes by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteGrid {
    /// Structure bit-space size the grid covers.
    pub bits: u64,
    /// Golden-run cycle count the grid covers.
    pub cycles: u64,
    /// Bit-axis bins (rows).
    pub bit_bins: usize,
    /// Cycle-axis bins (columns).
    pub cycle_bins: usize,
    /// Injections tallied per cell (`bit_bins * cycle_bins`, row-major).
    pub runs: Vec<u64>,
    /// Affected (non-Masked) injections per cell.
    pub affected: Vec<u64>,
}

impl SiteGrid {
    /// A zeroed grid over `bits × cycles` sites. Bin counts are clamped to
    /// at least 1 and at most the axis size (a 7-bit structure cannot carry
    /// 8 distinct bit ranges).
    pub fn new(bits: u64, cycles: u64, bit_bins: usize, cycle_bins: usize) -> Self {
        assert!(bits > 0 && cycles > 0, "grid over an empty site space");
        let bit_bins = (bit_bins.max(1) as u64).min(bits) as usize;
        let cycle_bins = (cycle_bins.max(1) as u64).min(cycles) as usize;
        SiteGrid {
            bits,
            cycles,
            bit_bins,
            cycle_bins,
            runs: vec![0; bit_bins * cycle_bins],
            affected: vec![0; bit_bins * cycle_bins],
        }
    }

    /// The cell index a fault lands in (row = bit range, column = cycle
    /// window). Out-of-range sites clamp into the last bin — ill-formed
    /// faults are the panic-isolation path's business, not the tally's.
    pub fn cell_of(&self, bit: u64, cycle: u64) -> usize {
        let b =
            ((bit.min(self.bits - 1) as u128 * self.bit_bins as u128) / self.bits as u128) as usize;
        let c = ((cycle.min(self.cycles - 1) as u128 * self.cycle_bins as u128)
            / self.cycles as u128) as usize;
        b * self.cycle_bins + c
    }

    /// Tallies one result into its cell.
    pub fn record(&mut self, r: &InjectionResult) {
        let cell = self.cell_of(r.fault.site.bit, r.fault.cycle);
        self.runs[cell] += 1;
        if outcome_class(r) != OutcomeClass::Masked {
            self.affected[cell] += 1;
        }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.bit_bins * self.cycle_bins
    }

    /// The `[lo, hi)` bit range of a cell's row.
    pub fn bit_range(&self, cell: usize) -> (u64, u64) {
        let row = (cell / self.cycle_bins) as u128;
        let bins = self.bit_bins as u128;
        let bits = self.bits as u128;
        ((row * bits / bins) as u64, ((row + 1) * bits / bins) as u64)
    }

    /// The `[lo, hi)` cycle range of a cell's column.
    pub fn cycle_range(&self, cell: usize) -> (u64, u64) {
        let col = (cell % self.cycle_bins) as u128;
        let bins = self.cycle_bins as u128;
        let cycles = self.cycles as u128;
        (
            (col * cycles / bins) as u64,
            ((col + 1) * cycles / bins) as u64,
        )
    }

    /// The fraction of the uniform fault population living in a cell.
    pub fn population_mass(&self, cell: usize) -> f64 {
        let (b_lo, b_hi) = self.bit_range(cell);
        let (c_lo, c_hi) = self.cycle_range(cell);
        ((b_hi - b_lo) as f64 / self.bits as f64) * ((c_hi - c_lo) as f64 / self.cycles as f64)
    }

    /// Total injections tallied.
    pub fn total_runs(&self) -> u64 {
        self.runs.iter().sum()
    }

    /// Total affected injections tallied.
    pub fn total_affected(&self) -> u64 {
        self.affected.iter().sum()
    }

    /// The grid as one JSON object — deterministic (pure tally content), so
    /// two byte-equal documents mean bit-identical posterior state.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("bits").u64(self.bits);
            w.key("cycles").u64(self.cycles);
            w.key("bit_bins").usize(self.bit_bins);
            w.key("cycle_bins").usize(self.cycle_bins);
            w.key("runs").u64s(self.runs.iter().copied());
            w.key("affected").u64s(self.affected.iter().copied());
        })
    }
}

/// Hooks the campaign engine drives while a campaign executes.
///
/// All methods have empty default bodies. Implementations must be cheap
/// and non-blocking: `on_run` sits on the injection hot path of every
/// worker thread.
pub trait CampaignObserver: Send + Sync {
    /// A campaign is starting: `planned_runs` injections will be accounted
    /// for (freshly executed or replayed from a journal).
    fn on_campaign_start(&self, _structure: Structure, _planned_runs: usize) {}

    /// One injected run finished executing, taking `wall` of host time.
    fn on_run(&self, _structure: Structure, _result: &InjectionResult, _wall: Duration) {}

    /// One already-journaled result was replayed during a resume (no
    /// simulation happened; there is no meaningful wall time).
    fn on_resumed(&self, _structure: Structure, _result: &InjectionResult) {}

    /// The engine resolved its worker pool: `workers` threads will execute
    /// this campaign (the *effective* count — a configured `0` has already
    /// been resolved to the available cores and clamped to the number of
    /// units of work, runs that share a carrier or single fresh runs, so
    /// telemetry never echoes the raw configuration value or counts a
    /// thread that could get no work).
    fn on_worker_pool(&self, _workers: usize) {}

    /// A run whose fork failed (a panic, or a carrier that ended before its
    /// injection cycle) is being retried fresh from reset.
    fn on_retry(&self, _structure: Structure) {}

    /// A run's live machine state equalled the golden's at a checkpoint, so
    /// it took the golden's ending there: `skipped_cycles` of the cycles its
    /// result is charged (`post_inject_cycles`) were not simulated. Fired
    /// before the run's `on_run`. How often it fires depends on the
    /// checkpoint count — a cost knob, like the batch size — not on the
    /// campaign.
    fn on_converged(&self, _structure: Structure, _skipped_cycles: u64) {}

    /// The campaign finished (all planned runs accounted for).
    fn on_campaign_end(&self, _structure: Structure) {}
}

/// The no-op observer used when a campaign has none attached.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl CampaignObserver for NullObserver {}

type Classifier = dyn Fn(&InjectionResult) -> usize + Send + Sync;

/// The default [`CampaignObserver`]: lock-free per-worker counters
/// aggregated on shared atomics.
///
/// One collector can observe several consecutive campaigns (e.g. a
/// 12-structure report grid); `planned` then accumulates across them and
/// the per-structure counts keep the campaigns apart.
pub struct MetricsCollector {
    started: Instant,
    planned: AtomicU64,
    completed: AtomicU64,
    resumed: AtomicU64,
    retries: AtomicU64,
    converged_runs: AtomicU64,
    cycles_skipped: AtomicU64,
    workers: AtomicU64,
    outcomes: [AtomicU64; OUTCOME_LABELS.len()],
    structures: [AtomicU64; 12],
    class_labels: Vec<&'static str>,
    class_counts: Vec<AtomicU64>,
    classifier: Option<Box<Classifier>>,
    post_inject_cycles: LatencyHistogram,
    wall_latency_us: LatencyHistogram,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsCollector {
    /// A collector with no per-class tallies.
    pub fn new() -> Self {
        MetricsCollector {
            started: Instant::now(),
            planned: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            converged_runs: AtomicU64::new(0),
            cycles_skipped: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            outcomes: std::array::from_fn(|_| AtomicU64::new(0)),
            structures: std::array::from_fn(|_| AtomicU64::new(0)),
            class_labels: Vec::new(),
            class_counts: Vec::new(),
            classifier: None,
            post_inject_cycles: LatencyHistogram::new(),
            wall_latency_us: LatencyHistogram::new(),
        }
    }

    /// A collector that additionally tallies a custom classification of
    /// every result (e.g. IMM classes — see `avgi_core::report`'s
    /// IMM-wired constructor). `classify` must return an index into
    /// `labels`; out-of-range results are ignored.
    pub fn with_classes(
        labels: Vec<&'static str>,
        classify: impl Fn(&InjectionResult) -> usize + Send + Sync + 'static,
    ) -> Self {
        let mut c = Self::new();
        c.class_counts = (0..labels.len()).map(|_| AtomicU64::new(0)).collect();
        c.class_labels = labels;
        c.classifier = Some(Box::new(classify));
        c
    }

    /// Host time since the collector was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    fn record(&self, structure: Structure, r: &InjectionResult) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.outcomes[outcome_index(r.outcome)].fetch_add(1, Ordering::Relaxed);
        self.structures[structure_index(structure)].fetch_add(1, Ordering::Relaxed);
        self.post_inject_cycles.record(r.post_inject_cycles);
        if let Some(classify) = &self.classifier {
            let idx = classify(r);
            if let Some(slot) = self.class_counts.get(idx) {
                slot.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy of every counter plus derived rates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            campaign: 0,
            planned: self.planned.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            converged_runs: self.converged_runs.load(Ordering::Relaxed),
            cycles_skipped: self.cycles_skipped.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            elapsed: self.elapsed(),
            outcomes: OUTCOME_LABELS
                .iter()
                .zip(&self.outcomes)
                .map(|(&l, n)| (l, n.load(Ordering::Relaxed)))
                .collect(),
            classes: self
                .class_labels
                .iter()
                .zip(&self.class_counts)
                .map(|(&l, n)| (l, n.load(Ordering::Relaxed)))
                .collect(),
            structures: Structure::all()
                .iter()
                .zip(&self.structures)
                .map(|(&s, n)| (s, n.load(Ordering::Relaxed)))
                .collect(),
            post_inject_cycles: self.post_inject_cycles.snapshot(),
            wall_latency_us: self.wall_latency_us.snapshot(),
        }
    }
}

impl CampaignObserver for MetricsCollector {
    fn on_campaign_start(&self, _structure: Structure, planned_runs: usize) {
        self.planned
            .fetch_add(planned_runs as u64, Ordering::Relaxed);
    }

    fn on_run(&self, structure: Structure, result: &InjectionResult, wall: Duration) {
        self.record(structure, result);
        self.wall_latency_us
            .record(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));
    }

    fn on_resumed(&self, structure: Structure, result: &InjectionResult) {
        self.record(structure, result);
        self.resumed.fetch_add(1, Ordering::Relaxed);
    }

    fn on_retry(&self, _structure: Structure) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    fn on_converged(&self, _structure: Structure, skipped_cycles: u64) {
        self.converged_runs.fetch_add(1, Ordering::Relaxed);
        self.cycles_skipped
            .fetch_add(skipped_cycles, Ordering::Relaxed);
    }

    fn on_worker_pool(&self, workers: usize) {
        // One collector may observe several consecutive campaigns; keep the
        // widest pool seen.
        self.workers.fetch_max(workers as u64, Ordering::Relaxed);
    }
}

/// A plain-data copy of a [`MetricsCollector`] at one point in time.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Which tenant campaign these counters belong to (`0` = untagged, the
    /// single-campaign default). A control plane scheduling many campaigns
    /// over one worker fleet tags each shard delta so merges can never mix
    /// tenants; see [`merge`](Self::merge) for the mixing rule. The tag is
    /// transport bookkeeping, not campaign content, so it is excluded from
    /// [`deterministic_counters_json`](Self::deterministic_counters_json) —
    /// a tagged merged snapshot stays byte-identical to its single-process
    /// (untagged) reference.
    pub campaign: u64,
    /// Runs the observed campaigns planned in total.
    pub planned: u64,
    /// Runs accounted for so far (freshly executed plus resumed).
    pub completed: u64,
    /// Of `completed`, how many were replayed from a journal.
    pub resumed: u64,
    /// Fresh retries of runs whose fork failed.
    pub retries: u64,
    /// Freshly executed runs that took the golden's ending at a checkpoint
    /// instead of simulating it, and …
    pub converged_runs: u64,
    /// … the cycles they did not simulate. Their `post_inject_cycles` still
    /// charge what a run to the end costs, so `Σ post_inject_cycles −
    /// cycles_skipped` is what the engine simulated. Both depend on the
    /// checkpoint count (and on what a journal replayed), not on the
    /// campaign identity, so like `workers` they are excluded from the
    /// deterministic subset and its wire format.
    pub cycles_skipped: u64,
    /// Widest effective worker pool observed (0 until an engine reports
    /// one). Host-dependent, so excluded from the deterministic subset.
    pub workers: u64,
    /// Host time since the collector was created.
    pub elapsed: Duration,
    /// Per-outcome-family tallies, in [`OUTCOME_LABELS`] order.
    pub outcomes: Vec<(&'static str, u64)>,
    /// Per-class tallies (empty unless the collector has a classifier).
    pub classes: Vec<(&'static str, u64)>,
    /// Per-structure run counts, in [`Structure::all`] order.
    pub structures: Vec<(Structure, u64)>,
    /// Histogram of post-injection simulated cycles per run.
    pub post_inject_cycles: HistogramSnapshot,
    /// Histogram of wall-clock run latency, in microseconds.
    pub wall_latency_us: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Runs recorded as [`RunOutcome::SimAbort`].
    pub fn aborted(&self) -> u64 {
        self.outcomes[SIM_ABORT_INDEX].1
    }

    /// This snapshot re-tagged for a tenant campaign (see the
    /// [`campaign`](Self::campaign) field).
    pub fn with_campaign(mut self, campaign: u64) -> Self {
        self.campaign = campaign;
        self
    }

    /// Freshly executed runs per second of host time (resumed replays are
    /// excluded: they cost no simulation).
    pub fn runs_per_sec(&self) -> f64 {
        let fresh = self.completed.saturating_sub(self.resumed);
        fresh as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Estimated time to completion at the current rate; `None` when done
    /// or when no fresh run has finished yet.
    pub fn eta(&self) -> Option<Duration> {
        let remaining = self.planned.saturating_sub(self.completed);
        if remaining == 0 {
            return None;
        }
        let rate = self.runs_per_sec();
        if rate <= 0.0 {
            return None;
        }
        Some(Duration::from_secs_f64(remaining as f64 / rate))
    }

    /// One human-readable progress line: completion, runs/sec, ETA, and
    /// the non-zero per-outcome counts plus abort/retry counters.
    pub fn progress_line(&self) -> String {
        use core::fmt::Write as _;
        let pct = if self.planned > 0 {
            100.0 * self.completed as f64 / self.planned as f64
        } else {
            100.0
        };
        let eta = self
            .eta()
            .map_or_else(|| "-".to_string(), |d| format!("{:.1}s", d.as_secs_f64()));
        let mut line = format!(
            "{}/{} runs ({pct:.1}%) | {:.1} runs/s | ETA {eta}",
            self.completed,
            self.planned,
            self.runs_per_sec(),
        );
        for (label, n) in &self.outcomes {
            if *n > 0 {
                let _ = write!(line, " | {label} {n}");
            }
        }
        let _ = write!(
            line,
            " | aborts {} retries {}",
            self.aborted(),
            self.retries
        );
        if self.converged_runs > 0 {
            let _ = write!(
                line,
                " | converged {} ({} cycles skipped)",
                self.converged_runs, self.cycles_skipped
            );
        }
        line
    }

    /// The tallies both dumps end with: labelled counts and the simulated
    /// post-injection histogram.
    fn write_tallies(&self, w: &mut Writer<'_>) {
        fn labelled<'l>(
            w: &mut Writer<'_>,
            key: &str,
            counts: impl Iterator<Item = (&'l str, u64)>,
        ) {
            w.key(key).object(|w| {
                for (label, n) in counts {
                    w.key(label).u64(n);
                }
            });
        }
        labelled(w, "outcomes", self.outcomes.iter().copied());
        labelled(w, "classes", self.classes.iter().copied());
        let hit = self.structures.iter().filter(|(_, n)| *n > 0);
        labelled(w, "structures", hit.map(|&(s, n)| (s.ident(), n)));
        self.post_inject_cycles
            .write_json(w.key("post_inject_cycles_hist"));
    }

    /// The full snapshot as one JSON object (floats included — this is the
    /// `metrics.json` dump format for external consumers).
    pub fn to_json(&self) -> String {
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        json::object(|w| {
            w.key("kind").str("avgi-campaign-metrics");
            w.key("version").u64(1);
            w.key("campaign").u64(self.campaign);
            w.key("planned").u64(self.planned);
            w.key("completed").u64(self.completed);
            w.key("resumed").u64(self.resumed);
            w.key("retries").u64(self.retries);
            w.key("aborted").u64(self.aborted());
            w.key("converged_runs").u64(self.converged_runs);
            w.key("cycles_skipped").u64(self.cycles_skipped);
            w.key("workers").u64(self.workers);
            w.key("elapsed_us").u64(micros(self.elapsed));
            w.key("runs_per_sec").f64(self.runs_per_sec(), 1);
            w.key("eta_us").opt(self.eta().map(micros), Writer::u64);
            self.write_tallies(w);
            self.wall_latency_us
                .write_json(w.key("wall_latency_us_hist"));
        })
    }

    /// Writes the deterministic subset of [`to_json`](Self::to_json):
    /// everything that is a pure function of the campaign definition.
    /// Excludes wall time, rates, the wall-latency histogram, and the
    /// `resumed` bookkeeping count (which reflects interruption history,
    /// not campaign content). Two campaigns with the same seed and fault
    /// list produce byte-identical documents here, regardless of thread
    /// count or resume pattern.
    pub fn write_deterministic(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.key("planned").u64(self.planned);
            w.key("completed").u64(self.completed);
            w.key("retries").u64(self.retries);
            w.key("aborted").u64(self.aborted());
            self.write_tallies(w);
        });
    }

    /// [`write_deterministic`](Self::write_deterministic) into a fresh
    /// string.
    pub fn deterministic_counters_json(&self) -> String {
        json::to_string(|w| self.write_deterministic(w))
    }

    /// An all-zero snapshot: the identity of [`merge`](Self::merge), used
    /// as the accumulator when folding shard deltas together.
    pub fn empty() -> Self {
        MetricsSnapshot {
            campaign: 0,
            planned: 0,
            completed: 0,
            resumed: 0,
            retries: 0,
            converged_runs: 0,
            cycles_skipped: 0,
            workers: 0,
            elapsed: Duration::ZERO,
            outcomes: OUTCOME_LABELS.iter().map(|&l| (l, 0)).collect(),
            classes: Vec::new(),
            structures: Structure::all().iter().map(|&s| (s, 0)).collect(),
            post_inject_cycles: HistogramSnapshot::empty(),
            wall_latency_us: HistogramSnapshot::empty(),
        }
    }

    /// Adds another snapshot's counters into this one.
    ///
    /// This is the aggregation a distributed campaign relies on: if the
    /// shards of a partition each record their runs into separate
    /// collectors, merging the shard snapshots yields exactly the counters
    /// a single-process campaign over the whole fault list produces — its
    /// [`deterministic_counters_json`](Self::deterministic_counters_json)
    /// is byte-identical. Additive counters and histograms sum; labelled
    /// tallies align by label (labels unknown to `self` are appended);
    /// `workers` takes the maximum and `elapsed` the longest shard (shards
    /// overlap in wall time, so summing would overstate it).
    /// `merge` refuses to mix tenants: folding a delta tagged for campaign
    /// A into an accumulator tagged for campaign B is always a control-plane
    /// bug, so it panics rather than silently corrupting both tenants'
    /// counters. An untagged side (campaign `0`) adopts the other side's
    /// tag, which keeps every pre-existing single-campaign call site
    /// working unchanged.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        fn merge_labelled(mine: &mut Vec<(&'static str, u64)>, theirs: &[(&'static str, u64)]) {
            for &(label, n) in theirs {
                match mine.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, m)) => *m += n,
                    None => mine.push((label, n)),
                }
            }
        }
        assert!(
            self.campaign == 0 || other.campaign == 0 || self.campaign == other.campaign,
            "refusing to merge telemetry across campaigns {} and {}",
            self.campaign,
            other.campaign
        );
        if self.campaign == 0 {
            self.campaign = other.campaign;
        }
        self.planned += other.planned;
        self.completed += other.completed;
        self.resumed += other.resumed;
        self.retries += other.retries;
        self.converged_runs += other.converged_runs;
        self.cycles_skipped += other.cycles_skipped;
        self.workers = self.workers.max(other.workers);
        self.elapsed = self.elapsed.max(other.elapsed);
        merge_labelled(&mut self.outcomes, &other.outcomes);
        merge_labelled(&mut self.classes, &other.classes);
        for &(structure, n) in &other.structures {
            match self.structures.iter_mut().find(|(s, _)| *s == structure) {
                Some((_, m)) => *m += n,
                None => self.structures.push((structure, n)),
            }
        }
        self.post_inject_cycles.merge(&other.post_inject_cycles);
        self.wall_latency_us.merge(&other.wall_latency_us);
    }

    /// Rebuilds the deterministic counters from a parsed
    /// [`deterministic_counters_json`](Self::deterministic_counters_json)
    /// document — the wire format of a shard's telemetry delta.
    ///
    /// Wall-clock fields are not on the wire and come back zeroed. Class
    /// labels are resolved against `class_labels` (the label set the
    /// sending collector was built with); an unknown outcome, structure, or
    /// class label is an error rather than a silently dropped count.
    pub fn from_deterministic_value(
        v: &Json,
        class_labels: &[&'static str],
    ) -> Result<MetricsSnapshot, String> {
        let counts = |key: &str| -> Result<Vec<(&str, u64)>, String> {
            v.fields_at(key)?
                .iter()
                .map(|(label, n)| match n.as_u64() {
                    Some(n) => Ok((label.as_str(), n)),
                    None => Err(format!("`{label}` in `{key}` is not a count")),
                })
                .collect()
        };
        let mut snap = MetricsSnapshot::empty();
        snap.planned = v.u64_at("planned")?;
        snap.completed = v.u64_at("completed")?;
        snap.retries = v.u64_at("retries")?;
        for (label, n) in counts("outcomes")? {
            let slot = snap
                .outcomes
                .iter_mut()
                .find(|(l, _)| *l == label)
                .ok_or_else(|| format!("unknown label `{label}` in `outcomes`"))?;
            slot.1 = n;
        }
        for (label, n) in counts("classes")? {
            let resolved = class_labels
                .iter()
                .find(|l| **l == label)
                .ok_or_else(|| format!("unknown label `{label}` in `classes`"))?;
            snap.classes.push((resolved, n));
        }
        for (label, n) in counts("structures")? {
            let structure = Structure::from_ident(label)
                .ok_or_else(|| format!("unknown label `{label}` in `structures`"))?;
            snap.structures
                .iter_mut()
                .find(|(s, _)| *s == structure)
                .expect("Structure::all() covers every structure")
                .1 = n;
        }
        let hist = v.u64s_at("post_inject_cycles_hist")?;
        snap.post_inject_cycles
            .counts
            .get_mut(..hist.len())
            .ok_or_else(|| format!("`post_inject_cycles_hist` has {} buckets", hist.len()))?
            .copy_from_slice(&hist);
        let aborted = v.u64_at("aborted")?;
        if aborted != snap.aborted() {
            return Err(format!(
                "`aborted` is {aborted} but `outcomes` tallies {} SimAbort",
                snap.aborted()
            ));
        }
        Ok(snap)
    }
}

type SnapshotSink = dyn Fn(&MetricsSnapshot) + Send + Sync;

/// Wraps a [`MetricsCollector`] and emits periodic snapshots to a sink.
///
/// Snapshots are emitted at most once per `interval` (checked on each
/// finished run; no timer thread), plus one guaranteed final snapshot at
/// campaign end — so even a campaign shorter than the interval produces at
/// least one progress line.
pub struct ProgressObserver {
    collector: std::sync::Arc<MetricsCollector>,
    interval_us: u64,
    last_emit_us: AtomicU64,
    sink: Box<SnapshotSink>,
}

impl ProgressObserver {
    /// A progress observer with a custom sink.
    pub fn with_sink(
        collector: std::sync::Arc<MetricsCollector>,
        interval: Duration,
        sink: impl Fn(&MetricsSnapshot) + Send + Sync + 'static,
    ) -> Self {
        ProgressObserver {
            collector,
            interval_us: u64::try_from(interval.as_micros()).unwrap_or(u64::MAX),
            last_emit_us: AtomicU64::new(0),
            sink: Box::new(sink),
        }
    }

    /// A progress observer printing `[progress] <line>` to stderr.
    pub fn stderr(collector: std::sync::Arc<MetricsCollector>, interval: Duration) -> Self {
        Self::with_sink(collector, interval, |snap| {
            eprintln!("[progress] {}", snap.progress_line());
        })
    }

    /// The wrapped collector.
    pub fn collector(&self) -> &std::sync::Arc<MetricsCollector> {
        &self.collector
    }

    fn maybe_emit(&self, force: bool) {
        let now = u64::try_from(self.collector.elapsed().as_micros()).unwrap_or(u64::MAX);
        let last = self.last_emit_us.load(Ordering::Relaxed);
        let due = force || now.saturating_sub(last) >= self.interval_us;
        if due
            && self
                .last_emit_us
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            (self.sink)(&self.collector.snapshot());
        }
    }
}

impl CampaignObserver for ProgressObserver {
    fn on_campaign_start(&self, structure: Structure, planned_runs: usize) {
        self.collector.on_campaign_start(structure, planned_runs);
    }

    fn on_run(&self, structure: Structure, result: &InjectionResult, wall: Duration) {
        self.collector.on_run(structure, result, wall);
        self.maybe_emit(false);
    }

    fn on_resumed(&self, structure: Structure, result: &InjectionResult) {
        self.collector.on_resumed(structure, result);
    }

    fn on_retry(&self, structure: Structure) {
        self.collector.on_retry(structure);
    }

    fn on_converged(&self, structure: Structure, skipped_cycles: u64) {
        self.collector.on_converged(structure, skipped_cycles);
    }

    fn on_worker_pool(&self, workers: usize) {
        self.collector.on_worker_pool(workers);
    }

    fn on_campaign_end(&self, _structure: Structure) {
        self.maybe_emit(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avgi_muarch::fault::{Fault, FaultSite};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn result(outcome: RunOutcome, post: u64) -> InjectionResult {
        InjectionResult {
            fault: Fault {
                site: FaultSite {
                    structure: Structure::RegFile,
                    bit: 1,
                },
                cycle: 10,
            },
            outcome,
            deviation: None,
            output_matches: Some(true),
            cycles: post + 10,
            post_inject_cycles: post,
            abort_message: None,
        }
    }

    #[test]
    fn log2_buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo < hi, "bucket {i} is empty");
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i}");
            if i < 64 {
                assert_eq!(bucket_of(hi - 1), i, "upper bound of bucket {i}");
                assert_eq!(bucket_of(hi), i + 1, "buckets must abut");
            }
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = LatencyHistogram::new();
        for v in [0, 1, 5, 5, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.total(), 5);
        assert_eq!(s.counts[bucket_of(0)], 1);
        assert_eq!(s.counts[bucket_of(5)], 2);
        // Median falls in the [4, 8) bucket; its upper edge bounds it.
        assert_eq!(s.approx_quantile(0.5), Some(8));
        assert_eq!(s.approx_quantile(1.0), Some(1024));
        assert!(LatencyHistogram::new()
            .snapshot()
            .approx_quantile(0.5)
            .is_none());
        assert_eq!(LatencyHistogram::new().snapshot().to_json(), "[]");
        assert_eq!(s.to_json().matches(',').count() + 1, bucket_of(1000) + 1);
    }

    #[test]
    fn collector_counts_runs_outcomes_and_structures() {
        let c = MetricsCollector::new();
        c.on_campaign_start(Structure::RegFile, 3);
        c.on_run(
            Structure::RegFile,
            &result(RunOutcome::Completed, 100),
            Duration::from_micros(50),
        );
        c.on_run(
            Structure::RegFile,
            &result(RunOutcome::SimAbort, 0),
            Duration::from_micros(70),
        );
        c.on_retry(Structure::RegFile);
        c.on_resumed(Structure::Rob, &result(RunOutcome::Watchdog, 9));
        let s = c.snapshot();
        assert_eq!(s.planned, 3);
        assert_eq!(s.completed, 3);
        assert_eq!(s.resumed, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.aborted(), 1);
        let get = |label: &str| {
            s.outcomes
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, n)| *n)
                .unwrap()
        };
        assert_eq!(get("Completed"), 1);
        assert_eq!(get("SimAbort"), 1);
        assert_eq!(get("Watchdog"), 1);
        let rf = s
            .structures
            .iter()
            .find(|(st, _)| *st == Structure::RegFile)
            .unwrap()
            .1;
        assert_eq!(rf, 2);
        assert_eq!(s.post_inject_cycles.total(), 3);
        // Resumed replays have no wall-latency sample.
        assert_eq!(s.wall_latency_us.total(), 2);
        assert!(s.eta().is_none(), "campaign complete");
        assert!(s.progress_line().contains("3/3 runs"));
        assert!(s.progress_line().contains("aborts 1 retries 1"));
    }

    #[test]
    fn classifier_tallies_are_counted() {
        let c = MetricsCollector::with_classes(vec!["short", "long"], |r| {
            usize::from(r.post_inject_cycles >= 100)
        });
        c.on_run(
            Structure::RegFile,
            &result(RunOutcome::Completed, 5),
            Duration::ZERO,
        );
        c.on_run(
            Structure::RegFile,
            &result(RunOutcome::Completed, 500),
            Duration::ZERO,
        );
        c.on_run(
            Structure::RegFile,
            &result(RunOutcome::Completed, 501),
            Duration::ZERO,
        );
        let s = c.snapshot();
        assert_eq!(s.classes, vec![("short", 1), ("long", 2)]);
    }

    #[test]
    fn snapshot_json_shapes_parse() {
        let c = MetricsCollector::with_classes(vec!["a"], |_| 0);
        c.on_campaign_start(Structure::Lq, 1);
        c.on_run(
            Structure::Lq,
            &result(RunOutcome::Completed, 1 << 20),
            Duration::from_millis(3),
        );
        let s = c.snapshot();
        // Both dumps are valid JSON for our own parser (the deterministic
        // one is float-free by construction; the full one keeps floats out
        // of everything the parser needs to see in tests).
        let det = crate::json::parse(&s.deterministic_counters_json()).unwrap();
        assert_eq!(det.get("completed").unwrap().as_u64(), Some(1));
        assert_eq!(det.get("aborted").unwrap().as_u64(), Some(0));
        assert_eq!(
            det.get("structures").unwrap().get("Lq").unwrap().as_u64(),
            Some(1)
        );
        let hist = det
            .get("post_inject_cycles_hist")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(hist.len(), bucket_of(1 << 20) + 1);
        assert!(s.to_json().contains("\"kind\":\"avgi-campaign-metrics\""));
        assert!(s.to_json().contains("\"runs_per_sec\":"));
    }

    #[test]
    fn campaign_tag_spreads_on_merge_but_stays_off_the_deterministic_wire() {
        let tagged = MetricsSnapshot::empty().with_campaign(7);
        let mut acc = MetricsSnapshot::empty();
        acc.merge(&tagged);
        assert_eq!(acc.campaign, 7, "untagged accumulator adopts the tag");
        acc.merge(&MetricsSnapshot::empty());
        assert_eq!(acc.campaign, 7, "untagged delta leaves the tag alone");
        assert_eq!(
            acc.deterministic_counters_json(),
            MetricsSnapshot::empty().deterministic_counters_json(),
            "the tag is bookkeeping, not campaign content"
        );
        assert!(acc.to_json().contains("\"campaign\":7"));
    }

    #[test]
    #[should_panic(expected = "refusing to merge telemetry across campaigns")]
    fn merging_two_tenants_panics() {
        let mut a = MetricsSnapshot::empty().with_campaign(1);
        a.merge(&MetricsSnapshot::empty().with_campaign(2));
    }

    #[test]
    fn outcome_class_is_total_and_matches_the_effect_taxonomy() {
        let mut r = result(RunOutcome::Completed, 5);
        assert_eq!(outcome_class(&r), OutcomeClass::Masked);
        r.output_matches = Some(false);
        assert_eq!(outcome_class(&r), OutcomeClass::Sdc);
        r.output_matches = None;
        assert_eq!(outcome_class(&r), OutcomeClass::Masked);
        for crash in [
            RunOutcome::Trap(avgi_muarch::run::TrapKind::UndefinedInstruction),
            RunOutcome::Watchdog,
            RunOutcome::WallClockExpired,
            RunOutcome::SimAbort,
        ] {
            let mut r = result(crash, 5);
            r.output_matches = None;
            assert_eq!(outcome_class(&r), OutcomeClass::Crash, "{crash:?}");
        }
        // Early stops classify by whether a deviation was observed.
        let mut r = result(RunOutcome::ErtExpired, 5);
        r.output_matches = None;
        assert_eq!(outcome_class(&r), OutcomeClass::Masked);
    }

    #[test]
    fn site_grid_cells_partition_the_population() {
        let g = SiteGrid::new(1000, 400, 4, 5);
        assert_eq!(g.cells(), 20);
        // Population masses over all cells sum to 1.
        let total: f64 = (0..g.cells()).map(|c| g.population_mass(c)).sum();
        assert!((total - 1.0).abs() < 1e-12, "got {total}");
        // Every site maps into the cell whose ranges contain it.
        for &(bit, cycle) in &[(0, 0), (999, 399), (250, 80), (749, 320)] {
            let cell = g.cell_of(bit, cycle);
            let (b_lo, b_hi) = g.bit_range(cell);
            let (c_lo, c_hi) = g.cycle_range(cell);
            assert!((b_lo..b_hi).contains(&bit), "bit {bit} cell {cell}");
            assert!((c_lo..c_hi).contains(&cycle), "cycle {cycle} cell {cell}");
        }
    }

    #[test]
    fn site_grid_clamps_bins_to_tiny_axes() {
        // A 3-bit structure cannot host 8 bit ranges; bins clamp, cells
        // stay non-empty, and nothing panics.
        let snap = SiteGrid::new(3, 2, 8, 8);
        assert_eq!(snap.bit_bins, 3);
        assert_eq!(snap.cycle_bins, 2);
        for cell in 0..snap.cells() {
            let (b_lo, b_hi) = snap.bit_range(cell);
            let (c_lo, c_hi) = snap.cycle_range(cell);
            assert!(b_hi > b_lo && c_hi > c_lo, "empty cell {cell}");
        }
    }

    #[test]
    fn site_grid_tallies_runs_and_affected() {
        let mut g = SiteGrid::new(1 << 12, 1 << 10, 8, 8);
        let mut masked = result(RunOutcome::Completed, 5);
        masked.fault.site.bit = 100;
        masked.fault.cycle = 10;
        g.record(&masked);
        let mut sdc = result(RunOutcome::Completed, 5);
        sdc.fault.site.bit = 100;
        sdc.fault.cycle = 10;
        sdc.output_matches = Some(false);
        g.record(&sdc);
        assert_eq!(g.total_runs(), 2);
        assert_eq!(g.total_affected(), 1);
        let cell = g.cell_of(100, 10);
        assert_eq!(g.runs[cell], 2);
        assert_eq!(g.affected[cell], 1);
        // The JSON carries deterministic content only.
        assert!(g.to_json().contains("\"bit_bins\":8"));
        // A grid is a fold: recording order is irrelevant.
        let mut swapped = SiteGrid::new(1 << 12, 1 << 10, 8, 8);
        swapped.record(&sdc);
        swapped.record(&masked);
        assert_eq!(g, swapped);
    }

    #[test]
    fn progress_observer_emits_final_snapshot() {
        let collector = Arc::new(MetricsCollector::new());
        let emitted = Arc::new(AtomicUsize::new(0));
        let seen = emitted.clone();
        let p =
            ProgressObserver::with_sink(collector.clone(), Duration::from_secs(3600), move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
            });
        p.on_campaign_start(Structure::RegFile, 2);
        p.on_run(
            Structure::RegFile,
            &result(RunOutcome::Completed, 1),
            Duration::ZERO,
        );
        p.on_run(
            Structure::RegFile,
            &result(RunOutcome::Completed, 2),
            Duration::ZERO,
        );
        assert_eq!(emitted.load(Ordering::Relaxed), 0, "interval not reached");
        p.on_campaign_end(Structure::RegFile);
        assert_eq!(
            emitted.load(Ordering::Relaxed),
            1,
            "final snapshot is forced"
        );
        assert_eq!(p.collector().snapshot().completed, 2);
    }

    #[test]
    fn zero_interval_emits_on_every_run() {
        let collector = Arc::new(MetricsCollector::new());
        let emitted = Arc::new(AtomicUsize::new(0));
        let seen = emitted.clone();
        let p = ProgressObserver::with_sink(collector, Duration::ZERO, move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        p.on_campaign_start(Structure::RegFile, 3);
        for i in 0..3 {
            p.on_run(
                Structure::RegFile,
                &result(RunOutcome::Completed, i),
                Duration::ZERO,
            );
        }
        assert_eq!(emitted.load(Ordering::Relaxed), 3);
    }
}
