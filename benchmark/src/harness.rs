//! What every workload shares: the run context, the outcome it reports, the
//! passes loop with its two ways of summarising unit times, and per-unit
//! seeds.

use crate::check::Observed;
use crate::measure::{cpu_secs, percentile, steady, time};
use crate::spans::{self, Span};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One invocation's parameters.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the timed section lasts.
    pub seconds: f64,
    /// 1/50 sizes and two passes (the smoke test).
    pub quick: bool,
    pub threads: usize,
    /// Scratch space inside the checkout; removed when the run ends.
    pub tmp: PathBuf,
    /// Where trace files go.
    pub out_dir: PathBuf,
    /// Recorded observations to compare against, when the seed is the
    /// default one and `expected.json` holds this workload and size.
    pub expected: Option<Observed>,
}

impl Ctx {
    /// `full / 50`, at least `floor`, under `--quick`; `full` otherwise.
    pub fn size(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 50).max(floor)
        } else {
            full
        }
    }
}

/// What a run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (injected runs; campaigns for the grid).
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, one message each; any makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digests this run produced (what `--record` stores).
    pub observed: Observed,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Compares this run's digests with the recorded ones and, on a
    /// mismatch, counts every run of the run as failed.
    pub fn check_against(&mut self, ctx: &Ctx, runs_per_unit: usize) {
        if let Some(expected) = &ctx.expected {
            let bad = self.observed.mismatches(expected, runs_per_unit);
            if !bad.is_empty() {
                self.failed = self.attempted;
                self.problems.extend(bad);
            }
        }
    }
}

/// The fault-sampling seed of unit `i` of a run seeded `seed` (splitmix64 finaliser, so
/// neighbouring seeds and units share nothing).
pub fn unit_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The end-to-end time of each unit of work: the lower quartile, over the
/// passes of a run, of its time on the reference host's clock.
///
/// A run repeats the same few units (campaigns with fixed fault lists) for
/// as long as it measures, each timed by a [`HostClock`], which scales the
/// wall time by the host's speed around that very execution, and reports
/// each unit's [`steady`] time. On the shared host this was written on no
/// statistic of the raw wall times repeats from run to run in every mood of
/// the host — the median spreads by up to 33 % when neighbours are busy,
/// the fastest pass by up to 17 % when they are quiet; the scaled lower
/// quartile stays within 6–13 % in the first case and 3–5 % in the second.
/// See the README's "Bounds and steadiness".
///
/// [`HostClock`]: crate::measure::HostClock
pub struct UnitTimes {
    /// Operations (injected runs) each unit performs.
    ops: Vec<u64>,
    /// Reference-host seconds of every execution, per unit.
    samples: Vec<Vec<f64>>,
}

impl UnitTimes {
    pub fn new(units: usize) -> UnitTimes {
        UnitTimes {
            ops: vec![0; units],
            samples: vec![Vec::new(); units],
        }
    }

    pub fn record(&mut self, unit: usize, host_s: f64, ops: u64) {
        self.ops[unit] = ops;
        self.samples[unit].push(host_s);
    }

    /// The three end-to-end numbers an in-process workload derives from its
    /// units: operations per second over all units, and the median and 90th
    /// percentile over units of the time from handing a campaign to the
    /// engine to holding its report.
    pub fn report(&self, out: &mut Outcome) {
        let unit_s: Vec<f64> = self.samples.iter().map(|s| steady(s)).collect();
        let ms: Vec<f64> = unit_s.iter().map(|s| s * 1e3).collect();
        out.set(
            "runs_per_sec",
            self.ops.iter().sum::<u64>() as f64 / unit_s.iter().sum::<f64>(),
        );
        out.set("submit_to_report_p50_ms", percentile(&ms, 0.5));
        out.set("submit_to_report_p90_ms", percentile(&ms, 0.9));
    }
}

/// Fastest wall time of each unit of work over the passes of a traced run.
///
/// Per-layer numbers carry no bound and are read side by side within one
/// run (traced against untraced, one thread against two), so they keep the
/// plain wall clock and each unit's fastest pass, like the unit-cost loops
/// of [`measure`](crate::measure::measure) do.
pub struct BestOf {
    /// Operations (injected runs) each unit performs.
    pub ops: Vec<u64>,
    pub best_s: Vec<f64>,
}

impl BestOf {
    pub fn new(units: usize) -> BestOf {
        BestOf {
            ops: vec![0; units],
            best_s: vec![f64::INFINITY; units],
        }
    }

    pub fn record(&mut self, unit: usize, wall_s: f64, ops: u64) {
        self.ops[unit] = ops;
        self.best_s[unit] = self.best_s[unit].min(wall_s);
    }

    pub fn total_s(&self) -> f64 {
        self.best_s.iter().sum()
    }

    /// Operations per second over all units, each at its best.
    pub fn rate(&self) -> f64 {
        self.ops.iter().sum::<u64>() as f64 / self.total_s()
    }
}

/// Runs passes over `units` units until `seconds` have passed (two passes
/// when `once`), calling `body(pass, unit)`, which times what it wants to.
pub fn passes(seconds: f64, once: bool, units: usize, mut body: impl FnMut(usize, usize)) {
    let start = Instant::now();
    for pass in 0.. {
        for unit in 0..units {
            body(pass, unit);
        }
        let done = if once {
            pass >= 1
        } else {
            start.elapsed().as_secs_f64() >= seconds
        };
        if done {
            break;
        }
    }
}

/// Best times of the same units executed untraced and traced, alternating,
/// and the CPU time of the untraced side.
pub struct AbPasses {
    pub plain: BestOf,
    pub traced: BestOf,
    cpu_s: Vec<f64>,
}

impl AbPasses {
    /// Alternates `plain(unit)` and `traced(pass, unit)` over passes for
    /// `seconds`; `after` receives both results of a unit outside the timed
    /// spans. `ops` is the operation count of one unit.
    pub fn run<T>(
        seconds: f64,
        once: bool,
        units: usize,
        ops: u64,
        mut plain: impl FnMut(usize) -> T,
        mut traced: impl FnMut(usize, usize) -> T,
        mut after: impl FnMut(usize, T, T),
    ) -> AbPasses {
        let mut log = AbPasses {
            plain: BestOf::new(units),
            traced: BestOf::new(units),
            cpu_s: vec![f64::INFINITY; units],
        };
        passes(seconds, once, units, |pass, unit| {
            let cpu0 = cpu_secs();
            let (wall_a, a) = time(|| plain(unit));
            let cpu_a = cpu_secs() - cpu0;
            let (wall_b, b) = time(|| traced(pass, unit));
            log.plain.record(unit, wall_a, ops);
            log.traced.record(unit, wall_b, ops);
            log.cpu_s[unit] = log.cpu_s[unit].min(cpu_a);
            after(unit, a, b);
        });
        log
    }

    /// CPU seconds and parallel efficiency of the untraced units, and what
    /// the traced shape costs over the untraced one.
    pub fn report(&self, threads: usize, out: &mut Outcome) {
        let cpu_s: f64 = self.cpu_s.iter().sum();
        out.set("faultsim.cpu_s", cpu_s);
        out.set(
            "faultsim.parallel_efficiency",
            cpu_s / (self.plain.total_s() * threads as f64),
        );
        out.set(
            "trace.overhead_pct",
            (self.traced.total_s() / self.plain.total_s() - 1.0) * 100.0,
        );
    }
}

/// Ends a traced run: reports the share of root-span time no child span
/// covers and writes the spans to `trace-<workload>.json`.
pub fn finish_trace(ctx: &Ctx, spans: &[Span], out: &mut Outcome) {
    out.set("trace.unattributed_share", spans::unattributed_share(spans));
    let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
    if let Err(e) = spans::write_json(&path, ctx.workload, spans) {
        out.problems
            .push(format!("cannot write {}: {e}", path.display()));
    }
}

/// Times `setup` `reps` times, returning the last state and the samples.
pub fn timed_setups<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut samples = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps.max(1) {
        // Drop the previous state first: a set-up never runs beside an
        // older copy of what it builds.
        drop(state.take());
        let t = Instant::now();
        let s = setup();
        samples.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    (state.expect("at least one set-up ran"), samples)
}

/// The fastest of a run's set-ups. The grid's set-up is binds, connects and
/// thread starts, which the reference kernel says nothing about, so it
/// keeps the wall clock and its fastest sample.
pub fn best_setup(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_seeds_differ_across_seeds_and_units() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..20 {
            for i in 0..20 {
                assert!(seen.insert(unit_seed(seed, i)));
            }
        }
        assert_eq!(unit_seed(1, 0), unit_seed(1, 0));
    }

    #[test]
    fn passes_visit_every_unit_and_quick_runs_make_two() {
        let mut calls = Vec::new();
        passes(0.0, true, 3, |pass, unit| calls.push((pass, unit)));
        assert_eq!(calls, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        let mut calls = 0;
        passes(0.0, false, 3, |_, _| calls += 1);
        assert_eq!(calls, 3, "a run whose time is up stops after the pass");
    }

    #[test]
    fn unit_times_report_each_units_lower_quartile() {
        let mut times = UnitTimes::new(3);
        for (unit, samples) in [
            [1.0, 0.5, 9.0, 1.5, 1.2],
            [2.0, 3.0, 2.5, 2.7, 9.0],
            [4.0; 5],
        ]
        .iter()
        .enumerate()
        {
            for s in samples {
                times.record(unit, *s, 100);
            }
        }
        let mut out = Outcome::default();
        times.report(&mut out);
        // Nearest rank: the second fastest of five.
        assert_eq!(out.metrics["runs_per_sec"], 300.0 / 7.5);
        assert_eq!(out.metrics["submit_to_report_p50_ms"], 2500.0);
        assert_eq!(out.metrics["submit_to_report_p90_ms"], 4000.0);
    }

    #[test]
    fn best_of_keeps_each_units_fastest_pass() {
        let mut best = BestOf::new(2);
        for (unit, wall) in [(0, 1.0), (1, 2.0), (0, 0.5), (1, 3.0)] {
            best.record(unit, wall, 100);
        }
        assert_eq!(best.best_s, [0.5, 2.0]);
        assert_eq!(best.rate(), 200.0 / 2.5);
    }
}
