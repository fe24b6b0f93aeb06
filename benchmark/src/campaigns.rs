//! The three in-process campaign workloads: one engine, three regimes.
//!
//! | workload | mode | what dominates |
//! |---|---|---|
//! | `avgi_rf_crc32` | first deviation + ERT | cycle loop, prefix carrier, fork/restore |
//! | `sfi_l1d_rijndael` | end to end | cycle loop through LSQ/cache paths |
//! | `engine_rob_sha_journaled` | first deviation + ERT, journaled, observed | per-run engine overhead, journal, telemetry |
//!
//! A run sets up (program build, golden capture, lockstep verification),
//! then makes passes over a few unit campaigns — fixed fault lists drawn
//! from the run's seed — until the time is up, and reports each unit's
//! steady time on the reference host's clock (see [`UnitTimes`] for why).
//! The first pass's results are checked; every later pass must reproduce
//! them exactly. Units are a fraction of a second long so that a run holds
//! enough executions for a quartile and the host's speed, sampled around each,
//! is the speed it ran at; the price is that each unit pays the campaign's
//! fixed costs (fault sampling, checkpoint build) again, which the
//! per-layer metrics state.

use crate::check::{failed_runs, golden_line, subsample_check};
use crate::harness::{finish_trace, passes, unit_seed, AbPasses, BestOf, Ctx, Outcome, UnitTimes};
use crate::measure::{peak_rss_mb, steady, time, HostClock};
use crate::probes;
use crate::spans::{SpanId, Tracer};
use avgi_core::default_ert_window;
use avgi_faultsim::journal::{CampaignKey, DurabilityPolicy, Journal};
use avgi_faultsim::sample_faults;
use avgi_faultsim::telemetry::{CampaignObserver, MetricsCollector};
use avgi_faultsim::{
    golden_for, run_campaign, run_campaign_journaled, CampaignConfig, InjectionResult, RunMode,
    ShardRunner,
};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_muarch::trace::GoldenRun;
use avgi_refmodel::ExecTier;
use avgi_workloads::Workload;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Indices per `ShardRunner::run_indices` call in the traced shape — the
/// engine's own shared-prefix batch size (less for a unit too small to give
/// every thread a few chunks of that size to balance with).
const CHUNK: usize = 32;

struct Def {
    program: &'static str,
    structure: Structure,
    /// End-to-end SFI runs rather than the AVGI first-deviation mode.
    sfi: bool,
    /// Unit campaigns (fault seeds) per run.
    units: usize,
    /// Faults per unit campaign at full size.
    faults: usize,
    /// Journal every run (fresh journal per campaign) and observe it with a
    /// `MetricsCollector`.
    journaled: bool,
}

fn def(workload: &str) -> Def {
    match workload {
        "avgi_rf_crc32" => Def {
            program: "crc32",
            structure: Structure::RegFile,
            sfi: false,
            units: 2,
            faults: 750,
            journaled: false,
        },
        "sfi_l1d_rijndael" => Def {
            program: "rijndael",
            structure: Structure::L1DData,
            sfi: true,
            units: 2,
            faults: 32,
            journaled: false,
        },
        "engine_rob_sha_journaled" => Def {
            program: "sha",
            structure: Structure::Rob,
            sfi: false,
            units: 2,
            faults: 12_000,
            journaled: true,
        },
        other => unreachable!("`{other}` is not a campaign workload"),
    }
}

struct Prepared {
    workload: Workload,
    cfg: MuarchConfig,
    golden: Arc<GoldenRun>,
    mode: RunMode,
}

fn setup(d: &Def, tracer: &Tracer, parent: Option<SpanId>) -> Prepared {
    let workload = tracer.span("workloads.build", parent, 0, |_| {
        avgi_workloads::by_name(d.program).expect("benchmark programs exist")
    });
    let cfg = MuarchConfig::big();
    let golden = tracer.span("muarch.golden_capture", parent, 0, |_| {
        golden_for(&workload, &cfg)
    });
    tracer.span("refmodel.verify_golden", parent, 0, |_| {
        avgi_refmodel::verify_golden_tier(&workload.program, &golden, ExecTier::Fast)
            .expect("golden run passes architectural lockstep")
    });
    let mode = if d.sfi {
        RunMode::EndToEnd
    } else {
        RunMode::FirstDeviation {
            ert_window: Some(default_ert_window(d.structure, golden.cycles)),
        }
    };
    Prepared {
        workload,
        cfg,
        golden,
        mode,
    }
}

/// A run's fixed parts: the workload, its set-up state, and the fault seed
/// of each unit.
struct Bench<'a> {
    d: Def,
    p: Prepared,
    ctx: &'a Ctx,
    seeds: Vec<u64>,
}

/// Candidate seeds tried per unit by [`balanced_seed`].
const SEED_CANDIDATES: u64 = 16;

/// The fault seed of one unit: of a few candidates derived from the run's
/// seed, the one whose fault list has its mean injection cycle nearest
/// mid-run. An end-to-end run costs what is left of the program after its
/// injection cycle, so a small unit's cost would otherwise swing by several
/// percent with the seed alone; the choice is still a function of the seed
/// only, and every candidate is an ordinary uniform sample.
fn balanced_seed(d: &Def, p: &Prepared, ctx: &Ctx, unit: usize) -> u64 {
    let faults = ctx.size(d.faults, 3);
    let first = unit_seed(ctx.seed, unit);
    (0..SEED_CANDIDATES)
        .map(|k| first.wrapping_add(k))
        .min_by_key(|&seed| {
            let list = sample_faults(d.structure, &p.cfg, p.golden.cycles, faults, seed)
                .expect("golden run is not empty");
            let sum: u64 = list.iter().map(|f| f.cycle).sum();
            (2 * sum).abs_diff(p.golden.cycles * faults as u64)
        })
        .expect("at least one candidate")
}

impl<'a> Bench<'a> {
    fn new(d: Def, p: Prepared, ctx: &'a Ctx) -> Bench<'a> {
        let seeds = (0..d.units)
            .map(|unit| balanced_seed(&d, &p, ctx, unit))
            .collect();
        Bench { d, p, ctx, seeds }
    }

    fn faults(&self) -> usize {
        self.ctx.size(self.d.faults, 3)
    }

    fn config(&self, unit: usize, threads: usize) -> CampaignConfig {
        let mut ccfg = CampaignConfig::new(self.d.structure, self.faults(), self.p.mode)
            .with_seed(self.seeds[unit])
            .with_checkpoints(8)
            .with_batch(CHUNK);
        ccfg.threads = threads;
        ccfg
    }

    /// One unit campaign through the engine's own entry point, as a user
    /// would call it.
    fn run_unit(&self, unit: usize, threads: usize) -> Vec<InjectionResult> {
        let p = &self.p;
        let ccfg = self.config(unit, threads);
        if !self.d.journaled {
            return run_campaign(&p.workload, &p.cfg, &p.golden, &ccfg).results;
        }
        let path = self.ctx.tmp.join(format!("journal-{unit}.jsonl"));
        let collector = Arc::new(MetricsCollector::new());
        let observed = ccfg.with_observer(collector.clone());
        let result = run_campaign_journaled(&p.workload, &p.cfg, &p.golden, &observed, &path)
            .expect("journal in the run's scratch directory is writable");
        assert_eq!(
            collector.snapshot().completed as usize,
            result.results.len(),
            "observer missed runs"
        );
        let _ = std::fs::remove_file(&path);
        result.results
    }

    /// The same campaign in the traced shape: a `ShardRunner` driven chunk
    /// by chunk from the benchmark's own threads, with a span around every
    /// call into the engine (and around every journal append, where the
    /// workload journals). Results are bit-identical to [`Bench::run_unit`]'s.
    fn run_unit_traced(&self, pass: usize, unit: usize, tracer: &Tracer) -> Vec<InjectionResult> {
        let (p, ctx) = (&self.p, self.ctx);
        // One id per execution, so that spans can be grouped by it.
        let id = (pass * self.d.units + unit) as u64;
        let root = tracer.begin("unit", None, id);
        let ccfg = self.config(unit, 1);
        let runner = tracer.span("faultsim.shard_setup", Some(root), id, |_| {
            ShardRunner::new(&p.workload, &p.cfg, &p.golden, &ccfg)
        });
        let mut order: Vec<usize> = (0..ccfg.faults).collect();
        order.sort_by_key(|&i| runner.faults()[i].cycle);

        let collector = self.d.journaled.then(|| Arc::new(MetricsCollector::new()));
        let journal = self.d.journaled.then(|| {
            let path = ctx.tmp.join(format!("journal-traced-{unit}.jsonl"));
            let key = CampaignKey::new(p.workload.name, &p.cfg, p.golden.cycles, &ccfg);
            let (journal, _) = tracer.span("faultsim.journal_open", Some(root), id, |_| {
                Journal::open_with(&path, &key, DurabilityPolicy::Flush).expect("journal opens")
            });
            (Mutex::new(journal), path)
        });

        let mut results: Vec<Option<InjectionResult>> = vec![None; ccfg.faults];
        let sink = Mutex::new(&mut results);
        let next = AtomicUsize::new(0);
        let chunk = CHUNK.min(ccfg.faults.div_ceil(4 * ctx.threads));
        let chunks: Vec<&[usize]> = order.chunks(chunk).collect();
        tracer.span("campaign", Some(root), id, |campaign| {
            let run_chunk = |chunk: &[usize]| {
                let observer = collector.clone().map(|c| c as Arc<dyn CampaignObserver>);
                let done = tracer.span("faultsim.run_indices", campaign, id, |_| {
                    runner
                        .run_indices(chunk, observer)
                        .expect("indices in range")
                });
                if let Some((journal, _)) = &journal {
                    tracer.span("faultsim.journal_append", campaign, id, |_| {
                        let mut journal = journal.lock().expect("journal lock poisoned");
                        for (i, r) in &done {
                            journal.append(*i, r).expect("journal append");
                        }
                    });
                }
                let mut sink = sink.lock().expect("result lock poisoned");
                for (i, r) in done {
                    sink[i] = Some(r);
                }
            };
            std::thread::scope(|s| {
                for _ in 0..ctx.threads {
                    s.spawn(|| {
                        while let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
                            run_chunk(chunk);
                        }
                    });
                }
            });
        });
        if let Some((journal, path)) = journal {
            drop(journal);
            let _ = std::fs::remove_file(path);
        }
        tracer.end(root);
        results
            .into_iter()
            .map(|r| r.expect("every index ran"))
            .collect()
    }

    /// Digests the first pass and the simulated statistics, and compares
    /// them with the recorded ones where those apply.
    fn check_digests(&self, first: &[Vec<InjectionResult>], out: &mut Outcome) {
        out.observed
            .golden
            .insert(self.d.program.to_string(), golden_line(&self.p.golden));
        for results in first {
            out.observed.push_results(results);
        }
        out.check_against(self.ctx, self.faults());
    }

    /// The seed-independent check: re-executes a subsample of every unit
    /// through the engine's simplest path.
    fn check_subsample(&self, first: &[Vec<InjectionResult>], out: &mut Outcome) {
        let p = &self.p;
        for (unit, results) in first.iter().enumerate() {
            let ccfg = self.config(unit, self.ctx.threads);
            out.problems.extend(subsample_check(
                &p.workload,
                &p.cfg,
                &p.golden,
                &ccfg,
                results,
            ));
        }
    }
}

/// Books one executed unit: failed runs, and — from the second pass on —
/// that it reproduced the first pass's results.
fn account(
    results: Vec<InjectionResult>,
    unit: usize,
    faults: usize,
    first: &mut Vec<Vec<InjectionResult>>,
    out: &mut Outcome,
) {
    out.attempted += faults as u64;
    out.failed += failed_runs(&results) + faults.saturating_sub(results.len()) as u64;
    match first.get(unit) {
        None => first.push(results),
        Some(reference) if *reference != results => {
            let at = reference.iter().zip(&results).position(|(a, b)| a != b);
            out.failed += faults as u64;
            out.problems.push(format!(
                "unit {unit} did not repeat its own results (first difference at index {at:?})"
            ));
        }
        Some(_) => {}
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let d = def(ctx.workload);
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    let mut clock = HostClock::new(ctx.threads);
    let (first_setup, p) = clock.time(|| setup(&d, &off, None));
    let mut setups = vec![first_setup];
    let bench = Bench::new(d, p, ctx);
    let units = bench.d.units;

    let mut times = UnitTimes::new(units);
    let mut first = Vec::new();
    passes(ctx.seconds, ctx.quick, units, |_, unit| {
        let (host_s, results) = clock.time(|| bench.run_unit(unit, ctx.threads));
        times.record(unit, host_s, results.len() as u64);
        account(results, unit, bench.faults(), &mut first, &mut out);
        // One more set-up after every unit: as many samples as the units
        // have, spread over the run like theirs.
        setups.push(clock.time(|| setup(&bench.d, &off, None)).0);
    });
    let rss = peak_rss_mb();
    bench.check_digests(&first, &mut out);
    bench.check_subsample(&first, &mut out);
    times.report(&mut out);
    out.set("peak_rss_mb", rss);
    out.set("setup_s", steady(&setups));
    out
}

pub fn trace(ctx: &Ctx) -> Outcome {
    let d = def(ctx.workload);
    let tracer = Tracer::new(true);
    let mut out = Outcome::default();
    let p = tracer.span("setup", None, 0, |id| setup(&d, &tracer, id));
    let bench = Bench::new(d, p, ctx);
    let (d, p) = (&bench.d, &bench.p);
    let (units, faults) = (d.units, bench.faults());

    // Untraced and traced executions of the same units, alternating; the
    // traced shape must reproduce the engine's results bit for bit.
    let mut first = Vec::new();
    let ab = AbPasses::run(
        ctx.seconds / 2.0,
        ctx.quick,
        units,
        faults as u64,
        |unit| bench.run_unit(unit, ctx.threads),
        |pass, unit| bench.run_unit_traced(pass, unit, &tracer),
        |unit, a, b| {
            account(a, unit, faults, &mut first, &mut out);
            account(b, unit, faults, &mut first, &mut out);
        },
    );
    bench.check_digests(&first, &mut out);
    let spans = tracer.snapshot();

    probes::program_layers(&mut out, &[d.program], &p.cfg);
    let ccfg = bench.config(0, ctx.threads);
    probes::faultsim_setup(&mut out, &p.workload, &p.cfg, &p.golden, &ccfg);

    // Thread time per run inside the engine: per execution, the sum of its
    // `run_indices` spans; per unit, the fastest execution.
    let mut engine_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == "faultsim.run_indices") {
        *engine_ns.entry(span.trial_id).or_default() += span.end_ns - span.start_ns;
    }
    let mut best_ns = vec![u64::MAX; units];
    for (id, ns) in engine_ns {
        let unit = id as usize % units;
        best_ns[unit] = best_ns[unit].min(ns);
    }
    let us_per_run = best_ns.iter().sum::<u64>() as f64 / 1e3 / (units * faults) as f64;
    let post_cycles: u64 = first.iter().flatten().map(|r| r.post_inject_cycles).sum();
    let cycles_per_run = post_cycles as f64 / (units * faults) as f64;
    out.set("faultsim.us_per_run", us_per_run);
    out.set("faultsim.post_inject_cycles_per_run", cycles_per_run);
    out.set(
        "faultsim.engine_overhead_us_per_run",
        us_per_run - cycles_per_run * out.metrics["muarch.ns_per_cycle_faultfree"] / 1e3,
    );
    ab.report(ctx.threads, &mut out);
    let mut single = BestOf::new(units);
    passes(0.0, true, units, |_, unit| {
        let (wall, results) = time(|| bench.run_unit(unit, 1));
        single.record(unit, wall, results.len() as u64);
    });
    out.set("faultsim.t1_runs_per_sec", single.rate());

    if d.journaled {
        probes::observer_cost(&mut out, &p.workload, &p.cfg, &p.golden, &ccfg);
        probes::faultsim_journal(
            &mut out,
            &p.workload,
            &p.cfg,
            &p.golden,
            &ccfg,
            &first[0],
            &ctx.tmp,
        );
    }
    if ctx.workload == "avgi_rf_crc32" {
        probes::adaptive(&mut out, &p.workload, &p.cfg, &p.golden, &ccfg);
    }

    finish_trace(ctx, &spans, &mut out);
    out
}
