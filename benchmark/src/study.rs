//! `study_loo_rf`: the paper in one call.
//!
//! `avgi_core::study::leave_one_out` on the register file over four
//! programs: exhaustive instrumented campaigns for training and ground
//! truth, weight learning, and one AVGI assessment per held-out program.
//! It is the only workload through `avgi`'s classification, weights and
//! ESC code, and the only one with an accuracy to report: predicted
//! against exhaustive AVF, and the simulated-cycle speed-up over SFI. Both
//! are exact functions of the seed, so they sit with the per-layer metrics
//! and inside the digest rather than among the timed end-to-end metrics.

use crate::check::{digest_str, golden_line};
use crate::harness::{finish_trace, passes, unit_seed, AbPasses, Ctx, Outcome, UnitTimes};
use crate::measure::{measure, peak_rss_mb, steady, HostClock};
use crate::probes;
use crate::spans::{SpanId, Tracer};
use avgi_core::pipeline::{assess, exhaustive, AvgiOptions};
use avgi_core::{
    classify_injection, default_ert_window, learn_weights, EffectDistribution, FaultEffect, Imm,
    ImmClass, Study, StudyRow, WeightTable, NUM_IMMS,
};
use avgi_faultsim::{golden_for, run_campaign, CampaignConfig, CampaignResult, RunMode};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_refmodel::ExecTier;
use avgi_workloads::Workload;

const PROGRAMS: [&str; 4] = ["bitcount", "crc32", "sha", "qsort"];
const STRUCTURE: Structure = Structure::RegFile;
/// Faults per campaign at full size: small, so that a run holds enough
/// studies for a quartile.
const FAULTS: usize = 48;
/// Studies (fault seeds) per run.
const UNITS: usize = 2;

struct Prepared {
    workloads: Vec<Workload>,
    cfg: MuarchConfig,
    golden_lines: Vec<String>,
}

/// Builds the programs and validates the substrate the study will stand
/// on: each golden run is captured and lockstep-verified once.
fn setup(tracer: &Tracer, parent: Option<SpanId>) -> Prepared {
    let cfg = MuarchConfig::big();
    let workloads: Vec<Workload> = tracer.span("workloads.build", parent, 0, |_| {
        PROGRAMS
            .iter()
            .map(|name| avgi_workloads::by_name(name).expect("benchmark programs exist"))
            .collect()
    });
    let golden_lines = workloads
        .iter()
        .map(|w| {
            let golden = tracer.span("muarch.golden_capture", parent, 0, |_| golden_for(w, &cfg));
            tracer.span("refmodel.verify_golden", parent, 0, |_| {
                avgi_refmodel::verify_golden_tier(&w.program, &golden, ExecTier::Fast)
                    .expect("golden run passes architectural lockstep")
            });
            golden_line(&golden)
        })
        .collect();
    Prepared {
        workloads,
        cfg,
        golden_lines,
    }
}

fn options(ctx: &Ctx, unit: usize) -> AvgiOptions {
    AvgiOptions {
        faults: ctx.size(FAULTS, 4),
        seed: unit_seed(ctx.seed, unit),
        ..Default::default()
    }
}

fn run_unit(p: &Prepared, ctx: &Ctx, unit: usize) -> Study {
    avgi_core::leave_one_out(STRUCTURE, &p.workloads, &p.cfg, &options(ctx, unit))
}

/// The same study assembled from the public pieces `leave_one_out` is made
/// of, with a span around each; rows must match the one-call study exactly.
fn run_unit_traced(p: &Prepared, ctx: &Ctx, unit: usize, tracer: &Tracer) -> Study {
    let id = unit as u64;
    let opts = options(ctx, unit);
    let root = tracer.begin("unit", None, id);
    let trained: Vec<_> = p
        .workloads
        .iter()
        .map(|w| {
            let golden = tracer.span("muarch.golden_capture", Some(root), id, |_| {
                golden_for(w, &p.cfg)
            });
            let truth = tracer.span("avgi.exhaustive", Some(root), id, |_| {
                exhaustive(w, &p.cfg, &golden, STRUCTURE, opts.faults, opts.seed)
            });
            (truth, golden)
        })
        .collect();
    let analyses: Vec<_> = trained.iter().map(|(t, _)| t.analysis.clone()).collect();
    let rows = p
        .workloads
        .iter()
        .zip(&trained)
        .map(|(w, (truth, golden))| {
            let weights = tracer.span("avgi.learn_weights", Some(root), id, |_| {
                learn_weights(&analyses, Some(w.name))
            });
            let a = tracer.span("avgi.assess", Some(root), id, |_| {
                assess(w, &p.cfg, golden, &weights, &opts)
            });
            StudyRow {
                workload: w.name.to_string(),
                real: truth.effect,
                predicted: a.predicted,
                real_cost: truth.cost_cycles,
                avgi_cost: a.cost_cycles,
            }
        })
        .collect();
    tracer.end(root);
    Study {
        structure: STRUCTURE,
        rows,
    }
}

/// One line per row, every number with all its bits.
fn rows_text(study: &Study) -> String {
    study
        .rows
        .iter()
        .map(|r| {
            let bits =
                |d: EffectDistribution| d.to_array().map(|f| format!("{:016x}", f.to_bits()));
            format!(
                "{} real={:?} predicted={:?} real_cost={} avgi_cost={}\n",
                r.workload,
                bits(r.real),
                bits(r.predicted),
                r.real_cost,
                r.avgi_cost
            )
        })
        .collect()
}

/// Injected runs one study performs: a training and an assessment campaign
/// per program.
fn runs_per_study(ctx: &Ctx) -> u64 {
    (2 * PROGRAMS.len() * ctx.size(FAULTS, 4)) as u64
}

/// Books one executed study: shape, normalisation, and that a repeated
/// unit reproduces its first pass.
fn account(study: &Study, unit: usize, ctx: &Ctx, first: &mut Vec<Study>, out: &mut Outcome) {
    let runs = runs_per_study(ctx);
    out.attempted += runs;
    let mut bad = Vec::new();
    if study.rows.len() != PROGRAMS.len() {
        bad.push(format!(
            "{} rows, expected {}",
            study.rows.len(),
            PROGRAMS.len()
        ));
    }
    for r in &study.rows {
        if !r.real.is_normalized() || !r.predicted.is_normalized() {
            bad.push(format!("row `{}` is not a distribution: {r:?}", r.workload));
        }
    }
    match first.get(unit) {
        None => first.push(study.clone()),
        Some(reference) if rows_text(reference) != rows_text(study) => {
            bad.push("a repeated study did not reproduce its rows".into());
        }
        Some(_) => {}
    }
    if !bad.is_empty() {
        out.failed += runs;
        out.problems
            .extend(bad.into_iter().map(|b| format!("unit {unit}: {b}")));
    }
}

fn check_digests(p: &Prepared, ctx: &Ctx, first: &[Study], out: &mut Outcome) {
    for (name, line) in PROGRAMS.iter().zip(&p.golden_lines) {
        out.observed.golden.insert(name.to_string(), line.clone());
    }
    for study in first {
        out.observed.units.push(digest_str(&rows_text(study)));
    }
    out.check_against(ctx, 0);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let off = Tracer::new(false);
    let mut out = Outcome::default();
    let mut clock = HostClock::new(ctx.threads);
    let (first_setup, p) = clock.time(|| setup(&off, None));
    let mut setups = vec![first_setup];
    let mut times = UnitTimes::new(UNITS);
    let mut first = Vec::new();
    passes(ctx.seconds, ctx.quick, UNITS, |_, unit| {
        let (host_s, study) = clock.time(|| run_unit(&p, ctx, unit));
        times.record(unit, host_s, runs_per_study(ctx));
        account(&study, unit, ctx, &mut first, &mut out);
        setups.push(clock.time(|| setup(&off, None)).0);
    });
    let rss = peak_rss_mb();
    check_digests(&p, ctx, &first, &mut out);
    times.report(&mut out);
    out.set("peak_rss_mb", rss);
    out.set("setup_s", steady(&setups));
    out
}

/// Phases 3–5 of `assess` — classification, weights, normalisation — replayed
/// from a finished campaign through the public functions they are made of.
/// The register file is not ESC-eligible, so the escape estimate is zero.
fn assess_post(campaign: &CampaignResult, weights: &WeightTable) -> EffectDistribution {
    let mut imm_counts = [0u64; NUM_IMMS];
    let mut benign = 0u64;
    for r in &campaign.results {
        match classify_injection(r) {
            ImmClass::Benign => benign += 1,
            ImmClass::Manifested(i) => imm_counts[i.index()] += 1,
        }
    }
    let (mut masked, mut sdc, mut crash) = (benign as f64, 0.0, 0.0);
    for imm in Imm::all() {
        let n = imm_counts[imm.index()] as f64;
        masked += n * weights.weight(*imm, FaultEffect::Masked);
        sdc += n * weights.weight(*imm, FaultEffect::Sdc);
        crash += n * weights.weight(*imm, FaultEffect::Crash);
    }
    let distributed = masked + sdc + crash;
    EffectDistribution {
        masked: masked / distributed,
        sdc: sdc / distributed,
        crash: crash / distributed,
    }
}

/// `avgi` layer costs on campaigns of the study's own shape.
fn avgi_layer(p: &Prepared, ctx: &Ctx, out: &mut Outcome) {
    let opts = options(ctx, 0);
    let campaign = |w: &Workload, mode: RunMode| {
        let golden = golden_for(w, &p.cfg);
        let mode = match mode {
            RunMode::FirstDeviation { .. } => RunMode::FirstDeviation {
                ert_window: Some(default_ert_window(STRUCTURE, golden.cycles)),
            },
            other => other,
        };
        let ccfg = CampaignConfig::new(STRUCTURE, opts.faults, mode).with_seed(opts.seed);
        (run_campaign(w, &p.cfg, &golden, &ccfg), golden)
    };
    let training: Vec<CampaignResult> = p
        .workloads
        .iter()
        .map(|w| campaign(w, RunMode::Instrumented).0)
        .collect();
    let held_out = &p.workloads[0];
    let (assessment, golden) = campaign(held_out, RunMode::FirstDeviation { ert_window: None });
    probes::avgi(out, &training, &assessment);

    let analyses: Vec<_> = training
        .iter()
        .map(avgi_core::JointAnalysis::from_campaign)
        .collect();
    let weights = learn_weights(&analyses, Some(held_out.name));
    let post = measure(1, 9, 1, || assess_post(&assessment, &weights));
    out.set("avgi.assess_post_us", post.min * 1e6);
    let whole = assess(held_out, &p.cfg, &golden, &weights, &opts).predicted;
    let replayed = assess_post(&assessment, &weights);
    let apart = whole.max_abs_diff(replayed);
    if apart > 1e-12 {
        out.problems.push(format!(
            "replaying assess phases 3-5 gives {replayed:?}, assess gives {whole:?}"
        ));
    }
}

pub fn trace(ctx: &Ctx) -> Outcome {
    let tracer = Tracer::new(true);
    let mut out = Outcome::default();
    let p = tracer.span("setup", None, 0, |id| setup(&tracer, id));
    let mut first = Vec::new();
    let ab = AbPasses::run(
        ctx.seconds / 2.0,
        ctx.quick,
        UNITS,
        runs_per_study(ctx),
        |unit| run_unit(&p, ctx, unit),
        |_, unit| run_unit_traced(&p, ctx, unit, &tracer),
        |unit, a, b| {
            account(&a, unit, ctx, &mut first, &mut out);
            account(&b, unit, ctx, &mut first, &mut out);
        },
    );
    check_digests(&p, ctx, &first, &mut out);
    let spans = tracer.snapshot();

    probes::program_layers(&mut out, &PROGRAMS, &p.cfg);
    avgi_layer(&p, ctx, &mut out);

    // Exact, count-derived: accuracy against the repository's own
    // exhaustive SFI (the model is not validated against hardware) and the
    // simulated-cycle speed-up, pooled over the run's studies.
    let rows: Vec<&StudyRow> = first.iter().flat_map(|s| &s.rows).collect();
    let err: f64 = rows
        .iter()
        .map(|r| (r.predicted.avf() - r.real.avf()).abs() * 100.0)
        .sum::<f64>()
        / rows.len() as f64;
    let real: u64 = rows.iter().map(|r| r.real_cost).sum();
    let avgi: u64 = rows.iter().map(|r| r.avgi_cost).sum();
    out.set("avgi.avf_abs_err_pp", err);
    out.set(
        "avgi.sim_cycle_speedup_vs_sfi",
        real as f64 / avgi.max(1) as f64,
    );
    let runs = UNITS as u64 * runs_per_study(ctx);
    out.set(
        "faultsim.post_inject_cycles_per_run",
        (real + avgi) as f64 / runs as f64,
    );
    ab.report(ctx.threads, &mut out);
    finish_trace(ctx, &spans, &mut out);
    out
}
