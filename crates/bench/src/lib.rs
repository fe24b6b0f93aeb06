//! # avgi-bench — the experiment harness
//!
//! One executable, `avgi`, with one command per table/figure of the paper
//! (see `DESIGN.md` §3 for the index) plus the smoke provers and the grid
//! front ends ([`cmd`]), over one argv parser ([`args`]) and shared
//! plumbing: verified golden runs, campaign grids, fixed-width tables.
//!
//! Every experiment command accepts `--faults N` (sample size per campaign,
//! default tuned to finish in minutes), `--seed S`, and `--small` (use the
//! Cortex-A15-like configuration).

pub mod args;
pub mod cmd;

pub use args::{Args, ExpArgs};

use avgi_core::study::leave_one_out;
use avgi_core::JointAnalysis;
use avgi_faultsim::telemetry::{CampaignObserver, MetricsCollector, ProgressObserver};
use avgi_faultsim::{run_campaign, verified_golden, CampaignConfig, CampaignResult, RunMode};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_muarch::trace::GoldenRun;
use avgi_workloads::Workload;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The experiment commands' telemetry bundle: an IMM-tallying
/// [`MetricsCollector`] behind a stderr [`ProgressObserver`], plus the
/// optional `metrics.json` destination from `--metrics`.
///
/// One bundle observes every campaign a command runs;
/// [`finish`](ExpTelemetry::finish) prints the folded summary and writes
/// the dump.
pub struct ExpTelemetry {
    collector: Arc<MetricsCollector>,
    observer: Arc<ProgressObserver>,
    metrics_path: Option<PathBuf>,
}

impl ExpTelemetry {
    /// Builds the bundle from parsed arguments.
    pub fn from_args(args: &ExpArgs) -> Self {
        let collector = Arc::new(avgi_core::imm_collector());
        let observer = Arc::new(ProgressObserver::stderr(
            collector.clone(),
            Duration::from_millis(args.progress_ms),
        ));
        ExpTelemetry {
            collector,
            observer,
            metrics_path: args.metrics.clone(),
        }
    }

    /// The observer to attach to campaigns.
    pub fn observer(&self) -> Arc<dyn CampaignObserver> {
        self.observer.clone()
    }

    /// Prints the folded telemetry summary to stderr and, when `--metrics`
    /// was given, writes the machine-readable dump.
    pub fn finish(&self) {
        let snap = self.collector.snapshot();
        if snap.completed == 0 {
            return;
        }
        eprint!("{}", avgi_core::TelemetrySummary(&snap));
        if let Some(path) = &self.metrics_path {
            match std::fs::write(path, snap.to_json()) {
                Ok(()) => eprintln!("[telemetry] wrote {}", path.display()),
                Err(e) => eprintln!("[telemetry] could not write {}: {e}", path.display()),
            }
        }
    }
}

/// The golden run of `workload` under `cfg`, from the process-wide
/// [`verified_golden`] provider: captured once, lockstep-verified and
/// checked against the workload's expected output before any campaign is
/// built on it.
///
/// # Panics
///
/// Panics with the verification failure: no experiment is run on a
/// fault-free run the reference model disagrees with.
pub fn golden(workload: &Workload, cfg: &MuarchConfig) -> Arc<GoldenRun> {
    verified_golden(workload, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Prints campaign-health diagnostics to stderr — engine warnings (e.g.
/// checkpointing degraded), the per-structure abort rate, and wall-clock
/// expiries — so an unhealthy simulator is visible in experiment output
/// instead of silently folding into the crash column. Healthy campaigns
/// print nothing.
fn report_campaign_health(c: &CampaignResult) {
    for msg in &c.warnings {
        eprintln!("[health] {} / {}: {msg}", c.structure, c.workload);
    }
    if c.aborted_count() > 0 {
        eprintln!(
            "[health] {} / {}: {} of {} runs aborted in the simulator (abort rate {:.2}%)",
            c.structure,
            c.workload,
            c.aborted_count(),
            c.len(),
            c.abort_rate() * 100.0
        );
    }
    if c.wall_expired_count() > 0 {
        eprintln!(
            "[health] {} / {}: {} of {} runs exceeded the wall-clock budget",
            c.structure,
            c.workload,
            c.wall_expired_count(),
            c.len()
        );
    }
}

/// Runs one campaign at the budget and seed of `args` and reports its
/// health.
pub fn campaign(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    structure: Structure,
    mode: RunMode,
    args: &ExpArgs,
) -> CampaignResult {
    let ccfg = CampaignConfig::new(structure, args.faults, mode).with_seed(args.seed);
    campaign_under(workload, cfg, golden, &ccfg)
}

/// Runs the campaign `ccfg` describes — observer and all — and reports its
/// health.
pub fn campaign_under(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
) -> CampaignResult {
    let c = run_campaign(workload, cfg, golden, ccfg);
    report_campaign_health(&c);
    c
}

/// Runs an instrumented (end-to-end + deviation capture) campaign under
/// `observer` and returns its joint analysis. With `--shard I/N` only
/// interleaved shard `I` of `N` executes — a uniform subsample of the
/// campaign, for splitting a figure's work across independent processes.
fn instrumented_analysis(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    structure: Structure,
    args: &ExpArgs,
    observer: Arc<dyn CampaignObserver>,
) -> JointAnalysis {
    let ccfg =
        CampaignConfig::new(structure, args.faults, RunMode::Instrumented).with_seed(args.seed);
    let c = match args.shard {
        None => run_campaign(workload, cfg, golden, &ccfg.with_observer(observer)),
        Some((index, count)) => {
            let runner = avgi_faultsim::ShardRunner::new(workload, cfg, golden, &ccfg);
            let results = runner
                .run_interleaved(index, count, Some(observer))
                .expect("argv admits only 0 <= I < N");
            runner.result(results.into_iter().map(|(_, r)| r).collect())
        }
    };
    report_campaign_health(&c);
    JointAnalysis::from_campaign(&c)
}

/// Runs instrumented campaigns for every (structure, workload) pair — all
/// workloads, on the configuration, budget, seed and shard `args` name —
/// printing progress to stderr. `telemetry` observes every campaign.
pub fn analysis_grid(
    structures: &[Structure],
    args: &ExpArgs,
    telemetry: &ExpTelemetry,
) -> Vec<JointAnalysis> {
    let (cfg, workloads) = (args.config(), avgi_workloads::all());
    let shard = args
        .shard
        .map_or_else(String::new, |(i, n)| format!(", shard {i}/{n}"));
    let mut out = Vec::with_capacity(structures.len() * workloads.len());
    for &s in structures {
        for w in &workloads {
            eprintln!("[grid] {s} / {} ({} faults{shard})", w.name, args.faults);
            let (golden, observer) = (golden(w, &cfg), telemetry.observer());
            out.push(instrumented_analysis(w, &cfg, &golden, s, args, observer));
        }
    }
    out
}

/// Prints one Real-vs-predicted table per structure (the body of Figs. 10
/// and 12; `tag` labels the predicted columns). Returns the worst
/// per-class and the worst SDC-only absolute difference.
pub fn print_accuracy_tables(
    structures: &[Structure],
    cfg: &MuarchConfig,
    args: &ExpArgs,
    tag: &str,
) -> (f64, f64) {
    let workloads = avgi_workloads::all();
    let cols = ["Msk", "SDC", "Crs"].map(|c| (format!("real {c}"), format!("{tag} {c}")));
    let mut header = vec!["workload"];
    header.extend(cols.iter().flat_map(|(r, p)| [r.as_str(), p.as_str()]));
    header.push("maxdiff");
    let (mut worst, mut sdc_worst) = (0.0f64, 0.0f64);
    for &s in structures {
        println!("\n--- {} ---", s.label());
        print_header(&header, &[14, 9, 9, 9, 9, 9, 9, 8]);
        eprintln!(
            "[loo:{s}] {} workloads x {} faults",
            workloads.len(),
            args.faults
        );
        for r in leave_one_out(s, &workloads, cfg, &args.avgi_options()).rows {
            worst = worst.max(r.max_abs_diff());
            sdc_worst = sdc_worst.max((r.real.sdc - r.predicted.sdc).abs());
            println!(
                "{:>14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
                r.workload,
                pct(r.real.masked),
                pct(r.predicted.masked),
                pct(r.real.sdc),
                pct(r.predicted.sdc),
                pct(r.real.crash),
                pct(r.predicted.crash),
                pct(r.max_abs_diff()),
            );
        }
    }
    (worst, sdc_worst)
}

/// Formats a fraction as a fixed-width percentage.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Prints a header row followed by a separator, for fixed-width tables.
pub fn print_header(cols: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$} "));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), " 50.0%");
        assert_eq!(pct(0.012), "  1.2%");
    }
}
