//! # avgi-bench — the experiment harness
//!
//! One executable, `avgi`, with one command per table/figure of the paper
//! (see `DESIGN.md` §3 for the index) plus the smoke provers and the grid
//! front ends ([`cmd`]), over one argv parser ([`args`]) and shared
//! plumbing: verified golden runs, the one campaign executor ([`Exp`]),
//! fixed-width tables.
//!
//! Every experiment command accepts `--faults N` (sample size per campaign,
//! at least one; the default is tuned to finish in minutes), `--seed S`,
//! `--small` (use the Cortex-A15-like configuration; not on `fig12`, whose
//! subject it is), `--metrics PATH`, `--progress-ms N` and `--shard I/N`.

pub mod args;
pub mod cmd;

pub use args::Args;

use args::{positive, preset, shard};
use avgi_core::pipeline::AvgiOptions;
use avgi_core::study::leave_one_out_with;
use avgi_core::JointAnalysis;
use avgi_faultsim::telemetry::{MetricsSnapshot, ProgressObserver};
use avgi_faultsim::{verified_golden, CampaignConfig, CampaignResult, RunMode, ShardRunner};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_muarch::trace::GoldenRun;
use avgi_workloads::Workload;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// An experiment command's campaign flags and the one executor every
/// campaign it runs goes through.
///
/// [`run`](Exp::run) attaches the command's observer (an IMM-tallying
/// [`avgi_faultsim::MetricsCollector`] behind a stderr
/// [`ProgressObserver`]), runs only interleaved shard `I` of `N` under
/// `--shard I/N`, and prints the campaign's health;
/// [`finish`](Exp::finish) prints the folded telemetry summary and writes
/// the `--metrics` dump.
pub struct Exp {
    /// Faults per campaign and sampling seed.
    pub opts: AvgiOptions,
    /// The microarchitecture configuration.
    pub cfg: MuarchConfig,
    /// Offline sharding: run only interleaved shard `I` of `N` of every
    /// campaign (`--shard I/N`). Each shard is a uniform subsample, so
    /// per-shard statistics remain unbiased; `N` processes (or machines)
    /// cover the full sample between them.
    shard: Option<(usize, usize)>,
    observer: Arc<ProgressObserver>,
    metrics: Option<PathBuf>,
}

impl Exp {
    /// Parses the whole argv of a command that takes only the experiment
    /// flags, with the given default sample size.
    pub fn parse(mut a: Args, default_faults: usize) -> Self {
        let exp = Exp::claim(&mut a, default_faults, None);
        a.finish();
        exp
    }

    /// Claims the experiment flags from `a`. `cfg` fixes the configuration;
    /// `None` lets `--small` choose it.
    pub fn claim(a: &mut Args, default_faults: usize, cfg: Option<MuarchConfig>) -> Self {
        let opts = AvgiOptions {
            faults: a
                .value_with("--faults N>=1", positive)
                .unwrap_or(default_faults),
            seed: a.value("--seed S").unwrap_or(0xA461_0001),
        };
        let cfg = cfg.unwrap_or_else(|| preset(a.flag("--small")).config());
        let metrics = a.value("--metrics PATH");
        let progress = Duration::from_millis(a.value("--progress-ms N").unwrap_or(2_000));
        let observer = ProgressObserver::stderr(Arc::new(avgi_core::imm_collector()), progress);
        Exp {
            opts,
            cfg,
            shard: a.value_with("--shard I/N", shard),
            observer: Arc::new(observer),
            metrics,
        }
    }

    /// Runs the campaign `ccfg` describes under the command's observer —
    /// only shard `I` of `N` under `--shard I/N` — and reports its health.
    pub fn run(
        &self,
        workload: &Workload,
        cfg: &MuarchConfig,
        golden: &Arc<GoldenRun>,
        ccfg: &CampaignConfig,
    ) -> CampaignResult {
        let (index, count) = self.shard.unwrap_or((0, 1));
        let of = self
            .shard
            .map_or_else(String::new, |(i, n)| format!(", shard {i}/{n}"));
        eprintln!(
            "[campaign] {} / {} ({} faults{of})",
            ccfg.structure, workload.name, ccfg.faults
        );
        let runner = ShardRunner::new(workload, cfg, golden, ccfg);
        let results = runner
            .run_interleaved(index, count, Some(self.observer.clone()))
            .expect("argv admits only 0 <= I < N");
        let c = runner.result(results.into_iter().map(|(_, r)| r).collect());
        report_campaign_health(&c);
        c
    }

    /// The command's telemetry so far, over every campaign it has run.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.observer.collector().snapshot()
    }

    /// Prints the folded telemetry summary to stderr and, when `--metrics`
    /// was given, writes the machine-readable dump.
    pub fn finish(&self) {
        let snap = self.metrics();
        if snap.completed == 0 {
            return;
        }
        eprint!("{}", avgi_core::TelemetrySummary(&snap));
        if let Some(path) = &self.metrics {
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

/// Prints the per-structure abort rate to stderr, so an unhealthy simulator
/// is visible in experiment output instead of silently folding into the
/// crash column. Healthy campaigns print nothing.
fn report_campaign_health(c: &CampaignResult) {
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
}

/// Instrumented (end-to-end, the same run under the label of the §III
/// analysis) campaigns for every
/// (structure, workload) pair, all workloads, through `exp`, folded into
/// their joint analyses.
pub fn analysis_grid(structures: &[Structure], exp: &Exp) -> Vec<JointAnalysis> {
    let workloads = avgi_workloads::all();
    let mut out = Vec::with_capacity(structures.len() * workloads.len());
    for &s in structures {
        let ccfg = exp.opts.campaign(s, RunMode::Instrumented);
        for w in &workloads {
            let c = exp.run(w, &exp.cfg, &golden(w, &exp.cfg), &ccfg);
            out.push(JointAnalysis::from_campaign(&c));
        }
    }
    out
}

/// Prints one Real-vs-predicted table per structure (the body of Figs. 10
/// and 12; `tag` labels the predicted columns). Returns the worst
/// per-class and the worst SDC-only absolute difference.
pub fn print_accuracy_tables(structures: &[Structure], exp: &Exp, tag: &str) -> (f64, f64) {
    let workloads = avgi_workloads::all();
    let cols = ["Msk", "SDC", "Crs"].map(|c| (format!("real {c}"), format!("{tag} {c}")));
    let mut header = vec!["workload"];
    header.extend(cols.iter().flat_map(|(r, p)| [r.as_str(), p.as_str()]));
    header.push("maxdiff");
    let (mut worst, mut sdc_worst) = (0.0f64, 0.0f64);
    for &s in structures {
        println!("\n--- {} ---", s.label());
        print_header(&header, &[14, 9, 9, 9, 9, 9, 9, 8]);
        let study = leave_one_out_with(s, &workloads, &exp.cfg, &exp.opts, |w, c, g, cc| {
            exp.run(w, c, g, cc)
        });
        for r in study.rows {
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
