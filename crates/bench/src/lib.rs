//! # avgi-bench — the experiment harness
//!
//! One executable, `avgi`, whose `paper` command prints every table and
//! figure of the paper (see `DESIGN.md` §3 for the index), beside the
//! ablations, the smoke provers and the grid front ends ([`cmd`]), over one
//! argv parser ([`args`]) and shared plumbing: verified golden runs, the one
//! store every campaign comes from ([`Matrix`]), fixed-width tables.
//!
//! Every experiment command accepts `--faults N` (sample size per campaign,
//! at least one), `--seed S`, `--small` (use the Cortex-A15-like
//! configuration; Fig. 12 is on it either way), `--metrics PATH`,
//! `--progress-ms N` and `--shard I/N`.

pub mod args;
pub mod cmd;

pub use args::Args;

use args::{positive, preset, shard};
use avgi_core::pipeline::AvgiOptions;
use avgi_core::study::{leave_one_out_with, Study};
use avgi_core::JointAnalysis;
use avgi_faultsim::telemetry::ProgressObserver;
use avgi_faultsim::{verified_golden, CampaignResult, RunMode, ShardRunner};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_muarch::trace::GoldenRun;
use avgi_workloads::Workload;
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// One campaign of a [`Matrix`].
pub struct Cell {
    /// The campaign's results.
    pub result: CampaignResult,
    /// The cycles its runs were charged but did not simulate: the change in
    /// the matrix collector's `cycles_skipped` while it ran.
    pub cycles_skipped: u64,
}

/// What names a cell: core configuration, workload, structure, run mode.
type Key = (MuarchConfig, &'static str, Structure, RunMode);

/// An experiment command's campaign flags and every campaign it asks for,
/// each simulated once.
///
/// [`cell`](Matrix::cell) simulates a campaign on its first request, under
/// the command's observer (an IMM-tallying
/// [`avgi_faultsim::MetricsCollector`] behind a stderr [`ProgressObserver`]),
/// only interleaved shard `I` of `N` under `--shard I/N`, printing its
/// `[campaign]` line and its health. [`finish`](Matrix::finish) prints the
/// folded telemetry summary and writes the `--metrics` dump.
pub struct Matrix {
    /// Faults per campaign and sampling seed.
    pub opts: AvgiOptions,
    /// The microarchitecture configuration `--small` chose.
    pub cfg: MuarchConfig,
    /// Offline sharding: run only interleaved shard `I` of `N` of every
    /// campaign (`--shard I/N`). Each shard is a uniform subsample, so
    /// per-shard statistics remain unbiased; `N` processes (or machines)
    /// cover the full sample between them.
    shard: Option<(usize, usize)>,
    observer: Arc<ProgressObserver>,
    metrics: Option<PathBuf>,
    cells: RefCell<Vec<(Key, Rc<Cell>)>>,
}

impl Matrix {
    /// Parses the whole argv of a command that takes only the experiment
    /// flags, with the given default sample size.
    pub fn parse(mut a: Args, default_faults: usize) -> Self {
        let m = Matrix::claim(&mut a, default_faults);
        a.finish();
        m
    }

    /// Claims the experiment flags from `a`.
    pub fn claim(a: &mut Args, default_faults: usize) -> Self {
        let opts = AvgiOptions {
            faults: a
                .value_with("--faults N>=1", positive)
                .unwrap_or(default_faults),
            seed: a.value("--seed S").unwrap_or(0xA461_0001),
        };
        let cfg = preset(a.flag("--small")).config();
        let metrics = a.value("--metrics PATH");
        let progress = Duration::from_millis(a.value("--progress-ms N").unwrap_or(2_000));
        let observer = ProgressObserver::stderr(Arc::new(avgi_core::imm_collector()), progress);
        Matrix {
            opts,
            cfg,
            shard: a.value_with("--shard I/N", shard),
            observer: Arc::new(observer),
            metrics,
            cells: RefCell::default(),
        }
    }

    /// The campaign on structure `s` in `mode` of `w` under `cfg`, at the
    /// matrix's faults and seed: simulated on the first request, the stored
    /// cell on every later one.
    pub fn cell(&self, w: &Workload, cfg: &MuarchConfig, s: Structure, mode: RunMode) -> Rc<Cell> {
        let key = (cfg.clone(), w.name, s, mode);
        if let Some((_, cell)) = self.cells.borrow().iter().find(|(k, _)| *k == key) {
            return cell.clone();
        }
        let (index, count) = self.shard.unwrap_or((0, 1));
        let of = (self.shard).map_or_else(String::new, |(i, n)| format!(", shard {i}/{n}"));
        let faults = self.opts.faults;
        eprintln!(
            "[campaign] {s} / {} ({faults} faults, {mode:?}{of}) on {}",
            w.name, cfg.name
        );
        let skipped = || self.observer.collector().snapshot().cycles_skipped;
        let before = skipped();
        let runner = ShardRunner::new(w, cfg, &golden(w, cfg), &self.opts.campaign(s, mode));
        let results = runner
            .run_interleaved(index, count, Some(self.observer.clone()))
            .expect("argv admits only 0 <= I < N");
        let result = runner.result(results.into_iter().map(|(_, r)| r).collect());
        report_campaign_health(&result);
        let cycles_skipped = skipped() - before;
        let cell = Rc::new(Cell {
            result,
            cycles_skipped,
        });
        self.cells.borrow_mut().push((key, cell.clone()));
        cell
    }

    /// The joint analyses of the ground-truth ([`RunMode::Instrumented`])
    /// campaigns on `s` under the matrix's core, one per workload in
    /// [`avgi_workloads::all`] order.
    pub fn analyses(&self, s: Structure) -> Vec<JointAnalysis> {
        (avgi_workloads::all().iter())
            .map(|w| self.cell(w, &self.cfg, s, RunMode::Instrumented))
            .map(|c| JointAnalysis::from_campaign(&c.result))
            .collect()
    }

    /// The leave-one-out study of `s` under `cfg` over every workload, each
    /// of its campaigns a cell.
    pub fn study(&self, s: Structure, cfg: &MuarchConfig) -> Study {
        leave_one_out_with(
            s,
            &avgi_workloads::all(),
            cfg,
            &self.opts,
            |w, c, _, ccfg| self.cell(w, c, ccfg.structure, ccfg.mode).result.clone(),
        )
    }

    /// Prints the folded telemetry summary to stderr and, when `--metrics`
    /// was given, writes the machine-readable dump.
    pub fn finish(&self) {
        let snap = self.observer.collector().snapshot();
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

/// Prints one Real-vs-predicted table per structure under `cfg` (the body
/// of Figs. 10 and 12; `tag` labels the predicted columns). Returns the worst
/// per-class and the worst SDC-only absolute difference.
pub fn print_accuracy_tables(
    structures: &[Structure],
    m: &Matrix,
    cfg: &MuarchConfig,
    tag: &str,
) -> (f64, f64) {
    let cols = ["Msk", "SDC", "Crs"].map(|c| (format!("real {c}"), format!("{tag} {c}")));
    let mut header = vec!["workload"];
    header.extend(cols.iter().flat_map(|(r, p)| [r.as_str(), p.as_str()]));
    header.push("maxdiff");
    let (mut worst, mut sdc_worst) = (0.0f64, 0.0f64);
    for &s in structures {
        println!("\n--- {} ---", s.label());
        print_header(&header, &[14, 9, 9, 9, 9, 9, 9, 8]);
        for r in m.study(s, cfg).rows {
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
