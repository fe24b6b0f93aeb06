//! # avgi-bench — the experiment harness
//!
//! One runnable binary per table/figure of the paper (see `DESIGN.md` §3
//! for the index), plus shared plumbing: argument parsing, golden-run
//! caching, campaign grids, and fixed-width table printing.
//!
//! Every binary accepts `--faults N` (sample size per campaign, default
//! tuned to finish in minutes), `--seed S`, and `--small` (use the
//! Cortex-A15-like configuration).

use avgi_core::JointAnalysis;
use avgi_faultsim::telemetry::{
    CampaignObserver, MetricsCollector, MetricsSnapshot, ProgressObserver,
};
use avgi_faultsim::{
    config_hash, golden_for, run_campaign, CampaignConfig, CampaignResult, RunMode,
};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_muarch::trace::GoldenRun;
use avgi_workloads::Workload;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Common command-line options for experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Faults per (structure, workload) campaign.
    pub faults: usize,
    /// Sampling seed.
    pub seed: u64,
    /// Use the small (Cortex-A15-like) configuration.
    pub small: bool,
    /// Restrict to one workload by name (tools that support it).
    pub workload: Option<String>,
    /// Write a machine-readable `metrics.json` telemetry dump here.
    pub metrics: Option<PathBuf>,
    /// Minimum milliseconds between live progress lines.
    pub progress_ms: u64,
    /// Offline sharding: run only interleaved shard `I` of `N` of every
    /// campaign (`--shard I/N`). Each shard is a uniform subsample, so
    /// per-shard statistics remain unbiased; `N` processes (or machines)
    /// cover the full sample between them.
    pub shard: Option<(usize, usize)>,
}

impl ExpArgs {
    /// Parses `--faults N`, `--seed S`, `--small`, `--workload NAME`,
    /// `--metrics PATH`, `--progress-ms N` from `std::env::args`, with the
    /// given default sample size.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_faults: usize) -> Self {
        let mut args = ExpArgs {
            faults: default_faults,
            seed: 0xA461_0001,
            small: false,
            workload: None,
            metrics: None,
            progress_ms: 2_000,
            shard: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--faults" => {
                    args.faults = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--faults needs a number");
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs a number");
                }
                "--small" => args.small = true,
                "--workload" => {
                    args.workload = Some(it.next().expect("--workload needs a name"));
                }
                "--metrics" => {
                    args.metrics = Some(PathBuf::from(it.next().expect("--metrics needs a path")));
                }
                "--progress-ms" => {
                    args.progress_ms = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--progress-ms needs a number");
                }
                "--shard" => {
                    let spec = it.next().expect("--shard needs I/N");
                    args.shard = Some(parse_shard(&spec));
                }
                other => panic!(
                    "unknown argument `{other}` (supported: --faults N --seed S --small \
                     --workload NAME --metrics PATH --progress-ms N --shard I/N)"
                ),
            }
        }
        validate_workloads();
        args
    }

    /// The selected microarchitecture configuration as a named preset.
    pub fn preset(&self) -> avgi_grid::ConfigPreset {
        if self.small {
            avgi_grid::ConfigPreset::Small
        } else {
            avgi_grid::ConfigPreset::Big
        }
    }

    /// The selected microarchitecture configuration.
    pub fn config(&self) -> MuarchConfig {
        if self.small {
            MuarchConfig::small()
        } else {
            MuarchConfig::big()
        }
    }
}

/// The experiment binaries' telemetry bundle: an IMM-tallying
/// [`MetricsCollector`] behind a stderr [`ProgressObserver`], plus the
/// optional `metrics.json` destination from `--metrics`.
///
/// One bundle observes every campaign a binary runs;
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

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.collector.snapshot()
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

/// Parses a `--shard I/N` specification (0-based shard index).
///
/// # Panics
///
/// Panics with a usage message when the spec is malformed or `I >= N`.
pub fn parse_shard(spec: &str) -> (usize, usize) {
    let parse = || -> Option<(usize, usize)> {
        let (i, n) = spec.split_once('/')?;
        let i: usize = i.parse().ok()?;
        let n: usize = n.parse().ok()?;
        (i < n).then_some((i, n))
    };
    parse().unwrap_or_else(|| panic!("--shard wants I/N with 0 <= I < N, got `{spec}`"))
}

/// Architectural startup validation: executes every registered workload on
/// the `avgi-refmodel` reference interpreter and panics if any fails to
/// reach a clean halt. Runs automatically from [`ExpArgs::parse`], so a
/// workload image corrupted by a bad edit (or a reference-model regression)
/// aborts every experiment binary before any campaign spends cycles on it.
///
/// The interpreter is untimed, so this costs milliseconds for the full
/// suite. Returns the number of workloads validated.
///
/// # Panics
///
/// Panics naming the first workload whose reference execution does not
/// complete.
pub fn validate_workloads() -> usize {
    let workloads = avgi_workloads::all();
    for w in &workloads {
        let (model, run) =
            avgi_refmodel::reference_run_tier(&w.program, avgi_refmodel::ExecTier::Fast, 0);
        assert_eq!(
            run.outcome,
            Some(avgi_refmodel::RefOutcome::Completed),
            "workload `{}` fails architectural validation: {:?} after {} steps (pc {:#x})",
            w.name,
            run.outcome,
            run.steps,
            model.pc()
        );
        assert!(
            model.output().iter().any(|&b| b != 0),
            "workload `{}` produced an all-zero output region",
            w.name
        );
    }
    workloads.len()
}

/// Caches golden runs per workload (they are identical across campaigns).
///
/// Every capture is lockstep-verified against the `avgi-refmodel`
/// architectural interpreter before being handed out: the cache refuses to
/// serve a golden trace the reference model disagrees with, so experiment
/// statistics can never be built on a miscommitting substrate.
///
/// When the `AVGI_GOLDEN_CACHE` environment variable names a directory (or
/// [`GoldenCache::with_dir`] is used), captures additionally persist to disk
/// keyed by workload name and microarchitecture config hash, so *separate
/// experiment processes* — e.g. the figure bins `run_experiments.sh` invokes
/// one after another — capture each golden run once per sweep instead of
/// once per bin. Loaded files are CRC-sealed and re-verified against the
/// reference model before use; any corruption or mismatch silently falls
/// back to a fresh capture (which then rewrites the file).
#[derive(Default)]
pub struct GoldenCache {
    cache: HashMap<String, Arc<GoldenRun>>,
    disk_dir: Option<PathBuf>,
}

impl GoldenCache {
    /// Creates an empty cache, with disk persistence when the
    /// `AVGI_GOLDEN_CACHE` environment variable names a directory.
    pub fn new() -> Self {
        GoldenCache {
            cache: HashMap::new(),
            disk_dir: std::env::var_os("AVGI_GOLDEN_CACHE").map(PathBuf::from),
        }
    }

    /// Creates an empty cache persisting to `dir` (`None` = memory only,
    /// ignoring the environment).
    pub fn with_dir(dir: Option<PathBuf>) -> Self {
        GoldenCache {
            cache: HashMap::new(),
            disk_dir: dir,
        }
    }

    /// The golden run for `workload` under `cfg`, captured (or loaded from
    /// the disk cache) and lockstep-verified on first use.
    ///
    /// # Panics
    ///
    /// Panics with the first architectural divergence if the simulator's
    /// golden commit trace disagrees with the reference model.
    pub fn get(&mut self, workload: &Workload, cfg: &MuarchConfig) -> Arc<GoldenRun> {
        if let Some(g) = self.cache.get(workload.name) {
            return g.clone();
        }
        let path = self.disk_dir.as_ref().map(|d| {
            d.join(format!(
                "{}-{:016x}.golden",
                workload.name,
                config_hash(cfg)
            ))
        });
        let golden = path
            .as_ref()
            .and_then(|p| load_golden(p, workload, cfg))
            .unwrap_or_else(|| {
                let golden = golden_for(workload, cfg);
                if let Err(d) = avgi_refmodel::verify_golden_tier(
                    &workload.program,
                    &golden,
                    avgi_refmodel::ExecTier::Fast,
                ) {
                    panic!(
                        "golden run of `{}` fails architectural lockstep:\n{d}",
                        workload.name
                    );
                }
                if let Some(p) = &path {
                    if let Err(e) = store_golden(p, cfg, &golden) {
                        eprintln!("[golden-cache] could not write {}: {e}", p.display());
                    }
                }
                golden
            });
        self.cache.insert(workload.name.to_string(), golden.clone());
        golden
    }
}

/// Magic + version prefix of the on-disk golden format.
const GOLDEN_MAGIC: &[u8; 8] = b"AVGIGLD1";

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Serializes a golden run: magic, config hash, cycles, trace, output, and
/// stats, sealed with a trailing CRC32 of everything before it.
fn golden_bytes(cfg: &MuarchConfig, golden: &GoldenRun) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + golden.trace.len() * 24 + golden.output.len());
    buf.extend_from_slice(GOLDEN_MAGIC);
    push_u64(&mut buf, config_hash(cfg));
    push_u64(&mut buf, golden.cycles);
    push_u64(&mut buf, golden.trace.len() as u64);
    for rec in &golden.trace {
        push_u64(&mut buf, rec.cycle);
        push_u32(&mut buf, rec.pc);
        push_u32(&mut buf, rec.raw);
        push_u32(&mut buf, rec.ea);
        push_u32(&mut buf, rec.val);
    }
    push_u64(&mut buf, golden.output.len() as u64);
    buf.extend_from_slice(&golden.output);
    let s = &golden.stats;
    for v in [
        s.fetched,
        s.committed,
        s.l1i_misses,
        s.l1d_misses,
        s.l2_misses,
        s.itlb_misses,
        s.dtlb_misses,
        s.mispredicts,
        s.squashed,
        s.rf_ace_cycles,
    ] {
        push_u64(&mut buf, v);
    }
    let seal = avgi_faultsim::crc32(&buf);
    push_u32(&mut buf, seal);
    buf
}

fn store_golden(
    path: &std::path::Path,
    cfg: &MuarchConfig,
    golden: &GoldenRun,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    // Write-then-rename so a concurrent reader never sees a torn file.
    let tmp = path.with_extension("golden.tmp");
    std::fs::write(&tmp, golden_bytes(cfg, golden))?;
    std::fs::rename(&tmp, path)
}

/// Loads, unseals, and re-verifies a cached golden run. Any failure —
/// missing file, bad magic, config mismatch, CRC breach, or architectural
/// divergence — returns `None` so the caller re-captures.
fn load_golden(
    path: &std::path::Path,
    workload: &Workload,
    cfg: &MuarchConfig,
) -> Option<Arc<GoldenRun>> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < GOLDEN_MAGIC.len() + 4 || !bytes.starts_with(GOLDEN_MAGIC) {
        return None;
    }
    let (body, seal) = bytes.split_at(bytes.len() - 4);
    if avgi_faultsim::crc32(body) != u32::from_le_bytes(seal.try_into().ok()?) {
        return None;
    }
    fn read_u64(body: &[u8], at: &mut usize) -> Option<u64> {
        let v = u64::from_le_bytes(body.get(*at..*at + 8)?.try_into().ok()?);
        *at += 8;
        Some(v)
    }
    fn read_u32(body: &[u8], at: &mut usize) -> Option<u32> {
        let v = u32::from_le_bytes(body.get(*at..*at + 4)?.try_into().ok()?);
        *at += 4;
        Some(v)
    }
    let mut cursor = GOLDEN_MAGIC.len();
    let at = &mut cursor;
    if read_u64(body, at)? != config_hash(cfg) {
        return None;
    }
    let cycles = read_u64(body, at)?;
    let trace_len = usize::try_from(read_u64(body, at)?).ok()?;
    let mut trace = Vec::with_capacity(trace_len.min(1 << 22));
    for _ in 0..trace_len {
        trace.push(avgi_muarch::CommitRecord {
            cycle: read_u64(body, at)?,
            pc: read_u32(body, at)?,
            raw: read_u32(body, at)?,
            ea: read_u32(body, at)?,
            val: read_u32(body, at)?,
        });
    }
    let output_len = usize::try_from(read_u64(body, at)?).ok()?;
    let output = body.get(*at..*at + output_len)?.to_vec();
    *at += output_len;
    let mut stats = [0u64; 10];
    for v in &mut stats {
        *v = read_u64(body, at)?;
    }
    let at = *at;
    if at != body.len() {
        return None;
    }
    let golden = Arc::new(GoldenRun {
        trace,
        cycles,
        output,
        stats: avgi_muarch::run::ExecStats {
            fetched: stats[0],
            committed: stats[1],
            l1i_misses: stats[2],
            l1d_misses: stats[3],
            l2_misses: stats[4],
            itlb_misses: stats[5],
            dtlb_misses: stats[6],
            mispredicts: stats[7],
            squashed: stats[8],
            rf_ace_cycles: stats[9],
        },
    });
    // A cached file is still held to the same architectural bar as a fresh
    // capture — but a failure here means stale/corrupt cache, not a broken
    // substrate, so fall back instead of panicking.
    avgi_refmodel::verify_golden_tier(&workload.program, &golden, avgi_refmodel::ExecTier::Fast)
        .ok()
        .map(|_| golden)
}

/// Prints campaign-health diagnostics to stderr — engine warnings (e.g.
/// checkpointing degraded), the per-structure abort rate, and wall-clock
/// expiries — so an unhealthy simulator is visible in experiment output
/// instead of silently folding into the crash column. Healthy campaigns
/// print nothing.
pub fn report_campaign_health(c: &CampaignResult) {
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

/// Runs an instrumented (end-to-end + deviation capture) campaign and
/// returns its joint analysis. `observer` attaches campaign telemetry
/// (`None` = unobserved). With `shard = Some((i, n))` only interleaved
/// shard `i` of `n` executes — a uniform subsample of the campaign, for
/// splitting a figure's work across independent processes.
#[allow(clippy::too_many_arguments)]
pub fn instrumented_analysis(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    structure: Structure,
    faults: usize,
    seed: u64,
    observer: Option<Arc<dyn CampaignObserver>>,
    shard: Option<(usize, usize)>,
) -> JointAnalysis {
    let mut ccfg = CampaignConfig::new(structure, faults, RunMode::Instrumented).with_seed(seed);
    let c = match shard {
        None => {
            ccfg.observer = observer;
            run_campaign(workload, cfg, golden, &ccfg)
        }
        Some((index, count)) => {
            let runner = avgi_faultsim::ShardRunner::new(workload, cfg, golden, &ccfg);
            let results = runner
                .run_interleaved(index, count, observer)
                .expect("interleaved shard indices are always in range");
            CampaignResult {
                workload: workload.name.to_string(),
                structure,
                mode: ccfg.mode,
                golden_cycles: golden.cycles,
                results: results.into_iter().map(|(_, r)| r).collect(),
                warnings: runner.warnings().to_vec(),
            }
        }
    };
    report_campaign_health(&c);
    JointAnalysis::from_campaign(&c)
}

/// Runs instrumented campaigns for every (structure, workload) pair in the
/// grid, printing progress to stderr. `telemetry` observes every campaign
/// in the grid when given.
pub fn analysis_grid(
    structures: &[Structure],
    workloads: &[Workload],
    cfg: &MuarchConfig,
    faults: usize,
    seed: u64,
    telemetry: Option<&ExpTelemetry>,
    shard: Option<(usize, usize)>,
) -> Vec<JointAnalysis> {
    let mut cache = GoldenCache::new();
    let mut out = Vec::with_capacity(structures.len() * workloads.len());
    for &s in structures {
        for w in workloads {
            match shard {
                None => eprintln!("[grid] {} / {} ({} faults)", s, w.name, faults),
                Some((i, n)) => eprintln!(
                    "[grid] {} / {} ({} faults, shard {i}/{n})",
                    s, w.name, faults
                ),
            }
            let golden = cache.get(w, cfg);
            let observer = telemetry.map(ExpTelemetry::observer);
            out.push(instrumented_analysis(
                w, cfg, &golden, s, faults, seed, observer, shard,
            ));
        }
    }
    out
}

/// One row of a leave-one-out accuracy study: the exhaustive ground truth
/// next to the AVGI prediction for a held-out workload.
#[derive(Debug, Clone)]
pub struct LooRow {
    /// Held-out workload.
    pub workload: String,
    /// Ground-truth Masked/SDC/Crash from exhaustive SFI.
    pub real: avgi_core::EffectDistribution,
    /// AVGI prediction with weights learned on the other workloads.
    pub predicted: avgi_core::EffectDistribution,
    /// Post-injection cycles of the exhaustive campaign.
    pub real_cost: u64,
    /// Post-injection cycles of the AVGI campaign.
    pub avgi_cost: u64,
}

/// Runs the full leave-one-out evaluation of the AVGI methodology for one
/// structure (the protocol behind Figs. 10–12); thin wrapper over
/// [`avgi_core::study::leave_one_out`] keeping the row shape the binaries
/// print.
pub fn leave_one_out_study(
    structure: Structure,
    workloads: &[Workload],
    cfg: &MuarchConfig,
    faults: usize,
    seed: u64,
) -> Vec<LooRow> {
    use avgi_core::pipeline::AvgiOptions;
    eprintln!(
        "[loo:{structure}] {} workloads x {faults} faults",
        workloads.len()
    );
    let opts = AvgiOptions {
        faults,
        seed,
        ..Default::default()
    };
    avgi_core::study::leave_one_out(structure, workloads, cfg, &opts)
        .rows
        .into_iter()
        .map(|r| LooRow {
            workload: r.workload,
            real: r.real,
            predicted: r.predicted,
            real_cost: r.real_cost,
            avgi_cost: r.avgi_cost,
        })
        .collect()
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
    fn golden_cache_reuses_runs() {
        let cfg = MuarchConfig::big();
        let w = avgi_workloads::by_name("sha").unwrap();
        let mut cache = GoldenCache::new();
        let a = cache.get(&w, &cfg);
        let b = cache.get(&w, &cfg);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn golden_cache_round_trips_through_disk() {
        let cfg = MuarchConfig::small();
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let dir = std::env::temp_dir().join(format!("avgi-golden-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First cache captures and persists.
        let mut writer = GoldenCache::with_dir(Some(dir.clone()));
        let captured = writer.get(&w, &cfg);
        let path = dir.join(format!("bitcount-{:016x}.golden", config_hash(&cfg)));
        assert!(path.exists(), "capture must persist to {}", path.display());

        // A fresh cache (new process stand-in) loads the exact same run.
        let loaded = load_golden(&path, &w, &cfg).expect("stored golden must load");
        assert_eq!(loaded.trace, captured.trace);
        assert_eq!(loaded.cycles, captured.cycles);
        assert_eq!(loaded.output, captured.output);
        assert_eq!(loaded.stats, captured.stats);

        // A config mismatch or a flipped byte must be rejected, not served.
        assert!(load_golden(&path, &w, &MuarchConfig::big()).is_none());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_golden(&path, &w, &cfg).is_none());

        // The poisoned file falls back to capture and is repaired in place.
        let mut reader = GoldenCache::with_dir(Some(dir.clone()));
        let recaptured = reader.get(&w, &cfg);
        assert_eq!(recaptured.trace, captured.trace);
        assert!(
            load_golden(&path, &w, &cfg).is_some(),
            "rewrite must repair"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_validation_accepts_every_workload() {
        assert_eq!(validate_workloads(), avgi_workloads::all().len());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), " 50.0%");
        assert_eq!(pct(0.012), "  1.2%");
    }
}
