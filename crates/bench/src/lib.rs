//! # avgi-bench — the experiment harness
//!
//! One executable, `avgi`, with one command per table/figure of the paper
//! (see `DESIGN.md` §3 for the index) plus the smoke provers and the grid
//! front ends ([`cmd`]), over one argv parser ([`args`]) and shared
//! plumbing: golden-run caching, campaign grids, fixed-width tables.
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

/// Architectural startup validation: executes every registered workload on
/// the `avgi-refmodel` reference interpreter and panics if any fails to
/// reach a clean halt. Runs automatically from [`ExpArgs::parse`], so a
/// workload image corrupted by a bad edit (or a reference-model regression)
/// aborts every experiment command before any campaign spends cycles on it.
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

/// Caches golden runs per (workload, configuration) — they are identical
/// across campaigns.
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
    /// Keyed like the disk files: workload name + `config_hash`.
    cache: HashMap<(&'static str, u64), Arc<GoldenRun>>,
    disk_dir: Option<PathBuf>,
}

impl GoldenCache {
    /// Creates an empty cache, with disk persistence when the
    /// `AVGI_GOLDEN_CACHE` environment variable names a directory.
    pub fn new() -> Self {
        Self::with_dir(std::env::var_os("AVGI_GOLDEN_CACHE").map(PathBuf::from))
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
        let key = (workload.name, config_hash(cfg));
        if let Some(g) = self.cache.get(&key) {
            return g.clone();
        }
        let path = self
            .disk_dir
            .as_ref()
            .map(|d| d.join(format!("{}-{:016x}.golden", key.0, key.1)));
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
        self.cache.insert(key, golden.clone());
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
    // Every length in the file is untrusted: no offset is added unchecked.
    fn take<'a>(body: &'a [u8], at: &mut usize, n: usize) -> Option<&'a [u8]> {
        let end = at.checked_add(n)?;
        let bytes = body.get(*at..end)?;
        *at = end;
        Some(bytes)
    }
    fn read_u64(body: &[u8], at: &mut usize) -> Option<u64> {
        Some(u64::from_le_bytes(take(body, at, 8)?.try_into().ok()?))
    }
    fn read_u32(body: &[u8], at: &mut usize) -> Option<u32> {
        Some(u32::from_le_bytes(take(body, at, 4)?.try_into().ok()?))
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
    let output = take(body, at, output_len)?.to_vec();
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
    let mut cache = GoldenCache::new();
    let mut out = Vec::with_capacity(structures.len() * workloads.len());
    for &s in structures {
        for w in &workloads {
            eprintln!("[grid] {s} / {} ({} faults{shard})", w.name, args.faults);
            let (golden, observer) = (cache.get(w, &cfg), telemetry.observer());
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
    fn golden_cache_reuses_runs() {
        let cfg = MuarchConfig::big();
        let w = avgi_workloads::by_name("sha").unwrap();
        let mut cache = GoldenCache::new();
        let a = cache.get(&w, &cfg);
        let b = cache.get(&w, &cfg);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn golden_cache_keys_on_the_configuration_too() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let (big, small) = (MuarchConfig::big(), MuarchConfig::small());
        let mut cache = GoldenCache::with_dir(None);
        let on_big = cache.get(&w, &big);
        let on_small = cache.get(&w, &small);
        assert_ne!(on_big.cycles, on_small.cycles);
        assert_eq!(on_small.cycles, golden_for(&w, &small).cycles);
        assert!(Arc::ptr_eq(&on_big, &cache.get(&w, &big)));
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

        // So is a correctly sealed file whose output length would overflow
        // the offset arithmetic.
        let mut bytes = golden_bytes(&cfg, &captured);
        let output_len_at = GOLDEN_MAGIC.len() + 24 + captured.trace.len() * 24;
        bytes[output_len_at..output_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_len = bytes.len() - 4;
        let seal = avgi_faultsim::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&seal.to_le_bytes());
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
