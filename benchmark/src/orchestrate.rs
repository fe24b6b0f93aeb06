//! Drivers over sets of single runs: `run`, `trace`, `noise`, `record`.
//!
//! Every (workload, seed) is a fresh child process of this executable, so
//! peak memory and set-up time are per workload, and runs are interleaved
//! round-robin across workloads so that a slow phase of the host does not
//! land on one of them. A child's standard error is appended to
//! `benchmark/out/stderr.log`, unfiltered.

use crate::check::{Expected, Observed};
use crate::cli::{Args, EXPECTED_PATH, OUT_DIR};
use crate::json::{self, Value};
use crate::measure::{Host, Stats};
use crate::spec::{self, Better, Metric};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::path::Path;
use std::process::{Command, Stdio};

/// The parsed result line of one child run.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

struct Child<'a> {
    workload: &'a str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    record: bool,
}

fn run_child(c: &Child) -> Result<RunResult, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let log_path = Path::new(OUT_DIR).join("stderr.log");
    let log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)
        .map_err(|e| format!("{}: {e}", log_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", c.workload])
        .args(["--seed", &c.seed.to_string()])
        .args(["--seconds", &c.seconds.to_string()])
        .args(["--trace", if c.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(log);
    if c.quick {
        cmd.arg("--quick");
    }
    if c.record {
        cmd.arg("--record");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let what = format!("{} (seed {})", c.workload, c.seed);
    let v = json::parse(line).map_err(|e| {
        format!(
            "{what} printed no result ({}; {e}); see {}",
            output.status,
            log_path.display()
        )
    })?;
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("{what}: result lacks `{k}`"))
    };
    let metrics = field("metrics")?
        .fields()
        .ok_or_else(|| format!("{what}: `metrics` is not an object"))?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("{what}: metric `{name}` has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        correct: field("correct")?.as_bool() == Some(true) && output.status.success(),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// One set: `runs` seeds on every workload, round-robin. Values are kept
/// per workload and metric, in run order.
struct Set {
    values: BTreeMap<(&'static str, String), Vec<f64>>,
    attempted: BTreeMap<&'static str, u64>,
    failed: BTreeMap<&'static str, u64>,
    all_correct: bool,
}

/// The workloads a driver covers: all of them, or the one `--workload` names.
fn selected(args: &Args) -> Result<Vec<&'static spec::Workload>, String> {
    match &args.workload {
        None => Ok(spec::WORKLOADS.iter().collect()),
        Some(name) => spec::workload(name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload `{name}`")),
    }
}

fn run_set(args: &Args, trace: bool, runs: usize) -> Result<Set, String> {
    let mut set = Set {
        values: BTreeMap::new(),
        attempted: BTreeMap::new(),
        failed: BTreeMap::new(),
        all_correct: true,
    };
    for i in 0..runs {
        for w in selected(args)? {
            eprintln!("[avgi-perf] run {}/{runs}: {}", i + 1, w.name);
            let r = run_child(&Child {
                workload: w.name,
                seed: args.seed + i as u64,
                seconds: args.seconds,
                trace,
                quick: args.quick,
                record: false,
            })?;
            if !r.correct {
                eprintln!(
                    "[avgi-perf] {} (seed {}) FAILED its output checks",
                    w.name,
                    args.seed + i as u64
                );
                set.all_correct = false;
            }
            *set.attempted.entry(w.name).or_default() += r.attempted;
            *set.failed.entry(w.name).or_default() += r.failed;
            for (name, value) in r.metrics {
                set.values.entry((w.name, name)).or_default().push(value);
            }
        }
    }
    Ok(set)
}

fn bound_text(m: &Metric) -> String {
    m.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0))
}

/// Prints one table row per (metric, workload) and returns the rows as JSON
/// objects.
fn report(set: &Set, table: &[Metric]) -> Vec<String> {
    println!(
        "{:<36} {:<12} {:<7} {:>5}  {:<26} {:>14} {:>14} {:>14} {:>3} {:>7}",
        "metric", "unit", "better", "bound", "workload", "median", "q1", "q3", "n", "spread"
    );
    let mut rows = Vec::new();
    for m in table {
        for w in spec::WORKLOADS {
            let Some(values) = set.values.get(&(w.name, m.name.to_string())) else {
                continue;
            };
            let s = Stats::of(values);
            println!(
                "{:<36} {:<12} {:<7} {:>5}  {:<26} {:>14.6} {:>14.6} {:>14.6} {:>3} {:>6.1}%",
                m.name,
                m.unit,
                m.better.ident(),
                bound_text(m),
                w.name,
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0
            );
            let bound = m.bound.map_or("null".into(), |b| b.to_string());
            rows.push(format!(
                "{{\"metric\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{bound},\"workload\":\"{}\",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                m.name,
                m.unit,
                m.better.ident(),
                w.name,
                s.median,
                s.q1,
                s.q3,
                s.n
            ));
        }
    }
    rows
}

fn failed_shares(set: &Set) -> Vec<String> {
    spec::WORKLOADS
        .iter()
        .filter(|w| set.attempted.contains_key(w.name))
        .map(|w| {
            let attempted = set.attempted.get(w.name).copied().unwrap_or(0);
            let failed = set.failed.get(w.name).copied().unwrap_or(0);
            let share = failed as f64 / attempted.max(1) as f64;
            println!(
                "failed_share                         share        lower     any  {:<26} {share:>14.6} ({failed} of {attempted} operations)",
                w.name
            );
            format!(
                "{{\"workload\":\"{}\",\"attempted\":{attempted},\"failed\":{failed},\"failed_share\":{share}}}",
                w.name
            )
        })
        .collect()
}

fn write_report(
    name: &str,
    host: &Host,
    args: &Args,
    rows: &[String],
    failures: &[String],
) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(name);
    let body = format!(
        "{{\n\"host\": {},\n\"seed\": {},\n\"seconds\": {},\n\"quick\": {},\n\"failed\": [\n{}\n],\n\"metrics\": [\n{}\n]\n}}\n",
        host.to_json(),
        args.seed,
        args.seconds,
        args.quick,
        failures.join(",\n"),
        rows.join(",\n")
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("[avgi-perf] wrote {}", path.display());
    Ok(())
}

/// Every end-to-end metric on every workload, from untraced runs.
pub fn run(args: &Args) -> Result<bool, String> {
    let host = Host::probe();
    println!("host: {}", host.to_json());
    let set = run_set(args, false, args.runs.unwrap_or(5))?;
    let rows = report(&set, spec::END_TO_END);
    let failures = failed_shares(&set);
    write_report("run.json", &host, args, &rows, &failures)?;
    Ok(set.all_correct)
}

/// Every per-layer metric on every workload, from one traced run each.
pub fn trace(args: &Args) -> Result<bool, String> {
    let host = Host::probe();
    println!("host: {}", host.to_json());
    let set = run_set(args, true, 1)?;
    let rows = report(&set, spec::PER_LAYER);
    let failures = failed_shares(&set);
    write_report("trace.json", &host, args, &rows, &failures)?;
    Ok(set.all_correct)
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(m: &Metric, first: f64, second: f64) -> f64 {
    match m.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Two complete sets of runs of the same program: each end-to-end metric's
/// spread within a set, and its median's shift between the sets, against
/// the metric's own bound — the test the benchmark's driver applies.
pub fn noise(args: &Args) -> Result<bool, String> {
    println!("host: {}", Host::probe().to_json());
    let runs = args.runs.unwrap_or(10);
    let first = run_set(args, false, runs)?;
    let second = run_set(args, false, runs)?;
    println!(
        "{:<26} {:<26} {:>6} {:>14} {:>14} {:>9} {:>9} {:>8}  verdict",
        "metric", "workload", "bound", "median 1", "median 2", "spread 1", "spread 2", "worse by"
    );
    let mut steady = true;
    for m in spec::END_TO_END {
        let bound = m.bound.expect("end-to-end metrics have bounds");
        for w in selected(args)? {
            let key = (w.name, m.name.to_string());
            let (Some(a), Some(b)) = (first.values.get(&key), second.values.get(&key)) else {
                return Err(format!("{} was not reported on {}", m.name, w.name));
            };
            let (a, b) = (Stats::of(a), Stats::of(b));
            let worse = worsening(m, a.median, b.median);
            // The set-up time's spread is reported, not judged.
            let spread_ok = m.name == "setup_s" || a.spread().max(b.spread()) <= bound;
            let ok = spread_ok && worse <= bound;
            steady &= ok;
            println!(
                "{:<26} {:<26} {:>5.0}% {:>14.6} {:>14.6} {:>8.1}% {:>8.1}% {:>7.1}%  {}",
                m.name,
                w.name,
                bound * 100.0,
                a.median,
                b.median,
                a.spread() * 100.0,
                b.spread() * 100.0,
                worse * 100.0,
                if ok { "ok" } else { "OUTSIDE ITS BOUND" }
            );
        }
    }
    Ok(steady && first.all_correct && second.all_correct)
}

/// Re-records `expected.json`: one run per workload and size at the default
/// seed, keeping the digests each produced.
pub fn record() -> Result<bool, String> {
    let mut expected = Expected {
        seed: spec::DEFAULT_SEED,
        ..Default::default()
    };
    let mut all_correct = true;
    for (size, quick) in [("full", false), ("quick", true)] {
        for w in spec::WORKLOADS {
            eprintln!("[avgi-perf] recording {} ({size})", w.name);
            let r = run_child(&Child {
                workload: w.name,
                seed: spec::DEFAULT_SEED,
                // The first pass is what gets recorded.
                seconds: 1.0,
                trace: false,
                quick,
                record: true,
            })?;
            all_correct &= r.correct;
            let path = Path::new(OUT_DIR).join(format!("observed-{}-{size}.json", w.name));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let observed = json::parse(&text)
                .ok()
                .and_then(|v| Observed::from_json(&v))
                .ok_or_else(|| format!("{}: not an observation", path.display()))?;
            expected
                .sizes
                .entry(size.to_string())
                .or_default()
                .insert(w.name.to_string(), observed);
        }
    }
    if !all_correct {
        return Err("a recording run failed its own checks; expected.json is unchanged".into());
    }
    std::fs::write(EXPECTED_PATH, expected.to_json())
        .map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
    eprintln!("[avgi-perf] wrote {EXPECTED_PATH}");
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let lower = &spec::END_TO_END[1];
        let higher = &spec::END_TO_END[0];
        assert_eq!(
            (lower.better, higher.better),
            (Better::Lower, Better::Higher)
        );
        assert!((worsening(lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening(lower, 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
    }
}
