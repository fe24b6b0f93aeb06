//! The command line: one measured run, or a driver over sets of runs.

use crate::harness::{Ctx, Outcome};
use crate::{campaigns, check, grid, measure, orchestrate, spec, study};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Everything the benchmark writes lives here, relative to the checkout
/// root the command is run from.
pub const OUT_DIR: &str = "benchmark/out";
pub const EXPECTED_PATH: &str = "benchmark/expected.json";

const USAGE: &str = "usage:
  avgi-perf --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--record]
  avgi-perf run    [--workload NAME] [--seed N] [--runs N (5)] [--seconds S] [--quick]
  avgi-perf trace  [--workload NAME] [--seed N] [--seconds S] [--quick]
  avgi-perf noise  [--workload NAME] [--seed N] [--runs N (10)] [--seconds S] [--quick]
  avgi-perf record
  avgi-perf manifest
run from the repository root; workloads: see BENCHMARK.json";

/// Flags of a single run (and, where they apply, of the drivers).
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub record: bool,
    /// `--runs`; the drivers have their own defaults.
    pub runs: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        record: false,
        runs: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600]\n{USAGE}"));
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--runs" => {
                let runs: usize = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if runs == 0 {
                    return Err(format!("--runs must be at least 1\n{USAGE}"));
                }
                a.runs = Some(runs);
            }
            "--quick" => a.quick = true,
            "--record" => a.record = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(a)
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn single_run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or(USAGE)?;
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let out_dir = PathBuf::from(OUT_DIR);
    let scratch = Scratch(out_dir.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;

    let size = if args.quick { "quick" } else { "full" };
    let expected = if args.record {
        None
    } else {
        // The recorded digests belong to one seed.
        let recorded = check::Expected::load(Path::new(EXPECTED_PATH))?;
        (recorded.seed == args.seed)
            .then(|| recorded.get(size, workload.name).cloned())
            .flatten()
    };
    let ctx = Ctx {
        workload: workload.name,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        threads: measure::compute_threads(),
        tmp: scratch.0.clone(),
        out_dir: out_dir.clone(),
        expected,
    };
    let outcome = match (workload.name, args.trace) {
        ("study_loo_rf", false) => study::run(&ctx),
        ("study_loo_rf", true) => study::trace(&ctx),
        ("grid_small_campaigns", false) => grid::run(&ctx),
        ("grid_small_campaigns", true) => grid::trace(&ctx),
        (_, false) => campaigns::run(&ctx),
        (_, true) => campaigns::trace(&ctx),
    };
    for problem in &outcome.problems {
        eprintln!("[{}] FAILED CHECK: {problem}", workload.name);
    }
    if args.record {
        let path = out_dir.join(format!("observed-{}-{size}.json", workload.name));
        std::fs::write(&path, outcome.observed.to_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_line(&outcome, args.trace));
    Ok(outcome.correct())
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of the run's kind, each value with all its digits.
fn result_line(outcome: &Outcome, traced: bool) -> String {
    let table = if traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let value = match outcome.metrics.get(m.name) {
                Some(v) => *v,
                // A layer that is not on this workload's path.
                None if traced => 0.0,
                None => panic!("end-to-end metric `{}` was not measured", m.name),
            };
            assert!(value.is_finite(), "metric `{}` is not a number", m.name);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("single", &args[..]),
    };
    let result = parse_args(rest).and_then(|a| match command {
        "single" => single_run(&a),
        "run" => orchestrate::run(&a),
        "trace" => orchestrate::trace(&a),
        "noise" => orchestrate::noise(&a),
        "record" => orchestrate::record(),
        "manifest" => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("avgi-perf: {message}");
            ExitCode::from(2)
        }
    }
}
