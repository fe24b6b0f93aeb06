//! Drives the built `avgi-perf` the way the benchmark's driver does, at
//! `--quick` sizes, and validates what it prints against the manifest.
//!
//! Runs happen in a scratch directory under the build's own target
//! directory (the benchmark reads `benchmark/expected.json` and writes
//! `benchmark/out/` relative to where it is started), so the checkout's
//! files are read, never written.

use avgi_perf::json::{self, Value};
use avgi_perf::spec::{self, Metric};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_avgi-perf");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root")
        .to_path_buf()
}

/// A fresh directory holding a copy of `expected.json` where the
/// benchmark looks for it.
fn scratch(name: &str, edit: impl FnOnce(String) -> String) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("benchmark")).unwrap();
    let expected = std::fs::read_to_string(repo_root().join("benchmark/expected.json")).unwrap();
    std::fs::write(dir.join("benchmark/expected.json"), edit(expected)).unwrap();
    dir
}

fn avgi_perf(dir: &Path, args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the built benchmark starts")
}

fn single(dir: &Path, workload: &str, trace: &str) -> Output {
    avgi_perf(
        dir,
        &[
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ],
    )
}

/// The result object on the last line of a run's standard output.
fn result_of(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a run prints a result");
    json::parse(line).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {line}"))
}

fn assert_result_shape(v: &Value, table: &[Metric], what: &str) {
    let keys: Vec<&str> = v
        .fields()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert!(
        v.get("attempted").and_then(Value::as_u64).unwrap() >= 1,
        "{what}"
    );
    let metrics = v.get("metrics").and_then(Value::fields).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(
        names, wanted,
        "{what}: metrics must be exactly the manifest's"
    );
    for ((name, m), spec) in metrics.iter().zip(table) {
        let value = m.get("value").and_then(Value::as_f64);
        assert!(value.is_some(), "{what}: {name} has no numeric value");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(spec.unit),
            "{what}: {name}"
        );
        if spec.bound.is_some() {
            assert!(
                value.unwrap() > 0.0,
                "{what}: end-to-end metric {name} must never be 0"
            );
        }
    }
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let generated = avgi_perf(&repo_root(), &["manifest"]);
    assert!(generated.status.success());
    let committed = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert_eq!(String::from_utf8_lossy(&generated.stdout), committed);

    let v = json::parse(&committed).unwrap();
    let keys: Vec<&str> = v
        .fields()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let len = |k: &str| v.get(k).and_then(Value::as_array).unwrap().len();
    assert_eq!(len("workloads"), 5);
    assert!(len("end_to_end") <= 16 && len("per_layer") <= 128);
    for list in ["end_to_end", "per_layer"] {
        for m in v.get(list).and_then(Value::as_array).unwrap() {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
            assert!(
                matches!(
                    m.get("better").and_then(Value::as_str),
                    Some("higher" | "lower")
                ),
                "{name}"
            );
            let bound = m.get("bound").and_then(Value::as_f64);
            assert_eq!(bound.is_some(), list == "end_to_end", "{name}");
        }
    }
}

#[test]
fn every_workload_runs_quick_and_reports_every_metric() {
    let dir = scratch("smoke-quick", |expected| expected);
    for w in spec::WORKLOADS {
        let plain = single(&dir, w.name, "0");
        assert!(
            plain.status.success(),
            "{}: {}",
            w.name,
            String::from_utf8_lossy(&plain.stderr)
        );
        let v = result_of(&plain);
        assert_result_shape(&v, spec::END_TO_END, w.name);
        assert_eq!(
            v.get("correct").and_then(Value::as_bool),
            Some(true),
            "{}",
            w.name
        );
        assert_eq!(
            v.get("failed").and_then(Value::as_u64),
            Some(0),
            "{}",
            w.name
        );

        let traced = single(&dir, w.name, "1");
        assert!(
            traced.status.success(),
            "{} traced: {}",
            w.name,
            String::from_utf8_lossy(&traced.stderr)
        );
        assert_result_shape(&result_of(&traced), spec::PER_LAYER, w.name);
        let trace_file = dir.join(format!("benchmark/out/trace-{}.json", w.name));
        let spans = json::parse(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
        assert!(!spans
            .get("spans")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
    }
    assert!(
        std::fs::read_dir(dir.join("benchmark/out"))
            .unwrap()
            .all(|e| !e.unwrap().file_name().to_string_lossy().starts_with("tmp-")),
        "a run leaves its scratch directory behind"
    );
}

#[test]
fn a_corrupted_digest_fails_the_run() {
    let dir = scratch("smoke-corrupt", |expected| {
        let v = json::parse(&expected).unwrap();
        let recorded = v
            .get("sizes")
            .and_then(|s| s.get("quick"))
            .and_then(|q| q.get("study_loo_rf"))
            .and_then(|w| w.get("units"))
            .and_then(Value::as_array)
            .unwrap()[0]
            .as_str()
            .unwrap()
            .to_string();
        assert!(expected.contains(&recorded));
        expected.replace(&recorded, "0000000000000000")
    });
    let run = single(&dir, "study_loo_rf", "0");
    assert!(
        !run.status.success(),
        "a digest mismatch must exit non-zero"
    );
    let v = result_of(&run);
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
    assert_eq!(v.get("failed"), v.get("attempted"));
    assert!(String::from_utf8_lossy(&run.stderr).contains("unit 0 digest"));
}

#[test]
fn bad_invocations_print_no_result() {
    let dir = scratch("smoke-usage", |expected| expected);
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "study_loo_rf", "--trace", "2"],
        &["--seconds", "0"],
        &["frobnicate"],
    ] {
        let out = avgi_perf(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    // Without `expected.json` there is nothing to check outputs against.
    std::fs::remove_file(dir.join("benchmark/expected.json")).unwrap();
    let out = single(&dir, "study_loo_rf", "0");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn noise_judges_every_end_to_end_metric_on_every_workload() {
    let dir = scratch("smoke-noise", |expected| expected);
    let out = avgi_perf(&dir, &["noise", "--quick", "--runs", "2", "--seconds", "1"]);
    // At quick sizes the timings are far too short to be steady; what is
    // checked here is that the judgement is made, not what it says.
    assert!(matches!(out.status.code(), Some(0 | 1)), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let verdicts = stdout
        .lines()
        .filter(|l| l.ends_with("  ok") || l.ends_with("OUTSIDE ITS BOUND"))
        .count();
    assert_eq!(
        verdicts,
        spec::END_TO_END.len() * spec::WORKLOADS.len(),
        "{stdout}"
    );
}
