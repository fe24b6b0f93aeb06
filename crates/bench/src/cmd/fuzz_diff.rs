//! Coverage-directed differential fuzzing of the out-of-order simulator
//! against the `avgi-refmodel` architectural interpreter.
//!
//! Generates random AvgIsa programs (valid and invalid encodings, branches,
//! aliasing loads/stores), runs each on the full pipeline with commit
//! tracing, and lockstep-checks every committed instruction plus the final
//! output bytes against the reference model. Any divergence is shrunk to a
//! minimal reproducer and printed; the process exits nonzero.
//!
//! ```sh
//! cargo run --release -p avgi-bench --bin avgi -- fuzz_diff \
//!     --programs 10000 --seed 0xD1FF5EED0001 --max-instrs 96
//! ```
//!
//! The run is deterministic for a given `--seed`, independent of
//! `--threads`; CI uses a small `--programs` smoke while the committed
//! corpus test (`crates/refmodel/tests/corpus.rs`) pins the full sweep.

use avgi_isa::instr::disassemble;
use avgi_refmodel::{run_fuzz, FuzzConfig};
use std::process::ExitCode;

pub fn run(mut a: crate::Args) -> ExitCode {
    let mut cfg = FuzzConfig::new(2_000, 0xD1FF_5EED_0001);
    cfg.programs = a.value("--programs N").unwrap_or(cfg.programs);
    cfg.seed = a.value("--seed S").unwrap_or(cfg.seed);
    cfg.max_instrs = a.value("--max-instrs K").unwrap_or(cfg.max_instrs);
    cfg.threads = a.value("--threads T").unwrap_or(cfg.threads);
    cfg.config = crate::args::preset(a.flag("--small")).config();
    cfg.shrink = !a.flag("--no-shrink");
    a.finish();

    eprintln!(
        "[fuzz_diff] {} programs, seed {:#x}, max {} instrs, config {}",
        cfg.programs, cfg.seed, cfg.max_instrs, cfg.config.name
    );
    let started = std::time::Instant::now();
    let report = run_fuzz(&cfg);
    let elapsed = started.elapsed();

    println!("{}", report.coverage.table());
    let (ops, all_ops) = report.coverage.opcode_coverage();
    let (pairs, all_pairs) = report.coverage.format_pair_coverage();
    println!(
        "programs {} | opcode coverage {ops}/{all_ops} | format-pair coverage {pairs}/{all_pairs}",
        report.programs
    );
    println!(
        "outcomes: {} completed, {} trapped, {} watchdogged | {} invalid-encoding commits",
        report.coverage.completed,
        report.coverage.trapped,
        report.coverage.watchdogged,
        report.coverage.invalid_commits
    );
    eprintln!(
        "[fuzz_diff] {:.2}s ({:.0} programs/s)",
        elapsed.as_secs_f64(),
        report.programs as f64 / elapsed.as_secs_f64().max(1e-9)
    );

    if !report.coverage.uncovered_opcodes().is_empty() {
        eprintln!(
            "[fuzz_diff] warning: uncovered opcodes {:?} (raise --programs)",
            report.coverage.uncovered_opcodes()
        );
    }

    if report.failures.is_empty() {
        println!("no divergence between pipeline and reference model");
        return ExitCode::SUCCESS;
    }

    for f in &report.failures {
        eprintln!(
            "\n=== divergence: program {} (seed {:#x}, {} words, minimized to {}) ===",
            f.index,
            f.seed,
            f.original.len(),
            f.minimized.len()
        );
        eprintln!("minimized reproducer:");
        for (i, w) in f.minimized.iter().enumerate() {
            eprintln!("  [{i:3}] {w:#010x}  {}", disassemble(*w));
        }
        eprintln!("{}", f.divergence);
    }
    eprintln!(
        "\n[fuzz_diff] {} diverging program(s)",
        report.failures.len()
    );
    ExitCode::FAILURE
}
