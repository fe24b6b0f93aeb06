//! The commands of the `avgi` executable: one module per command, named
//! after the `results/<name>.{txt,log}` files the experiment scripts write,
//! and the table [`main`] dispatches on.

use crate::Args;
use avgi_grid::GridOutcome;
use std::process::ExitCode;

/// One `avgi <name>` command.
pub struct Command {
    /// The name typed after `avgi`.
    pub name: &'static str,
    /// One line for the command list.
    pub summary: &'static str,
    /// The command body; owns the rest of argv.
    pub run: fn(Args) -> ExitCode,
}

macro_rules! commands {
    ($($name:ident: $summary:literal,)*) => {
        $(mod $name;)*
        /// Every command, in the order the list prints them.
        pub const COMMANDS: &[Command] = &[
            $(Command { name: stringify!($name), summary: $summary, run: $name::run },)*
        ];
    };
}

commands! {
    fig01_ace_vs_sfi: "Fig. 1: ACE-analysis vs. SFI AVF of the register file",
    fig02_imm_diagram: "Fig. 2: the IMM classification diagram, 256-combination census",
    fig03_imm_distribution: "Fig. 3: IMM breakdown per structure across workloads",
    fig04_effects_per_imm: "Fig. 4: final-effect probabilities per IMM (L1I data)",
    fig05_imm_weights: "Fig. 5: the IMM weighting factors per structure",
    fig07_esc_prediction: "Fig. 7: predicted vs. real ESC fault counts",
    fig08_ert_inclusive_exclusive: "Fig. 8: IMM distribution, full run vs. ERT stop",
    table2_speedup: "Table II: assessment cost, AVGI vs. traditional SFI",
    fig10_accuracy: "Fig. 10: AVGI vs. exhaustive fault-effect distributions",
    fig11_fit_rates: "Fig. 11: FIT rates per structure and whole chip",
    fig12_case_study: "Fig. 12: accuracy on the second microarchitecture",
    ablation_ert_window: "ablation: ERT window size vs. coverage and cost",
    ablation_prefetch: "ablation: next-line L2 prefetch vs. cache-fault behaviour",
    avf_report: "AVF + FIT report for one workload across all structures",
    explore: "per-structure IMM, effect and latency overview",
    trace_dump: "disassembled golden commit trace of a workload",
    fuzz_diff: "differential fuzzing: pipeline vs. reference model",
    xtier_check: "smoke prover: execution tiers and batched engine bit-identical",
    adaptive_check: "smoke prover: adaptive sampling agrees with uniform, 1 vs. 4 threads",
    grid_coordinator: "one-campaign control plane for grid_worker processes",
    grid_worker: "worker: executes leases from a coordinator or service",
    grid_service: "multi-campaign control plane with the HTTP surface",
    grid_submit: "HTTP client: submit a campaign to grid_service, wait, verify",
    grid_chaos: "chaos soak: service + workers under seeded link faults",
}

/// `--verify` of the in-process grid commands: the merged `outcome` must
/// equal the single-process `reference` of the same submission in every
/// result and every deterministic telemetry counter. Says which on stderr.
fn outcome_matches(tag: &str, reference: &GridOutcome, outcome: &GridOutcome) -> bool {
    let results_ok = outcome.result.results == reference.result.results;
    if !results_ok {
        eprintln!("[{tag}] verify FAIL: merged results differ from single-process reference");
    }
    let grid = outcome.telemetry.deterministic_counters_json();
    let local = reference.telemetry.deterministic_counters_json();
    if grid != local {
        eprintln!("[{tag}] verify FAIL: merged telemetry counters differ");
        eprintln!("[{tag}]   grid: {grid}");
        eprintln!("[{tag}]    ref: {local}");
    } else if results_ok {
        eprintln!(
            "[{tag}] verify OK: {} results and telemetry counters bit-identical to single-process",
            reference.result.len()
        );
    }
    results_ok && grid == local
}

/// Runs `avgi <argv>`: looks the command up and hands it the rest. No or an
/// unknown command prints the command list to stderr and returns 2.
pub fn main(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let name = argv.next();
    if let Some(c) = COMMANDS.iter().find(|c| Some(c.name) == name.as_deref()) {
        return (c.run)(Args::new(c.name, argv.collect()));
    }
    match name {
        Some(name) => eprintln!("avgi: unknown command `{name}`"),
        None => eprintln!("usage: avgi <command> [flags]"),
    }
    eprintln!("commands:");
    for c in COMMANDS {
        eprintln!("  {:<30} {}", c.name, c.summary);
    }
    ExitCode::from(2)
}
