//! The commands of the `avgi` executable: one module per command, named
//! after the `results/<name>.{txt,log}` files the experiment scripts write,
//! and the table [`main`] dispatches on; plus one module per table/figure
//! of the paper, each a `print` that the `paper` command calls in order.

use crate::Args;
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

mod fig01_ace_vs_sfi;
mod fig02_imm_diagram;
mod fig03_imm_distribution;
mod fig04_effects_per_imm;
mod fig05_imm_weights;
mod fig07_esc_prediction;
mod fig08_ert_inclusive_exclusive;
mod fig10_accuracy;
mod fig11_fit_rates;
mod fig12_case_study;
mod table2_speedup;

commands! {
    paper: "every table and figure of the paper (Figs. 1-5, 7, 8, 10-12, Table II)",
    ablation_ert_window: "ablation: ERT window size vs. coverage and cost",
    ablation_prefetch: "ablation: next-line L2 prefetch vs. cache-fault behaviour",
    avf_report: "AVF + FIT report for one workload across all structures",
    explore: "per-structure IMM, effect and latency overview",
    trace_dump: "disassembled golden commit trace of a workload",
    fuzz_diff: "differential fuzzing: pipeline vs. reference model",
    xtier_check: "smoke prover: execution tiers and batched engine bit-identical",
    adaptive_check: "smoke prover: adaptive sampling agrees with uniform, 1 vs. 4 threads",
    grid_worker: "worker: executes leases from grid_service",
    grid_service: "multi-campaign control plane with the HTTP surface",
    grid_submit: "HTTP client: submit a campaign to grid_service, wait, verify",
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
