//! Commit-trace inspector: disassembled golden trace of a workload —
//! the debugging lens for everything the IMM classifier sees.
//!
//! ```sh
//! cargo run --release -p avgi-bench --bin avgi -- trace_dump --workload sha
//! ```

use crate::args::preset;
use crate::golden;
use avgi_isa::instr::disassemble;
use std::process::ExitCode;

pub fn run(mut a: crate::Args) -> ExitCode {
    let w = a
        .value_with("--workload NAME", avgi_workloads::by_name)
        .unwrap_or_else(|| avgi_workloads::by_name("bitcount").expect("registered"));
    let cfg = preset(a.flag("--small")).config();
    a.finish();
    let golden = golden(&w, &cfg);
    println!(
        "golden trace of `{}` on {}: {} instructions, {} cycles (IPC {:.2})",
        w.name,
        cfg.name,
        golden.trace.len(),
        golden.cycles,
        golden.trace.len() as f64 / golden.cycles as f64,
    );
    println!(
        "stats: {} L1I miss, {} L1D miss, {} L2 miss, {} mispredicts, {} squashed",
        golden.stats.l1i_misses,
        golden.stats.l1d_misses,
        golden.stats.l2_misses,
        golden.stats.mispredicts,
        golden.stats.squashed,
    );
    println!(
        "\n{:>8} {:>10} {:>34} {:>10} {:>10}",
        "cycle", "pc", "instruction", "ea", "val"
    );
    let n = 60.min(golden.trace.len());
    for rec in &golden.trace[..n] {
        println!(
            "{:>8} {:>#10x} {:>34} {:>#10x} {:>#10x}",
            rec.cycle,
            rec.pc,
            disassemble(rec.raw),
            rec.ea,
            rec.val,
        );
    }
    if golden.trace.len() > n {
        println!("... ({} more)", golden.trace.len() - n);
    }
    ExitCode::SUCCESS
}
