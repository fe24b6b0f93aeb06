//! Quickstart: assess the register-file vulnerability of one workload with
//! the full AVGI methodology, against the exhaustive-SFI ground truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use avgi_repro::core::pipeline::{assess, exhaustive, AvgiOptions};
use avgi_repro::core::weights::learn_weights;
use avgi_repro::faultsim::golden_for;
use avgi_repro::muarch::{MuarchConfig, Structure};

fn main() {
    let cfg = MuarchConfig::big();
    let structure = Structure::RegFile;
    let faults = 300;
    let workloads = avgi_repro::workloads::all();

    // 1. Learn per-IMM weights from exhaustive campaigns on every workload
    //    except the one we want to assess (leave-one-out).
    let target = workloads.last().expect("workloads exist");
    println!(
        "learning IMM weights for {structure} (training: {} workloads)...",
        workloads.len() - 1
    );
    let analyses: Vec<_> = workloads
        .iter()
        .filter(|w| w.name != target.name)
        .map(|w| {
            let golden = golden_for(w, &cfg);
            exhaustive(w, &cfg, &golden, structure, faults, 1).analysis
        })
        .collect();
    let weights = learn_weights(&analyses, None);

    // 2. Assess the held-out workload with AVGI (first-deviation stop + ERT
    //    window + ESC estimation)...
    let golden = golden_for(target, &cfg);
    let opts = AvgiOptions { faults, seed: 2 };
    let avgi = assess(target, &cfg, &golden, &weights, &opts);

    // 3. ...and compare against the exhaustive ground truth.
    let real = exhaustive(target, &cfg, &golden, structure, faults, 2);

    println!("\nworkload `{}`, structure {structure}:", target.name);
    println!(
        "  exhaustive SFI : {}  ({} Mcycles simulated)",
        real.effect,
        real.cost_cycles / 1_000_000
    );
    println!(
        "  AVGI           : {}  ({} Mcycles simulated)",
        avgi.predicted,
        avgi.cost_cycles / 1_000_000
    );
    println!(
        "  max class diff : {:.2}%   speedup: {:.1}x",
        real.effect.max_abs_diff(avgi.predicted) * 100.0,
        real.cost_cycles as f64 / avgi.cost_cycles.max(1) as f64,
    );
}
