//! `avgi paper` — every table and figure of the paper reproduction, in the
//! paper's order, each a fold over one [`Matrix`]: the §III end-to-end
//! campaigns and the AVGI-mode ones, simulated once per structure and
//! workload (420 in all: 168 + 168 on the big core, 42 + 42 on the small
//! one for Fig. 12, which shares the other figures' cells under `--small`).
//!
//! ```sh
//! cargo run --release -p avgi-bench --bin avgi -- paper --faults 200
//! ```

use super::{
    fig01_ace_vs_sfi, fig02_imm_diagram, fig03_imm_distribution, fig04_effects_per_imm,
    fig05_imm_weights, fig07_esc_prediction, fig08_ert_inclusive_exclusive, fig10_accuracy,
    fig11_fit_rates, fig12_case_study, table2_speedup,
};
use crate::Matrix;
use avgi_core::pipeline::AvgiOptions;
use std::process::ExitCode;

pub fn run(a: crate::Args) -> ExitCode {
    let m = Matrix::parse(a, AvgiOptions::default().faults);
    fig01_ace_vs_sfi::print(&m);
    fig02_imm_diagram::print();
    fig03_imm_distribution::print(&m);
    fig04_effects_per_imm::print(&m);
    fig05_imm_weights::print(&m);
    fig07_esc_prediction::print(&m);
    fig08_ert_inclusive_exclusive::print(&m);
    table2_speedup::print(&m);
    fig10_accuracy::print(&m);
    fig11_fit_rates::print(&m);
    fig12_case_study::print(&m);
    m.finish();
    ExitCode::SUCCESS
}
