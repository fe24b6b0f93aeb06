//! # avgi-core — the AVGI methodology
//!
//! Reproduction of *AVGI: Microarchitecture-Driven, Fast and Accurate
//! Vulnerability Assessment* (Papadimitriou & Gizopoulos, HPCA 2023): a
//! statistical-fault-injection flow that delivers per-structure AVF
//! (Masked/SDC/Crash probabilities) orders of magnitude faster than
//! exhaustive SFI, by
//!
//! 1. stopping each injected simulation at the *first* commit-trace
//!    corruption and classifying it into one of eight [ISA Manifestation
//!    Models](imm::Imm) ([`classify`], Fig. 2),
//! 2. converting the IMM histogram to final effects with per-structure,
//!    workload-invariant [weights] (Fig. 5) plus the
//!    [ESC](esc) output-escape estimate (§IV.D), and
//! 3. bounding every run by the per-structure [effective residency
//!    time](ert) window (§V.A),
//!
//! with the [exhaustive SFI baseline](pipeline::exhaustive) and an
//! [ACE-analysis baseline](ace) for comparison, and [FIT](fit) reporting.
//!
//! Only phase 2 simulates, and it is one campaign in [`avgi_mode`];
//! phases 3–5 are a fold over its results,
//! [`AvgiAssessment::from_campaign`]. [`assess`] is the two in one call;
//! running the campaign yourself lets you observe, shard or distribute it.
//!
//! ```no_run
//! use avgi_core::pipeline::{avgi_mode, exhaustive, AvgiAssessment, AvgiOptions};
//! use avgi_core::weights::learn_weights;
//! use avgi_faultsim::{golden_for, run_campaign};
//! use avgi_muarch::{MuarchConfig, Structure};
//!
//! let cfg = MuarchConfig::big();
//! let workloads = avgi_workloads::all();
//! let structure = Structure::RegFile;
//! // Learn weights from exhaustive campaigns on all-but-one workload...
//! let analyses: Vec<_> = workloads[1..]
//!     .iter()
//!     .map(|w| {
//!         let golden = golden_for(w, &cfg);
//!         exhaustive(w, &cfg, &golden, structure, 500, 1).analysis
//!     })
//!     .collect();
//! let weights = learn_weights(&analyses, None);
//! // ...then run the held-out workload's AVGI campaign and fold it.
//! let target = &workloads[0];
//! let golden = golden_for(target, &cfg);
//! let ccfg = AvgiOptions::default().campaign(structure, avgi_mode(structure, golden.cycles));
//! let campaign = run_campaign(target, &cfg, &golden, &ccfg);
//! let report = AvgiAssessment::from_campaign(&campaign, target.output_bytes(), &weights);
//! println!("{}: {}", target.name, report.predicted);
//! ```

pub mod ace;
pub mod analysis;
pub mod classify;
pub mod ert;
pub mod esc;
pub mod fit;
pub mod imm;
pub mod pipeline;
pub mod report;
pub mod study;
pub mod weights;

pub use analysis::{try_final_effect, EffectError, JointAnalysis};
pub use classify::{classify_conditions, classify_injection, Conditions};
pub use ert::{default_ert_window, ert_window_for_coverage};
pub use esc::EscModel;
pub use fit::{chip_fit, structure_fit, RAW_FIT_PER_BIT};
pub use imm::{FaultEffect, Imm, ImmClass, NUM_EFFECTS, NUM_IMMS};
pub use pipeline::{
    assess, avgi_mode, exhaustive, AvgiAssessment, AvgiOptions, ExhaustiveAssessment,
};
pub use report::{imm_collector, imm_labels, EffectDistribution, TelemetrySummary};
pub use study::{leave_one_out, leave_one_out_with, Study, StudyRow};
pub use weights::{learn_weights, WeightTable};
