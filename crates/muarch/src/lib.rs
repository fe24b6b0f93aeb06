//! # avgi-muarch — the microarchitecture simulator substrate
//!
//! A from-scratch, cycle-driven, out-of-order CPU simulator standing in for
//! gem5 in the AVGI reproduction. It models the twelve fault-injectable
//! hardware structures of the paper's evaluation — L1I/L1D/L2 tag and data
//! arrays, the physical register file, ROB, load queue, store queue, and
//! both TLBs — as *real storage*: a flipped bit propagates (or is masked)
//! through genuine microarchitectural mechanisms (overwrites, invalid
//! entries, squashed speculation, cache evictions, commit-side integrity
//! checks).
//!
//! The top-level entry points are [`Sim`] (one run),
//! [`capture_golden`] (record the fault-free
//! reference), and the [`Fault`]/[`Structure`]
//! types naming injection targets.
//!
//! ## Example
//!
//! ```
//! use avgi_isa::asm::Assembler;
//! use avgi_isa::reg::{A0, ZERO};
//! use avgi_muarch::config::MuarchConfig;
//! use avgi_muarch::pipeline::{capture_golden, Sim};
//! use avgi_muarch::program::Program;
//! use avgi_muarch::run::{RunControl, RunOutcome};
//!
//! let mut a = Assembler::new(0);
//! a.li32(A0, 5);
//! a.label("loop");
//! a.addi(A0, A0, -1);
//! a.bne(A0, ZERO, "loop");
//! a.halt();
//! let program = Program::new("countdown", a.assemble().unwrap(), 0);
//!
//! let golden = capture_golden(&program, &MuarchConfig::big(), 1_000_000);
//! assert!(golden.cycles > 0);
//!
//! let mut sim = Sim::new(&program, MuarchConfig::big());
//! let report = sim.run(&RunControl { max_cycles: 1_000_000, ..Default::default() });
//! assert_eq!(report.outcome, RunOutcome::Completed);
//! assert_eq!(report.cycles, golden.cycles, "deterministic timing");
//! ```

pub mod cache;
pub mod config;
pub mod exec;
pub mod fault;
pub mod hierarchy;
pub mod mem;
pub mod pipeline;
pub mod predictor;
pub mod program;
pub mod queues;
pub mod regfile;
pub mod ring;
pub mod run;
pub mod tlb;
pub mod trace;

pub use config::MuarchConfig;
pub use fault::{Fault, FaultSite, Structure};
pub use pipeline::{capture_golden, Sim, Snapshot};
pub use program::Program;
pub use run::{RunControl, RunOutcome, RunReport, TrapKind};
pub use trace::{CommitRecord, Deviation, GoldenRun};
