//! # avgi-refmodel — the architectural oracle of the AVGI reproduction
//!
//! AVGI's acceleration argument rests on the pipeline's commit trace being a
//! trustworthy architectural ground truth: IMM classification compares a
//! faulty commit stream against a golden one, so a latent pipeline bug
//! (renaming, forwarding, speculation, LQ/SQ ordering) would silently corrupt
//! every reproduced figure. This crate provides the independent oracle that
//! keeps the substrate honest:
//!
//! * [`model::RefModel`] — a single-step, in-order, untimed interpreter for
//!   every AvgIsa opcode, including the deliberately-undefined encoding
//!   paths, with the same memory map and trap model as the pipeline but
//!   independently re-implemented semantics;
//! * [`fast::FastModel`] — the production fault-free tier: the same
//!   architecture pre-decoded once into a basic-block threaded
//!   [`fast::BlockCache`] and dispatched over flat memory, bit-identical to
//!   the oracle but several times faster (pick a tier with
//!   [`fast::ExecTier`]);
//! * [`lockstep`] — a differential checker that advances the reference model
//!   one committed instruction at a time against a `muarch` commit trace and
//!   reports the first divergence with full architectural context;
//! * [`fuzz`] — a deterministic coverage-directed program fuzzer that hammers
//!   the pipeline with valid-and-invalid instruction mixes and shrinks any
//!   divergence to a minimal reproducer.
//!
//! The crate is `std`-only and uses only workspace-local dependencies, like
//! the rest of the repository.

pub mod fast;
pub mod fuzz;
pub mod lockstep;
pub mod model;

pub use fast::{verify_fast_tier, BlockCache, ExecTier, FastModel, TierModel};
pub use fuzz::{run_fuzz, Coverage, FuzzConfig, FuzzFailure, FuzzReport};
pub use lockstep::{
    reference_run_tier, verify_golden_tier, verify_report_tier, verify_trace_prefix, Divergence,
    Lockstep, LockstepReport,
};
pub use model::{Effect, RefModel, RefOutcome, RefRun, RefStep, DEFAULT_MAX_STEPS};

/// FNV-1a 64-bit hash, used to pin workload output bytes in regression tests
/// without embedding the full expected buffers.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
