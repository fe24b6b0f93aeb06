//! Randomized property tests of the core invariants, spanning crates.
//!
//! Invariants that only exercise `avgi-isa` encode/decode live in
//! `crates/isa/tests/proptests.rs`, keeping `cargo test -p avgi-isa`
//! self-contained; this suite keeps the genuinely cross-crate properties.
//!
//! These were originally `proptest` properties; the repository must build
//! fully offline, so they are now deterministic loops over an in-repo
//! xoshiro256** generator (`avgi-rng`) — same invariants, fixed seeds,
//! reproducible failures.

use avgi_repro::core::classify::{classify_conditions, Conditions};
use avgi_repro::core::{EffectDistribution, EscModel, ImmClass};
use avgi_repro::faultsim::{error_margin_at, sample_faults, sample_size_at};
use avgi_repro::muarch::{MuarchConfig, Structure};
use avgi_rng::Rng;

/// The Fig. 2 diagram maps every condition vector to exactly one class,
/// and any vector with a commit-trace error never lands on the right
/// branch (PRE/ESC/Benign). Exhaustive over all 256 condition vectors.
#[test]
fn imm_diagram_total_and_consistent() {
    for bits in 0..=u8::MAX {
        let c = Conditions::from_bits(bits);
        let class = classify_conditions(c);
        if !c.commit_trace_correct() {
            assert!(matches!(class, ImmClass::Manifested(i)
                if i != avgi_repro::core::Imm::Pre && i != avgi_repro::core::Imm::Esc));
        } else {
            assert!(matches!(
                class,
                ImmClass::Benign
                    | ImmClass::Manifested(avgi_repro::core::Imm::Pre)
                    | ImmClass::Manifested(avgi_repro::core::Imm::Esc)
            ));
        }
    }
}

/// Fault sampling stays in range for every structure and is deterministic
/// in the seed.
#[test]
fn fault_sampling_in_range() {
    let cfg = MuarchConfig::big();
    let mut rng = Rng::seed_from_u64(0x1003);
    for _ in 0..32 {
        let s = *rng.choose(Structure::all());
        let seed = rng.next_u64();
        let cycles = 1 + rng.gen_range_u64(1_000_000);
        let faults = sample_faults(s, &cfg, cycles, 50, seed).unwrap();
        let bits = s.bit_count(&cfg);
        for f in &faults {
            assert!(f.site.bit < bits);
            assert!(f.cycle < cycles);
            assert_eq!(f.site.structure, s);
        }
        assert_eq!(faults, sample_faults(s, &cfg, cycles, 50, seed).unwrap());
    }
}

/// Error margin and sample size are mutually consistent inverses.
#[test]
fn margin_size_inverse() {
    let mut rng = Rng::seed_from_u64(0x1004);
    for _ in 0..512 {
        let n = 100 + rng.gen_range_usize(100_000 - 100);
        let e = error_margin_at(n, 0.99).unwrap();
        let n2 = sample_size_at(e, 0.99).unwrap();
        // Within rounding of each other.
        assert!((n2 as i64 - n as i64).abs() <= 2, "{n} -> {e} -> {n2}");
    }
}

/// The ESC model always yields a fraction in [0, 1] and a count no larger
/// than the Benign population.
#[test]
fn esc_model_bounded() {
    let mut rng = Rng::seed_from_u64(0x1005);
    for _ in 0..2048 {
        let out = rng.next_u32() & ((1 << 24) - 1);
        let total = 1 + rng.gen_range_u64(10_000 - 1);
        let benign_frac = rng.gen_f64();
        let scale = rng.gen_f64() * 1_000.0;
        let benign = ((total as f64) * benign_frac) as u64;
        let m = EscModel { scale };
        let f = m.esc_fraction(out, total, benign);
        assert!((0.0..=1.0).contains(&f));
        assert!(m.esc_count(out, total, benign) <= benign as f64 + 1e-9);
    }
}

/// Effect distributions: max_abs_diff is a metric (symmetric, zero on
/// self, triangle inequality).
#[test]
fn effect_diff_is_a_metric() {
    let mut rng = Rng::seed_from_u64(0x1006);
    let arb = |rng: &mut Rng| {
        let v = [rng.gen_f64(), rng.gen_f64(), rng.gen_f64()];
        let s: f64 = v.iter().sum::<f64>().max(1e-9);
        EffectDistribution {
            masked: v[0] / s,
            sdc: v[1] / s,
            crash: v[2] / s,
        }
    };
    for _ in 0..2048 {
        let (a, b, c) = (arb(&mut rng), arb(&mut rng), arb(&mut rng));
        assert!(a.max_abs_diff(a) < 1e-12);
        assert!((a.max_abs_diff(b) - b.max_abs_diff(a)).abs() < 1e-12);
        assert!(a.max_abs_diff(c) <= a.max_abs_diff(b) + b.max_abs_diff(c) + 1e-12);
    }
}

/// Running any workload prefix of the suite is deterministic: same seed,
/// same campaign, same classification — through the whole stack.
#[test]
fn campaign_determinism() {
    use avgi_repro::faultsim::{golden_for, run_campaign, CampaignConfig, RunMode};
    let cfg = MuarchConfig::big();
    let w = avgi_repro::workloads::by_name("bitcount").expect("exists");
    let golden = golden_for(&w, &cfg);
    let mut rng = Rng::seed_from_u64(0x1007);
    for _ in 0..8 {
        let seed = rng.next_u64();
        let cc = CampaignConfig::new(Structure::Dtlb, 10, RunMode::Instrumented).with_seed(seed);
        let a = run_campaign(&w, &cfg, &golden, &cc);
        let b = run_campaign(&w, &cfg, &golden, &cc);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.cycles, y.cycles);
            assert_eq!(x.deviation, y.deviation);
        }
    }
}
