//! Fig. 2 — the IMM classification diagram.
//!
//! Enumerates all 2⁸ = 256 combinations of the eight conditions and prints
//! the per-class combination counts — the "don't-care" labels on the
//! paper's diagram nodes — demonstrating completeness and mutual
//! exclusion.

use avgi_core::classify::{classify_conditions, Conditions};
use std::collections::BTreeMap;

pub fn print() {
    println!("Fig. 2 — IMM classification diagram: 256-combination census\n");
    let mut counts: BTreeMap<String, u32> = BTreeMap::new();
    for bits in 0..=255u8 {
        let class = classify_conditions(Conditions::from_bits(bits));
        *counts.entry(class.to_string()).or_insert(0) += 1;
    }
    println!("{:>8} {:>12} {:>12}", "class", "combos", "paper label");
    println!("{}", "-".repeat(36));
    let paper: &[(&str, u32)] = &[
        ("IFC", 128),
        ("IRP", 64),
        ("UNO", 32),
        ("OFS", 16),
        ("DCR", 8),
        ("ETE", 4),
        ("PRE", 2),
        ("ESC", 1),
        ("Benign", 1),
    ];
    let mut total = 0;
    for (label, expect) in paper {
        let got = counts.get(*label).copied().unwrap_or(0);
        total += got;
        let mark = if got == *expect { "" } else { "  <-- MISMATCH" };
        println!("{label:>8} {got:>12} {expect:>12}{mark}");
    }
    println!("{}", "-".repeat(36));
    println!("{:>8} {total:>12} {:>12}", "sum", 256);
    assert_eq!(
        total, 256,
        "diagram must be complete and mutually exclusive"
    );
    println!("\ncomplete and mutually exclusive: every combination reaches exactly one class");
}
