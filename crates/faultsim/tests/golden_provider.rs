//! The process-wide golden provider, `verified_golden`: one capture per
//! (program, configuration), shared by every caller, verified before it is
//! served, keyed on the program rather than its name.

use avgi_faultsim::{golden_for, verified_golden, GoldenError};
use avgi_muarch::config::MuarchConfig;
use avgi_workloads::{by_name, Workload};
use std::sync::Arc;

#[test]
fn one_pair_is_one_capture_and_configurations_are_distinct() {
    let w = by_name("bitcount").unwrap();
    let (big, small) = (MuarchConfig::big(), MuarchConfig::small());
    let a = verified_golden(&w, &big).unwrap();
    let b = verified_golden(&w, &big).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "same pair, one capture");
    let on_small = verified_golden(&w, &small).unwrap();
    assert!(!Arc::ptr_eq(&a, &on_small));
    assert_ne!(a.cycles, on_small.cycles);
    assert_eq!(on_small.cycles, golden_for(&w, &small).cycles);
}

#[test]
fn a_reused_name_is_not_served_another_programs_run() {
    let cfg = MuarchConfig::big();
    let honest = by_name("crc32").unwrap();
    let impostor = Workload {
        name: honest.name,
        ..by_name("sha").unwrap()
    };
    let a = verified_golden(&honest, &cfg).unwrap();
    let b = verified_golden(&impostor, &cfg).unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(b.output, impostor.expected);
    assert_eq!(b.cycles, golden_for(&impostor, &cfg).cycles);
}

#[test]
fn racing_callers_share_one_capture() {
    let w = Arc::new(by_name("qsort").unwrap());
    let cfg = MuarchConfig::small();
    let runs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| verified_golden(&w, &cfg).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(runs.iter().all(|r| Arc::ptr_eq(r, &runs[0])));
}

#[test]
fn a_wrong_expected_output_is_a_typed_error_every_time() {
    let cfg = MuarchConfig::small();
    let mut doctored = by_name("stringsearch").unwrap();
    doctored.expected[0] ^= 1;
    let want = GoldenError::Output {
        workload: "stringsearch".to_string(),
    };
    assert_eq!(verified_golden(&doctored, &cfg).unwrap_err(), want);
    assert_eq!(verified_golden(&doctored, &cfg).unwrap_err(), want);
    // The honest workload is a different key and is served.
    let honest = by_name("stringsearch").unwrap();
    assert_eq!(
        verified_golden(&honest, &cfg).unwrap().output,
        honest.expected
    );
}
