//! Every workload must run to completion on the simulator and produce
//! exactly the reference output — on both microarchitecture configurations.
//! This is the end-to-end validation of the assembly programs, the
//! assembler, and the simulator's architectural semantics at once.

use avgi_muarch::config::MuarchConfig;
use avgi_muarch::pipeline::capture_golden;

const MAX_CYCLES: u64 = 20_000_000;

fn check_all(cfg: MuarchConfig) {
    for w in avgi_workloads::all() {
        let golden = capture_golden(&w.program, &cfg, MAX_CYCLES);
        assert_eq!(
            golden.output, w.expected,
            "{} output mismatch on {}",
            w.name, cfg.name
        );
        // An all-zero reference would let a run that never writes its
        // output region pass the equality above.
        assert!(
            w.expected.iter().any(|&b| b != 0),
            "{}: all-zero reference output",
            w.name
        );
        assert!(
            golden.cycles > 1_000,
            "{}: implausibly short run ({} cycles)",
            w.name,
            golden.cycles
        );
    }
}

#[test]
fn all_workloads_match_reference_on_big_config() {
    check_all(MuarchConfig::big());
}

#[test]
fn all_workloads_match_reference_on_small_config() {
    check_all(MuarchConfig::small());
}

#[test]
fn execution_lengths_are_in_campaign_range() {
    // Campaigns assume golden runs of roughly 10k-1M cycles: long enough
    // that residency-time windows are much shorter than the run, short
    // enough that thousands of injections are tractable.
    let cfg = MuarchConfig::big();
    for w in avgi_workloads::all() {
        let golden = capture_golden(&w.program, &cfg, MAX_CYCLES);
        assert!(
            (5_000..2_000_000).contains(&golden.cycles),
            "{}: {} cycles outside the intended range",
            w.name,
            golden.cycles
        );
    }
}
