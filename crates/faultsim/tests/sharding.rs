//! Shard determinism: any partition of a campaign's fault indices,
//! executed independently and merged, must reproduce the unsharded
//! campaign bit-for-bit — results and telemetry deterministic counters
//! alike. This is the property the distributed fabric (`avgi-grid`) is
//! built on.

use avgi_faultsim::telemetry::MetricsCollector;
use avgi_faultsim::{
    golden_for, run_campaign, CampaignConfig, CampaignError, MetricsSnapshot, RunMode, ShardRunner,
};
use avgi_muarch::{MuarchConfig, Structure};
use std::sync::Arc;

const FAULTS: usize = 36;

fn base_config() -> CampaignConfig {
    CampaignConfig::new(Structure::RegFile, FAULTS, RunMode::Instrumented).with_seed(0x5AAD)
}

#[test]
fn interleaved_shards_merge_bit_identical_across_splits() {
    let w = avgi_workloads::by_name("bitcount").unwrap();
    let cfg = MuarchConfig::big();
    let golden = golden_for(&w, &cfg);

    // Reference: one unsharded campaign with observed telemetry.
    let collector = Arc::new(MetricsCollector::new());
    let reference = run_campaign(
        &w,
        &cfg,
        &golden,
        &base_config().with_observer(collector.clone()),
    );
    let reference_counters = collector.snapshot().deterministic_counters_json();

    // Property sweep: several (shard count, thread count) splits, including
    // a shard count that does not divide the fault count.
    for (shards, threads) in [(1usize, 2usize), (2, 1), (3, 4), (5, 2)] {
        let mut ccfg = base_config();
        ccfg.threads = threads;
        let runner = ShardRunner::new(&w, &cfg, &golden, &ccfg);
        let mut merged_results = vec![None; FAULTS];
        let mut merged = MetricsSnapshot::empty();
        for shard in 0..shards {
            let collector = Arc::new(MetricsCollector::new());
            let results = runner
                .run_interleaved(shard, shards, Some(collector.clone()))
                .unwrap();
            for (i, r) in results {
                assert!(
                    merged_results[i].replace(r).is_none(),
                    "shard {shard}/{shards} produced index {i} twice"
                );
            }
            merged.merge(&collector.snapshot());
        }
        let merged_results: Vec<_> = merged_results
            .into_iter()
            .map(|r| r.expect("every index covered by exactly one shard"))
            .collect();
        assert_eq!(
            merged_results, reference.results,
            "split {shards}x{threads} diverged from the unsharded campaign"
        );
        assert_eq!(
            merged.deterministic_counters_json(),
            reference_counters,
            "split {shards}x{threads}: merged telemetry not bit-identical"
        );
    }
}

#[test]
fn explicit_index_batches_honor_order_and_bounds() {
    let w = avgi_workloads::by_name("bitcount").unwrap();
    let cfg = MuarchConfig::big();
    let golden = golden_for(&w, &cfg);
    let ccfg = base_config();
    let runner = ShardRunner::new(&w, &cfg, &golden, &ccfg);
    assert_eq!(runner.faults().len(), FAULTS);

    // Results come back zipped to the requested order, whatever it is.
    let indices = [7usize, 3, 7, 0];
    let out = runner.run_indices(&indices, None).unwrap();
    assert_eq!(out.len(), indices.len());
    for ((i, r), want) in out.iter().zip(indices) {
        assert_eq!(*i, want);
        assert_eq!(r.fault, runner.faults()[want]);
    }
    // Duplicate requests of the same index agree exactly.
    assert_eq!(out[0].1, out[2].1);

    match runner.run_indices(&[FAULTS], None) {
        Err(CampaignError::ShardIndexOutOfRange { index, faults }) => {
            assert_eq!(index, FAULTS);
            assert_eq!(faults, FAULTS);
        }
        other => panic!("expected ShardIndexOutOfRange, got {other:?}"),
    }

    // The interleaved door checks its own arguments: shard 5 of 2 would
    // re-run shard 1's indices, and 0 shards is not one shard.
    for (index, count) in [(5usize, 2usize), (2, 2), (0, 0)] {
        match runner.run_interleaved(index, count, None) {
            Err(CampaignError::ShardOutOfRange { index: i, count: n }) => {
                assert_eq!((i, n), (index, count))
            }
            other => panic!("shard {index}/{count}: expected ShardOutOfRange, got {other:?}"),
        }
    }
}
