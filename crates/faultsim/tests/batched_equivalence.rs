//! Property test: the carrier + fork engine is *observationally
//! invisible*. Over random fault sets, every combination of worker threads
//! ∈ {1, 4} and batch size ∈ {1, 8, 64} must produce, next to the
//! fresh-run reference (no checkpoint set: every run simulated from reset):
//!
//! * the same [`CampaignResult`] records, in fault order,
//! * the same deterministic telemetry counters, and
//! * the same journal: the byte-identical header line — the campaign key
//!   names no thread count, batch size or checkpoint count, which is what
//!   lets a journal written under one shape resume under another — and the
//!   same record set (compared as a CRC over the header and the sorted
//!   records: worker threads race for units, so on-disk record *order* is
//!   scheduling-dependent).

use avgi_faultsim::journal::crc32;
use avgi_faultsim::telemetry::MetricsCollector;
use avgi_faultsim::{run_campaign_journaled, CampaignConfig, CampaignResult, RunMode};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::Structure;
use std::path::PathBuf;
use std::sync::Arc;

const FAULTS: usize = 24;
const THREADS: [usize; 2] = [1, 4];
const BATCHES: [usize; 3] = [1, 8, 64];

struct Fixture {
    w: avgi_workloads::Workload,
    cfg: MuarchConfig,
    golden: Arc<avgi_muarch::trace::GoldenRun>,
}

fn fixture() -> Fixture {
    let w = avgi_workloads::by_name("bitcount").unwrap();
    let cfg = MuarchConfig::big();
    let golden = avgi_faultsim::golden_for(&w, &cfg);
    Fixture { w, cfg, golden }
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("avgi-batcheq-{tag}-{}.jsonl", std::process::id()))
}

/// Everything a campaign exposes to the outside world.
struct Observables {
    result: CampaignResult,
    counters: String,
    journal_hash: u32,
}

fn observe(f: &Fixture, ccfg: &CampaignConfig, tag: &str) -> Observables {
    let metrics = Arc::new(MetricsCollector::new());
    let ccfg = ccfg.clone().with_observer(metrics.clone());
    let path = tmp_path(&format!("{:?}-{}-{tag}", ccfg.structure, ccfg.seed));
    let _ = std::fs::remove_file(&path);
    let result = run_campaign_journaled(&f.w, &f.cfg, &f.golden, &ccfg, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let mut lines = text.lines();
    let header = lines.next().expect("a journal opens with its header");
    let mut records: Vec<&str> = lines.collect();
    assert_eq!(records.len(), FAULTS, "one journal record per fault");
    records.sort_unstable();
    records.insert(0, header);
    Observables {
        result,
        counters: metrics.snapshot().deterministic_counters_json(),
        journal_hash: crc32(records.join("\n").as_bytes()),
    }
}

fn assert_grid_identical(f: &Fixture, base: &CampaignConfig) {
    let reference = observe(f, &base.clone().with_checkpoints(0), "fresh");
    assert_eq!(reference.result.len(), FAULTS);
    let mut shapes: Vec<(String, CampaignConfig)> = Vec::new();
    for threads in THREADS {
        for batch in BATCHES {
            let ccfg = CampaignConfig {
                threads,
                ..base.clone()
            };
            shapes.push((
                format!("threads={threads} batch={batch}"),
                ccfg.with_batch(batch),
            ));
        }
    }
    for (n, (shape, ccfg)) in shapes.iter().enumerate() {
        let v = observe(f, ccfg, &format!("s{n}"));
        assert_eq!(
            v.result.results, reference.result.results,
            "results differ at {shape} (seed {:#x}, {:?})",
            base.seed, base.structure
        );
        assert_eq!(
            v.counters, reference.counters,
            "telemetry counters differ at {shape}"
        );
        assert_eq!(
            v.journal_hash, reference.journal_hash,
            "journal header or records differ at {shape}"
        );
    }
}

#[test]
fn batched_engine_is_observationally_identical_in_production_mode() {
    let f = fixture();
    for seed in [0xA1u64, 0x5EED_0002] {
        let base = CampaignConfig::new(
            Structure::RegFile,
            FAULTS,
            RunMode::FirstDeviation {
                ert_window: Some(2_000),
            },
        )
        .with_seed(seed);
        assert_grid_identical(&f, &base);
    }
}

#[test]
fn batched_engine_is_observationally_identical_end_to_end_on_the_rob() {
    let f = fixture();
    let base = CampaignConfig::new(Structure::Rob, FAULTS, RunMode::EndToEnd).with_seed(0xC3);
    assert_grid_identical(&f, &base);
}
