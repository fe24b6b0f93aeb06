//! What the benchmark measures: workloads, metrics, units, directions and
//! regression bounds, in one place. `BENCHMARK.json` is generated from these
//! tables (`avgi-perf manifest`) and the smoke test keeps the two equal.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The seed `expected.json` holds digests for.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn ident(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "avgi_rf_crc32",
        why: "AVGI production mode (first deviation + ERT stop, checkpointed, batched) on crc32/RegFile: pipeline cycles, prefix carrier and fork/restore all matter",
    },
    Workload {
        name: "sfi_l1d_rijndael",
        why: "the SFI baseline (end-to-end runs) on rijndael/L1DData: memory-bound, almost pure cycle loop; engine, journal and telemetry changes must not move it",
    },
    Workload {
        name: "engine_rob_sha_journaled",
        why: "journaled + observed campaign on sha/Rob, ~29 cycles per run: per-run engine overhead, journal append and telemetry dominate; cycle-loop changes show least",
    },
    Workload {
        name: "study_loo_rf",
        why: "the paper in one call: leave-one-out study over four programs (SFI training, weight learning, AVGI assessment); only path through classify/weights/ESC",
    },
    Workload {
        name: "grid_small_campaigns",
        why: "closed loop of small campaigns through the HTTP service and two workers: compute is a small share, so the control plane sets latency and throughput",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these; failed operations travel beside them as `failed`/`attempted`.
pub const END_TO_END: &[Metric] = &[
    e2e("runs_per_sec", "1/s", Better::Higher, 0.25),
    e2e("submit_to_report_p50_ms", "ms", Better::Lower, 0.25),
    e2e("submit_to_report_p90_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Single-layer metrics of the traced run, layer = crate. A workload whose
/// path does not cross a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[Metric] = &[
    layer("workloads.build_us", "us", Lower),
    // muarch: host costs, then exact simulated statistics of the golden runs.
    layer("muarch.golden_capture_ms", "ms", Lower),
    layer("muarch.sim_new_us", "us", Lower),
    layer("muarch.ns_per_cycle_faultfree", "ns", Lower),
    layer("muarch.snapshot_us", "us", Lower),
    layer("muarch.spawn_us", "us", Lower),
    layer("muarch.restore_us", "us", Lower),
    layer("muarch.fork_us", "us", Lower),
    layer("muarch.ipc", "instr/cycle", Higher),
    layer("muarch.l1d_miss_per_kinstr", "1/kinstr", Lower),
    layer("muarch.l2_miss_per_kinstr", "1/kinstr", Lower),
    layer("muarch.mispredict_per_kinstr", "1/kinstr", Lower),
    layer("muarch.squashed_per_kinstr", "1/kinstr", Lower),
    layer("refmodel.ref_ns_per_step", "ns", Lower),
    layer("refmodel.fast_ns_per_step", "ns", Lower),
    layer("refmodel.block_cache_build_us", "us", Lower),
    layer("refmodel.verify_golden_ms", "ms", Lower),
    layer("faultsim.sample_faults_us_per_10k", "us", Lower),
    layer("faultsim.checkpoint_build_ms", "ms", Lower),
    layer("faultsim.shard_setup_ms", "ms", Lower),
    layer("faultsim.us_per_run", "us", Lower),
    layer("faultsim.post_inject_cycles_per_run", "cycles", Lower),
    layer("faultsim.engine_overhead_us_per_run", "us", Lower),
    layer("faultsim.observer_ns_per_run", "ns", Lower),
    layer("faultsim.journal_append_us", "us", Lower),
    layer("faultsim.journal_fsync_us", "us", Lower),
    layer("faultsim.journal_bytes_per_run", "bytes", Lower),
    layer("faultsim.journal_parse_us", "us", Lower),
    layer("faultsim.cpu_s", "s", Lower),
    layer("faultsim.parallel_efficiency", "share", Higher),
    layer("faultsim.t1_runs_per_sec", "1/s", Higher),
    layer("faultsim.adaptive_runs_to_target", "count", Lower),
    layer("faultsim.adaptive_n_eff", "count", Higher),
    layer("avgi.classify_ns_per_run", "ns", Lower),
    layer("avgi.joint_analysis_us", "us", Lower),
    layer("avgi.learn_weights_us", "us", Lower),
    layer("avgi.assess_post_us", "us", Lower),
    layer("avgi.avf_abs_err_pp", "pp", Lower),
    layer("avgi.sim_cycle_speedup_vs_sfi", "ratio", Higher),
    layer("grid.proto_v3_lease_encode_ns", "ns", Lower),
    layer("grid.proto_v3_lease_decode_ns", "ns", Lower),
    layer("grid.proto_v3_lease_bytes", "bytes", Lower),
    layer("grid.proto_v2_lease_encode_ns", "ns", Lower),
    layer("grid.proto_v2_lease_decode_ns", "ns", Lower),
    layer("grid.proto_v2_lease_bytes", "bytes", Lower),
    layer("grid.proto_v3_batch_done_encode_ns", "ns", Lower),
    layer("grid.proto_v3_batch_done_decode_ns", "ns", Lower),
    layer("grid.proto_v3_batch_done_bytes", "bytes", Lower),
    layer("grid.proto_v2_batch_done_encode_ns", "ns", Lower),
    layer("grid.proto_v2_batch_done_decode_ns", "ns", Lower),
    layer("grid.proto_v2_batch_done_bytes", "bytes", Lower),
    layer("grid.frame_crc_roundtrip_ns", "ns", Lower),
    layer("grid.sched_pick_ns_t1", "ns", Lower),
    layer("grid.sched_pick_ns_t8", "ns", Lower),
    layer("grid.sched_pick_ns_t64", "ns", Lower),
    layer("grid.http_parse_us", "us", Lower),
    layer("grid.queue_submit_us", "us", Lower),
    layer("grid.queue_complete_us", "us", Lower),
    layer("grid.spec_json_roundtrip_us", "us", Lower),
    layer("grid.submit_rtt_ms", "ms", Lower),
    layer("grid.submit_to_first_progress_ms", "ms", Lower),
    layer("grid.first_progress_to_done_ms", "ms", Lower),
    layer("grid.status_poll_rtt_ms", "ms", Lower),
    layer("grid.leases_granted_per_campaign", "count", Lower),
    layer("grid.leases_reassigned_per_campaign", "count", Lower),
    layer("grid.protocol_errors_per_campaign", "count", Lower),
    layer("grid.sessions_reattached_per_campaign", "count", Lower),
    layer("grid.batches_rejected", "count", Lower),
    layer("grid.wire_bytes_per_run", "bytes", Lower),
    layer("grid.service_overhead_share", "share", Lower),
    layer("grid.large_campaign_efficiency", "share", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.unattributed_share", "share", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest() -> String {
    use avgi_faultsim::json::escape;
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                escape(w.why)
            )
        })
        .collect();
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.ident()
        )
    };
    let list = |ms: &[Metric]| ms.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
        assert!(manifest().len() < 64 << 10);
    }
}
