//! Isolated unit-cost loops, one group per layer (crate).
//!
//! Each loop calls one public function of a layer with realistic inputs and
//! reports its per-call cost — the fastest of its trials, like every time in
//! this benchmark — through [`measure`]/[`sample`]. The traced run of a
//! workload runs the groups of the layers on that workload's path.

use crate::harness::Outcome;
use crate::measure::{measure, sample, time, Stats};
use avgi_core::{classify_injection, learn_weights, JointAnalysis};
use avgi_faultsim::journal::{CampaignKey, DurabilityPolicy, Journal};
use avgi_faultsim::telemetry::MetricsCollector;
use avgi_faultsim::{
    golden_for, run_campaign, sample_faults, watchdog_budget, CampaignConfig, CampaignResult,
    CheckpointSet, InjectionResult, RunMode, ShardRunner,
};
use avgi_grid::http::{HttpBuffer, HttpPoll};
use avgi_grid::proto::{frame_bytes, FrameBuffer, Msg};
use avgi_grid::{FairScheduler, ShareConfig, SubmissionQueue, SubmitSpec};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;
use avgi_muarch::pipeline::Sim;
use avgi_muarch::run::RunControl;
use avgi_muarch::trace::GoldenRun;
use avgi_refmodel::{BlockCache, ExecTier, FastModel};
use avgi_workloads::Workload;
use std::path::Path;
use std::sync::Arc;

/// Adds `value / programs` to a metric: multi-program workloads report the
/// mean over their programs.
fn add_mean(out: &mut Outcome, name: &'static str, value: f64, programs: usize) {
    *out.metrics.entry(name).or_insert(0.0) += value / programs as f64;
}

/// `workloads`, `muarch` and `refmodel` unit costs and the exact simulated
/// statistics, averaged over `programs`.
pub fn program_layers(out: &mut Outcome, programs: &[&str], cfg: &MuarchConfig) {
    let n = programs.len();
    for name in programs {
        let build = measure(1, 7, 1, || avgi_workloads::by_name(name));
        add_mean(out, "workloads.build_us", build.min * 1e6, n);
        let w = avgi_workloads::by_name(name).expect("benchmark programs exist");
        let golden = golden_for(&w, cfg);
        muarch(out, &w, cfg, &golden, n);
        refmodel(out, &w, &golden, n);
    }
}

fn fault_free_control(golden: &Arc<GoldenRun>) -> RunControl {
    RunControl {
        max_cycles: watchdog_budget(golden.cycles),
        golden: Some(golden.clone()),
        ..Default::default()
    }
}

fn muarch(out: &mut Outcome, w: &Workload, cfg: &MuarchConfig, golden: &Arc<GoldenRun>, n: usize) {
    let capture = measure(1, 5, 1, || golden_for(w, cfg));
    add_mean(out, "muarch.golden_capture_ms", capture.min * 1e3, n);
    let new = measure(2, 9, 1, || Sim::new(&w.program, cfg.clone()));
    add_mean(out, "muarch.sim_new_us", new.min * 1e6, n);

    // The per-cycle cost every injected run pays: fault-free simulation
    // with the golden comparison attached.
    let ctl = fault_free_control(golden);
    let cycle = sample(1, 7, || {
        let mut sim = Sim::new(&w.program, cfg.clone());
        let (secs, ended) = time(|| sim.run_to_cycle(golden.cycles - 1, &ctl));
        assert!(ended.is_none(), "fault-free prefix ended early");
        secs / (golden.cycles - 1) as f64
    });
    add_mean(out, "muarch.ns_per_cycle_faultfree", cycle.min * 1e9, n);

    // Snapshot costs at mid-run, where the caches hold state.
    let mid = golden.cycles / 2;
    let mut at_mid = Sim::new(&w.program, cfg.clone());
    assert!(at_mid.run_to_cycle(mid, &ctl).is_none());
    let snapshot = measure(2, 9, 1, || at_mid.snapshot());
    add_mean(out, "muarch.snapshot_us", snapshot.min * 1e6, n);
    let snap = at_mid.snapshot();
    let spawn = measure(2, 9, 1, || snap.spawn());
    add_mean(out, "muarch.spawn_us", spawn.min * 1e6, n);
    let dirty_to = (mid + 500).min(golden.cycles - 1);
    let mut scratch = snap.spawn();
    let restore = sample(2, 15, || {
        assert!(scratch.run_to_cycle(dirty_to, &ctl).is_none());
        time(|| scratch.restore_from(&snap)).0
    });
    add_mean(out, "muarch.restore_us", restore.min * 1e6, n);
    let mut fork = at_mid.clone();
    let fork_cost = sample(2, 15, || {
        assert!(fork.run_to_cycle(dirty_to, &ctl).is_none());
        time(|| fork.restore_from_sim(&at_mid)).0
    });
    add_mean(out, "muarch.fork_us", fork_cost.min * 1e6, n);

    // Simulated statistics: exact, and fixed by the model, not by the host.
    let s = &golden.stats;
    let kinstr = s.committed as f64 / 1e3;
    add_mean(
        out,
        "muarch.ipc",
        s.committed as f64 / golden.cycles as f64,
        n,
    );
    add_mean(
        out,
        "muarch.l1d_miss_per_kinstr",
        s.l1d_misses as f64 / kinstr,
        n,
    );
    add_mean(
        out,
        "muarch.l2_miss_per_kinstr",
        s.l2_misses as f64 / kinstr,
        n,
    );
    add_mean(
        out,
        "muarch.mispredict_per_kinstr",
        s.mispredicts as f64 / kinstr,
        n,
    );
    add_mean(
        out,
        "muarch.squashed_per_kinstr",
        s.squashed as f64 / kinstr,
        n,
    );
}

fn refmodel(out: &mut Outcome, w: &Workload, golden: &Arc<GoldenRun>, n: usize) {
    let steps = golden.trace.len() as f64;
    let reference = measure(1, 5, 1, || {
        avgi_refmodel::reference_run_tier(&w.program, ExecTier::Reference, 0)
    });
    add_mean(
        out,
        "refmodel.ref_ns_per_step",
        reference.min * 1e9 / steps,
        n,
    );
    let build = measure(1, 9, 1, || BlockCache::build(&w.program));
    add_mean(out, "refmodel.block_cache_build_us", build.min * 1e6, n);
    let cache = Arc::new(BlockCache::build(&w.program));
    let fast = measure(1, 9, 1, || {
        FastModel::with_cache(&w.program, cache.clone()).run(avgi_refmodel::DEFAULT_MAX_STEPS)
    });
    add_mean(out, "refmodel.fast_ns_per_step", fast.min * 1e9 / steps, n);
    let verify = measure(1, 7, 1, || {
        avgi_refmodel::verify_golden_tier(&w.program, golden, ExecTier::Fast)
            .expect("golden run passes architectural lockstep")
    });
    add_mean(out, "refmodel.verify_golden_ms", verify.min * 1e3, n);
}

/// Per-campaign fixed costs of the engine for one campaign configuration.
pub fn faultsim_setup(
    out: &mut Outcome,
    w: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
) {
    let sampling = measure(1, 9, 1, || {
        sample_faults(ccfg.structure, cfg, golden.cycles, 10_000, ccfg.seed)
    });
    out.set("faultsim.sample_faults_us_per_10k", sampling.min * 1e6);
    let checkpoints = measure(1, 5, 1, || {
        CheckpointSet::build(w, cfg, golden, ccfg.checkpoints).expect("checkpoints build")
    });
    out.set("faultsim.checkpoint_build_ms", checkpoints.min * 1e3);
    let shard = measure(1, 5, 1, || ShardRunner::new(w, cfg, golden, ccfg));
    out.set("faultsim.shard_setup_ms", shard.min * 1e3);
}

/// Journal costs measured on `results` (an executed campaign under `ccfg`):
/// append, fsync, bytes per record, and parse on reopen.
pub fn faultsim_journal(
    out: &mut Outcome,
    w: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
    results: &[InjectionResult],
    dir: &Path,
) {
    let key = CampaignKey::new(w.name, cfg, golden.cycles, ccfg);
    let path = dir.join("probe-journal.jsonl");
    let mut appends = Vec::new();
    let mut syncs = Vec::new();
    let mut parses = Vec::new();
    let mut bytes = 0u64;
    for _ in 0..3 {
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) =
            Journal::open_with(&path, &key, DurabilityPolicy::Flush).expect("journal opens");
        let (secs, ()) = time(|| {
            for (i, r) in results.iter().enumerate() {
                journal.append(i, r).expect("journal append");
            }
        });
        appends.push(secs / results.len() as f64);
        syncs.push(time(|| journal.sync().expect("journal sync")).0);
        drop(journal);
        bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let (secs, reopened) =
            time(|| Journal::open_with(&path, &key, DurabilityPolicy::Flush).expect("reopen"));
        assert_eq!(reopened.1.len(), results.len(), "journal lost records");
        parses.push(secs / results.len() as f64);
    }
    let _ = std::fs::remove_file(&path);
    out.set("faultsim.journal_append_us", Stats::of(&appends).min * 1e6);
    out.set("faultsim.journal_fsync_us", Stats::of(&syncs).min * 1e6);
    out.set("faultsim.journal_parse_us", Stats::of(&parses).min * 1e6);
    out.set(
        "faultsim.journal_bytes_per_run",
        bytes as f64 / results.len() as f64,
    );
}

/// `avgi` layer costs on a training campaign (`Instrumented`) and an
/// assessment campaign (`FirstDeviation`) of the study's shape.
pub fn avgi(out: &mut Outcome, training: &[CampaignResult], assessment: &CampaignResult) {
    let runs = assessment.results.len();
    let classify = measure(1, 9, 1, || {
        assessment
            .results
            .iter()
            .map(classify_injection)
            .filter(|c| matches!(c, avgi_core::ImmClass::Benign))
            .count()
    });
    out.set("avgi.classify_ns_per_run", classify.min * 1e9 / runs as f64);
    let joint = measure(1, 9, 1, || JointAnalysis::from_campaign(&training[0]));
    out.set("avgi.joint_analysis_us", joint.min * 1e6);
    let analyses: Vec<JointAnalysis> = training.iter().map(JointAnalysis::from_campaign).collect();
    let learn = measure(1, 9, 1, || {
        learn_weights(&analyses, Some(assessment.workload.as_str()))
    });
    out.set("avgi.learn_weights_us", learn.min * 1e6);
}

/// A real 16-result batch report and the lease that asked for it.
fn batch_messages(cfg: &MuarchConfig) -> (Msg, Msg) {
    let w = avgi_workloads::by_name("crc32").expect("crc32 exists");
    let golden = golden_for(&w, cfg);
    let mode = RunMode::FirstDeviation {
        ert_window: Some(avgi_core::default_ert_window(
            Structure::RegFile,
            golden.cycles,
        )),
    };
    let mut ccfg = CampaignConfig::new(Structure::RegFile, 64, mode).with_seed(7);
    ccfg.threads = 1;
    let runner = ShardRunner::new(&w, cfg, &golden, &ccfg);
    let indices: Vec<usize> = (0..16).collect();
    let collector = Arc::new(MetricsCollector::new());
    let results = runner
        .run_indices(&indices, Some(collector.clone()))
        .expect("indices in range");
    let lease = Msg::Lease {
        lease: 4_211,
        campaign: 37,
        indices,
    };
    let done = Msg::BatchDone {
        lease: 4_211,
        campaign: 37,
        results,
        telemetry: collector.snapshot(),
    };
    (lease, done)
}

/// Encode/decode cost and size of one message in one dialect.
fn proto_costs(out: &mut Outcome, msg: &Msg, proto: u64, names: [&'static str; 3]) {
    let payload = msg.encode(proto);
    let encode = measure(20, 9, 200, || msg.encode(proto));
    let decode = measure(20, 9, 200, || {
        Msg::decode(&payload).expect("own encoding decodes")
    });
    out.set(names[0], encode.min * 1e9);
    out.set(names[1], decode.min * 1e9);
    out.set(names[2], payload.len() as f64);
}

/// `grid` unit costs: both wire dialects on the hot messages, framing,
/// scheduler pick against tenant count, HTTP parse, queue, spec JSON.
pub fn grid(out: &mut Outcome, cfg: &MuarchConfig, dir: &Path) {
    let (lease, done) = batch_messages(cfg);
    proto_costs(
        out,
        &lease,
        3,
        [
            "grid.proto_v3_lease_encode_ns",
            "grid.proto_v3_lease_decode_ns",
            "grid.proto_v3_lease_bytes",
        ],
    );
    proto_costs(
        out,
        &lease,
        2,
        [
            "grid.proto_v2_lease_encode_ns",
            "grid.proto_v2_lease_decode_ns",
            "grid.proto_v2_lease_bytes",
        ],
    );
    proto_costs(
        out,
        &done,
        3,
        [
            "grid.proto_v3_batch_done_encode_ns",
            "grid.proto_v3_batch_done_decode_ns",
            "grid.proto_v3_batch_done_bytes",
        ],
    );
    proto_costs(
        out,
        &done,
        2,
        [
            "grid.proto_v2_batch_done_encode_ns",
            "grid.proto_v2_batch_done_decode_ns",
            "grid.proto_v2_batch_done_bytes",
        ],
    );

    // Frame a binary batch report, then read it back through the
    // incremental decoder (CRC computed on both sides).
    let payload = done.encode(3);
    let frame = measure(20, 9, 100, || {
        let bytes = frame_bytes(&payload).expect("payload fits a frame");
        let mut buf = FrameBuffer::new();
        let mut reader = bytes.as_slice();
        loop {
            if let Some(p) = buf.poll(&mut reader).expect("own frame reads back") {
                break p;
            }
        }
    });
    out.set("grid.frame_crc_roundtrip_ns", frame.min * 1e9);

    for (tenants, name) in [
        (1u64, "grid.sched_pick_ns_t1"),
        (8, "grid.sched_pick_ns_t8"),
        (64, "grid.sched_pick_ns_t64"),
    ] {
        let mut sched = FairScheduler::new();
        for id in 1..=tenants {
            let share = ShareConfig {
                priority: (id % 2) as u32,
                weight: 1 + (id % 3) as u32,
                quota: 0,
            };
            sched.register(id, share, usize::MAX / 2);
        }
        let pick = measure(20, 9, 1_000, || sched.pick(None));
        out.set(name, pick.min * 1e9);
    }

    let spec = {
        let mut s = SubmitSpec::new("crc32", Structure::RegFile, 64, 0xA461_0001);
        s.mode = RunMode::FirstDeviation {
            ert_window: Some(1_754),
        };
        s
    };
    let body = spec.to_json();
    let request = format!(
        "POST /campaigns HTTP/1.1\r\nHost: svc\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let parse = measure(20, 9, 100, || {
        let mut reader = request.as_bytes();
        match HttpBuffer::new().poll(&mut reader).expect("in-memory read") {
            HttpPoll::Request(r) => r,
            other => panic!("submission did not route: {other:?}"),
        }
    });
    out.set("grid.http_parse_us", parse.min * 1e6);
    let roundtrip = measure(20, 9, 100, || {
        SubmitSpec::from_json(&spec.to_json()).expect("own JSON parses")
    });
    out.set("grid.spec_json_roundtrip_us", roundtrip.min * 1e6);

    // Submission and retirement are each one sealed, fsynced line.
    let path = dir.join("probe-queue.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut queue = SubmissionQueue::open(&path).expect("queue opens");
    let mut ids = Vec::new();
    let submit = measure(2, 15, 1, || {
        ids.push(queue.submit(spec.clone()).expect("queue append"));
    });
    out.set("grid.queue_submit_us", submit.min * 1e6);
    let complete = measure(2, 15, 1, || {
        queue
            .complete(ids.pop().expect("one id per submission"))
            .expect("queue append");
    });
    out.set("grid.queue_complete_us", complete.min * 1e6);
    drop(queue);
    let _ = std::fs::remove_file(&path);
}

/// One adaptive crc32 campaign stopping at a 0.01 AVF half-width:
/// informational counts only (see the README on why adaptive campaigns have
/// no end-to-end workload).
pub fn adaptive(
    out: &mut Outcome,
    w: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    base: &CampaignConfig,
) {
    let target = 0.01;
    let budget = avgi_faultsim::sample_size_at(target, 0.95).expect("valid target");
    let mut base = base.clone();
    base.faults = budget;
    let acfg = avgi_faultsim::AdaptiveConfig::new(base).with_ci_target(target);
    let report = avgi_faultsim::run_adaptive(w, cfg, golden, &acfg).expect("valid adaptive config");
    out.set(
        "faultsim.adaptive_runs_to_target",
        report.runs_used() as f64,
    );
    out.set("faultsim.adaptive_n_eff", report.estimate.n_eff);
}

/// Campaign wall time with and without a [`MetricsCollector`] attached, as
/// interleaved A/B trials; the difference per run is the observer's cost.
pub fn observer_cost(
    out: &mut Outcome,
    w: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
) {
    let plain = ccfg.clone();
    let (bare, observed) = crate::measure::measure_ab(
        16,
        || {
            run_campaign(w, cfg, golden, &plain);
        },
        || {
            let observed = plain
                .clone()
                .with_observer(Arc::new(MetricsCollector::new()));
            run_campaign(w, cfg, golden, &observed);
        },
    );
    out.set(
        "faultsim.observer_ns_per_run",
        (observed.min - bare.min) * 1e9 / ccfg.faults as f64,
    );
}
