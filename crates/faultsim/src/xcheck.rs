//! Lockstep cross-check of the checkpointed engine (from the command line:
//! `avgi xtier_check`, which runs both provers of this module).
//!
//! A campaign with a checkpoint set forks every run off a fault-free carrier
//! and takes the golden's ending wherever a run provably has the golden's
//! future. It claims bit-identity with the fresh run from reset: same
//! [`InjectionResult`](crate::InjectionResult)s, same deterministic
//! telemetry counters, same commit streams. This module *proves* it for a
//! concrete campaign, three ways:
//!
//! 1. **Substrate**: the golden capture is lockstep-verified against the
//!    `avgi-refmodel` architectural interpreter — if the fault-free commit
//!    stream is wrong, equality between two engines proves nothing.
//! 2. **Checkpointed vs run to the end**: the campaign runs once as
//!    configured and once with no checkpoints at all — every run simulated
//!    fresh from reset to its own end — each with a fresh metrics
//!    collector. Every per-run observable and the deterministic telemetry
//!    counters must be equal, so every exit is held to the run it skipped:
//!    at injection, in every mode, a flip into dead storage
//!    ([`Sim::dead_on_arrival`]) or into a register the golden run frees
//!    before reading it again
//!    ([`GoldenRun::rf_un_ace`](avgi_muarch::trace::GoldenRun::rf_un_ace));
//!    later, a machine equal to the golden's at a checkpoint
//!    ([`Sim::converged_with`]). The report counts the runs that took an
//!    exit and the cycles they were charged, not simulated.
//! 3. **Fork anatomy**: for a sample of faults, the carrier/fork execution
//!    is replayed with full trace recording next to a fresh run armed at
//!    reset, and the two commit streams are compared record-for-record
//!    (cycle numbers included). The fault-free prefix of each stream —
//!    everything before the first deviation — is additionally
//!    lockstep-verified against the reference model via
//!    [`avgi_refmodel::verify_trace_prefix`].
//!
//! Any disagreement is reported as a human-readable error string naming the
//! fault and the first differing observable.
//!
//! A second prover, [`run_xtier`], targets the *execution-tier*
//! claim instead of the engine claim: the fast pre-decoded interpreter
//! must be bit-identical to both the reference interpreter and the
//! cycle-accurate pipeline.

use crate::campaign::{control_for, inject_burst, run_campaign, CampaignConfig, CampaignResult};
use crate::sampling::sample_faults;
use crate::telemetry::MetricsCollector;
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Fault;
use avgi_muarch::pipeline::Sim;
use avgi_muarch::run::{RunControl, RunReport};
use avgi_muarch::trace::GoldenRun;
use avgi_refmodel::ExecTier;
use avgi_workloads::Workload;
use std::sync::Arc;

/// Outcome of a clean cross-check (see [`run_xcheck`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XcheckReport {
    /// Workload checked.
    pub workload: String,
    /// Injected runs compared between the checkpointed campaign and its run
    /// to the end.
    pub runs_compared: usize,
    /// Whether the deterministic telemetry counters were byte-identical.
    pub telemetry_identical: bool,
    /// Faults whose fork execution was replayed trace-for-trace.
    pub forks_traced: usize,
    /// Fault-free prefix commits lockstep-verified against the reference
    /// model across all traced forks.
    pub prefix_commits_verified: u64,
    /// Runs of the checkpointed campaign that took the golden's ending, at
    /// their injection cycle or a later checkpoint — each found equal, like
    /// every other run, to its run-to-the-end reference.
    pub converged: u64,
    /// Post-injection cycles the campaign's results are charged.
    pub cycles_charged: u64,
    /// Of those, cycles the converged runs did not simulate.
    pub cycles_skipped: u64,
}

impl std::fmt::Display for XcheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "xcheck `{}`: {} runs bit-identical, telemetry identical, {} forks traced \
             ({} prefix commits architecturally verified)",
            self.workload, self.runs_compared, self.forks_traced, self.prefix_commits_verified
        )
    }
}

/// How many faults get the expensive full-trace fork replay.
const TRACED_FORKS: usize = 8;

/// Cross-checks the checkpointed engine against fresh runs to the end and
/// the architectural reference model for one campaign configuration.
///
/// Observers on `ccfg` are replaced with fresh collectors (the comparison
/// needs exclusive ones).
pub fn run_xcheck(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
) -> Result<XcheckReport, String> {
    // 1. Substrate: the golden stream itself must be architecturally right.
    avgi_refmodel::verify_golden_tier(&workload.program, golden, ExecTier::Reference)
        .map_err(|d| format!("golden run of `{}` fails lockstep: {d}", workload.name))?;

    // 2. Checkpointed vs run to the end: no checkpoint set, so no run can
    // stop early.
    let checkpointed_metrics = Arc::new(MetricsCollector::new());
    let reference_metrics = Arc::new(MetricsCollector::new());
    let checkpointed_cfg = ccfg.clone().with_observer(checkpointed_metrics.clone());
    let reference_cfg = (ccfg.clone().with_checkpoints(0)).with_observer(reference_metrics.clone());
    let checkpointed = run_campaign(workload, cfg, golden, &checkpointed_cfg);
    let reference = run_campaign(workload, cfg, golden, &reference_cfg);
    compare_campaigns(
        ("checkpointed", &checkpointed),
        ("run to the end", &reference),
    )?;
    let checkpointed_snap = checkpointed_metrics.snapshot();
    let ct = checkpointed_snap.deterministic_counters_json();
    let reference_snap = reference_metrics.snapshot();
    let rt = reference_snap.deterministic_counters_json();
    if ct != rt || reference_snap.converged_runs != 0 {
        return Err(format!(
            "telemetry differs from the run-to-the-end reference ({} of its runs converged):\n  \
             checkpointed:   {ct}\n  run to the end: {rt}",
            reference_snap.converged_runs
        ));
    }

    // 3. Fork anatomy: replay a sample of faults with full trace recording
    // through both ways of positioning a run and compare commit streams.
    let faults = sample_faults(ccfg.structure, cfg, golden.cycles, ccfg.faults, ccfg.seed)
        .map_err(|e| format!("fault sampling failed: {e}"))?;
    let step = (faults.len() / TRACED_FORKS).max(1);
    let sample: Vec<Fault> = faults
        .iter()
        .step_by(step)
        .take(TRACED_FORKS)
        .copied()
        .collect();
    let mut prefix_commits = 0u64;
    for &fault in &sample {
        prefix_commits += trace_fork(workload, cfg, golden, ccfg, fault)?;
    }

    Ok(XcheckReport {
        workload: workload.name.to_string(),
        runs_compared: checkpointed.results.len(),
        telemetry_identical: true,
        forks_traced: sample.len(),
        prefix_commits_verified: prefix_commits,
        converged: checkpointed_snap.converged_runs,
        cycles_charged: checkpointed.total_post_inject_cycles(),
        cycles_skipped: checkpointed_snap.cycles_skipped,
    })
}

/// Outcome of a clean execution-tier cross-check (see [`run_xtier`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XtierReport {
    /// Workload checked.
    pub workload: String,
    /// Architectural steps proven bit-identical between the reference
    /// interpreter and the fast tier (step-by-step *and* batched `run`).
    pub interp_steps: u64,
    /// Commit records compared between the pipeline's golden trace and the
    /// fast tier.
    pub commits_compared: u64,
}

impl std::fmt::Display for XtierReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "xtier `{}`: {} interpreter steps bit-identical across tiers, {} pipeline commits \
             matched",
            self.workload, self.interp_steps, self.commits_compared
        )
    }
}

/// Proves the two execution tiers interchangeable for one workload, three
/// ways:
///
/// 1. **Substrate**: the golden capture is lockstep-verified against the
///    *reference* tier — the slow interpreter anchors the whole proof, so it
///    never delegates to the tier under test.
/// 2. **Interpreter identity**: [`avgi_refmodel::verify_fast_tier`] steps
///    the reference and fast models side by side over the whole program,
///    comparing every `RefStep`, then re-runs the fast tier's
///    block-threaded batch path and requires the same end state.
/// 3. **Pipeline identity**: the pipeline's recorded commit stream is
///    lockstep-verified against the *fast* tier — the check
///    [`verified_golden`](crate::verified_golden) makes in production. Every
///    commit's `(pc, raw, ea, val)`, the end of both streams, completion and
///    the final output bytes must match.
pub fn run_xtier(workload: &Workload, golden: &GoldenRun) -> Result<XtierReport, String> {
    // 1. Substrate, pinned to the reference tier.
    avgi_refmodel::verify_golden_tier(&workload.program, golden, ExecTier::Reference)
        .map_err(|d| format!("golden run of `{}` fails lockstep: {d}", workload.name))?;

    // 2. Reference interpreter vs fast tier, step path and batch path.
    let interp_steps = avgi_refmodel::verify_fast_tier(&workload.program, 0).map_err(|e| {
        format!(
            "`{}`: fast tier diverges from reference: {e}",
            workload.name
        )
    })?;

    // 3. Fast tier vs the pipeline's commit stream.
    let fast = avgi_refmodel::verify_golden_tier(&workload.program, golden, ExecTier::Fast)
        .map_err(|d| format!("`{}`: fast tier diverges from pipeline: {d}", workload.name))?;

    Ok(XtierReport {
        workload: workload.name.to_string(),
        interp_steps,
        commits_compared: fast.committed,
    })
}

fn compare_campaigns(
    (la, a): (&str, &CampaignResult),
    (lb, b): (&str, &CampaignResult),
) -> Result<(), String> {
    if a.results.len() != b.results.len() {
        return Err(format!(
            "result counts differ: {la} {} vs {lb} {}",
            a.results.len(),
            b.results.len()
        ));
    }
    for (i, (ra, rb)) in a.results.iter().zip(&b.results).enumerate() {
        if ra != rb {
            return Err(format!("run #{i} differs:\n  {la}: {ra:?}\n  {lb}: {rb:?}"));
        }
    }
    Ok(())
}

/// Replays one fault — armed as its campaign arms it, burst included —
/// through both ways of positioning a run with trace recording, and
/// compares every commit record, the outcome, cycles, and output bytes; the
/// fault-free prefix is lockstep-verified against the reference model.
fn trace_fork(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
    fault: Fault,
) -> Result<u64, String> {
    // The campaign's control, recording every commit — the carrier's too,
    // so the fork's stream spans the whole run, exactly like the classic
    // run's.
    let ctl = RunControl {
        record_trace: true,
        ..control_for(ccfg.mode, golden)
    };

    // Classic shape: fresh simulator, fault pre-armed at reset.
    let mut classic = Sim::new(&workload.program, cfg.clone());
    inject_burst(&mut classic, fault, ccfg.burst_width, cfg);
    let classic_report = classic.run(&ctl);

    // Fork shape: fault-free carrier to the beginning of the injection
    // cycle, fork, arm, run.
    let mut carrier = Sim::new(&workload.program, cfg.clone());
    if let Some(out) = carrier.run_to_cycle(fault.cycle, &ctl) {
        return Err(format!(
            "carrier terminated with {out:?} before injection cycle {} of fault {fault:?}",
            fault.cycle
        ));
    }
    let mut fork = carrier.clone();
    fork.restore_from_sim(&carrier);
    inject_burst(&mut fork, fault, ccfg.burst_width, cfg);
    let fork_report = fork.run(&ctl);

    compare_reports(&classic_report, &fork_report, &fault)?;

    // Architectural check of the fault-free prefix: every commit before the
    // first deviation must be the reference instruction stream.
    let trace = fork_report.trace.as_ref().expect("record_trace set");
    let prefix = fork_report
        .first_deviation
        .map_or(trace.len(), |d| d.index as usize);
    avgi_refmodel::verify_trace_prefix(&workload.program, trace, prefix)
        .map_err(|d| format!("fault {fault:?}: fault-free prefix fails lockstep: {d}"))
}

fn compare_reports(classic: &RunReport, fork: &RunReport, fault: &Fault) -> Result<(), String> {
    if classic.outcome != fork.outcome {
        return Err(format!(
            "fault {fault:?}: outcome differs — classic {:?}, fork {:?}",
            classic.outcome, fork.outcome
        ));
    }
    if classic.cycles != fork.cycles {
        return Err(format!(
            "fault {fault:?}: cycle count differs — classic {}, fork {}",
            classic.cycles, fork.cycles
        ));
    }
    if classic.first_deviation != fork.first_deviation {
        return Err(format!(
            "fault {fault:?}: first deviation differs — classic {:?}, fork {:?}",
            classic.first_deviation, fork.first_deviation
        ));
    }
    if classic.output != fork.output {
        return Err(format!("fault {fault:?}: output bytes differ"));
    }
    let (ct, ft) = (
        classic.trace.as_ref().expect("record_trace set"),
        fork.trace.as_ref().expect("record_trace set"),
    );
    if ct.len() != ft.len() {
        return Err(format!(
            "fault {fault:?}: commit stream lengths differ — classic {}, fork {}",
            ct.len(),
            ft.len()
        ));
    }
    for (i, (c, f)) in ct.iter().zip(ft).enumerate() {
        if c != f {
            return Err(format!(
                "fault {fault:?}: commit #{i} differs (cycle included) — classic {c:?}, fork {f:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{golden_for, RunMode};
    use avgi_muarch::fault::Structure;

    #[test]
    fn xcheck_passes_on_a_clean_campaign() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let ccfg = CampaignConfig::new(
            Structure::RegFile,
            24,
            RunMode::FirstDeviation {
                ert_window: Some(2_000),
            },
        );
        let report = run_xcheck(&w, &cfg, &golden_for(&w, &cfg), &ccfg)
            .expect("clean campaign must cross-check");
        assert_eq!(report.runs_compared, 24);
        assert!(report.telemetry_identical);
        assert!(report.forks_traced > 0);
        assert!(report.prefix_commits_verified > 0);
        assert!(
            report.converged > 0 && report.cycles_skipped > 0,
            "no run under the ERT window exited at its injection cycle"
        );
    }

    #[test]
    fn xcheck_holds_converged_runs_to_their_run_to_the_end() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let ccfg = CampaignConfig::new(Structure::RegFile, 24, RunMode::EndToEnd);
        let report = run_xcheck(&w, &cfg, &golden_for(&w, &cfg), &ccfg)
            .expect("clean campaign must cross-check");
        assert_eq!(report.runs_compared, 24);
        assert!(report.converged > 0, "no run took the exit");
        assert!(report.cycles_skipped > 0 && report.cycles_skipped < report.cycles_charged);
    }

    #[test]
    fn xtier_passes_on_a_clean_workload() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let report = run_xtier(&w, &golden_for(&w, &cfg)).expect("tiers must be interchangeable");
        assert!(report.interp_steps > 0);
        assert!(report.commits_compared > 0);
    }

    /// The fork-anatomy leg arms a burst campaign's faults as the campaign
    /// does, so it replays the runs the campaign ran.
    #[test]
    fn xcheck_passes_on_a_burst_campaign() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let cfg = MuarchConfig::big();
        let ccfg = CampaignConfig::new(Structure::RegFile, 16, RunMode::EndToEnd).with_burst(2);
        let report = run_xcheck(&w, &cfg, &golden_for(&w, &cfg), &ccfg)
            .expect("burst campaign must cross-check");
        assert_eq!(report.runs_compared, 16);
        assert!(report.forks_traced > 0 && report.prefix_commits_verified > 0);
    }
}
