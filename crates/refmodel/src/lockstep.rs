//! Lockstep differential checking of a pipeline commit trace against the
//! reference model.
//!
//! The protocol: every time the pipeline commits an instruction, feed the
//! [`CommitRecord`] to [`Lockstep::on_commit`]. The checker advances the
//! reference model exactly one instruction and compares the architecturally
//! defined fields (`pc`, `raw`, `ea`, `val`) — the `cycle` field is timing
//! and is deliberately ignored. When the run ends, [`Lockstep::finish`]
//! checks that the *outcome* agrees too: a completed run must have committed
//! precisely the reference instruction stream including the halt, a trapping
//! run must trap on the same instruction with the same trap kind, and a
//! watchdog'd run must leave the reference model still unfinished.
//!
//! The first disagreement is reported as a [`Divergence`] carrying the full
//! architectural context: commit index, PC, disassembled opcode, expected
//! effect (register writeback / memory store / control transfer) and the
//! observed commit record.

use crate::fast::{ExecTier, TierModel};
use crate::model::{RefOutcome, RefRun, RefStep, DEFAULT_MAX_STEPS};
use avgi_isa::instr::disassemble;
use avgi_muarch::{CommitRecord, GoldenRun, Program, RunOutcome, RunReport};

/// First point of disagreement between the pipeline and the reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// A committed instruction disagrees on an architectural field.
    Commit {
        /// Zero-based commit index of the mismatch.
        index: u64,
        /// Which field disagreed first (`"pc"`, `"raw"`, `"ea"` or `"val"`).
        field: &'static str,
        /// What the reference model executed at this index.
        expected: RefStep,
        /// What the pipeline committed.
        observed: CommitRecord,
    },
    /// The pipeline committed more instructions than the reference execution
    /// contains (the model already halted or trapped).
    ModelFinished {
        index: u64,
        outcome: RefOutcome,
        observed: CommitRecord,
    },
    /// The runs ended differently (e.g. the pipeline completed but the model
    /// trapped, or trap kinds differ, or the model still had instructions
    /// left when the pipeline claimed completion).
    Outcome {
        committed: u64,
        model: Option<RefOutcome>,
        sim: RunOutcome,
    },
    /// Final output bytes differ even though the commit streams matched.
    Output {
        offset: usize,
        expected: u8,
        observed: u8,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Commit {
                index,
                field,
                expected,
                observed,
            } => write!(
                f,
                "commit #{index} diverges on `{field}`:\n  reference: {expected}\n  pipeline:  \
                 pc={:#010x} raw={:#010x} [{}] ea={:#010x} val={:#010x} (cycle {})",
                observed.pc,
                observed.raw,
                disassemble(observed.raw),
                observed.ea,
                observed.val,
                observed.cycle,
            ),
            Divergence::ModelFinished {
                index,
                outcome,
                observed,
            } => write!(
                f,
                "pipeline committed instruction #{index} (pc={:#010x} raw={:#010x} [{}]) but the \
                 reference execution already ended with {outcome:?}",
                observed.pc,
                observed.raw,
                disassemble(observed.raw),
            ),
            Divergence::Outcome {
                committed,
                model,
                sim,
            } => write!(
                f,
                "outcome mismatch after {committed} commits: reference model {model:?}, \
                 pipeline {sim:?}"
            ),
            Divergence::Output {
                offset,
                expected,
                observed,
            } => write!(
                f,
                "output byte {offset} differs: reference {expected:#04x}, pipeline {observed:#04x}"
            ),
        }
    }
}

/// Summary of a lockstep run that found no divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockstepReport {
    /// Instructions checked in lockstep.
    pub committed: u64,
    /// Reference outcome (`None` for watchdog'd runs whose reference
    /// execution is still in flight).
    pub outcome: Option<RefOutcome>,
}

/// Incremental lockstep checker; see the module docs for the protocol.
pub struct Lockstep {
    model: TierModel,
    committed: u64,
}

impl Lockstep {
    /// Start a lockstep check for one program, from reset state, on `tier`.
    /// The fast tier yields an identical commit stream at a fraction of the
    /// cost; the reference tier is the maximally independent oracle.
    pub fn with_tier(program: &Program, tier: ExecTier) -> Self {
        Lockstep {
            model: TierModel::new(program, tier),
            committed: 0,
        }
    }

    /// Commits checked so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Check one pipeline commit against the next reference instruction.
    pub fn on_commit(&mut self, rec: &CommitRecord) -> Result<RefStep, Divergence> {
        let Some(step) = self.model.step() else {
            return Err(Divergence::ModelFinished {
                index: self.committed,
                outcome: self.model.outcome().expect("finished model has outcome"),
                observed: *rec,
            });
        };
        self.committed += 1;
        for (field, expected, observed) in [
            ("pc", step.pc, rec.pc),
            ("raw", step.raw, rec.raw),
            ("ea", step.ea, rec.ea),
            ("val", step.val, rec.val),
        ] {
            if expected != observed {
                return Err(Divergence::Commit {
                    index: step.index,
                    field,
                    expected: step,
                    observed: *rec,
                });
            }
        }
        Ok(step)
    }

    /// Close the check once the pipeline run ended with `sim_outcome`.
    ///
    /// `sim_output` is the output window the pipeline read back after
    /// flushing its caches (pass `None` when the run did not complete).
    pub fn finish(
        self,
        sim_outcome: RunOutcome,
        sim_output: Option<&[u8]>,
    ) -> Result<LockstepReport, Divergence> {
        let model_outcome = self.model.outcome();
        let mismatch = || Divergence::Outcome {
            committed: self.committed,
            model: model_outcome,
            sim: sim_outcome,
        };
        match sim_outcome {
            RunOutcome::Completed => {
                if model_outcome != Some(RefOutcome::Completed) {
                    return Err(mismatch());
                }
                if let Some(observed) = sim_output {
                    let expected = self.model.output();
                    if expected.len() != observed.len() {
                        return Err(mismatch());
                    }
                    for (offset, (e, o)) in expected.iter().zip(observed).enumerate() {
                        if e != o {
                            return Err(Divergence::Output {
                                offset,
                                expected: *e,
                                observed: *o,
                            });
                        }
                    }
                }
            }
            RunOutcome::Trap(kind) => {
                if model_outcome != Some(RefOutcome::Trap(kind)) {
                    return Err(mismatch());
                }
            }
            // The pipeline checks commit before the watchdog each cycle, so a
            // watchdog'd (or wall-clock-expired) run contains no terminal
            // commit: the reference execution must still be in flight.
            RunOutcome::Watchdog | RunOutcome::WallClockExpired => {
                if model_outcome.is_some() {
                    return Err(mismatch());
                }
            }
            // Fault-injection outcomes have no reference-model meaning.
            _ => return Err(mismatch()),
        }
        Ok(LockstepReport {
            committed: self.committed,
            outcome: model_outcome,
        })
    }
}

/// Lockstep-verify a captured golden run on `tier`: every commit's
/// `pc`/`raw`/`ea`/`val`, neither stream ending early, completion, and the
/// output bytes. Campaign-time golden verification runs on
/// [`ExecTier::Fast`]; the cross-checks that anchor the fast tier itself use
/// [`ExecTier::Reference`].
pub fn verify_golden_tier(
    program: &Program,
    golden: &GoldenRun,
    tier: ExecTier,
) -> Result<LockstepReport, Divergence> {
    let mut ls = Lockstep::with_tier(program, tier);
    for rec in &golden.trace {
        ls.on_commit(rec)?;
    }
    ls.finish(RunOutcome::Completed, Some(&golden.output))
}

/// Lockstep-verify, on `tier`, a fault-free [`RunReport`] that was collected
/// with `record_trace` enabled.
///
/// Supports the three outcomes a fault-free run can produce: `Completed`
/// (trace + output must match), `Trap` (trace must match and end in the same
/// trap) and `Watchdog`/`WallClockExpired` (trace must be a strict prefix of
/// the reference execution).
///
/// # Panics
///
/// Panics if the report has no recorded trace — that is a harness bug, not a
/// divergence.
pub fn verify_report_tier(
    program: &Program,
    report: &RunReport,
    tier: ExecTier,
) -> Result<LockstepReport, Divergence> {
    let trace = report
        .trace
        .as_ref()
        .expect("verify_report_tier requires RunControl::record_trace");
    let mut ls = Lockstep::with_tier(program, tier);
    for rec in trace {
        ls.on_commit(rec)?;
    }
    ls.finish(report.outcome, report.output.as_deref())
}

/// Lockstep-verify the first `upto` records of a commit trace — the
/// fault-free prefix check of the batched-engine cross-check: everything an
/// injected run committed *before* its first deviation must still be the
/// architecturally correct instruction stream. Returns the number of
/// commits checked.
pub fn verify_trace_prefix(
    program: &Program,
    trace: &[CommitRecord],
    upto: usize,
) -> Result<u64, Divergence> {
    let mut ls = Lockstep::with_tier(program, ExecTier::Reference);
    for rec in trace.iter().take(upto) {
        ls.on_commit(rec)?;
    }
    Ok(ls.committed())
}

/// Run a model of `tier` alone, for `max_steps` steps (`0` = the default
/// budget), and return it with its outcome.
pub fn reference_run_tier(
    program: &Program,
    tier: ExecTier,
    max_steps: u64,
) -> (TierModel, RefRun) {
    let mut model = TierModel::new(program, tier);
    let run = model.run(if max_steps == 0 {
        DEFAULT_MAX_STEPS
    } else {
        max_steps
    });
    (model, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avgi_muarch::{capture_golden, MuarchConfig};

    type Expect = Box<dyn Fn(&Divergence) -> bool>;

    /// Every way a golden run can disagree with the architecture — one
    /// commit field, a stream that ends early or runs on, one output byte —
    /// is refused, and named, on both tiers.
    #[test]
    fn doctored_golden_runs_are_refused_on_both_tiers() {
        let w = avgi_workloads::by_name("bitcount").unwrap();
        let golden = capture_golden(&w.program, &MuarchConfig::big(), 50_000_000);
        let (mid, byte) = (golden.trace.len() / 2, golden.output.len() / 2);
        let doctor = |edit: &dyn Fn(&mut GoldenRun)| {
            let mut g = (*golden).clone();
            edit(&mut g);
            g
        };
        let mut cases: Vec<(String, GoldenRun, Expect)> = Vec::new();
        for name in ["pc", "raw", "ea", "val"] {
            let flipped = doctor(&|g| {
                let rec = &mut g.trace[mid];
                match name {
                    "pc" => rec.pc ^= 4,
                    "raw" => rec.raw ^= 1,
                    "ea" => rec.ea ^= 1,
                    _ => rec.val ^= 1,
                }
            });
            let expect: Expect = Box::new(move |d| {
                matches!(d, Divergence::Commit { index, field, .. }
                    if *index == mid as u64 && *field == name)
            });
            cases.push((
                format!("`{name}` of commit #{mid} flipped"),
                flipped,
                expect,
            ));
        }
        let dropped = doctor(&|g| g.trace.truncate(g.trace.len() - 1));
        let expect: Expect = Box::new(|d| matches!(d, Divergence::Outcome { .. }));
        cases.push(("last record dropped".into(), dropped, expect));
        let appended = doctor(&|g| g.trace.push(*g.trace.last().unwrap()));
        let expect: Expect = Box::new(|d| matches!(d, Divergence::ModelFinished { .. }));
        cases.push(("a record appended".into(), appended, expect));
        let output = doctor(&|g| g.output[byte] ^= 0x01);
        let expect: Expect =
            Box::new(move |d| matches!(d, Divergence::Output { offset, .. } if *offset == byte));
        cases.push((format!("output byte {byte} flipped"), output, expect));

        for tier in [ExecTier::Reference, ExecTier::Fast] {
            let clean = verify_golden_tier(&w.program, &golden, tier)
                .unwrap_or_else(|d| panic!("{tier:?}: the real golden run refused: {d}"));
            assert_eq!(clean.committed, golden.trace.len() as u64);
            for (what, doctored, expect) in &cases {
                match verify_golden_tier(&w.program, doctored, tier) {
                    Err(d) => assert!(expect(&d), "{tier:?}, {what}: wrong divergence: {d}"),
                    Ok(r) => panic!("{tier:?}, {what}: accepted after {} commits", r.committed),
                }
            }
        }
    }
}
