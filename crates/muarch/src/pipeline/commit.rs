//! Writeback, control resolution, squash, and in-order commit.

use super::{ring_order, Sim, NO_DEST};
use crate::config::SlotSet;
use crate::fault::Structure;
use crate::regfile::PhysReg;
use crate::run::{RunControl, RunOutcome};
use crate::trace::{CommitRecord, Deviation};
use avgi_isa::opcode::Opcode;

impl Sim {
    pub(super) fn writeback(&mut self) -> Option<RunOutcome> {
        // Visit the executing slots oldest first, so the oldest mispredicted
        // branch squashes before younger ones resolve.
        for i in ring_order(self.sched.executing, self.rob.head()) {
            if self.rob_finish[i] > self.cycle {
                continue;
            }
            self.sched.executing &= !(1 << i);
            let e = &self.rob[i];
            let (dest, new_phys, val, is_control) = (e.dest_arch, e.new_phys, e.val, e.is_control);
            if dest != NO_DEST {
                self.wake(new_phys, val);
            }
            if is_control && self.resolve_control(i) {
                // Squash removed everything younger; stop the walk.
                return None;
            }
        }
        None
    }

    /// Wakeup: produces `p`'s value and moves the waiting issue-queue
    /// entries whose operands are now all produced into `ready`.
    ///
    /// A waiter set can name a slot whose waiting instruction was squashed,
    /// and which a different instruction may occupy by now, so membership
    /// proves nothing: readiness is recomputed from the slot's own
    /// `src1`/`src2`. For a stale bit that is a no-op (the occupant, if in
    /// the queue at all, already has the answer this recomputes).
    fn wake(&mut self, p: PhysReg, val: u32) {
        let woken = self.rf.write(p, val) & self.sched.in_iq & !self.sched.ready;
        for ridx in ring_order(woken, self.rob.head()) {
            if self.operands_ready(ridx) {
                self.sched.ready |= 1 << ridx;
            }
        }
    }

    /// Verifies a resolved control instruction against its prediction.
    /// Returns `true` if a squash happened.
    fn resolve_control(&mut self, ridx: usize) -> bool {
        let (pc, op, taken, actual_next, predicted_next, seq) = {
            let e = &self.rob[ridx];
            let op = e.decoded.expect("control decodes").op;
            (e.pc, op, e.taken, e.actual_next, e.predicted_next, e.seq)
        };
        if op.is_branch() {
            self.pred.train_direction(pc, taken);
        }
        if taken {
            self.pred.train_target(pc, actual_next);
        }
        if actual_next != predicted_next {
            self.stats.mispredicts += 1;
            self.squash_younger_than(seq);
            self.front.pc = actual_next;
            self.front.ready_cycle = self.cycle + self.cfg.lat.redirect;
            self.front.paused = false;
            self.scratch.decode_q.clear();
            true
        } else {
            false
        }
    }

    pub(super) fn squash_younger_than(&mut self, seq: u64) {
        let mut squashed: SlotSet = 0;
        while let Some(youngest) = self.rob.youngest() {
            let e = self.rob[youngest];
            if e.seq <= seq {
                break;
            }
            self.rob.pop_tail();
            self.stats.squashed += 1;
            if e.dest_arch != NO_DEST {
                self.rf.remap(e.dest_arch, e.prev_phys);
                self.release(e.new_phys);
            }
            if e.is_load && !self.lq.is_empty() {
                let t = self.lq.pop_tail();
                debug_assert_eq!(self.lq[t].seq, e.seq);
            }
            if e.is_store && !self.sq.is_empty() {
                let t = self.sq.pop_tail();
                debug_assert_eq!(self.sq[t].seq, e.seq);
            }
            squashed |= 1 << youngest;
        }
        // A squashed slot leaves every scheduling set at once, so its next
        // occupant starts clean. The registers' waiter sets are not
        // searched: they may keep naming the slot (see `wake`).
        self.sched.in_iq &= !squashed;
        self.sched.ready &= !squashed;
        self.sched.executing &= !squashed;
    }

    pub(super) fn commit(&mut self, ctl: &RunControl) -> Option<RunOutcome> {
        for _ in 0..self.cfg.commit_width {
            let head = self.rob.head();
            // Done = neither waiting to issue nor executing.
            let busy = self.sched.in_iq | self.sched.executing;
            if self.rob.is_empty() || busy & (1 << head) != 0 {
                return None;
            }
            let e = self.rob[head];

            // Commit-side integrity checks: the injectable entry images must
            // match the authoritative shadow state (the paper's `PRE`
            // mechanism for ROB/LQ/SQ).
            if !self.rob.image_matches(head) {
                return Some(RunOutcome::IntegrityViolation(Structure::Rob));
            }
            if e.is_load && e.exception.is_none() {
                debug_assert_eq!(self.lq[self.lq.head()].seq, e.seq);
                if !self.lq.image_matches(self.lq.head()) {
                    return Some(RunOutcome::IntegrityViolation(Structure::Lq));
                }
            }
            if e.is_store && e.exception.is_none() {
                debug_assert_eq!(self.sq[self.sq.head()].seq, e.seq);
                if !self.sq.image_matches(self.sq.head()) {
                    return Some(RunOutcome::IntegrityViolation(Structure::Sq));
                }
            }

            // Record the architectural observables (also for trapping
            // instructions, so the deviation is visible to the classifier).
            let rec = CommitRecord {
                cycle: self.cycle,
                pc: e.pc,
                raw: e.raw,
                ea: e.ea,
                val: e.val,
            };
            self.record_commit(rec, ctl);

            if let Some(t) = e.exception {
                return Some(RunOutcome::Trap(t));
            }

            if e.is_store {
                let sh = self.sq[self.sq.head()];
                self.sq.pop_head();
                let size = u32::from(sh.size);
                self.hier.write(&mut self.stats, sh.paddr, size, sh.data);
            }
            if e.is_load {
                self.lq.pop_head();
            }

            self.stats.committed += 1;

            let halt = e.decoded.is_some_and(|i| i.op == Opcode::Halt);
            if e.dest_arch != NO_DEST {
                self.release(e.prev_phys);
            }
            self.rob.pop_head();

            if halt {
                return Some(RunOutcome::Completed);
            }
        }
        None
    }

    /// Frees `p` this cycle, logging the tenancy's un-ACE tail if this run
    /// keeps the log (golden capture).
    fn release(&mut self, p: PhysReg) {
        self.rf
            .release(p, self.cycle, self.scratch.rf_tails.as_mut());
    }

    fn record_commit(&mut self, rec: CommitRecord, ctl: &RunControl) {
        if ctl.record_trace {
            self.scratch.trace.push(rec);
        }
        if self.first_deviation.is_none() {
            if let Some(golden) = &ctl.golden {
                let idx = self.commit_index;
                let g = golden
                    .trace
                    .get(idx as usize)
                    .copied()
                    .unwrap_or(CommitRecord {
                        cycle: golden.cycles,
                        pc: 0,
                        raw: 0,
                        ea: 0,
                        val: 0,
                    });
                if !g.matches(&rec) {
                    self.first_deviation = Some(Deviation {
                        index: idx,
                        golden: g,
                        faulty: rec,
                    });
                }
            }
        }
        self.commit_index += 1;
    }
}
