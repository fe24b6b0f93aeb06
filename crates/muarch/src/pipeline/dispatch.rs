//! Rename + dispatch: decode-queue entries take a ROB slot, an LQ/SQ slot
//! and a destination register, in order, until one of them runs out.

use super::{LqShadow, RobEntry, Sim, SqShadow, NO_DEST};
use crate::config::LsqSlot;
use avgi_isa::opcode::{Format, Opcode};

impl Sim {
    pub(super) fn dispatch(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            let Some(front) = self.scratch.decode_q.front() else {
                break;
            };
            if self.rob.is_full() {
                break;
            }
            let needs_exec = front
                .decoded
                .as_ref()
                .is_some_and(|i| !matches!(i.op, Opcode::Nop | Opcode::Halt));
            if needs_exec && self.sched.in_iq.count_ones() >= self.cfg.iq_entries {
                break;
            }
            let (is_load, is_store, writes, is_control) = match &front.decoded {
                Some(i) => (
                    i.op.is_load(),
                    i.op.is_store(),
                    i.op.writes_rd() && !i.rd.is_zero(),
                    i.op.is_control(),
                ),
                None => (false, false, false, false),
            };
            if is_load && self.lq.is_full() {
                break;
            }
            if is_store && self.sq.is_full() {
                break;
            }
            if writes && self.rf.free_count() == 0 {
                break;
            }
            let f = self.scratch.decode_q.pop_front().expect("checked front");
            let seq = self.seq_next;
            self.seq_next += 1;

            let (mut src1, mut src2) = (None, None);
            let (mut dest_arch, mut new_phys, mut prev_phys) = (NO_DEST, 0, 0);
            if let Some(i) = &f.decoded {
                // Source mapping. The zero register reads as constant 0 and
                // has no physical dependency.
                let uses_rs1 = matches!(i.op.format(), Format::R | Format::I | Format::S)
                    && i.op != Opcode::Lui;
                let uses_rs2 = matches!(i.op.format(), Format::R | Format::S);
                if uses_rs1 && !i.rs1.is_zero() {
                    src1 = Some(self.rf.lookup(i.rs1.index()));
                }
                if uses_rs2 && !i.rs2.is_zero() {
                    src2 = Some(self.rf.lookup(i.rs2.index()));
                }
                if writes {
                    let p = self.rf.alloc_at(self.cycle).expect("free count checked");
                    prev_phys = self.rf.remap(i.rd.index(), p);
                    new_phys = p;
                    dest_arch = i.rd.index();
                }
            }

            // `as` cannot truncate: `MuarchConfig::validate` bounds both
            // queues to what an `LsqSlot` can name.
            let mut lq_slot: LsqSlot = 0;
            let mut sq_slot: LsqSlot = 0;
            if is_load {
                lq_slot = self.lq.push(LqShadow {
                    seq,
                    ..LqShadow::default()
                }) as LsqSlot;
            }
            if is_store {
                sq_slot = self.sq.push(SqShadow {
                    seq,
                    ..SqShadow::default()
                }) as LsqSlot;
            }

            let ridx = self.rob.push(RobEntry {
                seq,
                pc: f.pc,
                raw: f.raw,
                decoded: f.decoded,
                exception: f.exception,
                dest_arch,
                new_phys,
                prev_phys,
                src1,
                src2,
                is_load,
                is_store,
                is_control,
                lq_slot,
                sq_slot,
                predicted_next: f.predicted_next,
                ..RobEntry::default() // what execution fills in
            });
            self.rob_stamp[ridx] = self.scratch.gen;
            // An instruction with nothing to execute (nop, halt, fetch
            // exception) joins no set: it is done at dispatch.
            if needs_exec {
                let bit = 1 << ridx;
                debug_assert_eq!(
                    (self.sched.in_iq | self.sched.executing) & bit,
                    0,
                    "slot reused live"
                );
                self.sched.in_iq |= bit;
                // Wakeup registration: sleep on every outstanding operand.
                // Only an operand-unready entry may sleep; once `ready` it
                // is retried every cycle until it issues (see `issue`).
                let mut waiting = false;
                for p in [src1, src2].into_iter().flatten() {
                    if !self.rf.is_ready(p) {
                        self.rf.add_waiter(p, ridx);
                        waiting = true;
                    }
                }
                if !waiting {
                    self.sched.ready |= bit;
                }
            }
        }
    }
}
