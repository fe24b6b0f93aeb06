//! Fetch: up to `fetch_width` words a cycle through the ITLB and L1I into
//! the decode queue, along the predicted path.

use super::{Fetched, Sim};
use crate::hierarchy::Side;
use crate::mem::{MemFault, MEM_SIZE};
use crate::run::TrapKind;
use avgi_isa::instr::{decode, Instr};
use avgi_isa::opcode::Opcode;

impl Sim {
    pub(super) fn fetch(&mut self) {
        if self.front.paused || self.cycle < self.front.ready_cycle {
            return;
        }
        let cap = 2 * self.cfg.fetch_width as usize + 2;
        for _ in 0..self.cfg.fetch_width {
            if self.scratch.decode_q.len() >= cap {
                break;
            }
            let pc = self.front.pc;
            if let Err(f) = self.hier.mem.check_fetch(pc) {
                self.fetch_trap(pc, TrapKind::Memory(f));
                break;
            }
            let (paddr, walked) = self.hier.translate(Side::I, &mut self.stats, pc);
            if walked {
                self.front.ready_cycle = self.cycle + self.cfg.lat.tlb_walk;
            }
            if u64::from(paddr) + 4 > u64::from(MEM_SIZE) {
                self.fetch_trap(pc, TrapKind::Memory(MemFault::OutOfRange(paddr)));
                break;
            }
            let (raw, lat) = self.hier.read(Side::I, &mut self.stats, paddr, 4);
            if lat > self.cfg.lat.l1 {
                // Miss: this group's words arrive late; stall the next group.
                self.front.ready_cycle = self.front.ready_cycle.max(self.cycle + lat);
            }
            self.stats.fetched += 1;
            match decode(raw) {
                Ok(instr) => {
                    let (next, end_group) = self.predict_next(pc, &instr);
                    self.scratch.decode_q.push_back(Fetched {
                        pc,
                        raw,
                        decoded: Some(instr),
                        exception: None,
                        predicted_next: next,
                    });
                    self.front.pc = next;
                    if instr.op == Opcode::Halt {
                        self.front.paused = true;
                        break;
                    }
                    if end_group {
                        break;
                    }
                }
                Err(_) => {
                    self.scratch.decode_q.push_back(Fetched {
                        pc,
                        raw,
                        decoded: None,
                        exception: Some(TrapKind::UndefinedInstruction),
                        predicted_next: pc.wrapping_add(4),
                    });
                    self.front.pc = pc.wrapping_add(4);
                }
            }
        }
    }

    /// Queues the trap a fetch at `pc` raised and pauses the front end: the
    /// trap commits, or a redirect squashes it and resumes fetch.
    fn fetch_trap(&mut self, pc: u32, trap: TrapKind) {
        self.scratch.decode_q.push_back(Fetched {
            pc,
            raw: 0,
            decoded: None,
            exception: Some(trap),
            predicted_next: pc,
        });
        self.front.paused = true;
    }

    /// Predicts the next fetch PC for `instr` at `pc`; returns
    /// `(next_pc, ends_fetch_group)`.
    fn predict_next(&mut self, pc: u32, instr: &Instr) -> (u32, bool) {
        match instr.op {
            Opcode::Jal => (pc.wrapping_add((instr.imm as u32).wrapping_mul(4)), true),
            Opcode::Jalr => match self.pred.predict_target(pc) {
                Some(t) => (t, true),
                None => (pc.wrapping_add(4), false),
            },
            op if op.is_branch() => {
                if self.pred.predict_taken(pc) {
                    (pc.wrapping_add((instr.imm as u32).wrapping_mul(4)), true)
                } else {
                    (pc.wrapping_add(4), false)
                }
            }
            _ => (pc.wrapping_add(4), false),
        }
    }
}
