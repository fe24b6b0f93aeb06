//! White-box tests of the event-driven back end's invariants; the
//! black-box ones (bit-identical traces, restores) live in `tests/`.

use super::*;
use crate::config::SlotSet;
use crate::mem::{DATA_BASE, OUTPUT_BASE};
use avgi_isa::asm::Assembler;
use avgi_isa::reg::{A0, S0, S1, T0, T1, T2, T3, T4, T5, ZERO};

fn ctl() -> RunControl {
    RunControl {
        max_cycles: 100_000,
        ..RunControl::default()
    }
}

fn live_slots(sim: &Sim) -> SlotSet {
    sim.rob.live().fold(0, |set, i| set | 1 << i)
}

/// The live ROB slot holding the instruction at code index `index`.
fn slot_of(sim: &Sim, index: u32) -> Option<usize> {
    sim.rob.live().find(|&i| sim.rob[i].pc == index * 4)
}

#[test]
fn ring_order_is_age_order_for_every_rob_size() {
    for n in [1usize, 5, 32, 33, 64] {
        let all: SlotSet = SlotSet::MAX >> (64 - n);
        for head in 0..n {
            for set in [
                all,
                all & 0xA5A5_5A5A_F00F_3C3C,
                all & !(1 << head),
                1 << head,
                0,
            ] {
                let want: Vec<usize> = (0..n)
                    .map(|k| (head + k) % n)
                    .filter(|&s| set & (1 << s) != 0)
                    .collect();
                let got: Vec<usize> = ring_order(set, head).collect();
                assert_eq!(got, want, "n={n} head={head} set={set:#x}");
            }
        }
    }
}

/// The first fetch group arrives a cold I-cache miss (tens of cycles)
/// ahead of the rest of its line. Filling it with nops keeps a test's
/// dependence chains from getting that head start on the instructions
/// that are meant to wait for them.
fn cold_fetch_pad(a: &mut Assembler) {
    for _ in 0..MuarchConfig::big().fetch_width {
        a.nop();
    }
}

/// Invariant (a): a load whose operands are ready but which is blocked
/// on an older, unresolved store is retried every cycle, and every retry
/// stamps its base register's last read.
#[test]
fn blocked_load_is_retried_and_stamps_its_base_every_cycle() {
    let mut a = Assembler::new(0);
    cold_fetch_pad(&mut a);
    a.li32(S0, DATA_BASE);
    a.addi(T0, ZERO, 8000);
    a.addi(T1, ZERO, 7);
    a.divu(T2, T0, T1);
    a.divu(T2, T2, T1);
    a.divu(T2, T2, T1);
    a.sub(T3, T2, T2); // 0, three divides from now
    a.add(T3, T3, S0);
    let store = a.len() as u32;
    a.sw(T3, T1, 64);
    let load = a.len() as u32;
    a.lw(A0, S0, 0);
    a.halt();
    let p = Program::new("blocked-load", a.assemble().unwrap(), 0);

    for cfg in [MuarchConfig::big(), MuarchConfig::small()] {
        let mut sim = Sim::new(&p, cfg);
        let mut retries = 0;
        loop {
            let cycle = sim.cycle;
            let blocked = slot_of(&sim, load)
                .zip(slot_of(&sim, store))
                .filter(|&(l, s)| {
                    sim.sched.ready & (1 << l) != 0
                        && sim.sched.in_iq & !sim.sched.ready & (1 << s) != 0
                });
            let base = blocked.map(|(l, _)| sim.rob[l].src1.expect("load has a base"));
            let done = sim.step(&ctl());
            if let Some(base) = base {
                assert_eq!(
                    sim.rf.last_read(base),
                    cycle,
                    "blocked load slept through cycle {cycle}"
                );
                retries += 1;
            }
            if let Some(out) = done {
                assert_eq!(out, RunOutcome::Completed);
                break;
            }
        }
        assert!(retries >= 20, "load was blocked for {retries} cycles only");
    }
}

/// Invariant (b): a waiter set may name a slot whose waiting instruction
/// was squashed; the slot's next tenant must not be woken by it.
#[test]
fn stale_waiter_bit_does_not_wake_the_slots_next_tenant() {
    let mut a = Assembler::new(0);
    a.addi(T0, ZERO, 8000);
    a.addi(T1, ZERO, 7);
    a.nop();
    a.nop(); // = `cold_fetch_pad`, with the constants riding in it
    a.divu(T4, T0, T1); // q: four divides
    a.divu(T4, T4, T1);
    a.divu(T4, T4, T1);
    a.divu(T4, T4, T1);
    a.divu(T2, T0, T1); // p: two divides
    a.divu(T2, T2, T1);
    a.beq(ZERO, ZERO, "target"); // weakly not-taken at reset: mispredicts
    let wrong_path = a.len() as u32;
    a.add(T3, T2, T2); // waits on p, squashed
    a.add(T3, T2, T2);
    a.add(T3, T2, T2);
    a.label("target");
    let tenant = a.len() as u32;
    a.add(T5, T4, T4); // waits on q, in the squashed instruction's slot
    a.li32(A0, OUTPUT_BASE);
    a.sw(A0, T5, 0);
    a.halt();
    let program = Program::new("stale-waiter", a.assemble().unwrap(), 4);

    let mut sim = Sim::new(&program, MuarchConfig::big());
    // Until the wrong-path add waits on p.
    let (slot, p) = loop {
        assert!(sim.step(&ctl()).is_none());
        if let Some(s) = slot_of(&sim, wrong_path) {
            break (s, sim.rob[s].src1.expect("add reads p"));
        }
    };
    assert!(!sim.rf.is_ready(p));
    assert_ne!(sim.rf.waiters(p) & (1 << slot), 0, "waiter not registered");
    // Until the squash has handed the slot to the instruction at
    // `target`, with p still outstanding and still naming the slot.
    while slot_of(&sim, tenant) != Some(slot) {
        assert!(sim.step(&ctl()).is_none());
    }
    let q = sim.rob[slot].src1.expect("add reads q");
    assert_ne!(p, q);
    assert!(!sim.rf.is_ready(p), "p produced before the slot was reused");
    assert_ne!(
        sim.rf.waiters(p) & (1 << slot),
        0,
        "the stale bit is the test"
    );
    // p's writeback consumes the stale bit; the tenant must stay asleep.
    while !sim.rf.is_ready(p) {
        assert!(sim.step(&ctl()).is_none());
    }
    assert!(!sim.rf.is_ready(q), "q produced too early for the test");
    assert_eq!(slot_of(&sim, tenant), Some(slot));
    assert_ne!(sim.sched.in_iq & (1 << slot), 0);
    assert_eq!(
        sim.sched.ready & (1 << slot),
        0,
        "woken by a stale waiter bit"
    );

    let report = sim.run(&ctl());
    assert_eq!(report.outcome, RunOutcome::Completed);
    let q_val = 8000 / 7 / 7 / 7 / 7;
    assert_eq!(
        report.output,
        Some((2 * q_val as u32).to_le_bytes().to_vec())
    );
}

/// A loop whose branch direction follows an LCG bit, around a divide
/// and a store→load pair: mispredicts with a full window behind it.
fn branchy_loop() -> Program {
    let mut a = Assembler::new(0);
    a.li32(S0, DATA_BASE);
    a.li32(S1, 0x0012_3457);
    a.addi(T0, ZERO, 200);
    a.addi(T1, ZERO, 7);
    a.label("loop");
    a.li32(T2, 1_103_515_245);
    a.mul(S1, S1, T2);
    a.addi(S1, S1, 1_234);
    a.andi(T3, S1, 0x40);
    a.beq(T3, ZERO, "skip");
    a.divu(T4, S1, T1);
    a.sw(S0, T4, 0);
    a.lw(T5, S0, 0);
    a.add(A0, A0, T5);
    a.label("skip");
    a.add(A0, A0, S1);
    a.addi(T0, T0, -1);
    a.bne(T0, ZERO, "loop");
    a.halt();
    Program::new("branchy", a.assemble().unwrap(), 0)
}

/// Invariant (d): a squash takes the slot out of every set.
#[test]
fn squash_clears_the_slot_from_every_set() {
    let program = branchy_loop();
    for cfg in [MuarchConfig::big(), MuarchConfig::small()] {
        // Every cycle of a squash-heavy run: no set names a dead slot.
        let mut sim = Sim::new(&program, cfg.clone());
        while sim.step(&ctl()).is_none() {
            let live = live_slots(&sim);
            assert_eq!(
                (sim.sched.in_iq | sim.sched.executing) & !live,
                0,
                "dead slot in a set"
            );
            assert_eq!(sim.sched.ready & !sim.sched.in_iq, 0);
            assert_eq!(sim.sched.in_iq & sim.sched.executing, 0);
            assert!(sim.sched.in_iq.count_ones() <= sim.cfg.iq_entries);
        }
        assert!(sim.stats.squashed > 200);

        // And directly: squash everything behind the head while all
        // three sets are populated.
        let mut sim = Sim::new(&program, cfg);
        let behind_head = |sim: &Sim, set: SlotSet| set & !(1 << sim.rob.head()) != 0;
        while !(behind_head(&sim, sim.sched.in_iq & !sim.sched.ready)
            && behind_head(&sim, sim.sched.ready)
            && behind_head(&sim, sim.sched.executing))
        {
            assert!(sim.step(&ctl()).is_none(), "sets never all populated");
        }
        let head = 1 << sim.rob.head();
        sim.squash_younger_than(sim.rob[sim.rob.head()].seq);
        assert_eq!(sim.rob.len(), 1);
        assert_eq!(
            (sim.sched.in_iq | sim.sched.ready | sim.sched.executing) & !head,
            0
        );
    }
}
