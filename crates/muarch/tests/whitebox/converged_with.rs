//! White-box tests of [`Sim::converged_with`], compiled into the crate's
//! unit tests as a child of `pipeline` (`#[path]`, see the end of
//! `src/pipeline/mod.rs`) so they can reach the simulator's private state.
//! `tests/whitebox/` is not a test target of its own.
//!
//! One perturbation per part of the machine, applied to a simulator that
//! equals its snapshot: a change to anything that can influence the future
//! must flip the answer, a change to bookkeeping or to dead storage must
//! not. Each entry is a mutation check of the comparison: drop the part
//! from `converged_with` (or from a part's own comparison) and its entry
//! fails by name; widen a dead-storage rule to occupied storage — a live
//! register, a valid line or its tag, any valid bit, a valid TLB entry, a
//! live ROB slot, a live resolved LQ/SQ slot — and that entry fails.

use super::*;
use crate::cache::{Array, Cache};
use crate::fault::{FaultSite, Structure};
use crate::mem::{DATA_BASE, OUTPUT_BASE, PAGE_BYTES};
use crate::tlb::Tlb;
use avgi_isa::asm::Assembler;
use avgi_isa::reg::{A0, A1, A2, S0, S1, S2, T0, T1, T2, T3, T4, T5, ZERO};

/// Loads, stores, a store→load forward, divide chains and an unpredictable
/// branch per iteration: keeps every queue, set and waiter list populated.
fn kernel() -> Program {
    let mut a = Assembler::new(0);
    a.li32(S0, DATA_BASE);
    a.li32(S1, 0x0012_3457);
    a.li32(S2, 120);
    a.li32(A2, 7);
    a.label("loop");
    a.li32(T0, 1_103_515_245);
    a.mul(S1, S1, T0);
    a.addi(S1, S1, 1_234);
    a.andi(T1, S1, 0xFC);
    a.add(T2, S0, T1);
    a.lw(T3, T2, 0);
    a.andi(T4, S1, 0x40);
    a.beq(T4, ZERO, "skip");
    a.divu(T5, S1, A2);
    a.divu(T5, T5, A2);
    a.andi(T5, T5, 0xFC);
    a.add(T5, S0, T5);
    a.sw(T5, T3, 256);
    a.lw(A1, T2, 256);
    a.add(A0, A0, A1);
    a.label("skip");
    a.sw(T2, A0, 0);
    a.lw(T3, T2, 0);
    a.xor(A0, A0, T3);
    a.addi(S2, S2, -1);
    a.bne(S2, ZERO, "loop");
    a.li32(T0, OUTPUT_BASE);
    a.sw(T0, A0, 0);
    a.halt();
    let table: Vec<u8> = (0..512u32).map(|i| (i * 37 + 11) as u8).collect();
    Program::new("kernel", a.assemble().unwrap(), 4).with_data(DATA_BASE, table)
}

fn ctl() -> RunControl {
    RunControl {
        max_cycles: 1_000_000,
        ..RunControl::default()
    }
}

/// A simulator mid-flight with something in every structure the table
/// below perturbs, and its snapshot.
fn mid_flight(cfg: MuarchConfig) -> (Sim, Snapshot) {
    let mut sim = Sim::new(&kernel(), cfg);
    assert!(sim.run_to_cycle(400, &ctl()).is_none());
    loop {
        let unproduced = (0..sim.cfg.phys_regs).any(|p| !sim.rf.is_ready(p as PhysReg));
        if sim.rob.len() > 2
            && !(sim.rob.is_full() || sim.lq.is_full() || sim.sq.is_full())
            && !(sim.lq.is_empty() || sim.sq.is_empty())
            && !sim.scratch.decode_q.is_empty()
            && sim.sched.executing != 0
            && sim.sched.in_iq & !sim.sched.ready != 0
            && unproduced
            && lsq_slots(&sim).is_some()
        {
            break;
        }
        assert!(sim.step(&ctl()).is_none(), "kernel ended before the state");
    }
    let snap = sim.snapshot();
    (snap.spawn(), snap)
}

/// Slots of the live LQ and SQ rings: `[lq resolved, lq unresolved, sq
/// resolved, sq unresolved]`.
fn lsq_slots(sim: &Sim) -> Option<[usize; 4]> {
    let lq = |resolved| {
        (0..sim.lq.capacity()).find(|&i| sim.lq.contains(i) && sim.lq[i].resolved == resolved)
    };
    let sq = |resolved| {
        (0..sim.sq.capacity()).find(|&i| sim.sq.contains(i) && sim.sq[i].resolved == resolved)
    };
    Some([lq(true)?, lq(false)?, sq(true)?, sq(false)?])
}

/// The first slot of `ring` outside its live region.
fn free_slot<T: Entry>(ring: &Ring<T>) -> usize {
    (0..ring.capacity())
        .find(|&i| !ring.contains(i))
        .expect("`mid_flight` left the ring short of full")
}

/// A valid entry of `tlb` and an invalid one.
fn tlb_entries(tlb: &Tlb) -> (usize, usize) {
    let find = |valid| (0..tlb.len()).find(|&i| (tlb.dead_bits(i) == 0) == valid);
    let (valid, invalid) = (find(true).unwrap(), find(false).expect("an empty entry"));
    (valid, invalid)
}

/// A physical register that is architecturally mapped and produced (live),
/// one on the free list, and one allocated but not yet produced.
fn registers(sim: &Sim) -> (usize, usize, usize) {
    let live = (0..avgi_isa::NUM_ARCH_REGS)
        .map(|a| sim.rf.lookup(a))
        .find(|&p| sim.rf.is_ready(p))
        .expect("a produced mapping");
    let free = sim.rf.clone().alloc().expect("a free register");
    let unproduced = (0..sim.cfg.phys_regs as PhysReg)
        .find(|&p| !sim.rf.is_ready(p) && p != free)
        .expect("checked by mid_flight");
    (
        usize::from(live),
        usize::from(free),
        usize::from(unproduced),
    )
}

/// The flat index of a line of `cache` that holds some line of memory, and
/// of one that holds nothing (its valid bit is clear).
fn lines(cache: &Cache) -> (usize, usize) {
    let resident: Vec<usize> = (0..crate::mem::MEM_SIZE)
        .step_by(cache.geometry().line_bytes as usize)
        .filter_map(|a| cache.clone().lookup(a))
        .collect();
    let invalid = (0..cache.geometry().lines() as usize).find(|li| !resident.contains(li));
    (resident[0], invalid.expect("an empty line"))
}

type Perturbation = (&'static str, Box<dyn Fn(&mut Sim)>);

fn p(name: &'static str, f: impl Fn(&mut Sim) + 'static) -> Perturbation {
    (name, Box::new(f))
}

#[test]
fn a_perturbation_flips_the_answer_exactly_where_the_state_is_live() {
    for cfg in [MuarchConfig::big(), MuarchConfig::small()] {
        let (sim, snap) = mid_flight(cfg);
        assert!(sim.converged_with(&snap));
        let (live, free, unproduced) = registers(&sim);
        let (d_valid, d_invalid) = lines(&sim.hier.l1d);
        let (i_valid, i_invalid) = lines(&sim.hier.l1i);
        let (l2_valid, l2_invalid) = lines(&sim.hier.l2);
        // Free: `mid_flight` left the ROB and both queues short of full.
        let (dead_rob, dead_lq, dead_sq) =
            (free_slot(&sim.rob), free_slot(&sim.lq), free_slot(&sim.sq));
        let [lq_resolved, lq_unresolved, sq_resolved, sq_unresolved] = lsq_slots(&sim).unwrap();
        // Within a tag-array word: the valid bit; the dirty bit is the next.
        let valid_bit = |c: &Cache| c.geometry().tag_bits();
        let (i_valid_bit, d_valid_bit, l2_valid_bit) = (
            valid_bit(&sim.hier.l1i),
            valid_bit(&sim.hier.l1d),
            valid_bit(&sim.hier.l2),
        );
        let (it_valid, it_invalid) = tlb_entries(&sim.hier.itlb);
        let (dt_valid, dt_invalid) = tlb_entries(&sim.hier.dtlb);

        let must_flip: Vec<Perturbation> = vec![
            p("cycle", |s| s.cycle += 1),
            p("seq_next", |s| s.seq_next += 1),
            p("front.pc", |s| s.front.pc ^= 4),
            p("front.ready_cycle", |s| s.front.ready_cycle += 1),
            p("front.paused", |s| s.front.paused ^= true),
            p("commit_index", |s| s.commit_index += 1),
            p("output_addr", |s| s.output_addr += 4),
            p("output_len", |s| s.output_len += 4),
            p("sched.in_iq", |s| s.sched.in_iq ^= 1 << s.rob.head()),
            p("sched.ready", |s| s.sched.ready ^= 1 << s.rob.head()),
            p("sched.executing", |s| {
                s.sched.executing ^= 1 << s.rob.head()
            }),
            // Each ring's bounds, through the ring's own moves; one bound at
            // a time is `ring.rs`'s own table.
            p("rob, oldest retired", |s| {
                s.rob.pop_head();
            }),
            p("rob, youngest squashed", |s| {
                s.rob.pop_tail();
            }),
            p("rob, one dispatched", |s| {
                s.rob.push(RobEntry::default());
            }),
            p("lq, oldest retired", |s| {
                s.lq.pop_head();
            }),
            p("lq, youngest squashed", |s| {
                s.lq.pop_tail();
            }),
            p("lq, one dispatched", |s| {
                s.lq.push(LqShadow::default());
            }),
            p("sq, oldest retired", |s| {
                s.sq.pop_head();
            }),
            p("sq, youngest squashed", |s| {
                s.sq.pop_tail();
            }),
            p("sq, one dispatched", |s| {
                s.sq.push(SqShadow::default());
            }),
            p("live rob entry", |s| {
                let head = s.rob.head();
                s.rob[head].val ^= 1
            }),
            p("rob_finish, executing slot", |s| {
                s.rob_finish[s.sched.executing.trailing_zeros() as usize] += 1
            }),
            p("live lq entry", |s| {
                let head = s.lq.head();
                s.lq[head].paddr ^= 4
            }),
            p("live sq entry", |s| {
                let head = s.sq.head();
                s.sq[head].data ^= 1
            }),
            p("decode-queue entry", |s| {
                s.scratch.decode_q[0].predicted_next ^= 4
            }),
            p("rob image, live slot", |s| s.rob.flip(s.rob.head(), 0)),
            p("lq image, live resolved slot", move |s| {
                s.lq.flip(lq_resolved, 3)
            }),
            p("sq image, live resolved slot", move |s| {
                s.sq.flip(sq_resolved, 3)
            }),
            p("register value, live", move |s| s.rf.flip(live, 5)),
            p("rename map", move |s| {
                s.rf.remap(3, free as PhysReg);
            }),
            p("free list", move |s| s.rf.release(live as PhysReg)),
            p("ready bit", move |s| {
                s.rf.write(unproduced as PhysReg, 0);
            }),
            p("waiter bit", move |s| {
                s.rf.add_waiter(unproduced as PhysReg, 63)
            }),
            p("itlb entry, valid", move |s| s.hier.itlb.flip(it_valid, 0)),
            p("dtlb entry, valid", move |s| s.hier.dtlb.flip(dt_valid, 20)),
            p("itlb valid bit, invalid entry", move |s| {
                s.hier.itlb.flip(it_invalid, 40)
            }),
            p("dtlb valid bit, invalid entry", move |s| {
                s.hier.dtlb.flip(dt_invalid, 40)
            }),
            p("predictor counter", |s| s.pred.train_direction(0x40, true)),
            p("btb target", |s| s.pred.train_target(0x40, 0x80)),
            p("l1d data, valid line", move |s| {
                s.hier.l1d.flip(Array::Data, d_valid, 0)
            }),
            p("l1i data, valid line", move |s| {
                s.hier.l1i.flip(Array::Data, i_valid, 0)
            }),
            p("l2 data, valid line", move |s| {
                s.hier.l2.flip(Array::Data, l2_valid, 0)
            }),
            p("l1d tag", move |s| s.hier.l1d.flip(Array::Tag, d_valid, 0)),
            p("l1i tag", move |s| s.hier.l1i.flip(Array::Tag, i_valid, 0)),
            p("l2 tag", move |s| s.hier.l2.flip(Array::Tag, l2_valid, 0)),
            p("l2 dirty bit, valid line", move |s| {
                s.hier.l2.flip(Array::Tag, l2_valid, l2_valid_bit + 1)
            }),
            p("l1d valid bit, invalid line", move |s| {
                s.hier.l1d.flip(Array::Tag, d_invalid, d_valid_bit)
            }),
            p("l1i valid bit, invalid line", move |s| {
                s.hier.l1i.flip(Array::Tag, i_invalid, i_valid_bit)
            }),
            p("l2 valid bit, invalid line", move |s| {
                s.hier.l2.flip(Array::Tag, l2_invalid, l2_valid_bit)
            }),
            p("l1d hit (lru stamp, tick)", |s| {
                let hit = (DATA_BASE..)
                    .step_by(64)
                    .find(|&a| s.hier.l1d.lookup(a).is_some());
                assert!(hit.is_some());
            }),
            p("memory byte, shared page", |s| {
                s.hier.mem.write_u8(DATA_BASE + 9 * PAGE_BYTES, 1)
            }),
            p("memory byte, split page", |s| {
                let at = DATA_BASE + 9 * PAGE_BYTES;
                s.hier.mem.write_u8(at, 0); // same bytes, own page
                s.hier.mem.write_u8(at + 1, 1);
            }),
            p("armed fault", |s| {
                s.inject(Fault {
                    site: FaultSite {
                        structure: Structure::RegFile,
                        bit: 0,
                    },
                    cycle: s.cycle + 50,
                })
            }),
        ];
        let must_not: Vec<Perturbation> = vec![
            p("stats", |s| s.stats.fetched += 1),
            p("rob_stamp", |s| s.rob_stamp[s.rob.head()] += 1),
            p("scratch generation", |s| s.scratch.gen += 1),
            p("recorded trace", |s| s.scratch.trace.clear()),
            p("hierarchy base", |s| s.hier.base = None),
            p("first_deviation", |s| {
                s.first_deviation = Some(Deviation {
                    index: 0,
                    golden: s
                        .scratch
                        .trace
                        .first()
                        .copied()
                        .unwrap_or_else(blank_commit),
                    faulty: blank_commit(),
                })
            }),
            p("first_inject_cycle", |s| s.first_inject_cycle = Some(7)),
            p("applied fault", |s| {
                let site = FaultSite {
                    structure: Structure::RegFile,
                    bit: 32 * u64::from(s.cfg.phys_regs) - 1,
                };
                s.inject(Fault {
                    site,
                    cycle: s.cycle - 1,
                });
                s.apply_due_faults();
                s.flip(site); // the state it flipped, put back
            }),
            p("dead rob entry", move |s| s.rob[dead_rob].val ^= 1),
            p("rob_finish, free slot", move |s| {
                s.rob_finish[dead_rob] += 1
            }),
            p("rob_finish, slot still to issue", |s| {
                s.rob_finish[s.sched.in_iq.trailing_zeros() as usize] += 1
            }),
            p("dead lq entry", move |s| s.lq[dead_lq].paddr ^= 4),
            p("dead sq entry", move |s| s.sq[dead_sq].data ^= 1),
            p("rob image, free slot", move |s| s.rob.flip(dead_rob, 0)),
            p("lq image, free slot", move |s| s.lq.flip(dead_lq, 3)),
            p("sq image, free slot", move |s| s.sq.flip(dead_sq, 3)),
            p("lq image, live unresolved slot", move |s| {
                s.lq.flip(lq_unresolved, 3)
            }),
            p("sq image, live unresolved slot", move |s| {
                s.sq.flip(sq_unresolved, 3)
            }),
            p("itlb vpn, invalid entry", move |s| {
                s.hier.itlb.flip(it_invalid, 0)
            }),
            p("dtlb pfn, invalid entry", move |s| {
                s.hier.dtlb.flip(dt_invalid, 20)
            }),
            p("l1d tag, invalid line", move |s| {
                s.hier.l1d.flip(Array::Tag, d_invalid, 0)
            }),
            p("l1i tag, invalid line", move |s| {
                s.hier.l1i.flip(Array::Tag, i_invalid, 0)
            }),
            p("l2 dirty bit, invalid line", move |s| {
                s.hier.l2.flip(Array::Tag, l2_invalid, l2_valid_bit + 1)
            }),
            p("register value, free", move |s| s.rf.flip(free, 5)),
            p("register value, unproduced", move |s| {
                s.rf.flip(unproduced, 5)
            }),
            p("l1d data, invalid line", move |s| {
                s.hier.l1d.flip(Array::Data, d_invalid, 0)
            }),
            p("l1i data, invalid line", move |s| {
                s.hier.l1i.flip(Array::Data, i_invalid, 0)
            }),
            p("l2 data, invalid line", move |s| {
                s.hier.l2.flip(Array::Data, l2_invalid, 0)
            }),
            p("cache journals", |s| {
                s.hier.l1d.clear_tracking();
                s.hier.l2.clear_tracking()
            }),
            p("memory page split, same bytes", |s| {
                s.hier
                    .mem
                    .write_u8(DATA_BASE, s.hier.mem.read_u8(DATA_BASE))
            }),
            p("memory dirty set", |s| s.hier.mem.clear_tracking()),
        ];
        for (what, perturb) in &must_flip {
            let mut s = sim.clone();
            perturb(&mut s);
            assert!(!s.converged_with(&snap), "{}: {what}", sim.cfg.name);
        }
        for (what, perturb) in &must_not {
            let mut s = sim.clone();
            perturb(&mut s);
            assert!(s.converged_with(&snap), "{}: {what}", sim.cfg.name);
        }
    }
}

fn blank_commit() -> CommitRecord {
    CommitRecord {
        cycle: 0,
        pc: 0,
        raw: 0,
        ea: 0,
        val: 0,
    }
}

/// The other half of the dead-storage principle: what was dead and differed
/// stays without effect — the perturbed machine runs on to the report the
/// unperturbed one reaches, bit for bit.
#[test]
fn a_machine_differing_only_in_dead_storage_ends_identically() {
    for cfg in [MuarchConfig::big(), MuarchConfig::small()] {
        let (sim, snap) = mid_flight(cfg);
        let want = snap.spawn().run(&ctl());
        assert_eq!(want.outcome, RunOutcome::Completed);
        let (_, free, unproduced) = registers(&sim);
        let mut s = sim.clone();
        for bit in 0..32 {
            s.rf.flip(free, bit);
            s.rf.flip(unproduced, bit);
        }
        let (_, d_invalid) = lines(&sim.hier.l1d);
        let (_, i_invalid) = lines(&sim.hier.l1i);
        let (_, l2_invalid) = lines(&sim.hier.l2);
        for bit in 0..sim.cfg.l1d.line_bytes * 8 {
            s.hier.l1d.flip(Array::Data, d_invalid, bit);
            s.hier.l1i.flip(Array::Data, i_invalid, bit);
            s.hier.l2.flip(Array::Data, l2_invalid, bit);
        }
        // Every other bit the predicates name, all at once.
        let mut widened = 0;
        for &structure in Structure::all() {
            for bit in 0..structure.bit_count(&sim.cfg) {
                let site = FaultSite { structure, bit };
                if !structure.is_cache_data() && sim.dead_on_arrival(site) {
                    s.flip(site);
                    widened += 1;
                }
            }
        }
        assert!(
            widened > 1_000,
            "{widened} dead bits outside the data arrays"
        );
        assert!(s.converged_with(&snap));
        let got = s.run(&ctl());
        assert_eq!(
            (got.outcome, got.cycles, &got.output, got.stats),
            (want.outcome, want.cycles, &want.output, want.stats)
        );
    }
}
