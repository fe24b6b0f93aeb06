//! Snapshot/restore and copy-on-write semantics: a rewound scratch
//! simulator must be indistinguishable from a freshly cloned one, and no
//! state may leak between simulators sharing CoW memory pages.
//!
//! `Sim::restore_from` / `Sim::restore_from_sim` copy the machine state
//! field by field, so a field added to `Sim` (or to `RegFile`) and forgotten
//! in the restore path is a silent bug: the scratch simulator keeps the
//! value from whatever run it executed last.
//! `restore_into_a_mid_flight_scratch_continues_bit_identically` makes that
//! loud for the back end's scheduling state; see its comment.
//!
//! `Sim::converged_with` is the same field list read instead of written: a
//! simulator just spawned from, or rewound to, a snapshot must converge with
//! it, and a simulator that converges with a snapshot must go on to the
//! snapshot's own ending. The perturbation table — what flips the answer
//! and what must not — needs the private state and lives in
//! `tests/whitebox/`. `Sim::dead_on_arrival` is the same classification a
//! third time, asked of one bit before it is flipped: it must answer, for
//! every bit of the machine, exactly what flipping it and comparing answers.

use avgi_isa::asm::Assembler;
use avgi_isa::reg::{A0, A1, A2, S0, S1, S2, T0, T1, T2, T3, T4, T5, ZERO};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::{Fault, FaultSite, Structure};
use avgi_muarch::mem::{Memory, DATA_BASE, OUTPUT_BASE};
use avgi_muarch::pipeline::{capture_golden, Sim};
use avgi_muarch::program::Program;
use avgi_muarch::run::{RunControl, RunOutcome, RunReport};

const MAX: u64 = 2_000_000;

/// sum 1..=n, store to output.
fn sum_program(n: u32) -> Program {
    let mut a = Assembler::new(0);
    a.li32(T0, n);
    a.li32(T1, 0);
    a.label("loop");
    a.add(T1, T1, T0);
    a.addi(T0, T0, -1);
    a.bne(T0, ZERO, "loop");
    a.li32(A0, OUTPUT_BASE);
    a.sw(A0, T1, 0);
    a.halt();
    Program::new("sum", a.assemble().unwrap(), 4)
}

fn reg_fault(phys: u64, cycle: u64) -> Fault {
    Fault {
        site: FaultSite {
            structure: Structure::RegFile,
            bit: phys * 32 + 2,
        },
        cycle,
    }
}

fn assert_reports_equal(a: &RunReport, b: &RunReport) {
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.first_deviation, b.first_deviation);
    assert_eq!(a.output, b.output);
    assert_eq!(a.inject_cycle, b.inject_cycle);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn restore_reproduces_fresh_spawn_report() {
    let p = sum_program(800);
    let cfg = MuarchConfig::big();
    let golden = capture_golden(&p, &cfg, MAX);
    let ctl = RunControl {
        max_cycles: MAX,
        golden: Some(golden.clone()),
        ..Default::default()
    };

    let mut sim = Sim::new(&p, cfg);
    assert!(sim.run_to_cycle(golden.cycles / 3, &ctl).is_none());
    let snap = sim.snapshot();

    // Reference: a fresh spawn per fault.
    let faults = [
        reg_fault(26, golden.cycles / 2),
        reg_fault(30, golden.cycles * 2 / 3),
        reg_fault(27, golden.cycles / 2 + 7),
    ];
    let reference: Vec<RunReport> = faults
        .iter()
        .map(|&f| {
            let mut s = snap.spawn();
            s.inject(f);
            s.run(&ctl)
        })
        .collect();

    // One scratch simulator rewound between runs.
    let mut scratch = snap.spawn();
    for (f, want) in faults.iter().zip(&reference) {
        scratch.restore_from(&snap);
        scratch.inject(*f);
        let got = scratch.run(&ctl);
        assert_reports_equal(&got, want);
    }
}

#[test]
fn restore_across_different_snapshots_stays_exact() {
    // Switching a scratch simulator between checkpoints exercises the
    // full-copy fallback; coming back to a snapshot re-arms the journaled
    // fast path. Both must stay bit-exact.
    let p = sum_program(900);
    let cfg = MuarchConfig::big();
    let golden = capture_golden(&p, &cfg, MAX);
    let ctl = RunControl {
        max_cycles: MAX,
        golden: Some(golden.clone()),
        ..Default::default()
    };

    let mut sim = Sim::new(&p, cfg);
    assert!(sim.run_to_cycle(golden.cycles / 4, &ctl).is_none());
    let early = sim.snapshot();
    assert!(sim.run_to_cycle(golden.cycles / 2, &ctl).is_none());
    let late = sim.snapshot();

    let fault = reg_fault(26, golden.cycles / 2 + 50);
    let mut want_early = early.spawn();
    want_early.inject(fault);
    let want_early = want_early.run(&ctl);
    let mut want_late = late.spawn();
    want_late.inject(fault);
    let want_late = want_late.run(&ctl);

    let mut scratch = early.spawn();
    for snap_then_want in [
        (&early, &want_early),
        (&late, &want_late),
        (&early, &want_early),
        (&early, &want_early),
        (&late, &want_late),
    ] {
        let (snap, want) = snap_then_want;
        scratch.restore_from(snap);
        scratch.inject(fault);
        let got = scratch.run(&ctl);
        assert_reports_equal(&got, want);
    }
}

#[test]
fn cow_write_in_one_clone_does_not_leak_into_siblings() {
    // Two simulators spawned from one snapshot share every clean memory
    // page. A run that corrupts the output region in one of them must leave
    // the sibling's (and the golden image's) bytes untouched.
    let p = sum_program(600);
    let cfg = MuarchConfig::big();
    let golden = capture_golden(&p, &cfg, MAX);
    let ctl = RunControl {
        max_cycles: MAX,
        golden: Some(golden.clone()),
        ..Default::default()
    };

    let mut sim = Sim::new(&p, cfg);
    assert!(sim.run_to_cycle(golden.cycles / 3, &ctl).is_none());
    let snap = sim.snapshot();

    // Corrupt one clone aggressively: flip bits in many live registers.
    let mut dirty = snap.spawn();
    for phys in 0..16 {
        dirty.inject(reg_fault(phys, golden.cycles / 2));
    }
    let _ = dirty.run(&ctl);

    // The sibling, run fault-free afterwards, must still match golden —
    // including the output-region bytes materialised by flush_caches.
    let mut clean = snap.spawn();
    let r = clean.run(&ctl);
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert!(r.first_deviation.is_none(), "CoW leak corrupted sibling");
    assert_eq!(r.output.as_deref(), Some(&golden.output[..]));
    assert_eq!(r.cycles, golden.cycles);
}

#[test]
fn out_of_cycle_order_injection_applies_in_cycle_order() {
    // Faults armed out of cycle order must behave exactly like the same
    // faults armed in order (insertion keeps `pending_faults` sorted).
    let p = sum_program(700);
    let cfg = MuarchConfig::big();
    let golden = capture_golden(&p, &cfg, MAX);
    let ctl = RunControl {
        max_cycles: MAX,
        golden: Some(golden.clone()),
        ..Default::default()
    };
    let faults = [
        reg_fault(28, golden.cycles / 2),
        reg_fault(25, golden.cycles / 5),
        reg_fault(30, golden.cycles * 3 / 4),
        reg_fault(26, golden.cycles / 3),
        reg_fault(27, golden.cycles / 5), // duplicate cycle
    ];

    let mut sorted = faults;
    sorted.sort_by_key(|f| f.cycle);
    let mut a = Sim::new(&p, cfg.clone());
    for f in sorted {
        a.inject(f);
    }
    let ra = a.run(&ctl);

    let mut b = Sim::new(&p, cfg);
    for f in faults {
        b.inject(f);
    }
    let rb = b.run(&ctl);

    assert_reports_equal(&ra, &rb);
    assert_eq!(
        ra.inject_cycle,
        Some(golden.cycles / 5),
        "earliest fault cycle wins regardless of arm order"
    );
}

/// Cycles between snapshots; prime, so the points drift across loop phases.
const SNAP_STRIDE: u64 = 37;
/// How far a scratch simulator runs past a snapshot before the next restore
/// finds it (long enough to refill the window with other work).
const DIRTY_CYCLES: u64 = 211;

/// 160 iterations of: LCG step, data-dependent (unpredictable) branch,
/// table load, a two-deep divide chain feeding a store address, a load
/// behind that store, and a store→load forward. Keeps the issue queue, the
/// executing set and the registers' waiter sets populated, and squashes
/// often.
fn scheduling_kernel() -> Program {
    let mut a = Assembler::new(0);
    a.li32(S0, DATA_BASE); // table base
    a.li32(S1, 0x0012_3457); // LCG state
    a.li32(S2, 160); // trip count
    a.li32(A2, 7);
    a.addi(A0, ZERO, 0); // checksum
    a.label("loop");
    a.li32(T0, 1_103_515_245);
    a.mul(S1, S1, T0);
    a.addi(S1, S1, 1_234);
    a.srli(T1, S1, 9);
    a.andi(T1, T1, 0xFC); // word offset into a 64-word table
    a.add(T2, S0, T1);
    a.lw(T3, T2, 0);
    a.andi(T4, S1, 0x40);
    a.beq(T4, ZERO, "skip"); // ~50/50, unpredictable
    a.divu(T5, S1, A2);
    a.divu(T5, T5, A2);
    a.andi(T5, T5, 0xFC);
    a.add(T5, S0, T5);
    a.sw(T5, T3, 256); // address known only after both divides
    a.lw(A1, T2, 256); // operands ready, blocked on the store above
    a.add(A0, A0, A1);
    a.label("skip");
    a.sw(T2, A0, 0);
    a.lw(T3, T2, 0); // forwarded
    a.xor(A0, A0, T3);
    a.add(A0, A0, S1);
    a.addi(S2, S2, -1);
    a.bne(S2, ZERO, "loop");
    a.li32(T0, OUTPUT_BASE);
    a.sw(T0, A0, 0);
    a.halt();
    let table: Vec<u8> = (0..512u32).map(|i| (i * 37 + 11) as u8).collect();
    Program::new("scheduling-kernel", a.assemble().unwrap(), 4).with_data(DATA_BASE, table)
}

fn restore_into_a_mid_flight_scratch(cfg: MuarchConfig) {
    let p = scheduling_kernel();
    let ctl = RunControl {
        max_cycles: MAX,
        record_trace: true,
        ..Default::default()
    };
    let want = Sim::new(&p, cfg.clone()).run(&ctl);
    assert_eq!(want.outcome, RunOutcome::Completed);
    assert!(want.stats.squashed > 500, "kernel must squash");
    assert!(want.cycles > 20 * SNAP_STRIDE);
    let check = |what: &str, at: u64, got: RunReport| {
        assert_reports_equal(&got, &want);
        assert_eq!(got.trace, want.trace, "{what} @ {at}: commit trace");
    };

    let mut carrier = Sim::new(&p, cfg.clone());
    // One scratch simulator per restore entry point; both start out of step
    // with every snapshot.
    let mut by_snapshot = Sim::new(&p, cfg.clone());
    let mut by_sim = Sim::new(&p, cfg);
    let mut at = SNAP_STRIDE;
    while at + DIRTY_CYCLES < want.cycles {
        assert!(carrier.run_to_cycle(at, &ctl).is_none());
        let snap = carrier.snapshot();

        by_snapshot.restore_from(&snap);
        check("restore_from", at, by_snapshot.run(&ctl));
        by_sim.restore_from_sim(&carrier);
        check("restore_from_sim", at, by_sim.run(&ctl));

        // Leave both scratches mid-flight, a window's worth of other work
        // past this snapshot, for the next restore to overwrite.
        by_snapshot.restore_from(&snap);
        assert!(by_snapshot.run_to_cycle(at + DIRTY_CYCLES, &ctl).is_none());
        by_sim.restore_from_sim(&carrier);
        assert!(by_sim.run_to_cycle(at + DIRTY_CYCLES, &ctl).is_none());
        at += SNAP_STRIDE;
    }
}

/// Walks a branchy, memory- and divide-heavy kernel, snapshots it every few
/// dozen cycles — mid-flight, with instructions waiting in the issue queue,
/// executing, and registered as waiters on outstanding registers — and
/// restores each snapshot into a scratch simulator that was deliberately
/// left *mid-flight somewhere else*, so every scheduling field it holds is
/// wrong for the snapshot. The continued run must reproduce the
/// uninterrupted one bit for bit: every commit record including its cycle,
/// the cycle count, every `ExecStats` counter including `rf_ace_cycles`,
/// and the output. Dropping any one of the back end's slot sets (`in_iq`,
/// `ready`, `executing`) or the registers' waiter sets from the restore
/// path fails this test — checked by deleting each copy in turn when the
/// event-driven back end landed.
#[test]
fn restore_into_a_mid_flight_scratch_continues_bit_identically() {
    restore_into_a_mid_flight_scratch(MuarchConfig::big());
    restore_into_a_mid_flight_scratch(MuarchConfig::small());
}

fn rewound_simulators_converge(cfg: MuarchConfig) {
    let p = scheduling_kernel();
    let ctl = RunControl {
        max_cycles: MAX,
        ..Default::default()
    };
    let want = Sim::new(&p, cfg.clone()).run(&ctl);
    let mut carrier = Sim::new(&p, cfg.clone());
    let mut by_snapshot = Sim::new(&p, cfg.clone());
    let mut by_sim = Sim::new(&p, cfg);
    let mut at = SNAP_STRIDE;
    while at + DIRTY_CYCLES < want.cycles {
        assert!(carrier.run_to_cycle(at, &ctl).is_none());
        let snap = carrier.snapshot();
        assert!(carrier.converged_with(&snap), "the snapshotted sim @ {at}");
        assert!(snap.spawn().converged_with(&snap), "spawn @ {at}");
        // Both scratches arrive mid-flight somewhere else, journals dirty.
        assert!(!by_snapshot.converged_with(&snap) && !by_sim.converged_with(&snap));
        by_snapshot.restore_from(&snap);
        assert!(by_snapshot.converged_with(&snap), "restore_from @ {at}");
        by_sim.restore_from_sim(&carrier);
        assert!(by_sim.converged_with(&snap), "restore_from_sim @ {at}");
        // One cycle on, each is a different machine from the snapshot —
        // and the same machine as the other.
        assert!(by_snapshot.run_to_cycle(at + 1, &ctl).is_none());
        assert!(!by_snapshot.converged_with(&snap), "one cycle past @ {at}");
        assert!(by_sim.run_to_cycle(at + 1, &ctl).is_none());
        assert!(by_sim.converged_with(&by_snapshot.snapshot()));
        assert!(by_snapshot.run_to_cycle(at + DIRTY_CYCLES, &ctl).is_none());
        assert!(by_sim.run_to_cycle(at + DIRTY_CYCLES / 2, &ctl).is_none());
        at += SNAP_STRIDE;
    }
}

#[test]
fn spawned_and_rewound_simulators_converge_with_their_snapshot() {
    rewound_simulators_converge(MuarchConfig::big());
    rewound_simulators_converge(MuarchConfig::small());
}

#[test]
fn convergence_is_refused_across_armed_faults_configurations_and_programs() {
    let p = sum_program(300);
    let ctl = RunControl {
        max_cycles: MAX,
        ..Default::default()
    };
    let at_100 = |cfg: MuarchConfig| {
        let mut sim = Sim::new(&p, cfg);
        assert!(sim.run_to_cycle(100, &ctl).is_none());
        sim
    };
    let sim = at_100(MuarchConfig::big());
    let snap = sim.snapshot();
    assert!(sim.converged_with(&snap));

    // A fault still to come, on either side, is a different future.
    let mut armed = sim.clone();
    armed.inject(reg_fault(26, 150));
    assert!(!armed.converged_with(&snap));
    assert!(!sim.converged_with(&armed.snapshot()));
    assert!(!armed.converged_with(&armed.snapshot()));

    // The same state under another configuration is a different future.
    let mut slower = MuarchConfig::big();
    slower.lat.div += 1; // `sum` divides nothing: identical up to here
    assert!(!at_100(slower).converged_with(&snap));

    // Memory is the same bytes *and* the same code region.
    let (a, b) = (Memory::new(0x1000), Memory::new(0x2000));
    assert!(a.converged_with(&Memory::new(0x1000)) && !a.converged_with(&b));
}

/// The claim `converged_with` makes, checked by running on: every single-bit
/// fault in every register — and in one byte of every L1D line — is
/// injected mid-flight into a run that is then compared with the fault-free
/// machine at a later cycle. A run that converged must end exactly as the
/// fault-free run does; a run that did not is left alone. Both answers
/// must occur (dead and live registers, invalid and valid lines), or a rule
/// has been widened to everything or narrowed to nothing.
#[test]
fn a_converged_faulty_run_ends_as_the_golden_run_does() {
    let p = scheduling_kernel();
    for cfg in [MuarchConfig::big(), MuarchConfig::small()] {
        let golden = capture_golden(&p, &cfg, MAX);
        let ctl = RunControl {
            max_cycles: MAX,
            golden: Some(golden.clone()),
            ..Default::default()
        };
        let (inject_at, meet_at) = (golden.cycles / 3, golden.cycles / 3 + 400);
        let mut carrier = Sim::new(&p, cfg.clone());
        assert!(carrier.run_to_cycle(inject_at, &ctl).is_none());
        let start = carrier.snapshot();
        assert!(carrier.run_to_cycle(meet_at, &ctl).is_none());
        let meet = carrier.snapshot();

        let sites = (0..u64::from(cfg.phys_regs))
            .map(|r| (Structure::RegFile, r * 32 + 7))
            .chain((0..u64::from(cfg.l1d.lines())).map(|l| (Structure::L1DData, l * 512 + 3)));
        let mut scratch = start.spawn();
        let mut answers = std::collections::BTreeMap::new();
        for (structure, bit) in sites {
            scratch.restore_from(&start);
            scratch.inject(Fault {
                site: FaultSite { structure, bit },
                cycle: inject_at,
            });
            let ended = scratch.run_to_cycle(meet_at, &ctl).is_some();
            let converged = !ended && scratch.converged_with(&meet);
            *answers.entry((structure, converged)).or_insert(0u32) += 1;
            if converged {
                let r = scratch.run(&ctl);
                assert_eq!(r.outcome, RunOutcome::Completed, "{structure} bit {bit}");
                assert_eq!(r.cycles, golden.cycles, "{structure} bit {bit}");
                assert_eq!(r.output.as_deref(), Some(&golden.output[..]));
                assert_eq!(r.first_deviation, None, "{structure} bit {bit}");
            }
        }
        for key in [Structure::RegFile, Structure::L1DData] {
            for converged in [false, true] {
                let n = answers.get(&(key, converged)).copied().unwrap_or(0);
                assert!(n > 0, "{}: no {key} fault answered {converged}", cfg.name);
            }
        }
    }
}

/// `dead_on_arrival` is `converged_with` asked in advance: at mid-flight
/// cycles on both cores, for every bit of every structure, the predicate
/// answers what flipping the bit and comparing the whole machine with its
/// own snapshot answers (a few µs each, millions of them: ~20 s) — so it can never say more than the comparison, and
/// a rule deleted from either side fails here. Both answers must occur in
/// every structure (each claims a rule), or a rule has been widened to
/// everything or narrowed to nothing.
fn dead_on_arrival_is_converged_with_asked_before_the_flip(cfg: MuarchConfig) {
    let p = scheduling_kernel();
    let ctl = RunControl {
        max_cycles: MAX,
        ..Default::default()
    };
    let cycles = Sim::new(&p, cfg.clone()).run(&ctl).cycles;
    let mut sim = Sim::new(&p, cfg.clone());
    let mut answers = std::collections::BTreeMap::new();
    // Six mid-flight cycles: windows filling, full (a ROB with no free
    // slot) and draining, queues with and without resolved entries.
    for at in [3, 15, 21, 39, 47, 68].map(|k| cycles * k / 73) {
        assert!(sim.run_to_cycle(at, &ctl).is_none(), "kernel ended by {at}");
        let snap = sim.snapshot();
        let mut x = snap.spawn();
        for &structure in Structure::all() {
            for bit in 0..structure.bit_count(&cfg) {
                let site = FaultSite { structure, bit };
                x.flip(site);
                let dead = x.converged_with(&snap);
                x.flip(site);
                let asked = sim.dead_on_arrival(site);
                assert_eq!(asked, dead, "{}: {structure} bit {bit} @ {at}", cfg.name);
                *answers.entry((structure, dead)).or_insert(0u64) += 1;
            }
            let bit = structure.bit_count(&cfg);
            let beyond = FaultSite { structure, bit };
            assert!(!sim.dead_on_arrival(beyond), "{structure}: out of range");
        }
        assert!(x.converged_with(&snap), "every flip was put back");
    }
    for &structure in Structure::all() {
        for dead in [false, true] {
            let n = answers.get(&(structure, dead)).copied().unwrap_or(0);
            assert!(n > 0, "{}: no {structure} bit answered {dead}", cfg.name);
        }
    }
}

#[test]
fn dead_on_arrival_is_converged_with_asked_before_the_flip_big() {
    dead_on_arrival_is_converged_with_asked_before_the_flip(MuarchConfig::big());
}

#[test]
fn dead_on_arrival_is_converged_with_asked_before_the_flip_small() {
    dead_on_arrival_is_converged_with_asked_before_the_flip(MuarchConfig::small());
}

/// A snapshot of a machine that has stepped fault-free says "every armed
/// fault is applied" — vacuously. Arming a fault on a simulator spawned
/// from it must reopen the question: under an ERT window of 0 the run ends
/// one cycle after its injection cycle, as a run armed from reset does,
/// not before the flip.
#[test]
fn a_fault_armed_on_a_spawned_snapshot_is_not_yet_applied() {
    let p = sum_program(300);
    let cfg = MuarchConfig::big();
    let golden = capture_golden(&p, &cfg, MAX);
    let ctl = RunControl {
        max_cycles: MAX,
        golden: Some(golden),
        ert_window: Some(0),
        ..Default::default()
    };
    let fault = reg_fault(90, 150); // dead or live: nothing deviates in a cycle
    let mut from_reset = Sim::new(&p, cfg);
    let snap = {
        let mut sim = from_reset.clone();
        assert!(sim.run_to_cycle(100, &ctl).is_none());
        sim.snapshot()
    };
    from_reset.inject(fault);
    let want = from_reset.run(&ctl);
    assert_eq!((want.outcome, want.cycles), (RunOutcome::ErtExpired, 151));
    let mut spawned = snap.spawn();
    spawned.inject(fault);
    assert_reports_equal(&spawned.run(&ctl), &want);
}
