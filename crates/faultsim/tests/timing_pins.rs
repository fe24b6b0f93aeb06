//! Faulty-run timing pins: every structure × both cores × two workloads.
//!
//! `benchmark/expected.json` digests campaigns on RegFile, L1DData and Rob
//! only, and the golden pins in `refmodel/tests/workloads_lockstep.rs` see
//! fault-free runs only. A host-side rewrite of the pipeline (scheduling
//! data structures, scan order, ring arithmetic) must also leave *faulty*
//! runs untouched — squash storms, corrupted operands, traps, integrity
//! violations, watchdog hangs — on all twelve structures and on the small
//! core, whose 32-entry ROB exercises ring wrap differently from `big()`.
//!
//! For each (core, workload, structure), 48 fixed-seed uniformly sampled
//! faults run end to end on a fresh [`Sim`] with golden comparison armed.
//! One FNV-1a digest per cell folds, per run: the outcome, total cycles,
//! the first deviation's commit index and faulty commit cycle, and the
//! output hash. The pins were recorded on the polling pipeline (before the
//! event-driven back end) and must never move for a host-side change.
//!
//! Regenerate with `FAULTSIM_PRINT_PINS=1 cargo test -p avgi-faultsim
//! --test timing_pins -- --nocapture --test-threads 1` and paste the tables.

use avgi_faultsim::{golden_for, sample_faults, watchdog_budget};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::run::RunControl;
use avgi_muarch::{Sim, Structure};
use avgi_refmodel::fnv1a64;

const FAULTS_PER_CELL: usize = 48;
const SEED: u64 = 0x71A1_9615;

/// `(structure, digest)` in `Structure::all()` order.
type Table = &'static [(Structure, u64)];

#[rustfmt::skip]
const BIG_CRC32: Table = &[
    (Structure::RegFile, 0xe7c25a440481a7a8),
    (Structure::Dtlb, 0x06246e915411df21),
    (Structure::Itlb, 0xca37aa2b45609c40),
    (Structure::L1IData, 0x1ccb8881911a0765),
    (Structure::L1ITag, 0x1ccb8881911a0765),
    (Structure::L1DTag, 0x1ccb8881911a0765),
    (Structure::L1DData, 0x1ccb8881911a0765),
    (Structure::L2Tag, 0x1ccb8881911a0765),
    (Structure::L2Data, 0x1ccb8881911a0765),
    (Structure::Rob, 0x158c57763f7961cb),
    (Structure::Lq, 0x6b998b553cd8d99f),
    (Structure::Sq, 0x1ccb8881911a0765),
];

#[rustfmt::skip]
const BIG_RIJNDAEL: Table = &[
    (Structure::RegFile, 0xcaab1a0d678c56ad),
    (Structure::Dtlb, 0x68f131078e0a548a),
    (Structure::Itlb, 0x0b33a5b612061932),
    (Structure::L1IData, 0x5936a1a245e96e05),
    (Structure::L1ITag, 0x5936a1a245e96e05),
    (Structure::L1DTag, 0xd1ffa18847abd26d),
    (Structure::L1DData, 0x5e0a9196366c6447),
    (Structure::L2Tag, 0x5936a1a245e96e05),
    (Structure::L2Data, 0x5936a1a245e96e05),
    (Structure::Rob, 0x2106509e7ae72490),
    (Structure::Lq, 0xc268ecc15dab3a12),
    (Structure::Sq, 0xc5d16360f66914b9),
];

#[rustfmt::skip]
const SMALL_CRC32: Table = &[
    (Structure::RegFile, 0x3901a6ec20ad2b23),
    (Structure::Dtlb, 0x430a29c6d0e655bd),
    (Structure::Itlb, 0x256f872fa5156b22),
    (Structure::L1IData, 0x2c456a1b7ed08175),
    (Structure::L1ITag, 0x0f55f8685d76acb1),
    (Structure::L1DTag, 0x5ac2bf1de452f1f9),
    (Structure::L1DData, 0x2c456a1b7ed08175),
    (Structure::L2Tag, 0x2c456a1b7ed08175),
    (Structure::L2Data, 0x2c456a1b7ed08175),
    (Structure::Rob, 0x17c050009f2cef08),
    (Structure::Lq, 0x2c456a1b7ed08175),
    (Structure::Sq, 0x2c456a1b7ed08175),
];

#[rustfmt::skip]
const SMALL_RIJNDAEL: Table = &[
    (Structure::RegFile, 0x598e621a2383677b),
    (Structure::Dtlb, 0x8c82d0e9d61c51cd),
    (Structure::Itlb, 0xca983f0116807a3e),
    (Structure::L1IData, 0xddc0ceab09a69365),
    (Structure::L1ITag, 0xddc0ceab09a69365),
    (Structure::L1DTag, 0xd313e9ec39fec7f1),
    (Structure::L1DData, 0x980ee8cc0027bc3a),
    (Structure::L2Tag, 0xa917c6715c1202d9),
    (Structure::L2Data, 0x1c77ac506039f521),
    (Structure::Rob, 0x29aa664550ac9925),
    (Structure::Lq, 0xd5b3456fcbc6fb19),
    (Structure::Sq, 0x82139e460d6fbfaa),
];

/// Digest of one cell: 48 end-to-end faulty runs folded into one hash.
fn cell_digest(workload: &avgi_workloads::Workload, cfg: &MuarchConfig, s: Structure) -> u64 {
    let golden = golden_for(workload, cfg);
    let ctl = RunControl {
        max_cycles: watchdog_budget(golden.cycles),
        golden: Some(golden.clone()),
        ..RunControl::default()
    };
    let faults = sample_faults(s, cfg, golden.cycles, FAULTS_PER_CELL, SEED).expect("golden ran");
    let mut bytes = Vec::new();
    for fault in faults {
        let mut sim = Sim::new(&workload.program, cfg.clone());
        sim.inject(fault);
        let r = sim.run(&ctl);
        bytes.extend_from_slice(format!("{:?}", r.outcome).as_bytes());
        let (dev_index, dev_cycle) = r
            .first_deviation
            .map_or((u64::MAX, u64::MAX), |d| (d.index, d.faulty.cycle));
        let output = r.output.as_deref().map_or(0, fnv1a64);
        for v in [r.cycles, dev_index, dev_cycle, output] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

fn check_cells(cfg: &MuarchConfig, workload: &str, table: &str, pins: Table) {
    let print = std::env::var_os("FAULTSIM_PRINT_PINS").is_some();
    let w = avgi_workloads::by_name(workload).expect("registered workload");
    if print {
        println!("const {table}: Table = &[");
    } else {
        assert_eq!(pins.len(), Structure::all().len(), "{table} out of sync");
    }
    let mut mismatches = Vec::new();
    for (i, &s) in Structure::all().iter().enumerate() {
        let digest = cell_digest(&w, cfg, s);
        if print {
            println!("    (Structure::{}, {digest:#018x}),", s.ident());
            continue;
        }
        assert_eq!(pins[i].0, s, "{table} out of sync with Structure::all()");
        if digest != pins[i].1 {
            mismatches.push(format!(
                "{}: digest {digest:#018x} (pinned {:#018x})",
                s.ident(),
                pins[i].1
            ));
        }
    }
    if print {
        println!("];");
    }
    assert!(
        mismatches.is_empty(),
        "faulty-run pins in {table} changed:\n{}\nA host-side pipeline change must not move these; \
         a modelling change regenerates them with FAULTSIM_PRINT_PINS=1.",
        mismatches.join("\n")
    );
}

#[test]
fn big_crc32() {
    check_cells(&MuarchConfig::big(), "crc32", "BIG_CRC32", BIG_CRC32);
}

#[test]
fn big_rijndael() {
    check_cells(
        &MuarchConfig::big(),
        "rijndael",
        "BIG_RIJNDAEL",
        BIG_RIJNDAEL,
    );
}

#[test]
fn small_crc32() {
    check_cells(&MuarchConfig::small(), "crc32", "SMALL_CRC32", SMALL_CRC32);
}

#[test]
fn small_rijndael() {
    check_cells(
        &MuarchConfig::small(),
        "rijndael",
        "SMALL_RIJNDAEL",
        SMALL_RIJNDAEL,
    );
}
