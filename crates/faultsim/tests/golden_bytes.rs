//! Golden bytes of every JSON document `avgi-faultsim` writes.
//!
//! Each literal below was produced by the code of the commit *before*
//! `faultsim::json` grew its writer (every emitter was a `format!` then),
//! so the table proves the one-writer refactor changed no byte: for every
//! document kind `write(value) == literal`, `read(literal) == value`, and
//! the module's own parser accepts what the module's writer emits. Journal
//! bytes are what resumes read back and what `benchmark/expected.json`
//! digests; a literal here changes only with a deliberate format bump
//! (`JOURNAL_VERSION`), never as a side effect.
//!
//! The file uses only API that exists on both sides of that refactor, so it
//! can be run unchanged at the older commit to check the literals.

use avgi_faultsim::journal::{parse_record, record_line, CampaignKey, Journal};
use avgi_faultsim::json::parse;
use avgi_faultsim::telemetry::{MetricsSnapshot, SiteGrid};
use avgi_faultsim::{CampaignError, InjectionResult, RunMode};
use avgi_muarch::fault::{Fault, FaultSite, Structure};
use avgi_muarch::mem::MemFault;
use avgi_muarch::run::{RunOutcome, TrapKind};
use avgi_muarch::trace::{CommitRecord, Deviation};
use std::time::Duration;

fn key(mode: RunMode) -> CampaignKey {
    CampaignKey {
        workload: "sha \"256\"".into(),
        structure: Structure::Itlb,
        seed: 0xA461_0001,
        mode,
        burst_width: 2,
        faults: 64,
        golden_cycles: 9001,
        config_hash: u64::MAX,
    }
}

/// Journal headers, one per [`RunMode`] shape, as the sealed first line of
/// a freshly created journal.
const HEADERS: [(RunMode, &str); 4] = [
    (
        RunMode::EndToEnd,
        r#"{"kind":"avgi-campaign-journal","version":2,"workload":"sha \"256\"","structure":"Itlb","seed":2757820417,"mode":"EndToEnd","ert_window":null,"burst":2,"faults":64,"golden_cycles":9001,"config_hash":18446744073709551615} 10ab4a26
"#,
    ),
    (
        RunMode::Instrumented,
        r#"{"kind":"avgi-campaign-journal","version":2,"workload":"sha \"256\"","structure":"Itlb","seed":2757820417,"mode":"Instrumented","ert_window":null,"burst":2,"faults":64,"golden_cycles":9001,"config_hash":18446744073709551615} dc95f9cd
"#,
    ),
    (
        RunMode::FirstDeviation { ert_window: None },
        r#"{"kind":"avgi-campaign-journal","version":2,"workload":"sha \"256\"","structure":"Itlb","seed":2757820417,"mode":"FirstDeviation","ert_window":null,"burst":2,"faults":64,"golden_cycles":9001,"config_hash":18446744073709551615} 639381c3
"#,
    ),
    (
        RunMode::FirstDeviation {
            ert_window: Some(2000),
        },
        r#"{"kind":"avgi-campaign-journal","version":2,"workload":"sha \"256\"","structure":"Itlb","seed":2757820417,"mode":"FirstDeviation","ert_window":2000,"burst":2,"faults":64,"golden_cycles":9001,"config_hash":18446744073709551615} f395718b
"#,
    ),
];

#[test]
fn journal_headers_match_the_bytes_the_parent_wrote() {
    let path = std::env::temp_dir().join(format!(
        "avgi-golden-bytes-header-{}.jsonl",
        std::process::id()
    ));
    for (mode, golden) in HEADERS {
        // write(value) == literal
        let _ = std::fs::remove_file(&path);
        drop(Journal::open(&path, &key(mode)).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), golden, "{mode:?}");
        // read(literal) == value: the literal opens under its own key and
        // under no other mode's.
        std::fs::write(&path, golden).unwrap();
        let (_, done) = Journal::open(&path, &key(mode)).unwrap();
        assert!(done.is_empty());
        for (other, _) in HEADERS.iter().filter(|(m, _)| *m != mode) {
            match Journal::open(&path, &key(*other)) {
                Err(CampaignError::JournalMismatch {
                    field: "mode" | "ert_window",
                    ..
                }) => {}
                got => panic!("{mode:?} header read as {other:?}: {got:?}"),
            }
        }
        let json = golden.rsplit_once(' ').unwrap().0;
        parse(json).unwrap();
    }
    let _ = std::fs::remove_file(&path);
}

fn result(outcome: RunOutcome) -> InjectionResult {
    InjectionResult {
        fault: Fault {
            site: FaultSite {
                structure: Structure::L1DTag,
                bit: 4321,
            },
            cycle: 987,
        },
        outcome,
        deviation: None,
        output_matches: Some(true),
        cycles: 12345,
        post_inject_cycles: 678,
        abort_message: None,
    }
}

fn deviation() -> Deviation {
    Deviation {
        index: 7,
        golden: CommitRecord {
            cycle: 10,
            pc: 4,
            raw: 0xdead_beef,
            ea: 64,
            val: 5,
        },
        faulty: CommitRecord {
            cycle: u64::MAX,
            pc: u32::MAX,
            raw: 0,
            ea: 64,
            val: 9,
        },
    }
}

/// One record per [`RunOutcome`] shape, with and without a deviation, with
/// each `output_matches` state, and one abort message carrying every
/// escape class (`"`, `\`, newline, tab, a control character, non-ASCII).
fn records() -> Vec<(usize, InjectionResult, &'static str)> {
    let mem = |m| RunOutcome::Trap(TrapKind::Memory(m));
    vec![
        (
            0,
            result(RunOutcome::Completed),
            r#"{"i":0,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"Completed"},"deviation":null,"output_matches":true,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            1,
            InjectionResult {
                deviation: Some(deviation()),
                output_matches: Some(false),
                ..result(RunOutcome::Completed)
            },
            r#"{"i":1,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"Completed"},"deviation":{"index":7,"golden":[10,4,3735928559,64,5],"faulty":[18446744073709551615,4294967295,0,64,9]},"output_matches":false,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            2,
            InjectionResult {
                output_matches: None,
                ..result(RunOutcome::Watchdog)
            },
            r#"{"i":2,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"Watchdog"},"deviation":null,"output_matches":null,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            3,
            InjectionResult {
                deviation: Some(deviation()),
                output_matches: None,
                ..result(RunOutcome::StoppedAtDeviation)
            },
            r#"{"i":3,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"StoppedAtDeviation"},"deviation":{"index":7,"golden":[10,4,3735928559,64,5],"faulty":[18446744073709551615,4294967295,0,64,9]},"output_matches":null,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            4,
            result(RunOutcome::ErtExpired),
            r#"{"i":4,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"ErtExpired"},"deviation":null,"output_matches":true,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            5,
            result(RunOutcome::WallClockExpired),
            r#"{"i":5,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"WallClockExpired"},"deviation":null,"output_matches":true,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            6,
            InjectionResult {
                output_matches: None,
                cycles: 0,
                post_inject_cycles: 0,
                abort_message: Some("index 9 \"out\" of C:\\bounds\n\tctrl\u{1} ünïcode".into()),
                ..result(RunOutcome::SimAbort)
            },
            r#"{"i":6,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"SimAbort"},"deviation":null,"output_matches":null,"cycles":0,"post":0,"abort":"index 9 \"out\" of C:\\bounds\n\tctrl\u0001 ünïcode"}
"#,
        ),
        (
            7,
            result(RunOutcome::IntegrityViolation(Structure::Rob)),
            r#"{"i":7,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"IntegrityViolation","structure":"Rob"},"deviation":null,"output_matches":true,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            8,
            result(RunOutcome::Trap(TrapKind::UndefinedInstruction)),
            r#"{"i":8,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"Trap","trap":"UndefinedInstruction"},"deviation":null,"output_matches":true,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            9,
            result(mem(MemFault::OutOfRange(0x1234))),
            r#"{"i":9,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"Trap","trap":"Memory","mem":"OutOfRange","addr":4660},"deviation":null,"output_matches":true,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            10,
            result(mem(MemFault::WriteToCode(8))),
            r#"{"i":10,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"Trap","trap":"Memory","mem":"WriteToCode","addr":8},"deviation":null,"output_matches":true,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            11,
            result(mem(MemFault::Misaligned(u32::MAX))),
            r#"{"i":11,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"Trap","trap":"Memory","mem":"Misaligned","addr":4294967295},"deviation":null,"output_matches":true,"cycles":12345,"post":678,"abort":null}
"#,
        ),
        (
            usize::MAX,
            InjectionResult {
                cycles: u64::MAX,
                ..result(mem(MemFault::ExecuteFault(0)))
            },
            r#"{"i":18446744073709551615,"fault":{"structure":"L1DTag","bit":4321,"cycle":987},"outcome":{"t":"Trap","trap":"Memory","mem":"ExecuteFault","addr":0},"deviation":null,"output_matches":true,"cycles":18446744073709551615,"post":678,"abort":null}
"#,
        ),
    ]
}

#[test]
fn journal_records_match_the_bytes_the_parent_wrote() {
    for (idx, value, golden) in records() {
        assert_eq!(record_line(idx, &value), golden);
        assert_eq!(parse_record(golden.trim_end()).unwrap(), (idx, value));
    }
}

const CLASS_LABELS: [&str; 2] = ["short \"runs\"", "long"];

fn snapshot() -> MetricsSnapshot {
    let mut s = MetricsSnapshot::empty().with_campaign(7);
    s.planned = 12;
    s.completed = 9;
    s.resumed = 4;
    s.retries = 1;
    s.converged_runs = 3;
    s.cycles_skipped = 4_321;
    s.workers = 3;
    s.elapsed = Duration::from_micros(1_234_567);
    s.outcomes[0].1 = 5;
    s.outcomes[1].1 = 2;
    s.outcomes[7].1 = 2;
    s.classes = vec![(CLASS_LABELS[0], 6), (CLASS_LABELS[1], 3)];
    s.structures[0].1 = 8;
    s.structures[6].1 = 1;
    s.post_inject_cycles.counts[0] = 2;
    s.post_inject_cycles.counts[3] = 6;
    s.post_inject_cycles.counts[11] = 1;
    s.wall_latency_us.counts[5] = 5;
    s
}

const DETERMINISTIC: &str = r#"{"planned":12,"completed":9,"retries":1,"aborted":2,"outcomes":{"Completed":5,"Trap":2,"IntegrityViolation":0,"Watchdog":0,"StoppedAtDeviation":0,"ErtExpired":0,"WallClockExpired":0,"SimAbort":2},"classes":{"short \"runs\"":6,"long":3},"structures":{"RegFile":8,"L1DData":1},"post_inject_cycles_hist":[2,0,0,6,0,0,0,0,0,0,0,1]}"#;

const DETERMINISTIC_EMPTY: &str = r#"{"planned":0,"completed":0,"retries":0,"aborted":0,"outcomes":{"Completed":0,"Trap":0,"IntegrityViolation":0,"Watchdog":0,"StoppedAtDeviation":0,"ErtExpired":0,"WallClockExpired":0,"SimAbort":0},"classes":{},"structures":{},"post_inject_cycles_hist":[]}"#;

// `converged_runs` and `cycles_skipped` joined the dump with the convergence
// exit (DESIGN §13) and, like `workers`, are absent from the deterministic
// document above. The counter of engine invocations that fell off the
// carrier path left it when that path became the only one for a
// checkpointed run; every other byte is the parent's.
const METRICS: &str = r#"{"kind":"avgi-campaign-metrics","version":1,"campaign":7,"planned":12,"completed":9,"resumed":4,"retries":1,"aborted":2,"converged_runs":3,"cycles_skipped":4321,"workers":3,"elapsed_us":1234567,"runs_per_sec":4.1,"eta_us":740740,"outcomes":{"Completed":5,"Trap":2,"IntegrityViolation":0,"Watchdog":0,"StoppedAtDeviation":0,"ErtExpired":0,"WallClockExpired":0,"SimAbort":2},"classes":{"short \"runs\"":6,"long":3},"structures":{"RegFile":8,"L1DData":1},"post_inject_cycles_hist":[2,0,0,6,0,0,0,0,0,0,0,1],"wall_latency_us_hist":[0,0,0,0,0,5]}"#;

const METRICS_EMPTY: &str = r#"{"kind":"avgi-campaign-metrics","version":1,"campaign":0,"planned":0,"completed":0,"resumed":0,"retries":0,"aborted":0,"converged_runs":0,"cycles_skipped":0,"workers":0,"elapsed_us":0,"runs_per_sec":0.0,"eta_us":null,"outcomes":{"Completed":0,"Trap":0,"IntegrityViolation":0,"Watchdog":0,"StoppedAtDeviation":0,"ErtExpired":0,"WallClockExpired":0,"SimAbort":0},"classes":{},"structures":{},"post_inject_cycles_hist":[],"wall_latency_us_hist":[]}"#;

const SITE_GRID: &str = r#"{"bits":4096,"cycles":1024,"bit_bins":2,"cycle_bins":3,"runs":[2,0,0,0,0,1],"affected":[1,0,0,0,0,1]}"#;

#[test]
fn telemetry_documents_match_the_bytes_the_parent_wrote() {
    let s = snapshot();
    assert_eq!(s.deterministic_counters_json(), DETERMINISTIC);
    assert_eq!(
        MetricsSnapshot::empty().deterministic_counters_json(),
        DETERMINISTIC_EMPTY
    );
    // read(literal) == value, for everything the deterministic subset
    // carries (wall-clock fields come back zeroed by contract).
    let back =
        MetricsSnapshot::from_deterministic_value(&parse(DETERMINISTIC).unwrap(), &CLASS_LABELS)
            .unwrap();
    assert_eq!(back.deterministic_counters_json(), DETERMINISTIC);
    assert_eq!(
        (back.planned, back.completed, back.retries, back.aborted()),
        (12, 9, 1, 2)
    );
    assert_eq!(back.outcomes, s.outcomes);
    assert_eq!(back.classes, s.classes);
    assert_eq!(back.structures, s.structures);
    assert_eq!(back.post_inject_cycles, s.post_inject_cycles);
    let empty =
        MetricsSnapshot::from_deterministic_value(&parse(DETERMINISTIC_EMPTY).unwrap(), &[])
            .unwrap();
    assert_eq!(empty.deterministic_counters_json(), DETERMINISTIC_EMPTY);

    assert_eq!(s.to_json(), METRICS);
    assert_eq!(MetricsSnapshot::empty().to_json(), METRICS_EMPTY);

    let mut grid = SiteGrid::new(4096, 1024, 2, 3);
    let mut masked = result(RunOutcome::Completed);
    masked.fault = Fault {
        site: FaultSite {
            structure: Structure::RegFile,
            bit: 100,
        },
        cycle: 10,
    };
    grid.record(&masked);
    let mut sdc = masked.clone();
    sdc.output_matches = Some(false);
    grid.record(&sdc);
    let mut crash = result(RunOutcome::Watchdog);
    crash.fault = Fault {
        site: FaultSite {
            structure: Structure::RegFile,
            bit: 4000,
        },
        cycle: 1000,
    };
    grid.record(&crash);
    assert_eq!(grid.to_json(), SITE_GRID);

    // The module reads everything the repository writes — the metrics dump
    // included, whose `runs_per_sec` is a fraction.
    for doc in [
        DETERMINISTIC,
        DETERMINISTIC_EMPTY,
        METRICS,
        METRICS_EMPTY,
        SITE_GRID,
    ] {
        parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    }
}
