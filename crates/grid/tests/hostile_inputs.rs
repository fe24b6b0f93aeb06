//! Every JSON reader in the workspace against its hostile inputs.
//!
//! The other half of `golden_bytes.rs`: that table pins what the readers
//! accept, this one what they refuse. Every document kind that crosses a
//! trust boundary — journal header and record, telemetry delta, submission,
//! campaign spec, queue line, all eleven v2 frames — is damaged one value at
//! a time (truncated, wrong type, unknown tag, one nesting level too deep,
//! `u64::MAX + 1`, a float, `1e999`) and handed to the reader that meets it
//! in production. The reader must return an `Err` that names the damaged
//! field; a panic or an abort fails the test by killing it.

mod common;

use avgi_faultsim::journal::{parse_record, record_line, seal, CampaignKey};
use avgi_faultsim::json::{parse, to_string, Json, Writer, MAX_DEPTH};
use avgi_faultsim::telemetry::MetricsSnapshot;
use avgi_faultsim::{InjectionResult, Journal, RunMode};
use avgi_grid::proto::Msg;
use avgi_grid::spec::{CampaignSpec, ConfigPreset, MAX_BURST, MAX_CHECKPOINTS, MAX_FAULTS};
use avgi_grid::{SubmissionQueue, SubmitSpec};
use avgi_muarch::fault::{Fault, FaultSite, Structure};
use avgi_muarch::mem::MemFault;
use avgi_muarch::run::{RunOutcome, TrapKind};
use avgi_muarch::trace::{CommitRecord, Deviation};
use std::path::Path;

/// Stands in for the value being damaged while a document is rendered.
const HOLE: &str = "\"@@hole@@\"";

fn render(w: &mut Writer<'_>, v: &Json) {
    match v {
        Json::Null => w.null(),
        Json::Bool(b) => w.bool(*b),
        Json::Int(n) => w.raw(&n.to_string()),
        Json::Float(x) => w.raw(&x.to_string()),
        Json::Str(s) => w.str(s),
        Json::Array(items) => w.array(|w| {
            for item in items {
                render(w, item);
            }
        }),
        Json::Object(fields) => w.object(|w| {
            for (key, value) in fields {
                render(w.key(key), value);
            }
        }),
    };
}

/// One value of a document cut out: the key it sits under (for an array
/// element, the array's key), what was there, and the document text with
/// [`HOLE`] in its place.
struct Cut {
    key: String,
    was: Json,
    text: String,
}

/// Every way to cut one value out of `doc`, depth first.
fn cuts(doc: &Json) -> Vec<Cut> {
    fn walk(root: &Json, path: &mut Vec<usize>, key: &str, at: &Json, out: &mut Vec<Cut>) {
        let children: Vec<(&str, &Json)> = match at {
            Json::Object(fields) => fields.iter().map(|(k, v)| (k.as_str(), v)).collect(),
            Json::Array(items) => items.iter().map(|v| (key, v)).collect(),
            _ => return,
        };
        for (i, (key, child)) in children.into_iter().enumerate() {
            path.push(i);
            let mut holed = root.clone();
            let mut slot = &mut holed;
            for &step in path.iter() {
                slot = match slot {
                    Json::Object(fields) => &mut fields[step].1,
                    Json::Array(items) => &mut items[step],
                    _ => unreachable!("paths lead through containers"),
                };
            }
            *slot = Json::Str("@@hole@@".into());
            out.push(Cut {
                key: key.to_string(),
                was: child.clone(),
                text: to_string(|w| render(w, &holed)),
            });
            walk(root, path, key, child, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    walk(doc, &mut Vec::new(), "", doc, &mut out);
    out
}

/// Decodes a document; `Ok` only if it was accepted.
type Read = dyn Fn(&str) -> Result<(), String>;

/// A reader under test: a name, one valid document, and the production
/// entry point that decodes it.
struct Reader {
    name: String,
    valid: String,
    read: Box<Read>,
    /// Fields the reader is lenient about by design.
    lenient: &'static [&'static str],
    /// A sealed log drops a line it cannot parse instead of failing — that
    /// is its durability contract — so for such a reader "refused" means
    /// the line was not replayed, and the parser's reason is not reported.
    drops_unparseable: bool,
}

fn reader(
    name: impl Into<String>,
    valid: String,
    read: impl Fn(&str) -> Result<(), String> + 'static,
) -> Reader {
    Reader {
        name: name.into(),
        valid,
        read: Box::new(read),
        lenient: &[],
        drops_unparseable: false,
    }
}

fn result() -> InjectionResult {
    InjectionResult {
        fault: Fault {
            site: FaultSite {
                structure: Structure::Rob,
                bit: 3,
            },
            cycle: 7,
        },
        outcome: RunOutcome::Trap(TrapKind::Memory(MemFault::Misaligned(0xdead_beef))),
        deviation: Some(Deviation {
            index: 42,
            golden: CommitRecord {
                cycle: 99,
                pc: 0x100,
                raw: 0xdead_beef,
                ea: 0,
                val: 7,
            },
            faulty: CommitRecord {
                cycle: 99,
                pc: 0x104,
                raw: 0xfeed_face,
                ea: 4,
                val: 8,
            },
        }),
        output_matches: Some(false),
        cycles: 500,
        post_inject_cycles: 493,
        abort_message: Some("said \"no\"".into()),
    }
}

fn telemetry() -> MetricsSnapshot {
    let mut t = MetricsSnapshot::empty();
    t.planned = 1;
    t.completed = 1;
    t.outcomes[1].1 = 1;
    t.structures[7].1 = 1;
    t.post_inject_cycles.counts[9] = 1;
    t
}

fn campaign_spec() -> CampaignSpec {
    CampaignSpec {
        workload: "sha".into(),
        workload_id: 1,
        preset: ConfigPreset::Big,
        structure: Structure::RegFile,
        faults: 240,
        seed: 0xDEAD,
        mode: RunMode::FirstDeviation {
            ert_window: Some(2_000),
        },
        burst_width: 2,
        checkpoints: 8,
        golden_cycles: 123_456,
        config_hash: 42,
        lease_timeout_ms: 30_000,
    }
}

fn journal_key() -> CampaignKey {
    CampaignKey {
        workload: "sha".into(),
        structure: Structure::Itlb,
        seed: 42,
        mode: RunMode::FirstDeviation {
            ert_window: Some(2_000),
        },
        burst_width: 2,
        faults: 64,
        golden_cycles: 9001,
        config_hash: 7,
    }
}

/// The JSON of a sealed file's first line.
fn first_line_json(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let line = text.lines().next().unwrap();
    line.rsplit_once(' ').unwrap().0.to_string()
}

fn readers(dir: &Path) -> Vec<Reader> {
    let mut readers = vec![
        reader("journal record", record_line(5, &result()), |doc| {
            parse_record(doc).map(drop)
        }),
        reader(
            "telemetry delta",
            telemetry().deterministic_counters_json(),
            |doc| MetricsSnapshot::from_deterministic_value(&parse(doc)?, &[]).map(drop),
        ),
        reader("campaign spec", campaign_spec().to_json(), |doc| {
            CampaignSpec::from_json_value(&parse(doc)?).map(drop)
        }),
        reader(
            "submission",
            {
                let mut full = SubmitSpec::new("crc32", Structure::Rob, 96, 0xBEE);
                full.mode = RunMode::FirstDeviation {
                    ert_window: Some(500),
                };
                full.to_json()
            },
            |doc| SubmitSpec::from_json(doc).map(drop),
        ),
    ];

    // The two sealed logs read their documents from a file: a header, and
    // (for the queue) a pending submission behind an intact header.
    let journal = dir.join("journal.jsonl");
    drop(Journal::open(&journal, &journal_key()).unwrap());
    let header = first_line_json(&journal);
    readers.push(reader("journal header", header, move |doc| {
        std::fs::write(&journal, seal(doc)).unwrap();
        let opened = Journal::open(&journal, &journal_key());
        opened.map(drop).map_err(|e| e.to_string())
    }));
    let queue = dir.join("queue.jsonl");
    {
        let mut q = SubmissionQueue::open(&queue).unwrap();
        q.submit(SubmitSpec::new("bitcount", Structure::RegFile, 8, 1))
            .unwrap();
    }
    let queue_text = std::fs::read_to_string(&queue).unwrap();
    let lines: Vec<String> = queue_text
        .lines()
        .map(|line| line.rsplit_once(' ').unwrap().0.to_string())
        .collect();
    let path = queue.clone();
    readers.push(reader("queue header", lines[0].clone(), move |doc| {
        std::fs::write(&path, seal(doc)).unwrap();
        let opened = SubmissionQueue::open(&path);
        opened.map(drop).map_err(|e| e.to_string())
    }));
    let header = seal(&lines[0]);
    readers.push(Reader {
        // An op the build does not know is skipped, so that a newer
        // service's queue stays readable: a damaged `op` is not an error.
        lenient: &["op"],
        drops_unparseable: true,
        ..reader("queue submit op", lines[1].clone(), move |doc| {
            std::fs::write(&queue, format!("{header}{}", seal(doc))).unwrap();
            let q = SubmissionQueue::open(&queue).map_err(|e| e.to_string())?;
            if q.pending().is_empty() {
                return Err("dropped as a damaged line".into());
            }
            Ok(())
        })
    });

    // All eleven frames of the v2 dialect, through the frame decoder.
    for msg in [
        Msg::Hello {
            proto: 3,
            session: Some(17),
        },
        Msg::Welcome {
            proto: 2,
            session: 17,
            campaign: 4,
            spec: Some(campaign_spec()),
        },
        Msg::LeaseRequest,
        Msg::Lease {
            lease: 7,
            campaign: 5,
            indices: vec![3, 1, 4],
        },
        Msg::Drain,
        Msg::Done,
        Msg::Heartbeat {
            lease: 9,
            campaign: 2,
        },
        Msg::BatchDone {
            lease: 12,
            campaign: 3,
            results: vec![(5, result())],
            telemetry: telemetry(),
        },
        Msg::Spec {
            campaign: 6,
            spec: campaign_spec(),
        },
        Msg::SpecRequest { campaign: 11 },
        Msg::Reject {
            reason: "go away".into(),
        },
    ] {
        let name = format!("{} frame", msg.kind().name());
        readers.push(reader(name, msg.to_json(), |doc| {
            Msg::decode(doc.as_bytes()).map(drop)
        }));
    }
    readers
}

#[test]
fn every_reader_refuses_every_hostile_case_by_name() {
    let dir = common::scratch("hostile-inputs");
    let cases = std::cell::Cell::new(0usize);
    for r in readers(&dir) {
        let Reader {
            name, valid, read, ..
        } = &r;
        let valid = valid.trim_end();
        read(valid).unwrap_or_else(|e| panic!("{name}: valid document refused: {e}"));
        let refused = |what: &str, doc: &str| match read(doc) {
            Err(e) => {
                cases.set(cases.get() + 1);
                e
            }
            Ok(()) => panic!("{name}: {what} accepted: {doc}"),
        };

        // Truncated anywhere. (A truncated *line* of a sealed log is a torn
        // tail and recovered from — `journal_durability`, `queue.rs` — so
        // here the document is truncated inside an intact line.)
        for cut in (0..valid.len()).filter(|&i| valid.is_char_boundary(i)) {
            refused("truncation", &valid[..cut]);
        }

        // One level too deep is refused; the bound itself is not. The root
        // object is level 1 and readers ignore keys they do not know.
        let nested = |levels: usize| {
            let pad = format!("{}{}", "[".repeat(levels), "]".repeat(levels));
            format!("{{\"zz\":{pad},{}", &valid[1..])
        };
        read(&nested(MAX_DEPTH - 1))
            .unwrap_or_else(|e| panic!("{name}: nesting at the bound refused: {e}"));
        let e = refused("nesting past the bound", &nested(MAX_DEPTH));
        assert!(e.contains("nesting") || r.drops_unparseable, "{name}: {e}");

        for Cut { key, was, text } in cuts(&parse(valid).unwrap()) {
            if r.lenient.contains(&key.as_str()) {
                continue;
            }
            let names_it = |what: &str, e: String| {
                assert!(
                    e.contains(&format!("`{key}`")),
                    "{name}: {what} in `{key}` refused without naming it: {e}"
                );
            };
            let with = |hostile: &str| text.replace(HOLE, hostile);
            // The wrong type. An object or `null` replaced by a scalar is
            // refused at the first field the reader looks for inside it, so
            // the error names that field instead.
            let wrong = match was {
                Json::Int(_) | Json::Bool(_) | Json::Null => "\"7\"",
                _ => "7",
            };
            let e = refused("wrong type", &with(wrong));
            match was {
                Json::Object(_) | Json::Null => assert!(e.contains('`'), "{name}: {e}"),
                _ => names_it("wrong type", e),
            }
            match was {
                // Integers: one past `u64::MAX`, a fraction, an overflow.
                Json::Int(_) => {
                    names_it(
                        "u64::MAX + 1",
                        refused("u64::MAX + 1", &with("18446744073709551616")),
                    );
                    names_it("a float", refused("a float", &with("1e3")));
                    let e = refused("1e999", &with("1e999"));
                    assert!(e.contains("1e999") || r.drops_unparseable, "{name}: {e}");
                }
                // Tags: a variant nobody defined.
                Json::Str(_)
                    if ["t", "trap", "mem", "mode", "structure", "preset", "kind"]
                        .contains(&key.as_str()) =>
                {
                    let e = refused("unknown tag", &with("\"Nope\""));
                    assert!(
                        e.contains("Nope") || e.contains(&format!("`{key}`")),
                        "{name}: {e}"
                    );
                }
                _ => {}
            }
        }
    }
    // 18 readers; the batch frame alone has some sixty values to damage.
    assert!(cases.get() > 3_000, "only {} cases ran", cases.get());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec a worker could not carry — the sizes a submission is refused for —
/// is refused by the same bounds, naming the field: as a document, and in
/// the `welcome` and `spec` frames that carry it to a worker. The bounds
/// themselves are accepted.
#[test]
fn a_spec_past_the_submission_bounds_is_refused_by_name() {
    let spec = campaign_spec();
    let carriers = |spec: &CampaignSpec| {
        let frames = [
            Msg::Welcome {
                proto: 2,
                session: 17,
                campaign: 4,
                spec: Some(spec.clone()),
            },
            Msg::Spec {
                campaign: 6,
                spec: spec.clone(),
            },
        ];
        let doc = CampaignSpec::from_json_value(&parse(&spec.to_json()).unwrap()).map(drop);
        let frames = frames.map(|m| Msg::decode(m.to_json().as_bytes()).map(drop));
        [doc, frames[0].clone(), frames[1].clone()]
    };
    let at_the_bounds = CampaignSpec {
        checkpoints: MAX_CHECKPOINTS,
        burst_width: MAX_BURST,
        ..spec.clone()
    };
    for ok in [
        CampaignSpec {
            faults: 1,
            ..at_the_bounds.clone()
        },
        CampaignSpec {
            faults: MAX_FAULTS,
            ..at_the_bounds
        },
    ] {
        for read in carriers(&ok) {
            read.unwrap_or_else(|e| panic!("a spec at the bounds refused: {e}"));
        }
    }
    for (field, hostile) in [
        (
            "faults",
            CampaignSpec {
                faults: 0,
                ..spec.clone()
            },
        ),
        (
            "faults",
            CampaignSpec {
                faults: MAX_FAULTS + 1,
                ..spec.clone()
            },
        ),
        (
            "checkpoints",
            CampaignSpec {
                checkpoints: MAX_CHECKPOINTS + 1,
                ..spec.clone()
            },
        ),
        (
            "burst",
            CampaignSpec {
                burst_width: MAX_BURST + 1,
                ..spec.clone()
            },
        ),
    ] {
        for read in carriers(&hostile) {
            let e = read.expect_err(&format!("accepted: {hostile:?}"));
            assert!(e.contains(&format!("`{field}`")), "{field}: {e}");
        }
    }
}
