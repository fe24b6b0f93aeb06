//! Campaign submission client for `grid_service` (`DESIGN.md` §15).
//!
//! Talks to the service's HTTP surface: submits one campaign, optionally
//! waits for completion, and with `--verify` reruns the identical campaign
//! single-process in this process and compares the service's merged report
//! byte-for-byte — the per-tenant bit-identity acceptance check.
//!
//! ```text
//! grid_submit --addr 127.0.0.1:4811 --workload bitcount --structure RegFile \
//!     --faults 200 [--seed S] [--small] [--mode end|instr] [--burst N] \
//!     [--checkpoints N] [--priority N] [--weight N] [--quota N] \
//!     [--wait] [--verify] [--timeout-s N]
//! ```

use avgi_grid::service::{reference_outcome, reference_report};
use avgi_grid::{ConfigPreset, SubmitSpec};
use avgi_muarch::Structure;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const USAGE: &str = "grid_submit --addr ADDR --workload NAME --structure IDENT [--faults N] \
     [--seed S] [--small] [--mode end|instr] [--burst N] [--checkpoints N] \
     [--priority N] [--weight N] [--quota N] [--wait] [--verify] [--timeout-s N]";

/// One blocking request/response exchange (the surface is one-shot:
/// `Connection: close`). Returns `(status, body)`.
fn http(addr: &str, request: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n"),
    )
}

/// Pulls the integer value of a top-level `"key":N` out of a flat JSON
/// object (the status body is service-generated, so this stays simple).
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn main() {
    let mut addr = "127.0.0.1:4811".to_string();
    let mut spec = SubmitSpec::new("bitcount", Structure::RegFile, 200, 0xA461_0001);
    let mut wait = false;
    let mut verify = false;
    let mut timeout = Duration::from_secs(600);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value\nusage: {USAGE}"))
        };
        match a.as_str() {
            "--addr" => addr = next("--addr"),
            "--workload" => spec.workload = next("--workload"),
            "--structure" => {
                let s = next("--structure");
                spec.structure =
                    Structure::from_ident(&s).unwrap_or_else(|| panic!("unknown structure `{s}`"));
            }
            "--faults" => spec.faults = next("--faults").parse().expect("--faults N"),
            "--seed" => spec.seed = next("--seed").parse().expect("--seed S"),
            "--small" => spec.preset = ConfigPreset::Small,
            "--mode" => {
                spec.mode = match next("--mode").as_str() {
                    "end" => avgi_faultsim::RunMode::EndToEnd,
                    "instr" => avgi_faultsim::RunMode::Instrumented,
                    other => panic!("unknown mode `{other}` (end|instr)"),
                };
            }
            "--burst" => spec.burst_width = next("--burst").parse().expect("--burst N"),
            "--checkpoints" => {
                spec.checkpoints = next("--checkpoints").parse().expect("--checkpoints N");
            }
            "--priority" => spec.priority = next("--priority").parse().expect("--priority N"),
            "--weight" => spec.weight = next("--weight").parse().expect("--weight N"),
            "--quota" => spec.quota = next("--quota").parse().expect("--quota N"),
            "--wait" => wait = true,
            "--verify" => verify = true,
            "--timeout-s" => {
                timeout = Duration::from_secs(next("--timeout-s").parse().expect("--timeout-s N"));
            }
            other => panic!("unknown argument `{other}`\nusage: {USAGE}"),
        }
    }

    let body = spec.to_json();
    let request = format!(
        "POST /campaigns HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, resp) = http(&addr, &request).unwrap_or_else(|e| panic!("submit failed: {e}"));
    if status != 201 {
        eprintln!("[submit] rejected ({status}): {resp}");
        std::process::exit(1);
    }
    let id = json_u64(&resp, "id").expect("submit response carries an id");
    eprintln!("[submit] campaign {id} accepted ({} faults)", spec.faults);
    if !wait && !verify {
        println!("{resp}");
        return;
    }

    let started = Instant::now();
    let final_body = loop {
        if started.elapsed() > timeout {
            eprintln!("[submit] timed out waiting for campaign {id}");
            std::process::exit(1);
        }
        match get(&addr, &format!("/campaigns/{id}")) {
            Ok((200, body)) if body.contains("\"done\":true") => break body,
            Ok((200, _)) | Err(_) => {}
            Ok((status, body)) => {
                eprintln!("[submit] status poll failed ({status}): {body}");
                std::process::exit(1);
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    println!("{final_body}");
    if !verify {
        return;
    }

    // The report is the tail of the status body: `...,"report":{...}}`.
    let report = final_body
        .find("\"report\":")
        .map(|at| &final_body[at + "\"report\":".len()..final_body.len() - 1])
        .expect("finished campaign carries a report");
    let reference = reference_outcome(&spec).expect("workload accepted by the service");
    let expect = reference_report(
        &spec.workload,
        spec.structure,
        reference.result.golden_cycles,
        &reference.result.results,
        &reference.telemetry,
    );
    if report == expect {
        eprintln!(
            "[verify] OK: campaign {id} report bit-identical to single-process ({} results)",
            reference.result.len()
        );
    } else {
        eprintln!("[verify] FAIL: campaign {id} report differs from single-process reference");
        eprintln!("[verify] service: {report}");
        eprintln!("[verify]   local: {expect}");
        std::process::exit(1);
    }
}
