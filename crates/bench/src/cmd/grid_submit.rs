//! Campaign submission client for `grid_service` (`DESIGN.md` §15).
//!
//! Talks to the service's HTTP surface: submits one campaign, optionally
//! waits for completion, and with `--verify` reruns the identical campaign
//! single-process in this process and compares the service's merged report
//! byte-for-byte — the per-tenant bit-identity acceptance check.
//!
//! ```text
//! avgi grid_submit --addr 127.0.0.1:4811 --workload bitcount --structure RegFile \
//!     --faults 200 [--seed S] [--small] [--mode end|instr] [--burst N] \
//!     [--checkpoints N] [--priority N] [--weight N] [--quota N] \
//!     [--wait] [--verify] [--timeout-s N]
//! ```

use crate::args::submit_spec;
use avgi_faultsim::json;
use avgi_grid::service::{reference_outcome, reference_report};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

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

pub fn run(mut a: crate::Args) -> ExitCode {
    let addr: String = a
        .value("--addr ADDR")
        .unwrap_or_else(|| "127.0.0.1:4811".into());
    let mut spec = submit_spec(&mut a, 200);
    spec.priority = a.value("--priority N").unwrap_or(spec.priority);
    spec.weight = a.value("--weight N").unwrap_or(spec.weight);
    spec.quota = a.value("--quota N").unwrap_or(spec.quota);
    let wait = a.flag("--wait");
    let verify = a.flag("--verify");
    let timeout = Duration::from_secs(a.value("--timeout-s N").unwrap_or(600));
    a.finish();

    let body = spec.to_json();
    let request = format!(
        "POST /campaigns HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, resp) = match http(&addr, &request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[submit] could not reach {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let id = json::parse(&resp).and_then(|v| v.u64_at("id"));
    let (201, Ok(id)) = (status, id) else {
        eprintln!("[submit] rejected ({status}): {resp}");
        return ExitCode::FAILURE;
    };
    eprintln!("[submit] campaign {id} accepted ({} faults)", spec.faults);
    if !wait && !verify {
        println!("{resp}");
        return ExitCode::SUCCESS;
    }

    let started = Instant::now();
    let final_body = loop {
        if started.elapsed() > timeout {
            eprintln!("[submit] timed out waiting for campaign {id}");
            return ExitCode::FAILURE;
        }
        match get(&addr, &format!("/campaigns/{id}")) {
            Ok((200, body)) => {
                if json::parse(&body).and_then(|v| v.bool_at("done")) == Ok(true) {
                    break body;
                }
            }
            Err(_) => {}
            Ok((status, body)) => {
                eprintln!("[submit] status poll failed ({status}): {body}");
                return ExitCode::FAILURE;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    println!("{final_body}");
    if !verify {
        return ExitCode::SUCCESS;
    }

    // The report is the tail of the status body: `...,"report":{...}}`.
    let Some(report) = final_body
        .find("\"report\":")
        .map(|at| &final_body[at + "\"report\":".len()..final_body.len() - 1])
    else {
        eprintln!("[verify] FAIL: finished campaign {id} carries no report");
        return ExitCode::FAILURE;
    };
    let reference = match reference_outcome(&spec) {
        Ok(reference) => reference,
        Err(e) => {
            eprintln!("[verify] FAIL: no single-process reference: {e}");
            return ExitCode::FAILURE;
        }
    };
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
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
