//! Durable, resumable campaign journals.
//!
//! A journal is a line-oriented file: one JSON header identifying the
//! campaign — (workload, structure, seed, mode, burst width, fault count,
//! golden cycles, microarchitecture-config hash) — followed by one JSON
//! record per completed [`InjectionResult`], tagged with its fault index.
//! Workers stream records as runs finish (in any order; the index makes
//! order irrelevant) and flush per record, so an interrupted campaign
//! loses at most the in-flight runs.
//!
//! Every line carries a CRC32 suffix (`{json} {crc:08x}`), so corruption
//! anywhere in the file — not just a torn tail — is detected. Loading
//! stops at the first line that fails its checksum or fails to parse (the
//! classic torn write after a crash, or a flipped bit mid-file) and the
//! affected runs are simply re-executed on resume. Because every run is
//! deterministic, a resumed campaign is bit-identical to an uninterrupted
//! one. A journal whose header does not match the resuming campaign's key
//! is rejected with [`CampaignError::JournalMismatch`] rather than
//! silently mixing incompatible results. The header itself is created
//! atomically (temp file + `fsync` + rename), so no crash window can leave
//! a headerless journal behind; how aggressively record appends reach
//! stable storage is the caller's [`DurabilityPolicy`].

use crate::campaign::{CampaignConfig, InjectionResult, RunMode};
use crate::error::CampaignError;
use crate::json::{escape, parse, Json};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::{Fault, FaultSite, Structure};
use avgi_muarch::mem::MemFault;
use avgi_muarch::run::{RunOutcome, TrapKind};
use avgi_muarch::trace::{CommitRecord, Deviation};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// Journal format version; bumped on any incompatible record change.
/// Version 2 added the per-line CRC32 suffix.
pub const JOURNAL_VERSION: u64 = 2;

/// CRC32 (IEEE 802.3, reflected) over `bytes` — the checksum behind both
/// journal line suffixes and `avgi-grid` frame trailers. Bitwise rather
/// than table-driven: integrity checks are nowhere near any hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Seals one journal line: `{json} {crc:08x}\n`. The checksum covers the
/// JSON text only; `json` must be a compact (space-free) single line, which
/// everything [`record_line`] and the header emit is. Public so other
/// journal-shaped logs (e.g. the grid's submission queue) share the exact
/// sealing format instead of reinventing it.
pub fn seal(json: &str) -> String {
    format!("{json} {:08x}\n", crc32(json.as_bytes()))
}

/// Verifies and strips a sealed line's checksum suffix, returning the JSON
/// text. `line` must already be newline-trimmed.
pub fn unseal(line: &str) -> Result<&str, String> {
    let (json, suffix) = line
        .rsplit_once(' ')
        .ok_or_else(|| "missing checksum suffix".to_string())?;
    let expected =
        u32::from_str_radix(suffix, 16).map_err(|_| format!("bad checksum suffix {suffix:?}"))?;
    let found = crc32(json.as_bytes());
    if expected != found {
        return Err(format!(
            "checksum mismatch: line says {expected:08x}, content is {found:08x}"
        ));
    }
    Ok(json)
}

/// How aggressively journal appends are pushed to stable storage.
///
/// Every append always flushes to the OS, so a *process* crash loses at
/// most the in-flight record under either policy; the policies differ only
/// in what a *machine* crash (power cut, kernel panic) can take with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// Flush only (the default): the OS page cache owns the tail, so a
    /// machine crash may lose recently appended records. They are simply
    /// re-executed on resume — for deterministic campaigns this costs
    /// wall-clock, never correctness.
    #[default]
    Flush,
    /// Additionally `fsync` after every `n` appends (and on
    /// [`Journal::sync`]), bounding machine-crash loss to `n - 1` records
    /// at the cost of a disk round-trip per `n` appends. `FsyncEveryN(1)`
    /// is classic write-ahead-log durability.
    FsyncEveryN(u64),
}

/// FNV-1a hash of the microarchitecture configuration (over its canonical
/// `Debug` rendering): campaigns under different configurations must never
/// share a journal.
pub fn config_hash(cfg: &MuarchConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{cfg:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything that identifies a campaign for resume purposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignKey {
    /// Workload name.
    pub workload: String,
    /// Target structure.
    pub structure: Structure,
    /// Sampling seed.
    pub seed: u64,
    /// Run mode.
    pub mode: RunMode,
    /// Multi-bit burst width.
    pub burst_width: u32,
    /// Number of injections.
    pub faults: usize,
    /// Fault-free execution length (pins the golden run).
    pub golden_cycles: u64,
    /// [`config_hash`] of the microarchitecture configuration.
    pub config_hash: u64,
}

impl CampaignKey {
    /// Builds the key for one campaign.
    pub fn new(
        workload: &str,
        cfg: &MuarchConfig,
        golden_cycles: u64,
        ccfg: &CampaignConfig,
    ) -> Self {
        CampaignKey {
            workload: workload.to_string(),
            structure: ccfg.structure,
            seed: ccfg.seed,
            mode: ccfg.mode,
            burst_width: ccfg.burst_width,
            faults: ccfg.faults,
            golden_cycles,
            config_hash: config_hash(cfg),
        }
    }
}

fn mode_fields(mode: RunMode) -> (&'static str, Option<u64>, bool) {
    match mode {
        RunMode::EndToEnd => ("EndToEnd", None, false),
        RunMode::Instrumented => ("Instrumented", None, false),
        RunMode::FirstDeviation { ert_window } => ("FirstDeviation", ert_window, true),
    }
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

fn header_line(key: &CampaignKey) -> String {
    let (mode, ert, _) = mode_fields(key.mode);
    format!(
        "{{\"kind\":\"avgi-campaign-journal\",\"version\":{},\"workload\":\"{}\",\"structure\":\"{}\",\"seed\":{},\"mode\":\"{}\",\"ert_window\":{},\"burst\":{},\"faults\":{},\"golden_cycles\":{},\"config_hash\":{}}}\n",
        JOURNAL_VERSION,
        escape(&key.workload),
        key.structure.ident(),
        key.seed,
        mode,
        opt_u64(ert),
        key.burst_width,
        key.faults,
        key.golden_cycles,
        key.config_hash,
    )
}

fn parse_header(line: &str) -> Result<CampaignKey, CampaignError> {
    let bad = |m: &str| CampaignError::JournalHeader(m.to_string());
    let v = parse(line).map_err(CampaignError::JournalHeader)?;
    if v.get("kind").and_then(Json::as_str) != Some("avgi-campaign-journal") {
        return Err(bad("missing journal kind marker"));
    }
    let version = v
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("missing version"))?;
    if version != JOURNAL_VERSION {
        return Err(CampaignError::JournalMismatch {
            field: "version",
            expected: JOURNAL_VERSION.to_string(),
            found: version.to_string(),
        });
    }
    let structure = v
        .get("structure")
        .and_then(Json::as_str)
        .and_then(Structure::from_ident)
        .ok_or_else(|| bad("bad structure"))?;
    let ert = match v.get("ert_window") {
        None | Some(Json::Null) => None,
        Some(w) => Some(w.as_u64().ok_or_else(|| bad("bad ert_window"))?),
    };
    let mode = match v.get("mode").and_then(Json::as_str) {
        Some("EndToEnd") => RunMode::EndToEnd,
        Some("Instrumented") => RunMode::Instrumented,
        Some("FirstDeviation") => RunMode::FirstDeviation { ert_window: ert },
        _ => return Err(bad("bad mode")),
    };
    Ok(CampaignKey {
        workload: v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing workload"))?
            .to_string(),
        structure,
        seed: v
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing seed"))?,
        mode,
        burst_width: v
            .get("burst")
            .and_then(Json::as_u32)
            .ok_or_else(|| bad("missing burst"))?,
        faults: v
            .get("faults")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing faults"))? as usize,
        golden_cycles: v
            .get("golden_cycles")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing golden_cycles"))?,
        config_hash: v
            .get("config_hash")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing config_hash"))?,
    })
}

fn check_key(expected: &CampaignKey, found: &CampaignKey) -> Result<(), CampaignError> {
    let mismatch = |field: &'static str, e: String, f: String| {
        Err(CampaignError::JournalMismatch {
            field,
            expected: e,
            found: f,
        })
    };
    if found.workload != expected.workload {
        return mismatch(
            "workload",
            expected.workload.clone(),
            found.workload.clone(),
        );
    }
    if found.structure != expected.structure {
        return mismatch(
            "structure",
            expected.structure.ident().into(),
            found.structure.ident().into(),
        );
    }
    if found.seed != expected.seed {
        return mismatch("seed", expected.seed.to_string(), found.seed.to_string());
    }
    if found.mode != expected.mode {
        return mismatch(
            "mode",
            format!("{:?}", expected.mode),
            format!("{:?}", found.mode),
        );
    }
    if found.burst_width != expected.burst_width {
        return mismatch(
            "burst",
            expected.burst_width.to_string(),
            found.burst_width.to_string(),
        );
    }
    if found.faults != expected.faults {
        return mismatch(
            "faults",
            expected.faults.to_string(),
            found.faults.to_string(),
        );
    }
    if found.golden_cycles != expected.golden_cycles {
        return mismatch(
            "golden_cycles",
            expected.golden_cycles.to_string(),
            found.golden_cycles.to_string(),
        );
    }
    if found.config_hash != expected.config_hash {
        return mismatch(
            "config_hash",
            expected.config_hash.to_string(),
            found.config_hash.to_string(),
        );
    }
    Ok(())
}

/// The resume cross-check every journal consumer runs: each journaled
/// result at a campaign-global index in `offset..offset + faults.len()`
/// must name the fault the campaign regenerates for that index
/// (`faults[index - offset]`). The key already pins the sampling inputs, so
/// a [`CampaignError::JournalMismatch`] on `fault` means the journal is
/// corrupt in a way the header check could not see — or, for an adaptive
/// schedule, that knobs outside the header changed between runs.
pub fn check_resumed_faults(
    done: &BTreeMap<usize, InjectionResult>,
    faults: &[Fault],
    offset: usize,
) -> Result<(), CampaignError> {
    for (&i, r) in done.range(offset..offset + faults.len()) {
        let expected = faults[i - offset];
        if r.fault != expected {
            return Err(CampaignError::JournalMismatch {
                field: "fault",
                expected: format!("{expected:?}"),
                found: format!("{:?}", r.fault),
            });
        }
    }
    Ok(())
}

// ---- record encoding ----

fn outcome_json(o: RunOutcome) -> String {
    match o {
        RunOutcome::Completed => "{\"t\":\"Completed\"}".into(),
        RunOutcome::Watchdog => "{\"t\":\"Watchdog\"}".into(),
        RunOutcome::StoppedAtDeviation => "{\"t\":\"StoppedAtDeviation\"}".into(),
        RunOutcome::ErtExpired => "{\"t\":\"ErtExpired\"}".into(),
        RunOutcome::WallClockExpired => "{\"t\":\"WallClockExpired\"}".into(),
        RunOutcome::SimAbort => "{\"t\":\"SimAbort\"}".into(),
        RunOutcome::IntegrityViolation(s) => {
            format!(
                "{{\"t\":\"IntegrityViolation\",\"structure\":\"{}\"}}",
                s.ident()
            )
        }
        RunOutcome::Trap(TrapKind::UndefinedInstruction) => {
            "{\"t\":\"Trap\",\"trap\":\"UndefinedInstruction\"}".into()
        }
        RunOutcome::Trap(TrapKind::Memory(m)) => {
            let (tag, addr) = match m {
                MemFault::OutOfRange(a) => ("OutOfRange", a),
                MemFault::WriteToCode(a) => ("WriteToCode", a),
                MemFault::Misaligned(a) => ("Misaligned", a),
                MemFault::ExecuteFault(a) => ("ExecuteFault", a),
            };
            format!("{{\"t\":\"Trap\",\"trap\":\"Memory\",\"mem\":\"{tag}\",\"addr\":{addr}}}")
        }
    }
}

fn outcome_from_json(v: &Json) -> Result<RunOutcome, String> {
    match v.get("t").and_then(Json::as_str) {
        Some("Completed") => Ok(RunOutcome::Completed),
        Some("Watchdog") => Ok(RunOutcome::Watchdog),
        Some("StoppedAtDeviation") => Ok(RunOutcome::StoppedAtDeviation),
        Some("ErtExpired") => Ok(RunOutcome::ErtExpired),
        Some("WallClockExpired") => Ok(RunOutcome::WallClockExpired),
        Some("SimAbort") => Ok(RunOutcome::SimAbort),
        Some("IntegrityViolation") => v
            .get("structure")
            .and_then(Json::as_str)
            .and_then(Structure::from_ident)
            .map(RunOutcome::IntegrityViolation)
            .ok_or_else(|| "bad integrity-violation structure".into()),
        Some("Trap") => match v.get("trap").and_then(Json::as_str) {
            Some("UndefinedInstruction") => Ok(RunOutcome::Trap(TrapKind::UndefinedInstruction)),
            Some("Memory") => {
                let addr = v
                    .get("addr")
                    .and_then(Json::as_u32)
                    .ok_or("bad trap addr")?;
                let m = match v.get("mem").and_then(Json::as_str) {
                    Some("OutOfRange") => MemFault::OutOfRange(addr),
                    Some("WriteToCode") => MemFault::WriteToCode(addr),
                    Some("Misaligned") => MemFault::Misaligned(addr),
                    Some("ExecuteFault") => MemFault::ExecuteFault(addr),
                    _ => return Err("bad memory-fault kind".into()),
                };
                Ok(RunOutcome::Trap(TrapKind::Memory(m)))
            }
            _ => Err("bad trap kind".into()),
        },
        _ => Err("bad outcome tag".into()),
    }
}

fn commit_json(r: &CommitRecord) -> String {
    format!("[{},{},{},{},{}]", r.cycle, r.pc, r.raw, r.ea, r.val)
}

fn commit_from_json(v: &Json) -> Result<CommitRecord, String> {
    let a = v.as_array().ok_or("commit record is not an array")?;
    if a.len() != 5 {
        return Err("commit record needs 5 fields".into());
    }
    let u = |i: usize| a[i].as_u64().ok_or("bad commit field");
    Ok(CommitRecord {
        cycle: u(0)?,
        pc: a[1].as_u32().ok_or("bad pc")?,
        raw: a[2].as_u32().ok_or("bad raw")?,
        ea: a[3].as_u32().ok_or("bad ea")?,
        val: a[4].as_u32().ok_or("bad val")?,
    })
}

/// Serializes one record line (with trailing newline).
pub fn record_line(idx: usize, r: &InjectionResult) -> String {
    let deviation = match &r.deviation {
        None => "null".to_string(),
        Some(d) => format!(
            "{{\"index\":{},\"golden\":{},\"faulty\":{}}}",
            d.index,
            commit_json(&d.golden),
            commit_json(&d.faulty)
        ),
    };
    let output_matches = match r.output_matches {
        None => "null",
        Some(true) => "true",
        Some(false) => "false",
    };
    let abort = match &r.abort_message {
        None => "null".to_string(),
        Some(m) => format!("\"{}\"", escape(m)),
    };
    format!(
        "{{\"i\":{},\"fault\":{{\"structure\":\"{}\",\"bit\":{},\"cycle\":{}}},\"outcome\":{},\"deviation\":{},\"output_matches\":{},\"cycles\":{},\"post\":{},\"abort\":{}}}\n",
        idx,
        r.fault.site.structure.ident(),
        r.fault.site.bit,
        r.fault.cycle,
        outcome_json(r.outcome),
        deviation,
        output_matches,
        r.cycles,
        r.post_inject_cycles,
        abort,
    )
}

/// Parses one record line back into `(fault index, result)`.
pub fn parse_record(line: &str) -> Result<(usize, InjectionResult), String> {
    record_from_json(&parse(line)?)
}

/// Decodes one already-parsed record object back into
/// `(fault index, result)` — the same shape [`record_line`] writes, also
/// used as the per-result element of `avgi-grid` batch frames.
pub fn record_from_json(v: &Json) -> Result<(usize, InjectionResult), String> {
    let idx = v.get("i").and_then(Json::as_u64).ok_or("missing index")? as usize;
    let f = v.get("fault").ok_or("missing fault")?;
    let fault = Fault {
        site: FaultSite {
            structure: f
                .get("structure")
                .and_then(Json::as_str)
                .and_then(Structure::from_ident)
                .ok_or("bad fault structure")?,
            bit: f.get("bit").and_then(Json::as_u64).ok_or("bad fault bit")?,
        },
        cycle: f
            .get("cycle")
            .and_then(Json::as_u64)
            .ok_or("bad fault cycle")?,
    };
    let outcome = outcome_from_json(v.get("outcome").ok_or("missing outcome")?)?;
    let deviation = match v.get("deviation") {
        None | Some(Json::Null) => None,
        Some(d) => Some(Deviation {
            index: d
                .get("index")
                .and_then(Json::as_u64)
                .ok_or("bad deviation index")?,
            golden: commit_from_json(d.get("golden").ok_or("missing golden")?)?,
            faulty: commit_from_json(d.get("faulty").ok_or("missing faulty")?)?,
        }),
    };
    let output_matches = match v.get("output_matches") {
        None | Some(Json::Null) => None,
        Some(b) => Some(b.as_bool().ok_or("bad output_matches")?),
    };
    let abort_message = match v.get("abort") {
        None | Some(Json::Null) => None,
        Some(s) => Some(s.as_str().ok_or("bad abort message")?.to_string()),
    };
    Ok((
        idx,
        InjectionResult {
            fault,
            outcome,
            deviation,
            output_matches,
            cycles: v
                .get("cycles")
                .and_then(Json::as_u64)
                .ok_or("missing cycles")?,
            post_inject_cycles: v.get("post").and_then(Json::as_u64).ok_or("missing post")?,
            abort_message,
        },
    ))
}

/// An open, append-mode campaign journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    policy: DurabilityPolicy,
    /// Appends since the last `fsync` (only tracked under `FsyncEveryN`).
    unsynced: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path` with the default
    /// [`DurabilityPolicy::Flush`]; see [`Journal::open_with`].
    pub fn open(
        path: &Path,
        key: &CampaignKey,
    ) -> Result<(Journal, BTreeMap<usize, InjectionResult>), CampaignError> {
        Journal::open_with(path, key, DurabilityPolicy::Flush)
    }

    /// Opens (or creates) the journal at `path` for the campaign identified
    /// by `key`, returning the already-journaled results.
    ///
    /// * No file / empty file: a fresh journal is created with a header,
    ///   atomically — the header is written and fsynced under a temporary
    ///   name, then renamed into place, so a crash mid-create leaves either
    ///   no journal or a complete one, never a torn header.
    /// * Existing file: the header must match `key`
    ///   ([`CampaignError::JournalMismatch`] otherwise); records are loaded
    ///   up to the first line that fails its CRC or fails to parse, so both
    ///   a torn tail from an interrupted campaign and a corrupt record
    ///   mid-file are recovered from cleanly (the dropped runs re-execute
    ///   deterministically on resume).
    pub fn open_with(
        path: &Path,
        key: &CampaignKey,
        policy: DurabilityPolicy,
    ) -> Result<(Journal, BTreeMap<usize, InjectionResult>), CampaignError> {
        let mut done = BTreeMap::new();
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        if existing.is_empty() {
            // Fresh journal (no file, or an empty one from an interrupted
            // create): build it under a temp name and rename into place.
            let tmp = std::path::PathBuf::from(format!("{}.tmp", path.display()));
            let mut tmpf = File::create(&tmp)?;
            tmpf.write_all(seal(header_line(key).trim_end()).as_bytes())?;
            tmpf.sync_all()?;
            drop(tmpf);
            std::fs::rename(&tmp, path)?;
            let file = OpenOptions::new().append(true).open(path)?;
            return Ok((
                Journal {
                    file,
                    policy,
                    unsynced: 0,
                },
                done,
            ));
        }
        let file = OpenOptions::new().append(true).open(path)?;
        let mut lines = existing.split_inclusive('\n');
        let mut valid_len = 0u64;
        match lines.next() {
            None | Some("") => unreachable!("existing is non-empty"),
            Some(header) if header.ends_with('\n') => {
                let json = unseal(header.trim_end())
                    .map_err(|e| CampaignError::JournalHeader(format!("bad header: {e}")))?;
                let found = parse_header(json)?;
                check_key(key, &found)?;
                valid_len += header.len() as u64;
                for line in lines {
                    if !line.ends_with('\n') {
                        break; // torn tail: re-run this record
                    }
                    match unseal(line.trim_end()).and_then(parse_record) {
                        Ok((idx, r)) if idx < key.faults => {
                            done.insert(idx, r);
                        }
                        Ok(_) => {}      // stale index beyond the campaign
                        Err(_) => break, // corruption: drop the rest
                    }
                    valid_len += line.len() as u64;
                }
            }
            Some(_) => {
                // Header itself was torn; the journal holds nothing usable.
                return Err(CampaignError::JournalHeader("truncated header line".into()));
            }
        }
        // Self-heal: chop any torn/corrupt tail so fresh appends start on a
        // clean line boundary.
        if valid_len < existing.len() as u64 {
            file.set_len(valid_len)?;
        }
        Ok((
            Journal {
                file,
                policy,
                unsynced: 0,
            },
            done,
        ))
    }

    /// Appends one completed result (CRC-sealed) and flushes it to the OS,
    /// so a process crash immediately after loses nothing; `fsync`s per the
    /// journal's [`DurabilityPolicy`].
    pub fn append(&mut self, idx: usize, r: &InjectionResult) -> std::io::Result<()> {
        self.file
            .write_all(seal(record_line(idx, r).trim_end()).as_bytes())?;
        self.file.flush()?;
        if let DurabilityPolicy::FsyncEveryN(n) = self.policy {
            self.unsynced += 1;
            if self.unsynced >= n.max(1) {
                self.file.sync_data()?;
                self.unsynced = 0;
            }
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage, regardless of
    /// policy. Called at campaign completion; also useful before handing a
    /// journal path to another process.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Best-effort: don't let an FsyncEveryN tail ride only in the page
        // cache just because the journal went out of scope.
        if self.unsynced > 0 {
            let _ = self.file.sync_data();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(outcome: RunOutcome) -> InjectionResult {
        InjectionResult {
            fault: Fault {
                site: FaultSite {
                    structure: Structure::L1DTag,
                    bit: 4321,
                },
                cycle: 987,
            },
            outcome,
            deviation: Some(Deviation {
                index: 7,
                golden: CommitRecord {
                    cycle: 10,
                    pc: 4,
                    raw: 0xdead_beef,
                    ea: 64,
                    val: 5,
                },
                faulty: CommitRecord {
                    cycle: 11,
                    pc: 4,
                    raw: 0xdead_beef,
                    ea: 64,
                    val: 9,
                },
            }),
            output_matches: Some(false),
            cycles: 12345,
            post_inject_cycles: 678,
            abort_message: None,
        }
    }

    #[test]
    fn records_round_trip_for_every_outcome() {
        use avgi_muarch::mem::MemFault;
        let outcomes = [
            RunOutcome::Completed,
            RunOutcome::Watchdog,
            RunOutcome::StoppedAtDeviation,
            RunOutcome::ErtExpired,
            RunOutcome::WallClockExpired,
            RunOutcome::SimAbort,
            RunOutcome::IntegrityViolation(Structure::Rob),
            RunOutcome::Trap(TrapKind::UndefinedInstruction),
            RunOutcome::Trap(TrapKind::Memory(MemFault::OutOfRange(0x1234))),
            RunOutcome::Trap(TrapKind::Memory(MemFault::WriteToCode(8))),
            RunOutcome::Trap(TrapKind::Memory(MemFault::Misaligned(3))),
            RunOutcome::Trap(TrapKind::Memory(MemFault::ExecuteFault(0))),
        ];
        for (i, &outcome) in outcomes.iter().enumerate() {
            let mut r = sample_result(outcome);
            if outcome == RunOutcome::SimAbort {
                r.abort_message = Some("index out of bounds: \"quoted\"\npanic".into());
            }
            let line = record_line(i, &r);
            assert!(line.ends_with('\n'));
            let (idx, back) = parse_record(line.trim_end()).unwrap();
            assert_eq!(idx, i);
            assert_eq!(back, r, "outcome {outcome:?} did not round-trip");
        }
    }

    #[test]
    fn minimal_fields_round_trip() {
        let r = InjectionResult {
            fault: Fault {
                site: FaultSite {
                    structure: Structure::RegFile,
                    bit: 0,
                },
                cycle: 0,
            },
            outcome: RunOutcome::Completed,
            deviation: None,
            output_matches: None,
            cycles: u64::MAX,
            post_inject_cycles: 0,
            abort_message: None,
        };
        let (idx, back) = parse_record(record_line(0, &r).trim_end()).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(back, r);
    }

    #[test]
    fn header_round_trips_and_mismatch_is_detected() {
        let cfg = MuarchConfig::big();
        let key = CampaignKey {
            workload: "sha".into(),
            structure: Structure::Itlb,
            seed: 42,
            mode: RunMode::FirstDeviation {
                ert_window: Some(2000),
            },
            burst_width: 2,
            faults: 64,
            golden_cycles: 9001,
            config_hash: config_hash(&cfg),
        };
        let parsed = parse_header(header_line(&key).trim_end()).unwrap();
        assert_eq!(parsed, key);
        assert!(check_key(&key, &parsed).is_ok());
        let other = CampaignKey {
            seed: 43,
            ..key.clone()
        };
        match check_key(&key, &other) {
            Err(CampaignError::JournalMismatch { field: "seed", .. }) => {}
            other => panic!("expected seed mismatch, got {other:?}"),
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sealed_lines_unseal_and_reject_tampering() {
        let line = seal("{\"i\":3}");
        assert!(line.ends_with('\n'));
        assert_eq!(unseal(line.trim_end()).unwrap(), "{\"i\":3}");
        // Flip one content bit: the checksum no longer matches.
        let mut bytes = line.trim_end().as_bytes().to_vec();
        bytes[3] ^= 0x01;
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(unseal(&tampered).unwrap_err().contains("checksum mismatch"));
        // Damage the suffix itself.
        assert!(unseal("{\"i\":3}").unwrap_err().contains("suffix"));
    }

    #[test]
    fn config_hash_distinguishes_configs() {
        let big = MuarchConfig::big();
        let mut small = MuarchConfig::big();
        small.phys_regs /= 2;
        assert_ne!(config_hash(&big), config_hash(&small));
        assert_eq!(config_hash(&big), config_hash(&MuarchConfig::big()));
    }
}
