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
//! classic torn write after a crash, a flipped bit mid-file, a byte that is
//! no longer UTF-8) and the affected runs are simply re-executed on resume:
//! one corrupt byte costs the records from its line on, never the file.
//! Because every run is deterministic, a resumed campaign is bit-identical
//! to an uninterrupted one. A journal whose header does not match the
//! resuming campaign's key is rejected with
//! [`CampaignError::JournalMismatch`] rather than silently mixing
//! incompatible results. The header itself is created atomically (temp
//! file, `fsync`, rename), so no crash window can leave a headerless
//! journal behind; how aggressively record appends reach stable storage is
//! the caller's [`DurabilityPolicy`].
//!
//! The sealed line log itself — create, replay, truncate, append — is
//! [`SealedLog`], shared with the grid's submission queue; every document
//! is written and read through [`crate::json`].

use crate::campaign::{CampaignConfig, InjectionResult, RunMode};
use crate::error::CampaignError;
use crate::json::{parse, Json, Writer};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::{Fault, FaultSite, Structure};
use avgi_muarch::mem::MemFault;
use avgi_muarch::run::{RunOutcome, TrapKind};
use avgi_muarch::trace::{CommitRecord, Deviation};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

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
    let mut line = String::with_capacity(json.len() + 10);
    line.push_str(json);
    push_checksum(&mut line);
    line
}

/// Completes the JSON text in `line` into a sealed line, in place.
fn push_checksum(line: &mut String) {
    use core::fmt::Write as _;
    let crc = crc32(line.as_bytes());
    let _ = writeln!(line, " {crc:08x}");
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

/// Reads the structure-valued field `key`: what `key(..).str(s.ident())`
/// writes, the one spelling every document uses.
pub fn structure_at(v: &Json, key: &str) -> Result<Structure, String> {
    let ident = v.str_at(key)?;
    Structure::from_ident(ident).ok_or_else(|| format!("unknown `{key}` {ident:?}"))
}

/// Writes a [`RunMode`] as the `mode` / `ert_window` field pair of the
/// three campaign documents (journal header, and the grid's campaign and
/// submission specs).
pub fn write_mode(w: &mut Writer<'_>, mode: RunMode) {
    let (name, ert_window) = match mode {
        RunMode::EndToEnd => ("EndToEnd", None),
        RunMode::Instrumented => ("Instrumented", None),
        RunMode::FirstDeviation { ert_window } => ("FirstDeviation", ert_window),
    };
    w.key("mode").str(name);
    w.key("ert_window").opt(ert_window, Writer::u64);
}

/// Reads what [`write_mode`] writes; `None` when the document names no
/// mode (a submission may leave it to the default).
pub fn read_mode(v: &Json) -> Result<Option<RunMode>, String> {
    let ert_window = v.opt("ert_window", Json::u64_at)?;
    v.opt("mode", Json::str_at)?
        .map(|name| match name {
            "EndToEnd" => Ok(RunMode::EndToEnd),
            "Instrumented" => Ok(RunMode::Instrumented),
            "FirstDeviation" => Ok(RunMode::FirstDeviation { ert_window }),
            other => Err(format!("unknown `mode` {other:?}")),
        })
        .transpose()
}

fn write_header(w: &mut Writer<'_>, key: &CampaignKey) {
    w.object(|w| {
        w.key("kind").str("avgi-campaign-journal");
        w.key("version").u64(JOURNAL_VERSION);
        w.key("workload").str(&key.workload);
        w.key("structure").str(key.structure.ident());
        w.key("seed").u64(key.seed);
        write_mode(w, key.mode);
        w.key("burst").u64(key.burst_width.into());
        w.key("faults").usize(key.faults);
        w.key("golden_cycles").u64(key.golden_cycles);
        w.key("config_hash").u64(key.config_hash);
    });
}

/// The header's fields, in written order. A journal resumes only the
/// campaign that would write the same value for every one of them.
const HEADER_FIELDS: [&str; 11] = [
    "kind",
    "version",
    "workload",
    "structure",
    "seed",
    "mode",
    "ert_window",
    "burst",
    "faults",
    "golden_cycles",
    "config_hash",
];

/// Compares the header found on disk with the one the resuming campaign
/// would write, field by field — no field is decoded, so none can be
/// decoded leniently.
fn check_header(expected: &Json, found: &Json) -> Result<(), CampaignError> {
    let show = |v: Option<&Json>| match v {
        Some(Json::Int(n)) => n.to_string(),
        Some(Json::Str(s)) => s.clone(),
        other => format!("{other:?}"),
    };
    for field in HEADER_FIELDS {
        let (want, got) = (expected.get(field), found.get(field));
        if want != got {
            return Err(CampaignError::JournalMismatch {
                field,
                expected: show(want),
                found: show(got),
            });
        }
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

fn write_outcome(w: &mut Writer<'_>, outcome: RunOutcome) {
    w.object(|w| {
        w.key("t").str(match outcome {
            RunOutcome::Completed => "Completed",
            RunOutcome::Watchdog => "Watchdog",
            RunOutcome::StoppedAtDeviation => "StoppedAtDeviation",
            RunOutcome::ErtExpired => "ErtExpired",
            RunOutcome::WallClockExpired => "WallClockExpired",
            RunOutcome::SimAbort => "SimAbort",
            RunOutcome::IntegrityViolation(_) => "IntegrityViolation",
            RunOutcome::Trap(_) => "Trap",
        });
        match outcome {
            RunOutcome::IntegrityViolation(s) => {
                w.key("structure").str(s.ident());
            }
            RunOutcome::Trap(TrapKind::UndefinedInstruction) => {
                w.key("trap").str("UndefinedInstruction");
            }
            RunOutcome::Trap(TrapKind::Memory(m)) => {
                let (kind, addr) = match m {
                    MemFault::OutOfRange(a) => ("OutOfRange", a),
                    MemFault::WriteToCode(a) => ("WriteToCode", a),
                    MemFault::Misaligned(a) => ("Misaligned", a),
                    MemFault::ExecuteFault(a) => ("ExecuteFault", a),
                };
                w.key("trap").str("Memory");
                w.key("mem").str(kind);
                w.key("addr").u64(addr.into());
            }
            _ => {}
        }
    });
}

fn outcome_from_json(v: &Json) -> Result<RunOutcome, String> {
    Ok(match v.str_at("t")? {
        "Completed" => RunOutcome::Completed,
        "Watchdog" => RunOutcome::Watchdog,
        "StoppedAtDeviation" => RunOutcome::StoppedAtDeviation,
        "ErtExpired" => RunOutcome::ErtExpired,
        "WallClockExpired" => RunOutcome::WallClockExpired,
        "SimAbort" => RunOutcome::SimAbort,
        "IntegrityViolation" => RunOutcome::IntegrityViolation(structure_at(v, "structure")?),
        "Trap" => RunOutcome::Trap(match v.str_at("trap")? {
            "UndefinedInstruction" => TrapKind::UndefinedInstruction,
            "Memory" => {
                let addr = v.u32_at("addr")?;
                TrapKind::Memory(match v.str_at("mem")? {
                    "OutOfRange" => MemFault::OutOfRange(addr),
                    "WriteToCode" => MemFault::WriteToCode(addr),
                    "Misaligned" => MemFault::Misaligned(addr),
                    "ExecuteFault" => MemFault::ExecuteFault(addr),
                    other => return Err(format!("unknown `mem` {other:?}")),
                })
            }
            other => return Err(format!("unknown `trap` {other:?}")),
        }),
        other => return Err(format!("unknown outcome `t` {other:?}")),
    })
}

fn write_commit(w: &mut Writer<'_>, r: &CommitRecord) {
    w.u64s([
        r.cycle,
        r.pc.into(),
        r.raw.into(),
        r.ea.into(),
        r.val.into(),
    ]);
}

fn commit_at(v: &Json, key: &str) -> Result<CommitRecord, String> {
    let bad = || format!("`{key}` is not a [cycle, pc, raw, ea, val] commit record");
    let [cycle, pc, raw, ea, val] = v.array_at(key)? else {
        return Err(bad());
    };
    let word = |field: &Json| field.as_u32().ok_or_else(bad);
    Ok(CommitRecord {
        cycle: cycle.as_u64().ok_or_else(bad)?,
        pc: word(pc)?,
        raw: word(raw)?,
        ea: word(ea)?,
        val: word(val)?,
    })
}

/// Writes one record object — the journal line's JSON, and the per-result
/// element of the grid's v2 batch frames and campaign reports, which append
/// it in place.
pub fn write_record(w: &mut Writer<'_>, idx: usize, r: &InjectionResult) {
    w.object(|w| {
        w.key("i").usize(idx);
        w.key("fault").object(|w| {
            w.key("structure").str(r.fault.site.structure.ident());
            w.key("bit").u64(r.fault.site.bit);
            w.key("cycle").u64(r.fault.cycle);
        });
        write_outcome(w.key("outcome"), r.outcome);
        w.key("deviation").opt(r.deviation.as_ref(), |w, d| {
            w.object(|w| {
                w.key("index").u64(d.index);
                write_commit(w.key("golden"), &d.golden);
                write_commit(w.key("faulty"), &d.faulty);
            })
        });
        w.key("output_matches").opt(r.output_matches, Writer::bool);
        w.key("cycles").u64(r.cycles);
        w.key("post").u64(r.post_inject_cycles);
        w.key("abort").opt(r.abort_message.as_deref(), Writer::str);
    });
}

/// Serializes one record line (with trailing newline).
pub fn record_line(idx: usize, r: &InjectionResult) -> String {
    let mut line = String::with_capacity(256);
    write_record(&mut Writer::new(&mut line), idx, r);
    line.push('\n');
    line
}

/// Parses one record line back into `(fault index, result)`.
pub fn parse_record(line: &str) -> Result<(usize, InjectionResult), String> {
    record_from_json(&parse(line)?)
}

/// Decodes one already-parsed record object back into
/// `(fault index, result)` — the shape [`write_record`] writes.
pub fn record_from_json(v: &Json) -> Result<(usize, InjectionResult), String> {
    let fault = v.at("fault")?;
    let result = InjectionResult {
        fault: Fault {
            site: FaultSite {
                structure: structure_at(fault, "structure")?,
                bit: fault.u64_at("bit")?,
            },
            cycle: fault.u64_at("cycle")?,
        },
        outcome: outcome_from_json(v.at("outcome")?)?,
        deviation: v.opt("deviation", |v, key| {
            let d = v.at(key)?;
            Ok(Deviation {
                index: d.u64_at("index")?,
                golden: commit_at(d, "golden")?,
                faulty: commit_at(d, "faulty")?,
            })
        })?,
        output_matches: v.opt("output_matches", Json::bool_at)?,
        cycles: v.u64_at("cycles")?,
        post_inject_cycles: v.u64_at("post")?,
        abort_message: v.opt("abort", Json::str_at)?.map(str::to_string),
    };
    Ok((v.usize_at("i")?, result))
}

/// A sealed line log — a campaign journal, the grid's submission queue —
/// being replayed: the one implementation of "create atomically, trust the
/// prefix that checks out, cut the rest, append".
///
/// The file is read as *bytes*. [`next_line`](Self::next_line) yields the
/// parsed document of each line that is complete (newline-terminated),
/// UTF-8, CRC-intact and parseable, and stops at the first that is not: a
/// torn tail, a flipped bit and a stray byte ≥ 0x80 all cost the lines from
/// that one on — never the file, and never differently between two logs.
/// [`into_append`](Self::into_append) truncates the log after the last line
/// the caller accepted and opens it for appending.
#[derive(Debug)]
pub struct SealedLog {
    path: PathBuf,
    bytes: Vec<u8>,
    /// End of the last line yielded.
    yielded: usize,
    /// End of the last line accepted: where appends will continue.
    accepted: usize,
}

impl SealedLog {
    /// Reads the log at `path`. Only a missing or zero-length file is a
    /// fresh log: it is created holding the sealed `header` line,
    /// atomically (written and fsynced under a temporary name, then renamed
    /// into place), so no crash leaves a headerless file. Any other read
    /// error is the caller's to see — an unreadable log is not an empty one.
    pub fn open(path: &Path, header: &str) -> std::io::Result<SealedLog> {
        let mut bytes = match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        if bytes.is_empty() {
            bytes = seal(header).into_bytes();
            let tmp = PathBuf::from(format!("{}.tmp", path.display()));
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)?;
        }
        Ok(SealedLog {
            path: path.to_path_buf(),
            bytes,
            yielded: 0,
            accepted: 0,
        })
    }

    /// The next line's document; `Err(why)` where the trustworthy prefix
    /// ends (end of file included). Asking for a line accepts the one
    /// before it; a caller that refuses a line stops asking.
    pub fn next_line(&mut self) -> Result<Json, String> {
        self.accepted = self.yielded;
        let line = self.bytes[self.yielded..]
            .split_inclusive(|&b| b == b'\n')
            .next()
            .ok_or("end of log")?;
        let sealed = line.strip_suffix(b"\n").ok_or("truncated line")?;
        let sealed = core::str::from_utf8(sealed).map_err(|_| "line is not UTF-8")?;
        let doc = parse(unseal(sealed)?)?;
        self.yielded += line.len();
        Ok(doc)
    }

    /// Cuts the log after the last accepted line (fsynced, so the cut
    /// survives a crash before the first append) and opens it for
    /// appending.
    pub fn into_append(self) -> std::io::Result<File> {
        let file = OpenOptions::new().append(true).open(&self.path)?;
        if self.accepted < self.bytes.len() {
            file.set_len(self.accepted as u64)?;
            file.sync_all()?;
        }
        Ok(file)
    }
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
    ///   atomically ([`SealedLog::open`]).
    /// * Existing file: the header must be intact
    ///   ([`CampaignError::JournalHeader`] otherwise) and match `key`
    ///   ([`CampaignError::JournalMismatch`] otherwise); records are loaded
    ///   up to the first line that is torn, fails its CRC, or is not a
    ///   record, and the file is cut there, so both a torn tail from an
    ///   interrupted campaign and a corrupt record mid-file are recovered
    ///   from cleanly (the dropped runs re-execute deterministically on
    ///   resume). A file that cannot be read is an error, never a fresh
    ///   journal.
    pub fn open_with(
        path: &Path,
        key: &CampaignKey,
        policy: DurabilityPolicy,
    ) -> Result<(Journal, BTreeMap<usize, InjectionResult>), CampaignError> {
        let header = crate::json::to_string(|w| write_header(w, key));
        let mut log = SealedLog::open(path, &header)?;
        let found = log
            .next_line()
            .map_err(|e| CampaignError::JournalHeader(format!("bad header: {e}")))?;
        check_header(&parse(&header).expect("own header parses"), &found)?;
        let mut done = BTreeMap::new();
        while let Ok(doc) = log.next_line() {
            match record_from_json(&doc) {
                Ok((idx, r)) if idx < key.faults => {
                    done.insert(idx, r);
                }
                Ok(_) => {}      // stale index beyond the campaign
                Err(_) => break, // not a record: drop it and the rest
            }
        }
        Ok((
            Journal {
                file: log.into_append()?,
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
        let mut line = String::with_capacity(256);
        write_record(&mut Writer::new(&mut line), idx, r);
        push_checksum(&mut line);
        self.file.write_all(line.as_bytes())?;
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
        let header =
            |key: &CampaignKey| parse(&crate::json::to_string(|w| write_header(w, key))).unwrap();
        let Json::Object(fields) = header(&key) else {
            panic!("the header is an object");
        };
        let written: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(written, HEADER_FIELDS, "every written field is checked");
        assert!(check_header(&header(&key), &header(&key)).is_ok());
        let other = CampaignKey {
            seed: 43,
            ..key.clone()
        };
        match check_header(&header(&key), &header(&other)) {
            Err(CampaignError::JournalMismatch {
                field: "seed",
                expected,
                found,
            }) => assert_eq!((expected.as_str(), found.as_str()), ("42", "43")),
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
