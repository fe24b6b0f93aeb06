//! Journal corruption and durability-policy coverage beyond the torn tail.
//!
//! The journal's promise (`DESIGN.md` §12): any corruption — a torn tail,
//! a flipped bit mid-file, a doctored header — is *detected*, never
//! silently resumed from, and recovery re-executes exactly the dropped
//! records so a resumed campaign stays bit-identical to an uninterrupted
//! one.

use avgi_faultsim::journal::{crc32, record_line, seal, CampaignKey, JOURNAL_VERSION};
use avgi_faultsim::{
    golden_for, run_campaign, run_campaign_journaled, CampaignConfig, CampaignError,
    DurabilityPolicy, Journal, RunMode,
};
use avgi_muarch::Structure;
use std::path::{Path, PathBuf};

const FAULTS: usize = 24;

fn ccfg() -> CampaignConfig {
    CampaignConfig::new(Structure::RegFile, FAULTS, RunMode::EndToEnd).with_seed(0x10D1)
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("avgi-journal-{tag}-{}.jsonl", std::process::id()))
}

struct Fixture {
    w: avgi_workloads::Workload,
    cfg: avgi_muarch::config::MuarchConfig,
    golden: std::sync::Arc<avgi_muarch::trace::GoldenRun>,
}

fn fixture() -> Fixture {
    let w = avgi_workloads::by_name("bitcount").unwrap();
    let cfg = avgi_muarch::config::MuarchConfig::big();
    let golden = golden_for(&w, &cfg);
    Fixture { w, cfg, golden }
}

/// Runs the campaign journaled at `path` and returns the result.
fn run_journaled(f: &Fixture, path: &Path) -> avgi_faultsim::CampaignResult {
    run_campaign_journaled(&f.w, &f.cfg, &f.golden, &ccfg(), path).unwrap()
}

#[test]
fn bitflipped_midfile_record_is_detected_and_resume_is_bit_identical() {
    let f = fixture();
    let reference = run_campaign(&f.w, &f.cfg, &f.golden, &ccfg());
    let key = CampaignKey::new(f.w.name, &f.cfg, f.golden.cycles, &ccfg());
    // 0x01 keeps the line text (only the CRC knows); 0x80 turns an ASCII
    // byte into a stray UTF-8 continuation byte, so the *file* is no longer
    // text. Both are one corrupt line, and cost exactly the same.
    for mask in [0x01u8, 0x80] {
        let path = tmp_path(&format!("bitflip-{mask:02x}"));
        let _ = std::fs::remove_file(&path);
        let first = run_journaled(&f, &path);
        assert_eq!(first.results, reference.results);

        // Flip one bit in the 6th record (deep mid-file, nowhere near the
        // tail).
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        assert_eq!(lines.len(), 1 + FAULTS);
        let intact: usize = lines[..6].iter().map(|l| l.len()).sum();
        let mut bytes = text.into_bytes();
        bytes[intact + 12] ^= mask;
        std::fs::write(&path, &bytes).unwrap();

        // Reopen: the five records before the flip restore — not fewer,
        // and above all not none (a resume re-executes whatever is missing,
        // so only the count can tell) — and the file is cut back to the
        // header plus those five lines.
        let (journal, done) = Journal::open(&path, &key).unwrap();
        assert_eq!(done.len(), 5, "mask {mask:#04x}");
        for (idx, restored) in &done {
            assert_eq!(restored, &reference.results[*idx]);
        }
        drop(journal);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            intact as u64,
            "mask {mask:#04x}"
        );

        // Resume: the flipped record and everything after it re-execute,
        // and the merged result is bit-identical.
        let resumed = run_journaled(&f, &path);
        assert_eq!(resumed.results, reference.results);

        // The journal self-healed: fully valid again, all records sealed.
        let healed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(healed.split_inclusive('\n').count(), 1 + FAULTS);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn an_unreadable_journal_is_an_error_not_a_fresh_journal() {
    let f = fixture();
    let key = CampaignKey::new(f.w.name, &f.cfg, f.golden.cycles, &ccfg());
    // A directory where the journal should be: `read` fails with something
    // other than `NotFound`, and nothing may be renamed over it.
    let path = tmp_path("unreadable");
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir(&path).unwrap();
    match Journal::open(&path, &key) {
        Err(CampaignError::Io(_)) => {}
        other => panic!("expected an I/O error, got {other:?}"),
    }
    assert!(path.is_dir());
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn doctored_header_with_valid_crc_is_rejected_as_mismatch() {
    let f = fixture();
    let path = tmp_path("doctored");
    let _ = std::fs::remove_file(&path);
    run_journaled(&f, &path);

    // An adversarial (or fat-fingered) edit that *recomputes* the CRC: the
    // checksum passes, so the campaign-key cross-check must catch it.
    let text = std::fs::read_to_string(&path).unwrap();
    let (header, rest) = text.split_once('\n').unwrap();
    let (json, _crc) = header.rsplit_once(' ').unwrap();
    let doctored = json.replace("\"seed\":4305", "\"seed\":4306");
    assert_ne!(doctored, json, "the seed literal must be present to doctor");
    let resealed = format!("{doctored} {:08x}\n{rest}", crc32(doctored.as_bytes()));
    std::fs::write(&path, resealed).unwrap();
    match run_campaign_journaled(&f.w, &f.cfg, &f.golden, &ccfg(), &path) {
        Err(CampaignError::JournalMismatch { field: "seed", .. }) => {}
        other => panic!("expected seed mismatch, got {other:?}"),
    }

    // The same edit without resealing fails the checksum even earlier.
    let unsealed = text.replace("\"seed\":4305", "\"seed\":4306");
    std::fs::write(&path, unsealed).unwrap();
    match run_campaign_journaled(&f.w, &f.cfg, &f.golden, &ccfg(), &path) {
        Err(CampaignError::JournalHeader(msg)) => {
            assert!(msg.contains("checksum"), "unexpected header error: {msg}")
        }
        other => panic!("expected header checksum failure, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resealed_record_naming_another_fault_is_rejected_as_mismatch() {
    let f = fixture();
    let path = tmp_path("refault");
    let _ = std::fs::remove_file(&path);
    let first = run_journaled(&f, &path);

    // One more record for index 3 (the later line wins) carrying index 4's
    // result: well-formed, correctly sealed, under a matching header. Only
    // the comparison against the regenerated fault list can tell.
    let (own, other) = (first.results[3].fault, first.results[4].fault);
    assert_ne!(own, other);
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str(&seal(record_line(3, &first.results[4]).trim_end()));
    std::fs::write(&path, text).unwrap();
    match run_campaign_journaled(&f.w, &f.cfg, &f.golden, &ccfg(), &path) {
        Err(CampaignError::JournalMismatch {
            field: "fault",
            expected,
            found,
        }) => assert_eq!(
            (expected, found),
            (format!("{own:?}"), format!("{other:?}"))
        ),
        other => panic!("expected a fault mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fsync_policy_journals_are_interchangeable_with_flush_journals() {
    let f = fixture();
    let path = tmp_path("fsync");
    let _ = std::fs::remove_file(&path);
    let key = CampaignKey::new(f.w.name, &f.cfg, f.golden.cycles, &ccfg());

    // Write the first half of a campaign under FsyncEveryN…
    let reference = run_campaign(&f.w, &f.cfg, &f.golden, &ccfg());
    {
        let (mut journal, done) =
            Journal::open_with(&path, &key, DurabilityPolicy::FsyncEveryN(4)).unwrap();
        assert!(done.is_empty());
        for (i, r) in reference.results.iter().take(FAULTS / 2).enumerate() {
            journal.append(i, r).unwrap();
        }
        journal.sync().unwrap();
    }
    // …and reopen under plain Flush: same format, half the records restore,
    // and the journaled completion matches the reference bit-for-bit.
    let (journal, done) = Journal::open_with(&path, &key, DurabilityPolicy::Flush).unwrap();
    assert_eq!(done.len(), FAULTS / 2);
    drop(journal);
    let resumed = run_journaled(&f, &path);
    assert_eq!(resumed.results, reference.results);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn header_creation_is_atomic_and_leaves_no_temp_file() {
    let f = fixture();
    let path = tmp_path("atomic");
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);
    let key = CampaignKey::new(f.w.name, &f.cfg, f.golden.cycles, &ccfg());

    let (journal, done) = Journal::open(&path, &key).unwrap();
    assert!(done.is_empty());
    assert!(path.exists(), "journal must exist after open");
    assert!(!tmp.exists(), "temp file must be renamed away");
    drop(journal);

    // A zero-length file (a crash between create and rename under the old
    // non-atomic scheme) is treated as fresh, not as corruption.
    std::fs::write(&path, b"").unwrap();
    let (_, done) = Journal::open(&path, &key).unwrap();
    assert!(done.is_empty());
    assert!(!tmp.exists());

    // Version drift is refused outright.
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replace(
        &format!("\"version\":{JOURNAL_VERSION}"),
        &format!("\"version\":{}", JOURNAL_VERSION + 1),
    );
    assert_ne!(bumped, text);
    let (json, _) = bumped.trim_end().rsplit_once(' ').unwrap();
    std::fs::write(&path, format!("{json} {:08x}\n", crc32(json.as_bytes()))).unwrap();
    match Journal::open(&path, &key) {
        Err(CampaignError::JournalMismatch {
            field: "version", ..
        }) => {}
        other => panic!("expected version mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}
