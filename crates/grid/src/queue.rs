//! The durable campaign submission queue.
//!
//! Submissions must survive the service process: a tenant that got a 201
//! back from `POST /campaigns` owns a promise, so the queue is a
//! journal-shaped log on disk, sealed line-by-line with the exact CRC32
//! format the campaign journals use ([`avgi_faultsim::journal::seal`]) —
//! one integrity story for every durable artifact in the system.
//!
//! The file is: one header line (`{"kind":"avgi-grid-queue","version":1}`),
//! then an append-only op stream. `submit` records carry the campaign id
//! and its full [`SubmitSpec`]; `done` records retire an id once its
//! campaign's merged result is finalized. Replaying the ops rebuilds the
//! pending set (submitted minus done, in submission order) and the id
//! high-water mark, so a restarted service resumes every in-flight
//! campaign under its original id — which is what lets the per-campaign
//! result journals (keyed by id) resume bit-identically.
//!
//! Durability follows the campaign journal's rules because it runs the
//! campaign journal's code ([`SealedLog`]): the header is created
//! atomically (temp file + `fsync` + rename, no crash window can leave a
//! headerless file), and replay truncates at the first torn, corrupt or
//! non-UTF-8 line rather than trusting anything after it. Every op append
//! is flushed and fsynced (submissions are rare — a disk round-trip per
//! tenant request is the right trade).

use crate::spec::SubmitSpec;
use avgi_faultsim::journal::{seal, SealedLog};
use avgi_faultsim::json;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Queue format version; bumped on any incompatible record change.
pub const QUEUE_VERSION: u64 = 1;

const QUEUE_KIND: &str = "avgi-grid-queue";

/// The header line's JSON: `{"kind":"avgi-grid-queue","version":1}`.
fn header() -> String {
    json::object(|w| {
        w.key("kind")
            .str(QUEUE_KIND)
            .key("version")
            .u64(QUEUE_VERSION);
    })
}

/// One queued submission.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedCampaign {
    /// The campaign id the service assigned at submit time (stable across
    /// restarts; keys the per-campaign result journal).
    pub id: u64,
    /// What the tenant asked for.
    pub spec: SubmitSpec,
}

/// The journal-backed submission queue (see the module docs).
#[derive(Debug)]
pub struct SubmissionQueue {
    path: PathBuf,
    file: File,
    pending: Vec<QueuedCampaign>,
    next_id: u64,
}

impl SubmissionQueue {
    /// Opens (or atomically creates) the queue at `path` and replays it.
    ///
    /// A corrupt or torn tail is truncated — the ops before it are intact
    /// by CRC, and everything after a torn line is unreachable anyway
    /// ([`SealedLog`], the campaign journals' own replay). A file whose
    /// header is damaged or wrong (different kind/version, or a foreign
    /// file) is an error, never silently rewritten; so is a submission
    /// still pending whose spec this build refuses — the error names its
    /// campaign id.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let mut log = SealedLog::open(path, &header())?;
        let header = log
            .next_line()
            .map_err(|e| bad(format!("queue has no header ({e}): {}", path.display())))?;
        let named = |e: String| bad(format!("queue header: {e}: {}", path.display()));
        let kind = header.str_at("kind").map_err(named)?;
        let version = header.u64_at("version").map_err(named)?;
        if (kind, version) != (QUEUE_KIND, QUEUE_VERSION) {
            return Err(bad(format!(
                "{} is a {kind} v{version} file, not an {QUEUE_KIND} v{QUEUE_VERSION}",
                path.display()
            )));
        }

        // Specs are checked only for submissions still pending at the end:
        // one the service retired because it could not run (see
        // `Service::submit`) must not fail every later replay.
        let mut replayed: Vec<(u64, Result<SubmitSpec, String>)> = Vec::new();
        let mut next_id: u64 = 1;
        while let Ok(op) = log.next_line() {
            let id = |kind: &str| op.u64_at("id").map_err(|e| bad(format!("{kind} op: {e}")));
            match op.str_at("op") {
                Ok("submit") => {
                    let id = id("submit")?;
                    let spec = op
                        .at("spec")
                        .map_err(|e| bad(format!("submit op {id}: {e}")))?;
                    next_id = next_id.max(id.saturating_add(1));
                    replayed.push((id, SubmitSpec::from_json_value(spec)));
                }
                Ok("done") => {
                    let id = id("done")?;
                    next_id = next_id.max(id.saturating_add(1));
                    replayed.retain(|(q, _)| *q != id);
                }
                // An op from a future minor revision: ignore it (the CRC
                // says it is intact; we just do not understand it).
                _ => {}
            }
        }
        let pending = replayed
            .into_iter()
            .map(|(id, spec)| match spec {
                Ok(spec) => Ok(QueuedCampaign { id, spec }),
                Err(e) => Err(bad(format!("pending campaign {id}: {e}"))),
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(SubmissionQueue {
            path: path.to_path_buf(),
            file: log.into_append()?,
            pending,
            next_id,
        })
    }

    /// The queue's backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Submissions not yet retired, in submission order.
    pub fn pending(&self) -> &[QueuedCampaign] {
        &self.pending
    }

    /// The id the next submission will receive.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    fn append(&mut self, json: &str) -> std::io::Result<()> {
        self.file.write_all(seal(json).as_bytes())?;
        self.file.flush()?;
        // Submissions and retirements are tenant-visible promises; fsync
        // each one (they are rare — nowhere near the lease hot path).
        self.file.sync_data()
    }

    /// Durably enqueues a submission and returns its campaign id. The id
    /// is on disk before this returns — a crash after the caller sees it
    /// cannot lose the campaign.
    pub fn submit(&mut self, spec: SubmitSpec) -> std::io::Result<u64> {
        let id = self.next_id;
        self.append(&json::object(|w| {
            w.key("op").str("submit").key("id").u64(id);
            spec.write_json(w.key("spec"));
        }))?;
        self.next_id += 1;
        self.pending.push(QueuedCampaign { id, spec });
        Ok(id)
    }

    /// Durably retires a campaign (its merged result is finalized).
    pub fn complete(&mut self, id: u64) -> std::io::Result<()> {
        self.append(&json::object(|w| {
            w.key("op").str("done").key("id").u64(id);
        }))?;
        self.pending.retain(|q| q.id != id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avgi_muarch::fault::Structure;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "avgi-queue-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn spec(seed: u64) -> SubmitSpec {
        SubmitSpec::new("bitcount", Structure::RegFile, 16, seed)
    }

    #[test]
    fn submissions_survive_reopen_and_retire() {
        let path = tmp_path("roundtrip");
        let (a, b) = {
            let mut q = SubmissionQueue::open(&path).unwrap();
            assert!(q.pending().is_empty());
            let a = q.submit(spec(1)).unwrap();
            let b = q.submit(spec(2)).unwrap();
            assert_ne!(a, b);
            q.complete(a).unwrap();
            (a, b)
        };
        // Reopen: only the unretired submission remains, ids are stable,
        // and the id counter never reuses a retired id.
        let mut q = SubmissionQueue::open(&path).unwrap();
        assert_eq!(q.pending().len(), 1);
        assert_eq!(q.pending()[0].id, b);
        assert_eq!(q.pending()[0].spec, spec(2));
        let c = q.submit(spec(3)).unwrap();
        assert!(c > b && c > a);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp_path("torn");
        {
            let mut q = SubmissionQueue::open(&path).unwrap();
            q.submit(spec(1)).unwrap();
            q.submit(spec(2)).unwrap();
        }
        // Tear the last line mid-record (classic crash shape).
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 10;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(keep as u64).unwrap();
        drop(f);
        let mut q = SubmissionQueue::open(&path).unwrap();
        assert_eq!(q.pending().len(), 1, "torn submission is gone");
        assert_eq!(q.pending()[0].spec, spec(1));
        // The log extends cleanly after truncation.
        q.submit(spec(9)).unwrap();
        let q = SubmissionQueue::open(&path).unwrap();
        assert_eq!(q.pending().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_stops_replay_at_the_flip() {
        // 0x08 leaves the file text (only the CRC knows); 0x80 makes the
        // flipped byte a stray UTF-8 continuation byte. Same line, same
        // cost: the queue keeps what came before it.
        for mask in [0x08u8, 0x80] {
            let path = tmp_path(&format!("corrupt-{mask:02x}"));
            {
                let mut q = SubmissionQueue::open(&path).unwrap();
                q.submit(spec(1)).unwrap();
                q.submit(spec(2)).unwrap();
                q.submit(spec(3)).unwrap();
            }
            // Flip a bit inside the second submission's JSON.
            let mut bytes = std::fs::read(&path).unwrap();
            let text = String::from_utf8(bytes.clone()).unwrap();
            let second = text
                .match_indices("\"op\":\"submit\"")
                .nth(1)
                .map(|(i, _)| i)
                .unwrap();
            bytes[second + 20] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            let mut q = SubmissionQueue::open(&path).unwrap();
            assert_eq!(
                q.pending().len(),
                1,
                "mask {mask:#04x}: everything from the corrupt line on is dropped"
            );
            assert_eq!(q.pending()[0].spec, spec(1));
            // The cut is on a line boundary: the log extends cleanly.
            assert_eq!(q.submit(spec(4)).unwrap(), 2);
            assert_eq!(SubmissionQueue::open(&path).unwrap().pending().len(), 2);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_pending_submission_this_build_refuses_fails_open_by_name() {
        // What an older build could have journaled: intact, sealed, and
        // beyond the bounds. Pending, it stops the service with an error
        // that says which campaign; retired, it is history.
        let path = tmp_path("out-of-bounds");
        let hostile = "{\"op\":\"submit\",\"id\":7,\"spec\":{\"workload\":\"bitcount\",\
                       \"structure\":\"RegFile\",\"faults\":1000000000000,\"seed\":1}}";
        std::fs::write(&path, seal(&header()) + &seal(hostile)).unwrap();
        let err = SubmissionQueue::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("campaign 7") && msg.contains("`faults`"),
            "{msg}"
        );
        let retired = seal(&header()) + &seal(hostile) + &seal("{\"op\":\"done\",\"id\":7}");
        std::fs::write(&path, retired).unwrap();
        let q = SubmissionQueue::open(&path).unwrap();
        assert!(q.pending().is_empty());
        assert_eq!(q.next_id(), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_files_are_refused() {
        let path = tmp_path("foreign");
        std::fs::write(&path, seal("{\"kind\":\"something-else\",\"version\":1}")).unwrap();
        assert!(SubmissionQueue::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
