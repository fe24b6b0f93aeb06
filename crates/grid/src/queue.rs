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
//! Durability follows the campaign journal's rules: the header is created
//! atomically (temp file + `fsync` + rename, no crash window can leave a
//! headerless file), every op append is flushed and fsynced (submissions
//! are rare — a disk round-trip per tenant request is the right trade),
//! and replay truncates at the first torn or corrupt line rather than
//! trusting anything after it.

use crate::spec::SubmitSpec;
use avgi_faultsim::journal::{seal, unseal};
use avgi_faultsim::json::{parse, Json};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Queue format version; bumped on any incompatible record change.
pub const QUEUE_VERSION: u64 = 1;

const HEADER: &str = "{\"kind\":\"avgi-grid-queue\",\"version\":1}";

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
    /// by CRC, and everything after a torn line is unreachable anyway. A
    /// file whose header is wrong (different kind/version, or a foreign
    /// file) is an error, never silently rewritten.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        if !path.exists() {
            // Atomic create: no crash window may leave a headerless queue.
            let tmp = path.with_extension("tmp");
            {
                let mut f = File::create(&tmp)?;
                f.write_all(seal(HEADER).as_bytes())?;
                f.sync_all()?;
            }
            std::fs::rename(&tmp, path)?;
        }
        let mut text = String::new();
        File::open(path)?.read_to_string(&mut text)?;
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);

        // Specs are checked only for submissions still pending at the end:
        // one the service retired because it could not run (see
        // `Service::submit`) must not fail every later replay.
        let mut replayed: Vec<(u64, Result<SubmitSpec, String>)> = Vec::new();
        let mut next_id: u64 = 1;
        let mut good_bytes = 0usize;
        let mut first = true;
        for line in text.split_inclusive('\n') {
            let complete = line.ends_with('\n');
            let trimmed = line.trim_end_matches('\n');
            if trimmed.is_empty() && complete {
                good_bytes += line.len();
                continue;
            }
            let json = match (complete, unseal(trimmed)) {
                (true, Ok(j)) => j,
                // Torn tail or corrupt line: stop replaying here.
                _ => break,
            };
            let v = match parse(json) {
                Ok(v) => v,
                Err(_) => break,
            };
            if first {
                let kind = v.get("kind").and_then(Json::as_str);
                let version = v.get("version").and_then(Json::as_u64);
                if kind != Some("avgi-grid-queue") || version != Some(QUEUE_VERSION) {
                    return Err(bad(format!(
                        "not an avgi-grid-queue v{QUEUE_VERSION} file: {}",
                        path.display()
                    )));
                }
                first = false;
                good_bytes += line.len();
                continue;
            }
            match v.get("op").and_then(Json::as_str) {
                Some("submit") => {
                    let id = v
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("submit op without id".into()))?;
                    let spec = SubmitSpec::from_json_value(
                        v.get("spec")
                            .ok_or_else(|| bad("submit op without spec".into()))?,
                    );
                    next_id = next_id.max(id + 1);
                    replayed.push((id, spec));
                }
                Some("done") => {
                    let id = v
                        .get("id")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("done op without id".into()))?;
                    next_id = next_id.max(id + 1);
                    replayed.retain(|(q, _)| *q != id);
                }
                // An op from a future minor revision: ignore it (the CRC
                // says it is intact; we just do not understand it).
                _ => {}
            }
            good_bytes += line.len();
        }
        if first {
            return Err(bad(format!("queue has no header: {}", path.display())));
        }
        let pending = replayed
            .into_iter()
            .map(|(id, spec)| {
                Ok(QueuedCampaign {
                    id,
                    spec: spec.map_err(bad)?,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        if good_bytes < text.len() {
            // Drop the corrupt/torn tail so appends extend a clean log.
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(good_bytes as u64)?;
            f.sync_all()?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(SubmissionQueue {
            path: path.to_path_buf(),
            file,
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
        self.append(&format!(
            "{{\"op\":\"submit\",\"id\":{id},\"spec\":{}}}",
            spec.to_json()
        ))?;
        self.next_id += 1;
        self.pending.push(QueuedCampaign { id, spec });
        Ok(id)
    }

    /// Durably retires a campaign (its merged result is finalized).
    pub fn complete(&mut self, id: u64) -> std::io::Result<()> {
        self.append(&format!("{{\"op\":\"done\",\"id\":{id}}}"))?;
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
        let f = OpenOptions::new().write(true).open(&path).unwrap();
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
        let path = tmp_path("corrupt");
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
        bytes[second + 20] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        let q = SubmissionQueue::open(&path).unwrap();
        assert_eq!(
            q.pending().len(),
            1,
            "everything from the corrupt line on is dropped"
        );
        assert_eq!(q.pending()[0].spec, spec(1));
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
