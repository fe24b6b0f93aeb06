//! Output checks: digests against `expected.json`, and the seed-independent
//! re-execution of a subsample through the engine's simplest path.
//!
//! A change that only makes the simulator faster must leave every run's
//! result and every simulated statistic identical; these checks are how a
//! run of the benchmark notices when it did not.

use crate::json::{self, Value};
use avgi_faultsim::journal::record_line;
use avgi_faultsim::{run_one, CampaignConfig, InjectionResult};
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::run::RunOutcome;
use avgi_muarch::trace::GoldenRun;
use avgi_workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Index blocks per digested unit: a mismatch is reported as the first
/// differing block's index range.
pub const BLOCKS: usize = 16;
/// At most this many runs are re-executed by [`subsample_check`].
const SUBSAMPLE_CAP: usize = 400;

/// Incremental FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn digest_str(s: &str) -> String {
    let mut h = Fnv::default();
    h.write(s.as_bytes());
    h.hex()
}

/// Digest of a campaign's results in index order, whole and per block.
///
/// Each run contributes its journal record line, which spells out the
/// fault, outcome, deviation, output comparison, cycles and post-injection
/// cycles — everything a run reports.
pub fn digest_results(results: &[InjectionResult]) -> (String, Vec<String>) {
    let mut whole = Fnv::default();
    let mut blocks = vec![Fnv::default(); BLOCKS.min(results.len().max(1))];
    let per_block = results.len().div_ceil(blocks.len()).max(1);
    for (i, r) in results.iter().enumerate() {
        let line = record_line(i, r);
        whole.write(line.as_bytes());
        blocks[i / per_block].write(line.as_bytes());
    }
    (whole.hex(), blocks.into_iter().map(Fnv::hex).collect())
}

/// Runs that did not produce a classification: simulator aborts and
/// wall-clock expiries.
pub fn failed_runs(results: &[InjectionResult]) -> u64 {
    results
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                RunOutcome::SimAbort | RunOutcome::WallClockExpired
            )
        })
        .count() as u64
}

/// The exact simulated statistics of a golden run, as one comparable line.
pub fn golden_line(g: &GoldenRun) -> String {
    let s = &g.stats;
    let mut out = Fnv::default();
    out.write(&g.output);
    format!(
        "cycles={} commits={} fetched={} committed={} l1i_miss={} l1d_miss={} l2_miss={} itlb_miss={} dtlb_miss={} mispredicts={} squashed={} rf_ace_cycles={} output={}",
        g.cycles,
        g.trace.len(),
        s.fetched,
        s.committed,
        s.l1i_misses,
        s.l1d_misses,
        s.l2_misses,
        s.itlb_misses,
        s.dtlb_misses,
        s.mispredicts,
        s.squashed,
        s.rf_ace_cycles,
        out.hex()
    )
}

/// Re-executes a 2 % index subsample (capped) through [`run_one`] — a fresh
/// simulator per run, no checkpoint, no batch — and compares bit for bit
/// with what the campaign engine reported. Returns one message per
/// differing run.
pub fn subsample_check(
    workload: &Workload,
    cfg: &MuarchConfig,
    golden: &Arc<GoldenRun>,
    ccfg: &CampaignConfig,
    results: &[InjectionResult],
) -> Vec<String> {
    let want = (results.len() / 50)
        .clamp(1, SUBSAMPLE_CAP)
        .min(results.len());
    let stride = (results.len() / want).max(1);
    let picked: Vec<usize> = (0..results.len()).step_by(stride).take(want).collect();
    let threads = crate::measure::compute_threads();
    let per_thread = picked.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = picked
            .chunks(per_thread)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|&i| {
                            let fresh = run_one(
                                workload,
                                cfg,
                                golden,
                                results[i].fault,
                                ccfg.mode,
                                ccfg.burst_width,
                            );
                            (fresh != results[i]).then(|| {
                                format!(
                                    "run {i} differs from a fresh unbatched re-execution:\n  engine: {}  fresh:  {}",
                                    record_line(i, &results[i]),
                                    record_line(i, &fresh)
                                )
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("subsample thread panicked"))
            .collect()
    })
}

/// What one workload produced at one size, in the shape `expected.json`
/// stores it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observed {
    /// Digest of each unit of work (campaign, study or grid round).
    pub units: Vec<String>,
    /// Block digests of each unit's results, where it has per-run results.
    pub blocks: Vec<Vec<String>>,
    /// Golden statistics line per program used.
    pub golden: BTreeMap<String, String>,
}

impl Observed {
    /// Adds a unit made of per-run results.
    pub fn push_results(&mut self, results: &[InjectionResult]) {
        let (whole, blocks) = digest_results(results);
        self.units.push(whole);
        self.blocks.push(blocks);
    }

    pub fn to_json(&self) -> String {
        let list = |v: &[String]| {
            let items: Vec<String> = v.iter().map(|s| format!("\"{s}\"")).collect();
            format!("[{}]", items.join(","))
        };
        let blocks: Vec<String> = self.blocks.iter().map(|b| list(b)).collect();
        let golden: Vec<String> = self
            .golden
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        format!(
            "{{\"units\":{},\"blocks\":[{}],\"golden\":{{{}}}}}",
            list(&self.units),
            blocks.join(","),
            golden.join(",")
        )
    }

    pub fn from_json(v: &Value) -> Option<Observed> {
        let strings = |v: &Value| -> Option<Vec<String>> {
            v.as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let golden = v
            .get("golden")?
            .fields()?
            .iter()
            .map(|(k, s)| Some((k.clone(), s.as_str()?.to_string())))
            .collect::<Option<_>>()?;
        Some(Observed {
            units: strings(v.get("units")?)?,
            blocks: v
                .get("blocks")?
                .as_array()?
                .iter()
                .map(strings)
                .collect::<Option<_>>()?,
            golden,
        })
    }

    /// Compares a run's observations with the recorded ones; returns one
    /// message per mismatch. `runs_per_unit` sizes the block ranges.
    pub fn mismatches(&self, expected: &Observed, runs_per_unit: usize) -> Vec<String> {
        let mut out = Vec::new();
        for (program, line) in &self.golden {
            match expected.golden.get(program) {
                Some(want) if want != line => out.push(format!(
                    "simulated statistics of `{program}` changed:\n  expected {want}\n  observed {line}"
                )),
                _ => {}
            }
        }
        if self.units.len() != expected.units.len() {
            out.push(format!(
                "{} units of work, expected {}",
                self.units.len(),
                expected.units.len()
            ));
        }
        for (u, (got, want)) in self.units.iter().zip(&expected.units).enumerate() {
            if got == want {
                continue;
            }
            let mut msg = format!("unit {u} digest {got} != expected {want}");
            if let (Some(mine), Some(theirs)) = (self.blocks.get(u), expected.blocks.get(u)) {
                let per_block = runs_per_unit.div_ceil(mine.len().max(1)).max(1);
                if let Some(b) = mine.iter().zip(theirs).position(|(a, e)| a != e) {
                    msg.push_str(&format!(
                        "; first differing index is in {}..{}",
                        b * per_block,
                        ((b + 1) * per_block).min(runs_per_unit)
                    ));
                }
            }
            out.push(msg);
        }
        out
    }
}

/// `expected.json`: recorded observations per size class and workload, for
/// [`crate::spec::DEFAULT_SEED`].
#[derive(Debug, Clone, Default)]
pub struct Expected {
    pub seed: u64,
    /// `"full"` / `"quick"` → workload → observations.
    pub sizes: BTreeMap<String, BTreeMap<String, Observed>>,
}

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Expected::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let v = json::parse(text)?;
        let bad = || "not in the expected.json shape".to_string();
        let mut sizes = BTreeMap::new();
        for (size, per_workload) in v.get("sizes").and_then(Value::fields).ok_or_else(bad)? {
            let mut map = BTreeMap::new();
            for (workload, obs) in per_workload.fields().ok_or_else(bad)? {
                map.insert(workload.clone(), Observed::from_json(obs).ok_or_else(bad)?);
            }
            sizes.insert(size.clone(), map);
        }
        Ok(Expected {
            seed: v.get("seed").and_then(Value::as_u64).ok_or_else(bad)?,
            sizes,
        })
    }

    pub fn get(&self, size: &str, workload: &str) -> Option<&Observed> {
        self.sizes.get(size)?.get(workload)
    }

    pub fn to_json(&self) -> String {
        let sizes = self
            .sizes
            .iter()
            .map(|(size, per_workload)| {
                let inner = per_workload
                    .iter()
                    .map(|(w, o)| format!("    \"{w}\": {}", o.to_json()))
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!("  \"{size}\": {{\n{inner}\n  }}")
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n\"seed\": {},\n\"sizes\": {{\n{sizes}\n}}\n}}\n",
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatch_names_the_first_differing_block_range() {
        let expected = Observed {
            units: vec!["aa".into(), "bb".into()],
            blocks: vec![
                vec!["1".into(), "2".into(), "3".into(), "4".into()],
                vec!["5".into(), "6".into(), "7".into(), "8".into()],
            ],
            golden: [("crc32".to_string(), "cycles=1".to_string())].into(),
        };
        assert!(expected.mismatches(&expected, 100).is_empty());
        let mut got = expected.clone();
        got.units[1] = "zz".into();
        got.blocks[1][2] = "x".into();
        got.golden.insert("crc32".into(), "cycles=2".into());
        let msgs = got.mismatches(&expected, 100);
        assert_eq!(msgs.len(), 2);
        assert!(msgs[0].contains("simulated statistics of `crc32` changed"));
        assert!(msgs[1].starts_with("unit 1 digest zz"), "{}", msgs[1]);
        assert!(
            msgs[1].contains("first differing index is in 50..75"),
            "{}",
            msgs[1]
        );
        got = expected.clone();
        got.units.pop();
        assert_eq!(
            got.mismatches(&expected, 100),
            ["1 units of work, expected 2"]
        );
    }

    #[test]
    fn expected_file_round_trips() {
        let mut e = Expected {
            seed: 1,
            ..Default::default()
        };
        let obs = Observed {
            units: vec!["0123456789abcdef".into()],
            blocks: vec![vec!["a".into(), "b".into()]],
            golden: [("sha".to_string(), "cycles=9471 commits=12304".to_string())].into(),
        };
        e.sizes
            .entry("full".into())
            .or_default()
            .insert("study_loo_rf".into(), obs.clone());
        let back = Expected::parse(&e.to_json()).unwrap();
        assert_eq!(back.seed, 1);
        assert_eq!(back.get("full", "study_loo_rf"), Some(&obs));
        assert_eq!(back.get("quick", "study_loo_rf"), None);
        assert!(Expected::parse("{\"seed\": 1}").is_err());
    }

    #[test]
    fn digests_cover_order_and_blocks() {
        assert_eq!(digest_str(""), "cbf29ce484222325");
        assert_ne!(digest_str("ab"), digest_str("ba"));
        let (whole, blocks) = digest_results(&[]);
        assert_eq!((whole.as_str(), blocks.len()), ("cbf29ce484222325", 1));
    }
}
