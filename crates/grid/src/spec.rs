//! The campaign spec: everything a remote worker needs to rebuild the
//! coordinator's campaign locally.
//!
//! A spec is deliberately compact — a workload registry id, a named
//! microarchitecture preset, and the sampling parameters — rather than a
//! serialized machine image: fault sampling and checkpoint construction are
//! deterministic, so shipping `(workload_id, preset, seed, …)` is enough
//! for every worker to arrive at bit-identical faults and snapshots. Two
//! cross-check fields guard the reconstruction: `golden_cycles` (pins the
//! golden run) and `config_hash` (pins the microarchitecture
//! configuration); a worker whose local rebuild disagrees refuses the
//! campaign instead of contributing wrong results.

use avgi_faultsim::campaign::RunMode;
use avgi_faultsim::json::Json;
use avgi_faultsim::CampaignConfig;
use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::Structure;

/// A named microarchitecture configuration.
///
/// Only presets go on the wire: the two configurations the reproduction
/// studies are [`MuarchConfig::big`] and [`MuarchConfig::small`], and a
/// name plus [`config_hash`](avgi_faultsim::journal::config_hash)
/// cross-check is both smaller and safer than serializing every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigPreset {
    /// The paper's big (Skylake-like) core.
    Big,
    /// The paper's small (Cortex-A15-like) core.
    Small,
}

impl ConfigPreset {
    /// The wire name.
    pub fn ident(self) -> &'static str {
        match self {
            ConfigPreset::Big => "big",
            ConfigPreset::Small => "small",
        }
    }

    /// Parses a wire name.
    pub fn from_ident(s: &str) -> Option<Self> {
        match s {
            "big" => Some(ConfigPreset::Big),
            "small" => Some(ConfigPreset::Small),
            _ => None,
        }
    }

    /// Builds the configuration this preset names.
    pub fn config(self) -> MuarchConfig {
        match self {
            ConfigPreset::Big => MuarchConfig::big(),
            ConfigPreset::Small => MuarchConfig::small(),
        }
    }
}

/// The complete description of a distributed campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Workload name (human-readable cross-check for `workload_id`).
    pub workload: String,
    /// Workload registry id ([`avgi_workloads::NAMES`] index).
    pub workload_id: usize,
    /// Microarchitecture preset.
    pub preset: ConfigPreset,
    /// Target structure.
    pub structure: Structure,
    /// Number of injections in the campaign.
    pub faults: usize,
    /// Fault-sampling seed.
    pub seed: u64,
    /// Run mode.
    pub mode: RunMode,
    /// Multi-bit burst width.
    pub burst_width: u32,
    /// Checkpoint count.
    pub checkpoints: u32,
    /// Fault-free execution length the coordinator measured; a worker whose
    /// local golden capture disagrees must refuse the campaign.
    pub golden_cycles: u64,
    /// [`config_hash`](avgi_faultsim::journal::config_hash) of the
    /// coordinator's microarchitecture configuration (second cross-check).
    pub config_hash: u64,
    /// Lease duration in milliseconds; workers derive their heartbeat
    /// interval from it.
    pub lease_timeout_ms: u64,
}

impl CampaignSpec {
    /// The microarchitecture configuration of this campaign.
    pub fn muarch_config(&self) -> MuarchConfig {
        self.preset.config()
    }

    /// The [`CampaignConfig`] this spec describes (no observer; callers
    /// attach their own).
    pub fn campaign_config(&self) -> CampaignConfig {
        let mut ccfg = CampaignConfig::new(self.structure, self.faults, self.mode)
            .with_seed(self.seed)
            .with_burst(self.burst_width);
        ccfg.checkpoints = self.checkpoints;
        ccfg
    }

    /// Serializes the spec (embedded in the `welcome` frame).
    pub fn to_json(&self) -> String {
        let (mode, ert) = match self.mode {
            RunMode::EndToEnd => ("EndToEnd", None),
            RunMode::Instrumented => ("Instrumented", None),
            RunMode::FirstDeviation { ert_window } => ("FirstDeviation", ert_window),
        };
        let ert = ert.map_or_else(|| "null".to_string(), |n| n.to_string());
        format!(
            "{{\"workload\":\"{}\",\"workload_id\":{},\"preset\":\"{}\",\"structure\":\"{}\",\"faults\":{},\"seed\":{},\"mode\":\"{mode}\",\"ert_window\":{ert},\"burst\":{},\"checkpoints\":{},\"golden_cycles\":{},\"config_hash\":{},\"lease_timeout_ms\":{}}}",
            avgi_faultsim::json::escape(&self.workload),
            self.workload_id,
            self.preset.ident(),
            self.structure.ident(),
            self.faults,
            self.seed,
            self.burst_width,
            self.checkpoints,
            self.golden_cycles,
            self.config_hash,
            self.lease_timeout_ms,
        )
    }

    /// Decodes a spec from an already-parsed JSON value.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let int = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("spec: missing `{key}`"))
        };
        let s = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("spec: missing `{key}`"))
        };
        let ert = match v.get("ert_window") {
            None | Some(Json::Null) => None,
            Some(w) => Some(w.as_u64().ok_or("spec: bad ert_window")?),
        };
        let mode = match s("mode")? {
            "EndToEnd" => RunMode::EndToEnd,
            "Instrumented" => RunMode::Instrumented,
            "FirstDeviation" => RunMode::FirstDeviation { ert_window: ert },
            other => return Err(format!("spec: unknown mode {other:?}")),
        };
        Ok(CampaignSpec {
            workload: s("workload")?.to_string(),
            workload_id: int("workload_id")? as usize,
            preset: ConfigPreset::from_ident(s("preset")?)
                .ok_or_else(|| "spec: unknown preset".to_string())?,
            structure: Structure::from_ident(s("structure")?)
                .ok_or_else(|| "spec: unknown structure".to_string())?,
            faults: int("faults")? as usize,
            seed: int("seed")?,
            mode,
            burst_width: int("burst")? as u32,
            checkpoints: int("checkpoints")? as u32,
            golden_cycles: int("golden_cycles")?,
            config_hash: int("config_hash")?,
            lease_timeout_ms: int("lease_timeout_ms")?,
        })
    }
}

/// A tenant's campaign submission: what `POST /campaigns` accepts, what
/// the durable submission queue journals, and what `grid_submit` sends.
///
/// Unlike [`CampaignSpec`] — which carries the coordinator's *measured*
/// cross-checks (`golden_cycles`, `config_hash`) — a submission holds only
/// what the tenant decides: the campaign definition plus its fair-share
/// scheduling knobs. The service derives the full spec when it activates
/// the campaign (capturing the golden run itself).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// Workload name (resolved against [`avgi_workloads::NAMES`]).
    pub workload: String,
    /// Microarchitecture preset.
    pub preset: ConfigPreset,
    /// Target structure.
    pub structure: Structure,
    /// Number of injections.
    pub faults: usize,
    /// Fault-sampling seed.
    pub seed: u64,
    /// Run mode.
    pub mode: RunMode,
    /// Multi-bit burst width.
    pub burst_width: u32,
    /// Checkpoint count.
    pub checkpoints: u32,
    /// Fair-share priority tier (higher = served first).
    pub priority: u32,
    /// Fair-share weight within the tier (≥ 1).
    pub weight: u32,
    /// Max concurrently leased runs (0 = unlimited).
    pub quota: usize,
}

impl SubmitSpec {
    /// A submission with default knobs for `workload`/`structure`/`faults`.
    pub fn new(workload: &str, structure: Structure, faults: usize, seed: u64) -> Self {
        SubmitSpec {
            workload: workload.to_string(),
            preset: ConfigPreset::Big,
            structure,
            faults,
            seed,
            mode: RunMode::Instrumented,
            burst_width: 1,
            checkpoints: 8,
            priority: 0,
            weight: 1,
            quota: 0,
        }
    }

    /// The [`CampaignConfig`] this submission describes (no observer;
    /// callers attach their own).
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig::new(self.structure, self.faults, self.mode)
            .with_seed(self.seed)
            .with_burst(self.burst_width)
            .with_checkpoints(self.checkpoints)
    }

    /// The scheduling share this submission asks for.
    pub fn share(&self) -> crate::sched::ShareConfig {
        crate::sched::ShareConfig {
            priority: self.priority,
            weight: self.weight.max(1),
            quota: self.quota,
        }
    }

    /// Serializes the submission (HTTP body / queue journal record).
    pub fn to_json(&self) -> String {
        let (mode, ert) = match self.mode {
            RunMode::EndToEnd => ("EndToEnd", None),
            RunMode::Instrumented => ("Instrumented", None),
            RunMode::FirstDeviation { ert_window } => ("FirstDeviation", ert_window),
        };
        let ert = ert.map_or_else(|| "null".to_string(), |n| n.to_string());
        format!(
            "{{\"workload\":\"{}\",\"preset\":\"{}\",\"structure\":\"{}\",\"faults\":{},\"seed\":{},\"mode\":\"{mode}\",\"ert_window\":{ert},\"burst\":{},\"checkpoints\":{},\"priority\":{},\"weight\":{},\"quota\":{}}}",
            avgi_faultsim::json::escape(&self.workload),
            self.preset.ident(),
            self.structure.ident(),
            self.faults,
            self.seed,
            self.burst_width,
            self.checkpoints,
            self.priority,
            self.weight,
            self.quota,
        )
    }

    /// Decodes a submission from an already-parsed JSON value. The
    /// scheduling knobs, preset, mode, burst, and checkpoints are optional
    /// (defaults as in [`SubmitSpec::new`]); the campaign identity fields
    /// are required.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let int = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("submit: missing `{key}`"))
        };
        let opt_int = |key: &str, default: u64| match v.get(key) {
            None | Some(Json::Null) => Ok(default),
            Some(n) => n.as_u64().ok_or_else(|| format!("submit: bad `{key}`")),
        };
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("submit: missing `workload`")?
            .to_string();
        if !avgi_workloads::NAMES.contains(&workload.as_str()) {
            return Err(format!("submit: unknown workload `{workload}`"));
        }
        let structure = v
            .get("structure")
            .and_then(Json::as_str)
            .and_then(Structure::from_ident)
            .ok_or("submit: missing or unknown `structure`")?;
        let preset = match v.get("preset").and_then(Json::as_str) {
            None => ConfigPreset::Big,
            Some(p) => ConfigPreset::from_ident(p).ok_or("submit: unknown preset")?,
        };
        let ert = match v.get("ert_window") {
            None | Some(Json::Null) => None,
            Some(w) => Some(w.as_u64().ok_or("submit: bad ert_window")?),
        };
        let mode = match v.get("mode").and_then(Json::as_str) {
            None | Some("Instrumented") => RunMode::Instrumented,
            Some("EndToEnd") => RunMode::EndToEnd,
            Some("FirstDeviation") => RunMode::FirstDeviation { ert_window: ert },
            Some(other) => return Err(format!("submit: unknown mode {other:?}")),
        };
        let faults = int("faults")? as usize;
        if faults == 0 {
            return Err("submit: `faults` must be positive".into());
        }
        Ok(SubmitSpec {
            workload,
            preset,
            structure,
            faults,
            seed: int("seed")?,
            mode,
            burst_width: opt_int("burst", 1)? as u32,
            checkpoints: opt_int("checkpoints", 8)? as u32,
            priority: opt_int("priority", 0)? as u32,
            weight: opt_int("weight", 1)?.max(1) as u32,
            quota: opt_int("quota", 0)? as usize,
        })
    }

    /// Decodes a submission from JSON text.
    pub fn from_json(s: &str) -> Result<Self, String> {
        Self::from_json_value(&avgi_faultsim::json::parse(s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avgi_faultsim::json::parse;

    #[test]
    fn submit_spec_round_trips_and_defaults() {
        let full = SubmitSpec {
            workload: "crc32".into(),
            preset: ConfigPreset::Small,
            structure: Structure::Rob,
            faults: 96,
            seed: 0xBEE,
            mode: RunMode::FirstDeviation {
                ert_window: Some(500),
            },
            burst_width: 2,
            checkpoints: 4,
            priority: 3,
            weight: 5,
            quota: 16,
        };
        let back = SubmitSpec::from_json(&full.to_json()).unwrap();
        assert_eq!(back, full);
        // Minimal body: identity fields only, everything else defaulted.
        let min = SubmitSpec::from_json(
            "{\"workload\":\"bitcount\",\"structure\":\"RegFile\",\"faults\":8,\"seed\":1}",
        )
        .unwrap();
        assert_eq!(min, SubmitSpec::new("bitcount", Structure::RegFile, 8, 1));
        assert_eq!(min.share().weight, 1);
        // Bad submissions are refused with a reason.
        assert!(SubmitSpec::from_json(
            "{\"workload\":\"nope\",\"structure\":\"RegFile\",\"faults\":8,\"seed\":1}"
        )
        .is_err());
        assert!(SubmitSpec::from_json(
            "{\"workload\":\"bitcount\",\"structure\":\"RegFile\",\"faults\":0,\"seed\":1}"
        )
        .is_err());
        assert!(
            SubmitSpec::from_json("{\"workload\":\"bitcount\",\"faults\":8,\"seed\":1}").is_err()
        );
    }

    #[test]
    fn spec_round_trips() {
        let spec = CampaignSpec {
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
        };
        let back = CampaignSpec::from_json_value(&parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(back, spec);
        // And with a None ert_window / different preset.
        let spec = CampaignSpec {
            mode: RunMode::EndToEnd,
            preset: ConfigPreset::Small,
            ..spec
        };
        let back = CampaignSpec::from_json_value(&parse(&spec.to_json()).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn campaign_config_matches_spec() {
        let spec = CampaignSpec {
            workload: "crc32".into(),
            workload_id: 2,
            preset: ConfigPreset::Big,
            structure: Structure::L1DData,
            faults: 64,
            seed: 7,
            mode: RunMode::Instrumented,
            burst_width: 3,
            checkpoints: 5,
            golden_cycles: 1,
            config_hash: 1,
            lease_timeout_ms: 1_000,
        };
        let ccfg = spec.campaign_config();
        assert_eq!(ccfg.structure, Structure::L1DData);
        assert_eq!(ccfg.faults, 64);
        assert_eq!(ccfg.seed, 7);
        assert_eq!(ccfg.burst_width, 3);
        assert_eq!(ccfg.checkpoints, 5);
    }
}
