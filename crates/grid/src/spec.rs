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
use avgi_faultsim::journal::{read_mode, structure_at, write_mode};
use avgi_faultsim::json::{self, Json, Writer};
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

    /// Reads the optional `preset` field of a spec document.
    fn read(v: &Json) -> Result<Option<Self>, String> {
        v.opt("preset", Json::str_at)?
            .map(|name| Self::from_ident(name).ok_or_else(|| format!("unknown `preset` {name:?}")))
            .transpose()
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

    /// Writes the spec object (embedded in the `welcome` and `spec` frames).
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.key("workload").str(&self.workload);
            w.key("workload_id").usize(self.workload_id);
            w.key("preset").str(self.preset.ident());
            w.key("structure").str(self.structure.ident());
            w.key("faults").usize(self.faults);
            w.key("seed").u64(self.seed);
            write_mode(w, self.mode);
            w.key("burst").u64(self.burst_width.into());
            w.key("checkpoints").u64(self.checkpoints.into());
            w.key("golden_cycles").u64(self.golden_cycles);
            w.key("config_hash").u64(self.config_hash);
            w.key("lease_timeout_ms").u64(self.lease_timeout_ms);
        });
    }

    /// [`write_json`](Self::write_json) into a fresh string.
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }

    /// Decodes a spec from an already-parsed JSON value, refusing one a
    /// worker could not carry by the bounds a submission is held to
    /// ([`SubmitSpec::validate`]).
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let spec = || -> Result<Self, String> {
            let spec = CampaignSpec {
                workload: v.str_at("workload")?.to_string(),
                workload_id: v.usize_at("workload_id")?,
                preset: ConfigPreset::read(v)?.ok_or("missing `preset`")?,
                structure: structure_at(v, "structure")?,
                faults: v.usize_at("faults")?,
                seed: v.u64_at("seed")?,
                mode: read_mode(v)?.ok_or("missing `mode`")?,
                burst_width: v.u32_at("burst")?,
                checkpoints: v.u32_at("checkpoints")?,
                golden_cycles: v.u64_at("golden_cycles")?,
                config_hash: v.u64_at("config_hash")?,
                lease_timeout_ms: v.u64_at("lease_timeout_ms")?,
            };
            check_size(spec.faults, spec.checkpoints, spec.burst_width)?;
            Ok(spec)
        };
        spec().map_err(|e| format!("spec: {e}"))
    }
}

/// Most injections one submission may ask for. A campaign costs the service
/// its sampled fault list (24 B per fault) plus one result slot per fault
/// (≈ 150 B) from activation on, and the paper's assessments are a few
/// thousand injections per structure; 2²⁰ is 500× that and ≈ 180 MB.
/// Unbounded, `"faults":1000000000000` asks `sample_faults` for 24 TB.
pub const MAX_FAULTS: usize = 1 << 20;

/// Most checkpoints one submission may ask for. Every worker leased the
/// campaign holds a set of that many `Snapshot`s (shared with its other
/// campaigns over the same golden run and count): ≈ 111 KB each under the
/// `big` preset, ≈ 58 KB under `small`. The default is 8 (≈ 0.9 MB); 128 is
/// 16× that and ≈ 14 MB per set, where 1024 let one submission make every
/// leased worker hold ≈ 114 MB.
pub const MAX_CHECKPOINTS: u32 = 128;

/// Widest multi-bit burst one submission may ask for: one machine word of
/// adjacent bits. The paper's multi-bit study (§VII.A) uses 2–4; every run
/// materialises its burst as a fault list, so the width is an allocation.
pub const MAX_BURST: u32 = 64;

/// The size bounds of a campaign: positive in size and within
/// [`MAX_FAULTS`], [`MAX_CHECKPOINTS`] and [`MAX_BURST`]. A submission is
/// held to them before it is journaled, a spec before a worker builds it.
fn check_size(faults: usize, checkpoints: u32, burst_width: u32) -> Result<(), String> {
    let within = |field: &str, value: u64, max: u64| {
        if value > max {
            return Err(format!("`{field}` is {value}, above the limit of {max}"));
        }
        Ok(())
    };
    if faults == 0 {
        return Err("`faults` must be positive".into());
    }
    within("faults", faults as u64, MAX_FAULTS as u64)?;
    within("checkpoints", checkpoints.into(), MAX_CHECKPOINTS.into())?;
    within("burst", burst_width.into(), MAX_BURST.into())
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

    /// Refuses a submission the service could not carry: every campaign
    /// must be positive in size and within [`MAX_FAULTS`],
    /// [`MAX_CHECKPOINTS`] and [`MAX_BURST`]. Both doors run it before
    /// anything is journaled — the decoder (HTTP body, queue replay) and
    /// [`Service::submit`](crate::Service::submit) (in-process).
    pub fn validate(&self) -> Result<(), String> {
        check_size(self.faults, self.checkpoints, self.burst_width)
    }

    /// Writes the submission object (HTTP body / queue journal record).
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.key("workload").str(&self.workload);
            w.key("preset").str(self.preset.ident());
            w.key("structure").str(self.structure.ident());
            w.key("faults").usize(self.faults);
            w.key("seed").u64(self.seed);
            write_mode(w, self.mode);
            w.key("burst").u64(self.burst_width.into());
            w.key("checkpoints").u64(self.checkpoints.into());
            w.key("priority").u64(self.priority.into());
            w.key("weight").u64(self.weight.into());
            w.key("quota").usize(self.quota);
        });
    }

    /// [`write_json`](Self::write_json) into a fresh string.
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }

    /// Decodes and [`validate`](Self::validate)s a submission from an
    /// already-parsed JSON value. The scheduling knobs, preset, mode,
    /// burst, and checkpoints are optional (defaults as in
    /// [`SubmitSpec::new`]); the campaign identity fields are required.
    /// Every integer is range-checked against its field's type — nothing is
    /// narrowed silently.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let spec = || -> Result<Self, String> {
            let workload = v.str_at("workload")?;
            if !avgi_workloads::NAMES.contains(&workload) {
                return Err(format!("unknown workload `{workload}`"));
            }
            let d = SubmitSpec::new(
                workload,
                structure_at(v, "structure")?,
                v.usize_at("faults")?,
                v.u64_at("seed")?,
            );
            let u32_or = |key: &str, default: u32| -> Result<u32, String> {
                Ok(v.opt(key, Json::u32_at)?.unwrap_or(default))
            };
            let spec = SubmitSpec {
                preset: ConfigPreset::read(v)?.unwrap_or(d.preset),
                mode: read_mode(v)?.unwrap_or(d.mode),
                burst_width: u32_or("burst", d.burst_width)?,
                checkpoints: u32_or("checkpoints", d.checkpoints)?,
                priority: u32_or("priority", d.priority)?,
                weight: u32_or("weight", d.weight)?.max(1),
                quota: v.opt("quota", Json::usize_at)?.unwrap_or(d.quota),
                ..d
            };
            spec.validate()?;
            Ok(spec)
        };
        spec().map_err(|e| format!("submit: {e}"))
    }

    /// Decodes a submission from JSON text.
    pub fn from_json(s: &str) -> Result<Self, String> {
        Self::from_json_value(&json::parse(s).map_err(|e| format!("submit: {e}"))?)
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
