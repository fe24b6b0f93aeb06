//! Effective residency time (ERT) windows — insight 3 (§V.A).
//!
//! Nearly every fault that will ever manifest does so within a short,
//! structure-dependent window after injection: registers and queue entries
//! live a handful of cycles, cache lines tens of thousands. Stopping a
//! simulation `window` cycles after injection therefore loses (almost) no
//! manifestations while skipping the long benign tail.
//!
//! The windows below are *pessimistic* defaults measured on this
//! simulator's workloads (the analogue of the paper's Table II "Maximum
//! Sim Cycles" column, scaled with the ~1000× shorter executions); the
//! experiments use them as they stand, and [`ert_window_for_coverage`]
//! derives a window from observed manifestation latencies for comparison
//! (`examples/residency_time.rs`).

use crate::analysis::JointAnalysis;
use avgi_muarch::fault::Structure;

/// The ERT stop window, in cycles, for a structure under a run of
/// `golden_cycles` total cycles.
///
/// ROB/LQ/SQ windows are a fraction of the execution (the paper's "3 %"),
/// all others are absolute cycle counts.
pub fn default_ert_window(structure: Structure, golden_cycles: u64) -> u64 {
    match structure {
        Structure::RegFile => 1_200,
        Structure::Itlb => 600,
        Structure::Dtlb => 1_500,
        Structure::L1ITag => 5_000,
        Structure::L1IData => 7_000,
        Structure::L1DTag => 3_000,
        Structure::Rob | Structure::Lq | Structure::Sq => (golden_cycles * 3 / 100).max(200),
        Structure::L2Tag => 9_000,
        Structure::L1DData => 12_000,
        Structure::L2Data => 16_000,
    }
}

/// A pooled manifestation-latency quantile across analyses: the window
/// covering `coverage` (0..=1) of observed manifestations, padded by
/// `margin_percent`. `None` when no manifestation was observed.
pub fn ert_window_for_coverage(
    analyses: &[JointAnalysis],
    coverage: f64,
    margin_percent: u64,
) -> Option<u64> {
    let mut lats: Vec<u64> = analyses
        .iter()
        .flat_map(|a| a.manifestation_latencies.iter().copied())
        .collect();
    if lats.is_empty() {
        return None;
    }
    lats.sort_unstable();
    // The window is pessimistic: take the smallest latency whose rank
    // covers at least `coverage` of the pool — a ceiling, not a floor (a
    // floored index under-covers, e.g. rank 48 of 50 for coverage 0.99).
    let rank = (lats.len() as f64 * coverage.clamp(0.0, 1.0)).ceil() as usize;
    let idx = rank.max(1).min(lats.len()) - 1;
    let w = lats[idx];
    Some(w + w * margin_percent / 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_structure_depth() {
        // Deep-pipeline structures have far shorter windows than the lower
        // cache levels — the ordering behind Table II's speedup column.
        let g = 50_000;
        let rf = default_ert_window(Structure::RegFile, g);
        let l1d = default_ert_window(Structure::L1DData, g);
        let l2 = default_ert_window(Structure::L2Data, g);
        assert!(rf < default_ert_window(Structure::Dtlb, g));
        assert!(default_ert_window(Structure::L1IData, g) < l1d);
        assert!(l1d < l2);
    }

    #[test]
    fn queue_windows_scale_with_execution_length() {
        assert_eq!(default_ert_window(Structure::Rob, 100_000), 3_000);
        assert_eq!(
            default_ert_window(Structure::Rob, 1_000),
            200,
            "floor applies"
        );
    }

    fn mk(lat: u64) -> JointAnalysis {
        use crate::imm::{NUM_EFFECTS, NUM_IMMS};
        JointAnalysis {
            workload: "w".into(),
            structure: Structure::RegFile,
            counts: [[0; NUM_EFFECTS]; NUM_IMMS + 1],
            manifestation_latencies: vec![lat],
            total: 0,
        }
    }

    #[test]
    fn coverage_quantile_rounds_up() {
        // Latencies 1..=50: coverage 0.99 needs ceil(0.99 * 50) = 50 ranks,
        // i.e. the maximum latency 50. Pre-fix, the floored index picked
        // rank 49 (latency 49) and silently under-covered.
        let analyses: Vec<JointAnalysis> = (1..=50).map(mk).collect();
        assert_eq!(ert_window_for_coverage(&analyses, 0.99, 0), Some(50));
        // Exact-rank coverages are unchanged by the ceiling.
        assert_eq!(ert_window_for_coverage(&analyses, 0.5, 0), Some(25));
        assert_eq!(ert_window_for_coverage(&analyses, 1.0, 0), Some(50));
        // Degenerate coverages stay in range instead of panicking.
        assert_eq!(ert_window_for_coverage(&analyses, 0.0, 0), Some(1));
        assert_eq!(ert_window_for_coverage(&analyses, -3.0, 0), Some(1));
        assert_eq!(ert_window_for_coverage(&analyses, 7.0, 10), Some(55));
        assert_eq!(ert_window_for_coverage(&[], 0.99, 0), None);
    }
}
