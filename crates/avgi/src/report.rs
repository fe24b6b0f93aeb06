//! Effect distributions and report helpers.

use crate::classify::classify_injection;
use crate::imm::{Imm, ImmClass, NUM_EFFECTS};
use avgi_faultsim::telemetry::{HistogramSnapshot, MetricsCollector, MetricsSnapshot};

/// A Masked/SDC/Crash probability split (one AVF report row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectDistribution {
    /// Fraction of faults with no observable effect.
    pub masked: f64,
    /// Fraction causing silent data corruption.
    pub sdc: f64,
    /// Fraction causing a crash or hang.
    pub crash: f64,
}

impl EffectDistribution {
    /// Builds from an `[masked, sdc, crash]` array.
    pub fn from_array(a: [f64; NUM_EFFECTS]) -> Self {
        EffectDistribution {
            masked: a[0],
            sdc: a[1],
            crash: a[2],
        }
    }

    /// As an `[masked, sdc, crash]` array.
    pub fn to_array(self) -> [f64; NUM_EFFECTS] {
        [self.masked, self.sdc, self.crash]
    }

    /// The Architectural Vulnerability Factor: the probability a fault
    /// affects the program (SDC + Crash).
    pub fn avf(self) -> f64 {
        self.sdc + self.crash
    }

    /// Largest absolute per-class difference to another distribution — the
    /// accuracy metric of Figs. 10 and 12.
    pub fn max_abs_diff(self, other: EffectDistribution) -> f64 {
        self.to_array()
            .iter()
            .zip(other.to_array())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether the three fractions form a probability distribution.
    pub fn is_normalized(self) -> bool {
        let s = self.masked + self.sdc + self.crash;
        (s - 1.0).abs() < 1e-6
            && self.masked >= -1e-12
            && self.sdc >= -1e-12
            && self.crash >= -1e-12
    }
}

impl core::fmt::Display for EffectDistribution {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Masked {:5.1}% | SDC {:5.1}% | Crash {:5.1}%",
            self.masked * 100.0,
            self.sdc * 100.0,
            self.crash * 100.0
        )
    }
}

/// Labels for [`imm_collector`]'s class tallies: the eight IMMs in Table I
/// order, then `Benign`.
pub fn imm_labels() -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = Imm::all().iter().map(|i| i.label()).collect();
    labels.push("Benign");
    labels
}

/// A [`MetricsCollector`] that tallies every observed run by its IMM class
/// (plus `Benign`), closing the faultsim↔classifier layering gap: faultsim
/// cannot see the classifier, so the collector takes it as a plug-in.
pub fn imm_collector() -> MetricsCollector {
    MetricsCollector::with_classes(imm_labels(), |r| match classify_injection(r) {
        ImmClass::Manifested(imm) => imm.index(),
        ImmClass::Benign => imm_labels().len() - 1,
    })
}

/// Folds a telemetry snapshot into report text: run totals, throughput,
/// outcome and IMM tables, and both run-latency histograms.
pub struct TelemetrySummary<'a>(pub &'a MetricsSnapshot);

fn fmt_histogram(
    f: &mut core::fmt::Formatter<'_>,
    title: &str,
    unit: &str,
    h: &HistogramSnapshot,
) -> core::fmt::Result {
    writeln!(f, "  {title}")?;
    if h.is_empty() {
        return writeln!(f, "    (no samples)");
    }
    let max = h.counts.iter().copied().max().unwrap_or(1).max(1);
    for (i, &n) in h.counts.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let (lo, hi) = avgi_faultsim::telemetry::bucket_bounds(i);
        let bar = "#".repeat(((n * 40).div_ceil(max)) as usize);
        writeln!(f, "    [{lo:>9}, {hi:>9}) {unit} {n:>8} {bar}")?;
    }
    Ok(())
}

impl core::fmt::Display for TelemetrySummary<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.0;
        writeln!(
            f,
            "telemetry: {}/{} runs ({} resumed, {} retries, {} aborts) in {:.1}s — {:.1} runs/s",
            s.completed,
            s.planned,
            s.resumed,
            s.retries,
            s.aborted(),
            s.elapsed.as_secs_f64(),
            s.runs_per_sec(),
        )?;
        writeln!(f, "  outcomes:")?;
        for (label, n) in &s.outcomes {
            if *n > 0 {
                writeln!(f, "    {label:<20} {n:>8}")?;
            }
        }
        if s.classes.iter().any(|(_, n)| *n > 0) {
            writeln!(f, "  IMM classes:")?;
            for (label, n) in &s.classes {
                if *n > 0 {
                    writeln!(f, "    {label:<20} {n:>8}")?;
                }
            }
        }
        fmt_histogram(
            f,
            "post-injection cycles per run:",
            "cyc",
            &s.post_inject_cycles,
        )?;
        fmt_histogram(f, "wall-clock per run:", "us ", &s.wall_latency_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avf_is_complement_of_masked_when_normalized() {
        let d = EffectDistribution {
            masked: 0.7,
            sdc: 0.1,
            crash: 0.2,
        };
        assert!(d.is_normalized());
        assert!((d.avf() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_picks_worst_class() {
        let a = EffectDistribution {
            masked: 0.7,
            sdc: 0.1,
            crash: 0.2,
        };
        let b = EffectDistribution {
            masked: 0.6,
            sdc: 0.25,
            crash: 0.15,
        };
        assert!((a.max_abs_diff(b) - 0.15).abs() < 1e-12);
        assert_eq!(a.max_abs_diff(a), 0.0);
    }

    #[test]
    fn array_roundtrip_and_display() {
        let d = EffectDistribution::from_array([0.5, 0.25, 0.25]);
        assert_eq!(d.to_array(), [0.5, 0.25, 0.25]);
        let s = d.to_string();
        assert!(s.contains("Masked") && s.contains("SDC") && s.contains("Crash"));
    }

    #[test]
    fn unnormalized_detected() {
        assert!(!EffectDistribution {
            masked: 0.5,
            sdc: 0.1,
            crash: 0.1
        }
        .is_normalized());
    }

    #[test]
    fn imm_collector_tallies_by_class() {
        use avgi_faultsim::telemetry::CampaignObserver;
        use avgi_faultsim::InjectionResult;
        use avgi_muarch::fault::{Fault, FaultSite, Structure};
        use avgi_muarch::run::RunOutcome;
        use std::time::Duration;

        let base = InjectionResult {
            fault: Fault {
                site: FaultSite {
                    structure: Structure::RegFile,
                    bit: 0,
                },
                cycle: 5,
            },
            outcome: RunOutcome::Completed,
            deviation: None,
            output_matches: Some(true),
            cycles: 100,
            post_inject_cycles: 95,
            abort_message: None,
        };
        let sdc = InjectionResult {
            output_matches: Some(false),
            ..base.clone()
        };
        let crash = InjectionResult {
            outcome: RunOutcome::Watchdog,
            output_matches: None,
            ..base.clone()
        };
        let c = imm_collector();
        c.on_campaign_start(Structure::RegFile, 4);
        for r in [&base, &base, &sdc, &crash] {
            c.on_run(Structure::RegFile, r, Duration::from_micros(10));
        }
        let s = c.snapshot();
        let count = |label: &str| {
            s.classes
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, n)| *n)
                .unwrap()
        };
        assert_eq!(s.classes.len(), imm_labels().len());
        assert_eq!(count("Benign"), 2);
        assert_eq!(count("ESC"), 1, "silent corruption classifies as ESC");
        assert_eq!(count("PRE"), 1, "hang classifies as PRE");
        let text = TelemetrySummary(&s).to_string();
        assert!(text.contains("4/4 runs"));
        assert!(text.contains("IMM classes:"));
        assert!(text.contains("ESC"));
        assert!(text.contains("post-injection cycles per run:"));
    }
}
