//! Statistical fault sampling, following Leveugle et al., *"Statistical
//! fault injection: Quantified error and confidence"* (DATE 2009) — the
//! paper's reference \[1\] for sample-size / error-margin calculations.
//!
//! The paper's operating point — 2,000 faults per (structure, workload) —
//! corresponds to a 2.88 % error margin at 99 % confidence, which
//! [`error_margin`] reproduces exactly.

use avgi_muarch::config::MuarchConfig;
use avgi_muarch::fault::{Fault, FaultSite, Structure};
use avgi_rng::Rng;

/// Confidence levels with their normal-distribution z-values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Confidence {
    /// 90 % (z = 1.645).
    C90,
    /// 95 % (z = 1.960).
    C95,
    /// 99 % (z = 2.576), the paper's choice.
    C99,
}

impl Confidence {
    /// The two-sided z-value.
    pub fn z(self) -> f64 {
        match self {
            Confidence::C90 => 1.645,
            Confidence::C95 => 1.960,
            Confidence::C99 => 2.576,
        }
    }

    /// The confidence level as a fraction in (0, 1), for the continuous
    /// APIs ([`z_value`], [`sample_size_at`], [`wilson_interval`]).
    pub fn level(self) -> f64 {
        match self {
            Confidence::C90 => 0.90,
            Confidence::C95 => 0.95,
            Confidence::C99 => 0.99,
        }
    }
}

/// A statistically meaningless input to [`error_margin`] or
/// [`sample_size`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingError {
    /// `error_margin` was asked about an empty campaign: no margin exists
    /// for zero samples.
    ZeroSamples,
    /// `sample_size` was given a margin that is zero, negative, NaN, or
    /// infinite: no finite campaign achieves it.
    InvalidMargin,
    /// `sample_faults` was asked to sample injection cycles from a golden
    /// run of zero cycles: there is no execution to inject into.
    EmptyGoldenRun,
    /// A continuous confidence level outside the open interval (0, 1) — or
    /// NaN — was passed to [`z_value`], [`error_margin_at`],
    /// [`sample_size_at`], or [`wilson_interval`]. Confidence is a
    /// probability; the old behavior of clamping out-of-range levels
    /// silently turned a caller bug (e.g. passing `95` instead of `0.95`)
    /// into a wrong-but-plausible sample size.
    InvalidConfidence,
    /// An adaptive campaign's explore floor outside (0, 1] — or NaN: the
    /// proposal's uniform share, which bounds every importance weight by
    /// `1/explore`, must be a positive fraction.
    InvalidExplore,
}

impl std::fmt::Display for SamplingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplingError::ZeroSamples => {
                write!(f, "error margin is undefined for zero samples")
            }
            SamplingError::InvalidMargin => {
                write!(f, "sample size requires a finite error margin > 0")
            }
            SamplingError::EmptyGoldenRun => {
                write!(
                    f,
                    "cannot sample injection cycles from a zero-cycle golden run"
                )
            }
            SamplingError::InvalidConfidence => {
                write!(f, "confidence level must lie strictly inside (0, 1)")
            }
            SamplingError::InvalidExplore => {
                write!(f, "explore floor must lie in (0, 1]")
            }
        }
    }
}

impl std::error::Error for SamplingError {}

/// Error margin for `n` samples at the given confidence, with the
/// worst-case proportion p = 0.5 (infinite fault population).
///
/// Fails with [`SamplingError::ZeroSamples`] for `n == 0` (the naive
/// formula would divide by zero and report an infinite margin).
///
/// ```
/// use avgi_faultsim::sampling::{error_margin, Confidence};
/// let e = error_margin(2_000, Confidence::C99).unwrap();
/// assert!((e - 0.0288).abs() < 0.0002, "paper's operating point");
/// ```
pub fn error_margin(n: usize, confidence: Confidence) -> Result<f64, SamplingError> {
    if n == 0 {
        return Err(SamplingError::ZeroSamples);
    }
    Ok(confidence.z() * (0.25 / n as f64).sqrt())
}

/// Sample size needed for error margin `e` at the given confidence
/// (worst-case p = 0.5, infinite population).
///
/// Fails with [`SamplingError::InvalidMargin`] unless `e` is finite and
/// positive. For margins so tight the count overflows `usize`, the result
/// saturates at `usize::MAX` (the float-to-int cast saturates) rather than
/// wrapping.
pub fn sample_size(e: f64, confidence: Confidence) -> Result<usize, SamplingError> {
    if !(e.is_finite() && e > 0.0) {
        return Err(SamplingError::InvalidMargin);
    }
    let z = confidence.z();
    Ok((z * z * 0.25 / (e * e)).ceil() as usize)
}

/// The two-sided z-value for a continuous confidence level in (0, 1) —
/// the inverse normal CDF evaluated at `(1 + confidence) / 2`.
///
/// Fails with [`SamplingError::InvalidConfidence`] for levels at or outside
/// the open unit interval (including NaN): confidence is a probability, and
/// silently clamping `95` to mean "95 %" would manufacture a plausible but
/// wrong answer. Uses the Acklam rational approximation of the probit
/// function (absolute error < 1.2e-9 over the whole domain), so the named
/// [`Confidence`] levels round-trip: `z_value(c.level())` agrees with
/// `c.z()` to the three decimals the enum tabulates.
pub fn z_value(confidence: f64) -> Result<f64, SamplingError> {
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(SamplingError::InvalidConfidence);
    }
    Ok(probit((1.0 + confidence) / 2.0))
}

/// Inverse standard-normal CDF (Acklam's algorithm) for `p` in (0, 1).
fn probit(p: f64) -> f64 {
    // Coefficients of the central and tail rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -probit(1.0 - p)
    }
}

/// [`error_margin`] at a continuous confidence level in (0, 1).
pub fn error_margin_at(n: usize, confidence: f64) -> Result<f64, SamplingError> {
    if n == 0 {
        return Err(SamplingError::ZeroSamples);
    }
    Ok(z_value(confidence)? * (0.25 / n as f64).sqrt())
}

/// [`sample_size`] at a continuous confidence level in (0, 1).
///
/// Unlike the enum-typed [`sample_size`], the level here is caller data
/// (e.g. a `--confidence 0.95` flag), so it is validated: levels at or
/// outside (0, 1) fail with [`SamplingError::InvalidConfidence`] instead of
/// being clamped into a silently wrong campaign size.
pub fn sample_size_at(e: f64, confidence: f64) -> Result<usize, SamplingError> {
    let z = z_value(confidence)?;
    if !(e.is_finite() && e > 0.0) {
        return Err(SamplingError::InvalidMargin);
    }
    Ok((z * z * 0.25 / (e * e)).ceil() as usize)
}

/// The Wilson score interval for a proportion: `(lo, hi)` bounding the true
/// rate at the given confidence after observing proportion `p_hat` over `n`
/// (possibly *effective*, hence fractional) samples.
///
/// Unlike the Wald interval behind [`error_margin`], Wilson stays inside
/// `[0, 1]` and behaves at the extremes (`p_hat` near 0 or 1, small `n`) —
/// exactly the regime an adaptive campaign's early-stopping rule lives in.
/// `p_hat` is clamped to `[0, 1]` (a Horvitz–Thompson estimate can
/// legitimately poke slightly outside); `n` must be positive and finite,
/// else [`SamplingError::ZeroSamples`].
pub fn wilson_interval(p_hat: f64, n: f64, confidence: f64) -> Result<(f64, f64), SamplingError> {
    let z = z_value(confidence)?;
    if !(n.is_finite() && n > 0.0) {
        return Err(SamplingError::ZeroSamples);
    }
    let p = p_hat.clamp(0.0, 1.0);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    Ok(((center - half).max(0.0), (center + half).min(1.0)))
}

/// Draws `n` uniform single-bit transient faults for `structure`: uniform
/// over the structure's storage bits and uniform over the fault-free
/// execution's `golden_cycles`, as prescribed by the paper's §II.D.
///
/// Fails with [`SamplingError::EmptyGoldenRun`] when `golden_cycles == 0`:
/// a zero-cycle golden run has no execution to inject into, and the old
/// behavior of silently clamping to one cycle piled every fault onto cycle
/// 0 with no signal that the campaign was degenerate.
pub fn sample_faults(
    structure: Structure,
    cfg: &MuarchConfig,
    golden_cycles: u64,
    n: usize,
    seed: u64,
) -> Result<Vec<Fault>, SamplingError> {
    if golden_cycles == 0 {
        return Err(SamplingError::EmptyGoldenRun);
    }
    let bits = structure.bit_count(cfg);
    let mut rng = Rng::seed_from_u64(seed);
    Ok((0..n)
        .map(|_| Fault {
            site: FaultSite {
                structure,
                bit: rng.gen_range_u64(bits),
            },
            cycle: rng.gen_range_u64(golden_cycles),
        })
        .collect())
}

/// Expands a single-bit fault into a spatially adjacent multi-bit burst of
/// `width` bits (§VII.A): neighbouring bits of the same structure flipped
/// at the same cycle, clamped at the end of the array. A burst wider than
/// the structure covers exactly the structure's bits — never sites beyond
/// them.
pub fn multi_bit_burst(fault: Fault, width: u32, cfg: &MuarchConfig) -> Vec<Fault> {
    let bits = fault.site.structure.bit_count(cfg);
    let len = u64::from(width.max(1)).min(bits);
    let start = fault.site.bit.min(bits - len);
    (0..len)
        .map(|k| Fault {
            site: FaultSite {
                structure: fault.site.structure,
                bit: start + k,
            },
            cycle: fault.cycle,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_point() {
        let e = error_margin(2_000, Confidence::C99).unwrap();
        assert!((e - 0.0288).abs() < 2e-4, "got {e}");
        // Inverse direction.
        let n = sample_size(0.0288, Confidence::C99).unwrap();
        assert!((1_900..2_100).contains(&n), "got {n}");
    }

    #[test]
    fn margin_shrinks_with_samples() {
        let m = |n, c| error_margin(n, c).unwrap();
        assert!(m(4_000, Confidence::C99) < m(1_000, Confidence::C99));
        assert!(m(1_000, Confidence::C90) < m(1_000, Confidence::C99));
    }

    #[test]
    fn degenerate_sampling_inputs_are_domain_errors() {
        // Pre-fix, these divided by zero: error_margin(0, _) returned inf
        // and sample_size(0.0, _) cast inf to usize.
        assert_eq!(
            error_margin(0, Confidence::C99),
            Err(SamplingError::ZeroSamples)
        );
        for bad in [0.0, -0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                sample_size(bad, Confidence::C95),
                Err(SamplingError::InvalidMargin),
                "margin {bad}"
            );
        }
        // One sample is degenerate but defined; a large finite margin too.
        assert!(error_margin(1, Confidence::C90).unwrap().is_finite());
        assert_eq!(sample_size(1.0, Confidence::C90).unwrap(), 1);
        // Ludicrously tight margins saturate instead of wrapping.
        assert_eq!(
            sample_size(f64::MIN_POSITIVE, Confidence::C99).unwrap(),
            usize::MAX
        );
    }

    #[test]
    fn confidence_outside_unit_interval_is_a_distinct_error() {
        // Regression: the continuous-confidence path must reject levels at
        // or outside (0, 1) with its own error — not clamp them. A caller
        // passing `95` for "95 %" used to get a clamped, plausible-looking
        // sample size; now the bug is loud and distinguishable from a bad
        // margin.
        for bad in [0.0, 1.0, -0.5, 95.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                sample_size_at(0.03, bad),
                Err(SamplingError::InvalidConfidence),
                "confidence {bad}"
            );
            assert_eq!(z_value(bad), Err(SamplingError::InvalidConfidence));
            assert_eq!(
                error_margin_at(100, bad),
                Err(SamplingError::InvalidConfidence)
            );
            assert_eq!(
                wilson_interval(0.5, 100.0, bad),
                Err(SamplingError::InvalidConfidence)
            );
        }
        // The two error kinds stay distinct: a bad margin at a good level
        // is still InvalidMargin.
        assert_eq!(sample_size_at(0.0, 0.95), Err(SamplingError::InvalidMargin));
        assert_eq!(error_margin_at(0, 0.95), Err(SamplingError::ZeroSamples));
    }

    #[test]
    fn continuous_confidence_agrees_with_the_named_levels() {
        for c in [Confidence::C90, Confidence::C95, Confidence::C99] {
            let z = z_value(c.level()).unwrap();
            assert!(
                (z - c.z()).abs() < 5e-4,
                "{c:?}: probit {z} vs tabulated {}",
                c.z()
            );
            let n_enum = sample_size(0.0288, c).unwrap();
            let n_cont = sample_size_at(0.0288, c.level()).unwrap();
            assert!(n_enum.abs_diff(n_cont) <= 2, "{c:?}: {n_enum} vs {n_cont}");
        }
        // Deep tails exercise the tail branch of the approximation.
        let z = z_value(0.999_999).unwrap();
        assert!((4.0..6.0).contains(&z), "got {z}");
    }

    #[test]
    fn wilson_interval_is_sane() {
        // Covers the point estimate, stays in [0,1], shrinks with n.
        let (lo, hi) = wilson_interval(0.3, 100.0, 0.95).unwrap();
        assert!(lo < 0.3 && 0.3 < hi);
        assert!(lo > 0.0 && hi < 1.0);
        let (lo2, hi2) = wilson_interval(0.3, 10_000.0, 0.95).unwrap();
        assert!(hi2 - lo2 < hi - lo, "more samples, tighter interval");
        // Extremes stay bounded (Wald would collapse to a point at p=0).
        let (lo0, hi0) = wilson_interval(0.0, 50.0, 0.95).unwrap();
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 0.2);
        let (lo1, hi1) = wilson_interval(1.0, 50.0, 0.95).unwrap();
        assert!(lo1 < 1.0 && hi1 > 1.0 - 1e-12 && hi1 <= 1.0);
        // HT estimates can poke outside [0,1]; they are clamped, not NaN.
        let (lo, hi) = wilson_interval(1.07, 50.0, 0.95).unwrap();
        assert!(lo.is_finite() && hi > 1.0 - 1e-12 && hi <= 1.0);
        assert_eq!(
            wilson_interval(0.5, 0.0, 0.95),
            Err(SamplingError::ZeroSamples)
        );
    }

    #[test]
    fn sampling_is_deterministic_and_in_range() {
        let cfg = MuarchConfig::big();
        let a = sample_faults(Structure::RegFile, &cfg, 10_000, 100, 42).unwrap();
        let b = sample_faults(Structure::RegFile, &cfg, 10_000, 100, 42).unwrap();
        assert_eq!(a, b);
        let bits = Structure::RegFile.bit_count(&cfg);
        for f in &a {
            assert!(f.site.bit < bits);
            assert!(f.cycle < 10_000);
        }
        let c = sample_faults(Structure::RegFile, &cfg, 10_000, 100, 43).unwrap();
        assert_ne!(a, c, "different seed, different sample");
    }

    #[test]
    fn zero_cycle_golden_run_is_a_sampling_error() {
        // Pre-fix, `golden_cycles == 0` was silently clamped to 1, piling
        // every fault onto cycle 0 of a run that never executed.
        let cfg = MuarchConfig::big();
        assert_eq!(
            sample_faults(Structure::RegFile, &cfg, 0, 100, 42),
            Err(SamplingError::EmptyGoldenRun)
        );
        // One cycle is degenerate but well-defined: every fault lands on it.
        let faults = sample_faults(Structure::RegFile, &cfg, 1, 16, 42).unwrap();
        assert!(faults.iter().all(|f| f.cycle == 0));
    }

    #[test]
    fn sampling_covers_the_bit_space() {
        let cfg = MuarchConfig::big();
        let faults = sample_faults(Structure::L2Data, &cfg, 100_000, 2_000, 7).unwrap();
        let bits = Structure::L2Data.bit_count(&cfg);
        let lo = faults.iter().filter(|f| f.site.bit < bits / 2).count();
        // Roughly balanced halves (binomial, generous tolerance).
        assert!(
            (800..1_200).contains(&lo),
            "skewed sampling: {lo}/2000 in low half"
        );
    }

    #[test]
    fn burst_is_adjacent_and_clamped() {
        let cfg = MuarchConfig::big();
        let f = Fault {
            site: FaultSite {
                structure: Structure::RegFile,
                bit: 5,
            },
            cycle: 9,
        };
        let burst = multi_bit_burst(f, 3, &cfg);
        assert_eq!(
            burst.iter().map(|f| f.site.bit).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert!(burst.iter().all(|b| b.cycle == 9));
        // Clamp at the end of the array.
        let bits = Structure::RegFile.bit_count(&cfg);
        let f = Fault {
            site: FaultSite {
                structure: Structure::RegFile,
                bit: bits - 1,
            },
            cycle: 0,
        };
        let burst = multi_bit_burst(f, 4, &cfg);
        assert_eq!(burst.last().unwrap().site.bit, bits - 1);
        assert_eq!(burst.len(), 4);
    }

    #[test]
    fn burst_wider_than_the_structure_stays_in_range() {
        // Pre-fix, `start` saturated to 0 but the burst still spanned
        // `width` bits, emitting fault sites past the end of the array.
        let cfg = MuarchConfig::big();
        let structure = Structure::Itlb;
        let bits = structure.bit_count(&cfg);
        let width = u32::try_from(bits + 7).expect("test structure small enough");
        let f = Fault {
            site: FaultSite { structure, bit: 3 },
            cycle: 1,
        };
        let burst = multi_bit_burst(f, width, &cfg);
        assert_eq!(burst.len() as u64, bits, "burst clamps to the structure");
        for (k, b) in burst.iter().enumerate() {
            assert!(b.site.bit < bits, "bit {} out of range", b.site.bit);
            assert_eq!(b.site.bit, k as u64, "burst covers the whole structure");
        }
    }
}
