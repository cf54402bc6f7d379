//! One-dimensional Gaussian distributions.
//!
//! The central operation for MoLoc is [`Gaussian::window_mass`], the
//! probability mass inside a window `[c - w/2, c + w/2]` — the discretized
//! integral `D_{i,j}(d)` / `O_{i,j}(o)` of the paper's Eq. 5.

use crate::erf::std_normal_cdf;
use serde::{Deserialize, Serialize};

/// Error returned when constructing a [`Gaussian`] with an invalid
/// standard deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidStdError;

impl std::fmt::Display for InvalidStdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "standard deviation must be finite and positive")
    }
}

impl std::error::Error for InvalidStdError {}

/// A univariate Gaussian `N(mean, std²)`.
///
/// # Examples
///
/// ```
/// use moloc_stats::gaussian::Gaussian;
///
/// let g = Gaussian::new(0.0, 1.0)?;
/// assert!((g.cdf(0.0) - 0.5).abs() < 1e-6);
/// # Ok::<(), moloc_stats::gaussian::InvalidStdError>(())
/// ```
///
/// Deserializing goes through [`Gaussian::new`], so a non-finite mean
/// and a std that is not finite and positive are errors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Gaussian {
    mean: f64,
    std: f64,
}

/// The serialized form of a [`Gaussian`], before its checks.
#[derive(Deserialize)]
struct RawGaussian {
    mean: f64,
    std: f64,
}

impl<'de> Deserialize<'de> for Gaussian {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let raw = RawGaussian::deserialize(deserializer)?;
        Gaussian::new(raw.mean, raw.std).map_err(serde::de::Error::custom)
    }
}

impl Gaussian {
    /// Creates a Gaussian with the given mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidStdError`] if `std` is not finite and strictly
    /// positive, or if `mean` is not finite.
    pub fn new(mean: f64, std: f64) -> Result<Self, InvalidStdError> {
        if !mean.is_finite() || !std.is_finite() || std <= 0.0 {
            return Err(InvalidStdError);
        }
        Ok(Self { mean, std })
    }

    /// The mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation of the distribution.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// The probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        (-0.5 * z * z).exp() / (self.std * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// The log probability density at `x`.
    pub fn log_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        -0.5 * z * z - self.std.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    /// The cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.std)
    }

    /// Probability mass of the interval `[lo, hi]`.
    ///
    /// Returns 0 when `hi <= lo`.
    pub fn interval_mass(&self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        (self.cdf(hi) - self.cdf(lo)).max(0.0)
    }

    /// Probability mass of the window `[center - width/2, center + width/2]`.
    ///
    /// This is the discretized Gaussian of MoLoc's Eq. 5: the paper's
    /// `D_{i,j}(d)` is `window_mass(d, α)` of the direction Gaussian and
    /// `O_{i,j}(o)` is `window_mass(o, β)` of the offset Gaussian.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `width` is negative.
    pub fn window_mass(&self, center: f64, width: f64) -> f64 {
        debug_assert!(width >= 0.0, "window width must be non-negative");
        self.interval_mass(center - width / 2.0, center + width / 2.0)
    }

    /// The number of standard deviations `x` lies away from the mean.
    pub fn z_score(&self, x: f64) -> f64 {
        (x - self.mean) / self.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_std() {
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Gaussian::new(0.0, f64::NAN).is_err());
        assert!(Gaussian::new(f64::INFINITY, 1.0).is_err());
        assert!(Gaussian::new(0.0, 1.0).is_ok());
    }

    #[test]
    fn pdf_peaks_at_mean() {
        let g = Gaussian::new(3.0, 2.0).unwrap();
        assert!(g.pdf(3.0) > g.pdf(2.0));
        assert!(g.pdf(3.0) > g.pdf(4.0));
        // symmetric
        assert!((g.pdf(2.0) - g.pdf(4.0)).abs() < 1e-12);
    }

    #[test]
    fn log_pdf_consistent_with_pdf() {
        let g = Gaussian::new(-1.5, 0.7).unwrap();
        for x in [-3.0, -1.5, 0.0, 2.0] {
            assert!((g.log_pdf(x) - g.pdf(x).ln()).abs() < 1e-10);
        }
    }

    #[test]
    fn cdf_standard_values() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        assert!((g.cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((g.cdf(1.0) - 0.841_344_75).abs() < 1e-6);
        assert!((g.cdf(-1.0) - 0.158_655_25).abs() < 1e-6);
    }

    #[test]
    fn window_mass_of_full_support_is_one() {
        let g = Gaussian::new(10.0, 0.5).unwrap();
        assert!((g.window_mass(10.0, 100.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn window_mass_two_sigma_window() {
        // Mass of [μ-σ, μ+σ] ≈ 0.6827.
        let g = Gaussian::new(5.0, 2.0).unwrap();
        assert!((g.window_mass(5.0, 4.0) - 0.682_689_49).abs() < 1e-5);
    }

    #[test]
    fn window_mass_decays_away_from_mean() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let near = g.window_mass(0.0, 1.0);
        let far = g.window_mass(3.0, 1.0);
        assert!(near > 10.0 * far);
    }

    #[test]
    fn interval_mass_empty_interval_is_zero() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        assert_eq!(g.interval_mass(1.0, 1.0), 0.0);
        assert_eq!(g.interval_mass(2.0, 1.0), 0.0);
    }

    #[test]
    fn z_score_is_linear() {
        let g = Gaussian::new(4.0, 2.0).unwrap();
        assert!((g.z_score(8.0) - 2.0).abs() < 1e-12);
        assert!((g.z_score(0.0) + 2.0).abs() < 1e-12);
    }
}
