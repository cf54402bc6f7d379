//! Heading-offset estimation and motion-direction extraction.
//!
//! Raw compass readings track phone orientation; MoLoc borrows Zee's
//! placement-independent orientation idea (Sec. IV-B1): estimate the
//! constant *heading offset* between compass readings and true motion
//! direction, then subtract it. [`HeadingOffsetEstimator`] performs the
//! calibration from (reading, reference-direction) pairs — in practice
//! gathered during intervals whose start/end locations are confidently
//! known — and [`motion_direction_deg`] summarizes an interval's
//! corrected readings into the direction measurement `d` of an RLM.

use crate::series::TimeSeries;
use moloc_stats::circular::{
    circular_mean_deg, normalize_deg, signed_diff_deg, unit_vector, ResultantSum,
};
use serde::{Deserialize, Serialize};

/// Estimates the constant compass-to-motion heading offset.
///
/// # Examples
///
/// ```
/// use moloc_sensors::heading::HeadingOffsetEstimator;
///
/// let mut est = HeadingOffsetEstimator::new();
/// est.observe(120.0, 90.0); // reading 120° while walking at 90°
/// est.observe(118.0, 88.0);
/// let offset = est.offset_deg().unwrap();
/// assert!((offset - 30.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HeadingOffsetEstimator {
    diffs: Vec<f64>,
}

impl HeadingOffsetEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a calibration pair: a compass reading taken while the
    /// true motion direction was `reference_deg`.
    pub fn observe(&mut self, reading_deg: f64, reference_deg: f64) {
        self.diffs
            .push(normalize_deg(signed_diff_deg(reference_deg, reading_deg)));
    }

    /// Number of calibration pairs.
    pub fn count(&self) -> usize {
        self.diffs.len()
    }

    /// The estimated offset (circular mean of reading − reference), or
    /// `None` without observations.
    pub fn offset_deg(&self) -> Option<f64> {
        circular_mean_deg(self.diffs.iter().copied())
    }

    /// A robust offset estimate: compute the circular mean, drop
    /// observations deviating more than `max_dev_deg` from it, and
    /// re-average. Calibration pairs whose reference direction came
    /// from a *wrong* location estimate are wild outliers; trimming
    /// keeps them from rotating the whole calibration.
    ///
    /// Falls back to the untrimmed mean when trimming would discard
    /// everything.
    pub fn offset_deg_trimmed(&self, max_dev_deg: f64) -> Option<f64> {
        self.trimmed_stats(max_dev_deg).map(|s| s.offset_deg)
    }

    /// The trimmed estimate together with its dispersion, so callers
    /// can judge whether the calibration is trustworthy at all: a large
    /// residual spread means the user's location estimates (and hence
    /// the reference bearings) were unreliable, and motion measurements
    /// derived from this offset should not be trusted either.
    ///
    /// Each pair's unit vector is computed once and summed into both
    /// means, in pair order, so each mean has the bits of
    /// [`circular_mean_deg`] over its pairs.
    pub fn trimmed_stats(&self, max_dev_deg: f64) -> Option<TrimmedOffset> {
        let units: Vec<(f64, f64)> = self.diffs.iter().map(|&d| unit_vector(d)).collect();
        let mut all = ResultantSum::default();
        for &unit in &units {
            all.push_unit(unit);
        }
        let initial = all.mean_deg()?;
        let mut trimmed = ResultantSum::default();
        let mut kept = Vec::with_capacity(self.diffs.len());
        for (&d, &unit) in self.diffs.iter().zip(&units) {
            if deviation(d, initial) <= max_dev_deg {
                trimmed.push_unit(unit);
                kept.push(d);
            }
        }
        let (offset_deg, pool): (f64, &[f64]) = match trimmed.mean_deg() {
            Some(m) => (m, &kept),
            None => (initial, &self.diffs),
        };
        let n = pool.len() as f64;
        let std_deg = (pool
            .iter()
            .map(|&d| deviation(d, offset_deg).powi(2))
            .sum::<f64>()
            / n)
            .sqrt();
        Some(TrimmedOffset {
            offset_deg,
            std_deg,
            kept: pool.len(),
            total: self.diffs.len(),
        })
    }
}

/// A robust offset estimate with its quality indicators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrimmedOffset {
    /// The estimated heading offset, degrees.
    pub offset_deg: f64,
    /// Standard deviation of the surviving residuals, degrees.
    pub std_deg: f64,
    /// Observations that survived trimming.
    pub kept: usize,
    /// Observations offered.
    pub total: usize,
}

fn deviation(a: f64, b: f64) -> f64 {
    signed_diff_deg(a, b).abs()
}

/// The motion direction over an interval: the circular mean of compass
/// readings corrected by `offset_deg`. Returns `None` for an empty
/// series or fully cancelling directions.
pub fn motion_direction_deg(compass: &TimeSeries, offset_deg: f64) -> Option<f64> {
    let corrected = compass.values().iter().map(|&r| r - offset_deg);
    circular_mean_deg(corrected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compass::CompassSynthesizer;
    use moloc_stats::circular::abs_diff_deg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn estimator_recovers_known_offset() {
        let mut rng = StdRng::seed_from_u64(2);
        let compass = CompassSynthesizer::new(47.0, 5.0, 0.0);
        let mut est = HeadingOffsetEstimator::new();
        for k in 0..200 {
            let truth = (k as f64 * 17.0) % 360.0;
            est.observe(compass.read(truth, &mut rng), truth);
        }
        let offset = est.offset_deg().unwrap();
        assert!(abs_diff_deg(offset, 47.0) < 1.5, "offset {offset}");
        assert_eq!(est.count(), 200);
    }

    #[test]
    fn estimator_handles_wraparound_offsets() {
        let mut est = HeadingOffsetEstimator::new();
        est.observe(5.0, 350.0); // offset +15 crossing zero
        est.observe(10.0, 355.0);
        let offset = est.offset_deg().unwrap();
        assert!(abs_diff_deg(offset, 15.0) < 1e-9);
    }

    #[test]
    fn empty_estimator_returns_none() {
        assert_eq!(HeadingOffsetEstimator::new().offset_deg(), None);
    }

    #[test]
    fn motion_direction_corrects_offset() {
        let mut rng = StdRng::seed_from_u64(3);
        let compass = CompassSynthesizer::new(30.0, 3.0, 0.0);
        let truth = TimeSeries::new(0.0, 10.0, vec![200.0; 30]).unwrap();
        let readings = compass.synthesize(&truth, &mut rng);
        let d = motion_direction_deg(&readings, 30.0).unwrap();
        assert!(abs_diff_deg(d, 200.0) < 2.5, "direction {d}");
    }

    #[test]
    fn motion_direction_of_empty_is_none() {
        let empty = TimeSeries::new(0.0, 10.0, vec![]).unwrap();
        assert_eq!(motion_direction_deg(&empty, 0.0), None);
    }

    #[test]
    fn motion_direction_averages_across_wrap() {
        let readings = TimeSeries::new(0.0, 10.0, vec![355.0, 5.0, 0.0, 358.0, 2.0]).unwrap();
        let d = motion_direction_deg(&readings, 0.0).unwrap();
        assert!(abs_diff_deg(d, 0.0) < 1.0, "direction {d}");
    }
}

#[cfg(test)]
mod trimmed_tests {
    use super::*;
    use moloc_stats::circular::abs_diff_deg;

    #[test]
    fn trimming_rejects_wild_calibration_pairs() {
        let mut est = HeadingOffsetEstimator::new();
        // 8 good pairs at offset ~30°, 2 wild ones at ~150°.
        for k in 0..8 {
            est.observe(120.0 + k as f64, 90.0 + k as f64);
        }
        est.observe(240.0, 90.0);
        est.observe(250.0, 90.0);
        let raw = est.offset_deg().unwrap();
        let trimmed = est.offset_deg_trimmed(45.0).unwrap();
        assert!(abs_diff_deg(trimmed, 30.0) < 3.0, "trimmed {trimmed}");
        assert!(abs_diff_deg(trimmed, 30.0) < abs_diff_deg(raw, 30.0));
    }

    #[test]
    fn trimming_everything_falls_back() {
        let mut est = HeadingOffsetEstimator::new();
        est.observe(120.0, 90.0);
        // One observation, deviation zero from itself → kept anyway.
        assert!(est.offset_deg_trimmed(45.0).is_some());
    }
}
