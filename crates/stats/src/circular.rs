//! Circular (angular) statistics, in degrees.
//!
//! Compass headings and motion directions live on a circle: `359°` and
//! `1°` are two degrees apart, and averaging them must give `0°`, not
//! `180°`. This module provides normalization, signed differences, the
//! circular mean, and an online accumulator ([`CircularWelford`]) that
//! yields the mean direction plus the standard deviation of signed
//! deviations around it — exactly the `(μᵈ, σᵈ)` pair MoLoc stores per
//! motion-database entry.

use serde::{Deserialize, Serialize};

/// Normalizes an angle in degrees into `[0, 360)`.
///
/// # Examples
///
/// ```
/// use moloc_stats::circular::normalize_deg;
/// assert_eq!(normalize_deg(370.0), 10.0);
/// assert_eq!(normalize_deg(-90.0), 270.0);
/// assert_eq!(normalize_deg(360.0), 0.0);
/// ```
pub fn normalize_deg(angle: f64) -> f64 {
    let r = angle.rem_euclid(360.0);
    // rem_euclid can return 360.0 for tiny negative inputs due to rounding.
    if r >= 360.0 {
        0.0
    } else {
        r
    }
}

/// The signed shortest rotation from `from` to `to`, in `(-180, 180]`.
///
/// # Examples
///
/// ```
/// use moloc_stats::circular::signed_diff_deg;
/// assert_eq!(signed_diff_deg(350.0, 10.0), 20.0);
/// assert_eq!(signed_diff_deg(10.0, 350.0), -20.0);
/// ```
pub fn signed_diff_deg(from: f64, to: f64) -> f64 {
    let d = normalize_deg(to - from);
    if d > 180.0 {
        d - 360.0
    } else {
        d
    }
}

/// The absolute angular distance between two directions, in `[0, 180]`.
pub fn abs_diff_deg(a: f64, b: f64) -> f64 {
    signed_diff_deg(a, b).abs()
}

/// Reverses a direction (adds 180° modulo 360°), the paper's mirror rule
/// for reassembled relative location measurements.
///
/// # Examples
///
/// ```
/// use moloc_stats::circular::reverse_deg;
/// assert_eq!(reverse_deg(30.0), 210.0);
/// assert_eq!(reverse_deg(270.0), 90.0);
/// ```
pub fn reverse_deg(angle: f64) -> f64 {
    normalize_deg(angle + 180.0)
}

/// The circular mean of directions in degrees, or `None` when the input
/// is empty or the resultant vector is (numerically) zero.
///
/// # Examples
///
/// ```
/// use moloc_stats::circular::circular_mean_deg;
/// let m = circular_mean_deg([350.0, 10.0].iter().copied()).unwrap();
/// assert!(m < 1.0 || m > 359.0);
/// ```
pub fn circular_mean_deg<I: IntoIterator<Item = f64>>(angles: I) -> Option<f64> {
    let (mut s, mut c, mut n) = (0.0, 0.0, 0u64);
    for a in angles {
        let r = a.to_radians();
        s += r.sin();
        c += r.cos();
        n += 1;
    }
    if n == 0 {
        return None;
    }
    let (s, c) = (s / n as f64, c / n as f64);
    if s.hypot(c) < 1e-12 {
        return None;
    }
    Some(normalize_deg(s.atan2(c).to_degrees()))
}

/// The population standard deviation of the signed deviations of
/// `angles` from `mean` (degrees): the spread [`CircularWelford::std`]
/// reports around its circular mean, for callers that already hold the
/// mean. `NaN` for no angles.
///
/// # Examples
///
/// ```
/// use moloc_stats::circular::deviation_std_deg;
/// assert_eq!(deviation_std_deg(0.0, [350.0, 10.0]), 10.0);
/// ```
pub fn deviation_std_deg<I: IntoIterator<Item = f64>>(mean: f64, angles: I) -> f64 {
    let mut n = 0u64;
    let ss: f64 = angles
        .into_iter()
        .map(|a| {
            n += 1;
            signed_diff_deg(mean, a).powi(2)
        })
        .sum();
    (ss / n as f64).sqrt()
}

/// Online accumulator for directional data.
///
/// Tracks the resultant vector for the circular mean and, in a second
/// conceptual pass that is folded into the same accumulation (deviations
/// around the running circular mean are not exact, so we keep raw angles
/// compressed as sin/cos sums *and* the sum of squared deviations around
/// a provisional reference), the spread of the sample.
///
/// For the motion database we need `(μᵈ, σᵈ)` with `σᵈ` measured as the
/// standard deviation of the *signed deviations* from the mean direction.
/// This accumulator stores all angles (they are few per location pair) to
/// compute that exactly; memory is bounded by the crowdsourcing volume
/// per pair, which is small by construction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CircularWelford {
    angles: Vec<f64>,
}

impl CircularWelford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a direction in degrees.
    pub fn push(&mut self, angle_deg: f64) {
        self.angles.push(normalize_deg(angle_deg));
    }

    /// Number of directions pushed.
    pub fn count(&self) -> usize {
        self.angles.len()
    }

    /// The circular mean, or `None` when empty / degenerate.
    pub fn mean(&self) -> Option<f64> {
        circular_mean_deg(self.angles.iter().copied())
    }

    /// Standard deviation of signed deviations around the circular mean
    /// (population form), or `None` when the mean is undefined.
    pub fn std(&self) -> Option<f64> {
        let mean = self.mean()?;
        Some(deviation_std_deg(mean, self.iter()))
    }

    /// Iterates over the accumulated (normalized) angles.
    pub fn iter(&self) -> impl Iterator<Item = f64> + Clone + '_ {
        self.angles.iter().copied()
    }

    /// Retains only angles within `max_dev` degrees of the circular mean,
    /// returning how many were removed. Used by the motion database's
    /// fine-grained outlier filter.
    pub fn retain_within(&mut self, max_dev: f64) -> usize {
        let Some(mean) = self.mean() else {
            return 0;
        };
        let before = self.angles.len();
        self.angles.retain(|&a| abs_diff_deg(mean, a) <= max_dev);
        before - self.angles.len()
    }
}

impl Extend<f64> for CircularWelford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for a in iter {
            self.push(a);
        }
    }
}

impl FromIterator<f64> for CircularWelford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = Self::new();
        acc.extend(iter);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_handles_edge_cases() {
        assert_eq!(normalize_deg(0.0), 0.0);
        assert_eq!(normalize_deg(359.999), 359.999);
        assert_eq!(normalize_deg(720.0), 0.0);
        assert_eq!(normalize_deg(-0.0), 0.0);
        assert_eq!(normalize_deg(-720.0), 0.0);
        let tiny = normalize_deg(-1e-18);
        assert!((0.0..360.0).contains(&tiny));
    }

    #[test]
    fn signed_diff_wraps_correctly() {
        assert_eq!(signed_diff_deg(0.0, 180.0), 180.0);
        assert_eq!(signed_diff_deg(0.0, 181.0), -179.0);
        assert_eq!(signed_diff_deg(90.0, 90.0), 0.0);
        assert_eq!(signed_diff_deg(359.0, 2.0), 3.0);
    }

    #[test]
    fn reverse_is_involution() {
        for a in [0.0, 10.0, 90.0, 179.5, 180.0, 270.0, 359.0] {
            assert!((reverse_deg(reverse_deg(a)) - normalize_deg(a)).abs() < 1e-9);
        }
    }

    #[test]
    fn circular_mean_across_wraparound() {
        let m = circular_mean_deg([355.0, 5.0].iter().copied()).unwrap();
        assert!(abs_diff_deg(m, 0.0) < 1e-9);
    }

    #[test]
    fn circular_mean_of_empty_is_none() {
        assert_eq!(circular_mean_deg(std::iter::empty()), None);
    }

    #[test]
    fn circular_mean_of_opposite_directions_is_none() {
        assert_eq!(circular_mean_deg([0.0, 180.0].iter().copied()), None);
    }

    #[test]
    fn welford_mean_and_std_simple() {
        let acc: CircularWelford = [80.0, 90.0, 100.0].iter().copied().collect();
        let mean = acc.mean().unwrap();
        assert!((mean - 90.0).abs() < 1e-9);
        let std = acc.std().unwrap();
        // deviations −10, 0, +10 → population std sqrt(200/3)
        assert!((std - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn welford_handles_wraparound_spread() {
        let acc: CircularWelford = [350.0, 0.0, 10.0].iter().copied().collect();
        let mean = acc.mean().unwrap();
        assert!(abs_diff_deg(mean, 0.0) < 1e-9);
        let std = acc.std().unwrap();
        assert!((std - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn retain_within_removes_outliers() {
        let mut acc: CircularWelford = [90.0, 92.0, 88.0, 91.0, 270.0].iter().copied().collect();
        let removed = acc.retain_within(45.0);
        assert_eq!(removed, 1);
        assert_eq!(acc.count(), 4);
        assert!(abs_diff_deg(acc.mean().unwrap(), 90.25).abs() < 2.0);
    }
}
