//! Circular (angular) statistics, in degrees.
//!
//! Compass headings and motion directions live on a circle: `359°` and
//! `1°` are two degrees apart, and averaging them must give `0°`, not
//! `180°`. This module provides normalization, signed differences, the
//! circular mean (over an iterator, or from the running sums of a
//! [`ResultantSum`]), and the spread of signed deviations around a mean:
//! the `(μᵈ, σᵈ)` pair MoLoc stores per motion-database entry.

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
/// is empty or the resultant vector is (numerically) zero: the
/// [`ResultantSum::mean_deg`] of the angles pushed in order.
///
/// # Examples
///
/// ```
/// use moloc_stats::circular::circular_mean_deg;
/// let m = circular_mean_deg([350.0, 10.0].iter().copied()).unwrap();
/// assert!(m < 1.0 || m > 359.0);
/// ```
pub fn circular_mean_deg<I: IntoIterator<Item = f64>>(angles: I) -> Option<f64> {
    let mut sum = ResultantSum::default();
    for a in angles {
        sum.push(a);
    }
    sum.mean_deg()
}

/// The unit vector `(sin, cos)` of a direction in degrees, as
/// [`ResultantSum::push`] adds it.
#[inline]
pub fn unit_vector(angle_deg: f64) -> (f64, f64) {
    let r = angle_deg.to_radians();
    (r.sin(), r.cos())
}

/// Running sums of the unit vectors of directions (degrees): the
/// resultant whose angle is their circular mean. A sum grown by `push`
/// in the order [`circular_mean_deg`] reads its angles has that mean
/// bit for bit, so a caller that keeps one per sample set gets the mean
/// without a sine or cosine per sample.
///
/// # Examples
///
/// ```
/// use moloc_stats::circular::{circular_mean_deg, ResultantSum};
/// let mut sum = ResultantSum::default();
/// for a in [350.0, 10.0, 20.0] {
///     sum.push(a);
/// }
/// assert_eq!(sum.mean_deg(), circular_mean_deg([350.0, 10.0, 20.0]));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResultantSum {
    sin: f64,
    cos: f64,
    count: u64,
}

impl ResultantSum {
    /// Adds the unit vector of one direction in degrees.
    #[inline]
    pub fn push(&mut self, angle_deg: f64) {
        self.push_unit(unit_vector(angle_deg));
    }

    /// Adds a unit vector that [`unit_vector`] computed: the sums
    /// [`ResultantSum::push`] of its direction makes, without a second
    /// sine and cosine when one direction feeds several resultants.
    #[inline]
    pub fn push_unit(&mut self, (sin, cos): (f64, f64)) {
        self.sin += sin;
        self.cos += cos;
        self.count += 1;
    }

    /// The circular mean of the directions pushed, in `[0, 360)`, or
    /// `None` when none were or the mean resultant vector is shorter
    /// than `1e-12` (opposite directions cancel).
    pub fn mean_deg(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        let (s, c) = (self.sin / n, self.cos / n);
        if s.hypot(c) < 1e-12 {
            return None;
        }
        Some(normalize_deg(s.atan2(c).to_degrees()))
    }
}

/// The population standard deviation of the signed deviations of
/// `angles` from `mean` (degrees), for callers that already hold the
/// circular mean: the `σᵈ` of a motion-database pair. `NaN` for no
/// angles.
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
    fn deviation_std_around_the_mean() {
        for angles in [[80.0, 90.0, 100.0], [350.0, 0.0, 10.0]] {
            let mean = circular_mean_deg(angles).unwrap();
            assert!(abs_diff_deg(mean, angles[1]) < 1e-9);
            // deviations −10, 0, +10 → population std sqrt(200/3)
            let std = deviation_std_deg(mean, angles);
            assert!((std - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
        }
    }

    /// The mean of a [`ResultantSum`] grown one angle at a time.
    fn sum_mean(angles: &[f64]) -> Option<f64> {
        let mut sum = ResultantSum::default();
        angles.iter().for_each(|&a| sum.push(a));
        sum.mean_deg()
    }

    #[test]
    fn the_sum_form_is_circular_mean_deg_bit_for_bit() {
        let cases: [&[f64]; 8] = [
            &[],
            // Opposite directions: a zero resultant, under 1e-12.
            &[0.0, 180.0],
            &[90.0, 270.0, 45.0, 225.0],
            // Means across the 0°/360° seam, on both sides of it.
            &[355.0, 5.0],
            &[359.999, 0.001, 358.0],
            &[350.0, 0.0, 10.0, 11.5],
            &[10.0, 20.0, 15.5],
            &[271.3, 268.9, 270.2, 269.4, 275.0, 91.0],
        ];
        for angles in cases {
            let want = circular_mean_deg(angles.iter().copied());
            assert_eq!(
                sum_mean(angles).map(f64::to_bits),
                want.map(f64::to_bits),
                "{angles:?}"
            );
        }
        assert_eq!(sum_mean(&[]), None);
        assert_eq!(sum_mean(&[0.0, 180.0]), None);
        let seam = sum_mean(&[359.999, 0.001, 358.0]).unwrap();
        assert!(seam > 359.0, "{seam}");
        // Pseudo-random angles of every magnitude, summed in order.
        let mut angles = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            angles.push((x % 720_000) as f64 / 1000.0 - 360.0);
            let want = circular_mean_deg(angles.iter().copied());
            assert_eq!(sum_mean(&angles).map(f64::to_bits), want.map(f64::to_bits));
        }
    }
}
