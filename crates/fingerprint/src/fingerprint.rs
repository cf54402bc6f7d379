//! The RSS fingerprint vector.

use serde::{Deserialize, Serialize};

/// An RSS fingerprint `F = (f₁, …, fₙ)`: one dBm value per access
/// point, in a fixed AP order shared across the deployment.
///
/// # Examples
///
/// ```
/// use moloc_fingerprint::fingerprint::Fingerprint;
///
/// let f = Fingerprint::new(vec![-40.0, -55.0, -70.0]);
/// assert_eq!(f.len(), 3);
/// assert_eq!(f.values()[1], -55.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    values: Vec<f64>,
}

/// A fingerprint's per-AP values, in AP order: a fingerprint is one
/// survey sample for [`crate::db::FingerprintDb::from_samples`].
impl IntoIterator for Fingerprint {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter()
    }
}

impl Fingerprint {
    /// Creates a fingerprint from per-AP RSS values in dBm.
    ///
    /// # Panics
    ///
    /// Panics if any value is not finite.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "fingerprint values must be finite"
        );
        Self { values }
    }

    /// The per-AP values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of APs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the fingerprint has no APs.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The mean of several same-length fingerprints — how a site survey
    /// condenses its samples into the stored fingerprint.
    ///
    /// Returns `None` for an empty input.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn mean<'a, I: IntoIterator<Item = &'a Fingerprint>>(
        fingerprints: I,
    ) -> Option<Fingerprint> {
        let mut iter = fingerprints.into_iter();
        let first = iter.next()?;
        let mut sum: Vec<f64> = first.values.clone();
        let mut count = 1usize;
        for fp in iter {
            assert_eq!(fp.len(), sum.len(), "fingerprint lengths differ");
            for (s, v) in sum.iter_mut().zip(&fp.values) {
                *s += v;
            }
            count += 1;
        }
        for s in &mut sum {
            *s /= count as f64;
        }
        Some(Fingerprint::new(sum))
    }

    /// Restricts to the first `n` APs (the paper's 4/5-AP settings).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the AP count or is zero.
    pub fn truncated(&self, n: usize) -> Fingerprint {
        assert!(n > 0 && n <= self.values.len(), "invalid truncation");
        Fingerprint::new(self.values[..n].to_vec())
    }
}

impl From<Vec<f64>> for Fingerprint {
    fn from(values: Vec<f64>) -> Self {
        Fingerprint::new(values)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.1}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_samples() {
        let a = Fingerprint::new(vec![-40.0, -60.0]);
        let b = Fingerprint::new(vec![-50.0, -70.0]);
        let m = Fingerprint::mean([&a, &b]).unwrap();
        assert_eq!(m.values(), &[-45.0, -65.0]);
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(Fingerprint::mean(std::iter::empty()), None);
    }

    #[test]
    fn mean_of_single_is_identity() {
        let a = Fingerprint::new(vec![-40.0]);
        assert_eq!(Fingerprint::mean([&a]).unwrap(), a);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mean_rejects_mismatched_lengths() {
        let a = Fingerprint::new(vec![-40.0, -60.0]);
        let b = Fingerprint::new(vec![-50.0]);
        let _ = Fingerprint::mean([&a, &b]);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let f = Fingerprint::new(vec![-40.0, -50.0, -60.0]);
        assert_eq!(f.truncated(2).values(), &[-40.0, -50.0]);
    }

    #[test]
    #[should_panic(expected = "invalid truncation")]
    fn truncated_rejects_oversize() {
        let _ = Fingerprint::new(vec![-40.0]).truncated(2);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_values() {
        let _ = Fingerprint::new(vec![-40.0, f64::NAN]);
    }

    #[test]
    fn display_is_compact() {
        let f = Fingerprint::new(vec![-40.25, -50.0]);
        assert_eq!(f.to_string(), "[-40.2, -50.0]");
    }
}
