//! The fingerprint dissimilarity of the paper's Eq. 1,
//! `φ²(F, F′) = Σ (fᵢ − f′ᵢ)²`, over raw RSS slices.
//!
//! These are the scalar kernels behind every ranking in the crate:
//! [`crate::index::FingerprintIndex`] ranks on [`euclidean_sq`] and
//! takes the square root of its survivors only, and degrades to
//! [`masked_euclidean_sq`] when a query has missing APs.
//! `moloc_verify::oracle::euclidean` is the reference they are checked
//! against.

/// The squared Euclidean dissimilarity `Σ (aᵢ − bᵢ)²` over raw slices,
/// accumulated in slice order.
///
/// Every exact ranking in [`crate::index`] goes through this kernel,
/// so `euclidean_sq(a, b).sqrt()` is the dissimilarity the index
/// reports, bit for bit.
///
/// # Examples
///
/// ```
/// use moloc_fingerprint::metric::euclidean_sq;
///
/// assert_eq!(euclidean_sq(&[-40.0, -60.0], &[-43.0, -56.0]).sqrt(), 5.0);
/// ```
#[inline]
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>()
}

/// The squared Euclidean dissimilarity over the *observed* dimensions
/// only: APs where either side is non-finite (NaN marks a missing or
/// dropped reading) are excluded from the sum instead of poisoning it.
///
/// Returns `(partial sum, observed dimension count)`. Callers that
/// need comparability across queries with different missing sets scale
/// the sum by `len / observed` (see
/// [`crate::index::FingerprintIndex::k_nearest_masked_into`]); with no
/// missing values the sum equals [`euclidean_sq`] except for summation
/// order, so the clean hot path keeps its own bit-exact kernel and
/// only branches here when a query actually contains non-finite RSS.
#[inline]
pub fn masked_euclidean_sq(a: &[f64], b: &[f64]) -> (f64, usize) {
    let mut sum = 0.0;
    let mut observed = 0usize;
    for (x, y) in a.iter().zip(b) {
        if x.is_finite() && y.is_finite() {
            sum += (x - y).powi(2);
            observed += 1;
        }
    }
    (sum, observed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_matches_eq1() {
        // sqrt(16 + 9 + 0) = 5
        let (a, b) = ([-40.0, -60.0, -70.0], [-44.0, -57.0, -70.0]);
        assert_eq!(euclidean_sq(&a, &b).sqrt(), 5.0);
        assert_eq!(euclidean_sq(&a, &b), euclidean_sq(&b, &a));
        assert_eq!(euclidean_sq(&a, &a), 0.0);
    }
}
