//! k-nearest-neighbor retrieval over the fingerprint database.
//!
//! Implements the candidate-selection rule of the paper's Eq. 3: the k
//! locations whose stored fingerprints are nearest (by the configured
//! dissimilarity) to the query fingerprint.

use crate::db::FingerprintDb;
use crate::fingerprint::Fingerprint;
use crate::metric::Dissimilarity;
use moloc_geometry::LocationId;
use std::cmp::Ordering;

/// One k-NN match: a location and its dissimilarity `mᵢ = φ(F, Fᵢ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The candidate location.
    pub location: LocationId,
    /// Its fingerprint dissimilarity to the query.
    pub dissimilarity: f64,
}

/// [`Neighbor`] with the total order `k_nearest` selects by:
/// dissimilarity ascending, ties broken by lower location id — strict,
/// since location ids are unique within a database.
struct HeapEntry(Neighbor);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .dissimilarity
            .partial_cmp(&other.0.dissimilarity)
            .expect("dissimilarities are finite")
            .then_with(|| self.0.location.cmp(&other.0.location))
    }
}

/// The `k` nearest locations to `query` under `metric`, ascending by
/// dissimilarity (ties broken by lower location id, making results
/// deterministic).
///
/// Returns fewer than `k` entries when the database is smaller than
/// `k`. This is the generic walk over the database behind custom
/// metrics ([`crate::centroid::CentroidLocalizer`],
/// [`crate::nn_localizer::NnLocalizer::with_metric`]); the Euclidean
/// hot path is [`crate::index::FingerprintIndex`].
///
/// Selection keeps the result as a bounded sorted buffer of the best
/// `k` seen so far — most candidates are rejected by a single
/// comparison against the current worst, and an accepted one costs a
/// binary search plus an `O(k)` shift (the (dissimilarity,
/// location-id) total order is strict, so there is exactly one sorted
/// arrangement).
///
/// # Panics
///
/// Panics if `k` is zero or the query length does not match the
/// database's AP count.
pub fn k_nearest(
    db: &FingerprintDb,
    query: &Fingerprint,
    k: usize,
    metric: &dyn Dissimilarity,
) -> Vec<Neighbor> {
    assert!(k > 0, "k must be positive");
    assert_eq!(
        query.len(),
        db.ap_count(),
        "query fingerprint length must match database"
    );
    let mut out: Vec<Neighbor> = Vec::with_capacity(k.min(db.len()));
    for (location, fp) in db.iter() {
        let neighbor = Neighbor {
            location,
            dissimilarity: metric.dissimilarity(query, fp),
        };
        if out.len() == k {
            let worst = *out.last().expect("k > 0, buffer is full");
            if HeapEntry(neighbor) >= HeapEntry(worst) {
                continue;
            }
            out.pop();
        }
        let pos = out.partition_point(|&kept| HeapEntry(kept) < HeapEntry(neighbor));
        out.insert(pos, neighbor);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Euclidean;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn db() -> FingerprintDb {
        FingerprintDb::from_fingerprints(vec![
            (l(1), Fingerprint::new(vec![-40.0, -70.0])),
            (l(2), Fingerprint::new(vec![-50.0, -60.0])),
            (l(3), Fingerprint::new(vec![-70.0, -40.0])),
        ])
        .unwrap()
    }

    #[test]
    fn returns_k_sorted_matches() {
        let q = Fingerprint::new(vec![-41.0, -69.0]);
        let nn = k_nearest(&db(), &q, 2, &Euclidean);
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].location, l(1));
        assert_eq!(nn[1].location, l(2));
        assert!(nn[0].dissimilarity <= nn[1].dissimilarity);
    }

    #[test]
    fn k_larger_than_db_returns_all() {
        let q = Fingerprint::new(vec![-41.0, -69.0]);
        let nn = k_nearest(&db(), &q, 10, &Euclidean);
        assert_eq!(nn.len(), 3);
    }

    #[test]
    fn exact_match_has_zero_dissimilarity() {
        let q = Fingerprint::new(vec![-50.0, -60.0]);
        let nn = k_nearest(&db(), &q, 1, &Euclidean);
        assert_eq!(nn[0].location, l(2));
        assert_eq!(nn[0].dissimilarity, 0.0);
    }

    #[test]
    fn ties_broken_by_lower_id() {
        let tied = FingerprintDb::from_fingerprints(vec![
            (l(5), Fingerprint::new(vec![-40.0])),
            (l(2), Fingerprint::new(vec![-40.0])),
        ])
        .unwrap();
        let q = Fingerprint::new(vec![-40.0]);
        let nn = k_nearest(&tied, &q, 2, &Euclidean);
        assert_eq!(nn[0].location, l(2));
        assert_eq!(nn[1].location, l(5));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let q = Fingerprint::new(vec![-40.0, -70.0]);
        let _ = k_nearest(&db(), &q, 0, &Euclidean);
    }

    #[test]
    #[should_panic(expected = "match database")]
    fn wrong_query_length_panics() {
        let q = Fingerprint::new(vec![-40.0]);
        let _ = k_nearest(&db(), &q, 1, &Euclidean);
    }
}
