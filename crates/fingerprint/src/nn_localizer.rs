//! The plain WiFi fingerprinting baseline.
//!
//! Implements the paper's Eq. 2: return the location whose stored
//! fingerprint minimizes the dissimilarity to the query. This is the
//! baseline MoLoc is compared against throughout Sec. VI.

use crate::db::FingerprintDb;
use crate::fingerprint::Fingerprint;
use crate::index::{FingerprintIndex, KnnScratch};
use crate::knn::{k_nearest, Neighbor};
use crate::metric::{Dissimilarity, Euclidean};
use moloc_geometry::LocationId;
use std::borrow::Cow;
use std::cell::RefCell;

thread_local! {
    /// The k = 1 selection buffers of the index path. `localize_slice`
    /// takes `&self` and one localizer serves every pool worker, so the
    /// buffers live with the thread: after its first query a thread
    /// localizes without touching the heap.
    static NEAREST: RefCell<(KnnScratch, Vec<Neighbor>)> = RefCell::default();
}

/// Nearest-neighbor WiFi localizer (Eq. 2).
///
/// # Examples
///
/// ```
/// use moloc_fingerprint::db::FingerprintDb;
/// use moloc_fingerprint::fingerprint::Fingerprint;
/// use moloc_fingerprint::nn_localizer::NnLocalizer;
/// use moloc_geometry::LocationId;
///
/// let db = FingerprintDb::from_fingerprints(vec![
///     (LocationId::new(1), Fingerprint::new(vec![-40.0])),
///     (LocationId::new(2), Fingerprint::new(vec![-60.0])),
/// ])?;
/// let loc = NnLocalizer::new(&db).localize(&Fingerprint::new(vec![-58.0]))?;
/// assert_eq!(loc, LocationId::new(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct NnLocalizer<'a> {
    db: &'a FingerprintDb,
    metric: Box<dyn Dissimilarity>,
    /// Columnar scan path for the default Euclidean metric — owned, or
    /// borrowed from a caller who shares one index across localizers;
    /// custom metrics fall back to the generic `k_nearest` over the
    /// database.
    index: Option<Cow<'a, FingerprintIndex>>,
}

/// Error from [`NnLocalizer::localize`] when the query length does not
/// match the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryLengthError {
    /// AP count expected by the database.
    pub expected: usize,
    /// AP count of the query.
    pub found: usize,
}

impl std::fmt::Display for QueryLengthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query has {} APs but the database expects {}",
            self.found, self.expected
        )
    }
}

impl std::error::Error for QueryLengthError {}

impl<'a> NnLocalizer<'a> {
    /// Creates a localizer with the paper's Euclidean metric, backed by
    /// a columnar [`FingerprintIndex`] scan.
    pub fn new(db: &'a FingerprintDb) -> Self {
        Self {
            db,
            metric: Box::new(Euclidean),
            index: Some(Cow::Owned(FingerprintIndex::build(db))),
        }
    }

    /// Creates a localizer over a caller-shared [`FingerprintIndex`]
    /// (Euclidean metric), skipping the per-localizer index build.
    /// `index` must have been built from `db`.
    pub fn with_index(db: &'a FingerprintDb, index: &'a FingerprintIndex) -> Self {
        Self {
            db,
            metric: Box::new(Euclidean),
            index: Some(Cow::Borrowed(index)),
        }
    }

    /// Creates a localizer with a custom metric (generic scan path).
    pub fn with_metric<M: Dissimilarity + 'static>(db: &'a FingerprintDb, metric: M) -> Self {
        Self {
            db,
            metric: Box::new(metric),
            index: None,
        }
    }

    /// The location estimate for a query fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`QueryLengthError`] when the query's AP count does not
    /// match the database.
    pub fn localize(&self, query: &Fingerprint) -> Result<LocationId, QueryLengthError> {
        self.localize_slice(query.values())
    }

    /// [`NnLocalizer::localize`] over a raw RSS slice — lets trace
    /// pipelines query straight from scan buffers without allocating a
    /// [`Fingerprint`] per pass.
    ///
    /// # Errors
    ///
    /// Returns [`QueryLengthError`] when the query's AP count does not
    /// match the database.
    pub fn localize_slice(&self, query: &[f64]) -> Result<LocationId, QueryLengthError> {
        if query.len() != self.db.ap_count() {
            return Err(QueryLengthError {
                expected: self.db.ap_count(),
                found: query.len(),
            });
        }
        // Degradation path: a query with missing (non-finite) APs is
        // ranked on the observed dimensions only, under the masked
        // Euclidean metric regardless of the configured one —
        // per-metric masking is undefined, and a NaN entering the
        // clean paths would poison the ranking (or panic
        // `Fingerprint::new`). Clean queries never take the masked
        // branches.
        let masked = query.iter().any(|v| !v.is_finite());
        if let Some(index) = &self.index {
            // The index's k-NN scan at k = 1: the strict `<` of the
            // selection keeps the lowest id among equal distances.
            return Ok(NEAREST.with(|buffers| {
                let (scratch, nearest) = &mut *buffers.borrow_mut();
                if masked {
                    index.select_masked_into(query, 1, scratch, nearest);
                } else {
                    index.select_into(query, 1, scratch, nearest);
                }
                nearest[0].location
            }));
        }
        if masked {
            return Ok(nearest_masked_scan(self.db, query));
        }
        let query = Fingerprint::new(query.to_vec());
        Ok(k_nearest(self.db, &query, 1, self.metric.as_ref())[0].location)
    }
}

/// Masked nearest-neighbor walk over the database (the no-index arm of
/// the degradation path): lowest masked squared distance, ties to the
/// lower id (iteration is in id order and the compare is strict).
fn nearest_masked_scan(db: &FingerprintDb, query: &[f64]) -> LocationId {
    let mut best: Option<(LocationId, f64)> = None;
    for (id, fp) in db.iter() {
        let (rank, _) = crate::metric::masked_euclidean_sq(query, fp.values());
        if best.is_none_or(|(_, b)| rank < b) {
            best = Some((id, rank));
        }
    }
    best.map(|(id, _)| id).unwrap_or_else(|| LocationId::new(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Manhattan;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn db() -> FingerprintDb {
        FingerprintDb::from_fingerprints(vec![
            (l(1), Fingerprint::new(vec![-40.0, -70.0])),
            (l(2), Fingerprint::new(vec![-55.0, -55.0])),
            (l(3), Fingerprint::new(vec![-70.0, -40.0])),
        ])
        .unwrap()
    }

    #[test]
    fn picks_nearest_location() {
        let db = db();
        let loc = NnLocalizer::new(&db)
            .localize(&Fingerprint::new(vec![-68.0, -43.0]))
            .unwrap();
        assert_eq!(loc, l(3));
    }

    #[test]
    fn exact_fingerprint_returns_its_location() {
        let db = db();
        let loc = NnLocalizer::new(&db)
            .localize(&Fingerprint::new(vec![-55.0, -55.0]))
            .unwrap();
        assert_eq!(loc, l(2));
    }

    #[test]
    fn shared_index_and_slice_queries_match_owned_path() {
        let db = db();
        let index = FingerprintIndex::build(&db);
        let owned = NnLocalizer::new(&db);
        let shared = NnLocalizer::with_index(&db, &index);
        for query in [[-68.0, -43.0], [-55.0, -55.0], [-41.0, -69.0]] {
            let fp = Fingerprint::new(query.to_vec());
            let expected = owned.localize(&fp).unwrap();
            assert_eq!(shared.localize(&fp).unwrap(), expected);
            assert_eq!(shared.localize_slice(&query).unwrap(), expected);
            assert_eq!(owned.localize_slice(&query).unwrap(), expected);
        }
        assert!(shared.localize_slice(&[-40.0]).is_err());
    }

    #[test]
    fn custom_metric_is_used() {
        let db = db();
        let loc = NnLocalizer::with_metric(&db, Manhattan)
            .localize(&Fingerprint::new(vec![-41.0, -69.0]))
            .unwrap();
        assert_eq!(loc, l(1));
    }

    #[test]
    fn query_length_mismatch_is_an_error() {
        let db = db();
        let err = NnLocalizer::new(&db)
            .localize(&Fingerprint::new(vec![-41.0]))
            .unwrap_err();
        assert_eq!(
            err,
            QueryLengthError {
                expected: 2,
                found: 1
            }
        );
    }
}
