//! The plain WiFi fingerprinting baseline.
//!
//! Implements the paper's Eq. 2: return the location whose stored
//! fingerprint minimizes the dissimilarity to the query. This is the
//! baseline MoLoc is compared against throughout Sec. VI.

use crate::db::FingerprintDb;
use crate::fingerprint::Fingerprint;
use crate::index::{FingerprintIndex, KnnScratch};
use crate::knn::Neighbor;
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

/// Nearest-neighbor WiFi localizer (Eq. 2): the [`FingerprintIndex`]
/// selection scan at `k = 1`.
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
    /// The index the pick ranks through — owned, or borrowed from a
    /// caller who shares one index across localizers.
    index: Cow<'a, FingerprintIndex>,
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
    /// Creates a localizer over its own [`FingerprintIndex`] of `db`.
    pub fn new(db: &'a FingerprintDb) -> Self {
        Self {
            db,
            index: Cow::Owned(FingerprintIndex::build(db)),
        }
    }

    /// Creates a localizer over a caller-shared [`FingerprintIndex`],
    /// skipping the per-localizer index build. `index` must have been
    /// built from `db`.
    pub fn with_index(db: &'a FingerprintDb, index: &'a FingerprintIndex) -> Self {
        Self {
            db,
            index: Cow::Borrowed(index),
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
        // ranked on the observed dimensions only — a NaN entering the
        // clean scan would poison the ranking. Clean queries never take
        // the masked branch. The strict `<` of the selection keeps the
        // lowest id among equal distances.
        let masked = query.iter().any(|v| !v.is_finite());
        Ok(NEAREST.with(|buffers| {
            let (scratch, nearest) = &mut *buffers.borrow_mut();
            if masked {
                self.index.select_masked_into(query, 1, scratch, nearest);
            } else {
                self.index.select_into(query, 1, scratch, nearest);
            }
            nearest[0].location
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
