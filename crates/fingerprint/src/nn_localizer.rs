//! The plain WiFi fingerprinting baseline.
//!
//! Implements the paper's Eq. 2: return the location whose stored
//! fingerprint minimizes the dissimilarity to the query. This is the
//! baseline MoLoc is compared against throughout Sec. VI.

use crate::db::FingerprintDb;
use crate::fingerprint::Fingerprint;
use crate::index::FingerprintIndex;
use moloc_geometry::LocationId;
use std::borrow::Cow;

/// Nearest-neighbor WiFi localizer (Eq. 2): the argmin of the
/// [`FingerprintIndex`] ranks, the nearest neighbour of its `k = 1`
/// scan.
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
        // the masked branch. The strict `<` of the argmin keeps the
        // lowest id among equal distances.
        Ok(if query.iter().all(|v| v.is_finite()) {
            self.index.nearest(query)
        } else {
            self.index.nearest_masked(query)
        })
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

    /// The first neighbour of the index's `k = 1` table, clean or
    /// masked: the pick the argmin replaced.
    fn k1_pick(index: &FingerprintIndex, query: &[f64]) -> LocationId {
        let (mut scratch, mut out) = (crate::index::KnnScratch::new(), Vec::new());
        if query.iter().all(|v| v.is_finite()) {
            index.k_nearest_into(query, 1, &mut scratch, &mut out);
        } else {
            index.k_nearest_masked_into(query, 1, &mut scratch, &mut out);
        }
        out[0].location
    }

    #[test]
    fn the_argmin_picks_what_the_k1_table_picks() {
        // Rows on a coarse lattice so many tie, some planted equal to an
        // earlier row (the lower id must win), rows ~1e200 apart whose
        // ranks overflow to +inf, and a one-row index, at the unrolled
        // widths 4–8 and the generic 16. Queries: every row itself
        // (a rank-0 tie with its twins), lattice points, values 1e200
        // away from every row, and masked copies of each.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for ap in [4, 5, 6, 7, 8, 16] {
            for rows in [1usize, 2, 9, 40] {
                let mut values: Vec<Vec<f64>> = (0..rows)
                    .map(|_| (0..ap).map(|_| -40.0 - (next() % 4) as f64).collect())
                    .collect();
                for r in (3..rows).step_by(3) {
                    values[r] = values[(next() as usize) % r].clone();
                }
                if rows > 2 {
                    values[1] = vec![1e200; ap];
                    values[2] = vec![-1e200; ap];
                }
                let db = FingerprintDb::from_fingerprints(
                    values
                        .iter()
                        .enumerate()
                        .map(|(r, v)| (l(r as u32 + 1), Fingerprint::new(v.clone())))
                        .collect(),
                )
                .unwrap();
                let index = FingerprintIndex::build(&db);
                let localizer = NnLocalizer::with_index(&db, &index);
                let mut queries = values.clone();
                queries
                    .extend((0..8).map(|_| (0..ap).map(|_| -40.0 - (next() % 4) as f64).collect()));
                queries.push(vec![1e200; ap]);
                queries.push(vec![-1e200; ap]);
                queries.push(vec![0.0; ap]);
                for (qi, query) in queries.iter().enumerate() {
                    let mut masked = query.clone();
                    masked[qi % ap] = f64::NAN;
                    for q in [query, &masked] {
                        assert_eq!(
                            localizer.localize_slice(q).unwrap(),
                            k1_pick(&index, q),
                            "{ap} APs, {rows} rows, query {q:?}"
                        );
                    }
                }
                let blind = vec![f64::NAN; ap];
                assert_eq!(localizer.localize_slice(&blind).unwrap(), l(1));
            }
        }
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
