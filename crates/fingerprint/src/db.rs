//! The fingerprint database.
//!
//! One stored fingerprint per reference location (the mean of the site
//! survey's training samples, the common RADAR-style condensation), plus
//! access to the raw training samples for the probabilistic baseline.

use crate::fingerprint::Fingerprint;
use moloc_geometry::LocationId;
use moloc_stats::online::Welford;
use serde::{Deserialize, Serialize};

/// Error constructing a [`FingerprintDb`] or a
/// [`crate::index::FingerprintIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// No fingerprints were provided.
    Empty,
    /// Two entries share a location id.
    DuplicateLocation(LocationId),
    /// Fingerprints have inconsistent AP counts.
    InconsistentLength {
        /// The expected AP count (from the first entry).
        expected: usize,
        /// The offending AP count.
        found: usize,
    },
    /// A fingerprint carries a non-finite RSS value (NaN or infinity).
    ///
    /// [`Fingerprint::new`] rejects these at construction, but
    /// deserialized or externally assembled fingerprints can bypass
    /// that check — and one NaN in a stored row would poison every
    /// k-NN ranking against it.
    NonFinite(LocationId),
    /// A location id does not follow the one before it in a list that
    /// must be in ascending id order
    /// ([`crate::index::FingerprintIndex::from_rows`]).
    UnsortedLocation(LocationId),
    /// A flattened matrix does not hold `rows` rows of `ap_count`
    /// values ([`crate::index::FingerprintIndex::from_rows`]).
    Shape {
        /// The number of location ids.
        rows: usize,
        /// The AP count every row must have.
        ap_count: usize,
        /// The number of values the matrix holds.
        values: usize,
    },
    /// A row patch names a location the index does not hold
    /// ([`crate::index::FingerprintIndex::patch_rows`]).
    UnknownLocation(LocationId),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Empty => write!(f, "fingerprint database cannot be empty"),
            DbError::DuplicateLocation(id) => write!(f, "duplicate fingerprint for {id}"),
            DbError::InconsistentLength { expected, found } => {
                write!(
                    f,
                    "fingerprint length {found} does not match expected {expected}"
                )
            }
            DbError::NonFinite(id) => {
                write!(f, "fingerprint for {id} has a non-finite RSS value")
            }
            DbError::UnsortedLocation(id) => {
                write!(f, "{id} is out of ascending id order")
            }
            DbError::Shape {
                rows,
                ap_count,
                values,
            } => write!(
                f,
                "{values} values do not make {rows} rows of {ap_count} APs"
            ),
            DbError::UnknownLocation(id) => write!(f, "{id} has no row to patch"),
        }
    }
}

impl std::error::Error for DbError {}

/// A database of location → fingerprint mappings.
///
/// # Examples
///
/// ```
/// use moloc_fingerprint::db::FingerprintDb;
/// use moloc_fingerprint::fingerprint::Fingerprint;
/// use moloc_geometry::LocationId;
///
/// let db = FingerprintDb::from_fingerprints(vec![
///     (LocationId::new(1), Fingerprint::new(vec![-40.0])),
///     (LocationId::new(2), Fingerprint::new(vec![-60.0])),
/// ])?;
/// assert_eq!(db.len(), 2);
/// assert!(db.fingerprint(LocationId::new(2)).is_some());
/// # Ok::<(), moloc_fingerprint::db::DbError>(())
/// ```
///
/// Deserializing checks what [`FingerprintDb::from_fingerprints`]
/// checks, so every database holds a non-empty, rectangular, finite
/// survey with unique ids.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FingerprintDb {
    entries: Vec<(LocationId, Fingerprint)>,
    ap_count: usize,
}

/// The serialized form of a [`FingerprintDb`], before its checks.
#[derive(Deserialize)]
struct RawFingerprintDb {
    entries: Vec<(LocationId, Fingerprint)>,
    ap_count: usize,
}

impl<'de> Deserialize<'de> for FingerprintDb {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let raw = RawFingerprintDb::deserialize(deserializer)?;
        let db = Self::from_fingerprints(raw.entries).map_err(D::Error::custom)?;
        if db.ap_count != raw.ap_count {
            return Err(D::Error::custom(format!(
                "ap_count {} does not match fingerprints of {} APs",
                raw.ap_count, db.ap_count
            )));
        }
        Ok(db)
    }
}

impl FingerprintDb {
    /// Builds a database from per-location fingerprints.
    ///
    /// # Errors
    ///
    /// Returns a [`DbError`] for empty input, duplicate locations,
    /// inconsistent fingerprint lengths, or non-finite RSS values.
    pub fn from_fingerprints(mut entries: Vec<(LocationId, Fingerprint)>) -> Result<Self, DbError> {
        let Some(first) = entries.first() else {
            return Err(DbError::Empty);
        };
        let ap_count = first.1.len();
        entries.sort_by_key(|(id, _)| *id);
        for (i, (id, fp)) in entries.iter().enumerate() {
            if fp.len() != ap_count {
                return Err(DbError::InconsistentLength {
                    expected: ap_count,
                    found: fp.len(),
                });
            }
            if fp.values().iter().any(|v| !v.is_finite()) {
                return Err(DbError::NonFinite(*id));
            }
            if i > 0 && entries[i - 1].0 == *id {
                return Err(DbError::DuplicateLocation(*id));
            }
        }
        Ok(Self { entries, ap_count })
    }

    /// Builds a database by averaging per-location survey samples.
    ///
    /// `samples` yields `(location, sample fingerprints)`; each
    /// location's stored fingerprint is the mean of its samples,
    /// accumulated per AP with the streaming [`Welford`] estimator so
    /// no intermediate sample buffer is materialized (site surveys can
    /// carry hundreds of samples per location).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Empty`] when `samples` is empty or any
    /// location has no samples, [`DbError::InconsistentLength`] when
    /// samples of one location differ in length, [`DbError::NonFinite`]
    /// when a location's mean is not finite, plus the length/duplicate
    /// errors of [`FingerprintDb::from_fingerprints`].
    pub fn from_samples<I, S>(samples: I) -> Result<Self, DbError>
    where
        I: IntoIterator<Item = (LocationId, S)>,
        S: IntoIterator<Item = Fingerprint>,
    {
        let mut entries = Vec::new();
        for (id, set) in samples {
            let mut accumulators: Option<Vec<Welford>> = None;
            for sample in set {
                let accumulators =
                    accumulators.get_or_insert_with(|| vec![Welford::new(); sample.len()]);
                if sample.len() != accumulators.len() {
                    return Err(DbError::InconsistentLength {
                        expected: accumulators.len(),
                        found: sample.len(),
                    });
                }
                for (acc, &value) in accumulators.iter_mut().zip(sample.values()) {
                    acc.push(value);
                }
            }
            let accumulators = accumulators.ok_or(DbError::Empty)?;
            let values: Vec<f64> = accumulators.iter().map(Welford::mean).collect();
            // Survey samples arriving through deserialization can carry
            // NaN/inf past `Fingerprint::new`'s constructor check; a
            // poisoned mean must surface as an error, not a panic.
            if values.iter().any(|v| !v.is_finite()) {
                return Err(DbError::NonFinite(id));
            }
            entries.push((id, Fingerprint::new(values)));
        }
        Self::from_fingerprints(entries)
    }

    /// Number of reference locations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of APs per fingerprint.
    pub fn ap_count(&self) -> usize {
        self.ap_count
    }

    /// The stored fingerprint of a location.
    pub fn fingerprint(&self, id: LocationId) -> Option<&Fingerprint> {
        self.entries
            .binary_search_by_key(&id, |(i, _)| *i)
            .ok()
            .map(|idx| &self.entries[idx].1)
    }

    /// Iterates `(location, fingerprint)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LocationId, &Fingerprint)> {
        self.entries.iter().map(|(id, fp)| (*id, fp))
    }

    /// All location ids in order.
    pub fn locations(&self) -> impl Iterator<Item = LocationId> + '_ {
        self.entries.iter().map(|(id, _)| *id)
    }

    /// A database restricted to the first `n` APs of every fingerprint
    /// (the paper's 4/5-AP settings).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the AP count.
    pub fn with_first_aps(&self, n: usize) -> FingerprintDb {
        assert!(n > 0 && n <= self.ap_count, "invalid AP subset size");
        FingerprintDb {
            entries: self
                .entries
                .iter()
                .map(|(id, fp)| (*id, fp.truncated(n)))
                .collect(),
            ap_count: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            FingerprintDb::from_fingerprints(vec![]).unwrap_err(),
            DbError::Empty
        );
    }

    #[test]
    fn duplicate_location_rejected() {
        let err =
            FingerprintDb::from_fingerprints(vec![(l(1), fp(&[-40.0])), (l(1), fp(&[-50.0]))])
                .unwrap_err();
        assert_eq!(err, DbError::DuplicateLocation(l(1)));
    }

    #[test]
    fn inconsistent_lengths_rejected() {
        let err = FingerprintDb::from_fingerprints(vec![
            (l(1), fp(&[-40.0])),
            (l(2), fp(&[-50.0, -60.0])),
        ])
        .unwrap_err();
        assert_eq!(
            err,
            DbError::InconsistentLength {
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn entries_sorted_by_id() {
        let db = FingerprintDb::from_fingerprints(vec![
            (l(3), fp(&[-40.0])),
            (l(1), fp(&[-50.0])),
            (l(2), fp(&[-60.0])),
        ])
        .unwrap();
        let ids: Vec<_> = db.locations().collect();
        assert_eq!(ids, vec![l(1), l(2), l(3)]);
        assert_eq!(db.fingerprint(l(3)).unwrap().values(), &[-40.0]);
        assert_eq!(db.fingerprint(l(9)), None);
    }

    #[test]
    fn from_samples_averages() {
        let db = FingerprintDb::from_samples(vec![
            (l(1), vec![fp(&[-40.0, -60.0]), fp(&[-44.0, -56.0])]),
            (l(2), vec![fp(&[-70.0, -30.0])]),
        ])
        .unwrap();
        assert_eq!(db.fingerprint(l(1)).unwrap().values(), &[-42.0, -58.0]);
        assert_eq!(db.ap_count(), 2);
    }

    #[test]
    fn from_samples_rejects_ragged_samples_of_one_location() {
        let err =
            FingerprintDb::from_samples(vec![(l(1), vec![fp(&[-40.0, -50.0]), fp(&[-40.0])])])
                .unwrap_err();
        assert_eq!(
            err,
            DbError::InconsistentLength {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn from_samples_rejects_empty_location() {
        let err = FingerprintDb::from_samples(vec![(l(1), Vec::<Fingerprint>::new())]).unwrap_err();
        assert_eq!(err, DbError::Empty);
    }

    #[test]
    fn ap_subset_truncates_all() {
        let db = FingerprintDb::from_fingerprints(vec![
            (l(1), fp(&[-40.0, -60.0, -50.0])),
            (l(2), fp(&[-70.0, -30.0, -20.0])),
        ])
        .unwrap();
        let sub = db.with_first_aps(2);
        assert_eq!(sub.ap_count(), 2);
        assert_eq!(sub.fingerprint(l(2)).unwrap().values(), &[-70.0, -30.0]);
    }
}
