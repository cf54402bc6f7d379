//! The motion database matrix (paper Sec. IV-C).
//!
//! Conceptually an n×n matrix `M` whose entry `M_{i,j}` is the
//! quadruple `(μᵈ_{i,j}, σᵈ_{i,j}, μᵒ_{i,j}, σᵒ_{i,j})`. Only canonical
//! pairs (`i < j`) are stored; the reverse entry is derived on lookup by
//! the paper's mirror rule (`μᵈ_{j,i} = μᵈ_{i,j} + 180° mod 360°`, all
//! other components unchanged).

use moloc_geometry::LocationId;
use moloc_stats::circular::reverse_deg;
use moloc_stats::gaussian::Gaussian;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The Gaussian statistics of one directed location pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairStats {
    /// Direction distribution `N(μᵈ, (σᵈ)²)`, mean in compass degrees.
    pub direction: Gaussian,
    /// Offset distribution `N(μᵒ, (σᵒ)²)`, mean in meters.
    pub offset: Gaussian,
    /// Number of sanitized measurements behind these statistics.
    pub sample_count: u64,
}

impl PairStats {
    /// The statistics for walking the pair in the opposite direction.
    pub fn mirrored(&self) -> PairStats {
        PairStats {
            direction: Gaussian::new(reverse_deg(self.direction.mean()), self.direction.std())
                .expect("mirrored std unchanged"),
            offset: self.offset,
            sample_count: self.sample_count,
        }
    }
}

/// The motion database.
///
/// # Examples
///
/// ```
/// use moloc_geometry::LocationId;
/// use moloc_motion::matrix::{MotionDb, PairStats};
/// use moloc_stats::gaussian::Gaussian;
///
/// let mut db = MotionDb::new(28);
/// db.insert(
///     LocationId::new(1),
///     LocationId::new(2),
///     PairStats {
///         direction: Gaussian::new(90.0, 4.0).unwrap(),
///         offset: Gaussian::new(5.8, 0.2).unwrap(),
///         sample_count: 12,
///     },
/// );
/// // The reverse direction is derived automatically.
/// let rev = db.get(LocationId::new(2), LocationId::new(1)).unwrap();
/// assert_eq!(rev.direction.mean(), 270.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MotionDb {
    location_count: usize,
    /// Canonical entries keyed by `(i, j)` with `i < j`. Serialized as
    /// an entry list because JSON maps cannot have tuple keys.
    #[serde(with = "entries_as_list")]
    entries: BTreeMap<(u32, u32), PairStats>,
}

mod entries_as_list {
    use super::PairStats;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::BTreeMap;

    pub fn serialize<S: Serializer>(
        entries: &BTreeMap<(u32, u32), PairStats>,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        let list: Vec<(u32, u32, &PairStats)> =
            entries.iter().map(|(&(i, j), s)| (i, j, s)).collect();
        list.serialize(serializer)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<BTreeMap<(u32, u32), PairStats>, D::Error> {
        let list = Vec::<(u32, u32, PairStats)>::deserialize(deserializer)?;
        Ok(list.into_iter().map(|(i, j, s)| ((i, j), s)).collect())
    }
}

impl MotionDb {
    /// Creates an empty database over `location_count` reference
    /// locations.
    pub fn new(location_count: usize) -> Self {
        Self {
            location_count,
            entries: BTreeMap::new(),
        }
    }

    /// Number of reference locations.
    pub fn location_count(&self) -> usize {
        self.location_count
    }

    /// Number of stored (undirected) pairs.
    pub fn pair_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pair is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts statistics for the directed pair `from → to`; stored in
    /// canonical orientation (mirrored first if `from > to`). Replaces
    /// any existing entry.
    ///
    /// # Panics
    ///
    /// Panics on self-pairs or ids beyond `location_count`.
    pub fn insert(&mut self, from: LocationId, to: LocationId, stats: PairStats) {
        assert!(from != to, "motion database has no self-pairs");
        self.check(from);
        self.check(to);
        if from < to {
            self.entries.insert((from.get(), to.get()), stats);
        } else {
            self.entries
                .insert((to.get(), from.get()), stats.mirrored());
        }
    }

    /// Builds a database from canonical `((i, j), stats)` entries in
    /// ascending key order, as one bulk build of the map rather than a
    /// search and insert per entry.
    ///
    /// # Panics
    ///
    /// Panics like [`MotionDb::insert`] on self-pairs and ids beyond
    /// `location_count`, and on keys that are not canonical (`i > j`).
    pub(crate) fn from_canonical(
        location_count: usize,
        entries: impl IntoIterator<Item = ((u32, u32), PairStats)>,
    ) -> Self {
        let db = Self::new(location_count);
        let entries = entries
            .into_iter()
            .inspect(|&((i, j), _)| {
                assert!(i != j, "motion database has no self-pairs");
                assert!(i < j, "({i}, {j}) is not a canonical pair");
                db.check(LocationId::new(j));
            })
            .collect();
        Self { entries, ..db }
    }

    fn check(&self, id: LocationId) {
        assert!(
            (id.get() as usize) <= self.location_count,
            "{id} out of range for motion database"
        );
    }

    /// The statistics for walking `from → to`, deriving reversed
    /// entries by the mirror rule. `None` when the pair was never
    /// trained or `from == to`.
    pub fn get(&self, from: LocationId, to: LocationId) -> Option<PairStats> {
        if from == to {
            return None;
        }
        if from < to {
            self.entries.get(&(from.get(), to.get())).copied()
        } else {
            self.entries
                .get(&(to.get(), from.get()))
                .map(PairStats::mirrored)
        }
    }

    /// Whether the pair has an entry (in either orientation).
    pub fn contains(&self, a: LocationId, b: LocationId) -> bool {
        self.get(a, b).is_some()
    }

    /// The locations trained as reachable from `from` (have an entry).
    pub fn neighbors_of(&self, from: LocationId) -> Vec<LocationId> {
        (1..=self.location_count as u32)
            .map(LocationId::new)
            .filter(|&other| other != from && self.contains(from, other))
            .collect()
    }

    /// Removes the entry for the (undirected) pair, returning the
    /// stored canonical statistics. `None` when the pair was never
    /// trained or `a == b`. Used by fault injection to model corrupted
    /// or missing RLM cells; lookups of a removed pair fall back to the
    /// kernel's untrained-pair probability.
    pub fn remove(&mut self, a: LocationId, b: LocationId) -> Option<PairStats> {
        if a == b {
            return None;
        }
        let key = if a < b {
            (a.get(), b.get())
        } else {
            (b.get(), a.get())
        };
        self.entries.remove(&key)
    }

    /// Iterates canonical `(i, j, stats)` entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (LocationId, LocationId, &PairStats)> {
        self.entries
            .iter()
            .map(|(&(i, j), s)| (LocationId::new(i), LocationId::new(j), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn stats(dir: f64, off: f64) -> PairStats {
        PairStats {
            direction: Gaussian::new(dir, 5.0).unwrap(),
            offset: Gaussian::new(off, 0.3).unwrap(),
            sample_count: 10,
        }
    }

    #[test]
    fn insert_and_lookup_forward() {
        let mut db = MotionDb::new(10);
        db.insert(l(1), l(2), stats(90.0, 5.8));
        let s = db.get(l(1), l(2)).unwrap();
        assert_eq!(s.direction.mean(), 90.0);
        assert_eq!(s.offset.mean(), 5.8);
        assert_eq!(db.pair_count(), 1);
    }

    #[test]
    fn reverse_lookup_mirrors_direction_only() {
        let mut db = MotionDb::new(10);
        db.insert(l(1), l(2), stats(90.0, 5.8));
        let rev = db.get(l(2), l(1)).unwrap();
        assert_eq!(rev.direction.mean(), 270.0);
        assert_eq!(rev.direction.std(), 5.0);
        assert_eq!(rev.offset.mean(), 5.8);
        assert_eq!(rev.sample_count, 10);
    }

    #[test]
    fn insert_reversed_is_canonicalized() {
        let mut db = MotionDb::new(10);
        db.insert(l(5), l(2), stats(270.0, 4.0));
        // Stored canonically as 2 → 5 at 90°.
        let s = db.get(l(2), l(5)).unwrap();
        assert_eq!(s.direction.mean(), 90.0);
        assert_eq!(db.pair_count(), 1);
    }

    #[test]
    fn untrained_pair_is_none() {
        let db = MotionDb::new(10);
        assert_eq!(db.get(l(1), l(2)), None);
        assert!(!db.contains(l(1), l(2)));
        assert!(db.is_empty());
    }

    #[test]
    fn self_pair_lookup_is_none() {
        let mut db = MotionDb::new(10);
        db.insert(l(1), l(2), stats(0.0, 1.0));
        assert_eq!(db.get(l(1), l(1)), None);
    }

    #[test]
    #[should_panic(expected = "no self-pairs")]
    fn self_pair_insert_panics() {
        let mut db = MotionDb::new(10);
        db.insert(l(1), l(1), stats(0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_id_panics() {
        let mut db = MotionDb::new(3);
        db.insert(l(1), l(9), stats(0.0, 1.0));
    }

    #[test]
    fn from_canonical_equals_one_insert_per_entry() {
        let entries = [((1, 2), stats(90.0, 2.0)), ((2, 4), stats(0.0, 2.5))];
        let mut inserted = MotionDb::new(5);
        for ((i, j), s) in entries {
            inserted.insert(l(i), l(j), s);
        }
        assert_eq!(MotionDb::from_canonical(5, entries), inserted);
        assert_eq!(MotionDb::from_canonical(5, []), MotionDb::new(5));
    }

    #[test]
    #[should_panic(expected = "no self-pairs")]
    fn from_canonical_rejects_self_pairs() {
        MotionDb::from_canonical(10, [((1, 2), stats(0.0, 1.0)), ((3, 3), stats(0.0, 1.0))]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_canonical_rejects_foreign_ids() {
        MotionDb::from_canonical(3, [((1, 9), stats(0.0, 1.0))]);
    }

    #[test]
    #[should_panic(expected = "not a canonical pair")]
    fn from_canonical_rejects_reversed_keys() {
        MotionDb::from_canonical(5, [((4, 2), stats(0.0, 1.0))]);
    }

    #[test]
    fn neighbors_of_lists_trained_pairs() {
        let mut db = MotionDb::new(5);
        db.insert(l(1), l(2), stats(90.0, 2.0));
        db.insert(l(3), l(1), stats(0.0, 2.0));
        let n = db.neighbors_of(l(1));
        assert_eq!(n, vec![l(2), l(3)]);
        assert!(db.neighbors_of(l(5)).is_empty());
    }

    #[test]
    fn mirrored_twice_is_identity() {
        let s = stats(37.0, 2.2);
        let back = s.mirrored().mirrored();
        assert!((back.direction.mean() - s.direction.mean()).abs() < 1e-9);
        assert_eq!(back.offset, s.offset);
    }

    #[test]
    fn remove_works_in_either_orientation() {
        let mut db = MotionDb::new(5);
        db.insert(l(1), l(2), stats(90.0, 2.0));
        db.insert(l(2), l(3), stats(0.0, 2.0));
        assert_eq!(db.remove(l(1), l(1)), None);
        assert_eq!(db.remove(l(4), l(5)), None);
        // Reversed orientation hits the canonical entry.
        let removed = db.remove(l(2), l(1)).unwrap();
        assert_eq!(removed.direction.mean(), 90.0);
        assert_eq!(db.get(l(1), l(2)), None);
        assert_eq!(db.pair_count(), 1);
    }

    #[test]
    fn iter_yields_canonical_entries() {
        let mut db = MotionDb::new(5);
        db.insert(l(4), l(2), stats(180.0, 3.0));
        db.insert(l(1), l(2), stats(90.0, 2.0));
        let keys: Vec<_> = db.iter().map(|(a, b, _)| (a, b)).collect();
        assert_eq!(keys, vec![(l(1), l(2)), (l(2), l(4))]);
    }
}
