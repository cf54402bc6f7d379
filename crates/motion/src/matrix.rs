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
///
/// Deserializing reads the entry list in any order, sorts it and keeps
/// the last of several entries for one pair, as a map built from it
/// would. A pair that is not canonical (`0 < i < j`) or names an id
/// beyond `location_count` is an error: [`MotionDb::insert`] refuses
/// the same.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MotionDb {
    location_count: usize,
    /// Canonical entries keyed by `(i, j)` with `i < j`, keys strictly
    /// ascending. Serialized as an entry list because JSON maps cannot
    /// have tuple keys.
    #[serde(with = "entries_as_list")]
    entries: Vec<Entry>,
}

/// One canonical pair `(i, j)`, `i < j`, and its statistics.
type Entry = ((u32, u32), PairStats);

/// The serialized form of a [`MotionDb`], before its checks.
#[derive(Deserialize)]
struct RawMotionDb {
    location_count: usize,
    #[serde(with = "entries_as_list")]
    entries: Vec<Entry>,
}

impl<'de> Deserialize<'de> for MotionDb {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let RawMotionDb {
            location_count,
            entries,
        } = RawMotionDb::deserialize(deserializer)?;
        let held = |&((i, j), _): &Entry| 0 < i && i < j && j as usize <= location_count;
        if let Some(((i, j), _)) = entries.iter().find(|e| !held(e)) {
            return Err(serde::de::Error::custom(format!(
                "motion pair ({i}, {j}) is not a canonical pair of {location_count} locations"
            )));
        }
        Ok(Self {
            location_count,
            entries,
        })
    }
}

mod entries_as_list {
    use super::{Entry, PairStats};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(entries: &[Entry], serializer: S) -> Result<S::Ok, S::Error> {
        let list: Vec<(u32, u32, &PairStats)> =
            entries.iter().map(|((i, j), s)| (*i, *j, s)).collect();
        list.serialize(serializer)
    }

    /// Sorts the list by key and keeps the last of several entries for
    /// one key.
    pub fn deserialize<'de, D: Deserializer<'de>>(deserializer: D) -> Result<Vec<Entry>, D::Error> {
        let list = Vec::<(u32, u32, PairStats)>::deserialize(deserializer)?;
        let mut entries: Vec<_> = list.into_iter().map(|(i, j, s)| ((i, j), s)).collect();
        entries.sort_by_key(|&(key, _)| key);
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        Ok(entries)
    }
}

impl MotionDb {
    /// Creates an empty database over `location_count` reference
    /// locations.
    pub fn new(location_count: usize) -> Self {
        Self {
            location_count,
            entries: Vec::new(),
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
    /// any existing entry. A new pair is placed by binary search, so
    /// inserting in ascending key order appends.
    ///
    /// # Panics
    ///
    /// Panics on self-pairs or ids beyond `location_count`.
    pub fn insert(&mut self, from: LocationId, to: LocationId, stats: PairStats) {
        assert!(from != to, "motion database has no self-pairs");
        self.check(from);
        self.check(to);
        let (key, stats) = if from < to {
            ((from.get(), to.get()), stats)
        } else {
            ((to.get(), from.get()), stats.mirrored())
        };
        match self.find(key) {
            Ok(at) => self.entries[at].1 = stats,
            Err(at) => self.entries.insert(at, (key, stats)),
        }
    }

    /// This database with the canonical pairs of `changes` replaced, in
    /// one merge of the two sorted lists: a pair with statistics is
    /// inserted or replaced, a pair with `None` is dropped (or stays
    /// absent). A fresh database's first patch builds it from scratch.
    ///
    /// # Panics
    ///
    /// Panics like [`MotionDb::insert`] on self-pairs and ids beyond
    /// `location_count`, on keys that are not canonical (`i > j`), and
    /// on keys that do not strictly ascend. The entries kept from
    /// `self` already hold all of that, so only `changes` is checked.
    pub(crate) fn patched(&self, changes: &[((u32, u32), Option<PairStats>)]) -> Self {
        let mut last = None;
        for &((i, j), _) in changes {
            assert!(i != j, "motion database has no self-pairs");
            assert!(i < j, "({i}, {j}) is not a canonical pair");
            self.check(LocationId::new(j));
            assert!(
                last < Some((i, j)),
                "({i}, {j}) does not follow the previous key"
            );
            last = Some((i, j));
        }
        let mut entries = Vec::with_capacity(self.entries.len() + changes.len());
        let mut kept = self.entries.as_slice();
        for &(key, stats) in changes {
            let below = kept.partition_point(|&(k, _)| k < key);
            entries.extend_from_slice(&kept[..below]);
            kept = &kept[below..];
            if kept.first().is_some_and(|&(k, _)| k == key) {
                kept = &kept[1..];
            }
            entries.extend(stats.map(|s| (key, s)));
        }
        entries.extend_from_slice(kept);
        Self {
            location_count: self.location_count,
            entries,
        }
    }

    /// Replaces the statistics of the stored canonical pair `key`,
    /// which sits at entry `at` (its position in [`MotionDb::iter`]): a
    /// [`MotionDb::patched`] that keeps every pair, in place.
    ///
    /// # Panics
    ///
    /// Panics when entry `at` does not hold `key`.
    pub(crate) fn write(&mut self, at: usize, key: (u32, u32), stats: PairStats) {
        let entry = &mut self.entries[at];
        assert_eq!(entry.0, key, "entry {at} holds another pair");
        entry.1 = stats;
    }

    fn check(&self, id: LocationId) {
        assert!(
            (id.get() as usize) <= self.location_count,
            "{id} out of range for motion database"
        );
    }

    /// Position of the canonical `key` in `entries`, or where it would
    /// be inserted.
    fn find(&self, key: (u32, u32)) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// The statistics for walking `from → to`, deriving reversed
    /// entries by the mirror rule. `None` when the pair was never
    /// trained or `from == to`.
    pub fn get(&self, from: LocationId, to: LocationId) -> Option<PairStats> {
        if from == to {
            return None;
        }
        if from < to {
            let at = self.find((from.get(), to.get())).ok()?;
            Some(self.entries[at].1)
        } else {
            let at = self.find((to.get(), from.get())).ok()?;
            Some(self.entries[at].1.mirrored())
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
        let at = self.find(key).ok()?;
        Some(self.entries.remove(at).1)
    }

    /// Iterates canonical `(i, j, stats)` entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (LocationId, LocationId, &PairStats)> {
        self.entries
            .iter()
            .map(|((i, j), s)| (LocationId::new(*i), LocationId::new(*j), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// The canonical changes `entries` names, each inserting its pair.
    fn inserts(entries: &[((u32, u32), PairStats)]) -> Vec<((u32, u32), Option<PairStats>)> {
        entries.iter().map(|&(key, s)| (key, Some(s))).collect()
    }

    #[test]
    fn a_patch_of_an_empty_database_equals_one_insert_per_entry() {
        let entries = [((1, 2), stats(90.0, 2.0)), ((2, 4), stats(0.0, 2.5))];
        let mut inserted = MotionDb::new(5);
        for ((i, j), s) in entries {
            inserted.insert(l(i), l(j), s);
        }
        assert_eq!(MotionDb::new(5).patched(&inserts(&entries)), inserted);
        assert_eq!(MotionDb::new(5).patched(&[]), MotionDb::new(5));
    }

    #[test]
    #[should_panic(expected = "no self-pairs")]
    fn a_patch_rejects_self_pairs() {
        MotionDb::new(10).patched(&inserts(&[
            ((1, 2), stats(0.0, 1.0)),
            ((3, 3), stats(0.0, 1.0)),
        ]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_patch_rejects_foreign_ids() {
        MotionDb::new(3).patched(&[((1, 9), None)]);
    }

    #[test]
    #[should_panic(expected = "not a canonical pair")]
    fn a_patch_rejects_reversed_keys() {
        MotionDb::new(5).patched(&inserts(&[((4, 2), stats(0.0, 1.0))]));
    }

    #[test]
    #[should_panic(expected = "does not follow")]
    fn a_patch_rejects_unsorted_keys() {
        MotionDb::new(5).patched(&inserts(&[
            ((2, 4), stats(0.0, 1.0)),
            ((1, 2), stats(0.0, 1.0)),
        ]));
    }

    #[test]
    #[should_panic(expected = "does not follow")]
    fn a_patch_rejects_repeated_keys() {
        MotionDb::new(5).patched(&[((1, 2), Some(stats(0.0, 1.0))), ((1, 2), None)]);
    }

    /// One step of a random edit sequence.
    #[derive(Debug, Clone)]
    enum Edit {
        Insert(u32, u32, f64),
        Remove(u32, u32),
    }

    const EDIT_IDS: u32 = 12;

    fn edit_strategy() -> impl Strategy<Value = Edit> {
        (0u32..3, 1..=EDIT_IDS, 1..=EDIT_IDS, 0.0..360.0f64).prop_map(|(kind, a, b, dir)| {
            let b = if a == b { a % EDIT_IDS + 1 } else { b };
            if kind > 0 {
                Edit::Insert(a, b, dir)
            } else {
                Edit::Remove(a, b)
            }
        })
    }

    proptest! {
        /// Inserts (either orientation, replacing or new) and removals
        /// in random order leave the database a `BTreeMap` model of
        /// the canonical entries holds: equal to one patch of an empty
        /// database with the model's sorted survivors, with `get`, `contains`
        /// and `neighbors_of` answering as the model does.
        #[test]
        fn random_edits_match_a_sorted_map_model(
            edits in prop::collection::vec(edit_strategy(), 0..80),
        ) {
            let mut db = MotionDb::new(EDIT_IDS as usize);
            let mut model: BTreeMap<(u32, u32), PairStats> = BTreeMap::new();
            for edit in &edits {
                match *edit {
                    Edit::Insert(a, b, dir) => {
                        let s = stats(dir, 1.0 + f64::from(a));
                        db.insert(l(a), l(b), s);
                        let (key, s) = if a < b { ((a, b), s) } else { ((b, a), s.mirrored()) };
                        model.insert(key, s);
                    }
                    Edit::Remove(a, b) => {
                        let removed = db.remove(l(a), l(b));
                        prop_assert_eq!(removed, model.remove(&(a.min(b), a.max(b))));
                    }
                }
            }
            let survivors: Vec<_> = model.iter().map(|(&key, &s)| (key, Some(s))).collect();
            let rebuilt = MotionDb::new(EDIT_IDS as usize).patched(&survivors);
            prop_assert_eq!(&db, &rebuilt);
            prop_assert_eq!(db.pair_count(), model.len());
            for a in 1..=EDIT_IDS {
                for b in 1..=EDIT_IDS {
                    let want = match a.cmp(&b) {
                        std::cmp::Ordering::Less => model.get(&(a, b)).copied(),
                        std::cmp::Ordering::Greater => {
                            model.get(&(b, a)).map(PairStats::mirrored)
                        }
                        std::cmp::Ordering::Equal => None,
                    };
                    prop_assert_eq!(db.get(l(a), l(b)), want);
                    prop_assert_eq!(db.contains(l(a), l(b)), want.is_some());
                }
                let neighbors: Vec<LocationId> = (1..=EDIT_IDS)
                    .filter(|&b| model.contains_key(&(a.min(b), a.max(b))) && a != b)
                    .map(l)
                    .collect();
                prop_assert_eq!(db.neighbors_of(l(a)), neighbors);
            }
        }

        /// A patch of a random database equals one `insert` or
        /// `remove` per changed pair, whether the pair was trained
        /// before, after, both or neither.
        #[test]
        fn a_patch_equals_one_edit_per_changed_pair(
            base in prop::collection::vec(edit_strategy(), 0..60),
            edits in prop::collection::vec(edit_strategy(), 0..20),
        ) {
            let apply = |db: &mut MotionDb, edits: &[Edit]| {
                for edit in edits {
                    match *edit {
                        Edit::Insert(a, b, dir) => db.insert(l(a), l(b), stats(dir, 2.0)),
                        Edit::Remove(a, b) => {
                            db.remove(l(a), l(b));
                        }
                    }
                }
            };
            let mut db = MotionDb::new(EDIT_IDS as usize);
            apply(&mut db, &base);
            let mut want = db.clone();
            apply(&mut want, &edits);
            let changes: BTreeMap<(u32, u32), Option<PairStats>> = edits
                .iter()
                .map(|edit| {
                    let (Edit::Insert(a, b, _) | Edit::Remove(a, b)) = *edit;
                    let (i, j) = (a.min(b), a.max(b));
                    ((i, j), want.get(l(i), l(j)))
                })
                .collect();
            let changes: Vec<_> = changes.into_iter().collect();
            prop_assert_eq!(db.patched(&changes), want);
        }
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
