//! A precomputed lookup kernel for the motion-matching hot path.
//!
//! [`crate::matrix::MotionDb::get`] binary-searches the sorted list of
//! canonical pairs, mirrors reversed entries on every call, and the
//! caller then builds throwaway `Gaussian`s and evaluates two
//! `erfc`-based CDFs per pair. That is fine for a handful of queries,
//! but Eq. 6 evaluates `k²` pairs per localization step and the
//! evaluation pipeline runs millions of steps.
//!
//! [`PairTable`] flattens the database once into per-origin sorted runs
//! of its trained directed pairs (CSR style: run bounds, target ids,
//! and per-pair parameters, both orientations materialized). None of
//! that depends on a matching configuration, so a [`MotionKernel`] is
//! the configuration's scalars over a shared `Arc<PairTable>`, and it
//! evaluates window masses through the tabulated CDF of
//! [`moloc_stats::normcdf`]. Crowdsourced RLMs only train walked,
//! adjacent pairs — a handful per origin — so memory is `O(n + pairs)`
//! rather than `O(n²)`. A lookup tests one bit of its origin's 64-bit
//! target summary and scans the short run only on a hit.
//!
//! A database that changed only in the statistics of pairs it already
//! trained has the same runs, so [`MotionDbBuilder`] moves a table to
//! the next database by overwriting those pairs' parameters in place
//! (`PairTable::overwrite`) rather than laying out every pair again.
//!
//! [`MotionDbBuilder`]: crate::builder::MotionDbBuilder
//!
//! # Accuracy
//!
//! For every pair and measurement, [`MotionKernel::pair_probability`]
//! agrees with the exact Gaussian-window computation (the exact-erf
//! `moloc_verify::oracle::pair_probability`) within `1e-6`
//! absolute: each window mass is a difference of two interpolated CDF
//! reads (each within `1.3e-7` of the exact CDF), and the
//! direction/offset masses are both at most 1, so their product
//! deviates by less than `5e-7`. A property test in `moloc-core`
//! enforces the bound against randomly generated databases.

use crate::matrix::{MotionDb, PairStats};
use moloc_geometry::LocationId;
use moloc_stats::circular::signed_diff_deg;
use moloc_stats::normcdf::fast_std_normal_cdf;
use std::sync::Arc;

/// The matching parameters the kernel bakes in, mirroring the fields of
/// `moloc-core`'s `MoLocConfig` that Eq. 5 consumes. (A standalone type
/// because `moloc-motion` sits below `moloc-core` in the crate graph.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Direction window width `α` in degrees.
    pub alpha_deg: f64,
    /// Offset window width `β` in meters.
    pub beta_m: f64,
    /// Probability assigned to untrained pairs.
    pub missing_pair_prob: f64,
    /// Offset standard deviation of the stay-in-place model, meters.
    pub stationary_offset_std_m: f64,
}

/// Scaled parameters of one directed trained pair. Two are equal when
/// their bits are.
#[derive(Debug, Clone, Copy, Default)]
struct PairParams {
    /// Mean direction, compass degrees.
    dir_mean: f64,
    /// `1 / σᵈ`.
    dir_inv_std: f64,
    /// Mean offset, meters.
    off_mean: f64,
    /// `1 / σᵒ`.
    off_inv_std: f64,
}

impl PartialEq for PairParams {
    fn eq(&self, other: &Self) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for PairParams {}

impl PairParams {
    fn bits(&self) -> [u64; 4] {
        [
            self.dir_mean,
            self.dir_inv_std,
            self.off_mean,
            self.off_inv_std,
        ]
        .map(f64::to_bits)
    }

    fn of(stats: &PairStats) -> Self {
        Self {
            dir_mean: stats.direction.mean(),
            dir_inv_std: 1.0 / stats.direction.std(),
            off_mean: stats.offset.mean(),
            off_inv_std: 1.0 / stats.offset.std(),
        }
    }
}

/// The config-free half of a [`MotionKernel`]: a [`MotionDb`]'s trained
/// directed pairs in per-origin sorted runs, with the parameters of
/// each. Nothing here depends on a matching configuration, so kernels
/// of any configuration over one database can share one table behind
/// an `Arc` ([`MotionKernel::with_pairs`]). Two tables are equal when
/// every array matches bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairTable {
    location_count: usize,
    /// Run bounds: the pairs leaving origin index `i` are
    /// `offsets[i]..offsets[i + 1]` of `targets` and `params`. Covers
    /// origins up to the largest trained one, so an untrained database
    /// allocates nothing whatever its location count (`offsets` is
    /// then empty, not `[0]`).
    offsets: Vec<u32>,
    /// Per origin, a summary of its run: bit `t % 64` is set for each
    /// target index `t`. A clear bit rejects the pair before the scan.
    target_bits: Vec<u64>,
    /// Target of each directed pair, ascending within a run.
    targets: Vec<LocationId>,
    /// Parameters of each directed pair, parallel to `targets`.
    params: Vec<PairParams>,
}

impl PairTable {
    /// Lays out the trained pairs of `db`.
    ///
    /// Cost is `O(n + pairs)` time and memory, with no sort: a first
    /// pass counts each origin's directed pairs and prefix-sums the
    /// counts into run bounds, a second places both orientations of
    /// every canonical pair (the reverse by [`PairStats::mirrored`], the
    /// arithmetic [`MotionDb::get`] uses) at its origin's cursor.
    /// Canonical pairs arrive in ascending `(i, j)` order with `i < j`,
    /// so an origin receives its mirrored targets (all below it,
    /// ascending) before its forward targets (all above it,
    /// ascending): every run comes out sorted.
    pub fn build(db: &MotionDb) -> Self {
        let runs = db.iter().map(|(_, j, _)| j.index() + 1).max().unwrap_or(0);
        let mut offsets = if runs == 0 {
            Vec::new()
        } else {
            vec![0u32; runs + 1]
        };
        for (i, j, _) in db.iter() {
            offsets[i.index() + 1] += 1;
            offsets[j.index() + 1] += 1;
        }
        for r in 0..runs {
            offsets[r + 1] += offsets[r];
        }
        let directed = 2 * db.pair_count();
        let mut cursor = offsets[..runs].to_vec();
        let mut target_bits = vec![0u64; runs];
        let mut targets = vec![LocationId::new(1); directed];
        let mut params = vec![PairParams::default(); directed];
        let mut place = |from: LocationId, to: LocationId, p: PairParams| {
            let at = &mut cursor[from.index()];
            targets[*at as usize] = to;
            params[*at as usize] = p;
            *at += 1;
            target_bits[from.index()] |= 1 << (to.index() % 64);
        };
        for (i, j, stats) in db.iter() {
            place(i, j, PairParams::of(stats));
            place(j, i, PairParams::of(&stats.mirrored()));
        }
        Self {
            location_count: db.location_count(),
            offsets,
            target_bits,
            targets,
            params,
        }
    }

    /// Overwrites the parameters of the trained canonical pair `i → j`
    /// with those of `stats`, in both orientations, by the arithmetic of
    /// [`PairTable::build`]. A database that differs from this table's
    /// only in the statistics of pairs both train has the same runs, so
    /// after one overwrite per changed pair the table's bits equal a
    /// build over that database.
    ///
    /// # Panics
    ///
    /// Panics when `i → j` is not canonical (`i < j`) or not trained.
    pub(crate) fn overwrite(&mut self, i: LocationId, j: LocationId, stats: &PairStats) {
        assert!(i < j, "({i}, {j}) is not a canonical pair");
        let trained = |at: Option<usize>| at.unwrap_or_else(|| panic!("({i}, {j}) is not trained"));
        let (forward, reverse) = (trained(self.position(i, j)), trained(self.position(j, i)));
        self.params[forward] = PairParams::of(stats);
        self.params[reverse] = PairParams::of(&stats.mirrored());
    }

    /// Where the trained pair `from → to` sits in `targets` and
    /// `params`, `None` past the last run or when `to` is not in
    /// `from`'s run.
    ///
    /// Most Eq. 7 lookups miss (87% on the paper hall), so a clear bit
    /// in `target_bits` rejects them before the run is read: on
    /// recorded Eq. 7 candidate pairs a run scan alone cost 15–17 ns per
    /// lookup against 5–6 ns for the old dense table, and the bit test
    /// brings it to 6–7 ns (2-vCPU x86-64). Runs hold about 3 targets
    /// in the paper hall and 4 on a 2048-cell grid, where a linear scan
    /// matched binary search within noise, so the simpler scan stays.
    #[inline]
    fn position(&self, from: LocationId, to: LocationId) -> Option<usize> {
        let fi = from.index();
        if self.target_bits.get(fi)? & (1 << (to.index() % 64)) == 0 {
            return None;
        }
        let (start, end) = (self.offsets[fi] as usize, self.offsets[fi + 1] as usize);
        let at = self.targets[start..end].iter().position(|&t| t == to)?;
        Some(start + at)
    }

    /// The parameters of the trained pair `from → to`.
    #[inline]
    fn params_of(&self, from: LocationId, to: LocationId) -> Option<&PairParams> {
        self.position(from, to).map(|at| &self.params[at])
    }
}

/// A precomputed view of a [`MotionDb`] for one matching
/// configuration: the configuration's scalars over a shared
/// [`PairTable`]. Build once, query millions of times.
#[derive(Debug, Clone)]
pub struct MotionKernel {
    alpha_deg: f64,
    beta_m: f64,
    missing_pair_prob: f64,
    /// `(α/360) · 1`, the uninformative direction mass of the stay model.
    stay_direction_mass: f64,
    /// `1 / stationary_offset_std_m`.
    stay_inv_std: f64,
    /// The trained pairs, shared by every kernel over the same table.
    pairs: Arc<PairTable>,
}

impl MotionKernel {
    /// Precomputes the kernel for `db` under `config`: a
    /// [`PairTable::build`], wrapped by [`MotionKernel::with_pairs`].
    ///
    /// # Panics
    ///
    /// Panics like [`MotionKernel::with_pairs`] on an invalid `config`.
    pub fn build(db: &MotionDb, config: &KernelConfig) -> Self {
        Self::with_pairs(Arc::new(PairTable::build(db)), config)
    }

    /// The kernel for `config` over an existing table, in `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has non-positive `alpha_deg`, `beta_m`, or
    /// `stationary_offset_std_m`, or a negative `missing_pair_prob`
    /// (mirroring `MoLocConfig::validate`).
    pub fn with_pairs(pairs: Arc<PairTable>, config: &KernelConfig) -> Self {
        assert!(
            config.alpha_deg > 0.0 && config.alpha_deg.is_finite(),
            "alpha_deg must be positive"
        );
        assert!(
            config.beta_m > 0.0 && config.beta_m.is_finite(),
            "beta_m must be positive"
        );
        assert!(
            config.stationary_offset_std_m > 0.0 && config.stationary_offset_std_m.is_finite(),
            "stationary_offset_std_m must be positive"
        );
        assert!(
            config.missing_pair_prob >= 0.0 && config.missing_pair_prob.is_finite(),
            "missing_pair_prob must be non-negative"
        );
        Self {
            alpha_deg: config.alpha_deg,
            beta_m: config.beta_m,
            missing_pair_prob: config.missing_pair_prob,
            stay_direction_mass: (config.alpha_deg / 360.0).min(1.0),
            stay_inv_std: 1.0 / config.stationary_offset_std_m,
            pairs,
        }
    }

    /// Number of reference locations the kernel covers.
    pub fn location_count(&self) -> usize {
        self.pairs.location_count
    }

    /// Number of directed trained pairs materialized.
    pub fn directed_pair_count(&self) -> usize {
        self.pairs.params.len()
    }

    /// Mass of `[center - width/2, center + width/2]` under `N(mean, σ²)`
    /// with `inv_std = 1/σ`, via the tabulated CDF.
    #[inline]
    fn window_mass(mean: f64, inv_std: f64, center: f64, width: f64) -> f64 {
        let lo = (center - width / 2.0 - mean) * inv_std;
        let hi = (center + width / 2.0 - mean) * inv_std;
        (fast_std_normal_cdf(hi) - fast_std_normal_cdf(lo)).max(0.0)
    }

    /// The stay-in-place probability `P_{i,i}(·, o)` — the `from == to`
    /// branch of [`MotionKernel::pair_probability`]. It depends only on
    /// the measured offset, so Eq. 7 loops can evaluate it once per
    /// observation instead of on every diagonal hit of the `k × k`
    /// candidate product.
    #[inline]
    pub fn stay_probability(&self, offset_m: f64) -> f64 {
        let o_mass = Self::window_mass(0.0, self.stay_inv_std, offset_m, self.beta_m);
        self.stay_direction_mass * o_mass
    }

    /// The pairwise motion probability `P_{i,j}(d, o)` (Eq. 5),
    /// matching the exact computation within `1e-6` (see module docs).
    #[inline]
    pub fn pair_probability(
        &self,
        from: LocationId,
        to: LocationId,
        direction_deg: f64,
        offset_m: f64,
    ) -> f64 {
        if from == to {
            return self.stay_probability(offset_m);
        }
        let Some(p) = self.pairs.params_of(from, to) else {
            return self.missing_pair_prob;
        };
        // Direction windows are evaluated on the wrapped deviation from
        // the pair mean so the 0°/360° seam never splits a window —
        // identical to the exact path.
        let dev = signed_diff_deg(p.dir_mean, direction_deg);
        let d_mass = Self::window_mass(0.0, p.dir_inv_std, dev, self.alpha_deg);
        let o_mass = Self::window_mass(p.off_mean, p.off_inv_std, offset_m, self.beta_m);
        d_mass * o_mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::PairStats;
    use moloc_stats::gaussian::Gaussian;
    use proptest::prelude::*;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn config() -> KernelConfig {
        KernelConfig {
            alpha_deg: 20.0,
            beta_m: 1.0,
            missing_pair_prob: 1e-6,
            stationary_offset_std_m: 0.5,
        }
    }

    fn db() -> MotionDb {
        let mut db = MotionDb::new(4);
        db.insert(
            l(1),
            l(2),
            PairStats {
                direction: Gaussian::new(90.0, 5.0).unwrap(),
                offset: Gaussian::new(5.0, 0.3).unwrap(),
                sample_count: 10,
            },
        );
        db
    }

    #[test]
    fn materializes_both_orientations() {
        let k = MotionKernel::build(&db(), &config());
        assert_eq!(k.directed_pair_count(), 2);
        assert!(k.pair_probability(l(1), l(2), 90.0, 5.0) > 0.8);
        assert!(k.pair_probability(l(2), l(1), 270.0, 5.0) > 0.8);
        assert!(k.pair_probability(l(2), l(1), 90.0, 5.0) < 1e-6);
    }

    #[test]
    fn untrained_and_out_of_range_pairs_use_epsilon() {
        let k = MotionKernel::build(&db(), &config());
        assert_eq!(k.pair_probability(l(1), l(3), 90.0, 5.0), 1e-6);
        assert_eq!(k.pair_probability(l(1), l(9), 90.0, 5.0), 1e-6);
    }

    #[test]
    fn huge_location_counts_allocate_by_pairs() {
        // n² would be 4·10¹⁰ bytes at 100 000 locations and wraps at
        // usize::MAX / 2; runs only reach the largest trained origin.
        for n in [100_000, usize::MAX / 2] {
            let k = MotionKernel::build(&MotionDb::new(n), &config());
            assert_eq!(k.location_count(), n);
            assert_eq!(k.directed_pair_count(), 0);
            assert_eq!(k.pair_probability(l(1), l(2), 90.0, 5.0), 1e-6);
            assert_eq!(k.pair_probability(l(u32::MAX), l(7), 90.0, 5.0), 1e-6);
        }
        let mut wide = MotionDb::new(100_000);
        wide.insert(l(1), l(2), db().get(l(1), l(2)).unwrap());
        let k = MotionKernel::build(&wide, &config());
        assert_eq!(k.directed_pair_count(), 2);
        assert!(k.pair_probability(l(2), l(1), 270.0, 5.0) > 0.8);
        assert_eq!(k.pair_probability(l(1), l(99_999), 90.0, 5.0), 1e-6);
        assert_eq!(k.pair_probability(l(99_999), l(1), 90.0, 5.0), 1e-6);
    }

    #[test]
    fn long_runs_resolve_every_target() {
        // Origin 1 trained to 70 targets (one run of 70), plus pairs
        // among the targets so neighbouring runs are non-empty too.
        let mut db = MotionDb::new(80);
        for t in 2..=71u32 {
            let stats = PairStats {
                direction: Gaussian::new(f64::from(t), 3.0).unwrap(),
                offset: Gaussian::new(0.1 * f64::from(t), 0.2).unwrap(),
                sample_count: 4,
            };
            db.insert(l(1), l(t), stats);
            if t % 3 == 0 {
                db.insert(l(t), l(t + 1), stats);
            }
        }
        let k = MotionKernel::build(&db, &config());
        assert_eq!(k.directed_pair_count(), 2 * db.pair_count());
        for from in 1..=80u32 {
            for to in 1..=82u32 {
                if from == to {
                    continue;
                }
                let got = k.pair_probability(l(from), l(to), 45.0, 3.0);
                match db.get(l(from), l(to)) {
                    None => assert_eq!(got, 1e-6, "{from}->{to}"),
                    Some(s) => {
                        let dev = signed_diff_deg(s.direction.mean(), 45.0);
                        let want = Gaussian::new(0.0, s.direction.std())
                            .unwrap()
                            .window_mass(dev, 20.0)
                            * s.offset.window_mass(3.0, 1.0);
                        assert!((got - want).abs() < 1e-6, "{from}->{to}");
                    }
                }
            }
        }
    }

    /// The arrays a table was built from before the scatter: both
    /// orientations of every pair, sorted by `(from, to)`.
    fn sorted_reference(db: &MotionDb) -> Vec<(LocationId, LocationId, PairParams)> {
        let mut directed = Vec::new();
        for (i, j, stats) in db.iter() {
            directed.push((i, j, PairParams::of(stats)));
            directed.push((j, i, PairParams::of(&stats.mirrored())));
        }
        directed.sort_unstable_by_key(|&(from, to, _)| (from, to));
        directed
    }

    /// Every run strictly ascends, the arrays equal the sorted
    /// reference, each bit summary is exactly its run's targets, and
    /// every trained pair resolves both ways to the
    /// [`PairStats::mirrored`] parameters.
    fn assert_scatter_contract(db: &MotionDb) {
        let k = PairTable::build(db);
        let reference = sorted_reference(db);
        assert_eq!(k.params.len(), reference.len());
        for (at, (from, to, p)) in reference.iter().enumerate() {
            assert_eq!(k.targets[at], *to);
            assert_eq!(k.params[at], *p);
            let run = k.offsets[from.index()] as usize..k.offsets[from.index() + 1] as usize;
            assert!(run.contains(&at), "{from}->{to} outside its run");
        }
        let runs = k.target_bits.len();
        assert_eq!(k.offsets.len(), if runs == 0 { 0 } else { runs + 1 });
        for r in 0..runs {
            let run = &k.targets[k.offsets[r] as usize..k.offsets[r + 1] as usize];
            assert!(run.windows(2).all(|w| w[0] < w[1]), "run {r} not ascending");
            let bits = run.iter().fold(0u64, |b, t| b | 1 << (t.index() % 64));
            assert_eq!(k.target_bits[r], bits);
        }
        for (i, j, stats) in db.iter() {
            let forward = k.params_of(i, j).expect("trained forward");
            let reverse = k.params_of(j, i).expect("trained reverse");
            assert_eq!(*forward, PairParams::of(stats));
            assert_eq!(*reverse, PairParams::of(&stats.mirrored()));
        }
    }

    fn pair_stats(seed: u32) -> PairStats {
        PairStats {
            direction: Gaussian::new(f64::from(seed * 37 % 360), 2.0 + f64::from(seed % 5))
                .unwrap(),
            offset: Gaussian::new(0.5 + f64::from(seed % 7), 0.1 + f64::from(seed % 3)).unwrap(),
            sample_count: u64::from(seed),
        }
    }

    #[test]
    fn scatter_equals_the_sorted_arrays() {
        assert_scatter_contract(&db());
        // Pairs scattered over 90 locations, several per origin in
        // both roles, inserted in no particular order.
        let mut db = MotionDb::new(90);
        for s in 0..300u32 {
            let h = s.wrapping_mul(2_654_435_761);
            let (a, b) = (1 + h % 90, 1 + (h >> 12) % 90);
            if a != b {
                db.insert(l(a), l(b), pair_stats(s));
            }
        }
        assert!(db.pair_count() > 150, "{} pairs", db.pair_count());
        assert_scatter_contract(&db);
    }

    #[test]
    fn a_pair_on_the_largest_id_gets_the_last_run() {
        for (a, b) in [(1, 70), (69, 70), (70, 2)] {
            let mut db = MotionDb::new(70);
            db.insert(l(a), l(b), pair_stats(a + b));
            assert_scatter_contract(&db);
            let k = PairTable::build(&db);
            assert_eq!(k.target_bits.len(), 70);
            assert_eq!(k.offsets[70], 2);
        }
    }

    #[test]
    fn an_empty_database_allocates_nothing() {
        let k = PairTable::build(&MotionDb::new(2048));
        assert_eq!(k.offsets.capacity(), 0);
        assert_eq!(k.target_bits.capacity(), 0);
        assert_eq!(k.targets.capacity(), 0);
        assert_eq!(k.params.capacity(), 0);
        assert_scatter_contract(&MotionDb::new(2048));
    }

    const TABLE_IDS: u32 = 40;

    proptest! {
        /// A random database goes through batches of edits that replace
        /// the statistics of trained pairs (some pairs twice in one
        /// batch), and after each batch the table, with every changed
        /// pair overwritten in place, must equal a build over the
        /// edited database, every array bit for bit.
        #[test]
        fn an_overwritten_table_equals_a_build(
            seeds in prop::collection::vec((1..=TABLE_IDS, 1..=TABLE_IDS, 0u32..1000), 1..80),
            batches in prop::collection::vec(
                prop::collection::vec((0usize..1000, 0u32..1000), 1..10),
                1..10,
            ),
        ) {
            let mut db = MotionDb::new(TABLE_IDS as usize);
            for &(a, b, seed) in &seeds {
                if a != b {
                    db.insert(l(a), l(b), pair_stats(seed));
                }
            }
            prop_assume!(!db.is_empty());
            let keys: Vec<_> = db.iter().map(|(i, j, _)| (i, j)).collect();
            let mut table = PairTable::build(&db);
            for batch in &batches {
                let mut changed = std::collections::BTreeSet::new();
                for &(pick, seed) in batch {
                    let (i, j) = keys[pick % keys.len()];
                    db.insert(i, j, pair_stats(seed));
                    changed.insert((i, j));
                }
                for &(i, j) in &changed {
                    table.overwrite(i, j, &db.get(i, j).expect("trained"));
                }
                prop_assert_eq!(&table, &PairTable::build(&db));
            }
        }
    }

    #[test]
    fn overwriting_a_pair_with_its_own_statistics_changes_nothing() {
        let db = db();
        let mut table = PairTable::build(&db);
        table.overwrite(l(1), l(2), &db.get(l(1), l(2)).unwrap());
        assert_eq!(table, PairTable::build(&db));
    }

    #[test]
    #[should_panic(expected = "not a canonical pair")]
    fn an_overwrite_names_a_canonical_pair() {
        let db = db();
        PairTable::build(&db).overwrite(l(2), l(1), &db.get(l(1), l(2)).unwrap());
    }

    #[test]
    #[should_panic(expected = "not trained")]
    fn an_overwrite_names_a_trained_pair() {
        let db = db();
        PairTable::build(&db).overwrite(l(2), l(3), &db.get(l(1), l(2)).unwrap());
    }

    #[test]
    fn kernels_of_any_config_share_one_table() {
        let db = db();
        let table = Arc::new(PairTable::build(&db));
        let wide = KernelConfig {
            alpha_deg: 30.0,
            missing_pair_prob: 1e-4,
            ..config()
        };
        for config in [config(), wide] {
            let shared = MotionKernel::with_pairs(Arc::clone(&table), &config);
            assert!(Arc::ptr_eq(&shared.pairs, &table));
            let built = MotionKernel::build(&db, &config);
            for from in 1..=4 {
                for to in 1..=4 {
                    for (d, o) in [(90.0, 5.0), (270.0, 4.5), (10.0, 0.2)] {
                        assert_eq!(
                            shared.pair_probability(l(from), l(to), d, o).to_bits(),
                            built.pair_probability(l(from), l(to), d, o).to_bits(),
                            "{from}->{to} at ({d}, {o})"
                        );
                    }
                }
            }
        }
        assert_eq!(
            Arc::strong_count(&table),
            1,
            "the kernels dropped their clones"
        );
    }

    #[test]
    fn stay_model_prefers_small_offsets() {
        let k = MotionKernel::build(&db(), &config());
        let near = k.pair_probability(l(1), l(1), 10.0, 0.1);
        let far = k.pair_probability(l(1), l(1), 10.0, 4.0);
        assert!(near > 100.0 * far);
    }

    #[test]
    fn matches_direct_gaussian_masses() {
        let k = MotionKernel::build(&db(), &config());
        let stats = db().get(l(1), l(2)).unwrap();
        for (d, o) in [(90.0, 5.0), (95.0, 4.8), (80.0, 5.5), (270.0, 5.0)] {
            let dev = moloc_stats::circular::signed_diff_deg(stats.direction.mean(), d);
            let exact = Gaussian::new(0.0, stats.direction.std())
                .unwrap()
                .window_mass(dev, 20.0)
                * stats.offset.window_mass(o, 1.0);
            let fast = k.pair_probability(l(1), l(2), d, o);
            assert!(
                (fast - exact).abs() < 1e-6,
                "({d}, {o}): fast {fast} vs exact {exact}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "alpha_deg")]
    fn rejects_bad_config() {
        let bad = KernelConfig {
            alpha_deg: 0.0,
            ..config()
        };
        MotionKernel::build(&db(), &bad);
    }

    #[test]
    #[should_panic(expected = "beta_m")]
    fn a_shared_table_does_not_bypass_the_config_checks() {
        let bad = KernelConfig {
            beta_m: f64::NAN,
            ..config()
        };
        MotionKernel::with_pairs(Arc::new(PairTable::build(&db())), &bad);
    }
}
