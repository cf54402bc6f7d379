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
//! the next database by writing those pairs' parameters in place, at
//! the slots it remembers per pair (`PairTable::write`), rather than
//! laying out every pair again.
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
/// their bits are. `repr(C)` fixes the field order, so the four-lane
/// path of [`MotionKernel::transition_block`] loads a pair as one
/// vector.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
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
        Self::build_placing(db, |_| {})
    }

    /// [`PairTable::build`], calling `placed` with the slots of each
    /// canonical pair of `db` as it places them, in the order of
    /// [`MotionDb::iter`]. They hold for every table of a database with
    /// the same pairs, so [`PairTable::write`] can go straight to them.
    pub(crate) fn build_placing(db: &MotionDb, mut placed: impl FnMut(TableSlots)) -> Self {
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
            let at = cursor[from.index()];
            targets[at as usize] = to;
            params[at as usize] = p;
            cursor[from.index()] += 1;
            target_bits[from.index()] |= 1 << (to.index() % 64);
            at
        };
        for (i, j, stats) in db.iter() {
            placed(TableSlots {
                forward: place(i, j, PairParams::of(stats)),
                reverse: place(j, i, PairParams::of(&stats.mirrored())),
            });
        }
        Self {
            location_count: db.location_count(),
            offsets,
            target_bits,
            targets,
            params,
        }
    }

    /// Writes the parameters of `stats` at the slots of a trained
    /// canonical pair ([`PairTable::build_placing`]), its reverse
    /// orientation by [`PairStats::mirrored`]: the arithmetic of
    /// [`PairTable::build`]. A database that differs from this table's
    /// only in the statistics of pairs both train has the same runs, so
    /// after one write per changed pair the table's bits equal a build
    /// over that database.
    pub(crate) fn write(&mut self, at: TableSlots, stats: &PairStats) {
        self.params[at.forward as usize] = PairParams::of(stats);
        self.params[at.reverse as usize] = PairParams::of(&stats.mirrored());
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

    /// The run of `from`: its trained targets, ascending, and their
    /// parameters. Empty past the last run.
    #[inline]
    fn run(&self, from: LocationId) -> (&[LocationId], &[PairParams]) {
        let fi = from.index();
        if fi + 1 >= self.offsets.len() {
            return (&[], &[]);
        }
        let (start, end) = (self.offsets[fi] as usize, self.offsets[fi + 1] as usize);
        (&self.targets[start..end], &self.params[start..end])
    }
}

/// Where one trained canonical pair sits in a [`PairTable`]: the
/// slots of its forward and its reverse orientation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TableSlots {
    pub(crate) forward: u32,
    pub(crate) reverse: u32,
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
        self.trained_probability(p, direction_deg, offset_m)
    }

    /// Eq. 5 for a trained pair with parameters `p`: the scalar
    /// arithmetic behind both [`MotionKernel::pair_probability`] and
    /// [`MotionKernel::transition_block`].
    #[inline(always)]
    fn trained_probability(&self, p: &PairParams, direction_deg: f64, offset_m: f64) -> f64 {
        // Direction windows are evaluated on the wrapped deviation from
        // the pair mean so the 0°/360° seam never splits a window —
        // identical to the exact path.
        let dev = signed_diff_deg(p.dir_mean, direction_deg);
        let d_mass = Self::window_mass(0.0, p.dir_inv_std, dev, self.alpha_deg);
        let o_mass = Self::window_mass(p.off_mean, p.off_inv_std, offset_m, self.beta_m);
        d_mass * o_mass
    }

    /// One localization step's whole Eq. 5 block:
    /// `out[r * to.len() + c] = P(from[r] → to[c])` under the measured
    /// direction and offset, each entry bit for bit
    /// [`MotionKernel::pair_probability`].
    ///
    /// A diagonal entry gets the stay mass, computed once, and every
    /// other entry the untrained floor, unless `from[r]`'s run trains
    /// the pair: the run (about three targets) is walked against `to`
    /// instead of testing all `|from| · |to|` pairs. On AVX2 hosts a
    /// trained pair's four window-mass CDF reads,
    /// `[lo_d, hi_d, lo_o, hi_o]`, are one vector: the lanes compute
    /// `((c − w/2) − mean) · inv` in the scalar's order with no FMA,
    /// and [`fast_std_normal_cdf_avx2`] reads each lane as the scalar
    /// table read does. The direction deviation skips `rem_euclid`
    /// when the raw difference lies in (−360°, 360°), where the two
    /// agree; any other pair takes the scalar path.
    ///
    /// [`fast_std_normal_cdf_avx2`]: moloc_stats::normcdf::fast_std_normal_cdf_avx2
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != from.len() * to.len()`.
    pub fn transition_block(
        &self,
        from: &[LocationId],
        to: &[LocationId],
        direction_deg: f64,
        offset_m: f64,
        out: &mut [f64],
    ) {
        assert_eq!(
            out.len(),
            from.len() * to.len(),
            "a transition block holds |from| x |to| entries"
        );
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support verified at runtime.
            return unsafe { self.transition_block_avx2(from, to, direction_deg, offset_m, out) };
        }
        self.fill_block::<false>(from, to, direction_deg, offset_m, out);
    }

    /// The AVX2 build of [`MotionKernel::fill_block`], whose trained
    /// pairs take the four-lane CDF.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn transition_block_avx2(
        &self,
        from: &[LocationId],
        to: &[LocationId],
        direction_deg: f64,
        offset_m: f64,
        out: &mut [f64],
    ) {
        self.fill_block::<true>(from, to, direction_deg, offset_m, out);
    }

    /// The block fill behind [`MotionKernel::transition_block`]; `LANES`
    /// evaluates trained pairs with [`MotionKernel::trained_lanes`] and
    /// is only instantiated inside an AVX2 function.
    #[inline(always)]
    fn fill_block<const LANES: bool>(
        &self,
        from: &[LocationId],
        to: &[LocationId],
        direction_deg: f64,
        offset_m: f64,
        out: &mut [f64],
    ) {
        let stay = self.stay_probability(offset_m);
        out.fill(self.missing_pair_prob);
        let columns = CandidateColumns::of(to);
        let cols = to.len();
        for (&origin, row) in from.iter().zip(out.chunks_exact_mut(cols.max(1))) {
            columns.write(row, to, origin, stay);
            let (targets, params) = self.pairs.run(origin);
            for (&target, p) in targets.iter().zip(params) {
                if !columns.may_hold(target) {
                    continue;
                }
                let value = if LANES {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `LANES` builds run inside
                    // `transition_block_avx2`, on an AVX2 host.
                    unsafe {
                        self.trained_lanes(p, direction_deg, offset_m)
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    unreachable!("the lane build is x86-64 only")
                } else {
                    self.trained_probability(p, direction_deg, offset_m)
                };
                columns.write(row, to, target, value);
            }
        }
    }

    /// [`MotionKernel::trained_probability`] with its four CDF reads as
    /// one AVX2 vector, bit for bit (see
    /// [`MotionKernel::transition_block`]).
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn trained_lanes(&self, p: &PairParams, direction_deg: f64, offset_m: f64) -> f64 {
        use moloc_stats::normcdf::fast_std_normal_cdf_avx2;
        use std::arch::x86_64::*;
        let Some(dev) = wrapped_deviation(p.dir_mean, direction_deg) else {
            return self.trained_probability(p, direction_deg, offset_m);
        };
        // SAFETY: `PairParams` is `repr(C)`, four f64 in lane order.
        let params = unsafe { _mm256_loadu_pd((p as *const PairParams).cast()) };
        // [dir_inv, dir_inv, off_inv, off_inv] and [0, 0, off_mean,
        // off_mean]: the direction window is centred on the deviation,
        // so its mean is the scalar's literal 0.0.
        let inv = _mm256_permute4x64_pd::<0b11_11_01_01>(params);
        let mean = _mm256_blend_pd::<0b0011>(
            _mm256_permute4x64_pd::<0b10_10_00_00>(params),
            _mm256_setzero_pd(),
        );
        let center = _mm256_set_pd(offset_m, offset_m, dev, dev);
        // `c + (−w/2)` is `c − w/2` exactly.
        let (half_a, half_b) = (self.alpha_deg / 2.0, self.beta_m / 2.0);
        let half = _mm256_set_pd(half_b, -half_b, half_a, -half_a);
        let z = _mm256_mul_pd(_mm256_sub_pd(_mm256_add_pd(center, half), mean), inv);
        let mut cdf = [0.0f64; 4];
        // SAFETY: AVX2 is enabled here; `cdf` holds four f64.
        unsafe { _mm256_storeu_pd(cdf.as_mut_ptr(), fast_std_normal_cdf_avx2(z)) };
        let d_mass = (cdf[1] - cdf[0]).max(0.0);
        let o_mass = (cdf[3] - cdf[2]).max(0.0);
        d_mass * o_mass
    }
}

/// Where each id of a block's `to` list sits, hashed by `id % 64`: a
/// bit summary that rejects most run targets with one test, and per
/// bit the one column holding it, so a write finds its column without
/// scanning `to`. A bit two candidates share (a repeated id, or ids 64
/// apart) falls back to the scan.
struct CandidateColumns {
    bits: u64,
    /// `column + 1` of the bit's only candidate, 0 for none, or
    /// [`CandidateColumns::SHARED`].
    column: [u8; 64],
}

impl CandidateColumns {
    const SHARED: u8 = u8::MAX;

    #[inline(always)]
    fn of(to: &[LocationId]) -> Self {
        let mut columns = Self {
            bits: 0,
            column: [0; 64],
        };
        for (c, t) in to.iter().enumerate() {
            let bit = t.index() % 64;
            columns.bits |= 1 << bit;
            let slot = &mut columns.column[bit];
            *slot = if *slot == 0 && c + 1 < usize::from(Self::SHARED) {
                c as u8 + 1
            } else {
                Self::SHARED
            };
        }
        columns
    }

    /// Whether `id` can be in `to`: false means it is not.
    #[inline(always)]
    fn may_hold(&self, id: LocationId) -> bool {
        self.bits & 1 << (id.index() % 64) != 0
    }

    /// Writes `value` into every slot of `row` whose candidate is `id`.
    #[inline(always)]
    fn write(&self, row: &mut [f64], to: &[LocationId], id: LocationId, value: f64) {
        match self.column[id.index() % 64] {
            0 => {}
            Self::SHARED => {
                for (slot, &candidate) in row.iter_mut().zip(to) {
                    if candidate == id {
                        *slot = value;
                    }
                }
            }
            c => {
                let c = usize::from(c - 1);
                if to[c] == id {
                    row[c] = value;
                }
            }
        }
    }
}

/// [`signed_diff_deg`]`(mean, direction)` without its `rem_euclid`,
/// `None` unless the raw difference lies in (−360°, 360°). There
/// `d % 360` is `d` exactly, so `rem_euclid` is `d`, or `d + 360` for
/// `d < 0`, and the wrap that follows is the same arithmetic.
#[inline(always)]
fn wrapped_deviation(mean: f64, direction: f64) -> Option<f64> {
    let d = direction - mean;
    if !(d > -360.0 && d < 360.0) {
        return None;
    }
    let r = if d < 0.0 { d + 360.0 } else { d };
    let r = if r >= 360.0 { 0.0 } else { r };
    Some(if r > 180.0 { r - 360.0 } else { r })
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
        /// pair written in place at the slots the first table had for
        /// it, must equal a build over the edited database, every array
        /// bit for bit.
        #[test]
        fn a_table_written_at_its_slots_equals_a_build(
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
            let mut slots = Vec::new();
            let mut table = PairTable::build_placing(&db, |at| slots.push(at));
            let keys: Vec<_> = db.iter().zip(slots).map(|((i, j, _), at)| (i, j, at)).collect();
            for batch in &batches {
                let mut changed = std::collections::BTreeMap::new();
                for &(pick, seed) in batch {
                    let (i, j, at) = keys[pick % keys.len()];
                    db.insert(i, j, pair_stats(seed));
                    changed.insert((i, j), at);
                }
                for (&(i, j), &at) in &changed {
                    table.write(at, &db.get(i, j).expect("trained"));
                }
                prop_assert_eq!(&table, &PairTable::build(&db));
            }
        }
    }

    #[test]
    fn writing_a_pair_with_its_own_statistics_changes_nothing() {
        let db = db();
        let mut slots = Vec::new();
        let mut table = PairTable::build_placing(&db, |at| slots.push(at));
        assert_eq!(
            slots,
            [TableSlots {
                forward: 0,
                reverse: 1
            }]
        );
        table.write(slots[0], &db.get(l(1), l(2)).unwrap());
        assert_eq!(table, PairTable::build(&db));
    }

    #[test]
    fn each_pair_is_placed_where_lookups_find_it() {
        // Pairs over 90 locations, several per origin in both roles.
        let mut db = MotionDb::new(90);
        for s in 0..300u32 {
            let h = s.wrapping_mul(2_654_435_761);
            let (a, b) = (1 + h % 90, 1 + (h >> 12) % 90);
            if a != b {
                db.insert(l(a), l(b), pair_stats(s));
            }
        }
        let mut slots = Vec::new();
        let table = PairTable::build_placing(&db, |at| slots.push(at));
        assert_eq!(table, PairTable::build(&db));
        assert_eq!(slots.len(), db.pair_count());
        for ((i, j, _), at) in db.iter().zip(slots) {
            assert_eq!(table.position(i, j), Some(at.forward as usize), "{i}->{j}");
            assert_eq!(table.position(j, i), Some(at.reverse as usize), "{j}->{i}");
        }
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

    /// A measurement component drawn from `kind`: mostly `v`, else one
    /// of the values where Eq. 5's arithmetic turns — wraps past ±180°
    /// and ±360°, far outside the range, the infinities and NaN.
    fn measurement(kind: u32, v: f64) -> f64 {
        match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 1e6 + v,
            4 => -360.0 - v.abs(),
            5 => 360.0,
            6 => -360.0f64.next_up(),
            7 => 180.0 + v / 1e3,
            _ => v,
        }
    }

    fn assert_block_is_pair_probability(
        kernel: &MotionKernel,
        from: &[LocationId],
        to: &[LocationId],
        d: f64,
        o: f64,
    ) {
        let mut out = vec![f64::NAN; from.len() * to.len()];
        kernel.transition_block(from, to, d, o, &mut out);
        for (r, &a) in from.iter().enumerate() {
            for (c, &b) in to.iter().enumerate() {
                let want = kernel.pair_probability(a, b, d, o);
                let got = out[r * to.len() + c];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{a}->{b} at ({d}, {o}): {got:e} vs {want:e}"
                );
            }
        }
    }

    const BLOCK_IDS: u32 = 14;

    proptest! {
        /// Every entry of a transition block is `pair_probability`'s
        /// bits: random tables (some ids past the table), candidate
        /// lists with repeats and measurements that wrap, leave
        /// (−360°, 360°), saturate the CDF table or are not finite.
        #[test]
        fn a_transition_block_is_pair_probability_bit_for_bit(
            pairs in prop::collection::vec(
                (1..=BLOCK_IDS - 2, 1..=BLOCK_IDS - 2, 0u32..1000, 0.02..30.0f64),
                0..40,
            ),
            from in prop::collection::vec(1..=BLOCK_IDS, 0..10),
            to in prop::collection::vec(1..=BLOCK_IDS, 0..10),
            direction in (0u32..14, -720.0..720.0f64),
            offset in (0u32..14, -5.0..60.0f64),
            widths in (0.5..90.0f64, 0.05..8.0f64),
        ) {
            let mut db = MotionDb::new((BLOCK_IDS - 2) as usize);
            for &(a, b, seed, std) in &pairs {
                if a != b {
                    let mut stats = pair_stats(seed);
                    stats.direction = Gaussian::new(stats.direction.mean(), std).unwrap();
                    stats.offset = Gaussian::new(stats.offset.mean(), std / 10.0).unwrap();
                    db.insert(l(a), l(b), stats);
                }
            }
            let config = KernelConfig {
                alpha_deg: widths.0,
                beta_m: widths.1,
                ..config()
            };
            let kernel = MotionKernel::build(&db, &config);
            let from: Vec<_> = from.into_iter().map(l).collect();
            let to: Vec<_> = to.into_iter().map(l).collect();
            let (d, o) = (measurement(direction.0, direction.1), measurement(offset.0, offset.1));
            assert_block_is_pair_probability(&kernel, &from, &to, d, o);
        }
    }

    /// Both evaluations of one trained pair, called directly: the
    /// four-lane one when the host has AVX2, else the scalar twice.
    fn both_evaluations(kernel: &MotionKernel, p: &PairParams, d: f64, o: f64) -> (f64, f64) {
        let scalar = kernel.trained_probability(p, d, o);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 detected above.
            return (unsafe { kernel.trained_lanes(p, d, o) }, scalar);
        }
        (scalar, scalar)
    }

    #[test]
    fn the_lanes_equal_the_scalar_where_z_meets_the_table_edges() {
        // Unit windows and unit scales: a deviation of ±8 or ±9 puts a
        // window edge at z = ±8.5 exactly; the sweep also takes the
        // floats around it.
        let kernel = MotionKernel::build(
            &db(),
            &KernelConfig {
                alpha_deg: 1.0,
                beta_m: 1.0,
                ..config()
            },
        );
        let p = PairParams {
            dir_mean: 0.0,
            dir_inv_std: 1.0,
            off_mean: 0.0,
            off_inv_std: 1.0,
        };
        let mut values = vec![0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for edge in [8.0, 9.0, -8.0, -9.0] {
            let (mut below, mut above) = (edge, edge);
            for _ in 0..3 {
                below = f64::next_down(below);
                above = f64::next_up(above);
                values.extend([below, above]);
            }
            values.extend([edge, edge - 1e-10, edge + 1e-10]);
        }
        for &d in &values {
            for &o in &values {
                let (lanes, scalar) = both_evaluations(&kernel, &p, d, o);
                assert_eq!(lanes.to_bits(), scalar.to_bits(), "({d:e}, {o:e})");
            }
        }
    }

    #[test]
    fn the_wrapped_deviation_is_signed_diff_deg_inside_its_range() {
        let means = [
            0.0,
            1e-12,
            90.0,
            179.999,
            180.0,
            359.0,
            359.999_999_999_999_9,
        ];
        let directions = [
            0.0,
            -0.0,
            1e-300,
            -1e-13,
            180.0,
            180.0f64.next_up(),
            -180.0,
            359.9,
            -359.9,
            540.0,
            -540.0,
            720.0,
            f64::NAN,
        ];
        for &mean in &means {
            for &direction in &directions {
                let want = signed_diff_deg(mean, direction);
                match wrapped_deviation(mean, direction) {
                    Some(dev) => assert_eq!(dev.to_bits(), want.to_bits(), "{mean} {direction}"),
                    None => assert!(!(direction - mean).abs().lt(&360.0), "{mean} {direction}"),
                }
            }
        }
    }

    #[test]
    fn the_diagonal_gets_the_stay_mass_and_the_rest_the_floor() {
        let kernel = MotionKernel::build(&db(), &config());
        let ids = [l(1), l(2), l(3), l(2)];
        let mut out = [0.0; 16];
        kernel.transition_block(&ids, &ids, 90.0, 5.0, &mut out);
        let stay = kernel.stay_probability(5.0);
        assert_eq!(out[0], stay);
        assert_eq!(
            out[4 + 3],
            stay,
            "row 1 holds a repeated id on its diagonal"
        );
        assert_eq!(out[2], 1e-6);
        assert!(out[1] > 0.8, "1 -> 2 is trained east");
        assert_eq!(out[3], out[1]);
        assert_block_is_pair_probability(&kernel, &ids, &ids, 90.0, 5.0);
        assert_block_is_pair_probability(&kernel, &[], &ids, 90.0, 5.0);
        assert_block_is_pair_probability(&kernel, &ids, &[], 90.0, 5.0);
    }

    #[test]
    fn candidates_that_share_a_hash_bit_or_pass_255_columns_still_resolve() {
        // Ids 64 apart share a bit of the per-block hash, and a list
        // longer than 254 runs out of column slots: both take the scan.
        let mut db = MotionDb::new(400);
        for a in (1..=330u32).step_by(7) {
            db.insert(l(a), l(a + 64), pair_stats(a));
            db.insert(l(a), l(a + 1), pair_stats(a + 1));
        }
        let kernel = MotionKernel::build(&db, &config());
        let from: Vec<_> = (1..=330u32).step_by(7).map(l).collect();
        let to: Vec<_> = (1..=400u32).map(l).rev().collect();
        let shared: Vec<_> = (1..=330u32)
            .step_by(7)
            .flat_map(|a| [l(a + 64), l(a + 1), l(a + 128)])
            .collect();
        // Pair 1 -> 65's own mean, so trained entries are not all 0.
        assert!(kernel.pair_probability(l(1), l(65), 37.0, 1.5) > 0.1);
        for (d, o) in [(37.0, 1.5), (74.0, 2.5), (333.0, 0.7)] {
            assert_block_is_pair_probability(&kernel, &from, &to, d, o);
            assert_block_is_pair_probability(&kernel, &from, &shared, d, o);
        }
    }

    #[test]
    #[should_panic(expected = "|from| x |to|")]
    fn a_block_of_the_wrong_size_panics() {
        let kernel = MotionKernel::build(&db(), &config());
        kernel.transition_block(&[l(1)], &[l(2)], 90.0, 5.0, &mut [0.0; 2]);
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
