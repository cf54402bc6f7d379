//! A precomputed lookup kernel for the motion-matching hot path.
//!
//! [`crate::matrix::MotionDb::get`] resolves a `BTreeMap` keyed by
//! canonical pairs, mirrors reversed entries on every call, and the
//! caller then builds throwaway `Gaussian`s and evaluates two
//! `erfc`-based CDFs per pair. That is fine for a handful of queries,
//! but Eq. 6 evaluates `k²` pairs per localization step and the
//! evaluation pipeline runs millions of steps.
//!
//! [`MotionKernel`] flattens the database once per `(MotionDb, config)`
//! into dense per-pair parameter tables — both orientations
//! materialized, ids resolved by direct indexing — and evaluates window
//! masses through the tabulated CDF of [`moloc_stats::normcdf`].
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

use crate::matrix::MotionDb;
use moloc_geometry::LocationId;
use moloc_stats::circular::signed_diff_deg;
use moloc_stats::normcdf::fast_std_normal_cdf;

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

/// Scaled parameters of one directed trained pair.
#[derive(Debug, Clone, Copy)]
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

/// Untrained-pair sentinel in the dense index.
const UNTRAINED: u32 = u32::MAX;

/// A flattened, precomputed view of a [`MotionDb`] for one matching
/// configuration. Build once, query millions of times.
#[derive(Debug, Clone)]
pub struct MotionKernel {
    location_count: usize,
    alpha_deg: f64,
    beta_m: f64,
    missing_pair_prob: f64,
    /// `(α/360) · 1`, the uninformative direction mass of the stay model.
    stay_direction_mass: f64,
    /// `1 / stationary_offset_std_m`.
    stay_inv_std: f64,
    /// Dense directed-pair index: `from.index() * n + to.index()` →
    /// offset into `params`, or [`UNTRAINED`].
    pair_index: Vec<u32>,
    params: Vec<PairParams>,
}

impl MotionKernel {
    /// Precomputes the kernel for `db` under `config`.
    ///
    /// Cost is `O(n² + pairs)` time and `O(n²)` memory in the location
    /// count — for the paper's 28-location hall this is a few kilobytes.
    ///
    /// # Panics
    ///
    /// Panics if `config` has non-positive `alpha_deg`, `beta_m`, or
    /// `stationary_offset_std_m`, or a negative `missing_pair_prob`
    /// (mirroring `MoLocConfig::validate`).
    pub fn build(db: &MotionDb, config: &KernelConfig) -> Self {
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
        let n = db.location_count();
        let mut pair_index = vec![UNTRAINED; n * n];
        let mut params = Vec::with_capacity(2 * db.pair_count());
        for (i, j, _) in db.iter() {
            for (from, to) in [(i, j), (j, i)] {
                let stats = db.get(from, to).expect("iterated pair exists");
                let slot = params.len() as u32;
                params.push(PairParams {
                    dir_mean: stats.direction.mean(),
                    dir_inv_std: 1.0 / stats.direction.std(),
                    off_mean: stats.offset.mean(),
                    off_inv_std: 1.0 / stats.offset.std(),
                });
                pair_index[from.index() * n + to.index()] = slot;
            }
        }
        Self {
            location_count: n,
            alpha_deg: config.alpha_deg,
            beta_m: config.beta_m,
            missing_pair_prob: config.missing_pair_prob,
            stay_direction_mass: (config.alpha_deg / 360.0).min(1.0),
            stay_inv_std: 1.0 / config.stationary_offset_std_m,
            pair_index,
            params,
        }
    }

    /// Number of reference locations the kernel covers.
    pub fn location_count(&self) -> usize {
        self.location_count
    }

    /// Number of directed trained pairs materialized.
    pub fn directed_pair_count(&self) -> usize {
        self.params.len()
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
        let (fi, ti) = (from.index(), to.index());
        if fi >= self.location_count || ti >= self.location_count {
            return self.missing_pair_prob;
        }
        let slot = self.pair_index[fi * self.location_count + ti];
        if slot == UNTRAINED {
            return self.missing_pair_prob;
        }
        let p = &self.params[slot as usize];
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
}
