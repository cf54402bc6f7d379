//! Motion matching (paper Eq. 5 and Eq. 6).
//!
//! Given a measured direction `d` and offset `o`, the probability that a
//! user walked from location `i` to `j` is the product of discretized
//! Gaussian masses from the motion database:
//!
//! ```text
//! P_{i,j}(d, o) = D_{i,j}(d) · O_{i,j}(o)
//! ```
//!
//! and over a candidate *set* `S` of possible starting locations
//! (Eq. 6):
//!
//! ```text
//! P_{S,j}(d, o) = Σ_{i ∈ S} P(x = i) · P_{i,j}(d, o)
//! ```
//!
//! Eq. 5 is served by a precomputed [`MotionKernel`] (built here from a
//! [`MoLocConfig`]); Eq. 6 is the inner sum of the Eq. 7 step in
//! [`crate::batch::BatchLocalizer`]. The naive reference for both is
//! `moloc_verify::oracle` (`pair_probability`, `stationary_probability`,
//! `fuse_posterior`).

use crate::config::MoLocConfig;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::matrix::MotionDb;

/// Precomputes the [`MotionKernel`] for `db` under `config`: the
/// lookup-table form of Eq. 5 every localizer reads.
///
/// # Panics
///
/// Panics if `config` is invalid (see [`MoLocConfig::validate`]).
pub fn build_kernel(db: &MotionDb, config: &MoLocConfig) -> MotionKernel {
    config.validate();
    MotionKernel::build(db, &config.kernel_config())
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_geometry::LocationId;
    use moloc_motion::matrix::PairStats;
    use moloc_stats::gaussian::Gaussian;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn pair(direction: f64) -> PairStats {
        PairStats {
            direction: Gaussian::new(direction, 5.0).unwrap(),
            offset: Gaussian::new(5.0, 0.3).unwrap(),
            sample_count: 10,
        }
    }

    #[test]
    fn wrong_offset_scores_low() {
        let mut db = MotionDb::new(4);
        db.insert(l(1), l(2), pair(90.0));
        let kernel = build_kernel(&db, &MoLocConfig::default());
        let right = kernel.pair_probability(l(1), l(2), 90.0, 5.0);
        let wrong = kernel.pair_probability(l(1), l(2), 90.0, 9.0);
        assert!(wrong < right * 1e-3, "wrong {wrong} vs right {right}");
    }

    #[test]
    fn direction_window_handles_wraparound() {
        let mut db = MotionDb::new(4);
        db.insert(l(1), l(2), pair(0.5)); // nearly north
        let kernel = build_kernel(&db, &MoLocConfig::default());
        // A measurement at 359.5° is only 1° away across the wrap.
        let p = kernel.pair_probability(l(1), l(2), 359.5, 5.0);
        assert!(p > 0.8, "p = {p}");
    }
}
