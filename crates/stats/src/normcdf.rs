//! A tabulated standard normal CDF for hot-path window-mass lookups.
//!
//! [`fast_std_normal_cdf`] linearly interpolates a lazily built table
//! of [`crate::erf::std_normal_cdf`] values on a uniform z-grid. The
//! motion kernel evaluates millions of Gaussian window masses per
//! evaluation run; replacing the `exp`-based rational `erfc`
//! approximation with two table reads makes that a handful of
//! arithmetic ops.
//!
//! # Accuracy
//!
//! With grid step `h = 1/512` over `[-8.5, 8.5]`, linear interpolation
//! of Φ has error at most `h²/8 · max|Φ''| = h²/8 · φ(1) ≈ 1.2e-7`
//! relative to the table's own node values. A window mass is a
//! difference of two CDF reads, so its deviation from the exact
//! `Gaussian::window_mass` is below `2.4e-7`; a product of a direction
//! and an offset mass (both ≤ 1) deviates by less than `5e-7` — inside
//! the `1e-6` tolerance the motion kernel documents. Outside the table
//! range the CDF saturates to 0/1, where `std_normal_cdf` itself is
//! within `1e-12` of the saturated value.
//!
//! # Four lanes at once
//!
//! [`fast_std_normal_cdf_avx2`] evaluates four z-values in one AVX2
//! register, each lane bit for bit [`fast_std_normal_cdf`]: the same
//! operations in the same order (`(z + 8.5) · 512`, truncation,
//! `t[i] + (t[i+1] − t[i]) · frac`, no FMA) on a z clamped into
//! `[−8.5, 8.5]`, which changes no in-range value, so saturated lanes
//! index inside the table before they are blended to the scalar's
//! exact 0.0 or 1.0, and a NaN lane is blended back to its input.

use crate::erf::std_normal_cdf;
use std::sync::OnceLock;

/// Half-width of the tabulated z-range.
const Z_MAX: f64 = 8.5;
/// Grid points per unit z.
const PER_UNIT: usize = 512;
/// Total grid points (17 units of z, inclusive endpoints).
const LEN: usize = 17 * PER_UNIT + 1;

/// The grid values `Φ(−8.5 + i/512)` for `i < LEN`, then one pad entry
/// equal to the last. A z just below 8.5 can round `pos` up to exactly
/// `LEN − 1` (`frac` 0), and the four-lane path clamps a saturated lane
/// to 8.5 itself; either way `t[i + 1]` is the pad, inside the table.
fn table() -> &'static [f64; LEN + 1] {
    static TABLE: OnceLock<Box<[f64; LEN + 1]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = vec![0.0f64; LEN + 1].into_boxed_slice();
        for (i, slot) in t.iter_mut().take(LEN).enumerate() {
            let z = -Z_MAX + i as f64 / PER_UNIT as f64;
            *slot = std_normal_cdf(z);
        }
        t[LEN] = t[LEN - 1];
        let boxed: Box<[f64; LEN + 1]> = t.try_into().expect("length is LEN + 1");
        boxed
    })
}

/// The standard normal CDF `Φ(z)` via table interpolation.
///
/// Agrees with [`std_normal_cdf`] to within `1.3e-7` everywhere (see
/// the module docs for the bound) and is several times faster.
///
/// # Examples
///
/// ```
/// let p = moloc_stats::normcdf::fast_std_normal_cdf(0.0);
/// assert!((p - 0.5).abs() < 1e-6);
/// ```
#[inline]
pub fn fast_std_normal_cdf(z: f64) -> f64 {
    if z <= -Z_MAX {
        return 0.0;
    }
    if z >= Z_MAX {
        return 1.0;
    }
    let t = table();
    let pos = (z + Z_MAX) * PER_UNIT as f64;
    let i = pos as usize; // 0 <= pos <= LEN - 1; the pad entry covers i + 1
    let frac = pos - i as f64;
    t[i] + (t[i + 1] - t[i]) * frac
}

/// [`fast_std_normal_cdf`] of each lane of `z`, bit for bit; a NaN lane
/// returns its input (the scalar returns the same quiet NaN).
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub unsafe fn fast_std_normal_cdf_avx2(
    z: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let t = table();
    let lo = _mm256_set1_pd(-Z_MAX);
    let hi = _mm256_set1_pd(Z_MAX);
    // `max_pd` returns its second operand when the first is NaN, so a
    // NaN lane indexes the first entry; it is blended back below. The
    // clamp is at exactly ±8.5 and so moves no lane the scalar would
    // interpolate.
    let zc = _mm256_min_pd(_mm256_max_pd(z, lo), hi);
    let pos = _mm256_mul_pd(_mm256_add_pd(zc, hi), _mm256_set1_pd(PER_UNIT as f64));
    let i = _mm256_cvttpd_epi32(pos);
    let frac = _mm256_sub_pd(pos, _mm256_cvtepi32_pd(i));
    // SAFETY: every lane's `i` is in `0..=LEN - 1` (the clamp), and
    // the table holds `LEN + 1` entries, so both gathers stay inside it.
    let (ti, ti1) = unsafe {
        (
            _mm256_i32gather_pd::<8>(t.as_ptr(), i),
            _mm256_i32gather_pd::<8>(t.as_ptr().add(1), i),
        )
    };
    let v = _mm256_add_pd(ti, _mm256_mul_pd(_mm256_sub_pd(ti1, ti), frac));
    let v = _mm256_blendv_pd(v, _mm256_setzero_pd(), _mm256_cmp_pd::<_CMP_LE_OQ>(z, lo));
    let v = _mm256_blendv_pd(v, _mm256_set1_pd(1.0), _mm256_cmp_pd::<_CMP_GE_OQ>(z, hi));
    _mm256_blendv_pd(v, z, _mm256_cmp_pd::<_CMP_UNORD_Q>(z, z))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_exact_cdf_within_documented_bound() {
        for i in -40_000..=40_000 {
            let z = i as f64 * 2.5e-4; // dense sweep of [-10, 10]
            let fast = fast_std_normal_cdf(z);
            let exact = std_normal_cdf(z);
            assert!(
                (fast - exact).abs() < 1.3e-7,
                "z = {z}: fast {fast} vs exact {exact}"
            );
        }
    }

    #[test]
    fn saturates_outside_table() {
        assert_eq!(fast_std_normal_cdf(-12.0), 0.0);
        assert_eq!(fast_std_normal_cdf(12.0), 1.0);
        assert_eq!(fast_std_normal_cdf(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_std_normal_cdf(f64::INFINITY), 1.0);
    }

    /// The z-values where the table path turns: each saturation edge,
    /// its neighbouring floats, points within the `1e-9` a too-tight
    /// clamp would move, the infinities and NaN.
    fn edge_values() -> Vec<f64> {
        let mut z = vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -0.0];
        for edge in [Z_MAX, -Z_MAX] {
            let (mut below, mut above) = (edge, edge);
            for _ in 0..4 {
                below = below.next_down();
                above = above.next_up();
                z.extend([below, above]);
            }
            z.extend([edge, edge - 1e-10, edge + 1e-10, edge - 5e-10, edge + 5e-10]);
        }
        z
    }

    #[test]
    fn the_largest_z_below_the_range_reads_the_pad_entry() {
        // (z + 8.5) · 512 rounds to exactly LEN − 1 here: without the
        // pad entry `t[i + 1]` was out of bounds.
        let z = Z_MAX.next_down();
        assert_eq!((z + Z_MAX) * PER_UNIT as f64, (LEN - 1) as f64);
        assert_eq!(fast_std_normal_cdf(z).to_bits(), table()[LEN - 1].to_bits());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn four_lanes_equal_the_scalar_bit_for_bit() {
        use std::arch::x86_64::{_mm256_loadu_pd, _mm256_storeu_pd};
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut values = edge_values();
        values.extend((-40_000..=40_000).map(|i| i as f64 * 2.3e-4));
        while !values.len().is_multiple_of(4) {
            values.push(Z_MAX);
        }
        for chunk in values.chunks_exact(4) {
            let mut lanes = [0.0f64; 4];
            // SAFETY: AVX2 detected above; both pointers address four f64s.
            unsafe {
                let v = fast_std_normal_cdf_avx2(_mm256_loadu_pd(chunk.as_ptr()));
                _mm256_storeu_pd(lanes.as_mut_ptr(), v);
            }
            for (&z, &lane) in chunk.iter().zip(&lanes) {
                let scalar = fast_std_normal_cdf(z);
                assert_eq!(
                    lane.to_bits(),
                    scalar.to_bits(),
                    "z = {z:e}: {lane:e} vs {scalar:e}"
                );
            }
        }
    }

    #[test]
    fn the_edges_saturate_or_interpolate_like_the_exact_cdf() {
        for z in edge_values() {
            let fast = fast_std_normal_cdf(z);
            if z.is_nan() {
                assert!(fast.is_nan());
                continue;
            }
            assert!((fast - std_normal_cdf(z)).abs() < 1.3e-7, "z = {z:e}");
            if z <= -Z_MAX {
                assert_eq!(fast.to_bits(), 0.0f64.to_bits(), "z = {z:e}");
            } else if z >= Z_MAX {
                assert_eq!(fast, 1.0, "z = {z:e}");
            }
        }
        // Just above −8.5 the table still interpolates, and the reads
        // tell neighbouring z apart: a lane clamped at −8.5 + 1e-9
        // would read differently.
        let a = fast_std_normal_cdf(-Z_MAX + 1e-10);
        let b = fast_std_normal_cdf(-Z_MAX + 1e-9);
        assert!(a > 0.0 && a != b, "{a:e} {b:e}");
    }

    #[test]
    fn is_monotone_on_a_dense_grid() {
        let mut prev = 0.0;
        for i in -9_000..=9_000 {
            let v = fast_std_normal_cdf(i as f64 * 1e-3);
            assert!(v >= prev, "not monotone at z = {}", i as f64 * 1e-3);
            prev = v;
        }
    }
}
