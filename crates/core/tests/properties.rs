//! Property-based tests for the MoLoc algorithm's probabilistic
//! invariants: Eq. 5 on the precomputed motion kernel (against the
//! exact-erf oracle), Eq. 4/6/7 on the `BatchLocalizer` step.

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::error::DegradationFlags;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_geometry::LocationId;
use moloc_motion::matrix::{MotionDb, PairStats};
use moloc_stats::gaussian::Gaussian;
use moloc_verify::oracle;
use proptest::prelude::*;

const N: usize = 10;

fn weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01..10.0f64, 2..N)
}

/// A normalized posterior over locations `0..ws.len()`.
fn posterior_of(ws: &[f64]) -> Vec<(LocationId, f64)> {
    let total: f64 = ws.iter().sum();
    ws.iter()
        .enumerate()
        .map(|(i, &w)| (LocationId::from_index(i), w / total))
        .collect()
}

/// A one-AP fingerprint database in which a 0 dBm query sits at
/// dissimilarity `ms[i]` from location `i`.
fn one_ap_db(ms: &[f64]) -> FingerprintDb {
    FingerprintDb::from_fingerprints(
        ms.iter()
            .enumerate()
            .map(|(i, &m)| (LocationId::from_index(i), Fingerprint::new(vec![-m])))
            .collect(),
    )
    .expect("valid one-AP database")
}

/// One engine step over [`one_ap_db`] retrieving every location: the
/// first observation (Eq. 4 only) when `previous` is empty, otherwise
/// Eq. 7 from `previous` under the measured motion `(d, o)`.
fn engine_step(
    db: &MotionDb,
    ms: &[f64],
    previous: &[(LocationId, f64)],
    d: f64,
    o: f64,
) -> Vec<(LocationId, f64)> {
    let config = MoLocConfig {
        k: ms.len(),
        ..MoLocConfig::paper()
    };
    let mut engine = BatchLocalizer::new(&one_ap_db(ms), db, config);
    engine.restore_posterior(previous, DegradationFlags::empty());
    let motion = MotionMeasurement {
        direction_deg: d,
        offset_m: o,
    };
    engine
        .observe_slice(&[0.0], Some(motion))
        .expect("valid query and motion");
    engine.posterior().to_vec()
}

/// Eq. 4 inverse-dissimilarity weights `1/m` for candidate weights `w`.
fn dissimilarities(ws: &[f64]) -> Vec<f64> {
    ws.iter().map(|w| 1.0 / w).collect()
}

fn arbitrary_db() -> impl Strategy<Value = MotionDb> {
    prop::collection::vec(
        (
            0usize..N,
            0usize..N,
            0.0..360.0f64,
            1.0..20.0f64,
            0.5..15.0f64,
            0.05..1.0f64,
        ),
        0..12,
    )
    .prop_map(|entries| {
        let mut db = MotionDb::new(N);
        for (a, b, dir, dir_std, off, off_std) in entries {
            if a == b {
                continue;
            }
            db.insert(
                LocationId::from_index(a),
                LocationId::from_index(b),
                PairStats {
                    direction: Gaussian::new(dir, dir_std).unwrap(),
                    offset: Gaussian::new(off, off_std).unwrap(),
                    sample_count: 4,
                },
            );
        }
        db
    })
}

proptest! {
    #[test]
    fn pair_probability_is_in_unit_interval(
        db in arbitrary_db(),
        from in 0usize..N,
        to in 0usize..N,
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        let kernel = build_kernel(&db, &MoLocConfig::paper());
        let p = kernel.pair_probability(
            LocationId::from_index(from),
            LocationId::from_index(to),
            d,
            o,
        );
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "p = {p}");
    }

    #[test]
    fn pair_probability_symmetric_under_joint_reversal(
        db in arbitrary_db(),
        from in 0usize..N,
        to in 0usize..N,
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        // Walking i → j with direction d has the same probability as
        // walking j → i with direction d + 180 (mutual reachability).
        prop_assume!(from != to);
        let kernel = build_kernel(&db, &MoLocConfig::paper());
        let (i, j) = (LocationId::from_index(from), LocationId::from_index(to));
        let fwd = kernel.pair_probability(i, j, d, o);
        let rev = kernel.pair_probability(j, i, d + 180.0, o);
        prop_assert!((fwd - rev).abs() < 1e-9, "fwd {fwd} vs rev {rev}");
    }

    #[test]
    fn kernel_matches_exact_probability_within_tolerance(
        db in arbitrary_db(),
        from in 0usize..N,
        to in 0usize..N,
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        // The precomputed kernel's documented accuracy contract: every
        // pair probability agrees with the exact-erf Eq. 5 oracle to
        // within 1e-6 (see DESIGN.md, "Performance architecture").
        let config = MoLocConfig::paper();
        let kernel = build_kernel(&db, &config);
        let (i, j) = (LocationId::from_index(from), LocationId::from_index(to));
        let exact = if i == j {
            oracle::stationary_probability(
                o,
                config.alpha_deg,
                config.beta_m,
                config.stationary_offset_std_m,
            )
        } else {
            match db.get(i, j) {
                Some(stats) => oracle::pair_probability(
                    stats.direction.mean(),
                    stats.direction.std(),
                    stats.offset.mean(),
                    stats.offset.std(),
                    d,
                    o,
                    config.alpha_deg,
                    config.beta_m,
                ),
                None => config.missing_pair_prob,
            }
        };
        let fast = kernel.pair_probability(i, j, d, o);
        prop_assert!(
            (exact - fast).abs() <= 1e-6,
            "({from}→{to}, {d}°, {o} m): exact {exact} vs kernel {fast}"
        );
    }

    #[test]
    fn eq4_normalizes_and_orders_by_dissimilarity(
        ms in prop::collection::vec(0.001..100.0f64, 1..10),
    ) {
        // First observation: the posterior is Eq. 4 alone.
        let posterior = engine_step(&MotionDb::new(N), &ms, &[], 0.0, 0.0);
        let total: f64 = posterior.iter().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        let p = |i: usize| {
            posterior
                .iter()
                .find(|(loc, _)| *loc == LocationId::from_index(i))
                .map_or(0.0, |&(_, p)| p)
        };
        // Smaller dissimilarity ⇒ larger probability.
        for i in 0..ms.len() {
            for j in 0..ms.len() {
                if ms[i] < ms[j] {
                    prop_assert!(p(i) >= p(j) - 1e-12);
                }
            }
        }
    }

    #[test]
    fn eq4_is_scale_invariant(
        ws in prop::collection::vec(0.01..10.0f64, 1..8),
        scale in 0.1..100.0f64,
    ) {
        let ms = dissimilarities(&ws);
        let scaled: Vec<f64> = ms.iter().map(|m| m * scale).collect();
        let db = MotionDb::new(N);
        let a = engine_step(&db, &ms, &[], 0.0, 0.0);
        let b = engine_step(&db, &scaled, &[], 0.0, 0.0);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.0, y.0);
            prop_assert!((x.1 - y.1).abs() < 1e-9);
        }
    }

    #[test]
    fn eq6_is_the_prior_weighted_kernel_sum(
        db in arbitrary_db(),
        prev_ws in weights(),
        cur_ws in weights(),
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        // The engine's motion evidence for each candidate j is
        // Σᵢ P(x = i)·P_{i,j}(d, o) over the retained posterior with the
        // kernel's Eq. 5 values: the oracle chain fed the same values
        // reproduces the fused posterior bit for bit.
        let config = MoLocConfig::paper();
        let ms = dissimilarities(&cur_ws);
        let previous = posterior_of(&prev_ws);
        let posterior = engine_step(&db, &ms, &previous, d, o);
        let kernel = build_kernel(&db, &config);
        let rows: Vec<(LocationId, [f64; 1])> = ms
            .iter()
            .enumerate()
            .map(|(i, &m)| (LocationId::from_index(i), [-m]))
            .collect();
        let neighbors = oracle::k_nearest(
            rows.iter().map(|(id, r)| (*id, r.as_slice())),
            &[0.0],
            ms.len(),
        );
        let current = oracle::candidate_probabilities(&neighbors).expect("finite dissimilarities");
        let expected = oracle::fuse_posterior(
            &current,
            &previous,
            |from, to| kernel.pair_probability(from, to, d, o),
            config.degenerate_total_floor,
        );
        let bits = |p: &[(LocationId, f64)]| {
            p.iter().map(|&(l, v)| (l, v.to_bits())).collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(&posterior), bits(&expected));
    }

    #[test]
    fn posterior_is_normalized_over_current_candidates(
        db in arbitrary_db(),
        prev_ws in weights(),
        cur_ws in weights(),
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        let posterior =
            engine_step(&db, &dissimilarities(&cur_ws), &posterior_of(&prev_ws), d, o);
        let total: f64 = posterior.iter().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        prop_assert_eq!(posterior.len(), cur_ws.len());
        // The posterior's support is the current candidate set.
        for (loc, _) in &posterior {
            prop_assert!(loc.index() < cur_ws.len(), "{loc} is not a current candidate");
        }
    }

    #[test]
    fn posterior_survives_random_rlm_deletions(
        db in arbitrary_db(),
        deletions in prop::collection::vec((0usize..N, 0usize..N), 0..20),
        prev_ws in weights(),
        cur_ws in weights(),
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        // Corrupted motion databases — arbitrary cells deleted after
        // training — must still yield a finite, normalized posterior
        // (untrained pairs fall back to the missing-pair probability,
        // and a fully-degenerate total falls back to the
        // fingerprint-only prior).
        let mut db = db;
        for (a, b) in deletions {
            db.remove(LocationId::from_index(a), LocationId::from_index(b));
        }
        let posterior =
            engine_step(&db, &dissimilarities(&cur_ws), &posterior_of(&prev_ws), d, o);
        let total: f64 = posterior.iter().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        for (loc, p) in posterior {
            prop_assert!(p.is_finite() && p >= 0.0, "p({loc}) = {p}");
        }
    }

    #[test]
    fn zero_fingerprint_mass_stays_zero(
        db in arbitrary_db(),
        prev_ws in weights(),
        d in 0.0..360.0f64,
        o in 0.0..30.0f64,
    ) {
        // A candidate with zero fingerprint probability can never gain
        // posterior mass (Eq. 7 multiplies the evidences): an exact
        // match (dissimilarity 0) takes all Eq. 4 mass.
        let posterior = engine_step(&db, &[0.0, 5.0], &posterior_of(&prev_ws), d, o);
        let second = posterior
            .iter()
            .find(|(loc, _)| *loc == LocationId::from_index(1))
            .map(|&(_, p)| p);
        prop_assert_eq!(second, Some(0.0));
    }
}
