//! Oracle-vs-optimised regression seeds (ISSUE 10, satellite 3).
//!
//! `moloc-audit` sweeps broad seeded input distributions; these tests
//! pin the *adversarial corners* of each equivalence contract at fixed
//! inputs so a regression fails here first, with a readable diff,
//! before the audit gate reports a seed number:
//!
//! * exact dissimilarity ties (duplicate fingerprints) across every
//!   k-NN execution strategy — the ascending-id tie contract;
//! * masked queries, including the all-NaN blind scan;
//! * Eq. 4's exact-match branch with *multiple* zero-dissimilarity
//!   candidates splitting the mass, through the `BatchLocalizer` step;
//! * the step's Eq. 7 fusion against the oracle when the motion
//!   database is empty (every moving pair at the floor prior);
//! * checkpoint frame byte-identity with the independent oracle
//!   framer;
//! * `motion.sanitation` at three pinned seeds, its snapshots after
//!   each quarter of a stream at two more, and its planted
//!   strict-offset comparison.

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::error::DegradationFlags;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_eval::audit::sanitation_suite;
use moloc_eval::OfficeHall;
use moloc_fingerprint::block::{BlockNeighbors, BlockScratch, QueryBlock};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_fingerprint::knn::Neighbor;
use moloc_geometry::LocationId;
use moloc_motion::matrix::MotionDb;
use moloc_verify::oracle;

const N_APS: usize = 6;

fn l(id: u32) -> LocationId {
    LocationId::new(id)
}

/// Six locations; rows 2, 4 and 5 are byte-identical duplicates, so a
/// query near them produces exact dissimilarity ties that only the
/// ascending-id contract can order.
fn tied_db() -> FingerprintDb {
    let twin = vec![-50.0, -61.0, -47.5, -72.0, -55.0, -66.0];
    FingerprintDb::from_fingerprints(vec![
        (l(1), Fingerprint::new(vec![-40.0, -55.0, -62.0, -70.0, -48.0, -58.0])),
        (l(2), Fingerprint::new(twin.clone())),
        (l(3), Fingerprint::new(vec![-80.0, -75.0, -68.0, -59.0, -63.0, -71.0])),
        (l(4), Fingerprint::new(twin.clone())),
        (l(5), Fingerprint::new(twin)),
        (l(6), Fingerprint::new(vec![-45.0, -52.0, -66.0, -77.0, -51.0, -60.0])),
    ])
    .expect("valid db")
}

/// [`tied_db`]'s six rows, with the twin planted twice more (at ids 40
/// and 63) in a survey of 64 rows: wide enough that the index keeps the
/// f32 mirror and blocks take it, and with twins in three of its
/// 16-row panels.
fn wide_tied_db() -> FingerprintDb {
    let twin = tied_db().fingerprint(l(2)).expect("the twin").clone();
    let mut fps: Vec<(LocationId, Fingerprint)> =
        tied_db().iter().map(|(id, fp)| (id, fp.clone())).collect();
    for i in 7..=64u32 {
        let fp = if i == 40 || i == 63 {
            twin.clone()
        } else {
            Fingerprint::new(
                (0..N_APS as u32)
                    .map(|a| -40.0 - f64::from((i * 7 + a * 13) % 23))
                    .collect(),
            )
        };
        fps.push((l(i), fp));
    }
    FingerprintDb::from_fingerprints(fps).expect("valid db")
}

fn rows(db: &FingerprintDb) -> Vec<(LocationId, Vec<f64>)> {
    db.iter().map(|(id, fp)| (id, fp.values().to_vec())).collect()
}

fn pairs(neighbors: &[Neighbor]) -> Vec<(LocationId, f64)> {
    neighbors
        .iter()
        .map(|n| (n.location, n.dissimilarity))
        .collect()
}

#[test]
fn tied_rows_resolve_by_ascending_id_on_every_knn_path() {
    // Query sitting on the twin fingerprint: its copies tie at
    // dissimilarity 0 and must come back in id order, from the six-row
    // survey (blocks loop over the per-query scan) and from the 64-row
    // one (blocks take the f32 mirror prefilter, whose exact rescore
    // must keep id order). Every k from 1 to one past the twins, so
    // the k-th neighbour falls among the tied rows too.
    let query = vec![-50.0, -61.0, -47.5, -72.0, -55.0, -66.0];
    for (db, twins, mirror) in [
        (tied_db(), vec![l(2), l(4), l(5)], false),
        (wide_tied_db(), vec![l(2), l(4), l(5), l(40), l(63)], true),
    ] {
        let rows = rows(&db);
        let index = FingerprintIndex::build(&db);
        // 6 APs and RSS-range values: over more than 56 rows the index
        // keeps the mirror, and blocks with k <= 16 take it.
        assert_eq!(index.has_mirror(), mirror, "{} rows", index.len());
        for k in 1..=twins.len() + 1 {
            let expected =
                oracle::k_nearest(rows.iter().map(|(id, r)| (*id, r.as_slice())), &query, k);
            let tied = k.min(twins.len());
            assert_eq!(
                expected.iter().map(|&(id, _)| id).collect::<Vec<_>>()[..tied],
                twins[..tied],
                "oracle fixture must actually tie"
            );

            let mut scratch = KnnScratch::new();
            let mut out = Vec::new();
            index.k_nearest_into(&query, k, &mut scratch, &mut out);
            assert_eq!(pairs(&out), expected, "scalar path broke the tie contract");

            let mut block = QueryBlock::new(N_APS);
            block.push(&query);
            let mut block_scratch = BlockScratch::new();
            let mut block_out = BlockNeighbors::new();
            index.k_nearest_block_into(&mut block, k, &mut block_scratch, &mut block_out);
            assert_eq!(
                pairs(block_out.query(0)),
                expected,
                "blocked path broke the tie contract at k = {k}"
            );
        }
    }
}

#[test]
fn masked_and_blind_queries_match_the_oracle() {
    let db = tied_db();
    let rows = rows(&db);
    let index = FingerprintIndex::build(&db);
    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();

    // Two unheard APs: surviving dims rescaled by 6/4.
    let masked = vec![-44.0, f64::NAN, -60.0, f64::NAN, -50.0, -59.0];
    let observed = index.k_nearest_masked_into(&masked, 3, &mut scratch, &mut out);
    let (expected, expected_observed) =
        oracle::k_nearest_masked(rows.iter().map(|(id, r)| (*id, r.as_slice())), &masked, 3);
    assert_eq!(observed, expected_observed);
    assert_eq!(observed, 4);
    assert_eq!(pairs(&out), expected);

    // Blind scan: nothing observed, every dissimilarity exactly 0,
    // ranks fall back to pure id order.
    let blind = vec![f64::NAN; N_APS];
    let observed = index.k_nearest_masked_into(&blind, 3, &mut scratch, &mut out);
    let (expected, _) =
        oracle::k_nearest_masked(rows.iter().map(|(id, r)| (*id, r.as_slice())), &blind, 3);
    assert_eq!(observed, 0);
    assert_eq!(pairs(&out), expected);
    assert_eq!(
        pairs(&out),
        vec![(l(1), 0.0), (l(2), 0.0), (l(3), 0.0)],
        "blind scan must degrade to id order at zero dissimilarity"
    );
}

fn bits(pairs: &[(LocationId, f64)]) -> Vec<(LocationId, u64)> {
    pairs.iter().map(|&(id, p)| (id, p.to_bits())).collect()
}

#[test]
fn eq4_exact_match_branch_splits_mass_across_all_twins() {
    let db = tied_db();
    let rows = rows(&db);
    let config = MoLocConfig {
        k: 4,
        ..MoLocConfig::paper()
    };
    let mut engine = BatchLocalizer::new(&db, &MotionDb::new(6), config);
    // Query *is* the twin fingerprint: three exact matches in the top-4.
    let query = vec![-50.0, -61.0, -47.5, -72.0, -55.0, -66.0];
    engine.observe_slice(&query, None).expect("valid query");
    let neighbors = oracle::k_nearest(rows.iter().map(|(id, r)| (*id, r.as_slice())), &query, 4);
    let expected = oracle::candidate_probabilities(&neighbors).expect("non-degenerate");
    let got = engine.posterior();
    assert_eq!(bits(got), bits(&expected));
    // The Eq. 4 exact-match branch: all mass split evenly across the
    // three zero-dissimilarity twins, nothing for the inexact tail.
    for &(id, p) in got {
        if [l(2), l(4), l(5)].contains(&id) {
            assert_eq!(p, 1.0 / 3.0, "{id:?} got {p}");
        } else {
            assert_eq!(p, 0.0, "{id:?} must get no mass next to exact matches");
        }
    }
    // The top pick breaks the three-way tie to the lowest id.
    assert_eq!(engine.observe_slice(&query, None), Ok(l(2)));
}

#[test]
fn eq7_fusion_matches_oracle_when_motion_is_untrained() {
    let config = MoLocConfig {
        k: 3,
        ..MoLocConfig::paper()
    };
    let motion_db = MotionDb::new(8);
    // One AP: a 0 dBm query sits at dissimilarity 1, 2.4 and 4 from
    // L2, L3 and L4, so Eq. 4 gives them 0.6, 0.25 and 0.15.
    let fdb = FingerprintDb::from_fingerprints(vec![
        (l(2), Fingerprint::new(vec![-1.0])),
        (l(3), Fingerprint::new(vec![-2.4])),
        (l(4), Fingerprint::new(vec![-4.0])),
    ])
    .expect("valid db");
    let previous = [(l(1), 0.5), (l(2), 0.3), (l(3), 0.2)];
    let (direction, offset) = (123.0, 1.7);
    let mut engine = BatchLocalizer::new(&fdb, &motion_db, config);
    engine.restore_posterior(&previous, DegradationFlags::empty());
    engine
        .observe_slice(
            &[0.0],
            Some(MotionMeasurement {
                direction_deg: direction,
                offset_m: offset,
            }),
        )
        .expect("valid step");
    assert!(engine.last_flags().is_empty(), "{}", engine.last_flags());
    let got = engine.posterior();

    let neighbors = oracle::k_nearest(
        rows(&fdb).iter().map(|(id, r)| (*id, r.as_slice())),
        &[0.0],
        3,
    );
    let current = oracle::candidate_probabilities(&neighbors).expect("non-degenerate");
    // Bit-identical to the oracle fed the kernel's Eq. 5 values...
    let kernel = build_kernel(&motion_db, &config);
    let with_kernel = oracle::fuse_posterior(
        &current,
        &previous,
        |from, to| kernel.pair_probability(from, to, direction, offset),
        config.degenerate_total_floor,
    );
    assert_eq!(bits(got), bits(&with_kernel));
    // ...and within the kernel's documented 1e-6 of the exact-erf
    // oracle (3.4e-9 measured on this fixture).
    let exact = oracle::fuse_posterior(
        &current,
        &previous,
        |from, to| {
            if from == to {
                oracle::stationary_probability(
                    offset,
                    config.alpha_deg,
                    config.beta_m,
                    config.stationary_offset_std_m,
                )
            } else {
                // Empty database: every moving pair sits at the floor.
                config.missing_pair_prob
            }
        },
        config.degenerate_total_floor,
    );
    assert_eq!(got.len(), exact.len());
    for (&(gi, gp), &(ei, ep)) in got.iter().zip(&exact) {
        assert_eq!(gi, ei);
        assert!((gp - ep).abs() <= 1e-6, "{gi:?}: {gp} vs {ep}");
    }
}

#[test]
fn checkpoint_frames_are_byte_identical_to_the_oracle_framer() {
    for payload in [
        Vec::new(),
        vec![0u8],
        vec![0xFF; 7],
        (0..=255u8).collect::<Vec<u8>>(),
    ] {
        let session = moloc_session::checkpoint::frame_record(&payload);
        let oracled = oracle::frame_record(&payload);
        assert_eq!(
            session, oracled,
            "frame divergence for {}-byte payload",
            payload.len()
        );
        let (id, parsed, consumed) =
            oracle::parse_record(&session).expect("oracle parses session frame");
        assert_eq!(id, oracle::FRAME_VERSION);
        assert_eq!(parsed, payload);
        assert_eq!(consumed, session.len());
    }
}

#[test]
fn motion_sanitation_matches_the_oracle_at_pinned_seeds() {
    let hall = OfficeHall::paper();
    for seed in [2013, 7, 12345] {
        let (cases, divs) = sanitation_suite(&hall, seed, false);
        assert!(cases > 6, "seed {seed} compared only {cases} cases");
        assert!(divs.is_empty(), "seed {seed}: {divs:#?}");
    }
}

#[test]
fn motion_sanitation_trips_on_a_strict_offset_comparison() {
    let (_, divs) = sanitation_suite(&OfficeHall::paper(), 2013, true);
    assert!(
        divs.iter().any(|d| d.case.starts_with("hostile/paper")),
        "a `<` offset comparison went unnoticed: {divs:#?}"
    );
}

#[test]
fn motion_sanitation_mid_stream_snapshots_match_the_oracle() {
    // Each run compares a `build_snapshot` after every quarter of its
    // stream, on one builder that keeps ingesting. The strict-offset
    // plant sits in the hostile stream's first quarter, so it must
    // show at every quarter: that proves each snapshot is compared,
    // and the clean runs prove they match.
    let hall = OfficeHall::paper();
    for seed in [1, 31337] {
        let (_, divs) = sanitation_suite(&hall, seed, false);
        assert!(divs.is_empty(), "seed {seed}: {divs:#?}");
        let (_, planted) = sanitation_suite(&hall, seed, true);
        for quarter in 1..=4 {
            let at = format!("seed {seed} at {quarter}/4");
            assert!(
                planted
                    .iter()
                    .any(|d| d.case.starts_with("hostile/paper") && d.case.contains(&at)),
                "no planted divergence {at}: {planted:#?}"
            );
        }
    }
}
