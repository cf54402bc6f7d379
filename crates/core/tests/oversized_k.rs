//! An oversized `k` must cost no more than the index can fill.
//!
//! `MoLocConfig` derives `Deserialize` and its validation only requires
//! `k ≥ 1`, so a config can arrive with `k = usize::MAX / 2`. No more
//! than `index.len()` candidates exist, so every engine constructor
//! must size its buffers by the index, not by `k`, and the engine must
//! then behave exactly like one configured with `k = index.len()`:
//! same estimates and bit-identical posteriors, per step and per trace.

use moloc_core::batch::{BatchLocalizer, BatchScratch};
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use moloc_motion::matrix::{MotionDb, PairStats};
use moloc_stats::gaussian::Gaussian;
use std::sync::Arc;

const APS: u32 = 6;

fn fingerprint_at(location: u32) -> Vec<f64> {
    (0..APS)
        .map(|a| -40.0 - f64::from((location * 7 + a * 13) % 23) - 0.25 * f64::from(location))
        .collect()
}

/// Six locations 4 m apart going east, six APs each.
fn world() -> (FingerprintDb, MotionDb) {
    let fdb = FingerprintDb::from_fingerprints(
        (0..6)
            .map(|i| (LocationId::new(i + 1), Fingerprint::new(fingerprint_at(i))))
            .collect(),
    )
    .unwrap();
    let mut mdb = MotionDb::new(6);
    for i in 1..6 {
        mdb.insert(
            LocationId::new(i),
            LocationId::new(i + 1),
            PairStats {
                direction: Gaussian::new(90.0, 5.0).unwrap(),
                offset: Gaussian::new(4.0, 0.3).unwrap(),
                sample_count: 10,
            },
        );
    }
    (fdb, mdb)
}

/// Eight noisy scans walking east along the corridor; scan 5 misses
/// one AP, so the masked path runs too.
fn scans() -> Vec<Vec<f64>> {
    (0..8u32)
        .map(|s| {
            let mut scan = fingerprint_at(s.min(5));
            for (a, v) in scan.iter_mut().enumerate() {
                *v += 0.3 * f64::from((s + a as u32) % 3);
            }
            if s == 5 {
                scan[2] = f64::NAN;
            }
            scan
        })
        .collect()
}

fn motions() -> Vec<Option<MotionMeasurement>> {
    (0..8)
        .map(|s| {
            (s > 0).then_some(MotionMeasurement {
                direction_deg: 90.0,
                offset_m: if s < 6 { 4.0 } else { 0.0 },
            })
        })
        .collect()
}

fn bits(posterior: &[(LocationId, f64)]) -> Vec<(LocationId, u64)> {
    posterior.iter().map(|&(l, p)| (l, p.to_bits())).collect()
}

/// Per-step estimates and posteriors through `observe_slice`, then the
/// whole trace through `localize_scans_into` and its final posterior.
type Outcome = (
    Vec<(LocationId, Vec<(LocationId, u64)>)>,
    Vec<LocationId>,
    Vec<(LocationId, u64)>,
);

fn run(engine: &mut BatchLocalizer<'_>) -> Outcome {
    let scans = scans();
    let motions = motions();
    let stepwise = scans
        .iter()
        .zip(&motions)
        .map(|(scan, motion)| {
            let estimate = engine.observe_slice(scan, *motion).unwrap();
            (estimate, bits(engine.posterior()))
        })
        .collect();
    let views: Vec<&[f64]> = scans.iter().map(Vec::as_slice).collect();
    let mut trace = Vec::new();
    engine
        .localize_scans_into(&views, &motions, &mut trace)
        .unwrap();
    (stepwise, trace, bits(engine.posterior()))
}

#[test]
fn oversized_k_matches_k_equal_to_the_index_size() {
    let (fdb, mdb) = world();
    let index = FingerprintIndex::build(&fdb);
    let exact = MoLocConfig {
        k: index.len(),
        ..MoLocConfig::paper()
    };
    let huge = MoLocConfig {
        k: usize::MAX / 2,
        ..MoLocConfig::paper()
    };
    let kernel = build_kernel(&mdb, &exact);
    let expected = run(&mut BatchLocalizer::new_with_index(&index, &kernel, exact));
    assert_eq!(expected.0.len(), 8);

    let shared = run(&mut BatchLocalizer::new_with_index(&index, &kernel, huge));
    assert_eq!(shared, expected, "new_with_index");

    let counted = run(&mut BatchLocalizer::new_counted(
        Arc::new(index.clone()),
        Arc::new(build_kernel(&mdb, &huge)),
        huge,
    ));
    assert_eq!(counted, expected, "new_counted");

    let recycled = run(&mut BatchLocalizer::with_scratch(
        &index,
        &kernel,
        huge,
        BatchScratch::for_k(huge.k),
    ));
    assert_eq!(recycled, expected, "with_scratch");
}
