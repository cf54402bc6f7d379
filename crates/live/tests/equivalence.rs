//! The live-update determinism contract (ISSUE 9 acceptance):
//!
//! 1. **Incremental ≡ rebuild** — publishing N crowdsourced delta
//!    batches through an [`UpdateLog`] produces a snapshot whose
//!    content digest is *bit-identical* to a from-scratch rebuild over
//!    the merged delta sequence. Property-tested over random
//!    interleavings of survey samples and RLMs (including coarse
//!    rejects, which must still count — the build-report counters are
//!    part of the digest).
//!    Each published epoch's kernel, which wraps the pair table the
//!    motion builder patched, must also answer every pair probability
//!    with the bits of a kernel built from the rebuilt database: the
//!    digest leaves the kernel out. The log writes each new epoch into
//!    the buffers of the epoch before the last one unless a snapshot
//!    still holds them, so the test holds a random subset of the
//!    published snapshots and re-checks each one's digest and index
//!    rows after every later publish.
//! 2. **Zero-delta publish is a no-op** — no epoch bump, no digest
//!    change, `published: false`.

use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
use moloc_live::{DbSnapshot, SnapshotPublisher, UpdateLog};
use moloc_motion::builder::MapReference;
use moloc_motion::filter::SanitationConfig;
use moloc_motion::rlm::Rlm;
use proptest::prelude::*;

const AP_COUNT: usize = 2;
const LOCATIONS: u32 = 6;

/// Measurements at which published and rebuilt kernels are compared:
/// the grid's aisle bearings at its 2 m spacing, and a short step.
const PROBES: [(f64, f64); 5] = [
    (90.0, 2.0),
    (270.0, 2.1),
    (0.0, 2.0),
    (180.0, 1.8),
    (45.0, 0.3),
];

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

/// 3×2 grid spaced 2 m in an open hall; ids 1..=6.
fn map() -> MapReference {
    let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
    let graph = WalkGraph::from_grid(&grid, &plan);
    MapReference::new(&grid, &graph)
}

/// One crowdsourced contribution.
#[derive(Debug, Clone)]
enum Delta {
    Survey(LocationId, [f64; AP_COUNT]),
    Rlm(Rlm),
}

fn apply(log: &mut UpdateLog, delta: &Delta) {
    match delta {
        Delta::Survey(id, values) => log
            .observe_survey_sample(*id, values)
            .expect("ap count matches"),
        Delta::Rlm(rlm) => {
            log.observe_rlm(*rlm);
        }
    }
}

/// The site-survey seed: one sample per location, so every snapshot
/// build succeeds regardless of what the random deltas touch.
fn seed_deltas() -> Vec<Delta> {
    (1..=LOCATIONS)
        .map(|i| {
            let base = -30.0 - 8.0 * f64::from(i);
            Delta::Survey(l(i), [base, base - 13.0])
        })
        .collect()
}

/// Random survey samples and RLMs. Half the RLMs have directions and
/// offsets that span well past the coarse thresholds, so rejected RLMs
/// are generated too. The other half walk 1→2 or 2→3 (east, 2 m)
/// within 4° and 0.3 m of the map, either way round, so those pairs
/// get built and later batches revisit pairs an earlier publish fitted.
fn delta_strategy() -> impl Strategy<Value = Delta> {
    (
        (0u32..4, 1u32..=LOCATIONS, 1u32..=LOCATIONS),
        (-90.0..-30.0f64, -90.0..-30.0f64),
        (0.0..360.0f64, 0.0..8.0f64),
    )
        .prop_map(|((kind, a, b), (rss0, rss1), (dir, off))| match kind {
            0 => {
                let to = if a == b { a % LOCATIONS + 1 } else { b };
                Delta::Rlm(Rlm::new(l(a), l(to), dir, off).expect("valid rlm"))
            }
            1 => {
                let from = 1 + a % 2;
                let direction = 86.0 + dir / 45.0;
                let offset = 1.7 + 0.075 * off;
                let rlm = Rlm::new(l(from), l(from + 1), direction, offset).expect("valid rlm");
                Delta::Rlm(if b % 2 == 0 { rlm.mirror() } else { rlm })
            }
            _ => Delta::Survey(l(a), [rss0, rss1]),
        })
}

/// A snapshot's index rows as value bits, in row order.
fn rows(snapshot: &DbSnapshot) -> Vec<Vec<u64>> {
    (0..snapshot.index.len())
        .map(|p| snapshot.index.row(p).iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    #[test]
    fn incremental_publishes_are_bit_identical_to_rebuild(
        batches in prop::collection::vec(
            (prop::collection::vec(delta_strategy(), 1..10), (0u32..2).prop_map(|h| h == 0)),
            1..8,
        ),
    ) {
        // Incremental side: seed, publish epoch 0, then publish once
        // per batch.
        let mut log = UpdateLog::new(AP_COUNT, map(), SanitationConfig::paper())
            .expect("valid config");
        let mut merged = seed_deltas();
        for delta in &merged {
            apply(&mut log, delta);
        }
        let publisher = SnapshotPublisher::new(
            log.build_snapshot(0).expect("seed snapshot builds"),
        );
        log.mark_published();

        let mut held = Vec::new();
        for (n, (batch, hold)) in batches.iter().enumerate() {
            for delta in batch {
                apply(&mut log, delta);
                merged.push(delta.clone());
            }
            let report = publisher.publish(&mut log).expect("publish succeeds");
            prop_assert!(report.published);
            prop_assert_eq!(report.epoch, n as u64 + 1);
            prop_assert_eq!(report.deltas_folded, batch.len() as u64);

            // Rebuild side: a fresh log fed the merged sequence.
            let mut fresh = UpdateLog::new(AP_COUNT, map(), SanitationConfig::paper())
                .expect("valid config");
            for delta in &merged {
                apply(&mut fresh, delta);
            }
            let rebuilt = fresh.build_snapshot(0).expect("rebuild succeeds");
            prop_assert_eq!(
                publisher.snapshot().digest(),
                rebuilt.digest(),
                "epoch {} diverged from the from-scratch rebuild",
                n + 1,
            );

            let paper = MoLocConfig::paper();
            let served = publisher.snapshot().kernel(&paper);
            let oracle = build_kernel(&rebuilt.motion_db, &paper);
            for from in (1..=LOCATIONS).map(l) {
                for to in (1..=LOCATIONS).map(l) {
                    for (d, o) in PROBES {
                        prop_assert_eq!(
                            served.pair_probability(from, to, d, o).to_bits(),
                            oracle.pair_probability(from, to, d, o).to_bits(),
                            "epoch {}: {}->{} at ({}, {})",
                            n + 1,
                            from,
                            to,
                            d,
                            o,
                        );
                    }
                }
            }

            if *hold {
                let snapshot = publisher.snapshot();
                held.push((snapshot.digest(), rows(&snapshot), snapshot));
            }
            for (digest, rows_then, snapshot) in &held {
                prop_assert_eq!(snapshot.digest(), *digest, "held epoch {} changed", snapshot.epoch);
                prop_assert_eq!(rows(snapshot), rows_then.clone());
            }
        }
    }

    #[test]
    fn zero_delta_publish_is_a_digest_noop(
        batch in prop::collection::vec(delta_strategy(), 0..8),
    ) {
        let mut log = UpdateLog::new(AP_COUNT, map(), SanitationConfig::paper())
            .expect("valid config");
        for delta in seed_deltas().iter().chain(&batch) {
            apply(&mut log, delta);
        }
        let publisher = SnapshotPublisher::new(
            log.build_snapshot(0).expect("snapshot builds"),
        );
        log.mark_published();
        let digest = publisher.snapshot().digest();

        let report = publisher.publish(&mut log).expect("skip succeeds");
        prop_assert!(!report.published);
        prop_assert_eq!(report.epoch, 0);
        prop_assert_eq!(report.deltas_folded, 0);
        prop_assert_eq!(publisher.current_epoch(), 0);
        prop_assert_eq!(publisher.snapshot().digest(), digest);
    }
}
