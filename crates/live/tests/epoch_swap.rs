//! Concurrent-reader epoch-swap test (ISSUE 9 acceptance): a
//! background thread publishes new epochs while a [`LiveLocalizer`]
//! localizes a trace mid-stream. The contract under test:
//!
//! * every step runs on exactly one epoch (the one reported back),
//! * the epoch sequence a reader observes is monotone non-decreasing
//!   and never skips past the publisher (lag is always honest),
//! * the reader eventually adopts the final epoch, and
//! * the final published snapshot is bit-identical to a from-scratch
//!   rebuild over everything the publisher folded in.

use moloc_core::config::MoLocConfig;
use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
use moloc_live::{LiveLocalizer, SnapshotPublisher, UpdateLog};
use moloc_motion::builder::MapReference;
use moloc_motion::filter::SanitationConfig;
use moloc_motion::rlm::Rlm;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const AP_COUNT: usize = 3;
const LOCATIONS: u32 = 6;
/// Enough publishes that the log writes epochs into buffers it retired
/// while the reader races it.
const EPOCHS: u64 = 50;

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

fn map() -> MapReference {
    let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
    let graph = WalkGraph::from_grid(&grid, &plan);
    MapReference::new(&grid, &graph)
}

fn seeded_log() -> UpdateLog {
    let mut log = UpdateLog::new(AP_COUNT, map(), SanitationConfig::paper()).unwrap();
    for i in 1..=LOCATIONS {
        let base = -30.0 - 8.0 * f64::from(i);
        log.observe_survey_sample(l(i), &[base, base - 12.0, base - 25.0])
            .unwrap();
    }
    for k in 0..5 {
        log.observe_rlm(Rlm::new(l(1), l(2), 89.0 + f64::from(k), 2.0).unwrap());
    }
    log
}

/// The deterministic delta folded before publish number `n` (1-based).
/// Returned as data so the verification rebuild can replay it exactly.
fn epoch_delta(n: u64) -> (LocationId, [f64; AP_COUNT]) {
    let id = (n % u64::from(LOCATIONS)) as u32 + 1;
    let base = -31.0 - 8.0 * f64::from(id) - 0.25 * n as f64;
    (l(id), [base, base - 12.0, base - 25.0])
}

#[test]
fn concurrent_reader_swaps_epochs_only_at_step_boundaries() {
    let mut log = seeded_log();
    let initial = log.build_snapshot(0).unwrap();
    let publisher = SnapshotPublisher::new(initial.clone());
    log.mark_published();
    let scan: Vec<f64> = initial.fdb().fingerprint(l(1)).unwrap().values().to_vec();

    let mut live = LiveLocalizer::new(publisher.reader(), MoLocConfig::paper());

    // Publisher thread: EPOCHS publishes, one deterministic survey
    // delta each, paced so the reader localizes across the swaps.
    let writer = {
        let publisher = Arc::clone(&publisher);
        thread::spawn(move || {
            for n in 1..=EPOCHS {
                let (id, values) = epoch_delta(n);
                log.observe_survey_sample(id, &values).unwrap();
                let report = publisher.publish(&mut log).unwrap();
                assert!(report.published);
                assert_eq!(report.epoch, n);
                thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Reader loop: localize until the final epoch is adopted. The scan
    // is a location-1 fingerprint of the *initial* database; only the
    // epoch pin is under test, not the estimate trajectory.
    let mut observed_epochs = Vec::new();
    let mut last_epoch = 0u64;
    for step in 0..200_000u64 {
        let (location, epoch) = live.observe(&scan, None).expect("step succeeds");
        assert!(location.get() >= 1 && location.get() <= LOCATIONS);
        assert!(
            epoch >= last_epoch,
            "step {step}: epoch went backwards ({last_epoch} -> {epoch})"
        );
        assert_eq!(
            epoch,
            live.epoch(),
            "step {step}: the reported epoch must be the one the step ran on"
        );
        assert!(
            epoch <= publisher.current_epoch(),
            "step {step}: reader ahead of the publisher"
        );
        if epoch != last_epoch {
            observed_epochs.push(epoch);
            last_epoch = epoch;
        }
        if epoch == EPOCHS {
            break;
        }
        if step % 64 == 63 {
            thread::sleep(Duration::from_micros(200));
        }
    }
    writer.join().expect("publisher thread");

    assert_eq!(last_epoch, EPOCHS, "reader never reached the final epoch");
    assert!(
        observed_epochs.windows(2).all(|w| w[0] < w[1]),
        "adopted epochs must be strictly increasing: {observed_epochs:?}"
    );

    // The concurrently-published end state is bit-identical to a
    // from-scratch rebuild over seed + every epoch delta.
    let mut rebuilt = seeded_log();
    for n in 1..=EPOCHS {
        let (id, values) = epoch_delta(n);
        rebuilt.observe_survey_sample(id, &values).unwrap();
    }
    assert_eq!(
        publisher.snapshot().digest(),
        rebuilt.build_snapshot(0).unwrap().digest(),
        "concurrent publishes diverged from the sequential rebuild"
    );
}

#[test]
fn mid_trace_swap_preserves_tracking_continuity() {
    // Sequential variant pinning down the step-boundary rule without
    // scheduler nondeterminism: observe, publish, observe. The second
    // observation must run wholly on the new epoch and still see the
    // posterior from the first.
    let mut log = seeded_log();
    let initial = log.build_snapshot(0).unwrap();
    let publisher = SnapshotPublisher::new(initial.clone());
    log.mark_published();
    let mut live = LiveLocalizer::new(publisher.reader(), MoLocConfig::paper());

    let scan1: Vec<f64> = initial.fdb().fingerprint(l(1)).unwrap().values().to_vec();
    let (loc, epoch) = live.observe(&scan1, None).unwrap();
    assert_eq!((loc, epoch), (l(1), 0));

    let (id, values) = epoch_delta(1);
    log.observe_survey_sample(id, &values).unwrap();
    publisher.publish(&mut log).unwrap();

    let scan2: Vec<f64> = publisher
        .snapshot()
        .fdb()
        .fingerprint(l(2))
        .unwrap()
        .values()
        .to_vec();
    let east = Some(moloc_core::tracker::MotionMeasurement {
        direction_deg: 90.0,
        offset_m: 2.0,
    });
    let (loc, epoch) = live.observe(&scan2, east).unwrap();
    assert_eq!(epoch, 1, "new epoch adopted at the boundary");
    assert_eq!(loc, l(2), "motion-fused tracking survived the swap");
    assert!(live.last_flags().is_empty(), "clean full-fusion step");
}
