//! End-to-end wiring of the `StaleSnapshot` fault injector into the
//! live-update serving loop: the injector's per-step `hold` decision
//! drives [`LiveLocalizer::observe_held`], pinning the reader to its
//! cached epoch while the publisher races ahead. Correctness must be
//! preserved by design — every published epoch is a valid database —
//! so a held trace still localizes; only its served epoch lags.

use moloc_core::config::MoLocConfig;
use moloc_core::tracker::MotionMeasurement;
use moloc_faults::stream::StaleSnapshot;
use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
use moloc_live::{LiveLocalizer, SnapshotPublisher, UpdateLog};
use moloc_motion::builder::MapReference;
use moloc_motion::filter::SanitationConfig;
use moloc_motion::rlm::Rlm;

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

/// 3×2 grid spaced 2 m in an open hall; ids 1..=6.
fn map() -> MapReference {
    let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).expect("valid grid");
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).expect("valid aabb"));
    let graph = WalkGraph::from_grid(&grid, &plan);
    MapReference::new(&grid, &graph)
}

fn seeded_log() -> UpdateLog {
    let mut log = UpdateLog::new(3, map(), SanitationConfig::paper()).expect("valid sanitation");
    for i in 1..=6u32 {
        let base = -30.0 - 8.0 * f64::from(i);
        log.observe_survey_sample(l(i), &[base, base - 12.0, base - 25.0])
            .expect("3-AP sample");
    }
    for k in 0..5 {
        log.observe_rlm(Rlm::new(l(1), l(2), 89.0 + f64::from(k), 2.0).expect("valid rlm"));
        log.observe_rlm(Rlm::new(l(2), l(3), 89.0 + f64::from(k), 2.0).expect("valid rlm"));
    }
    log
}

fn scan_for(log: &mut UpdateLog, id: u32) -> Vec<f64> {
    log.build_snapshot(0)
        .expect("snapshot builds")
        .fdb()
        .fingerprint(l(id))
        .expect("location surveyed")
        .values()
        .to_vec()
}

fn east() -> Option<MotionMeasurement> {
    Some(MotionMeasurement {
        direction_deg: 90.0,
        offset_m: 2.0,
    })
}

/// Walks 1→2→3 while a new epoch publishes after the first step; the
/// injector decides per step whether the reader may adopt it.
fn run_walk(injector: &StaleSnapshot, trace: u64) -> Vec<(LocationId, u64)> {
    let mut log = seeded_log();
    let publisher = SnapshotPublisher::new(log.build_snapshot(0).expect("seed builds"));
    log.mark_published();
    let mut live = LiveLocalizer::new(publisher.reader(), MoLocConfig::paper());

    let mut path = Vec::new();
    for (step, (id, motion)) in [(1u32, None), (2, east()), (3, east())]
        .into_iter()
        .enumerate()
    {
        if step == 1 {
            // Mid-trace publish between the first and second steps.
            log.observe_survey_sample(l(2), &[-46.1, -58.0, -71.2])
                .expect("3-AP sample");
            assert!(publisher.publish(&mut log).expect("publish").published);
        }
        let hold = injector.hold(trace, step as u64);
        let scan = scan_for(&mut log, id);
        path.push(live.observe_held(&scan, motion, hold).expect("step scores"));
    }
    path
}

#[test]
fn zero_intensity_adopts_every_publish_like_an_uninjected_run() {
    let off = StaleSnapshot { rate: 0.0, seed: 5 };
    let path = run_walk(&off, 0);
    assert_eq!(path, vec![(l(1), 0), (l(2), 1), (l(3), 1)]);
}

#[test]
fn full_intensity_pins_the_trace_to_its_starting_epoch() {
    let on = StaleSnapshot { rate: 1.0, seed: 5 };
    let path = run_walk(&on, 0);
    // Every step held: the publish lands but this reader never adopts
    // it — and localization still succeeds on the stale (valid) epoch.
    assert_eq!(path, vec![(l(1), 0), (l(2), 0), (l(3), 0)]);
}

#[test]
fn partial_intensity_lags_adoption_deterministically() {
    let injector = StaleSnapshot { rate: 0.6, seed: 5 };
    for trace in 0..20u64 {
        let path = run_walk(&injector, trace);
        assert_eq!(path, run_walk(&injector, trace), "replayable");
        let epochs: Vec<u64> = path.iter().map(|&(_, e)| e).collect();
        // Served epochs never regress and never outrun the publisher.
        assert!(epochs.windows(2).all(|w| w[0] <= w[1]), "monotone");
        assert!(epochs.iter().all(|&e| e <= 1));
        assert_eq!(epochs[0], 0, "publish happens after step 0");
        // The estimate track itself is fault-independent: both epochs
        // are valid databases for this walk.
        let locations: Vec<LocationId> = path.iter().map(|&(loc, _)| loc).collect();
        assert_eq!(locations, vec![l(1), l(2), l(3)]);
    }
}
