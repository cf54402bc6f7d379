//! Epoch-pinned serving loop: [`LiveLocalizer`].
//!
//! Wraps a `'static` [`BatchLocalizer`] behind a [`SnapshotReader`].
//! Each localization step checks for a newer epoch **before** touching
//! the engine, adopts it if one is out (swapping in the new epoch's
//! fingerprint index and a motion kernel that wraps the epoch's shared
//! pair table — see [`DbSnapshot`](crate::snapshot::DbSnapshot)), and
//! then runs the whole step on that single snapshot. The retained
//! posterior is id-keyed, so tracking state carries across the swap —
//! a user mid-corridor keeps their motion-fused history when the
//! database underneath them is refreshed.

use crate::publisher::SnapshotReader;
use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::error::MolocError;
use moloc_core::tracker::MotionMeasurement;
use moloc_core::DegradationFlags;
use moloc_geometry::LocationId;
use std::sync::Arc;

/// A continuously-serving localizer that follows published epochs.
#[derive(Debug)]
pub struct LiveLocalizer {
    reader: SnapshotReader,
    engine: BatchLocalizer<'static>,
    config: MoLocConfig,
}

impl LiveLocalizer {
    /// Builds a localizer pinned to the reader's current snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (same contract as
    /// [`BatchLocalizer::new_counted`]).
    pub fn new(reader: SnapshotReader, config: MoLocConfig) -> Self {
        let snapshot = reader.snapshot();
        let kernel = Arc::new(snapshot.kernel(&config));
        let engine = BatchLocalizer::new_counted(Arc::clone(&snapshot.index), kernel, config);
        Self {
            reader,
            engine,
            config,
        }
    }

    /// The epoch the *next* observation would run on if no newer one
    /// is published in between.
    pub fn epoch(&self) -> u64 {
        self.reader.epoch()
    }

    /// Degradation flags of the most recent observation.
    pub fn last_flags(&self) -> DegradationFlags {
        self.engine.last_flags()
    }

    /// Forgets tracking history (the posterior), keeping the epoch pin.
    pub fn reset(&mut self) {
        self.engine.reset();
    }

    /// Processes one localization step, returning the estimate and the
    /// epoch it was computed on. A newly published snapshot is adopted
    /// here, at the step boundary, before the query runs — one step
    /// never mixes epochs.
    ///
    /// # Errors
    ///
    /// Returns [`MolocError`] for mismatched query lengths or
    /// non-finite measurements, exactly like
    /// [`BatchLocalizer::observe_slice`].
    pub fn observe(
        &mut self,
        scan: &[f64],
        motion: Option<MotionMeasurement>,
    ) -> Result<(LocationId, u64), MolocError> {
        self.observe_held(scan, motion, false)
    }

    /// [`LiveLocalizer::observe`] with an explicit stale-hold: when
    /// `hold` is true, a pending epoch swap is deferred and the step
    /// runs on the current pin (the `StaleSnapshot` fault injector's
    /// entry point — correctness-preserving by design, since every
    /// published epoch is a valid database).
    ///
    /// # Errors
    ///
    /// Same contract as [`LiveLocalizer::observe`].
    pub fn observe_held(
        &mut self,
        scan: &[f64],
        motion: Option<MotionMeasurement>,
        hold: bool,
    ) -> Result<(LocationId, u64), MolocError> {
        if self.reader.refresh_unless(hold) {
            let snapshot = self.reader.snapshot();
            let kernel = Arc::new(snapshot.kernel(&self.config));
            self.engine.adopt_counted(Arc::clone(&snapshot.index), kernel);
        }
        let location = self.engine.observe_slice(scan, motion)?;
        Ok((location, self.reader.epoch()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publisher::SnapshotPublisher;
    use crate::snapshot::DbSnapshot;
    use crate::update::UpdateLog;
    use moloc_core::matching::build_kernel;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, ReferenceGrid, Vec2, WalkGraph};
    use moloc_motion::builder::MapReference;
    use moloc_motion::filter::SanitationConfig;
    use moloc_motion::rlm::Rlm;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    /// 3×2 grid spaced 2 m in an open hall; ids 1..=6, 1→2 east.
    fn map() -> MapReference {
        let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
        let graph = WalkGraph::from_grid(&grid, &plan);
        MapReference::new(&grid, &graph)
    }

    /// Well-separated 3-AP survey over all six grid locations, plus
    /// enough clean RLMs on 1→2 and 2→3 to build motion pairs.
    fn seeded_log() -> UpdateLog {
        let mut log = UpdateLog::new(3, map(), SanitationConfig::paper()).unwrap();
        for i in 1..=6u32 {
            let base = -30.0 - 8.0 * f64::from(i);
            log.observe_survey_sample(l(i), &[base, base - 12.0, base - 25.0])
                .unwrap();
        }
        for k in 0..5 {
            log.observe_rlm(Rlm::new(l(1), l(2), 89.0 + f64::from(k), 2.0).unwrap());
            log.observe_rlm(Rlm::new(l(2), l(3), 89.0 + f64::from(k), 2.0).unwrap());
        }
        log
    }

    fn scan_for(log: &mut UpdateLog, id: u32) -> Vec<f64> {
        log.build_snapshot(0)
            .unwrap()
            .fdb()
            .fingerprint(l(id))
            .unwrap()
            .values()
            .to_vec()
    }

    fn east() -> Option<MotionMeasurement> {
        Some(MotionMeasurement {
            direction_deg: 90.0,
            offset_m: 2.0,
        })
    }

    #[test]
    fn live_matches_static_engine_when_nothing_publishes() {
        let mut log = seeded_log();
        let snapshot = log.build_snapshot(0).unwrap();
        let publisher = SnapshotPublisher::new(snapshot.clone());
        log.mark_published();
        let config = MoLocConfig::paper();
        let mut live = LiveLocalizer::new(publisher.reader(), config);
        let kernel = build_kernel(&snapshot.motion_db, &config);
        let mut reference =
            BatchLocalizer::new_with_index(&snapshot.index, &kernel, config);

        for (id, motion) in [(1u32, None), (2, east()), (3, east())] {
            let scan = scan_for(&mut log, id);
            let (got, epoch) = live.observe(&scan, motion).unwrap();
            let want = reference.observe_slice(&scan, motion).unwrap();
            assert_eq!(got, want, "step at {id}");
            assert_eq!(epoch, 0);
        }
    }

    #[test]
    fn published_epoch_is_adopted_at_the_next_step_boundary() {
        let mut log = seeded_log();
        let publisher = SnapshotPublisher::new(log.build_snapshot(0).unwrap());
        log.mark_published();
        let mut live = LiveLocalizer::new(publisher.reader(), MoLocConfig::paper());

        let scan1 = scan_for(&mut log, 1);
        let (loc, epoch) = live.observe(&scan1, None).unwrap();
        assert_eq!((loc, epoch), (l(1), 0));

        // A mid-trace publish: more survey weight on location 2.
        log.observe_survey_sample(l(2), &[-46.1, -58.0, -71.2]).unwrap();
        assert!(publisher.publish(&mut log).unwrap().published);
        assert_eq!(live.epoch(), 0, "not adopted until a step runs");

        let scan2 = scan_for(&mut log, 2);
        let (loc, epoch) = live.observe(&scan2, east()).unwrap();
        assert_eq!(epoch, 1, "adopted at the step boundary");
        assert_eq!(loc, l(2), "tracking continues across the swap");
    }

    #[test]
    fn stale_hold_defers_adoption_without_breaking_tracking() {
        let mut log = seeded_log();
        let publisher = SnapshotPublisher::new(log.build_snapshot(0).unwrap());
        log.mark_published();
        let mut live = LiveLocalizer::new(publisher.reader(), MoLocConfig::paper());

        live.observe(&scan_for(&mut log, 1), None).unwrap();
        log.observe_survey_sample(l(3), &[-54.2, -65.9, -79.1]).unwrap();
        publisher.publish(&mut log).unwrap();

        let (loc, epoch) = live
            .observe_held(&scan_for(&mut log, 2), east(), true)
            .unwrap();
        assert_eq!(epoch, 0, "held step serves the old epoch");
        assert_eq!(loc, l(2));

        let (loc, epoch) = live.observe(&scan_for(&mut log, 3), east()).unwrap();
        assert_eq!(epoch, 1, "released step adopts");
        assert_eq!(loc, l(3));
    }

    /// Bits of a posterior, for exact comparison.
    fn bits(posterior: &[(LocationId, f64)]) -> Vec<(LocationId, u64)> {
        posterior.iter().map(|&(id, p)| (id, p.to_bits())).collect()
    }

    #[test]
    fn readers_share_one_kernel_per_epoch_and_serve_what_a_rebuild_serves() {
        let mut log = seeded_log();
        let publisher = SnapshotPublisher::new(log.build_snapshot(0).unwrap());
        log.mark_published();
        let paper = MoLocConfig::paper();
        let wide = MoLocConfig {
            alpha_deg: 30.0,
            ..paper
        };
        // Two paper readers and a wide-window one: all three wrap each
        // epoch's one pair table.
        let configs = [paper, paper, wide];
        let mut readers: Vec<LiveLocalizer> = configs
            .iter()
            .map(|&c| LiveLocalizer::new(publisher.reader(), c))
            .collect();
        let first = publisher.snapshot();
        let mut references: Vec<BatchLocalizer<'static>> = configs
            .iter()
            .map(|&c| {
                let kernel = Arc::new(build_kernel(&first.motion_db, &c));
                BatchLocalizer::new_counted(Arc::clone(&first.index), kernel, c)
            })
            .collect();
        drop(first);

        // A loop around the 3×2 grid and the RLM batch each publish
        // folds in: every batch trains one more pair.
        let cycle = [1u32, 2, 3, 6, 5, 4];
        let heading = |from: u32, to: u32| map().direction_deg(l(from), l(to)).unwrap();
        let batches = [(4u32, 5u32), (5, 6), (1, 4), (3, 6)];
        let mut pairs = log.build_snapshot(0).unwrap().motion_db.pair_count();
        let mut previous: Option<Arc<DbSnapshot>> = None;
        for epoch in 0..=batches.len() as u64 {
            if epoch > 0 {
                let (a, b) = batches[epoch as usize - 1];
                for jitter in [-1.0, 0.0, 1.0] {
                    log.observe_rlm(Rlm::new(l(a), l(b), heading(a, b) + jitter, 2.0).unwrap());
                }
                assert!(publisher.publish(&mut log).unwrap().published);
            }
            let snapshot = publisher.snapshot();
            assert!(snapshot.motion_db.pair_count() > pairs || epoch == 0);
            pairs = snapshot.motion_db.pair_count();
            let steps = readers.iter_mut().zip(&mut references).zip(&configs);
            for (r, ((reader, reference), config)) in steps.enumerate() {
                if epoch > 0 {
                    // The reference adopts a kernel built from the
                    // database, independent of the shared table.
                    let kernel = Arc::new(build_kernel(&snapshot.motion_db, config));
                    reference.adopt_counted(Arc::clone(&snapshot.index), kernel);
                }
                for step in 0..4 {
                    let g = epoch as usize * 4 + step;
                    let at = cycle[(r + g) % cycle.len()];
                    let motion = (g > 0).then(|| {
                        let from = cycle[(r + g - 1) % cycle.len()];
                        MotionMeasurement {
                            direction_deg: heading(from, at),
                            offset_m: 2.0,
                        }
                    });
                    let mut scan = scan_for(&mut log, at);
                    let ap = g % scan.len();
                    scan[ap] += 0.5 * (g % 3) as f64 - 0.5;
                    let got = reader.observe(&scan, motion).unwrap();
                    let want = reference.observe_slice(&scan, motion).unwrap();
                    assert_eq!(got, (want, epoch), "reader {r} step {g}");
                    assert_eq!(
                        bits(reader.engine.posterior()),
                        bits(reference.posterior()),
                        "reader {r} step {g}"
                    );
                }
            }
            assert_eq!(
                Arc::strong_count(&snapshot.pairs),
                5,
                "epoch {epoch}: the snapshot, the log's motion builder and the \
                 kernels of all three readers hold one table"
            );
            if let Some(old) = previous.replace(snapshot) {
                assert_eq!(Arc::strong_count(&old.pairs), 1, "every reader moved on");
            }
        }
    }
}
