//! Atomic snapshot publication: [`SnapshotPublisher`] and
//! [`SnapshotReader`].
//!
//! The concurrency contract mirrors the paper's serving reality: many
//! sessions localize continuously while the databases grow underneath
//! them. The design keeps the query path lock-free:
//!
//! * The publisher holds the current [`DbSnapshot`] in a slot guarded
//!   by a mutex, plus the current epoch in an [`AtomicU64`].
//! * A reader caches an `Arc` to the snapshot it is pinned to. Per
//!   localization step it performs **one** `Acquire` load of the epoch
//!   counter; only when the value moved does it take the slot lock to
//!   swap its cached `Arc`. Steps that straddle a publish finish on the
//!   old snapshot — an epoch change is only ever picked up at a step
//!   boundary.
//! * Publishing builds the next snapshot *outside* the lock, swaps the
//!   slot, then advances the epoch counter with `Release` ordering, so
//!   a reader that observes the new epoch is guaranteed to find the new
//!   snapshot in the slot.
//! * A zero-delta publish is skipped outright — no epoch bump, no
//!   rebuild — which makes "publish with nothing pending" a digest
//!   no-op by construction.

use crate::snapshot::DbSnapshot;
use crate::update::UpdateLog;
use crate::LiveError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one [`SnapshotPublisher::publish`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReport {
    /// Whether a new epoch was actually published (false when the log
    /// had no pending deltas).
    pub published: bool,
    /// The epoch current after the call.
    pub epoch: u64,
    /// How many pending deltas the published snapshot folded in (0 on
    /// a skip).
    pub deltas_folded: u64,
}

/// The write side: owns the current snapshot and its epoch.
#[derive(Debug)]
pub struct SnapshotPublisher {
    epoch: AtomicU64,
    slot: Mutex<Arc<DbSnapshot>>,
}

impl SnapshotPublisher {
    /// Starts publishing from `initial` (its `epoch` field becomes the
    /// current epoch — conventionally 0 for the site-survey seed).
    pub fn new(initial: DbSnapshot) -> Arc<Self> {
        let epoch = initial.epoch;
        Arc::new(Self {
            epoch: AtomicU64::new(epoch),
            slot: Mutex::new(Arc::new(initial)),
        })
    }

    /// The epoch readers observing now would pin to.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot (takes the slot lock; meant for setup and
    /// diagnostics, not the per-step query path — readers cache).
    pub fn snapshot(&self) -> Arc<DbSnapshot> {
        Arc::clone(&self.slot.lock().expect("snapshot slot poisoned"))
    }

    /// A reader pinned to the current snapshot.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            publisher: Arc::clone(self),
            current: self.snapshot(),
        }
    }

    /// Folds the log's pending deltas into a new epoch and publishes
    /// it. With zero pending deltas the call is a no-op skip: no
    /// rebuild, no epoch bump, `published: false`.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError`] when the snapshot build fails (the log
    /// has accepted no survey sample yet); the current epoch stays
    /// live and the log keeps its pending deltas, so the caller can
    /// repair and retry.
    pub fn publish(&self, log: &mut UpdateLog) -> Result<PublishReport, LiveError> {
        let pending = log.pending_deltas();
        if pending == 0 {
            moloc_obs::counter_add("live.publish.skipped_empty", 1);
            return Ok(PublishReport {
                published: false,
                epoch: self.current_epoch(),
                deltas_folded: 0,
            });
        }
        let next = self.current_epoch() + 1;
        moloc_verify::check_epoch("live.publisher.epoch", self.current_epoch(), next);
        let started = Instant::now();
        let snapshot = Arc::new(log.build_snapshot(next)?);
        moloc_obs::record(
            "live.publish.build_seconds",
            started.elapsed().as_secs_f64(),
        );
        {
            let mut slot = self.slot.lock().expect("snapshot slot poisoned");
            *slot = snapshot;
        }
        // Release: a reader that Acquire-loads `next` must see the new
        // snapshot in the slot.
        self.epoch.store(next, Ordering::Release);
        log.mark_published();
        moloc_obs::counter_add("live.publish.count", 1);
        moloc_obs::counter_add("live.publish.deltas_folded", pending);
        moloc_obs::gauge_set("live.publish.epoch", next);
        Ok(PublishReport {
            published: true,
            epoch: next,
            deltas_folded: pending,
        })
    }
}

/// The read side: a cached pin on one epoch's snapshot.
///
/// Cheap to clone conceptually but deliberately *not* `Clone` — each
/// concurrent session should take its own reader from
/// [`SnapshotPublisher::reader`] so refresh accounting stays per-user.
#[derive(Debug)]
pub struct SnapshotReader {
    publisher: Arc<SnapshotPublisher>,
    current: Arc<DbSnapshot>,
}

impl SnapshotReader {
    /// The snapshot this reader is pinned to.
    pub fn snapshot(&self) -> &Arc<DbSnapshot> {
        &self.current
    }

    /// The epoch this reader is pinned to.
    pub fn epoch(&self) -> u64 {
        self.current.epoch
    }

    /// How many epochs behind the publisher this reader currently is.
    pub fn lag(&self) -> u64 {
        self.publisher
            .current_epoch()
            .saturating_sub(self.current.epoch)
    }

    /// Adopts the latest published snapshot if the epoch moved.
    /// Returns whether the pin changed. One atomic load on the fast
    /// path; the slot lock is taken only on an actual epoch change.
    pub fn refresh(&mut self) -> bool {
        self.refresh_unless(false)
    }

    /// [`SnapshotReader::refresh`], except a `hold` (the
    /// `StaleSnapshot` fault injector's hook) pins the reader to its
    /// current epoch for this step even if a newer one is out.
    pub fn refresh_unless(&mut self, hold: bool) -> bool {
        let published = self.publisher.epoch.load(Ordering::Acquire);
        if published == self.current.epoch {
            return false;
        }
        moloc_obs::gauge_set(
            "live.reader.epoch_lag",
            published.saturating_sub(self.current.epoch),
        );
        if hold {
            moloc_obs::counter_add("live.reader.stale_holds", 1);
            return false;
        }
        // A reader only ever moves forward: the publisher's epoch
        // counter is monotone, so adopting a published snapshot below
        // the pinned epoch means torn publication.
        moloc_verify::check_epoch("live.reader.epoch", self.current.epoch, published);
        self.current = self.publisher.snapshot();
        moloc_obs::counter_add("live.reader.refreshes", 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
    use moloc_motion::builder::MapReference;
    use moloc_motion::filter::SanitationConfig;
    use moloc_motion::rlm::Rlm;

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
        let mut log = UpdateLog::new(2, map(), SanitationConfig::paper()).unwrap();
        log.observe_survey_sample(l(1), &[-40.0, -60.0]).unwrap();
        log.observe_survey_sample(l(2), &[-70.0, -30.0]).unwrap();
        log
    }

    #[test]
    fn zero_delta_publish_is_a_skip() {
        let mut log = seeded_log();
        let publisher = SnapshotPublisher::new(log.build_snapshot(0).unwrap());
        log.mark_published();
        let before = publisher.snapshot().digest();

        let report = publisher.publish(&mut log).unwrap();
        assert_eq!(
            report,
            PublishReport {
                published: false,
                epoch: 0,
                deltas_folded: 0
            }
        );
        assert_eq!(publisher.current_epoch(), 0);
        assert_eq!(publisher.snapshot().digest(), before, "digest no-op");
    }

    #[test]
    fn publish_bumps_epoch_and_folds_deltas() {
        let mut log = seeded_log();
        let publisher = SnapshotPublisher::new(log.build_snapshot(0).unwrap());
        log.mark_published();

        log.observe_survey_sample(l(1), &[-42.0, -58.0]).unwrap();
        log.observe_rlm(Rlm::new(l(1), l(2), 90.0, 2.0).unwrap());
        let report = publisher.publish(&mut log).unwrap();
        assert_eq!(
            report,
            PublishReport {
                published: true,
                epoch: 1,
                deltas_folded: 2
            }
        );
        assert_eq!(publisher.current_epoch(), 1);
        assert_eq!(log.pending_deltas(), 0);
        assert_eq!(publisher.snapshot().epoch, 1);
    }

    #[test]
    fn failed_publish_keeps_epoch_and_deltas() {
        let publisher = SnapshotPublisher::new(seeded_log().build_snapshot(0).unwrap());
        let before = publisher.snapshot().digest();

        // A log with RLMs but no survey sample cannot build.
        let mut log = UpdateLog::new(2, map(), SanitationConfig::paper()).unwrap();
        log.observe_rlm(Rlm::new(l(1), l(2), 90.0, 2.0).unwrap());
        assert!(publisher.publish(&mut log).is_err());
        assert_eq!(publisher.current_epoch(), 0, "old epoch stays live");
        assert_eq!(publisher.snapshot().digest(), before);
        assert_eq!(log.pending_deltas(), 1, "deltas retained for retry");

        // Repaired, the retry publishes what was pending.
        log.observe_survey_sample(l(1), &[-40.0, -60.0]).unwrap();
        let report = publisher.publish(&mut log).unwrap();
        assert_eq!(report.deltas_folded, 2);
        assert_eq!(publisher.current_epoch(), 1);
    }

    #[test]
    fn a_refused_sample_does_not_stall_publishing() {
        let mut log = seeded_log();
        let publisher = SnapshotPublisher::new(log.build_snapshot(0).unwrap());
        log.mark_published();

        assert!(log.observe_survey_sample(l(3), &[f64::NAN, -60.0]).is_err());
        for round in 0..3 {
            for id in 1..=2 {
                let rss = -50.0 - f64::from(round);
                log.observe_survey_sample(l(id), &[rss, rss - 10.0])
                    .unwrap();
            }
            let report = publisher.publish(&mut log).unwrap();
            assert!(report.published);
            assert_eq!(report.deltas_folded, 2, "the refused sample is no delta");
        }
        assert_eq!(publisher.current_epoch(), 3);
    }

    #[test]
    fn reader_refreshes_once_per_epoch_change() {
        let mut log = seeded_log();
        let publisher = SnapshotPublisher::new(log.build_snapshot(0).unwrap());
        log.mark_published();
        let mut reader = publisher.reader();
        assert_eq!(reader.epoch(), 0);
        assert!(!reader.refresh(), "no publish yet");

        log.observe_survey_sample(l(2), &[-71.0, -29.0]).unwrap();
        publisher.publish(&mut log).unwrap();
        assert_eq!(reader.lag(), 1);
        assert!(reader.refresh(), "epoch moved");
        assert_eq!(reader.epoch(), 1);
        assert_eq!(reader.lag(), 0);
        assert!(!reader.refresh(), "already current");
    }

    #[test]
    fn held_reader_stays_pinned_until_released() {
        let mut log = seeded_log();
        let publisher = SnapshotPublisher::new(log.build_snapshot(0).unwrap());
        log.mark_published();
        let mut reader = publisher.reader();

        log.observe_survey_sample(l(1), &[-39.0, -61.0]).unwrap();
        publisher.publish(&mut log).unwrap();
        assert!(!reader.refresh_unless(true), "held");
        assert_eq!(reader.epoch(), 0, "still serving the old epoch");
        assert!(reader.refresh_unless(false), "released");
        assert_eq!(reader.epoch(), 1);
    }
}
