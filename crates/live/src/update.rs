//! The ingestion side of live updates: [`UpdateLog`].
//!
//! Crowdsourced contributions arrive as two delta kinds:
//!
//! * **Survey samples** — a positioned device reports one RSS vector
//!   for a known reference location. Each location keeps a sample
//!   count and one row of running per-AP means, updated by Welford's
//!   mean recurrence `mean += (x − mean) / n` in arrival order —
//!   exactly the arithmetic [`FingerprintDb::from_samples`] performs —
//!   so the snapshot built from N incremental deltas is bit-identical
//!   to a from-scratch rebuild over the merged sample list. (Parallel
//!   `Welford::merge` is deliberately avoided: mathematically
//!   equivalent, not bit-identical.) A sample that would make a mean
//!   non-finite is refused at ingest, so no contribution can stall
//!   later publishes.
//! * **RLMs** — reassembled location measurements for the motion
//!   database, offered straight to the long-lived
//!   [`MotionDbBuilder`], which applies the paper's coarse map filter
//!   on ingestion and the fine 2σ filter and the Gaussian fit at build
//!   time. It keeps its last two builds and running sums per pair, so a
//!   publish refits only the pairs its deltas touched and, unless a pair
//!   appeared or vanished, writes them into the older build's database
//!   and pair table at the positions it remembers for each pair.
//!
//! Both sides keep the epoch before the last one and write the next
//! epoch into it with `Arc::make_mut`: in place once no reader holds
//! it, which is the steady state, and into a copy otherwise, so a
//! snapshot a reader holds is never written. Only what changed in the
//! last two publishes is overwritten. Survey rows are marked touched
//! once per publish, so ingest keeps no per-sample list.
//!
//! [`UpdateLog::build_snapshot`] condenses the accumulated state into a
//! [`DbSnapshot`] and leaves the log open for further deltas, so epochs
//! compound. It takes the log mutably because the motion builder
//! commits its refits; what a snapshot holds depends only on the deltas
//! accepted so far, never on when earlier snapshots were built.
//!
//! [`FingerprintDb::from_samples`]: moloc_fingerprint::db::FingerprintDb::from_samples

use crate::snapshot::DbSnapshot;
use crate::LiveError;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use moloc_motion::builder::{MapReference, MotionDbBuilder};
use moloc_motion::filter::SanitationConfig;
use moloc_motion::rlm::Rlm;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A surveyed location and its row in the log.
type Row = (LocationId, usize);

/// Accumulates crowdsourced deltas between snapshot publishes.
#[derive(Debug)]
pub struct UpdateLog {
    ap_count: usize,
    /// Per surveyed location, its row in `counts` and `means`. Rows
    /// are in order of first appearance, so a new location appends.
    rows: BTreeMap<LocationId, usize>,
    /// Per row, the samples folded into it.
    counts: Vec<u64>,
    /// Row-major running per-AP means, `ap_count` per row (the
    /// bit-identity anchor — see module docs).
    means: Vec<f64>,
    /// Per row, whether it is on `touched`.
    marked: Vec<bool>,
    /// The rows folded into since the last build, each once, in the
    /// order a sample first touched them.
    touched: Vec<Row>,
    /// The last build's index.
    index: Option<Arc<FingerprintIndex>>,
    /// The build before it, when the last build kept its rows' layout:
    /// the buffers the next build writes, with the rows the last build
    /// changed (where they lag the current means by one build).
    spare: Option<(Arc<FingerprintIndex>, Vec<Row>)>,
    motion: MotionDbBuilder,
    deltas_since_publish: u64,
}

impl UpdateLog {
    /// Creates an empty log for `ap_count`-AP fingerprints over the
    /// given map reference and sanitation policy.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::Sanitation`] when the sanitation
    /// configuration fails validation.
    pub fn new(
        ap_count: usize,
        map: MapReference,
        sanitation: SanitationConfig,
    ) -> Result<Self, LiveError> {
        Ok(Self {
            ap_count,
            rows: BTreeMap::new(),
            counts: Vec::new(),
            means: Vec::new(),
            marked: Vec::new(),
            touched: Vec::new(),
            index: None,
            spare: None,
            motion: MotionDbBuilder::new(map, sanitation)?,
            deltas_since_publish: 0,
        })
    }

    /// The AP count every survey sample must carry.
    pub fn ap_count(&self) -> usize {
        self.ap_count
    }

    /// Deltas accepted since the last [`UpdateLog::mark_published`].
    pub fn pending_deltas(&self) -> u64 {
        self.deltas_since_publish
    }

    /// Folds one survey sample for `location` into its running means.
    ///
    /// The next means are computed before anything is stored: a sample
    /// that would make one of them NaN or infinite (a non-finite
    /// value, or finite values whose running mean overflows) is
    /// refused, so every mean a snapshot reads stays finite.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::ApCount`] when the sample length does not
    /// match the log's AP count, and [`LiveError::NonFiniteSample`]
    /// when a mean would go non-finite. A refused sample folds nothing
    /// and adds no pending delta.
    pub fn observe_survey_sample(
        &mut self,
        location: LocationId,
        values: &[f64],
    ) -> Result<(), LiveError> {
        let ap = self.ap_count;
        if values.len() != ap {
            return Err(LiveError::ApCount {
                expected: ap,
                found: values.len(),
            });
        }
        let existing = self.rows.get(&location).copied();
        let n = existing.map_or(0, |row| self.counts[row]) + 1;
        // Welford's mean step, as `moloc_stats::online::Welford::push`.
        let fold = |mean: f64, x: f64| mean + (x - mean) / n as f64;
        let current = |a: usize| existing.map_or(0.0, |row| self.means[row * ap + a]);
        if (0..ap).any(|a| !fold(current(a), values[a]).is_finite()) {
            return Err(LiveError::NonFiniteSample(location));
        }
        let row = existing.unwrap_or_else(|| {
            let row = self.counts.len();
            self.rows.insert(location, row);
            self.counts.push(0);
            self.marked.push(false);
            self.means.resize((row + 1) * ap, 0.0);
            row
        });
        if !self.marked[row] {
            self.marked[row] = true;
            self.touched.push((location, row));
        }
        self.counts[row] = n;
        for (mean, &x) in self.means[row * ap..(row + 1) * ap].iter_mut().zip(values) {
            *mean = fold(*mean, x);
        }
        self.deltas_since_publish += 1;
        Ok(())
    }

    /// Offers one crowdsourced RLM to the motion builder. Returns
    /// whether the coarse filter accepted it.
    ///
    /// A *rejected* RLM still counts as a pending delta: the builder's
    /// report counters changed, and those counters are part of the
    /// snapshot digest, so the next publish must not be skipped.
    pub fn observe_rlm(&mut self, rlm: Rlm) -> bool {
        let accepted = self.motion.observe(rlm);
        self.deltas_since_publish += 1;
        accepted
    }

    /// Condenses the accumulated state into an epoch-stamped snapshot
    /// without consuming the log.
    ///
    /// The fingerprint side costs what the samples since the last build
    /// touched. When they added no location, the next index is the one
    /// built before the last one, with the rows either of the last two
    /// builds changed overwritten by
    /// [`FingerprintIndex::patch_rows`]: in place (`Arc::make_mut`)
    /// when no snapshot still holds that index, else in a copy of it,
    /// so a held snapshot never changes. With no such index, the last
    /// one is copied, and when nothing was folded since the last build
    /// its index is returned. A new location changes the layout, so
    /// that build copies the running means in id order into one matrix
    /// and hands it to [`FingerprintIndex::from_rows`]: the rows
    /// [`FingerprintDb::from_samples`] would build, with no
    /// per-location allocation. Either way the index equals `from_rows`
    /// over the current means. The motion side is
    /// [`MotionDbBuilder::build_snapshot`], proven prefix-bit-identical
    /// to a consuming build, which keeps its last two builds the same
    /// way.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError::Db`] with [`DbError::Empty`] when no survey
    /// sample has been accepted.
    ///
    /// [`FingerprintDb::from_samples`]: moloc_fingerprint::db::FingerprintDb::from_samples
    /// [`DbError::Empty`]: moloc_fingerprint::db::DbError::Empty
    pub fn build_snapshot(&mut self, epoch: u64) -> Result<DbSnapshot, LiveError> {
        let index = self.build_index()?;
        let (motion_db, pairs, motion_report) = self.motion.build_snapshot();
        Ok(DbSnapshot {
            epoch,
            index,
            motion_db,
            motion_report,
            pairs,
            fdb: OnceLock::new(),
        })
    }

    /// The fingerprint side of [`UpdateLog::build_snapshot`].
    fn build_index(&mut self) -> Result<Arc<FingerprintIndex>, LiveError> {
        let ap = self.ap_count;
        let (next, retired) = match &self.index {
            Some(index) if index.len() == self.counts.len() => {
                if self.touched.is_empty() {
                    return Ok(Arc::clone(index));
                }
                let (mut next, mut stale) = self
                    .spare
                    .take()
                    .unwrap_or_else(|| (Arc::clone(index), Vec::new()));
                let rows: Vec<(LocationId, &[f64])> = stale
                    .iter()
                    .filter(|&&(_, row)| !self.marked[row])
                    .chain(&self.touched)
                    .map(|&(id, row)| (id, &self.means[row * ap..(row + 1) * ap]))
                    .collect();
                Arc::make_mut(&mut next).patch_rows(&rows)?;
                stale.clear();
                (next, Some(stale))
            }
            _ => {
                let mut ids = Vec::with_capacity(self.rows.len());
                let mut matrix = Vec::with_capacity(self.means.len());
                for (&id, &row) in &self.rows {
                    ids.push(id);
                    matrix.extend_from_slice(&self.means[row * ap..(row + 1) * ap]);
                }
                (
                    Arc::new(FingerprintIndex::from_rows(ids, matrix, ap)?),
                    None,
                )
            }
        };
        for &(_, row) in &self.touched {
            self.marked[row] = false;
        }
        let previous = self.index.replace(Arc::clone(&next));
        // After a patch the last index becomes the spare, lagging by the
        // rows just touched; a new layout leaves no spare.
        self.spare = match (previous, retired) {
            (Some(previous), Some(empty)) => {
                Some((previous, std::mem::replace(&mut self.touched, empty)))
            }
            _ => None,
        };
        self.touched.clear();
        Ok(next)
    }

    /// Resets the pending-delta counter after a successful publish.
    /// The accumulated survey and motion state is retained — epochs
    /// compound over the full contribution history.
    pub fn mark_published(&mut self) {
        self.deltas_since_publish = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_fingerprint::db::{DbError, FingerprintDb};
    use moloc_fingerprint::fingerprint::Fingerprint;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, ReferenceGrid, Vec2, WalkGraph};

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    /// 3×2 grid spaced 2 m in an open hall (same world as the motion
    /// builder tests; 1→2 runs east at 90°, 2 m apart).
    fn map() -> MapReference {
        let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
        let graph = WalkGraph::from_grid(&grid, &plan);
        MapReference::new(&grid, &graph)
    }

    fn log() -> UpdateLog {
        UpdateLog::new(2, map(), SanitationConfig::paper()).unwrap()
    }

    #[test]
    fn ap_count_mismatch_is_rejected_without_folding() {
        let mut log = log();
        let err = log.observe_survey_sample(l(1), &[-40.0]).unwrap_err();
        assert_eq!(
            err,
            LiveError::ApCount {
                expected: 2,
                found: 1
            }
        );
        assert_eq!(log.pending_deltas(), 0);
    }

    #[test]
    fn incremental_survey_means_match_from_samples_bitwise() {
        let mut log = log();
        let samples = [
            (1u32, [-40.0, -60.1]),
            (2, [-70.0, -30.0]),
            (1, [-44.3, -56.2]),
            (1, [-41.7, -58.9]),
            (2, [-69.2, -31.4]),
        ];
        for (id, s) in &samples {
            log.observe_survey_sample(l(*id), s).unwrap();
        }
        let snap = log.build_snapshot(3).unwrap();

        let reference = FingerprintDb::from_samples(vec![
            (
                l(1),
                samples
                    .iter()
                    .filter(|(id, _)| *id == 1)
                    .map(|(_, s)| Fingerprint::new(s.to_vec()))
                    .collect::<Vec<_>>(),
            ),
            (
                l(2),
                samples
                    .iter()
                    .filter(|(id, _)| *id == 2)
                    .map(|(_, s)| Fingerprint::new(s.to_vec()))
                    .collect::<Vec<_>>(),
            ),
        ])
        .unwrap();
        assert_eq!(*snap.fdb(), reference, "bit-identical condensed database");
        assert_eq!(snap.epoch, 3);
    }

    #[test]
    fn rejected_rlm_still_counts_as_a_delta() {
        let mut log = log();
        // 1→2 map direction is 90°; 10° is a wild coarse reject.
        let accepted = log.observe_rlm(Rlm::new(l(1), l(2), 10.0, 2.0).unwrap());
        assert!(!accepted);
        assert_eq!(
            log.pending_deltas(),
            1,
            "the report counters changed, so the digest will too"
        );
    }

    #[test]
    fn empty_log_cannot_build() {
        let mut log = log();
        assert_eq!(
            log.build_snapshot(0).unwrap_err(),
            LiveError::Db(DbError::Empty)
        );
    }

    #[test]
    fn nan_sample_is_refused_at_ingest() {
        let mut log = log();
        assert_eq!(
            log.observe_survey_sample(l(1), &[-40.0, f64::NAN]),
            Err(LiveError::NonFiniteSample(l(1)))
        );
        assert_eq!(log.pending_deltas(), 0, "a refused sample is no delta");
        assert_eq!(
            log.build_snapshot(0).unwrap_err(),
            LiveError::Db(DbError::Empty),
            "nothing was folded"
        );
    }

    #[test]
    fn a_refused_sample_leaves_every_later_publish_buildable() {
        let mut log = log();
        log.observe_survey_sample(l(1), &[-40.0, -60.0]).unwrap();
        log.observe_survey_sample(l(2), &[-70.0, -30.0]).unwrap();
        let before = log.build_snapshot(0).unwrap().digest();
        let pending = log.pending_deltas();
        // A NaN or an infinity, an infinity at a new location, and two
        // finite samples whose running mean overflows.
        for (id, sample) in [
            (3, [f64::NAN, -60.0]),
            (1, [-40.0, f64::INFINITY]),
            (2, [f64::NEG_INFINITY, f64::NAN]),
        ] {
            assert_eq!(
                log.observe_survey_sample(l(id), &sample),
                Err(LiveError::NonFiniteSample(l(id)))
            );
        }
        log.observe_survey_sample(l(4), &[-1.7e308, -50.0]).unwrap();
        let pending = pending + 1;
        let before_overflow = log.build_snapshot(0).unwrap().digest();
        assert_eq!(
            log.observe_survey_sample(l(4), &[1.7e308, -50.0]),
            Err(LiveError::NonFiniteSample(l(4)))
        );
        assert_eq!(log.pending_deltas(), pending);
        assert_eq!(log.build_snapshot(0).unwrap().digest(), before_overflow);
        assert_ne!(before, before_overflow, "the finite -1.7e308 sample folded");
        // The log keeps publishing clean samples.
        log.observe_survey_sample(l(3), &[-55.0, -45.0]).unwrap();
        let snap = log.build_snapshot(1).unwrap();
        assert_eq!(snap.index.ids(), &[l(1), l(2), l(3), l(4)]);
    }

    #[test]
    fn mark_published_keeps_history() {
        let mut log = log();
        log.observe_survey_sample(l(1), &[-40.0, -60.0]).unwrap();
        log.mark_published();
        assert_eq!(log.pending_deltas(), 0);
        // History survives: the next snapshot still sees the sample.
        let snap = log.build_snapshot(1).unwrap();
        assert_eq!(snap.index.len(), 1);
    }
}
