//! The streaming session: reorder buffer → tracker → checkpoint log.
//!
//! A [`StreamingSession`] is the per-user serving loop. Arrivals pass
//! through a [`ReorderBuffer`]; everything the buffer releases drives
//! the `BatchLocalizer` recursion exactly as the batch pipeline would,
//! and every `checkpoint_interval` deliveries the complete state —
//! posterior, degradation flags, watermark, parked events, cursors —
//! is appended to the [`CheckpointLog`].
//!
//! # Crash recovery
//!
//! [`StreamingSession::recover`] loads the most recent checkpoint that
//! verifies (see [`crate::checkpoint`]) and restores all of it. The
//! caller then re-feeds the arrival stream from
//! [`StreamingSession::ingested`] onward. Because (a) Eq. 7 consumes
//! nothing but the previous posterior, (b) the reorder buffer is a
//! pure function of the arrival sequence, and (c) the checkpoint
//! captures both bit-exactly, the recovered run's estimates are
//! **bit-identical** to the uninterrupted run — enforced by the
//! kill-matrix tests in `crates/eval/tests/session_recovery.rs`.

use std::path::Path;

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::error::{DegradationFlags, MolocError};
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use moloc_motion::kernel::MotionKernel;

use crate::checkpoint::{read_log, CheckpointLog, CheckpointState, RecoveryReport};
use crate::event::ScanEvent;
use crate::reorder::{ReorderBuffer, ReorderStats};
use crate::SessionError;

/// Streaming-session knobs, overridable via `MOLOC_CHECKPOINT_*` /
/// `MOLOC_REORDER_CAPACITY` (strictly validated — see
/// [`crate::validate_env`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Out-of-order window size of the reorder buffer.
    pub reorder_capacity: usize,
    /// Deliveries between checkpoint appends.
    pub checkpoint_interval: u64,
    /// Whether checkpoint appends `sync_data` (survive power loss, not
    /// just process death).
    pub fsync: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            reorder_capacity: 32,
            checkpoint_interval: 8,
            fsync: false,
        }
    }
}

impl SessionConfig {
    /// Defaults overridden by `MOLOC_REORDER_CAPACITY`,
    /// `MOLOC_CHECKPOINT_INTERVAL`, and `MOLOC_CHECKPOINT_FSYNC`.
    ///
    /// # Errors
    ///
    /// Returns [`MolocError::InvalidConfig`] (naming the variable and
    /// echoing its raw value) when any knob is set but malformed —
    /// never a silent fallback.
    pub fn from_env() -> Result<SessionConfig, MolocError> {
        let mut config = SessionConfig::default();
        if let Some(v) = read_positive("MOLOC_REORDER_CAPACITY")? {
            config.reorder_capacity = v;
        }
        if let Some(v) = read_positive("MOLOC_CHECKPOINT_INTERVAL")? {
            config.checkpoint_interval = v as u64;
        }
        if let Some(v) = read_toggle("MOLOC_CHECKPOINT_FSYNC")? {
            config.fsync = v;
        }
        Ok(config)
    }
}

fn read_raw(field: &'static str) -> Result<Option<String>, MolocError> {
    match std::env::var(field) {
        Ok(raw) => Ok(Some(raw)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(raw)) => Err(MolocError::invalid_config_value(
            field,
            raw.to_string_lossy(),
        )),
    }
}

fn read_positive(field: &'static str) -> Result<Option<usize>, MolocError> {
    moloc_core::env::parse_positive_usize(field, read_raw(field)?.as_deref())
}

fn read_toggle(field: &'static str) -> Result<Option<bool>, MolocError> {
    moloc_core::env::parse_toggle(field, read_raw(field)?.as_deref())
}

/// One estimate released by the streaming session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// The sequence number of the query that produced it.
    pub seq: u64,
    /// The location estimate.
    pub location: LocationId,
    /// Which graceful fallbacks fired for this step.
    pub flags: DegradationFlags,
}

/// The per-user streaming serving loop. See the module docs.
#[derive(Debug)]
pub struct StreamingSession<'a> {
    engine: BatchLocalizer<'a>,
    reorder: ReorderBuffer,
    log: Option<CheckpointLog>,
    checkpoint_interval: u64,
    ingested: u64,
    delivered: u64,
    since_checkpoint: u64,
    epoch: u64,
    ready: Vec<ScanEvent>,
}

/// The result of [`StreamingSession::recover`].
#[derive(Debug)]
pub struct Recovered<'a> {
    /// The session, either resumed from a checkpoint or fresh.
    pub session: StreamingSession<'a>,
    /// What the log scan found — corruption is always reported here.
    pub report: RecoveryReport,
    /// Whether a checkpoint was actually restored (`false` means the
    /// log was empty or nothing in it verified: start from scratch and
    /// replay the whole stream).
    pub resumed: bool,
}

impl<'a> StreamingSession<'a> {
    /// A fresh session over shared databases, without checkpointing.
    pub fn new(
        index: &'a FingerprintIndex,
        kernel: &'a MotionKernel,
        moloc: MoLocConfig,
        config: SessionConfig,
    ) -> StreamingSession<'a> {
        StreamingSession {
            engine: BatchLocalizer::new_with_index(index, kernel, moloc),
            reorder: ReorderBuffer::new(config.reorder_capacity),
            log: None,
            checkpoint_interval: config.checkpoint_interval.max(1),
            ingested: 0,
            delivered: 0,
            since_checkpoint: 0,
            epoch: 0,
            ready: Vec::new(),
        }
    }

    /// A fresh session that appends checkpoints to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Io`] when the log cannot be opened.
    pub fn with_log(
        index: &'a FingerprintIndex,
        kernel: &'a MotionKernel,
        moloc: MoLocConfig,
        config: SessionConfig,
        path: impl AsRef<Path>,
    ) -> Result<StreamingSession<'a>, SessionError> {
        let mut session = Self::new(index, kernel, moloc, config);
        session.log = Some(CheckpointLog::open(path.as_ref(), config.fsync)?);
        Ok(session)
    }

    /// Restores the most recent verified checkpoint from `path` (or a
    /// fresh session when none verifies) and reopens the log for
    /// appending. The caller must then re-feed the arrival stream from
    /// [`StreamingSession::ingested`] onward; the resulting estimates
    /// are bit-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Io`] when the log cannot be read or
    /// reopened. Corruption inside the log is **not** an error: the
    /// session falls back to the last verified record (or fresh) and
    /// the defect is surfaced in [`Recovered::report`].
    pub fn recover(
        index: &'a FingerprintIndex,
        kernel: &'a MotionKernel,
        moloc: MoLocConfig,
        config: SessionConfig,
        path: impl AsRef<Path>,
    ) -> Result<Recovered<'a>, SessionError> {
        moloc_obs::counter_add("session.recovery.attempts", 1);
        let (state, report) = read_log(path.as_ref())?;
        let mut session = Self::with_log(index, kernel, moloc, config, path)?;
        let resumed = match state {
            Some(state) => {
                session.restore(state);
                moloc_obs::counter_add("session.recovery.resumed", 1);
                true
            }
            None => false,
        };
        if report.corruption.is_some() {
            moloc_obs::counter_add("session.recovery.corrupt_logs", 1);
        }
        Ok(Recovered {
            session,
            report,
            resumed,
        })
    }

    /// Applies a decoded checkpoint to this session.
    pub fn restore(&mut self, state: CheckpointState) {
        self.engine.restore_posterior(&state.posterior, state.flags);
        self.ingested = state.ingested;
        self.delivered = state.delivered;
        self.since_checkpoint = 0;
        self.epoch = state.epoch;
        self.reorder
            .restore(state.watermark, state.pending, state.stats);
    }

    /// Snapshots the complete session state (what a checkpoint would
    /// record right now).
    pub fn state(&self) -> CheckpointState {
        let posterior = self.engine.posterior().to_vec();
        CheckpointState {
            ingested: self.ingested,
            delivered: self.delivered,
            watermark: self.reorder.watermark(),
            epoch: self.epoch,
            stats: self.reorder.stats(),
            has_previous: !posterior.is_empty(),
            flags: self.engine.last_flags(),
            posterior,
            pending: self.reorder.pending().cloned().collect(),
        }
    }

    /// Accepts one arrival, appending any estimates it unlocks to
    /// `out`. Checkpoints automatically every `checkpoint_interval`
    /// deliveries (when a log is attached).
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Track`] for a malformed query (the
    /// tracker's own contract), after the other events released with it
    /// are localized into `out`, and [`SessionError::Checkpoint`] when a
    /// due checkpoint append fails.
    pub fn ingest(&mut self, event: ScanEvent, out: &mut Vec<Estimate>) -> Result<(), SessionError> {
        self.ingested += 1;
        moloc_obs::counter_add("session.stream.ingested", 1);
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        self.reorder.push(event, &mut ready);
        let result = self.deliver(&mut ready, out);
        self.ready = ready;
        result?;
        self.maybe_checkpoint()?;
        Ok(())
    }

    /// Declares the stream finished: drains the reorder window,
    /// localizes the tail, and writes a final checkpoint.
    ///
    /// # Errors
    ///
    /// Same contract as [`StreamingSession::ingest`].
    pub fn finish(&mut self, out: &mut Vec<Estimate>) -> Result<(), SessionError> {
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        self.reorder.flush(&mut ready);
        let result = self.deliver(&mut ready, out);
        self.ready = ready;
        result?;
        if self.log.is_some() && self.since_checkpoint > 0 {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Forces a checkpoint append right now.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Checkpoint`] when the append fails, and
    /// [`SessionError::Track`] (`InvalidConfig`) when no log is
    /// attached.
    pub fn checkpoint(&mut self) -> Result<(), SessionError> {
        let state = self.state();
        let log = self
            .log
            .as_mut()
            .ok_or_else(|| SessionError::Track(MolocError::invalid_config("checkpoint_log")))?;
        log.append(&state)?;
        self.since_checkpoint = 0;
        Ok(())
    }

    fn maybe_checkpoint(&mut self) -> Result<(), SessionError> {
        if self.log.is_some() && self.since_checkpoint >= self.checkpoint_interval {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Localizes every event the reorder buffer released, in order. A
    /// malformed event is skipped (neither localized nor counted) and
    /// the first such error is returned once the whole run is through:
    /// the events released beside it have already passed the watermark,
    /// so stopping early would lose them for good.
    fn deliver(
        &mut self,
        ready: &mut Vec<ScanEvent>,
        out: &mut Vec<Estimate>,
    ) -> Result<(), SessionError> {
        moloc_obs::counter_add("session.stream.delivered", ready.len() as u64);
        let mut first_error = None;
        for event in ready.drain(..) {
            match self.engine.observe_slice(&event.scan, event.motion) {
                Ok(location) => {
                    self.delivered += 1;
                    self.since_checkpoint += 1;
                    out.push(Estimate {
                        seq: event.seq,
                        location,
                        flags: self.engine.last_flags(),
                    });
                }
                Err(e) => {
                    first_error.get_or_insert(SessionError::Track(e));
                }
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Arrival events consumed so far — the replay cursor after
    /// recovery.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Events released to the tracker so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Reorder statistics so far.
    pub fn reorder_stats(&self) -> ReorderStats {
        self.reorder.stats()
    }

    /// The reorder watermark.
    pub fn watermark(&self) -> u64 {
        self.reorder.watermark()
    }

    /// The live-update database epoch this session is serving from
    /// (0 when running over a static database).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records the database epoch the caller's snapshot reader is
    /// currently pinned to, so subsequent checkpoints carry it and
    /// recovery can report which snapshot generation produced the
    /// session's estimates.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_core::matching::build_kernel;
    use moloc_fingerprint::db::FingerprintDb;
    use moloc_fingerprint::fingerprint::Fingerprint;
    use moloc_motion::matrix::MotionDb;

    fn event(seq: u64, scan: Vec<f64>) -> ScanEvent {
        ScanEvent {
            event_id: seq,
            seq,
            scan,
            motion: None,
        }
    }

    #[test]
    fn a_malformed_event_does_not_discard_the_run_released_with_it() {
        let fdb = FingerprintDb::from_fingerprints(vec![
            (LocationId::new(1), Fingerprint::new(vec![-40.0, -70.0])),
            (LocationId::new(2), Fingerprint::new(vec![-70.0, -40.0])),
        ])
        .expect("valid database");
        let index = FingerprintIndex::build(&fdb);
        let config = MoLocConfig::default();
        let kernel = build_kernel(&MotionDb::new(2), &config);
        let mut session = StreamingSession::new(&index, &kernel, config, SessionConfig::default());
        let mut out = Vec::new();
        for seq in [0, 3, 2] {
            session
                .ingest(event(seq, vec![-41.0, -69.0]), &mut out)
                .expect("well-formed scan");
        }
        // Seq 1 releases 1, 2 and 3 as one run; only seq 1 is malformed.
        let err = session
            .ingest(event(1, vec![-41.0]), &mut out)
            .expect_err("a 1-value scan against a 2-AP index");
        assert!(matches!(
            err,
            SessionError::Track(MolocError::QueryLength { .. })
        ));
        assert_eq!(session.watermark(), 4);
        session.finish(&mut out).expect("nothing left to deliver");
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(session.delivered(), 3);
    }
}
