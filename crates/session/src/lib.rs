#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! Crash-safe streaming session layer for the MoLoc serving stack.
//!
//! The batch pipeline assumes a clean, complete, ordered trace. Real
//! serving gets per-user events off a network: reordered, duplicated,
//! lossy — and the process hosting a session can die at any moment.
//! This crate closes that gap:
//!
//! * [`event`] — [`event::ScanEvent`], the streamed query unit
//!   (sequence number for ordering, event id for dedup).
//! * [`reorder`] — [`reorder::ReorderBuffer`], bounded
//!   watermark-ordered delivery: out-of-order arrivals parked,
//!   duplicates and late arrivals dropped and counted, gaps declared
//!   lost when the window would otherwise grow without bound.
//! * [`checkpoint`] — versioned, FNV-checksummed tracker checkpoints
//!   on an append-only log with atomic-rename compaction; recovery
//!   classifies torn, truncated, and bit-flipped records and **never
//!   silently accepts** a corrupt one.
//! * [`session`] — [`session::StreamingSession`], the per-user loop:
//!   reorder buffer → `BatchLocalizer` recursion → periodic
//!   checkpoints. Recovery restores the last verified checkpoint and
//!   replays the arrival stream from its cursor, producing estimates
//!   **bit-identical** to the uninterrupted run (proof sketch in
//!   DESIGN.md §16; enforced by the kill-matrix tests).

pub mod checkpoint;
pub mod event;
pub mod reorder;
pub mod session;

pub use checkpoint::{
    CheckpointError, CheckpointLog, CheckpointState, CorruptionKind, RecoveryReport,
};
pub use event::ScanEvent;
pub use reorder::{ReorderBuffer, ReorderStats};
pub use session::{Estimate, Recovered, SessionConfig, StreamingSession};

use moloc_core::error::MolocError;

/// A streaming-session failure.
#[derive(Debug)]
pub enum SessionError {
    /// The checkpoint log could not be read or written.
    Io(std::io::Error),
    /// A checkpoint could not be serialized or persisted (a state that
    /// exceeds the record format's limits, or an append that failed).
    Checkpoint(CheckpointError),
    /// The tracker rejected a query (or a session-layer configuration
    /// contract was violated).
    Track(MolocError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "checkpoint log I/O failed: {e}"),
            SessionError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            SessionError::Track(e) => write!(f, "tracking failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Io(e) => Some(e),
            SessionError::Checkpoint(e) => Some(e),
            SessionError::Track(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> Self {
        SessionError::Io(e)
    }
}

impl From<CheckpointError> for SessionError {
    fn from(e: CheckpointError) -> Self {
        SessionError::Checkpoint(e)
    }
}

impl From<MolocError> for SessionError {
    fn from(e: MolocError) -> Self {
        SessionError::Track(e)
    }
}

/// Strictly validates every `MOLOC_*` knob this crate reads
/// (`MOLOC_REORDER_CAPACITY`, `MOLOC_CHECKPOINT_INTERVAL`,
/// `MOLOC_CHECKPOINT_FSYNC`). Entry-point binaries call this at
/// startup so a typo'd knob is a typed, actionable error instead of a
/// silently ignored setting.
///
/// # Errors
///
/// Returns [`MolocError::InvalidConfig`] naming the first malformed
/// variable and echoing its raw value.
pub fn validate_env() -> Result<(), MolocError> {
    SessionConfig::from_env().map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_error_displays_both_arms() {
        let io = SessionError::from(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "torn",
        ));
        assert!(io.to_string().contains("I/O"));
        let track = SessionError::from(MolocError::BadMeasurement);
        assert!(track.to_string().contains("finite"));
        let checkpoint = SessionError::from(CheckpointError::TooLarge {
            field: "pending",
            len: usize::MAX,
        });
        assert!(checkpoint.to_string().contains("pending"));
    }
}
