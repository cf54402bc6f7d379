#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! Dynamic crowdsourced database updates (paper Sec. IV-B, taken live).
//!
//! The paper's MoLoc system is described over a *static* pair of
//! databases: the site-survey fingerprint database and the
//! crowdsourced motion database. In deployment both keep growing —
//! every positioned user contributes RSS samples and RLMs — and the
//! serving stack must fold those contributions in without pausing the
//! sessions that are localizing right now. This crate is that
//! subsystem:
//!
//! * [`snapshot`] — [`snapshot::DbSnapshot`], one immutable
//!   epoch-stamped world: the fingerprint query index and the
//!   sanitized motion database, with a content [`digest`] used by
//!   the determinism contract (`digest` ignores the epoch stamp on
//!   purpose — two epochs with identical content hash identically).
//!   Each snapshot also carries its motion database's config-free pair
//!   table, which every reader's kernel wraps, whatever its
//!   configuration; its `FingerprintDb` view is derived from the index
//!   on demand.
//! * [`update`] — [`update::UpdateLog`], the ingestion side: survey
//!   samples stream into per-location rows of running [Welford] means,
//!   RLMs stream into the existing [`MotionDbBuilder`] (coarse filter
//!   on ingestion, fine filter at build). A build costs what its delta
//!   touched: both sides write the rows and pairs that changed into the
//!   buffers of the build before the last one, once no reader holds
//!   them. Folding N deltas
//!   incrementally is **bit-identical** to rebuilding from scratch on
//!   the merged sample set — the equivalence proptest in
//!   `tests/equivalence.rs` enforces this digest-for-digest.
//! * [`publisher`] — [`publisher::SnapshotPublisher`] /
//!   [`publisher::SnapshotReader`], the atomic swap: readers pay one
//!   `Acquire` load per localization step and take a lock **only** on
//!   the step where the epoch actually changed; publishing a zero-delta
//!   log is skipped outright (digest no-op by construction).
//! * [`localizer`] — [`localizer::LiveLocalizer`], an epoch-pinned
//!   serving loop over `BatchLocalizer`: each step runs entirely on one
//!   snapshot, and a newly published epoch is adopted only at the next
//!   step boundary (the posterior is id-keyed, so tracking state
//!   carries across the swap).
//!
//! [`digest`]: snapshot::DbSnapshot::digest
//! [Welford]: moloc_stats::online::Welford
//! [`MotionDbBuilder`]: moloc_motion::builder::MotionDbBuilder

pub mod localizer;
pub mod publisher;
pub mod snapshot;
pub mod update;

pub use localizer::LiveLocalizer;
pub use publisher::{PublishReport, SnapshotPublisher, SnapshotReader};
pub use snapshot::DbSnapshot;
pub use update::UpdateLog;

use moloc_fingerprint::db::DbError;
use moloc_geometry::LocationId;
use moloc_motion::filter::SanitationError;

/// A live-update failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveError {
    /// A survey sample's AP count does not match the log's.
    ApCount {
        /// The AP count the log was created with.
        expected: usize,
        /// The offending sample's AP count.
        found: usize,
    },
    /// A survey sample would make its location's running mean NaN or
    /// infinite; the sample was refused.
    NonFiniteSample(LocationId),
    /// The accumulated survey could not produce a valid database.
    Db(DbError),
    /// The motion sanitation configuration is invalid.
    Sanitation(SanitationError),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::ApCount { expected, found } => write!(
                f,
                "survey sample has {found} APs, update log expects {expected}"
            ),
            LiveError::NonFiniteSample(id) => {
                write!(f, "survey sample for {id} would make its mean non-finite")
            }
            LiveError::Db(e) => write!(f, "snapshot build failed: {e}"),
            LiveError::Sanitation(e) => write!(f, "invalid sanitation config: {e}"),
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::ApCount { .. } | LiveError::NonFiniteSample(_) => None,
            LiveError::Db(e) => Some(e),
            LiveError::Sanitation(e) => Some(e),
        }
    }
}

impl From<DbError> for LiveError {
    fn from(e: DbError) -> Self {
        LiveError::Db(e)
    }
}

impl From<SanitationError> for LiveError {
    fn from(e: SanitationError) -> Self {
        LiveError::Sanitation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        let e = LiveError::ApCount {
            expected: 4,
            found: 3,
        };
        assert!(e.to_string().contains("3 APs"));
        assert!(e.to_string().contains("expects 4"));
        assert!(std::error::Error::source(&e).is_none());

        let e = LiveError::NonFiniteSample(LocationId::new(3));
        assert!(e.to_string().contains("L3"));
        assert!(std::error::Error::source(&e).is_none());

        let e: LiveError = DbError::Empty.into();
        assert!(e.to_string().contains("snapshot build failed"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
