#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! MoLoc: motion-assisted indoor localization (ICDCS 2013).
//!
//! This crate is the paper's primary contribution — the serving-stage
//! algorithm of Sec. V that fuses RSS fingerprint matching with motion
//! matching against the crowdsourced motion database:
//!
//! * [`config`] — the algorithm's knobs: candidate count `k`,
//!   discretization windows `α`/`β`, and robustness floors.
//! * [`error`] — the typed [`error::MolocError`] hierarchy and the
//!   [`error::DegradationFlags`] surfaced when serving paths fall back
//!   (masked k-NN, fingerprint-only prior, candidate reset).
//! * [`env`] — strict parsing for `MOLOC_*` environment knobs:
//!   malformed values are typed [`error::MolocError::InvalidConfig`]
//!   errors carrying the offending string, never silent fallbacks.
//! * [`matching`] — motion matching (Eq. 5: `P_{i,j}(d, o) =
//!   D_{i,j}(d)·O_{i,j}(o)`, Eq. 6 over candidate sets):
//!   [`matching::build_kernel`] precomputes the lookup tables.
//! * [`tracker`] — [`tracker::MotionMeasurement`], the per-interval
//!   motion input of a localization step.
//! * [`batch`] — [`batch::BatchLocalizer`], the one implementation of
//!   the Sec. V-C step (Eq. 4 candidates, Eq. 5/6 motion matching,
//!   Eq. 7 fusion, top pick, retained posterior) with reusable scratch
//!   buffers (zero allocations after warm-up). `moloc_verify::oracle`
//!   is its naive reference.
//! * [`engine`] — [`engine::MoLoc`], the owning facade bundling the
//!   fingerprint database, motion database, and configuration, which
//!   hands out one [`batch::BatchLocalizer`] per session.
//! * [`viterbi`] — an offline HMM comparator over the same databases
//!   (the related-work baseline the paper argues against).
//! * [`particle`] — a sequential Monte Carlo comparator: the "delicate"
//!   end of the efficiency trade-off Sec. V mentions.
//!
//! # Examples
//!
//! ```
//! use moloc_core::engine::MoLoc;
//! use moloc_core::tracker::MotionMeasurement;
//! use moloc_fingerprint::db::FingerprintDb;
//! use moloc_fingerprint::fingerprint::Fingerprint;
//! use moloc_geometry::LocationId;
//! use moloc_motion::matrix::{MotionDb, PairStats};
//! use moloc_stats::gaussian::Gaussian;
//!
//! // A two-location world: L1 and L2, 5 m apart going east.
//! let fdb = FingerprintDb::from_fingerprints(vec![
//!     (LocationId::new(1), Fingerprint::new(vec![-40.0, -60.0])),
//!     (LocationId::new(2), Fingerprint::new(vec![-60.0, -40.0])),
//! ])?;
//! let mut mdb = MotionDb::new(2);
//! mdb.insert(LocationId::new(1), LocationId::new(2), PairStats {
//!     direction: Gaussian::new(90.0, 5.0).unwrap(),
//!     offset: Gaussian::new(5.0, 0.3).unwrap(),
//!     sample_count: 10,
//! });
//!
//! let moloc = MoLoc::builder(fdb, mdb).build();
//! let mut tracker = moloc.tracker();
//! let first = tracker.observe(&Fingerprint::new(vec![-41.0, -59.0]), None)?;
//! assert_eq!(first, LocationId::new(1));
//! let second = tracker.observe(
//!     &Fingerprint::new(vec![-59.0, -41.0]),
//!     Some(MotionMeasurement { direction_deg: 88.0, offset_m: 5.1 }),
//! )?;
//! assert_eq!(second, LocationId::new(2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod batch;
pub mod config;
pub mod engine;
pub mod env;
pub mod error;
pub mod matching;
pub mod particle;
pub mod tracker;
pub mod viterbi;

pub use batch::BatchLocalizer;
pub use config::MoLocConfig;
pub use engine::MoLoc;
pub use error::{DegradationFlags, MolocError};
pub use tracker::MotionMeasurement;
