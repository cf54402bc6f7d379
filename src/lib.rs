//! # MoLoc — motion-assisted indoor localization
//!
//! A full reproduction of *MoLoc: On Distinguishing Fingerprint Twins*
//! (ICDCS 2013). WiFi RSS fingerprinting suffers from *fingerprint
//! ambiguity* — distinct locations with near-identical fingerprints
//! ("twins"); MoLoc resolves it by fusing the user's motion (direction
//! and walked distance from phone sensors) with fingerprint matching,
//! against a crowdsourced *motion database* of inter-location
//! measurements.
//!
//! This umbrella crate re-exports the whole stack:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `moloc-core` | the MoLoc algorithm (the Eq. 4–7 step, engine) |
//! | [`fingerprint`] | `moloc-fingerprint` | fingerprint DB, the Euclidean index (k-NN), WiFi, centroid & Horus baselines |
//! | [`motion`] | `moloc-motion` | the motion database and its crowdsourced construction |
//! | [`sensors`] | `moloc-sensors` | IMU synthesis & processing: steps (DSC/CSC), heading |
//! | [`mobility`] | `moloc-mobility` | user profiles, random walks, sensor-trace rendering |
//! | [`radio`] | `moloc-radio` | RF propagation, shadowing, RSS scans, site surveys |
//! | [`geometry`] | `moloc-geometry` | floor plans, reference grids, walkable graphs |
//! | [`stats`] | `moloc-stats` | Gaussians, circular statistics, ECDFs |
//! | [`faults`] | `moloc-faults` | seeded fault injection: AP dropout, rogue APs, sensor gaps, RLM corruption, stream & lifecycle faults |
//! | [`session`] | `moloc-session` | crash-safe streaming: reorder buffer, checkpointed tracker state, recovery |
//! | [`live`] | `moloc-live` | dynamic crowdsourced database updates: epoch snapshots, atomic publication, live localizers |
//! | [`verify`] | `moloc-verify` | differential oracles (naive Eq. 4–7, exhaustive k-NN, checkpoint framing) and zero-cost runtime invariant checks |
//! | [`obs`] | `moloc-obs` | zero-dependency metrics: counters, histograms, timing spans, snapshots |
//! | [`eval`] | `moloc-eval` | the simulated office-hall testbed and every paper experiment |
//!
//! # Quickstart
//!
//! ```
//! use moloc::core::engine::MoLoc;
//! use moloc::core::tracker::MotionMeasurement;
//! use moloc::fingerprint::db::FingerprintDb;
//! use moloc::fingerprint::fingerprint::Fingerprint;
//! use moloc::geometry::LocationId;
//! use moloc::motion::matrix::{MotionDb, PairStats};
//! use moloc::stats::gaussian::Gaussian;
//!
//! // Two fingerprint-twin locations, L1 and L2, 5 m apart going east.
//! let fdb = FingerprintDb::from_fingerprints(vec![
//!     (LocationId::new(1), Fingerprint::new(vec![-40.0, -60.0])),
//!     (LocationId::new(2), Fingerprint::new(vec![-60.0, -40.0])),
//! ])?;
//! let mut mdb = MotionDb::new(2);
//! mdb.insert(LocationId::new(1), LocationId::new(2), PairStats {
//!     direction: Gaussian::new(90.0, 5.0).unwrap(),
//!     offset: Gaussian::new(5.0, 0.3).unwrap(),
//!     sample_count: 12,
//! });
//!
//! let system = MoLoc::builder(fdb, mdb).build();
//! let mut tracker = system.tracker();
//! tracker.observe(&Fingerprint::new(vec![-41.0, -59.0]), None)?;
//! let here = tracker.observe(
//!     &Fingerprint::new(vec![-59.0, -41.0]),
//!     Some(MotionMeasurement { direction_deg: 92.0, offset_m: 4.9 }),
//! )?;
//! assert_eq!(here, LocationId::new(2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Reproducing the paper
//!
//! Every figure and table of the paper's evaluation regenerates with:
//!
//! ```text
//! cargo run -p moloc-eval --bin repro --release -- --exp all
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured numbers.

pub use moloc_core as core;
pub use moloc_eval as eval;
pub use moloc_faults as faults;
pub use moloc_fingerprint as fingerprint;
pub use moloc_geometry as geometry;
pub use moloc_live as live;
pub use moloc_mobility as mobility;
pub use moloc_motion as motion;
pub use moloc_obs as obs;
pub use moloc_radio as radio;
pub use moloc_sensors as sensors;
pub use moloc_session as session;
pub use moloc_stats as stats;
pub use moloc_verify as verify;

/// Commonly used types, one import away.
pub mod prelude {
    pub use moloc_core::config::MoLocConfig;
    pub use moloc_core::engine::MoLoc;
    pub use moloc_core::error::{DegradationFlags, MolocError};
    pub use moloc_core::tracker::MotionMeasurement;
    pub use moloc_faults::plan::{FaultPlan, FaultSuite};
    pub use moloc_fingerprint::db::FingerprintDb;
    pub use moloc_fingerprint::fingerprint::Fingerprint;
    pub use moloc_fingerprint::nn_localizer::NnLocalizer;
    pub use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
    pub use moloc_live::{DbSnapshot, LiveLocalizer, SnapshotPublisher, UpdateLog};
    pub use moloc_mobility::user::UserProfile;
    pub use moloc_motion::builder::{MapReference, MotionDbBuilder};
    pub use moloc_motion::filter::SanitationConfig;
    pub use moloc_motion::matrix::{MotionDb, PairStats};
    pub use moloc_motion::rlm::Rlm;
    pub use moloc_radio::ap::AccessPoint;
    pub use moloc_radio::RadioEnvironment;
    pub use moloc_sensors::counting::CountingMethod;
    pub use moloc_sensors::steps::StepDetector;
    pub use moloc_session::{ScanEvent, SessionConfig, SessionError, StreamingSession};
}
