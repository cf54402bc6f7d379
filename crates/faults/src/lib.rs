//! Fault-injection harness for the MoLoc reproduction.
//!
//! Real deployments never see the clean inputs the evaluation pipeline
//! synthesizes: APs drop out of scans, rogue transmitters bias RSS,
//! inertial streams stall, the crowdsourced motion database loses
//! cells, and the site survey goes stale. This crate injects those
//! failures deterministically so the degradation layer in
//! `moloc-core`/`moloc-fingerprint` can be exercised and regressed:
//!
//! * [`plan`] — the [`plan::FaultPlan`] trait, per-trace application,
//!   and the composable [`plan::FaultSuite`].
//! * [`rng`] — stateless splitmix64-keyed randomness: every decision is
//!   a pure function of `(seed, event coordinates)`, so scenarios
//!   reproduce byte-for-byte regardless of ordering or parallelism.
//! * [`ap`] — WiFi faults: [`ap::ApDropout`], [`ap::ApOutage`],
//!   [`ap::RogueAp`], and stale-survey [`ap::StaleDrift`].
//! * [`sensor`] — inertial faults: [`sensor::SensorGap`] and
//!   [`sensor::TimestampJitter`].
//! * [`rlm`] — motion-database faults: [`rlm::RlmCorruption`].
//! * [`stream`] — stream/lifecycle faults for the crash-safe session
//!   and live-update layers: [`stream::ScanReorder`],
//!   [`stream::ScanDuplicate`], [`stream::ScanLoss`],
//!   [`stream::ClockSkew`], [`stream::CheckpointCorruption`], and
//!   [`stream::StaleSnapshot`].
//! * [`spec`] — [`spec::FaultPlanSpec`], the JSON-round-trippable
//!   declarative form of a fault composition, printed by chaos tests
//!   on failure so every red run reproduces from the spec + seed.
//!
//! Every injector is an exact no-op at zero intensity, so a zero-fault
//! plan leaves the pipeline bit-identical to an uninjected run.
//!
//! # Examples
//!
//! ```
//! use moloc_faults::ap::ApDropout;
//! use moloc_faults::plan::{FaultPlan, FaultSuite};
//!
//! let suite = FaultSuite::new().with(ApDropout { rate: 0.25, seed: 7 });
//! let mut scan = vec![-40.0, -55.0, -60.0, -70.0];
//! suite.apply_scan(0, 0, &mut scan);
//! // Dropped readings become NaN; the masked metric ignores them.
//! assert!(scan.iter().any(|v| v.is_finite()));
//! ```

pub mod ap;
pub mod plan;
pub mod rlm;
pub mod rng;
pub mod sensor;
pub mod spec;
pub mod stream;

pub use ap::{ApDropout, ApOutage, RogueAp, StaleDrift};
pub use plan::{apply_to_trace, FaultPlan, FaultSuite};
pub use rlm::RlmCorruption;
pub use sensor::{SensorGap, TimestampJitter};
pub use spec::FaultPlanSpec;
pub use stream::{
    CheckpointCorruption, ClockSkew, ScanDuplicate, ScanLoss, ScanReorder, StaleSnapshot,
};
