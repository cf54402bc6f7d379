//! RF propagation substrate for the MoLoc reproduction.
//!
//! The paper evaluates on real WiFi in an office hall; this crate is the
//! simulated counterpart that produces Received Signal Strength (RSS)
//! observations with the error structure that makes *fingerprint
//! ambiguity* happen:
//!
//! * [`dbm`] — the [`dbm::Dbm`] newtype for signal strengths.
//! * [`ap`] — access points with positions and transmit power.
//! * [`pathloss`] — deterministic distance-dependent attenuation models
//!   (log-distance, free-space, ITU indoor).
//! * [`shadowing`] — static per-(AP, position) shadow fading, the
//!   location-specific but time-stable part of the channel.
//! * [`sampler`] — the [`sampler::RadioEnvironment`] combining all of the
//!   above with per-sample temporal noise and a detection floor, and the
//!   [`sampler::RadioMap`] of mean scans at a grid's reference locations.
//! * [`survey`] — synthetic site surveys: n samples per reference
//!   location, split into fingerprint/motion/test sets like the paper's
//!   40/10/10.
//!
//! # Examples
//!
//! ```
//! use moloc_geometry::{FloorPlan, Vec2};
//! use moloc_geometry::polygon::Aabb;
//! use moloc_radio::ap::AccessPoint;
//! use moloc_radio::pathloss::LogDistance;
//! use moloc_radio::sampler::RadioEnvironment;
//! use rand::SeedableRng;
//!
//! let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(40.0, 16.0)).unwrap());
//! let env = RadioEnvironment::builder(plan)
//!     .ap(AccessPoint::new(0, Vec2::new(10.0, 8.0), -20.0))
//!     .path_loss(LogDistance::indoor_office())
//!     .temporal_sigma_db(3.0)
//!     .seed(7)
//!     .build()?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let scan = env.scan(Vec2::new(12.0, 8.0), &mut rng);
//! assert_eq!(scan.len(), 1);
//! # Ok::<(), moloc_radio::sampler::BuildError>(())
//! ```

pub mod ap;
pub mod dbm;
pub mod pathloss;
pub mod sampler;
pub mod shadowing;
pub mod survey;

pub use ap::{AccessPoint, ApId};
pub use dbm::Dbm;
pub use sampler::{RadioEnvironment, RadioMap};
