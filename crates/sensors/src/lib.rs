//! IMU substrate for the MoLoc reproduction.
//!
//! The paper samples a Nexus S accelerometer and digital compass at
//! 10 Hz; this crate provides both the *synthesis* of such signals (for
//! the simulated walkers) and the *processing* the MoLoc prototype
//! performs on them:
//!
//! * [`series`] — uniformly sampled time series.
//! * [`noise`] — additive sensor noise models (bias + white noise).
//! * [`accel`] — synthetic gait accelerometer magnitude, reproducing the
//!   repetitive per-step signature of the paper's Fig. 4.
//! * [`steps`] — walking detection and per-step peak detection.
//! * [`counting`] — Discrete Step Counting (DSC) and the paper's
//!   Continuous Step Counting (CSC) with *decimal steps* (Sec. IV-B1).
//! * [`stride`] — step length from user height/weight (Constandache et
//!   al., reference 25 of the paper).
//! * [`compass`] — synthetic compass readings with placement offset.
//! * [`heading`] — Zee-style placement-independent heading-offset
//!   estimation and motion-direction extraction.
//! * [`filter`] — the moving-average smoothing of the step detector.
//! * [`gyro`] / [`fusion`] — the paper's future-work extension:
//!   synthetic gyroscope turn rates and Kalman compass–gyro heading
//!   fusion.
//!
//! # Examples
//!
//! ```
//! use moloc_sensors::accel::GaitSynthesizer;
//! use moloc_sensors::steps::StepDetector;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // 10 steps of 0.5 s at 10 Hz, as in the paper's Fig. 4.
//! let series = GaitSynthesizer::default().synthesize_walk(10, 0.5, 10.0, &mut rng);
//! let steps = StepDetector::default().detect(&series);
//! assert!((steps.len() as i64 - 10).abs() <= 1);
//! ```

pub mod accel;
pub mod compass;
pub mod counting;
pub mod filter;
pub mod fusion;
pub mod gyro;
pub mod heading;
pub mod noise;
pub mod series;
pub mod steps;
pub mod stride;

pub use series::TimeSeries;
