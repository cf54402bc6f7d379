//! The per-interval motion input of a localization step.
//!
//! Every query after the first carries the RLM measured since the
//! previous one; [`crate::batch::BatchLocalizer`] folds it into Eq. 7.

use serde::{Deserialize, Serialize};

/// The motion measured during one localization interval: the direction
/// and offset components of an RLM, extracted from compass and
/// accelerometer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotionMeasurement {
    /// Motion direction in compass degrees.
    pub direction_deg: f64,
    /// Walked distance in meters.
    pub offset_m: f64,
}
