//! Per-interval motion measurements.
//!
//! The motion processing unit of the paper slices a trace at reference-
//! location passes and, for each interval, extracts the raw ingredients
//! of an RLM: the (uncorrected) compass direction and the step counts.
//! Heading-offset correction and step-length scaling happen downstream,
//! where the calibration lives.

use crate::render::SensorTrace;
use moloc_sensors::counting::{csc, dsc};
use moloc_sensors::series::TimeSeries;
use moloc_sensors::steps::StepDetector;
use moloc_stats::circular::circular_mean_deg;
use serde::{Deserialize, Serialize};

/// Raw motion measurements of one inter-pass interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalMeasurement {
    /// Index of the starting pass within the trace.
    pub from_index: usize,
    /// Index of the ending pass.
    pub to_index: usize,
    /// Circular mean of the *raw* compass readings over the interval
    /// (before heading-offset correction); `None` when readings cancel.
    pub raw_direction_deg: Option<f64>,
    /// Continuous (decimal) step count over the interval.
    pub steps_csc: f64,
    /// Discrete (integral) step count over the interval.
    pub steps_dsc: f64,
    /// Interval duration in seconds.
    pub duration_s: f64,
}

/// Measures every inter-pass interval of a trace.
///
/// # Examples
///
/// See the integration tests in `tests/` for an end-to-end use; the
/// shape is:
///
/// ```ignore
/// let measurements = measure_intervals(&trace, &StepDetector::default());
/// assert_eq!(measurements.len(), trace.pass_count() - 1);
/// ```
pub fn measure_intervals(trace: &SensorTrace, detector: &StepDetector) -> Vec<IntervalMeasurement> {
    // One scratch set serves every interval: the slices, the smoothed
    // signal, and the step list are rewritten in place, so the whole
    // trace allocates four buffers instead of four per interval.
    let mut accel = TimeSeries::default();
    let mut compass = TimeSeries::default();
    let mut smoothed = TimeSeries::default();
    let mut steps = Vec::new();
    trace
        .passes
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let (t0, t1) = (w[0].time, w[1].time);
            trace.accel.slice_time_into(t0, t1, &mut accel);
            trace.compass.slice_time_into(t0, t1, &mut compass);
            detector.detect_into(&accel, &mut smoothed, &mut steps);
            IntervalMeasurement {
                from_index: i,
                to_index: i + 1,
                // Non-finite compass samples (sensor gaps) are skipped;
                // the final guard catches an all-gap interval, where the
                // mean itself is NaN — both degrade to `None`, the same
                // as cancelling readings.
                raw_direction_deg: circular_mean_deg(
                    compass.values().iter().copied().filter(|v| v.is_finite()),
                )
                .filter(|d| d.is_finite()),
                steps_csc: csc(&steps, t1 - t0),
                steps_dsc: dsc(&steps),
                duration_s: t1 - t0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::TraceRenderer;
    use crate::trajectory::Trajectory;
    use crate::user::paper_users;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2};
    use moloc_radio::ap::AccessPoint;
    use moloc_radio::{RadioEnvironment, RadioMap};
    use moloc_stats::circular::abs_diff_deg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn trace(seed: u64) -> SensorTrace {
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(20.0, 10.0)).unwrap());
        let env = RadioEnvironment::builder(plan)
            .ap(AccessPoint::new(0, Vec2::new(10.0, 5.0), -20.0))
            .build()
            .unwrap();
        let grid = ReferenceGrid::new(Vec2::new(2.0, 8.0), 3, 2, 4.0, 4.0).unwrap();
        let user = paper_users()[1];
        let traj = Trajectory::from_path(&[l(1), l(2), l(5), l(4)], &grid, &user).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        TraceRenderer::default().render(&traj, &user, &RadioMap::new(&env, &grid), &mut rng)
    }

    #[test]
    fn one_measurement_per_interval() {
        let t = trace(1);
        let m = measure_intervals(&t, &StepDetector::default());
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].from_index, 0);
        assert_eq!(m[2].to_index, 3);
    }

    #[test]
    fn step_counts_match_walked_distance() {
        let t = trace(2);
        let m = measure_intervals(&t, &StepDetector::default());
        // Each interval is 4 m; expected steps = 4 / step_length.
        let expected = 4.0 / t.user.step_length_m();
        for (i, meas) in m.iter().enumerate() {
            assert!(
                (meas.steps_csc - expected).abs() < 1.6,
                "interval {i}: csc {} vs {expected}",
                meas.steps_csc
            );
            assert!(meas.steps_dsc >= 1.0);
        }
    }

    #[test]
    fn raw_directions_include_placement_offset() {
        let t = trace(3);
        let offset = t.user.placement_offset_deg + t.user.compass_bias_deg;
        let m = measure_intervals(&t, &StepDetector::default());
        // Segment headings: east (90°), south (180°), west (270°).
        for (meas, truth) in m.iter().zip([90.0, 180.0, 270.0]) {
            let raw = meas.raw_direction_deg.unwrap();
            assert!(
                abs_diff_deg(raw, truth + offset) < 8.0,
                "raw {raw} vs {truth} + {offset}"
            );
        }
    }

    #[test]
    fn empty_sensor_streams_yield_empty_measurements() {
        // A trace whose sensors recorded nothing (or a single sample)
        // must still measure every interval — no steps, no direction —
        // instead of panicking in the step detector's moment estimates.
        let mut t = trace(5);
        for series in [
            TimeSeries::default(),
            TimeSeries::new(0.0, 10.0, vec![9.8]).unwrap(),
        ] {
            t.accel = series.clone();
            t.compass = series;
            let m = measure_intervals(&t, &StepDetector::default());
            assert_eq!(m.len(), t.passes.len() - 1);
            for meas in &m {
                assert_eq!(meas.steps_csc, 0.0);
                assert_eq!(meas.steps_dsc, 0.0);
                // A lone compass sample may still give a direction;
                // it just must not be NaN.
                assert!(meas.raw_direction_deg.is_none_or(|d| d.is_finite()));
            }
        }
    }

    #[test]
    fn gapped_compass_directions_stay_finite_or_none() {
        // NaN compass samples (sensor gaps) are masked from the
        // circular mean; a fully-gapped interval yields `None`.
        let mut t = trace(6);
        t.compass = t.compass.map(|_| f64::NAN);
        let m = measure_intervals(&t, &StepDetector::default());
        assert!(m.iter().all(|meas| meas.raw_direction_deg.is_none()));
    }

    #[test]
    fn durations_match_pass_times() {
        let t = trace(4);
        let m = measure_intervals(&t, &StepDetector::default());
        for (meas, w) in m.iter().zip(t.passes.windows(2)) {
            assert!((meas.duration_s - (w[1].time - w[0].time)).abs() < 1e-9);
        }
    }
}
