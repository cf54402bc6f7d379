//! Sensor-trace rendering.
//!
//! [`TraceRenderer`] turns a timed [`Trajectory`] into everything the
//! paper's phone would have recorded: accelerometer magnitude and
//! compass readings at 10 Hz, and a WiFi scan at every reference-
//! location pass (the trace-driven protocol of Sec. VI-A).

use crate::trajectory::{PassEvent, Trajectory};
use crate::user::UserProfile;
use moloc_radio::RadioMap;
use moloc_sensors::gyro::GyroSynthesizer;
use moloc_sensors::series::TimeSeries;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully rendered walking trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorTrace {
    /// The walker.
    pub user: UserProfile,
    /// Ground-truth passes over reference locations.
    pub passes: Vec<PassEvent>,
    /// Accelerometer magnitude at the renderer's sample rate.
    pub accel: TimeSeries,
    /// Compass readings (degrees, wrapped) at the same rate.
    pub compass: TimeSeries,
    /// Gyroscope z-axis turn rates (°/s) at the same rate — the raw
    /// material of the paper's future-work heading fusion.
    pub gyro: TimeSeries,
    /// One RSS scan (dBm per AP) per pass, aligned with `passes`.
    pub scans: Vec<Vec<f64>>,
}

impl SensorTrace {
    /// Number of passes (and scans).
    pub fn pass_count(&self) -> usize {
        self.passes.len()
    }

    /// Total duration in seconds.
    pub fn duration(&self) -> f64 {
        self.passes.last().map_or(0.0, |p| p.time)
    }
}

/// Renders trajectories into sensor traces against a radio environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRenderer {
    /// IMU sample rate in Hz (paper: 10).
    pub sample_rate_hz: f64,
    /// Gyroscope error model (typical consumer MEMS defaults).
    pub gyro_model: GyroSynthesizer,
}

impl Default for TraceRenderer {
    fn default() -> Self {
        Self {
            sample_rate_hz: 10.0,
            gyro_model: GyroSynthesizer::new(0.3, 0.5),
        }
    }
}

impl TraceRenderer {
    /// Renders one trace.
    ///
    /// The user walks the whole trajectory at constant cadence, so the
    /// accelerometer is one continuous gait signal; compass readings
    /// follow the segment bearings through the user's placement offset
    /// and noise; one fresh RSS scan is drawn at each pass, about the
    /// map's mean scan for the pass's location.
    ///
    /// # Panics
    ///
    /// Panics if the sample rate is not positive, or if `map` was built
    /// from another grid than the one `trajectory` was timed on (a pass
    /// off the map's grid, or at another position there).
    pub fn render<R: Rng + ?Sized>(
        &self,
        trajectory: &Trajectory,
        user: &UserProfile,
        map: &RadioMap<'_>,
        rng: &mut R,
    ) -> SensorTrace {
        assert!(self.sample_rate_hz > 0.0, "sample rate must be positive");
        user.validate();
        let duration = trajectory.duration();
        let (accel, _) = user.gait().synthesize_segment(
            duration,
            user.step_period_s(),
            0.0,
            self.sample_rate_hz,
            rng,
        );

        let compass_model = user.compass();
        let n = accel.len();
        let dt = 1.0 / self.sample_rate_hz;
        let mut last_heading = 0.0;
        let mut true_headings = Vec::with_capacity(n);
        let compass_values: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                if let Some(h) = trajectory.heading_at(t) {
                    last_heading = h;
                }
                true_headings.push(last_heading);
                compass_model.read(last_heading, rng)
            })
            .collect();
        let compass = TimeSeries::new(0.0, self.sample_rate_hz, compass_values)
            .expect("positive sample rate");
        let truth_series =
            TimeSeries::new(0.0, self.sample_rate_hz, true_headings).expect("positive sample rate");
        let gyro = self.gyro_model.synthesize(&truth_series, rng);

        let scans = trajectory
            .passes()
            .iter()
            .map(|p| {
                assert!(
                    map.grid().contains(p.location)
                        && map.grid().position(p.location) == p.position,
                    "radio map built from another grid than the trajectory's"
                );
                map.scan(p.location, rng)
                    .into_iter()
                    .map(f64::from)
                    .collect()
            })
            .collect();

        SensorTrace {
            user: *user,
            passes: trajectory.passes().to_vec(),
            accel,
            compass,
            gyro,
            scans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::paper_users;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2};
    use moloc_radio::ap::AccessPoint;
    use moloc_radio::RadioEnvironment;
    use moloc_sensors::steps::StepDetector;
    use moloc_stats::circular::abs_diff_deg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn world() -> (RadioEnvironment, ReferenceGrid) {
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(20.0, 10.0)).unwrap());
        let env = RadioEnvironment::builder(plan)
            .ap(AccessPoint::new(0, Vec2::new(5.0, 5.0), -20.0))
            .ap(AccessPoint::new(1, Vec2::new(15.0, 5.0), -20.0))
            .temporal_sigma_db(2.0)
            .build()
            .unwrap();
        let grid = ReferenceGrid::new(Vec2::new(2.0, 8.0), 3, 2, 4.0, 4.0).unwrap();
        (env, grid)
    }

    fn render_simple(seed: u64) -> SensorTrace {
        let (env, grid) = world();
        let user = paper_users()[1];
        let traj = Trajectory::from_path(&[l(1), l(2), l(5)], &grid, &user).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        TraceRenderer::default().render(&traj, &user, &RadioMap::new(&env, &grid), &mut rng)
    }

    #[test]
    fn trace_shape_is_consistent() {
        let trace = render_simple(1);
        assert_eq!(trace.pass_count(), 3);
        assert_eq!(trace.scans.len(), 3);
        assert_eq!(trace.scans[0].len(), 2);
        assert_eq!(trace.accel.len(), trace.compass.len());
        assert!((trace.accel.duration() - trace.duration()).abs() < 0.2);
    }

    #[test]
    fn accel_contains_detectable_steps() {
        let trace = render_simple(2);
        let steps = StepDetector::default().detect(&trace.accel);
        // 8 m at user 2's step length (~0.70 m) ≈ 11 steps.
        let expected = 8.0 / trace.user.step_length_m();
        assert!(
            (steps.len() as f64 - expected).abs() <= 2.0,
            "{} steps vs expected {expected}",
            steps.len()
        );
    }

    #[test]
    fn compass_tracks_offset_heading_per_segment() {
        let trace = render_simple(3);
        let offset = trace.user.placement_offset_deg + trace.user.compass_bias_deg;
        // First segment heads east (90°).
        let first = trace.compass.slice_time(0.0, 3.0);
        let mean =
            moloc_stats::circular::circular_mean_deg(first.values().iter().copied()).unwrap();
        assert!(
            abs_diff_deg(mean, 90.0 + offset) < 6.0,
            "mean {mean} vs 90 + {offset}"
        );
    }

    #[test]
    fn scans_reflect_pass_positions() {
        let (env, grid) = world();
        let trace = render_simple(4);
        // First pass is at L1, near AP0 and far from AP1 → RSS(ap0) >
        // RSS(ap1) on average.
        let _ = env;
        let p0 = grid.position(l(1));
        assert_eq!(trace.passes[0].position, p0);
        assert!(trace.scans[0][0] > trace.scans[0][1]);
    }

    #[test]
    fn rendering_is_reproducible() {
        assert_eq!(render_simple(9), render_simple(9));
        assert_ne!(render_simple(9), render_simple(10));
    }
}
