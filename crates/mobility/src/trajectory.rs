//! Timed trajectories with ground-truth pass events.
//!
//! A [`Trajectory`] turns a node path from [`crate::walk`] into timed
//! motion: the user walks straight aisle segments at her constant speed,
//! passing each reference location at a known time. Pass events are the
//! ground truth the evaluation scores against (the paper had users mark
//! passes manually).

use crate::user::UserProfile;
use moloc_geometry::{LocationId, ReferenceGrid, Vec2};
use serde::{Deserialize, Serialize};

/// A ground-truth pass over a reference location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PassEvent {
    /// Time of the pass, seconds from trace start.
    pub time: f64,
    /// The reference location passed.
    pub location: LocationId,
    /// Its position.
    pub position: Vec2,
}

/// A timed path through reference locations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    passes: Vec<PassEvent>,
    speed_mps: f64,
}

/// Error constructing a [`Trajectory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryError {
    /// The node path had fewer than two locations.
    TooShort,
    /// Two consecutive path nodes coincide.
    ZeroLengthSegment,
    /// A path node is not a location of the grid.
    OffGrid(LocationId),
    /// The user's walking speed is not positive and finite.
    BadSpeed,
}

impl std::fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrajectoryError::TooShort => write!(f, "trajectory needs at least two locations"),
            TrajectoryError::ZeroLengthSegment => {
                write!(f, "consecutive trajectory nodes must differ")
            }
            TrajectoryError::OffGrid(id) => write!(f, "trajectory node {id} is not on the grid"),
            TrajectoryError::BadSpeed => {
                write!(f, "walking speed must be positive and finite")
            }
        }
    }
}

impl std::error::Error for TrajectoryError {}

impl Trajectory {
    /// Times a node path for a user walking at constant speed, starting
    /// at `t = 0` on the first location.
    ///
    /// # Errors
    ///
    /// Returns [`TrajectoryError::TooShort`] for paths shorter than two
    /// nodes, [`TrajectoryError::BadSpeed`] when the user's speed is not
    /// positive and finite, [`TrajectoryError::OffGrid`] for the first
    /// node that is not a location of `grid`, and
    /// [`TrajectoryError::ZeroLengthSegment`] for repeated consecutive
    /// nodes.
    pub fn from_path(
        path: &[LocationId],
        grid: &ReferenceGrid,
        user: &UserProfile,
    ) -> Result<Self, TrajectoryError> {
        if path.len() < 2 {
            return Err(TrajectoryError::TooShort);
        }
        if !(user.speed_mps.is_finite() && user.speed_mps > 0.0) {
            return Err(TrajectoryError::BadSpeed);
        }
        if let Some(&id) = path.iter().find(|&&id| !grid.contains(id)) {
            return Err(TrajectoryError::OffGrid(id));
        }
        let mut passes = Vec::with_capacity(path.len());
        let mut t = 0.0;
        for (i, &id) in path.iter().enumerate() {
            if i > 0 {
                let d = grid.distance(path[i - 1], id);
                if d <= 0.0 {
                    return Err(TrajectoryError::ZeroLengthSegment);
                }
                t += d / user.speed_mps;
            }
            passes.push(PassEvent {
                time: t,
                location: id,
                position: grid.position(id),
            });
        }
        Ok(Self {
            passes,
            speed_mps: user.speed_mps,
        })
    }

    /// The ground-truth pass events, in time order.
    pub fn passes(&self) -> &[PassEvent] {
        &self.passes
    }

    /// The walking speed in m/s.
    pub fn speed_mps(&self) -> f64 {
        self.speed_mps
    }

    /// Total duration, seconds.
    pub fn duration(&self) -> f64 {
        self.passes.last().map_or(0.0, |p| p.time)
    }

    /// The user's position at time `t` (clamped to the trajectory's
    /// extent), interpolating linearly along the current segment.
    pub fn position_at(&self, t: f64) -> Vec2 {
        let first = self.passes.first().expect("trajectory has passes");
        if t <= first.time {
            return first.position;
        }
        for w in self.passes.windows(2) {
            if t <= w[1].time {
                let frac = (t - w[0].time) / (w[1].time - w[0].time);
                return w[0].position.lerp(w[1].position, frac);
            }
        }
        self.passes.last().expect("non-empty").position
    }

    /// The compass bearing of the segment the user is on at time `t`
    /// (the segment *after* the pass at or before `t`); `None` past the
    /// end.
    pub fn heading_at(&self, t: f64) -> Option<f64> {
        for w in self.passes.windows(2) {
            if t < w[1].time {
                return w[0].position.bearing_deg_to_checked(w[1].position);
            }
        }
        None
    }

    /// Iterates over the walked segments as
    /// `(from, to, start_time, end_time)`.
    pub fn segments(&self) -> impl Iterator<Item = (PassEvent, PassEvent)> + '_ {
        self.passes.windows(2).map(|w| (w[0], w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::paper_users;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn grid() -> ReferenceGrid {
        ReferenceGrid::new(Vec2::new(1.0, 5.0), 3, 2, 2.0, 2.0).unwrap()
    }

    fn user() -> UserProfile {
        UserProfile {
            speed_mps: 1.0,
            ..paper_users()[0]
        }
    }

    #[test]
    fn pass_times_accumulate_distance_over_speed() {
        let traj = Trajectory::from_path(&[l(1), l(2), l(5)], &grid(), &user()).unwrap();
        let times: Vec<f64> = traj.passes().iter().map(|p| p.time).collect();
        assert_eq!(times[0], 0.0);
        assert!((times[1] - 2.0).abs() < 1e-12);
        assert!((times[2] - 4.0).abs() < 1e-12);
        assert!((traj.duration() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn errors_on_bad_paths() {
        assert_eq!(
            Trajectory::from_path(&[l(1)], &grid(), &user()).unwrap_err(),
            TrajectoryError::TooShort
        );
        assert_eq!(
            Trajectory::from_path(&[l(1), l(1)], &grid(), &user()).unwrap_err(),
            TrajectoryError::ZeroLengthSegment
        );
    }

    #[test]
    fn off_grid_nodes_are_errors_not_panics() {
        // The grid has six locations; the first off-grid node is named.
        let cases: [(&[LocationId], LocationId); 3] = [
            (&[l(1), l(99)], l(99)),
            (&[l(7), l(1)], l(7)),
            (&[l(1), l(2), l(8), l(9)], l(8)),
        ];
        for (path, off) in cases {
            assert_eq!(
                Trajectory::from_path(path, &grid(), &user()).unwrap_err(),
                TrajectoryError::OffGrid(off)
            );
        }
    }

    #[test]
    fn speed_must_be_positive_and_finite() {
        for speed in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let walker = UserProfile {
                speed_mps: speed,
                ..user()
            };
            assert_eq!(
                Trajectory::from_path(&[l(1), l(2)], &grid(), &walker).unwrap_err(),
                TrajectoryError::BadSpeed,
                "speed {speed}"
            );
        }
        let slow = UserProfile {
            speed_mps: f64::MIN_POSITIVE,
            ..user()
        };
        assert!(Trajectory::from_path(&[l(1), l(2)], &grid(), &slow).is_ok());
    }

    #[test]
    fn position_interpolates_linearly() {
        let traj = Trajectory::from_path(&[l(1), l(2)], &grid(), &user()).unwrap();
        let mid = traj.position_at(1.0);
        assert!((mid.x - 2.0).abs() < 1e-12);
        assert!((mid.y - 5.0).abs() < 1e-12);
        // Clamps at both ends.
        assert_eq!(traj.position_at(-5.0), grid().position(l(1)));
        assert_eq!(traj.position_at(100.0), grid().position(l(2)));
    }

    #[test]
    fn heading_follows_segments() {
        let traj = Trajectory::from_path(&[l(1), l(2), l(5)], &grid(), &user()).unwrap();
        // First segment east (90°), second south (180°).
        assert!((traj.heading_at(0.5).unwrap() - 90.0).abs() < 1e-9);
        assert!((traj.heading_at(2.5).unwrap() - 180.0).abs() < 1e-9);
        assert_eq!(traj.heading_at(10.0), None);
    }

    #[test]
    fn segments_iterate_pairs() {
        let traj = Trajectory::from_path(&[l(1), l(2), l(3)], &grid(), &user()).unwrap();
        let segs: Vec<_> = traj.segments().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0.location, l(1));
        assert_eq!(segs[1].1.location, l(3));
    }

    #[test]
    fn faster_user_passes_sooner() {
        let mut fast = user();
        fast.speed_mps = 2.0;
        let slow_traj = Trajectory::from_path(&[l(1), l(2)], &grid(), &user()).unwrap();
        let fast_traj = Trajectory::from_path(&[l(1), l(2)], &grid(), &fast).unwrap();
        assert!(fast_traj.duration() < slow_traj.duration());
    }
}
