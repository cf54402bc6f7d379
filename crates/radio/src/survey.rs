//! Synthetic site surveys.
//!
//! The paper collects 60 RSS samples at each of the 28 reference
//! locations and splits them 40/10/10 into fingerprint-database,
//! motion-database and test sets (Sec. VI-A). [`SiteSurvey`] reproduces
//! that protocol against a [`RadioMap`].

use crate::sampler::{RadioMap, RssScan};
use moloc_geometry::LocationId;
use rand::Rng;

/// The three-way split of survey samples at one location.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationSamples {
    /// The reference location.
    pub location: LocationId,
    /// Samples for building the fingerprint database (paper: 40).
    pub fingerprint: Vec<RssScan>,
    /// Samples for location estimates while building the motion
    /// database (paper: 10).
    pub motion: Vec<RssScan>,
    /// Held-out samples for localization tests (paper: 10).
    pub test: Vec<RssScan>,
}

/// A complete site survey over a reference grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSurvey {
    samples: Vec<LocationSamples>,
    ap_count: usize,
}

/// The per-location sample counts of a survey split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurveySplit {
    /// Fingerprint-database samples per location.
    pub fingerprint: usize,
    /// Motion-database samples per location.
    pub motion: usize,
    /// Test samples per location.
    pub test: usize,
}

impl SurveySplit {
    /// The paper's 40/10/10 split.
    pub fn paper() -> Self {
        Self {
            fingerprint: 40,
            motion: 10,
            test: 10,
        }
    }

    /// Total samples per location.
    pub fn total(&self) -> usize {
        self.fingerprint + self.motion + self.test
    }
}

impl SiteSurvey {
    /// Conducts a survey: draws `split.total()` noisy scans at every
    /// reference location of the map's grid, in id order from one RNG
    /// stream, and splits them.
    ///
    /// # Panics
    ///
    /// Panics if the split has zero fingerprint samples.
    pub fn conduct<R: Rng + ?Sized>(map: &RadioMap<'_>, split: SurveySplit, rng: &mut R) -> Self {
        assert!(split.fingerprint > 0, "survey needs fingerprint samples");
        let samples = map
            .grid()
            .ids()
            .map(|id| {
                let mut all: Vec<RssScan> = (0..split.total()).map(|_| map.scan(id, rng)).collect();
                let test = all.split_off(split.fingerprint + split.motion);
                let motion = all.split_off(split.fingerprint);
                LocationSamples {
                    location: id,
                    fingerprint: all,
                    motion,
                    test,
                }
            })
            .collect();
        Self {
            samples,
            ap_count: map.env().aps().len(),
        }
    }

    /// Per-location sample sets, ordered by location id.
    pub fn locations(&self) -> &[LocationSamples] {
        &self.samples
    }

    /// The samples for one location.
    pub fn location(&self, id: LocationId) -> Option<&LocationSamples> {
        self.samples.iter().find(|s| s.location == id)
    }

    /// Number of APs per scan.
    pub fn ap_count(&self) -> usize {
        self.ap_count
    }

    /// Iterates `(location, scan)` over the fingerprint-set samples.
    pub fn fingerprint_set(&self) -> impl Iterator<Item = (LocationId, &RssScan)> {
        self.samples
            .iter()
            .flat_map(|s| s.fingerprint.iter().map(move |scan| (s.location, scan)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ap::AccessPoint;
    use crate::sampler::RadioEnvironment;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, ReferenceGrid, Vec2};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn paper_split_counts() {
        let s = SurveySplit::paper();
        assert_eq!(s.total(), 60);
    }

    #[test]
    fn survey_has_expected_shape() {
        let (env, grid) = world();
        let map = RadioMap::new(&env, &grid);
        let mut rng = StdRng::seed_from_u64(3);
        let survey = SiteSurvey::conduct(&map, SurveySplit::paper(), &mut rng);
        assert_eq!(survey.locations().len(), 6);
        assert_eq!(survey.ap_count(), 2);
        for loc in survey.locations() {
            assert_eq!(loc.fingerprint.len(), 40);
            assert_eq!(loc.motion.len(), 10);
            assert_eq!(loc.test.len(), 10);
            for scan in loc.fingerprint.iter().chain(&loc.motion).chain(&loc.test) {
                assert_eq!(scan.len(), 2);
            }
        }
    }

    #[test]
    fn fingerprint_set_iterates_all_training_scans() {
        let (env, grid) = world();
        let map = RadioMap::new(&env, &grid);
        let mut rng = StdRng::seed_from_u64(3);
        let survey = SiteSurvey::conduct(&map, SurveySplit::paper(), &mut rng);
        assert_eq!(survey.fingerprint_set().count(), 6 * 40);
    }

    #[test]
    fn location_lookup() {
        let (env, grid) = world();
        let map = RadioMap::new(&env, &grid);
        let mut rng = StdRng::seed_from_u64(3);
        let survey = SiteSurvey::conduct(&map, SurveySplit::paper(), &mut rng);
        assert!(survey.location(LocationId::new(4)).is_some());
        assert!(survey.location(LocationId::new(99)).is_none());
    }

    #[test]
    fn survey_is_reproducible() {
        let (env, grid) = world();
        let map = RadioMap::new(&env, &grid);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            SiteSurvey::conduct(&map, SurveySplit::paper(), &mut rng)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    #[should_panic(expected = "fingerprint samples")]
    fn zero_fingerprint_split_panics() {
        let (env, grid) = world();
        let mut rng = StdRng::seed_from_u64(3);
        let split = SurveySplit {
            fingerprint: 0,
            motion: 1,
            test: 1,
        };
        let _ = SiteSurvey::conduct(&RadioMap::new(&env, &grid), split, &mut rng);
    }
}
