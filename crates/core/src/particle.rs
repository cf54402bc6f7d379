//! A particle-filter localizer — the "delicate" comparator.
//!
//! Sec. V states that MoLoc deliberately "makes a compromise on the
//! delicacy of the localization algorithm" to stay cheap on a phone.
//! This module implements the delicate end of that trade-off: a
//! sequential Monte Carlo localizer over *continuous* positions, with
//! the same inputs MoLoc consumes (a fingerprint query per interval and
//! the measured direction/offset). It lets the benchmark suite quantify
//! what the compromise costs and buys.
//!
//! Model:
//! * particles carry a position and a weight;
//! * the motion update dead-reckons each particle along the measured
//!   direction/offset with Gaussian jitter (walls and bounds are
//!   handled by the emission — a particle drifting into an
//!   RF-implausible spot loses weight and dies at the next resample);
//! * the emission weight interpolates fingerprint similarity over the
//!   nearest reference locations (inverse squared dissimilarity);
//! * systematic resampling triggers when the effective sample size
//!   drops below half the particle count;
//! * optionally (see [`ParticleLocalizer::with_motion_kernel`]) the
//!   crowdsourced motion database further reweights each particle by
//!   the Eq. 5 probability of its reference-location hop, read from a
//!   precomputed [`MotionKernel`].

use crate::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_fingerprint::metric::{Dissimilarity, Euclidean};
use moloc_geometry::{LocationId, ReferenceGrid, Vec2};
use moloc_motion::kernel::MotionKernel;
use moloc_stats::sampling::normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Particle-filter tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParticleConfig {
    /// Number of particles.
    pub particles: usize,
    /// Direction jitter per motion update, degrees.
    pub direction_sigma_deg: f64,
    /// Offset jitter per motion update, meters.
    pub offset_sigma_m: f64,
    /// Positional jitter when no motion is available, meters.
    pub idle_sigma_m: f64,
    /// Resample when `ESS < resample_fraction × particles`.
    pub resample_fraction: f64,
    /// RNG seed (the filter owns its randomness so runs reproduce).
    pub seed: u64,
}

impl Default for ParticleConfig {
    fn default() -> Self {
        Self {
            particles: 500,
            direction_sigma_deg: 8.0,
            offset_sigma_m: 0.5,
            idle_sigma_m: 0.5,
            resample_fraction: 0.5,
            seed: 0,
        }
    }
}

impl ParticleConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero particles, non-positive sigmas, or a resample
    /// fraction outside `(0, 1]`.
    pub fn validate(&self) {
        assert!(self.particles > 0, "need at least one particle");
        assert!(
            self.direction_sigma_deg > 0.0 && self.offset_sigma_m > 0.0 && self.idle_sigma_m > 0.0,
            "sigmas must be positive"
        );
        assert!(
            self.resample_fraction > 0.0 && self.resample_fraction <= 1.0,
            "resample fraction must be in (0, 1]"
        );
    }
}

#[derive(Debug, Clone, Copy)]
struct Particle {
    position: Vec2,
    weight: f64,
}

/// The sequential Monte Carlo localizer.
#[derive(Debug)]
pub struct ParticleLocalizer<'a> {
    fdb: &'a FingerprintDb,
    grid: &'a ReferenceGrid,
    config: ParticleConfig,
    metric: Euclidean,
    particles: Vec<Particle>,
    rng: StdRng,
    kernel: Option<&'a MotionKernel>,
    /// Columnar scan for the per-particle emission weights; `None`
    /// falls back to the per-fingerprint metric lookup.
    index: Option<FingerprintIndex>,
    /// Per-observation distance table: `emission_table[row]` is the
    /// query's dissimilarity to the index's `row`-th fingerprint,
    /// computed once per observation so the emission reweighting loop
    /// does a table lookup per particle instead of an O(APs) scan.
    emission_table: Vec<f64>,
}

impl<'a> ParticleLocalizer<'a> {
    /// Creates an (empty) filter; particles spawn on the first
    /// observation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(fdb: &'a FingerprintDb, grid: &'a ReferenceGrid, config: ParticleConfig) -> Self {
        config.validate();
        Self {
            fdb,
            grid,
            config,
            metric: Euclidean,
            particles: Vec::new(),
            rng: StdRng::seed_from_u64(config.seed),
            kernel: None,
            index: Some(FingerprintIndex::build(fdb)),
            emission_table: Vec::new(),
        }
    }

    /// Disables the columnar index: emission weights come from the
    /// per-fingerprint metric lookup (the pre-index reference path).
    pub fn with_exact_emissions(mut self) -> Self {
        self.index = None;
        self
    }

    /// Adds crowdsourced motion evidence: on every motion update, each
    /// particle's weight is also multiplied by the kernel's Eq. 5
    /// probability of hopping between the reference locations nearest
    /// its previous and proposed positions. Without this, the filter
    /// dead-reckons on the raw measurement alone (the default, which
    /// reproduces the paper's "delicate comparator" baseline).
    pub fn with_motion_kernel(mut self, kernel: &'a MotionKernel) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Number of live particles (0 before the first observation).
    pub fn particle_count(&self) -> usize {
        self.particles.len()
    }

    /// The effective sample size of the current weights.
    pub fn effective_sample_size(&self) -> f64 {
        let sum_sq: f64 = self.particles.iter().map(|p| p.weight * p.weight).sum();
        if sum_sq == 0.0 {
            0.0
        } else {
            1.0 / sum_sq
        }
    }

    /// Ranks the query against every index row once per observation:
    /// each row's value equals the per-row kernel evaluation the old
    /// per-particle path performed, so the table lookup is bit-exact.
    fn precompute_emissions(&mut self, query: &Fingerprint) {
        if let Some(index) = &self.index {
            index.rank_all_into(query.values(), &mut self.emission_table);
        }
    }

    fn emission_weight(&self, query: &Fingerprint, position: Vec2) -> f64 {
        // Inverse-square dissimilarity against the nearest surveyed
        // location, softened by the distance to it so positions between
        // reference points are not over-penalized.
        let nearest = self.grid.nearest(position);
        let m = if let Some(index) = &self.index {
            let Some(row) = index.position_of(nearest) else {
                return 1e-12;
            };
            self.emission_table[row]
        } else {
            let Some(fp) = self.fdb.fingerprint(nearest) else {
                return 1e-12;
            };
            self.metric.dissimilarity(query, fp)
        };
        let m = m.max(0.1);
        1.0 / (m * m)
    }

    fn spawn(&mut self, query: &Fingerprint) {
        self.precompute_emissions(query);
        let jitter = self.grid.dx().min(self.grid.dy()) / 3.0;
        let mut particles = Vec::with_capacity(self.config.particles);
        for k in 0..self.config.particles {
            let anchor = LocationId::from_index(k % self.fdb.len());
            // Map the k-th anchor index to an actual surveyed location.
            let id = self
                .fdb
                .locations()
                .nth(anchor.index())
                .expect("index within db");
            let base = self.grid.position(id);
            let position = Vec2::new(
                normal(&mut self.rng, base.x, jitter),
                normal(&mut self.rng, base.y, jitter),
            );
            let weight = self.emission_weight(query, position);
            particles.push(Particle { position, weight });
        }
        self.particles = particles;
        self.normalize();
    }

    fn normalize(&mut self) {
        let total: f64 = self.particles.iter().map(|p| p.weight).sum();
        if total <= 0.0 || !total.is_finite() {
            let uniform = 1.0 / self.particles.len() as f64;
            for p in &mut self.particles {
                p.weight = uniform;
            }
        } else {
            for p in &mut self.particles {
                p.weight /= total;
            }
        }
    }

    fn systematic_resample(&mut self) {
        let n = self.particles.len();
        let step = 1.0 / n as f64;
        let start: f64 = self.rng.gen::<f64>() * step;
        let mut cumulative = 0.0;
        let mut source = 0usize;
        let mut resampled = Vec::with_capacity(n);
        for k in 0..n {
            let target = start + k as f64 * step;
            while cumulative + self.particles[source].weight < target && source + 1 < n {
                cumulative += self.particles[source].weight;
                source += 1;
            }
            resampled.push(Particle {
                position: self.particles[source].position,
                weight: step,
            });
        }
        self.particles = resampled;
    }

    /// Processes one observation; returns the reference location
    /// nearest the weighted particle centroid.
    pub fn observe(
        &mut self,
        query: &Fingerprint,
        motion: Option<MotionMeasurement>,
    ) -> LocationId {
        let _span = moloc_obs::span("core.particle.observe");
        if self.particles.is_empty() {
            self.spawn(query);
            return self.estimate();
        }
        // Motion update.
        let (dir_sigma, off_sigma, idle_sigma) = (
            self.config.direction_sigma_deg,
            self.config.offset_sigma_m,
            self.config.idle_sigma_m,
        );
        for i in 0..self.particles.len() {
            let p = self.particles[i].position;
            let proposed = match motion {
                Some(m) => {
                    let d = normal(&mut self.rng, m.direction_deg, dir_sigma);
                    let o = normal(&mut self.rng, m.offset_m, off_sigma).max(0.0);
                    p.walk(d, o)
                }
                None => Vec2::new(
                    normal(&mut self.rng, p.x, idle_sigma),
                    normal(&mut self.rng, p.y, idle_sigma),
                ),
            };
            if let (Some(kernel), Some(m)) = (self.kernel, motion) {
                // Crowdsourced motion evidence: weight the hop between
                // the nearest reference locations by Eq. 5. Floored so
                // an untrained hop dampens rather than kills a particle.
                let from = self.grid.nearest(p);
                let to = self.grid.nearest(proposed);
                let p_hop = kernel
                    .pair_probability(from, to, m.direction_deg, m.offset_m)
                    .max(1e-9);
                self.particles[i].weight *= p_hop;
            }
            self.particles[i].position = proposed;
        }
        // Emission reweighting off the per-observation distance table.
        self.precompute_emissions(query);
        for i in 0..self.particles.len() {
            let w = self.emission_weight(query, self.particles[i].position);
            self.particles[i].weight *= w;
        }
        self.normalize();
        if self.effective_sample_size()
            < self.config.resample_fraction * self.particles.len() as f64
        {
            self.systematic_resample();
        }
        self.estimate()
    }

    /// The current estimate: the reference location nearest the
    /// weighted centroid.
    ///
    /// # Panics
    ///
    /// Panics if called before any observation.
    pub fn estimate(&self) -> LocationId {
        assert!(!self.particles.is_empty(), "no observations yet");
        let mut centroid = Vec2::ZERO;
        for p in &self.particles {
            centroid += p.position * p.weight;
        }
        self.grid.nearest(centroid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    /// 3×1 grid, 4 m spacing, going east; L1/L3 twins.
    fn world() -> (FingerprintDb, ReferenceGrid) {
        let fdb = FingerprintDb::from_fingerprints(vec![
            (l(1), fp(&[-50.0, -50.0])),
            (l(2), fp(&[-40.0, -70.0])),
            (l(3), fp(&[-50.0, -50.1])),
        ])
        .unwrap();
        let grid = ReferenceGrid::new(Vec2::new(2.0, 2.0), 3, 1, 4.0, 4.0).unwrap();
        (fdb, grid)
    }

    fn east(offset: f64) -> Option<MotionMeasurement> {
        Some(MotionMeasurement {
            direction_deg: 90.0,
            offset_m: offset,
        })
    }

    #[test]
    fn first_observation_spawns_and_localizes() {
        let (fdb, grid) = world();
        let mut pf = ParticleLocalizer::new(&fdb, &grid, ParticleConfig::default());
        assert_eq!(pf.particle_count(), 0);
        let est = pf.observe(&fp(&[-41.0, -69.0]), None);
        assert_eq!(est, l(2));
        assert_eq!(pf.particle_count(), 500);
    }

    #[test]
    fn motion_disambiguates_the_twins() {
        let (fdb, grid) = world();
        let mut pf = ParticleLocalizer::new(&fdb, &grid, ParticleConfig::default());
        pf.observe(&fp(&[-40.0, -70.0]), None);
        let est = pf.observe(&fp(&[-50.0, -50.05]), east(4.0));
        assert_eq!(est, l(3), "eastward particles land on L3");
    }

    #[test]
    fn westward_motion_picks_the_other_twin() {
        let (fdb, grid) = world();
        let mut pf = ParticleLocalizer::new(&fdb, &grid, ParticleConfig::default());
        pf.observe(&fp(&[-40.0, -70.0]), None);
        let est = pf.observe(
            &fp(&[-50.0, -50.05]),
            Some(MotionMeasurement {
                direction_deg: 270.0,
                offset_m: 4.0,
            }),
        );
        assert_eq!(est, l(1));
    }

    #[test]
    fn motion_kernel_reweighting_still_disambiguates_the_twins() {
        use crate::config::MoLocConfig;
        use moloc_motion::matrix::{MotionDb, PairStats};
        use moloc_stats::gaussian::Gaussian;

        let (fdb, grid) = world();
        let mut mdb = MotionDb::new(3);
        let east_pair = PairStats {
            direction: Gaussian::new(90.0, 5.0).unwrap(),
            offset: Gaussian::new(4.0, 0.3).unwrap(),
            sample_count: 10,
        };
        mdb.insert(l(1), l(2), east_pair);
        mdb.insert(l(2), l(3), east_pair);
        let kernel = crate::matching::build_kernel(&mdb, &MoLocConfig::default());
        let mut pf = ParticleLocalizer::new(&fdb, &grid, ParticleConfig::default())
            .with_motion_kernel(&kernel);
        pf.observe(&fp(&[-40.0, -70.0]), None);
        let est = pf.observe(&fp(&[-50.0, -50.05]), east(4.0));
        assert_eq!(est, l(3), "kernel evidence agrees with the walk east");
    }

    #[test]
    fn indexed_emissions_match_exact_path() {
        // The columnar emission weights are bit-identical to the
        // per-fingerprint metric path, and neither consumes RNG, so the
        // whole particle evolution must coincide.
        let (fdb, grid) = world();
        let run = |exact: bool| {
            let mut pf = ParticleLocalizer::new(&fdb, &grid, ParticleConfig::default());
            if exact {
                pf = pf.with_exact_emissions();
            }
            let a = pf.observe(&fp(&[-40.0, -70.0]), None);
            let b = pf.observe(&fp(&[-50.0, -50.05]), east(4.0));
            let c = pf.observe(&fp(&[-41.0, -69.0]), east(4.0));
            (a, b, c, pf.effective_sample_size())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn runs_are_reproducible_via_seed() {
        let (fdb, grid) = world();
        let run = |seed| {
            let config = ParticleConfig {
                seed,
                ..ParticleConfig::default()
            };
            let mut pf = ParticleLocalizer::new(&fdb, &grid, config);
            pf.observe(&fp(&[-40.0, -70.0]), None);
            pf.observe(&fp(&[-50.0, -50.05]), east(4.0))
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn ess_stays_positive_and_resampling_bounds_degeneracy() {
        let (fdb, grid) = world();
        let mut pf = ParticleLocalizer::new(&fdb, &grid, ParticleConfig::default());
        pf.observe(&fp(&[-40.0, -70.0]), None);
        for _ in 0..10 {
            pf.observe(&fp(&[-50.0, -50.05]), east(4.0));
            let ess = pf.effective_sample_size();
            assert!(ess > 1.0, "ESS collapsed to {ess}");
        }
    }

    #[test]
    #[should_panic(expected = "no observations")]
    fn estimate_before_observe_panics() {
        let (fdb, grid) = world();
        let pf = ParticleLocalizer::new(&fdb, &grid, ParticleConfig::default());
        let _ = pf.estimate();
    }

    #[test]
    #[should_panic(expected = "at least one particle")]
    fn zero_particles_rejected() {
        let (fdb, grid) = world();
        let config = ParticleConfig {
            particles: 0,
            ..ParticleConfig::default()
        };
        let _ = ParticleLocalizer::new(&fdb, &grid, config);
    }
}
