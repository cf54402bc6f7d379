//! Seeded input generators: synthetic grid deployments with planted
//! mirrored-row fingerprint twins, per-user walks with noisy motion
//! measurements, arrival perturbation and crowdsourced delta batches.
//!
//! Everything is drawn from [`Rng`], a SplitMix64 stream keyed by the
//! run's seed and a per-purpose stream number, so the same seed gives
//! byte-identical inputs on every run. The program under test only ever
//! sees the generated values.

use moloc_core::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
use moloc_motion::builder::MapReference;
use moloc_motion::matrix::{MotionDb, PairStats};
use moloc_motion::rlm::Rlm;
use moloc_stats::circular::normalize_deg;
use moloc_stats::gaussian::Gaussian;

/// Grid spacing of every synthetic deployment, metres.
pub const SPACING_M: f64 = 2.0;
/// Per-(location, AP) shadowing of the survey fingerprints, dB. Small
/// against the scan noise, so fingerprints vary smoothly in space,
/// adjacent cells are often confused and the error metrics rest on many
/// small error events rather than a few far ones.
const SHADOW_DB: f64 = 1.0;
/// RSS noise of a user's scan around the location's fingerprint, dB.
const SCAN_NOISE_DB: f64 = 2.0;
/// RSS noise of one crowdsourced survey sample, dB.
const SURVEY_NOISE_DB: f64 = 2.0;
/// Heading noise of a measured step (and of a crowdsourced RLM), degrees.
const HEADING_NOISE_DEG: f64 = 6.0;
/// Offset noise of a measured step, metres.
const OFFSET_NOISE_M: f64 = 0.2;
/// Rows per twin band; within each band rows 2/13 and 6/9 are planted
/// fingerprint twins, mirrored about the band's centre line.
const TWIN_BAND: u32 = 16;
const TWIN_ROWS: [(u32, u32); 2] = [(2, 13), (6, 9)];

/// SplitMix64: a tiny, fully specified generator, so inputs do not
/// depend on any library's random-number implementation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for one purpose (`stream`) under one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Standard normal (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// A synthetic deployment: a `cols x rows` grid spaced [`SPACING_M`]
/// in an open hall, with one survey fingerprint per location.
///
/// APs sit at seeded positions; a location's fingerprint is log-distance
/// path loss plus seeded per-(location, AP) shadowing. Twin rows are
/// then planted: in every band of 16 rows, rows 2 and 13 (and 6 and 9)
/// get the same fingerprints up to 0.3 dB, so a quarter of all
/// locations have a fingerprint twin 6 m or 22 m away that only motion
/// can tell apart.
#[derive(Debug)]
pub struct Deployment {
    pub grid: ReferenceGrid,
    plan: FloorPlan,
    aps: usize,
    fingerprints: Vec<f64>,
    /// Number of planted twin location pairs.
    pub twin_pairs: usize,
}

impl Deployment {
    /// `rows` must be a multiple of 16 (the twin band).
    pub fn generate(seed: u64, cols: u32, rows: u32, aps: usize) -> Deployment {
        let (w, h) = (SPACING_M * f64::from(cols), SPACING_M * f64::from(rows));
        let grid = ReferenceGrid::new(Vec2::new(1.0, h - 1.0), cols, rows, SPACING_M, SPACING_M)
            .expect("positive grid");
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(w, h)).expect("positive hall"));
        let mut rng = Rng::new(seed, 1);
        // APs on a square-ish lattice over the hall, each jittered by up
        // to a quarter cell, so every seed's hall is covered alike.
        let side = (aps as f64).sqrt().ceil() as usize;
        let (cw, ch) = (w / side as f64, h / side as f64);
        let ap_at: Vec<Vec2> = (0..aps)
            .map(|a| {
                let (i, j) = ((a % side) as f64, (a / side) as f64);
                Vec2::new(
                    (i + 0.5 + 0.5 * (rng.unit() - 0.5)) * cw,
                    (j + 0.5 + 0.5 * (rng.unit() - 0.5)) * ch,
                )
            })
            .collect();
        let mut fingerprints = Vec::with_capacity(grid.len() * aps);
        for id in grid.ids() {
            let p = grid.position(id);
            for &ap in &ap_at {
                let d = p.dist(ap).max(1.0);
                fingerprints.push(-30.0 - 30.0 * d.log10() + SHADOW_DB * rng.normal());
            }
        }
        let mut twin_pairs = 0;
        for band in 0..rows / TWIN_BAND {
            for (a, b) in TWIN_ROWS {
                let (src, dst) = (band * TWIN_BAND + a, band * TWIN_BAND + b);
                for col in 0..cols {
                    let s = grid.id_at(src, col).index() * aps;
                    let d = grid.id_at(dst, col).index() * aps;
                    for k in 0..aps {
                        fingerprints[d + k] = fingerprints[s + k] + 0.3 * rng.normal();
                    }
                    twin_pairs += 1;
                }
            }
        }
        Deployment {
            grid,
            plan,
            aps,
            fingerprints,
            twin_pairs,
        }
    }

    pub fn len(&self) -> usize {
        self.grid.len()
    }

    pub fn fingerprint(&self, id: LocationId) -> &[f64] {
        &self.fingerprints[id.index() * self.aps..(id.index() + 1) * self.aps]
    }

    /// The survey as a fingerprint database.
    pub fn fingerprint_db(&self) -> FingerprintDb {
        FingerprintDb::from_fingerprints(
            self.grid
                .ids()
                .map(|id| (id, Fingerprint::new(self.fingerprint(id).to_vec())))
                .collect(),
        )
        .expect("generated survey is finite and non-empty")
    }

    /// A 4-neighbour motion database inserted pair by pair with
    /// [`MotionDb::insert`]: every horizontally or vertically adjacent
    /// pair, with seeded noise on the fitted heading and offset.
    pub fn motion_db(&self, seed: u64) -> MotionDb {
        let mut rng = Rng::new(seed, 2);
        let mut db = MotionDb::new(self.len());
        for (from, to) in self.adjacent_pairs() {
            let bearing = self.grid.bearing_deg(from, to).expect("distinct cells");
            let stats = PairStats {
                direction: Gaussian::new(
                    normalize_deg(bearing + 2.0 * rng.normal()),
                    8.0 + 2.0 * rng.unit(),
                )
                .expect("positive std"),
                offset: Gaussian::new(SPACING_M + 0.1 * rng.normal(), 0.3 + 0.1 * rng.unit())
                    .expect("positive std"),
                sample_count: 8 + rng.below(8) as u64,
            };
            db.insert(from, to, stats);
        }
        db
    }

    /// Every canonical adjacent pair (east and south neighbours).
    pub fn adjacent_pairs(&self) -> impl Iterator<Item = (LocationId, LocationId)> + '_ {
        self.grid.ids().flat_map(move |id| {
            [1, 2]
                .into_iter()
                .filter_map(move |heading| self.neighbour(id, heading).map(|to| (id, to)))
        })
    }

    /// The map reference (all-pairs walking distances) of the hall.
    pub fn map_reference(&self) -> MapReference {
        MapReference::new(&self.grid, &WalkGraph::from_grid(&self.grid, &self.plan))
    }

    /// The neighbour of `id` one cell towards `heading` (0 north, 1 east,
    /// 2 south, 3 west), if inside the grid.
    fn neighbour(&self, id: LocationId, heading: usize) -> Option<LocationId> {
        let (row, col) = self.grid.row_col(id);
        let (row, col) = match heading {
            0 => (row.checked_sub(1)?, col),
            1 => (row, col + 1),
            2 => (row + 1, col),
            _ => (row, col.checked_sub(1)?),
        };
        (row < self.grid.rows() && col < self.grid.cols()).then(|| self.grid.id_at(row, col))
    }

    fn noisy(&self, id: LocationId, sigma_db: f64, rng: &mut Rng) -> Vec<f64> {
        self.fingerprint(id)
            .iter()
            .map(|v| v + sigma_db * rng.normal())
            .collect()
    }

    /// A crowdsourced RLM for one step `from -> to`, with sensor noise.
    fn rlm(&self, from: LocationId, to: LocationId, rng: &mut Rng) -> Rlm {
        let m = self.measure(from, to, rng);
        Rlm::new(from, to, m.direction_deg, m.offset_m).expect("distinct cells, finite motion")
    }

    fn measure(&self, from: LocationId, to: LocationId, rng: &mut Rng) -> MotionMeasurement {
        let bearing = self.grid.bearing_deg(from, to).expect("distinct cells");
        MotionMeasurement {
            direction_deg: normalize_deg(bearing + HEADING_NOISE_DEG * rng.normal()),
            offset_m: (self.grid.distance(from, to) + OFFSET_NOISE_M * rng.normal()).max(0.05),
        }
    }
}

/// One step of a user's walk: where they are, what they scanned and the
/// motion measured since the previous step (`None` for the first).
#[derive(Debug, Clone)]
pub struct Step {
    pub truth: LocationId,
    pub scan: Vec<f64>,
    pub motion: Option<MotionMeasurement>,
}

/// A walk of `len` steps over the grid's 4-neighbourhood from a seeded
/// start: the walker keeps its heading with probability 3/4 and turns
/// otherwise (also at walls).
pub fn walk(dep: &Deployment, rng: &mut Rng, len: usize) -> Vec<Step> {
    let mut at = LocationId::from_index(rng.below(dep.len()));
    let mut heading = rng.below(4);
    let mut steps = Vec::with_capacity(len);
    steps.push(Step {
        truth: at,
        scan: dep.noisy(at, SCAN_NOISE_DB, rng),
        motion: None,
    });
    while steps.len() < len {
        if rng.unit() >= 0.75 {
            heading = rng.below(4);
        }
        let next = loop {
            if let Some(to) = dep.neighbour(at, heading) {
                break to;
            }
            heading = rng.below(4);
        };
        let motion = dep.measure(at, next, rng);
        at = next;
        steps.push(Step {
            truth: at,
            scan: dep.noisy(at, SCAN_NOISE_DB, rng),
            motion: Some(motion),
        });
    }
    steps
}

/// Largest number of places an arrival is moved late by a swap.
pub const MAX_SHIFT: usize = 3;
const SWAP_RATE: f64 = 0.1;
const DUPLICATE_RATE: f64 = 0.05;

/// The arrival order of one user's `len` events, as sequence numbers:
/// in order, except that seeded swaps of disjoint pairs move an event
/// up to [`MAX_SHIFT`] places, and seeded duplicates re-send an event
/// one to four arrivals after its first copy. Displacements stay far
/// inside the default 32-event reorder window, so no event is lost.
pub fn arrivals(len: usize, rng: &mut Rng) -> Vec<u64> {
    let mut order: Vec<u64> = (0..len as u64).collect();
    let mut i = 0;
    while i < len {
        if rng.unit() < SWAP_RATE {
            let j = i + 1 + rng.below(MAX_SHIFT);
            if j < len {
                order.swap(i, j);
                i = j;
            }
        }
        i += 1;
    }
    let mut out = Vec::with_capacity(len + len / 16);
    let mut resend: Vec<(usize, u64)> = Vec::new();
    for seq in order {
        out.push(seq);
        if rng.unit() < DUPLICATE_RATE {
            resend.push((1 + rng.below(4), seq));
        }
        resend.retain_mut(|(wait, seq)| {
            *wait -= 1;
            if *wait == 0 {
                out.push(*seq);
            }
            *wait > 0
        });
    }
    out.extend(resend.into_iter().map(|(_, seq)| seq));
    out
}

/// `per_location` noisy survey samples of every location, in id order.
pub fn initial_survey(
    dep: &Deployment,
    rng: &mut Rng,
    per_location: usize,
) -> Vec<(LocationId, Vec<f64>)> {
    dep.grid
        .ids()
        .flat_map(|id| std::iter::repeat_n(id, per_location))
        .map(|id| (id, dep.noisy(id, SURVEY_NOISE_DB, rng)))
        .collect()
}

/// `per_pair` RLMs over every adjacent pair, each walked in a seeded
/// direction.
pub fn initial_rlms(dep: &Deployment, rng: &mut Rng, per_pair: usize) -> Vec<Rlm> {
    let pairs: Vec<_> = dep.adjacent_pairs().collect();
    let mut out = Vec::with_capacity(pairs.len() * per_pair);
    for (a, b) in pairs {
        for _ in 0..per_pair {
            let (from, to) = if rng.unit() < 0.5 { (a, b) } else { (b, a) };
            out.push(dep.rlm(from, to, rng));
        }
    }
    out
}

/// One crowdsourced contribution batch for the live database.
#[derive(Debug, Clone)]
pub struct DeltaBatch {
    pub samples: Vec<(LocationId, Vec<f64>)>,
    pub rlms: Vec<Rlm>,
}

/// `samples` survey samples at seeded locations plus `rlms` RLMs over
/// seeded adjacent steps.
pub fn delta_batch(dep: &Deployment, rng: &mut Rng, samples: usize, rlms: usize) -> DeltaBatch {
    let samples = (0..samples)
        .map(|_| {
            let id = LocationId::from_index(rng.below(dep.len()));
            (id, dep.noisy(id, SURVEY_NOISE_DB, rng))
        })
        .collect();
    let rlms = (0..rlms)
        .map(|_| {
            let from = LocationId::from_index(rng.below(dep.len()));
            let to = loop {
                if let Some(to) = dep.neighbour(from, rng.below(4)) {
                    break to;
                }
            };
            dep.rlm(from, to, rng)
        })
        .collect();
    DeltaBatch { samples, rlms }
}
