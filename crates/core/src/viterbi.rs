//! An offline HMM (Viterbi) localizer — the related-work comparator.
//!
//! The paper's related work discusses accelerometer-assisted HMM
//! localization (Liu et al., IEEE/ION PLANS 2010) and argues it is
//! "prone to initial localization error intrinsic to HMM, and the high
//! computational overhead may drain off the battery". This module
//! implements that comparator over the *same* databases MoLoc uses:
//!
//! * states — all reference locations;
//! * emissions — the fingerprint evidence of Eq. 4 extended to every
//!   location;
//! * transitions — the motion matching of Eq. 5 (with the same
//!   missing-pair and stationary conventions as the online step).
//!
//! Unlike [`crate::batch::BatchLocalizer`], Viterbi decodes a whole
//! trace at once (it needs the full observation sequence) and its cost
//! per step is `O(n²)` in the number of locations versus MoLoc's
//! `O(k²)` — the efficiency argument of Sec. V quantified by the
//! benchmark suite.

use crate::config::MoLocConfig;
use crate::matching::build_kernel;
use crate::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::matrix::MotionDb;

/// Error from [`ViterbiLocalizer::localize_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViterbiError {
    /// The observation sequence was empty.
    EmptyTrace,
    /// A query fingerprint length does not match the database.
    QueryLength {
        /// Expected AP count.
        expected: usize,
        /// Found AP count.
        found: usize,
    },
}

impl std::fmt::Display for ViterbiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViterbiError::EmptyTrace => write!(f, "cannot decode an empty trace"),
            ViterbiError::QueryLength { expected, found } => {
                write!(f, "query has {found} APs, database expects {expected}")
            }
        }
    }
}

impl std::error::Error for ViterbiError {}

/// The offline HMM localizer.
///
/// Transition probabilities are read from a [`MotionKernel`]
/// precomputed at construction: the `O(n²)` inner loop per step is pure
/// table arithmetic with no map lookups or `erfc` evaluations. Emission
/// distances come from a [`FingerprintIndex`] of the fingerprint
/// database, whose rows are the states in id order.
#[derive(Debug)]
pub struct ViterbiLocalizer<'a> {
    fingerprint_db: &'a FingerprintDb,
    kernel: MotionKernel,
    index: FingerprintIndex,
}

impl<'a> ViterbiLocalizer<'a> {
    /// Creates a localizer over the same databases a MoLoc deployment
    /// carries, precomputing the motion kernel for the transition
    /// matrix and the columnar fingerprint index for the emissions.
    pub fn new(
        fingerprint_db: &'a FingerprintDb,
        motion_db: &'a MotionDb,
        config: MoLocConfig,
    ) -> Self {
        let kernel = build_kernel(motion_db, &config);
        Self {
            fingerprint_db,
            kernel,
            index: FingerprintIndex::build(fingerprint_db),
        }
    }

    /// Log emission probabilities for every step of a trace: the index
    /// ranks each step's query against every row
    /// ([`FingerprintIndex::rank_all_into`]) and the distance row is
    /// normalized independently.
    fn log_emissions(&self, queries: &[(Fingerprint, Option<MotionMeasurement>)]) -> Vec<Vec<f64>> {
        let mut distances = Vec::with_capacity(self.index.len());
        queries
            .iter()
            .map(|(query, _)| {
                self.index.rank_all_into(query.values(), &mut distances);
                log_emissions_from_distances(&distances)
            })
            .collect()
    }

    /// Decodes the maximum-likelihood location sequence for a trace.
    /// The i-th motion measurement describes the interval *before* the
    /// i-th query (the first is ignored and conventionally `None`).
    ///
    /// # Errors
    ///
    /// Returns [`ViterbiError`] on empty traces or mismatched query
    /// lengths.
    pub fn localize_trace(
        &self,
        queries: &[(Fingerprint, Option<MotionMeasurement>)],
    ) -> Result<Vec<LocationId>, ViterbiError> {
        let _span = moloc_obs::span("core.viterbi.localize_trace");
        if queries.is_empty() {
            return Err(ViterbiError::EmptyTrace);
        }
        for (fp, _) in queries {
            if fp.len() != self.fingerprint_db.ap_count() {
                return Err(ViterbiError::QueryLength {
                    expected: self.fingerprint_db.ap_count(),
                    found: fp.len(),
                });
            }
        }
        let states: Vec<LocationId> = self.fingerprint_db.locations().collect();
        let n = states.len();

        // All steps' emissions up front.
        let mut all_emissions = self.log_emissions(queries);

        // δ[s] = best log-probability of any path ending in state s.
        let mut delta = std::mem::take(&mut all_emissions[0]);
        let mut backpointers: Vec<Vec<usize>> = Vec::with_capacity(queries.len() - 1);

        for (step, (_, motion)) in queries.iter().enumerate().skip(1) {
            let emissions = &all_emissions[step];
            let mut next = vec![f64::NEG_INFINITY; n];
            let mut back = vec![0usize; n];
            for (j, &to) in states.iter().enumerate() {
                let mut best = f64::NEG_INFINITY;
                let mut best_i = 0;
                for (i, &from) in states.iter().enumerate() {
                    let log_trans = match motion {
                        Some(m) => self
                            .kernel
                            .pair_probability(from, to, m.direction_deg, m.offset_m)
                            .max(1e-300)
                            .ln(),
                        // No motion info: uninformative transition.
                        None => -(n as f64).ln(),
                    };
                    let score = delta[i] + log_trans;
                    if score > best {
                        best = score;
                        best_i = i;
                    }
                }
                next[j] = best + emissions[j];
                back[j] = best_i;
            }
            delta = next;
            backpointers.push(back);
        }

        // Backtrack from the best terminal state. `total_cmp` keeps the
        // selection total even if a pathological query drove a score to
        // NaN — the decode then degrades to an arbitrary-but-
        // deterministic path instead of panicking mid-trace.
        let mut idx = delta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty state space")
            .0;
        let mut path = vec![states[idx]];
        for back in backpointers.iter().rev() {
            idx = back[idx];
            path.push(states[idx]);
        }
        path.reverse();
        Ok(path)
    }
}

/// Eq. 4 weights (1/dissimilarity, exact matches dominating) over one
/// query's distance row, normalized across the full state space and
/// floored before the log.
fn log_emissions_from_distances(distances: &[f64]) -> Vec<f64> {
    let weights: Vec<f64> = distances
        .iter()
        .map(|&m| if m <= f64::EPSILON { 1e12 } else { 1.0 / m })
        .collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| (w / total).max(1e-300).ln())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_motion::matrix::PairStats;
    use moloc_stats::gaussian::Gaussian;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    /// Corridor L1–L2–L3 going east; L1 and L3 are twins.
    fn world() -> (FingerprintDb, MotionDb) {
        let fdb = FingerprintDb::from_fingerprints(vec![
            (l(1), fp(&[-50.0, -50.0])),
            (l(2), fp(&[-40.0, -70.0])),
            (l(3), fp(&[-50.0, -50.1])),
        ])
        .unwrap();
        let mut mdb = MotionDb::new(3);
        let east = PairStats {
            direction: Gaussian::new(90.0, 5.0).unwrap(),
            offset: Gaussian::new(4.0, 0.3).unwrap(),
            sample_count: 10,
        };
        mdb.insert(l(1), l(2), east);
        mdb.insert(l(2), l(3), east);
        (fdb, mdb)
    }

    fn east() -> Option<MotionMeasurement> {
        Some(MotionMeasurement {
            direction_deg: 90.0,
            offset_m: 4.0,
        })
    }

    #[test]
    fn decodes_eastward_walk() {
        let (fdb, mdb) = world();
        let v = ViterbiLocalizer::new(&fdb, &mdb, MoLocConfig::paper());
        let path = v
            .localize_trace(&[
                (fp(&[-50.0, -50.0]), None),
                (fp(&[-41.0, -69.0]), east()),
                (fp(&[-50.0, -50.08]), east()),
            ])
            .unwrap();
        assert_eq!(path, vec![l(1), l(2), l(3)]);
    }

    #[test]
    fn offline_smoothing_fixes_a_wrong_looking_start() {
        // The HMM's strength: the *whole* sequence re-explains the first
        // observation. A twin query at t0 becomes unambiguous once the
        // subsequent eastward walk only fits starting from L1.
        let (fdb, mdb) = world();
        let v = ViterbiLocalizer::new(&fdb, &mdb, MoLocConfig::paper());
        let path = v
            .localize_trace(&[
                (fp(&[-50.0, -50.05]), None), // twin tie at t0
                (fp(&[-40.0, -70.0]), east()),
                (fp(&[-50.0, -50.05]), east()),
            ])
            .unwrap();
        assert_eq!(path[0], l(1), "smoothing should resolve the start");
        assert_eq!(path, vec![l(1), l(2), l(3)]);
    }

    #[test]
    fn no_motion_degrades_to_per_query_fingerprinting() {
        let (fdb, mdb) = world();
        let v = ViterbiLocalizer::new(&fdb, &mdb, MoLocConfig::paper());
        let path = v
            .localize_trace(&[(fp(&[-40.0, -70.0]), None), (fp(&[-50.0, -50.0]), None)])
            .unwrap();
        assert_eq!(path[0], l(2));
        // Twin tie resolved deterministically (first state in id order).
        assert_eq!(path[1], l(1));
    }

    #[test]
    fn errors_on_bad_input() {
        let (fdb, mdb) = world();
        let v = ViterbiLocalizer::new(&fdb, &mdb, MoLocConfig::paper());
        assert_eq!(v.localize_trace(&[]).unwrap_err(), ViterbiError::EmptyTrace);
        assert_eq!(
            v.localize_trace(&[(fp(&[-40.0]), None)]).unwrap_err(),
            ViterbiError::QueryLength {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn nan_queries_and_motion_do_not_panic() {
        // Corrupted motion components (NaN direction/offset from a
        // buggy sensor stream) must decode to *some* path, never panic
        // the backtrack. (NaN RSS can't reach here: `Fingerprint::new`
        // rejects non-finite values at construction.)
        let (fdb, mdb) = world();
        let v = ViterbiLocalizer::new(&fdb, &mdb, MoLocConfig::paper());
        let path = v
            .localize_trace(&[
                (fp(&[-50.0, -50.0]), None),
                (
                    fp(&[-50.0, -50.0]),
                    Some(MotionMeasurement {
                        direction_deg: f64::NAN,
                        offset_m: f64::NAN,
                    }),
                ),
                (fp(&[-40.0, -70.0]), east()),
            ])
            .unwrap();
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn path_length_matches_trace_length() {
        let (fdb, mdb) = world();
        let v = ViterbiLocalizer::new(&fdb, &mdb, MoLocConfig::paper());
        let queries: Vec<_> = (0..7)
            .map(|i| {
                let f = if i % 2 == 0 {
                    fp(&[-40.0, -70.0])
                } else {
                    fp(&[-50.0, -50.0])
                };
                (f, if i == 0 { None } else { east() })
            })
            .collect();
        let path = v.localize_trace(&queries).unwrap();
        assert_eq!(path.len(), 7);
    }
}
