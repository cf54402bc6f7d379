//! Fuzz of [`UpdateLog`] ingest: survey samples for a few locations in
//! random order, mixing ordinary RSS with NaN, ±∞ and ±1e308 and some
//! samples of the wrong length, interleaved with RLMs and snapshot
//! builds.
//!
//! * Nothing panics.
//! * A sample is accepted exactly when it has the log's AP count and
//!   [`FingerprintDb::from_samples`] over the location's accepted
//!   samples plus this one stays finite.
//! * A refused call changes neither `pending_deltas()` nor the next
//!   snapshot's digest.
//! * Every snapshot's index (ids, row bits, mirror presence) equals
//!   `FingerprintIndex::build(&FingerprintDb::from_samples(..))` over
//!   the accepted samples in arrival order.

use moloc_fingerprint::db::{DbError, FingerprintDb};
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
use moloc_live::{LiveError, UpdateLog};
use moloc_motion::builder::MapReference;
use moloc_motion::filter::SanitationConfig;
use moloc_motion::rlm::Rlm;
use proptest::prelude::*;
use std::collections::BTreeMap;

const AP_COUNT: usize = 2;
/// Surveyed ids; the map has six.
const IDS: u32 = 4;

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

/// 3×2 grid spaced 2 m in an open hall; ids 1..=6.
fn map() -> MapReference {
    let grid = ReferenceGrid::new(Vec2::new(1.0, 3.0), 3, 2, 2.0, 2.0).unwrap();
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 5.0)).unwrap());
    let graph = WalkGraph::from_grid(&grid, &plan);
    MapReference::new(&grid, &graph)
}

#[derive(Debug, Clone)]
enum Op {
    Survey(u32, Vec<f64>),
    Rlm(Rlm),
    Build,
}

/// Mostly ordinary RSS; otherwise a non-finite value or one whose
/// running mean can overflow.
fn value_strategy() -> impl Strategy<Value = f64> {
    (0u32..12, -95.0..-30.0f64).prop_map(|(kind, rss)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 1e308,
        4 => -1e308,
        _ => rss,
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        (0u32..10, 1u32..=IDS, 0u32..8),
        prop::collection::vec(value_strategy(), AP_COUNT + 1),
        (1u32..=6, 1u32..=6, 0.0..360.0f64, 0.0..6.0f64),
    )
        .prop_map(|((kind, id, width), values, (a, b, dir, off))| match kind {
            0..=5 => {
                // One sample in eight is one AP short or one too long.
                let len = match width {
                    0 => AP_COUNT - 1,
                    1 => AP_COUNT + 1,
                    _ => AP_COUNT,
                };
                Op::Survey(id, values[..len].to_vec())
            }
            6..=7 => {
                let to = if a == b { a % 6 + 1 } else { b };
                Op::Rlm(Rlm::new(l(a), l(to), dir, off).expect("valid rlm"))
            }
            _ => Op::Build,
        })
}

/// The accepted samples grouped per location in arrival order.
type History = BTreeMap<LocationId, Vec<Fingerprint>>;

/// Whether the log should accept `values` for `id` on top of `history`.
fn model_accepts(history: &History, id: LocationId, values: &[f64]) -> bool {
    if values.len() != AP_COUNT || values.iter().any(|v| !v.is_finite()) {
        return false;
    }
    let mut samples = history.get(&id).cloned().unwrap_or_default();
    samples.push(Fingerprint::new(values.to_vec()));
    FingerprintDb::from_samples([(id, samples)]).is_ok()
}

/// An index's AP count, `(id, row bits)` per row, and mirror presence.
fn rows_of(index: &FingerprintIndex) -> (usize, Vec<(LocationId, Vec<u64>)>, bool) {
    let rows = (0..index.len())
        .map(|p| {
            let bits = index.row(p).iter().map(|v| v.to_bits()).collect();
            (index.ids()[p], bits)
        })
        .collect();
    (index.ap_count(), rows, index.has_mirror())
}

fn digest(log: &mut UpdateLog) -> Option<u64> {
    log.build_snapshot(0).ok().map(|s| s.digest())
}

fn check_build(log: &mut UpdateLog, history: &History, epoch: u64) -> Result<(), TestCaseError> {
    let built = log.build_snapshot(epoch);
    if history.is_empty() {
        prop_assert_eq!(built.unwrap_err(), LiveError::Db(DbError::Empty));
        return Ok(());
    }
    let snapshot = built.expect("accepted samples build");
    let oracle = FingerprintIndex::build(
        &FingerprintDb::from_samples(history.clone()).expect("accepted means are finite"),
    );
    prop_assert_eq!(rows_of(&snapshot.index), rows_of(&oracle));
    Ok(())
}

proptest! {
    #[test]
    fn ingest_refuses_what_would_poison_a_mean_and_matches_from_samples(
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut log = UpdateLog::new(AP_COUNT, map(), SanitationConfig::paper())
            .expect("valid config");
        let mut history = History::new();
        let mut epoch = 0;
        for op in &ops {
            match op {
                Op::Survey(id, values) => {
                    let id = l(*id);
                    let accept = model_accepts(&history, id, values);
                    let pending = log.pending_deltas();
                    let before = digest(&mut log);
                    match log.observe_survey_sample(id, values) {
                        Ok(()) => {
                            prop_assert!(accept, "accepted {:?} for {}", values, id);
                            prop_assert_eq!(log.pending_deltas(), pending + 1);
                            history
                                .entry(id)
                                .or_default()
                                .push(Fingerprint::new(values.clone()));
                        }
                        Err(e) => {
                            prop_assert!(!accept, "refused {:?} for {}: {}", values, id, e);
                            let want = if values.len() == AP_COUNT {
                                LiveError::NonFiniteSample(id)
                            } else {
                                LiveError::ApCount { expected: AP_COUNT, found: values.len() }
                            };
                            prop_assert_eq!(e, want);
                            prop_assert_eq!(log.pending_deltas(), pending);
                            prop_assert_eq!(digest(&mut log), before);
                        }
                    }
                }
                Op::Rlm(rlm) => {
                    log.observe_rlm(*rlm);
                }
                Op::Build => {
                    epoch += 1;
                    check_build(&mut log, &history, epoch)?;
                }
            }
        }
        check_build(&mut log, &history, epoch + 1)?;
    }
}
