//! Drift experiment (DESIGN.md §17): a statically-deployed database
//! versus one that follows live crowdsourced updates.
//!
//! The deployment story behind the paper's Sec. IV-B: the operator
//! seeds the system with a *thin* site survey (a fraction of the full
//! 60-samples-per-location budget) plus the RLMs harvested from the
//! first few training walks, then keeps folding in the remaining
//! contributions as users walk — one published epoch per delta batch.
//! Two arms localize the same test corpus:
//!
//! * **static** — pinned to the epoch-0 seed database forever;
//! * **dynamic** — served from each published epoch in turn.
//!
//! Every published epoch is also checked against a from-scratch
//! rebuild over the merged delta sequence: the content digests must be
//! **bit-identical** (the `moloc-live` determinism contract), so the
//! sweep doubles as an end-to-end equivalence audit on real pipeline
//! data. Results serialize to `drift.json` via `repro --drift-out`.

use crate::metrics::{flatten, summarize};
use crate::parallel::par_run;
use crate::pipeline::{localize_moloc, CountingMethod, EvalWorld, Setting, TraceSplit};
use crate::report;
use moloc_core::config::MoLocConfig;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use moloc_live::{DbSnapshot, SnapshotPublisher, UpdateLog};
use moloc_motion::filter::SanitationConfig;
use moloc_motion::rlm::Rlm;
use serde::{Deserialize, Serialize};

/// Survey samples per location in the epoch-0 seed database (the full
/// survey carries 60).
const INITIAL_SAMPLES: usize = 12;

/// Published delta batches after the seed.
const EPOCHS: usize = 3;

/// One evaluated arm: the test corpus localized against one database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftArm {
    /// Database epoch this arm served from (0 = the static seed).
    pub epoch: u64,
    /// Crowdsourced deltas folded into this epoch's publish (0 for the
    /// seed).
    pub deltas_folded: u64,
    /// Content digest of the served snapshot.
    pub digest: u64,
    /// Content digest of a from-scratch rebuild over the merged delta
    /// sequence — must equal `digest` (asserted during the run).
    pub rebuild_digest: u64,
    /// Scored passes.
    pub passes: usize,
    /// Exact-hit fraction.
    pub accuracy: f64,
    /// Median localization error in meters.
    pub median_error_m: f64,
    /// Mean localization error in meters.
    pub mean_error_m: f64,
}

/// The full drift sweep (serialized as `drift.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Drift {
    /// World seed.
    pub seed: u64,
    /// AP count of the evaluated setting.
    pub n_aps: usize,
    /// Survey samples per location in the seed database.
    pub initial_samples_per_location: usize,
    /// The static arm (epoch 0), evaluated once.
    pub static_arm: DriftArm,
    /// The dynamic arm, re-evaluated at every published epoch.
    pub dynamic_arms: Vec<DriftArm>,
}

/// One crowdsourced contribution, replayable into any [`UpdateLog`].
#[derive(Debug, Clone)]
enum Delta {
    Survey(LocationId, Vec<f64>),
    Rlm(Rlm),
}

fn apply(log: &mut UpdateLog, delta: &Delta) {
    match delta {
        Delta::Survey(id, values) => log
            .observe_survey_sample(*id, values)
            .expect("survey samples match the AP count"),
        Delta::Rlm(rlm) => {
            log.observe_rlm(*rlm);
        }
    }
}

/// RLMs harvested from the training walks exactly as
/// [`EvalWorld::setting_with`] harvests them, but against the *seed*
/// database — crowdsourced measurements come from the estimator that
/// is actually deployed. Returned per trace, in trace order.
fn harvest_rlms(
    world: &EvalWorld,
    fdb: &FingerprintDb,
    index: &FingerprintIndex,
    n_aps: usize,
) -> Vec<Vec<Rlm>> {
    par_run(world.corpus.train.len(), |i| {
        let analysis = world.analyze(
            TraceSplit::Train,
            i,
            fdb,
            index,
            CountingMethod::Continuous,
            n_aps,
        );
        analysis
            .intervals
            .iter()
            .zip(&analysis.measurements)
            .filter_map(|(interval, measurement)| {
                let m = measurement.as_ref()?;
                let from = analysis.nn_estimates[interval.from_index];
                let to = analysis.nn_estimates[interval.to_index];
                if from == to {
                    return None;
                }
                Rlm::new(from, to, m.direction_deg, m.offset_m).ok()
            })
            .collect()
    })
}

/// A [`Setting`] view over a published snapshot, so the standard
/// evaluation pipeline serves it unchanged.
fn setting_view(snapshot: &DbSnapshot, n_aps: usize) -> Setting {
    Setting {
        n_aps,
        fdb: snapshot.fdb().clone(),
        motion_db: (*snapshot.motion_db).clone(),
        build_report: snapshot.motion_report,
        counting: CountingMethod::Continuous,
    }
}

fn evaluate(
    world: &EvalWorld,
    snapshot: &DbSnapshot,
    n_aps: usize,
    deltas_folded: u64,
    rebuild_digest: u64,
) -> DriftArm {
    let setting = setting_view(snapshot, n_aps);
    let outcomes = localize_moloc(world, &setting, MoLocConfig::paper());
    let summary = summarize(&flatten(&outcomes));
    DriftArm {
        epoch: snapshot.epoch,
        deltas_folded,
        digest: snapshot.digest(),
        rebuild_digest,
        passes: summary.passes,
        accuracy: summary.accuracy,
        median_error_m: summary.median_error_m,
        mean_error_m: summary.mean_error_m,
    }
}

fn fresh_log(world: &EvalWorld, n_aps: usize) -> UpdateLog {
    UpdateLog::new(n_aps, world.hall.map.clone(), SanitationConfig::paper())
        .expect("paper sanitation is valid")
}

/// Runs the drift sweep at the paper's 6-AP setting.
pub fn run(world: &EvalWorld, seed: u64) -> Drift {
    let n_aps = 6;

    // Partition the survey: the first INITIAL_SAMPLES per location
    // seed epoch 0, the rest split into EPOCHS contiguous batches.
    let mut seed_deltas: Vec<Delta> = Vec::new();
    let mut batches: Vec<Vec<Delta>> = vec![Vec::new(); EPOCHS];
    for loc in world.survey.locations() {
        for (i, scan) in loc.fingerprint.iter().enumerate() {
            let values: Vec<f64> = scan.iter().take(n_aps).map(|d| d.value()).collect();
            let delta = Delta::Survey(loc.location, values);
            if i < INITIAL_SAMPLES {
                seed_deltas.push(delta);
            } else {
                let batch = (i - INITIAL_SAMPLES) * EPOCHS
                    / (loc.fingerprint.len() - INITIAL_SAMPLES).max(1);
                batches[batch.min(EPOCHS - 1)].push(delta);
            }
        }
    }

    // Seed log and epoch-0 snapshot (survey only so far — the RLM
    // harvest needs the seed fingerprint database first).
    let mut log = fresh_log(world, n_aps);
    for delta in &seed_deltas {
        apply(&mut log, delta);
    }
    let survey_only = log
        .build_snapshot(0)
        .expect("seed survey covers every location");

    // Harvest RLMs with the seed estimator; the first share seeds
    // epoch 0, the rest drip in one trace group per batch.
    let per_trace = harvest_rlms(world, survey_only.fdb(), &survey_only.index, n_aps);
    let groups = EPOCHS + 1;
    for (i, trace_rlms) in per_trace.iter().enumerate() {
        let deltas = trace_rlms.iter().map(|r| Delta::Rlm(*r));
        if i % groups == 0 {
            seed_deltas.extend(deltas);
        } else {
            batches[i % groups - 1].extend(deltas);
        }
    }
    let mut log = fresh_log(world, n_aps);
    let mut merged = seed_deltas.clone();
    for delta in &merged {
        apply(&mut log, delta);
    }
    let publisher = SnapshotPublisher::new(
        log.build_snapshot(0).expect("seed snapshot builds"),
    );
    log.mark_published();

    let epoch0 = publisher.snapshot();
    let static_arm = evaluate(world, &epoch0, n_aps, 0, epoch0.digest());

    // Publish one epoch per batch; audit each against a from-scratch
    // rebuild and evaluate the dynamic arm on it.
    let mut dynamic_arms = Vec::with_capacity(EPOCHS);
    for batch in &batches {
        for delta in batch {
            apply(&mut log, delta);
            merged.push(delta.clone());
        }
        let published = publisher.publish(&mut log).expect("publish succeeds");
        assert!(published.published, "every batch carries deltas");

        let mut rebuild = fresh_log(world, n_aps);
        for delta in &merged {
            apply(&mut rebuild, delta);
        }
        let rebuild_digest = rebuild
            .build_snapshot(0)
            .expect("rebuild succeeds")
            .digest();
        let snapshot = publisher.snapshot();
        assert_eq!(
            snapshot.digest(),
            rebuild_digest,
            "epoch {} diverged from the from-scratch rebuild",
            published.epoch,
        );
        dynamic_arms.push(evaluate(
            world,
            &snapshot,
            n_aps,
            published.deltas_folded,
            rebuild_digest,
        ));
    }

    Drift {
        seed,
        n_aps,
        initial_samples_per_location: INITIAL_SAMPLES,
        static_arm,
        dynamic_arms,
    }
}

/// Renders the sweep as a markdown table.
pub fn render(d: &Drift) -> String {
    let mut out = format!(
        "# Drift: static vs dynamic database ({} APs, seed {}, {} seed samples/location)\n\n",
        d.n_aps, d.seed, d.initial_samples_per_location
    );
    let row = |arm: &DriftArm, label: &str| {
        vec![
            label.to_string(),
            arm.epoch.to_string(),
            arm.deltas_folded.to_string(),
            format!("{:.0}%", arm.accuracy * 100.0),
            format!("{:.2}", arm.median_error_m),
            format!("{:.2}", arm.mean_error_m),
            if arm.digest == arm.rebuild_digest {
                "ok".to_string()
            } else {
                "MISMATCH".to_string()
            },
        ]
    };
    let mut rows = vec![row(&d.static_arm, "static")];
    for arm in &d.dynamic_arms {
        rows.push(row(arm, "dynamic"));
    }
    out.push_str(&report::table(
        &[
            "Arm",
            "Epoch",
            "Deltas",
            "Accuracy",
            "Median err (m)",
            "Mean err (m)",
            "Rebuild digest",
        ],
        &rows,
    ));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_sweep_publishes_audited_epochs() {
        let world = EvalWorld::small(7);
        let drift = run(&world, 7);
        assert_eq!(drift.static_arm.epoch, 0);
        assert_eq!(drift.dynamic_arms.len(), EPOCHS);
        for (i, arm) in drift.dynamic_arms.iter().enumerate() {
            assert_eq!(arm.epoch, i as u64 + 1);
            assert!(arm.deltas_folded > 0);
            assert_eq!(arm.digest, arm.rebuild_digest);
            assert_eq!(arm.passes, drift.static_arm.passes);
        }
        // Round-trips through the artifact schema.
        let json = serde_json::to_string(&drift).expect("serializes");
        let back: Drift = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, drift);
    }
}
