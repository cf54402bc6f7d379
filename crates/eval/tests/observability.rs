//! The observability layer must be a pure observer: turning the
//! recorder on cannot change a single bit of pipeline output, and the
//! counters it publishes must agree with the pipeline's own ground
//! truth. One sequential test keeps the process-global recorder flag
//! race-free (integration test binaries run their `#[test]`s on
//! separate threads).

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_eval::experiments::robustness::localize_faulted;
use moloc_eval::pipeline::{localize_moloc, EvalWorld, PassOutcome};
use moloc_faults::ap::ApDropout;
use moloc_fingerprint::index::FingerprintIndex;

/// FNV-1a over every field of every outcome, in order — any reordering
/// or numerical difference changes the digest.
fn digest(outcomes: &[Vec<PassOutcome>]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for o in outcomes.iter().flatten() {
        eat(&(o.trace_index as u64).to_le_bytes());
        eat(&(o.pass_index as u64).to_le_bytes());
        eat(&o.truth.get().to_le_bytes());
        eat(&o.estimate.get().to_le_bytes());
        eat(&o.error_m.to_bits().to_le_bytes());
    }
    format!("{h:016x}")
}

#[test]
fn recorder_is_a_pure_observer() {
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    let config = MoLocConfig::paper();

    // Baseline with the recorder off (the process default).
    assert!(!moloc_obs::is_enabled());
    let disabled = digest(&localize_moloc(&world, &setting, config));

    // The full instrumented pipeline with the recorder on must produce
    // the identical digest: metrics never feed back into computation.
    moloc_obs::enable();
    moloc_eval::observe::preregister();
    let enabled = digest(&localize_moloc(&world, &setting, config));
    assert_eq!(
        disabled, enabled,
        "enabling the metrics recorder changed pipeline output"
    );

    // The counters the recorder published must agree with the
    // pipeline's own ground truth. Run a seeded fault plan and compare
    // the degradation-rung counters against the `DegradationCounts`
    // the engine itself reports.
    moloc_obs::reset();
    moloc_eval::observe::preregister();
    let plan = ApDropout {
        rate: 0.5,
        seed: 2013,
    };
    let (outcomes, counts) = localize_faulted(&world, &setting, config, &plan);
    let snap = moloc_obs::snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as usize;
    assert_eq!(
        counter("core.degradation.observations"),
        counts.passes,
        "observation counter disagrees with scored passes"
    );
    assert_eq!(counter("core.degradation.masked_query"), counts.masked);
    assert_eq!(
        counter("core.degradation.no_observed_aps"),
        counts.no_observed
    );
    assert_eq!(
        counter("core.degradation.motion_fallback"),
        counts.motion_fallback
    );
    assert_eq!(
        counter("core.degradation.candidate_reset"),
        counts.candidate_reset
    );
    // The clean counter is the complement: passes where no rung fired.
    // Rungs can co-occur on a pass, so the flagged-pass count is at
    // least the largest single rung and at most the rung total.
    let clean = counter("core.degradation.clean");
    let rung_total =
        counts.masked + counts.no_observed + counts.motion_fallback + counts.candidate_reset;
    let rung_max = counts
        .masked
        .max(counts.no_observed)
        .max(counts.motion_fallback)
        .max(counts.candidate_reset);
    assert!(clean + rung_max <= counts.passes);
    assert!(clean + rung_total >= counts.passes);
    // The fault plan at 50% dropout must actually have exercised the
    // degraded rungs, otherwise this test proves nothing.
    assert!(counts.passes > 0);
    assert!(
        counts.masked + counts.no_observed > 0,
        "fault plan produced no degraded passes: {counts:?}"
    );
    assert!(!outcomes.is_empty());

    // A trace that fails partway still records its unfinished stretch:
    // ten good steps, then a scan of the wrong length, give one full
    // stretch of `OBSERVE_STRIDE` (8) steps and one of two.
    moloc_obs::reset();
    let index = FingerprintIndex::build(&setting.fdb);
    let kernel = build_kernel(&setting.motion_db, &config);
    let trace = &world.corpus.test[0];
    let mut scans: Vec<&[f64]> = trace
        .scans
        .iter()
        .map(|s| &s[..6])
        .cycle()
        .take(10)
        .collect();
    scans.push(&trace.scans[0][..5]);
    let motions = vec![None; scans.len()];
    let mut estimates = Vec::new();
    let failed = BatchLocalizer::new_with_index(&index, &kernel, config).localize_scans_into(
        &scans,
        &motions,
        &mut estimates,
    );
    assert!(failed.is_err() && estimates.len() == 10);
    let observe = moloc_obs::snapshot()
        .histogram("core.batch.observe")
        .map_or(0, |h| h.count);
    assert_eq!(observe, 2, "one full stretch and the unfinished one");

    // Leave the process-global recorder the way we found it.
    moloc_obs::set_enabled(false);
    moloc_obs::reset();
}
