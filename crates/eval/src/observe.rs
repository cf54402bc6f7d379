//! Canonical metric taxonomy for the evaluation pipeline.
//!
//! Every metric name the workspace emits through [`moloc_obs`] is
//! listed here once, so the `repro --metrics` artifact has a stable,
//! discoverable schema: [`preregister`] declares the full set on the
//! global registry before a run, which guarantees the names appear in
//! the snapshot (zero-valued if untouched) even for experiments that
//! never exercise a given code path — e.g. `--exp fig4` never builds a
//! setting, but its snapshot still carries the cache counters.
//!
//! Naming convention (see DESIGN.md §13): `<crate>.<subsystem>.<what>`,
//! lowercase, dot-separated components, snake_case leaves. Timing spans
//! reuse the name of the function they wrap and record seconds.

/// Monotonic event counters.
pub const COUNTERS: &[&str] = &[
    // k-NN over the columnar fingerprint index.
    "fingerprint.knn.queries",
    "fingerprint.knn.masked_queries",
    "fingerprint.knn.candidates_scanned",
    // Multi-query block scans (DESIGN.md §15): one `block_scans` tick
    // per block, `block_queries` per query inside one, and the rows
    // the f32 mirror prefilter passes on to the exact f64 rescore
    // (`mirror_survivors`).
    "fingerprint.knn.block_scans",
    "fingerprint.knn.block_queries",
    "fingerprint.knn.mirror_survivors",
    // Degradation-rung occupancy: one `observations` tick per batch
    // observation, plus one tick per rung flagged on that observation
    // (`clean` when no rung fired). Mirrors `DegradationFlags`.
    "core.degradation.observations",
    "core.degradation.clean",
    "core.degradation.masked_query",
    "core.degradation.no_observed_aps",
    "core.degradation.motion_fallback",
    "core.degradation.candidate_reset",
    // Scenario-cache accesses (advisory; authoritative build totals are
    // `ScenarioCache::{setting,kernel}_builds`).
    "eval.cache.setting_hits",
    "eval.cache.setting_misses",
    "eval.cache.kernel_hits",
    "eval.cache.kernel_misses",
    // Work-stealing runtime: jobs dispatched to the pool and shards
    // executed by a worker other than their dealt owner.
    "eval.runtime.jobs",
    "eval.runtime.steals",
    // Runtime watchdogs: jobs whose deadline fired before every shard
    // started, workers flagged still-busy past the stall grace period,
    // and poisoned jobs recorded in the quarantine registry.
    "eval.runtime.deadline_expired",
    "eval.runtime.stalls_detected",
    "eval.runtime.quarantined",
    // Streaming session layer (moloc-session): transport, checkpoint,
    // recovery, admission, and watchdog events.
    "session.stream.ingested",
    "session.stream.delivered",
    "session.checkpoint.writes",
    "session.checkpoint.bytes",
    "session.checkpoint.compactions",
    "session.recovery.attempts",
    "session.recovery.resumed",
    "session.recovery.corrupt_logs",
    "session.admission.accepted",
    "session.admission.shed",
    "session.watchdog.reaped",
    // Live database updates (moloc-live): snapshot publishes (and the
    // zero-delta skips that short-circuit them), deltas folded per
    // publish, reader epoch adoptions, and stale-holds injected by the
    // `StaleSnapshot` fault.
    "live.publish.count",
    "live.publish.skipped_empty",
    "live.publish.deltas_folded",
    "live.reader.refreshes",
    "live.reader.stale_holds",
];

/// Last-write-wins instantaneous values.
pub const GAUGES: &[&str] = &[
    // Resolved worker-pool width after `MOLOC_THREADS` clamping.
    "eval.parallel.threads",
    // Live sessions held by the streaming session manager.
    "session.manager.active",
    // Newest published database epoch and how far behind it the most
    // recently refreshed reader was when it noticed.
    "live.publish.epoch",
    "live.reader.epoch_lag",
];

/// Value distributions (timing spans record seconds).
pub const HISTOGRAMS: &[&str] = &[
    // Timing spans, per stage.
    "core.batch.localize_trace",
    "core.batch.observe",
    "core.particle.observe",
    "core.viterbi.localize_trace",
    "eval.pipeline.build_setting",
    "eval.pipeline.analyze_trace",
    "eval.pipeline.moloc_trace",
    "eval.pipeline.wifi_trace",
    // Work-shape distributions.
    "core.eq7.pair_products",
    "eval.parallel.items_per_worker",
    // Wall-clock seconds to condense one published snapshot.
    "live.publish.build_seconds",
];

/// Declares the full metric taxonomy on the global registry so every
/// name above appears in subsequent snapshots even if never touched.
pub fn preregister() {
    let registry = moloc_obs::global();
    for name in COUNTERS {
        registry.declare_counter(name);
    }
    for name in GAUGES {
        registry.declare_gauge(name);
    }
    for name in HISTOGRAMS {
        registry.declare_histogram(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_disjoint_and_well_formed() {
        let all: Vec<&str> = COUNTERS
            .iter()
            .chain(GAUGES)
            .chain(HISTOGRAMS)
            .copied()
            .collect();
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(all.len(), unique.len(), "duplicate metric name");
        for name in &all {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "non-canonical metric name: {name}"
            );
            assert!(
                name.split('.').count() >= 3,
                "metric name missing <crate>.<subsystem>.<what> shape: {name}"
            );
        }
    }
}
