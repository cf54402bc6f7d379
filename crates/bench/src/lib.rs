//! Shared fixtures for the benchmark harness.
//!
//! Every paper-artifact bench (`fig*`, `table1_*`) first *prints* the
//! rows/series it reproduces (so `cargo bench` output can be compared
//! with the paper directly), then measures how long regenerating the
//! artifact takes. World construction is kept outside the measured
//! closures.

use moloc_eval::pipeline::EvalWorld;

/// The seed every bench uses, so bench output matches `repro --seed
/// 2013 --fast`.
pub const BENCH_SEED: u64 = 2013;

/// Builds the reduced evaluation world used by the benches (the
/// paper-scale corpus is regenerated by the `repro` binary; benches use
/// the small corpus to keep `cargo bench` minutes, not hours).
pub fn bench_world() -> EvalWorld {
    EvalWorld::small(BENCH_SEED)
}

/// An environment variable rendered as a JSON number, or `null` when
/// unset or unparseable — mirroring the runtime's own resolution rules,
/// where an invalid value is ignored rather than an error.
fn env_json_u64(name: &str) -> String {
    match std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

/// The common `BENCH_*.json` header up to and including the opening of
/// the `benchmarks` array. Besides the PR number and the resolved pool
/// width, it records the machine's actual `available_parallelism()` and
/// the effective `MOLOC_THREADS` pin (`null` when unset), so a speedup
/// read months later carries the runner shape that produced it.
pub fn bench_header(pr: u64) -> String {
    format!(
        "{{\n  \"pr\": {pr},\n  \"parallel_threads\": {},\n  \
         \"available_parallelism\": {},\n  \"moloc_threads\": {},\n  \
         \"benchmarks\": [\n",
        moloc_eval::parallel::thread_count(),
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        env_json_u64("MOLOC_THREADS"),
    )
}

/// Criterion tuned for the heavyweight end-to-end benches.
pub fn heavy_criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_secs(1))
}

/// Criterion tuned for microbenches.
pub fn light_criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
}
