//! The parallel fan-out primitives of the evaluation crate, backed by
//! the persistent work-stealing [`crate::runtime`].
//!
//! Every experiment in this crate is embarrassingly parallel at some
//! granularity — per test trace, per seed, per parameter setting — and
//! every unit of work is a pure function of shared read-only state
//! (the [`crate::pipeline::EvalWorld`], databases, kernels). This
//! module provides the primitives they all share: [`par_run`] /
//! [`par_map`], order-preserving parallel maps, plus the chunked and
//! raw-shard variants the pipeline's arena plumbing builds on — all
//! with no external dependencies.
//!
//! # Determinism
//!
//! Work is distributed as chunked shards over per-worker deques and may
//! be stolen by any worker — but results are collected into pre-sized
//! disjoint slots keyed by input index and read back in input order,
//! and each work item derives its randomness (if any) from its own
//! index/seed, never from a shared RNG. The output of a parallel run is
//! therefore byte-identical to the serial run at every worker count and
//! chunk size; `determinism.rs` in the test suite locks this in.
//!
//! # Thread count
//!
//! [`thread_count`] honors the `MOLOC_THREADS` environment variable
//! (any value ≥ 1; `1` forces serial execution in the calling thread),
//! clamped to [`MAX_OVERSUBSCRIPTION`]× the available parallelism, and
//! falls back to [`std::thread::available_parallelism`]. The variable
//! is parsed **once per process**, at first use — the resolved width is
//! cached, so per-call scheduling never touches the environment. Bench
//! harnesses that need to vary the width inside one process use
//! [`set_worker_override`] instead of mutating the environment.
//!
//! # Chunking
//!
//! Items are batched into contiguous shards before hitting the deques;
//! the default shard size ([`default_chunk`]) deals each worker at
//! least four shards when there are that many items (good load balance
//! for uneven traces without per-item scheduling cost). Callers that need another size pass it
//! per call via [`par_run_chunked`].

use crate::runtime::{shard_ranges, Runtime, SlotVec};
use moloc_core::error::MolocError;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

pub use crate::runtime::{SlotWriter, MAX_POOL_WORKERS};

/// Upper bound on requested threads, as a multiple of the machine's
/// available parallelism. Mild oversubscription can help when traces
/// have very uneven cost, but an unbounded `MOLOC_THREADS` (a stray
/// `MOLOC_THREADS=1000000`) would try to spawn that many OS threads
/// and abort the process on stack exhaustion long before doing work.
pub const MAX_OVERSUBSCRIPTION: usize = 4;

/// Number of worker threads the evaluation pool uses.
///
/// Resolution order:
/// 1. [`set_worker_override`], when armed (bench harnesses only);
/// 2. `MOLOC_THREADS` environment variable — must parse to an integer
///    ≥ 1, clamped to [`MAX_OVERSUBSCRIPTION`]× the available
///    parallelism;
/// 3. [`std::thread::available_parallelism`];
/// 4. 1 (serial) if the platform cannot report parallelism.
///
/// Steps 2–4 run **once per process**; later calls return the cached
/// width. The resolved count is published as the
/// `eval.parallel.threads` gauge while metrics collection is enabled
/// (the gauge write is skipped entirely while the recorder is off).
///
/// # Panics
///
/// Panics (fail-fast) when `MOLOC_THREADS` is set but malformed —
/// garbage no longer degrades silently to the machine default. Entry
/// points call [`validate_env`] first, which surfaces the same defect
/// as a typed [`MolocError::InvalidConfig`] before any pool spins up.
pub fn thread_count() -> usize {
    let resolved = match worker_override() {
        Some(n) => n,
        None => cached_thread_count(),
    };
    if moloc_obs::is_enabled() {
        moloc_obs::gauge_set("eval.parallel.threads", resolved as u64);
    }
    resolved
}

/// The `MOLOC_THREADS` resolution, performed once and cached.
/// Malformed values fail fast (see [`thread_count`]).
fn cached_thread_count() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let available = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        match resolve_thread_count(std::env::var("MOLOC_THREADS").ok().as_deref(), available) {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        }
    })
}

/// The pure resolution rule behind [`thread_count`]: `raw` is the
/// `MOLOC_THREADS` value (if set), `available` the machine parallelism.
/// Unset keeps the machine default; a set-but-malformed value (garbage,
/// empty, zero) is a typed error naming the knob and echoing the raw
/// string — never a silent fallback.
fn resolve_thread_count(raw: Option<&str>, available: usize) -> Result<usize, MolocError> {
    let available = available.max(1);
    let ceiling = available.saturating_mul(MAX_OVERSUBSCRIPTION);
    match moloc_core::env::parse_positive_usize("MOLOC_THREADS", raw)? {
        Some(n) => Ok(n.min(ceiling)),
        None => Ok(available),
    }
}

/// Bench-harness worker-count override: `0` means "not armed".
///
/// The `gates` bench measures the same workload at 1, 2 and 4 workers
/// inside one process, where mutating `MOLOC_THREADS` would be both
/// unsafe (env mutation under live threads) and ineffective (the
/// variable is parsed once). The override is process-global and
/// **advisory**: outputs are worker-count invariant by design, so a
/// concurrent reader at worst runs with the other's width.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Arms (`Some(n)`) or disarms (`None`) the process-global worker-count
/// override consulted by [`thread_count`]. Intended for bench harnesses
/// and determinism tests; production code sizes the pool from
/// `MOLOC_THREADS` once.
pub fn set_worker_override(workers: Option<usize>) {
    WORKER_OVERRIDE.store(
        workers.unwrap_or(0).min(MAX_POOL_WORKERS),
        Ordering::Relaxed,
    );
}

/// The armed override, if any.
fn worker_override() -> Option<usize> {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Strictly validates `MOLOC_THREADS`, the one knob this module reads.
/// Entry points call this before touching the pool so a typo'd
/// variable is a typed, actionable error — not a setting silently
/// replaced by a default, and not a mid-run panic from the cached
/// resolver.
///
/// # Errors
///
/// Returns [`MolocError::InvalidConfig`] naming the first malformed
/// variable and echoing its raw value.
pub fn validate_env() -> Result<(), MolocError> {
    let available = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    resolve_thread_count(std::env::var("MOLOC_THREADS").ok().as_deref(), available)?;
    Ok(())
}

/// The default shard size for `n` items on `workers` workers:
/// `n / (workers × 4)` rounded down, at least 1, so each worker is
/// dealt at least four shards when `n` allows, and natural cost
/// imbalance (trace lengths vary) load-balances through stealing
/// without per-item scheduling.
/// Rounding down keeps the tail stealable: 34 traces at width 2 make
/// eight shards of 4 and one of 2, so a worker that runs dry still
/// finds a shard waiting on the other's deque.
pub fn default_chunk(n: usize, workers: usize) -> usize {
    (n / (workers.max(1) * 4)).max(1)
}

/// Applies `f` to `0..n` on the persistent worker pool and returns the
/// results in index order.
///
/// `f` runs concurrently on up to [`thread_count`] workers (capped at
/// the shard count); with one worker — or `n <= 1` — it runs inline in
/// the caller with no synchronization at all. Results are identical to
/// `(0..n).map(f).collect()` whenever `f` is a pure function of its
/// index, at every worker count and chunk size.
///
/// # Panics
///
/// Propagates the first panic raised by `f` after the job drains
/// (remaining shards are abandoned; already-computed results are
/// leaked, not dropped).
pub fn par_run<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = thread_count().min(n);
    par_run_chunked(n, default_chunk(n, workers), f)
}

/// [`par_run`] with an explicit shard size (`chunk` items per shard).
/// The chunk size affects scheduling only, never results.
pub fn par_run_chunked<U, F>(n: usize, chunk: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = thread_count().min(n);
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots = SlotVec::new(n);
    let writer = slots.writer();
    par_shards(n, chunk, |range| {
        for i in range {
            writer.write(i, f(i));
        }
    });
    // SAFETY: `par_shards` partitions 0..n into disjoint shards and
    // returns only after every shard ran, so every slot is written
    // exactly once.
    unsafe { slots.into_vec() }
}

/// Raw shard fan-out: runs `shard_fn` over a chunked partition of
/// `0..n` on the pool. This is the arena-friendly primitive — a caller
/// checks per-worker scratch out of an [`crate::arena::ArenaPool`] once
/// per *shard* and writes results through a [`SlotWriter`] — and the
/// building block of [`par_run_chunked`].
///
/// Every index in `0..n` is covered by exactly one `shard_fn`
/// invocation. With one worker (or when nested inside another job) the
/// shards run inline in input order.
pub fn par_shards<F>(n: usize, chunk: usize, shard_fn: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let workers = thread_count().min(n);
    Runtime::global().run_shards(workers, shard_ranges(n, chunk), &shard_fn);
}

/// [`par_shards`] with an explicit worker count, ignoring
/// [`thread_count`]. The `gates` bench uses this to pin its pool arms
/// to one width; results are width-invariant.
pub fn par_shards_with_workers<F>(workers: usize, n: usize, chunk: usize, shard_fn: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    Runtime::global().run_shards(workers.min(n), shard_ranges(n, chunk), &shard_fn);
}

/// Order-preserving parallel map over a slice: `par_map(items, f)` is
/// `items.iter().map(f).collect()` spread over the worker pool.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_run(items.len(), |i| f(&items[i]))
}

/// [`par_map`] with an explicit shard size.
pub fn par_map_chunked<T, U, F>(items: &[T], chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_run_chunked(items.len(), chunk, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that arm the process-global worker override.
    static OVERRIDE_GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn par_run_preserves_index_order() {
        let out = par_run(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..100).map(|i| i * 3 + 1).collect();
        let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37)).collect();
        let parallel = par_map(&items, |x| x.wrapping_mul(0x9E37));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_run(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_run(1, |i| i + 7), vec![7]);
        assert_eq!(par_map::<u8, u8, _>(&[], |&x| x), Vec::<u8>::new());
    }

    #[test]
    fn chunk_size_never_changes_results() {
        let reference: Vec<u64> = (0..199u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        for chunk in [1usize, 2, 3, 7, 50, 199, 1000] {
            let chunked =
                par_run_chunked(199, chunk, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(chunked, reference, "chunk {chunk} diverged");
        }
    }

    #[test]
    fn worker_override_never_changes_results() {
        let _gate = OVERRIDE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let reference: Vec<u64> = (0..173u64).map(|i| i.wrapping_mul(0x2545F491)).collect();
        for workers in [1usize, 2, 3, 8] {
            set_worker_override(Some(workers));
            let out = par_run(173, |i| (i as u64).wrapping_mul(0x2545F491));
            assert_eq!(out, reference, "override {workers} diverged");
        }
        set_worker_override(None);
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Simulate varying item cost: heavier work for low indices so
        // late items finish first on other threads.
        let out = par_run(64, |i| {
            let spins = if i < 8 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn par_shards_with_workers_covers_everything_at_any_width() {
        use std::sync::atomic::AtomicU64;
        for workers in [1usize, 2, 5, 8] {
            let flags: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
            par_shards_with_workers(workers, 97, 4, |range| {
                for i in range {
                    flags[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                flags.iter().all(|f| f.load(Ordering::Relaxed) == 1),
                "width {workers} missed or repeated an item"
            );
        }
    }

    #[test]
    fn racing_top_level_submitters_match_the_serial_map() {
        // Four threads submit 4-wide jobs at once, so while one holds the
        // pool the others find it busy and drain their shards inline.
        // The explicit width keeps the pooled path in play whatever
        // `MOLOC_THREADS` says, and one item per call nests a `par_run`.
        use std::sync::atomic::AtomicU64;
        use std::sync::Barrier;
        const SUBMITTERS: u64 = 4;
        const CALLS: u64 = 200;
        const N: usize = 37;
        let mix = |submitter: u64, call: u64, i: u64| {
            (submitter << 48 | call << 16 | i).wrapping_mul(0x9E3779B97F4A7C15)
        };
        let item = |submitter: u64, call: u64, i: usize| {
            if i as u64 == call % N as u64 {
                par_run(16, |j| mix(submitter, call, 100 + j as u64))
                    .into_iter()
                    .fold(0u64, u64::wrapping_add)
            } else {
                mix(submitter, call, i as u64)
            }
        };
        let barrier = Barrier::new(SUBMITTERS as usize);
        thread::scope(|scope| {
            for submitter in 0..SUBMITTERS {
                let (barrier, item) = (&barrier, &item);
                scope.spawn(move || {
                    barrier.wait();
                    for call in 0..CALLS {
                        let out: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
                        par_shards_with_workers(4, N, 3, |range| {
                            for i in range {
                                out[i].store(item(submitter, call, i), Ordering::Relaxed);
                            }
                        });
                        let serial: Vec<u64> = (0..N).map(|i| item(submitter, call, i)).collect();
                        let pooled: Vec<u64> =
                            out.iter().map(|v| v.load(Ordering::Relaxed)).collect();
                        assert_eq!(pooled, serial, "submitter {submitter} call {call}");
                    }
                });
            }
        });
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn resolve_honors_sane_env_values() {
        assert_eq!(resolve_thread_count(Some("1"), 8), Ok(1));
        assert_eq!(resolve_thread_count(Some(" 6 "), 8), Ok(6));
        assert_eq!(resolve_thread_count(Some("32"), 8), Ok(32));
        assert_eq!(resolve_thread_count(None, 8), Ok(8));
        // A platform that cannot report parallelism still yields 1.
        assert_eq!(resolve_thread_count(None, 0), Ok(1));
        assert_eq!(resolve_thread_count(Some("3"), 0), Ok(3));
    }

    #[test]
    fn resolve_clamps_absurd_requests() {
        // MOLOC_THREADS=1000000 used to be taken literally and spawn a
        // million scoped threads; now it caps at 4x the parallelism.
        assert_eq!(resolve_thread_count(Some("1000000"), 8), Ok(32));
        assert_eq!(resolve_thread_count(Some(&usize::MAX.to_string()), 2), Ok(8));
    }

    #[test]
    fn malformed_thread_counts_are_typed_errors_not_silent_fallbacks() {
        // Regression: `MOLOC_THREADS=fuor` used to run the whole
        // evaluation serial without a word. Now the error names the
        // knob and echoes the rejected string.
        for bad in ["zero", "0", "", "fuor", "1e3", "-2"] {
            let err = resolve_thread_count(Some(bad), 8).unwrap_err();
            assert_eq!(
                err,
                MolocError::invalid_config_value("MOLOC_THREADS", bad),
                "{bad:?} must be rejected"
            );
            assert!(err.to_string().contains("MOLOC_THREADS"));
        }
    }

    #[test]
    fn validate_env_passes_in_a_clean_environment() {
        // CI may legitimately pin these variables; validation must
        // accept whatever the ambient (working) environment holds.
        assert_eq!(validate_env(), Ok(()));
    }

    #[test]
    fn default_chunk_targets_four_shards_per_worker() {
        assert_eq!(default_chunk(32, 4), 2);
        assert_eq!(default_chunk(3, 4), 1);
        assert_eq!(default_chunk(1000, 1), 250);
        assert_eq!(default_chunk(0, 8), 1);
        // Rounded down: a paper round's 34 traces at width 2.
        assert_eq!(default_chunk(34, 2), 4);
        assert_eq!(default_chunk(150, 2), 18);
    }
}
