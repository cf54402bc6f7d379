#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Observability layer for the localization stack.
//!
//! The serving pipeline (DESIGN.md §13) records three kinds of signals:
//!
//! * **counters** — monotone event counts (k-NN candidates scanned,
//!   degradation-rung occupancy, cache hits/misses);
//! * **gauges** — last-written values (resolved worker-pool size);
//! * **histograms** — fixed-bucket distributions, fed either directly
//!   (items per worker) or by RAII [`span::Span`] timers (per-stage
//!   latency in seconds).
//!
//! Everything lands in one process-global [`MetricsRegistry`] through
//! the free functions below. Recording is gated by one relaxed atomic
//! flag, off by default, so an instrumented hot path pays a single
//! predicted branch while disabled and stays **bit-identical**: no
//! signal ever feeds back into the computation (locked in by
//! `crates/eval/tests/observability.rs`).
//!
//! Metric names are `&'static str` by design: every name in the stack
//! is a compile-time literal from the taxonomy in DESIGN.md §13, which
//! keeps recording allocation-free and makes the full name set
//! auditable with grep.
//!
//! # Usage
//!
//! ```
//! // Serving code records unconditionally; calls are no-ops until a
//! // collector enables the global registry.
//! moloc_obs::counter_add("demo.queries", 1);
//! assert!(moloc_obs::snapshot().counter("demo.queries").is_none());
//!
//! moloc_obs::enable();
//! {
//!     let _span = moloc_obs::span("demo.stage");
//!     moloc_obs::counter_add("demo.queries", 1);
//! }
//! let snap = moloc_obs::snapshot();
//! assert_eq!(snap.counter("demo.queries"), Some(1));
//! assert_eq!(snap.histogram("demo.stage").map(|h| h.count), Some(1));
//! moloc_obs::set_enabled(false);
//! # moloc_obs::reset();
//! ```
//!
//! This crate deliberately has **zero dependencies** — the snapshot
//! serializes to JSON with a hand-rolled writer — so every crate on the
//! localization path can depend on it without widening the build.

mod buffer;
pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use hist::Fold;
pub use registry::MetricsRegistry;
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Whether the global recorder is currently collecting. Relaxed is
/// enough: recording is advisory and never synchronizes data.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global registry, materialized on first use.
static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-global [`MetricsRegistry`] (created on first call).
///
/// The registry exists independently of the enabled flag so tests and
/// collectors can snapshot or pre-declare metrics before enabling.
pub fn global() -> &'static MetricsRegistry {
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// Turns global recording on. Returns the global registry.
pub fn enable() -> &'static MetricsRegistry {
    let registry = global();
    ENABLED.store(true, Ordering::Relaxed);
    registry
}

/// Sets the enabled flag (for tests and benchmark arms that toggle
/// recording; production collectors use [`enable`]).
pub fn set_enabled(on: bool) {
    if on {
        enable();
    } else {
        ENABLED.store(false, Ordering::Relaxed);
    }
}

/// Whether the global recorder is collecting. One relaxed load — this
/// is the entire disabled-path cost of every recording call.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `delta` to the named counter (no-op while disabled).
///
/// Inside an open [`Span`] on the current thread the increment is
/// buffered thread-locally and merged into the registry when the
/// outermost span closes (see [`buffer`](self)); outside any span it
/// lands in the registry immediately.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if is_enabled() && !buffer::counter_add(name, delta) {
        global().counter_add(name, delta);
    }
}

/// Sets the named gauge to `value` (no-op while disabled).
#[inline]
pub fn gauge_set(name: &'static str, value: u64) {
    if is_enabled() {
        global().gauge_set(name, value);
    }
}

/// Records `value` into the named histogram (no-op while disabled).
///
/// Buffered like [`counter_add`] while a span is open on this thread.
#[inline]
pub fn record(name: &'static str, value: f64) {
    if is_enabled() && !buffer::record(name, value) {
        global().record(name, value);
    }
}

/// Adds every `(name, delta)` pair in one call — a single enabled check
/// and (inside a span) a single thread-local round trip, where separate
/// [`counter_add`] calls would pay one each. For hot paths that always
/// emit the same few counters together.
#[inline]
pub fn counter_add_batch(entries: &[(&'static str, u64)]) {
    if is_enabled() && !buffer::counter_add_batch(entries) {
        let registry = global();
        for &(name, delta) in entries {
            registry.counter_add(name, delta);
        }
    }
}

/// Publishes a locally accumulated [`Fold`] into the named histogram
/// (no-op while disabled or when the fold is empty). The cheapest way
/// for a hot loop to feed a histogram: accumulate into a plain local
/// `Fold` (no atomics, no thread-local) and publish once per batch.
/// Publication is direct — it does not defer to an open span's buffer.
#[inline]
pub fn record_fold(name: &'static str, fold: &Fold) {
    if is_enabled() && !fold.is_empty() {
        global().histogram_handle(name).record_fold(fold);
    }
}

/// Starts an RAII timing span; its wall-clock duration (seconds) lands
/// in the histogram `name` when the guard drops. While disabled the
/// span never reads the clock.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::start(name, is_enabled())
}

/// Snapshots the global registry (empty when nothing was recorded).
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Zeroes every metric in the global registry, forgetting names too.
/// Meant for tests that measure deltas.
pub fn reset() {
    global().reset();
}

/// Serializes unit tests that touch the process-global registry (the
/// enabled flag and `reset` are cross-cutting state).
#[cfg(test)]
pub(crate) static TEST_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // The global enabled flag is process state; every test here leaves
    // it disabled and the registry reset, serialized via TEST_GATE.
    fn scoped<F: FnOnce()>(f: F) {
        let _guard = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        f();
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_calls_record_nothing() {
        scoped(|| {
            counter_add("t.counter", 5);
            gauge_set("t.gauge", 7);
            record("t.hist", 1.0);
            drop(span("t.span"));
            let snap = snapshot();
            assert!(snap.counter("t.counter").is_none());
            assert!(snap.gauge("t.gauge").is_none());
            assert!(snap.histogram("t.hist").is_none());
            assert!(snap.histogram("t.span").is_none());
        });
    }

    #[test]
    fn enabled_calls_land_in_the_snapshot() {
        scoped(|| {
            enable();
            counter_add("t.counter", 2);
            counter_add("t.counter", 3);
            gauge_set("t.gauge", 9);
            gauge_set("t.gauge", 4);
            record("t.hist", 0.25);
            {
                let _span = span("t.span");
            }
            let snap = snapshot();
            assert_eq!(snap.counter("t.counter"), Some(5));
            assert_eq!(snap.gauge("t.gauge"), Some(4));
            let h = snap.histogram("t.hist").expect("histogram recorded");
            assert_eq!(h.count, 1);
            assert!((h.sum - 0.25).abs() < 1e-12);
            let s = snap.histogram("t.span").expect("span recorded");
            assert_eq!(s.count, 1);
            assert!(s.sum >= 0.0);
        });
    }

    #[test]
    fn reset_clears_names_and_values() {
        scoped(|| {
            enable();
            counter_add("t.gone", 1);
            reset();
            assert!(snapshot().counter("t.gone").is_none());
        });
    }
}
