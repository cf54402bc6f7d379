//! The thread-safe metric registry.
//!
//! A [`MetricsRegistry`] owns every live counter, gauge, and histogram,
//! keyed by static name. Lookup takes a read lock on a `HashMap`; the
//! metric itself is an `Arc`'d atomic, so the write lock is only ever
//! held for first-time registration of a name. Recording after warm-up
//! is a read-lock + relaxed atomic op — cheap enough for per-query
//! instrumentation, and completely absent while the global flag is off.

use crate::hist::Histogram;
use crate::snapshot::MetricsSnapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

type Table<T> = RwLock<HashMap<&'static str, Arc<T>>>;

/// A named store of counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Table<AtomicU64>,
    gauges: Table<AtomicU64>,
    histograms: Table<Histogram>,
    /// Bumped on [`reset`](Self::reset) so cached metric handles (the
    /// thread-local flush memoizes `Arc`s) can detect that their atomics
    /// were orphaned and re-resolve instead of silently writing into
    /// dropped storage.
    generation: AtomicU64,
}

fn entry<T: Default>(table: &Table<T>, name: &'static str) -> Arc<T> {
    if let Some(found) = table.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return Arc::clone(found);
    }
    Arc::clone(
        table
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name)
            .or_default(),
    )
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the named counter exists (at 0 if new). Collectors
    /// pre-declare the taxonomy so snapshots carry stable schemas even
    /// for paths a given run never exercised.
    pub fn declare_counter(&self, name: &'static str) {
        entry(&self.counters, name);
    }

    /// Ensures the named gauge exists (at 0 if new).
    pub fn declare_gauge(&self, name: &'static str) {
        entry(&self.gauges, name);
    }

    /// Ensures the named histogram exists (empty if new).
    pub fn declare_histogram(&self, name: &'static str) {
        entry(&self.histograms, name);
    }

    /// Current value of a counter, `None` if never touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Snapshots every metric. Values are read relaxed; under
    /// concurrent recording the snapshot is a consistent-enough point
    /// sample, not a barrier.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::collect(
            &self.counters.read().unwrap_or_else(|e| e.into_inner()),
            &self.gauges.read().unwrap_or_else(|e| e.into_inner()),
            &self.histograms.read().unwrap_or_else(|e| e.into_inner()),
        )
    }

    /// The live handle of the named histogram (registering it if new).
    /// Lets the thread-local flush batch samples with one table lookup
    /// per distinct name instead of one per sample.
    pub(crate) fn histogram_handle(&self, name: &'static str) -> Arc<Histogram> {
        entry(&self.histograms, name)
    }

    /// The live handle of the named counter (registering it if new).
    pub(crate) fn counter_handle(&self, name: &'static str) -> Arc<AtomicU64> {
        entry(&self.counters, name)
    }

    /// The current reset generation; handles cached under an older
    /// generation are stale.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Drops every metric (names included).
    pub fn reset(&self) {
        self.counters
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.gauges
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.histograms
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        // Bumped after the maps clear: a handle re-resolved under the
        // new generation is guaranteed to live in the post-reset tables.
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Adds `delta` to the named monotone counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        entry(&self.counters, name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrites the named gauge with `value`.
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        entry(&self.gauges, name).store(value, Ordering::Relaxed);
    }

    /// Records one `value` into the named histogram; non-finite values
    /// are dropped rather than poisoning buckets.
    pub fn record(&self, name: &'static str, value: f64) {
        entry(&self.histograms, name).record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let r = MetricsRegistry::new();
        r.counter_add("c", 1);
        r.counter_add("c", 2);
        r.gauge_set("g", 10);
        r.gauge_set("g", 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.gauge("g"), Some(3));
        assert_eq!(r.counter("c"), Some(3));
        assert_eq!(r.counter("absent"), None);
    }

    #[test]
    fn declared_metrics_appear_with_zero_values() {
        let r = MetricsRegistry::new();
        r.declare_counter("c0");
        r.declare_gauge("g0");
        r.declare_histogram("h0");
        let snap = r.snapshot();
        assert_eq!(snap.counter("c0"), Some(0));
        assert_eq!(snap.gauge("g0"), Some(0));
        assert_eq!(snap.histogram("h0").map(|h| h.count), Some(0));
    }

    #[test]
    fn histograms_record_samples() {
        let r = MetricsRegistry::new();
        r.record("h", 2.0);
        r.record("h", 8.0);
        let h = r.snapshot().histogram("h").cloned().expect("recorded");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 10.0);
    }

    #[test]
    fn concurrent_registration_and_recording_are_safe() {
        let r = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for _ in 0..500 {
                        r.counter_add("shared", 1);
                        r.record("hist", 1.0);
                    }
                });
            }
        });
        assert_eq!(r.counter("shared"), Some(2000));
        assert_eq!(r.snapshot().histogram("hist").map(|h| h.count), Some(2000));
    }

    #[test]
    fn reset_forgets_everything() {
        let r = MetricsRegistry::new();
        r.counter_add("c", 1);
        r.reset();
        assert_eq!(r.counter("c"), None);
        assert!(r.snapshot().is_empty());
    }
}
