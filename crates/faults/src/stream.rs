//! Stream- and lifecycle-fault injectors for the crash-safe session
//! layer.
//!
//! The [`crate::plan::FaultPlan`] hooks corrupt *contents* (scan
//! values, sensor samples, databases). The injectors here corrupt the
//! *transport and lifecycle* around a streaming session: arrival
//! order, duplication, loss, device clocks, the checkpoint log on
//! disk, and the live snapshot readers. They expose per-coordinate
//! decision methods instead of operating on session types directly —
//! the session/eval layers own the event structs and call down here
//! for every decision — which keeps this crate free of a dependency
//! cycle and keeps every decision a pure function of
//! `(seed, coordinates)` on the same splitmix64 scheme as the content
//! injectors. Zero intensity is an exact no-op for all of them.

use crate::plan::FaultPlan;
use crate::rng::{hash, unit};
use moloc_sensors::series::TimeSeries;
use serde::{Deserialize, Serialize};

/// Permutes the arrival order of a session's event stream: each event
/// is independently displaced later by up to `window` positions with
/// probability `rate`. Models network reordering between the device
/// and the serving tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScanReorder {
    /// Per-event displacement probability in `[0, 1]`.
    pub rate: f64,
    /// Maximum displacement in stream positions.
    pub window: usize,
    /// Injection seed.
    pub seed: u64,
}

impl ScanReorder {
    /// How far event `i` of `trace` is displaced (0 = undisturbed).
    pub fn displacement(&self, trace: u64, i: u64) -> usize {
        // `u < rate` (not `u >= rate` negated at the call site) so a
        // NaN rate is an exact no-op like every other zero intensity.
        let displaced = unit(hash(self.seed, trace, i, 0)) < self.rate;
        if self.window == 0 || !displaced {
            return 0;
        }
        1 + (hash(self.seed, trace, i, 1) % self.window as u64) as usize
    }

    /// The arrival order of an `n`-event stream: element `k` is the
    /// original index of the `k`-th arrival. Identity at zero
    /// intensity; a permutation of `0..n` always.
    pub fn arrival_order(&self, trace: u64, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        // Stable sort on (original position + displacement): an event
        // displaced by d lands after its next d undisturbed neighbors,
        // ties broken by original order — a deterministic permutation.
        order.sort_by_key(|&i| i + self.displacement(trace, i as u64));
        order
    }
}

/// Duplicates events on the wire: each event is independently
/// retransmitted with probability `rate` (same event id, same
/// sequence number — the reorder buffer must drop the copy).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScanDuplicate {
    /// Per-event duplication probability in `[0, 1]`.
    pub rate: f64,
    /// Injection seed.
    pub seed: u64,
}

impl ScanDuplicate {
    /// Extra copies of event `i` of `trace` delivered after the
    /// original (0 at zero intensity).
    pub fn extra_copies(&self, trace: u64, i: u64) -> usize {
        usize::from(unit(hash(self.seed, trace, i, 2)) < self.rate)
    }
}

/// Loses events on the wire: each event is independently dropped with
/// probability `rate` and never arrives. The reorder buffer's
/// gap-skip policy (or stream flush) declares the hole lost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScanLoss {
    /// Per-event loss probability in `[0, 1]`.
    pub rate: f64,
    /// Injection seed.
    pub seed: u64,
}

impl ScanLoss {
    /// Whether event `i` of `trace` is lost in transit.
    pub fn dropped(&self, trace: u64, i: u64) -> bool {
        unit(hash(self.seed, trace, i, 3)) < self.rate
    }
}

/// Skews the device clock of a whole trace: a constant per-trace
/// offset (uniform in `±max_skew_s`) plus linear drift, applied to
/// the sensor streams' timebase. A [`FaultPlan`]: composes with the
/// content injectors in a `FaultSuite`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockSkew {
    /// Maximum constant offset magnitude in seconds.
    pub max_skew_s: f64,
    /// Additional drift in seconds per second of stream time.
    pub drift_per_s: f64,
    /// Injection seed.
    pub seed: u64,
}

impl ClockSkew {
    /// The constant clock offset of `trace`, in seconds.
    pub fn offset_s(&self, trace: u64) -> f64 {
        if self.max_skew_s == 0.0 {
            return 0.0;
        }
        (2.0 * unit(hash(self.seed, trace, 0, 4)) - 1.0) * self.max_skew_s
    }

    fn shift(&self, trace: u64, series: &mut TimeSeries) {
        if (self.max_skew_s == 0.0 && self.drift_per_s == 0.0) || series.is_empty() {
            return;
        }
        let rate = series.sample_rate_hz();
        // Constant offset plus drift accumulated to the stream start.
        let t0 = series.t0() + self.offset_s(trace) + self.drift_per_s * series.t0();
        let values: Vec<f64> = series.values().to_vec();
        series
            .assign(t0, rate, values)
            .expect("rate unchanged from a valid series");
    }
}

impl FaultPlan for ClockSkew {
    fn name(&self) -> &'static str {
        "clock_skew"
    }

    fn apply_accel(&self, trace: u64, accel: &mut TimeSeries) {
        self.shift(trace, accel);
    }

    fn apply_compass(&self, trace: u64, compass: &mut TimeSeries) {
        self.shift(trace, compass);
    }
}

/// Corrupts checkpoint records on their way to disk: each record is
/// independently hit with probability `rate`; a hit flips one
/// deterministically chosen bit. Recovery must detect every hit —
/// the checkpoint-fuzz CI leg drives this injector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointCorruption {
    /// Per-record corruption probability in `[0, 1]`.
    pub rate: f64,
    /// Injection seed.
    pub seed: u64,
}

impl CheckpointCorruption {
    /// Whether record `record` of session `session` gets hit.
    pub fn hits(&self, session: u64, record: u64) -> bool {
        unit(hash(self.seed, session, record, 5)) < self.rate
    }

    /// Applies the fault to an encoded record, returning `true` when a
    /// bit was flipped. Exact no-op (and `false`) at zero intensity or
    /// on empty buffers.
    pub fn corrupt(&self, session: u64, record: u64, bytes: &mut [u8]) -> bool {
        if bytes.is_empty() || !self.hits(session, record) {
            return false;
        }
        let bit = hash(self.seed, session, record, 6) % (bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        true
    }
}

/// Pins live localizers to a stale database snapshot: each
/// `(trace, step)` refresh decision is independently held with
/// probability `rate`, so the reader keeps serving its cached epoch
/// while the publisher moves on. Models slow snapshot propagation to
/// the serving tier; drives `SnapshotReader::refresh_unless` /
/// `LiveLocalizer::observe_held` in `moloc-live`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaleSnapshot {
    /// Per-step hold probability in `[0, 1]`.
    pub rate: f64,
    /// Injection seed.
    pub seed: u64,
}

impl StaleSnapshot {
    /// Whether step `step` of `trace` must keep serving its cached
    /// epoch instead of adopting a newly published one.
    pub fn hold(&self, trace: u64, step: u64) -> bool {
        unit(hash(self.seed, trace, step, 8)) < self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_is_an_exact_no_op_everywhere() {
        let reorder = ScanReorder {
            rate: 0.0,
            window: 8,
            seed: 1,
        };
        assert_eq!(reorder.arrival_order(3, 10), (0..10).collect::<Vec<_>>());
        let no_window = ScanReorder {
            rate: 1.0,
            window: 0,
            seed: 1,
        };
        assert_eq!(no_window.arrival_order(3, 10), (0..10).collect::<Vec<_>>());

        let dup = ScanDuplicate { rate: 0.0, seed: 1 };
        let loss = ScanLoss { rate: 0.0, seed: 1 };
        for i in 0..100 {
            assert_eq!(dup.extra_copies(0, i), 0);
            assert!(!loss.dropped(0, i));
        }

        let skew = ClockSkew {
            max_skew_s: 0.0,
            drift_per_s: 0.0,
            seed: 1,
        };
        let original = TimeSeries::new(5.0, 10.0, vec![1.0; 50]).expect("valid series");
        let mut s = original.clone();
        skew.apply_accel(0, &mut s);
        assert_eq!(s, original);

        let corrupt = CheckpointCorruption { rate: 0.0, seed: 1 };
        let mut bytes = vec![0xAAu8; 64];
        assert!(!corrupt.corrupt(0, 0, &mut bytes));
        assert_eq!(bytes, vec![0xAAu8; 64]);

        let stale = StaleSnapshot { rate: 0.0, seed: 1 };
        for step in 0..100 {
            assert!(!stale.hold(0, step));
        }
    }

    #[test]
    fn stale_snapshot_holds_are_deterministic_and_monotone() {
        let plan = StaleSnapshot {
            rate: 0.4,
            seed: 19,
        };
        let held: Vec<u64> = (0..1000).filter(|&s| plan.hold(2, s)).collect();
        assert!(!held.is_empty() && held.len() < 1000, "partial coverage");
        assert_eq!(
            held,
            (0..1000).filter(|&s| plan.hold(2, s)).collect::<Vec<_>>(),
            "deterministic"
        );
        // Fixed per-coordinate draws: holds at a lower rate are a
        // subset of holds at a higher rate.
        let hi = StaleSnapshot {
            rate: 0.9,
            seed: 19,
        };
        for &s in &held {
            assert!(hi.hold(2, s), "subset property");
        }
        // rate = 1 pins every step.
        let always = StaleSnapshot {
            rate: 1.0,
            seed: 19,
        };
        assert!((0..100).all(|s| always.hold(2, s)));
    }

    #[test]
    fn reorder_always_yields_a_permutation() {
        for (rate, window) in [(0.3, 2), (0.8, 5), (1.0, 20)] {
            let plan = ScanReorder {
                rate,
                window,
                seed: 42,
            };
            for trace in 0..5u64 {
                let mut order = plan.arrival_order(trace, 50);
                assert_eq!(order, plan.arrival_order(trace, 50), "deterministic");
                order.sort_unstable();
                assert_eq!(order, (0..50).collect::<Vec<_>>(), "permutation");
            }
        }
    }

    #[test]
    fn reorder_displacement_is_bounded_by_the_window() {
        let plan = ScanReorder {
            rate: 1.0,
            window: 3,
            seed: 9,
        };
        let order = plan.arrival_order(0, 100);
        for (arrival, &original) in order.iter().enumerate() {
            // An event can arrive at most `window` late and, by
            // displacement of its successors, at most `window` early.
            assert!(
                (arrival as i64 - original as i64).unsigned_abs() <= 3,
                "event {original} arrived at {arrival}"
            );
        }
    }

    #[test]
    fn loss_and_duplication_rates_are_monotone_in_intensity() {
        // Fixed per-coordinate draws: the fault set at a lower rate is
        // a subset of the set at a higher rate.
        let count_lost = |rate: f64| {
            let plan = ScanLoss { rate, seed: 77 };
            (0..1000).filter(|&i| plan.dropped(0, i)).count()
        };
        assert!(count_lost(0.1) <= count_lost(0.3));
        assert!(count_lost(0.3) <= count_lost(0.9));
        let lo = ScanLoss {
            rate: 0.1,
            seed: 77,
        };
        let hi = ScanLoss {
            rate: 0.5,
            seed: 77,
        };
        for i in 0..1000 {
            assert!(!lo.dropped(0, i) || hi.dropped(0, i), "subset property");
        }
    }

    #[test]
    fn checkpoint_corruption_flips_exactly_one_bit() {
        let plan = CheckpointCorruption {
            rate: 1.0,
            seed: 13,
        };
        let original = vec![0x5Au8; 128];
        let mut bytes = original.clone();
        assert!(plan.corrupt(4, 2, &mut bytes));
        let flipped: u32 = bytes
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        // Same coordinates, same bit.
        let mut again = original.clone();
        plan.corrupt(4, 2, &mut again);
        assert_eq!(bytes, again);
    }

    #[test]
    fn clock_skew_moves_timebase_only_and_matches_offset() {
        let plan = ClockSkew {
            max_skew_s: 2.0,
            drift_per_s: 0.0,
            seed: 21,
        };
        let original = TimeSeries::new(10.0, 20.0, (0..40).map(f64::from).collect())
            .expect("valid series");
        let mut accel = original.clone();
        let mut compass = original.clone();
        plan.apply_accel(6, &mut accel);
        plan.apply_compass(6, &mut compass);
        assert_eq!(accel.t0(), 10.0 + plan.offset_s(6));
        assert_eq!(accel.t0(), compass.t0(), "one clock per device");
        assert!(plan.offset_s(6).abs() <= 2.0);
        assert_eq!(accel.values(), original.values());
    }
}
