#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Differential-oracle verification layer (DESIGN.md §18).
//!
//! Nine PRs of optimisation — AVX2 k-NN tiles, f32 mirrors, motion
//! kernel lookup tables, work-stealing evaluation, epoch snapshots,
//! checkpointed recovery — each argued "bit-identical to the
//! reference" in its own tests. This crate centralises the references
//! those arguments lean on, in two layers:
//!
//! * [`oracle`] — naive, obviously-correct implementations of the
//!   paper's math and the workspace's wire formats: Eq. 4 candidate
//!   probabilities, Eq. 5/6 motion matching through the exact
//!   `erf`-based CDF, Eq. 7 posterior fusion, exhaustive k-NN with
//!   the documented tie order, circular mean/std, motion-database
//!   sanitation re-decided per RLM, and the checkpoint record framing. Oracles take primitive inputs (slices, id/value
//!   pairs, Gaussian parameters) so every higher crate can be
//!   compared against them without a dependency cycle.
//! * [`invariant`] — runtime checks of properties that must hold on
//!   every hot-path output (posterior is a probability simplex,
//!   k-NN ranks are monotone with exact tie order, watermarks and
//!   epochs never move backwards). The checks are threaded into the
//!   serving crates and gate on **one relaxed atomic load**, exactly
//!   like the `moloc-obs` recorder: a disabled check costs a single
//!   predicted branch and never feeds back into the computation.
//!
//! The `moloc-audit` binary (in `moloc-eval`) drives the oracles
//! differentially against every optimised path under seeded fault
//! plans and reports divergences as structured JSON; CI runs it as a
//! required gate.
//!
//! # Usage
//!
//! ```
//! use moloc_geometry::LocationId;
//!
//! // Checks are no-ops until enabled.
//! moloc_verify::check_posterior("demo", [(LocationId::new(1), 0.25)]);
//!
//! // Recording mode collects violations instead of panicking.
//! moloc_verify::enable_recording();
//! moloc_verify::check_posterior("demo", [(LocationId::new(1), 0.25)]);
//! let violations = moloc_verify::take_violations();
//! assert_eq!(violations.len(), 1);
//! moloc_verify::set_enabled(false);
//! ```

pub mod invariant;
pub mod oracle;
pub mod report;

pub use invariant::{
    check_epoch, check_knn_ranks, check_posterior, check_watermark, check_weights, Violation,
};
pub use report::{AuditReport, Divergence, SuiteSummary};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Whether invariant checks run. Relaxed is enough: checks are
/// advisory and never synchronize data (the obs-recorder pattern).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Violation handling: `false` panics at the violation site (the
/// test-suite default — a red test carries the full context), `true`
/// records into the global sink (the audit binary's mode — every
/// violation lands in the JSON report instead of aborting the sweep).
static RECORDING: AtomicBool = AtomicBool::new(false);

/// The recorded-violation sink (only fed in recording mode).
static VIOLATIONS: Mutex<Vec<Violation>> = Mutex::new(Vec::new());

/// Turns invariant checking on in panic mode: a violated invariant
/// panics with its context and detail.
pub fn enable() {
    RECORDING.store(false, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns invariant checking on in recording mode: violations
/// accumulate in a global sink for [`take_violations`].
pub fn enable_recording() {
    RECORDING.store(true, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Sets the enabled flag (for tests and audit arms that toggle
/// checking around a region).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether invariant checks are running. One relaxed load — this is
/// the entire disabled-path cost of every check call.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether violations record instead of panic.
pub fn is_recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Drains and returns every violation recorded so far.
pub fn take_violations() -> Vec<Violation> {
    std::mem::take(&mut *VIOLATIONS.lock().expect("violation sink poisoned"))
}

/// Number of violations currently recorded.
pub fn violation_count() -> usize {
    VIOLATIONS.lock().expect("violation sink poisoned").len()
}

/// Dispatches one violation: records it in recording mode, panics
/// otherwise. Called by the [`invariant`] checks after [`is_enabled`]
/// passed, so this is never on a disabled hot path.
pub(crate) fn violate(check: &'static str, detail: String) {
    if is_recording() {
        VIOLATIONS
            .lock()
            .expect("violation sink poisoned")
            .push(Violation {
                check: check.to_string(),
                detail,
            });
    } else {
        panic!("moloc-verify invariant violated [{check}]: {detail}");
    }
}

#[cfg(test)]
pub(crate) mod test_gate {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that touch the global enabled/recording state.
    static GATE: Mutex<()> = Mutex::new(());

    pub fn lock() -> MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_geometry::LocationId;

    #[test]
    fn disabled_checks_are_no_ops() {
        let _gate = test_gate::lock();
        set_enabled(false);
        let _ = take_violations();
        // A blatantly broken posterior passes silently while disabled.
        check_posterior("test.disabled", [(LocationId::new(1), 42.0)]);
        assert_eq!(violation_count(), 0);
    }

    #[test]
    fn recording_mode_collects_instead_of_panicking() {
        let _gate = test_gate::lock();
        enable_recording();
        let _ = take_violations();
        check_posterior("test.record", [(LocationId::new(1), 0.5)]);
        let violations = take_violations();
        set_enabled(false);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].check, "test.record");
        assert!(violations[0].detail.contains("sums to"));
    }

    #[test]
    #[should_panic(expected = "moloc-verify invariant violated")]
    fn panic_mode_panics_at_the_site() {
        let _gate = test_gate::lock();
        enable();
        let result = std::panic::catch_unwind(|| {
            check_posterior("test.panic", [(LocationId::new(1), 0.5)]);
        });
        set_enabled(false);
        // Re-raise outside the gate so the lock is released first.
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
    }
}
