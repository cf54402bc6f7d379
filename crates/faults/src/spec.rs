//! Serializable fault-plan specifications.
//!
//! A chaos failure that cannot be reproduced is noise. A
//! [`FaultPlanSpec`] is the declarative form of a fault composition —
//! one optional slot per injector — that round-trips through
//! deterministic JSON (vendored `serde_json` emits fields in
//! declaration order), so any failing chaos test can print the exact
//! plan + seed that broke it and a developer can replay it verbatim:
//!
//! ```
//! use moloc_faults::spec::FaultPlanSpec;
//! use moloc_faults::ApDropout;
//!
//! let spec = FaultPlanSpec {
//!     ap_dropout: Some(ApDropout { rate: 0.3, seed: 7 }),
//!     ..FaultPlanSpec::default()
//! };
//! let json = spec.to_json().unwrap();
//! let back = FaultPlanSpec::from_json(&json).unwrap();
//! assert_eq!(spec, back);
//! ```

use serde::{Deserialize, Serialize};

use crate::ap::{ApDropout, ApOutage, RogueAp, StaleDrift};
use crate::rlm::RlmCorruption;
use crate::sensor::{SensorGap, TimestampJitter};
use crate::stream::{
    CheckpointCorruption, ClockSkew, ScanDuplicate, ScanLoss, ScanReorder, StaleSnapshot,
};

/// A declarative fault composition: one optional slot per injector.
///
/// The first eight slots act on input contents; the stream/lifecycle
/// slots (`scan_reorder`, `scan_duplicate`, `scan_loss`,
/// `checkpoint_corruption`, `stale_snapshot`) act on transport and
/// lifecycle, and the session and live layers consume them directly.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlanSpec {
    /// Per-reading AP dropout.
    pub ap_dropout: Option<ApDropout>,
    /// Hard single-AP outage.
    pub ap_outage: Option<ApOutage>,
    /// Rogue-AP bias and bursts.
    pub rogue_ap: Option<RogueAp>,
    /// Stale-survey fingerprint drift.
    pub stale_drift: Option<StaleDrift>,
    /// Inertial stream gaps.
    pub sensor_gap: Option<SensorGap>,
    /// Sensor timebase jitter.
    pub timestamp_jitter: Option<TimestampJitter>,
    /// Motion-database cell deletion.
    pub rlm_corruption: Option<RlmCorruption>,
    /// Per-trace device clock skew.
    pub clock_skew: Option<ClockSkew>,
    /// Arrival-order permutation.
    pub scan_reorder: Option<ScanReorder>,
    /// Wire-level event duplication.
    pub scan_duplicate: Option<ScanDuplicate>,
    /// Wire-level event loss.
    pub scan_loss: Option<ScanLoss>,
    /// Checkpoint-record bit flips.
    pub checkpoint_corruption: Option<CheckpointCorruption>,
    /// Stale live-database snapshots held at the reader.
    pub stale_snapshot: Option<StaleSnapshot>,
}

impl FaultPlanSpec {
    /// Names of the active injectors, in composition order.
    pub fn active(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        if self.ap_dropout.is_some() {
            names.push("ap_dropout");
        }
        if self.ap_outage.is_some() {
            names.push("ap_outage");
        }
        if self.rogue_ap.is_some() {
            names.push("rogue_ap");
        }
        if self.stale_drift.is_some() {
            names.push("stale_drift");
        }
        if self.sensor_gap.is_some() {
            names.push("sensor_gap");
        }
        if self.timestamp_jitter.is_some() {
            names.push("timestamp_jitter");
        }
        if self.rlm_corruption.is_some() {
            names.push("rlm_corruption");
        }
        if self.clock_skew.is_some() {
            names.push("clock_skew");
        }
        if self.scan_reorder.is_some() {
            names.push("scan_reorder");
        }
        if self.scan_duplicate.is_some() {
            names.push("scan_duplicate");
        }
        if self.scan_loss.is_some() {
            names.push("scan_loss");
        }
        if self.checkpoint_corruption.is_some() {
            names.push("checkpoint_corruption");
        }
        if self.stale_snapshot.is_some() {
            names.push("stale_snapshot");
        }
        names
    }

    /// Serializes to deterministic JSON (field declaration order).
    ///
    /// # Errors
    ///
    /// Propagates the serializer error (practically unreachable for
    /// this plain-data struct).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a spec back from [`FaultPlanSpec::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed or mistyped JSON.
    pub fn from_json(json: &str) -> Result<FaultPlanSpec, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// One-line reproduction banner for chaos-test failures: the
    /// active injector names plus the full JSON spec. Test harnesses
    /// print this before panicking so every red run is replayable.
    pub fn describe(&self) -> String {
        let json = self
            .to_json()
            .unwrap_or_else(|e| format!("<unserializable: {e:?}>"));
        format!("fault plan [{}]:\n{}", self.active().join("+"), json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> FaultPlanSpec {
        FaultPlanSpec {
            ap_dropout: Some(ApDropout { rate: 0.25, seed: 1 }),
            ap_outage: Some(ApOutage { ap: 3 }),
            rogue_ap: Some(RogueAp {
                ap: 1,
                bias_db: 6.0,
                burst_rate: 0.1,
                burst_db: 12.0,
                seed: 2,
            }),
            stale_drift: Some(StaleDrift {
                std_db: 2.0,
                seed: 3,
            }),
            sensor_gap: Some(SensorGap {
                gaps_per_trace: 2,
                gap_s: 1.5,
                seed: 4,
            }),
            timestamp_jitter: Some(TimestampJitter {
                std_s: 0.25,
                seed: 5,
            }),
            rlm_corruption: Some(RlmCorruption {
                fraction: 0.5,
                seed: 6,
            }),
            clock_skew: Some(ClockSkew {
                max_skew_s: 1.0,
                drift_per_s: 0.001,
                seed: 7,
            }),
            scan_reorder: Some(ScanReorder {
                rate: 0.3,
                window: 4,
                seed: 8,
            }),
            scan_duplicate: Some(ScanDuplicate {
                rate: 0.2,
                seed: 9,
            }),
            scan_loss: Some(ScanLoss {
                rate: 0.1,
                seed: 10,
            }),
            checkpoint_corruption: Some(CheckpointCorruption {
                rate: 0.5,
                seed: 11,
            }),
            stale_snapshot: Some(StaleSnapshot {
                rate: 0.15,
                seed: 13,
            }),
        }
    }

    #[test]
    fn full_spec_round_trips_through_json() {
        let spec = full_spec();
        let json = spec.to_json().expect("serializes");
        let back = FaultPlanSpec::from_json(&json).expect("parses");
        assert_eq!(spec, back);
    }

    #[test]
    fn empty_spec_round_trips() {
        let spec = FaultPlanSpec::default();
        let back = FaultPlanSpec::from_json(&spec.to_json().expect("serializes")).expect("parses");
        assert_eq!(spec, back);
        assert!(spec.active().is_empty());
        assert_eq!(full_spec().active().len(), 13);
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = full_spec().to_json().expect("serializes");
        let b = full_spec().to_json().expect("serializes");
        assert_eq!(a, b);
        // Field order is declaration order, so dropout precedes the
        // stale snapshot.
        let d = a.find("ap_dropout").expect("present");
        let s = a.find("stale_snapshot").expect("present");
        assert!(d < s);
    }

    #[test]
    fn describe_names_active_injectors_and_embeds_the_json() {
        let spec = FaultPlanSpec {
            scan_loss: Some(ScanLoss {
                rate: 0.1,
                seed: 10,
            }),
            checkpoint_corruption: Some(CheckpointCorruption {
                rate: 0.5,
                seed: 11,
            }),
            ..FaultPlanSpec::default()
        };
        let banner = spec.describe();
        assert!(banner.contains("scan_loss+checkpoint_corruption"));
        assert!(banner.contains("\"rate\""));
        assert!(FaultPlanSpec::from_json(banner.split_once(":\n").expect("banner").1).is_ok());
    }
}
