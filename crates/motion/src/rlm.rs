//! Relative location measurements.

use moloc_geometry::LocationId;
use moloc_stats::circular::{normalize_deg, reverse_deg};
use serde::{Deserialize, Serialize};

/// A relative location measurement `r_{i,j} = ⟨d, o⟩`: walking from
/// `from` to `to` took direction `d` (compass degrees) and offset `o`
/// meters (Sec. IV-B1).
///
/// Deserializing goes through [`Rlm::new`]: a self-loop, a negative or
/// non-finite offset and a non-finite direction are errors, and the
/// direction is normalized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Rlm {
    /// Starting location `i`.
    pub from: LocationId,
    /// Ending location `j`.
    pub to: LocationId,
    /// Direction measurement in `[0, 360)` degrees.
    pub direction_deg: f64,
    /// Offset (walked distance) in meters.
    pub offset_m: f64,
}

/// The serialized form of an [`Rlm`], before its checks.
#[derive(Deserialize)]
struct RawRlm {
    from: LocationId,
    to: LocationId,
    direction_deg: f64,
    offset_m: f64,
}

impl<'de> Deserialize<'de> for Rlm {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let raw = RawRlm::deserialize(deserializer)?;
        Rlm::new(raw.from, raw.to, raw.direction_deg, raw.offset_m)
            .map_err(serde::de::Error::custom)
    }
}

/// Error constructing an invalid [`Rlm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidRlmError {
    /// `from` and `to` are the same location.
    SelfLoop,
    /// The offset is negative or not finite.
    BadOffset,
    /// The direction is not finite.
    BadDirection,
}

impl std::fmt::Display for InvalidRlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidRlmError::SelfLoop => write!(f, "RLM endpoints must differ"),
            InvalidRlmError::BadOffset => write!(f, "RLM offset must be finite and non-negative"),
            InvalidRlmError::BadDirection => write!(f, "RLM direction must be finite"),
        }
    }
}

impl std::error::Error for InvalidRlmError {}

impl Rlm {
    /// Creates an RLM; the direction is normalized into `[0, 360)`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRlmError`] for self-loops, negative/non-finite
    /// offsets, or non-finite directions.
    pub fn new(
        from: LocationId,
        to: LocationId,
        direction_deg: f64,
        offset_m: f64,
    ) -> Result<Self, InvalidRlmError> {
        if from == to {
            return Err(InvalidRlmError::SelfLoop);
        }
        if !offset_m.is_finite() || offset_m < 0.0 {
            return Err(InvalidRlmError::BadOffset);
        }
        if !direction_deg.is_finite() {
            return Err(InvalidRlmError::BadDirection);
        }
        Ok(Self {
            from,
            to,
            direction_deg: normalize_deg(direction_deg),
            offset_m,
        })
    }

    /// The mirror RLM `r_{j,i}`: endpoints swapped, direction reversed
    /// (`d + 180° mod 360°`), same offset — the paper's mutual
    /// reachability rule.
    pub fn mirror(&self) -> Rlm {
        Rlm {
            from: self.to,
            to: self.from,
            direction_deg: reverse_deg(self.direction_deg),
            offset_m: self.offset_m,
        }
    }

    /// Whether this RLM is in canonical orientation (smaller id first).
    pub fn is_canonical(&self) -> bool {
        self.from < self.to
    }

    /// The canonical form: mirrored if `from.ID > to.ID`, unchanged
    /// otherwise — the paper's *data reassembling*.
    pub fn canonical(&self) -> Rlm {
        if self.is_canonical() {
            *self
        } else {
            self.mirror()
        }
    }

    /// The unordered pair key `(min, max)` of the endpoints.
    pub fn pair(&self) -> (LocationId, LocationId) {
        if self.from < self.to {
            (self.from, self.to)
        } else {
            (self.to, self.from)
        }
    }
}

impl std::fmt::Display for Rlm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} → {}: ⟨{:.1}°, {:.2} m⟩",
            self.from, self.to, self.direction_deg, self.offset_m
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    #[test]
    fn construction_normalizes_direction() {
        let r = Rlm::new(l(1), l(2), 450.0, 3.0).unwrap();
        assert_eq!(r.direction_deg, 90.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert_eq!(
            Rlm::new(l(1), l(1), 0.0, 1.0),
            Err(InvalidRlmError::SelfLoop)
        );
        assert_eq!(
            Rlm::new(l(1), l(2), 0.0, -1.0),
            Err(InvalidRlmError::BadOffset)
        );
        assert_eq!(
            Rlm::new(l(1), l(2), f64::NAN, 1.0),
            Err(InvalidRlmError::BadDirection)
        );
        assert_eq!(
            Rlm::new(l(1), l(2), 0.0, f64::INFINITY),
            Err(InvalidRlmError::BadOffset)
        );
    }

    #[test]
    fn mirror_swaps_and_reverses() {
        let r = Rlm::new(l(1), l(2), 30.0, 5.8).unwrap();
        let m = r.mirror();
        assert_eq!(m.from, l(2));
        assert_eq!(m.to, l(1));
        assert_eq!(m.direction_deg, 210.0);
        assert_eq!(m.offset_m, 5.8);
    }

    #[test]
    fn mirror_is_involution() {
        let r = Rlm::new(l(3), l(7), 123.4, 2.5).unwrap();
        let back = r.mirror().mirror();
        assert_eq!(
            (back.from, back.to, back.offset_m),
            (r.from, r.to, r.offset_m)
        );
        assert!((back.direction_deg - r.direction_deg).abs() < 1e-9);
    }

    #[test]
    fn canonical_orients_smaller_id_first() {
        let forward = Rlm::new(l(2), l(5), 90.0, 4.0).unwrap();
        assert!(forward.is_canonical());
        assert_eq!(forward.canonical(), forward);

        let backward = Rlm::new(l(5), l(2), 270.0, 4.0).unwrap();
        assert!(!backward.is_canonical());
        let canon = backward.canonical();
        assert_eq!(canon.from, l(2));
        assert_eq!(canon.to, l(5));
        assert_eq!(canon.direction_deg, 90.0);
    }

    #[test]
    fn pair_is_orientation_independent() {
        let a = Rlm::new(l(2), l(5), 90.0, 4.0).unwrap();
        let b = Rlm::new(l(5), l(2), 270.0, 4.0).unwrap();
        assert_eq!(a.pair(), b.pair());
        assert_eq!(a.pair(), (l(2), l(5)));
    }

    #[test]
    fn display_is_informative() {
        let r = Rlm::new(l(1), l(2), 90.0, 5.75).unwrap();
        assert_eq!(r.to_string(), "L1 → L2: ⟨90.0°, 5.75 m⟩");
    }
}
