//! The typed error hierarchy and degradation vocabulary of the
//! localization stack.
//!
//! Production serving must not panic on messy inputs: missing APs,
//! sensor gaps, and unpopulated motion-database cells are the dominant
//! field failure modes (see DESIGN.md §12). The serving paths therefore
//! report recoverable conditions through [`MolocError`] and surface
//! which *graceful fallbacks* fired through [`DegradationFlags`], so a
//! caller can distinguish a clean estimate from one produced by the
//! degradation ladder (full fusion → fingerprint-only → candidate
//! reset).

/// A recoverable serving-path error.
///
/// Every variant is a caller-input problem, never an internal
/// inconsistency — internal invariant violations remain panics so they
/// fail loudly in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MolocError {
    /// The query fingerprint length does not match the database.
    QueryLength {
        /// Expected AP count.
        expected: usize,
        /// Found AP count.
        found: usize,
    },
    /// The motion measurement is not finite (or has a negative offset).
    BadMeasurement,
    /// A configuration value was rejected by validation (e.g. a
    /// non-positive sanitation threshold, or a malformed `MOLOC_*`
    /// environment variable).
    InvalidConfig {
        /// The offending configuration field (or environment variable).
        field: &'static str,
        /// The rejected raw value, when one was supplied (env/config
        /// strings); `None` for structural violations with no single
        /// offending literal.
        value: Option<String>,
    },
}

impl MolocError {
    /// An [`MolocError::InvalidConfig`] with no captured raw value.
    pub fn invalid_config(field: &'static str) -> Self {
        MolocError::InvalidConfig { field, value: None }
    }

    /// An [`MolocError::InvalidConfig`] carrying the rejected raw
    /// string, so diagnostics name both the knob and what was fed to
    /// it.
    pub fn invalid_config_value(field: &'static str, value: impl Into<String>) -> Self {
        MolocError::InvalidConfig {
            field,
            value: Some(value.into()),
        }
    }
}

impl std::fmt::Display for MolocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MolocError::QueryLength { expected, found } => {
                write!(f, "query has {found} APs, database expects {expected}")
            }
            MolocError::BadMeasurement => write!(f, "motion measurement must be finite"),
            MolocError::InvalidConfig { field, value } => match value {
                Some(value) => write!(f, "invalid configuration: {field}={value:?}"),
                None => write!(f, "invalid configuration: {field}"),
            },
        }
    }
}

impl std::error::Error for MolocError {}

impl From<moloc_motion::filter::SanitationError> for MolocError {
    fn from(e: moloc_motion::filter::SanitationError) -> Self {
        MolocError::invalid_config(e.field())
    }
}

/// Which graceful fallbacks fired while producing one estimate.
///
/// A compact bitset (no allocation, `Copy`) surfaced per observation by
/// `BatchLocalizer::last_flags`. Empty flags mean the estimate came
/// from the clean full-fusion path, bit-identical to the fault-free
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradationFlags(u8);

impl DegradationFlags {
    /// The query contained non-finite RSS values; k-NN ranked on the
    /// observed APs only (masked metric).
    pub const MASKED_QUERY: Self = Self(1);
    /// Every AP of the query was missing; the candidate set degraded
    /// to a uniform prior over the lowest-id locations.
    pub const NO_OBSERVED_APS: Self = Self(1 << 1);
    /// Eq. 7's transition mass was degenerate (underflow or
    /// non-finite); the step fell back to the fingerprint-only prior
    /// (Eq. 4).
    pub const MOTION_FALLBACK: Self = Self(1 << 2);
    /// The fingerprint posterior itself collapsed; the candidate set
    /// was reset to uniform and tracking history dropped.
    pub const CANDIDATE_RESET: Self = Self(1 << 3);

    /// No degradation: the clean full-fusion path.
    pub const fn empty() -> Self {
        Self(0)
    }

    /// The raw bit representation.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds flags from a raw bit representation, masking unknown
    /// bits. The checkpoint/recovery path round-trips flags through
    /// [`DegradationFlags::bits`]; masking keeps a corrupted-but-
    /// checksum-colliding byte from smuggling undefined flags in.
    pub const fn from_bits(bits: u8) -> Self {
        Self(bits & 0b1111)
    }

    /// Whether no fallback fired.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether every flag of `other` is set in `self`.
    pub const fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }

    /// Sets every flag of `other`.
    pub fn insert(&mut self, other: Self) {
        self.0 |= other.0;
    }

    /// The flags set in either operand.
    pub const fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }
}

impl std::ops::BitOr for DegradationFlags {
    type Output = Self;

    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl std::fmt::Display for DegradationFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "clean");
        }
        let mut first = true;
        for (flag, name) in [
            (Self::MASKED_QUERY, "masked-query"),
            (Self::NO_OBSERVED_APS, "no-observed-aps"),
            (Self::MOTION_FALLBACK, "motion-fallback"),
            (Self::CANDIDATE_RESET, "candidate-reset"),
        ] {
            if self.contains(flag) {
                if !first {
                    write!(f, "+")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_variant() {
        let q = MolocError::QueryLength {
            expected: 6,
            found: 4,
        };
        assert!(q.to_string().contains("6"));
        assert!(MolocError::BadMeasurement.to_string().contains("finite"));
        assert!(MolocError::invalid_config("fine_sigma")
            .to_string()
            .contains("fine_sigma"));
        let with_value = MolocError::invalid_config_value("MOLOC_THREADS", "banana");
        assert!(with_value.to_string().contains("MOLOC_THREADS"));
        assert!(with_value.to_string().contains("banana"));
    }

    #[test]
    fn sanitation_errors_convert_into_invalid_config() {
        use moloc_motion::filter::{SanitationConfig, SanitationError};
        let err: MolocError = SanitationError::NonPositive {
            field: "coarse_offset_m",
        }
        .into();
        assert_eq!(err, MolocError::invalid_config("coarse_offset_m"));
        // The round trip from a real invalid config lands on the same
        // variant.
        let bad = SanitationConfig {
            min_samples: 0,
            ..SanitationConfig::default()
        };
        let err: MolocError = bad.validate().unwrap_err().into();
        assert_eq!(err, MolocError::invalid_config("min_samples"));
    }

    #[test]
    fn flags_round_trip_through_bits() {
        let f = DegradationFlags::MASKED_QUERY | DegradationFlags::CANDIDATE_RESET;
        assert_eq!(DegradationFlags::from_bits(f.bits()), f);
        // Unknown high bits are masked off, never resurrected.
        assert_eq!(DegradationFlags::from_bits(0xF0), DegradationFlags::empty());
        assert_eq!(
            DegradationFlags::from_bits(0xFF),
            DegradationFlags::MASKED_QUERY
                | DegradationFlags::NO_OBSERVED_APS
                | DegradationFlags::MOTION_FALLBACK
                | DegradationFlags::CANDIDATE_RESET
        );
    }

    #[test]
    fn flags_compose() {
        let mut f = DegradationFlags::empty();
        assert!(f.is_empty());
        assert_eq!(f.to_string(), "clean");
        f.insert(DegradationFlags::MASKED_QUERY);
        f.insert(DegradationFlags::MOTION_FALLBACK);
        assert!(f.contains(DegradationFlags::MASKED_QUERY));
        assert!(f.contains(DegradationFlags::MOTION_FALLBACK));
        assert!(!f.contains(DegradationFlags::CANDIDATE_RESET));
        assert_eq!(f.to_string(), "masked-query+motion-fallback");
        let g = DegradationFlags::MASKED_QUERY | DegradationFlags::MOTION_FALLBACK;
        assert_eq!(f, g);
        assert_eq!(f.bits(), 0b101);
    }
}
