//! Strict parsing for `MOLOC_*` environment knobs.
//!
//! Historically every runtime knob (`MOLOC_THREADS`,
//! `MOLOC_REORDER_CAPACITY`, the `MOLOC_CHECKPOINT_*` family) silently
//! fell back to its default when the variable held garbage — a typo'd
//! `MOLOC_THREADS=fuor` ran the whole evaluation serial without a word.
//! The helpers here are the strict counterparts: a **set but
//! malformed** value is a configuration error
//! ([`MolocError::InvalidConfig`] carrying the offending string), an
//! **unset** variable is `Ok(None)` so callers keep their defaults.
//!
//! Callers that cannot surface a `Result` (process-wide cached
//! resolution) still use these parsers and fail fast; entry-point
//! binaries call their crate's `validate_env()` first so the operator
//! sees the typed error before any work starts.

use crate::error::MolocError;

/// Parses an optional environment value as a `usize`.
///
/// `Ok(None)` when unset, `Ok(Some(n))` for a well-formed integer
/// (surrounding whitespace tolerated), and
/// [`MolocError::InvalidConfig`] naming `field` and echoing the raw
/// string for anything else — including empty strings and negative or
/// non-numeric input.
///
/// # Errors
///
/// Returns [`MolocError::InvalidConfig`] when the value is set but
/// does not parse.
pub fn parse_usize(field: &'static str, raw: Option<&str>) -> Result<Option<usize>, MolocError> {
    match raw {
        None => Ok(None),
        Some(raw) => raw
            .trim()
            .parse::<usize>()
            .map(Some)
            .map_err(|_| MolocError::invalid_config_value(field, raw)),
    }
}

/// [`parse_usize`] with a positivity requirement: `0` is rejected like
/// any other malformed value. Worker counts, reorder capacities, and
/// checkpoint intervals are meaningless at zero.
///
/// # Errors
///
/// Returns [`MolocError::InvalidConfig`] when the value is set but
/// does not parse to an integer ≥ 1.
pub fn parse_positive_usize(
    field: &'static str,
    raw: Option<&str>,
) -> Result<Option<usize>, MolocError> {
    match parse_usize(field, raw)? {
        Some(0) => Err(MolocError::invalid_config_value(
            field,
            raw.unwrap_or_default(),
        )),
        other => Ok(other),
    }
}

/// Parses an optional boolean toggle: `0`/`1` only, the workspace
/// convention for boolean knobs (today just `MOLOC_CHECKPOINT_FSYNC`).
/// Anything else — `true`, `off`, a typo — is an error carrying the
/// raw string, never a silent default.
///
/// # Errors
///
/// Returns [`MolocError::InvalidConfig`] when the value is set but is
/// neither `0` nor `1`.
pub fn parse_toggle(field: &'static str, raw: Option<&str>) -> Result<Option<bool>, MolocError> {
    match raw {
        None => Ok(None),
        Some(raw) => match raw.trim() {
            "0" => Ok(Some(false)),
            "1" => Ok(Some(true)),
            _ => Err(MolocError::invalid_config_value(field, raw)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_values_keep_defaults() {
        assert_eq!(parse_usize("MOLOC_THREADS", None), Ok(None));
        assert_eq!(
            parse_positive_usize("MOLOC_REORDER_CAPACITY", None),
            Ok(None)
        );
        assert_eq!(parse_toggle("MOLOC_CHECKPOINT_FSYNC", None), Ok(None));
    }

    #[test]
    fn well_formed_values_parse_with_whitespace() {
        assert_eq!(parse_usize("MOLOC_THREADS", Some(" 6 ")), Ok(Some(6)));
        assert_eq!(
            parse_positive_usize("MOLOC_REORDER_CAPACITY", Some("128")),
            Ok(Some(128))
        );
        assert_eq!(
            parse_toggle("MOLOC_CHECKPOINT_FSYNC", Some("1")),
            Ok(Some(true))
        );
        assert_eq!(
            parse_toggle("MOLOC_CHECKPOINT_FSYNC", Some(" 0 ")),
            Ok(Some(false))
        );
    }

    #[test]
    fn malformed_values_name_the_knob_and_echo_the_string() {
        for (field, raw) in [
            ("MOLOC_THREADS", "fuor"),
            ("MOLOC_THREADS", ""),
            ("MOLOC_REORDER_CAPACITY", "-3"),
            ("MOLOC_CHECKPOINT_INTERVAL", "1e3"),
        ] {
            let err = parse_usize(field, Some(raw)).unwrap_err();
            assert_eq!(err, MolocError::invalid_config_value(field, raw));
            let msg = err.to_string();
            assert!(msg.contains(field), "{msg}");
        }
    }

    #[test]
    fn zero_is_rejected_where_positivity_is_required() {
        let err = parse_positive_usize("MOLOC_CHECKPOINT_INTERVAL", Some("0")).unwrap_err();
        assert_eq!(
            err,
            MolocError::invalid_config_value("MOLOC_CHECKPOINT_INTERVAL", "0")
        );
        // ...while the plain parser accepts it.
        assert_eq!(
            parse_usize("MOLOC_CHECKPOINT_INTERVAL", Some("0")),
            Ok(Some(0))
        );
    }

    #[test]
    fn toggles_accept_only_zero_and_one() {
        for bad in ["true", "yes", "2", ""] {
            assert!(parse_toggle("MOLOC_CHECKPOINT_FSYNC", Some(bad)).is_err());
        }
    }
}
