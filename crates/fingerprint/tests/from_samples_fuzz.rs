//! API fuzz of `FingerprintDb::from_samples`: hostile survey samples
//! (ragged lengths, locations without samples, duplicate ids, infinite
//! readings and pairs whose running mean overflows) must each yield a
//! database or the typed error the input calls for, never a panic, and
//! the same one, bit for bit, whether the samples are fingerprints or
//! plain value iterators.

use moloc_fingerprint::db::{DbError, FingerprintDb};
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_geometry::LocationId;
use moloc_stats::online::Welford;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One location's id and its survey samples.
type Location = (u32, Vec<Vec<f64>>);

/// Usually a plausible dBm value; sometimes ±1.7e308, two of which
/// overflow a running mean, or ±infinity.
fn reading() -> impl Strategy<Value = f64> {
    (0u8..64, -95.0..-20.0f64).prop_map(|(pick, v)| match pick {
        0 => 1.7e308,
        1 => -1.7e308,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        _ => v,
    })
}

/// Usually 2 readings; sometimes 0, 1 or 3, so samples are ragged.
fn sample() -> impl Strategy<Value = Vec<f64>> {
    (0u8..32, prop::collection::vec(reading(), 3)).prop_map(|(pick, mut values)| {
        values.truncate(match pick {
            0 => 0,
            1 => 1,
            2 => 3,
            _ => 2,
        });
        values
    })
}

/// Ids from a small range, so duplicates are common; one to three
/// samples each, or sometimes none.
fn location() -> impl Strategy<Value = Location> {
    let samples = (0u8..8, prop::collection::vec(sample(), 1..4));
    (1u32..=6, samples)
        .prop_map(|(id, (pick, samples))| (id, if pick == 0 { Vec::new() } else { samples }))
}

/// A fingerprint holding `values` as given. `Fingerprint::new` refuses
/// infinities, but deserialization lets them in (`1e999` parses to
/// infinity), which is how hostile survey data arrives.
fn fingerprint(values: &[f64]) -> Fingerprint {
    let text: Vec<String> = values
        .iter()
        .map(|v| match *v {
            f64::INFINITY => "1e999".to_string(),
            f64::NEG_INFINITY => "-1e999".to_string(),
            v => format!("{v:e}"),
        })
        .collect();
    serde_json::from_str(&format!("{{\"values\":[{}]}}", text.join(","))).expect("valid JSON")
}

/// The per-AP running mean `from_samples` documents, or `None` when the
/// samples are empty or ragged.
fn mean(samples: &[Vec<f64>]) -> Option<Vec<f64>> {
    let width = samples.first()?.len();
    if samples.iter().any(|s| s.len() != width) {
        return None;
    }
    let mut acc = vec![Welford::new(); width];
    for s in samples {
        acc.iter_mut().zip(s).for_each(|(a, &v)| a.push(v));
    }
    Some(acc.iter().map(Welford::mean).collect())
}

fn build(input: &[Location]) -> Result<FingerprintDb, DbError> {
    FingerprintDb::from_samples(input.iter().map(|(id, samples)| {
        let fps: Vec<Fingerprint> = samples.iter().map(|s| fingerprint(s)).collect();
        (LocationId::new(*id), fps)
    }))
}

/// `from_samples` over each sample's values as a plain iterator, the
/// form a caller folding raw scans passes: the same fold as over
/// fingerprints.
fn build_from_values(input: &[Location]) -> Result<FingerprintDb, DbError> {
    FingerprintDb::from_samples(input.iter().map(|(id, samples)| {
        (
            LocationId::new(*id),
            samples.iter().map(|s| s.iter().copied()),
        )
    }))
}

/// Every row's id and value bits.
fn row_bits(db: &FingerprintDb) -> Vec<(LocationId, Vec<u64>)> {
    db.iter()
        .map(|(id, fp)| (id, fp.values().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

fn check(input: &[Location]) -> Result<(), TestCaseError> {
    let result = build(input);
    match (&result, build_from_values(input)) {
        (Ok(db), Ok(from_values)) => prop_assert_eq!(row_bits(db), row_bits(&from_values)),
        (Err(e), Err(from_values)) => prop_assert_eq!(e, &from_values),
        (a, b) => prop_assert!(false, "fingerprints gave {a:?}, values {b:?}"),
    }
    let empty = input.is_empty() || input.iter().any(|(_, samples)| samples.is_empty());
    let lengths: BTreeSet<usize> = input.iter().flat_map(|(_, s)| s).map(Vec::len).collect();
    let ids: BTreeSet<u32> = input.iter().map(|(id, _)| *id).collect();
    let duplicate = ids.len() < input.len();
    let non_finite = |id: u32| {
        input.iter().any(|(i, samples)| {
            *i == id && mean(samples).is_some_and(|m| m.iter().any(|v| !v.is_finite()))
        })
    };
    match result {
        Ok(db) => {
            prop_assert!(!empty && lengths.len() == 1 && !duplicate);
            prop_assert_eq!(db.len(), input.len());
            prop_assert_eq!(Some(db.ap_count()), lengths.first().copied());
            for (id, samples) in input {
                let row = db
                    .fingerprint(LocationId::new(*id))
                    .expect("one row per id");
                prop_assert!(row.values().iter().all(|v| v.is_finite()));
                prop_assert_eq!(Some(row.values().to_vec()), mean(samples));
            }
        }
        Err(DbError::Empty) => prop_assert!(empty),
        Err(DbError::InconsistentLength { expected, found }) => {
            prop_assert!(expected != found);
            prop_assert!(lengths.contains(&expected) && lengths.contains(&found));
        }
        Err(DbError::DuplicateLocation(id)) => {
            prop_assert!(input.iter().filter(|(i, _)| *i == id.get()).count() > 1);
        }
        Err(DbError::NonFinite(id)) => prop_assert!(non_finite(id.get())),
        Err(other) => prop_assert!(false, "unexpected error {other:?}"),
    }
    Ok(())
}

proptest! {
    #[test]
    fn from_samples_returns_a_database_or_the_error_its_input_calls_for(
        input in prop::collection::vec(location(), 0..5),
    ) {
        check(&input)?;
    }
}
