//! Regression tests for the degradation layer: non-finite RSS in
//! databases is rejected, non-finite RSS in queries is masked.

use moloc_fingerprint::db::{DbError, FingerprintDb};
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_fingerprint::metric::masked_euclidean_sq;
use moloc_fingerprint::nn_localizer::NnLocalizer;
use moloc_geometry::LocationId;

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

fn db() -> FingerprintDb {
    FingerprintDb::from_fingerprints(vec![
        (l(1), Fingerprint::new(vec![-40.0, -70.0, -55.0])),
        (l(2), Fingerprint::new(vec![-55.0, -55.0, -40.0])),
        (l(3), Fingerprint::new(vec![-70.0, -40.0, -65.0])),
    ])
    .unwrap()
}

/// `Fingerprint` derives `Deserialize`, which bypasses the constructor's
/// finite assertion (`1e999` parses as +inf) — the database must catch
/// what slips through.
#[test]
fn deserialized_infinite_fingerprint_is_rejected() {
    let fp: Fingerprint = serde_json::from_str(r#"{"values":[-40.0,1e999]}"#).unwrap();
    assert!(fp.values()[1].is_infinite());
    let err = FingerprintDb::from_fingerprints(vec![
        (l(1), Fingerprint::new(vec![-40.0, -70.0])),
        (l(2), fp),
    ])
    .unwrap_err();
    assert_eq!(err, DbError::NonFinite(l(2)));
}

/// A deserialized database is checked like `from_fingerprints`, so
/// `FingerprintIndex::build` can never meet an empty, ragged, poisoned
/// or duplicated survey.
#[test]
fn deserialized_database_is_checked() {
    let db = |entries: &str, ap_count: usize| {
        serde_json::from_str::<FingerprintDb>(&format!(
            r#"{{"entries":[{entries}],"ap_count":{ap_count}}}"#
        ))
    };
    let ok = db(
        r#"[2,{"values":[-40.0,-60.0]}],[1,{"values":[-50.0,-70.0]}]"#,
        2,
    )
    .unwrap();
    assert_eq!(ok.locations().collect::<Vec<_>>(), [l(1), l(2)]);
    assert_eq!(FingerprintIndex::build(&ok).ids(), &[l(1), l(2)]);
    for (entries, ap_count, want) in [
        ("", 2, "empty"),
        (r#"[1,{"values":[-40.0,1e999]}]"#, 2, "non-finite"),
        (
            r#"[1,{"values":[-40.0]}],[2,{"values":[-40.0,-50.0]}]"#,
            1,
            "length",
        ),
        (
            r#"[1,{"values":[-40.0]}],[1,{"values":[-41.0]}]"#,
            1,
            "duplicate",
        ),
        (r#"[1,{"values":[-40.0]}]"#, 3, "ap_count"),
    ] {
        let err = db(entries, ap_count).unwrap_err().to_string();
        assert!(err.contains(want), "{entries}: {err}");
    }
}

#[test]
fn from_samples_rejects_non_finite_mean() {
    // Averaging +inf and -inf survey samples produces a NaN mean; a
    // single infinite sample produces an infinite one. Both must
    // surface as `NonFinite`, never as a stored poisoned row.
    let pos: Fingerprint = serde_json::from_str(r#"{"values":[-44.0,1e999]}"#).unwrap();
    let neg: Fingerprint = serde_json::from_str(r#"{"values":[-44.0,-1e999]}"#).unwrap();
    let err = FingerprintDb::from_samples(vec![(l(1), vec![pos.clone(), neg])]).unwrap_err();
    assert_eq!(err, DbError::NonFinite(l(1)));
    let err = FingerprintDb::from_samples(vec![(
        l(1),
        vec![Fingerprint::new(vec![-40.0, -60.0]), pos],
    )])
    .unwrap_err();
    assert_eq!(err, DbError::NonFinite(l(1)));
}

#[test]
fn masked_metric_ignores_masked_dimensions() {
    let (sum, observed) = masked_euclidean_sq(&[f64::NAN, -50.0, -60.0], &[-40.0, -53.0, -60.0]);
    assert_eq!(observed, 2);
    assert_eq!(sum, 9.0);
    let (sum, observed) = masked_euclidean_sq(&[f64::NAN, f64::NAN], &[-40.0, -53.0]);
    assert_eq!(observed, 0);
    assert_eq!(sum, 0.0);
}

#[test]
fn nan_query_localizes_on_observed_aps() {
    let db = db();
    let index = FingerprintIndex::build(&db);
    // AP 0 missing; APs 1 and 2 point clearly at L2.
    let query = [f64::NAN, -56.0, -41.0];
    for localizer in [NnLocalizer::new(&db), NnLocalizer::with_index(&db, &index)] {
        assert_eq!(localizer.localize_slice(&query).unwrap(), l(2));
    }
    // The custom-metric (no-index) arm degrades the same way.
    let custom = NnLocalizer::with_metric(&db, moloc_fingerprint::metric::Manhattan);
    assert_eq!(custom.localize_slice(&query).unwrap(), l(2));
}

#[test]
fn all_nan_query_returns_lowest_id_without_panicking() {
    let db = db();
    let index = FingerprintIndex::build(&db);
    let query = [f64::NAN; 3];
    for localizer in [NnLocalizer::new(&db), NnLocalizer::with_index(&db, &index)] {
        assert_eq!(localizer.localize_slice(&query).unwrap(), l(1));
    }
}

#[test]
fn masked_knn_matches_clean_knn_on_finite_queries() {
    let db = db();
    let index = FingerprintIndex::build(&db);
    let query = [-54.0, -56.0, -42.0];
    let mut scratch = KnnScratch::new();
    let (mut clean, mut masked) = (Vec::new(), Vec::new());
    index.k_nearest_into(&query, 2, &mut scratch, &mut clean);
    let observed = index.k_nearest_masked_into(&query, 2, &mut scratch, &mut masked);
    // No masked dimension: identical neighbors, identical ranks.
    assert_eq!(observed, 3);
    assert_eq!(clean, masked);
}

#[test]
fn masked_knn_scales_rank_to_full_dimensionality() {
    let db = db();
    let index = FingerprintIndex::build(&db);
    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();
    let observed =
        index.k_nearest_masked_into(&[f64::NAN, -56.0, -41.0], 3, &mut scratch, &mut out);
    assert_eq!(observed, 2);
    assert_eq!(out.len(), 3);
    assert_eq!(out[0].location, l(2));
    // Rank = sqrt(masked_sum * ap_count / observed): L2's masked sum is
    // (-56+55)^2 + (-41+40)^2 = 2, scaled by 3/2 -> sqrt(3).
    assert!((out[0].dissimilarity - 3.0f64.sqrt()).abs() < 1e-12);
    // Neighbors stay finite and sorted.
    for w in out.windows(2) {
        assert!(w[0].dissimilarity <= w[1].dissimilarity);
        assert!(w[1].dissimilarity.is_finite());
    }
}

#[test]
fn fully_masked_knn_returns_zero_ranks() {
    let db = db();
    let index = FingerprintIndex::build(&db);
    let mut scratch = KnnScratch::new();
    let mut out = Vec::new();
    let observed = index.k_nearest_masked_into(&[f64::NAN; 3], 2, &mut scratch, &mut out);
    assert_eq!(observed, 0);
    assert_eq!(out.len(), 2);
    // All-zero ranks: ties resolve to the lowest ids.
    assert_eq!(out[0].location, l(1));
    assert_eq!(out[1].location, l(2));
    assert!(out.iter().all(|n| n.dissimilarity == 0.0));
}
