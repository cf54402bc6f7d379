//! `FingerprintIndex::patch_rows` against `FingerprintIndex::from_rows`
//! over the patched matrix: after every accepted patch the two indexes
//! must be `==` (rows, f32 mirror and its presence, and the exact
//! `max_abs`), and a refused patch must leave the index as it was.

use moloc_fingerprint::db::DbError;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use proptest::prelude::*;

/// The largest |value| the f32 mirror accepts (`F32_SAFE_LIMIT`).
const F32_SAFE_LIMIT: f64 = 1e15;

/// Row `r`'s id: odd ids, so every even id is unknown to the index.
fn id(r: usize) -> LocationId {
    LocationId::new(2 * r as u32 + 1)
}

fn max_abs(matrix: &[f64]) -> f64 {
    matrix.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// One patch entry: which row (0 = the row holding the current
/// maximum, 1..=5 = row `pick`, 6 = an unknown id), what to write
/// (0..=3 = RSS, 4 = past the current maximum, 5 = past
/// `F32_SAFE_LIMIT`, 6 = exactly at it, 7 = a NaN or an infinity,
/// 8 = one value too many or too few), and the raw values.
type Entry = (u32, usize, u32, Vec<f64>);

fn entry() -> impl Strategy<Value = Entry> {
    (
        0u32..7,
        0usize..64,
        0u32..9,
        prop::collection::vec(-100.0..0.0f64, 10),
    )
}

/// What a patch entry writes, given the model matrix it patches.
fn values(kind: u32, raw: &[f64], aps: usize, max: f64) -> Vec<f64> {
    let mut row = raw[..aps].to_vec();
    match kind {
        4 => row.iter_mut().for_each(|v| *v -= max + 1.0),
        5 => row.iter_mut().for_each(|v| *v += 3e15),
        6 => row.iter_mut().take(1).for_each(|v| *v = -F32_SAFE_LIMIT),
        7 => row
            .iter_mut()
            .take(1)
            .for_each(|v| *v = if *v < -50.0 { f64::NAN } else { f64::INFINITY }),
        8 if raw[aps] < -50.0 || aps == 0 => row.push(-40.0),
        8 => {
            row.pop();
        }
        _ => {}
    }
    row
}

proptest! {
    #[test]
    fn a_patched_index_equals_from_rows_over_the_patched_matrix(
        shape in (1usize..24, 0usize..10, 0u32..4),
        base in prop::collection::vec(-100.0..0.0f64, 240),
        patches in prop::collection::vec(prop::collection::vec(entry(), 1..6), 1..12),
    ) {
        let (rows, aps, scale) = shape;
        let ids: Vec<LocationId> = (0..rows).map(id).collect();
        // One base in four starts past the mirror's limit.
        let factor = if scale == 0 { 1e14 } else { 1.0 };
        let mut matrix: Vec<f64> = base[..rows * aps].iter().map(|v| v * factor).collect();
        let mut index = FingerprintIndex::from_rows(ids.clone(), matrix.clone(), aps)
            .expect("valid rows");
        for patch in &patches {
            let max = max_abs(&matrix);
            let holder = (0..rows)
                .find(|&r| matrix[r * aps..(r + 1) * aps].iter().any(|v| v.abs() == max))
                .unwrap_or(0);
            let entries: Vec<(LocationId, Vec<f64>)> = patch
                .iter()
                .map(|(target, pick, kind, raw)| {
                    let id = match target {
                        0 => id(holder),
                        6 => LocationId::new(2 * (*pick as u32 % 30) + 2),
                        _ => id(pick % rows),
                    };
                    (id, values(*kind, raw, aps, max))
                })
                .collect();
            let slices: Vec<(LocationId, &[f64])> =
                entries.iter().map(|(id, v)| (*id, v.as_slice())).collect();
            // The first entry that is not a row of this index is refused.
            let refusal = entries.iter().find_map(|(id, v)| {
                if ids.binary_search(id).is_err() {
                    Some(DbError::UnknownLocation(*id))
                } else if v.len() != aps {
                    Some(DbError::InconsistentLength { expected: aps, found: v.len() })
                } else if v.iter().any(|x| !x.is_finite()) {
                    Some(DbError::NonFinite(*id))
                } else {
                    None
                }
            });
            let before = index.clone();
            let result = index.patch_rows(&slices);
            match refusal {
                Some(err) => {
                    prop_assert_eq!(result, Err(err));
                    prop_assert!(index == before, "a refused patch changed the index");
                }
                None => {
                    prop_assert_eq!(result, Ok(()));
                    for (id, v) in &entries {
                        let r = ids.binary_search(id).expect("a known id");
                        matrix[r * aps..(r + 1) * aps].copy_from_slice(v);
                    }
                    let rebuilt = FingerprintIndex::from_rows(ids.clone(), matrix.clone(), aps)
                        .expect("valid rows");
                    prop_assert!(index == rebuilt, "patched index differs from from_rows");
                    prop_assert_eq!(index.has_mirror(), max_abs(&matrix) < F32_SAFE_LIMIT);
                }
            }
        }
    }
}

/// An index over three 4-AP rows and the matrix it was built from.
fn small() -> (Vec<LocationId>, Vec<f64>, FingerprintIndex) {
    let ids = vec![id(0), id(1), id(2)];
    let matrix = vec![
        -40.0, -41.0, -42.0, -43.0, //
        -90.0, -40.0, -40.0, -40.0, //
        -50.0, -51.0, -52.0, -53.0,
    ];
    let index = FingerprintIndex::from_rows(ids.clone(), matrix.clone(), 4).unwrap();
    (ids, matrix, index)
}

#[test]
fn a_patch_moves_the_maximum_and_the_mirror_both_ways() {
    let (ids, mut matrix, mut index) = small();
    let steps: [(usize, [f64; 4], bool); 5] = [
        // Raises the maximum from 90 to 95 on a row that did not hold it.
        (0, [-95.0, -40.0, -40.0, -40.0], true),
        // Lowers the row that holds 95: the maximum falls back to 90.
        (0, [-60.0, -40.0, -40.0, -40.0], true),
        // Crosses the mirror's limit upward: the mirror is dropped.
        (2, [-2e15, -51.0, -52.0, -53.0], false),
        // Exactly at the limit still has no mirror.
        (2, [-F32_SAFE_LIMIT, -51.0, -52.0, -53.0], false),
        // Back below it: the mirror is transposed again.
        (2, [-50.5, -51.0, -52.0, -53.0], true),
    ];
    for (r, values, mirror) in steps {
        index.patch_rows(&[(ids[r], &values[..])]).unwrap();
        matrix[r * 4..(r + 1) * 4].copy_from_slice(&values);
        let rebuilt = FingerprintIndex::from_rows(ids.clone(), matrix.clone(), 4).unwrap();
        assert_eq!(index, rebuilt, "row {r} := {values:?}");
        assert_eq!(index.has_mirror(), mirror);
        assert_eq!(index.row(r), &values);
    }
}

#[test]
fn a_later_entry_for_one_row_wins() {
    let (ids, mut matrix, mut index) = small();
    // The first entry would raise the maximum to 99; the second writes
    // the same row below the old maximum, which another row holds.
    let high = [-99.0; 4];
    let low = [-45.0; 4];
    index
        .patch_rows(&[(ids[2], &high[..]), (ids[2], &low[..])])
        .unwrap();
    matrix[8..12].copy_from_slice(&low);
    assert_eq!(index, FingerprintIndex::from_rows(ids, matrix, 4).unwrap());
}

#[test]
fn a_refused_patch_writes_nothing() {
    let (ids, _, mut index) = small();
    let before = index.clone();
    let good = [-1.0; 4];
    let cases: [(LocationId, Vec<f64>, DbError); 4] = [
        (
            LocationId::new(2),
            vec![-1.0; 4],
            DbError::UnknownLocation(LocationId::new(2)),
        ),
        (
            ids[1],
            vec![-1.0; 3],
            DbError::InconsistentLength {
                expected: 4,
                found: 3,
            },
        ),
        (
            ids[1],
            vec![-1.0, f64::NAN, -1.0, -1.0],
            DbError::NonFinite(ids[1]),
        ),
        (
            ids[2],
            vec![-1.0, -1.0, -1.0, f64::NEG_INFINITY],
            DbError::NonFinite(ids[2]),
        ),
    ];
    for (bad_id, bad, err) in cases {
        // A valid entry before the bad one is not written either.
        let patch = [(ids[0], &good[..]), (bad_id, bad.as_slice())];
        assert_eq!(index.patch_rows(&patch), Err(err));
        assert_eq!(index, before);
    }
}
