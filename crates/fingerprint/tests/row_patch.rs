//! `FingerprintIndex::patch_rows` against `FingerprintIndex::from_rows`
//! over the patched matrix: after every accepted patch the two indexes
//! must be `==` (rows, f32 mirror and its presence, and the exact
//! `max_abs`), and a refused patch must leave the index as it was. An
//! index keeps the mirror only where blocks read it: more than
//! `SMALL_INDEX_ROWS` rows at 4–8 APs with f32-safe values.

use moloc_fingerprint::db::DbError;
use moloc_fingerprint::index::{FingerprintIndex, SMALL_INDEX_ROWS};
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

/// Whether an index over this matrix keeps the f32 mirror.
fn keeps_mirror(rows: usize, aps: usize, matrix: &[f64]) -> bool {
    rows > SMALL_INDEX_ROWS && (4..=8).contains(&aps) && max_abs(matrix) < F32_SAFE_LIMIT
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
        0usize..200,
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
        mirror_shape in (57usize..100, 4usize..=8, 0u32..4),
        base in prop::collection::vec(-100.0..0.0f64, 900),
        patches in prop::collection::vec(prop::collection::vec(entry(), 1..6), 1..12),
    ) {
        // Three cases in four draw a shape whose blocks read the
        // mirror, so patches write its columns; the rest any small one.
        let (rows, aps, scale) = if mirror_shape.2 == 0 { shape } else { mirror_shape };
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
                    prop_assert_eq!(index.has_mirror(), keeps_mirror(rows, aps, &matrix));
                }
            }
        }
    }
}

/// Rows of the 4-AP test survey.
const SURVEY_ROWS: usize = SMALL_INDEX_ROWS + 4;

/// An index over 60 4-AP rows, which keeps the mirror, and the matrix
/// it was built from. Row 1 holds the maximum, 90.
fn survey() -> (Vec<LocationId>, Vec<f64>, FingerprintIndex) {
    let ids: Vec<LocationId> = (0..SURVEY_ROWS).map(id).collect();
    let mut matrix = vec![
        -40.0, -41.0, -42.0, -43.0, //
        -90.0, -40.0, -40.0, -40.0, //
        -50.0, -51.0, -52.0, -53.0,
    ];
    for r in 3..SURVEY_ROWS {
        matrix.extend([
            -45.0 - (r % 40) as f64,
            -50.0,
            -55.0,
            -60.0 + 0.25 * r as f64,
        ]);
    }
    let index = FingerprintIndex::from_rows(ids.clone(), matrix.clone(), 4).unwrap();
    assert!(index.has_mirror());
    (ids, matrix, index)
}

#[test]
fn a_patch_moves_the_maximum_and_the_mirror_both_ways() {
    let (ids, mut matrix, mut index) = survey();
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
    let (ids, mut matrix, mut index) = survey();
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
    let (ids, _, mut index) = survey();
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

#[test]
fn the_served_shapes_keep_no_mirror_built_or_patched() {
    // The 2048 x 16 grid of the serving workloads is too wide for the
    // mirror kernel, and the paper's 28 x 6 too small for blocks to
    // take it; 2048 x 6 does keep one.
    for (rows, aps, mirror) in [(2048, 16, false), (28, 6, false), (2048, 6, true)] {
        let ids: Vec<LocationId> = (0..rows).map(id).collect();
        let matrix: Vec<f64> = (0..rows * aps)
            .map(|v| -40.0 - (v % 53) as f64 * 0.5)
            .collect();
        let mut index = FingerprintIndex::from_rows(ids.clone(), matrix.clone(), aps).unwrap();
        assert_eq!(index.has_mirror(), mirror, "{rows} x {aps} built");
        let row = vec![-62.5; aps];
        let patch: Vec<(LocationId, &[f64])> = [0, rows / 2, rows - 1]
            .iter()
            .map(|&r| (ids[r], row.as_slice()))
            .collect();
        index.patch_rows(&patch).unwrap();
        assert_eq!(index.has_mirror(), mirror, "{rows} x {aps} patched");
        let mut patched = matrix;
        for r in [0, rows / 2, rows - 1] {
            patched[r * aps..(r + 1) * aps].copy_from_slice(&row);
        }
        assert_eq!(
            index,
            FingerprintIndex::from_rows(ids, patched, aps).unwrap()
        );
    }
}
