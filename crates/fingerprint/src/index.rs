//! A columnar (structure-of-arrays) fingerprint index and the k-NN
//! candidate generator of Eq. 3.
//!
//! [`FingerprintIndex`] flattens a [`FingerprintDb`] once into a dense
//! row-major `locations × APs` matrix and ranks candidates on
//! *squared* Euclidean distance ([`euclidean_sq`]) — the square root
//! is deferred to the k survivors. It is the only fingerprint ranking
//! in the workspace: the nearest-neighbor and centroid baselines, the
//! MoLoc engine, Viterbi and the particle filter all rank through it.
//!
//! Ranking on the squared distance keeps the order of the distances:
//! `sqrt` is monotone, and ties break by lower location id. Each
//! reported dissimilarity is `euclidean_sq(..).sqrt()`, the arithmetic
//! of [`moloc_verify::oracle::euclidean`], so the exhaustive
//! [`moloc_verify::oracle::k_nearest`] is the reference for every
//! result bit for bit.
//!
//! # Four entry points, chosen by shape
//!
//! * [`FingerprintIndex::k_nearest_into`] — one clean query: the scalar
//!   scan at any AP width (fully unrolled for 4–8 APs), its `k` nearest
//!   kept in a table sorted as rows arrive.
//! * [`FingerprintIndex::k_nearest_masked_into`] — one query with
//!   non-finite values: the degradation path.
//! * [`FingerprintIndex::k_nearest_block_into`] — a
//!   [`crate::block::QueryBlock`] of queries: on an index of more than
//!   [`SMALL_INDEX_ROWS`] rows, the f32-mirror prefilter plus an exact
//!   f64 rescore when the width is 4–8 APs, `k ≤ 16` and every value is
//!   f32-safe; any other block loops over the two methods above.
//! * [`FingerprintIndex::rank_all_into`] — every row's distance to one
//!   query, for full-state emission models.
//!
//! Every strategy is bit-identical to the per-query scans, and which
//! one runs follows from the input alone: row count, AP width, `k`,
//! finite or not, and value magnitude. There is no runtime switch.

use crate::db::{DbError, FingerprintDb};
use crate::knn::Neighbor;
use crate::metric::{euclidean_sq, masked_euclidean_sq};
use moloc_geometry::LocationId;
use std::cmp::Ordering;

/// One retained scan candidate: rank ascending, ties broken by lower
/// row position (rows are stored in location-id order, so position
/// order is id order). Shared with the blocked kernels' per-query
/// selection tables ([`crate::block::BlockScratch`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankEntry {
    pub(crate) rank: f64,
    pub(crate) position: u32,
}

impl PartialEq for RankEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankEntry {}

impl PartialOrd for RankEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank
            .partial_cmp(&other.rank)
            .expect("ranks are finite")
            .then_with(|| self.position.cmp(&other.position))
    }
}

/// Reusable k-NN selection state: a bounded candidate table whose
/// backing allocation survives across queries. After the first query at
/// a given `k`, selection performs no heap allocations.
#[derive(Debug, Default)]
pub struct KnnScratch {
    /// The best `≤ k` candidates seen so far, kept sorted by (rank,
    /// position) as the scan goes.
    slots: Vec<RankEntry>,
}

impl KnnScratch {
    /// An empty scratch; capacity grows to `min(k, index.len())` on
    /// first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for queries with the given `k`.
    pub fn with_k(k: usize) -> Self {
        Self {
            slots: Vec::with_capacity(k),
        }
    }
}

/// Row count up to which [`FingerprintIndex::k_nearest_block_into`]
/// loops over the per-query scan instead of taking the f32 mirror (so
/// an index this small keeps none).
/// Measured (DESIGN.md §15, 6 APs, `k = 8`, 15-query blocks, queries
/// near survey rows): the loop won at 28 rows (420–505 against 734–854
/// ns per query) and at 56 (844–922 against 922–1,015), the two tied
/// from 58 to 62, and the mirror won from 64 (840–929 against
/// 943–1,021), where its 16-row panels leave no scalar tail.
pub const SMALL_INDEX_ROWS: usize = 56;

/// Selects the `k` smallest ranks of a position-ordered rank stream
/// into `slots`, *sorted* by (rank, position), so the table needs no
/// sort afterwards. A row goes in after every retained rank `<=` its
/// own: all retained positions are lower, so equal ranks keep position
/// order. Once the table is full, a row enters only on a rank
/// *strictly* below the last, which it pushes out — the common reject
/// is a single float compare against a register, and a NaN rank never
/// passes it.
///
/// # Panics
///
/// Panics on a NaN rank among the first `k` (ranks must not be NaN).
#[inline(always)]
fn select_sorted(ranks: impl Iterator<Item = f64>, k: usize, slots: &mut Vec<RankEntry>) {
    let mut ranks = (0u32..).zip(ranks);
    for (position, rank) in ranks.by_ref().take(k) {
        assert!(!rank.is_nan(), "ranks are finite");
        let entry = RankEntry { rank, position };
        slots.push(entry);
        let last = slots.len() - 1;
        insert_sorted(slots, last, entry);
    }
    if slots.len() < k {
        return;
    }
    let slots = slots.as_mut_slice();
    let mut worst = slots[k - 1].rank;
    for (position, rank) in ranks {
        if rank < worst {
            insert_sorted(slots, k - 1, RankEntry { rank, position });
            worst = slots[k - 1].rank;
        }
    }
}

/// Writes `entry` at `at` or, past every entry ranked above it, lower
/// in `slots[..=at]` (sorted), shifting those up one place; whatever
/// was at `at` is dropped.
#[inline(always)]
fn insert_sorted(slots: &mut [RankEntry], mut at: usize, entry: RankEntry) {
    while at > 0 && entry.rank < slots[at - 1].rank {
        slots[at] = slots[at - 1];
        at -= 1;
    }
    slots[at] = entry;
}

/// Index of the worst slot under (rank ascending, position ascending) —
/// the replacement target once the table is full.
#[inline]
fn worst_slot(slots: &[RankEntry]) -> usize {
    let mut at = 0usize;
    for (i, e) in slots.iter().enumerate().skip(1) {
        let w = slots[at];
        if e.rank > w.rank || (e.rank == w.rank && e.position > w.position) {
            at = i;
        }
    }
    at
}

/// Largest |value| of `values`, or `None` when one is not finite.
/// Folds eight independent lanes so the pass vectorizes; max is exact,
/// so the result equals a sequential fold.
fn finite_max_abs(values: &[f64]) -> Option<f64> {
    const LANES: usize = 8;
    let mut max = [0.0f64; LANES];
    let mut finite = [true; LANES];
    let chunks = values.chunks_exact(LANES);
    for &v in chunks.remainder() {
        finite[0] &= v.abs() <= f64::MAX;
        max[0] = max[0].max(v.abs());
    }
    for chunk in chunks {
        for lane in 0..LANES {
            let a = chunk[lane].abs();
            finite[lane] &= a <= f64::MAX;
            max[lane] = max[lane].max(a);
        }
    }
    finite
        .iter()
        .all(|&f| f)
        .then(|| max.iter().fold(0.0f64, |m, &v| m.max(v)))
}

/// The column-major f32 copy of a row-major `rows × ap_count` matrix,
/// transposed [`TRANSPOSE_ROWS`] rows at a time.
fn transpose_f32(matrix: &[f64], rows: usize, ap_count: usize) -> Vec<f32> {
    let mut cols = vec![0.0f32; rows * ap_count];
    if ap_count == 0 {
        return cols;
    }
    for start in (0..rows).step_by(TRANSPOSE_ROWS) {
        let end = (start + TRANSPOSE_ROWS).min(rows);
        let block = &matrix[start * ap_count..end * ap_count];
        for a in 0..ap_count {
            let col = &mut cols[a * rows + start..a * rows + end];
            for (c, row) in col.iter_mut().zip(block.chunks_exact(ap_count)) {
                *c = row[a] as f32;
            }
        }
    }
    cols
}

/// The flattened, cache-friendly view of a [`FingerprintDb`].
///
/// Rows are stored contiguously in location-id order.
///
/// # Examples
///
/// ```
/// use moloc_fingerprint::db::FingerprintDb;
/// use moloc_fingerprint::fingerprint::Fingerprint;
/// use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
/// use moloc_geometry::LocationId;
///
/// let db = FingerprintDb::from_fingerprints(vec![
///     (LocationId::new(1), Fingerprint::new(vec![-40.0, -70.0])),
///     (LocationId::new(2), Fingerprint::new(vec![-70.0, -40.0])),
/// ])?;
/// let index = FingerprintIndex::build(&db);
/// let (mut scratch, mut nearest) = (KnnScratch::new(), Vec::new());
/// index.k_nearest_into(&[-42.0, -69.0], 1, &mut scratch, &mut nearest);
/// assert_eq!(nearest[0].location, LocationId::new(1));
/// # Ok::<(), moloc_fingerprint::db::DbError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintIndex {
    ids: Vec<LocationId>,
    matrix: Vec<f64>,
    ap_count: usize,
    /// f32 quantized copy of `matrix` in *column-major* (AP-major)
    /// layout — `mirror[a * len() + row]` — used by the blocked scan
    /// as a half-bandwidth *prefilter*: contiguous per-AP columns let
    /// the f32 kernel vectorize across rows, and survivors are exactly
    /// rescored from `matrix`, so quantization can never change a
    /// result. Kept only where that scan reads it
    /// ([`blocks_read_mirror`]).
    mirror: Option<Vec<f32>>,
    /// Largest |value| in `matrix`; feeds the mirror's conservative
    /// quantization-error bound.
    max_abs: f64,
}

/// Largest |value| the f32 mirror accepts, for matrix and query alike.
/// Beyond this, f64→f32 conversion could overflow to infinity and a
/// subsequent `∞ − ∞` would poison ranks with NaN; below it every
/// intermediate of the f32 kernel stays finite (`4·8·(2·1e15)² ≪
/// f32::MAX`). RSS fingerprints live near `[-100, 0]`, so real surveys
/// never come close.
pub(crate) const F32_SAFE_LIMIT: f64 = 1e15;

/// Whether blocks over an index of this shape take the f32 mirror
/// prefilter, so the index keeps one: more than [`SMALL_INDEX_ROWS`]
/// rows, 4–8 APs (the widths of the mirror kernel), and every value
/// f32-safe (below [`F32_SAFE_LIMIT`] in magnitude). Any other index
/// answers blocks with the per-query loop and holds no mirror.
fn blocks_read_mirror(rows: usize, ap_count: usize, max_abs: f64) -> bool {
    rows > SMALL_INDEX_ROWS && (4..=8).contains(&ap_count) && max_abs < F32_SAFE_LIMIT
}

/// Rows per block of the f32 mirror transpose. A block of 64 rows at
/// 16 APs is 8 KiB of f64 and stays in L1 while each of its columns is
/// written as one contiguous stretch.
const TRANSPOSE_ROWS: usize = 64;

impl FingerprintIndex {
    /// Flattens a database into the columnar layout: its rows in id
    /// order, then [`FingerprintIndex::from_rows`], which cannot refuse
    /// them. `O(locations × APs)`, done once per scenario.
    pub fn build(db: &FingerprintDb) -> Self {
        let ap_count = db.ap_count();
        let mut ids = Vec::with_capacity(db.len());
        let mut matrix = Vec::with_capacity(db.len() * ap_count);
        for (id, fp) in db.iter() {
            ids.push(id);
            matrix.extend_from_slice(fp.values());
        }
        Self::from_rows(ids, matrix, ap_count)
            .expect("a FingerprintDb is non-empty, rectangular, finite and sorted by unique id")
    }

    /// Builds the index from rows already flattened, taking ownership
    /// of them: `matrix` holds `ap_count` values per location, row by
    /// row, in the order of `ids`.
    ///
    /// The f32 mirror, on an index whose blocks read it, is transposed
    /// in blocks of rows. A column at a time over every row would keep
    /// `ap_count` write cursors `rows × 4` bytes apart, which at 2,048
    /// rows all map to the same L1 cache sets.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Empty`] for no ids, [`DbError::Shape`] when
    /// `matrix` is not `ids.len() × ap_count` values,
    /// [`DbError::DuplicateLocation`] or [`DbError::UnsortedLocation`]
    /// when the ids do not strictly ascend, and [`DbError::NonFinite`]
    /// naming the first row that holds a NaN or an infinity.
    pub fn from_rows(
        ids: Vec<LocationId>,
        matrix: Vec<f64>,
        ap_count: usize,
    ) -> Result<Self, DbError> {
        if ids.is_empty() {
            return Err(DbError::Empty);
        }
        if ids.len().checked_mul(ap_count) != Some(matrix.len()) {
            return Err(DbError::Shape {
                rows: ids.len(),
                ap_count,
                values: matrix.len(),
            });
        }
        for pair in ids.windows(2) {
            match pair[0].cmp(&pair[1]) {
                Ordering::Less => {}
                Ordering::Equal => return Err(DbError::DuplicateLocation(pair[1])),
                Ordering::Greater => return Err(DbError::UnsortedLocation(pair[1])),
            }
        }
        let Some(max_abs) = finite_max_abs(&matrix) else {
            let at = matrix
                .iter()
                .position(|v| !v.is_finite())
                .expect("a value is not finite");
            return Err(DbError::NonFinite(ids[at / ap_count]));
        };
        let mirror = blocks_read_mirror(ids.len(), ap_count, max_abs)
            .then(|| transpose_f32(&matrix, ids.len(), ap_count));
        Ok(Self {
            ids,
            matrix,
            ap_count,
            mirror,
            max_abs,
        })
    }

    /// Overwrites the rows of the locations `rows` names, in order (a
    /// later entry for one id wins), leaving the index `==` to
    /// [`FingerprintIndex::from_rows`] over the patched matrix: the f32
    /// mirror's columns are written too where the index keeps one, and
    /// `max_abs` stays exact. It is refolded over every value only when
    /// a patched row held the old maximum; otherwise the new maximum is
    /// the old one or a patched value. A maximum that crosses
    /// `F32_SAFE_LIMIT` (1e15) drops or rebuilds the mirror, by the rule
    /// of `from_rows`. Costs the patched rows, plus one pass over all
    /// values on a refold and one transpose when the mirror comes back.
    ///
    /// # Errors
    ///
    /// Everything is checked before the first write, so a refused
    /// patch leaves the index unchanged. Returns
    /// [`DbError::UnknownLocation`] for an id the index does not hold (a
    /// patch adds no row), [`DbError::InconsistentLength`] for a row that
    /// is not `ap_count` values, and [`DbError::NonFinite`] for a row
    /// that holds a NaN or an infinity.
    pub fn patch_rows(&mut self, rows: &[(LocationId, &[f64])]) -> Result<(), DbError> {
        let mut positions = Vec::with_capacity(rows.len());
        for &(id, values) in rows {
            let position = self.position_of(id).ok_or(DbError::UnknownLocation(id))?;
            if values.len() != self.ap_count {
                return Err(DbError::InconsistentLength {
                    expected: self.ap_count,
                    found: values.len(),
                });
            }
            if !values.iter().all(|v| v.is_finite()) {
                return Err(DbError::NonFinite(id));
            }
            positions.push(position);
        }
        let held_max = positions
            .iter()
            .any(|&p| self.row(p).iter().any(|v| v.abs() == self.max_abs));
        let ap = self.ap_count;
        for (&p, &(_, values)) in positions.iter().zip(rows) {
            self.matrix[p * ap..(p + 1) * ap].copy_from_slice(values);
        }
        self.max_abs = if held_max {
            finite_max_abs(&self.matrix).expect("every row was finite and stays so")
        } else {
            positions.iter().fold(self.max_abs, |max, &p| {
                self.row(p).iter().fold(max, |max, v| max.max(v.abs()))
            })
        };
        let rows_total = self.ids.len();
        match (
            blocks_read_mirror(rows_total, ap, self.max_abs),
            &mut self.mirror,
        ) {
            (false, mirror) => *mirror = None,
            (true, None) => self.mirror = Some(transpose_f32(&self.matrix, rows_total, ap)),
            (true, Some(mirror)) => {
                for &p in &positions {
                    for (a, &v) in self.matrix[p * ap..(p + 1) * ap].iter().enumerate() {
                        mirror[a * rows_total + p] = v as f32;
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether the index carries an f32 mirror, which it does exactly
    /// when blocks over it take the mirror prefilter (for f32-safe
    /// queries and `k ≤ 16`): more than [`SMALL_INDEX_ROWS`] rows, 4–8
    /// APs and every value below 1e15 in magnitude.
    pub fn has_mirror(&self) -> bool {
        self.mirror.is_some()
    }

    /// Number of indexed locations.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty (never true:
    /// [`FingerprintIndex::from_rows`] rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of APs per fingerprint row.
    pub fn ap_count(&self) -> usize {
        self.ap_count
    }

    /// Location ids in row order (ascending).
    pub fn ids(&self) -> &[LocationId] {
        &self.ids
    }

    /// The fingerprint row at `position`.
    pub fn row(&self, position: usize) -> &[f64] {
        &self.matrix[position * self.ap_count..(position + 1) * self.ap_count]
    }

    /// The row position of a location id, if indexed.
    pub fn position_of(&self, id: LocationId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The `k` nearest locations by Euclidean distance, ascending by
    /// dissimilarity with ties broken by lower id, written into `out`
    /// (cleared first). With a warm `scratch` and `out`, the scan
    /// performs zero heap allocations. `k = 1` is the nearest-neighbor
    /// rule of Eq. 2.
    ///
    /// Matches [`moloc_verify::oracle::k_nearest`] exactly (see the
    /// module docs for why the squared ranking preserves order).
    ///
    /// Selection keeps the best `k` in a table sorted as rows arrive,
    /// with the last retained rank in a register: rows are visited in
    /// ascending position, so a later row can only displace a retained
    /// one when its rank is *strictly* smaller than that last rank
    /// (equal ranks lose the position tie-break) — the common reject is
    /// a single float compare, and the table needs no final sort.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, the query length does not match the
    /// index's AP count,
    /// or a NaN rank lands among the retained `k` (ranks must be
    /// finite; a NaN outside the retained set is never selected).
    pub fn k_nearest_into(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        self.select_into(query, k, scratch, out);
        moloc_obs::counter_add_batch(&[
            ("fingerprint.knn.queries", 1),
            ("fingerprint.knn.candidates_scanned", self.len() as u64),
        ]);
    }

    /// [`FingerprintIndex::k_nearest_into`] without the
    /// `fingerprint.knn.*` counters, which count Eq. 3 candidate
    /// generation. The fingerprint-only baselines scan through here:
    /// the WiFi baseline's Eq. 2 pick
    /// ([`crate::nn_localizer::NnLocalizer`], `k = 1`, which trace
    /// analysis runs) and the weighted centroid
    /// ([`crate::centroid::CentroidLocalizer`]).
    pub(crate) fn select_into(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        assert!(k > 0, "k must be positive");
        self.check_query(query);
        let slots = &mut scratch.slots;
        slots.clear();
        slots.reserve(k.min(self.len()));
        // Dispatch to a standalone monomorphic selection per row width:
        // keeping each unrolled scan in its own function avoids one
        // six-armed giant whose register pressure slows every arm.
        match self.ap_count {
            4 => self.k_select::<4>(query, k, slots),
            5 => self.k_select::<5>(query, k, slots),
            6 => self.k_select::<6>(query, k, slots),
            7 => self.k_select::<7>(query, k, slots),
            8 => self.k_select::<8>(query, k, slots),
            _ => self.k_select_dyn(query, k, slots),
        }
        self.finish("fingerprint.knn.ranks", slots, out);
    }

    /// Masked k-NN for queries with missing (non-finite) APs: a
    /// dropped AP contributes nothing to any row's distance instead of
    /// turning every rank into NaN (which would panic the selection)
    /// or being misread as "RSS 0 dBm". Partial sums are rescaled
    /// by `ap_count / observed` so dissimilarities stay comparable to
    /// the full-width metric in expectation. Returns the number of
    /// observed (finite) query dimensions; zero means nothing was
    /// observable and every row ranked 0 — callers should treat the
    /// resulting candidates as an uninformative uniform prior.
    ///
    /// This is the degradation path: clean queries must keep using
    /// [`FingerprintIndex::k_nearest_into`], which is bit-identical to
    /// the oracle's full-width ranking and considerably faster.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the query length does not match the
    /// index's AP count.
    pub fn k_nearest_masked_into(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) -> usize {
        let observed = self.select_masked_into(query, k, scratch, out);
        moloc_obs::counter_add_batch(&[
            ("fingerprint.knn.masked_queries", 1),
            ("fingerprint.knn.candidates_scanned", self.len() as u64),
        ]);
        observed
    }

    /// [`FingerprintIndex::k_nearest_masked_into`] without the
    /// counters; see [`FingerprintIndex::select_into`].
    pub(crate) fn select_masked_into(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) -> usize {
        assert!(k > 0, "k must be positive");
        self.check_query(query);
        let observed = query.iter().filter(|v| v.is_finite()).count();
        let scale = if observed == 0 {
            0.0
        } else {
            self.ap_count as f64 / observed as f64
        };
        let slots = &mut scratch.slots;
        slots.clear();
        slots.reserve(k.min(self.len()));
        if self.ap_count == 0 {
            select_sorted((0..self.len()).map(|_| 0.0), k, slots);
        } else {
            select_sorted(
                self.matrix.chunks_exact(self.ap_count).map(|row| {
                    let (sum, _) = masked_euclidean_sq(query, row);
                    sum * scale
                }),
                k,
                slots,
            );
        }
        self.finish("fingerprint.knn.masked.ranks", slots, out);
        observed
    }

    /// The Euclidean dissimilarity of every row to `query`, in row
    /// order, written into `out` (cleared first). Used for full-state
    /// emission models (Viterbi, the particle filter) that need all
    /// distances anyway; each value is bit-identical to
    /// [`moloc_verify::oracle::euclidean`] on the same pair.
    ///
    /// # Panics
    ///
    /// Panics if the query length does not match the index's AP count.
    pub fn rank_all_into(&self, query: &[f64], out: &mut Vec<f64>) {
        self.check_query(query);
        out.clear();
        out.reserve(self.len());
        // Common AP counts take a const-width loop: with the row (and
        // query) length known at compile time the distance loop fully
        // unrolls and the row iterator carries no per-row bounds checks.
        match self.ap_count {
            // A zero-AP index still has `len()` (empty) rows.
            0 => out.extend((0..self.len()).map(|_| euclidean_sq(query, &[]).sqrt())),
            4 => self.rank_rows::<4>(query, out),
            5 => self.rank_rows::<5>(query, out),
            6 => self.rank_rows::<6>(query, out),
            7 => self.rank_rows::<7>(query, out),
            8 => self.rank_rows::<8>(query, out),
            ap => out.extend(
                self.matrix
                    .chunks_exact(ap)
                    .map(|row| euclidean_sq(query, row).sqrt()),
            ),
        }
    }

    /// [`FingerprintIndex::rank_all_into`] over rows of compile-time
    /// width `N`.
    fn rank_rows<const N: usize>(&self, query: &[f64], out: &mut Vec<f64>) {
        let query: &[f64; N] = query.try_into().expect("query length checked");
        out.extend(self.matrix.chunks_exact(N).map(|row| {
            let row: &[f64; N] = row.try_into().expect("chunks are N wide");
            euclidean_sq(query, row).sqrt()
        }));
    }

    /// K-smallest selection over rows of compile-time width `N`.
    fn k_select<const N: usize>(&self, query: &[f64], k: usize, slots: &mut Vec<RankEntry>) {
        let query: &[f64; N] = query.try_into().expect("query length checked");
        select_sorted(
            self.matrix.chunks_exact(N).map(|row| {
                let row: &[f64; N] = row.try_into().expect("chunks are N wide");
                euclidean_sq(query, row)
            }),
            k,
            slots,
        );
    }

    /// K-smallest selection for uncommon row widths (and the zero-AP
    /// degenerate index, whose `len()` rows are all empty).
    fn k_select_dyn(&self, query: &[f64], k: usize, slots: &mut Vec<RankEntry>) {
        if self.ap_count == 0 {
            select_sorted((0..self.len()).map(|_| euclidean_sq(query, &[])), k, slots);
        } else {
            select_sorted(
                self.matrix
                    .chunks_exact(self.ap_count)
                    .map(|row| euclidean_sq(query, row)),
                k,
                slots,
            );
        }
    }

    /// Writes a finished, sorted selection table into `out` (cleared
    /// first) with each survivor's squared rank finalized to its
    /// Euclidean dissimilarity.
    #[inline]
    fn finish(&self, check: &'static str, slots: &[RankEntry], out: &mut Vec<Neighbor>) {
        out.clear();
        out.extend(slots.iter().map(|entry| Neighbor {
            location: self.ids[entry.position as usize],
            dissimilarity: entry.rank.sqrt(),
        }));
        moloc_verify::check_knn_ranks(check, out.iter().map(|n| (n.location, n.dissimilarity)));
    }

    fn check_query(&self, query: &[f64]) {
        assert_eq!(
            query.len(),
            self.ap_count,
            "query fingerprint length must match database"
        );
    }
}

// ---------------------------------------------------------------------
// The blocked multi-query scan (DESIGN.md §15).
//
// A `QueryBlock` of Q queries runs against the column-major f32 mirror
// at half the memory bandwidth of the f64 matrix: contiguous per-AP
// columns feed a rows × queries accumulator panel, and every row within
// a conservative quantization-error bound of a query's k-th smallest
// f32 rank survives to an exact f64 rescore under the serial
// comparator, which provably retains the true top-k (contents and tie
// order). The result is bit-identical to the per-query scan.
// ---------------------------------------------------------------------

/// Query lanes per f32 mirror register tile: 4 queries × a
/// [`MIRROR_CHUNK`]-row accumulator panel fits the vector register
/// file with room for the column loads.
const MIRROR_TILE_Q: usize = 4;

/// Rows per f32 mirror chunk: the accumulator-panel width of the
/// column-major compute kernel. 16 rows × [`MIRROR_TILE_Q`] queries is
/// eight vector registers of accumulators — the panel stays register-
/// resident with room for the column loads.
const MIRROR_CHUNK: usize = 16;

/// Lanes of the strided running-minimum sweep that bounds a query's
/// k-th smallest f32 rank (so the mirror path requires
/// `k <= BOUND_LANES`; larger k takes the per-query loop). 16 f32
/// lanes are two AVX2 registers of pure vertical `min` — the whole
/// bound costs a branchless pass over the rank row plus a 16-element
/// sort.
const BOUND_LANES: usize = 16;

/// One selection step of the rescore pass for a single query with
/// caller-held state: fill the first `k` offers unconditionally, then
/// replace the cached worst slot only on a *strictly* smaller rank
/// (equal ranks lose the position tie-break to every retained entry),
/// so the table holds [`select_sorted`]'s entries, unsorted. Offers
/// must arrive in ascending `position` order. `slots` is the query's
/// `k`-wide table; `worst_at` / `worst` are only meaningful once
/// `filled == k`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn offer(
    slots: &mut [RankEntry],
    filled: &mut u32,
    worst_at: &mut u32,
    worst: &mut f64,
    k: usize,
    rank: f64,
    position: u32,
) {
    let f = *filled as usize;
    if f < k {
        slots[f] = RankEntry { rank, position };
        *filled += 1;
        if f + 1 == k {
            let at = worst_slot(&slots[..k]);
            *worst_at = at as u32;
            *worst = slots[at].rank;
        }
    } else if rank < *worst {
        slots[*worst_at as usize] = RankEntry { rank, position };
        let at = worst_slot(&slots[..k]);
        *worst_at = at as u32;
        *worst = slots[at].rank;
    }
}

impl FingerprintIndex {
    /// Multi-query k-NN: ranks every query in `block` against the
    /// index and records each query's `k` nearest (ascending by
    /// dissimilarity, ties to lower id) plus its observed AP count in
    /// `out` (cleared first), in query order.
    ///
    /// The shapes pick the strategy. On an index that carries the f32
    /// mirror (more than [`SMALL_INDEX_ROWS`] rows, 4–8 APs and every
    /// value f32-safe, [`FingerprintIndex::has_mirror`]), with `k ≤ 16`
    /// and no query value reaching 1e15 in magnitude, clean queries run
    /// the mirror prefilter ahead of an exact f64 rescore. Any other
    /// block takes the per-query loop, its `fingerprint.knn.*` counts
    /// added once for the block. Either way the output is
    /// **bit-identical** to calling [`FingerprintIndex::k_nearest_into`]
    /// per clean query and [`FingerprintIndex::k_nearest_masked_into`]
    /// per degraded (non-finite) query: the mirror only prefilters,
    /// and masked queries always take the per-query masked path. With
    /// warm `block`, `scratch`, and `out` the scan performs zero heap
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the block's width does not match the
    /// index's AP count.
    pub fn k_nearest_block_into(
        &self,
        block: &mut crate::block::QueryBlock,
        k: usize,
        scratch: &mut crate::block::BlockScratch,
        out: &mut crate::block::BlockNeighbors,
    ) {
        assert!(k > 0, "k must be positive");
        assert_eq!(
            block.ap_count(),
            self.ap_count,
            "query block width must match database"
        );
        out.clear();
        if block.is_empty() {
            return;
        }
        let q_count = block.len();
        let clean_count = (0..q_count).filter(|&q| block.is_clean(q)).count();
        moloc_obs::counter_add_batch(&[
            ("fingerprint.knn.block_scans", 1),
            ("fingerprint.knn.block_queries", q_count as u64),
            ("fingerprint.knn.queries", clean_count as u64),
            (
                "fingerprint.knn.candidates_scanned",
                (clean_count * self.len()) as u64,
            ),
        ]);
        // The index keeps a mirror exactly where its shape lets blocks
        // read one (`blocks_read_mirror`).
        let mirror = self
            .mirror
            .as_deref()
            .filter(|_| k <= BOUND_LANES && block.max_abs() < F32_SAFE_LIMIT);
        let Some(mirror) = mirror else {
            // Per-query loop: exactly the scans the caller would have
            // made without a block, its clean queries counted above.
            for q in 0..q_count {
                let query = block.query(q);
                let observed = if block.is_clean(q) {
                    self.select_into(query, k, &mut scratch.knn, &mut scratch.tmp_out);
                    self.ap_count
                } else {
                    self.k_nearest_masked_into(query, k, &mut scratch.knn, &mut scratch.tmp_out)
                };
                out.push_query(&scratch.tmp_out, observed);
            }
            return;
        };
        block.seal();
        let block = &*block;
        // Reset the per-query selection tables (`k ≤ BOUND_LANES`
        // slots each). Masked queries get slots too (their NaN ranks
        // are never selected); their results come from the per-query
        // masked scan at emit.
        scratch.slots.clear();
        scratch.slots.resize(
            q_count * k,
            RankEntry {
                rank: 0.0,
                position: 0,
            },
        );
        scratch.filled.clear();
        scratch.filled.resize(q_count, 0);
        scratch.worst.clear();
        scratch.worst.resize(q_count, f64::INFINITY);
        self.block_pass_f32(mirror, block, k, scratch);
        self.block_rescore(block, k, scratch);
        for q in 0..q_count {
            if block.is_clean(q) {
                let filled = scratch.filled[q] as usize;
                // `RankEntry`'s total order panics on a retained NaN.
                let slots = &mut scratch.slots[q * k..q * k + filled];
                slots.sort_unstable();
                self.finish("fingerprint.knn.block.ranks", slots, &mut scratch.tmp_out);
                out.push_query(&scratch.tmp_out, self.ap_count);
            } else {
                let observed = self.k_nearest_masked_into(
                    block.query(q),
                    k,
                    &mut scratch.knn,
                    &mut scratch.tmp_out,
                );
                out.push_query(&scratch.tmp_out, observed);
            }
        }
    }

    /// Conservative bound `E` on `|f32 rank − f64 rank|` for squared-
    /// Euclidean ranks over values bounded by `m` in magnitude.
    /// Per term: quantizing both operands and differencing costs at
    /// most `≈2mε` absolutely, so the squared difference (magnitude
    /// `≤ 4m²`) is off by at most `≈10m²ε`; sequentially accumulating
    /// N terms adds at most `≈2N²m²ε` of summation rounding (partial
    /// sums are `≤ 4Nm²`) — `(10N + 2N²)m²ε` in total, and the
    /// `8·N·(N + 2)` factor keeps a ~3x margin on top of that.
    /// Soundness (never excluding a true top-k row) only needs `E` to
    /// be an over-estimate; slack merely admits extra survivors to the
    /// exact rescore, but too much slack sweeps every near-tie into
    /// the rescore on quantized-grid data.
    fn quantization_bound(&self, query_max_abs: f64) -> f64 {
        let m = self.max_abs.max(query_max_abs);
        let n = self.ap_count as f64;
        8.0 * n * (n + 2.0) * m * m * f64::from(f32::EPSILON)
    }

    /// Pass 1 of the mirror path, in two phases. The *compute* phase
    /// runs the branchless f32 column kernel over the quantized mirror:
    /// per chunk of [`MIRROR_CHUNK`] rows and register tile of
    /// [`MIRROR_TILE_Q`] queries, contiguous per-AP columns feed a
    /// rows × queries accumulator panel and every rank lands in the
    /// query-major `ranks32` buffer (row-contiguous stores, since the
    /// panel is already row-major per query). The *selection* phase
    /// then bounds each clean query's k-th smallest f32 rank via
    /// strided lane minima ([`kth_rank_bound`]) — that bound is the
    /// rescore threshold.
    fn block_pass_f32(
        &self,
        mirror: &[f32],
        block: &crate::block::QueryBlock,
        k: usize,
        scratch: &mut crate::block::BlockScratch,
    ) {
        let q_count = block.len();
        let lanes = block.lanes();
        scratch.lanes32.clear();
        scratch.lanes32.reserve(lanes.len());
        scratch.lanes32.extend(lanes.iter().map(|&v| v as f32));
        let rows = self.len();
        // Grow-only: the column kernel writes every (query, row) rank
        // before the selection and rescore passes read them, so warm
        // scans never pay the re-zeroing memset (256 KB per scan at
        // 2048 x 32).
        if scratch.ranks32.len() < q_count * rows {
            scratch.ranks32.resize(q_count * rows, 0.0);
        }
        {
            let crate::block::BlockScratch {
                ref lanes32,
                ref mut ranks32,
                ..
            } = *scratch;
            let ranks32 = &mut ranks32[..q_count * rows];
            match self.ap_count {
                4 => mirror_pass_f32::<4>(mirror, lanes32, rows, q_count, ranks32),
                5 => mirror_pass_f32::<5>(mirror, lanes32, rows, q_count, ranks32),
                6 => mirror_pass_f32::<6>(mirror, lanes32, rows, q_count, ranks32),
                7 => mirror_pass_f32::<7>(mirror, lanes32, rows, q_count, ranks32),
                8 => mirror_pass_f32::<8>(mirror, lanes32, rows, q_count, ranks32),
                _ => unreachable!("lane path requires 4..=8 APs"),
            }
        }
        self.block_select_f32(block, k, scratch);
    }

    /// Phase 2 of the f32 pass: per clean query, an upper bound on the
    /// k-th smallest f32 rank via [`kth_rank_bound`] — stored in the
    /// query's `worst` slot (`filled` stays 0; the rescore pass builds
    /// the actual table). A bound is enough: the rescore pass
    /// re-selects exactly among every row within the quantization band
    /// of it, so a looser bound only admits extra survivors, never
    /// changes the result. Masked queries are skipped outright; the
    /// emit loop replaces their results with the per-query masked
    /// scan. Requires `k <= BOUND_LANES` (the caller routes larger k
    /// to the per-query loop).
    fn block_select_f32(
        &self,
        block: &crate::block::QueryBlock,
        k: usize,
        scratch: &mut crate::block::BlockScratch,
    ) {
        let rows = self.len();
        let crate::block::BlockScratch {
            ref ranks32,
            ref mut filled,
            ref mut worst,
            ..
        } = *scratch;
        for q in 0..block.len() {
            if !block.is_clean(q) {
                continue;
            }
            worst[q] = kth_rank_bound(&ranks32[q * rows..(q + 1) * rows], k);
            filled[q] = 0;
        }
    }

    /// Pass 2 of the mirror path: per clean query, every row whose f32
    /// rank is within `2E` of the selection phase's bound `u` on the
    /// k-th smallest f32 rank survives, and the survivors are rescored
    /// with the exact f64 kernel under the serial (rank, position)
    /// comparator, overwriting the query's slot table with the final
    /// selection. Soundness: pointwise `|r32 − r64| ≤ E` puts every
    /// true top-k row's f32 rank at or below `w32 + 2E ≤ u + 2E`
    /// (where `w32` is the exact k-th smallest f32 rank), so the
    /// survivor set provably contains the true top-k and the rescore's
    /// selection among it is the global one.
    fn block_rescore(
        &self,
        block: &crate::block::QueryBlock,
        k: usize,
        scratch: &mut crate::block::BlockScratch,
    ) {
        let rows = self.len();
        let e = self.quantization_bound(block.max_abs());
        let mut survivors_total = 0u64;
        let crate::block::BlockScratch {
            ref ranks32,
            ref mut survivors,
            ref mut slots,
            ref mut filled,
            ref mut worst,
            ..
        } = *scratch;
        for q in 0..block.len() {
            if !block.is_clean(q) {
                continue;
            }
            // An infinite bound means fewer than k finite f32 ranks
            // existed (tiny surveys): everything is a survivor anyway.
            let tau = if worst[q].is_finite() {
                worst[q] + 2.0 * e
            } else {
                f64::INFINITY
            };
            survivors.clear();
            // Packed sweep of the query's rank row: survivors are
            // sparse, so almost every 8-lane compare is a zero-mask
            // skip. The rounded-up f32 bound can only admit extra
            // rows, which the exact f64 rescore below sorts out.
            let ranks = &ranks32[q * rows..(q + 1) * rows];
            for_each_below::<false>(ranks, f32_upper_bound(tau), |r| {
                survivors.push(r as u32);
            });
            survivors_total += survivors.len() as u64;
            let query = block.query(q);
            let slots = &mut slots[q * k..(q + 1) * k];
            let mut q_filled = 0u32;
            let mut worst_at = 0u32;
            let mut q_worst = f64::INFINITY;
            for &row in survivors.iter() {
                let rank = euclidean_sq(query, self.row(row as usize));
                offer(
                    slots,
                    &mut q_filled,
                    &mut worst_at,
                    &mut q_worst,
                    k,
                    rank,
                    row,
                );
            }
            filled[q] = q_filled;
        }
        moloc_obs::counter_add("fingerprint.knn.mirror_survivors", survivors_total);
    }
}

/// `true` when the host supports AVX2 and the wide recompilations of
/// the kernels below may be entered. `std`'s detection macro
/// caches the CPUID result in an atomic, so the per-call cost is one
/// relaxed load.
#[inline]
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The smallest f32 upper bound of `x`: the returned `b` satisfies
/// `f64::from(b) >= x`, so an f32 value `v` with `f64::from(v) < x`
/// (resp. `<= x`) always satisfies `v < b` (resp. `v <= b`). Used to
/// run candidate prefilters as pure f32 comparisons: the f32 sweep may
/// admit a few extra candidates (rounded-up bound), never lose one.
#[inline]
fn f32_upper_bound(x: f64) -> f32 {
    let b = x as f32;
    if f64::from(b) >= x || b.is_infinite() {
        b
    } else {
        // `as f32` rounded down; bump one ULP. Ranks are nonnegative
        // finite, for which the bit increment is exactly `next_up`.
        f32::from_bits(b.to_bits() + 1)
    }
}

/// Upper bound on the k-th smallest value of `vals` (`k` at most
/// [`BOUND_LANES`]), as an exact `f64`: [`BOUND_LANES`] strided
/// running minima over the buffer — pure vertical `min`, no branches,
/// no bookkeeping — then the k-th smallest of the lane minima.
///
/// Soundness: each finite lane minimum is an actual value of `vals`
/// at a distinct position, so if the k-th smallest lane minimum `u`
/// is finite, at least k distinct values are `<= u` and the true k-th
/// smallest is too. (An infinite `u` — fewer than k nonempty lanes —
/// is the trivial bound; callers rescore everything.) The bound is
/// near-exact in practice: a lane minimum is already deep in the left
/// tail of its 1/[`BOUND_LANES`] slice of the buffer, so the k-th
/// smallest of them sits within a few ranks of the true k-th.
///
/// NaNs (masked-query fill ranks never reach here, but belt and
/// braces) lose every `<` comparison, so they never displace a lane
/// minimum, and `total_cmp` sorts them last.
fn kth_rank_bound(vals: &[f32], k: usize) -> f64 {
    debug_assert!((1..=BOUND_LANES).contains(&k));
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support verified at runtime.
        return unsafe { kth_rank_bound_avx2(vals, k) };
    }
    kth_rank_bound_generic(vals, k)
}

#[inline(always)]
fn kth_rank_bound_generic(vals: &[f32], k: usize) -> f64 {
    let mut lanes = [f32::INFINITY; BOUND_LANES];
    let mut chunks = vals.chunks_exact(BOUND_LANES);
    for chunk in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = if v < *lane { v } else { *lane };
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = if v < *lane { v } else { *lane };
    }
    lanes.sort_unstable_by(f32::total_cmp);
    f64::from(lanes[k - 1])
}

/// AVX2 build of [`kth_rank_bound_generic`]: the lane minima are two
/// `vminps` registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kth_rank_bound_avx2(vals: &[f32], k: usize) -> f64 {
    kth_rank_bound_generic(vals, k)
}

/// Calls `f(i)` for every `i` with `vals[i] < bound` (`STRICT`) or
/// `vals[i] <= bound` (`!STRICT`), in ascending order. On AVX2 hosts
/// the predicate runs as a packed compare + movemask sweep, eight
/// lanes per iteration; the visited set is exactly the scalar
/// predicate's (comparison only, no arithmetic; NaN compares false in
/// both forms). This is the workhorse of the selection and survivor
/// passes: candidates are sparse, so almost every iteration is a
/// zero-mask skip.
#[inline]
fn for_each_below<const STRICT: bool>(vals: &[f32], bound: f32, f: impl FnMut(usize)) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: guarded by runtime AVX2 detection above.
        return unsafe { for_each_below_avx2::<STRICT>(vals, bound, f) };
    }
    for_each_below_generic::<STRICT>(vals, bound, f)
}

#[inline(always)]
fn for_each_below_generic<const STRICT: bool>(vals: &[f32], bound: f32, mut f: impl FnMut(usize)) {
    for (i, &v) in vals.iter().enumerate() {
        if (STRICT && v < bound) || (!STRICT && v <= bound) {
            f(i);
        }
    }
}

/// AVX2 compare + movemask sweep; identical visited set to
/// [`for_each_below_generic`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn for_each_below_avx2<const STRICT: bool>(
    vals: &[f32],
    bound: f32,
    mut f: impl FnMut(usize),
) {
    use std::arch::x86_64::{
        _mm256_cmp_ps, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_set1_ps, _CMP_LE_OQ, _CMP_LT_OQ,
    };
    let b = _mm256_set1_ps(bound);
    // Ordered quiet compares: false on NaN, like the scalar `<`.
    let cmp = |v| {
        if STRICT {
            _mm256_cmp_ps::<_CMP_LT_OQ>(v, b)
        } else {
            _mm256_cmp_ps::<_CMP_LE_OQ>(v, b)
        }
    };
    let mut i = 0usize;
    // Two vectors per iteration, fused into one 16-bit mask: bit order
    // equals index order, so visits stay ascending.
    while i + 16 <= vals.len() {
        // SAFETY: `i + 16 <= vals.len()` bounds both unaligned loads.
        let (v0, v1) = unsafe {
            (
                _mm256_loadu_ps(vals.as_ptr().add(i)),
                _mm256_loadu_ps(vals.as_ptr().add(i + 8)),
            )
        };
        let m0 = _mm256_movemask_ps(cmp(v0)) as u32 & 0xff;
        let m1 = _mm256_movemask_ps(cmp(v1)) as u32 & 0xff;
        let mut mask = m0 | (m1 << 8);
        while mask != 0 {
            f(i + mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
        i += 16;
    }
    if i + 8 <= vals.len() {
        // SAFETY: `i + 8 <= vals.len()` bounds the unaligned load.
        let v = unsafe { _mm256_loadu_ps(vals.as_ptr().add(i)) };
        let mut mask = _mm256_movemask_ps(cmp(v)) as u32 & 0xff;
        while mask != 0 {
            f(i + mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
        i += 8;
    }
    for_each_below_generic::<STRICT>(&vals[i..], bound, |j| f(i + j));
}

/// Full f32 compute pass over the column-major mirror: Q-tile outer
/// (the query lanes are hoisted into registers once per tile),
/// [`MIRROR_CHUNK`]-row panels inner — the mirror is half the f64
/// matrix and typically cache-resident, so re-streaming it per query
/// tile is cheap. Each row's rank `Σ (qₐ − rₐ)²` is accumulated in f32
/// in ascending AP order and spilled row-contiguously into the
/// query-major `ranks32` buffer. Branchless — no selection state is
/// touched here.
///
/// Dispatches at runtime between the baseline-target compilation of
/// [`mirror_pass_f32_generic`] and an AVX2 recompilation of the same
/// `#[inline(always)]` body. The two are bit-identical: each (query,
/// row) rank is a *sequential* accumulation over the AP axis — SIMD
/// width only changes how many independent accumulators advance per
/// instruction, never the order of operations within one — and FMA is
/// deliberately **not** enabled, so no contraction can alter a single
/// rounding.
#[inline]
fn mirror_pass_f32<const N: usize>(
    mirror: &[f32],
    lanes32: &[f32],
    rows: usize,
    q_count: usize,
    ranks32: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: guarded by runtime AVX2 detection above.
        return unsafe { mirror_pass_f32_avx2::<N>(mirror, lanes32, rows, q_count, ranks32) };
    }
    mirror_pass_f32_generic::<N>(mirror, lanes32, rows, q_count, ranks32)
}

/// AVX2 recompilation of [`mirror_pass_f32_generic`]; see
/// [`mirror_pass_f32`] for the bit-exactness argument.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mirror_pass_f32_avx2<const N: usize>(
    mirror: &[f32],
    lanes32: &[f32],
    rows: usize,
    q_count: usize,
    ranks32: &mut [f32],
) {
    mirror_pass_f32_generic::<N>(mirror, lanes32, rows, q_count, ranks32)
}

#[inline(always)]
fn mirror_pass_f32_generic<const N: usize>(
    mirror: &[f32],
    lanes32: &[f32],
    rows: usize,
    q_count: usize,
    ranks32: &mut [f32],
) {
    let main = rows - rows % MIRROR_CHUNK;
    let mut q0 = 0usize;
    while q0 < q_count {
        let qt = (q_count - q0).min(MIRROR_TILE_Q);
        match qt {
            4 => mirror_lane_f32::<N, 4>(mirror, lanes32, rows, q_count, q0, main, ranks32),
            3 => mirror_lane_f32::<N, 3>(mirror, lanes32, rows, q_count, q0, main, ranks32),
            2 => mirror_lane_f32::<N, 2>(mirror, lanes32, rows, q_count, q0, main, ranks32),
            _ => mirror_lane_f32::<N, 1>(mirror, lanes32, rows, q_count, q0, main, ranks32),
        }
        q0 += qt;
    }
    // Scalar tail for the last partial chunk.
    if main < rows {
        for q in 0..q_count {
            for r in main..rows {
                let mut acc = 0.0f32;
                for a in 0..N {
                    let d = lanes32[a * q_count + q] - mirror[a * rows + r];
                    acc += d * d;
                }
                ranks32[q * rows + r] = acc;
            }
        }
    }
}

/// One query tile's sweep over every full [`MIRROR_CHUNK`]-row panel
/// of the column-major mirror (the partial tail panel is handled by
/// the caller). The accumulator panel is read and written strictly
/// elementwise — its address never escapes into a call or memcpy — so
/// the compiler keeps the whole panel in vector registers instead of
/// round-tripping every accumulate through the stack.
#[inline(always)]
fn mirror_lane_f32<const N: usize, const QT: usize>(
    mirror: &[f32],
    lanes32: &[f32],
    rows: usize,
    q_count: usize,
    q0: usize,
    main: usize,
    ranks32: &mut [f32],
) {
    let mut qv = [[0.0f32; QT]; N];
    for (a, lane) in qv.iter_mut().enumerate() {
        lane.copy_from_slice(&lanes32[a * q_count + q0..a * q_count + q0 + QT]);
    }
    let mut base = 0usize;
    while base < main {
        let mut acc = [[0.0f32; MIRROR_CHUNK]; QT];
        for (a, qa) in qv.iter().enumerate() {
            let col: &[f32; MIRROR_CHUNK] = mirror[a * rows + base..a * rows + base + MIRROR_CHUNK]
                .try_into()
                .expect("full chunk");
            for (q, accq) in acc.iter_mut().enumerate() {
                let qaq = qa[q];
                for r in 0..MIRROR_CHUNK {
                    let d = qaq - col[r];
                    accq[r] += d * d;
                }
            }
        }
        for (q, accq) in acc.iter().enumerate() {
            let out = &mut ranks32[(q0 + q) * rows + base..][..MIRROR_CHUNK];
            // NOT `copy_from_slice`: that takes the accumulator
            // panel's address, which forces it onto the stack and
            // turns the whole kernel into load-op-store chains;
            // elementwise stores keep it in vector registers.
            #[allow(clippy::manual_memcpy)]
            for r in 0..MIRROR_CHUNK {
                out[r] = accq[r];
            }
        }
        base += MIRROR_CHUNK;
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockNeighbors, BlockScratch, QueryBlock};
    use crate::fingerprint::Fingerprint;
    use moloc_verify::oracle;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn db() -> FingerprintDb {
        FingerprintDb::from_fingerprints(vec![
            (l(7), Fingerprint::new(vec![-70.0, -40.0])),
            (l(1), Fingerprint::new(vec![-40.0, -70.0])),
            (l(3), Fingerprint::new(vec![-50.0, -60.0])),
        ])
        .unwrap()
    }

    /// [`FingerprintIndex::k_nearest_into`] with throwaway buffers.
    fn scan(index: &FingerprintIndex, query: &[f64], k: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        index.k_nearest_into(query, k, &mut KnnScratch::new(), &mut out);
        out
    }

    fn assert_same_bits(a: &[Neighbor], b: &[Neighbor]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.location, y.location);
            assert_eq!(x.dissimilarity.to_bits(), y.dissimilarity.to_bits());
        }
    }

    #[test]
    fn layout_is_row_major_in_id_order() {
        let index = FingerprintIndex::build(&db());
        assert_eq!(index.len(), 3);
        assert_eq!(index.ap_count(), 2);
        assert_eq!(index.ids(), &[l(1), l(3), l(7)]);
        assert_eq!(index.row(0), &[-40.0, -70.0]);
        assert_eq!(index.row(2), &[-70.0, -40.0]);
        assert_eq!(index.position_of(l(3)), Some(1));
        assert_eq!(index.position_of(l(2)), None);
    }

    /// The exhaustive oracle's `k` nearest over `database`.
    fn oracle_scan(database: &FingerprintDb, query: &[f64], k: usize) -> Vec<Neighbor> {
        let rows = database.iter().map(|(id, fp)| (id, fp.values()));
        oracle::k_nearest(rows, query, k)
            .into_iter()
            .map(|(location, dissimilarity)| Neighbor {
                location,
                dissimilarity,
            })
            .collect()
    }

    #[test]
    fn nearest_matches_k1_oracle() {
        let database = db();
        let index = FingerprintIndex::build(&database);
        let q = [-48.0, -61.0];
        let expected = oracle_scan(&database, &q, 1)[0].location;
        assert_eq!(scan(&index, &q, 1)[0].location, expected);
    }

    #[test]
    fn k_nearest_matches_oracle_order_and_bits() {
        let database = db();
        let index = FingerprintIndex::build(&database);
        let q = [-41.0, -69.0];
        for k in 1..=4 {
            assert_same_bits(&scan(&index, &q, k), &oracle_scan(&database, &q, k));
        }
    }

    #[test]
    fn ties_broken_by_lower_id() {
        let tied = FingerprintDb::from_fingerprints(vec![
            (l(5), Fingerprint::new(vec![-40.0])),
            (l(2), Fingerprint::new(vec![-40.0])),
        ])
        .unwrap();
        let index = FingerprintIndex::build(&tied);
        assert_eq!(scan(&index, &[-40.0], 1)[0].location, l(2));
        let nn = scan(&index, &[-40.0], 2);
        assert_eq!(nn[0].location, l(2));
        assert_eq!(nn[1].location, l(5));
    }

    #[test]
    fn scratch_reuse_is_stable_across_queries() {
        let index = FingerprintIndex::build(&db());
        let mut scratch = KnnScratch::with_k(2);
        let mut out = Vec::with_capacity(2);
        let q1 = [-41.0, -69.0];
        let q2 = [-69.0, -41.0];
        index.k_nearest_into(&q1, 2, &mut scratch, &mut out);
        let first: Vec<_> = out.clone();
        index.k_nearest_into(&q2, 2, &mut scratch, &mut out);
        assert_eq!(out[0].location, l(7));
        index.k_nearest_into(&q1, 2, &mut scratch, &mut out);
        assert_eq!(out, first);
    }

    #[test]
    fn rank_all_matches_oracle_per_row() {
        let database = db();
        let index = FingerprintIndex::build(&database);
        let q = [-44.0, -66.0];
        let mut out = Vec::new();
        index.rank_all_into(&q, &mut out);
        assert_eq!(out.len(), 3);
        for (position, (_, fp)) in database.iter().enumerate() {
            assert_eq!(
                out[position].to_bits(),
                oracle::euclidean(&q, fp.values()).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let index = FingerprintIndex::build(&db());
        scan(&index, &[-40.0, -70.0], 0);
    }

    /// A 6-AP survey wide enough to exercise the mirror kernel's chunk
    /// remainders (the deterministic value pattern creates ties).
    fn wide_db(locations: u32) -> FingerprintDb {
        FingerprintDb::from_fingerprints(
            (0..locations)
                .map(|i| {
                    let values = (0..6)
                        .map(|a| -40.0 - f64::from((i * 7 + a * 13) % 23))
                        .collect();
                    (l(i + 1), Fingerprint::new(values))
                })
                .collect(),
        )
        .unwrap()
    }

    fn block_queries(count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|q| {
                (0..6)
                    .map(|a| -41.0 - f64::from(((q * 11 + a * 5) % 19) as u32))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn block_scan_matches_per_query_scan_bits() {
        // k ≤ 16 takes the mirror; k = 500 takes the per-query loop.
        let index = FingerprintIndex::build(&wide_db(300));
        assert!(index.has_mirror());
        let mut block = QueryBlock::new(6);
        let queries = block_queries(9);
        for q in &queries {
            block.push(q);
        }
        let mut scratch = BlockScratch::new();
        let mut out = BlockNeighbors::new();
        for k in [1, 3, 8, 500] {
            index.k_nearest_block_into(&mut block, k, &mut scratch, &mut out);
            assert_eq!(out.query_count(), queries.len());
            for (q, query) in queries.iter().enumerate() {
                assert_eq!(out.observed(q), 6);
                assert_same_bits(out.query(q), &scan(&index, query, k));
            }
        }
    }

    #[test]
    fn block_scan_routes_masked_queries_through_masked_path() {
        let index = FingerprintIndex::build(&wide_db(64));
        let mut block = QueryBlock::new(6);
        let clean = block_queries(1).remove(0);
        let mut masked = clean.clone();
        masked[2] = f64::NAN;
        masked[5] = f64::INFINITY;
        block.push(&clean);
        block.push(&masked);
        let mut scratch = BlockScratch::new();
        let mut out = BlockNeighbors::new();
        index.k_nearest_block_into(&mut block, 5, &mut scratch, &mut out);
        let mut knn = KnnScratch::new();
        let mut serial = Vec::new();
        let observed = index.k_nearest_masked_into(&masked, 5, &mut knn, &mut serial);
        assert_eq!(out.observed(1), observed);
        assert_eq!(observed, 4);
        assert_same_bits(out.query(1), &serial);
    }

    #[test]
    fn block_scan_handles_non_lane_widths_via_fallback() {
        // 2-AP index: outside the mirror's 4–8 AP widths, per-query loop.
        let index = FingerprintIndex::build(&db());
        let mut block = QueryBlock::new(2);
        block.push(&[-41.0, -69.0]);
        block.push(&[-69.0, -41.0]);
        let mut scratch = BlockScratch::new();
        let mut out = BlockNeighbors::new();
        index.k_nearest_block_into(&mut block, 2, &mut scratch, &mut out);
        assert_eq!(out.query(0)[0].location, l(1));
        assert_eq!(out.query(1)[0].location, l(7));
    }

    #[test]
    fn f32_unsafe_values_disable_the_mirror() {
        let huge = FingerprintDb::from_fingerprints(vec![
            (l(1), Fingerprint::new(vec![1.0e16, 0.0, 0.0, 0.0])),
            (l(2), Fingerprint::new(vec![0.0, 1.0e16, 0.0, 0.0])),
        ])
        .unwrap();
        let index = FingerprintIndex::build(&huge);
        assert!(!index.has_mirror());
        // The block entry point still answers correctly via the
        // per-query loop.
        let mut block = QueryBlock::new(4);
        block.push(&[1.0e16, 0.0, 0.0, 0.0]);
        let mut scratch = BlockScratch::new();
        let mut out = BlockNeighbors::new();
        index.k_nearest_block_into(&mut block, 1, &mut scratch, &mut out);
        assert_eq!(out.query(0)[0].location, l(1));
        assert_eq!(out.query(0)[0].dissimilarity, 0.0);
    }

    /// The index as `build` made it before `from_rows`: a sequential
    /// max fold and, where `mirror` says the index keeps one, a
    /// row-at-a-time transpose.
    fn reference_parts(
        rows: &[(LocationId, Vec<f64>)],
        ap_count: usize,
        mirror: bool,
    ) -> (f64, Option<Vec<f32>>) {
        let matrix: Vec<f64> = rows.iter().flat_map(|(_, r)| r.iter().copied()).collect();
        let max_abs = matrix.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mirror = mirror.then(|| {
            let mut cols = vec![0.0f32; rows.len() * ap_count];
            for (row, values) in matrix.chunks_exact(ap_count.max(1)).enumerate() {
                for (a, &v) in values.iter().enumerate() {
                    cols[a * rows.len() + row] = v as f32;
                }
            }
            cols
        });
        (max_abs, mirror)
    }

    fn flat(rows: &[(LocationId, Vec<f64>)]) -> (Vec<LocationId>, Vec<f64>) {
        (
            rows.iter().map(|(id, _)| *id).collect(),
            rows.iter().flat_map(|(_, r)| r.iter().copied()).collect(),
        )
    }

    #[test]
    fn from_rows_equals_build_and_the_row_at_a_time_transpose() {
        let rows = |n: u32, aps: u32, scale: f64| -> Vec<(LocationId, Vec<f64>)> {
            (1..=n)
                .map(|i| {
                    let values = (0..aps)
                        .map(|a| scale * (-40.0 - f64::from((i * 7 + a * 13) % 23)))
                        .collect();
                    (l(3 * i), values)
                })
                .collect()
        };
        // Whether each shape keeps a mirror: only above
        // `SMALL_INDEX_ROWS` rows at 4–8 APs with f32-safe values, where
        // blocks read it. Row counts on both sides of that bound and
        // around the transpose block, widths inside and outside 4–8
        // (the 16-AP serving shapes among them), and values too large
        // for the mirror.
        for (n, aps, scale, keeps_mirror) in [
            (3, 2, 1.0, false),
            (56, 6, 1.0, false),
            (57, 4, 1.0, true),
            (64, 16, 1.0, false),
            (130, 16, 1.0, false),
            (130, 8, 1.0, true),
            (300, 6, 1.0, true),
            (70, 4, 1e12, true),
            (70, 3, 1.0, false),
            (70, 9, 1.0, false),
            (90, 4, 1e15, false),
        ] {
            let rows = rows(n, aps, scale);
            let ap_count = aps as usize;
            let (ids, matrix) = flat(&rows);
            let index = FingerprintIndex::from_rows(ids.clone(), matrix.clone(), ap_count).unwrap();
            let (max_abs, mirror) = reference_parts(&rows, ap_count, keeps_mirror);
            assert_eq!(index.ids, ids);
            assert_eq!(
                index.matrix.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                matrix.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(index.max_abs.to_bits(), max_abs.to_bits());
            let bits = |m: &Option<Vec<f32>>| {
                m.as_ref()
                    .map(|m| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(&index.mirror), bits(&mirror), "{n} x {aps}");
            assert_eq!(index.has_mirror(), keeps_mirror, "{n} x {aps}");
            let db = FingerprintDb::from_fingerprints(
                rows.iter()
                    .map(|(id, r)| (*id, Fingerprint::new(r.clone())))
                    .collect(),
            )
            .unwrap();
            assert_eq!(FingerprintIndex::build(&db), index);
        }
    }

    #[test]
    fn from_rows_refuses_hostile_input_with_typed_errors() {
        let ids = vec![l(1), l(2), l(4)];
        let ok = vec![-40.0; 6];
        assert!(FingerprintIndex::from_rows(ids.clone(), ok.clone(), 2).is_ok());
        assert_eq!(
            FingerprintIndex::from_rows(vec![], vec![], 2).unwrap_err(),
            DbError::Empty
        );
        assert_eq!(
            FingerprintIndex::from_rows(ids.clone(), vec![-40.0; 5], 2).unwrap_err(),
            DbError::Shape {
                rows: 3,
                ap_count: 2,
                values: 5
            }
        );
        // rows × ap_count overflows usize: refused, not wrapped.
        assert_eq!(
            FingerprintIndex::from_rows(ids.clone(), vec![], usize::MAX).unwrap_err(),
            DbError::Shape {
                rows: 3,
                ap_count: usize::MAX,
                values: 0
            }
        );
        assert_eq!(
            FingerprintIndex::from_rows(vec![l(1), l(1), l(4)], ok.clone(), 2).unwrap_err(),
            DbError::DuplicateLocation(l(1))
        );
        assert_eq!(
            FingerprintIndex::from_rows(vec![l(2), l(1), l(4)], ok.clone(), 2).unwrap_err(),
            DbError::UnsortedLocation(l(1))
        );
        for (at, bad) in [(0, f64::NAN), (3, f64::INFINITY), (5, f64::NEG_INFINITY)] {
            let mut matrix = ok.clone();
            matrix[at] = bad;
            assert_eq!(
                FingerprintIndex::from_rows(ids.clone(), matrix, 2).unwrap_err(),
                DbError::NonFinite(ids[at / 2])
            );
        }
        // A NaN past the eight-lane chunks, in the remainder.
        let wide_ids: Vec<_> = (1..=5).map(l).collect();
        let mut matrix = vec![-50.0; 15];
        matrix[14] = f64::NAN;
        assert_eq!(
            FingerprintIndex::from_rows(wide_ids, matrix, 3).unwrap_err(),
            DbError::NonFinite(l(5))
        );
        // Zero APs is a valid (if useless) shape, as in `build`.
        let empty_rows = FingerprintIndex::from_rows(ids, vec![], 0).unwrap();
        assert_eq!(empty_rows.len(), 3);
    }

    proptest::proptest! {
        /// Any ids, shape and values: `from_rows` answers with an index
        /// or a `DbError`, never a panic, and accepts exactly the valid
        /// inputs.
        #[test]
        fn from_rows_never_panics(
            raw_ids in proptest::collection::vec(1u32..8, 0..6),
            ap_count in 0usize..4,
            extra in 0usize..3,
            values in proptest::collection::vec(
                proptest::Strategy::prop_map((0u32..6, -100.0..0.0f64), |(kind, v)| match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => -1e308,
                    _ => v,
                }),
                1..30,
            ),
        ) {
            let ids: Vec<LocationId> = raw_ids.iter().map(|&i| l(i)).collect();
            let want_len = ids.len() * ap_count + extra;
            let matrix: Vec<f64> = values.iter().copied().cycle().take(want_len).collect();
            let valid = !ids.is_empty()
                && matrix.len() == ids.len() * ap_count
                && ids.windows(2).all(|w| w[0] < w[1])
                && matrix.iter().all(|v| v.is_finite());
            let result = FingerprintIndex::from_rows(ids, matrix, ap_count);
            proptest::prop_assert_eq!(result.is_ok(), valid);
        }
    }

    /// A value of a sorted-selection test row: mostly RSS-like,
    /// sometimes near ±1e154, where a squared difference overflows and
    /// ranks reach `+∞` (and so tie).
    fn small_value(kind: u32, v: f64) -> f64 {
        match kind {
            0 => 1e154,
            1 => -1e154,
            2 => 1.5e154 * v / 100.0,
            _ => v,
        }
    }

    proptest::proptest! {
        /// The sorted selection against the exhaustive oracle, bit for
        /// bit in contents and tie order: 1–64 rows (some duplicated,
        /// so ranks tie exactly), `k` from 1 to past the row count, and
        /// values whose ranks reach infinity, through the per-query
        /// scan and the blocked scan, which loops over it up to
        /// `SMALL_INDEX_ROWS` rows and for every block that is not
        /// f32-safe.
        #[test]
        fn the_sorted_selection_is_the_oracle_bit_for_bit(
            rows in proptest::collection::vec(
                proptest::collection::vec((0u32..40, -100.0..0.0f64), 6),
                1..=64,
            ),
            duplicates in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
            query in proptest::collection::vec((0u32..40, -100.0..0.0f64), 6),
            width in 1usize..=6,
            k in 1usize..80,
        ) {
            let mut rows: Vec<Vec<f64>> = rows
                .iter()
                .map(|r| r[..width].iter().map(|&(kind, v)| small_value(kind, v)).collect())
                .collect();
            for &(from, to) in &duplicates {
                let n = rows.len();
                rows[to % n] = rows[from % n].clone();
            }
            let query: Vec<f64> = query[..width].iter().map(|&(kind, v)| small_value(kind, v)).collect();
            let ids: Vec<LocationId> = (1..=rows.len() as u32).map(|i| l(3 * i)).collect();
            let index = FingerprintIndex::from_rows(ids.clone(), rows.concat(), width).unwrap();
            let expected: Vec<Neighbor> = oracle::k_nearest(
                ids.iter().zip(&rows).map(|(&id, r)| (id, r.as_slice())),
                &query,
                k,
            )
            .into_iter()
            .map(|(location, dissimilarity)| Neighbor { location, dissimilarity })
            .collect();
            assert_same_bits(&scan(&index, &query, k), &expected);
            let mut block = QueryBlock::new(width);
            block.push(&query);
            block.push(&query);
            let mut out = BlockNeighbors::new();
            index.k_nearest_block_into(&mut block, k, &mut BlockScratch::new(), &mut out);
            assert_same_bits(out.query(1), &expected);
        }
    }

    #[test]
    fn exact_ties_keep_position_order_in_the_sorted_selection() {
        // Five identical rows: every rank ties, so the k nearest are
        // the k lowest ids, in id order, at every k.
        let ids: Vec<LocationId> = [2, 4, 9, 11, 30].map(l).to_vec();
        let index = FingerprintIndex::from_rows(ids.clone(), vec![-50.0; 10], 2).unwrap();
        for k in 1..=6 {
            let got: Vec<_> = scan(&index, &[-40.0, -60.0], k)
                .iter()
                .map(|n| n.location)
                .collect();
            assert_eq!(got, ids[..k.min(5)], "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "ranks are finite")]
    fn a_nan_query_panics_on_a_small_index() {
        // Every rank is NaN, so one lands among the k kept. A
        // 28-row index, the paper's size: the sorted selection has no
        // final sort to trip over it.
        let ids: Vec<LocationId> = (1..=28).map(l).collect();
        let matrix: Vec<f64> = (0..28 * 6).map(|i| -40.0 - (i % 37) as f64).collect();
        let index = FingerprintIndex::from_rows(ids, matrix, 6).unwrap();
        scan(&index, &[f64::NAN, -50.0, -60.0, -55.0, -70.0, -45.0], 8);
    }

    #[test]
    #[should_panic(expected = "match database")]
    fn wrong_query_length_panics() {
        let index = FingerprintIndex::build(&db());
        scan(&index, &[-40.0], 1);
    }
}
