//! Multi-query scan blocks for the columnar index.
//!
//! A [`QueryBlock`] packs Q query fingerprints into a structure-of-
//! arrays layout (one contiguous *lane* per AP holding that AP's value
//! for every query), so the index can evaluate a whole block against
//! its f32 mirror in one column-major pass instead of scanning one
//! query at a time (`FingerprintIndex::k_nearest_block_into` in
//! [`crate::index`]). [`BlockScratch`] owns every intermediate buffer
//! the blocked scan needs and [`BlockNeighbors`] collects the per-query
//! results; with all three warmed a block scan performs zero heap
//! allocations (`crates/fingerprint/tests/block_alloc.rs`).
//!
//! The blocked scan is bit-identical to the per-query scan, and it
//! chooses its strategy per call from the block's shape (AP width,
//! `k`, finite or not, value magnitude), so nothing here is switchable
//! at runtime.

use crate::index::RankEntry;
use crate::knn::Neighbor;

/// Always `true`. The k-NN strategy is chosen per call from the query
/// shape (see [`crate::index`]), so the blocked scan cannot be turned
/// off; this remains only for the serving benchmark's run header.
#[inline]
pub fn block_enabled() -> bool {
    true
}

/// Always `true`. The f32 mirror prefilter runs whenever a block's
/// shape allows it (see [`crate::index`]); like [`block_enabled`], this
/// remains only for the serving benchmark's run header.
#[inline]
pub fn mirror_enabled() -> bool {
    true
}

/// A reusable structure-of-arrays batch of query fingerprints.
///
/// Queries are pushed in *query-major* form (each `push` keeps an
/// exact copy for rescoring and per-query fallbacks) and transposed
/// into AP-major lanes — `lanes[a * len() + q]` is AP `a` of query `q`
/// — when the blocked scan seals the block. All buffers keep their
/// capacity across [`QueryBlock::reset`], so a warm block refilled with
/// the same shape allocates nothing.
#[derive(Debug, Default)]
pub struct QueryBlock {
    ap_count: usize,
    /// Query-major copies: query `q` occupies
    /// `queries[q * ap_count .. (q + 1) * ap_count]`.
    queries: Vec<f64>,
    /// Whether every value of query `q` is finite (clean queries may
    /// take the mirror prefilter; degraded ones the masked per-query
    /// path).
    clean: Vec<bool>,
    /// AP-major lanes, rebuilt by [`QueryBlock::seal`] when stale.
    lanes: Vec<f64>,
    sealed: bool,
}

impl QueryBlock {
    /// An empty block for queries of width `ap_count`.
    pub fn new(ap_count: usize) -> Self {
        Self {
            ap_count,
            ..Self::default()
        }
    }

    /// Empties the block and sets the query width, keeping capacity.
    pub fn reset(&mut self, ap_count: usize) {
        self.ap_count = ap_count;
        self.queries.clear();
        self.clean.clear();
        self.lanes.clear();
        self.sealed = false;
    }

    /// Appends one query fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the block's AP width.
    pub fn push(&mut self, query: &[f64]) {
        assert_eq!(
            query.len(),
            self.ap_count,
            "query fingerprint length must match the block width"
        );
        self.queries.extend_from_slice(query);
        self.clean.push(query.iter().all(|v| v.is_finite()));
        self.sealed = false;
    }

    /// Number of queries in the block.
    pub fn len(&self) -> usize {
        self.clean.len()
    }

    /// Whether the block holds no queries.
    pub fn is_empty(&self) -> bool {
        self.clean.is_empty()
    }

    /// The query width (APs per fingerprint).
    pub fn ap_count(&self) -> usize {
        self.ap_count
    }

    /// The query-major values of query `q`.
    pub fn query(&self, q: usize) -> &[f64] {
        &self.queries[q * self.ap_count..(q + 1) * self.ap_count]
    }

    /// Whether query `q` is fully finite.
    pub fn is_clean(&self, q: usize) -> bool {
        self.clean[q]
    }

    /// Largest finite |value| across all queries (0 for an empty or
    /// all-non-finite block); bounds the f32 quantization error and
    /// gates mirror safety.
    pub(crate) fn max_abs(&self) -> f64 {
        self.queries
            .iter()
            .filter(|v| v.is_finite())
            .fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Rebuilds the AP-major lanes if any push invalidated them.
    /// Idempotent; `O(len × ap_count)` when stale.
    pub(crate) fn seal(&mut self) {
        if self.sealed {
            return;
        }
        let q_count = self.len();
        self.lanes.clear();
        self.lanes.reserve(q_count * self.ap_count);
        for a in 0..self.ap_count {
            for q in 0..q_count {
                self.lanes.push(self.queries[q * self.ap_count + a]);
            }
        }
        self.sealed = true;
    }

    /// The sealed AP-major lanes (`lanes[a * len() + q]`).
    ///
    /// # Panics
    ///
    /// Panics if the block was modified since the last
    /// [`QueryBlock::seal`].
    pub(crate) fn lanes(&self) -> &[f64] {
        assert!(self.sealed, "query block must be sealed before lane access");
        &self.lanes
    }
}

/// Reusable state for blocked scans: per-query selection tables, the
/// f32 lane/rank buffers of the mirror prefilter, and the scratch the
/// per-query paths borrow. Like [`crate::index::KnnScratch`], every
/// buffer survives across scans, so warm blocks allocate nothing.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// Scratch for per-query scans (masked queries, and blocks whose
    /// shape rules out the mirror).
    pub(crate) knn: crate::index::KnnScratch,
    /// Per-query neighbor staging buffer.
    pub(crate) tmp_out: Vec<Neighbor>,
    /// Flat per-query slot tables: query `q` owns
    /// `slots[q * k .. (q + 1) * k]`.
    pub(crate) slots: Vec<RankEntry>,
    /// Per-query count of filled slots.
    pub(crate) filled: Vec<u32>,
    /// Per-query bound on the k-th smallest f32 rank.
    pub(crate) worst: Vec<f64>,
    /// f32 copies of the query lanes for the mirror pass.
    pub(crate) lanes32: Vec<f32>,
    /// Query-major f32 rank buffer: query `q`'s rank for row `r` is
    /// `ranks32[q * rows + r]` (scanned linearly by the rescore pass).
    pub(crate) ranks32: Vec<f32>,
    /// Row positions surviving the f32 threshold for one query.
    pub(crate) survivors: Vec<u32>,
}

impl BlockScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-query k-NN results of one blocked scan: a flat neighbor buffer
/// with per-query offsets plus the observed (finite) AP count each
/// query was ranked on (`ap_count` for clean queries, the masked scan's
/// return for degraded ones — zero meaning "uninformative uniform").
#[derive(Debug, Default)]
pub struct BlockNeighbors {
    neighbors: Vec<Neighbor>,
    /// `offsets[q]..offsets[q + 1]` indexes query `q`'s neighbors.
    offsets: Vec<u32>,
    observed: Vec<u32>,
}

impl BlockNeighbors {
    /// An empty result set; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the result set, keeping capacity.
    pub fn clear(&mut self) {
        self.neighbors.clear();
        self.offsets.clear();
        self.observed.clear();
    }

    /// Number of queries with recorded results.
    pub fn query_count(&self) -> usize {
        self.observed.len()
    }

    /// Whether no query has recorded results.
    pub fn is_empty(&self) -> bool {
        self.observed.is_empty()
    }

    /// The neighbors of query `q`, ascending by (dissimilarity, id).
    pub fn query(&self, q: usize) -> &[Neighbor] {
        let start = self.offsets[q] as usize;
        let end = self.offsets[q + 1] as usize;
        &self.neighbors[start..end]
    }

    /// The observed (finite) AP count query `q` was ranked on.
    pub fn observed(&self, q: usize) -> usize {
        self.observed[q] as usize
    }

    /// Appends one query's results. Called in query order by the scan.
    pub(crate) fn push_query(&mut self, neighbors: &[Neighbor], observed: usize) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.neighbors.extend_from_slice(neighbors);
        self.offsets.push(self.neighbors.len() as u32);
        self.observed.push(observed as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_block_round_trips_queries() {
        let mut block = QueryBlock::new(3);
        block.push(&[-40.0, -50.0, -60.0]);
        block.push(&[-70.0, f64::NAN, -45.0]);
        assert_eq!(block.len(), 2);
        assert_eq!(block.ap_count(), 3);
        assert_eq!(block.query(0), &[-40.0, -50.0, -60.0]);
        assert!(block.is_clean(0));
        assert!(!block.is_clean(1));
        block.seal();
        // AP-major: lane a holds [q0[a], q1[a]].
        assert_eq!(&block.lanes()[0..2], &[-40.0, -70.0]);
        assert_eq!(block.lanes()[3].to_bits(), f64::NAN.to_bits());
        assert_eq!(block.max_abs(), 70.0);
    }

    #[test]
    fn reset_keeps_capacity_and_changes_width() {
        let mut block = QueryBlock::new(2);
        block.push(&[-40.0, -50.0]);
        block.reset(4);
        assert!(block.is_empty());
        assert_eq!(block.ap_count(), 4);
        block.push(&[-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(block.query(0), &[-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    #[should_panic(expected = "match the block width")]
    fn wrong_width_push_panics() {
        QueryBlock::new(3).push(&[-40.0]);
    }

    #[test]
    fn block_neighbors_offsets_partition_queries() {
        use moloc_geometry::LocationId;
        let n = |id: u32, d: f64| Neighbor {
            location: LocationId::new(id),
            dissimilarity: d,
        };
        let mut out = BlockNeighbors::new();
        out.push_query(&[n(1, 0.5), n(2, 1.5)], 4);
        out.push_query(&[], 0);
        out.push_query(&[n(3, 2.0)], 2);
        assert_eq!(out.query_count(), 3);
        assert_eq!(out.query(0).len(), 2);
        assert_eq!(out.query(1).len(), 0);
        assert_eq!(out.query(2)[0].location, LocationId::new(3));
        assert_eq!(out.observed(0), 4);
        assert_eq!(out.observed(1), 0);
        out.clear();
        assert!(out.is_empty());
    }
}
