//! Property-based tests for the fingerprinting engine.

use moloc_fingerprint::block::{BlockNeighbors, BlockScratch, QueryBlock};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_fingerprint::knn::Neighbor;
use moloc_fingerprint::metric::euclidean_sq;
use moloc_geometry::LocationId;
use moloc_verify::oracle;
use proptest::prelude::*;

fn rss() -> impl Strategy<Value = f64> {
    -95.0..-20.0f64
}

fn fingerprint(n: usize) -> impl Strategy<Value = Fingerprint> {
    prop::collection::vec(rss(), n).prop_map(Fingerprint::new)
}

/// RSS on a coarse discrete grid, so distinct locations frequently
/// collide at the exact same dissimilarity and tie-breaking is
/// exercised for real.
fn coarse_rss() -> impl Strategy<Value = f64> {
    (-9..=-3i32).prop_map(|v| (v * 10) as f64)
}

fn coarse_fingerprint(n: usize) -> impl Strategy<Value = Fingerprint> {
    prop::collection::vec(coarse_rss(), n).prop_map(Fingerprint::new)
}

/// A coarse RSS reading that is sometimes NaN (a dropped sensor value),
/// so multi-query blocks mix masked and clean queries.
fn maybe_masked_rss() -> impl Strategy<Value = f64> {
    (0u8..9, coarse_rss()).prop_map(|(sel, v)| if sel == 0 { f64::NAN } else { v })
}

/// A database of `fps` at ids 1, 2, … in order.
fn database(fps: &[Fingerprint]) -> FingerprintDb {
    let entries: Vec<(LocationId, Fingerprint)> = fps
        .iter()
        .enumerate()
        .map(|(i, f)| (LocationId::from_index(i), f.clone()))
        .collect();
    FingerprintDb::from_fingerprints(entries).unwrap()
}

/// [`FingerprintIndex::k_nearest_into`] with throwaway buffers.
fn scan(index: &FingerprintIndex, query: &[f64], k: usize) -> Vec<Neighbor> {
    let mut out = Vec::new();
    index.k_nearest_into(query, k, &mut KnnScratch::with_k(k), &mut out);
    out
}

/// `(location, dissimilarity bits)` of the index scan and of the
/// exhaustive oracle over the same database.
type Bits = Vec<(LocationId, u64)>;

fn scan_and_oracle(db: &FingerprintDb, query: &[f64], k: usize) -> (Bits, Bits) {
    let index = FingerprintIndex::build(db);
    let fast = scan(&index, query, k)
        .iter()
        .map(|n| (n.location, n.dissimilarity.to_bits()))
        .collect();
    let expected = oracle::k_nearest(db.iter().map(|(id, fp)| (id, fp.values())), query, k)
        .into_iter()
        .map(|(id, m)| (id, m.to_bits()))
        .collect();
    (fast, expected)
}

proptest! {
    #[test]
    fn euclidean_is_symmetric_nonnegative_reflexive(
        a in fingerprint(4), b in fingerprint(4),
    ) {
        let (a, b) = (a.values(), b.values());
        let ab = euclidean_sq(a, b);
        prop_assert!(ab >= 0.0);
        prop_assert_eq!(ab.to_bits(), euclidean_sq(b, a).to_bits());
        prop_assert_eq!(euclidean_sq(a, a), 0.0);
    }

    #[test]
    fn euclidean_triangle_inequality(
        a in fingerprint(5), b in fingerprint(5), c in fingerprint(5),
    ) {
        let d = |x: &Fingerprint, y: &Fingerprint| euclidean_sq(x.values(), y.values()).sqrt();
        prop_assert!(d(&a, &c) <= d(&a, &b) + d(&b, &c) + 1e-9);
    }

    #[test]
    fn knn_results_are_sorted_and_contain_the_nearest(
        fps in prop::collection::vec(fingerprint(3), 2..15),
        query in fingerprint(3),
        k in 1usize..10,
    ) {
        let db = database(&fps);
        let nn = scan(&FingerprintIndex::build(&db), query.values(), k);
        prop_assert_eq!(nn.len(), k.min(db.len()));
        for w in nn.windows(2) {
            prop_assert!(w[0].dissimilarity <= w[1].dissimilarity + 1e-12);
        }
        // The top result really is the global minimum.
        let best = fps
            .iter()
            .map(|f| oracle::euclidean(query.values(), f.values()))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((nn[0].dissimilarity - best).abs() < 1e-12);
    }

    #[test]
    fn knn_excluded_entries_are_never_nearer(
        fps in prop::collection::vec(fingerprint(3), 3..15),
        query in fingerprint(3),
    ) {
        let db = database(&fps);
        let nn = scan(&FingerprintIndex::build(&db), query.values(), 2);
        let worst_kept = nn.last().unwrap().dissimilarity;
        for (i, f) in fps.iter().enumerate() {
            let id = LocationId::from_index(i);
            if !nn.iter().any(|n| n.location == id) {
                prop_assert!(
                    oracle::euclidean(query.values(), f.values()) + 1e-12 >= worst_kept,
                    "excluded entry nearer than kept one"
                );
            }
        }
    }

    #[test]
    fn index_knn_is_bit_identical_to_oracle(
        fps in prop::collection::vec(fingerprint(3), 2..25),
        query in fingerprint(3),
        k in 1usize..12,
    ) {
        // The columnar squared-distance scan must reproduce the
        // exhaustive sort-then-truncate oracle exactly: same locations,
        // same order, bitwise-equal dissimilarities.
        let (fast, expected) = scan_and_oracle(&database(&fps), query.values(), k);
        prop_assert_eq!(fast, expected);
    }

    #[test]
    fn index_knn_tie_order_matches_on_coarse_grids(
        fps in prop::collection::vec(coarse_fingerprint(2), 2..40),
        query in coarse_fingerprint(2),
        k in 1usize..12,
    ) {
        // Coarse RSS grids make exact dissimilarity ties common, so
        // this run hammers the (rank, location-id) tie-break of the
        // squared-distance ranking against the oracle's sqrt ranking.
        let db = database(&fps);
        let (fast, expected) = scan_and_oracle(&db, query.values(), k);
        prop_assert_eq!(&fast, &expected);
        // And the k = 1 scan picks the oracle's nearest.
        let nearest = scan(&FingerprintIndex::build(&db), query.values(), 1);
        prop_assert_eq!(nearest[0].location, expected[0].0);
    }

    #[test]
    fn block_knn_matches_per_query_scans_including_masked(
        fps in prop::collection::vec(coarse_fingerprint(6), 2..60),
        queries in prop::collection::vec(
            prop::collection::vec(maybe_masked_rss(), 6), 1..12,
        ),
        k in 1usize..12,
    ) {
        // The multi-query block scan (f32 mirror prefilter included
        // for k < 16 — coarse grids keep every value f32-safe) must
        // reproduce the per-query scans exactly, masked queries
        // routed through the masked path with the same observed
        // count. Coarse grids make both cross-query and cross-row
        // rank ties common, so (rank, position) tie order is
        // exercised for real.
        let db = database(&fps);
        let index = FingerprintIndex::build(&db);
        let mut block = QueryBlock::new(6);
        for q in &queries {
            block.push(q);
        }
        let mut scratch = BlockScratch::new();
        let mut out = BlockNeighbors::new();
        index.k_nearest_block_into(&mut block, k, &mut scratch, &mut out);
        prop_assert_eq!(out.query_count(), queries.len());
        let mut knn = KnnScratch::with_k(k);
        let mut serial = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            let observed = if q.iter().all(|v| v.is_finite()) {
                index.k_nearest_into(q, k, &mut knn, &mut serial);
                index.ap_count()
            } else {
                index.k_nearest_masked_into(q, k, &mut knn, &mut serial)
            };
            prop_assert_eq!(out.observed(qi), observed, "query {} observed", qi);
            let blocked = out.query(qi);
            prop_assert_eq!(blocked.len(), serial.len(), "query {} len", qi);
            for (a, b) in blocked.iter().zip(&serial) {
                prop_assert_eq!(a.location, b.location);
                prop_assert_eq!(a.dissimilarity.to_bits(), b.dissimilarity.to_bits());
            }
        }
    }

    #[test]
    fn mirror_prefilter_rescore_is_bit_identical_to_serial_scan(
        fps in prop::collection::vec(fingerprint(6), 2..80),
        query in fingerprint(6),
        k in 1usize..12,
    ) {
        // The f32 quantized mirror is a *prefilter*: its survivors are
        // exactly rescored in f64, so the top-k indices, values, and
        // tie order must be bitwise equal to the plain f64 scan for
        // arbitrary surveys. A one-query block at 6 APs and k < 16 over
        // RSS-range values takes the mirror path.
        let db = database(&fps);
        let index = FingerprintIndex::build(&db);
        prop_assert!(index.has_mirror());
        let mut block = QueryBlock::new(6);
        block.push(query.values());
        let mut scratch = BlockScratch::new();
        let mut out = BlockNeighbors::new();
        index.k_nearest_block_into(&mut block, k, &mut scratch, &mut out);
        let mut knn = KnnScratch::with_k(k);
        let mut serial = Vec::new();
        index.k_nearest_into(query.values(), k, &mut knn, &mut serial);
        let fast = out.query(0);
        prop_assert_eq!(fast.len(), serial.len());
        for (a, b) in fast.iter().zip(&serial) {
            prop_assert_eq!(a.location, b.location);
            prop_assert_eq!(a.dissimilarity.to_bits(), b.dissimilarity.to_bits());
        }
    }

    #[test]
    fn db_ap_subsets_preserve_locations(
        fps in prop::collection::vec(fingerprint(4), 2..10),
        n in 1usize..4,
    ) {
        let db = database(&fps);
        let sub = db.with_first_aps(n);
        prop_assert_eq!(sub.len(), db.len());
        prop_assert_eq!(sub.ap_count(), n);
        for (id, fp) in sub.iter() {
            prop_assert_eq!(fp.values(), &db.fingerprint(id).unwrap().values()[..n]);
        }
    }
}
