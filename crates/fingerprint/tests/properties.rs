//! Property-based tests for the fingerprinting engine.

use moloc_fingerprint::block::{BlockNeighbors, BlockScratch, QueryBlock};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_fingerprint::knn::{k_nearest, Neighbor};
use moloc_fingerprint::metric::{Cosine, Dissimilarity, Euclidean, Manhattan};
use moloc_geometry::LocationId;
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

proptest! {
    #[test]
    fn metrics_are_symmetric_nonnegative_reflexive(
        a in fingerprint(4), b in fingerprint(4),
    ) {
        for metric in [&Euclidean as &dyn Dissimilarity, &Manhattan, &Cosine] {
            let ab = metric.dissimilarity(&a, &b);
            prop_assert!(ab >= 0.0, "{} negative", metric.name());
            prop_assert!((ab - metric.dissimilarity(&b, &a)).abs() < 1e-9);
            prop_assert!(metric.dissimilarity(&a, &a) < 1e-9);
        }
    }

    #[test]
    fn euclidean_triangle_inequality(
        a in fingerprint(5), b in fingerprint(5), c in fingerprint(5),
    ) {
        let ab = Euclidean.dissimilarity(&a, &b);
        let bc = Euclidean.dissimilarity(&b, &c);
        let ac = Euclidean.dissimilarity(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn knn_results_are_sorted_and_contain_the_nearest(
        fps in prop::collection::vec(fingerprint(3), 2..15),
        query in fingerprint(3),
        k in 1usize..10,
    ) {
        let entries: Vec<(LocationId, Fingerprint)> = fps
            .iter()
            .enumerate()
            .map(|(i, f)| (LocationId::from_index(i), f.clone()))
            .collect();
        let db = FingerprintDb::from_fingerprints(entries).unwrap();
        let nn = k_nearest(&db, &query, k, &Euclidean);
        prop_assert_eq!(nn.len(), k.min(db.len()));
        for w in nn.windows(2) {
            prop_assert!(w[0].dissimilarity <= w[1].dissimilarity + 1e-12);
        }
        // The top result really is the global minimum.
        let best = fps
            .iter()
            .map(|f| Euclidean.dissimilarity(&query, f))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((nn[0].dissimilarity - best).abs() < 1e-12);
    }

    #[test]
    fn knn_heap_selection_matches_full_sort_baseline(
        fps in prop::collection::vec(fingerprint(3), 2..20),
        query in fingerprint(3),
        k in 1usize..12,
    ) {
        // The bounded-heap selection must return byte-identical results
        // to the straightforward sort-then-truncate it replaced,
        // including the (dissimilarity, location-id) tie order.
        let entries: Vec<(LocationId, Fingerprint)> = fps
            .iter()
            .enumerate()
            .map(|(i, f)| (LocationId::from_index(i), f.clone()))
            .collect();
        let db = FingerprintDb::from_fingerprints(entries).unwrap();
        let fast = k_nearest(&db, &query, k, &Euclidean);
        let mut baseline: Vec<Neighbor> = db
            .iter()
            .map(|(location, fp)| Neighbor {
                location,
                dissimilarity: Euclidean.dissimilarity(&query, fp),
            })
            .collect();
        baseline.sort_by(|a, b| {
            a.dissimilarity
                .partial_cmp(&b.dissimilarity)
                .unwrap()
                .then_with(|| a.location.cmp(&b.location))
        });
        baseline.truncate(k);
        prop_assert_eq!(fast, baseline);
    }

    #[test]
    fn knn_excluded_entries_are_never_nearer(
        fps in prop::collection::vec(fingerprint(3), 3..15),
        query in fingerprint(3),
    ) {
        let entries: Vec<(LocationId, Fingerprint)> = fps
            .iter()
            .enumerate()
            .map(|(i, f)| (LocationId::from_index(i), f.clone()))
            .collect();
        let db = FingerprintDb::from_fingerprints(entries).unwrap();
        let k = 2;
        let nn = k_nearest(&db, &query, k, &Euclidean);
        let worst_kept = nn.last().unwrap().dissimilarity;
        for (i, f) in fps.iter().enumerate() {
            let id = LocationId::from_index(i);
            if !nn.iter().any(|n| n.location == id) {
                prop_assert!(
                    Euclidean.dissimilarity(&query, f) + 1e-12 >= worst_kept,
                    "excluded entry nearer than kept one"
                );
            }
        }
    }

    #[test]
    fn index_knn_is_bit_identical_to_heap_path(
        fps in prop::collection::vec(fingerprint(3), 2..25),
        query in fingerprint(3),
        k in 1usize..12,
    ) {
        // The columnar squared-distance scan must reproduce the legacy
        // `Euclidean` heap selection exactly: same locations, same
        // order, bitwise-equal dissimilarities.
        let entries: Vec<(LocationId, Fingerprint)> = fps
            .iter()
            .enumerate()
            .map(|(i, f)| (LocationId::from_index(i), f.clone()))
            .collect();
        let db = FingerprintDb::from_fingerprints(entries).unwrap();
        let index = FingerprintIndex::build(&db);
        let legacy = k_nearest(&db, &query, k, &Euclidean);
        let mut scratch = KnnScratch::with_k(k);
        let mut fast = Vec::new();
        index.k_nearest_into(query.values(), k, &mut scratch, &mut fast);
        prop_assert_eq!(fast.len(), legacy.len());
        for (a, b) in fast.iter().zip(&legacy) {
            prop_assert_eq!(a.location, b.location);
            prop_assert_eq!(a.dissimilarity.to_bits(), b.dissimilarity.to_bits());
        }
    }

    #[test]
    fn index_knn_tie_order_matches_on_coarse_grids(
        fps in prop::collection::vec(coarse_fingerprint(2), 2..40),
        query in coarse_fingerprint(2),
        k in 1usize..12,
    ) {
        // Coarse RSS grids make exact dissimilarity ties common, so
        // this run hammers the (rank, location-id) tie-break of the
        // squared-distance ranking against the legacy sqrt ranking.
        let entries: Vec<(LocationId, Fingerprint)> = fps
            .iter()
            .enumerate()
            .map(|(i, f)| (LocationId::from_index(i), f.clone()))
            .collect();
        let db = FingerprintDb::from_fingerprints(entries).unwrap();
        let index = FingerprintIndex::build(&db);
        let legacy = k_nearest(&db, &query, k, &Euclidean);
        let mut scratch = KnnScratch::with_k(k);
        let mut fast = Vec::new();
        index.k_nearest_into(query.values(), k, &mut scratch, &mut fast);
        let fast_pairs: Vec<(LocationId, u64)> =
            fast.iter().map(|n| (n.location, n.dissimilarity.to_bits())).collect();
        let legacy_pairs: Vec<(LocationId, u64)> =
            legacy.iter().map(|n| (n.location, n.dissimilarity.to_bits())).collect();
        prop_assert_eq!(fast_pairs, legacy_pairs);
        // And the k = 1 scan picks the legacy nearest.
        index.k_nearest_into(query.values(), 1, &mut scratch, &mut fast);
        prop_assert_eq!(fast[0].location, legacy[0].location);
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
        let entries: Vec<(LocationId, Fingerprint)> = fps
            .iter()
            .enumerate()
            .map(|(i, f)| (LocationId::from_index(i), f.clone()))
            .collect();
        let db = FingerprintDb::from_fingerprints(entries).unwrap();
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
        let entries: Vec<(LocationId, Fingerprint)> = fps
            .iter()
            .enumerate()
            .map(|(i, f)| (LocationId::from_index(i), f.clone()))
            .collect();
        let db = FingerprintDb::from_fingerprints(entries).unwrap();
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
        let entries: Vec<(LocationId, Fingerprint)> = fps
            .iter()
            .enumerate()
            .map(|(i, f)| (LocationId::from_index(i), f.clone()))
            .collect();
        let db = FingerprintDb::from_fingerprints(entries).unwrap();
        let sub = db.with_first_aps(n);
        prop_assert_eq!(sub.len(), db.len());
        prop_assert_eq!(sub.ap_count(), n);
        for (id, fp) in sub.iter() {
            prop_assert_eq!(fp.values(), &db.fingerprint(id).unwrap().values()[..n]);
        }
    }
}
