//! Multi-query block k-NN benchmarks.
//!
//! One question, pairing the production block path against the loop it
//! replaced: 32 queries against a 2048-location synthetic survey, once
//! as an explicit per-query `k_nearest_into` loop and once through
//! `k_nearest_block_into`, whose shape (6 APs, k = 8, f32-safe values)
//! selects the f32 mirror prefilter with exact f64 rescore. Results are
//! bit-identical by construction; only the time differs. A single-query
//! `k_nearest_into` arm is recorded alongside for reference.
//!
//! The final target writes every measurement and the derived speedups
//! to `BENCH_pr7.json` at the repository root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use moloc_bench::light_criterion;
use moloc_fingerprint::block::{BlockNeighbors, BlockScratch, QueryBlock};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_geometry::LocationId;

/// Survey size: large enough that a scan is bandwidth-shaped.
const ROWS: u32 = 2048;
/// Queries per block: a full trace's worth, matching the batch
/// localizer's per-trace block.
const QUERIES: usize = 32;
const K: usize = 8;

/// The same deterministic synthetic survey `runtime_scaling` builds:
/// 6 APs (inside the unrolled 4..=8 lane range), f32-safe RSSI means
/// on a dBm lattice plus a sub-dBm per-cell offset (survey means are
/// averages, hence continuous), with every 32nd location cloning the
/// row 17 back — planted fingerprint twins, so exact-tie breaking
/// stays on the measured path without collapsing the survey into a
/// few dozen duplicate classes.
fn synthetic_index(locations: u32) -> FingerprintIndex {
    let fps = (0..locations)
        .map(|i| {
            let j = if i >= 17 && i % 32 == 0 { i - 17 } else { i };
            let values = (0..6)
                .map(|a| {
                    -40.0
                        - f64::from((j * 7 + a * 13) % 23)
                        - f64::from((j * 31 + a * 11) % 97) / 128.0
                })
                .collect::<Vec<f64>>();
            (LocationId::new(i + 1), Fingerprint::new(values))
        })
        .collect::<Vec<_>>();
    FingerprintIndex::build(&FingerprintDb::from_fingerprints(fps).expect("valid synthetic db"))
}

/// Deterministic query set off the survey's lattice (half-dBm offset
/// plus the same sub-dBm dither), so every query has genuine near-ties
/// to select among.
fn query_set(count: usize) -> Vec<Vec<f64>> {
    (0..count as u32)
        .map(|q| {
            (0..6)
                .map(|a| {
                    -41.5
                        - f64::from((q * 11 + a * 5) % 19)
                        - f64::from((q * 13 + a * 7) % 53) / 128.0
                })
                .collect()
        })
        .collect()
}

fn bench_query_block(c: &mut Criterion) {
    let index = synthetic_index(ROWS);
    assert!(index.has_mirror(), "survey values must be f32-safe");
    let queries = query_set(QUERIES);

    // --- Single-query reference scan ------------------------------
    let single = [-45.0, -52.0, -47.0, -60.0, -44.0, -58.0];
    let mut scratch = KnnScratch::with_k(K);
    let mut neighbors = Vec::with_capacity(K);
    c.bench_function("knn/serial_scan_2048", |b| {
        b.iter(|| {
            index.k_nearest_into(black_box(&single[..]), K, &mut scratch, &mut neighbors);
            black_box(&neighbors);
        })
    });

    // --- Blocked vs looped ---------------------------------------
    // The pre-block path: 32 independent single-query scans.
    c.bench_function("block/looped_scan_2048x32", |b| {
        b.iter(|| {
            for q in &queries {
                index.k_nearest_into(black_box(q), K, &mut scratch, &mut neighbors);
                black_box(&neighbors);
            }
        })
    });
    // The production block path: f32 mirror + exact f64 rescore.
    let mut block = QueryBlock::new(6);
    for q in &queries {
        block.push(q);
    }
    let mut block_scratch = BlockScratch::new();
    let mut out = BlockNeighbors::new();
    c.bench_function("block/blocked_scan_2048x32", |b| {
        b.iter(|| {
            index.k_nearest_block_into(black_box(&mut block), K, &mut block_scratch, &mut out);
            black_box(&out);
        })
    });
}

/// Final group target: serializes every measurement plus the derived
/// speedup to `BENCH_pr7.json` at the repository root.
fn emit_bench_json(c: &mut Criterion) {
    let mut out = moloc_bench::bench_header(7);
    let measurements = c.measurements();
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.3}, \"median_ns\": {:.3}, \
             \"min_ns\": {:.3}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            m.name,
            m.mean_ns,
            m.median_ns,
            m.min_ns,
            m.samples,
            m.iters_per_sample,
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"comparisons\": [\n");
    // (comparison label, fast arm, baseline arm).
    let pairs = [
        // Headline: the blocked production path over the per-query loop
        // it replaced (CI gates >= 2.0x).
        (
            "block/blocked_scan_2048x32",
            "block/blocked_scan_2048x32",
            "block/looped_scan_2048x32",
        ),
    ];
    for (i, (label, name, baseline)) in pairs.iter().enumerate() {
        let fast = c.measurement(name).expect("benchmark ran").mean_ns;
        let slow = c.measurement(baseline).expect("baseline ran").mean_ns;
        let speedup = slow / fast;
        println!("{label}: {speedup:.2}x ({name} over {baseline})");
        out.push_str(&format!(
            "    {{\"name\": \"{label}\", \"baseline\": \"{baseline}\", \
             \"speedup\": {speedup:.3}}}{}\n",
            if i + 1 < pairs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr7.json");
    std::fs::write(path, out).expect("write BENCH_pr7.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = light_criterion();
    targets = bench_query_block, emit_bench_json
}
criterion_main!(benches);
