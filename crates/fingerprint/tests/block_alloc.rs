//! Proof of the blocked-scan scratch-reuse contract: after one warm-up
//! pass fills the `QueryBlock`/`BlockScratch`/`BlockNeighbors` buffers,
//! repeating multi-query block scans — masked queries and the f32
//! mirror prefilter included — must not touch the heap at all. A counting global allocator wraps the
//! system allocator; this file holds exactly one test so no concurrent
//! test can perturb the counter.

use moloc_fingerprint::block::{BlockNeighbors, BlockScratch, QueryBlock};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A 300-row, 6-AP survey: lane width in the unrolled 4..=8 range, all
/// values f32-safe, so both the blocked f64 kernel and the mirror
/// prefilter engage.
fn survey() -> FingerprintDb {
    let fps = (0..300u32)
        .map(|i| {
            let v = (0..6)
                .map(|a| -40.0 - f64::from((i * 7 + a * 13) % 23))
                .collect::<Vec<f64>>();
            (LocationId::new(i + 1), Fingerprint::new(v))
        })
        .collect::<Vec<_>>();
    FingerprintDb::from_fingerprints(fps).expect("valid db")
}

#[test]
fn warm_block_scans_allocate_nothing() {
    let index = FingerprintIndex::build(&survey());
    assert!(index.has_mirror(), "survey values must be f32-safe");
    // Nine clean queries plus one masked (NaN) query, so the warm loop
    // exercises the f32 mirror pass, the exact rescore, and the masked
    // per-query scan inside one block.
    let queries: Vec<Vec<f64>> = (0..10u32)
        .map(|q| {
            (0..6)
                .map(|a| {
                    if q == 7 && a == 2 {
                        f64::NAN
                    } else {
                        -41.0 - f64::from((q * 11 + a * 5) % 19)
                    }
                })
                .collect()
        })
        .collect();
    let mut block = QueryBlock::new(6);
    let mut scratch = BlockScratch::new();
    let mut out = BlockNeighbors::new();

    let run = |block: &mut QueryBlock, scratch: &mut BlockScratch, out: &mut BlockNeighbors| {
        block.reset(6);
        for q in &queries {
            block.push(q);
        }
        index.k_nearest_block_into(block, 8, scratch, out);
    };

    // Warm-up: the first pass may grow every scratch buffer.
    run(&mut block, &mut scratch, &mut out);
    let warm: Vec<_> = (0..out.query_count())
        .map(|q| out.query(q).to_vec())
        .collect();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        run(&mut block, &mut scratch, &mut out);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "warm block scans must not allocate");
    let repeat: Vec<_> = (0..out.query_count())
        .map(|q| out.query(q).to_vec())
        .collect();
    assert_eq!(repeat, warm, "repeated scans must reproduce the results");
}
