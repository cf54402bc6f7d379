//! Scaling benchmarks for the persistent work-stealing evaluation
//! runtime (PR 6).
//!
//! Four question groups, each a production-path arm against the path it
//! replaced (or the width it scales from):
//!
//! * **Thread scaling** — the fig. 7 MoLoc localization at 1/2/4/8
//!   workers via the bench-only worker override, plus the serial vs
//!   ambient-pool pair under the PR 1/PR 2 benchmark names so
//!   `bench_check` can diff the files directly.
//! * **Result collection** — disjoint-slot writes (`par_run`) against
//!   the `Mutex<Vec>`-push-then-sort collection the pool replaced.
//! * **Job dispatch** — submitting a job to the warm persistent pool
//!   against spawning fresh scoped threads for the same shard set.
//! * **Obs overhead** — the batch localizer with the recorder off vs
//!   on, pricing the thread-local buffered-delta path (gated ≤ 1.2x by
//!   CI via `bench_check --max-speedup`).
//! * **k-NN reference** — one query over a 2048-location synthetic
//!   survey through the serial columnar scan (recorded, not compared).
//!
//! The final target writes every measurement and the derived speedups
//! to `BENCH_pr6.json` at the repository root. On few-core hosts the
//! scaling speedups honestly approach 1x — `parallel_threads` records
//! the width the file was generated at, and CI regenerates the PR 2 and
//! PR 6 files on the same runner before gating.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use moloc_bench::{bench_world, light_criterion};
use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_eval::parallel::{
    default_chunk, par_run, par_shards_with_workers, set_worker_override, thread_count,
};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_geometry::LocationId;
use std::sync::Mutex;

/// Widths the scaling table sweeps. `MAX_OVERSUBSCRIPTION` in the
/// parallel module allows 4x the machine parallelism, so the sweep is
/// valid (if honest about contention) even on small hosts.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Cheap per-item payload for the collection/dispatch benches: enough
/// arithmetic to be real work, little enough that scheduling and
/// collection costs dominate — which is exactly what those pairs price.
fn item_work(i: usize) -> u64 {
    let mut acc = i as u64 ^ 0x9E3779B97F4A7C15;
    for k in 0..32u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
    }
    acc
}

/// A deterministic synthetic survey: RSSI means on a dBm lattice plus
/// a sub-dBm per-cell offset, with every 32nd location cloning the row
/// 17 back — planted fingerprint twins, so exact-tie breaking stays on
/// the measured path. The same generator as the `query_block` bench,
/// so the shared `knn/*` arm names measure the same workload.
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

fn bench_scaling(c: &mut Criterion) {
    let world = bench_world();
    let setting = world.setting(6);
    let config = MoLocConfig::paper();
    let index = FingerprintIndex::build(&setting.fdb);
    let kernel = build_kernel(&setting.motion_db, &config);

    // --- Thread scaling on the fig. 7 localization ---------------
    for workers in WIDTHS {
        set_worker_override(Some(workers));
        c.bench_function(
            &format!("scaling/localize_moloc_fig7_setting_w{workers}"),
            |b| {
                b.iter(|| {
                    black_box(moloc_eval::pipeline::localize_moloc_with(
                        &world, &setting, config, &index, &kernel,
                    ))
                })
            },
        );
    }
    // The PR 1/PR 2 pair names, so `bench_check` diffs straight across
    // the BENCH files: serial pinned to one worker, parallel on the
    // ambient pool width.
    set_worker_override(Some(1));
    c.bench_function("eval/localize_moloc_fig7_setting_serial", |b| {
        b.iter(|| {
            black_box(moloc_eval::pipeline::localize_moloc_with(
                &world, &setting, config, &index, &kernel,
            ))
        })
    });
    set_worker_override(None);
    c.bench_function("eval/localize_moloc_fig7_setting_parallel", |b| {
        b.iter(|| {
            black_box(moloc_eval::pipeline::localize_moloc_with(
                &world, &setting, config, &index, &kernel,
            ))
        })
    });

    // --- Result collection: disjoint slots vs Mutex<Vec> ---------
    const ITEMS: usize = 4096;
    c.bench_function("runtime/collect_disjoint_slots", |b| {
        b.iter(|| black_box(par_run(ITEMS, item_work)))
    });
    c.bench_function("runtime/collect_mutex_vec", |b| {
        b.iter(|| {
            // The collection scheme the slot writer replaced: every
            // shard locks a shared Vec to append its (index, value)
            // pairs, and the caller re-sorts into input order.
            let results: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::with_capacity(ITEMS));
            let workers = thread_count().min(ITEMS);
            par_shards_with_workers(workers, ITEMS, default_chunk(ITEMS, workers), |range| {
                let mut local: Vec<(usize, u64)> = range.map(|i| (i, item_work(i))).collect();
                results
                    .lock()
                    .expect("no panics in item_work")
                    .append(&mut local);
            });
            let mut collected = results.into_inner().expect("workers joined");
            collected.sort_unstable_by_key(|&(i, _)| i);
            black_box(collected.into_iter().map(|(_, v)| v).collect::<Vec<u64>>())
        })
    });

    // --- Job dispatch: warm pool vs fresh scoped threads ---------
    // Both arms run the same 16 shards at width 4; the pool arm rides
    // the persistent workers, the scoped arm pays thread spawn + join
    // per job, which is what `par_run` used to do every call.
    const DISPATCH_ITEMS: usize = 64;
    const DISPATCH_CHUNK: usize = 4;
    const DISPATCH_WIDTH: usize = 4;
    c.bench_function("runtime/pool_dispatch_w4", |b| {
        b.iter(|| {
            par_shards_with_workers(DISPATCH_WIDTH, DISPATCH_ITEMS, DISPATCH_CHUNK, |range| {
                for i in range {
                    black_box(item_work(i));
                }
            })
        })
    });
    c.bench_function("runtime/scoped_spawn_w4", |b| {
        b.iter(|| {
            let shards: Vec<std::ops::Range<usize>> = (0..DISPATCH_ITEMS)
                .step_by(DISPATCH_CHUNK)
                .map(|s| s..(s + DISPATCH_CHUNK).min(DISPATCH_ITEMS))
                .collect();
            let next = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..DISPATCH_WIDTH {
                    scope.spawn(|| loop {
                        let s = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(range) = shards.get(s) else { break };
                        for i in range.clone() {
                            black_box(item_work(i));
                        }
                    });
                }
            });
        })
    });

    // --- Obs overhead on the batch localizer ---------------------
    // Same construction as `micro_hot_paths` (same names, so the
    // PR 2 -> PR 6 diff shows the buffered-delta improvement), driven
    // by the first test trace's real queries and measurements.
    let trace0 = &world.corpus.test[0];
    let detector = moloc_sensors::steps::StepDetector::default();
    let analysis = moloc_eval::pipeline::analyze_trace(
        trace0,
        &setting.fdb,
        &world.hall,
        &detector,
        moloc_eval::pipeline::CountingMethod::Continuous,
        6,
    );
    let queries: Vec<(Fingerprint, Option<MotionMeasurement>)> = trace0
        .scans
        .iter()
        .enumerate()
        .map(|(i, scan)| {
            let motion = if i == 0 {
                None
            } else {
                analysis.measurements[i - 1]
            };
            (Fingerprint::new(scan.clone()), motion)
        })
        .collect();
    let mut batch = BatchLocalizer::new_with_index(&index, &kernel, config);
    let mut estimates = Vec::with_capacity(queries.len());
    c.bench_function("micro/batch_localizer_full_trace", |b| {
        b.iter(|| {
            batch
                .localize_trace_into(black_box(&queries), &mut estimates)
                .expect("queries are valid");
            black_box(&estimates);
        })
    });
    moloc_obs::enable();
    c.bench_function("micro/batch_localizer_full_trace_obs_enabled", |b| {
        b.iter(|| {
            batch
                .localize_trace_into(black_box(&queries), &mut estimates)
                .expect("queries are valid");
            black_box(&estimates);
        })
    });
    moloc_obs::set_enabled(false);
    moloc_obs::reset();

    // --- k-NN over a large synthetic survey ----------------------
    let big = synthetic_index(2048);
    let query = [-45.0, -52.0, -47.0, -60.0, -44.0, -58.0];
    let mut scratch = KnnScratch::with_k(8);
    let mut neighbors = Vec::with_capacity(8);
    c.bench_function("knn/serial_scan_2048", |b| {
        b.iter(|| {
            big.k_nearest_into(black_box(&query[..]), 8, &mut scratch, &mut neighbors);
            black_box(&neighbors);
        })
    });
}

/// Final group target: serializes every measurement plus the derived
/// speedups to `BENCH_pr6.json` at the repository root, mirroring the
/// `BENCH_pr2.json` schema so `bench_check` consumes both.
fn emit_bench_json(c: &mut Criterion) {
    let mut out = moloc_bench::bench_header(6);
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
    let pairs = [
        // Scaling table, each width over the single-worker arm.
        (
            "scaling/localize_moloc_fig7_setting_w2",
            "scaling/localize_moloc_fig7_setting_w1",
        ),
        (
            "scaling/localize_moloc_fig7_setting_w4",
            "scaling/localize_moloc_fig7_setting_w1",
        ),
        (
            "scaling/localize_moloc_fig7_setting_w8",
            "scaling/localize_moloc_fig7_setting_w1",
        ),
        // Headline parallel-vs-serial pair (PR 2 names).
        (
            "eval/localize_moloc_fig7_setting_parallel",
            "eval/localize_moloc_fig7_setting_serial",
        ),
        // Disjoint slots vs mutex collection.
        (
            "runtime/collect_disjoint_slots",
            "runtime/collect_mutex_vec",
        ),
        // Warm pool vs scoped spawn per job.
        ("runtime/pool_dispatch_w4", "runtime/scoped_spawn_w4"),
        // Recorder overhead: speedup here is the enabled/disabled time
        // ratio — CI gates it at <= 1.2x.
        (
            "micro/batch_localizer_full_trace",
            "micro/batch_localizer_full_trace_obs_enabled",
        ),
    ];
    for (i, (name, baseline)) in pairs.iter().enumerate() {
        let fast = c.measurement(name).expect("benchmark ran").mean_ns;
        let slow = c.measurement(baseline).expect("baseline ran").mean_ns;
        let speedup = slow / fast;
        println!("{name}: {speedup:.2}x over {baseline}");
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"baseline\": \"{baseline}\", \
             \"speedup\": {speedup:.3}}}{}\n",
            if i + 1 < pairs.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr6.json");
    std::fs::write(path, out).expect("write BENCH_pr6.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = light_criterion();
    targets = bench_scaling, emit_bench_json
}
criterion_main!(benches);
