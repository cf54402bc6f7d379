//! Microbenchmarks of the pipeline's hot paths: fingerprint matching,
//! motion matching, RSS scanning, shortest paths.
//!
//! The hot-path benchmarks come in pairs — the production path against
//! the path it replaced or its naive reference: Eq. 6 over the
//! precomputed [`MotionKernel`](moloc_motion::kernel::MotionKernel)
//! lookup tables vs the exact-erf `moloc_verify::oracle` Eq. 5; a
//! fig. 7 setting localized serially (`MOLOC_THREADS=1`) vs under the
//! ambient worker pool; the columnar [`FingerprintIndex`] k-NN vs the
//! generic `dyn` metric scan; a cache-fed pipeline run vs one that
//! rebuilds its artifacts; and the [`BatchLocalizer`] step with the
//! metrics recorder disabled vs enabled, pricing the observability
//! layer on the hottest path. The final group target writes all
//! measurements and the derived speedups to `BENCH_pr2.json` at the
//! repository root (arm names match `BENCH_pr1.json`, so `bench_check`
//! can diff the two files).

use criterion::{criterion_group, criterion_main, Criterion};
use moloc_bench::{bench_world, light_criterion};
use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_eval::ScenarioCache;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_fingerprint::knn::k_nearest;
use moloc_fingerprint::metric::Euclidean;
use moloc_geometry::shortest_path::{all_pairs, dijkstra};
use moloc_geometry::LocationId;
use moloc_verify::oracle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_micro(c: &mut Criterion) {
    let world = bench_world();
    let setting = world.setting(6);
    let grid = &world.hall.grid;
    let mut rng = StdRng::seed_from_u64(11);
    let pos = grid.position(LocationId::new(10));
    let scan = world.hall.env.scan(pos, &mut rng);
    let query = Fingerprint::new(scan.into_iter().map(f64::from).collect());

    c.bench_function("micro/rss_scan_6_aps", |b| {
        b.iter(|| black_box(world.hall.env.scan(black_box(pos), &mut rng)))
    });
    c.bench_function("micro/knn_k8_over_28_locations", |b| {
        b.iter(|| black_box(k_nearest(&setting.fdb, black_box(&query), 8, &Euclidean)))
    });

    // The columnar-index k-NN against the generic scan above: same
    // neighbors, same order, but monomorphized squared-distance ranking
    // over contiguous rows into caller-owned buffers (no allocation).
    let index = FingerprintIndex::build(&setting.fdb);
    let mut scratch = KnnScratch::with_k(8);
    let mut neighbors = Vec::with_capacity(8);
    c.bench_function("micro/knn_k8_index_over_28_locations", |b| {
        b.iter(|| {
            index.k_nearest_into(black_box(query.values()), 8, &mut scratch, &mut neighbors);
            black_box(&neighbors);
        })
    });

    let config = MoLocConfig::paper();

    // Eq. 6 over trained pairs: candidates are the motion-db neighbors
    // of the best-connected location (plus the location itself, so the
    // stay-in-place branch is exercised), and the measurement sits at a
    // trained pair's mean so the Gaussian windows carry real mass.
    let to = (1..=setting.motion_db.location_count() as u32)
        .map(LocationId::new)
        .max_by_key(|&l| setting.motion_db.neighbors_of(l).len())
        .expect("motion db is non-empty");
    let mut sources = setting.motion_db.neighbors_of(to);
    sources.truncate(7);
    sources.push(to);
    let total: f64 = (1..=sources.len()).map(|i| 1.0 / i as f64).sum();
    let prev: Vec<(LocationId, f64)> = sources
        .iter()
        .enumerate()
        .map(|(i, &l)| (l, 1.0 / (i + 1) as f64 / total))
        .collect();
    let trained = setting
        .motion_db
        .get(sources[0], to)
        .expect("neighbor pair is trained");
    let (dir, off) = (trained.direction.mean(), trained.offset.mean());

    // The naive arm: Eq. 6 over the exact-erf oracle Eq. 5, resolving
    // each pair's statistics from the motion database per call.
    let exact_pair = |from: LocationId| -> f64 {
        if from == to {
            return oracle::stationary_probability(
                off,
                config.alpha_deg,
                config.beta_m,
                config.stationary_offset_std_m,
            );
        }
        match setting.motion_db.get(from, to) {
            Some(stats) => oracle::pair_probability(
                stats.direction.mean(),
                stats.direction.std(),
                stats.offset.mean(),
                stats.offset.std(),
                dir,
                off,
                config.alpha_deg,
                config.beta_m,
            ),
            None => config.missing_pair_prob,
        }
    };
    c.bench_function("micro/eq6_set_motion_probability_naive", |b| {
        b.iter(|| {
            black_box(
                black_box(&prev)
                    .iter()
                    .map(|&(from, p)| p * exact_pair(from))
                    .sum::<f64>(),
            )
        })
    });
    // The production arm: the same sum over the kernel's lookup
    // tables, as the engine's Eq. 7 loop evaluates it.
    let kernel = build_kernel(&setting.motion_db, &config);
    c.bench_function("micro/eq6_set_motion_probability", |b| {
        b.iter(|| {
            black_box(
                black_box(&prev)
                    .iter()
                    .map(|&(from, p)| p * kernel.pair_probability(from, to, dir, off))
                    .sum::<f64>(),
            )
        })
    });

    c.bench_function("micro/dijkstra_28_nodes", |b| {
        b.iter(|| black_box(dijkstra(&world.hall.graph, LocationId::new(1))))
    });
    c.bench_function("micro/all_pairs_28_nodes", |b| {
        b.iter(|| black_box(all_pairs(&world.hall.graph)))
    });

    // The paper's efficiency argument: MoLoc's O(k²) online step vs the
    // HMM's O(n²) per-step decoding over the full state space. Queries
    // carry the trace's real motion measurements so Eq. 6/7 runs on
    // every pass after the first.
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
    let queries: Vec<(Fingerprint, Option<moloc_core::tracker::MotionMeasurement>)> = trace0
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
    let viterbi =
        moloc_core::viterbi::ViterbiLocalizer::new(&setting.fdb, &setting.motion_db, config);
    c.bench_function("micro/viterbi_decode_full_trace", |b| {
        b.iter(|| black_box(viterbi.localize_trace(black_box(&queries)).unwrap()))
    });

    // The batched engine over the same trace: shared index + kernel,
    // warm scratch buffers, zero heap allocations per iteration.
    let mut batch = BatchLocalizer::new_with_index(&index, &kernel, config);
    let mut estimates = Vec::with_capacity(queries.len());
    c.bench_function("micro/batch_localizer_full_trace", |b| {
        b.iter(|| {
            batch
                .localize_trace_into(black_box(&queries), &mut estimates)
                .unwrap();
            black_box(&estimates);
        })
    });

    // The same batched engine with the metrics recorder live: the only
    // difference is the relaxed `is_enabled()` load turning true, so
    // counter increments, the span clock, and the Eq. 7 histogram all
    // execute. Paired against the arm above, this prices the recorder.
    moloc_obs::enable();
    c.bench_function("micro/batch_localizer_full_trace_obs_enabled", |b| {
        b.iter(|| {
            batch
                .localize_trace_into(black_box(&queries), &mut estimates)
                .unwrap();
            black_box(&estimates);
        })
    });
    moloc_obs::set_enabled(false);
    moloc_obs::reset();

    let trace = &world.corpus.test[0];
    c.bench_function("micro/step_detection_full_trace", |b| {
        b.iter(|| black_box(detector.detect(&trace.accel)))
    });
    c.bench_function("micro/trace_analysis_full", |b| {
        b.iter(|| {
            black_box(moloc_eval::pipeline::analyze_trace(
                trace,
                &setting.fdb,
                &world.hall,
                &detector,
                moloc_eval::pipeline::CountingMethod::Continuous,
                6,
            ))
        })
    });

    // One full fig. 7 setting end-to-end, serial vs the ambient worker
    // pool. `MOLOC_THREADS` is parsed once per process now, so the
    // serial arm pins the width through the bench-only worker override
    // instead of mutating the environment (which would race the pool's
    // persistent workers and be ignored after first use anyway).
    moloc_eval::parallel::set_worker_override(Some(1));
    c.bench_function("eval/localize_moloc_fig7_setting_serial", |b| {
        b.iter(|| {
            black_box(moloc_eval::pipeline::localize_moloc(
                &world, &setting, config,
            ))
        })
    });
    moloc_eval::parallel::set_worker_override(None);
    c.bench_function("eval/localize_moloc_fig7_setting_parallel", |b| {
        b.iter(|| {
            black_box(moloc_eval::pipeline::localize_moloc(
                &world, &setting, config,
            ))
        })
    });

    // The cache-fed pipeline: identical localization work, but the
    // fingerprint index and motion kernel arrive prebuilt (as a
    // `ScenarioCache` hands them to every experiment) instead of being
    // rebuilt inside the call.
    c.bench_function("eval/localize_moloc_fig7_setting_cached", |b| {
        b.iter(|| {
            black_box(moloc_eval::pipeline::localize_moloc_with(
                &world, &setting, config, &index, &kernel,
            ))
        })
    });

    // The fig. 7 setting end to end, as the experiments actually
    // execute it: setting and kernel served from a warm `ScenarioCache`,
    // localization through the columnar index and the batched engine.
    let cache = ScenarioCache::new(&world);
    cache.artifacts(6);
    cache.kernel(6, &config);
    c.bench_function("eval/fig7_setting_end_to_end_cached", |b| {
        b.iter(|| {
            let artifacts = cache.artifacts(6);
            let kernel = cache.kernel(6, &config);
            black_box(moloc_eval::pipeline::localize_moloc_with(
                &world,
                &artifacts.setting,
                config,
                &artifacts.index,
                &kernel,
            ))
        })
    });
}

/// Final group target: serializes every recorded measurement plus the
/// derived speedups (kernel vs naive, index vs scan, parallel vs
/// serial, recorder off vs on, cached vs rebuilt) to `BENCH_pr2.json`
/// at the repository root.
fn emit_bench_json(c: &mut Criterion) {
    // The parallel arm's speedup is bounded by the worker count, so
    // record it alongside the measurements (a 1-CPU host reports ~1x),
    // plus the runner shape the file was generated on.
    let mut out = moloc_bench::bench_header(2);
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
        (
            "micro/eq6_set_motion_probability",
            "micro/eq6_set_motion_probability_naive",
        ),
        (
            "eval/localize_moloc_fig7_setting_parallel",
            "eval/localize_moloc_fig7_setting_serial",
        ),
        (
            "micro/knn_k8_index_over_28_locations",
            "micro/knn_k8_over_28_locations",
        ),
        // Recorder overhead: disabled vs enabled on the same engine
        // (a speedup near 1.0x means metrics are effectively free).
        (
            "micro/batch_localizer_full_trace",
            "micro/batch_localizer_full_trace_obs_enabled",
        ),
        (
            "eval/localize_moloc_fig7_setting_cached",
            "eval/localize_moloc_fig7_setting_parallel",
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
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr2.json");
    std::fs::write(path, out).expect("write BENCH_pr2.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = light_criterion();
    targets = bench_micro, emit_bench_json
}
criterion_main!(benches);
