//! Mechanism gates: seven pairs of arms, both arms of each pair timed
//! in this one process, each pair's ratio of mean per-iteration times
//! checked against a fixed bound (see [`GATES`]).
//!
//! ```text
//! cargo bench -p moloc-eval --bench gates
//! ```
//!
//! Because both arms run on the same machine in the same run, no ratio
//! compares numbers from two hosts. The bench prints
//! `available_parallelism`, then one line per gate: its ratio, its
//! bound and `ok` or `FAIL`. It takes no flags and reads and writes no
//! file.
//!
//! Exit status: 1 when any gate fails. Otherwise 2 when a gate went
//! unjudged: it was refused, because it needs more cores than
//! `available_parallelism` reports, or an arm's mean time is not a
//! positive finite number. 0 when every gate holds.

use criterion::{black_box, Criterion};
use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_eval::parallel::{
    default_chunk, par_run, par_shards_with_workers, set_worker_override, thread_count,
};
use moloc_eval::pipeline::{analyze_trace, localize_moloc_with, CountingMethod, EvalWorld};
use moloc_fingerprint::block::{BlockNeighbors, BlockScratch, QueryBlock};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
use moloc_live::{LiveLocalizer, SnapshotPublisher, UpdateLog};
use moloc_motion::builder::MapReference;
use moloc_motion::filter::SanitationConfig;
use moloc_motion::rlm::Rlm;
use moloc_sensors::steps::StepDetector;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use Bound::{AtLeast, AtMost};

#[derive(Clone, Copy)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
}

/// Each gate: its name, the arm whose mean time is the ratio's
/// numerator, the arm whose mean time is its denominator, the bound,
/// and the cores the ratio needs to mean anything. A speedup at pool
/// width `w` can only show on `w` cores, so the fig. 7 gates need their
/// width; collection and dispatch run both arms at width 4 and compare
/// mechanisms, not widths.
#[rustfmt::skip]
const GATES: [(&str, &str, &str, Bound, usize); 7] = [
    ("fig. 7 at width 4", "fig7/w1", "fig7/w4", AtLeast(1.5), 4),
    ("fig. 7 at width 2", "fig7/w1", "fig7/w2", AtLeast(1.2), 2),
    ("disjoint-slot collection", "collect/mutex_vec", "collect/disjoint_slots", AtLeast(1.5), 1),
    ("warm dispatch", "dispatch/scoped_spawn", "dispatch/warm_pool", AtLeast(2.0), 1),
    ("recorder overhead", "recorder/on", "recorder/off", AtMost(1.2), 1),
    ("blocked k-NN", "knn/looped_2048x32", "knn/blocked_2048x32", AtLeast(2.0), 1),
    ("live reader", "live/static_engine", "live/live_engine", AtLeast(0.90), 1),
];

/// The pool width the collection and dispatch arms run at.
const POOL_WIDTH: usize = 4;
/// APs of both synthetic surveys, and neighbours per k-NN query.
const APS: u32 = 6;
const K: usize = 8;
/// The live deployment's grid side: 16 × 16 cells, walked 16 steps.
const SIDE: u32 = 16;

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available_parallelism: {cores}");
    let mut c = Criterion::default()
        .sample_size(30)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    bench_eval(&mut c, cores);
    bench_pool(&mut c);
    bench_block(&mut c);
    bench_live(&mut c);
    std::process::exit(judge(&c, cores));
}

/// Prints one line per gate and returns the exit status.
fn judge(c: &Criterion, cores: usize) -> i32 {
    let (mut failed, mut unjudged) = (false, false);
    for (name, numerator, denominator, bound, needs) in GATES {
        if needs > cores {
            println!("{name:<26} refused: needs {needs} cores");
            unjudged = true;
            continue;
        }
        let mean = |arm| c.measurement(arm).expect("every unrefused arm ran").mean_ns;
        let (num, den) = (mean(numerator), mean(denominator));
        if ![num, den].iter().all(|t| t.is_finite() && *t > 0.0) {
            println!("{name:<26} BROKEN: mean times {num} ns / {den} ns");
            unjudged = true;
            continue;
        }
        let ratio = num / den;
        let (op, bound, holds) = match bound {
            AtLeast(b) => (">=", b, ratio >= b),
            AtMost(b) => ("<=", b, ratio <= b),
        };
        let verdict = if holds { "ok" } else { "FAIL" };
        println!("{name:<26} {ratio:>6.2}x  bound {op} {bound:.2}x  {verdict}");
        failed |= !holds;
    }
    if failed {
        1
    } else if unjudged {
        2
    } else {
        0
    }
}

/// Fig. 7's MoLoc localization of `EvalWorld::small(2013)` at 6 APs,
/// at every width the host has cores for, then the batch localizer
/// over the first test trace with the metrics recorder off and on.
fn bench_eval(c: &mut Criterion, cores: usize) {
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    let config = MoLocConfig::paper();
    let index = FingerprintIndex::build(&setting.fdb);
    let kernel = build_kernel(&setting.motion_db, &config);
    for width in [1, 2, 4].into_iter().filter(|&w| w <= cores) {
        set_worker_override(Some(width));
        c.bench_function(&format!("fig7/w{width}"), |b| {
            b.iter(|| {
                black_box(localize_moloc_with(
                    &world, &setting, config, &index, &kernel,
                ))
            })
        });
    }
    set_worker_override(None);

    let trace = &world.corpus.test[0];
    let analysis = analyze_trace(
        trace,
        &setting.fdb,
        &world.hall,
        &StepDetector::default(),
        CountingMethod::Continuous,
        6,
    );
    let queries: Vec<(Fingerprint, Option<MotionMeasurement>)> = trace
        .scans
        .iter()
        .enumerate()
        .map(|(i, scan)| {
            let motion = i.checked_sub(1).and_then(|p| analysis.measurements[p]);
            (Fingerprint::new(scan.clone()), motion)
        })
        .collect();
    let mut batch = BatchLocalizer::new_with_index(&index, &kernel, config);
    let mut estimates = Vec::with_capacity(queries.len());
    let mut arm = |c: &mut Criterion, name: &str| {
        c.bench_function(name, |b| {
            b.iter(|| {
                batch
                    .localize_trace_into(black_box(&queries), &mut estimates)
                    .expect("queries are valid");
                black_box(&estimates);
            })
        });
    };
    arm(c, "recorder/off");
    moloc_obs::enable();
    arm(c, "recorder/on");
    moloc_obs::set_enabled(false);
    moloc_obs::reset();
}

/// Cheap per-item payload: real work, but little enough that the
/// scheduling and collection costs the pool pairs price dominate.
fn item_work(i: usize) -> u64 {
    let mut acc = i as u64 ^ 0x9E3779B97F4A7C15;
    for k in 0..32u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
    }
    acc
}

/// The pool's disjoint-slot collection of 4,096 items against the
/// `Mutex<Vec>` push-then-sort it replaced, then one job of 16 shards
/// on the warm pool against fresh scoped threads, all at width 4.
fn bench_pool(c: &mut Criterion) {
    const ITEMS: usize = 4096;
    set_worker_override(Some(POOL_WIDTH));
    c.bench_function("collect/disjoint_slots", |b| {
        b.iter(|| black_box(par_run(ITEMS, item_work)))
    });
    c.bench_function("collect/mutex_vec", |b| {
        b.iter(|| {
            let results = Mutex::new(Vec::with_capacity(ITEMS));
            let workers = thread_count().min(ITEMS);
            par_shards_with_workers(workers, ITEMS, default_chunk(ITEMS, workers), |range| {
                let mut local: Vec<(usize, u64)> = range.map(|i| (i, item_work(i))).collect();
                results
                    .lock()
                    .expect("item_work never panics")
                    .append(&mut local);
            });
            let mut collected = results.into_inner().expect("workers joined");
            collected.sort_unstable_by_key(|&(i, _)| i);
            black_box(collected.into_iter().map(|(_, v)| v).collect::<Vec<u64>>())
        })
    });
    set_worker_override(None);

    const SHARD: usize = 4;
    c.bench_function("dispatch/warm_pool", |b| {
        b.iter(|| {
            par_shards_with_workers(POOL_WIDTH, 64, SHARD, |range| {
                for i in range {
                    black_box(item_work(i));
                }
            })
        })
    });
    c.bench_function("dispatch/scoped_spawn", |b| {
        b.iter(|| {
            let shards: Vec<_> = (0..64).step_by(SHARD).map(|s| s..s + SHARD).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..POOL_WIDTH {
                    scope.spawn(|| {
                        while let Some(range) = shards.get(next.fetch_add(1, Ordering::Relaxed)) {
                            for i in range.clone() {
                                black_box(item_work(i));
                            }
                        }
                    });
                }
            });
        })
    });
}

/// A deterministic dBm lattice plus a sub-dBm dither.
fn rss(id: u32, ap: u32) -> f64 {
    -40.0 - f64::from((id * 7 + ap * 13) % 23) - f64::from((id * 31 + ap * 11) % 97) / 128.0
}

/// 32 queries off the lattice against a 2,048 × 6 survey whose every
/// 32nd row clones the row 17 back (planted twins, so exact-tie
/// breaking stays on the measured path), once as a per-query
/// `k_nearest_into` loop and once as one block scan.
fn bench_block(c: &mut Criterion) {
    let fps = (0..2048)
        .map(|i| {
            let j = if i >= 17 && i % 32 == 0 { i - 17 } else { i };
            let values = (0..APS).map(|a| rss(j, a)).collect();
            (LocationId::new(i + 1), Fingerprint::new(values))
        })
        .collect();
    let index = FingerprintIndex::build(&FingerprintDb::from_fingerprints(fps).expect("valid db"));
    // The block arm must run the f32-mirror scan it is gated for.
    assert!(index.has_mirror(), "survey values must be f32-safe");
    let queries: Vec<Vec<f64>> = (0..32u32)
        .map(|q| {
            (0..APS)
                .map(|a| {
                    -41.5
                        - f64::from((q * 11 + a * 5) % 19)
                        - f64::from((q * 13 + a * 7) % 53) / 128.0
                })
                .collect()
        })
        .collect();

    let mut scratch = KnnScratch::with_k(K);
    let mut neighbors = Vec::with_capacity(K);
    c.bench_function("knn/looped_2048x32", |b| {
        b.iter(|| {
            for q in &queries {
                index.k_nearest_into(black_box(q), K, &mut scratch, &mut neighbors);
                black_box(&neighbors);
            }
        })
    });
    let mut block = QueryBlock::new(APS as usize);
    for q in &queries {
        block.push(q);
    }
    let mut block_scratch = BlockScratch::new();
    let mut out = BlockNeighbors::new();
    c.bench_function("knn/blocked_2048x32", |b| {
        b.iter(|| {
            index.k_nearest_block_into(black_box(&mut block), K, &mut block_scratch, &mut out);
            black_box(&out);
        })
    });
}

/// A static `BatchLocalizer` against a `LiveLocalizer` on the same
/// 256-cell database with no publish in flight, each walking one row
/// east from a reset: the live arm's extra work is its per-step epoch
/// check.
fn bench_live(c: &mut Criterion) {
    let id = LocationId::new;
    let grid = ReferenceGrid::new(Vec2::new(1.0, 1.0), SIDE, SIDE, 2.0, 2.0).expect("valid grid");
    let extent = Vec2::new(2.0 * f64::from(SIDE), 2.0 * f64::from(SIDE));
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, extent).expect("valid aabb"));
    let map = MapReference::new(&grid, &WalkGraph::from_grid(&grid, &plan));
    let fingerprint = |cell: u32| (0..APS).map(|a| rss(cell, a)).collect::<Vec<f64>>();
    let mut log = UpdateLog::new(APS as usize, map, SanitationConfig::paper()).expect("valid");
    for cell in 1..=SIDE * SIDE {
        log.observe_survey_sample(id(cell), &fingerprint(cell))
            .expect("sample matches AP count");
    }
    // Five clean east RLMs per horizontally adjacent pair train every
    // motion cell the walk crosses.
    for row in 0..SIDE {
        for from in row * SIDE + 1..(row + 1) * SIDE {
            for k in 0..5 {
                let rlm = Rlm::new(id(from), id(from + 1), 89.0 + f64::from(k), 2.0);
                log.observe_rlm(rlm.expect("valid rlm"));
            }
        }
    }
    let seed = log.build_snapshot(0).expect("seed snapshot builds");
    let config = MoLocConfig::paper();
    let east = MotionMeasurement {
        direction_deg: 90.0,
        offset_m: 2.0,
    };
    // Row 4, scans straight off the survey: the arms price serving,
    // not accuracy.
    let walk: Vec<(Vec<f64>, Option<MotionMeasurement>)> = (0..SIDE)
        .map(|s| (fingerprint(3 * SIDE + 1 + s), (s > 0).then_some(east)))
        .collect();

    let kernel = build_kernel(&seed.motion_db, &config);
    let mut engine = BatchLocalizer::new_with_index(&seed.index, &kernel, config);
    c.bench_function("live/static_engine", |b| {
        b.iter(|| {
            engine.reset();
            for (scan, motion) in &walk {
                black_box(
                    engine
                        .observe_slice(black_box(scan), *motion)
                        .expect("step scores"),
                );
            }
        })
    });
    let publisher = SnapshotPublisher::new(seed.clone());
    let mut live = LiveLocalizer::new(publisher.reader(), config);
    c.bench_function("live/live_engine", |b| {
        b.iter(|| {
            live.reset();
            for (scan, motion) in &walk {
                black_box(live.observe(black_box(scan), *motion).expect("step scores"));
            }
        })
    });
}
