//! Mechanism gates: nine pairs of arms, both arms of each pair timed
//! in this one process, each pair's ratio of mean per-iteration times
//! checked against a fixed bound (see [`GATES`]).
//!
//! ```text
//! cargo bench -p moloc-eval --bench gates
//! ```
//!
//! Arms are timed in groups, the arms one or two gates compare (the
//! widths of the world build, say). Each arm first warms up for
//! [`WARM_UP`], which also fixes how many iterations one of its
//! samples runs; then the group takes [`SAMPLES`] rounds, each timing
//! one sample of every arm and rotating which arm goes first. A burst
//! of contention on a shared host so lands on every arm of a gate
//! alike, not on whichever arm happened to be running.
//!
//! Because both arms run on the same machine in the same run, no ratio
//! compares numbers from two hosts. The bench prints
//! `available_parallelism`, one line per arm (fastest, median and mean
//! time per iteration), then one line per gate: its ratio, its bound
//! and `ok` or `FAIL`. It takes no flags and reads and writes no file.
//!
//! Exit status: 1 when any gate fails. Otherwise 2 when a gate went
//! unjudged: it was refused, because it needs more cores than
//! `available_parallelism` reports, or an arm's mean time is not a
//! positive finite number. 0 when every gate holds.

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_eval::parallel::{
    default_chunk, par_run, par_shards_with_workers, set_worker_override, thread_count,
};
use moloc_eval::pipeline::{localize_moloc_with, CountingMethod, EvalWorld, TraceSplit};
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
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use Bound::{AtLeast, AtMost};

#[derive(Clone, Copy)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
}

/// Each gate: its name, the arm whose mean time is the ratio's
/// numerator, the arm whose mean time is its denominator, the bound,
/// and the cores the ratio needs to mean anything. A speedup at pool
/// width `w` can only show on `w` cores, so the world-build and fig. 7
/// gates need their width; collection and dispatch run both arms at
/// width 4 and compare mechanisms, not widths.
#[rustfmt::skip]
const GATES: [(&str, &str, &str, Bound, usize); 9] = [
    ("world build at width 4", "world/w1", "world/w4", AtLeast(1.5), 4),
    ("world build at width 2", "world/w1", "world/w2", AtLeast(1.2), 2),
    ("fig. 7 at width 4", "fig7/w1", "fig7/w4", AtLeast(1.5), 4),
    ("fig. 7 at width 2", "fig7/w1", "fig7/w2", AtLeast(1.2), 2),
    ("disjoint-slot collection", "collect/mutex_vec", "collect/disjoint_slots", AtLeast(1.5), 1),
    ("warm dispatch", "dispatch/scoped_spawn", "dispatch/warm_pool", AtLeast(2.0), 1),
    ("recorder overhead", "recorder/on", "recorder/off", AtMost(1.2), 1),
    ("blocked k-NN", "knn/looped_2048x32", "knn/blocked_2048x32", AtLeast(2.0), 1),
    ("live reader", "live/static_engine", "live/live_engine", AtLeast(0.90), 1),
];

/// Timed samples per arm, one per round of its group.
const SAMPLES: usize = 30;
/// Untimed warm-up per arm, which also calibrates its sample length.
const WARM_UP: Duration = Duration::from_secs(1);
/// Time budget of one arm's samples, spread evenly over them.
const MEASUREMENT: Duration = Duration::from_secs(3);
/// The pool width the collection and dispatch arms run at.
const POOL_WIDTH: usize = 4;
/// APs of both synthetic surveys, and neighbours per k-NN query.
const APS: u32 = 6;
const K: usize = 8;
/// The live deployment's grid side: 16 × 16 cells, walked 16 steps.
const SIDE: u32 = 16;

/// One arm: its name, the pool width and recorder state its samples
/// run under, and one iteration of the work it times.
struct Arm<'a> {
    name: String,
    width: Option<usize>,
    recorder: bool,
    routine: Box<dyn FnMut() + 'a>,
}

impl<'a> Arm<'a> {
    fn new(name: impl Into<String>, routine: impl FnMut() + 'a) -> Self {
        Arm {
            name: name.into(),
            width: None,
            recorder: false,
            routine: Box::new(routine),
        }
    }

    fn at_width(mut self, width: usize) -> Self {
        self.width = Some(width);
        self
    }

    fn recording(mut self) -> Self {
        self.recorder = true;
        self
    }

    /// Runs `iters` iterations under the arm's pool width and recorder
    /// state and returns the time per iteration, in nanoseconds.
    fn sample(&mut self, iters: u64) -> f64 {
        set_worker_override(self.width);
        moloc_obs::set_enabled(self.recorder);
        let start = Instant::now();
        for _ in 0..iters {
            (self.routine)();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        moloc_obs::set_enabled(false);
        set_worker_override(None);
        ns
    }

    /// Warms the arm up for [`WARM_UP`], doubling the batch so the loop
    /// overhead amortizes, and returns the iterations per sample that
    /// spread [`MEASUREMENT`] over [`SAMPLES`] samples.
    fn calibrate(&mut self) -> u64 {
        let start = Instant::now();
        let (mut batch, mut iters) = (1u64, 0u64);
        while start.elapsed() < WARM_UP {
            self.sample(batch);
            iters += batch;
            batch = batch.saturating_mul(2).min(1 << 20);
        }
        let per_iter_ns = start.elapsed().as_nanos().max(1) as f64 / iters as f64;
        let per_sample_ns = MEASUREMENT.as_nanos() as f64 / SAMPLES as f64;
        ((per_sample_ns / per_iter_ns).floor() as u64).max(1)
    }
}

/// Times a group of arms in interleaved rounds (see the module docs),
/// prints one line per arm and records each arm's mean time per
/// iteration in `means`.
fn run_group(mut arms: Vec<Arm<'_>>, means: &mut HashMap<String, f64>) {
    let iters: Vec<u64> = arms.iter_mut().map(Arm::calibrate).collect();
    let mut samples = vec![Vec::new(); arms.len()];
    for round in 0..SAMPLES {
        for k in 0..arms.len() {
            let a = (round + k) % arms.len();
            samples[a].push(arms[a].sample(iters[a]));
        }
    }
    moloc_obs::reset();
    for ((arm, mut ns), iters) in arms.iter().zip(samples).zip(iters) {
        ns.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timing"));
        let mean = ns.iter().sum::<f64>() / ns.len() as f64;
        let median = (ns[(ns.len() - 1) / 2] + ns[ns.len() / 2]) / 2.0;
        println!(
            "{:<48} time: [{} {} {}]  ({} samples x {} iters)",
            arm.name,
            format_ns(ns[0]),
            format_ns(median),
            format_ns(mean),
            ns.len(),
            iters,
        );
        means.insert(arm.name.clone(), mean);
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available_parallelism: {cores}");
    let mut means = HashMap::new();
    bench_eval(&mut means, cores);
    bench_pool(&mut means);
    bench_block(&mut means);
    bench_live(&mut means);
    std::process::exit(judge(&means, cores));
}

/// Prints one line per gate and returns the exit status.
fn judge(means: &HashMap<String, f64>, cores: usize) -> i32 {
    let (mut failed, mut unjudged) = (false, false);
    for (name, numerator, denominator, bound, needs) in GATES {
        if needs > cores {
            println!("{name:<26} refused: needs {needs} cores");
            unjudged = true;
            continue;
        }
        let mean = |arm: &str| *means.get(arm).expect("every unrefused arm ran");
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

/// The build of `EvalWorld::small(2013)` and fig. 7's MoLoc
/// localization of it at 6 APs, at every width the host has cores for,
/// then the batch localizer over the first test trace with the metrics
/// recorder off and on.
fn bench_eval(means: &mut HashMap<String, f64>, cores: usize) {
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    let config = MoLocConfig::paper();
    let index = FingerprintIndex::build(&setting.fdb);
    let kernel = build_kernel(&setting.motion_db, &config);
    let widths: Vec<usize> = [1, 2, 4].into_iter().filter(|&w| w <= cores).collect();
    let world_arms = widths.iter().map(|&width| {
        Arm::new(format!("world/w{width}"), || {
            black_box(EvalWorld::small(2013));
        })
        .at_width(width)
    });
    run_group(world_arms.collect(), means);
    let fig7_arms = widths.iter().map(|&width| {
        Arm::new(format!("fig7/w{width}"), || {
            black_box(localize_moloc_with(
                &world, &setting, config, &index, &kernel,
            ));
        })
        .at_width(width)
    });
    run_group(fig7_arms.collect(), means);

    let trace = &world.corpus.test[0];
    let analysis = world.analyze(
        TraceSplit::Test,
        0,
        &setting.fdb,
        &index,
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
    let localize = || {
        let queries = &queries;
        let mut batch = BatchLocalizer::new_with_index(&index, &kernel, config);
        let mut estimates = Vec::with_capacity(queries.len());
        move || {
            batch
                .localize_trace_into(black_box(queries), &mut estimates)
                .expect("queries are valid");
            black_box(&estimates);
        }
    };
    run_group(
        vec![
            Arm::new("recorder/off", localize()),
            Arm::new("recorder/on", localize()).recording(),
        ],
        means,
    );
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
fn bench_pool(means: &mut HashMap<String, f64>) {
    const ITEMS: usize = 4096;
    let disjoint_slots = || {
        black_box(par_run(ITEMS, item_work));
    };
    let mutex_vec = || {
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
        black_box(collected.into_iter().map(|(_, v)| v).collect::<Vec<u64>>());
    };
    run_group(
        vec![
            Arm::new("collect/disjoint_slots", disjoint_slots).at_width(POOL_WIDTH),
            Arm::new("collect/mutex_vec", mutex_vec).at_width(POOL_WIDTH),
        ],
        means,
    );

    const SHARD: usize = 4;
    let warm_pool = || {
        par_shards_with_workers(POOL_WIDTH, 64, SHARD, |range| {
            for i in range {
                black_box(item_work(i));
            }
        })
    };
    let scoped_spawn = || {
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
    };
    run_group(
        vec![
            Arm::new("dispatch/warm_pool", warm_pool),
            Arm::new("dispatch/scoped_spawn", scoped_spawn),
        ],
        means,
    );
}

/// A deterministic dBm lattice plus a sub-dBm dither.
fn rss(id: u32, ap: u32) -> f64 {
    -40.0 - f64::from((id * 7 + ap * 13) % 23) - f64::from((id * 31 + ap * 11) % 97) / 128.0
}

/// 32 queries off the lattice against a 2,048 × 6 survey whose every
/// 32nd row clones the row 17 back (planted twins, so exact-tie
/// breaking stays on the measured path), once as a per-query
/// `k_nearest_into` loop and once as one block scan.
fn bench_block(means: &mut HashMap<String, f64>) {
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
    let looped = || {
        for q in &queries {
            index.k_nearest_into(black_box(q), K, &mut scratch, &mut neighbors);
            black_box(&neighbors);
        }
    };
    let mut block = QueryBlock::new(APS as usize);
    for q in &queries {
        block.push(q);
    }
    let mut block_scratch = BlockScratch::new();
    let mut out = BlockNeighbors::new();
    let blocked = || {
        index.k_nearest_block_into(black_box(&mut block), K, &mut block_scratch, &mut out);
        black_box(&out);
    };
    run_group(
        vec![
            Arm::new("knn/looped_2048x32", looped),
            Arm::new("knn/blocked_2048x32", blocked),
        ],
        means,
    );
}

/// A static `BatchLocalizer` against a `LiveLocalizer` on the same
/// 256-cell database with no publish in flight, each walking one row
/// east from a reset: the live arm's extra work is its per-step epoch
/// check.
fn bench_live(means: &mut HashMap<String, f64>) {
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
    let static_engine = || {
        engine.reset();
        for (scan, motion) in &walk {
            black_box(
                engine
                    .observe_slice(black_box(scan), *motion)
                    .expect("step scores"),
            );
        }
    };
    let publisher = SnapshotPublisher::new(seed.clone());
    let mut live = LiveLocalizer::new(publisher.reader(), config);
    let live_engine = || {
        live.reset();
        for (scan, motion) in &walk {
            black_box(live.observe(black_box(scan), *motion).expect("step scores"));
        }
    };
    run_group(
        vec![
            Arm::new("live/static_engine", static_engine),
            Arm::new("live/live_engine", live_engine),
        ],
        means,
    );
}
