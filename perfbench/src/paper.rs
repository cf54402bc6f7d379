//! `paper_eval`: the paper's own setting. `EvalWorld::paper` with
//! `setting(6)` (28 locations x 6 APs, CSC step counting, paper
//! sanitation), then `pipeline::localize_moloc_with` over the 34
//! held-out traces, one round after another in a closed loop on the
//! evaluation pool at its resolved width.
//!
//! k-NN over 28 rows costs almost nothing here, so a round's time goes
//! to sensor-trace analysis, the Eq. 4-7 fusion and pool dispatch. The
//! serving call of this workload is one round, so `step_p*_us` are round
//! latencies; `steps_per_s` counts passes.

use crate::report::{ratio, Report, Samples, Throughput};
use crate::trace::Tracer;
use crate::{common_header, knn_header, EndToEnd, Layers, Mode, Run, OUT_DIR};
use moloc_core::batch::{BatchLocalizer, BatchScratch};
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_eval::arena::{give_back, ArenaPool};
use moloc_eval::parallel::{default_chunk, par_shards, thread_count};
use moloc_eval::pipeline::{
    analyze_trace_indexed, localize_moloc, localize_moloc_with, EvalWorld, PassOutcome, Setting,
};
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use moloc_motion::kernel::MotionKernel;
use moloc_sensors::steps::StepDetector;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const N_APS: usize = 6;
/// Paper worlds per run, `EvalWorld::paper(seed * 16 + i)`. One world's
/// 34 held-out traces are a small sample (its mean error moves by a
/// third from seed to seed), so rounds rotate over 16 worlds and the
/// error metrics rest on 16 x 714 passes. Each world's build is one
/// set-up sample, after one untimed warm-up build (the first build of a
/// process pays page faults and allocator growth that a rebuild in a
/// running service does not).
const WORLDS: u64 = 16;
/// Closed-loop warm-up before any timing: the first few hundred rounds
/// of a process run up to 40% slower.
const WARMUP: Duration = Duration::from_millis(1000);
/// Rounds between two freshness probes in a plain run. A probe rebuilds
/// the next world's DB, index and kernel and localizes its held-out
/// traces on them: one freshness group of 34 samples. Its time is left
/// out of the throughput windows.
const PROBE_EVERY: u64 = 32;

struct Built {
    world: EvalWorld,
    setting: Setting,
    index: FingerprintIndex,
    kernel: MotionKernel,
    /// A plain `localize_moloc` call's outcomes, every round's reference.
    expected: Vec<Vec<PassOutcome>>,
}

/// One closed-loop phase: rounds, steps, throughput, round latencies and
/// freshness probes.
#[derive(Default)]
struct Phase {
    rounds: u64,
    steps: u64,
    throughput: Throughput,
    latency: Samples,
    probes: u64,
    freshness: Samples,
}

pub fn run(run: &Run) -> Result<Report, String> {
    // The pool runs at its own resolved width (`MOLOC_THREADS`, else
    // `available_parallelism`), which the header records.
    let width = thread_count();
    let available = crate::available_parallelism();
    if width > available {
        return Err(format!(
            "pool width {width} exceeds available_parallelism {available}; refusing to run"
        ));
    }
    let config = MoLocConfig::paper();
    let mut report = Report::default();
    common_header(&mut report, run);
    let mut e2e = EndToEnd::default();
    let mut kernel_ms = Samples::default();

    // Set-up: the warm-up build, then one build per world, each checked
    // by a first round driven trace by trace.
    let mut worlds = Vec::with_capacity(WORLDS as usize);
    for i in 0..=WORLDS {
        let seed = run
            .seed
            .wrapping_mul(WORLDS)
            .wrapping_add(i.saturating_sub(1));
        let t0 = Instant::now();
        let world = EvalWorld::paper(seed);
        let setting = world.setting(N_APS);
        let index = FingerprintIndex::build(&setting.fdb);
        let k0 = Instant::now();
        let kernel = build_kernel(&setting.motion_db, &config);
        let t1 = Instant::now();
        let mut b = Built {
            world,
            setting,
            index,
            kernel,
            expected: Vec::new(),
        };
        let (first, _) = driven_round(&b.world, &b.setting, &b.index, &b.kernel, config, width);
        if i == 0 {
            continue;
        }
        kernel_ms.push((t1 - k0).as_secs_f64() * 1e3);
        e2e.setup.push((t1 - t0).as_secs_f64());
        b.expected = localize_moloc(&b.world, &b.setting, config);
        report.check(first == b.expected);
        worlds.push(b);
    }
    let n = worlds[0].world.corpus.test.len();
    let width = width.min(n);
    let passes: Vec<u64> = worlds
        .iter()
        .map(|b| b.expected.iter().map(|t| t.len() as u64).sum())
        .collect();

    knn_header(&mut report, &worlds[0].index, config.k);
    report.header("pool_width", width.to_string());
    report.header("fsync", "null".to_string());
    let kernel0 = &worlds[0].kernel;
    let n_loc = kernel0.location_count();
    let kernel_bytes = kernel_bytes(kernel0);
    report.header("motion.kernel_bytes", format!("{kernel_bytes}"));
    report.header("worlds", WORLDS.to_string());
    report.header("traces_per_round", n.to_string());
    report.header("passes_per_round", passes[0].to_string());

    let probe_width = (!run.trace).then_some(width);
    closed_loop(&worlds, config, &passes, WARMUP, probe_width, &mut report);
    if !run.trace {
        e2e.peak_rss_mib = crate::report::peak_rss_mib()?;
        let phase = closed_loop(
            &worlds,
            config,
            &passes,
            run.window(),
            probe_width,
            &mut report,
        );
        report.note(format!("freshness probes: {}", phase.probes));
        e2e.throughput = phase.throughput;
        e2e.step = phase.latency;
        e2e.freshness = phase.freshness;
        e2e.freshness_group = Some(n);
        for outcome in worlds.iter().flat_map(|b| b.expected.iter().flatten()) {
            e2e.score(outcome.error_m);
        }
        e2e.emit(&mut report);
        return Ok(report);
    }

    let mut base = Phase::default();
    let mut counted = Phase::default();
    let mut tracer = Tracer::new();
    let mut shadow = Shadow::new(config);
    let mut rounds = 0u64;
    let mut steps = 0u64;
    let mut round_wall = 0.0;
    moloc_obs::reset();
    let deadline = Instant::now() + run.window();
    for turn in 0u64.. {
        if Instant::now() >= deadline {
            break;
        }
        // Three consecutive turns run one world in each mode. The first
        // of them finds the world's data cold, so the mode order rotates
        // from world to world and every mode takes that slot equally.
        let w = ((turn / 3) % WORLDS) as usize;
        let b = &worlds[w];
        match Mode::of(turn + turn / 3) {
            Mode::Untraced => one_round(b, config, passes[w], &mut base, &mut report),
            Mode::Counted => {
                moloc_obs::enable();
                one_round(b, config, passes[w], &mut counted, &mut report);
                moloc_obs::set_enabled(false);
            }
            Mode::Spans => {
                let start = Instant::now();
                let (outcomes, times) =
                    driven_round(&b.world, &b.setting, &b.index, &b.kernel, config, width);
                round_wall += start.elapsed().as_secs_f64();
                report.check(outcomes == b.expected);
                for [t_start, t_analyzed, t_fuse, t_fused, t_end] in times {
                    tracer.span(rounds, "eval.trace", None, t_start, t_end);
                    tracer.span(rounds, "analyze", Some("eval.trace"), t_start, t_analyzed);
                    tracer.span(rounds, "core.localize", Some("eval.trace"), t_fuse, t_fused);
                }
                shadow.knn(b, config, rounds, &mut tracer);
                rounds += 1;
                steps += passes[w];
            }
        }
    }
    let snap = moloc_obs::snapshot();
    tracer
        .write_csv(&std::path::Path::new(OUT_DIR).join("spans-paper_eval.csv"))
        .map_err(|e| format!("writing spans: {e}"))?;

    // Self times over the spans rounds. The pool's thread budget is
    // width x wall per round; whatever no trace span covers is pool
    // dispatch and idle time.
    let st = tracer.self_times();
    let total = |name: &str| st.get(name).map_or(0.0, |v| v.0);
    let budget = width as f64 * round_wall;
    let analyze = total("analyze");
    let knn = total("fingerprint.knn");
    let fuse = total("core.localize");
    let trace_glue = total("eval.trace");
    let busy = analyze + knn + fuse + trace_glue;
    let pool_idle = budget - busy;
    let base_median = base.latency.median();
    let self_sum_round = (busy + pool_idle) / width as f64 / rounds.max(1) as f64;
    let negative = [analyze, knn, fuse, trace_glue, pool_idle]
        .iter()
        .filter(|&&v| v < 0.0)
        .count();
    let per_round = |v: f64| v / rounds.max(1) as f64 * 1e6;
    report.note(format!(
        "traced: {rounds} rounds; self per round us: analyze {:.2}, knn {:.2}, fuse {:.2}, \
         trace glue {:.2}, pool idle {:.2}; sum {:.2} vs untraced median round {:.2} \
         ({negative} negative self times)",
        per_round(analyze),
        per_round(knn),
        per_round(fuse),
        per_round(trace_glue),
        per_round(pool_idle),
        self_sum_round * 1e6,
        base_median * 1e6
    ));

    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let observations = c("core.degradation.observations");
    let eq7 = snap
        .histogram("core.eq7.pair_products")
        .map_or(0.0, |h| h.sum);
    let mut layers = Layers::default();
    layers.set("fingerprint.knn_self_us", ratio(knn, steps as f64) * 1e6);
    layers.set("fingerprint.knn_share", ratio(knn, budget));
    layers.set(
        "fingerprint.rows_scanned_per_step",
        ratio(c("fingerprint.knn.candidates_scanned"), observations),
    );
    layers.set(
        "fingerprint.mirror_survivor_ratio",
        ratio(
            c("fingerprint.knn.mirror_survivors"),
            c("fingerprint.knn.candidates_scanned"),
        ),
    );
    layers.set("core.fuse_self_us", ratio(fuse, steps as f64) * 1e6);
    layers.set("core.fuse_share", ratio(fuse, budget));
    layers.set("core.eq7_pairs_per_step", ratio(eq7, observations));
    layers.set(
        "core.clean_ratio",
        ratio(c("core.degradation.clean"), observations),
    );
    layers.set("motion.kernel_build_ms", kernel_ms.median());
    layers.set("motion.kernel_bytes", kernel_bytes as f64);
    layers.set(
        "motion.trained_pair_ratio",
        ratio(kernel0.directed_pair_count() as f64, (n_loc * n_loc) as f64),
    );
    layers.set(
        "analyze.self_us",
        ratio(analyze, (rounds * n as u64) as f64) * 1e6,
    );
    layers.set("analyze.share", ratio(analyze, budget));
    layers.set("eval.pool_width", width as f64);
    layers.set("eval.pool_busy_ratio", ratio(busy, budget));
    layers.set("eval.pool_idle_us_per_round", per_round(pool_idle));
    layers.set(
        "eval.steals_per_round",
        ratio(c("eval.runtime.steals"), counted.rounds as f64),
    );
    layers.set(
        "eval.jobs_per_round",
        ratio(c("eval.runtime.jobs"), counted.rounds as f64),
    );
    // Throughput per second spent inside the serving calls, so loop and
    // check overhead between calls cancels out of the ratios.
    let base_rate = ratio(base.steps as f64, base.latency.sum());
    layers.set(
        "trace.overhead",
        ratio(ratio(steps as f64, round_wall), base_rate),
    );
    layers.set(
        "trace.obs_overhead",
        ratio(
            ratio(counted.steps as f64, counted.latency.sum()),
            base_rate,
        ),
    );
    layers.set("trace.self_sum_ratio", ratio(self_sum_round, base_median));
    report.note(format!(
        "counters: block scans {}, mirror survivors {}, knn queries {}",
        c("fingerprint.knn.block_scans"),
        c("fingerprint.knn.mirror_survivors"),
        c("fingerprint.knn.queries")
    ));
    layers.emit(&mut report);
    Ok(report)
}

/// Bytes of a motion kernel's tables: the dense `n x n` u32 pair index
/// plus 32 bytes of Gaussian parameters per directed trained pair.
pub fn kernel_bytes(kernel: &MotionKernel) -> u64 {
    let n = kernel.location_count() as u64;
    n * n * 4 + kernel.directed_pair_count() as u64 * 32
}

/// Runs rounds for `window`, rotating over the worlds, with a freshness
/// probe every [`PROBE_EVERY`] rounds on a pool of `probe_width` workers
/// when that is given.
fn closed_loop(
    worlds: &[Built],
    config: MoLocConfig,
    passes: &[u64],
    window: Duration,
    probe_width: Option<usize>,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase::default();
    let deadline = Instant::now() + window;
    phase.throughput.begin();
    while Instant::now() < deadline {
        let w = (phase.rounds % WORLDS) as usize;
        one_round(&worlds[w], config, passes[w], &mut phase, report);
        if let Some(width) = probe_width.filter(|_| phase.rounds % PROBE_EVERY == 0) {
            let b = &worlds[(phase.probes % WORLDS) as usize];
            let db_start = Instant::now();
            let setting = b.world.setting(N_APS);
            let index = FingerprintIndex::build(&setting.fdb);
            let kernel = build_kernel(&setting.motion_db, &config);
            let (outcomes, ends) = driven_round(&b.world, &setting, &index, &kernel, config, width);
            phase
                .freshness
                .extend(ends.iter().map(|t| (t[4] - db_start).as_secs_f64()));
            report.check(outcomes == b.expected);
            phase.probes += 1;
            phase.throughput.exclude(db_start.elapsed());
        }
    }
    phase
}

/// One timed `localize_moloc_with` round, checked against the world's
/// reference outcomes.
fn one_round(b: &Built, config: MoLocConfig, passes: u64, phase: &mut Phase, report: &mut Report) {
    let t = Instant::now();
    let out = localize_moloc_with(&b.world, &b.setting, config, &b.index, &b.kernel);
    phase.latency.push(t.elapsed().as_secs_f64());
    report.check(out == b.expected);
    phase.rounds += 1;
    phase.steps += passes;
    phase.throughput.add(passes);
}

/// One trace's index, its [start, analyzed, fuse start, fused, end]
/// instants and its outcomes.
type TraceResult = (usize, [Instant; 5], Vec<PassOutcome>);

/// One round of `localize_moloc_with`'s per-trace body, driven through
/// `par_shards` by the benchmark itself so each trace's analysis and
/// localization are timed. Returns the outcomes and, per trace in trace
/// order, the instants [start, analyzed, fuse start, fused, end].
fn driven_round(
    world: &EvalWorld,
    setting: &Setting,
    index: &FingerprintIndex,
    kernel: &MotionKernel,
    config: MoLocConfig,
    workers: usize,
) -> (Vec<Vec<PassOutcome>>, Vec<[Instant; 5]>) {
    let n = world.corpus.test.len();
    let detector = StepDetector::default();
    let factory = || BatchScratch::for_k(config.k);
    let scratch_pool: ArenaPool<'_, BatchScratch> = ArenaPool::new(&factory);
    let results: Mutex<Vec<TraceResult>> = Mutex::new(Vec::with_capacity(n));
    par_shards(n, default_chunk(n, workers.min(n)), |range| {
        let mut scratch = scratch_pool.checkout().take();
        for i in range {
            let t_start = Instant::now();
            let trace = &world.corpus.test[i];
            let analysis = analyze_trace_indexed(
                trace,
                &setting.fdb,
                index,
                &world.hall,
                &detector,
                setting.counting,
                N_APS,
            );
            let t_analyzed = Instant::now();
            let mut engine = BatchLocalizer::with_scratch(index, kernel, config, scratch);
            let scans: Vec<&[f64]> = trace.scans.iter().map(|s| &s[..N_APS]).collect();
            let motions: Vec<_> = (0..scans.len())
                .map(|i| {
                    if i == 0 {
                        None
                    } else {
                        analysis.measurements[i - 1]
                    }
                })
                .collect();
            let mut estimates = Vec::with_capacity(scans.len());
            let t_fuse = Instant::now();
            engine
                .localize_scans_into(&scans, &motions, &mut estimates)
                .expect("query length matches database");
            let t_fused = Instant::now();
            let outcomes: Vec<PassOutcome> = trace
                .passes
                .iter()
                .enumerate()
                .map(|(pass_index, pass)| PassOutcome {
                    trace_index: i,
                    pass_index,
                    truth: pass.location,
                    estimate: estimates[pass_index],
                    error_m: world
                        .hall
                        .grid
                        .distance(pass.location, estimates[pass_index]),
                })
                .collect();
            scratch = engine.into_scratch();
            let t_end = Instant::now();
            results
                .lock()
                .expect("no shard panics while holding the lock")
                .push((i, [t_start, t_analyzed, t_fuse, t_fused, t_end], outcomes));
        }
        give_back(&scratch_pool, scratch);
    });
    let mut results = results.into_inner().expect("shards finished");
    results.sort_by_key(|r| r.0);
    results
        .into_iter()
        .map(|(_, times, out)| (out, times))
        .unzip()
}

/// The k-NN child of `localize_scans_into`, timed after the round by
/// the same call on each trace with every motion dropped: a trace with
/// no motion runs the blocked k-NN (one `QueryBlock` per trace) and
/// Eq. 4 but no Eq. 7 fusion, through the engine's own code.
struct Shadow {
    scratch: Option<BatchScratch>,
    estimates: Vec<LocationId>,
}

impl Shadow {
    fn new(config: MoLocConfig) -> Shadow {
        Shadow {
            scratch: Some(BatchScratch::for_k(config.k)),
            estimates: Vec::new(),
        }
    }

    fn knn(&mut self, b: &Built, config: MoLocConfig, round: u64, tracer: &mut Tracer) {
        for trace in &b.world.corpus.test {
            let scans: Vec<&[f64]> = trace.scans.iter().map(|s| &s[..N_APS]).collect();
            let motions = vec![None; scans.len()];
            let scratch = self
                .scratch
                .take()
                .expect("scratch returned after every trace");
            let mut engine = BatchLocalizer::with_scratch(&b.index, &b.kernel, config, scratch);
            let t = Instant::now();
            engine
                .localize_scans_into(&scans, &motions, &mut self.estimates)
                .expect("query length matches database");
            tracer.span(
                round,
                "fingerprint.knn",
                Some("core.localize"),
                t,
                Instant::now(),
            );
            self.scratch = Some(engine.into_scratch());
        }
    }
}
