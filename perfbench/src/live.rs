//! `live_2k`: the serving step with writes beside reads. A synthetic
//! 64x32 grid (2048 locations x 16 APs) held in an `UpdateLog` over a
//! `MapReference`, published through a `SnapshotPublisher`. Eight
//! `LiveLocalizer`s walk round-robin on one thread; after every 512
//! reader steps the loop folds a seeded batch of crowdsourced survey
//! samples and RLMs and publishes it.
//!
//! Each publish rebuilds the fingerprint database, index and motion
//! snapshot, and each reader rebuilds its own 16 MiB kernel when it
//! adopts the new epoch, so read latency trades against freshness here.

use crate::gen::{self, DeltaBatch, Deployment, Rng, Step};
use crate::paper::kernel_bytes;
use crate::report::{ratio, Report, Samples, Throughput};
use crate::trace::Tracer;
use crate::{common_header, knn_header, EndToEnd, Layers, Mode, Run, OUT_DIR};
use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_geometry::LocationId;
use moloc_live::{LiveLocalizer, SnapshotPublisher, UpdateLog};
use moloc_motion::filter::SanitationConfig;
use moloc_motion::rlm::Rlm;
use std::sync::Arc;
use std::time::{Duration, Instant};

const COLS: u32 = 64;
const ROWS: u32 = 32;
const N_APS: usize = 16;
const READERS: usize = 8;
/// Steps per reader walk; a reader that reaches the end forgets its
/// history and starts the walk again.
const WALK_LEN: usize = 4096;
/// Reader steps between two publishes.
const STEPS_PER_PUBLISH: usize = 512;
const BATCH_SAMPLES: usize = 32;
const BATCH_RLMS: usize = 32;
const SURVEY_PER_LOCATION: usize = 3;
const RLMS_PER_PAIR: usize = 5;
/// Timed set-ups per plain run, after one untimed warm-up set-up.
const SETUP_REPS: usize = 3;
/// The first publishes and adoptions of a process run on cold memory
/// (an adopting step takes ~7 ms instead of ~1.5 ms).
const WARMUP: Duration = Duration::from_millis(1000);

struct Inputs {
    dep: Deployment,
    survey: Vec<(LocationId, Vec<f64>)>,
    rlms: Vec<Rlm>,
    walks: Vec<Vec<Step>>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let dep = Deployment::generate(seed, COLS, ROWS, N_APS);
        let mut rng = Rng::new(seed, 4);
        let survey = gen::initial_survey(&dep, &mut rng, SURVEY_PER_LOCATION);
        let rlms = gen::initial_rlms(&dep, &mut rng, RLMS_PER_PAIR);
        let walks = (0..READERS)
            .map(|_| gen::walk(&dep, &mut rng, WALK_LEN))
            .collect();
        Inputs {
            dep,
            survey,
            rlms,
            walks,
        }
    }
}

/// The live serving state: the log, the publisher and the readers.
struct Live {
    log: UpdateLog,
    publisher: Arc<SnapshotPublisher>,
    readers: Vec<LiveLocalizer>,
    cursors: Vec<usize>,
    deltas: Rng,
    /// Total reader steps taken, and the epoch each reader last ran on.
    steps: u64,
    last_epoch: Vec<u64>,
    /// When the latest publish started.
    last_publish: Option<Instant>,
}

impl Live {
    fn build(inputs: &Inputs, seed: u64, config: MoLocConfig) -> Result<Live, String> {
        let mut log = UpdateLog::new(N_APS, inputs.dep.map_reference(), SanitationConfig::paper())
            .map_err(|e| format!("update log: {e}"))?;
        for (id, values) in &inputs.survey {
            log.observe_survey_sample(*id, values)
                .map_err(|e| format!("survey sample: {e}"))?;
        }
        for rlm in &inputs.rlms {
            log.observe_rlm(*rlm);
        }
        let seed_snapshot = log
            .build_snapshot(0)
            .map_err(|e| format!("seed snapshot: {e}"))?;
        let publisher = SnapshotPublisher::new(seed_snapshot);
        log.mark_published();
        let readers = (0..READERS)
            .map(|_| LiveLocalizer::new(publisher.reader(), config))
            .collect();
        Ok(Live {
            log,
            publisher,
            readers,
            cursors: vec![0; READERS],
            deltas: Rng::new(seed, 5),
            steps: 0,
            last_epoch: vec![0; READERS],
            last_publish: None,
        })
    }

    /// The next reader and the walk step it observes, resetting a
    /// reader whose walk wrapped.
    fn next_step<'i>(&mut self, inputs: &'i Inputs) -> (usize, &'i Step, bool) {
        let r = (self.steps % READERS as u64) as usize;
        self.steps += 1;
        let c = self.cursors[r];
        self.cursors[r] = (c + 1) % WALK_LEN;
        let wrapped = c == 0 && self.steps > READERS as u64;
        if wrapped {
            self.readers[r].reset();
        }
        (r, &inputs.walks[r][c], c == 0)
    }

    fn next_batch(&mut self, dep: &Deployment) -> DeltaBatch {
        gen::delta_batch(dep, &mut self.deltas, BATCH_SAMPLES, BATCH_RLMS)
    }
}

/// One reader step's outcome as the loop sees it.
struct Observed {
    estimate: Option<(LocationId, u64)>,
    adopted: bool,
}

/// Runs reader `r`'s step, checking its epoch: a step never runs ahead
/// of the publisher, and a reader adopts every publish exactly once (the
/// loop is single-threaded, so the first step after a publish must run
/// on exactly the new epoch).
fn observe(
    live: &mut Live,
    r: usize,
    step: &Step,
    first: bool,
    report: &mut Report,
) -> (Observed, Instant, Instant) {
    let motion = if first { None } else { step.motion };
    let t0 = Instant::now();
    let result = live.readers[r].observe(&step.scan, motion);
    let t1 = Instant::now();
    let current = live.publisher.current_epoch();
    let (estimate, adopted) = match result {
        Ok((loc, epoch)) => {
            let adopted = epoch != live.last_epoch[r];
            let ok = epoch == current && (!adopted || epoch == live.last_epoch[r] + 1);
            report.check(ok);
            live.last_epoch[r] = epoch;
            (Some((loc, epoch)), adopted)
        }
        Err(_) => {
            report.check(false);
            (None, false)
        }
    };
    (Observed { estimate, adopted }, t0, t1)
}

pub fn run(run: &Run) -> Result<Report, String> {
    let config = MoLocConfig::paper();
    let mut report = Report::default();
    common_header(&mut report, run);
    let mut e2e = EndToEnd::default();
    let reps = if run.trace { 1 } else { SETUP_REPS };
    let mut kept = None;
    for rep in 0..=reps {
        drop(kept.take());
        let t0 = Instant::now();
        let inputs = Inputs::generate(run.seed);
        let live = Live::build(&inputs, run.seed, config)?;
        if rep > 0 {
            e2e.setup.push(t0.elapsed().as_secs_f64());
        }
        kept = Some((inputs, live));
    }
    let (inputs, mut live) = kept.expect("at least one set-up");

    let snapshot = live.publisher.snapshot();
    knn_header(&mut report, &snapshot.index, config.k);
    report.header("pool_width", "null".to_string());
    report.header("fsync", "null".to_string());
    let seed_kernel = build_kernel(&snapshot.motion_db, &config);
    report.header(
        "motion.kernel_bytes",
        kernel_bytes(&seed_kernel).to_string(),
    );
    drop(seed_kernel);
    report.header("locations", snapshot.index.len().to_string());
    report.header("readers", READERS.to_string());
    report.header("steps_per_publish", STEPS_PER_PUBLISH.to_string());
    drop(snapshot);

    let mut sink = Phase::default();
    closed_loop(&mut live, &inputs, WARMUP, &mut sink, &mut report);
    if !run.trace {
        e2e.peak_rss_mib = crate::report::peak_rss_mib()?;
        let mut phase = Phase::default();
        closed_loop(&mut live, &inputs, run.window(), &mut phase, &mut report);
        e2e.throughput = phase.throughput;
        e2e.step = phase.latency;
        e2e.freshness = phase.freshness;
        e2e.freshness_group = Some(READERS);
        e2e.hits = phase.hits;
        e2e.scored = phase.scored;
        e2e.error_m = phase.error_m;
        report.note(format!(
            "publishes in the measured window: {}",
            phase.publishes
        ));
        e2e.emit(&mut report);
        return Ok(report);
    }

    moloc_obs::reset();
    let mut spans = traced_loop(&mut live, &inputs, config, run.window(), &mut report)?;
    let snap = moloc_obs::snapshot();
    let base_cycle = spans.base.cycle.median();
    let (base, counted) = (&spans.base, &spans.counted);
    spans
        .tracer
        .write_csv(&std::path::Path::new(OUT_DIR).join("spans-live_2k.csv"))
        .map_err(|e| format!("writing spans: {e}"))?;

    let tr = &spans.tracer;
    let st = tr.self_times();
    let total = |name: &str| st.get(name).map_or(0.0, |v| v.0);
    let roots: f64 = ["live.observe", "live.ingest_delta", "live.publish"]
        .iter()
        .map(|name| tr.durations(name).iter().sum::<f64>())
        .sum();
    let cycles = spans.cycles.max(1) as f64;
    let steps = spans.steps as f64;
    let negative = st.values().filter(|v| v.0 < 0.0).count();
    report.note(format!(
        "traced: {} cycles, {} steps; self per cycle us: {}; sum {:.1} us vs untraced median \
         cycle {:.1} us ({negative} negative self times)",
        spans.cycles,
        spans.steps,
        st.iter()
            .map(|(k, v)| format!("{k} {:.1}", v.0 / cycles * 1e6))
            .collect::<Vec<_>>()
            .join(", "),
        roots / cycles * 1e6,
        base_cycle * 1e6
    ));

    let mut steady = Samples::default();
    let mut adopting = Samples::default();
    for (d, adopted) in tr.durations("live.observe").iter().zip(&spans.adopted) {
        if *adopted {
            adopting.push(*d);
        } else {
            steady.push(*d);
        }
    }
    let mut publish = Samples::default();
    tr.durations("live.publish")
        .iter()
        .for_each(|d| publish.push(d * 1e3));
    let kernel_builds = tr.durations("motion.kernel_build");
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let observations = c("core.degradation.observations");
    let eq7 = snap
        .histogram("core.eq7.pair_products")
        .map_or(0.0, |h| h.sum);
    let n = spans.kernel_locations as f64;
    let mut layers = Layers::default();
    layers.set(
        "fingerprint.knn_self_us",
        ratio(total("fingerprint.knn"), steps) * 1e6,
    );
    layers.set(
        "fingerprint.knn_share",
        ratio(total("fingerprint.knn"), roots),
    );
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
    layers.set(
        "core.fuse_self_us",
        ratio(total("core.observe"), steps) * 1e6,
    );
    layers.set("core.fuse_share", ratio(total("core.observe"), roots));
    layers.set("core.eq7_pairs_per_step", ratio(eq7, observations));
    layers.set(
        "core.clean_ratio",
        ratio(c("core.degradation.clean"), observations),
    );
    layers.set(
        "motion.kernel_build_ms",
        ratio(kernel_builds.iter().sum(), kernel_builds.len() as f64) * 1e3,
    );
    layers.set("motion.kernel_bytes", spans.kernel_bytes as f64);
    layers.set(
        "motion.trained_pair_ratio",
        ratio(spans.kernel_pairs as f64, n * n),
    );
    let deltas = tr.durations("live.ingest_delta");
    layers.set(
        "live.ingest_delta_us",
        ratio(deltas.iter().sum(), deltas.len() as f64) * 1e6,
    );
    let builds = tr.durations("live.build_snapshot");
    layers.set(
        "live.build_snapshot_ms",
        ratio(builds.iter().sum(), builds.len() as f64) * 1e3,
    );
    report.note(format!(
        "publish spans n = {}, adopting steps n = {}, steady steps n = {}",
        publish.len(),
        adopting.len(),
        steady.len()
    ));
    layers.set("live.publish_p50_ms", publish.median());
    layers.set("live.publish_p99_ms", publish.quantile(0.99));
    layers.set("live.adopt_ms", (adopting.mean() - steady.median()) * 1e3);
    layers.set(
        "live.refreshes",
        ratio(c("live.reader.refreshes"), c("live.publish.count")),
    );
    let base_rate = ratio(base.steps as f64, base.cycle.sum());
    layers.set("trace.overhead", ratio(ratio(steps, roots), base_rate));
    layers.set(
        "trace.obs_overhead",
        ratio(ratio(counted.steps as f64, counted.cycle.sum()), base_rate),
    );
    layers.set("trace.self_sum_ratio", ratio(roots / cycles, base_cycle));
    layers.emit(&mut report);
    Ok(report)
}

/// One closed-loop phase's raw readings.
#[derive(Default)]
struct Phase {
    steps: u64,
    publishes: u64,
    throughput: Throughput,
    /// Seconds per reader step.
    latency: Samples,
    /// Seconds from a publish's start to a reader's first step on it.
    freshness: Samples,
    /// Seconds per cycle spent inside serving calls (steps, delta folds
    /// and the publish).
    cycle: Samples,
    hits: u64,
    scored: u64,
    error_m: f64,
}

/// Cycles of 512 reader steps plus one delta fold and publish, for at
/// least `window` (whole cycles only).
fn closed_loop(
    live: &mut Live,
    inputs: &Inputs,
    window: Duration,
    phase: &mut Phase,
    report: &mut Report,
) {
    let deadline = Instant::now() + window;
    phase.throughput.begin();
    while Instant::now() < deadline {
        one_cycle(live, inputs, phase, report);
    }
}

/// One cycle: 512 timed reader steps, then a timed delta fold and
/// publish.
fn one_cycle(live: &mut Live, inputs: &Inputs, phase: &mut Phase, report: &mut Report) {
    let mut busy = 0.0;
    for _ in 0..STEPS_PER_PUBLISH {
        let (r, step, first) = live.next_step(inputs);
        let (seen, t0, t1) = observe(live, r, step, first, report);
        let d = (t1 - t0).as_secs_f64();
        busy += d;
        phase.latency.push(d);
        phase.steps += 1;
        if let Some((loc, _)) = seen.estimate {
            let err = inputs.dep.grid.distance(step.truth, loc);
            phase.scored += 1;
            phase.hits += u64::from(err == 0.0);
            phase.error_m += err;
        }
        if let (true, Some(p)) = (seen.adopted, live.last_publish) {
            phase.freshness.push((t1 - p).as_secs_f64());
        }
    }
    let batch = live.next_batch(&inputs.dep);
    let f0 = Instant::now();
    let folded = fold(&mut live.log, &batch);
    let p0 = Instant::now();
    let published = live.publisher.publish(&mut live.log);
    let p1 = Instant::now();
    report.check(folded.is_ok());
    report.check(matches!(published, Ok(r) if r.published));
    busy += (p1 - f0).as_secs_f64();
    phase.cycle.push(busy);
    phase.publishes += 1;
    phase.throughput.add(STEPS_PER_PUBLISH as u64);
    live.last_publish = Some(p0);
}

fn fold(log: &mut UpdateLog, batch: &DeltaBatch) -> Result<(), String> {
    for (id, values) in &batch.samples {
        log.observe_survey_sample(*id, values)
            .map_err(|e| format!("survey sample: {e}"))?;
    }
    for rlm in &batch.rlms {
        log.observe_rlm(*rlm);
    }
    Ok(())
}

/// What a traced run recorded.
struct Spans {
    /// Untraced and `moloc-obs`-enabled cycles.
    base: Phase,
    counted: Phase,
    tracer: Tracer,
    /// Cycles and reader steps in spans mode.
    cycles: u64,
    steps: u64,
    /// Per `live.observe` span, whether that step adopted a new epoch.
    adopted: Vec<bool>,
    kernel_bytes: u64,
    kernel_pairs: usize,
    kernel_locations: usize,
}

/// A traced run: publish cycles take turns between the three
/// [`Mode`]s. In a spans cycle every reader step is the real
/// `LiveLocalizer` call, followed by separate calls on the same input
/// into the layers it contains: on an adopting step the kernel build for
/// the new epoch, then `observe_slice` on a shadow engine that follows
/// the reader, and the k-NN (in alternating order, so neither always
/// runs on the warmer cache). Every delta fold and publish is a real
/// call; the snapshot build inside the publish is timed by a separate
/// `build_snapshot` on the same log right after it.
fn traced_loop(
    live: &mut Live,
    inputs: &Inputs,
    config: MoLocConfig,
    window: Duration,
    report: &mut Report,
) -> Result<Spans, String> {
    let snapshot = live.publisher.snapshot();
    let mut shadows: Vec<BatchLocalizer<'static>> = (0..READERS)
        .map(|_| {
            let kernel = Arc::new(build_kernel(&snapshot.motion_db, &config));
            BatchLocalizer::new_counted(Arc::clone(&snapshot.index), kernel, config)
        })
        .collect();
    // The k-NN child is timed through the engine's own code: a step with
    // no history and no motion runs the k-NN and Eq. 4 but no Eq. 7
    // fusion (a direct `k_nearest_into` call from here would run another
    // monomorphized copy of the scan).
    let mut knn_engine = BatchLocalizer::new_counted(
        Arc::clone(&snapshot.index),
        Arc::new(build_kernel(&snapshot.motion_db, &config)),
        config,
    );
    drop(snapshot);
    let mut spans = Spans {
        base: Phase::default(),
        counted: Phase::default(),
        tracer: Tracer::new(),
        cycles: 0,
        steps: 0,
        adopted: Vec::new(),
        kernel_bytes: 0,
        kernel_pairs: 0,
        kernel_locations: 0,
    };
    let deadline = Instant::now() + window;
    let mut turn = 0u64;
    while Instant::now() < deadline {
        let mode = Mode::of(turn);
        turn += 1;
        match mode {
            Mode::Untraced => {
                one_cycle(live, inputs, &mut spans.base, report);
                continue;
            }
            Mode::Counted => {
                moloc_obs::enable();
                one_cycle(live, inputs, &mut spans.counted, report);
                moloc_obs::set_enabled(false);
                continue;
            }
            Mode::Spans => {}
        }
        // Readers expose no posterior, so readers and shadows start each
        // spans cycle from the same empty history.
        for (reader, shadow) in live.readers.iter_mut().zip(&mut shadows) {
            reader.reset();
            shadow.reset();
        }
        // Span ids: one per reader step, then one for the cycle's writes.
        let first_id = spans.cycles * (STEPS_PER_PUBLISH as u64 + 1);
        for i in 0..STEPS_PER_PUBLISH {
            let id = first_id + i as u64;
            let (r, step, first) = live.next_step(inputs);
            if first {
                shadows[r].reset();
            }
            let (seen, t0, t1) = observe(live, r, step, first, report);
            let tr = &mut spans.tracer;
            tr.span(id, "live.observe", None, t0, t1);
            spans.adopted.push(seen.adopted);
            spans.steps += 1;
            if seen.adopted {
                let snapshot = live.publisher.snapshot();
                let k0 = Instant::now();
                let kernel = build_kernel(&snapshot.motion_db, &config);
                tr.span(
                    id,
                    "motion.kernel_build",
                    Some("live.observe"),
                    k0,
                    Instant::now(),
                );
                spans.kernel_bytes = kernel_bytes(&kernel);
                spans.kernel_pairs = kernel.directed_pair_count();
                spans.kernel_locations = kernel.location_count();
                let kernel = Arc::new(kernel);
                shadows[r].adopt_counted(Arc::clone(&snapshot.index), Arc::clone(&kernel));
                knn_engine.adopt_counted(Arc::clone(&snapshot.index), kernel);
            }
            let motion = if first { None } else { step.motion };
            let knn_first = i % 2 == 1;
            let mut knn = |tr: &mut Tracer| {
                knn_engine.reset();
                let k0 = Instant::now();
                let _ = knn_engine.observe_slice(&step.scan, None);
                tr.span(
                    id,
                    "fingerprint.knn",
                    Some("core.observe"),
                    k0,
                    Instant::now(),
                );
            };
            if knn_first {
                knn(tr);
            }
            let o0 = Instant::now();
            let shadow = shadows[r].observe_slice(&step.scan, motion);
            tr.span(id, "core.observe", Some("live.observe"), o0, Instant::now());
            if !knn_first {
                knn(tr);
            }
            report.check(shadow.ok() == seen.estimate.map(|(loc, _)| loc));
        }
        let write_id = first_id + STEPS_PER_PUBLISH as u64;
        let batch = live.next_batch(&inputs.dep);
        for (id, values) in &batch.samples {
            let d0 = Instant::now();
            let ok = live.log.observe_survey_sample(*id, values).is_ok();
            spans
                .tracer
                .span(write_id, "live.ingest_delta", None, d0, Instant::now());
            report.check(ok);
        }
        for rlm in &batch.rlms {
            let d0 = Instant::now();
            live.log.observe_rlm(*rlm);
            spans
                .tracer
                .span(write_id, "live.ingest_delta", None, d0, Instant::now());
        }
        let p0 = Instant::now();
        let published = live.publisher.publish(&mut live.log);
        let p1 = Instant::now();
        spans.tracer.span(write_id, "live.publish", None, p0, p1);
        report.check(matches!(published, Ok(r) if r.published));
        live.last_publish = Some(p0);
        let epoch = live.publisher.current_epoch();
        let b0 = Instant::now();
        let rebuilt = live.log.build_snapshot(epoch);
        spans.tracer.span(
            write_id,
            "live.build_snapshot",
            Some("live.publish"),
            b0,
            Instant::now(),
        );
        report.check(rebuilt.is_ok());
        drop(rebuilt);
        spans.cycles += 1;
    }
    Ok(spans)
}
