//! `stream_2k`: the per-user serving path. A synthetic 64x32 grid (2048
//! locations x 16 APs, 2 m spacing) with planted mirrored-row twins and a
//! 4-neighbour motion database; 32 users, each with its own
//! `StreamingSession::with_log` (default checkpoint interval 8, fsync as
//! configured, logs in a fresh directory under the working directory).
//! Arrivals are interleaved round-robin with seeded swaps and duplicates
//! inside the reorder window; one thread runs a closed loop with one call
//! outstanding.
//!
//! The per-query k-NN over the 256 KiB index takes most of a step,
//! checkpoint encode and append on every 8th delivery and batch releases
//! after a swap shape the tail, and the dense motion kernel (n^2 x 4 B =
//! 16 MiB) dominates set-up. A 16384-location grid (2 MiB index, 1 GiB
//! kernel) made every timed reading swing by up to half with the load of
//! other tenants on a shared host's memory, between sets of runs of the
//! same code, so the grid is the one `live_2k` serves. The database is
//! static here, so freshness is the age of each estimate at
//! delivery: from the start of the ingest call that brought its scan in
//! to the end of the one that delivered it, which the reorder buffer
//! stretches for every scan held behind a gap.

use crate::gen::{self, Deployment, Rng, Step};
use crate::paper::kernel_bytes;
use crate::report::{ratio, Report, Samples, Throughput};
use crate::trace::Tracer;
use crate::{common_header, knn_header, EndToEnd, Layers, Mode, Run, OUT_DIR};
use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_geometry::LocationId;
use moloc_motion::kernel::MotionKernel;
use moloc_session::checkpoint::CheckpointLog;
use moloc_session::{Estimate, ReorderBuffer, ScanEvent, SessionConfig, StreamingSession};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const COLS: u32 = 64;
const ROWS: u32 = 32;
const N_APS: usize = 16;
const USERS: usize = 32;
/// Events per user per pass. When every stream is exhausted the sessions
/// finish and a new pass starts on fresh sessions and logs.
const STREAM_LEN: usize = 1024;
/// Timed set-ups per plain run, after one untimed warm-up set-up.
const SETUP_REPS: usize = 8;
const WARMUP: Duration = Duration::from_millis(500);

/// The generated inputs: the deployment and every user's walk and
/// arrival order, interleaved round-robin into one schedule.
struct Inputs {
    dep: Deployment,
    walks: Vec<Vec<Step>>,
    /// `(user, seq)` in arrival order across all users.
    schedule: Vec<(usize, u64)>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let dep = Deployment::generate(seed, COLS, ROWS, N_APS);
        let mut rng = Rng::new(seed, 3);
        let walks: Vec<Vec<Step>> = (0..USERS)
            .map(|_| gen::walk(&dep, &mut rng, STREAM_LEN))
            .collect();
        let arrivals: Vec<Vec<u64>> = (0..USERS)
            .map(|_| gen::arrivals(STREAM_LEN, &mut rng))
            .collect();
        let mut schedule = Vec::with_capacity(arrivals.iter().map(Vec::len).sum());
        let longest = arrivals.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (user, order) in arrivals.iter().enumerate() {
                if let Some(&seq) = order.get(i) {
                    schedule.push((user, seq));
                }
            }
        }
        Inputs {
            dep,
            walks,
            schedule,
        }
    }
}

/// The serving databases built from the inputs.
struct Db {
    index: FingerprintIndex,
    kernel: MotionKernel,
}

/// Every user's session plus the benchmark's bookkeeping for one pass
/// over the schedule.
struct Fleet<'a> {
    inputs: &'a Inputs,
    db: &'a Db,
    moloc: MoLocConfig,
    config: SessionConfig,
    dir: PathBuf,
    pass: usize,
    sessions: Vec<StreamingSession<'a>>,
    cursor: usize,
    /// Deliveries since each session's last checkpoint, mirroring the
    /// session's own every-`checkpoint_interval` rule.
    since_checkpoint: Vec<u64>,
    /// Per pass and user, the `(seq, estimate)` deliveries in order.
    delivered: Vec<Vec<Vec<(u64, LocationId)>>>,
    /// Per user and seq, the start of the ingest call that first brought
    /// that event in, this pass.
    arrived: Vec<Vec<Option<Instant>>>,
    out: Vec<Estimate>,
}

/// What one ingest call did.
struct Ingested {
    ok: bool,
    estimates: usize,
    checkpointed: bool,
}

impl<'a> Fleet<'a> {
    fn open(
        inputs: &'a Inputs,
        db: &'a Db,
        moloc: MoLocConfig,
        config: SessionConfig,
        dir: &Path,
    ) -> Result<Self, String> {
        let mut fleet = Fleet {
            inputs,
            db,
            moloc,
            config,
            dir: dir.to_path_buf(),
            pass: 0,
            sessions: Vec::new(),
            cursor: 0,
            since_checkpoint: vec![0; USERS],
            delivered: Vec::new(),
            arrived: Vec::new(),
            out: Vec::new(),
        };
        fleet.start_pass()?;
        Ok(fleet)
    }

    fn start_pass(&mut self) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir).map_err(|e| format!("creating {:?}: {e}", self.dir))?;
        self.sessions.clear();
        for user in 0..USERS {
            let path = self.dir.join(format!("pass{}-user{user}.log", self.pass));
            let session = StreamingSession::with_log(
                &self.db.index,
                &self.db.kernel,
                self.moloc,
                self.config,
                path,
            )
            .map_err(|e| format!("opening checkpoint log: {e}"))?;
            self.sessions.push(session);
        }
        self.since_checkpoint = vec![0; USERS];
        self.delivered.push(vec![Vec::new(); USERS]);
        self.arrived = vec![vec![None; STREAM_LEN]; USERS];
        self.cursor = 0;
        Ok(())
    }

    /// The next arrival, rolling over to a new pass (finishing every
    /// session) when the schedule is exhausted.
    fn next_event(&mut self, report: &mut Report) -> Result<(usize, ScanEvent), String> {
        if self.cursor == self.inputs.schedule.len() {
            for user in 0..USERS {
                self.out.clear();
                let ok = self.sessions[user].finish(&mut self.out).is_ok();
                report.check(ok);
                self.note_delivered(user);
            }
            self.pass += 1;
            self.start_pass()?;
        }
        let (user, seq) = self.inputs.schedule[self.cursor];
        self.cursor += 1;
        let step = &self.inputs.walks[user][seq as usize];
        Ok((
            user,
            ScanEvent {
                event_id: ((user as u64) << 32) | seq,
                seq,
                scan: step.scan.clone(),
                motion: step.motion,
            },
        ))
    }

    /// One timed `StreamingSession::ingest` call; returns its latency.
    fn ingest(&mut self, user: usize, event: ScanEvent) -> (Ingested, Instant, Instant) {
        self.out.clear();
        let seq = event.seq as usize;
        let t0 = Instant::now();
        self.arrived[user][seq].get_or_insert(t0);
        let result = self.sessions[user].ingest(event, &mut self.out);
        let t1 = Instant::now();
        let estimates = self.out.len();
        self.note_delivered(user);
        let since = &mut self.since_checkpoint[user];
        *since += estimates as u64;
        let checkpointed = result.is_ok() && *since >= self.config.checkpoint_interval;
        if checkpointed {
            *since = 0;
        }
        (
            Ingested {
                ok: result.is_ok(),
                estimates,
                checkpointed,
            },
            t0,
            t1,
        )
    }

    /// Seconds from each estimate's arrival to the end of the ingest call
    /// that just delivered it (at `t1`).
    fn delivery_ages(&self, user: usize, t1: Instant) -> impl Iterator<Item = f64> + '_ {
        self.out
            .iter()
            .filter_map(move |e| self.arrived[user][e.seq as usize].map(|t| (t1 - t).as_secs_f64()))
    }

    fn note_delivered(&mut self, user: usize) {
        let log = &mut self.delivered[self.pass][user];
        log.extend(self.out.iter().map(|e| (e.seq, e.location)));
    }
}

pub fn run(run: &Run) -> Result<Report, String> {
    let moloc = MoLocConfig::paper();
    let config = SessionConfig::from_env().map_err(|e| e.to_string())?;
    let mut report = Report::default();
    common_header(&mut report, run);
    let dir = Path::new(OUT_DIR).join(format!("stream-{}", std::process::id()));
    let result = measure(run, moloc, config, &dir, &mut report);
    // Logs are scratch: remove them whatever happened.
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| report)
}

fn build(seed: u64, moloc: &MoLocConfig, kernel_ms: &mut Samples) -> (Inputs, Db) {
    let inputs = Inputs::generate(seed);
    let index = FingerprintIndex::build(&inputs.dep.fingerprint_db());
    let motion_db = inputs.dep.motion_db(seed);
    let k0 = Instant::now();
    let kernel = build_kernel(&motion_db, moloc);
    kernel_ms.push(k0.elapsed().as_secs_f64() * 1e3);
    (inputs, Db { index, kernel })
}

fn measure(
    run: &Run,
    moloc: MoLocConfig,
    config: SessionConfig,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut e2e = EndToEnd::default();
    let mut kernel_ms = Samples::default();
    let reps = if run.trace { 1 } else { SETUP_REPS };
    for rep in 0..reps {
        let t0 = Instant::now();
        let (inputs, db) = build(run.seed, &moloc, &mut kernel_ms);
        let fleet = Fleet::open(
            &inputs,
            &db,
            moloc,
            config,
            &dir.join(format!("setup{rep}")),
        )?;
        let setup = t0.elapsed().as_secs_f64();
        drop(fleet);
        if rep > 0 {
            e2e.setup.push(setup);
        }
    }
    // The kept set-up: timed like the others, then served from.
    let t0 = Instant::now();
    let (inputs, db) = build(run.seed, &moloc, &mut kernel_ms);
    let mut fleet = Fleet::open(&inputs, &db, moloc, config, &dir.join("serve"))?;
    e2e.setup.push(t0.elapsed().as_secs_f64());

    knn_header(report, &db.index, moloc.k);
    report.header("pool_width", "null".to_string());
    report.header("fsync", config.fsync.to_string());
    report.header(
        "checkpoint_interval",
        config.checkpoint_interval.to_string(),
    );
    report.header("reorder_capacity", config.reorder_capacity.to_string());
    let kbytes = kernel_bytes(&db.kernel);
    report.header("motion.kernel_bytes", kbytes.to_string());
    report.header("locations", db.index.len().to_string());
    report.header("twin_pairs", inputs.dep.twin_pairs.to_string());
    report.header("users", USERS.to_string());

    let mut sink = Samples::default();
    closed_loop(
        &mut fleet,
        WARMUP,
        &mut sink,
        &mut Samples::default(),
        &mut Throughput::default(),
        report,
    )?;
    if !run.trace {
        e2e.peak_rss_mib = crate::report::peak_rss_mib()?;
        closed_loop(
            &mut fleet,
            run.window(),
            &mut e2e.step,
            &mut e2e.freshness,
            &mut e2e.throughput,
            report,
        )?;
        check_and_score(&fleet, &db, moloc, &mut e2e, report);
        e2e.emit(report);
        return Ok(());
    }

    moloc_obs::reset();
    let spans = traced_loop(&mut fleet, run.window(), moloc, config, dir, report)?;
    let snap = moloc_obs::snapshot();
    let (base, base_steps) = (&spans.base, spans.base_steps);
    let (counted, counted_steps) = (&spans.counted, spans.counted_steps);
    spans
        .tracer
        .write_csv(&Path::new(OUT_DIR).join("spans-stream_2k.csv"))
        .map_err(|e| format!("writing spans: {e}"))?;
    check_and_score(&fleet, &db, moloc, &mut e2e, report);

    let st = spans.tracer.self_times();
    let total = |name: &str| st.get(name).map_or(0.0, |v| v.0);
    let ingest_total: f64 = spans.tracer.durations("session.ingest").iter().sum();
    let calls = spans.calls as f64;
    let steps = spans.steps as f64;
    let base_round = window_median(base.values(), USERS);
    let self_sum_round = ratio(ingest_total, calls) * USERS as f64;
    let negative = st.values().filter(|v| v.0 < 0.0).count();
    report.note(format!(
        "traced: {} ingest calls, {} steps; self per call us: {}; sum per {USERS}-call round \
         {:.1} us vs untraced median {:.1} us ({negative} negative self times)",
        spans.calls,
        spans.steps,
        st.iter()
            .map(|(k, v)| format!("{k} {:.2}", v.0 / calls * 1e6))
            .collect::<Vec<_>>()
            .join(", "),
        self_sum_round * 1e6,
        base_round * 1e6
    ));

    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let observations = c("core.degradation.observations");
    let eq7 = snap
        .histogram("core.eq7.pair_products")
        .map_or(0.0, |h| h.sum);
    let mut enc = Samples::default();
    spans
        .tracer
        .durations("session.ckpt_encode")
        .iter()
        .for_each(|d| enc.push(d * 1e6));
    let mut app = Samples::default();
    spans
        .tracer
        .durations("session.ckpt_append")
        .iter()
        .for_each(|d| app.push(d * 1e6));
    report.note(format!(
        "checkpoint spans: n = {} encodes, n = {} appends",
        enc.len(),
        app.len()
    ));
    let n = db.kernel.location_count() as f64;
    let mut layers = Layers::default();
    layers.set(
        "fingerprint.knn_self_us",
        ratio(total("fingerprint.knn"), steps) * 1e6,
    );
    layers.set(
        "fingerprint.knn_share",
        ratio(total("fingerprint.knn"), ingest_total),
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
    layers.set(
        "core.fuse_share",
        ratio(total("core.observe"), ingest_total),
    );
    layers.set("core.eq7_pairs_per_step", ratio(eq7, observations));
    layers.set(
        "core.clean_ratio",
        ratio(c("core.degradation.clean"), observations),
    );
    layers.set("motion.kernel_build_ms", kernel_ms.median());
    layers.set("motion.kernel_bytes", kbytes as f64);
    layers.set(
        "motion.trained_pair_ratio",
        ratio(db.kernel.directed_pair_count() as f64, n * n),
    );
    layers.set(
        "session.ingest_self_us",
        ratio(total("session.ingest"), calls) * 1e6,
    );
    layers.set(
        "session.reorder_us",
        ratio(total("session.reorder"), calls) * 1e6,
    );
    layers.set("session.held_ratio", ratio(spans.held as f64, calls));
    layers.set(
        "session.duplicates_dropped",
        ratio(spans.dropped as f64, calls) * 1e3,
    );
    layers.set("session.ckpt_encode_p50_us", enc.median());
    layers.set("session.ckpt_encode_p99_us", enc.quantile(0.99));
    layers.set("session.ckpt_append_p50_us", app.median());
    layers.set("session.ckpt_append_p99_us", app.quantile(0.99));
    layers.set(
        "session.ckpt_bytes_per_record",
        ratio(
            c("session.checkpoint.bytes"),
            c("session.checkpoint.writes"),
        ),
    );
    layers.set(
        "session.ckpt_writes_per_1k_steps",
        ratio(
            c("session.checkpoint.writes"),
            c("session.stream.delivered"),
        ) * 1e3,
    );
    let base_rate = ratio(base_steps as f64, base.sum());
    layers.set(
        "trace.overhead",
        ratio(ratio(steps, ingest_total), base_rate),
    );
    layers.set(
        "trace.obs_overhead",
        ratio(ratio(counted_steps as f64, counted.sum()), base_rate),
    );
    layers.set("trace.self_sum_ratio", ratio(self_sum_round, base_round));
    layers.emit(report);
    Ok(())
}

/// Median over consecutive windows of `w` samples of their sum.
fn window_median(values: &[f64], w: usize) -> f64 {
    let mut sums = Samples::default();
    for chunk in values.chunks_exact(w) {
        sums.push(chunk.iter().sum());
    }
    sums.median()
}

/// Closed loop for `window`: pushes every ingest latency (seconds) into
/// `latency`, every delivered estimate's age into `freshness`, and counts
/// delivered estimates into `throughput`.
fn closed_loop(
    fleet: &mut Fleet<'_>,
    window: Duration,
    latency: &mut Samples,
    freshness: &mut Samples,
    throughput: &mut Throughput,
    report: &mut Report,
) -> Result<(), String> {
    let deadline = Instant::now() + window;
    throughput.begin();
    while Instant::now() < deadline {
        let (user, event) = fleet.next_event(report)?;
        let (done, t0, t1) = fleet.ingest(user, event);
        latency.push((t1 - t0).as_secs_f64());
        freshness.extend(fleet.delivery_ages(user, t1));
        report.check(done.ok);
        throughput.add(done.estimates as u64);
    }
    Ok(())
}

/// What a traced run recorded, per mode.
struct Spans {
    /// Untraced ingest latencies (seconds, in sweep order) and steps.
    base: Samples,
    base_steps: u64,
    /// Ingest latencies and steps with `moloc-obs` enabled.
    counted: Samples,
    counted_steps: u64,
    tracer: Tracer,
    /// Ingest calls and steps in spans mode.
    calls: u64,
    steps: u64,
    /// Arrivals the reorder buffer parked.
    held: u64,
    /// Arrivals dropped as duplicates (pending or already delivered).
    dropped: u64,
}

/// Per-user shadows of a session's reorder buffer and engine, restored
/// from the session's own state so they see exactly what it sees.
struct Shadow<'a> {
    reorder: ReorderBuffer,
    engine: BatchLocalizer<'a>,
}

/// A traced run: sweeps of one ingest per user take turns between the
/// three [`Mode`]s. In spans mode every ingest is the real call,
/// followed by separate calls on the same input into the layers it
/// contains: the reorder push, then per released event `observe_slice`
/// and the k-NN (in alternating order, so neither always runs on the
/// warmer cache), and, when the session checkpointed, `state`, an
/// append to a shadow log and a separate `encode`.
fn traced_loop<'a>(
    fleet: &mut Fleet<'a>,
    window: Duration,
    moloc: MoLocConfig,
    config: SessionConfig,
    dir: &Path,
    report: &mut Report,
) -> Result<Spans, String> {
    let db: &'a Db = fleet.db;
    let (index, kernel) = (&db.index, &db.kernel);
    let shadow_dir = dir.join("shadow");
    std::fs::create_dir_all(&shadow_dir).map_err(|e| format!("creating {shadow_dir:?}: {e}"))?;
    let mut logs = (0..USERS)
        .map(|u| CheckpointLog::open(shadow_dir.join(format!("user{u}.log")), config.fsync))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("opening shadow log: {e}"))?;
    let mut shadows: Vec<Shadow<'a>> = Vec::with_capacity(USERS);
    let mut spans = Spans {
        base: Samples::default(),
        base_steps: 0,
        counted: Samples::default(),
        counted_steps: 0,
        tracer: Tracer::new(),
        calls: 0,
        steps: 0,
        held: 0,
        dropped: 0,
    };
    let mut ready = Vec::new();
    // The k-NN child is timed through the engine's own code: a step with
    // no history and no motion runs the k-NN and Eq. 4 but no Eq. 7
    // fusion. A direct `k_nearest_into` call from here would run another
    // monomorphized copy of the scan, whose few-percent speed difference
    // swamps the fusion's small self time.
    let mut knn_engine = BatchLocalizer::new_with_index(index, kernel, moloc);
    let deadline = Instant::now() + window;
    let mut turn = 0u64;
    while Instant::now() < deadline {
        let mode = Mode::of(turn);
        turn += 1;
        if mode == Mode::Counted {
            moloc_obs::enable();
        }
        // Shadows are re-synced at the start of every spans sweep (the
        // sessions moved on in between) and when a new pass replaced
        // the sessions.
        let mut synced_pass = None;
        for _ in 0..USERS {
            let (user, event) = fleet.next_event(report)?;
            if mode != Mode::Spans {
                let (done, t0, t1) = fleet.ingest(user, event);
                report.check(done.ok);
                let (latency, steps) = if mode == Mode::Untraced {
                    (&mut spans.base, &mut spans.base_steps)
                } else {
                    (&mut spans.counted, &mut spans.counted_steps)
                };
                latency.push((t1 - t0).as_secs_f64());
                *steps += done.estimates as u64;
                continue;
            }
            if synced_pass != Some(fleet.pass) {
                shadows.clear();
                for session in &fleet.sessions {
                    let state = session.state();
                    let mut reorder = ReorderBuffer::new(config.reorder_capacity);
                    reorder.restore(state.watermark, state.pending, state.stats);
                    let mut engine = BatchLocalizer::new_with_index(index, kernel, moloc);
                    engine.restore_posterior(&state.posterior, state.flags);
                    shadows.push(Shadow { reorder, engine });
                }
                synced_pass = Some(fleet.pass);
            }
            let step = spans.calls;
            let copy = event.clone();
            let (done, t0, t1) = fleet.ingest(user, event);
            report.check(done.ok);
            spans.calls += 1;
            spans.steps += done.estimates as u64;
            let tr = &mut spans.tracer;
            tr.span(step, "session.ingest", None, t0, t1);

            let shadow = &mut shadows[user];
            let before = shadow.reorder.stats();
            ready.clear();
            let r0 = Instant::now();
            let released = shadow.reorder.push(copy, &mut ready);
            tr.span(
                step,
                "session.reorder",
                Some("session.ingest"),
                r0,
                Instant::now(),
            );
            let after = shadow.reorder.stats();
            let dropped = (after.duplicates_dropped + after.late_dropped)
                - (before.duplicates_dropped + before.late_dropped);
            spans.dropped += dropped;
            spans.held += u64::from(released == 0 && dropped == 0);

            for (i, ev) in ready.iter().enumerate() {
                let knn_first = (step + i as u64) % 2 == 1;
                let mut knn = |tr: &mut Tracer| {
                    knn_engine.reset();
                    let k0 = Instant::now();
                    let _ = knn_engine.observe_slice(&ev.scan, None);
                    tr.span(
                        step,
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
                let _ = shadow.engine.observe_slice(&ev.scan, ev.motion);
                tr.span(
                    step,
                    "core.observe",
                    Some("session.ingest"),
                    o0,
                    Instant::now(),
                );
                if !knn_first {
                    knn(tr);
                }
            }
            if done.checkpointed {
                let s0 = Instant::now();
                let state = fleet.sessions[user].state();
                let s1 = Instant::now();
                tr.span(step, "session.ckpt_state", Some("session.ingest"), s0, s1);
                let appended = logs[user].append(&state).is_ok();
                let a1 = Instant::now();
                tr.span(step, "session.ckpt_append", Some("session.ingest"), s1, a1);
                let encoded = state.encode().is_ok();
                tr.span(
                    step,
                    "session.ckpt_encode",
                    Some("session.ckpt_append"),
                    a1,
                    Instant::now(),
                );
                report.check(appended && encoded);
            }
        }
        if mode == Mode::Counted {
            moloc_obs::set_enabled(false);
        }
    }
    Ok(spans)
}

/// Checks every delivered estimate against an in-order, de-duplicated
/// `BatchLocalizer::observe_slice` replay of the user's stream, and
/// scores it against the walk's ground truth.
fn check_and_score(
    fleet: &Fleet<'_>,
    db: &Db,
    moloc: MoLocConfig,
    e2e: &mut EndToEnd,
    report: &mut Report,
) {
    let grid = &fleet.inputs.dep.grid;
    for user in 0..USERS {
        let longest = fleet
            .delivered
            .iter()
            .map(|pass| pass[user].len())
            .max()
            .unwrap_or(0);
        let walk = &fleet.inputs.walks[user];
        let mut engine = BatchLocalizer::new_with_index(&db.index, &db.kernel, moloc);
        let expected: Vec<Option<LocationId>> = walk[..longest]
            .iter()
            .map(|step| engine.observe_slice(&step.scan, step.motion).ok())
            .collect();
        for pass in &fleet.delivered {
            for (i, &(seq, estimate)) in pass[user].iter().enumerate() {
                report.check(seq == i as u64 && expected[i] == Some(estimate));
                e2e.score(grid.distance(walk[seq as usize].truth, estimate));
            }
        }
    }
}
