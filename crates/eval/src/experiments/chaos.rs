//! Chaos experiment: the crash-safe streaming session layer under
//! injected stream and lifecycle faults.
//!
//! Three claims are exercised, each mapped to a hard invariant rather
//! than a statistical trend:
//!
//! 1. **Stream/batch equivalence** — a zero-fault in-order stream
//!    through [`StreamingSession`] produces estimates bit-identical to
//!    driving the `BatchLocalizer` recursion directly.
//! 2. **Kill-and-recover determinism** — for every fault mix and kill
//!    point, killing the session mid-stream, recovering from the
//!    checkpoint log, and replaying the arrival suffix reproduces the
//!    uninterrupted run's estimates and final state bit-for-bit.
//! 3. **Corruption is loud** — a checkpoint log hit by
//!    [`CheckpointCorruption`] is always *detected*; recovery falls
//!    back to the previous verified record and replay still converges
//!    to the uninterrupted state. A corrupted record is never silently
//!    loaded.
//!
//! Any violation panics with the [`FaultPlanSpec::describe`] banner —
//! the exact JSON plan plus the seed — so every red run reproduces
//! verbatim. Results serialize to `ROBUST_pr8.json` via
//! `repro --exp chaos --chaos-out FILE`.

use std::path::PathBuf;

use crate::pipeline::{EvalWorld, Setting, TraceSplit};
use crate::report;
use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_faults::spec::FaultPlanSpec;
use moloc_faults::{CheckpointCorruption, ScanDuplicate, ScanLoss, ScanReorder};
use moloc_fingerprint::index::FingerprintIndex;
use moloc_motion::kernel::MotionKernel;
use moloc_session::{Estimate, ReorderStats, ScanEvent, SessionConfig, StreamingSession};
use serde::{Deserialize, Serialize};

/// Traces driven through the kill matrix per case (the zero-fault
/// equivalence check runs over the full test corpus).
const KILL_TRACES: usize = 4;

/// One fault mix driven through the kill-and-recover matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCase {
    /// Case label.
    pub name: String,
    /// The exact injector configuration (replayable via
    /// [`FaultPlanSpec::from_json`]).
    pub spec: FaultPlanSpec,
    /// Traces streamed.
    pub traces: usize,
    /// Total arrival events across traces (after loss/duplication).
    pub arrivals: usize,
    /// Events released to the tracker.
    pub delivered: u64,
    /// Wire duplicates dropped by the reorder buffer.
    pub duplicates_dropped: u64,
    /// Arrivals behind the watermark, dropped.
    pub late_dropped: u64,
    /// Sequence holes skipped on window overflow.
    pub gaps_skipped: u64,
    /// Kill points exercised across traces.
    pub kill_points: usize,
    /// Recoveries that actually resumed from a verified checkpoint.
    pub recoveries_resumed: usize,
    /// FNV-1a digest over every trace's estimate stream.
    pub digest: String,
    /// Every kill point reproduced the uninterrupted run bit-for-bit.
    pub recovered_bit_identical: bool,
}

/// The full chaos artifact (serialized as `ROBUST_pr8.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Chaos {
    /// World + injector seed.
    pub seed: u64,
    /// AP count of the evaluated setting.
    pub n_aps: usize,
    /// Claim 1: zero-fault in-order streaming ≡ batch recursion.
    pub zero_fault_matches_batch: bool,
    /// Claim 3: the corrupted checkpoint log was detected (never
    /// silently loaded).
    pub corruption_detected: bool,
    /// Claim 3: recovery past the corrupted record still reproduced
    /// the uninterrupted final state.
    pub corruption_recovered_bit_identical: bool,
    /// Claim 2, per fault mix.
    pub cases: Vec<ChaosCase>,
}

/// FNV-1a over a byte stream (the workspace's checksum idiom).
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest_estimates(h: &mut u64, estimates: &[Estimate]) {
    for e in estimates {
        fnv1a(h, &e.seq.to_le_bytes());
        fnv1a(h, &u64::from(e.location.get()).to_le_bytes());
        fnv1a(h, &[e.flags.bits()]);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Panics with the replay banner on a violated invariant.
fn check(cond: bool, spec: &FaultPlanSpec, seed: u64, msg: &str) {
    assert!(cond, "chaos invariant violated: {msg}\nseed {seed}\n{}", spec.describe());
}

/// The shared per-run context: built once, borrowed everywhere.
struct Ctx<'a> {
    index: &'a FingerprintIndex,
    kernel: &'a MotionKernel,
    config: MoLocConfig,
    session: SessionConfig,
}

/// The in-order event stream of one test trace: seq = pass index, the
/// scan truncated to the setting's AP count, and the inter-pass motion
/// measurement exactly as the batch pipeline feeds it.
fn event_stream(world: &EvalWorld, setting: &Setting, index: &FingerprintIndex, trace_index: usize) -> Vec<ScanEvent> {
    let trace = &world.corpus.test[trace_index];
    let analysis = world.analyze(
        TraceSplit::Test,
        trace_index,
        &setting.fdb,
        index,
        setting.counting,
        setting.n_aps,
    );
    trace
        .scans
        .iter()
        .enumerate()
        .map(|(i, scan)| ScanEvent {
            event_id: i as u64,
            seq: i as u64,
            scan: scan[..setting.n_aps].to_vec(),
            motion: if i == 0 {
                None
            } else {
                analysis.measurements[i - 1]
            },
        })
        .collect()
}

/// Applies the wire-level faults of `spec` to an in-order stream:
/// loss, then duplication, then arrival-order permutation.
fn arrival_stream(events: &[ScanEvent], trace: u64, spec: &FaultPlanSpec) -> Vec<ScanEvent> {
    let mut wire: Vec<ScanEvent> = Vec::with_capacity(events.len());
    for event in events {
        if spec.scan_loss.is_some_and(|l| l.dropped(trace, event.seq)) {
            continue;
        }
        let copies = spec
            .scan_duplicate
            .map_or(0, |d| d.extra_copies(trace, event.seq));
        for _ in 0..=copies {
            wire.push(event.clone());
        }
    }
    match spec.scan_reorder {
        Some(r) => r
            .arrival_order(trace, wire.len())
            .into_iter()
            .map(|i| wire[i].clone())
            .collect(),
        None => wire,
    }
}

/// Streams `arrivals` through a fresh (logless) session to completion.
fn stream_all(
    ctx: &Ctx<'_>,
    arrivals: &[ScanEvent],
    spec: &FaultPlanSpec,
    seed: u64,
) -> (Vec<Estimate>, Vec<u8>, ReorderStats) {
    let mut session = StreamingSession::new(ctx.index, ctx.kernel, ctx.config, ctx.session);
    let mut out = Vec::new();
    for event in arrivals {
        session
            .ingest(event.clone(), &mut out)
            .unwrap_or_else(|e| panic!("uninterrupted ingest failed: {e}\nseed {seed}\n{}", spec.describe()));
    }
    session
        .finish(&mut out)
        .unwrap_or_else(|e| panic!("uninterrupted finish failed: {e}\nseed {seed}\n{}", spec.describe()));
    (
        out,
        session.state().encode().expect("state encodes"),
        session.reorder_stats(),
    )
}

/// A scratch checkpoint-log path, cleared of any leftover.
fn scratch_log(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "moloc_chaos_{}_{tag}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Kills a logged session after `kill` arrivals, recovers, replays the
/// suffix, and verifies both the replayed estimates and the final
/// state against the uninterrupted run. Returns whether recovery
/// resumed from a checkpoint (vs. a from-scratch replay).
#[allow(clippy::too_many_arguments)]
fn kill_and_recover(
    ctx: &Ctx<'_>,
    arrivals: &[ScanEvent],
    kill: usize,
    reference: &[Estimate],
    reference_state: &[u8],
    spec: &FaultPlanSpec,
    seed: u64,
    tag: &str,
) -> bool {
    let path = scratch_log(tag);
    {
        // The doomed process: ingest up to the kill point, then drop
        // without `finish` — everything past the last checkpoint
        // append is lost, exactly like a SIGKILL between syscalls.
        let mut doomed =
            StreamingSession::with_log(ctx.index, ctx.kernel, ctx.config, ctx.session, &path)
                .unwrap_or_else(|e| panic!("open log: {e}\nseed {seed}\n{}", spec.describe()));
        let mut sink = Vec::new();
        for event in &arrivals[..kill] {
            doomed
                .ingest(event.clone(), &mut sink)
                .unwrap_or_else(|e| panic!("doomed ingest: {e}\nseed {seed}\n{}", spec.describe()));
        }
    }
    let recovered =
        StreamingSession::recover(ctx.index, ctx.kernel, ctx.config, ctx.session, &path)
            .unwrap_or_else(|e| panic!("recover: {e}\nseed {seed}\n{}", spec.describe()));
    check(
        recovered.report.corruption.is_none(),
        spec,
        seed,
        "clean kill must not report corruption",
    );
    let mut session = recovered.session;
    let resume = session.ingested() as usize;
    check(resume <= kill, spec, seed, "replay cursor ran ahead of the kill point");
    let replay_from = session.delivered() as usize;
    let mut out = Vec::new();
    for event in &arrivals[resume..] {
        session
            .ingest(event.clone(), &mut out)
            .unwrap_or_else(|e| panic!("replay ingest: {e}\nseed {seed}\n{}", spec.describe()));
    }
    session
        .finish(&mut out)
        .unwrap_or_else(|e| panic!("replay finish: {e}\nseed {seed}\n{}", spec.describe()));
    check(
        out[..] == reference[replay_from..],
        spec,
        seed,
        "replayed estimates diverged from the uninterrupted run",
    );
    check(
        session.state().encode().expect("state encodes") == reference_state,
        spec,
        seed,
        "recovered final state diverged from the uninterrupted run",
    );
    let _ = std::fs::remove_file(&path);
    recovered.resumed
}

/// Claim 1: zero-fault in-order streaming ≡ the batch recursion.
fn zero_fault_equivalence(ctx: &Ctx<'_>, streams: &[Vec<ScanEvent>], seed: u64) -> bool {
    let spec = FaultPlanSpec::default();
    for events in streams {
        let mut engine = BatchLocalizer::new_with_index(ctx.index, ctx.kernel, ctx.config);
        let batch: Vec<Estimate> = events
            .iter()
            .map(|e| {
                let location = engine
                    .observe_slice(&e.scan, e.motion)
                    .expect("clean query matches database");
                Estimate {
                    seq: e.seq,
                    location,
                    flags: engine.last_flags(),
                }
            })
            .collect();
        let (streamed, _, stats) = stream_all(ctx, events, &spec, seed);
        check(
            streamed == batch,
            &spec,
            seed,
            "zero-fault streaming diverged from the batch recursion",
        );
        check(
            stats.duplicates_dropped == 0 && stats.late_dropped == 0 && stats.gaps_skipped == 0,
            &spec,
            seed,
            "zero-fault stream exercised a drop path",
        );
    }
    true
}

/// Claim 3: a corrupted checkpoint log is detected, and recovery past
/// it still converges. Returns `(detected, bit_identical)`.
fn corruption_is_loud(
    ctx: &Ctx<'_>,
    events: &[ScanEvent],
    seed: u64,
) -> (bool, bool) {
    let injector = CheckpointCorruption { rate: 1.0, seed };
    let spec = FaultPlanSpec {
        checkpoint_corruption: Some(injector),
        ..FaultPlanSpec::default()
    };
    let (reference, reference_state, _) = stream_all(ctx, events, &spec, seed);
    let path = scratch_log("corruption");
    {
        let mut session =
            StreamingSession::with_log(ctx.index, ctx.kernel, ctx.config, ctx.session, &path)
                .unwrap_or_else(|e| panic!("open log: {e}\nseed {seed}\n{}", spec.describe()));
        let mut sink = Vec::new();
        for event in events {
            session
                .ingest(event.clone(), &mut sink)
                .unwrap_or_else(|e| panic!("ingest: {e}\nseed {seed}\n{}", spec.describe()));
        }
        session
            .finish(&mut sink)
            .unwrap_or_else(|e| panic!("finish: {e}\nseed {seed}\n{}", spec.describe()));
    }
    // Hit the log's final record: flip one injector-chosen bit inside
    // the last 16 bytes (payload tail or checksum — both are covered
    // by the record checksum, so either must be detected).
    let mut bytes = std::fs::read(&path).expect("log readable");
    check(bytes.len() > 16, &spec, seed, "log too short to corrupt");
    let tail = bytes.len() - 16;
    let flipped = injector.corrupt(0, 0, &mut bytes[tail..]);
    check(flipped, &spec, seed, "rate-1.0 injector must flip a bit");
    std::fs::write(&path, &bytes).expect("log writable");

    let recovered =
        StreamingSession::recover(ctx.index, ctx.kernel, ctx.config, ctx.session, &path)
            .unwrap_or_else(|e| panic!("recover: {e}\nseed {seed}\n{}", spec.describe()));
    let detected = recovered.report.corruption.is_some();
    check(detected, &spec, seed, "corrupted checkpoint log loaded silently");
    let mut session = recovered.session;
    let resume = session.ingested() as usize;
    check(
        resume < events.len() || !recovered.resumed,
        &spec,
        seed,
        "recovery claims the corrupted final record's cursor",
    );
    let replay_from = session.delivered() as usize;
    let mut out = Vec::new();
    for event in &events[resume..] {
        session
            .ingest(event.clone(), &mut out)
            .unwrap_or_else(|e| panic!("replay ingest: {e}\nseed {seed}\n{}", spec.describe()));
    }
    session
        .finish(&mut out)
        .unwrap_or_else(|e| panic!("replay finish: {e}\nseed {seed}\n{}", spec.describe()));
    let identical = session.state().encode().expect("state encodes") == reference_state
        && out[..] == reference[replay_from..];
    check(identical, &spec, seed, "recovery past corruption diverged");
    let _ = std::fs::remove_file(&path);
    (detected, identical)
}

/// Runs one fault mix through the kill matrix.
fn run_case(
    ctx: &Ctx<'_>,
    streams: &[Vec<ScanEvent>],
    name: &str,
    spec: FaultPlanSpec,
    seed: u64,
) -> ChaosCase {
    let mut arrivals_total = 0;
    let mut stats_total = ReorderStats::default();
    let mut digest = FNV_OFFSET;
    let mut kill_points = 0;
    let mut recoveries_resumed = 0;
    // `kill_and_recover` panics on any divergence, so reaching the
    // artifact at all means every kill point was bit-identical.
    let bit_identical = true;
    for (trace, events) in streams.iter().take(KILL_TRACES).enumerate() {
        let arrivals = arrival_stream(events, trace as u64, &spec);
        arrivals_total += arrivals.len();
        let (reference, reference_state, stats) = stream_all(ctx, &arrivals, &spec, seed);
        stats_total.delivered += stats.delivered;
        stats_total.duplicates_dropped += stats.duplicates_dropped;
        stats_total.late_dropped += stats.late_dropped;
        stats_total.gaps_skipped += stats.gaps_skipped;
        digest_estimates(&mut digest, &reference);
        // Halfway and near the end: late enough that at least one
        // checkpoint usually exists (resumed recovery), while the
        // from-scratch replay path is still exercised by short traces.
        for kill in [arrivals.len() / 2, arrivals.len().saturating_sub(2)] {
            let kill = kill.max(1).min(arrivals.len());
            kill_points += 1;
            let resumed = kill_and_recover(
                ctx,
                &arrivals,
                kill,
                &reference,
                &reference_state,
                &spec,
                seed,
                &format!("{name}_{trace}_{kill}"),
            );
            recoveries_resumed += usize::from(resumed);
        }
    }
    ChaosCase {
        name: name.to_string(),
        spec,
        traces: streams.len().min(KILL_TRACES),
        arrivals: arrivals_total,
        delivered: stats_total.delivered,
        duplicates_dropped: stats_total.duplicates_dropped,
        late_dropped: stats_total.late_dropped,
        gaps_skipped: stats_total.gaps_skipped,
        kill_points,
        recoveries_resumed,
        digest: format!("{digest:016x}"),
        recovered_bit_identical: bit_identical,
    }
}

/// Runs the full chaos suite at the paper's 6-AP setting.
pub fn run(world: &EvalWorld, seed: u64) -> Chaos {
    let n_aps = 6;
    let setting = world.setting(n_aps);
    let config = MoLocConfig::paper();
    let index = FingerprintIndex::build(&setting.fdb);
    let kernel = build_kernel(&setting.motion_db, &config);
    let ctx = Ctx {
        index: &index,
        kernel: &kernel,
        config,
        session: SessionConfig {
            reorder_capacity: 8,
            checkpoint_interval: 2,
            fsync: false,
        },
    };

    let streams: Vec<Vec<ScanEvent>> = (0..world.corpus.test.len())
        .map(|t| event_stream(world, &setting, &index, t))
        .collect();

    let zero_fault_matches_batch = zero_fault_equivalence(&ctx, &streams, seed);

    let cases = vec![
        run_case(
            &ctx,
            &streams,
            "reorder",
            FaultPlanSpec {
                scan_reorder: Some(ScanReorder {
                    rate: 0.35,
                    window: 4,
                    seed,
                }),
                ..FaultPlanSpec::default()
            },
            seed,
        ),
        run_case(
            &ctx,
            &streams,
            "reorder_dup_loss",
            FaultPlanSpec {
                scan_reorder: Some(ScanReorder {
                    rate: 0.35,
                    window: 4,
                    seed,
                }),
                scan_duplicate: Some(ScanDuplicate {
                    rate: 0.2,
                    seed: seed ^ 0x0044_5550,
                }),
                scan_loss: Some(ScanLoss {
                    rate: 0.1,
                    seed: seed ^ 0x004C_4F53,
                }),
                ..FaultPlanSpec::default()
            },
            seed,
        ),
        run_case(
            &ctx,
            &streams,
            "burst",
            FaultPlanSpec {
                scan_reorder: Some(ScanReorder {
                    rate: 0.6,
                    window: 8,
                    seed: seed ^ 0x0042_5253,
                }),
                scan_duplicate: Some(ScanDuplicate {
                    rate: 0.3,
                    seed: seed ^ 0x0044_5551,
                }),
                scan_loss: Some(ScanLoss {
                    rate: 0.25,
                    seed: seed ^ 0x004C_4F54,
                }),
                ..FaultPlanSpec::default()
            },
            seed,
        ),
    ];

    let (corruption_detected, corruption_recovered_bit_identical) =
        corruption_is_loud(&ctx, &streams[0], seed);

    Chaos {
        seed,
        n_aps,
        zero_fault_matches_batch,
        corruption_detected,
        corruption_recovered_bit_identical,
        cases,
    }
}

/// Renders the chaos results as markdown.
pub fn render(c: &Chaos) -> String {
    let mut out = format!(
        "# Chaos: crash-safe streaming under stream faults ({} APs, seed {})\n\n",
        c.n_aps, c.seed
    );
    out.push_str(&format!(
        "- zero-fault stream ≡ batch: {}\n- checkpoint corruption detected: {} \
         (recovery bit-identical: {})\n\n",
        c.zero_fault_matches_batch,
        c.corruption_detected,
        c.corruption_recovered_bit_identical,
    ));
    let rows: Vec<Vec<String>> = c
        .cases
        .iter()
        .map(|case| {
            vec![
                case.name.clone(),
                case.spec.active().join("+"),
                format!("{}", case.arrivals),
                format!("{}", case.delivered),
                format!("{}", case.duplicates_dropped),
                format!("{}", case.late_dropped),
                format!("{}", case.gaps_skipped),
                format!("{}/{}", case.recoveries_resumed, case.kill_points),
                if case.recovered_bit_identical {
                    "yes".to_string()
                } else {
                    "NO".to_string()
                },
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "Case",
            "Faults",
            "Arrivals",
            "Delivered",
            "Dups",
            "Late",
            "Gaps",
            "Resumed",
            "Bit-identical",
        ],
        &rows,
    ));
    out.push('\n');
    out
}
