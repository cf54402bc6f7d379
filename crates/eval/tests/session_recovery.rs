//! Kill-matrix integration tests for the crash-safe streaming session
//! layer (ISSUE 8 acceptance).
//!
//! Three claims, each a hard bit-identity rather than a tolerance:
//!
//! 1. A zero-fault in-order stream through [`StreamingSession`] is
//!    bit-identical (estimates and FNV digest) to driving the
//!    `BatchLocalizer` recursion directly.
//! 2. **In-process kill matrix** — dropping a logged session after
//!    *every* arrival prefix, recovering from its checkpoint log, and
//!    replaying the suffix reproduces the uninterrupted estimates and
//!    final encoded state byte-for-byte. Kill points cover every
//!    checkpoint boundary by construction (`checkpoint_interval = 2`,
//!    kills at 1..len).
//! 3. **Child-process kill matrix** — same property when the killed
//!    session is a real OS process that `std::process::exit(9)`s
//!    mid-stream (the moral equivalent of SIGKILL between syscalls):
//!    the parent recovers from the orphaned log file and converges to
//!    the reference digest. [`child_kill_entry`] is the env-gated
//!    re-entry point; it is a no-op under a normal `cargo test` run.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_eval::pipeline::{EvalWorld, Setting, TraceSplit};
use moloc_fingerprint::index::FingerprintIndex;
use moloc_motion::kernel::MotionKernel;
use moloc_session::{Estimate, ScanEvent, SessionConfig, StreamingSession};

const SEED: u64 = 2013;
const N_APS: usize = 6;

/// Env gates for the child-process re-entry (absent under a normal
/// test run, so `child_kill_entry` passes as a no-op).
const ENV_KILL_AT: &str = "MOLOC_TEST_KILL_AT";
const ENV_KILL_LOG: &str = "MOLOC_TEST_KILL_LOG";

struct Fixture {
    world: EvalWorld,
    setting: Setting,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = EvalWorld::small(SEED);
        let setting = world.setting(N_APS);
        Fixture { world, setting }
    })
}

fn session_config() -> SessionConfig {
    SessionConfig {
        reorder_capacity: 8,
        // Checkpoint every other delivery, so the kill matrix lands
        // both exactly on and between checkpoint boundaries.
        checkpoint_interval: 2,
        fsync: false,
    }
}

/// The in-order event stream of one test trace, exactly as the batch
/// pipeline feeds it (seq = pass index, scan truncated to the
/// setting's AP count, motion from the preceding inter-pass segment).
fn event_stream(trace_index: usize) -> Vec<ScanEvent> {
    let fx = fixture();
    let index = FingerprintIndex::build(&fx.setting.fdb);
    let trace = &fx.world.corpus.test[trace_index];
    let analysis = fx.world.analyze(
        TraceSplit::Test,
        trace_index,
        &fx.setting.fdb,
        &index,
        fx.setting.counting,
        fx.setting.n_aps,
    );
    trace
        .scans
        .iter()
        .enumerate()
        .map(|(i, scan)| ScanEvent {
            event_id: i as u64,
            seq: i as u64,
            scan: scan[..fx.setting.n_aps].to_vec(),
            motion: if i == 0 {
                None
            } else {
                analysis.measurements[i - 1]
            },
        })
        .collect()
}

/// FNV-1a digest over an estimate stream (same byte layout as the
/// chaos experiment's artifact digest).
fn digest(estimates: &[Estimate]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in estimates {
        eat(&e.seq.to_le_bytes());
        eat(&u64::from(e.location.get()).to_le_bytes());
        eat(&[e.flags.bits()]);
    }
    h
}

/// Streams `events` through an uninterrupted logless session, returning
/// (estimates, final encoded state).
fn reference_run(
    index: &FingerprintIndex,
    kernel: &MotionKernel,
    events: &[ScanEvent],
) -> (Vec<Estimate>, Vec<u8>) {
    let mut session =
        StreamingSession::new(index, kernel, MoLocConfig::paper(), session_config());
    let mut out = Vec::new();
    for event in events {
        session
            .ingest(event.clone(), &mut out)
            .expect("reference ingest");
    }
    session.finish(&mut out).expect("reference finish");
    (out, session.state().encode().expect("state encodes"))
}

fn scratch_log(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "moloc_recovery_{}_{tag}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Recovers from `path`, replays the arrival suffix, and asserts the
/// replayed estimates and final state are bit-identical to the
/// reference. Returns whether recovery resumed from a checkpoint.
fn recover_and_verify(
    index: &FingerprintIndex,
    kernel: &MotionKernel,
    events: &[ScanEvent],
    path: &PathBuf,
    reference: &[Estimate],
    reference_state: &[u8],
    label: &str,
) -> bool {
    let recovered = StreamingSession::recover(
        index,
        kernel,
        MoLocConfig::paper(),
        session_config(),
        path,
    )
    .expect("recover opens the log");
    assert!(
        recovered.report.corruption.is_none(),
        "{label}: clean kill must not corrupt the log: {:?}",
        recovered.report.corruption
    );
    let mut session = recovered.session;
    let replay_from = usize::try_from(session.ingested()).unwrap();
    assert!(
        replay_from <= events.len(),
        "{label}: checkpoint claims more arrivals than exist"
    );
    let already = usize::try_from(session.delivered()).unwrap();
    let mut out = Vec::new();
    for event in &events[replay_from..] {
        session.ingest(event.clone(), &mut out).expect("replay ingest");
    }
    session.finish(&mut out).expect("replay finish");
    assert_eq!(
        out[..],
        reference[already..],
        "{label}: replayed estimates diverged from the uninterrupted run"
    );
    assert_eq!(
        session.state().encode().expect("state encodes"),
        reference_state,
        "{label}: recovered final state is not bit-identical"
    );
    recovered.resumed
}

#[test]
fn zero_fault_in_order_streaming_matches_batch_digest() {
    let fx = fixture();
    let index = FingerprintIndex::build(&fx.setting.fdb);
    let config = MoLocConfig::paper();
    let kernel = build_kernel(&fx.setting.motion_db, &config);
    for trace_index in 0..fx.world.corpus.test.len() {
        let events = event_stream(trace_index);
        let mut engine = BatchLocalizer::new_with_index(&index, &kernel, config);
        let batch: Vec<Estimate> = events
            .iter()
            .map(|e| {
                let location = engine
                    .observe_slice(&e.scan, e.motion)
                    .expect("clean query matches the database");
                Estimate {
                    seq: e.seq,
                    location,
                    flags: engine.last_flags(),
                }
            })
            .collect();
        let (streamed, _) = reference_run(&index, &kernel, &events);
        assert_eq!(
            streamed, batch,
            "trace {trace_index}: streaming diverged from the batch recursion"
        );
        assert_eq!(
            digest(&streamed),
            digest(&batch),
            "trace {trace_index}: digest mismatch"
        );
    }
}

#[test]
fn in_process_kill_matrix_recovers_bit_identically() {
    let fx = fixture();
    let index = FingerprintIndex::build(&fx.setting.fdb);
    let config = MoLocConfig::paper();
    let kernel = build_kernel(&fx.setting.motion_db, &config);
    let events = event_stream(0);
    let (reference, reference_state) = reference_run(&index, &kernel, &events);

    let mut resumed_count = 0usize;
    for kill in 1..events.len() {
        let path = scratch_log(&format!("inproc_{kill}"));
        {
            // The doomed session: ingest the prefix, then drop without
            // `finish` — everything past the last checkpoint append is
            // lost, exactly like a SIGKILL between syscalls.
            let mut doomed = StreamingSession::with_log(
                &index,
                &kernel,
                config,
                session_config(),
                &path,
            )
            .expect("open log");
            let mut sink = Vec::new();
            for event in &events[..kill] {
                doomed.ingest(event.clone(), &mut sink).expect("doomed ingest");
            }
        }
        let resumed = recover_and_verify(
            &index,
            &kernel,
            &events,
            &path,
            &reference,
            &reference_state,
            &format!("in-process kill at {kill}"),
        );
        resumed_count += usize::from(resumed);
        let _ = std::fs::remove_file(&path);
    }
    // Early kills may predate the first checkpoint (fresh replay is
    // correct there), but the matrix as a whole must exercise genuine
    // checkpoint resumption.
    assert!(
        resumed_count >= events.len() / 2,
        "only {resumed_count}/{} kills resumed from a checkpoint",
        events.len() - 1
    );
}

/// Child-process re-entry point: under `MOLOC_TEST_KILL_AT`, streams
/// that many arrivals of trace 0 into `MOLOC_TEST_KILL_LOG` and dies
/// with `exit(9)` — no destructors, no `finish`. Without the env gate
/// (a normal test run) it is a no-op.
#[test]
fn child_kill_entry() {
    let Ok(kill) = std::env::var(ENV_KILL_AT) else {
        return;
    };
    let kill: usize = kill.parse().expect("numeric kill point");
    let path = std::env::var(ENV_KILL_LOG).expect("log path env");
    let fx = fixture();
    let index = FingerprintIndex::build(&fx.setting.fdb);
    let config = MoLocConfig::paper();
    let kernel = build_kernel(&fx.setting.motion_db, &config);
    let events = event_stream(0);
    let mut session = StreamingSession::with_log(
        &index,
        &kernel,
        config,
        session_config(),
        &path,
    )
    .expect("child opens log");
    let mut sink = Vec::new();
    for event in &events[..kill.min(events.len())] {
        session.ingest(event.clone(), &mut sink).expect("child ingest");
    }
    std::process::exit(9);
}

#[test]
fn child_process_kill_matrix_recovers_bit_identically() {
    let fx = fixture();
    let index = FingerprintIndex::build(&fx.setting.fdb);
    let config = MoLocConfig::paper();
    let kernel = build_kernel(&fx.setting.motion_db, &config);
    let events = event_stream(0);
    let (reference, reference_state) = reference_run(&index, &kernel, &events);

    let exe = std::env::current_exe().expect("test binary path");
    let kills = [3usize, events.len() / 2, events.len() - 1];
    for kill in kills {
        let path = scratch_log(&format!("child_{kill}"));
        let status = Command::new(&exe)
            .args(["child_kill_entry", "--exact", "--nocapture"])
            .env(ENV_KILL_AT, kill.to_string())
            .env(ENV_KILL_LOG, &path)
            .status()
            .expect("spawn child kill process");
        assert_eq!(
            status.code(),
            Some(9),
            "child at kill {kill} must die with exit(9), got {status:?}"
        );
        recover_and_verify(
            &index,
            &kernel,
            &events,
            &path,
            &reference,
            &reference_state,
            &format!("child-process kill at {kill}"),
        );
        let _ = std::fs::remove_file(&path);
    }
}
