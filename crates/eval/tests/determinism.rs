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

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_eval::parallel::{par_run, set_worker_override, thread_count};
use moloc_eval::pipeline::{
    analyze_trace, analyze_trace_indexed, localize_moloc, localize_wifi, EvalWorld, PassOutcome,
    Setting, TraceAnalysis, TraceSplit,
};
use moloc_fingerprint::index::FingerprintIndex;
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

/// `outcome_digest` of the paper-default pipeline on
/// `EvalWorld::small(2013)`.
const OUTCOME_DIGEST: &str = "6b1f089101f59d54";

#[test]
fn outcome_digest_is_pinned() {
    assert_eq!(outcome_digest(), OUTCOME_DIGEST);
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

/// FNV-1a over every value the world build draws: each survey
/// location's id and its fingerprint, motion and test scans, then each
/// trace (train, then test) with its user id, accelerometer, compass
/// and gyro series, pass events and scans, all in order.
fn world_digest(world: &EvalWorld) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for loc in world.survey.locations() {
        eat(loc.location.get().into());
        for scan in loc.fingerprint.iter().chain(&loc.motion).chain(&loc.test) {
            eat(scan.len() as u64);
            scan.iter().for_each(|d| eat(d.value().to_bits()));
        }
    }
    eat(world.corpus.train.len() as u64);
    eat(world.corpus.test.len() as u64);
    for trace in world.corpus.iter() {
        eat(trace.user.id.into());
        for series in [&trace.accel, &trace.compass, &trace.gyro] {
            eat(series.t0().to_bits());
            eat(series.sample_rate_hz().to_bits());
            eat(series.len() as u64);
            series.values().iter().for_each(|v| eat(v.to_bits()));
        }
        eat(trace.passes.len() as u64);
        for pass in &trace.passes {
            eat(pass.time.to_bits());
            eat(pass.location.get().into());
            eat(pass.position.x.to_bits());
            eat(pass.position.y.to_bits());
        }
        for scan in &trace.scans {
            eat(scan.len() as u64);
            scan.iter().for_each(|v| eat(v.to_bits()));
        }
    }
    format!("{h:016x}")
}

#[test]
fn world_builds_are_pinned_at_every_pool_width() {
    // Every survey value and every trace of two worlds, pinned. The
    // traces render on the pool, so the digests must not move with its
    // width: a trace that reads another trace's RNG, or a corpus put
    // together out of index order, moves them.
    const SMALL_2013: &str = "40ec6749573ace59";
    const PAPER_1: &str = "f9aa0faaaa1678c0";
    for width in [None, Some(1), Some(2), Some(4)] {
        set_worker_override(width);
        let small = world_digest(&EvalWorld::small(2013));
        let paper = world_digest(&EvalWorld::paper(1));
        set_worker_override(None);
        assert_eq!(small, SMALL_2013, "EvalWorld::small(2013), width {width:?}");
        assert_eq!(paper, PAPER_1, "EvalWorld::paper(1), width {width:?}");
    }
}

/// FNV-1a over every fitted bit of a setting's motion database: the
/// location count, then each canonical pair's ids, its four Gaussian
/// parameters and its sample count, in key order, then every counter of
/// the build report.
fn motion_digest(setting: &Setting) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    let db = &setting.motion_db;
    eat(db.location_count() as u64);
    eat(db.pair_count() as u64);
    for (i, j, s) in db.iter() {
        eat(i.get().into());
        eat(j.get().into());
        eat(s.direction.mean().to_bits());
        eat(s.direction.std().to_bits());
        eat(s.offset.mean().to_bits());
        eat(s.offset.std().to_bits());
        eat(s.sample_count);
    }
    let r = setting.build_report;
    for count in [
        r.observed,
        r.rejected_coarse,
        r.rejected_unmapped,
        r.rejected_fine,
        r.underpopulated_pairs,
        r.pairs_built,
    ] {
        eat(count);
    }
    format!("{h:016x}")
}

#[test]
fn fitted_motion_databases_are_pinned() {
    // The motion builder's fine filter and Gaussian fit, pinned by
    // every fitted bit of two worlds' paper settings. The outcome
    // digest sees only estimates, and the live and audit checks compare
    // one build of the current code with another, so only this test
    // catches a refit whose arithmetic moved.
    const SMALL_2013: &str = "d8149b3ea9435550";
    const PAPER_1: &str = "f922aed8f114fae9";
    let small = motion_digest(&EvalWorld::small(2013).setting(6));
    let paper = motion_digest(&EvalWorld::paper(1).setting(6));
    assert_eq!(small, SMALL_2013, "EvalWorld::small(2013), setting(6)");
    assert_eq!(paper, PAPER_1, "EvalWorld::paper(1), setting(6)");
}

/// Every value of an analysis, floats as bits.
fn analysis_bits(a: &TraceAnalysis) -> Vec<u64> {
    let mut out = vec![
        a.heading_offset_deg.to_bits(),
        a.calibration_reliable.into(),
    ];
    out.extend(a.nn_estimates.iter().map(|l| u64::from(l.get())));
    for m in &a.intervals {
        out.extend([m.from_index as u64, m.to_index as u64]);
        out.push(m.raw_direction_deg.map_or(u64::MAX, f64::to_bits));
        out.extend([m.steps_csc, m.steps_dsc, m.duration_s].map(f64::to_bits));
    }
    for m in &a.measurements {
        match m {
            Some(m) => out.extend([m.direction_deg.to_bits(), m.offset_m.to_bits()]),
            None => out.push(u64::MAX),
        }
    }
    out
}

#[test]
fn stored_intervals_equal_a_fresh_measurement_at_every_width() {
    // The build measures every trace's intervals in the pool job that
    // renders it, and `EvalWorld::analyze` reads them back. Each trace
    // of both splits must analyze exactly as a fresh measurement of it
    // does, whatever the width of the pool that built the world: a
    // store shifted by one trace, or split off at the wrong trace,
    // pairs a trace with another trace's intervals.
    let detector = StepDetector::default();
    for width in [None, Some(1), Some(2), Some(4)] {
        set_worker_override(width);
        let worlds = [EvalWorld::small(2013), EvalWorld::paper(1)];
        set_worker_override(None);
        for world in &worlds {
            let setting = world.setting(6);
            let index = FingerprintIndex::build(&setting.fdb);
            let splits = [
                (TraceSplit::Train, &world.corpus.train),
                (TraceSplit::Test, &world.corpus.test),
            ];
            for (split, traces) in splits {
                for (i, trace) in traces.iter().enumerate() {
                    let (fdb, counting, n_aps) = (&setting.fdb, setting.counting, setting.n_aps);
                    let stored = world.analyze(split, i, fdb, &index, counting, n_aps);
                    let fresh = analyze_trace_indexed(
                        trace,
                        fdb,
                        &index,
                        &world.hall,
                        &detector,
                        counting,
                        n_aps,
                    );
                    assert_eq!(
                        analysis_bits(&stored),
                        analysis_bits(&fresh),
                        "{split:?} trace {i}, width {width:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_ranked_nearest_neighbours_analyze_like_the_nn_localizer() {
    // A localization round ranks each scan once: the engine's blocked
    // k-NN gives the Eq. 3 candidates, and the first of each scan's
    // neighbours stands in for `NnLocalizer`'s Eq. 2 pick. The analysis
    // from those picks must equal `EvalWorld::analyze` bit for bit on
    // every test trace (both splits, to cover more passes).
    let config = MoLocConfig::paper();
    for world in [EvalWorld::small(2013), EvalWorld::paper(1)] {
        let setting = world.setting(6);
        let index = FingerprintIndex::build(&setting.fdb);
        let kernel = build_kernel(&setting.motion_db, &config);
        let mut engine = BatchLocalizer::new_with_index(&index, &kernel, config);
        let splits = [
            (TraceSplit::Train, &world.corpus.train),
            (TraceSplit::Test, &world.corpus.test),
        ];
        for (split, traces) in splits {
            for (i, trace) in traces.iter().enumerate() {
                let scans: Vec<&[f64]> = trace.scans.iter().map(|s| &s[..6]).collect();
                assert_eq!(engine.rank_scans(&scans), scans.len());
                let (fdb, counting) = (&setting.fdb, setting.counting);
                let ranked =
                    world.analyze_ranked(split, i, engine.ranked_nearest().collect(), counting);
                let reference = world.analyze(split, i, fdb, &index, counting, 6);
                assert_eq!(
                    analysis_bits(&ranked),
                    analysis_bits(&reference),
                    "{split:?} trace {i}"
                );
            }
        }
    }
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
