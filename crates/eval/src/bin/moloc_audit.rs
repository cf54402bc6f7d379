//! `moloc-audit` — the differential verification gate (DESIGN.md §18).
//!
//! Drives every optimised path in the workspace against its naive
//! `moloc-verify` oracle on seeded inputs drawn from the evaluation
//! world, with the runtime invariant layer recording throughout:
//!
//! * `knn.scalar` / `knn.masked` / `knn.blocked` — every k-NN
//!   strategy vs the exhaustive sorted scan (ids exact,
//!   dissimilarities to 1e-9; the contracts document bit-identity,
//!   the slack merely decouples the gate from libm). The strategies
//!   are reached through input shape alone: `knn.scalar` and
//!   `knn.blocked` run over the paper's 28-row index, a copy of it
//!   with every third row planted equal to the one before (ties on
//!   every query), a synthetic one of exactly `SMALL_INDEX_ROWS` rows
//!   (blocks loop over the per-query scan) and one above it (blocks
//!   take the f32 mirror). `knn.scalar` also checks the Eq. 2 pick
//!   (`NnLocalizer::localize_slice`, clean and masked) against the
//!   oracle's nearest neighbour on every index, and on the planted
//!   rows themselves. `knn.blocked` mixes clean and masked lanes at
//!   the paper's k and adds, above the crossover, a k = 17 block and a
//!   block holding a 1e16 value (both the per-query fallback).
//! * `kernel.pair` / `kernel.stay` — the tabulated-CDF motion kernel
//!   vs the exact `erf` evaluation (documented accuracy 1e-6; gate at
//!   2e-6). `kernel.pair` probes every ordered pair of the hall and
//!   ids past the grid (untrained pairs must return the floor prior
//!   exactly), plus every pair into and out of a synthetic origin
//!   trained to 70 targets, so long runs are searched too. It also
//!   fills transition blocks (`MotionKernel::transition_block`) over
//!   the hall's ids and that long run, at measurements that wrap past
//!   ±180°, leave (−360°, 360°) or saturate the CDF table: every entry
//!   must be `pair_probability`'s bits and every trained one within
//!   the gate of the exact value.
//! * `motion.sanitation` — `MotionDbBuilder` vs the naive
//!   `oracle::sanitize` pass on seeded random and hostile RLM streams
//!   over the paper hall (build reports and pair sets exact, Gaussians
//!   to 1e-9; see `moloc_eval::audit`).
//! * `eq4.engine` / `eq7.engine` / `eq7.trace` — the production
//!   `BatchLocalizer` step vs the oracle chain (exhaustive k-NN →
//!   Eq. 4 → Eq. 7 fed the kernel's Eq. 5 values): first observations
//!   and restored-posterior fusions through `observe_slice` (clean,
//!   masked, blind and exact-match queries), whole traces through the
//!   blocked `localize_scans_into`. Posteriors must be bit-identical
//!   and estimates equal.
//! * `eq7.exact` — the same fusions vs the oracle with the exact-erf
//!   Eq. 5. The kernel's per-pair 1e-6 can be amplified by
//!   normalization when the total mass is tiny, so it gates at 1e-3 —
//!   divergence here means a wrong *decision*, not a wrong ulp.
//! * `parallel.width` — the work-stealing evaluation runtime at worker
//!   widths 1 vs 4 (bit-identical estimates required).
//! * `live.rebuild` — incremental epoch publication vs a from-scratch
//!   rebuild of the same contribution history over 16 epochs (content
//!   digests must collide). Each epoch's RLM revisits one of two pairs
//!   an earlier publish fitted, and a late one is a fine outlier, so
//!   the builder refits pairs it fitted before and writes them into
//!   its retired buffers. A third pair, whose key sorts below one of
//!   the two, is built late: that publish moves the positions the
//!   builder remembers for the pair it wrote in place, and later
//!   publishes write that pair in place again. Each epoch's published
//!   index rows are also compared bit
//!   for bit with `FingerprintIndex::build(&FingerprintDb::from_samples(..))`
//!   over the merged survey history, an oracle outside `UpdateLog`, and
//!   its published kernel under the paper config with `build_kernel`
//!   over the rebuilt database: `pair_probability` bits for every
//!   ordered hall pair at a grid of measurements (case
//!   `epoch N kernel`). The suite holds epoch 6's snapshot to the end,
//!   so the log must copy the buffers it would otherwise recycle, and
//!   re-checks its digest after the last epoch (case `epoch 6 held`).
//!   Its coverage case counts the publishes that wrote retired buffers
//!   in place and those that copied, and needs both, and needs a motion
//!   publish in place that writes a pair the late pair moved.
//! * `session.recover` — kill/recover at several stream prefixes vs
//!   the uninterrupted run (estimates and final encoded state
//!   byte-identical).
//! * `frame.roundtrip` — the checkpoint wire format vs an independent
//!   reimplementation (byte-identical frames, symmetric rejection).
//!
//! Divergences and invariant violations are reported as structured
//! JSON; the process exits nonzero unless the report is clean.
//! `--self-test` plants divergences in six suites — a perturbed
//! oracle query in `knn.scalar` and in `eq7.engine`, a mirror lane of
//! `knn.blocked` expected without its k-th neighbour's row (a dropped
//! prefilter survivor), an untrained `kernel.pair` expectation and a
//! trained transition-block entry each moved to the neighbouring run's
//! value, a `motion.sanitation` coarse offset compared with `<`
//! instead of `<=`, and three in `live.rebuild`: an epoch compared with
//! a history that lacks its RLM (what a build that skipped a touched
//! pair would serve), an epoch whose survey oracle lacks one delta
//! sample, and an epoch whose kernel oracle serves the previous
//! epoch's statistics for the pair it revisits (what a table patch
//! that missed the pair would serve) — and is expected to exit nonzero
//! with a divergence in
//! all six, from both `kernel.pair` plants and from all three
//! `live.rebuild` checks. CI checks the report to prove each gate can
//! fail.

use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::error::DegradationFlags;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_eval::audit::sanitation_suite;
use moloc_eval::parallel::{par_run, set_worker_override};
use moloc_eval::pipeline::{EvalWorld, Setting, TraceSplit};
use moloc_faults::rng::{hash, unit};
use moloc_fingerprint::block::{BlockNeighbors, BlockScratch, QueryBlock};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch, SMALL_INDEX_ROWS};
use moloc_fingerprint::knn::Neighbor;
use moloc_fingerprint::nn_localizer::NnLocalizer;
use moloc_geometry::LocationId;
use moloc_live::{DbSnapshot, SnapshotPublisher, UpdateLog};
use moloc_motion::filter::SanitationConfig;
use moloc_motion::matrix::{MotionDb, PairStats};
use moloc_motion::rlm::Rlm;
use moloc_session::{ScanEvent, SessionConfig, StreamingSession};
use moloc_stats::gaussian::Gaussian;
use moloc_verify::oracle;
use moloc_verify::{AuditReport, Divergence};
use std::collections::BTreeMap;
use std::sync::Arc;

const USAGE: &str = "usage: moloc-audit [--seed N] [--out FILE] [--self-test]";
const N_APS: usize = 6;
/// Queries drawn from the test corpus per k-NN suite.
const N_QUERIES: usize = 48;

fn main() {
    let mut seed: u64 = 2013;
    let mut out_path: Option<String> = None;
    let mut self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => seed = v,
                _ => usage_exit("--seed needs an integer"),
            },
            "--out" => match args.next() {
                Some(path) => out_path = Some(path),
                None => usage_exit("--out needs a path"),
            },
            "--self-test" => self_test = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_exit(&format!("unknown argument {other}")),
        }
    }
    if let Err(e) = moloc_eval::parallel::validate_env().and(moloc_session::validate_env()) {
        eprintln!("moloc-audit: {e}");
        std::process::exit(2);
    }

    // Record, don't panic: every divergence and violation lands in one
    // report instead of aborting the sweep at the first failure.
    moloc_verify::enable_recording();
    let _ = moloc_verify::take_violations();

    let mut report = AuditReport::new(seed);
    eprintln!("moloc-audit: building evaluation world (seed {seed})");
    let world = EvalWorld::small(seed);
    let setting = world.setting(N_APS);
    let config = MoLocConfig::paper();
    let queries = corpus_queries(&world, seed);

    knn_suites(&setting, &queries, seed, self_test, &mut report);
    kernel_suites(&setting.motion_db, &config, seed, self_test, &mut report);
    eprintln!("moloc-audit: motion sanitation suite");
    let (cases, divs) = sanitation_suite(&world.hall, seed, self_test);
    report.finish_suite("motion.sanitation", cases, divs);
    eq_suites(
        &world,
        &setting,
        &queries,
        &config,
        seed,
        self_test,
        &mut report,
    );
    parallel_suite(&world, &setting, &mut report);
    live_suite(&world, &setting, seed, self_test, &mut report);
    session_suite(&world, &setting, &mut report);
    frame_suite(seed, &mut report);

    report.invariant_violations = moloc_verify::take_violations();
    moloc_verify::set_enabled(false);

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    match &out_path {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("moloc-audit: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("moloc-audit: report written to {path}");
        }
        None => println!("{json}"),
    }
    let verdict = if report.clean() { "CLEAN" } else { "DIVERGED" };
    eprintln!(
        "moloc-audit: {verdict} — {} cases across {} suites, {} divergences, {} violations",
        report.total_cases(),
        report.suites.len(),
        report.divergences.len(),
        report.invariant_violations.len()
    );
    std::process::exit(i32::from(!report.clean()));
}

fn usage_exit(message: &str) -> ! {
    eprintln!("moloc-audit: {message}\n{USAGE}");
    std::process::exit(2);
}

// ---------------------------------------------------------------------
// Shared input material.
// ---------------------------------------------------------------------

/// Clean queries drawn round-robin from the test corpus scans, plus a
/// few seeded synthetic ones so coverage does not depend on corpus
/// size.
fn corpus_queries(world: &EvalWorld, seed: u64) -> Vec<Vec<f64>> {
    let mut queries = Vec::with_capacity(N_QUERIES);
    'outer: for trace in &world.corpus.test {
        for scan in &trace.scans {
            queries.push(scan[..N_APS].to_vec());
            if queries.len() == N_QUERIES - 4 {
                break 'outer;
            }
        }
    }
    for i in 0..4u64 {
        queries.push(
            (0..N_APS)
                .map(|d| -30.0 - 60.0 * unit(hash(seed, 0xA0, i, d as u64)))
                .collect(),
        );
    }
    queries
}

/// Deterministically masks ~30% of a query's APs with NaN.
fn masked_query(query: &[f64], seed: u64, case: u64) -> Vec<f64> {
    query
        .iter()
        .enumerate()
        .map(|(d, &v)| {
            if unit(hash(seed, 0xB0, case, d as u64)) < 0.3 {
                f64::NAN
            } else {
                v
            }
        })
        .collect()
}

fn pairs_of(neighbors: &[Neighbor]) -> Vec<(LocationId, f64)> {
    neighbors
        .iter()
        .map(|n| (n.location, n.dissimilarity))
        .collect()
}

fn fmt_pairs(pairs: &[(LocationId, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(id, v)| format!("({}, {v:e})", id.get()))
        .collect();
    format!("[{}]", body.join(", "))
}

/// Compares an optimised neighbor list against the oracle's: location
/// ids must match exactly (the tie contract is part of the result),
/// dissimilarities to `tol`.
fn compare_pairs(
    suite: &str,
    case: String,
    expected: &[(LocationId, f64)],
    actual: &[(LocationId, f64)],
    tol: f64,
    divergences: &mut Vec<Divergence>,
) {
    let matches = expected.len() == actual.len()
        && expected
            .iter()
            .zip(actual)
            .all(|(&(ei, ev), &(ai, av))| ei == ai && (ev - av).abs() <= tol);
    if !matches {
        divergences.push(Divergence {
            suite: suite.to_string(),
            case,
            expected: fmt_pairs(expected),
            actual: fmt_pairs(actual),
        });
    }
}

// ---------------------------------------------------------------------
// k-NN suites: every execution strategy vs the exhaustive oracle.
// ---------------------------------------------------------------------

/// A synthetic 6-AP survey of `rows` locations (ids 1..=rows), values
/// drawn like the synthetic corpus queries.
fn synthetic_rows(seed: u64, salt: u64, rows: usize) -> Vec<(LocationId, Vec<f64>)> {
    (0..rows)
        .map(|r| {
            let values = (0..N_APS)
                .map(|d| -30.0 - 60.0 * unit(hash(seed, salt, r as u64, d as u64)))
                .collect();
            (LocationId::new(r as u32 + 1), values)
        })
        .collect()
}

fn index_of(rows: &[(LocationId, Vec<f64>)]) -> FingerprintIndex {
    let ids = rows.iter().map(|(id, _)| *id).collect();
    let matrix = rows.iter().flat_map(|(_, r)| r.iter().copied()).collect();
    FingerprintIndex::from_rows(ids, matrix, N_APS).expect("synthetic rows are a valid index")
}

/// The k-NN suites run every route of the index's shape dispatch over
/// four indices: the setting's (the paper's 28 rows, where blocks loop
/// over the per-query scan), a synthetic one of exactly
/// `SMALL_INDEX_ROWS` rows (the last size that loops), a synthetic
/// one above it (blocks take the f32 mirror, with its k = 17 and 1e16
/// per-query fallbacks), and the setting's with planted twin rows.
fn knn_suites(
    setting: &Setting,
    queries: &[Vec<f64>],
    seed: u64,
    self_test: bool,
    report: &mut AuditReport,
) {
    eprintln!("moloc-audit: k-NN suites ({} queries)", queries.len());
    let paper: Vec<(LocationId, Vec<f64>)> = setting
        .fdb
        .iter()
        .map(|(id, fp)| (id, fp.values().to_vec()))
        .collect();
    let crossover = synthetic_rows(seed, 0xA1, SMALL_INDEX_ROWS);
    let above = synthetic_rows(seed, 0xA2, SMALL_INDEX_ROWS + 37);
    // The paper's rows with every third row planted equal to the one
    // before it: each query ties on every twin pair, and the lower id
    // must come first.
    let mut twins = paper.clone();
    for at in (1..twins.len()).step_by(3) {
        twins[at].1 = twins[at - 1].1.clone();
    }
    let surveys = [
        ("paper", &paper),
        ("crossover", &crossover),
        ("above", &above),
        ("twins", &twins),
    ];
    let indices: Vec<FingerprintIndex> = surveys.iter().map(|(_, rows)| index_of(rows)).collect();
    let k = MoLocConfig::paper().k;
    let mut scratch = KnnScratch::new();
    let mut out: Vec<Neighbor> = Vec::new();

    // Scalar path. In self-test mode the first case feeds the oracle a
    // perturbed query — a planted divergence the gate must catch.
    let mut divs = Vec::new();
    let mut cases = 0u64;
    for ((name, rows), index) in surveys.iter().zip(&indices) {
        for (qi, query) in queries.iter().enumerate() {
            index.k_nearest_into(query, k, &mut scratch, &mut out);
            let oracle_query: Vec<f64> = if self_test && cases == 0 {
                let mut q = query.clone();
                q[0] += 1.0;
                q
            } else {
                query.clone()
            };
            let expected = oracle::k_nearest(
                rows.iter().map(|(id, r)| (*id, r.as_slice())),
                &oracle_query,
                k,
            );
            compare_pairs(
                "knn.scalar",
                format!("{name} query {qi}"),
                &expected,
                &pairs_of(&out),
                1e-9,
                &mut divs,
            );
            cases += 1;
        }
    }
    // Eq. 2: `NnLocalizer`'s pick, clean and masked, must be the
    // oracle's nearest neighbour. The twin survey also asks for every
    // planted row itself, a distance-0 tie.
    for ((name, rows), index) in surveys.iter().zip(&indices) {
        let db = FingerprintDb::from_fingerprints(
            rows.iter()
                .map(|(id, r)| (*id, Fingerprint::new(r.clone())))
                .collect(),
        )
        .expect("synthetic rows are a valid database");
        let localizer = NnLocalizer::with_index(&db, index);
        let planted = (*name == "twins").then_some(rows.iter().skip(1).step_by(3));
        let eq2_queries = queries
            .iter()
            .chain(planted.into_iter().flatten().map(|(_, r)| r));
        for (qi, query) in eq2_queries.enumerate() {
            let masked = masked_query(query, seed, qi as u64);
            let rows = || rows.iter().map(|(id, r)| (*id, r.as_slice()));
            for (kind, q, expected) in [
                ("", query, oracle::k_nearest(rows(), query, 1)),
                (
                    "masked ",
                    &masked,
                    oracle::k_nearest_masked(rows(), &masked, 1).0,
                ),
            ] {
                let pick = localizer.localize_slice(q).expect("query length matches");
                if pick != expected[0].0 {
                    divs.push(Divergence {
                        suite: "knn.scalar".to_string(),
                        case: format!("{name} Eq. 2 {kind}query {qi}"),
                        expected: expected[0].0.to_string(),
                        actual: pick.to_string(),
                    });
                }
                cases += 1;
            }
        }
    }
    report.finish_suite("knn.scalar", cases, divs);

    // Masked path, including the nothing-observed degenerate case.
    let (index, rows) = (&indices[0], &paper);
    let mut divs = Vec::new();
    let mut cases = 0u64;
    for (qi, query) in queries.iter().enumerate() {
        let masked = masked_query(query, seed, qi as u64);
        let observed = index.k_nearest_masked_into(&masked, k, &mut scratch, &mut out);
        let (expected, expected_observed) =
            oracle::k_nearest_masked(rows.iter().map(|(id, r)| (*id, r.as_slice())), &masked, k);
        if observed != expected_observed {
            divs.push(Divergence {
                suite: "knn.masked".to_string(),
                case: format!("query {qi} observed count"),
                expected: expected_observed.to_string(),
                actual: observed.to_string(),
            });
        }
        compare_pairs(
            "knn.masked",
            format!("query {qi}"),
            &expected,
            &pairs_of(&out),
            1e-9,
            &mut divs,
        );
        cases += 1;
    }
    let blind = vec![f64::NAN; N_APS];
    let observed = index.k_nearest_masked_into(&blind, k, &mut scratch, &mut out);
    let (expected, _) =
        oracle::k_nearest_masked(rows.iter().map(|(id, r)| (*id, r.as_slice())), &blind, k);
    if observed != 0 {
        divs.push(Divergence {
            suite: "knn.masked".to_string(),
            case: "all-NaN query observed count".to_string(),
            expected: "0".to_string(),
            actual: observed.to_string(),
        });
    }
    compare_pairs(
        "knn.masked",
        "all-NaN query".to_string(),
        &expected,
        &pairs_of(&out),
        0.0,
        &mut divs,
    );
    cases += 1;
    report.finish_suite("knn.masked", cases, divs);

    // Blocked path, every branch of its shape dispatch: blocks of
    // eight mixing clean and masked lanes at the paper's k, over each
    // index (the per-query loop at or below the crossover, the f32
    // mirror above it), and over the index above it a k = 17 block
    // (one past the mirror's 16 bound lanes) and a block holding a
    // 1e16 value (beyond f32-safe), both the per-query fallback. Each
    // lane must match the per-query oracle result. In self-test mode
    // the first mirror lane expects the oracle's answer without its
    // k-th neighbour's row — what a prefilter that dropped that
    // survivor would return.
    let mut blocks: Vec<(String, usize, usize, Vec<Vec<f64>>)> = Vec::new();
    for (at, (name, _)) in surveys.iter().enumerate() {
        for (bi, chunk) in queries.chunks(8).enumerate() {
            let lanes = chunk
                .iter()
                .enumerate()
                .map(|(li, query)| {
                    if li % 3 == 2 {
                        masked_query(query, seed, (bi * 8 + li) as u64)
                    } else {
                        query.clone()
                    }
                })
                .collect();
            blocks.push((format!("{name} block {bi}"), at, k, lanes));
        }
    }
    let first = blocks[0].3.clone();
    blocks.push(("above k = 17 block".to_string(), 2, 17, first.clone()));
    let mut huge = first;
    huge[0][0] = 1e16;
    blocks.push(("above 1e16 block".to_string(), 2, k, huge));
    let mut divs = Vec::new();
    let mut cases = 0u64;
    let mut plant = self_test;
    let mut block = QueryBlock::new(N_APS);
    let mut block_scratch = BlockScratch::new();
    let mut block_out = BlockNeighbors::new();
    for (name, at, block_k, lanes) in &blocks {
        let (index, rows) = (&indices[*at], surveys[*at].1);
        block.reset(N_APS);
        for lane in lanes {
            block.push(lane);
        }
        index.k_nearest_block_into(&mut block, *block_k, &mut block_scratch, &mut block_out);
        for (li, lane) in lanes.iter().enumerate() {
            let clean = lane.iter().all(|v| v.is_finite());
            let expected = |skip: Option<LocationId>| {
                let rows = rows
                    .iter()
                    .filter(|(id, _)| Some(*id) != skip)
                    .map(|(id, r)| (*id, r.as_slice()));
                if clean {
                    oracle::k_nearest(rows, lane, *block_k)
                } else {
                    oracle::k_nearest_masked(rows, lane, *block_k).0
                }
            };
            let mut want = expected(None);
            if plant && *at == 2 && clean && *block_k == k {
                want = expected(want.last().map(|&(id, _)| id));
                plant = false;
            }
            compare_pairs(
                "knn.blocked",
                format!("{name} lane {li}"),
                &want,
                &pairs_of(block_out.query(li)),
                1e-9,
                &mut divs,
            );
            cases += 1;
        }
    }
    report.finish_suite("knn.blocked", cases, divs);
}

// ---------------------------------------------------------------------
// Motion-kernel suites: lookup tables vs the exact erf-based CDF.
// ---------------------------------------------------------------------

fn kernel_suites(
    db: &MotionDb,
    config: &MoLocConfig,
    seed: u64,
    self_test: bool,
    report: &mut AuditReport,
) {
    eprintln!(
        "moloc-audit: motion-kernel suites ({} trained pairs)",
        db.pair_count()
    );
    // Every ordered pair of the hall, then ids past the grid (n + 1 and
    // u32::MAX) as either endpoint.
    let n = db.location_count() as u32;
    let hall = (1..=n).flat_map(|a| (1..=n).map(move |b| (a, b)));
    let off_grid = [n + 1, u32::MAX]
        .into_iter()
        .flat_map(|x| (1..=n).flat_map(move |y| [(x, y), (y, x)]));
    let (mut cases, mut divs) = audit_kernel(db, hall.chain(off_grid), config, seed, self_test);
    // A synthetic database whose origin 1 is trained to 70 targets with
    // gaps between them, so long runs are searched: every pair leaving
    // or entering origin 1.
    let (wide, wide_n) = long_run_db(seed);
    let probes = (2..=wide_n + 1).flat_map(|x| [(1, x), (x, 1)]);
    let (wide_cases, wide_divs) = audit_kernel(&wide, probes, config, seed, false);
    cases += wide_cases;
    divs.extend(wide_divs);
    // Transition blocks: the hall's ids in lists of eight against each
    // other, and origin 1's 70-target run of the synthetic database
    // against its targets in lists of eight.
    let hall_ids: Vec<u32> = (1..=n).collect();
    let mut hall_lists: Vec<Vec<u32>> = hall_ids.chunks(8).map(<[u32]>::to_vec).collect();
    hall_lists.push(vec![1, n + 1, 1, n / 2]);
    let hall_blocks = hall_lists
        .iter()
        .flat_map(|from| hall_lists.iter().map(move |to| (from.clone(), to.clone())));
    let (block_cases, block_divs) = audit_blocks(db, hall_blocks, config, seed, self_test);
    cases += block_cases;
    divs.extend(block_divs);
    let wide_blocks = (2..=wide_n)
        .collect::<Vec<_>>()
        .chunks(8)
        .map(|to| (vec![1, 2, 3, wide_n], to.to_vec()))
        .collect::<Vec<_>>();
    let (block_cases, block_divs) =
        audit_blocks(&wide, wide_blocks.into_iter(), config, seed, false);
    cases += block_cases;
    divs.extend(block_divs);
    report.finish_suite("kernel.pair", cases, divs);

    let kernel = build_kernel(db, config);
    let mut divs = Vec::new();
    let mut cases = 0u64;
    for s in 0..32u64 {
        let offset = 5.0 * unit(hash(seed, 0xC2, s, 0));
        let got = kernel.stay_probability(offset);
        let want = oracle::stationary_probability(
            offset,
            config.alpha_deg,
            config.beta_m,
            config.stationary_offset_std_m,
        );
        if (got - want).abs() > KERNEL_TOL {
            divs.push(Divergence {
                suite: "kernel.stay".to_string(),
                case: format!("o={offset:.3}"),
                expected: format!("{want:.12e}"),
                actual: format!("{got:.12e}"),
            });
        }
        cases += 1;
    }
    report.finish_suite("kernel.stay", cases, divs);
}

/// The tabulated CDF is documented accurate to ~1.3e-7 per
/// evaluation; a window takes two, a pair probability four. 2e-6
/// keeps an order of margin without masking a wrong table.
const KERNEL_TOL: f64 = 2e-6;

/// Audits the kernel of `db` at each `(from, to)` probe (self-pairs
/// skipped): a trained pair against the exact oracle at five seeded
/// measurements (within [`KERNEL_TOL`]), an untrained one against the
/// floor prior exactly. With `plant` set, the first untrained probe
/// whose next origin's run holds the same target expects that
/// neighbouring run's value instead — an off-by-one run lookup — and
/// must diverge.
fn audit_kernel(
    db: &MotionDb,
    probes: impl Iterator<Item = (u32, u32)>,
    config: &MoLocConfig,
    seed: u64,
    mut plant: bool,
) -> (u64, Vec<Divergence>) {
    let kernel = build_kernel(db, config);
    let exact = |stats: &PairStats, direction: f64, offset: f64| {
        oracle::pair_probability(
            stats.direction.mean(),
            stats.direction.std(),
            stats.offset.mean(),
            stats.offset.std(),
            direction,
            offset,
            config.alpha_deg,
            config.beta_m,
        )
    };
    let mut divs = Vec::new();
    let mut cases = 0u64;
    for (from, to) in probes.filter(|(a, b)| a != b) {
        let (from, to) = (LocationId::new(from), LocationId::new(to));
        let Some(stats) = db.get(from, to) else {
            let (mut direction, mut offset) = (10.0, 1.0);
            let mut want = config.missing_pair_prob;
            if plant {
                let next = LocationId::new(from.get().saturating_add(1));
                if let Some(neighbour) = db.get(next, to) {
                    (direction, offset) = (neighbour.direction.mean(), neighbour.offset.mean());
                    want = exact(&neighbour, direction, offset);
                    plant = false;
                }
            }
            let got = kernel.pair_probability(from, to, direction, offset);
            if got != want {
                divs.push(Divergence {
                    suite: "kernel.pair".to_string(),
                    case: format!("untrained {}->{}", from.get(), to.get()),
                    expected: format!("{want:.12e}"),
                    actual: format!("{got:.12e}"),
                });
            }
            cases += 1;
            continue;
        };
        for s in 0..5u64 {
            let direction = 360.0 * unit(hash(seed, 0xC0, cases, s));
            let offset = 4.0 * unit(hash(seed, 0xC1, cases, s));
            let got = kernel.pair_probability(from, to, direction, offset);
            let want = exact(&stats, direction, offset);
            if (got - want).abs() > KERNEL_TOL {
                divs.push(Divergence {
                    suite: "kernel.pair".to_string(),
                    case: format!(
                        "{}->{} d={direction:.3} o={offset:.3}",
                        from.get(),
                        to.get()
                    ),
                    expected: format!("{want:.12e}"),
                    actual: format!("{got:.12e}"),
                });
            }
            cases += 1;
        }
    }
    (cases, divs)
}

/// Audits `MotionKernel::transition_block` on each `(from, to)` id
/// list pair at seeded measurements plus the edges of its lane path: a
/// direction half a turn from a trained pair's mean (the ±180° wrap),
/// directions outside (−360°, 360°), which take the scalar path, and
/// offsets far enough out to saturate the CDF table. Every entry must
/// equal `pair_probability` bit for bit (one case per block), and every
/// trained entry the exact oracle within [`KERNEL_TOL`] (one case
/// each). With `plant` set, the first trained entry whose value the
/// next origin's run would change expects that neighbouring run's
/// value (its pair, or the floor where that run lacks the target) — a
/// walk that read the wrong run — and must diverge.
fn audit_blocks(
    db: &MotionDb,
    blocks: impl Iterator<Item = (Vec<u32>, Vec<u32>)>,
    config: &MoLocConfig,
    seed: u64,
    mut plant: bool,
) -> (u64, Vec<Divergence>) {
    let kernel = build_kernel(db, config);
    let mut measurements: Vec<(f64, f64)> = (0..4u64)
        .map(|s| {
            let h = |salt: u64| unit(hash(seed, 0xC4, s, salt));
            (360.0 * h(0), 4.0 * h(1))
        })
        .collect();
    for (_, _, stats) in db.iter().take(2) {
        let mean = stats.direction.mean();
        let offset = stats.offset.mean();
        measurements.extend([(mean + 180.0, offset), (mean - 179.999, offset)]);
    }
    measurements.extend([(540.5, 3.0), (-400.0, 1.0), (90.0, 60.0), (270.0, 0.0)]);
    let ids = |list: &[u32]| list.iter().map(|&i| LocationId::new(i)).collect::<Vec<_>>();
    let mut divs = Vec::new();
    let mut cases = 0u64;
    let mut out = Vec::new();
    for (from, to) in blocks {
        let (from, to) = (ids(&from), ids(&to));
        for &(direction, offset) in &measurements {
            out.clear();
            out.resize(from.len() * to.len(), 0.0);
            kernel.transition_block(&from, &to, direction, offset, &mut out);
            let mut first = None;
            for (r, &a) in from.iter().enumerate() {
                for (c, &b) in to.iter().enumerate() {
                    let got = out[r * to.len() + c];
                    let trained = if a == b { None } else { db.get(a, b) };
                    let mut want = kernel.pair_probability(a, b, direction, offset);
                    if plant && trained.is_some() {
                        let next = LocationId::new(a.get() + 1);
                        let planted = kernel.pair_probability(next, b, direction, offset);
                        if next != b && planted != want {
                            want = planted;
                            plant = false;
                        }
                    }
                    if got.to_bits() != want.to_bits() && first.is_none() {
                        first = Some((a, b, want, got));
                    }
                    let Some(stats) = trained else { continue };
                    let exact = oracle::pair_probability(
                        stats.direction.mean(),
                        stats.direction.std(),
                        stats.offset.mean(),
                        stats.offset.std(),
                        direction,
                        offset,
                        config.alpha_deg,
                        config.beta_m,
                    );
                    if (got - exact).abs() > KERNEL_TOL {
                        divs.push(Divergence {
                            suite: "kernel.pair".to_string(),
                            case: format!(
                                "block {}->{} d={direction:.3} o={offset:.3} exact",
                                a.get(),
                                b.get()
                            ),
                            expected: format!("{exact:.12e}"),
                            actual: format!("{got:.12e}"),
                        });
                    }
                    cases += 1;
                }
            }
            if let Some((a, b, want, got)) = first {
                divs.push(Divergence {
                    suite: "kernel.pair".to_string(),
                    case: format!(
                        "block {}->{} d={direction:.3} o={offset:.3}",
                        a.get(),
                        b.get()
                    ),
                    expected: format!("{want:.12e}"),
                    actual: format!("{got:.12e}"),
                });
            }
            cases += 1;
        }
    }
    (cases, divs)
}

/// A database over 160 locations: origin 1 trained to the even ids
/// 2..=140 (a 70-entry run), and 3 trained to 4 and 5 so neighbouring
/// runs are not empty. Parameters are drawn from `seed`.
fn long_run_db(seed: u64) -> (MotionDb, u32) {
    const N: u32 = 160;
    let mut db = MotionDb::new(N as usize);
    let pairs = (2..=140u32)
        .step_by(2)
        .map(|t| (1, t))
        .chain([(3, 4), (3, 5)]);
    for (k, (a, b)) in pairs.enumerate() {
        let h = |salt: u64| unit(hash(seed, 0xC3, k as u64, salt));
        let stats = PairStats {
            direction: Gaussian::new(360.0 * h(0), 2.0 + 10.0 * h(1)).expect("positive std"),
            offset: Gaussian::new(1.0 + 5.0 * h(2), 0.05 + 0.5 * h(3)).expect("positive std"),
            sample_count: 5,
        };
        db.insert(LocationId::new(a), LocationId::new(b), stats);
    }
    (db, N)
}

// ---------------------------------------------------------------------
// Eq. 4 / Eq. 7 suites: the production step vs the oracle chain.
// ---------------------------------------------------------------------

/// One step of the oracle chain: exhaustive k-NN (masked when an AP is
/// missing) → Eq. 4 → Eq. 7 from `previous` through `motion` (the
/// step's `P_{from,to}(d, o)`), with the engine's documented fallbacks:
/// a uniform reset over the neighbors when the Eq. 4 total is
/// degenerate, the fingerprint-only prior when the Eq. 7 total is.
fn oracle_step(
    rows: &[(LocationId, Vec<f64>)],
    query: &[f64],
    k: usize,
    previous: &[(LocationId, f64)],
    motion: Option<&dyn Fn(LocationId, LocationId) -> f64>,
    floor: f64,
) -> Vec<(LocationId, f64)> {
    let rows = rows.iter().map(|(id, r)| (*id, r.as_slice()));
    let neighbors = if query.iter().all(|v| v.is_finite()) {
        oracle::k_nearest(rows, query, k)
    } else {
        oracle::k_nearest_masked(rows, query, k).0
    };
    let Some(current) = oracle::candidate_probabilities(&neighbors) else {
        let p = 1.0 / neighbors.len() as f64;
        return neighbors.iter().map(|&(id, _)| (id, p)).collect();
    };
    match motion {
        Some(motion) if !previous.is_empty() => {
            oracle::fuse_posterior(&current, previous, motion, floor)
        }
        _ => current,
    }
}

/// The estimate a posterior yields: highest probability, ties to the
/// lower location id.
fn top(posterior: &[(LocationId, f64)]) -> Option<LocationId> {
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
        .map(|(id, _)| id)
}

/// Whether two posteriors hold the same ids with the same IEEE-754 bits.
fn same_bits(a: &[(LocationId, f64)], b: &[(LocationId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(ai, av), &(bi, bv))| ai == bi && av.to_bits() == bv.to_bits())
}

/// Compares one engine step against the oracle chain bit for bit: the
/// retained posterior and the estimate.
fn compare_step(
    suite: &str,
    case: String,
    expected: &[(LocationId, f64)],
    estimate: LocationId,
    posterior: &[(LocationId, f64)],
    divergences: &mut Vec<Divergence>,
) {
    if !same_bits(expected, posterior) || top(expected) != Some(estimate) {
        divergences.push(Divergence {
            suite: suite.to_string(),
            case,
            expected: format!(
                "{:?} {}",
                top(expected).map(|l| l.get()),
                fmt_pairs(expected)
            ),
            actual: format!("Some({}) {}", estimate.get(), fmt_pairs(posterior)),
        });
    }
}

fn eq_suites(
    world: &EvalWorld,
    setting: &Setting,
    queries: &[Vec<f64>],
    config: &MoLocConfig,
    seed: u64,
    self_test: bool,
    report: &mut AuditReport,
) {
    eprintln!("moloc-audit: Eq. 4 / Eq. 7 engine suites");
    let index = FingerprintIndex::build(&setting.fdb);
    let kernel = build_kernel(&setting.motion_db, config);
    let rows: Vec<(LocationId, Vec<f64>)> = setting
        .fdb
        .iter()
        .map(|(id, fp)| (id, fp.values().to_vec()))
        .collect();
    let (k, floor) = (config.k, config.degenerate_total_floor);
    let mut engine = BatchLocalizer::new_with_index(&index, &kernel, *config);

    // Eq. 4: first observations (empty posterior) through `observe_slice`
    // — every corpus query clean and masked, the blind query, and the
    // exact-match branch (a query equal to a stored row).
    let mut step_queries: Vec<(String, Vec<f64>)> = Vec::new();
    for (qi, query) in queries.iter().enumerate() {
        step_queries.push((format!("query {qi}"), query.clone()));
        step_queries.push((
            format!("masked query {qi}"),
            masked_query(query, seed, qi as u64),
        ));
    }
    step_queries.push(("all-NaN query".to_string(), vec![f64::NAN; N_APS]));
    if let Some((id, fp)) = setting.fdb.iter().next() {
        step_queries.push((
            format!("exact-match query at {}", id.get()),
            fp.values().to_vec(),
        ));
    }
    let mut divs = Vec::new();
    for (case, query) in &step_queries {
        engine.reset();
        let estimate = engine.observe_slice(query, None).expect("valid query");
        let expected = oracle_step(&rows, query, k, &[], None, floor);
        compare_step(
            "eq4.engine",
            case.clone(),
            &expected,
            estimate,
            engine.posterior(),
            &mut divs,
        );
    }
    report.finish_suite("eq4.engine", step_queries.len() as u64, divs);

    // Eq. 7: each case restores the previous query's Eq. 4 posterior
    // and fuses the next query (every third one masked, plus a blind
    // one) under a seeded motion. Even cases walk a trained pair out of
    // the previous estimate (its mean direction and offset, jittered)
    // so the fusion carries real motion mass; odd cases draw a uniform
    // motion, which mostly lands on the fingerprint-only fallback. The
    // gate is bit-identity with the oracle fed the kernel's Eq. 5
    // values, and the decision-level 1e-3 with the exact-erf oracle
    // (the kernel's per-pair 1e-6 can be amplified by normalization
    // when the total mass is tiny). In self-test mode the first case
    // feeds the oracle a perturbed query.
    let db = &setting.motion_db;
    let exact_pair = |from: LocationId, to: LocationId, d: f64, o: f64| -> f64 {
        if from == to {
            return oracle::stationary_probability(
                o,
                config.alpha_deg,
                config.beta_m,
                config.stationary_offset_std_m,
            );
        }
        match db.get(from, to) {
            Some(stats) => oracle::pair_probability(
                stats.direction.mean(),
                stats.direction.std(),
                stats.offset.mean(),
                stats.offset.std(),
                d,
                o,
                config.alpha_deg,
                config.beta_m,
            ),
            None => config.missing_pair_prob,
        }
    };
    let mut divs_engine = Vec::new();
    let mut divs_exact = Vec::new();
    for (ci, w) in queries.windows(2).enumerate() {
        let case = ci as u64;
        let previous = oracle_step(&rows, &w[0], k, &[], None, floor);
        let current = if ci + 2 == queries.len() {
            vec![f64::NAN; N_APS]
        } else if ci % 3 == 2 {
            masked_query(&w[1], seed, 0x100 + case)
        } else {
            w[1].clone()
        };
        let from = top(&previous).expect("k >= 1 neighbors");
        let trained = db.neighbors_of(from);
        let (direction, offset) = match trained.len() {
            n if n > 0 && ci % 2 == 0 => {
                let to = trained[hash(seed, 0xD2, case, 0) as usize % n];
                let stats = db.get(from, to).expect("trained neighbor");
                (
                    (stats.direction.mean() + 10.0 * unit(hash(seed, 0xD3, case, 0)) - 5.0)
                        .rem_euclid(360.0),
                    (stats.offset.mean() + unit(hash(seed, 0xD4, case, 0)) - 0.5).max(0.0),
                )
            }
            _ => (
                360.0 * unit(hash(seed, 0xD0, case, 0)),
                0.5 + 3.0 * unit(hash(seed, 0xD1, case, 0)),
            ),
        };
        engine.restore_posterior(&previous, DegradationFlags::empty());
        let estimate = engine
            .observe_slice(
                &current,
                Some(MotionMeasurement {
                    direction_deg: direction,
                    offset_m: offset,
                }),
            )
            .expect("valid query and motion");
        let oracle_query = if self_test && ci == 0 {
            let mut q = current.clone();
            q[0] += 1.0;
            q
        } else {
            current.clone()
        };
        let with_kernel = |from, to| kernel.pair_probability(from, to, direction, offset);
        let expected = oracle_step(
            &rows,
            &oracle_query,
            k,
            &previous,
            Some(&with_kernel),
            floor,
        );
        let label = format!("step {ci} d={direction:.3} o={offset:.3}");
        compare_step(
            "eq7.engine",
            label.clone(),
            &expected,
            estimate,
            engine.posterior(),
            &mut divs_engine,
        );
        let with_exact = |from, to| exact_pair(from, to, direction, offset);
        let exact = oracle_step(&rows, &current, k, &previous, Some(&with_exact), floor);
        compare_pairs(
            "eq7.exact",
            label,
            &exact,
            engine.posterior(),
            1e-3,
            &mut divs_exact,
        );
    }
    let cases = queries.len().saturating_sub(1) as u64;
    report.finish_suite("eq7.engine", cases, divs_engine);
    report.finish_suite("eq7.exact", cases, divs_exact);

    // Whole traces through `localize_scans_into`, whose blocked k-NN
    // precompute runs the f32 mirror at 6 APs (every fourth scan
    // masked, so clean and masked lanes share blocks): every prefix's
    // estimates and final posterior vs the sequential oracle chain.
    let mut divs = Vec::new();
    let mut cases = 0u64;
    for (ti, trace) in world.corpus.test.iter().take(12).enumerate() {
        let analysis = world.analyze(
            TraceSplit::Test,
            ti,
            &setting.fdb,
            &index,
            setting.counting,
            setting.n_aps,
        );
        let scans: Vec<Vec<f64>> = trace
            .scans
            .iter()
            .enumerate()
            .map(|(i, scan)| {
                let scan = &scan[..setting.n_aps];
                if i % 4 == 3 {
                    masked_query(scan, seed, 0x200 + (ti * 1000 + i) as u64)
                } else {
                    scan.to_vec()
                }
            })
            .collect();
        let motions: Vec<Option<MotionMeasurement>> = (0..scans.len())
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    analysis.measurements[i - 1]
                }
            })
            .collect();
        let mut posteriors: Vec<Vec<(LocationId, f64)>> = Vec::with_capacity(scans.len());
        for (scan, motion) in scans.iter().zip(&motions) {
            let previous = posteriors.last().map_or(&[][..], Vec::as_slice);
            let step = match motion {
                Some(m) => {
                    let with_kernel =
                        |from, to| kernel.pair_probability(from, to, m.direction_deg, m.offset_m);
                    oracle_step(&rows, scan, k, previous, Some(&with_kernel), floor)
                }
                None => oracle_step(&rows, scan, k, previous, None, floor),
            };
            posteriors.push(step);
        }
        let expected: Vec<Option<LocationId>> = posteriors.iter().map(|p| top(p)).collect();
        let views: Vec<&[f64]> = scans.iter().map(Vec::as_slice).collect();
        let mut out = Vec::with_capacity(scans.len());
        for end in 1..=scans.len() {
            engine
                .localize_scans_into(&views[..end], &motions[..end], &mut out)
                .expect("valid trace");
            let estimates: Vec<Option<LocationId>> = out.iter().copied().map(Some).collect();
            let last = &posteriors[end - 1];
            if estimates != expected[..end] || !same_bits(last, engine.posterior()) {
                divs.push(Divergence {
                    suite: "eq7.trace".to_string(),
                    case: format!("trace {ti} prefix {end}"),
                    expected: format!("{:?} {}", &expected[..end], fmt_pairs(last)),
                    actual: format!("{estimates:?} {}", fmt_pairs(engine.posterior())),
                });
            }
            cases += 1;
        }
    }
    report.finish_suite("eq7.trace", cases, divs);
}

// ---------------------------------------------------------------------
// Work-stealing runtime: worker width must not change results.
// ---------------------------------------------------------------------

fn parallel_suite(world: &EvalWorld, setting: &Setting, report: &mut AuditReport) {
    eprintln!("moloc-audit: parallel width suite");
    let index = FingerprintIndex::build(&setting.fdb);
    let n = world.corpus.test.len().min(12);
    let run = |width: usize| -> Vec<Vec<u32>> {
        set_worker_override(Some(width));
        let result = par_run(n, |i| {
            let analysis = world.analyze(
                TraceSplit::Test,
                i,
                &setting.fdb,
                &index,
                setting.counting,
                setting.n_aps,
            );
            analysis.nn_estimates.iter().map(|l| l.get()).collect()
        });
        set_worker_override(None);
        result
    };
    let serial = run(1);
    let wide = run(4);
    let mut divs = Vec::new();
    for (i, (s, w)) in serial.iter().zip(&wide).enumerate() {
        if s != w {
            divs.push(Divergence {
                suite: "parallel.width".to_string(),
                case: format!("trace {i}"),
                expected: format!("{s:?}"),
                actual: format!("{w:?}"),
            });
        }
    }
    report.finish_suite("parallel.width", n as u64, divs);
}

// ---------------------------------------------------------------------
// Live updates: incremental publish vs from-scratch rebuild.
// ---------------------------------------------------------------------

/// Published epochs in `live.rebuild`.
const EPOCHS: u64 = 16;
/// The epochs that each add one RLM on the late pair, which the last of
/// them builds.
const LATE_PAIR_EPOCHS: std::ops::RangeInclusive<u64> = 10..=12;
/// The epoch whose RLM is the fine outlier. The self-test compares
/// its publish with a rebuilt history that lacks that RLM.
const OUTLIER_EPOCH: u64 = 11;
/// The epoch whose survey oracle, under the self-test, lacks the
/// first of that epoch's delta samples.
const SURVEY_PLANT_EPOCH: u64 = 4;
/// The epoch whose kernel oracle, under the self-test, serves the
/// previous epoch's statistics for the pair that epoch's RLM revisits.
/// Its RLM is the fourth on a pair built since epoch 6 and no fine
/// outlier, so the publish only changes a built pair's statistics.
const KERNEL_PLANT_EPOCH: u64 = 8;
/// The epoch whose snapshot `live.rebuild` holds to the end. The log
/// builds each epoch in the buffers of the epoch before the last one,
/// so the publish two epochs later must copy them, and the held
/// snapshot's digest must not move.
const HELD_EPOCH: u64 = 6;
/// Directions and offsets at which `live.rebuild` compares kernels:
/// the hall's aisle bearings at a short step and at its two grid
/// spacings.
const KERNEL_PROBE_DIRECTIONS: [f64; 4] = [0.0, 90.0, 180.0, 270.0];
const KERNEL_PROBE_OFFSETS: [f64; 3] = [0.5, 4.0, 5.8];

fn live_suite(
    world: &EvalWorld,
    setting: &Setting,
    seed: u64,
    self_test: bool,
    report: &mut AuditReport,
) {
    eprintln!("moloc-audit: live incremental-vs-rebuild suite");
    let map = world.hall.map.clone();
    let sanitation = SanitationConfig::paper();
    let base: Vec<(LocationId, Vec<f64>)> = setting
        .fdb
        .iter()
        .map(|(id, fp)| (id, fp.values().to_vec()))
        .collect();

    // The delta stream: per epoch, a couple of perturbed survey
    // samples and one RLM.
    let delta_samples = |epoch: u64| -> Vec<(LocationId, Vec<f64>)> {
        (0..2u64)
            .map(|s| {
                let pick = hash(seed, 0xE0, epoch, s) as usize % base.len();
                let (id, values) = &base[pick];
                let jittered = values
                    .iter()
                    .enumerate()
                    .map(|(d, &v)| v + 2.0 * unit(hash(seed, 0xE1, epoch * 8 + s, d as u64)) - 1.0)
                    .collect();
                (*id, jittered)
            })
            .collect()
    };
    // The RLMs run along two walkable edges in turn, so every epoch
    // revisits a pair an earlier publish fitted while the other pair's
    // fit stays as it was; from epoch 6 both are built. Late in the
    // stream one RLM leaves the map bearing by 15°: inside the coarse
    // band, and beyond the fine filter's 2σ once five RLMs on the map
    // bearing surround it. Epochs 10 to 12 each add an RLM on a third
    // edge, the one of least key, which sorts below at least one of the
    // two: epoch 12 builds it, which moves that pair in the database
    // and the table after publishes wrote it in place.
    let edges: Vec<(LocationId, LocationId)> =
        world.hall.graph.edges().map(|(a, b, _)| (a, b)).collect();
    let first = hash(seed, 0xE2, 0, 0) as usize % edges.len();
    let pairs = [edges[first], edges[(first + edges.len() / 2) % edges.len()]];
    let key = |(a, b): (LocationId, LocationId)| (a.min(b), a.max(b));
    let late_pair = edges
        .iter()
        .copied()
        .filter(|&edge| !pairs.iter().any(|&p| key(p) == key(edge)))
        .min_by_key(|&edge| key(edge))
        .expect("the hall has a third edge");
    let edge_rlm = |(a, b): (LocationId, LocationId), epoch: u64, salt: u64, turn: f64| -> Rlm {
        let direction = map
            .direction_deg(a, b)
            .expect("both endpoints on the hall grid");
        let offset = map.offset_m(a, b) + unit(hash(seed, 0xE3, epoch, salt)) - 0.5;
        let rlm = Rlm::new(a, b, direction + turn, offset.max(0.1)).expect("valid rlm");
        if epoch.is_multiple_of(3) {
            rlm.mirror()
        } else {
            rlm
        }
    };
    let delta_rlm = |epoch: u64| -> Rlm {
        let outlier = if epoch == OUTLIER_EPOCH { 15.0 } else { 0.0 };
        edge_rlm(pairs[(epoch % 2) as usize], epoch, 0, outlier)
    };
    let late_rlm = |epoch: u64| -> Option<Rlm> {
        LATE_PAIR_EPOCHS
            .contains(&epoch)
            .then(|| edge_rlm(late_pair, epoch, 1, 0.0))
    };

    let mut log = UpdateLog::new(setting.n_aps, map.clone(), sanitation)
        .expect("valid sanitation");
    for (id, values) in &base {
        log.observe_survey_sample(*id, values).expect("ap count matches");
    }
    let publisher = SnapshotPublisher::new(log.build_snapshot(0).expect("seed snapshot"));
    log.mark_published();
    let mut reader = publisher.reader();
    // Per epoch, where its index and motion database live: a publish
    // that wrote the buffers of the epoch two before it patched them in
    // place, any other new buffer is a copy (or a new layout).
    let address = |snapshot: &DbSnapshot| {
        (
            Arc::as_ptr(&snapshot.index) as usize,
            Arc::as_ptr(&snapshot.motion_db) as usize,
        )
    };
    let mut indexes = vec![address(reader.snapshot()).0];
    let mut motion_dbs = vec![address(reader.snapshot()).1];
    let (mut index_paths, mut motion_paths) = ([0u64; 2], [0u64; 2]);
    // Canonical pairs a motion publish wrote in place; those of them
    // whose database entry a later publish moved; and the motion
    // publishes in place that wrote a moved pair again.
    let mut written = Vec::new();
    let mut moved = Vec::new();
    let mut writes_after_a_move = 0u64;
    let entry_of = |db: &MotionDb, (a, b): (LocationId, LocationId)| {
        db.iter().position(|(i, j, _)| (i, j) == (a, b))
    };
    let mut held = None;
    let paper = MoLocConfig::paper();
    let mut previous_db = Arc::clone(&reader.snapshot().motion_db);
    let hall_ids: Vec<LocationId> = world.hall.grid.ids().collect();
    let probes: Vec<(f64, f64)> = KERNEL_PROBE_DIRECTIONS
        .iter()
        .flat_map(|&d| KERNEL_PROBE_OFFSETS.iter().map(move |&o| (d, o)))
        .collect();

    let mut divs = Vec::new();
    let mut cases = 0u64;
    for epoch in 1..=EPOCHS {
        for (id, values) in delta_samples(epoch) {
            log.observe_survey_sample(id, &values).expect("ap count matches");
        }
        log.observe_rlm(delta_rlm(epoch));
        if let Some(rlm) = late_rlm(epoch) {
            log.observe_rlm(rlm);
        }
        let published = publisher.publish(&mut log).expect("publish succeeds");
        reader.refresh();
        let incremental = reader.snapshot().digest();
        let (index_at, motion_at) = address(reader.snapshot());
        let in_place = indexes.len() >= 2 && indexes[indexes.len() - 2] == index_at;
        index_paths[usize::from(!in_place)] += 1;
        indexes.push(index_at);
        if motion_dbs.last() != Some(&motion_at) {
            let in_place = motion_dbs.len() >= 2 && motion_dbs[motion_dbs.len() - 2] == motion_at;
            motion_paths[usize::from(!in_place)] += 1;
            motion_dbs.push(motion_at);
            let db = &reader.snapshot().motion_db;
            let revisited = key(pairs[(epoch % 2) as usize]);
            if in_place {
                writes_after_a_move += u64::from(moved.contains(&revisited));
                written.push(revisited);
            } else if db.pair_count() != previous_db.pair_count() {
                moved.extend(
                    written
                        .iter()
                        .filter(|&&pair| entry_of(db, pair) != entry_of(&previous_db, pair)),
                );
            }
        }
        if epoch == HELD_EPOCH {
            held = Some((Arc::clone(reader.snapshot()), incremental));
        }

        // From-scratch arm: a fresh log fed the identical history.
        let mut rebuilt = UpdateLog::new(setting.n_aps, map.clone(), sanitation)
            .expect("valid sanitation");
        for (id, values) in &base {
            rebuilt.observe_survey_sample(*id, values).expect("ap count matches");
        }
        // The planted history lacks this epoch's RLM, as a build that
        // skipped a touched pair would.
        let plant = self_test && epoch == OUTLIER_EPOCH;
        for e in 1..=epoch {
            for (id, values) in delta_samples(e) {
                rebuilt.observe_survey_sample(id, &values).expect("ap count matches");
            }
            if !(plant && e == epoch) {
                rebuilt.observe_rlm(delta_rlm(e));
            }
            if let Some(rlm) = late_rlm(e) {
                rebuilt.observe_rlm(rlm);
            }
        }
        let rebuilt = rebuilt.build_snapshot(epoch).expect("rebuild snapshot");
        let rebuilt_digest = rebuilt.digest();
        if incremental != rebuilt_digest || published.epoch != epoch {
            divs.push(Divergence {
                suite: "live.rebuild".to_string(),
                case: format!("epoch {epoch}"),
                expected: format!("digest {rebuilt_digest:#018x} at epoch {epoch}"),
                actual: format!(
                    "digest {incremental:#018x} at epoch {}",
                    published.epoch
                ),
            });
        }
        cases += 1;

        // Kernel oracle: the published epoch's kernel against one built
        // from the rebuilt database. The digest leaves the kernel out,
        // and the motion builder patches its pair table apart from the
        // database, so a patch that missed a touched pair would pass
        // the digest. The planted oracle serves the revisited pair's
        // previous statistics, as such a patch would.
        let oracle = if self_test && epoch == KERNEL_PLANT_EPOCH {
            let (a, b) = pairs[(epoch % 2) as usize];
            let (i, j) = (a.min(b), a.max(b));
            let mut stale = (*rebuilt.motion_db).clone();
            let before = previous_db.get(i, j).expect("the revisited pair was built");
            stale.insert(i, j, before);
            build_kernel(&stale, &paper)
        } else {
            build_kernel(&rebuilt.motion_db, &paper)
        };
        let served = reader.snapshot().kernel(&paper);
        let mismatch = hall_ids
            .iter()
            .flat_map(|&from| hall_ids.iter().map(move |&to| (from, to)))
            .flat_map(|(from, to)| probes.iter().map(move |&(d, o)| (from, to, d, o)))
            .find_map(|(from, to, d, o)| {
                let want = oracle.pair_probability(from, to, d, o);
                let got = served.pair_probability(from, to, d, o);
                (want.to_bits() != got.to_bits()).then_some((from, to, d, o, want, got))
            });
        if let Some((from, to, d, o, want, got)) = mismatch {
            divs.push(Divergence {
                suite: "live.rebuild".to_string(),
                case: format!("epoch {epoch} kernel"),
                expected: format!("P({from}->{to} | {d} deg, {o} m) = {want:e}"),
                actual: format!("{got:e}"),
            });
        }
        cases += 1;
        previous_db = Arc::clone(&rebuilt.motion_db);

        // Survey oracle outside `UpdateLog`: the merged sample history,
        // grouped per location in arrival order, condensed by
        // `FingerprintDb::from_samples` and indexed by `build`.
        let mut history: BTreeMap<LocationId, Vec<Fingerprint>> = BTreeMap::new();
        for (id, values) in &base {
            history
                .entry(*id)
                .or_default()
                .push(Fingerprint::new(values.clone()));
        }
        let plant = self_test && epoch == SURVEY_PLANT_EPOCH;
        for e in 1..=epoch {
            for (s, (id, values)) in delta_samples(e).into_iter().enumerate() {
                if !(plant && e == epoch && s == 0) {
                    history
                        .entry(id)
                        .or_default()
                        .push(Fingerprint::new(values));
                }
            }
        }
        let oracle = FingerprintIndex::build(
            &FingerprintDb::from_samples(history).expect("finite survey history"),
        );
        let served = rows_of(&reader.snapshot().index);
        let want = rows_of(&oracle);
        if served != want {
            let at = served.1.iter().zip(&want.1).position(|(a, b)| a != b);
            let show = |rows: &IndexRows| match at {
                Some(at) => format!("{} rows, first differing {:?}", rows.1.len(), rows.1[at]),
                None => format!("{} rows, {} APs, mirror {}", rows.1.len(), rows.0, rows.2),
            };
            divs.push(Divergence {
                suite: "live.rebuild".to_string(),
                case: format!("epoch {epoch} survey rows"),
                expected: show(&want),
                actual: show(&served),
            });
        }
        cases += 1;
    }
    // The held epoch's buffers were not written by the publishes after
    // it.
    let (held, digest_then) = held.expect("the held epoch was published");
    if held.digest() != digest_then {
        divs.push(Divergence {
            suite: "live.rebuild".to_string(),
            case: format!("epoch {HELD_EPOCH} held"),
            expected: format!("digest {digest_then:#018x} as published"),
            actual: format!("digest {:#018x} after epoch {EPOCHS}", held.digest()),
        });
    }
    cases += 1;
    // The stream must have exercised what it is for: fitted pairs that
    // later RLMs revisit, a fine rejection among them, publishes that
    // wrote retired buffers in place beside ones that copied them, and
    // a pair written in place again after a new pair moved it.
    let last = publisher.snapshot();
    let built = last.motion_report.pairs_built;
    let rejected = last.motion_report.rejected_fine;
    let coverage = format!(
        "{built} built, {rejected} fine rejections; index {} in place, {} copied; \
         motion {} in place, {} copied or laid out anew, {writes_after_a_move} in place \
         writing a moved pair",
        index_paths[0], index_paths[1], motion_paths[0], motion_paths[1]
    );
    eprintln!("moloc-audit: live.rebuild publishes: {coverage}");
    if built != 3
        || rejected == 0
        || index_paths.contains(&0)
        || motion_paths[0] == 0
        || writes_after_a_move == 0
    {
        divs.push(Divergence {
            suite: "live.rebuild".to_string(),
            case: "delta stream coverage".to_string(),
            expected: "3 pairs built, at least 1 fine rejection; index publishes in place and \
                       copied; motion publishes in place, one writing a moved pair"
                .to_string(),
            actual: coverage,
        });
    }
    report.finish_suite("live.rebuild", cases + 1, divs);
}

/// An index's AP count, its rows as `(id, value bits)` in row order,
/// and whether it carries the f32 mirror.
type IndexRows = (usize, Vec<(LocationId, Vec<u64>)>, bool);

fn rows_of(index: &FingerprintIndex) -> IndexRows {
    let rows = (0..index.len())
        .map(|p| {
            (
                index.ids()[p],
                index.row(p).iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    (index.ap_count(), rows, index.has_mirror())
}

// ---------------------------------------------------------------------
// Session recovery: kill/recover vs the uninterrupted run.
// ---------------------------------------------------------------------

fn session_suite(world: &EvalWorld, setting: &Setting, report: &mut AuditReport) {
    eprintln!("moloc-audit: session kill/recover suite");
    let index = FingerprintIndex::build(&setting.fdb);
    let config = MoLocConfig::paper();
    let kernel = build_kernel(&setting.motion_db, &config);
    let session_config = SessionConfig {
        reorder_capacity: 8,
        checkpoint_interval: 2,
        fsync: false,
    };
    let trace = &world.corpus.test[0];
    let analysis = world.analyze(
        TraceSplit::Test,
        0,
        &setting.fdb,
        &index,
        setting.counting,
        setting.n_aps,
    );
    let events: Vec<ScanEvent> = trace
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
        .collect();

    // Uninterrupted reference.
    let mut reference = Vec::new();
    let reference_state = {
        let mut session = StreamingSession::new(&index, &kernel, config, session_config);
        for event in &events {
            session
                .ingest(event.clone(), &mut reference)
                .expect("reference ingest");
        }
        session.finish(&mut reference).expect("reference finish");
        session.state().encode().expect("state encodes")
    };

    let mut divs = Vec::new();
    let mut cases = 0u64;
    let kills = [1, events.len() / 3, events.len() / 2, events.len() - 1];
    for &kill in &kills {
        let kill = kill.max(1);
        let path = std::env::temp_dir().join(format!(
            "moloc_audit_{}_kill_{kill}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut doomed =
                StreamingSession::with_log(&index, &kernel, config, session_config, &path)
                    .expect("open log");
            let mut sink = Vec::new();
            for event in &events[..kill] {
                doomed.ingest(event.clone(), &mut sink).expect("doomed ingest");
            }
            // Dropped without finish: a SIGKILL between syscalls.
        }
        let recovered = StreamingSession::recover(
            &index,
            &kernel,
            config,
            session_config,
            &path,
        )
        .expect("recover opens the log");
        let mut session = recovered.session;
        let replay_from = usize::try_from(session.ingested()).expect("fits");
        let already = usize::try_from(session.delivered()).expect("fits");
        let mut replayed = Vec::new();
        for event in &events[replay_from..] {
            session
                .ingest(event.clone(), &mut replayed)
                .expect("replay ingest");
        }
        session.finish(&mut replayed).expect("replay finish");
        let state = session.state().encode().expect("state encodes");
        let estimates_match = replayed
            .iter()
            .map(|e| (e.seq, e.location, e.flags))
            .eq(reference[already..]
                .iter()
                .map(|e| (e.seq, e.location, e.flags)));
        if !estimates_match || state != reference_state {
            divs.push(Divergence {
                suite: "session.recover".to_string(),
                case: format!("kill at {kill}"),
                expected: format!(
                    "{} reference estimates from {already}, state {} bytes",
                    reference.len() - already,
                    reference_state.len()
                ),
                actual: format!(
                    "{} replayed estimates (match: {estimates_match}), state {} bytes",
                    replayed.len(),
                    state.len()
                ),
            });
        }
        let _ = std::fs::remove_file(&path);
        cases += 1;
    }
    report.finish_suite("session.recover", cases, divs);
}

// ---------------------------------------------------------------------
// Checkpoint framing: wire format vs the independent oracle.
// ---------------------------------------------------------------------

fn frame_suite(seed: u64, report: &mut AuditReport) {
    eprintln!("moloc-audit: checkpoint framing suite");
    let mut divs = Vec::new();
    let mut cases = 0u64;
    for case in 0..16u64 {
        let len = (hash(seed, 0xF0, case, 0) % 96) as usize;
        let payload: Vec<u8> = (0..len)
            .map(|i| (hash(seed, 0xF1, case, i as u64) & 0xFF) as u8)
            .collect();
        let framed = moloc_session::checkpoint::frame_record(&payload);
        let oracle_framed = oracle::frame_record(&payload);
        if framed != oracle_framed {
            divs.push(Divergence {
                suite: "frame.roundtrip".to_string(),
                case: format!("case {case}: frame bytes"),
                expected: format!("{} oracle bytes", oracle_framed.len()),
                actual: format!("{} session bytes", framed.len()),
            });
        }
        // The oracle parser must accept the session's frame verbatim...
        match oracle::parse_record(&framed) {
            Some((_, parsed, consumed)) if parsed == payload && consumed == framed.len() => {}
            other => divs.push(Divergence {
                suite: "frame.roundtrip".to_string(),
                case: format!("case {case}: oracle parse"),
                expected: "round-tripped payload".to_string(),
                actual: format!("{other:?}"),
            }),
        }
        // ...and both sides must reject the same single-byte flip.
        let flip = (hash(seed, 0xF2, case, 0) % framed.len() as u64) as usize;
        let mut bad = framed.clone();
        bad[flip] ^= 0x01;
        let session_accepts = {
            let (payloads, scan) = moloc_session::checkpoint::scan_records(&bad);
            scan.corruption.is_none() && payloads.len() == 1
        };
        let oracle_accepts = oracle::parse_record(&bad).is_some();
        if session_accepts || oracle_accepts {
            divs.push(Divergence {
                suite: "frame.roundtrip".to_string(),
                case: format!("case {case}: flip at byte {flip}"),
                expected: "rejected by both parsers".to_string(),
                actual: format!(
                    "session_accepts={session_accepts} oracle_accepts={oracle_accepts}"
                ),
            });
        }
        cases += 1;
    }
    report.finish_suite("frame.roundtrip", cases, divs);
}
