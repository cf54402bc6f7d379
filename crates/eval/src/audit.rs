//! Seeded differential suites shared by the `moloc-audit` gate and the
//! regression seeds pinned in `tests/audit_oracles.rs`.
//!
//! [`sanitation_suite`] (`motion.sanitation`) feeds seeded RLM streams
//! over the paper hall to [`MotionDbBuilder`] and to the naive
//! [`oracle::sanitize`] pass, and compares what they build. The hall's
//! partitions make some grid neighbours wall-separated, so their walk
//! and straight-line distances differ and the coarse filter's choice
//! between them is exercised.

use crate::scenario::OfficeHall;
use moloc_faults::rng::{hash, std_normal, unit};
use moloc_geometry::{LocationId, Vec2};
use moloc_motion::builder::{BuildReport, MotionDbBuilder};
use moloc_motion::filter::SanitationConfig;
use moloc_motion::matrix::MotionDb;
use moloc_motion::rlm::Rlm;
use moloc_stats::circular::reverse_deg;
use moloc_verify::oracle::{self, SanitationCounts, SanitationRules, SanitizedPair};
use moloc_verify::Divergence;

const SUITE: &str = "motion.sanitation";
/// Gaussian parameters may differ by accumulation order (Welford vs
/// two-pass); counts, pair sets and sample counts may not differ at all.
const TOL: f64 = 1e-9;

/// Runs `motion.sanitation` at `seed`: a random stream and a hostile
/// stream, each under the paper's thresholds and with the coarse and
/// the fine filter switched off in turn. Each run feeds one builder the
/// stream and compares its `build_snapshot` after every quarter of it
/// with the oracle over that prefix, so each snapshot must refit every
/// pair the RLMs since the previous one touched. Every comparison
/// checks the [`BuildReport`] exactly, the set of built pairs and their
/// sample counts exactly, and each pair's Gaussian within `1e-9`.
/// Returns the comparisons made and the divergences found.
///
/// With `plant` set, the oracle's coarse offset threshold moves one ulp
/// down on the hostile stream — `<` instead of `<=` — which its exact
/// ±3 m offsets must expose.
pub fn sanitation_suite(hall: &OfficeHall, seed: u64, plant: bool) -> (u64, Vec<Divergence>) {
    let positions: Vec<Vec2> = hall.grid.ids().map(|id| hall.grid.position(id)).collect();
    let edges: Vec<(LocationId, LocationId, f64)> = hall.graph.edges().collect();
    let configs = [
        ("paper", SanitationConfig::paper()),
        (
            "coarse-off",
            SanitationConfig {
                coarse_enabled: false,
                ..SanitationConfig::paper()
            },
        ),
        (
            "fine-off",
            SanitationConfig {
                fine_enabled: false,
                ..SanitationConfig::paper()
            },
        ),
    ];
    let streams = [
        ("random", random_stream(hall, seed)),
        ("hostile", hostile_stream(hall, seed)),
    ];
    let mut cases = 0;
    let mut divs = Vec::new();
    for (stream_name, stream) in &streams {
        let plain: Vec<_> = stream
            .iter()
            .map(|r| (r.from, r.to, r.direction_deg, r.offset_m))
            .collect();
        for (config_name, config) in &configs {
            let mut rules = rules_of(config);
            if plant && *stream_name == "hostile" && *config_name == "paper" {
                rules.coarse_offset_m = rules.coarse_offset_m.next_down();
            }
            let mut builder =
                MotionDbBuilder::new(hall.map.clone(), *config).expect("valid sanitation");
            let mut fed = 0;
            for quarter in 1..=4 {
                let end = stream.len() * quarter / 4;
                for &rlm in &stream[fed..end] {
                    builder.observe(rlm);
                }
                fed = end;
                let (db, _, report) = builder.build_snapshot();
                let (counts, pairs) = oracle::sanitize(&positions, &edges, &plain[..end], &rules);
                let run = format!("{stream_name}/{config_name} seed {seed} at {quarter}/4");
                cases += compare(&run, &db, &report, &counts, &pairs, &mut divs);
            }
        }
    }
    (cases, divs)
}

fn rules_of(config: &SanitationConfig) -> SanitationRules {
    SanitationRules {
        coarse_enabled: config.coarse_enabled,
        coarse_direction_deg: config.coarse_direction_deg,
        coarse_offset_m: config.coarse_offset_m,
        fine_enabled: config.fine_enabled,
        fine_sigma: config.fine_sigma,
        min_samples: config.min_samples,
        min_direction_std_deg: config.min_direction_std_deg,
        min_offset_std_m: config.min_offset_std_m,
    }
}

/// Compares one build with the oracle's; returns the comparisons made
/// (the report, then one per pair either side built).
fn compare(
    run: &str,
    db: &MotionDb,
    report: &BuildReport,
    counts: &SanitationCounts,
    pairs: &[SanitizedPair],
    divs: &mut Vec<Divergence>,
) -> u64 {
    let mut push = |case: String, expected: String, actual: String| {
        divs.push(Divergence {
            suite: SUITE.to_string(),
            case,
            expected,
            actual,
        });
    };
    let got = SanitationCounts {
        observed: report.observed,
        rejected_coarse: report.rejected_coarse,
        rejected_unmapped: report.rejected_unmapped,
        rejected_fine: report.rejected_fine,
        underpopulated_pairs: report.underpopulated_pairs,
        pairs_built: report.pairs_built,
    };
    if got != *counts {
        push(
            format!("{run} report"),
            format!("{counts:?}"),
            format!("{got:?}"),
        );
    }
    let mut cases = 1;
    for want in pairs {
        cases += 1;
        let case = format!("{run} pair {}-{}", want.from.get(), want.to.get());
        let Some(stats) = db.get(want.from, want.to) else {
            push(case, format!("{want:?}"), "not built".to_string());
            continue;
        };
        let close = [
            (stats.direction.mean(), want.direction_mean_deg),
            (stats.direction.std(), want.direction_std_deg),
            (stats.offset.mean(), want.offset_mean_m),
            (stats.offset.std(), want.offset_std_m),
        ]
        .iter()
        .all(|(a, b)| (a - b).abs() <= TOL);
        if !close || stats.sample_count != want.samples {
            push(case, format!("{want:?}"), format!("{stats:?}"));
        }
    }
    for (a, b, stats) in db.iter() {
        if !pairs.iter().any(|p| (p.from, p.to) == (a, b)) {
            cases += 1;
            push(
                format!("{run} pair {}-{}", a.get(), b.get()),
                "not built".to_string(),
                format!("{stats:?}"),
            );
        }
    }
    cases
}

/// The hall's map direction and offset of `a → b`.
fn map_of(hall: &OfficeHall, a: LocationId, b: LocationId) -> (f64, f64) {
    let direction = hall.map.direction_deg(a, b).expect("distinct grid ids");
    (direction, hall.map.offset_m(a, b))
}

/// `a → b` as measured, or its mirror `b → a` when `reverse` is set.
fn oriented(a: LocationId, b: LocationId, direction: f64, offset: f64, reverse: bool) -> Rlm {
    let rlm = if reverse {
        Rlm::new(b, a, reverse_deg(direction), offset)
    } else {
        Rlm::new(a, b, direction, offset)
    };
    rlm.expect("generated RLMs are well-formed")
}

/// Grid neighbours that a partition keeps apart on foot.
fn wall_separated(hall: &OfficeHall) -> Vec<(LocationId, LocationId)> {
    hall.grid
        .ids()
        .flat_map(|a| hall.grid.neighbors4(a).into_iter().map(move |b| (a, b)))
        .filter(|&(a, b)| a < b && !hall.graph.are_adjacent(a, b))
        .collect()
}

/// Crowdsourcing-like traffic: 40 pairs (mostly walkable edges, some
/// wall-separated neighbours, some arbitrary pairs) with 1–8 RLMs each,
/// Gaussian noise, 15% gross outliers in each channel and random
/// orientation.
fn random_stream(hall: &OfficeHall, seed: u64) -> Vec<Rlm> {
    let edges: Vec<(LocationId, LocationId)> = hall.graph.edges().map(|(a, b, _)| (a, b)).collect();
    let walls = wall_separated(hall);
    let n = hall.grid.len() as u64;
    let mut out = Vec::new();
    for p in 0..40u64 {
        let pick = hash(seed, 0x5A0, p, 0);
        let (a, b) = match pick % 4 {
            0 | 1 => edges[(pick >> 8) as usize % edges.len()],
            2 => walls[(pick >> 8) as usize % walls.len()],
            _ => {
                let a = 1 + (pick >> 8) % n;
                let b = 1 + (a + (pick >> 16) % (n - 1)) % n;
                (LocationId::new(a as u32), LocationId::new(b as u32))
            }
        };
        let (map_direction, map_offset) = map_of(hall, a, b);
        // A wall-separated pair is sometimes "walked" through the wall.
        let base_offset = if pick % 4 == 2 && coin(hash(seed, 0x5A1, p, 0)) {
            hall.grid.distance(a, b)
        } else {
            map_offset
        };
        for s in 0..1 + hash(seed, 0x5A2, p, 0) % 8 {
            let h = |salt: u64| hash(seed, salt, p, s);
            let mut direction = map_direction + 6.0 * std_normal(h(0x5A3));
            if unit(h(0x5A4)) < 0.15 {
                direction += (15.0 + 30.0 * unit(h(0x5A5))) * sign(h(0x5A6));
            }
            let mut offset = base_offset + 0.4 * std_normal(h(0x5A7));
            if unit(h(0x5A8)) < 0.15 {
                offset += (2.0 + 3.0 * unit(h(0x5A9))) * sign(h(0x5AA));
            }
            out.push(oriented(a, b, direction, offset.max(0.0), coin(h(0x5AB))));
        }
    }
    out
}

fn coin(h: u64) -> bool {
    h & 1 == 0
}

fn sign(h: u64) -> f64 {
    if coin(h) {
        1.0
    } else {
        -1.0
    }
}

/// The filters' corners, on pairs drawn by `seed`: directions and
/// offsets just inside and just outside the 20° and 3 m bands, offsets
/// exactly 3 m off, wall-separated pairs at their straight-line
/// distance, off-grid ids, reversed RLMs, an underpopulated pair, a
/// zero-variance pair, a pair with one fine outlier and a pair whose
/// offset spread overflows.
fn hostile_stream(hall: &OfficeHall, seed: u64) -> Vec<Rlm> {
    let edges: Vec<(LocationId, LocationId)> = hall.graph.edges().map(|(a, b, _)| (a, b)).collect();
    // Six distinct edges from a seeded start, one per corner below.
    let start = hash(seed, 0x5B0, 0, 0) as usize;
    let edge = |k: usize| edges[(start + 5 * k) % edges.len()];
    let mut out = Vec::new();

    // Direction band: 20° ± 1e-7 on either side of the map bearing.
    let (a, b) = edge(0);
    let (direction, offset) = map_of(hall, a, b);
    for (k, delta) in [19.999_999_9, -19.999_999_9, 20.000_000_1, -20.000_000_1]
        .into_iter()
        .enumerate()
    {
        out.push(oriented(a, b, direction + delta, offset, k % 2 == 1));
    }
    // Offset band: 3 m ± 1e-9, and exactly 3 m on an edge where that
    // difference is exact in floating point.
    let (a, b) = edge(1);
    let (direction, offset) = map_of(hall, a, b);
    for (k, delta) in [2.999_999_999, -2.999_999_999, 3.000_000_001, -3.000_000_001]
        .into_iter()
        .enumerate()
    {
        out.push(oriented(
            a,
            b,
            direction,
            (offset + delta).max(0.0),
            k % 2 == 0,
        ));
    }
    let (a, b) = *edges
        .iter()
        .find(|&&(a, b)| {
            let offset = hall.map.offset_m(a, b);
            (offset + 3.0) - offset == 3.0 && offset - (offset - 3.0) == 3.0
        })
        .expect("the hall has an edge with an exact 3 m band");
    let (direction, offset) = map_of(hall, a, b);
    for reverse in [false, true] {
        out.push(oriented(a, b, direction, offset + 3.0, reverse));
        out.push(oriented(a, b, direction, offset - 3.0, reverse));
        out.push(oriented(a, b, direction, offset, reverse));
    }
    // Wall-separated neighbours at their straight-line and walk offsets.
    for (a, b) in wall_separated(hall) {
        let (direction, offset) = map_of(hall, a, b);
        for s in 0..3u64 {
            out.push(oriented(a, b, direction, hall.grid.distance(a, b), s == 1));
            out.push(oriented(a, b, direction, offset, s == 2));
        }
    }
    // Off-grid endpoints, in both positions.
    let n = hall.grid.len() as u32;
    for (a, b) in [(n + 1, 1), (3, n + 7), (u32::MAX, 2), (n, n + 1)] {
        out.push(oriented(
            LocationId::new(a),
            LocationId::new(b),
            90.0,
            5.0,
            false,
        ));
    }
    // Underpopulated: one RLM short of min_samples.
    let (a, b) = edge(2);
    let (direction, offset) = map_of(hall, a, b);
    for reverse in [false, true] {
        out.push(oriented(a, b, direction + 1.0, offset, reverse));
    }
    // Zero variance: five identical RLMs.
    let (a, b) = edge(3);
    let (direction, offset) = map_of(hall, a, b);
    for _ in 0..5 {
        out.push(oriented(a, b, direction, offset, false));
    }
    // One fine outlier inside the coarse band.
    let (a, b) = edge(4);
    let (direction, offset) = map_of(hall, a, b);
    for s in 0..10u64 {
        let jitter = 0.5 * std_normal(hash(seed, 0x5B1, s, 0));
        out.push(oriented(
            a,
            b,
            direction + jitter,
            offset + 0.1 * jitter,
            s % 3 == 0,
        ));
    }
    out.push(oriented(a, b, direction + 15.0, offset + 2.5, false));
    // Offsets 1e200 apart: their squared deviations overflow, so the
    // offset std is infinite and the pair is not built. The coarse
    // filter drops the 1e200 offsets, so only with it off do they
    // reach the fit.
    let (a, b) = edge(5);
    let (direction, _) = map_of(hall, a, b);
    for (s, offset) in [0.0, 1e200, 0.0, 1e200, 0.0].into_iter().enumerate() {
        out.push(oriented(a, b, direction, offset, s % 2 == 1));
    }
    out
}
