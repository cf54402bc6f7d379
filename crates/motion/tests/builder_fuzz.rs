//! API fuzz of `MotionDbBuilder`'s live path: random streams of valid
//! RLMs, `build_snapshot` at random points, and a random subset of the
//! snapshots held across later builds.
//!
//! Every build must equal, bit for bit, a fresh builder's consuming
//! `build` over the same prefix (database and report), its table must
//! equal `PairTable::build` of its database, and no held snapshot may
//! change. The builder keeps its last two builds and writes the older
//! one in place when no one holds it, so the fuzz also models which
//! buffers each build must land in and checks that by `Arc::as_ptr`.

use moloc_geometry::polygon::Aabb;
use moloc_geometry::{FloorPlan, LocationId, ReferenceGrid, Vec2, WalkGraph};
use moloc_motion::builder::{BuildReport, MapReference, MotionDbBuilder};
use moloc_motion::filter::SanitationConfig;
use moloc_motion::kernel::PairTable;
use moloc_motion::matrix::MotionDb;
use moloc_motion::rlm::Rlm;
use proptest::prelude::*;
use std::sync::Arc;

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

/// A 4×3 grid spaced 2 m in an open hall: ids 1..=12, row by row, so
/// `i → i + 1` runs east (90°) and `i → i + 4` south (180°).
fn map() -> MapReference {
    let grid = ReferenceGrid::new(Vec2::new(1.0, 1.0), 4, 3, 2.0, 2.0).unwrap();
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(8.0, 6.0)).unwrap());
    MapReference::new(&grid, &WalkGraph::from_grid(&grid, &plan))
}

/// Adjacent pairs the stream revisits, east and south ones.
const PAIRS: [(u32, u32); 6] = [(1, 2), (2, 3), (5, 6), (1, 5), (2, 6), (7, 11)];

/// One generated RLM: see [`rlm`].
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: u32,
    pick: usize,
    ids: (u32, u32),
    u: f64,
    v: f64,
    reverse: bool,
}

/// One generated step: an RLM, whether a build follows it, and whether
/// the test holds that build.
type Step = (Spec, bool, bool);

fn step_strategy() -> impl Strategy<Value = Step> {
    let spec = (
        (0u32..6, 0usize..PAIRS.len(), 0u32..2),
        (1u32..=14, 1u32..=14),
        (0.0..1.0f64, 0.0..1.0f64),
    )
        .prop_map(|((kind, pick, reverse), ids, (u, v))| Spec {
            kind,
            pick,
            ids,
            u,
            v,
            reverse: reverse == 1,
        });
    (
        spec,
        (0u32..3).prop_map(|b| b == 0),
        (0u32..2).prop_map(|h| h == 0),
    )
}

/// The RLM a spec stands for. Kinds 0–2 revisit a pair near its map
/// bearing and 2 m; kind 3 measures a pair at 359.999°–0.001°, across
/// the seam; kind 4 is anything between two ids of 1..=14 (13 and 14
/// are off the grid); kind 5 measures a pair at 0 m or 1e200 m. Each
/// may be reversed.
fn rlm(map: &MapReference, spec: Spec) -> Rlm {
    let Spec {
        kind,
        pick,
        ids: (a, b),
        u,
        v,
        reverse,
    } = spec;
    let (i, j) = PAIRS[pick];
    let bearing = map.direction_deg(l(i), l(j)).expect("a grid pair");
    let rlm = match kind {
        0..=2 => Rlm::new(l(i), l(j), bearing + 6.0 * u - 3.0, 1.8 + 0.4 * v),
        3 => {
            let direction = if u < 0.5 {
                359.999 + 0.002 * u
            } else {
                0.002 * (u - 0.5)
            };
            Rlm::new(l(i), l(j), direction, 2.0)
        }
        4 => {
            let b = if a == b { a % 14 + 1 } else { b };
            Rlm::new(l(a), l(b), 360.0 * u, 8.0 * v)
        }
        _ => Rlm::new(l(i), l(j), bearing, if v < 0.5 { 0.0 } else { 1e200 }),
    }
    .expect("a valid RLM");
    if reverse {
        rlm.mirror()
    } else {
        rlm
    }
}

/// Every bit of a database: each pair's ids, Gaussians and count.
fn bits(db: &MotionDb) -> Vec<(u32, u32, [u64; 4], u64)> {
    db.iter()
        .map(|(a, b, s)| {
            let gaussians = [
                s.direction.mean(),
                s.direction.std(),
                s.offset.mean(),
                s.offset.std(),
            ];
            (
                a.get(),
                b.get(),
                gaussians.map(f64::to_bits),
                s.sample_count,
            )
        })
        .collect()
}

fn keys(db: &MotionDb) -> Vec<(u32, u32)> {
    db.iter().map(|(a, b, _)| (a.get(), b.get())).collect()
}

/// A build the test holds, with its bits at the time it was built.
struct Held {
    db: Arc<MotionDb>,
    table: Arc<PairTable>,
    bits: Vec<(u32, u32, [u64; 4], u64)>,
    table_then: PairTable,
}

/// Where a build's buffers came from.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Paths {
    /// Nothing changed: the last build came back.
    unchanged: u32,
    /// The retired build's buffers, written in place.
    in_place: u32,
    /// Only statistics changed, into a copy: the retired build was
    /// held, or there was none.
    copied: u32,
    /// A pair appeared or vanished: a new merge and table.
    rebuilt: u32,
}

/// The model's record of one build: its buffer addresses and pairs,
/// and whether the test holds it.
#[derive(Clone)]
struct Seen {
    db: usize,
    table: usize,
    keys: Vec<(u32, u32)>,
    held: bool,
}

fn address<T>(arc: &Arc<T>) -> usize {
    Arc::as_ptr(arc) as usize
}

/// Feeds `steps` to a builder under `config`, checking every build as
/// the module docs say, and returns which paths the builds took.
fn run(config: SanitationConfig, steps: &[Step]) -> Result<Paths, TestCaseError> {
    let map = map();
    let mut live = MotionDbBuilder::new(map.clone(), config).expect("valid config");
    let mut fed = Vec::new();
    let mut held: Vec<Held> = Vec::new();
    let mut paths = Paths::default();
    let (mut last, mut spare): (Option<Seen>, Option<Seen>) = (None, None);
    for &(spec, build, hold) in steps {
        let r = rlm(&map, spec);
        live.observe(r);
        fed.push(r);
        if !build {
            continue;
        }
        let (db, table, report): (Arc<MotionDb>, Arc<PairTable>, BuildReport) =
            live.build_snapshot();

        let mut fresh = MotionDbBuilder::new(map.clone(), config).expect("valid config");
        for r in &fed {
            fresh.observe(*r);
        }
        let (fresh_db, fresh_report) = fresh.build();
        prop_assert_eq!(bits(&db), bits(&fresh_db), "prefix {}", fed.len());
        prop_assert_eq!(report, fresh_report, "prefix {}", fed.len());
        prop_assert!(
            *table == PairTable::build(&db),
            "table at prefix {}",
            fed.len()
        );
        for h in &held {
            prop_assert_eq!(bits(&h.db), h.bits.clone(), "a held database changed");
            prop_assert!(*h.table == h.table_then, "a held table changed");
        }

        let now = Seen {
            db: address(&db),
            table: address(&table),
            keys: keys(&db),
            held: hold,
        };
        match &last {
            Some(seen) if seen.db == now.db => {
                prop_assert_eq!(seen.table, now.table);
                paths.unchanged += 1;
            }
            Some(seen) if seen.keys == now.keys => {
                match &spare {
                    Some(retired) if !retired.held => {
                        prop_assert_eq!((now.db, now.table), (retired.db, retired.table));
                        paths.in_place += 1;
                    }
                    _ => paths.copied += 1,
                }
                prop_assert!(now.db != seen.db && now.table != seen.table);
                spare = Some(seen.clone());
            }
            Some(seen) => {
                prop_assert!(now.db != seen.db && now.table != seen.table);
                spare = None;
                paths.rebuilt += 1;
            }
            // A first build that changed nothing returns the builder's
            // empty database; any other first build made pairs appear.
            None if now.keys.is_empty() => paths.unchanged += 1,
            None => paths.rebuilt += 1,
        }
        // A build that changed nothing keeps the record of the one it
        // returned, and the test holds it if it held it either time.
        let unchanged = last.as_ref().is_some_and(|seen| seen.db == now.db);
        if let (true, Some(seen)) = (unchanged, last.as_mut()) {
            seen.held |= hold;
        } else {
            last = Some(now);
        }
        if hold {
            held.push(Held {
                bits: bits(&db),
                table_then: (*table).clone(),
                db,
                table,
            });
        }
    }
    Ok(paths)
}

fn config(coarse_enabled: bool, fine_enabled: bool) -> SanitationConfig {
    SanitationConfig {
        coarse_enabled,
        fine_enabled,
        ..SanitationConfig::paper()
    }
}

proptest! {
    #[test]
    fn live_builds_match_fresh_builds_and_never_touch_held_ones(
        filters in (0u32..4, 0u32..4),
        steps in prop::collection::vec(step_strategy(), 1..80),
    ) {
        let (coarse, fine) = filters;
        run(config(coarse > 0, fine > 0), &steps)?;
    }
}

#[test]
fn both_buffer_paths_run() {
    // Three pairs built, then revisits of (1, 2) with a build after
    // each. The fourth build is held, so the sixth, whose retired
    // buffers those are, copies them; the other revisits write in place.
    let clean = |pick: usize, u: f64| Spec {
        kind: 0,
        pick,
        ids: (1, 2),
        u,
        v: 0.5,
        reverse: false,
    };
    let mut steps: Vec<Step> = Vec::new();
    for pick in 0..3 {
        for u in [0.3, 0.5, 0.7] {
            steps.push((clean(pick, u), pick == 2 && u == 0.7, false));
        }
    }
    for (n, u) in [0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.35].into_iter().enumerate() {
        steps.push((clean(0, u), true, n == 2));
    }
    let paths = run(config(true, true), &steps).expect("every build checks out");
    assert_eq!(
        paths,
        Paths {
            unchanged: 0,
            in_place: 5,
            copied: 2,
            rebuilt: 1,
        },
        "the first revisit copies (no retired build yet), the held one's successor copies"
    );
}
