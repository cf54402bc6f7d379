//! The paper's Fig. 1: distinguishing fingerprint twins with motion.
//!
//! Run with:
//!
//! ```text
//! cargo run --example twins
//! ```
//!
//! Reconstructs the three scenarios of the paper's motivating figure in
//! an open space with two APs on the line `y = 10`:
//!
//! * **(a)** locations mirrored across the AP line see the same
//!   distances to both APs, hence near-identical fingerprints — plain
//!   fingerprinting flips a coin;
//! * **(b)** starting from a *unique* location `p` (on the AP line, its
//!   own mirror) and walking to `q`, the motion measurement resolves
//!   the twins;
//! * **(c)** even with a wrong initial estimate (the user is at `p` but
//!   was localized at its twin `p′`), the retained candidate set plus
//!   motion recovers: the crowdsourced path `p′ → q′` is longer than
//!   `p → q` (a detour around furniture), so the measured offset
//!   singles out the true continuation.

use moloc::geometry::polygon::Aabb;
use moloc::prelude::*;
use moloc::radio::ap::AccessPoint;
use moloc::radio::pathloss::LogDistance;
use moloc::stats::gaussian::Gaussian;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fig. 1's world:
///
/// ```text
///          p′(L2)      q′(L4)
///   S1 ────── p_b(L5) ─────────── S2    (APs on y = 10)
///          p (L1)      q (L3)
/// ```
///
/// `p`/`p′` and `q`/`q′` mirror each other across the AP line; `p_b`
/// sits *on* the line, so it is its own mirror — the unique starting
/// point of scenario (b).
fn world() -> (RadioEnvironment, Vec<(LocationId, Vec2)>) {
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(30.0, 20.0)).unwrap());
    let env = RadioEnvironment::builder(plan)
        .ap(AccessPoint::new(0, Vec2::new(2.0, 10.0), -18.0))
        .ap(AccessPoint::new(1, Vec2::new(28.0, 10.0), -18.0))
        .path_loss(LogDistance::indoor_office())
        .temporal_sigma_db(2.0)
        .build()
        .expect("two valid APs");
    let locations = vec![
        (LocationId::new(1), Vec2::new(10.0, 6.0)),  // p
        (LocationId::new(2), Vec2::new(10.0, 14.0)), // p′ (mirror of p)
        (LocationId::new(3), Vec2::new(16.0, 6.0)),  // q
        (LocationId::new(4), Vec2::new(16.0, 14.0)), // q′ (mirror of q)
        (LocationId::new(5), Vec2::new(10.0, 10.0)), // p_b, on the AP line
    ];
    (env, locations)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (env, locations) = world();
    let mut rng = StdRng::seed_from_u64(1);

    // Site survey: mean of 40 scans per location.
    let fdb = FingerprintDb::from_samples(locations.iter().map(|&(id, pos)| {
        let scans: Vec<Fingerprint> = (0..40)
            .map(|_| Fingerprint::new(env.scan(pos, &mut rng).into_iter().map(f64::from).collect()))
            .collect();
        (id, scans)
    }))?;

    // Scenario (a): q and q′ really are twins.
    let gap = |a: LocationId, b: LocationId| -> f64 {
        fdb.fingerprint(a)
            .expect("surveyed")
            .values()
            .iter()
            .zip(fdb.fingerprint(b).expect("surveyed").values())
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt()
    };
    println!(
        "(a) fingerprint distance q ↔ q′: {:.2} dB; for comparison p ↔ q: {:.2} dB",
        gap(LocationId::new(3), LocationId::new(4)),
        gap(LocationId::new(1), LocationId::new(3)),
    );

    // The motion database, as crowdsourcing would have built it. The
    // aisle p′ → q′ detours around furniture, so its *walked* offset is
    // 8 m even though the straight-line distance is 6 m — exactly the
    // consistency property of Sec. IV-A.
    let pair = |dir: f64, off: f64| PairStats {
        direction: Gaussian::new(dir, 5.0).expect("valid std"),
        offset: Gaussian::new(off, 0.3).expect("valid std"),
        sample_count: 20,
    };
    let mut mdb = MotionDb::new(5);
    mdb.insert(LocationId::new(1), LocationId::new(3), pair(90.0, 6.0)); // p → q east 6 m
    mdb.insert(LocationId::new(2), LocationId::new(4), pair(90.0, 8.0)); // p′ → q′ east 8 m (detour)
    mdb.insert(LocationId::new(5), LocationId::new(3), pair(123.7, 7.2)); // p_b → q
    mdb.insert(LocationId::new(5), LocationId::new(4), pair(56.3, 7.2)); // p_b → q′

    let system = MoLoc::builder(fdb, mdb).build();
    let scan_at = |pos: Vec2, rng: &mut StdRng| {
        Fingerprint::new(env.scan(pos, rng).into_iter().map(f64::from).collect())
    };

    // Scenario (b): correct initial fix at the unique p_b, then walk
    // south-east to q. The twins q/q′ are separated by the *direction*.
    let mut tracker = system.tracker();
    let initial = tracker.observe(&scan_at(Vec2::new(10.0, 10.0), &mut rng), None)?;
    let walked = tracker.observe(
        &scan_at(Vec2::new(16.0, 6.0), &mut rng),
        Some(MotionMeasurement {
            direction_deg: 122.0,
            offset_m: 7.3,
        }),
    )?;
    println!("(b) initial estimate {initial}, after walking SE: {walked}");
    assert_eq!(initial, LocationId::new(5));
    assert_eq!(
        walked,
        LocationId::new(3),
        "direction should pick q over q′"
    );

    // Scenario (c): the user is at p but the initial scan's noise tips
    // the coin-flip toward the twin p′ — the candidate set retains
    // *both* with near-equal probability, p′ slightly ahead. Walking
    // 6 m east then matches p → q but not p′ → q′ (whose crowdsourced
    // offset is 8 m), so the retained candidates rescue the estimate.
    let mut tracker_c = system.tracker();
    let p_fp = system
        .fingerprint_db()
        .fingerprint(LocationId::new(1))
        .expect("surveyed")
        .clone();
    let p_twin_fp = system
        .fingerprint_db()
        .fingerprint(LocationId::new(2))
        .expect("surveyed")
        .clone();
    // A noisy scan at p that happens to sit slightly closer to p′'s
    // stored fingerprint.
    let tilted = Fingerprint::new(
        p_fp.values()
            .iter()
            .zip(p_twin_fp.values())
            .map(|(a, b)| 0.4 * a + 0.6 * b)
            .collect(),
    );
    let wrong_initial = tracker_c.observe(&tilted, None)?;
    let recovered = tracker_c.observe(
        &scan_at(Vec2::new(16.0, 6.0), &mut rng),
        Some(MotionMeasurement {
            direction_deg: 91.0,
            offset_m: 6.1,
        }),
    )?;
    let posterior_of = |id: u32| {
        tracker_c
            .posterior()
            .iter()
            .find(|(loc, _)| *loc == LocationId::new(id))
            .map_or(0.0, |&(_, p)| p)
    };
    println!(
        "(c) wrong initial estimate {wrong_initial}, after walking 6 m east: {recovered} \
         (posterior q = {:.3}, q′ = {:.3})",
        posterior_of(3),
        posterior_of(4),
    );
    assert_eq!(
        recovered,
        LocationId::new(3),
        "offset should pick q despite the wrong initial estimate"
    );
    Ok(())
}
