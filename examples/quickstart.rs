//! Quickstart: build a MoLoc system by hand and localize a short walk.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! A tiny world is assembled manually — three reference locations in a
//! row, two of which are fingerprint twins — to show the API surface of
//! the core crate: a fingerprint database, a motion database, and the
//! stateful tracker that fuses both.

use moloc::prelude::*;
use moloc::stats::gaussian::Gaussian;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three locations in a row, 4 m apart going east:
    //   L1 ── L2 ── L3
    // L1 and L3 are fingerprint twins (their RSS vectors are nearly
    // identical); L2 is distinctive.
    let fdb = FingerprintDb::from_fingerprints(vec![
        (LocationId::new(1), Fingerprint::new(vec![-50.0, -50.0])),
        (LocationId::new(2), Fingerprint::new(vec![-40.0, -70.0])),
        (LocationId::new(3), Fingerprint::new(vec![-50.0, -50.2])),
    ])?;

    // The motion database would normally be crowdsourced (see the
    // `office_hall` example); here we write the entries directly.
    let east = |offset: f64| PairStats {
        direction: Gaussian::new(90.0, 5.0).expect("valid std"),
        offset: Gaussian::new(offset, 0.3).expect("valid std"),
        sample_count: 10,
    };
    let mut mdb = MotionDb::new(3);
    mdb.insert(LocationId::new(1), LocationId::new(2), east(4.0));
    mdb.insert(LocationId::new(2), LocationId::new(3), east(4.0));
    mdb.insert(LocationId::new(1), LocationId::new(3), east(8.0));

    let system = MoLoc::builder(fdb, mdb)
        .config(MoLocConfig::paper())
        .build();
    let mut tracker = system.tracker();

    // First query: the user is at L2 (distinctive, easy).
    let first = tracker.observe(&Fingerprint::new(vec![-41.0, -69.0]), None)?;
    println!("initial estimate: {first}");

    // The user then walks 4 m east and queries with a fingerprint that
    // matches BOTH twins. Plain fingerprinting cannot tell L1 from L3;
    // the motion measurement resolves it.
    let twin_query = Fingerprint::new(vec![-50.1, -49.9]);
    let second = tracker.observe(
        &twin_query,
        Some(MotionMeasurement {
            direction_deg: 88.0,
            offset_m: 4.2,
        }),
    )?;
    println!("after walking 4 m east: {second}");
    assert_eq!(second, LocationId::new(3));

    // Walking back west returns to L2, then further west lands on L1 —
    // the *other* twin, again disambiguated purely by motion.
    let back = tracker.observe(
        &Fingerprint::new(vec![-40.5, -69.5]),
        Some(MotionMeasurement {
            direction_deg: 271.0,
            offset_m: 3.9,
        }),
    )?;
    println!("after walking 4 m west: {back}");
    let far_west = tracker.observe(
        &twin_query,
        Some(MotionMeasurement {
            direction_deg: 269.0,
            offset_m: 4.1,
        }),
    )?;
    println!("after walking another 4 m west: {far_west}");
    assert_eq!(far_west, LocationId::new(1));

    // The retained candidate set (the Eq. 7 posterior) is exposed for
    // inspection.
    println!("final candidate probabilities:");
    for (loc, p) in tracker.posterior() {
        println!("  {loc}: {p:.4}");
    }
    Ok(())
}
