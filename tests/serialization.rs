//! Serde round-trip tests: the deployable artifacts (databases,
//! configurations, measurements) must survive serialization, since a
//! real deployment ships them between phones and a server.

use moloc::core::config::MoLocConfig;
use moloc::core::tracker::MotionMeasurement;
use moloc::geometry::polygon::Aabb;
use moloc::mobility::render::{SensorTrace, TraceRenderer};
use moloc::mobility::trajectory::Trajectory;
use moloc::mobility::user::paper_users;
use moloc::prelude::*;
use moloc::radio::RadioMap;
use moloc::sensors::series::TimeSeries;
use moloc::stats::gaussian::Gaussian;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn l(i: u32) -> LocationId {
    LocationId::new(i)
}

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn fingerprint_round_trips() {
    let fp = Fingerprint::new(vec![-40.5, -62.25, -71.0]);
    assert_eq!(round_trip(&fp), fp);
}

#[test]
fn fingerprint_db_round_trips() {
    let db = FingerprintDb::from_fingerprints(vec![
        (l(1), Fingerprint::new(vec![-40.0, -60.0])),
        (l(2), Fingerprint::new(vec![-60.0, -40.0])),
    ])
    .unwrap();
    let back = round_trip(&db);
    assert_eq!(back, db);
    assert_eq!(back.fingerprint(l(2)).unwrap().values(), &[-60.0, -40.0]);
}

#[test]
fn motion_db_round_trips_with_mirror_semantics() {
    let mut db = MotionDb::new(4);
    db.insert(
        l(1),
        l(3),
        PairStats {
            direction: Gaussian::new(90.0, 4.0).unwrap(),
            offset: Gaussian::new(5.8, 0.2).unwrap(),
            sample_count: 31,
        },
    );
    let back = round_trip(&db);
    assert_eq!(back, db);
    // Mirror lookups still derive after the round trip.
    let rev = back.get(l(3), l(1)).unwrap();
    assert_eq!(rev.direction.mean(), 270.0);
    assert_eq!(rev.sample_count, 31);
}

/// A database over five locations with three pairs, inserted out of
/// key order and one of them reversed.
fn three_pair_motion_db() -> MotionDb {
    let stats = |dir: f64, dir_std: f64, off: f64, off_std: f64, n: u64| PairStats {
        direction: Gaussian::new(dir, dir_std).unwrap(),
        offset: Gaussian::new(off, off_std).unwrap(),
        sample_count: n,
    };
    let mut db = MotionDb::new(5);
    db.insert(l(4), l(2), stats(270.5, 4.0, 5.8, 0.2, 31));
    db.insert(l(1), l(3), stats(90.0, 3.5, 2.25, 0.5, 7));
    db.insert(l(1), l(2), stats(12.0, 6.0, 1.5, 0.125, 3));
    db
}

/// The entry list as the database serialized it when it was a map.
const THREE_PAIR_JSON: &str = concat!(
    r#"{"location_count":5,"entries":["#,
    r#"[1,2,{"direction":{"mean":12,"std":6},"offset":{"mean":1.5,"std":0.125},"sample_count":3}],"#,
    r#"[1,3,{"direction":{"mean":90,"std":3.5},"offset":{"mean":2.25,"std":0.5},"sample_count":7}],"#,
    r#"[2,4,{"direction":{"mean":90.5,"std":4},"offset":{"mean":5.8,"std":0.2},"sample_count":31}]]}"#,
);

#[test]
fn motion_db_serializes_to_the_same_bytes() {
    let db = three_pair_motion_db();
    assert_eq!(serde_json::to_string(&db).unwrap(), THREE_PAIR_JSON);
    let back: MotionDb = serde_json::from_str(THREE_PAIR_JSON).unwrap();
    assert_eq!(back, db);
}

#[test]
fn motion_db_reads_an_unsorted_list_and_keeps_the_last_duplicate() {
    let json = concat!(
        r#"{"location_count":5,"entries":["#,
        r#"[2,4,{"direction":{"mean":90.5,"std":4},"offset":{"mean":5.8,"std":0.2},"sample_count":31}],"#,
        r#"[1,3,{"direction":{"mean":1,"std":1},"offset":{"mean":1,"std":1},"sample_count":1}],"#,
        r#"[1,2,{"direction":{"mean":12,"std":6},"offset":{"mean":1.5,"std":0.125},"sample_count":3}],"#,
        r#"[1,3,{"direction":{"mean":90,"std":3.5},"offset":{"mean":2.25,"std":0.5},"sample_count":7}]]}"#,
    );
    let db: MotionDb = serde_json::from_str(json).unwrap();
    assert_eq!(db, three_pair_motion_db());
    let keys: Vec<_> = db.iter().map(|(a, b, _)| (a.get(), b.get())).collect();
    assert_eq!(keys, [(1, 2), (1, 3), (2, 4)]);
    assert_eq!(
        db.get(l(3), l(1)).unwrap().sample_count,
        7,
        "the last (1, 3) wins"
    );
    assert_eq!(serde_json::to_string(&db).unwrap(), THREE_PAIR_JSON);
}

#[test]
fn motion_db_refuses_pairs_it_cannot_hold() {
    let pair =
        r#"{"direction":{"mean":12,"std":6},"offset":{"mean":1.5,"std":0.125},"sample_count":3}"#;
    // Reversed, a self-pair, id 0, and an id beyond the 5 locations.
    for (i, j) in [(2, 1), (3, 3), (0, 2), (1, 6), (1, 4_000_000_000u32)] {
        let json = format!(r#"{{"location_count":5,"entries":[[{i},{j},{pair}]]}}"#);
        let err = serde_json::from_str::<MotionDb>(&json).unwrap_err();
        assert!(
            err.to_string()
                .contains("not a canonical pair of 5 locations"),
            "({i}, {j}): {err}"
        );
    }
}

#[test]
fn rlm_round_trips() {
    let rlm = Rlm::new(l(5), l(2), 271.5, 5.75).unwrap();
    let back = round_trip(&rlm);
    assert_eq!(back, rlm);
    assert_eq!(back.canonical().from, l(2));
}

#[test]
fn location_id_zero_does_not_deserialize() {
    assert_eq!(serde_json::to_string(&l(1)).unwrap(), "1");
    assert_eq!(round_trip(&l(1)), l(1));
    let err = serde_json::from_str::<LocationId>("0").unwrap_err();
    assert!(err.to_string().contains("1-based"), "{err}");
}

#[test]
fn an_rlm_from_location_zero_does_not_deserialize() {
    let good = r#"{"from":1,"to":2,"direction_deg":90.0,"offset_m":2.0}"#;
    assert_eq!(
        serde_json::from_str::<Rlm>(good).unwrap(),
        Rlm::new(l(1), l(2), 90.0, 2.0).unwrap()
    );
    let zero = r#"{"from":0,"to":2,"direction_deg":90.0,"offset_m":2.0}"#;
    let err = serde_json::from_str::<Rlm>(zero).unwrap_err();
    assert!(err.to_string().contains("1-based"), "{err}");
}

#[test]
fn an_rlm_that_rlm_new_refuses_does_not_deserialize() {
    // A self-loop used to deserialize, and five of them fed to a
    // builder with the coarse filter off panicked its build ("motion
    // database has no self-pairs").
    for (json, why) in [
        (
            r#"{"from":2,"to":2,"direction_deg":90.0,"offset_m":2.0}"#,
            "endpoints must differ",
        ),
        (
            r#"{"from":1,"to":2,"direction_deg":90.0,"offset_m":-2.0}"#,
            "offset must be finite and non-negative",
        ),
        (
            r#"{"from":1,"to":2,"direction_deg":90.0,"offset_m":1e999}"#,
            "offset must be finite and non-negative",
        ),
        (
            r#"{"from":1,"to":2,"direction_deg":-1e999,"offset_m":2.0}"#,
            "direction must be finite",
        ),
    ] {
        let err = serde_json::from_str::<Rlm>(json).unwrap_err();
        assert!(err.to_string().contains(why), "{json}: {err}");
    }
    // The direction comes out normalized, as from `Rlm::new`.
    let wrapped = r#"{"from":1,"to":2,"direction_deg":450.0,"offset_m":2.0}"#;
    assert_eq!(
        serde_json::from_str::<Rlm>(wrapped).unwrap(),
        Rlm::new(l(1), l(2), 90.0, 2.0).unwrap()
    );
}

#[test]
fn a_gaussian_that_gaussian_new_refuses_does_not_deserialize() {
    let g = Gaussian::new(12.0, 6.0).unwrap();
    assert_eq!(round_trip(&g), g);
    for json in [
        r#"{"mean":12,"std":0}"#,
        r#"{"mean":12,"std":-6}"#,
        r#"{"mean":12,"std":1e999}"#,
        r#"{"mean":-1e999,"std":6}"#,
    ] {
        let err = serde_json::from_str::<Gaussian>(json).unwrap_err();
        assert!(
            err.to_string()
                .contains("standard deviation must be finite and positive"),
            "{json}: {err}"
        );
    }
}

#[test]
fn a_motion_db_with_a_degenerate_pair_does_not_deserialize() {
    // A zero direction std used to deserialize, and the mirrored lookup
    // `get(2, 1)` (and so every kernel build) then panicked.
    let json = THREE_PAIR_JSON.replacen(
        r#"{"direction":{"mean":12,"std":6}"#,
        r#"{"direction":{"mean":12,"std":0}"#,
        1,
    );
    assert_ne!(json, THREE_PAIR_JSON);
    let err = serde_json::from_str::<MotionDb>(&json).unwrap_err();
    assert!(err.to_string().contains("standard deviation"), "{err}");
}

#[test]
fn a_fingerprint_db_with_location_zero_does_not_deserialize() {
    let db = FingerprintDb::from_fingerprints(vec![
        (l(1), Fingerprint::new(vec![-40.0, -60.0])),
        (l(2), Fingerprint::new(vec![-60.0, -40.0])),
    ])
    .unwrap();
    let json = serde_json::to_string(&db).unwrap();
    assert_eq!(round_trip(&db), db);
    let zero = json.replacen("[1,", "[0,", 1);
    assert_ne!(zero, json, "the id-1 entry was found: {json}");
    let err = serde_json::from_str::<FingerprintDb>(&zero).unwrap_err();
    assert!(err.to_string().contains("1-based"), "{err}");
}

#[test]
fn configs_round_trip() {
    let config = MoLocConfig {
        k: 6,
        alpha_deg: 15.0,
        ..MoLocConfig::paper()
    };
    assert_eq!(round_trip(&config), config);

    let sanitation = SanitationConfig {
        coarse_offset_m: 2.5,
        ..SanitationConfig::paper()
    };
    assert_eq!(round_trip(&sanitation), sanitation);
}

#[test]
fn motion_measurement_round_trips() {
    let m = MotionMeasurement {
        direction_deg: 123.4,
        offset_m: 4.2,
    };
    assert_eq!(round_trip(&m), m);
}

#[test]
fn candidate_set_round_trips_normalized() {
    // The retained candidate set is the engine's Eq. 7 posterior: it
    // survives serialization bit for bit, still normalized, and an
    // engine restored from the copy continues identically.
    let fdb = FingerprintDb::from_fingerprints(vec![
        (l(1), Fingerprint::new(vec![-40.0, -70.0])),
        (l(2), Fingerprint::new(vec![-55.0, -55.0])),
        (l(3), Fingerprint::new(vec![-70.0, -40.0])),
    ])
    .unwrap();
    let mut mdb = MotionDb::new(3);
    let east = PairStats {
        direction: Gaussian::new(90.0, 5.0).unwrap(),
        offset: Gaussian::new(4.0, 0.3).unwrap(),
        sample_count: 9,
    };
    mdb.insert(l(1), l(2), east);
    mdb.insert(l(2), l(3), east);
    let system = MoLoc::builder(fdb, mdb).build();
    let walk = Some(MotionMeasurement {
        direction_deg: 91.0,
        offset_m: 4.1,
    });
    let mut tracker = system.tracker();
    tracker
        .observe(&Fingerprint::new(vec![-41.0, -69.0]), None)
        .unwrap();
    tracker
        .observe(&Fingerprint::new(vec![-54.0, -56.0]), walk)
        .unwrap();

    let set: Vec<(LocationId, f64)> = tracker.posterior().to_vec();
    let back = round_trip(&set);
    let bits = |s: &[(LocationId, f64)]| {
        s.iter()
            .map(|&(id, p)| (id, p.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&back), bits(&set));
    let total: f64 = back.iter().map(|(_, p)| p).sum();
    assert!((total - 1.0).abs() < 1e-12, "total {total}");

    let mut resumed = system.tracker();
    resumed.restore_posterior(&back, tracker.last_flags());
    let next = Fingerprint::new(vec![-69.0, -41.0]);
    assert_eq!(resumed.observe(&next, walk), tracker.observe(&next, walk));
    assert_eq!(bits(resumed.posterior()), bits(tracker.posterior()));
}

#[test]
fn user_profile_round_trips() {
    let user = moloc::mobility::user::paper_users()[2];
    assert_eq!(round_trip(&user), user);
}

/// Sample rates `TimeSeries::new` refuses, as JSON: `1e999` parses to
/// infinity.
const BAD_RATES: [&str; 3] = ["0.0", "-10.0", "1e999"];

/// Eight accelerometer samples of one walking stride pair: enough
/// variance that the step detector smooths them, which is where a
/// series with a refused rate used to panic.
const WALKING: &str = "[9.8,12.4,9.1,7.0,9.8,12.6,9.0,6.9]";

#[test]
fn a_time_series_that_time_series_new_refuses_does_not_deserialize() {
    for rate in BAD_RATES {
        let json = format!(r#"{{"t0":0.0,"sample_rate_hz":{rate},"values":{WALKING}}}"#);
        assert!(
            serde_json::from_str::<TimeSeries>(&json).is_err(),
            "rate {rate} deserialized"
        );
    }
    // The same series at a valid rate deserializes and detects steps
    // without panicking.
    let json = format!(r#"{{"t0":0.0,"sample_rate_hz":10.0,"values":{WALKING}}}"#);
    let series: TimeSeries = serde_json::from_str(&json).expect("valid rate");
    StepDetector::default().detect(&series);
}

#[test]
fn a_sensor_trace_carrying_a_refused_series_does_not_deserialize() {
    let trace = short_trace();
    let json = serde_json::to_string(&trace).expect("serializes");
    assert_eq!(serde_json::from_str::<SensorTrace>(&json).unwrap(), trace);
    let rate = serde_json::to_string(&trace.accel.sample_rate_hz()).expect("serializes");
    let field = format!(r#""sample_rate_hz":{rate}"#);
    assert!(json.contains(&field), "{field} not in the trace's JSON");
    for bad in BAD_RATES {
        let corrupt = json.replacen(&field, &format!(r#""sample_rate_hz":{bad}"#), 1);
        assert!(
            serde_json::from_str::<SensorTrace>(&corrupt).is_err(),
            "a trace with accel rate {bad} deserialized"
        );
    }
}

#[test]
fn a_valid_time_series_round_trips_byte_for_byte() {
    let series = TimeSeries::new(1.25, 50.0, vec![9.8, -0.1, 1e-300, 12.375]).unwrap();
    let json = serde_json::to_string(&series).expect("serializes");
    let back: TimeSeries = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, series);
    assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
}

#[test]
fn a_default_time_series_and_a_trace_holding_one_round_trip_byte_for_byte() {
    let series = TimeSeries::default();
    let json = serde_json::to_string(&series).expect("serializes");
    let back: TimeSeries = serde_json::from_str(&json).expect("a default series deserializes");
    assert_eq!(back, series);
    assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
    // A trace whose sensors recorded nothing.
    let mut trace = short_trace();
    trace.accel = TimeSeries::default();
    trace.compass = TimeSeries::default();
    let json = serde_json::to_string(&trace).expect("serializes");
    let back: SensorTrace = serde_json::from_str(&json).expect("the trace deserializes");
    assert_eq!(back, trace);
    assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
}

/// A two-pass trace over a 3 × 2 grid.
fn short_trace() -> SensorTrace {
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(20.0, 10.0)).unwrap());
    let env = RadioEnvironment::builder(plan)
        .ap(AccessPoint::new(0, Vec2::new(10.0, 5.0), -20.0))
        .build()
        .unwrap();
    let grid = ReferenceGrid::new(Vec2::new(2.0, 8.0), 3, 2, 4.0, 4.0).unwrap();
    let user = paper_users()[1];
    let trajectory = Trajectory::from_path(&[l(1), l(2)], &grid, &user).unwrap();
    let map = RadioMap::new(&env, &grid);
    TraceRenderer::default().render(&trajectory, &user, &map, &mut StdRng::seed_from_u64(3))
}

#[test]
fn deployed_system_survives_database_round_trips() {
    // Serialize both databases, rebuild the system, and check the
    // tracker behaves identically.
    let fdb = FingerprintDb::from_fingerprints(vec![
        (l(1), Fingerprint::new(vec![-40.0, -70.0])),
        (l(2), Fingerprint::new(vec![-70.0, -40.0])),
    ])
    .unwrap();
    let mut mdb = MotionDb::new(2);
    mdb.insert(
        l(1),
        l(2),
        PairStats {
            direction: Gaussian::new(90.0, 5.0).unwrap(),
            offset: Gaussian::new(5.0, 0.3).unwrap(),
            sample_count: 9,
        },
    );
    let original = MoLoc::builder(fdb.clone(), mdb.clone()).build();
    let revived = MoLoc::builder(round_trip(&fdb), round_trip(&mdb)).build();

    let queries = [
        (Fingerprint::new(vec![-41.0, -69.0]), None),
        (
            Fingerprint::new(vec![-69.0, -41.0]),
            Some(MotionMeasurement {
                direction_deg: 91.0,
                offset_m: 5.1,
            }),
        ),
    ];
    assert_eq!(
        original.localize_sequence(&queries).unwrap(),
        revived.localize_sequence(&queries).unwrap()
    );
}
