//! Crowdsourced motion-database construction, step by step.
//!
//! Run with:
//!
//! ```text
//! cargo run --example crowdsourcing
//! ```
//!
//! Walks through Sec. IV of the paper on a small world: render one
//! user's sensor trace, extract per-interval measurements (steps via
//! CSC, raw compass direction), calibrate the heading offset, form
//! RLMs between *estimated* locations, and watch the two-level
//! sanitation separate good measurements from bad ones — including a
//! batch of deliberately corrupted RLMs.

use moloc::geometry::polygon::Aabb;
use moloc::mobility::intervals::measure_intervals;
use moloc::mobility::render::TraceRenderer;
use moloc::mobility::trajectory::Trajectory;
use moloc::mobility::user::paper_users;
use moloc::prelude::*;
use moloc::radio::ap::AccessPoint;
use moloc::radio::RadioMap;
use moloc::sensors::counting::csc;
use moloc::sensors::heading::HeadingOffsetEstimator;
use moloc::sensors::stride::offset_m;
use moloc::stats::circular::normalize_deg;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4×2 grid of reference locations in a small hall.
    let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(22.0, 12.0)).unwrap());
    let grid = ReferenceGrid::new(Vec2::new(3.0, 9.0), 4, 2, 5.0, 5.0)?;
    let graph = WalkGraph::from_grid(&grid, &plan);
    let env = RadioEnvironment::builder(plan)
        .ap(AccessPoint::new(0, Vec2::new(5.0, 6.0), -18.0))
        .ap(AccessPoint::new(1, Vec2::new(17.0, 6.0), -18.0))
        .ap(AccessPoint::new(2, Vec2::new(11.0, 2.0), -18.0))
        .temporal_sigma_db(2.0)
        .build()?;

    // Survey the fingerprint database (the prerequisite of Sec. IV).
    let mut rng = StdRng::seed_from_u64(7);
    let fdb = FingerprintDb::from_samples(grid.ids().map(|id| {
        let pos = grid.position(id);
        let scans: Vec<Fingerprint> = (0..40)
            .map(|_| Fingerprint::new(env.scan(pos, &mut rng).into_iter().map(f64::from).collect()))
            .collect();
        (id, scans)
    }))?;
    let localizer = NnLocalizer::new(&fdb);

    // One crowdsourcing user walks the same loop several times (each
    // pass contributes measurements; the paper's users walked for half
    // an hour each).
    let user = paper_users()[2];
    let loop_ids = [1u32, 2, 3, 4, 8, 7, 6, 5];
    let mut path: Vec<LocationId> = Vec::new();
    for lap in 0..5 {
        let skip = usize::from(lap > 0); // consecutive laps share a node
        path.extend(loop_ids.iter().skip(skip).map(|&i| LocationId::new(i)));
    }
    path.push(LocationId::new(1));
    let trajectory = Trajectory::from_path(&path, &grid, &user)?;
    let map = RadioMap::new(&env, &grid);
    let trace = TraceRenderer::default().render(&trajectory, &user, &map, &mut rng);
    println!(
        "rendered a {:.0}-second trace: {} passes, {} accel samples",
        trace.duration(),
        trace.pass_count(),
        trace.accel.len()
    );

    // Motion processing: steps and raw directions per interval.
    let detector = StepDetector::default();
    let intervals = measure_intervals(&trace, &detector);
    println!("\nfirst per-interval motion measurements:");
    for m in intervals.iter().take(8) {
        println!(
            "  interval {} → {}: {:.1} steps (CSC), raw direction {:6.1}°",
            m.from_index,
            m.to_index,
            m.steps_csc,
            m.raw_direction_deg.unwrap_or(f64::NAN)
        );
    }

    // Location estimates at each pass, via the fingerprint engine.
    let estimates: Vec<LocationId> = trace
        .scans
        .iter()
        .map(|scan| localizer.localize(&Fingerprint::new(scan.clone())))
        .collect::<Result<_, _>>()?;

    // Zee-style heading-offset calibration against map bearings of the
    // estimated endpoints.
    let map = MapReference::new(&grid, &graph);
    let mut calib = HeadingOffsetEstimator::new();
    for m in &intervals {
        let (from, to) = (estimates[m.from_index], estimates[m.to_index]);
        if from == to {
            continue;
        }
        if let (Some(raw), Some(reference)) = (m.raw_direction_deg, map.direction_deg(from, to)) {
            calib.observe(raw, reference);
        }
    }
    let offset = calib.offset_deg_trimmed(45.0).unwrap_or(0.0);
    let truth = user.placement_offset_deg + user.compass_bias_deg;
    println!(
        "\nheading calibration: estimated offset {offset:.1}° (true placement offset {truth:.1}°)"
    );

    // Feed the RLMs through the sanitizing builder, plus some corrupted
    // ones a buggy client might upload.
    let mut builder = MotionDbBuilder::new(map, SanitationConfig::paper())?;
    for m in &intervals {
        let (from, to) = (estimates[m.from_index], estimates[m.to_index]);
        if from == to {
            continue;
        }
        let Some(raw) = m.raw_direction_deg else {
            continue;
        };
        let rlm = Rlm::new(
            from,
            to,
            normalize_deg(raw - offset),
            offset_m(m.steps_csc, user.step_length_m()),
        )?;
        builder.observe(rlm);
    }
    // Corrupted uploads: offsets wildly off (e.g. step counter ran
    // during a bus ride).
    for k in 0..5 {
        let bad = Rlm::new(
            LocationId::new(1),
            LocationId::new(2),
            90.0,
            25.0 + k as f64,
        )?;
        builder.observe(bad);
    }
    let (db, report) = builder.build();
    println!("\nsanitation report: {report:?}");
    println!("motion database holds {} pairs:", db.pair_count());
    for (a, b, stats) in db.iter() {
        println!(
            "  {a} ↔ {b}: {:6.1}° ± {:4.1}°, {:4.2} m ± {:4.2} m",
            stats.direction.mean(),
            stats.direction.std(),
            stats.offset.mean(),
            stats.offset.std()
        );
    }
    // CSC's decimal steps in action: compare one interval's DSC/CSC.
    if let Some(m) = intervals.first() {
        println!(
            "\nstep counting on the first interval: DSC {:.0} steps vs CSC {:.2} steps over {:.1} s",
            m.steps_dsc, m.steps_csc, m.duration_s
        );
        let accel = trace.accel.slice_time(0.0, m.duration_s);
        let steps = detector.detect(&accel);
        println!("   (CSC recomputed: {:.2})", csc(&steps, m.duration_s));
    }
    Ok(())
}
