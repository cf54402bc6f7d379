//! Property-based tests for the IMU substrate.

use moloc_sensors::accel::GaitSynthesizer;
use moloc_sensors::compass::CompassSynthesizer;
use moloc_sensors::counting::{csc, dsc};
use moloc_sensors::filter::moving_average;
use moloc_sensors::gyro::{integrate_rates, GyroSynthesizer};
use moloc_sensors::heading::HeadingOffsetEstimator;
use moloc_sensors::heading::TrimmedOffset;
use moloc_sensors::series::TimeSeries;
use moloc_sensors::steps::{StepDetector, StepEvent};
use moloc_sensors::stride::StepLengthModel;
use moloc_stats::circular::{abs_diff_deg, circular_mean_deg, normalize_deg, signed_diff_deg};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn step_detection_count_matches_synthesis(
        n_steps in 4usize..20,
        period in 0.4..0.8f64,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let series = GaitSynthesizer::default().synthesize_walk(n_steps, period, 10.0, &mut rng);
        let detected = StepDetector::default().detect(&series).len();
        prop_assert!(
            (detected as i64 - n_steps as i64).abs() <= 2,
            "synthesized {n_steps}, detected {detected} (period {period})"
        );
    }

    #[test]
    fn csc_never_less_than_span_steps(
        times in prop::collection::vec(0.05..2.95f64, 2..10),
        interval in 3.0..4.0f64,
    ) {
        // Sorted, deduplicated peak times.
        let mut times = times;
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times.dedup_by(|a, b| (*a - *b).abs() < 0.05);
        prop_assume!(times.len() >= 2);
        let steps: Vec<StepEvent> = times
            .iter()
            .map(|&t| StepEvent { time: t, magnitude: 12.0 })
            .collect();
        let c = csc(&steps, interval);
        let d = dsc(&steps);
        // CSC adds odd-time steps on top of the (n−1) spanned periods.
        prop_assert!(c >= d - 1.0 - 1e-9, "csc {c} vs dsc {d}");
        prop_assert!(c.is_finite() && c >= 0.0);
    }

    #[test]
    fn csc_is_exact_for_perfectly_periodic_steps(
        n in 3usize..12,
        period in 0.3..0.9f64,
        phase in 0.0..0.29f64,
    ) {
        let interval = n as f64 * period;
        let steps: Vec<StepEvent> = (0..n)
            .map(|i| StepEvent {
                time: phase + i as f64 * period,
                magnitude: 12.0,
            })
            .collect();
        prop_assume!(steps.last().unwrap().time < interval);
        let estimate = csc(&steps, interval);
        prop_assert!(
            (estimate - n as f64).abs() < 1e-6,
            "estimate {estimate} vs true {n}"
        );
    }

    #[test]
    fn compass_readings_always_wrapped(
        heading in -720.0..720.0f64,
        offset in -360.0..360.0f64,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = CompassSynthesizer::new(offset, 10.0, 5.0);
        let r = c.read(heading, &mut rng);
        prop_assert!((0.0..360.0).contains(&r), "reading {r}");
    }

    #[test]
    fn heading_estimator_recovers_offset_from_clean_pairs(
        offset in 0.0..360.0f64,
        refs in prop::collection::vec(0.0..360.0f64, 3..20),
    ) {
        let mut est = HeadingOffsetEstimator::new();
        for &r in &refs {
            est.observe(r + offset, r);
        }
        let got = est.offset_deg().unwrap();
        prop_assert!(abs_diff_deg(got, offset) < 1e-6, "offset {offset} got {got}");
        let trimmed = est.offset_deg_trimmed(45.0).unwrap();
        prop_assert!(abs_diff_deg(trimmed, offset) < 1e-6);
    }

    #[test]
    fn trimmed_stats_match_the_two_pass_reference_bit_for_bit(
        offset in -30.0..30.0f64,
        pairs in prop::collection::vec((0.0..360.0f64, -200.0..200.0f64), 0..24),
        max_dev in 0.0..180.0f64,
    ) {
        // Offsets near 0 put the differences on both sides of 0°/360°;
        // noise up to ±200° makes wild pairs, and a small `max_dev`
        // often trims every pair (the untrimmed fallback).
        let mut est = HeadingOffsetEstimator::new();
        let mut diffs = Vec::new();
        for &(reference, noise) in &pairs {
            let reading = reference + offset + noise;
            est.observe(reading, reference);
            diffs.push(normalize_deg(signed_diff_deg(reference, reading)));
        }
        assert_trimmed_stats_match(&est, &diffs, max_dev)?;
    }

    #[test]
    fn gyro_integration_inverts_synthesis_without_noise(
        headings in prop::collection::vec(0.0..360.0f64, 2..40),
    ) {
        // Smooth the headings into small increments so rates stay sane.
        let mut smooth = vec![headings[0]];
        for h in &headings[1..] {
            let prev = *smooth.last().unwrap();
            let step = moloc_stats::circular::signed_diff_deg(prev, *h).clamp(-20.0, 20.0);
            smooth.push(moloc_stats::circular::normalize_deg(prev + step));
        }
        let truth = TimeSeries::new(0.0, 10.0, smooth.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let rates = GyroSynthesizer::ideal().synthesize(&truth, &mut rng);
        let integrated = integrate_rates(&rates, smooth[0]);
        for (i, &t) in smooth.iter().enumerate() {
            prop_assert!(
                abs_diff_deg(integrated.values()[i], t) < 1e-6,
                "sample {i}: {} vs {t}",
                integrated.values()[i]
            );
        }
    }

    #[test]
    fn moving_average_preserves_length_and_bounds(
        values in prop::collection::vec(-50.0..50.0f64, 1..60),
        window in 1usize..9,
    ) {
        let s = TimeSeries::new(0.0, 10.0, values.clone()).unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let out = moving_average(&s, window);
        prop_assert_eq!(out.len(), s.len());
        for &v in out.values() {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "filter escaped bounds");
        }
    }

    #[test]
    fn step_length_model_is_monotone_in_height(
        h1 in 1.2..2.1f64,
        h2 in 1.2..2.1f64,
        w in 40.0..110.0f64,
    ) {
        let m = StepLengthModel::default();
        let (short, tall) = if h1 <= h2 { (h1, h2) } else { (h2, h1) };
        prop_assert!(m.step_length_m(short, w) <= m.step_length_m(tall, w) + 1e-12);
    }

    #[test]
    fn slice_time_is_within_parent(
        values in prop::collection::vec(-5.0..5.0f64, 1..50),
        a in 0.0..5.0f64,
        b in 0.0..5.0f64,
    ) {
        let s = TimeSeries::new(0.0, 10.0, values).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let sub = s.slice_time(lo, hi);
        prop_assert!(sub.len() <= s.len());
        if !sub.is_empty() {
            prop_assert!(sub.t0() >= lo - 1e-9);
            prop_assert!(sub.t0() + sub.duration() <= hi + s.dt() + 1e-9);
        }
    }
}

/// `trimmed_stats` as two passes of `circular_mean_deg`: the mean of
/// every difference, then the mean of those within `max_dev` of it, or
/// the first mean over every difference when none is kept.
fn two_pass_trimmed(diffs: &[f64], max_dev: f64) -> Option<TrimmedOffset> {
    let initial = circular_mean_deg(diffs.iter().copied())?;
    let kept: Vec<f64> = diffs
        .iter()
        .copied()
        .filter(|&d| signed_diff_deg(d, initial).abs() <= max_dev)
        .collect();
    let (offset_deg, pool) = match circular_mean_deg(kept.iter().copied()) {
        Some(m) => (m, &kept[..]),
        None => (initial, diffs),
    };
    let n = pool.len() as f64;
    let std_deg = (pool
        .iter()
        .map(|&d| signed_diff_deg(d, offset_deg).abs().powi(2))
        .sum::<f64>()
        / n)
        .sqrt();
    Some(TrimmedOffset {
        offset_deg,
        std_deg,
        kept: pool.len(),
        total: diffs.len(),
    })
}

fn assert_trimmed_stats_match(
    est: &HeadingOffsetEstimator,
    diffs: &[f64],
    max_dev: f64,
) -> Result<(), TestCaseError> {
    let bits = |t: Option<TrimmedOffset>| {
        t.map(|t| (t.offset_deg.to_bits(), t.std_deg.to_bits(), t.kept, t.total))
    };
    prop_assert_eq!(
        bits(est.trimmed_stats(max_dev)),
        bits(two_pass_trimmed(diffs, max_dev))
    );
    Ok(())
}

#[test]
fn trimmed_stats_match_the_reference_at_the_corners() {
    // (reading, reference) pairs, the trim radius and the pairs kept:
    // differences across 0°/360° (one wild pair trimmed); pairs all
    // farther than the radius from their mean (every pair trimmed, so
    // the untrimmed mean and all pairs are kept); a resultant that
    // cancels (no estimate); and no pairs at all.
    type Case<'a> = (&'a [(f64, f64)], f64, Option<usize>);
    let cases: [Case; 5] = [
        (
            &[(5.0, 350.0), (10.0, 355.0), (350.0, 340.0), (1.0, 200.0)],
            45.0,
            Some(3),
        ),
        (&[(0.0, 0.0), (90.0, 0.0)], 10.0, Some(2)),
        (&[(10.0, 0.0), (100.0, 0.0), (200.0, 0.0)], 0.0, Some(3)),
        (&[(0.0, 0.0), (180.0, 0.0)], 45.0, None),
        (&[], 45.0, None),
    ];
    for (pairs, max_dev, kept) in cases {
        let mut est = HeadingOffsetEstimator::new();
        let mut diffs = Vec::new();
        for &(reading, reference) in pairs {
            est.observe(reading, reference);
            diffs.push(normalize_deg(signed_diff_deg(reference, reading)));
        }
        assert_trimmed_stats_match(&est, &diffs, max_dev).unwrap();
        assert_eq!(
            est.trimmed_stats(max_dev).map(|s| s.kept),
            kept,
            "{pairs:?}"
        );
    }
}
