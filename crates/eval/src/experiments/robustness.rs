//! Robustness experiment: localization quality under injected faults.
//!
//! Sweeps three fault axes — AP dropout rate, RLM corruption fraction,
//! and sensor-gap length — and reports median/mean error, accuracy, and
//! how often each rung of the degradation ladder fired. The zero
//! intensity of every axis runs the injectors at exact no-op settings,
//! so those points double as a bit-identity check against the clean
//! pipeline. Results serialize to `ROBUST_pr3.json`; the sweep is
//! seeded, so CI requires a fresh run to match that file byte for byte.

use crate::metrics::{flatten, summarize};
use crate::parallel::par_run;
use crate::pipeline::{analyze_trace_indexed, EvalWorld, PassOutcome, Setting};
use crate::report;
use moloc_core::batch::BatchLocalizer;
use moloc_core::config::MoLocConfig;
use moloc_core::error::DegradationFlags;
use moloc_core::matching::build_kernel;
use moloc_faults::plan::{apply_to_trace, FaultPlan};
use moloc_faults::{ApDropout, RlmCorruption, SensorGap};
use moloc_fingerprint::index::FingerprintIndex;
use moloc_sensors::steps::StepDetector;
use serde::{Deserialize, Serialize};

/// How often each degradation rung fired, over all scored passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationCounts {
    /// Total scored passes.
    pub passes: usize,
    /// Passes localized through the masked (missing-AP) metric.
    pub masked: usize,
    /// Passes where every AP was missing (uniform fingerprint prior).
    pub no_observed: usize,
    /// Passes that fell back from fusion to the fingerprint-only prior.
    pub motion_fallback: usize,
    /// Passes that reset the candidate distribution and history.
    pub candidate_reset: usize,
}

impl DegradationCounts {
    fn record(&mut self, flags: DegradationFlags) {
        self.passes += 1;
        if flags.contains(DegradationFlags::MASKED_QUERY) {
            self.masked += 1;
        }
        if flags.contains(DegradationFlags::NO_OBSERVED_APS) {
            self.no_observed += 1;
        }
        if flags.contains(DegradationFlags::MOTION_FALLBACK) {
            self.motion_fallback += 1;
        }
        if flags.contains(DegradationFlags::CANDIDATE_RESET) {
            self.candidate_reset += 1;
        }
    }

    fn merge(&mut self, other: &DegradationCounts) {
        self.passes += other.passes;
        self.masked += other.masked;
        self.no_observed += other.no_observed;
        self.motion_fallback += other.motion_fallback;
        self.candidate_reset += other.candidate_reset;
    }

    fn share(count: usize, passes: usize) -> f64 {
        if passes == 0 {
            0.0
        } else {
            count as f64 / passes as f64
        }
    }
}

/// Runs MoLoc over the test traces with a fault plan applied to every
/// pipeline input: the fingerprint database, the motion database, and
/// each test trace's scans and sensor streams.
///
/// Every step asserts the invariant the degradation layer guarantees —
/// a finite, normalized posterior — so any fault combination that
/// produced NaN or unnormalized mass fails loudly here instead of
/// skewing the sweep.
pub fn localize_faulted(
    world: &EvalWorld,
    setting: &Setting,
    config: MoLocConfig,
    plan: &dyn FaultPlan,
) -> (Vec<Vec<PassOutcome>>, DegradationCounts) {
    let fdb = plan.apply_fingerprint_db(setting.fdb.clone());
    let mut motion_db = setting.motion_db.clone();
    plan.apply_motion_db(&mut motion_db);
    let index = FingerprintIndex::build(&fdb);
    let kernel = build_kernel(&motion_db, &config);
    let detector = StepDetector::default();

    let per_trace = par_run(world.corpus.test.len(), |trace_index| {
        let mut trace = world.corpus.test[trace_index].clone();
        apply_to_trace(plan, trace_index as u64, &mut trace);
        let analysis = analyze_trace_indexed(
            &trace,
            &fdb,
            &index,
            &world.hall,
            &detector,
            setting.counting,
            setting.n_aps,
        );
        let mut engine = BatchLocalizer::new_with_index(&index, &kernel, config);
        let mut counts = DegradationCounts::default();
        let outcomes: Vec<PassOutcome> = trace
            .passes
            .iter()
            .zip(&trace.scans)
            .enumerate()
            .map(|(pass_index, (pass, scan))| {
                let motion = if pass_index == 0 {
                    None
                } else {
                    analysis.measurements[pass_index - 1]
                };
                let estimate = engine
                    .observe_slice(&scan[..setting.n_aps], motion)
                    .expect("query length matches database");
                counts.record(engine.last_flags());
                let posterior = engine.posterior();
                let total: f64 = posterior.iter().map(|(_, p)| p).sum();
                assert!(
                    posterior.iter().all(|(_, p)| p.is_finite() && *p >= 0.0)
                        && (total - 1.0).abs() < 1e-9,
                    "posterior not normalized under {} (trace {trace_index}, pass \
                     {pass_index}): total {total}",
                    plan.name(),
                );
                PassOutcome {
                    trace_index,
                    pass_index,
                    truth: pass.location,
                    estimate,
                    error_m: world.hall.grid.distance(pass.location, estimate),
                }
            })
            .collect();
        (outcomes, counts)
    });

    let mut counts = DegradationCounts::default();
    let mut outcomes = Vec::with_capacity(per_trace.len());
    for (trace_outcomes, trace_counts) in per_trace {
        counts.merge(&trace_counts);
        outcomes.push(trace_outcomes);
    }
    (outcomes, counts)
}

/// One point of a fault-intensity sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Which fault axis was swept (`ap_dropout`, `rlm_corruption`,
    /// `sensor_gap`).
    pub axis: String,
    /// Axis-specific intensity: dropout rate, corruption fraction, or
    /// gap length in seconds.
    pub intensity: f64,
    /// Scored passes.
    pub passes: usize,
    /// Exact-hit fraction.
    pub accuracy: f64,
    /// Median localization error in meters.
    pub median_error_m: f64,
    /// Mean localization error in meters.
    pub mean_error_m: f64,
    /// Maximum localization error in meters.
    pub max_error_m: f64,
    /// Fraction of passes that used the masked metric.
    pub masked_share: f64,
    /// Fraction of passes that fell back to fingerprint-only.
    pub motion_fallback_share: f64,
    /// Fraction of passes that reset the candidate distribution.
    pub candidate_reset_share: f64,
}

/// The full robustness sweep (serialized as `ROBUST_pr3.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Robustness {
    /// World seed.
    pub seed: u64,
    /// AP count of the evaluated setting.
    pub n_aps: usize,
    /// Sweep points, grouped by axis in sweep order.
    pub points: Vec<RobustnessPoint>,
}

fn point(
    axis: &str,
    intensity: f64,
    outcomes: &[Vec<PassOutcome>],
    counts: &DegradationCounts,
) -> RobustnessPoint {
    let summary = summarize(&flatten(outcomes));
    RobustnessPoint {
        axis: axis.to_string(),
        intensity,
        passes: summary.passes,
        accuracy: summary.accuracy,
        median_error_m: summary.median_error_m,
        mean_error_m: summary.mean_error_m,
        max_error_m: summary.max_error_m,
        masked_share: DegradationCounts::share(counts.masked, counts.passes),
        motion_fallback_share: DegradationCounts::share(counts.motion_fallback, counts.passes),
        candidate_reset_share: DegradationCounts::share(counts.candidate_reset, counts.passes),
    }
}

/// Runs the three-axis sweep at the paper's 6-AP setting.
///
/// `seed` keys the fault injectors (offset per axis so the axes draw
/// independent randomness); the world itself is the caller's.
pub fn run(world: &EvalWorld, seed: u64) -> Robustness {
    let n_aps = 6;
    let setting = world.setting(n_aps);
    let config = MoLocConfig::paper();
    let mut points = Vec::new();

    for &rate in &[0.0, 0.1, 0.25, 0.5] {
        let plan = ApDropout { rate, seed };
        let (outcomes, counts) = localize_faulted(world, &setting, config, &plan);
        points.push(point("ap_dropout", rate, &outcomes, &counts));
    }
    for &fraction in &[0.0, 0.25, 0.5, 0.9] {
        let plan = RlmCorruption {
            fraction,
            seed: seed ^ 0x0052_4C4D,
        };
        let (outcomes, counts) = localize_faulted(world, &setting, config, &plan);
        points.push(point("rlm_corruption", fraction, &outcomes, &counts));
    }
    for &gap_s in &[0.0, 1.0, 3.0, 6.0] {
        let plan = SensorGap {
            gaps_per_trace: 2,
            gap_s,
            seed: seed ^ 0x0047_4150,
        };
        let (outcomes, counts) = localize_faulted(world, &setting, config, &plan);
        points.push(point("sensor_gap", gap_s, &outcomes, &counts));
    }

    Robustness {
        seed,
        n_aps,
        points,
    }
}

/// Renders the sweep as a markdown table.
pub fn render(r: &Robustness) -> String {
    let mut out = format!(
        "# Robustness: fault-intensity sweeps ({} APs, seed {})\n\n",
        r.n_aps, r.seed
    );
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.axis.clone(),
                format!("{:.2}", p.intensity),
                format!("{:.0}%", p.accuracy * 100.0),
                format!("{:.2}", p.median_error_m),
                format!("{:.2}", p.mean_error_m),
                format!("{:.0}%", p.masked_share * 100.0),
                format!("{:.0}%", p.motion_fallback_share * 100.0),
                format!("{:.0}%", p.candidate_reset_share * 100.0),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "Fault axis",
            "Intensity",
            "Accuracy",
            "Median err (m)",
            "Mean err (m)",
            "Masked",
            "FP-only",
            "Reset",
        ],
        &rows,
    ));
    out.push('\n');
    out
}
