//! The end-to-end trace-driven evaluation pipeline (paper Sec. VI-A).
//!
//! ```text
//! OfficeHall ──► SiteSurvey (60 samples/location, 40/10/10)
//!            ──► TraceCorpus (184 traces, 150 train / 34 test)
//!                     │
//!     per AP-count ───┴─► FingerprintDb (40-sample means)
//!                      └─► MotionDb  (crowdsourced from train traces)
//!                               │
//!                               ├─► WiFi baseline over test traces
//!                               └─► MoLoc over test traces
//! ```
//!
//! Heading calibration mirrors the Zee-style procedure the paper
//! borrows: per trace, the constant compass-to-motion offset is the
//! circular mean of (raw compass direction − map bearing between the
//! *estimated* locations of the interval), so localization errors leak
//! into the calibration exactly as they would in the real system.

use crate::arena::{give_back, ArenaPool};
use crate::parallel::{default_chunk, par_run, par_shards, thread_count};
use crate::runtime::SlotVec;
use crate::scenario::{HallConfig, OfficeHall};
use moloc_core::batch::{BatchLocalizer, BatchScratch};
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_core::tracker::MotionMeasurement;
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_fingerprint::nn_localizer::NnLocalizer;
use moloc_geometry::LocationId;
use moloc_mobility::corpus::{CorpusConfig, TraceCorpus};
use moloc_mobility::intervals::{measure_intervals, IntervalMeasurement};
use moloc_mobility::render::SensorTrace;
use moloc_mobility::user::paper_users;
use moloc_motion::builder::{BuildReport, MotionDbBuilder};
use moloc_motion::filter::SanitationConfig;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::matrix::MotionDb;
use moloc_motion::rlm::Rlm;
use moloc_radio::survey::{SiteSurvey, SurveySplit};
use moloc_radio::RadioMap;
use moloc_sensors::heading::{HeadingOffsetEstimator, TrimmedOffset};
use moloc_sensors::steps::StepDetector;
use moloc_sensors::stride::offset_m;
use moloc_stats::circular::normalize_deg;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which step-counting estimator feeds offsets (CSC is the paper's).
pub use moloc_sensors::counting::CountingMethod;

/// The expensive, AP-count-independent world state.
///
/// The build also measures every trace's inter-pass intervals once
/// (compass direction and step counts, `measure_intervals` with the
/// default [`StepDetector`]) and keeps them beside the corpus, so a
/// setting rebuild or a localization round reads them back through
/// [`EvalWorld::analyze`] instead of re-running the pedometer. The
/// fields stay public for read access, but a built world's corpus is
/// read-only: replacing or editing a trace would leave its stored
/// intervals describing the old one.
#[derive(Debug, Clone)]
pub struct EvalWorld {
    /// The testbed.
    pub hall: OfficeHall,
    /// The 60-samples-per-location site survey.
    pub survey: SiteSurvey,
    /// The walking-trace corpus.
    pub corpus: TraceCorpus,
    /// Each training trace's measured intervals, in `corpus.train` order.
    train_intervals: Vec<Vec<IntervalMeasurement>>,
    /// Each test trace's measured intervals, in `corpus.test` order.
    test_intervals: Vec<Vec<IntervalMeasurement>>,
}

/// Which half of a world's corpus a trace belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSplit {
    /// The traces that train the motion database.
    Train,
    /// The held-out traces that are localized.
    Test,
}

impl EvalWorld {
    /// Builds the paper-scale world (184 traces).
    pub fn paper(seed: u64) -> Self {
        Self::build(HallConfig::default(), CorpusConfig::paper(seed), seed)
    }

    /// Builds a reduced world for fast tests and benches (90 traces).
    pub fn small(seed: u64) -> Self {
        Self::build(HallConfig::default(), CorpusConfig::small(seed), seed)
    }

    /// Builds a world with explicit hall and corpus configurations.
    ///
    /// The survey and every trace draw about one [`RadioMap`] of the
    /// hall. The survey is one RNG stream, drawn serially; the traces
    /// render on the worker pool, each from its own seed
    /// ([`TraceCorpus::render_trace`]), and each job measures its
    /// trace's intervals, so the world is the same at every pool width.
    /// Built inside another pool job, the traces render inline.
    pub fn build(hall_config: HallConfig, corpus_config: CorpusConfig, seed: u64) -> Self {
        let hall = OfficeHall::with_config(hall_config);
        let map = RadioMap::new(&hall.env, &hall.grid);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5175_7EC0_DE01_u64);
        let survey = SiteSurvey::conduct(&map, SurveySplit::paper(), &mut rng);
        let users = paper_users();
        let detector = StepDetector::default();
        let (traces, mut intervals): (Vec<_>, Vec<_>) = par_run(corpus_config.total_traces, |i| {
            let trace = TraceCorpus::render_trace(&map, &hall.graph, &users, corpus_config, i);
            let intervals = measure_intervals(&trace, &detector);
            (trace, intervals)
        })
        .into_iter()
        .unzip();
        let corpus = TraceCorpus::from_traces(traces, corpus_config.train_traces);
        let test_intervals = intervals.split_off(corpus.train.len());
        Self {
            hall,
            survey,
            corpus,
            train_intervals: intervals,
            test_intervals,
        }
    }

    /// Analyzes trace `trace_index` of `split` against `fdb` (ranked
    /// through `index`, which must have been built from `fdb`) from the
    /// intervals the build measured: the same [`TraceAnalysis`] as
    /// [`analyze_trace_indexed`] with the default [`StepDetector`],
    /// without measuring the trace again.
    ///
    /// # Panics
    ///
    /// Panics if `trace_index` is out of range for `split`.
    pub fn analyze(
        &self,
        split: TraceSplit,
        trace_index: usize,
        fdb: &FingerprintDb,
        index: &FingerprintIndex,
        counting: CountingMethod,
        n_aps: usize,
    ) -> TraceAnalysis {
        let _span = moloc_obs::span("eval.pipeline.analyze_trace");
        let (trace, intervals) = self.measured(split, trace_index);
        analyze_measured(
            trace,
            intervals.to_vec(),
            &NnLocalizer::with_index(fdb, index),
            &self.hall,
            counting,
            n_aps,
        )
    }

    /// [`EvalWorld::analyze`] with the per-pass nearest neighbours
    /// already known: `nn_estimates[i]` must be pass `i`'s Eq. 2 pick
    /// against the setting's database, such as
    /// [`BatchLocalizer::ranked_nearest`] after the engine ranked the
    /// trace's scans. A localization round then ranks each scan once.
    /// The result equals [`EvalWorld::analyze`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `trace_index` is out of range for `split` or
    /// `nn_estimates` does not hold one location per pass.
    pub fn analyze_ranked(
        &self,
        split: TraceSplit,
        trace_index: usize,
        nn_estimates: Vec<LocationId>,
        counting: CountingMethod,
    ) -> TraceAnalysis {
        let _span = moloc_obs::span("eval.pipeline.analyze_trace");
        let (trace, intervals) = self.measured(split, trace_index);
        assert_eq!(
            nn_estimates.len(),
            trace.passes.len(),
            "one nearest neighbour per pass"
        );
        analyze_estimated(
            trace,
            intervals.to_vec(),
            nn_estimates,
            &self.hall,
            counting,
        )
    }

    /// Trace `trace_index` of `split` and the intervals the build
    /// measured on it.
    pub(crate) fn measured(
        &self,
        split: TraceSplit,
        trace_index: usize,
    ) -> (&SensorTrace, &[IntervalMeasurement]) {
        let (traces, intervals) = match split {
            TraceSplit::Train => (&self.corpus.train, &self.train_intervals),
            TraceSplit::Test => (&self.corpus.test, &self.test_intervals),
        };
        let (trace, intervals) = (&traces[trace_index], &intervals[trace_index]);
        debug_assert_eq!(
            intervals.len(),
            trace.passes.len().saturating_sub(1),
            "stored intervals of {split:?} trace {trace_index} do not match its passes"
        );
        (trace, intervals)
    }

    /// Prepares the fingerprint + motion databases for an `n_aps`-AP
    /// setting (paper: 4, 5, 6) with the given sanitation and counting
    /// choices.
    pub fn setting_with(
        &self,
        n_aps: usize,
        sanitation: SanitationConfig,
        counting: CountingMethod,
    ) -> Setting {
        let _span = moloc_obs::span("eval.pipeline.build_setting");
        assert!(
            n_aps >= 1 && n_aps <= self.survey.ap_count(),
            "invalid AP count {n_aps}"
        );
        // The survey means fold each scan's first `n_aps` values.
        let fdb = FingerprintDb::from_samples(self.survey.locations().iter().map(|loc| {
            let samples = loc.fingerprint.iter();
            (
                loc.location,
                samples.map(|scan| scan.iter().take(n_aps).map(|d| d.value())),
            )
        }))
        .expect("survey covers every location");

        // Trace analysis fans out on the worker pool; the extracted
        // RLMs feed the builder in trace order, so the built database
        // is identical to a serial run. One index serves every trace,
        // and the intervals are the ones the build measured.
        let index = FingerprintIndex::build(&fdb);
        let localizer = NnLocalizer::with_index(&fdb, &index);
        let per_trace_rlms: Vec<Vec<Rlm>> = par_run(self.corpus.train.len(), |i| {
            self.training_rlms(i, &localizer, counting, n_aps)
        });
        let mut builder = MotionDbBuilder::new(self.hall.map.clone(), sanitation)
            .expect("experiment sanitation configs are valid");
        builder.observe_all(per_trace_rlms.into_iter().flatten());
        let (motion_db, build_report) = builder.build();
        Setting {
            n_aps,
            fdb,
            motion_db,
            build_report,
            counting,
        }
    }

    /// The RLMs training trace `trace_index` contributes to a setting
    /// (Sec. IV-B): for each interval whose endpoints' Eq. 2 picks
    /// differ and whose calibrated measurement survives, the RLM from
    /// pick to pick. These are the RLMs of [`EvalWorld::analyze`]'s
    /// picks and measurements, computed from the stored intervals
    /// without building the analysis.
    fn training_rlms(
        &self,
        trace_index: usize,
        localizer: &NnLocalizer<'_>,
        counting: CountingMethod,
        n_aps: usize,
    ) -> Vec<Rlm> {
        let _span = moloc_obs::span("eval.pipeline.analyze_trace");
        let (trace, intervals) = self.measured(TraceSplit::Train, trace_index);
        let nn = nn_estimates(trace, localizer, n_aps);
        let heading_offset_deg =
            calibrate(intervals, &nn, &self.hall).map_or(0.0, |c| c.offset_deg);
        let step_length = trace.user.step_length_m();
        intervals
            .iter()
            .filter_map(|interval| {
                let (from, to) = (nn[interval.from_index], nn[interval.to_index]);
                if from == to {
                    return None;
                }
                let m = measure(interval, heading_offset_deg, step_length, counting)?;
                Rlm::new(from, to, m.direction_deg, m.offset_m).ok()
            })
            .collect()
    }

    /// The paper-default setting: CSC counting, paper sanitation.
    pub fn setting(&self, n_aps: usize) -> Setting {
        self.setting_with(n_aps, SanitationConfig::paper(), CountingMethod::Continuous)
    }
}

/// The per-AP-count databases and construction report.
#[derive(Debug, Clone)]
pub struct Setting {
    /// Number of APs used.
    pub n_aps: usize,
    /// The fingerprint database.
    pub fdb: FingerprintDb,
    /// The crowdsourced motion database.
    pub motion_db: MotionDb,
    /// Counters from the motion-database construction.
    pub build_report: BuildReport,
    /// The step-counting method used for offsets.
    pub counting: CountingMethod,
}

/// The motion analysis of one trace against one fingerprint database.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Per-pass nearest-neighbor location estimates.
    pub nn_estimates: Vec<LocationId>,
    /// Raw per-interval measurements.
    pub intervals: Vec<IntervalMeasurement>,
    /// Calibrated motion measurements per interval (`None` when the
    /// compass produced no usable direction).
    pub measurements: Vec<Option<MotionMeasurement>>,
    /// The estimated heading offset, degrees.
    pub heading_offset_deg: f64,
    /// Whether any calibration pairs were available at all; without
    /// them the offset falls back to 0 and downstream quality drops to
    /// whatever the raw compass placement admits.
    pub calibration_reliable: bool,
}

/// Analyzes a trace: NN estimates per pass, heading-offset calibration,
/// and calibrated per-interval motion measurements.
pub fn analyze_trace(
    trace: &SensorTrace,
    fdb: &FingerprintDb,
    hall: &OfficeHall,
    detector: &StepDetector,
    counting: CountingMethod,
    n_aps: usize,
) -> TraceAnalysis {
    let index = FingerprintIndex::build(fdb);
    analyze_trace_indexed(trace, fdb, &index, hall, detector, counting, n_aps)
}

/// [`analyze_trace`] over a caller-shared [`FingerprintIndex`]: skips
/// the per-trace index build, so the per-setting index (e.g. from a
/// [`crate::cache::ScenarioCache`]) serves every trace. `index` must
/// have been built from `fdb`. Results are identical to
/// [`analyze_trace`]. A world's own traces are analyzed by
/// [`EvalWorld::analyze`], which reuses the intervals its build
/// measured.
pub fn analyze_trace_indexed(
    trace: &SensorTrace,
    fdb: &FingerprintDb,
    index: &FingerprintIndex,
    hall: &OfficeHall,
    detector: &StepDetector,
    counting: CountingMethod,
    n_aps: usize,
) -> TraceAnalysis {
    let _span = moloc_obs::span("eval.pipeline.analyze_trace");
    let intervals = measure_intervals(trace, detector);
    analyze_measured(
        trace,
        intervals,
        &NnLocalizer::with_index(fdb, index),
        hall,
        counting,
        n_aps,
    )
}

/// The analysis of a trace whose intervals are already measured.
fn analyze_measured(
    trace: &SensorTrace,
    intervals: Vec<IntervalMeasurement>,
    localizer: &NnLocalizer<'_>,
    hall: &OfficeHall,
    counting: CountingMethod,
    n_aps: usize,
) -> TraceAnalysis {
    let nn_estimates = nn_estimates(trace, localizer, n_aps);
    analyze_estimated(trace, intervals, nn_estimates, hall, counting)
}

/// Each pass's Eq. 2 pick over its scan's first `n_aps` values.
fn nn_estimates(trace: &SensorTrace, localizer: &NnLocalizer<'_>, n_aps: usize) -> Vec<LocationId> {
    trace
        .scans
        .iter()
        .map(|scan| {
            localizer
                .localize_slice(&scan[..n_aps])
                .expect("scan length matches database")
        })
        .collect()
}

/// The analysis of a trace whose intervals and per-pass nearest
/// neighbours are known: the heading calibration and the offsets.
fn analyze_estimated(
    trace: &SensorTrace,
    intervals: Vec<IntervalMeasurement>,
    nn_estimates: Vec<LocationId>,
    hall: &OfficeHall,
    counting: CountingMethod,
) -> TraceAnalysis {
    let calibration = calibrate(&intervals, &nn_estimates, hall);
    let heading_offset_deg = calibration.map_or(0.0, |c| c.offset_deg);
    let calibration_reliable = calibration.is_some();
    let step_length = trace.user.step_length_m();
    let measurements = intervals
        .iter()
        .map(|interval| measure(interval, heading_offset_deg, step_length, counting))
        .collect();

    TraceAnalysis {
        nn_estimates,
        intervals,
        measurements,
        heading_offset_deg,
        calibration_reliable,
    }
}

/// A trace's heading calibration, Zee-style: the raw compass direction
/// of each interval against the map bearing between its endpoints'
/// estimated locations. Wrong endpoint estimates contaminate the pairs;
/// the 45-degree trimmed circular mean absorbs that (mirror mistakes on
/// east-west aisles even leave the reference bearing intact, anchoring
/// the estimate). `None` without a usable pair.
fn calibrate(
    intervals: &[IntervalMeasurement],
    nn_estimates: &[LocationId],
    hall: &OfficeHall,
) -> Option<TrimmedOffset> {
    let mut estimator = HeadingOffsetEstimator::new();
    for interval in intervals {
        let (from, to) = (
            nn_estimates[interval.from_index],
            nn_estimates[interval.to_index],
        );
        if from == to {
            continue;
        }
        let (Some(raw), Some(reference)) =
            (interval.raw_direction_deg, hall.map.direction_deg(from, to))
        else {
            continue;
        };
        estimator.observe(raw, reference);
    }
    estimator.trimmed_stats(45.0)
}

/// An interval's motion measurement under a heading offset: its raw
/// compass direction corrected by the offset and its step count times
/// the step length. `None` without a compass direction or when a value
/// is not finite.
fn measure(
    interval: &IntervalMeasurement,
    heading_offset_deg: f64,
    step_length: f64,
    counting: CountingMethod,
) -> Option<MotionMeasurement> {
    interval
        .raw_direction_deg
        .map(|raw| {
            let steps = match counting {
                CountingMethod::Continuous => interval.steps_csc,
                CountingMethod::Discrete => interval.steps_dsc,
            };
            MotionMeasurement {
                direction_deg: normalize_deg(raw - heading_offset_deg),
                offset_m: offset_m(steps, step_length),
            }
        })
        // Degraded sensor input (gaps, jitter) can leak NaN through
        // step counts; drop the measurement — the interval localizes
        // fingerprint-only — rather than hand the engine a
        // `BadMeasurement`.
        .filter(|m| m.direction_deg.is_finite() && m.offset_m.is_finite())
}

/// One localization outcome at one reference-location pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassOutcome {
    /// Test-trace index.
    pub trace_index: usize,
    /// Pass index within the trace.
    pub pass_index: usize,
    /// Ground-truth location.
    pub truth: LocationId,
    /// Estimated location.
    pub estimate: LocationId,
    /// Euclidean localization error in meters.
    pub error_m: f64,
}

impl PassOutcome {
    /// Whether the estimate hit the true reference location.
    pub fn is_accurate(&self) -> bool {
        self.estimate == self.truth
    }
}

/// Runs the WiFi fingerprinting baseline (Eq. 2) over the test traces.
///
/// Traces fan out on the [`crate::parallel`] worker pool; the outcome
/// of each trace is a pure function of the shared databases, so the
/// result is identical to a serial run.
pub fn localize_wifi(world: &EvalWorld, setting: &Setting) -> Vec<Vec<PassOutcome>> {
    let localizer = NnLocalizer::new(&setting.fdb);
    par_run(world.corpus.test.len(), |trace_index| {
        let _span = moloc_obs::span("eval.pipeline.wifi_trace");
        let trace = &world.corpus.test[trace_index];
        trace
            .passes
            .iter()
            .zip(&trace.scans)
            .enumerate()
            .map(|(pass_index, (pass, scan))| {
                let estimate = localizer
                    .localize_slice(&scan[..setting.n_aps])
                    .expect("scan length matches database");
                outcome(world, trace_index, pass_index, pass.location, estimate)
            })
            .collect()
    })
}

/// Runs MoLoc over the test traces.
///
/// One [`FingerprintIndex`] and one [`MotionKernel`] are built per call
/// and shared by every per-trace engine. When callers already hold the
/// artifacts (e.g. from a [`crate::cache::ScenarioCache`]), use
/// [`localize_moloc_with`] and skip the builds entirely.
pub fn localize_moloc(
    world: &EvalWorld,
    setting: &Setting,
    config: MoLocConfig,
) -> Vec<Vec<PassOutcome>> {
    let index = FingerprintIndex::build(&setting.fdb);
    let kernel = build_kernel(&setting.motion_db, &config);
    localize_moloc_with(world, setting, config, &index, &kernel)
}

/// Runs MoLoc over the test traces against prebuilt serving artifacts.
///
/// Each trace's scans are ranked once: the engine's blocked k-NN
/// ([`BatchLocalizer::rank_scans`]) gives both the Eq. 3 candidates
/// and, as the first of each scan's neighbours, the Eq. 2 picks
/// [`EvalWorld::analyze_ranked`] calibrates the heading from (with the
/// intervals the world's build measured). Traces fan out in shards on the
/// persistent worker pool. Each shard
/// checks one [`BatchScratch`] working set out of a shared arena and
/// threads it through every trace's [`BatchLocalizer`] in the shard, so
/// steady-state evaluation builds no per-trace buffers; per-trace
/// results land in disjoint pre-sized slots. Each trace's engine
/// session is independent and the scratch is cleared at every engine
/// handoff, so the result is identical to a serial run at every worker
/// count and chunk size — and the engine reproduces the naive
/// `moloc_verify::oracle` chain bit-for-bit (see `tests/determinism.rs`).
///
/// `index` must be built from `setting.fdb` and `kernel` from
/// `setting.motion_db` under `config`'s kernel fields.
pub fn localize_moloc_with(
    world: &EvalWorld,
    setting: &Setting,
    config: MoLocConfig,
    index: &FingerprintIndex,
    kernel: &MotionKernel,
) -> Vec<Vec<PassOutcome>> {
    let n = world.corpus.test.len();
    let factory = || BatchScratch::for_k(config.k);
    let scratch_pool: ArenaPool<'_, BatchScratch> = ArenaPool::new(&factory);
    let mut slots = SlotVec::new(n);
    let writer = slots.writer();
    let workers = thread_count().min(n.max(1));
    par_shards(n, default_chunk(n, workers), |range| {
        let mut scratch = scratch_pool.checkout().take();
        for trace_index in range {
            let _span = moloc_obs::span("eval.pipeline.moloc_trace");
            let trace = &world.corpus.test[trace_index];
            let mut engine = BatchLocalizer::with_scratch(index, kernel, config, scratch);
            // Whole-trace localization: the engine batches every pass's
            // k-NN through the multi-query block scan
            // (DESIGN.md §15) before the sequential Eq. 4/7 recursion —
            // bit-identical estimates to the old per-pass observe loop.
            let scans: Vec<&[f64]> = trace
                .scans
                .iter()
                .map(|scan| &scan[..setting.n_aps])
                .collect();
            engine.rank_scans(&scans);
            let analysis = world.analyze_ranked(
                TraceSplit::Test,
                trace_index,
                engine.ranked_nearest().collect(),
                setting.counting,
            );
            let motions: Vec<_> = (0..scans.len())
                .map(|i| {
                    if i == 0 {
                        None
                    } else {
                        analysis.measurements[i - 1]
                    }
                })
                .collect();
            let mut estimates = Vec::with_capacity(scans.len());
            engine
                .localize_ranked_into(&scans, &motions, &mut estimates)
                .expect("query length matches database");
            let outcomes: Vec<PassOutcome> = trace
                .passes
                .iter()
                .enumerate()
                .map(|(pass_index, pass)| {
                    outcome(
                        world,
                        trace_index,
                        pass_index,
                        pass.location,
                        estimates[pass_index],
                    )
                })
                .collect();
            scratch = engine.into_scratch();
            writer.write(trace_index, outcomes);
        }
        give_back(&scratch_pool, scratch);
    });
    // SAFETY: `par_shards` partitions `0..n` into disjoint shards and
    // every iteration above writes exactly its own `trace_index` slot.
    unsafe { slots.into_vec() }
}

fn outcome(
    world: &EvalWorld,
    trace_index: usize,
    pass_index: usize,
    truth: LocationId,
    estimate: LocationId,
) -> PassOutcome {
    PassOutcome {
        trace_index,
        pass_index,
        truth,
        estimate,
        error_m: world.hall.grid.distance(truth, estimate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> EvalWorld {
        EvalWorld::small(77)
    }

    #[test]
    fn setting_builds_consistent_databases() {
        let world = world();
        for n_aps in [4, 6] {
            let setting = world.setting(n_aps);
            assert_eq!(setting.n_aps, n_aps);
            assert_eq!(setting.fdb.ap_count(), n_aps);
            assert_eq!(setting.fdb.len(), world.hall.grid.len());
            assert_eq!(setting.motion_db.location_count(), world.hall.grid.len());
            // Every trained pair is a real location pair.
            for (a, b, stats) in setting.motion_db.iter() {
                assert!(world.hall.grid.contains(a) && world.hall.grid.contains(b));
                assert!(stats.sample_count >= 3);
            }
            // The report's arithmetic is self-consistent.
            let r = setting.build_report;
            assert!(r.observed >= r.rejected_coarse);
            assert!(r.pairs_built > 0);
        }
    }

    #[test]
    fn survey_means_fold_each_scan_as_a_fingerprint_would() {
        // The setting folds the survey's scans straight into the means;
        // one fingerprint per sample must give the same bits.
        let world = world();
        for n_aps in [4, 6] {
            let setting = world.setting(n_aps);
            let per_sample =
                FingerprintDb::from_samples(world.survey.locations().iter().map(|loc| {
                    let samples = loc.fingerprint.iter().map(|scan| {
                        moloc_fingerprint::fingerprint::Fingerprint::new(
                            scan.iter().take(n_aps).map(|d| d.value()).collect(),
                        )
                    });
                    (loc.location, samples)
                }))
                .unwrap();
            let bits = |db: &FingerprintDb| {
                db.iter()
                    .map(|(id, fp)| (id, fp.values().iter().map(|v| v.to_bits()).collect()))
                    .collect::<Vec<(LocationId, Vec<u64>)>>()
            };
            assert_eq!(bits(&setting.fdb), bits(&per_sample));
        }
    }

    #[test]
    fn training_rlms_are_the_analysis_rlms() {
        // What each training trace contributes equals the RLMs read off
        // its full analysis: picks, calibration and offsets.
        let world = world();
        let setting = world.setting(5);
        let index = FingerprintIndex::build(&setting.fdb);
        let localizer = NnLocalizer::with_index(&setting.fdb, &index);
        for counting in [CountingMethod::Continuous, CountingMethod::Discrete] {
            for i in 0..world.corpus.train.len() {
                let a = world.analyze(TraceSplit::Train, i, &setting.fdb, &index, counting, 5);
                let want: Vec<Rlm> = a
                    .intervals
                    .iter()
                    .zip(&a.measurements)
                    .filter_map(|(interval, m)| {
                        let m = m.as_ref()?;
                        let from = a.nn_estimates[interval.from_index];
                        let to = a.nn_estimates[interval.to_index];
                        (from != to)
                            .then(|| Rlm::new(from, to, m.direction_deg, m.offset_m).ok())?
                    })
                    .collect();
                assert_eq!(
                    world.training_rlms(i, &localizer, counting, 5),
                    want,
                    "trace {i}"
                );
            }
        }
    }

    #[test]
    fn analyze_trace_shapes_line_up() {
        let world = world();
        let setting = world.setting(6);
        let detector = StepDetector::default();
        let trace = &world.corpus.test[0];
        let analysis = analyze_trace(
            trace,
            &setting.fdb,
            &world.hall,
            &detector,
            CountingMethod::Continuous,
            6,
        );
        assert_eq!(analysis.nn_estimates.len(), trace.pass_count());
        assert_eq!(analysis.intervals.len(), trace.pass_count() - 1);
        assert_eq!(analysis.measurements.len(), analysis.intervals.len());
        assert!(analysis.calibration_reliable);
        // Measurements carry plausible values: offsets within the hall,
        // directions wrapped.
        for m in analysis.measurements.iter().flatten() {
            assert!((0.0..360.0).contains(&m.direction_deg));
            assert!(m.offset_m >= 0.0 && m.offset_m < 45.0);
        }
    }

    #[test]
    fn discrete_counting_setting_uses_dsc_offsets() {
        let world = world();
        let dsc = world.setting_with(
            6,
            moloc_motion::filter::SanitationConfig::paper(),
            CountingMethod::Discrete,
        );
        let csc = world.setting(6);
        // Different counting methods must actually change the built
        // databases (DSC drops fractional steps).
        assert_ne!(dsc.motion_db, csc.motion_db);
    }

    #[test]
    fn wifi_outcomes_cover_every_pass_once() {
        let world = world();
        let setting = world.setting(5);
        let outcomes = localize_wifi(&world, &setting);
        assert_eq!(outcomes.len(), world.corpus.test.len());
        for (trace, per_trace) in world.corpus.test.iter().zip(&outcomes) {
            assert_eq!(per_trace.len(), trace.pass_count());
            for (o, pass) in per_trace.iter().zip(&trace.passes) {
                assert_eq!(o.truth, pass.location);
                assert!(o.error_m >= 0.0);
                assert_eq!(o.is_accurate(), o.error_m == 0.0);
            }
        }
    }

    #[test]
    fn moloc_outcomes_are_deterministic_per_setting() {
        let world = world();
        let setting = world.setting(6);
        let a = localize_moloc(&world, &setting, moloc_core::config::MoLocConfig::paper());
        let b = localize_moloc(&world, &setting, moloc_core::config::MoLocConfig::paper());
        assert_eq!(a, b);
    }
}
