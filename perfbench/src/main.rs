//! MoLoc serving benchmark: drives the batch trace pipeline
//! (`paper_eval`), crash-safe streaming sessions (`stream_2k`) and live
//! localizers under publishes (`live_2k`) from one process, checks their
//! outputs and prints every metric by name and unit. See `README.md`.
//!
//! ```text
//! moloc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones. Exit code 1 means an output check failed, 2 a usage or
//! configuration error.

mod gen;
mod live;
mod paper;
mod report;
mod stream;
mod trace;

use moloc_fingerprint::index::FingerprintIndex;
use report::{json_str, Report, Samples, Throughput};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: moloc-perfbench --workload <paper_eval|stream_2k|live_2k> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where traced runs write their spans and streaming runs keep their
/// checkpoint logs, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench";

/// Per-layer metrics every traced run reports, with their units. A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("fingerprint.knn_self_us", "us"),
    ("fingerprint.knn_share", "ratio"),
    ("fingerprint.rows_scanned_per_step", "rows"),
    ("fingerprint.mirror_survivor_ratio", "ratio"),
    ("core.fuse_self_us", "us"),
    ("core.fuse_share", "ratio"),
    ("core.eq7_pairs_per_step", "pairs"),
    ("core.clean_ratio", "ratio"),
    ("motion.kernel_build_ms", "ms"),
    ("motion.kernel_bytes", "bytes"),
    ("motion.trained_pair_ratio", "ratio"),
    ("analyze.self_us", "us"),
    ("analyze.share", "ratio"),
    ("eval.pool_width", "threads"),
    ("eval.pool_busy_ratio", "ratio"),
    ("eval.pool_idle_us_per_round", "us"),
    ("eval.steals_per_round", "count"),
    ("eval.jobs_per_round", "count"),
    ("session.ingest_self_us", "us"),
    ("session.reorder_us", "us"),
    ("session.held_ratio", "ratio"),
    ("session.duplicates_dropped", "per_1k_arrivals"),
    ("session.ckpt_encode_p50_us", "us"),
    ("session.ckpt_encode_p99_us", "us"),
    ("session.ckpt_append_p50_us", "us"),
    ("session.ckpt_append_p99_us", "us"),
    ("session.ckpt_bytes_per_record", "bytes"),
    ("session.ckpt_writes_per_1k_steps", "count"),
    ("live.ingest_delta_us", "us"),
    ("live.build_snapshot_ms", "ms"),
    ("live.publish_p50_ms", "ms"),
    ("live.publish_p99_ms", "ms"),
    ("live.adopt_ms", "ms"),
    ("live.refreshes", "per_publish"),
    ("trace.overhead", "ratio"),
    ("trace.obs_overhead", "ratio"),
    ("trace.self_sum_ratio", "ratio"),
];

/// One run's command-line settings.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The three modes of a traced run. They take turns iteration by
/// iteration (a round, a sweep over the users, a publish cycle), so
/// drift in the machine's speed over the run cannot bias their
/// comparison:
///
/// * untraced: the baseline the overhead and the self-time sum are
///   judged against;
/// * counted: `moloc-obs` enabled, read for the program's own counters;
/// * spans: the benchmark's own spans around its calls into each layer,
///   with `moloc-obs` off so its recording cost stays out of the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Untraced,
    Counted,
    Spans,
}

impl Mode {
    pub fn of(turn: u64) -> Mode {
        match turn % 3 {
            0 => Mode::Untraced,
            1 => Mode::Counted,
            _ => Mode::Spans,
        }
    }
}

/// Per-layer values of one traced run, keyed by the names in
/// [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Emits every per-layer metric, 0 for the ones this workload's
    /// layers never set.
    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// The end-to-end readings of one untraced run, from raw samples.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds per set-up repetition.
    pub setup: Samples,
    /// Seconds per serving call.
    pub step: Samples,
    /// Seconds until a user sees fresh data: from a database rebuild or
    /// publish to the end of a reader's first step on it, or from a
    /// scan's arrival to its estimate's delivery. In groups of
    /// `freshness_group` samples (one rebuild or publish each), or else
    /// in equal windows.
    pub freshness: Samples,
    pub freshness_group: Option<usize>,
    /// Localization steps completed in the measured window.
    pub throughput: Throughput,
    /// Steps whose estimate is the true location, out of `scored`.
    pub hits: u64,
    pub scored: u64,
    /// Sum of grid distances between estimate and truth, metres.
    pub error_m: f64,
    /// Peak resident memory at the end of the warm-up, MiB: the program
    /// has built everything it serves from by then, and what grows later
    /// is the benchmark's own sample buffers, sized by throughput.
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    pub fn score(&mut self, error_m: f64) {
        self.scored += 1;
        self.hits += u64::from(error_m == 0.0);
        self.error_m += error_m;
    }

    pub fn emit(mut self, report: &mut Report) {
        let setup = self.setup.median();
        report.note(format!(
            "setup_s = {setup:.4} s (median of n = {} set-ups)",
            self.setup.len()
        ));
        report.metric("setup_s", setup, "s");
        let t = &mut self.throughput;
        let windows: Vec<String> = t.rates.values().iter().map(|r| format!("{r:.0}")).collect();
        let rate = t.quiet_rate();
        report.note(format!(
            "steps_per_s = {rate:.1} (upper decile of n = {} windows, median {:.1}; \
             {} steps in {:.3} s; windows in order: {})",
            t.rates.len(),
            t.rates.median(),
            t.total_steps,
            t.total_wall,
            windows.join(" ")
        ));
        report.metric("steps_per_s", rate, "steps/s");
        report.percentiles("step_p50_us", "step_p99_us", "us", &self.step, None, 1e6);
        report.percentiles(
            "freshness_p50_ms",
            "freshness_p99_ms",
            "ms",
            &self.freshness,
            self.freshness_group,
            1e3,
        );
        report.note(format!(
            "accuracy over n = {} scored steps, {} exact",
            self.scored, self.hits
        ));
        report.metric(
            "accuracy_pct",
            100.0 * report::ratio(self.hits as f64, self.scored as f64),
            "%",
        );
        report.metric(
            "mean_error_m",
            report::ratio(self.error_m, self.scored as f64),
            "m",
        );
        report.metric("peak_rss_mb", self.peak_rss_mib, "MiB");
    }
}

/// Header fields every workload records: the run settings, the runner
/// shape and every `MOLOC_*` variable that is set.
pub fn common_header(report: &mut Report, run: &Run) {
    report.header("workload", json_str(&run.workload));
    report.header("seed", run.seed.to_string());
    report.header("seconds", run.seconds.to_string());
    report.header("trace", run.trace.to_string());
    report.header("available_parallelism", available_parallelism().to_string());
    let mut vars: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.to_string_lossy().into_owned();
            k.starts_with("MOLOC_")
                .then(|| (k, v.to_string_lossy().into_owned()))
        })
        .collect();
    vars.sort();
    let vars: Vec<String> = vars
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    report.header("moloc_env", format!("{{{}}}", vars.join(", ")));
}

/// The k-NN strategy headers: what `observe_slice` (single queries) and
/// `k_nearest_block_into` (whole traces) run on `index` in this
/// process. Derived from `FingerprintIndex::has_mirror`,
/// `block::block_enabled` and `block::mirror_enabled`; the traced run's
/// counters (`fingerprint.knn.mirror_survivors`, block scans) confirm it.
pub fn knn_header(report: &mut Report, index: &FingerprintIndex, k: usize) {
    let ap = index.ap_count();
    let unrolled = (4..=8).contains(&ap);
    report.header("knn.has_mirror", index.has_mirror().to_string());
    report.header(
        "knn.block_enabled",
        moloc_fingerprint::block::block_enabled().to_string(),
    );
    report.header(
        "knn.mirror_enabled",
        moloc_fingerprint::block::mirror_enabled().to_string(),
    );
    // `observe_slice` always takes the scalar selection scan; the f32
    // mirror only serves the blocked and mirror entry points.
    let single = if unrolled {
        format!("k_nearest_into/scalar_unrolled_{ap}")
    } else {
        format!("k_nearest_into/scalar_generic_{ap}")
    };
    report.header("knn.single_query", json_str(&single));
    // The blocked scan needs 4..=8 APs; its f32 prefilter additionally
    // needs the mirror and k <= 16 lanes.
    let block = if !(moloc_fingerprint::block::block_enabled() && unrolled) {
        "per_query_loop"
    } else if index.has_mirror() && moloc_fingerprint::block::mirror_enabled() && k <= 16 {
        "blocked_f32_mirror_f64_rescore"
    } else {
        "blocked_f64"
    };
    report.header("knn.block", json_str(block));
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn parse(args: impl Iterator<Item = String>) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let run = match parse(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = moloc_eval::parallel::validate_env().and(moloc_session::validate_env()) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let result = match run.workload.as_str() {
        "paper_eval" => paper::run(&run),
        "stream_2k" => stream::run(&run),
        "live_2k" => live::run(&run),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: {} of {} operations failed their output check",
                    report.failed, report.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
