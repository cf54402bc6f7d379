//! Raw-sample statistics and the result the benchmark prints.
//!
//! Every percentile here is computed from the raw per-call samples the
//! benchmark took itself, never from `moloc-obs` histograms (whose
//! power-of-two buckets put up to 2x error on a quantile).

use std::fmt::Write as _;
use std::time::Instant;

/// Raw samples of one quantity, in the order they were taken.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        self.values.extend(values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The samples, in the order taken until a quantile sorts them.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        ratio(self.sum(), self.values.len() as f64)
    }

    /// The `q`-quantile (`0 <= q <= 1`), linearly interpolated between
    /// the two closest ranks; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let pos = q.clamp(0.0, 1.0) * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.values[lo] + (self.values[hi] - self.values[lo]) * frac
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
}

/// Throughput measured over consecutive windows of at least a quarter
/// of a second, each ending at a loop-iteration boundary. The reported
/// rate is the upper decile of the window rates (see [`QUIET_QUANTILE`]).
#[derive(Debug)]
pub struct Throughput {
    start: Instant,
    steps: u64,
    /// Steps per second of every completed window.
    pub rates: Samples,
    pub total_steps: u64,
    pub total_wall: f64,
}

const RATE_WINDOW_S: f64 = 0.25;

/// Consecutive windows the step-latency percentiles are taken over.
pub const PERCENTILE_WINDOWS: usize = 80;

/// Where among its windows (or groups) a run's reading is taken, from the
/// fast end: the lower decile of per-window latencies, the upper decile
/// of per-window rates. Other work on a shared machine only ever slows a
/// window down, and on a few-core host it comes and goes in spells of
/// seconds to minutes that slow everything by up to half; the fast end of
/// a run's windows tracks the program, where the median still moves with
/// the share of the run a spell happened to cover.
pub const QUIET_QUANTILE: f64 = 0.1;

impl Default for Throughput {
    fn default() -> Self {
        Throughput {
            start: Instant::now(),
            steps: 0,
            rates: Samples::default(),
            total_steps: 0,
            total_wall: 0.0,
        }
    }
}

impl Throughput {
    /// Starts the first window now (call right before the loop).
    pub fn begin(&mut self) {
        self.start = Instant::now();
        self.steps = 0;
    }

    /// Counts `steps` completed by the iteration that just ended.
    pub fn add(&mut self, steps: u64) {
        self.steps += steps;
        self.total_steps += steps;
        let elapsed = self.start.elapsed().as_secs_f64();
        if elapsed >= RATE_WINDOW_S {
            self.rates.push(self.steps as f64 / elapsed);
            self.total_wall += elapsed;
            self.steps = 0;
            self.start = Instant::now();
        }
    }

    /// Leaves `d` of untimed work just done out of the current window.
    pub fn exclude(&mut self, d: std::time::Duration) {
        self.start += d;
    }

    /// The upper decile of the window rates.
    pub fn quiet_rate(&mut self) -> f64 {
        self.rates.quantile(1.0 - QUIET_QUANTILE)
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work reports 0 rather than NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set in MiB (`VmHWM` on Linux).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What one run found: the header, the metrics, the operation counts
/// and human-readable notes (sample counts, checks).
#[derive(Debug, Default)]
pub struct Report {
    header: Vec<(String, String)>,
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Adds a header field; `json` must already be a JSON value.
    pub fn header(&mut self, key: &str, json: String) {
        self.header.push((key.to_string(), json));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records the median and 99th percentile of `samples` (in the order
    /// taken, scaled by `factor`) under the two given names, with a note
    /// giving the sample counts behind them. The samples are cut into
    /// consecutive groups: `group` samples each (one rebuild probe or
    /// publish), or else [`PERCENTILE_WINDOWS`] equal windows. Each
    /// group's percentile is computed from its raw samples, and the
    /// reading is the lower decile of the groups' percentiles
    /// ([`QUIET_QUANTILE`]).
    pub fn percentiles(
        &mut self,
        p50: &'static str,
        p99: &'static str,
        unit: &'static str,
        samples: &Samples,
        group: Option<usize>,
        factor: f64,
    ) {
        let values = samples.values();
        let n = values.len();
        let groups = match group {
            Some(g) => (n / g.max(1)).max(1),
            None if n >= PERCENTILE_WINDOWS => PERCENTILE_WINDOWS,
            None => 1,
        };
        let (mut p50s, mut p99s) = (Samples::default(), Samples::default());
        for w in 0..groups {
            let mut window = Samples::default();
            window.extend(
                values[w * n / groups..(w + 1) * n / groups]
                    .iter()
                    .map(|v| v * factor),
            );
            p50s.push(window.median());
            p99s.push(window.quantile(0.99));
        }
        let (a, b) = (p50s.quantile(QUIET_QUANTILE), p99s.quantile(QUIET_QUANTILE));
        self.note(format!(
            "{p50} = {a:.3} {unit}, {p99} = {b:.3} {unit} (lower deciles over {groups} groups \
             of n = {n} samples in all; group medians {:.3}, {:.3})",
            p50s.median(),
            p99s.median()
        ));
        self.metric(p50, a, unit);
        self.metric(p99, b, unit);
    }

    /// Counts one checked operation, failed or not.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints the header, the notes and, as the last line, the result
    /// object.
    pub fn print(&self) {
        let header: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        println!("# header {{{}}}", header.join(", "));
        for note in &self.notes {
            println!("# {note}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                // JSON has no NaN or infinity; a non-finite value is a
                // benchmark bug and shows up as an absurd reading.
                let value = if value.is_finite() { value } else { -1.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
