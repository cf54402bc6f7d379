//! The traced run's span recorder.
//!
//! A span is a name, a start, an end, the name of its parent layer and
//! the id of the step it belongs to; all spans of one step share that
//! id. Spans stay in memory while the benchmark runs and are written out
//! once at exit.
//!
//! The benchmark records spans from outside the program, around its own
//! calls into each layer's public functions. Where a public call
//! contains a child layer (`observe_slice` runs the k-NN, a checkpoint
//! append runs the encoder), the child is timed by a separate call on
//! the same input made right after the parent returns. Such a child
//! span does not lie inside its parent's interval, so self time is
//! computed from durations: a layer's self time is the total duration of
//! its spans minus the total duration of the spans whose parent it is.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    step: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store for one traced phase.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn span(
        &mut self,
        step: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(SpanRec {
            step,
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Per name: (total self time in seconds, number of spans).
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let d = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let own = out.entry(s.name).or_default();
            own.0 += d;
            own.1 += 1;
            if let Some(parent) = s.parent {
                out.entry(parent).or_default().0 -= d;
            }
        }
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one CSV line `step,name,parent,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "step,name,parent,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.step,
                s.name,
                s.parent.unwrap_or(""),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
