//! RAII timing spans.
//!
//! A [`Span`] measures the wall-clock time between its creation and its
//! drop and records the duration (in seconds) into the histogram named
//! at creation. Spans are the latency primitive of the stack: every
//! per-stage latency histogram in DESIGN.md §13 is fed by one.
//!
//! While recording is disabled a span holds no timestamp and its drop
//! does nothing — creating one costs a relaxed load and a branch, and
//! the clock is never read.

use std::time::Instant;

/// An RAII guard that times a named stage.
///
/// Construct through [`crate::span()`]; bind it to a named variable
/// (`let _span = ...`) so it lives to the end of the stage — `let _ =`
/// would drop it immediately and record a zero-length span.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` ends it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Starts a span; `armed` is the enabled flag sampled at creation,
    /// so a span started while enabled still records if recording is
    /// toggled off mid-flight (the reverse never reads the clock).
    ///
    /// An armed span also opens the thread-local delta buffer: counter
    /// increments and histogram samples recorded while it (or any
    /// nested armed span) is alive are merged locally and flushed to
    /// the registry when the outermost armed span drops.
    pub(crate) fn start(name: &'static str, armed: bool) -> Self {
        if armed {
            crate::buffer::enter_span();
        }
        Self {
            name,
            start: armed.then(Instant::now),
        }
    }

    /// The histogram this span records into.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether this span is actually timing (recording was enabled at
    /// creation).
    pub fn is_armed(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            // The span's own duration buffers too, and the same
            // thread-local round trip closes the span — flushing
            // everything if this was the outermost armed span.
            let elapsed = start.elapsed().as_secs_f64();
            if !crate::buffer::close_span(self.name, elapsed) {
                crate::global().record(self.name, elapsed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_span_never_times() {
        let _guard = crate::TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let span = Span::start("t.span.disarmed", false);
        assert!(!span.is_armed());
        assert_eq!(span.name(), "t.span.disarmed");
        drop(span);
        assert!(crate::global()
            .snapshot()
            .histogram("t.span.disarmed")
            .is_none());
    }

    #[test]
    fn armed_span_records_a_nonnegative_duration() {
        let _guard = crate::TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let span = Span::start("t.span.armed", true);
        assert!(span.is_armed());
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(span);
        let h = crate::global()
            .snapshot()
            .histogram("t.span.armed")
            .cloned()
            .expect("span recorded");
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.001, "slept at least 1 ms, recorded {}", h.sum);
    }
}
