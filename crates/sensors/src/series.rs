//! Uniformly sampled time series.

use serde::{Deserialize, Serialize};

/// A uniformly sampled scalar signal.
///
/// Deserializing goes through [`TimeSeries::new`]: a sample rate that
/// is not finite and positive is an error. [`TimeSeries::default`] is
/// an empty series at 1 Hz, a value `new` accepts, so it round-trips.
///
/// # Examples
///
/// ```
/// use moloc_sensors::series::TimeSeries;
///
/// let s = TimeSeries::new(0.0, 10.0, vec![1.0, 2.0, 3.0]).unwrap();
/// assert_eq!(s.sample_rate_hz(), 10.0);
/// assert!((s.time_at(2) - 0.2).abs() < 1e-12);
/// assert!((s.duration() - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimeSeries {
    t0: f64,
    sample_rate_hz: f64,
    values: Vec<f64>,
}

impl Default for TimeSeries {
    /// An empty series starting at 0 s, at a placeholder rate of 1 Hz.
    /// Scratch buffers start here; every `*_into` writer sets the rate.
    fn default() -> Self {
        Self {
            t0: 0.0,
            sample_rate_hz: 1.0,
            values: Vec::new(),
        }
    }
}

/// The serialized form of a [`TimeSeries`], before its rate check.
#[derive(Deserialize)]
struct RawTimeSeries {
    t0: f64,
    sample_rate_hz: f64,
    values: Vec<f64>,
}

impl<'de> Deserialize<'de> for TimeSeries {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let raw = RawTimeSeries::deserialize(deserializer)?;
        TimeSeries::new(raw.t0, raw.sample_rate_hz, raw.values).map_err(serde::de::Error::custom)
    }
}

/// Error constructing a [`TimeSeries`] with a non-positive sample rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidRateError;

impl std::fmt::Display for InvalidRateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sample rate must be finite and positive")
    }
}

impl std::error::Error for InvalidRateError {}

impl TimeSeries {
    /// Creates a series starting at `t0` seconds with the given sample
    /// rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] if the rate is not finite and
    /// positive.
    pub fn new(t0: f64, sample_rate_hz: f64, values: Vec<f64>) -> Result<Self, InvalidRateError> {
        if !sample_rate_hz.is_finite() || sample_rate_hz <= 0.0 {
            return Err(InvalidRateError);
        }
        Ok(Self {
            t0,
            sample_rate_hz,
            values,
        })
    }

    /// Replaces the series in place — start time, rate, and values —
    /// reusing the existing buffer. The in-place counterpart of
    /// [`TimeSeries::new`] for scratch series in hot loops.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] if the rate is not finite and
    /// positive; the series is left unchanged.
    pub fn assign(
        &mut self,
        t0: f64,
        sample_rate_hz: f64,
        values: impl IntoIterator<Item = f64>,
    ) -> Result<(), InvalidRateError> {
        if !sample_rate_hz.is_finite() || sample_rate_hz <= 0.0 {
            return Err(InvalidRateError);
        }
        self.t0 = t0;
        self.sample_rate_hz = sample_rate_hz;
        self.values.clear();
        self.values.extend(values);
        Ok(())
    }

    /// Start time in seconds.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Sample rate in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// The sampling interval in seconds.
    pub fn dt(&self) -> f64 {
        1.0 / self.sample_rate_hz
    }

    /// The sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Duration covered by the samples (`len / rate`) in seconds.
    pub fn duration(&self) -> f64 {
        self.values.len() as f64 * self.dt()
    }

    /// The timestamp of sample `i`.
    pub fn time_at(&self, i: usize) -> f64 {
        self.t0 + i as f64 * self.dt()
    }

    /// The sample index covering time `t`, or `None` outside the series.
    pub fn index_at(&self, t: f64) -> Option<usize> {
        if t < self.t0 {
            return None;
        }
        let i = ((t - self.t0) * self.sample_rate_hz).floor() as usize;
        (i < self.values.len()).then_some(i)
    }

    /// Iterates `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.time_at(i), v))
    }

    /// The sub-series covering `[start, end)` seconds (clamped to the
    /// series extent). The result keeps the same rate and starts at the
    /// first retained sample's timestamp.
    pub fn slice_time(&self, start: f64, end: f64) -> TimeSeries {
        let mut out = TimeSeries::default();
        self.slice_time_into(start, end, &mut out);
        out
    }

    /// [`TimeSeries::slice_time`] into a caller-owned series, reusing
    /// its buffer. `out`'s previous contents (including its rate and
    /// start time) are discarded, so interval-slicing loops can run
    /// allocation-free after the first pass.
    ///
    /// Out-of-range bounds are handled explicitly, never through the
    /// silent saturation of a float-to-`usize` cast:
    ///
    /// * a window starting before `t0` clamps to the first sample (the
    ///   documented "clamped to the series extent" contract);
    /// * a window lying entirely before `t0` (or with `end <= start`)
    ///   yields an empty slice;
    /// * a NaN bound describes no interval at all and yields an empty
    ///   slice — previously `NaN.max(0.0)` quietly collapsed a NaN
    ///   `start` to sample 0, returning samples from before (any
    ///   meaningful reading of) the requested window.
    pub fn slice_time_into(&self, start: f64, end: f64, out: &mut TimeSeries) {
        out.sample_rate_hz = self.sample_rate_hz;
        out.values.clear();
        if start.is_nan() || end.is_nan() {
            out.t0 = self.t0;
            return;
        }
        let lo_f = ((start - self.t0) * self.sample_rate_hz).ceil();
        let hi_f = ((end - self.t0) * self.sample_rate_hz).ceil();
        // Negative indices are clamped *before* the usize cast; the
        // cast itself only ever sees non-negative values.
        let lo = if lo_f > 0.0 { lo_f as usize } else { 0 };
        let hi = if hi_f > 0.0 {
            (hi_f as usize).min(self.values.len())
        } else {
            0
        };
        let lo = lo.min(hi);
        out.t0 = self.time_at(lo);
        out.values.extend_from_slice(&self.values[lo..hi]);
    }

    /// Appends another series sampled at the same rate; its timestamps
    /// are assumed to continue this one.
    ///
    /// # Panics
    ///
    /// Panics if rates differ.
    pub fn append(&mut self, other: &TimeSeries) {
        assert!(
            (self.sample_rate_hz - other.sample_rate_hz).abs() < 1e-9,
            "cannot append series with different rates"
        );
        self.values.extend_from_slice(&other.values);
    }

    /// Maps values through `f`, keeping timing.
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> TimeSeries {
        TimeSeries {
            t0: self.t0,
            sample_rate_hz: self.sample_rate_hz,
            values: self.values.iter().copied().map(f).collect(),
        }
    }

    /// Mean of the values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Population variance of the values, `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        let mean = self.mean()?;
        Some(self.values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / self.values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        TimeSeries::new(1.0, 10.0, (0..20).map(|i| i as f64).collect()).unwrap()
    }

    #[test]
    fn rejects_bad_rate() {
        assert!(TimeSeries::new(0.0, 0.0, vec![]).is_err());
        assert!(TimeSeries::new(0.0, -1.0, vec![]).is_err());
        assert!(TimeSeries::new(0.0, f64::NAN, vec![]).is_err());
    }

    #[test]
    fn timing_accessors() {
        let s = series();
        assert_eq!(s.t0(), 1.0);
        assert!((s.dt() - 0.1).abs() < 1e-12);
        assert!((s.time_at(5) - 1.5).abs() < 1e-12);
        assert!((s.duration() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn index_at_time() {
        let s = series();
        assert_eq!(s.index_at(0.5), None); // before start
        assert_eq!(s.index_at(1.0), Some(0));
        assert_eq!(s.index_at(1.55), Some(5));
        assert_eq!(s.index_at(2.95), Some(19));
        assert_eq!(s.index_at(3.5), None); // past end
    }

    #[test]
    fn slice_time_clamps() {
        let s = series();
        let sub = s.slice_time(1.5, 2.0);
        assert_eq!(sub.len(), 5);
        assert_eq!(sub.values()[0], 5.0);
        assert!((sub.t0() - 1.5).abs() < 1e-12);
        // Fully outside → empty.
        assert!(s.slice_time(10.0, 12.0).is_empty());
        assert!(s.slice_time(2.0, 1.0).is_empty());
    }

    #[test]
    fn slice_before_window_start_never_leaks_samples() {
        // Series starts at t0 = 5.0; requests touching times before it
        // must clamp (or come back empty), never silently alias the
        // negative index onto sample 0's data as an in-window reading.
        let s = TimeSeries::new(5.0, 2.0, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        // Entirely before the window: empty, not "the first samples".
        let pre = s.slice_time(0.0, 4.0);
        assert!(pre.is_empty());
        // Straddling t0: clamps to the first sample, explicit contract.
        let straddle = s.slice_time(0.0, 6.0);
        assert_eq!(straddle.t0(), 5.0);
        assert_eq!(straddle.values(), &[1.0, 2.0]);
        // Infinite bounds behave as unbounded ends of the extent.
        assert_eq!(
            s.slice_time(f64::NEG_INFINITY, f64::INFINITY).values(),
            s.values()
        );
    }

    #[test]
    fn slice_with_nan_bounds_is_empty() {
        let s = TimeSeries::new(0.0, 2.0, vec![1.0, 2.0, 3.0]).unwrap();
        for (a, b) in [(f64::NAN, 1.0), (0.0, f64::NAN), (f64::NAN, f64::NAN)] {
            let sub = s.slice_time(a, b);
            assert!(sub.is_empty(), "NaN bound ({a}, {b}) must yield empty");
            assert_eq!(sub.sample_rate_hz(), 2.0);
        }
        // Reusing a buffer after a NaN request leaves no stale samples.
        let mut out = s.slice_time(0.0, 10.0);
        s.slice_time_into(f64::NAN, 1.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn append_continues_series() {
        let mut a = TimeSeries::new(0.0, 10.0, vec![1.0, 2.0]).unwrap();
        let b = TimeSeries::new(0.2, 10.0, vec![3.0]).unwrap();
        a.append(&b);
        assert_eq!(a.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    #[should_panic(expected = "different rates")]
    fn append_rate_mismatch_panics() {
        let mut a = TimeSeries::new(0.0, 10.0, vec![1.0]).unwrap();
        let b = TimeSeries::new(0.0, 20.0, vec![1.0]).unwrap();
        a.append(&b);
    }

    #[test]
    fn map_and_moments() {
        let s = TimeSeries::new(0.0, 1.0, vec![1.0, 2.0, 3.0]).unwrap();
        let doubled = s.map(|v| v * 2.0);
        assert_eq!(doubled.values(), &[2.0, 4.0, 6.0]);
        assert_eq!(s.mean(), Some(2.0));
        assert!((s.variance().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(TimeSeries::default().mean(), None);
    }

    #[test]
    fn iter_yields_time_value_pairs() {
        let s = TimeSeries::new(0.0, 2.0, vec![5.0, 6.0]).unwrap();
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs, vec![(0.0, 5.0), (0.5, 6.0)]);
    }
}
