//! Smoothing filters: the centered moving average with which the step
//! detector smooths the raw magnitude.

use crate::series::TimeSeries;

/// Centered moving average with the given window (in samples). A window
/// of 0 or 1 returns the input unchanged; even windows are rounded up to
/// the next odd size so the filter stays centered.
pub fn moving_average(series: &TimeSeries, window: usize) -> TimeSeries {
    let mut out = TimeSeries::default();
    moving_average_into(series, window, &mut out);
    out
}

/// [`moving_average`] into a caller-owned series, reusing its buffer.
/// `out`'s previous contents are discarded.
pub fn moving_average_into(series: &TimeSeries, window: usize, out: &mut TimeSeries) {
    let v = series.values();
    if window <= 1 || series.is_empty() {
        out.assign(series.t0(), series.sample_rate_hz(), v.iter().copied())
            .expect("rate unchanged");
        return;
    }
    let half = window / 2;
    out.assign(
        series.t0(),
        series.sample_rate_hz(),
        (0..v.len()).map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(v.len());
            v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        }),
    )
    .expect("rate unchanged");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(0.0, 10.0, values).unwrap()
    }

    #[test]
    fn moving_average_smooths_spike() {
        let out = moving_average(&s(vec![0.0, 0.0, 9.0, 0.0, 0.0]), 3);
        assert_eq!(out.values()[2], 3.0);
        assert_eq!(out.values()[0], 0.0);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let input = s(vec![1.0, 2.0, 3.0]);
        assert_eq!(moving_average(&input, 1), input);
        assert_eq!(moving_average(&input, 0), input);
    }

    #[test]
    fn moving_average_preserves_constant() {
        let input = s(vec![4.0; 10]);
        let out = moving_average(&input, 5);
        assert!(out.values().iter().all(|&v| (v - 4.0).abs() < 1e-12));
    }
}
