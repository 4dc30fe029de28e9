//! Order statistics for latency samples.

/// Percentiles considered for the tail, highest first. Capped at p95: on
/// `campaign-cosyn` the GA's per-call threads make p99 swing with whatever
/// else runs on the second core (6.9 to 13 ms across ten seeds, IQR/median
/// 0.40, above any admissible bound).
const TAIL_CANDIDATES: [f64; 4] = [95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Linear-interpolated quantile (`q` in 0..=1) of ascending `sorted`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = rank.ceil() as usize;
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The highest percentile of `count` samples with at least ten samples
/// beyond it; the median when there are too few samples.
pub fn tail_percentile(count: usize) -> f64 {
    let n = count as f64;
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| (n * (1.0 - p / 100.0)).floor() >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// [`tail_percentile`] of the samples, and its value.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let percentile = tail_percentile(sorted.len());
    (percentile, quantile(&sorted, percentile / 100.0))
}

/// `statistic` of each complete window of `window` (at least 1)
/// consecutive samples, the median across windows, and the window count.
/// A burst of host contention moves the windows it falls in, not the
/// median of them.
pub fn windowed(samples: &[f64], window: usize, statistic: impl Fn(&[f64]) -> f64) -> (f64, usize) {
    let values: Vec<f64> = samples.chunks_exact(window).map(statistic).collect();
    (median(&values), values.len())
}

/// Least-squares slope of `ln y` against `ln x` (0 with fewer than two
/// distinct `x`).
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    if logs.len() < 2 || sxx <= 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&samples).0, 95.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 50.0);
    }

    #[test]
    fn windowed_is_the_median_over_windows() {
        // Three windows of 200 and a partial one; one holds a burst of
        // slow samples.
        let mut samples: Vec<f64> = (0..650).map(|i| f64::from(i % 200)).collect();
        samples[200..320].fill(1000.0);
        let (p95, windows) = windowed(&samples, 200, |w| tail(w).1);
        assert_eq!(windows, 3);
        assert!((p95 - tail(&samples[..200]).1).abs() < 1e-9);
        assert_eq!(windowed(&samples, 200, median).0, median(&samples[..200]));
    }

    #[test]
    fn slope_of_a_power_law() {
        let points: Vec<(f64, f64)> = [100.0, 200.0, 400.0]
            .iter()
            .map(|&x: &f64| (x, 3.0 * x.powf(1.5)))
            .collect();
        assert!((log_log_slope(&points) - 1.5).abs() < 1e-9);
        assert_eq!(log_log_slope(&[(1.0, 1.0)]), 0.0);
    }
}
