//! Order statistics for the repeats of one run.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The one timing a run reports for its repeats, in raw wall-clock.
///
/// A simulator repeat is the same single-threaded instruction stream every
/// time, so its fastest repeat is the program's own time and whatever a
/// slower repeat adds is the machine's (on a shared box whole seconds run
/// 1.3× slow): the minimum. A thread or socket repeat's time also depends
/// on how its threads interleave, which is part of what is measured, and
/// its fastest repeat is a lucky schedule: the median.
pub fn typical(samples: &[f64], concurrent: bool) -> f64 {
    if concurrent {
        median(samples)
    } else {
        assert!(!samples.is_empty(), "minimum of no samples");
        samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so the spread
/// this harness prints is the spread the acceptance rule computes.
/// `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |i: usize| {
        // Position i·(n+1)/4 among 1-based ranks; the index is clamped to
        // the sample, the interpolation weight is not.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(percentile, value)`, or `None` with fewer than eleven samples. With
/// 1 000 samples this is p99, with 100 it is p90.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let n = values.len();
    if n <= BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - BEYOND - 1;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn typical_is_the_minimum_alone_and_the_median_under_concurrency() {
        assert_eq!(typical(&[3.0, 1.0, 2.0], false), 1.0);
        assert_eq!(typical(&[3.0, 1.0, 2.0], true), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "nothing has ten samples beyond it");
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((100.0 / 11.0, 0.0)));
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 89.0)));
        let thousand: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 989.0)));
    }
}
