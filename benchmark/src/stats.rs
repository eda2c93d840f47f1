//! Order statistics shared by every workload and by `--compare`.

/// The nearest-rank quantile `num/den` of `sorted` (ascending): the
/// `ceil(num * n / den)`-th smallest value, the rule `islaris_bench::summarize`
/// and the daemon's histograms use.
///
/// # Panics
///
/// Panics on an empty slice or `num > den`.
#[must_use]
pub fn nearest_rank(sorted: &[u64], num: u64, den: u64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(num <= den, "quantile above 1");
    let n = sorted.len() as u64;
    let rank = (num * n).div_ceil(den).max(1);
    sorted[usize::try_from(rank - 1).expect("rank fits usize")]
}

/// A latency distribution in nanoseconds, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<u64>,
}

impl Dist {
    /// Sorts `samples` into a distribution.
    #[must_use]
    pub fn new(mut samples: Vec<u64>) -> Dist {
        samples.sort_unstable();
        Dist { sorted: samples }
    }

    /// Sample count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank quantile `num/den` in milliseconds (`0` without
    /// samples, so a layer a workload never enters reads as zero).
    #[must_use]
    pub fn ms(&self, num: u64, den: u64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            ns_to_ms(nearest_rank(&self.sorted, num, den))
        }
    }

    /// The mean in milliseconds (`0` without samples).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.sorted.iter().map(|&v| u128::from(v)).sum();
        sum as f64 / self.sorted.len() as f64 / 1e6
    }
}

/// Nanoseconds to milliseconds.
#[must_use]
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean needs positive values"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The median of real values (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The first and third quartiles by Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// the rule the two-run agreement check is stated in.
///
/// # Panics
///
/// Panics with fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The quartile distance as a share of the median: the run-to-run
/// spread a bound is compared against (`0` for fewer than two values).
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_agrees_with_summarize() {
        let inputs: [&[u64]; 5] = [
            &[7],
            &[5, 1, 3],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            &[100, 100, 200, 700, 700, 900, 3_000],
            &[17, 23, 23, 148, 1_033, 56_789, 999_999, 4_100_000],
        ];
        for input in inputs {
            let (min, med, p90, max, _) = islaris_bench::summarize(input);
            let d = Dist::new(input.to_vec());
            let sorted = &d.sorted;
            assert_eq!(nearest_rank(sorted, 1, 2), med, "median of {input:?}");
            assert_eq!(nearest_rank(sorted, 9, 10), p90, "p90 of {input:?}");
            assert_eq!(nearest_rank(sorted, 1, 1), max, "max of {input:?}");
            assert_eq!(nearest_rank(sorted, 0, 1), min, "min of {input:?}");
        }
    }

    #[test]
    fn p99_needs_the_hundredth_rank() {
        let d = Dist::new((1..=1000).collect());
        assert_eq!(nearest_rank(&d.sorted, 99, 100), 990);
        assert!((d.ms(99, 100) - 990e-6).abs() < 1e-12);
        assert_eq!(Dist::default().ms(1, 2), 0.0);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }
}
