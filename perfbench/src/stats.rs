//! Order statistics used by every reported timing.

/// Median of `xs` (mean of the two middle values for an even count; 0 for
/// an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail order statistic together with how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The chosen sample.
    pub value: f64,
    /// Its nearest-rank percentile, `100·rank/n`.
    pub percentile: f64,
    /// Number of samples the statistic was taken over.
    pub samples: usize,
    /// Number of samples ranked above it.
    pub beyond: usize,
}

/// Samples that must rank above the tail statistic.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it,
/// never below the upper median.
///
/// With `n ≥ 2·TAIL_BEYOND + 1` samples this is the sample with exactly ten
/// larger ones; with fewer, no percentile above the median has ten samples
/// beyond it, and the upper median (rank `⌊n/2⌋ + 1`) is reported instead,
/// with its percentile and `beyond` count saying so.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = n.saturating_sub(TAIL_BEYOND + 1).max(n / 2);
    Tail {
        value: v[i],
        percentile: 100.0 * (i + 1) as f64 / n as f64,
        samples: n,
        beyond: n - 1 - i,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted: reversed 1..=n.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_small_counts_fall_back_to_upper_median() {
        let t = tail(&[]);
        assert_eq!((t.samples, t.beyond), (0, 0));
        let t = tail(&[7.0]);
        assert_eq!((t.value, t.percentile, t.beyond), (7.0, 100.0, 0));
        let t = tail(&[1.0, 2.0]);
        assert_eq!((t.value, t.percentile, t.beyond), (2.0, 100.0, 0));
        let t = tail(&ramp(5));
        assert_eq!((t.value, t.percentile, t.beyond), (3.0, 60.0, 2));
        for n in 1..=2 * TAIL_BEYOND {
            let t = tail(&ramp(n));
            assert_eq!(t.value, (n / 2 + 1) as f64, "n = {n}");
            assert!(t.beyond < TAIL_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn tail_keeps_exactly_ten_beyond_once_possible() {
        for n in 2 * TAIL_BEYOND + 1..300 {
            let t = tail(&ramp(n));
            assert_eq!(t.beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.value, (n - TAIL_BEYOND) as f64, "n = {n}");
            assert_eq!(t.samples, n);
        }
        let t = tail(&ramp(1000));
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
        let t = tail(&ramp(21));
        assert_eq!((t.value, t.beyond), (11.0, 10));
    }
}
