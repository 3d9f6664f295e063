//! Sample statistics: medians and the tail-percentile rule.

/// Median of a sample (mean of the two middle values for even sizes);
/// `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// A tail percentile picked by the reporting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the percentile.
    pub value: f64,
    /// The percentile, in percent: `100 · (n − 10) / n`.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that has at least [`TAIL_BEYOND`] samples
/// beyond it: in the ascending order, the sample with exactly ten
/// samples after it. With ten samples or fewer no percentile qualifies
/// and the result is `None`.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(samples);
    Some(Tail {
        value: sorted[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // Eleven samples: only the smallest has ten beyond it.
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

        // A thousand samples: the 990th value, i.e. p99.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        let beyond = thousand.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }
}
