//! Reporting arithmetic: latency percentiles under the "ten samples beyond
//! it" rule, ratios that carry their base, metric-name validity, and the
//! median/quartile summaries a run reports across its rounds.

/// The percentiles a latency summary may report, highest last.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile must leave beyond it before it may be reported.
pub const TAIL_SAMPLES: f64 = 10.0;

/// The highest percentile in [`PERCENTILES`] that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it, or `None` when even the
/// median does not (fewer than 20 samples).
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_SAMPLES - 1e-9)
}

/// Whether percentile `p` may be reported over `n` samples.
pub fn percentile_allowed(p: f64, n: usize) -> bool {
    highest_percentile(n).is_some_and(|top| p <= top)
}

/// Nearest-rank percentile `p` of `sorted` (ascending). `None` when the
/// sample count does not allow `p` (see [`percentile_allowed`]).
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if !percentile_allowed(p, sorted.len()) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A ratio that keeps its base, so a report can say "3.2 per write, over
/// 4096 writes" and can tell "no base" apart from "zero".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator: the count the ratio is taken over.
    pub base: f64,
}

impl Ratio {
    /// `num / base`.
    pub fn new(num: f64, base: f64) -> Ratio {
        Ratio { num, base }
    }

    /// The ratio, or `None` when the base is zero (the metric is absent,
    /// not 0).
    pub fn value(self) -> Option<f64> {
        (self.base != 0.0).then(|| self.num / self.base)
    }
}

/// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit,
/// at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`; both equal the value for one sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |m: f64| {
        // Position m*(n+1)/4 in 1-based ranks, clamped to the data.
        let pos = (m * (n as f64 + 1.0) / 4.0).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (at(1.0), at(3.0))
}

/// Inter-quartile distance as a share of the median (`0` for a constant
/// series, `None` when the median is zero).
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let m = median(xs);
    let (q1, q3) = quartiles(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
        assert!(percentile_allowed(99.0, 1_000));
        assert!(!percentile_allowed(99.0, 999));
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let xs: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&xs, 50.0), Some(500));
        assert_eq!(percentile(&xs, 99.0), Some(990));
        assert_eq!(percentile(&xs, 99.9), None);
        assert_eq!(percentile(&xs[..999], 99.0), None);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in ["write_p99_us", "nvcache.pwrite.calls", "a", "9-lives", "x.Y_z-1"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "sp ace", "slash/name", "ünï", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn ratios_carry_their_base_and_vanish_without_one() {
        let r = Ratio::new(3.0, 12.0);
        assert_eq!(r.base, 12.0);
        assert_eq!(r.value(), Some(0.25));
        assert_eq!(Ratio::new(0.0, 5.0).value(), Some(0.0));
        assert_eq!(Ratio::new(7.0, 0.0).value(), None);
        assert_eq!(Ratio::new(0.0, 0.0).value(), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        assert_eq!(relative_spread(&xs), Some(5.5 / 5.5));
        assert_eq!(relative_spread(&[4.0, 4.0, 4.0]), Some(0.0));
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }
}
