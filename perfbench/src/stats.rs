//! Summary statistics and failure accounting for timed operations.

use std::time::{Duration, Instant};

/// The monotonic clock every measurement in the benchmark reads.
pub fn now() -> Instant {
    // gridmtd-lint: allow(wallclock) -- the benchmark exists to measure; timings never feed program results
    Instant::now()
}

/// Median of `xs` (mean of the two middle samples for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, interpolated exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method). Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// A tail latency chosen by the tail rule, with the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// The tail sample.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Number of samples the tail was taken over.
    pub samples: usize,
    /// `false` when there were too few samples for the rule and `value`
    /// is the maximum instead.
    pub rule_met: bool,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that has at least [`TAIL_BEYOND`] samples
/// beyond it. With fewer than `TAIL_BEYOND + 1` samples no percentile
/// qualifies, and the maximum is reported instead ([`max_tail`]).
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return max_tail(xs);
    }
    let idx = n - 1 - TAIL_BEYOND;
    #[allow(clippy::cast_precision_loss)]
    let percentile = 100.0 * (idx + 1) as f64 / n as f64;
    Tail {
        value: s[idx],
        percentile,
        samples: n,
        rule_met: true,
    }
}

/// The maximum, for a workload with too few samples per run for a
/// percentile with [`TAIL_BEYOND`] samples beyond it to be an upper one.
pub fn max_tail(xs: &[f64]) -> Tail {
    Tail {
        value: xs.iter().copied().fold(0.0, f64::max),
        percentile: 100.0,
        samples: xs.len(),
        rule_met: false,
    }
}

impl Tail {
    /// One-line description: which percentile, over how many samples.
    pub fn describe(&self) -> String {
        if self.rule_met {
            format!(
                "p{:.1} of {} samples ({} beyond)",
                self.percentile, self.samples, TAIL_BEYOND
            )
        } else {
            format!(
                "max of {} samples (too few for an upper percentile with {} beyond)",
                self.samples, TAIL_BEYOND
            )
        }
    }
}

/// Attempted, failed and within-limit counts of a run's operations.
///
/// A failed or refused operation counts as a miss of the latency limit
/// however fast it came back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored, were refused, or failed an output check.
    pub failed: u64,
    /// Operations that succeeded within the latency limit.
    pub within_limit: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool, latency: Duration, limit: Duration) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        } else if latency <= limit {
            self.within_limit += 1;
        }
    }

    /// Turns an operation that already counted as a success into a
    /// failure (an output check that ran after the timed phase).
    pub fn fail_late(&mut self, was_within_limit: bool) {
        self.failed += 1;
        if was_within_limit {
            self.within_limit -= 1;
        }
    }

    /// Successful operations within the limit, over operations attempted.
    pub fn within_limit_frac(&self) -> f64 {
        ratio(self.within_limit, self.attempted)
    }
}

/// `num / den` as a float, `0.0` when `den` is zero.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss)]
        let r = num as f64 / den as f64;
        r
    }
}

/// Mean of `xs`; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss)]
        let n = xs.len() as f64;
        xs.iter().sum::<f64>() / n
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_the_eleventh_largest_sample() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert!(t.rule_met);
        assert_eq!(t.samples, 100);
        assert_eq!(t.value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(t.describe(), "p90.0 of 100 samples (10 beyond)");
    }

    #[test]
    fn tail_with_exactly_eleven_samples_is_the_minimum() {
        let xs: Vec<f64> = (0..11).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert!(t.rule_met);
        assert_eq!(t.value, 0.0);
    }

    #[test]
    fn tail_falls_back_to_the_maximum_and_says_so() {
        let t = tail(&[3.0, 9.0, 4.0]);
        assert!(!t.rule_met);
        assert_eq!(t.value, 9.0);
        assert_eq!(t.samples, 3);
        assert!(t.describe().starts_with("max of 3 samples"));
        assert_eq!(tail(&[]).value, 0.0);
        // A workload with too few ops for an upper percentile asks for
        // the maximum outright, however many samples it has.
        let xs: Vec<f64> = (1..=14).map(f64::from).collect();
        let m = max_tail(&xs);
        assert_eq!((m.value, m.samples, m.rule_met), (14.0, 14, false));
        assert!(tail(&xs).value < 14.0);
    }

    #[test]
    fn failed_and_refused_ops_miss_the_limit() {
        let limit = Duration::from_millis(100);
        let mut t = Tally::default();
        t.record(true, Duration::from_millis(10), limit);
        t.record(true, Duration::from_millis(150), limit);
        // Fast but failed (or refused): a miss, never within the limit.
        t.record(false, Duration::from_millis(1), limit);
        assert_eq!(t.attempted, 3);
        assert_eq!(t.failed, 1);
        assert_eq!(t.within_limit, 1);
        assert!((t.within_limit_frac() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_late_check_failure_removes_the_op_from_within_limit() {
        let limit = Duration::from_millis(100);
        let mut t = Tally::default();
        t.record(true, Duration::from_millis(10), limit);
        t.record(true, Duration::from_millis(10), limit);
        t.fail_late(true);
        assert_eq!((t.attempted, t.failed, t.within_limit), (2, 1, 1));
        assert_eq!(Tally::default().within_limit_frac(), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
