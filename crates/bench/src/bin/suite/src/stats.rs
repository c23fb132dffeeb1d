//! Percentiles and medians over latency samples.

/// The highest percentile that still has at least ten samples beyond
/// it, capped at `want` and never below the median. 0.99 needs 1000
/// samples; a shorter run reports a lower tail and says which.
pub(crate) fn supported_percentile(samples: usize, want: f64) -> f64 {
    if samples == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / samples as f64).min(want).max(0.5)
}

/// Latencies of one op kind in one phase. A failed op has no latency of
/// its own: it counts at the run's maximum, so failing can never make a
/// percentile look better.
#[derive(Debug, Default, Clone)]
pub(crate) struct Latencies {
    pub(crate) ok_ms: Vec<f64>,
    pub(crate) failed: usize,
}

impl Latencies {
    pub(crate) fn count(&self) -> usize {
        self.ok_ms.len() + self.failed
    }

    pub(crate) fn merge(&mut self, other: Latencies) {
        self.ok_ms.extend(other.ok_ms);
        self.failed += other.failed;
    }

    /// All samples ascending, failed ops placed at the maximum.
    fn sorted(&self) -> Vec<f64> {
        let mut all = self.ok_ms.clone();
        all.sort_by(f64::total_cmp);
        let max = all.last().copied().unwrap_or(0.0);
        all.extend(std::iter::repeat_n(max, self.failed));
        all
    }

    /// The value at percentile `p` (nearest rank); 0 with no samples.
    pub(crate) fn percentile(&self, p: f64) -> f64 {
        let all = self.sorted();
        if all.is_empty() {
            return 0.0;
        }
        let rank = (p * all.len() as f64).ceil() as usize;
        all[rank.clamp(1, all.len()) - 1]
    }

    /// `(percentile used, value)` for the tail metric: p99, or the
    /// highest supported percentile when there are under 1000 samples.
    pub(crate) fn tail(&self) -> (f64, f64) {
        let p = supported_percentile(self.count(), 0.99);
        (p, self.percentile(p))
    }

    pub(crate) fn max(&self) -> f64 {
        self.ok_ms.iter().copied().fold(0.0, f64::max)
    }
}

pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Quartile `q` (1 or 3) of ascending `sorted`, by the "exclusive"
/// method of Python's `statistics.quantiles(values, n=4)`.
fn quartile(sorted: &[f64], q: usize) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let pos = q * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The first quartile of repeated timings of the **same work** (passes
/// over one pool, chunks of one make-up, set-ups of one corpus): the
/// time the work takes when the neighbours on this shared host leave it
/// alone. They only ever add time, in stretches of seconds, so the
/// median of a run moves with how many of its passes they hit and the
/// fast quartile does not, as long as a quarter of the passes escape.
/// Not the minimum: one lucky pass must not decide the figure.
pub(crate) fn undisturbed(times: &[f64]) -> f64 {
    quartile(&ascending(times), 1)
}

/// Distance between the first and third quartile as a share of the
/// median. `None` under two values.
pub(crate) fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let sorted = ascending(values);
    let med = median(&sorted);
    (med != 0.0).then(|| (quartile(&sorted, 3) - quartile(&sorted, 1)).abs() / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(2_000, 0.99), 0.99);
        assert_eq!(supported_percentile(1_000, 0.99), 0.99);
        // 200 samples: ten beyond means p95 at most.
        assert!((supported_percentile(200, 0.99) - 0.95).abs() < 1e-12);
        assert_eq!(supported_percentile(12, 0.99), 0.5);
        assert_eq!(supported_percentile(0, 0.99), 0.5);
        let lat = Latencies {
            ok_ms: (1..=200).map(f64::from).collect(),
            failed: 0,
        };
        let (p, value) = lat.tail();
        assert!((p - 0.95).abs() < 1e-12);
        assert_eq!(value, 190.0);
        assert_eq!(lat.ok_ms.iter().filter(|&&v| v > value).count(), 10);
    }

    #[test]
    fn failed_ops_count_at_the_maximum() {
        let lat = Latencies {
            ok_ms: vec![1.0, 2.0, 3.0, 40.0],
            failed: 4,
        };
        assert_eq!(lat.count(), 8);
        // Half the ops failed, so everything above the median is the max.
        assert_eq!(lat.percentile(0.5), 40.0);
        assert_eq!(lat.percentile(0.25), 2.0);
        assert_eq!(lat.percentile(1.0), 40.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((quartile_spread(&[10.0, 12.0, 11.0]).unwrap() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), None);
    }

    #[test]
    fn undisturbed_is_the_fast_quartile_not_the_minimum() {
        // Eight passes, three of them hit by a neighbour, one lucky.
        let passes = [1.00, 1.01, 0.90, 1.02, 1.40, 1.35, 1.01, 1.60];
        let fast = undisturbed(&passes);
        assert!((fast - 1.0025).abs() < 1e-12, "{fast}");
        assert_eq!(undisturbed(&[2.0]), 2.0);
        assert_eq!(undisturbed(&[]), 0.0);
    }
}
