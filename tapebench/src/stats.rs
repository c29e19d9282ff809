//! Order statistics used by the report.

/// The median of `values` (mean of the middle two for an even count;
/// 0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of `values` (infinite for an empty slice).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Percentiles tried for a tail, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank `pct`-th percentile of ascending `sorted` and the
/// number of samples strictly after its rank.
fn nearest_rank(sorted: &[u64], pct: f64) -> (u64, usize) {
    let n = sorted.len();
    // Ranks are at most n, far below 2^53. The epsilon keeps a product
    // like 99.99% of 100000 from rounding up past its exact rank.
    let rank = ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// A per-call timing: the median, the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallTimes {
    /// Calls timed.
    pub calls: usize,
    /// Median duration.
    pub p50: u64,
    /// Tail duration at `tail_pct`.
    pub tail: u64,
    /// Which percentile `tail` is. 100 (the maximum) when fewer than
    /// `2 * TAIL_BEYOND` samples leave no percentile with enough beyond.
    pub tail_pct: f64,
}

/// Applies the tail rule to a set of durations.
pub fn call_times(durations: &[u64]) -> CallTimes {
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    let Some(&max) = sorted.last() else {
        return CallTimes {
            calls: 0,
            p50: 0,
            tail: 0,
            tail_pct: 100.0,
        };
    };
    let (p50, _) = nearest_rank(&sorted, 50.0);
    let (tail, tail_pct) = TAIL_LADDER
        .iter()
        .find_map(|&pct| {
            let (v, beyond) = nearest_rank(&sorted, pct);
            (beyond >= TAIL_BEYOND).then_some((v, pct))
        })
        .unwrap_or((max, 100.0));
    CallTimes {
        calls: sorted.len(),
        p50,
        tail,
        tail_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(fastest(&[4.0, 1.5, 3.0]), 1.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let d: Vec<u64> = (1..=1000).collect();
        let t = call_times(&d);
        assert_eq!(t.calls, 1000);
        assert_eq!(t.p50, 500);
        // p99.9 leaves one sample beyond, p99 leaves exactly ten.
        assert_eq!(t.tail_pct, 99.0);
        assert_eq!(t.tail, 990);
        let d: Vec<u64> = (1..=100_000).collect();
        let t = call_times(&d);
        assert_eq!((t.tail_pct, t.tail), (99.99, 99_990));
        // 100 samples: p95 leaves five, p90 leaves ten.
        let d: Vec<u64> = (1..=100).collect();
        assert_eq!(call_times(&d).tail_pct, 90.0);
        // 99 samples: p90 leaves nine, so the rule steps down to p75.
        let d: Vec<u64> = (1..=99).collect();
        let t = call_times(&d);
        assert_eq!((t.tail_pct, t.tail), (75.0, 75));
    }

    #[test]
    fn small_counts_fall_back_to_the_maximum() {
        // 20 samples: the median leaves exactly ten beyond.
        let d: Vec<u64> = (1..=20).rev().collect();
        let t = call_times(&d);
        assert_eq!((t.tail_pct, t.tail, t.p50), (50.0, 10, 10));
        // 19 samples: no percentile on the ladder has ten beyond.
        let d: Vec<u64> = (1..=19).collect();
        let t = call_times(&d);
        assert_eq!((t.tail_pct, t.tail, t.p50), (100.0, 19, 10));
        let t = call_times(&[7]);
        assert_eq!((t.calls, t.p50, t.tail, t.tail_pct), (1, 7, 7, 100.0));
        let t = call_times(&[]);
        assert_eq!((t.calls, t.p50, t.tail), (0, 0, 0));
    }
}
