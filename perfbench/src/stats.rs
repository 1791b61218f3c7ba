//! Order statistics: nearest-rank quantiles, the interquartile mean, the
//! tail rule, and quantiles read from `cil-obs` log histograms.

use cil_obs::LogHistogramSnapshot;

/// Tail percentiles the tail rule may report, highest first.
pub const TAIL_PERCENTILES: [u64; 3] = [99, 95, 90];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// Nearest-rank position (1-based) of percentile `pct` among `n` samples.
fn rank(pct: u64, n: u64) -> u64 {
    let r = (u128::from(pct) * u128::from(n)).div_ceil(100);
    u64::try_from(r)
        .expect("rank is at most n")
        .clamp(1, n.max(1))
}

/// The tail rule: the highest percentile of [`TAIL_PERCENTILES`] with at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, or 50 (only the median)
/// when none has.
pub fn tail_percentile(n: u64) -> u64 {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&pct| n - rank(pct, n).min(n) >= TAIL_MIN_BEYOND)
        .unwrap_or(50)
}

/// Nearest-rank percentile of a sample (sorted in place).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &mut [f64], pct: u64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(f64::total_cmp);
    values[rank(pct, values.len() as u64) as usize - 1]
}

/// Nearest-rank median of a sample (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50)
}

/// Interquartile mean of a sample (sorted in place): the mean of its middle
/// half, the lowest and the highest quarter dropped (below four values,
/// the plain mean). Like the median it ignores a few disturbed values; unlike
/// the median it moves smoothly with the share of a run spent in the host's
/// slow and fast phases instead of jumping from one phase to the other.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.sort_by(f64::total_cmp);
    let quarter = values.len() / 4;
    let middle = &values[quarter..values.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Percentile `pct` of a log histogram. `LogHistogramSnapshot::quantile`
/// names the bucket holding the nearest-rank sample; the sample's position
/// is interpolated linearly among that bucket's samples, so the estimate
/// moves with the data instead of snapping to a bucket midpoint (buckets
/// are at most 3.2% wide at `sub_bits` 5).
pub fn histogram_percentile(snap: &LogHistogramSnapshot, pct: u64) -> Option<f64> {
    let bucket = snap.quantile(pct as f64 / 100.0)?;
    let below = |value: u64| -> u64 {
        snap.buckets
            .iter()
            .filter(|(&index, _)| snap.bucket_bounds(index).0 < value)
            .map(|(_, &count)| count)
            .sum()
    };
    let (before, through) = (below(bucket.lo), below(bucket.hi));
    let r = rank(pct, snap.count()).clamp(before + 1, through);
    let within = ((r - before) as f64 - 0.5) / (through - before) as f64;
    Some(bucket.lo as f64 + (bucket.hi - bucket.lo) as f64 * within)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil_obs::LogHistogram;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        // p99 from 1000 samples on: exactly 10 lie beyond rank 990.
        assert_eq!(tail_percentile(1_000), 99);
        assert_eq!(tail_percentile(999), 95);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(100), 90);
        // Below 100 samples no tail percentile qualifies: only the median.
        assert_eq!(tail_percentile(99), 50);
        assert_eq!(tail_percentile(11), 50);
        assert_eq!(tail_percentile(1), 50);
        assert_eq!(tail_percentile(0), 50);
        assert_eq!(tail_percentile(20_000_000), 99);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(median(&mut v), 6.0);
        assert_eq!(percentile(&mut v, 90), 10.0);
        assert_eq!(percentile(&mut v, 99), 11.0);
        assert_eq!(median(&mut [4.0, 1.0]), 1.0);
    }

    #[test]
    fn the_interquartile_mean_drops_the_outer_quarters() {
        let mut v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(interquartile_mean(&mut v), 3.5);
        // 9 values: the two lowest and two highest go, five remain.
        let mut v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(interquartile_mean(&mut v), 5.0);
        assert_eq!(interquartile_mean(&mut [1.0, 2.0, 6.0]), 3.0);
        assert_eq!(interquartile_mean(&mut [7.0]), 7.0);
    }

    #[test]
    fn histogram_percentiles_interpolate_inside_the_bucket() {
        let h = LogHistogram::new(5);
        for v in 1..=100u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        // Values below 64 have exact unit buckets: rank 50 is value 50,
        // read at the middle of [50, 51).
        assert_eq!(histogram_percentile(&snap, 50), Some(50.5));
        // Rank 99 sits in [98, 100), the bucket holding 98 and 99.
        let p99 = histogram_percentile(&snap, 99).unwrap();
        assert!((98.0..100.0).contains(&p99), "p99 {p99}");
        assert_eq!(
            histogram_percentile(&LogHistogram::new(5).snapshot(), 50),
            None
        );
    }
}
