//! Exact order statistics over full sample sets.
//!
//! Every quantile the benchmark reports is read from the complete
//! sorted sample list (nearest-rank definition), never from histogram
//! bucket edges, and carries its sample count and how many samples lie
//! beyond it.

/// A quantile read from a sorted sample list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the quantile's rank.
    pub value: u64,
    /// Samples in the list.
    pub samples: usize,
    /// Samples ranked strictly above the reported one.
    pub beyond: usize,
}

impl Quantile {
    /// Whether enough samples lie beyond the rank for the quantile to
    /// mean something (at least ten).
    pub fn resolved(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of an ascending slice: the
/// smallest sample with at least `q·n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile(sorted: &[u64], q: f64) -> Quantile {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Samples per block in [`block_quantile`]: enough that a block's p99
/// has twenty samples beyond it.
pub const BLOCK: usize = 2000;

/// Median over consecutive blocks of [`BLOCK`] samples (in arrival
/// order) of each block's exact quantile `q`, with the number of
/// blocks. A trailing partial block is left out; fewer than two full
/// blocks fall back to the quantile of all samples.
///
/// A stall on a shared host lands in a few blocks and leaves the
/// median block alone, so this reads steadier from run to run than one
/// quantile over the whole window.
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn block_quantile(in_order: &[u64], q: f64) -> (f64, usize) {
    let blocks: Vec<f64> = in_order
        .chunks_exact(BLOCK)
        .map(|b| {
            let mut b = b.to_vec();
            b.sort_unstable();
            quantile(&b, q).value as f64
        })
        .collect();
    if blocks.len() < 2 {
        let mut all = in_order.to_vec();
        all.sort_unstable();
        return (quantile(&all, q).value as f64, 1);
    }
    (median(&blocks), blocks.len())
}

/// Median of a list of measurements (mean of the middle pair for an
/// even count).
///
/// # Panics
///
/// Panics on an empty list.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The rate at least 90 % of a run's pieces (slices, calls or passes)
/// reach: the nearest-rank 10th percentile of their rates.
///
/// The host has a fast phase that takes anywhere from none to nearly
/// all of a quarter second, in no fixed pattern. A median rate reads
/// whichever phase held more of the run; the 10th percentile reads
/// the slow phase, which every run contains.
///
/// # Panics
///
/// Panics on an empty list.
pub fn floor_rate(rates: &[f64]) -> f64 {
    assert!(!rates.is_empty(), "floor rate of no rates");
    let mut v = rates.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((0.1 * v.len() as f64).ceil() as usize).max(1);
    v[rank - 1]
}

/// Nanoseconds in a duration, saturating.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_a_hand_computed_list() {
        // 1..=20: p50 is the 10th sample, p90 the 18th, p99 the 20th
        let sorted: Vec<u64> = (1..=20).collect();
        let p50 = quantile(&sorted, 0.50);
        assert_eq!((p50.value, p50.samples, p50.beyond), (10, 20, 10));
        let p90 = quantile(&sorted, 0.90);
        assert_eq!((p90.value, p90.beyond), (18, 2));
        let p99 = quantile(&sorted, 0.99);
        assert_eq!((p99.value, p99.beyond), (20, 0));
        assert!(p50.resolved());
        assert!(!p99.resolved());
        assert_eq!(quantile(&sorted, 0.0).value, 1);
        assert_eq!(quantile(&sorted, 1.0).value, 20);
    }

    #[test]
    fn p99_of_two_thousand_samples_has_twenty_beyond() {
        // a skewed list: 1980 fast samples and 20 slow ones
        let mut samples = vec![5u64; 1980];
        samples.extend((0..20).map(|i| 1000 + i));
        samples.sort_unstable();
        let p99 = quantile(&samples, 0.99);
        assert_eq!((p99.value, p99.samples, p99.beyond), (5, 2000, 20));
        let p995 = quantile(&samples, 0.995);
        assert_eq!((p995.value, p995.beyond), (1009, 10));
    }

    #[test]
    fn block_quantile_is_the_median_of_block_quantiles() {
        // three blocks whose p99 are 100, 300 and 200; a trailing
        // partial block of huge samples is ignored
        let mut samples = Vec::new();
        for top in [100u64, 300, 200] {
            samples.extend(std::iter::repeat_n(1, BLOCK - 21));
            samples.extend(std::iter::repeat_n(top, 21));
        }
        samples.extend(std::iter::repeat_n(1_000_000, BLOCK - 1));
        assert_eq!(block_quantile(&samples, 0.99), (200.0, 3));
        assert_eq!(block_quantile(&samples, 0.5), (1.0, 3));
        // one block: the quantile of every sample
        assert_eq!(block_quantile(&[5, 1, 3], 0.5), (3.0, 1));
    }

    #[test]
    fn floor_rate_is_the_nearest_rank_tenth_percentile() {
        // 20 rates: rank ceil(2.0) = 2; 25 rates: rank ceil(2.5) = 3
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(floor_rate(&twenty), 2.0);
        let twenty_five: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(floor_rate(&twenty_five), 3.0);
        assert_eq!(floor_rate(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
