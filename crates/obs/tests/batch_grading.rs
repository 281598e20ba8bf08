//! Grading a batch as one interval must be indistinguishable from
//! grading its values one by one.
//!
//! Each property feeds the same random trace through the O(1)-per-batch
//! path (`record_n`, `observe_interval`, `record_batch`) and through the
//! per-value oracle (`record`, `observe`, `SloEvaluator::record`), and
//! compares everything either path exposes.

use cnet_obs::{LogHistogram, SloEvaluator, SloPolicy, ViolationTracker};
use proptest::prelude::*;

/// One batch: `k` values from `base`, bracketed by `[start, end]`.
#[derive(Debug, Clone, Copy)]
struct Batch {
    start: u64,
    end: u64,
    base: u64,
    k: u64,
    sojourn_ns: u64,
}

/// One generated batch: `((start, len), (base, k), sojourn_ns)`.
type Draw = ((u64, u64), (u64, u64), u64);

/// Raw draws turned into batches, optionally end-sorted. Bases are
/// drawn independently, so batches may overlap and land far out of
/// order: the equivalence does not depend on the values being a
/// counter's.
fn batches(raw: &[Draw], end_sorted: bool) -> Vec<Batch> {
    let mut out: Vec<Batch> = raw
        .iter()
        .map(|&((start, len), (base, k), sojourn_ns)| Batch {
            start,
            end: start + len,
            base,
            k,
            sojourn_ns,
        })
        .collect();
    if end_sorted {
        out.sort_by_key(|b| b.end);
    }
    out
}

/// `bound[i]` is the smallest start of batches `i..`: what a service
/// would pass as the in-flight frontier after completing batch `i - 1`.
fn min_start_after(trace: &[Batch]) -> Vec<u64> {
    let mut bound = vec![u64::MAX; trace.len() + 1];
    for (i, b) in trace.iter().enumerate().rev() {
        bound[i] = bound[i + 1].min(b.start);
    }
    bound
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `record_n(v, n)` equals `n` calls of `record(v)`, on top of any
    /// earlier samples (including `n = 0`, which must not touch min).
    #[test]
    fn record_n_equals_repeated_record(
        runs in proptest::collection::vec((0u64..1 << 40, 0u64..40), 0..12),
    ) {
        let mut batched = LogHistogram::new();
        let mut oracle = LogHistogram::new();
        for &(v, n) in &runs {
            batched.record_n(v, n);
            for _ in 0..n {
                oracle.record(v);
            }
            prop_assert_eq!(&batched, &oracle);
        }
        prop_assert_eq!(batched.min(), oracle.min());
    }

    /// `observe_interval` equals `k` calls of `observe`, in any feed
    /// order: same count, magnitude histogram, observed total, and the
    /// per-value magnitudes are `top - j` while positive.
    #[test]
    fn observe_interval_equals_per_value_observe(
        raw in proptest::collection::vec(
            ((0u64..60, 1u64..20), (0u64..120, 1u64..24), 0u64..1), 1..40),
        end_sorted in 0u64..2,
    ) {
        let trace = batches(&raw, end_sorted == 1);
        let mut batched = ViolationTracker::new();
        let mut oracle = ViolationTracker::new();
        for b in &trace {
            let top = batched.observe_interval(b.start, b.end, b.base, b.k);
            for j in 0..b.k {
                let m = oracle.observe(b.start, b.end, b.base + j);
                prop_assert_eq!(m, top.saturating_sub(j), "value {} of {:?}", j, b);
            }
            prop_assert_eq!(batched.count(), oracle.count());
            prop_assert_eq!(batched.magnitude(), oracle.magnitude());
            prop_assert_eq!(batched.observed(), oracle.observed());
        }
    }

    /// `record_batch` equals `k` calls of `record` with the sibling
    /// retire bound: identical full reports (windows, magnitudes,
    /// latency histograms, breaches with their timestamps) and
    /// identical tracker totals. Batches up to 3x the window straddle
    /// window boundaries; tight permille/magnitude/p99 thresholds make
    /// breaches fire and clear.
    #[test]
    fn record_batch_equals_per_value_record(
        raw in proptest::collection::vec(
            ((0u64..80, 1u64..25), (0u64..150, 1u64..25), 0u64..4000), 1..40),
        window_ops in 1u64..9,
        thresholds in (0u64..400, 0u64..12, 500u64..4000),
    ) {
        let (rate_pm, max_magnitude, p99_latency_ns) = thresholds;
        let trace = batches(&raw, true);
        let bound = min_start_after(&trace);
        let policy = SloPolicy {
            max_violation_rate: rate_pm as f64 / 1000.0,
            max_magnitude,
            p99_latency_ns,
        };
        let mut batched = SloEvaluator::new(policy, window_ops);
        let mut oracle = SloEvaluator::new(policy, window_ops);
        for (i, b) in trace.iter().enumerate() {
            let now_ms = i as u64;
            let top = batched.record_batch(
                b.start, b.end, b.base, b.k, b.sojourn_ns, bound[i + 1], now_ms,
            );
            for j in 0..b.k {
                // siblings share `start`: retire past it only after the last
                let retire = if j + 1 == b.k { bound[i + 1] } else { bound[i + 1].min(b.start) };
                let m = oracle.record(b.start, b.end, b.base + j, b.sojourn_ns, retire, now_ms);
                prop_assert_eq!(m, top.saturating_sub(j), "value {} of {:?}", j, b);
            }
            prop_assert_eq!(batched.snapshot(0), oracle.snapshot(0), "after batch {}", i);
        }
        let (bt, ot) = (batched.tracker(), oracle.tracker());
        prop_assert_eq!(bt.count(), ot.count());
        prop_assert_eq!(bt.magnitude(), ot.magnitude());
        prop_assert_eq!(bt.observed(), ot.observed());
        prop_assert!(bt.retained() <= ot.retained());
    }
}

/// A batch wider than several windows that violates across all of
/// them: the split must charge each window its own slice of the
/// descending magnitude run.
#[test]
fn violating_batch_split_across_windows() {
    let mut batched = SloEvaluator::new(SloPolicy::unbounded(), 3);
    let mut oracle = SloEvaluator::new(SloPolicy::unbounded(), 3);
    // finishes at 10 holding 20; then a batch of 10 values from 5
    // starts after it: values 5..=14 violate by 15 down to 6
    batched.record_batch(0, 10, 20, 1, 7, 11, 0);
    oracle.record(0, 10, 20, 7, 11, 0);
    assert_eq!(batched.record_batch(11, 12, 5, 10, 9, u64::MAX, 1), 15);
    for j in 0..10 {
        let retire = if j == 9 { u64::MAX } else { 11 };
        oracle.record(11, 12, 5 + j, 9, retire, 1);
    }
    let report = batched.snapshot(0);
    assert_eq!(report, oracle.snapshot(0));
    assert_eq!(report.windows_closed, 3);
    assert_eq!(report.windows[0].magnitude_total, 15 + 14);
    assert_eq!(report.windows[1].magnitude_max, 13);
    assert_eq!(report.total.violations, 10);
    assert_eq!(batched.tracker().retained(), 0);
}

/// An empty batch records nothing.
#[test]
fn empty_batch_is_a_no_op() {
    let mut ev = SloEvaluator::new(SloPolicy::unbounded(), 2);
    assert_eq!(ev.record_batch(0, 1, 0, 0, 5, 2, 0), 0);
    assert_eq!(
        ev.snapshot(0),
        SloEvaluator::new(SloPolicy::unbounded(), 2).snapshot(0)
    );
    assert_eq!(ev.tracker().observed(), 0);
}
