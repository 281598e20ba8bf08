//! Streaming non-linearizability telemetry with violation *magnitude*.
//!
//! The offline sweep in `cnet-timing` answers "how many operations were
//! non-linearizable?". Production telemetry also wants to know *how
//! far* out of order each violating operation landed. This tracker
//! observes `(start, end, value)` triples as operations complete and,
//! per Definition 2.4 of the paper, flags an operation whenever some
//! operation that finished strictly before it started returned a
//! *larger* value. The magnitude of a violation is the gap in counter
//! positions: `max_finished_value - value`.

use crate::hist::LogHistogram;

/// Streaming violation counter + magnitude histogram.
///
/// Observations are expected in (roughly) completion order. Exactly
/// end-sorted input — what the single-threaded simulator produces —
/// costs O(1) amortized per observation; out-of-order input (real
/// threads racing to report) is handled correctly by insertion, which
/// stays cheap while the stream is nearly sorted.
///
/// # Example
///
/// ```
/// use cnet_obs::ViolationTracker;
///
/// let mut t = ViolationTracker::new();
/// t.observe(0, 10, 5); // finishes at 10 holding value 5
/// t.observe(20, 30, 2); // starts after, sees a smaller value: violation
/// assert_eq!(t.count(), 1);
/// assert_eq!(t.magnitude().max(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ViolationTracker {
    /// End timestamps, kept sorted ascending.
    ends: Vec<u64>,
    /// Returned values, parallel to `ends`.
    values: Vec<u64>,
    /// `prefix_max[i]` = max of `values[..=i]` *including* every
    /// retired operation (all of which ended before any retained one
    /// matters — see [`ViolationTracker::retire`]).
    prefix_max: Vec<u64>,
    /// Max value over all retired operations.
    floor: u64,
    /// Operations observed so far, retired or not. An interval entry
    /// stands for many operations, so this is not derivable from the
    /// entry count.
    observed: u64,
    /// Lower bound promised for every future `observe` start — the
    /// largest `min_future_start` passed to `retire` so far.
    retire_frontier: u64,
    count: u64,
    magnitude: LogHistogram,
}

impl ViolationTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one completed operation. Returns the violation
    /// magnitude (`> 0` iff this operation is non-linearizable against
    /// the operations observed so far).
    pub fn observe(&mut self, start: u64, end: u64, value: u64) -> u64 {
        debug_assert!(
            start >= self.retire_frontier,
            "observe(start={start}) violates the retire({}) contract",
            self.retire_frontier
        );
        let magnitude = self.finished_max(start).saturating_sub(value);
        if magnitude > 0 {
            self.count += 1;
            self.magnitude.record(magnitude);
        }
        self.insert(end, value);
        self.observed += 1;
        magnitude
    }

    /// Observes `k` completed operations that share one bracket
    /// `[start, end]` and returned the values `base..base + k` — one
    /// batch draw. Equivalent to `k` calls of [`observe`] with those
    /// values, at the cost of one.
    ///
    /// Definition 2.4 only compares an operation against operations
    /// that finished strictly before it started, and `start <= end`,
    /// so no value of the batch precedes another: all `k` see the same
    /// finished maximum `F`, and value `base + j` violates by
    /// `F - base - j` while that is positive. For every later
    /// operation the batch finished at `end` holding at most
    /// `base + k - 1`, so one entry with that value stands for all
    /// `k`. Returns the magnitude of the first value, `F - base`
    /// (saturating at 0); only the violating values are recorded one
    /// by one.
    ///
    /// [`observe`]: ViolationTracker::observe
    pub fn observe_interval(&mut self, start: u64, end: u64, base: u64, k: u64) -> u64 {
        debug_assert!(
            start >= self.retire_frontier,
            "observe_interval(start={start}) violates the retire({}) contract",
            self.retire_frontier
        );
        debug_assert!(
            start <= end,
            "interval [{start}, {end}] ends before it starts"
        );
        if k == 0 {
            return 0;
        }
        let top = self.finished_max(start).saturating_sub(base);
        let violating = top.min(k);
        for j in 0..violating {
            self.magnitude.record(top - j);
        }
        self.count += violating;
        self.insert(end, base + (k - 1));
        self.observed += k;
        top
    }

    /// Max value over the operations that finished strictly before
    /// `start`. Retired operations all finished before `start`
    /// (retire's contract), so when the retained prefix is empty their
    /// max (`floor`) still applies; when it is not, `prefix_max`
    /// already folds `floor` in.
    fn finished_max(&self, start: u64) -> u64 {
        let k = self.ends.partition_point(|&e| e < start);
        if k > 0 {
            self.prefix_max[k - 1]
        } else {
            self.floor
        }
    }

    /// Inserts a finished `(end, value)` entry, keeping `ends` sorted;
    /// scans from the back because the stream is (nearly)
    /// completion-ordered.
    fn insert(&mut self, end: u64, value: u64) {
        let mut pos = self.ends.len();
        while pos > 0 && self.ends[pos - 1] > end {
            pos -= 1;
        }
        self.ends.insert(pos, end);
        self.values.insert(pos, value);
        self.prefix_max.insert(pos, 0);
        let mut running = if pos == 0 {
            self.floor
        } else {
            self.prefix_max[pos - 1]
        };
        for i in pos..self.values.len() {
            running = running.max(self.values[i]);
            self.prefix_max[i] = running;
        }
    }

    /// Number of non-linearizable operations observed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Histogram of violation magnitudes (positions out of order).
    /// `sum()` is the total displacement; `max()` the worst single
    /// violation.
    #[must_use]
    pub fn magnitude(&self) -> &LogHistogram {
        &self.magnitude
    }

    /// Retires operations that can no longer participate in a
    /// violation, bounding memory for indefinitely running services.
    ///
    /// The caller promises that every future [`observe`] call will
    /// have `start >= min_future_start` (for a service this is the
    /// minimum start tick over in-flight operations — every later
    /// completion starts at or after it). Operations with
    /// `end < min_future_start` then finish strictly before every
    /// future start, so only their *maximum value* matters; it is
    /// folded into an internal floor and the entries are dropped.
    /// Violation counts and magnitudes are unchanged by retirement.
    ///
    /// [`observe`]: ViolationTracker::observe
    pub fn retire(&mut self, min_future_start: u64) {
        self.retire_frontier = self.retire_frontier.max(min_future_start);
        let k = self.ends.partition_point(|&e| e < min_future_start);
        if k == 0 {
            return;
        }
        // prefix_max is cumulative (and already folds in the previous
        // floor), so the dropped region's contribution is exactly
        // prefix_max[k - 1]; retained entries keep including it.
        self.floor = self.floor.max(self.prefix_max[k - 1]);
        self.ends.drain(..k);
        self.values.drain(..k);
        self.prefix_max.drain(..k);
    }

    /// Operations observed so far (including retired ones).
    #[must_use]
    pub fn observed(&self) -> usize {
        self.observed as usize
    }

    /// Entries currently held in memory. One entry stands for one
    /// [`observe`] call or one whole [`observe_interval`] batch.
    ///
    /// [`observe`]: ViolationTracker::observe
    /// [`observe_interval`]: ViolationTracker::observe_interval
    #[must_use]
    pub fn retained(&self) -> usize {
        self.ends.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_timing::{linearizability, Operation};

    fn op(token: usize, start: u64, end: u64, value: u64) -> Operation {
        Operation {
            token,
            input: 0,
            start,
            end,
            counter: 0,
            value,
        }
    }

    #[test]
    fn overlapping_operations_never_violate() {
        let mut t = ViolationTracker::new();
        assert_eq!(t.observe(0, 10, 9), 0);
        // starts at 10, the earlier op ended at 10: not strictly before
        assert_eq!(t.observe(10, 20, 0), 0);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn magnitude_is_the_position_gap() {
        let mut t = ViolationTracker::new();
        t.observe(0, 10, 7);
        assert_eq!(t.observe(20, 30, 2), 5);
        assert_eq!(t.count(), 1);
        assert_eq!(t.magnitude().sum(), 5);
        assert_eq!(t.magnitude().max(), 5);
    }

    #[test]
    fn agrees_with_the_offline_checker_on_sorted_traces() {
        // a deliberately tangled but end-sorted trace
        let ops = vec![
            op(0, 0, 5, 3),
            op(1, 2, 7, 9),
            op(2, 6, 9, 0),  // op0 finished before with 3 > 0
            op(3, 8, 12, 1), // op0 (3) and op1 (9) finished before; 9 > 1
            op(4, 1, 14, 20),
            op(5, 13, 16, 4), // ops 0..=3 finished; max value 9 > 4
        ];
        let mut t = ViolationTracker::new();
        for o in &ops {
            t.observe(o.start, o.end, o.value);
        }
        assert_eq!(
            t.count() as usize,
            linearizability::count_nonlinearizable(&ops)
        );
        assert_eq!(t.count(), 3);
        // magnitudes: 3-0=3, 9-1=8, 9-4=5
        assert_eq!(t.magnitude().sum(), 16);
        assert_eq!(t.magnitude().max(), 8);
    }

    #[test]
    fn out_of_order_observation_still_counts_correctly() {
        // same trace as above but observed with ends slightly shuffled
        let ops = vec![
            op(1, 2, 7, 9),
            op(0, 0, 5, 3), // arrives late
            op(2, 6, 9, 0),
            op(3, 8, 12, 1),
            op(5, 13, 16, 4), // arrives before op4
            op(4, 1, 14, 20),
        ];
        let mut t = ViolationTracker::new();
        for o in &ops {
            t.observe(o.start, o.end, o.value);
        }
        // every violating op's predecessor set was fully observed by
        // the time it was reported, so the count is still exact here
        assert_eq!(t.count(), 3);
        assert_eq!(t.observed(), 6);
    }

    #[test]
    fn retirement_preserves_counts_and_magnitudes() {
        // same trace as agrees_with_the_offline_checker_on_sorted_traces,
        // but aggressively retired between observations
        let ops = [
            op(0, 0, 5, 3),
            op(1, 2, 7, 9),
            op(2, 6, 9, 0),
            op(3, 8, 12, 1),
            op(4, 1, 14, 20),
            op(5, 13, 16, 4),
        ];
        let mut t = ViolationTracker::new();
        for (i, o) in ops.iter().enumerate() {
            t.observe(o.start, o.end, o.value);
            // a real service retires at the min start over in-flight
            // ops; the equivalent here is the min start of the
            // not-yet-observed suffix
            if let Some(frontier) = ops[i + 1..].iter().map(|o| o.start).min() {
                t.retire(frontier);
            }
        }
        assert_eq!(t.count(), 3);
        assert_eq!(t.magnitude().sum(), 16);
        assert_eq!(t.magnitude().max(), 8);
        assert_eq!(t.observed(), 6);
        assert!(t.retained() < 6, "retirement should drop entries");
    }

    #[test]
    fn retire_everything_then_violate_against_the_floor() {
        let mut t = ViolationTracker::new();
        t.observe(0, 10, 7);
        t.retire(20); // drops the entry; floor = 7
        assert_eq!(t.retained(), 0);
        assert_eq!(t.observed(), 1);
        // starts after the retired op ended: floor still applies
        assert_eq!(t.observe(20, 30, 2), 5);
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn randomized_retirement_matches_unretired_tracker() {
        let mut seed = 0xABCDu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..50 {
            let n = 4 + (round % 20);
            let mut ops: Vec<Operation> = (0..n)
                .map(|i| {
                    let start = next() % 60;
                    let dur = 1 + next() % 25;
                    op(i, start, start + dur, next() % 50)
                })
                .collect();
            ops.sort_by_key(|o| o.end);
            let mut plain = ViolationTracker::new();
            let mut retiring = ViolationTracker::new();
            // feed end-sorted; retire at the min start of the
            // not-yet-observed suffix, which is exactly the in-flight
            // frontier a service would use
            for (i, o) in ops.iter().enumerate() {
                let m1 = plain.observe(o.start, o.end, o.value);
                let m2 = retiring.observe(o.start, o.end, o.value);
                assert_eq!(m1, m2, "round {round} op {i}");
                if let Some(frontier) = ops[i + 1..].iter().map(|o| o.start).min() {
                    retiring.retire(frontier);
                }
            }
            assert_eq!(plain.count(), retiring.count(), "round {round}");
            assert_eq!(plain.magnitude(), retiring.magnitude(), "round {round}");
            assert_eq!(plain.observed(), retiring.observed(), "round {round}");
        }
    }

    #[test]
    fn randomized_end_sorted_traces_match_offline_count() {
        let mut seed = 0x5EEDu64;
        let mut next = move || {
            // xorshift — deterministic, no external RNG
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..50 {
            let n = 3 + (round % 17);
            let mut ops: Vec<Operation> = (0..n)
                .map(|i| {
                    let start = next() % 50;
                    let dur = 1 + next() % 30;
                    op(i, start, start + dur, next() % 40)
                })
                .collect();
            ops.sort_by_key(|o| o.end);
            let mut t = ViolationTracker::new();
            for o in &ops {
                t.observe(o.start, o.end, o.value);
            }
            assert_eq!(
                t.count() as usize,
                linearizability::count_nonlinearizable(&ops),
                "round {round}"
            );
        }
    }
}
