//! Output checks. Each compares what the code under test returned
//! against a reference computed here, independently of it.

use cnet_obs::{SloEvaluator, SloPolicy};
use cnet_serve::Drawn;
use cnet_timing::Operation;

/// Checks that the drawn intervals `[base, base + k)` tile `0..n`
/// exactly: no value twice, none missing.
pub fn intervals_tile(draws: &[Drawn], n: u64) -> Result<(), String> {
    let mut spans: Vec<(u64, u64)> = draws.iter().map(|d| (d.base, u64::from(d.k))).collect();
    spans.sort_unstable();
    let mut next = 0u64;
    for (base, k) in spans {
        if base != next {
            return Err(if base < next {
                format!("value {base} drawn twice")
            } else {
                format!("values {next}..{base} never drawn")
            });
        }
        next = base + k;
    }
    if next == n {
        Ok(())
    } else {
        Err(format!("drew 0..{next}, server served {n} values"))
    }
}

/// Violations a fresh [`SloEvaluator`] counts when fed the observed
/// brackets in end-tick order, with retirement bounds derived from the
/// brackets themselves (the smallest start among later completions).
/// Batch siblings share one bracket and are fed in value order, each
/// but the last retiring no further than their shared start.
pub fn replayed_violations(draws: &[Drawn]) -> u64 {
    let mut by_end: Vec<&Drawn> = draws.iter().collect();
    by_end.sort_unstable_by_key(|d| d.end);
    let mut later_min_start = vec![u64::MAX; by_end.len()];
    for i in (0..by_end.len().saturating_sub(1)).rev() {
        later_min_start[i] = later_min_start[i + 1].min(by_end[i + 1].start);
    }
    let mut eval = SloEvaluator::new(SloPolicy::unbounded(), 1024);
    for (d, &later) in by_end.iter().zip(&later_min_start) {
        let bound = later.min(d.end);
        for j in 0..u64::from(d.k) {
            let retire = if j + 1 == u64::from(d.k) {
                bound
            } else {
                bound.min(d.start)
            };
            eval.record(d.start, d.end, d.base + j, 0, retire, 0);
        }
    }
    eval.snapshot(0).total.violations
}

/// Checks that `values` is a permutation of `0..values.len()`.
pub fn is_permutation(values: impl Iterator<Item = u64>, n: usize) -> Result<(), String> {
    let mut seen = vec![false; n];
    let mut count = 0usize;
    for v in values {
        let slot = usize::try_from(v)
            .ok()
            .and_then(|i| seen.get_mut(i))
            .ok_or_else(|| format!("value {v} outside 0..{n}"))?;
        if *slot {
            return Err(format!("value {v} returned twice"));
        }
        *slot = true;
        count += 1;
    }
    if count == n {
        Ok(())
    } else {
        Err(format!("{count} values returned, expected {n}"))
    }
}

/// Checks a simulator trace: its values are a permutation of `0..n`
/// and its streaming violation count equals the quadratic reference
/// count.
pub fn sim_trace(ops: &[Operation], reported_nonlinearizable: usize) -> Result<(), String> {
    is_permutation(ops.iter().map(|o| o.value), ops.len())?;
    let naive = cnet_timing::linearizability::count_nonlinearizable_naive(ops);
    if naive == reported_nonlinearizable {
        Ok(())
    } else {
        Err(format!(
            "simulator reported {reported_nonlinearizable} nonlinearizable ops, reference counts {naive}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drawn(base: u64, k: u32, start: u64, end: u64) -> Drawn {
        Drawn {
            base,
            k,
            start,
            end,
        }
    }

    #[test]
    fn tiling_accepts_exact_cover_and_catches_a_duplicate() {
        let good = [drawn(2, 3, 0, 5), drawn(0, 2, 1, 2), drawn(5, 1, 6, 7)];
        assert!(intervals_tile(&good, 6).is_ok());
        let dup = [drawn(0, 2, 0, 1), drawn(1, 2, 2, 3)];
        assert!(intervals_tile(&dup, 3).unwrap_err().contains("twice"));
        let gap = [drawn(0, 1, 0, 1), drawn(2, 1, 2, 3)];
        assert!(intervals_tile(&gap, 3).unwrap_err().contains("never"));
        assert!(intervals_tile(&good, 7).is_err());
    }

    #[test]
    fn replay_counts_a_reordering_once() {
        // value 1 completes before value 0 starts: one violation
        let ops = [drawn(1, 1, 0, 1), drawn(0, 1, 2, 3), drawn(2, 2, 4, 5)];
        assert_eq!(replayed_violations(&ops), 1);
        let clean = [drawn(0, 4, 0, 3), drawn(4, 1, 1, 2)];
        assert_eq!(replayed_violations(&clean), 0);
    }

    #[test]
    fn permutation_check_catches_a_duplicated_value() {
        assert!(is_permutation([2, 0, 1].into_iter(), 3).is_ok());
        let err = is_permutation([0, 1, 1].into_iter(), 3).unwrap_err();
        assert!(err.contains("twice"), "{err}");
        assert!(is_permutation([0, 3].into_iter(), 2).is_err());
    }

    #[test]
    fn sim_check_catches_a_corrupted_trace() {
        let net = cnet_topology::constructions::bitonic(4).unwrap();
        let workload = cnet_proteus::Workload {
            total_ops: 200,
            ..cnet_proteus::Workload::paper(8, 25, 100)
        };
        let stats = cnet_proteus::Simulator::new(&net, cnet_proteus::SimConfig::queue_lock(3))
            .run(&workload);
        assert!(sim_trace(&stats.operations, stats.nonlinearizable).is_ok());
        let mut corrupted = stats.operations.clone();
        corrupted[7].value = corrupted[8].value;
        let err = sim_trace(&corrupted, stats.nonlinearizable).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }
}
