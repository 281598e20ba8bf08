//! The bounded completion history behind `cnet serve`.
//!
//! A request that drew `k` values is one entry, not `k`: every value
//! of a batch shares its bracket and connection, and the token, input
//! and output counter of each value follow from the entry and its
//! position. The ring is bounded in *values*: pushing trims the oldest
//! values first — whole entries, then a partial front entry — so the
//! ring never holds more than `cap` values, not even for the length of
//! one push, and the deque never holds more than `cap` entries.

use std::collections::VecDeque;

use cnet_timing::Operation;

/// One request's completions: values `base..base + k`, all bracketed
/// by `[start, end]` on connection `conn`.
#[derive(Debug)]
struct Entry {
    start: u64,
    end: u64,
    base: u64,
    k: u32,
    conn: usize,
}

/// The most recent `cap` completed values, in completion order.
#[derive(Debug)]
pub(crate) struct History {
    entries: VecDeque<Entry>,
    cap: u64,
    /// Values currently held (the sum of the entries' `k`).
    len: u64,
    /// Values trimmed from the front so far; the token of the oldest
    /// retained value.
    dropped: u64,
}

impl History {
    /// An empty ring holding at most `cap` values (at least one).
    pub(crate) fn new(cap: usize) -> Self {
        History {
            entries: VecDeque::new(),
            cap: (cap as u64).max(1),
            len: 0,
            dropped: 0,
        }
    }

    /// Appends the `k` values `base..base + k` completed on `conn`
    /// with bracket `[start, end]`, first trimming the oldest values
    /// so the ring ends up holding at most `cap`.
    pub(crate) fn push(&mut self, start: u64, end: u64, base: u64, k: u64, conn: usize) {
        // a batch wider than the ring keeps only its last `cap` values
        let kept = k.min(self.cap);
        self.dropped += k - kept;
        let mut excess = (self.len + kept).saturating_sub(self.cap);
        while excess > 0 {
            let front = self.entries.front_mut().expect("len > 0 implies an entry");
            let n = u64::from(front.k);
            if n <= excess {
                self.entries.pop_front();
                self.trim(n);
                excess -= n;
            } else {
                front.base += excess;
                front.k -= excess as u32;
                self.trim(excess);
                excess = 0;
            }
        }
        self.entries.push_back(Entry {
            start,
            end,
            base: base + (k - kept),
            k: u32::try_from(kept).expect("batch sizes fit in u32"),
            conn,
        });
        self.len += kept;
    }

    fn trim(&mut self, n: u64) {
        self.len -= n;
        self.dropped += n;
    }

    /// Values trimmed from the front so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Expands the ring into one [`Operation`] per value, in completion
    /// order, with the connection behind each. Tokens number every
    /// completion since the service started, so the first retained
    /// value's token is [`History::dropped`]; the input wire is the
    /// connection modulo `input_width` and the output counter the
    /// value modulo `width`, as the server routes them.
    pub(crate) fn operations(
        &self,
        input_width: usize,
        width: usize,
    ) -> (Vec<Operation>, Vec<usize>) {
        let len = usize::try_from(self.len).expect("history fits in memory");
        let (mut ops, mut by) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let mut token = usize::try_from(self.dropped).unwrap_or(usize::MAX);
        for e in &self.entries {
            for value in e.base..e.base + u64::from(e.k) {
                ops.push(Operation {
                    token,
                    input: e.conn % input_width,
                    start: e.start,
                    end: e.end,
                    counter: (value % width as u64) as usize,
                    value,
                });
                by.push(e.conn);
                token += 1;
            }
        }
        (ops, by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-value ring the compact one replaces, as the oracle.
    fn expected(pushes: &[(u64, u64)], cap: u64) -> Vec<(usize, u64, u64)> {
        let mut all = Vec::new();
        for (i, &(base, k)) in pushes.iter().enumerate() {
            for v in base..base + k {
                all.push((all.len(), v, i as u64));
            }
        }
        let skip = all.len().saturating_sub(cap as usize);
        all.split_off(skip)
    }

    #[test]
    fn trims_to_the_last_cap_values_at_every_push() {
        let mut seed = 0x9E37u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for cap in [1u64, 2, 3, 5, 8, 13] {
            let mut h = History::new(cap as usize);
            let mut pushes = Vec::new();
            let mut base = 0;
            for i in 0..60u64 {
                let k = 1 + next() % (2 * cap + 2);
                // start = end - 1 = push index: lets the check recover
                // which push each value came from
                h.push(i, i + 1, base, k, i as usize % 3);
                pushes.push((base, k));
                base += k;
                assert!(h.len <= cap, "cap {cap}: holds {} values", h.len);
                assert!(h.entries.len() as u64 <= cap, "cap {cap}: entries");
                let (ops, by) = h.operations(2, 4);
                assert_eq!(h.dropped() + ops.len() as u64, base, "cap {cap}");
                let got: Vec<_> = ops.iter().map(|o| (o.token, o.value, o.start)).collect();
                assert_eq!(got, expected(&pushes, cap), "cap {cap} push {i}");
                for (o, &c) in ops.iter().zip(&by) {
                    assert_eq!(c as u64, o.start % 3);
                    assert_eq!(o.input, c % 2);
                    assert_eq!(o.counter as u64, o.value % 4);
                    assert_eq!(o.end, o.start + 1);
                }
            }
        }
    }

    #[test]
    fn unit_pushes_never_grow_the_deque_past_cap() {
        let mut h = History::new(64);
        for i in 0..1000u64 {
            h.push(i, i + 1, i, 1, 0);
        }
        assert_eq!(h.len, 64);
        assert_eq!(h.dropped(), 936);
        // trim-before-push: the deque never held 65 entries, so it
        // never had to reallocate past its first 64-slot growth step
        assert!(
            h.entries.capacity() < 128,
            "capacity {}",
            h.entries.capacity()
        );
    }
}
