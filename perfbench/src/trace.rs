//! In-memory span recording and the self-time ledger.
//!
//! A span is one timed call into a layer: name, start, end, parent
//! span and request id. Each thread records into its own [`Tracer`]
//! (no locks on the hot path); the buffers are merged when the run
//! ends, written out as CSV, and folded into per-layer self time — a
//! span's duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::stats::nanos;

/// Index of a span within its tracer.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Entry time.
    pub start: u64,
    /// Exit time.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or operation batch) the span belongs to.
    pub req: u64,
}

/// A per-thread span buffer sharing one epoch with its siblings.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty buffer timing against `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        nanos(self.epoch.elapsed())
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start = self.now();
        self.record(name, parent, req, start, start)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Records a span whose bounds were measured elsewhere (for
    /// example from a backend's own wall-clock field).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's buffer, re-basing its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Writes every span as CSV (`id,name,start_ns,end_ns,parent,req`).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut text = String::from("id,name,start_ns,end_ns,parent,req\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i},{},{},{},{parent},{}",
                s.name, s.start, s.end, s.req
            );
        }
        std::fs::write(path, text)
    }

    /// Per-name totals: span count, summed duration and summed self
    /// time.
    pub fn ledger(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let duration = s.end.saturating_sub(s.start);
            let covered = covered(s.start, s.end, kids);
            let row = out.entry(s.name).or_default();
            row.spans += 1;
            row.total_ns += duration;
            row.self_ns += duration - covered;
        }
        out
    }

    /// Durations of every span named `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start))
            .collect();
        d.sort_unstable();
        d
    }
}

/// What one span adds to the traced code: an open and a close around
/// nothing, ns; median of five rounds.
pub fn span_cost_ns() -> f64 {
    const SPANS: usize = 100_000;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::new(Instant::now());
            t.spans.reserve(SPANS);
            let t0 = Instant::now();
            for i in 0..SPANS {
                let id = t.open("empty", None, i as u64);
                t.close(id);
            }
            nanos(t0.elapsed()) as f64 / SPANS as f64
        })
        .collect();
    crate::stats::median(&rounds)
}

/// Aggregated time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded.
    pub spans: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// Length of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Renders a ledger as a table: layer, spans, total and self time, and
/// each layer's share of the summed self time.
pub fn render_ledger(title: &str, ledger: &BTreeMap<&'static str, LayerTime>, per: u64) -> String {
    let all_self: u64 = ledger.values().map(|l| l.self_ns).sum::<u64>().max(1);
    let mut rows: Vec<_> = ledger.iter().collect();
    rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
    let mut out = format!(
        "{title}\n  {:<24} {:>10} {:>12} {:>12} {:>7} {:>12}\n",
        "layer", "spans", "total ms", "self ms", "self %", "self ns/op"
    );
    for (name, l) in rows {
        let _ = writeln!(
            out,
            "  {:<24} {:>10} {:>12.3} {:>12.3} {:>6.1}% {:>12.1}",
            name,
            l.spans,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            100.0 * l.self_ns as f64 / all_self as f64,
            l.self_ns as f64 / per.max(1) as f64,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("root", None, 0, 0, 100);
        t.record("a", Some(root), 0, 10, 30);
        t.record("b", Some(root), 0, 20, 50); // overlaps a
        let c = t.record("c", Some(root), 0, 90, 120); // runs past root
        t.record("d", Some(c), 0, 95, 100);
        let ledger = t.ledger();
        // root: 100 - [10,50) - [90,100) = 50
        assert_eq!(ledger["root"].self_ns, 50);
        assert_eq!(ledger["a"].self_ns, 20);
        assert_eq!(ledger["c"].self_ns, 25);
        assert_eq!(ledger["d"].total_ns, 5);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.record("x", None, 0, 0, 10);
        let mut b = Tracer::new(epoch);
        let r = b.record("root", None, 1, 0, 10);
        b.record("kid", Some(r), 1, 2, 4);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.ledger()["root"].self_ns, 8);
    }
}
