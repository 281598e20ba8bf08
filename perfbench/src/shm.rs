//! `shm-contended`: `ShmBackend::network` over bitonic[16] with two
//! client threads, no delayed fraction and no wait — balancer
//! cache-line contention, the driver's clock, and the trace assembly
//! plus Def-2.4 sweep that every run call ends with.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use cnet_concurrent::NetworkCounter;
use cnet_engine::{Backend, BalancerKind, ShmBackend, Workload};
use cnet_topology::constructions;

use crate::stats::{floor_rate, median, nanos};
use crate::trace::{render_ledger, Tracer};
use crate::{checks, Report};

const THREADS: usize = 2;
const WIDTH: usize = 16;
/// Operations per `ShmBackend::run` call.
pub const OPS_PER_CALL: usize = 16384;
const SETUP_REPS: usize = 51;
const WARMUP: Duration = Duration::from_millis(300);

/// The timed calls of one window.
#[derive(Default)]
struct Window {
    calls: Vec<u64>,
    wall_ns: Vec<u64>,
    ops: u64,
    nonlinearizable: u64,
    sweep_ns: u64,
}

impl Window {
    /// Operations per second that at least 90 % of the run calls reach.
    fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .calls
            .iter()
            .map(|&c| OPS_PER_CALL as f64 / (c.max(1) as f64 / 1e9))
            .collect();
        floor_rate(&rates)
    }
}

/// Set-up durations, s: network build plus the compile every run call
/// starts with.
pub fn setup() -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let net = constructions::bitonic(WIDTH).expect("16 is a valid bitonic width");
            std::hint::black_box(NetworkCounter::new(&net));
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();

    let net = constructions::bitonic(WIDTH).expect("16 is a valid bitonic width");
    let backend = ShmBackend::network(&net, BalancerKind::WaitFree, seed);
    let workload = Workload {
        total_ops: OPS_PER_CALL,
        ..Workload::paper(THREADS, 0, 0)
    };
    let mut tracer = Tracer::new(Instant::now());
    let call = |report: &mut Report, win: &mut Window, tracer: Option<&mut Tracer>| {
        report.attempted += OPS_PER_CALL as u64;
        let t0 = Instant::now();
        let outcome = backend.try_run(&workload);
        let took = nanos(t0.elapsed());
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                report.failed += OPS_PER_CALL as u64;
                report.check("run call", Err(e.to_string()));
                return;
            }
        };
        let wall = (outcome.wall_ms * 1e6) as u64;
        if let Some(t) = tracer {
            let start = t.now() - took;
            let root = t.record(
                "engine.run",
                None,
                win.calls.len() as u64,
                start,
                start + took,
            );
            t.record(
                "engine.drive",
                Some(root),
                win.calls.len() as u64,
                start,
                start + wall,
            );
            let sweep = t.open("timing.sweep", None, win.calls.len() as u64);
            let n = cnet_timing::linearizability::count_nonlinearizable(&outcome.stats.operations);
            t.close(sweep);
            std::hint::black_box(n);
            win.sweep_ns += t.spans()[sweep].end - t.spans()[sweep].start;
        }
        win.calls.push(took);
        win.wall_ns.push(wall);
        win.ops += outcome.stats.operations.len() as u64;
        win.nonlinearizable += outcome.stats.nonlinearizable as u64;
        if !outcome.counts_exactly() {
            report.check("counts_exactly", Err("values are not exactly 0..N".into()));
        }
        report.check(
            "values are a permutation of 0..N",
            checks::is_permutation(
                outcome.stats.operations.iter().map(|o| o.value),
                OPS_PER_CALL,
            ),
        );
    };

    let mut warm = Window::default();
    let warm_until = Instant::now() + WARMUP;
    while Instant::now() < warm_until {
        call(&mut report, &mut warm, None);
    }
    // a traced run traces every other call, so traced and untraced
    // calls interleave and host drift cannot pose as tracing overhead
    let (mut win, mut traced_win) = (Window::default(), Window::default());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for i in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        if traced && i % 2 == 1 {
            call(&mut report, &mut traced_win, Some(&mut tracer));
        } else {
            call(&mut report, &mut win, None);
        }
    }
    report.check("counts_exactly", Ok(()));

    report.metric("ops_per_s", win.rate());
    report.latency(&win.calls);
    report.note(format!(
        "{} untraced run calls of {OPS_PER_CALL} ops on {THREADS} threads; {} Def-2.4 violations",
        win.calls.len(),
        win.nonlinearizable
    ));
    if !traced {
        return report;
    }

    // ---- traced run: per-layer rows ----
    let layer = &mut report.layers;
    let traced_rate = traced_win.rate();
    layer.insert(
        "trace.overhead_frac",
        (win.rate() - traced_rate) / win.rate(),
    );
    layer.insert(
        "timing.violation_frac",
        (win.nonlinearizable + traced_win.nonlinearizable) as f64
            / (win.ops + traced_win.ops).max(1) as f64,
    );
    let to_f = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let drive_ms = median(&to_f(&traced_win.wall_ns)) / 1e6;
    let assembly: Vec<f64> = traced_win
        .calls
        .iter()
        .zip(&traced_win.wall_ns)
        .map(|(&c, &w)| c.saturating_sub(w) as f64 / 1e6)
        .collect();
    let assembly_ms = median(&assembly);
    let call_ms = median(&to_f(&traced_win.calls)) / 1e6;
    layer.insert("engine.drive_ms", drive_ms);
    layer.insert("engine.assembly_ms", assembly_ms);
    layer.insert(
        "timing.sweep_ns",
        traced_win.sweep_ns as f64 / traced_win.ops.max(1) as f64,
    );
    let traverse_1t = traverse_ns(&net, 1);
    let traverse_2t = traverse_ns(&net, 2);
    layer.insert("concurrent.traverse_ns", traverse_1t);
    layer.insert("concurrent.traverse_2t_ns", traverse_2t);
    let spawn_us = spawn_us();
    layer.insert("engine.spawn_us", spawn_us);

    report.ledger.push(render_ledger(
        "run-call spans",
        &tracer.ledger(),
        traced_win.ops,
    ));
    // the median call split into the rows measured on their own
    let traversal_ms = OPS_PER_CALL as f64 * traverse_2t / THREADS as f64 / 1e6;
    let rest_ms = drive_ms - traversal_ms - spawn_us / 1e3;
    let mut text = format!("run call decomposition (median call {call_ms:.3} ms)\n");
    for (name, ms) in [
        ("contended traversal", traversal_ms),
        ("trace assembly + sweep", assembly_ms),
        ("driver clock, quota, trace push", rest_ms),
        ("thread spawn + join", spawn_us / 1e3),
    ] {
        text.push_str(&format!(
            "  {name:<32} {ms:>9.3} ms {:>6.1}%\n",
            100.0 * ms / call_ms
        ));
    }
    text.push_str(&format!(
        "  traversal + assembly cover {:.1}% of the call\n",
        100.0 * (traversal_ms + assembly_ms) / call_ms
    ));
    report.ledger.push(text);
    report.spans = Some(tracer);
    report
}

/// Per-thread time per traversal with `threads` persistent threads
/// released by a barrier (spawn excluded); median of five rounds.
fn traverse_ns(net: &cnet_topology::Topology, threads: usize) -> f64 {
    const OPS: u64 = 1 << 20;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let counter = NetworkCounter::new(net);
            let barrier = Barrier::new(threads);
            let per_thread: Vec<u64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let (counter, barrier) = (&counter, &barrier);
                        scope.spawn(move || {
                            let input = t % counter.input_width();
                            barrier.wait();
                            let t0 = Instant::now();
                            for _ in 0..OPS {
                                std::hint::black_box(counter.next_on(input));
                            }
                            nanos(t0.elapsed())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("traversal thread panicked"))
                    .collect()
            });
            per_thread.iter().sum::<u64>() as f64 / (threads as u64 * OPS) as f64
        })
        .collect();
    median(&rounds)
}

/// Spawn and join of two bare threads, µs; median of 200.
fn spawn_us() -> f64 {
    let reps: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| std::hint::black_box(0u64));
                }
            });
            nanos(t0.elapsed()) as f64 / 1e3
        })
        .collect();
    median(&reps)
}
