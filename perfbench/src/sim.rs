//! `sim-paper`: `SimBackend` on the paper's Section 5 settings —
//! width-32 bitonic and counting tree, F = 25%, n ∈ {16, 64, 256},
//! W ∈ {100, 10000} — plus one cell on the committed lossy NACK fabric.
//! Single thread; the only workload through `cnet-proteus`.

use std::time::{Duration, Instant};

use cnet_engine::{Backend, SimBackend, SimConfig, Workload};
use cnet_harness::{derive_seed, NetworkKind, PAPER_WIDTH};
use cnet_proteus::Simulator;
use cnet_timing::Operation;
use cnet_topology::{constructions, Topology};
use serde::Deserialize as _;

use crate::stats::{floor_rate, nanos};
use crate::trace::{render_ledger, Tracer};
use crate::{checks, Report};

/// Operations per paper cell.
const CELL_OPS: usize = 4000;
const DELAYED_PERCENT: u32 = 25;
const PROCESSORS: [usize; 3] = [16, 64, 256];
const WAITS: [u64; 2] = [100, 10_000];
const SETUP_REPS: usize = 51;
const LOSSY_SCENARIO: &str = include_str!("../../examples/scenario_lossy_fabric.json");

/// One simulator cell: a network, its machine model and a workload.
struct Cell {
    name: &'static str,
    net: usize,
    config: SimConfig,
    workload: Workload,
}

/// The networks (bitonic[32], tree[32], the scenario's network) and
/// the cells over them, seeded from `seed`.
fn cells(seed: u64) -> (Vec<Topology>, Vec<Cell>) {
    const NAMES: [&str; 12] = [
        "bitonic.n16.w100",
        "bitonic.n16.w10000",
        "bitonic.n64.w100",
        "bitonic.n64.w10000",
        "bitonic.n256.w100",
        "bitonic.n256.w10000",
        "tree.n16.w100",
        "tree.n16.w10000",
        "tree.n64.w100",
        "tree.n64.w10000",
        "tree.n256.w100",
        "tree.n256.w10000",
    ];
    let kinds = [NetworkKind::Bitonic, NetworkKind::DiffractingTree];
    let mut nets: Vec<Topology> = kinds.iter().map(|k| k.build(PAPER_WIDTH)).collect();
    let mut cells = Vec::new();
    for (net, kind) in kinds.iter().enumerate() {
        for &n in &PROCESSORS {
            for &w in &WAITS {
                let i = cells.len();
                cells.push(Cell {
                    name: NAMES[i],
                    net,
                    config: kind.config(derive_seed(seed, "sim-paper", &[i as u64])),
                    workload: Workload {
                        total_ops: CELL_OPS,
                        ..Workload::paper(n, DELAYED_PERCENT, w)
                    },
                });
            }
        }
    }
    let scenario = serde::json::from_str(LOSSY_SCENARIO).expect("committed scenario parses");
    let field = |key: &str| scenario.get(key).expect("scenario field present");
    let width: usize = scenario.field("width").expect("scenario width");
    assert_eq!(
        scenario.field::<String>("kind").expect("scenario kind"),
        "bitonic",
        "the lossy scenario is a bitonic network"
    );
    let mut config = SimConfig::from_value(field("config")).expect("scenario config");
    config.fabric.validate().expect("scenario fabric is valid");
    config.seed = derive_seed(seed, "sim-paper", &[cells.len() as u64]);
    nets.push(constructions::bitonic(width).expect("scenario width"));
    cells.push(Cell {
        name: "lossy",
        net: nets.len() - 1,
        config,
        workload: Workload::from_value(field("workload")).expect("scenario workload"),
    });
    (nets, cells)
}

/// Deterministic counts of one pass over every cell.
#[derive(Default)]
struct PassCounts {
    ops: u64,
    nonlinearizable: u64,
    node_visits: u64,
    diffracted: u64,
    tree_visits: u64,
    attempts: u64,
    refusals: u64,
}

/// Cell runs on one side of the window: untraced or traced passes.
struct Side {
    /// Host time of each cell run, ns, in run order.
    calls: Vec<u64>,
    /// Simulated ops per host second of each full pass over the cells.
    passes: Vec<f64>,
    /// Host time of each full pass, ns, in run order.
    pass_ns: Vec<u64>,
    /// Host ns and simulated ops per cell.
    per_cell: Vec<(u64, u64)>,
}

impl Side {
    fn new(cells: usize) -> Self {
        Side {
            calls: Vec::new(),
            passes: Vec::new(),
            pass_ns: Vec::new(),
            per_cell: vec![(0, 0); cells],
        }
    }

    /// The pass rate at least 90 % of the passes reach; all runs pooled
    /// when no pass completed.
    fn rate(&self) -> f64 {
        if self.passes.is_empty() {
            let (ns, ops) = self
                .per_cell
                .iter()
                .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
            ops as f64 / (ns.max(1) as f64 / 1e9)
        } else {
            floor_rate(&self.passes)
        }
    }
}

/// Set-up durations, s: every network built, the scenario parsed, and
/// one simulator constructed per cell.
pub fn setup(seed: u64) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let (nets, cells) = cells(seed);
            for c in &cells {
                std::hint::black_box(Simulator::new(&nets[c.net], c.config));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();

    let (nets, cells) = cells(seed);
    let run_cell = |c: &Cell| SimBackend::new(&nets[c.net], c.config).try_run(&c.workload);

    // reference pass: warms caches, checks every trace against the
    // quadratic reference, and keeps it for the determinism check
    let mut counts = PassCounts::default();
    let mut reference: Vec<Vec<Operation>> = Vec::with_capacity(cells.len());
    let mut sweep_ns = 0u64;
    for c in &cells {
        report.attempted += c.workload.total_ops as u64;
        let stats = match run_cell(c) {
            Ok(o) => o.stats,
            Err(e) => {
                report.failed += c.workload.total_ops as u64;
                report.check("run call", Err(e.to_string()));
                reference.push(Vec::new());
                continue;
            }
        };
        report.check(
            "nonlinearizable equals the quadratic reference",
            checks::sim_trace(&stats.operations, stats.nonlinearizable),
        );
        let t0 = Instant::now();
        std::hint::black_box(cnet_timing::linearizability::count_nonlinearizable(
            &stats.operations,
        ));
        sweep_ns += nanos(t0.elapsed());
        counts.ops += stats.operations.len() as u64;
        counts.nonlinearizable += stats.nonlinearizable as u64;
        counts.node_visits += stats.node_visits;
        if c.config.prism.is_some() {
            counts.diffracted += 2 * stats.diffraction_pairs;
            counts.tree_visits += stats.node_visits;
        }
        counts.attempts += stats.fabric.attempts;
        counts.refusals += stats.fabric.refusals();
        reference.push(stats.operations);
    }

    // a traced run traces every other pass, so traced and untraced
    // passes interleave and host drift cannot pose as tracing overhead
    let mut sides = [Side::new(cells.len()), Side::new(cells.len())];
    let mut tracer = Tracer::new(Instant::now());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    'window: for pass in 0u64.. {
        let side = usize::from(traced && pass % 2 == 1);
        let (mut pass_ns, mut pass_ops) = (0u64, 0u64);
        for (i, c) in cells.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'window;
            }
            report.attempted += c.workload.total_ops as u64;
            let t0 = Instant::now();
            let outcome = run_cell(c);
            let took = nanos(t0.elapsed());
            let o = match outcome {
                Ok(o) => o,
                Err(e) => {
                    report.failed += c.workload.total_ops as u64;
                    report.check("run call", Err(e.to_string()));
                    continue;
                }
            };
            let ops = o.stats.operations.len() as u64;
            if side == 1 {
                let start = tracer.now() - took;
                let wall = (o.wall_ms * 1e6) as u64;
                let root = tracer.record("proteus.cell", None, pass, start, start + took);
                tracer.record("proteus.simulate", Some(root), pass, start, start + wall);
            }
            let s = &mut sides[side];
            s.calls.push(took);
            s.per_cell[i].0 += took;
            s.per_cell[i].1 += ops;
            pass_ns += took;
            pass_ops += ops;
            if o.stats.operations != reference[i] {
                report.check(
                    "same seed gives an identical trace",
                    Err(format!("cell {} diverged from its first run", c.name)),
                );
            }
        }
        let s = &mut sides[side];
        s.passes
            .push(pass_ops as f64 / (pass_ns.max(1) as f64 / 1e9));
        s.pass_ns.push(pass_ns);
    }
    report.check("same seed gives an identical trace", Ok(()));
    let [plain, traced_side] = sides;
    let rate = plain.rate();
    report.metric("ops_per_s", rate);
    // one request is a full pass: the cells differ in length, so a
    // quantile over single cell runs would fall between two cells
    report.latency(&plain.pass_ns);
    report.note(format!(
        "{} untraced cell runs over {} cells; {} simulated ops per second of host time",
        plain.calls.len(),
        cells.len(),
        rate.round()
    ));
    if !traced {
        return report;
    }

    // ---- traced run: per-layer rows ----
    let layer = &mut report.layers;
    layer.insert("trace.overhead_frac", (rate - traced_side.rate()) / rate);
    let (host_ns, ops): (u64, u64) = traced_side
        .per_cell
        .iter()
        .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
    layer.insert("proteus.host_ns", host_ns as f64 / ops.max(1) as f64);
    for (c, &(ns, n)) in cells.iter().zip(&traced_side.per_cell) {
        layer.insert(cell_metric(c.name), ns as f64 / n.max(1) as f64);
    }
    layer.insert(
        "proteus.node_visits",
        counts.node_visits as f64 / counts.ops.max(1) as f64,
    );
    layer.insert(
        "proteus.diffracted_frac",
        counts.diffracted as f64 / counts.tree_visits.max(1) as f64,
    );
    layer.insert(
        "proteus.retry_frac",
        counts.refusals as f64 / counts.attempts.max(1) as f64,
    );
    layer.insert(
        "timing.violation_frac",
        counts.nonlinearizable as f64 / counts.ops.max(1) as f64,
    );
    layer.insert(
        "timing.sweep_ns",
        sweep_ns as f64 / counts.ops.max(1) as f64,
    );
    report
        .ledger
        .push(render_ledger("simulator cell spans", &tracer.ledger(), ops));
    report.spans = Some(tracer);
    report
}

/// The per-layer metric naming one cell's host time per op.
pub fn cell_metric(cell: &str) -> &'static str {
    crate::PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_prefix("proteus.host_ns.") == Some(cell))
        .expect("every cell has a per-layer row")
}
