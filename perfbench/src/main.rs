//! The repository benchmark: four workloads from the `cnet serve`
//! socket down to the simulator, each timed through long-lived public
//! entry points, with its outputs checked and, in a traced run, a
//! per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-next|serve-batch|shm-contended|sim-paper|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed output
//! check prints `"correct": false` and exits with code 1.

mod affinity;
mod checks;
mod serve;
mod shm;
mod sim;
mod stats;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::quantile;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["serve-next", "serve-batch", "shm-contended", "sim-paper"];

/// End-to-end metrics, reported with `--trace 0` on every workload.
///
/// `p50_us` and `p99_us` are printed on every run but are not among
/// them. The host has a fast phase that covers anywhere from none to
/// most of a run, and the median reads whichever phase held more of
/// it; on `shm-contended` p99 reads whether more or fewer than 1 % of
/// the calls met a host stall. `p90_us` and the 90 %-floor
/// `ops_per_s` read the slow phase, which every run contains (package
/// README, Known risks).
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1` on every workload; a
/// layer the workload does not pass through reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("serve.rtt_us", "us"),
    ("serve.socket_self_us", "us"),
    ("proto.codec_next_ns", "ns"),
    ("proto.codec_batch_ns", "ns"),
    ("proto.bytes_per_req", "B"),
    ("serve.draw_ns", "ns"),
    ("serve.draw_2t_ns", "ns"),
    ("obs.grade_ns", "ns"),
    ("obs.tracker_retained", "count"),
    ("engine.clock_ns", "ns"),
    ("engine.clock_2t_ns", "ns"),
    ("concurrent.traverse_ns", "ns"),
    ("concurrent.traverse_2t_ns", "ns"),
    ("engine.drive_ms", "ms"),
    ("engine.assembly_ms", "ms"),
    ("timing.sweep_ns", "ns"),
    ("engine.spawn_us", "us"),
    ("proteus.host_ns", "ns"),
    ("proteus.host_ns.bitonic.n16.w100", "ns"),
    ("proteus.host_ns.bitonic.n16.w10000", "ns"),
    ("proteus.host_ns.bitonic.n64.w100", "ns"),
    ("proteus.host_ns.bitonic.n64.w10000", "ns"),
    ("proteus.host_ns.bitonic.n256.w100", "ns"),
    ("proteus.host_ns.bitonic.n256.w10000", "ns"),
    ("proteus.host_ns.tree.n16.w100", "ns"),
    ("proteus.host_ns.tree.n16.w10000", "ns"),
    ("proteus.host_ns.tree.n64.w100", "ns"),
    ("proteus.host_ns.tree.n64.w10000", "ns"),
    ("proteus.host_ns.tree.n256.w100", "ns"),
    ("proteus.host_ns.tree.n256.w10000", "ns"),
    ("proteus.host_ns.lossy", "ns"),
    ("proteus.node_visits", "visits/op"),
    ("proteus.diffracted_frac", "frac"),
    ("proteus.retry_frac", "frac"),
    ("timing.violation_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.span_ns", "ns"),
];

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    passed: BTreeSet<String>,
    problems: Vec<String>,
    /// Operations attempted (one counter value each).
    pub attempted: u64,
    /// Operations that failed: I/O errors, `Err` replies, failed runs.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Per-layer rows of a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    /// Rendered ledger tables of a traced run.
    pub ledger: Vec<String>,
    /// Spans of a traced run, written out when the run ends.
    pub spans: Option<Tracer>,
}

impl Report {
    /// Sets an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an output check; any failure makes the run incorrect.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => {
                self.passed.insert(name.to_string());
            }
            Err(why) => {
                if self.problems.len() < 20 {
                    self.problems.push(format!("{name}: {why}"));
                }
            }
        }
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets `p50_us`, `p90_us` and `p99_us` from the per-request
    /// latencies (ns, in arrival order) as block medians, and notes each
    /// with the quantile over the whole window and its sample count.
    pub fn latency(&mut self, in_order_ns: &[u64]) {
        if in_order_ns.is_empty() {
            self.check("latency samples", Err("no request completed".into()));
            return;
        }
        let mut sorted = in_order_ns.to_vec();
        sorted.sort_unstable();
        for (name, q) in [("p50_us", 0.50), ("p90_us", 0.90), ("p99_us", 0.99)] {
            let (value, blocks) = stats::block_quantile(in_order_ns, q);
            self.metric(name, value / 1e3);
            let whole = quantile(&sorted, q);
            let how = if blocks > 1 {
                format!("median of {blocks} blocks of {} requests", stats::BLOCK)
            } else {
                "every sample".to_string()
            };
            self.note(format!(
                "{name} {:.3} us: {how}; whole window {:.3} us over {} samples, {} beyond{}",
                value / 1e3,
                whole.value as f64 / 1e3,
                whole.samples,
                whole.beyond,
                if whole.resolved() {
                    ""
                } else {
                    " (fewer than 10: unresolved)"
                }
            ));
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: time the workload's set-up only, print the durations.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut setup_probe = false;
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" | "--setup-probe" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} {value}: expected 0 or 1")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    setup_probe = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    if setup_probe && workload == "all" {
        return Err("--setup-probe needs a single workload".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_probe,
    })
}

/// Peak resident set of this process so far, MB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Processes that each time the set-up; `setup_s` is the median of all
/// their durations pooled.
///
/// Set-up takes tens of microseconds and its speed depends on where
/// address-space randomisation put the heap: within one process the
/// durations agree, between processes they fall in two modes up to 40 %
/// apart. Pooling set-ups from several processes samples both modes in
/// every run.
const SETUP_PROCS: usize = 9;

/// The workload's own set-up durations, s (run inside a probe process).
fn setup_durations(args: &Args, out: &Path) -> Result<Vec<f64>, String> {
    match args.workload.as_str() {
        "serve-next" => serve::setup(serve::NEXT, args.seed, out).map_err(|e| e.to_string()),
        "serve-batch" => serve::setup(serve::BATCH, args.seed, out).map_err(|e| e.to_string()),
        "shm-contended" => Ok(shm::setup()),
        "sim-paper" => Ok(sim::setup(args.seed)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Median set-up over [`SETUP_PROCS`] probe processes, s.
fn pooled_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut pooled = Vec::new();
    for _ in 0..SETUP_PROCS {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--setup-probe", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up probe failed: {}", out.status));
        }
        for v in String::from_utf8_lossy(&out.stdout).split_whitespace() {
            pooled.push(
                v.parse::<f64>()
                    .map_err(|e| format!("set-up probe printed {v}: {e}"))?,
            );
        }
    }
    Ok(stats::median(&pooled))
}

fn run_one(args: &Args) -> Result<Report, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let setup = if args.trace {
        None
    } else {
        Some(pooled_setup(args)?)
    };
    let mut report = match args.workload.as_str() {
        "serve-next" => serve::run(serve::NEXT, args.seed, args.seconds, args.trace, &out),
        "serve-batch" => serve::run(serve::BATCH, args.seed, args.seconds, args.trace, &out),
        "shm-contended" => Ok(shm::run(args.seed, args.seconds, args.trace)),
        "sim-paper" => Ok(sim::run(args.seed, args.seconds, args.trace)),
        other => unreachable!("workload {other} was validated"),
    }
    .map_err(|e| format!("{}: {e}", args.workload))?;
    if let Some(s) = setup {
        report.metric("setup_s", s);
    }
    if !report.metrics.contains_key("peak_rss_mb") {
        report.metric("peak_rss_mb", peak_rss_mb());
    }
    if args.trace {
        report.layers.insert("trace.span_ns", trace::span_cost_ns());
    }
    if let Some(spans) = &report.spans {
        let path = out.join(format!("spans-{}.csv", args.workload));
        spans
            .write_csv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.note(format!(
            "{} spans written to {}",
            spans.spans().len(),
            path.display()
        ));
    }
    Ok(report)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints the human-readable report, then the JSON result line.
fn print_report(args: &Args, report: &Report) -> bool {
    println!(
        "== {} (seed {}, {} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let rows: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values: Vec<(&str, &str, f64)> = rows
        .iter()
        .map(|&(name, unit)| {
            let table = if args.trace {
                &report.layers
            } else {
                &report.metrics
            };
            (name, unit, table.get(name).copied().unwrap_or(0.0))
        })
        .collect();
    for &(name, unit, v) in &values {
        if v != 0.0 && v.abs() < 0.01 {
            println!("  {name:<36} {v:>16.4e} {unit}");
        } else {
            println!("  {name:<36} {v:>16.4} {unit}");
        }
    }
    let rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<36} {:>16.4} ({} of {} ops failed)",
        "error_rate", rate, report.failed, report.attempted
    );
    for n in &report.notes {
        println!("  {n}");
    }
    for l in &report.ledger {
        print!("{l}");
    }
    for p in &report.passed {
        println!("  check passed: {p}");
    }
    for p in &report.problems {
        println!("  CHECK FAILED: {p}");
    }
    let all_finite = values.iter().all(|v| v.2.is_finite());
    let correct = report.correct() && all_finite && report.attempted > 0;
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    correct
}

/// Runs every workload in its own process (so peak memory is per
/// workload) and prints each report followed by one combined JSON line.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let value =
            serde::json::from_str(last).map_err(|e| format!("{w} printed no result: {e}"))?;
        let field = |k: &str| value.get(k).ok_or(format!("{w}: result lacks {k}"));
        correct &= out.status.success() && matches!(field("correct")?, serde::Value::Bool(true));
        attempted += value.field::<u64>("attempted").map_err(|e| e.to_string())?;
        failed += value.field::<u64>("failed").map_err(|e| e.to_string())?;
        if let serde::Value::Object(entries) = field("metrics")? {
            for (name, m) in entries {
                metrics.push(format!("\"{w}.{name}\": {}", serde::json::to_string(m)));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let out = out_dir();
        return match std::fs::create_dir_all(&out)
            .map_err(|e| e.to_string())
            .and_then(|()| setup_durations(&args, &out))
        {
            Ok(d) => {
                let text: Vec<String> = d.iter().map(f64::to_string).collect();
                println!("{}", text.join(" "));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up probe: {e}");
                ExitCode::from(1)
            }
        };
    }
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args).map(|r| print_report(&args, &r))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
