//! `serve-next` and `serve-batch`: closed-loop connections to an
//! in-process `CounterServer` over bitonic[16] — two sending `Next`,
//! one sending `NextBatch { k: 1024 }`.
//!
//! The timed window goes only through `CounterServer::start` and
//! `ServeClient`. The traced run adds an in-process replay of the
//! server's per-request sequence — frame codec, `ServiceDriver`
//! clock, traversal, grading under a mutex — at one and two threads,
//! so the round trip can be split into socket time and the layers
//! behind it.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use cnet_concurrent::NetworkCounter;
use cnet_engine::ServiceDriver;
use cnet_obs::{SloEvaluator, SloPolicy};
use cnet_serve::proto::{self, Request, Response};
use cnet_serve::{CounterServer, Drawn, ServeClient, ServeConfig, ServeSummary, ServerHandle};
use cnet_timing::Operation;
use cnet_topology::{constructions, Topology};

use crate::stats::{floor_rate, nanos, quantile};
use crate::trace::{render_ledger, Tracer};
use crate::{affinity, checks, Report};

const WIDTH: usize = 16;

/// What one serve workload sends, and over how many connections.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Values per request: 1 sends plain `Next`, more `NextBatch { k }`.
    pub k: u32,
    /// Closed-loop connections, one client thread each.
    pub connections: usize,
}

/// `serve-next`: two connections sending `Next` back to back.
pub const NEXT: Shape = Shape {
    k: 1,
    connections: 2,
};

/// `serve-batch`: one connection sending `NextBatch { k: 1024 }`. The
/// server grades a batch under its SLO mutex, so a second connection
/// adds no throughput. It only makes each request wait for one, two or
/// three of the other's batches, which spread the latency quantiles
/// from run to run (see the package README).
pub const BATCH: Shape = Shape {
    k: 1024,
    connections: 1,
};

/// Set-ups timed per set-up probe process.
const SETUP_REPS: usize = 5;
const WARMUP: Duration = Duration::from_millis(300);

fn network() -> Topology {
    constructions::bitonic(WIDTH).expect("16 is a valid bitonic width")
}

struct Service {
    handle: ServerHandle,
    clients: Vec<ServeClient>,
}

/// Network build, compile and bind, then every connection.
fn start(socket: &Path, seed: u64, connections: usize) -> io::Result<Service> {
    let mut config = ServeConfig::new(socket);
    config.seed = seed;
    let handle = CounterServer::start(&network(), config)?;
    let clients = (0..connections)
        .map(|_| ServeClient::connect(socket))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Service { handle, clients })
}

fn stop(service: Service) -> io::Result<ServeSummary> {
    service.handle.request_shutdown();
    drop(service.clients);
    service.handle.wait()
}

/// What one connection saw. Its replies are spooled to a file during
/// the window, so the harness's own memory does not grow with
/// throughput and `peak_rss_mb` tracks the service.
#[derive(Default)]
struct Conn {
    spool: PathBuf,
    /// Values received in each full slice of the timed window.
    slices: Vec<u64>,
    attempted: u64,
    failed: u64,
    spans: Option<Tracer>,
}

/// The timed window is cut into slices of this length; `ops_per_s` is
/// the rate at least 90 % of the slices reach ([`floor_rate`]).
const SLICE: Duration = Duration::from_millis(200);

/// Bytes per spooled reply: base, start, end (`u64`), k, round trip
/// (`u32`, 0 for a warm-up reply).
const RECORD: usize = 32;

fn spool(out: &mut impl Write, d: &Drawn, rtt_ns: u32) -> io::Result<()> {
    let mut rec = [0u8; RECORD];
    rec[0..8].copy_from_slice(&d.base.to_le_bytes());
    rec[8..16].copy_from_slice(&d.start.to_le_bytes());
    rec[16..24].copy_from_slice(&d.end.to_le_bytes());
    rec[24..28].copy_from_slice(&d.k.to_le_bytes());
    rec[28..32].copy_from_slice(&rtt_ns.to_le_bytes());
    out.write_all(&rec)
}

/// Reads back (and removes) the spools: every reply, and the round
/// trips of the timed window in ns, in the order the server completed
/// them (its end ticks), so consecutive samples mix the connections.
fn unspool(conns: &[Conn]) -> io::Result<(Vec<Drawn>, Vec<u64>)> {
    let (mut draws, mut timed) = (Vec::new(), Vec::new());
    for c in conns {
        let bytes = std::fs::read(&c.spool)?;
        std::fs::remove_file(&c.spool)?;
        for rec in bytes.chunks_exact(RECORD) {
            let u64_at = |i: usize| u64::from_le_bytes(rec[i..i + 8].try_into().expect("8 bytes"));
            let u32_at = |i: usize| u32::from_le_bytes(rec[i..i + 4].try_into().expect("4 bytes"));
            let d = Drawn {
                base: u64_at(0),
                start: u64_at(8),
                end: u64_at(16),
                k: u32_at(24),
            };
            if u32_at(28) > 0 {
                timed.push((d.end, u64::from(u32_at(28))));
            }
            draws.push(d);
        }
    }
    timed.sort_unstable();
    Ok((draws, timed.into_iter().map(|(_, rtt)| rtt).collect()))
}

fn request(client: &mut ServeClient, k: u32) -> io::Result<Drawn> {
    if k == 1 {
        client.next()
    } else {
        client.next_batch(k)
    }
}

/// Runs every connection closed-loop: [`WARMUP`] untimed, then `window`
/// timed, spooling replies to files named after `spool_prefix`. When
/// `traced`, every odd slice of the window records a span per request
/// and the even slices record none, so the two halves interleave and
/// host drift cannot pose as tracing overhead.
fn closed_loop(
    clients: &mut [ServeClient],
    k: u32,
    window: Duration,
    traced: bool,
    spool_prefix: &str,
    cpus: &[usize],
    epoch: Instant,
) -> io::Result<Vec<Conn>> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                let path = PathBuf::from(format!("{spool_prefix}-conn{c}.bin"));
                scope.spawn(move || -> io::Result<Conn> {
                    affinity::pin(0, cpus[c % cpus.len()])?;
                    let mut out = BufWriter::with_capacity(1 << 16, File::create(&path)?);
                    let mut conn = Conn {
                        spool: path,
                        ..Conn::default()
                    };
                    let warm_until = Instant::now() + WARMUP;
                    while Instant::now() < warm_until {
                        conn.attempted += u64::from(k);
                        match request(client, k) {
                            Ok(d) => spool(&mut out, &d, 0)?,
                            Err(_) => {
                                conn.failed += u64::from(k);
                                break;
                            }
                        }
                    }
                    let mut tracer = traced.then(|| Tracer::new(epoch));
                    barrier.wait();
                    let first = nanos(epoch.elapsed());
                    let deadline = first + nanos(window);
                    conn.slices = vec![0; (window.as_nanos() / SLICE.as_nanos()) as usize];
                    let mut now = first;
                    let mut seq = 0u64;
                    while now < deadline && conn.failed == 0 {
                        let sent = now;
                        let reply = request(client, k);
                        now = nanos(epoch.elapsed());
                        conn.attempted += u64::from(k);
                        match reply {
                            Ok(d) => {
                                let rtt = u32::try_from(now - sent).unwrap_or(u32::MAX).max(1);
                                spool(&mut out, &d, rtt)?;
                                let slice = ((now - first) / nanos(SLICE)) as usize;
                                if let Some(n) = conn.slices.get_mut(slice) {
                                    *n += u64::from(d.k);
                                }
                                if let Some(t) =
                                    tracer.as_mut().filter(|_| traced_slice(sent - first))
                                {
                                    t.record("serve.rtt", None, (c as u64) << 40 | seq, sent, now);
                                }
                            }
                            Err(_) => conn.failed += u64::from(k),
                        }
                        seq += 1;
                    }
                    out.flush()?;
                    conn.spans = tracer;
                    Ok(conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Whether the slice holding window offset `at_ns` records spans.
fn traced_slice(at_ns: u64) -> bool {
    (at_ns / nanos(SLICE)) % 2 == 1
}

/// [`floor_rate`] over the window's full slices (those whose index
/// satisfies `keep`) of the values all connections received per second.
fn window_rate(conns: &[Conn], keep: impl Fn(usize) -> bool) -> f64 {
    let slices = conns.iter().map(|c| c.slices.len()).min().unwrap_or(0);
    let rates: Vec<f64> = (0..slices)
        .filter(|&i| keep(i))
        .map(|i| {
            let values: u64 = conns.iter().map(|c| c.slices[i]).sum();
            values as f64 / SLICE.as_secs_f64()
        })
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        floor_rate(&rates)
    }
}

/// Set-up durations, s: network build, compile and bind, then every
/// connection (each service is stopped again, untimed).
pub fn setup(shape: Shape, seed: u64, out_dir: &Path) -> io::Result<Vec<f64>> {
    let socket = socket_path(out_dir);
    (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let service = start(&socket, seed, shape.connections)?;
            let took = t0.elapsed().as_secs_f64();
            stop(service)?;
            Ok(took)
        })
        .collect()
}

/// Runs one serve workload of the given shape.
pub fn run(
    shape: Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> io::Result<Report> {
    let Shape { k, connections } = shape;
    let socket = socket_path(out_dir);
    let mut report = Report::default();
    // one time base for every span of the run
    let epoch = Instant::now();

    let mut service = start(&socket, seed, connections)?;

    // one request per connection makes the server spawn every
    // connection thread; each is then pinned to its client's CPU
    let primer = service
        .clients
        .iter_mut()
        .map(|c| request(c, k))
        .collect::<io::Result<Vec<_>>>()?;
    let cpus = affinity::allowed_cpus()?;
    let conn_threads = affinity::threads_named("cnet-serve-conn")?;
    if conn_threads.len() != connections {
        return Err(io::Error::other(format!(
            "expected {connections} server connection threads, found {}",
            conn_threads.len()
        )));
    }
    for (c, &tid) in conn_threads.iter().enumerate() {
        affinity::pin(tid, cpus[c % cpus.len()])?;
    }
    report.note(format!(
        "affinity: the client and server connection thread of connection 0, 1, ... pinned to CPU {:?}",
        (0..connections)
            .map(|c| cpus[c % cpus.len()])
            .collect::<Vec<_>>()
    ));

    let prefix = out_dir.join(format!("spool-{}", std::process::id()));
    let mut conns = closed_loop(
        &mut service.clients,
        k,
        Duration::from_secs_f64(seconds),
        traced,
        &prefix.display().to_string(),
        &cpus,
        epoch,
    )?;
    let summary = stop(service)?;
    // peak memory of set-up, warm-up and window, before the checks
    // load the spooled replies
    report.metric("peak_rss_mb", crate::peak_rss_mb());

    // output checks over every value drawn, warm-up included
    let (mut draws, rtt) = unspool(&conns)?;
    draws.extend(primer);
    let served = summary.report.total.ops;
    report.check(
        "intervals tile 0..N",
        checks::intervals_tile(&draws, served),
    );
    let replayed = checks::replayed_violations(&draws);
    drop(draws);
    let online = summary.report.total.violations;
    report.check(
        "online violations equal client replay",
        if replayed == online {
            Ok(())
        } else {
            Err(format!("server counted {online}, client replay {replayed}"))
        },
    );
    report.note(format!(
        "served {served} values over {} connection(s); {online} Def-2.4 violations online and in replay",
        summary.connections
    ));
    report.attempted += connections as u64 * u64::from(k);
    for c in &conns {
        report.attempted += c.attempted;
        report.failed += c.failed;
    }

    report.metric("ops_per_s", window_rate(&conns, |_| true));
    report.latency(&rtt);
    if !traced {
        return Ok(report);
    }

    // ---- traced run: per-layer rows ----
    let untraced_rate = window_rate(&conns, |i| i % 2 == 0);
    let traced_rate = window_rate(&conns, |i| i % 2 == 1);
    report.note(format!(
        "untraced slices {untraced_rate:.0} values/s, traced slices {traced_rate:.0} values/s"
    ));
    let mut tracer = Tracer::new(epoch);
    for c in &mut conns {
        if let Some(t) = c.spans.take() {
            tracer.absorb(t);
        }
    }
    let rtt_traced = tracer.durations("serve.rtt");
    let layer = &mut report.layers;
    layer.insert(
        "trace.overhead_frac",
        (untraced_rate - traced_rate) / untraced_rate,
    );
    layer.insert(
        "timing.violation_frac",
        online as f64 / served.max(1) as f64,
    );
    let rtt_med = quantile(&rtt_traced, 0.5).value as f64;
    layer.insert("serve.rtt_us", rtt_med / 1e3);

    let codec_next = codec_ns(Request::Next, &value_response());
    let codec_batch = codec_ns(Request::NextBatch { k: 1024 }, &batch_response(1024));
    layer.insert("proto.codec_next_ns", codec_next);
    layer.insert("proto.codec_batch_ns", codec_batch);
    let req = if k == 1 {
        Request::Next
    } else {
        Request::NextBatch { k }
    };
    let resp = if k == 1 {
        value_response()
    } else {
        batch_response(k)
    };
    layer.insert("proto.bytes_per_req", frame_bytes(&req, &resp) as f64);

    let requests = if k == 1 { 20_000 } else { 4_000 };
    let one = replay(k, 1, requests, epoch);
    let two = replay(k, 2, requests, epoch);
    let l1 = one.tracer.ledger();
    let l2 = two.tracer.ledger();
    let (r1, r2) = (requests as f64, 2.0 * requests as f64);
    let per_value = f64::from(k);
    let total = |l: &BTreeMap<&str, crate::trace::LayerTime>, n: &str| {
        l.get(n).map_or(0, |t| t.total_ns) as f64
    };
    let selft = |l: &BTreeMap<&str, crate::trace::LayerTime>, n: &str| {
        l.get(n).map_or(0, |t| t.self_ns) as f64
    };
    layer.insert("serve.draw_ns", total(&l1, "serve.draw") / (r1 * per_value));
    layer.insert(
        "serve.draw_2t_ns",
        total(&l2, "serve.draw") / (r2 * per_value),
    );
    layer.insert("obs.grade_ns", total(&l1, "obs.grade") / (r1 * per_value));
    layer.insert("obs.tracker_retained", two.retained_mean);
    layer.insert(
        "engine.clock_ns",
        (total(&l1, "engine.begin") + selft(&l1, "engine.complete")) / r1,
    );
    layer.insert(
        "engine.clock_2t_ns",
        (total(&l2, "engine.begin") + selft(&l2, "engine.complete")) / r2,
    );
    layer.insert(
        "concurrent.traverse_ns",
        total(&l1, "concurrent.traverse") / r1,
    );
    layer.insert(
        "concurrent.traverse_2t_ns",
        total(&l2, "concurrent.traverse") / r2,
    );
    // the round trip is compared with the replay at as many threads as
    // there are connections, so it waits for the same lock holders
    let (same, same_l, same_r) = if connections == 1 {
        (&one, &l1, r1)
    } else {
        (&two, &l2, r2)
    };
    let replay_med = quantile(&same.tracer.durations("replay.request"), 0.5).value as f64;
    let socket_self = rtt_med - replay_med;
    layer.insert("serve.socket_self_us", socket_self / 1e3);

    report.ledger.push(render_ledger(
        &format!("in-process replay, 1 thread, {requests} requests of k={k}"),
        &l1,
        requests as u64,
    ));
    report.ledger.push(render_ledger(
        &format!("in-process replay, 2 threads, {requests} requests of k={k} each"),
        &l2,
        2 * requests as u64,
    ));
    // the round trip split into socket self time and the replayed
    // server layers (self time per request at that thread count)
    let mut parts: Vec<(&str, f64)> = same_l
        .iter()
        .filter(|(n, _)| **n != "replay.request")
        .map(|(n, t)| (*n, t.self_ns as f64 / same_r))
        .collect();
    parts.push(("socket (rtt - replay)", socket_self));
    parts.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut text = format!(
        "round trip decomposition (median rtt {:.2} us, median {connections}-thread replay {:.2} us)\n",
        rtt_med / 1e3,
        replay_med / 1e3
    );
    for (name, ns) in &parts {
        text.push_str(&format!(
            "  {name:<24} {ns:>12.1} ns/req {:>6.1}%\n",
            100.0 * ns / rtt_med
        ));
    }
    let server_side = parts.iter().find(|(n, _)| !n.starts_with("socket"));
    text.push_str(&format!(
        "  largest self time: {}; largest server-side layer: {}\n",
        parts[0].0,
        server_side.map_or("-", |p| p.0)
    ));
    report.ledger.push(text);

    tracer.absorb(one.tracer);
    tracer.absorb(two.tracer);
    report.spans = Some(tracer);
    Ok(report)
}

/// A socket path inside `out_dir`, or in the working directory when the
/// absolute path would not fit a unix socket address.
fn socket_path(out_dir: &Path) -> PathBuf {
    let name = format!("serve-{}.sock", std::process::id());
    let inside = out_dir.join(&name);
    if inside.as_os_str().len() < 100 {
        inside
    } else {
        PathBuf::from(format!(".perfbench-{name}"))
    }
}

fn value_response() -> Response {
    Response::Value {
        value: 12_345,
        start: 678,
        end: 910,
    }
}

fn batch_response(k: u32) -> Response {
    Response::Batch {
        base: 12_345,
        k,
        start: 678,
        end: 910,
    }
}

fn frame_bytes(req: &Request, resp: &Response) -> usize {
    let mut wire = Vec::new();
    proto::write_request(&mut wire, req).expect("write to a Vec");
    proto::write_response(&mut wire, resp).expect("write to a Vec");
    wire.len()
}

/// Encode + decode of one request/response pair, ns.
fn codec_ns(req: Request, resp: &Response) -> f64 {
    const PAIRS: u32 = 200_000;
    let mut wire = Vec::with_capacity(64);
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        wire.clear();
        proto::write_request(&mut wire, std::hint::black_box(&req)).expect("write to a Vec");
        let got = proto::read_request(&mut wire.as_slice()).expect("decode");
        std::hint::black_box(got);
        wire.clear();
        proto::write_response(&mut wire, std::hint::black_box(resp)).expect("write to a Vec");
        let got = proto::read_response(&mut wire.as_slice()).expect("decode");
        std::hint::black_box(got);
    }
    nanos(t0.elapsed()) as f64 / f64::from(PAIRS)
}

struct Replay {
    tracer: Tracer,
    /// Mean violation-tracker size seen after each completion.
    retained_mean: f64,
}

/// The grading state the server keeps under one lock.
struct Slo {
    evaluator: SloEvaluator,
    history: VecDeque<Operation>,
    completions: u64,
    retained_sum: u64,
}

const HISTORY_CAP: usize = 64 * 1024;

/// Replays the server's per-request sequence in process on `threads`
/// threads, `requests` each, with a span around every layer call.
fn replay(k: u32, threads: usize, requests: usize, epoch: Instant) -> Replay {
    let net = network();
    let counter = NetworkCounter::new(&net);
    let driver = ServiceDriver::new();
    let slo = Mutex::new(Slo {
        evaluator: SloEvaluator::new(SloPolicy::unbounded(), 1024),
        history: VecDeque::with_capacity(HISTORY_CAP),
        completions: 0,
        retained_sum: 0,
    });
    let request = if k == 1 {
        Request::Next
    } else {
        Request::NextBatch { k }
    };
    let barrier = Barrier::new(threads);
    let tracers: Vec<Tracer> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (counter, driver, slo, barrier) = (&counter, &driver, &slo, &barrier);
                scope.spawn(move || {
                    let mut tr = Tracer::new(epoch);
                    let input = t % counter.input_width();
                    let mut wire = Vec::with_capacity(64);
                    barrier.wait();
                    for i in 0..requests {
                        let req = (t as u64) << 40 | i as u64;
                        let root = tr.open("replay.request", None, req);
                        wire.clear();
                        tr.time("proto.encode", Some(root), req, || {
                            proto::write_request(&mut wire, &request).expect("write to a Vec")
                        });
                        let decoded = tr.time("proto.decode", Some(root), req, || {
                            proto::read_request(&mut wire.as_slice()).expect("decode")
                        });
                        let k = match decoded {
                            Some(Request::NextBatch { k }) => k,
                            _ => 1,
                        };
                        let draw = tr.open("serve.draw", Some(root), req);
                        let service_start = Instant::now();
                        let start = tr.time("engine.begin", Some(draw), req, || driver.begin());
                        let base = tr.time("concurrent.traverse", Some(draw), req, || {
                            counter.next_batch_on(input, u64::from(k), 0)
                        });
                        let complete = tr.open("engine.complete", Some(draw), req);
                        let end = driver.complete(start, |end, min_pending_start| {
                            let sojourn = nanos(service_start.elapsed());
                            let lock = tr.open("serve.slo_lock", Some(complete), req);
                            let mut s = slo.lock().expect("slo lock poisoned");
                            tr.close(lock);
                            let grade = tr.open("obs.grade", Some(complete), req);
                            for j in 0..u64::from(k) {
                                let retire = if j + 1 == u64::from(k) {
                                    min_pending_start
                                } else {
                                    min_pending_start.min(start)
                                };
                                s.evaluator.record(start, end, base + j, sojourn, retire, 0);
                            }
                            tr.close(grade);
                            let history = tr.open("serve.history", Some(complete), req);
                            for j in 0..u64::from(k) {
                                if s.history.len() == HISTORY_CAP {
                                    s.history.pop_front();
                                }
                                let token = s.completions as usize;
                                s.completions += 1;
                                let value = base + j;
                                s.history.push_back(Operation {
                                    token,
                                    input,
                                    start,
                                    end,
                                    counter: (value % WIDTH as u64) as usize,
                                    value,
                                });
                            }
                            tr.close(history);
                            s.retained_sum += s.evaluator.tracker_retained() as u64;
                            end
                        });
                        tr.close(complete);
                        tr.close(draw);
                        let resp = if k == 1 {
                            Response::Value {
                                value: base,
                                start,
                                end,
                            }
                        } else {
                            Response::Batch {
                                base,
                                k,
                                start,
                                end,
                            }
                        };
                        wire.clear();
                        tr.time("proto.encode", Some(root), req, || {
                            proto::write_response(&mut wire, &resp).expect("write to a Vec")
                        });
                        let got = tr.time("proto.decode", Some(root), req, || {
                            proto::read_response(&mut wire.as_slice()).expect("decode")
                        });
                        std::hint::black_box(got);
                        tr.close(root);
                    }
                    tr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut tracer = Tracer::new(epoch);
    for t in tracers {
        tracer.absorb(t);
    }
    let s = slo.into_inner().expect("slo lock poisoned");
    Replay {
        tracer,
        retained_mean: s.retained_sum as f64 / (threads * requests) as f64,
    }
}
