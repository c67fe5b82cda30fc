//! The three request-path workloads: client → proxy → echo backend →
//! client over loopback, the proxy and the backends in child processes
//! of their own.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use crate::children::ChildProc;
use crate::loadgen::{LoadGen, Mode, Phase, Window};
use crate::replay;
use crate::spec::Outcome;
use crate::stats::{median, percentile_us};
use crate::trace::{Tracer, SPAN_CAP};

/// Concurrent connections, which is also the concurrency: the proxy
/// allows one outstanding request per client. README.md records why 16.
pub const CONNECTIONS: usize = 16;
/// Target window length; a run-level number is the median over windows.
const WINDOW_SECS: f64 = 0.5;
/// Closed-loop segments of a traced run, alternately untraced and traced.
const SAT_SEGMENTS: usize = 8;

pub struct Shape {
    pub name: &'static str,
    pub frame: usize,
    pub backends: usize,
    /// Open-loop arrival rate, requests per second: fixed per workload
    /// at well under half of what saturation sustains here, so the
    /// backlog never grows.
    pub open_rate: u64,
    /// `backend_send_buffer_bytes` / echo `recv_buffer`; 0 = kernel default.
    pub pipe_bytes: usize,
    /// Read gate on backend 0, milliseconds; 0 = none.
    pub slow_ms: u64,
    /// Closed-loop requests sent before anything is timed.
    pub warm_requests: u64,
    /// Share of each phase that runs untimed first.
    pub settle_share: f64,
}

pub const SHAPES: &[Shape] = &[
    Shape {
        name: "proxy-small",
        frame: 128,
        backends: 2,
        open_rate: 20_000,
        pipe_bytes: 0,
        slow_ms: 0,
        warm_requests: 4_000,
        settle_share: 0.2,
    },
    Shape {
        name: "proxy-large",
        frame: 256 * 1024,
        backends: 2,
        open_rate: 1_000,
        pipe_bytes: 0,
        slow_ms: 0,
        warm_requests: 400,
        settle_share: 0.2,
    },
    Shape {
        name: "proxy-skew",
        frame: 4096,
        backends: 3,
        open_rate: 8_000,
        pipe_bytes: 4096,
        slow_ms: 5,
        warm_requests: 500,
        settle_share: 0.3,
    },
];

/// Proxy child, echo child and the generator's connections. Field order
/// is drop order: the connections close before the proxy drains.
struct Rig {
    gen: LoadGen,
    proxy: ChildProc,
    echo: ChildProc,
    echo_addrs: Vec<SocketAddr>,
}

fn parse_addrs(words: &[String]) -> io::Result<Vec<SocketAddr>> {
    words
        .iter()
        .map(|w| {
            w.parse()
                .map_err(|_| io::Error::other(format!("bad address '{w}'")))
        })
        .collect()
}

/// Set-up as a user pays it: start both processes, connect, and send the
/// warm-up requests (which also carry the controller's first rounds).
fn set_up(shape: &Shape, seed: u64) -> io::Result<Rig> {
    let (mut echo, ready) = ChildProc::spawn(&[
        "echo".into(),
        shape.backends.to_string(),
        shape.pipe_bytes.to_string(),
    ])?;
    let echo_addrs = parse_addrs(&ready)?;
    if shape.slow_ms > 0 {
        echo.request(&format!("delay 0 {}", shape.slow_ms))?;
    }
    let mut args = vec!["proxy".into(), shape.pipe_bytes.to_string()];
    args.extend(ready);
    let (proxy, ready) = ChildProc::spawn(&args)?;
    let proxy_addr = parse_addrs(&ready)?
        .pop()
        .ok_or_else(|| io::Error::other("proxy reported no address"))?;
    let mut gen = LoadGen::connect(&[proxy_addr], CONNECTIONS, shape.frame, seed)?;
    gen.warm_up(shape.warm_requests);
    Ok(Rig {
        gen,
        proxy,
        echo,
        echo_addrs,
    })
}

/// Child clocks read at one window boundary.
#[derive(Default, Clone)]
struct Mark {
    proxy_cpu_ns: u64,
    echo_cpu_ns: u64,
    /// The proxy's registry at this instant (traced runs only).
    stat: HashMap<String, f64>,
}

/// Runs one phase, reading the children's clocks at every boundary.
/// `detailed` also takes the proxy's registry snapshot and the echo
/// child's clock — the traced run's per-layer inputs.
fn measure(
    rig: &mut Rig,
    phase: Phase,
    tracer: Option<&mut Tracer>,
    detailed: bool,
) -> io::Result<(Vec<Window>, Vec<Mark>)> {
    let Rig {
        gen, proxy, echo, ..
    } = rig;
    let mut marks = Vec::with_capacity(phase.windows + 1);
    let mut error = None;
    let windows = gen.run_phase(phase, tracer, |_| {
        let mark = (|| {
            if detailed {
                let stat = proxy.stat()?;
                Ok(Mark {
                    proxy_cpu_ns: stat.get("cpu_ns").copied().unwrap_or(0.0) as u64,
                    echo_cpu_ns: echo.cpu_ns()?,
                    stat,
                })
            } else {
                Ok(Mark {
                    proxy_cpu_ns: proxy.cpu_ns()?,
                    ..Mark::default()
                })
            }
        })();
        match mark {
            Ok(m) => marks.push(m),
            Err(e) => {
                error.get_or_insert(e);
                marks.push(Mark::default());
            }
        }
    });
    match error {
        Some(e) => Err(e),
        None => Ok((windows, marks)),
    }
}

fn window_rates(windows: &[Window]) -> Vec<f64> {
    windows.iter().map(Window::rate).collect()
}

fn window_p50s(windows: &mut [Window]) -> Vec<f64> {
    windows
        .iter_mut()
        .map(|w| percentile_us(&mut w.latency_ns, 0.5))
        .collect()
}

/// Per window: child CPU microseconds per completed request.
fn cpu_us_per_req(windows: &[Window], marks: &[Mark], clock: impl Fn(&Mark) -> u64) -> Vec<f64> {
    windows
        .iter()
        .zip(marks.windows(2))
        .filter(|(w, _)| w.completed > 0)
        .map(|(w, m)| clock(&m[1]).saturating_sub(clock(&m[0])) as f64 / 1e3 / w.completed as f64)
        .collect()
}

fn phases(shape: &Shape, seconds: f64, shares: &[(Mode, f64)]) -> Vec<Phase> {
    shares
        .iter()
        .map(|&(mode, share)| Phase::of(mode, seconds * share, shape.settle_share, WINDOW_SECS))
        .collect()
}

/// The untraced run: the end-to-end metrics.
pub fn run(shape: &Shape, seed: u64, seconds: f64, setups: usize) -> io::Result<Outcome> {
    let mut setup_secs = Vec::with_capacity(setups);
    let mut rig = None;
    for _ in 0..setups.max(1) {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(set_up(shape, seed)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up ran");
    let plan = phases(
        shape,
        seconds,
        &[(Mode::Closed, 0.45), (Mode::Open(shape.open_rate), 0.55)],
    );
    let (sat, _) = measure(&mut rig, plan[0], None, false)?;
    let (mut open, open_marks) = measure(&mut rig, plan[1], None, false)?;
    let rss_kib = rig.proxy.stat()?.get("rss_kib").copied().unwrap_or(0.0);

    let mut out = Outcome {
        attempted: rig.gen.attempted,
        failed: rig.gen.failed,
        ..Outcome::default()
    };
    out.set("ops_per_s", median(&window_rates(&sat)));
    out.set("p50_us", median(&window_p50s(&mut open)));
    out.set(
        "cpu_us_per_op",
        median(&cpu_us_per_req(&open, &open_marks, |m| m.proxy_cpu_ns)),
    );
    out.set("peak_rss_mib", rss_kib / 1024.0);
    out.set("setup_s", median(&setup_secs));
    Ok(out)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The traced run: the per-layer metrics, and the span file.
pub fn run_traced(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
) -> io::Result<Outcome> {
    let mut tracer = Tracer::new();
    let mut rig = tracer.time("setup", shape.name, || set_up(shape, seed))?;
    let open = Mode::Open(shape.open_rate);
    let plan = phases(
        shape,
        seconds,
        &[
            (Mode::Closed, 0.10),
            (open, 0.15),
            (Mode::Closed, 0.40 / SAT_SEGMENTS as f64),
            (open, 0.35),
        ],
    );

    // Floor: the same generator straight at the backends that are never
    // read-gated, no proxy on the path.
    let fast = &rig.echo_addrs[usize::from(shape.slow_ms > 0)..];
    let mut floor = LoadGen::connect(fast, CONNECTIONS, shape.frame, seed)?;
    floor.warm_up(shape.warm_requests / 4);
    let floor_sat = floor.run_phase(plan[0], None, |_| {});
    let mut floor_open = floor.run_phase(plan[1], None, |_| {});
    let (floor_attempted, floor_failed) = (floor.attempted, floor.failed);
    drop(floor);

    let echo_before = rig.echo.stat()?;
    let started = Instant::now();
    // Saturation in short segments, every other one traced: machine
    // speed drifts by more than tracing costs, and interleaving is what
    // lets the two medians be compared at all. The closed loop may use
    // half the recorder, so the open loop still gets spans.
    let (mut sat_plain, mut sat_cpu, mut sat_traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut before = HashMap::new();
    tracer.limit(SPAN_CAP / 2);
    for segment in 0..SAT_SEGMENTS {
        if segment % 2 == 0 {
            let (w, mut m) = measure(&mut rig, plan[2], None, true)?;
            sat_cpu.extend(cpu_us_per_req(&w, &m, |m| m.proxy_cpu_ns));
            sat_plain.extend(w);
            if segment == 0 {
                before = m.swap_remove(0).stat;
            }
        } else {
            sat_traced.extend(measure(&mut rig, plan[2], Some(&mut tracer), true)?.0);
        }
    }
    tracer.limit(SPAN_CAP);
    let (mut open_w, open_marks) = measure(&mut rig, plan[3], Some(&mut tracer), true)?;
    let wall = started.elapsed().as_secs_f64();
    let echo_after = rig.echo.stat()?;
    let after = &open_marks.last().expect("a phase has boundaries").stat;
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };

    let mut out = Outcome {
        attempted: rig.gen.attempted + floor_attempted,
        failed: rig.gen.failed + floor_failed,
        ..Outcome::default()
    };
    out.set("proxy.requests", delta("proxy.requests"));
    out.set("proxy.retries", delta("proxy.retries"));
    out.set("proxy.failed_requests", delta("proxy.failed_requests"));
    out.set("proxy.forwarded_bytes", delta("proxy.forwarded_bytes"));
    out.set(
        "proxy.residence_p50_us",
        after
            .get("proxy.request_latency_ns.p50")
            .copied()
            .unwrap_or(0.0)
            / 1e3,
    );
    let open_cpu_ns: u64 = open_marks
        .last()
        .zip(open_marks.first())
        .map_or(0, |(b, a)| b.proxy_cpu_ns.saturating_sub(a.proxy_cpu_ns));
    let open_secs: f64 = open_w.iter().map(|w| w.secs).sum();
    out.set(
        "proxy.cpu_util",
        open_cpu_ns as f64 / 1e9 / open_secs.max(1e-9),
    );
    out.set("proxy.cpu_us_per_req_sat", median(&sat_cpu));
    out.set(
        "proxy.echo_cpu_us_per_req",
        median(&cpu_us_per_req(&open_w, &open_marks, |m| m.echo_cpu_ns)),
    );
    let floor_p50 = median(&window_p50s(&mut floor_open));
    let p50 = median(&window_p50s(&mut open_w));
    out.set("proxy.floor_rps_sat", median(&window_rates(&floor_sat)));
    out.set("proxy.floor_p50_us", floor_p50);
    out.set("proxy.added_p50_us", p50 - floor_p50);

    // Tail percentiles and generator lateness over the whole open phase:
    // the highest percentiles need every sample they can get.
    let mut all: Vec<u64> = open_w
        .iter()
        .flat_map(|w| w.latency_ns.iter().copied())
        .collect();
    let mut late: Vec<u64> = open_w
        .iter()
        .flat_map(|w| w.late_ns.iter().copied())
        .collect();
    out.set("proxy.client_p99_us", percentile_us(&mut all, 0.99));
    out.set("proxy.client_p999_us", percentile_us(&mut all, 0.999));
    out.set("proxy.gen_late_p99_us", percentile_us(&mut late, 0.99));
    out.set(
        "proxy.backlog_max",
        open_w.iter().map(|w| w.backlog_max).max().unwrap_or(0) as f64,
    );

    if shape.slow_ms > 0 {
        let served = |stat: &HashMap<String, f64>, j: usize| {
            stat.get(&format!("served{j}")).copied().unwrap_or(0.0)
        };
        let slow = served(&echo_after, 0) - served(&echo_before, 0);
        let total: f64 = (0..shape.backends)
            .map(|j| served(&echo_after, j) - served(&echo_before, j))
            .sum();
        out.set("proxy.slow_share", slow / total.max(1.0));
        let gauge = |name: &'static str| {
            mean(
                open_marks
                    .iter()
                    .filter_map(move |m| m.stat.get(name).copied()),
            )
        };
        // Weights are units of the proxy's 1000-unit simplex.
        out.set(
            "proxy.slow_weight_mean",
            gauge("proxy.conn0.weight") / 1000.0,
        );
        out.set(
            "proxy.slow_blocking_rate_mean",
            gauge("proxy.conn0.blocking_rate"),
        );
    }
    out.set(
        "control.rounds_per_s",
        delta("proxy.controller.rounds") / wall,
    );

    let plain = median(&window_rates(&sat_plain));
    let traced = median(&window_rates(&sat_traced));
    out.set(
        "benchmark.trace_overhead_pct",
        (plain - traced) / plain.max(1e-9) * 100.0,
    );

    drop(rig);
    replay::proxy_layers(&mut tracer, shape.frame, shape.backends, &mut out);
    replay::core_small(&mut tracer, &mut out);
    out.set("benchmark.trace_spans", tracer.recorded() as f64);
    out.set("benchmark.trace_spans_dropped", tracer.dropped() as f64);
    tracer.write_jsonl(trace_path)?;
    Ok(out)
}
