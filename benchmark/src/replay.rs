//! Layer replay: times the public functions the request path and the
//! control round are made of, in memory and single-threaded, at the
//! running workload's shape (frame size, pool width, function tables).
//! Nothing inside the measured crates is instrumented — these are calls
//! from outside, which is why they are reported as layer metrics and
//! never as end-to-end ones.

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use streambal_control::ControlPlane;
use streambal_core::cluster::{
    condensed_len, fill_condensed, knee_of_function, log_features, ClusterScratch, Clustering,
};
use streambal_core::function::BlockingRateFunction;
use streambal_core::pava::PavaScratch;
use streambal_core::solver::{fox, Problem};
use streambal_core::{SplitMix64, WeightVector};
use streambal_proxy::{BackendPool, FrameReader, FrameWriter, Poll};
use streambal_telemetry::{Counter, Histogram, MetricsRegistry};
use streambal_transport::poll::{Interest, Poller};
use streambal_transport::{BlockingCounter, BlockingSampler};

use crate::spec::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

/// Calls per replayed function unless it is too slow for that many.
const CALLS: usize = 10_000;

/// Median nanoseconds per call of `f`: `calls` calls timed in batches of
/// `batch` (one clock read pair per batch, so a 20 ns function is not
/// drowned by the clock), the median over batches reported. The whole
/// loop is one span named `name`.
fn time_ns(
    tracer: &mut Tracer,
    name: &'static str,
    calls: usize,
    batch: usize,
    mut f: impl FnMut(),
) -> f64 {
    for _ in 0..batch.min(calls / 10).max(1) {
        f(); // warm caches and lazily sized buffers
    }
    tracer.time("replay", name, || {
        let per_batch: Vec<f64> = (0..calls.div_ceil(batch))
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    f();
                }
                t.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        median(&per_batch)
    })
}

/// Serves one encoded frame over and over, one frame per `read` at most.
struct FrameLoop {
    frame: Vec<u8>,
    pos: usize,
}

impl Read for FrameLoop {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.frame.len() - self.pos);
        buf[..n].copy_from_slice(&self.frame[self.pos..self.pos + n]);
        self.pos = (self.pos + n) % self.frame.len();
        Ok(n)
    }
}

struct Discard;

impl Write for Discard {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The proxy, transport and telemetry calls one forwarded request makes,
/// at `frame` bytes and `backends` pool slots.
pub fn proxy_layers(tracer: &mut Tracer, frame: usize, backends: usize, out: &mut Outcome) {
    // Large frames are two orders slower per call; keep the replay short.
    let frame_calls = if frame > 64 * 1024 { CALLS / 10 } else { CALLS };
    let payload = vec![0xA5u8; frame];

    let mut encoded = (frame as u32).to_le_bytes().to_vec();
    encoded.extend_from_slice(&payload);
    let mut stream = FrameLoop {
        frame: encoded,
        pos: 0,
    };
    let mut reader = FrameReader::new();
    let decode = time_ns(
        tracer,
        "proxy.frame.decode",
        frame_calls,
        10,
        || match reader.poll_frame(&mut stream) {
            Ok(Poll::Frame(f)) => assert_eq!(black_box(f).len(), frame),
            other => panic!("replayed decode produced {other:?}"),
        },
    );
    out.set("proxy.frame.decode_ns", decode);

    let mut writer = FrameWriter::new();
    let encode = time_ns(tracer, "proxy.frame.encode", frame_calls, 10, || {
        writer.enqueue(black_box(&payload));
        writer
            .write_to(&mut Discard)
            .expect("an in-memory sink cannot fail");
    });
    out.set("proxy.frame.encode_ns", encode);

    let addrs: Vec<SocketAddr> = (0..backends)
        .map(|j| SocketAddr::from(([127, 0, 0, 1], 9000 + j as u16)))
        .collect();
    let pool = BackendPool::new(&addrs);
    let pick = time_ns(tracer, "proxy.pool.pick", CALLS, 100, || {
        black_box(pool.pick(&[]).map(|(j, _)| j));
    });
    out.set("proxy.pool.pick_ns", pick);
    let even = WeightVector::even(backends, 1000);
    let install = time_ns(tracer, "proxy.pool.install", CALLS, 100, || {
        pool.install_weights(black_box(&even));
    });
    out.set("proxy.pool.install_ns", install);

    // One poller with the generator's connection count registered and
    // one socket readable, as a busy event loop sees it.
    let pairs: Vec<(UnixStream, UnixStream)> = (0..crate::proxy::CONNECTIONS)
        .map(|_| UnixStream::pair().expect("socketpair"))
        .collect();
    let mut poller = Poller::new().expect("poller");
    for (tok, (a, _)) in pairs.iter().enumerate() {
        poller
            .register(a.as_raw_fd(), tok, Interest::READABLE)
            .expect("register");
    }
    (&pairs[0].1).write_all(b"x").expect("socketpair write");
    let mut events = Vec::new();
    let wait = time_ns(tracer, "transport.poll.wait", CALLS, 10, || {
        let n = poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("wait");
        assert_eq!(black_box(n), 1);
    });
    out.set("transport.poll.wait_ns", wait);
    let fd = pairs[1].0.as_raw_fd();
    let mut flip = false;
    let rereg = time_ns(tracer, "transport.poll.rereg", CALLS, 10, || {
        flip = !flip;
        let want = if flip {
            Interest::NONE
        } else {
            Interest::READABLE
        };
        poller.reregister(fd, 1, want).expect("reregister");
    });
    out.set("transport.poll.rereg_ns", rereg);

    let blocked = BlockingCounter::new();
    let add = time_ns(tracer, "transport.counter.add", CALLS, 100, || {
        blocked.add_ns(black_box(1_000));
    });
    out.set("transport.counter.add_ns", add);
    let mut sampler = BlockingSampler::new();
    let sample = time_ns(tracer, "transport.sampler.sample", CALLS, 100, || {
        blocked.add_ns(1_000);
        black_box(sampler.sample(&blocked, 100_000_000));
    });
    out.set("transport.sampler.sample_ns", sample);

    let counter = Counter::new();
    let incr = time_ns(tracer, "telemetry.counter.incr", CALLS, 100, || {
        counter.incr()
    });
    out.set("telemetry.counter.incr_ns", incr);
    let histogram = Histogram::new();
    let mut v = 1u64;
    let record = time_ns(tracer, "telemetry.histogram.record", CALLS, 100, || {
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        histogram.record(black_box(v >> 40));
    });
    out.set("telemetry.histogram.record_ns", record);
    // A registry the size of the proxy's: its own families, the
    // controller's round counter and two gauges per backend.
    let registry = MetricsRegistry::new();
    for name in [
        "accepted", "requests", "failed", "bytes", "retries", "eject", "readmit", "rounds",
    ] {
        registry.counter(&format!("proxy.{name}")).incr();
    }
    for j in 0..backends {
        registry.gauge(&format!("proxy.conn{j}.weight")).set(0.5);
        registry
            .gauge(&format!("proxy.conn{j}.blocking_rate"))
            .set(0.1);
    }
    registry
        .histogram("proxy.request_latency_ns")
        .record(50_000);
    let snapshot = time_ns(tracer, "telemetry.registry.snapshot", CALLS, 10, || {
        black_box(registry.snapshot().len());
    });
    out.set("telemetry.registry.snapshot_us", snapshot / 1e3);
}

/// A function table with a knee and a dozen observed points, like one a
/// few hundred rounds of a loaded connection leave behind.
fn observed_function(resolution: u32, rng: &mut SplitMix64) -> BlockingRateFunction {
    let mut f = BlockingRateFunction::new(resolution, 0.5);
    let knee = rng.range_u32(resolution / 20, resolution / 3);
    f.observe(knee, 0.0);
    for _ in 0..12 {
        let w = rng.range_u32(knee, resolution);
        let slope = f64::from(w - knee) / f64::from(resolution);
        f.observe(w, (slope + rng.frange(0.0, 0.05)).min(1.0));
    }
    f
}

/// The control round's building blocks at the proxy's own regime:
/// resolution 1000, 8 functions.
pub fn core_small(tracer: &mut Tracer, out: &mut Outcome) {
    let mut rng = SplitMix64::new(0x5EED);
    let tables: Vec<Vec<f64>> = (0..8)
        .map(|_| observed_function(1000, &mut rng).predicted().to_vec())
        .collect();
    let problem = Problem::new(tables.iter().map(Vec::as_slice).collect(), 1000).expect("problem");
    let mut scratch = fox::FoxScratch::new();
    let solve = time_ns(tracer, "core.solver.fox", CALLS, 1, || {
        black_box(
            fox::solve_with(&problem, &mut scratch)
                .expect("feasible")
                .objective,
        );
    });
    out.set("core.solver.fox_us_n8", solve / 1e3);

    let mut f = observed_function(1000, &mut rng);
    let mut k = 0u32;
    let observe = time_ns(tracer, "core.function.observe_predict", CALLS, 1, || {
        // 32 distinct weights, so the raw-point set stays the size a
        // long-running connection's does.
        k = (k + 1) % 32;
        f.observe(20 + 30 * k, f64::from(k) / 64.0);
        black_box(f.predicted()[500]);
    });
    out.set("core.function.observe_predict_us", observe / 1e3);
    let decay = time_ns(tracer, "core.function.decay_predict", CALLS, 1, || {
        // 0.9999 per call: the values stay normal floats for the whole
        // replay; the cost does not depend on the factor.
        f.decay_above(100, 0.9999);
        black_box(f.predicted()[500]);
    });
    out.set("core.function.decay_predict_us", decay / 1e3);

    let y: Vec<f64> = (0..1001)
        .map(|i| f64::from(i) / 1001.0 + rng.frange(-0.05, 0.05))
        .collect();
    let w = vec![1.0; y.len()];
    let (mut pava, mut fit) = (PavaScratch::new(), Vec::new());
    let fit_ns = time_ns(tracer, "core.pava.fit", CALLS, 1, || {
        pava.fit_into(black_box(&y), &w, &mut fit);
        black_box(fit[500]);
    });
    out.set("core.pava.fit_us_1001", fit_ns / 1e3);
}

/// The three stages of a full recluster, over the function tables
/// `plane` holds right now. Returns their sum in milliseconds — what a
/// membership round spends in `core::cluster`.
pub fn cluster_stages(tracer: &mut Tracer, plane: &mut ControlPlane, out: &mut Outcome) -> f64 {
    const REPEATS: usize = 12;
    let n = plane.balancer().config().connections();
    let resolution = plane.balancer().config().resolution();
    let mut features = vec![[0.0f64; 3]; n];
    let knee = time_ns(tracer, "core.cluster.knee", REPEATS, 1, || {
        for (j, slot) in features.iter_mut().enumerate() {
            let k = knee_of_function(plane.balancer_mut().function_mut(j));
            *slot = log_features(&k, resolution);
        }
    });
    let mut distances = vec![0.0f64; condensed_len(n)];
    let fill = time_ns(tracer, "core.cluster.fill", REPEATS, 1, || {
        fill_condensed(black_box(&features), &mut distances);
    });
    let (mut scratch, mut clusters) = (ClusterScratch::new(), Clustering::default());
    let agglomerate = time_ns(tracer, "core.cluster.agglomerate", REPEATS, 1, || {
        scratch.cluster_condensed(n, &distances, 0.7, &mut clusters);
        black_box(clusters.num_clusters());
    });
    out.set("core.cluster.knee_ms_2048", knee / 1e6);
    out.set("core.cluster.fill_ms_2048", fill / 1e6);
    out.set("core.cluster.agglomerate_ms_2048", agglomerate / 1e6);
    (knee + fill + agglomerate) / 1e6
}
