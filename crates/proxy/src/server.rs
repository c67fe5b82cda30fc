//! The proxy server: the event-loop shard spawn, the `DataPlane` adapter
//! that hands the round lifecycle to [`ControlPlane::run_threaded`], and
//! graceful drain.
//!
//! Thread layout (all joined on shutdown):
//!
//! ```text
//! io-shard×K ──pick/pipeline──▶ BackendPool ◀── controller
//! (each accepts; shard 0       (health)        (run_threaded: reload, sample,
//!  also probes ejected                           round, install, grow/shrink)
//!  backends)
//! ```
//!
//! Sockets are driven, probes run, and blocked-send time is measured in
//! `poll_core`. A shard's only inputs are its poller and its clock.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use streambal_control::{Autoscaler, AutoscalerConfig, ControlPlane, DataPlane};
use streambal_core::{BalancerConfig, WeightVector};
use streambal_telemetry::{Counter, Gauge, Histogram, Telemetry};
use streambal_transport::BlockingCounter;

use crate::config::{ConfigWatcher, ProxyConfig};
use crate::metrics::serve_metrics;
use crate::pool::BackendPool;

/// How the proxy is launched.
#[derive(Debug)]
pub struct ProxyOptions {
    /// The (initial) configuration.
    pub config: ProxyConfig,
    /// When set, the file is polled once per control round for hot reload.
    pub config_path: Option<PathBuf>,
    /// Telemetry hub; a fresh one is created when absent.
    pub telemetry: Option<Telemetry>,
}

impl ProxyOptions {
    /// Options for a config with no reload file and fresh telemetry.
    #[must_use]
    pub fn new(config: ProxyConfig) -> Self {
        ProxyOptions {
            config,
            config_path: None,
            telemetry: None,
        }
    }
}

/// Cached handles for every proxy metric family (creation-on-use in the
/// registry is lock-taking; the hot path must not pay that per request).
#[derive(Debug, Clone)]
pub(crate) struct ProxyMetrics {
    pub accepted: Counter,
    pub active: Gauge,
    pub requests: Counter,
    pub failed_requests: Counter,
    pub forwarded_bytes: Counter,
    /// Bytes a `FrameWriter` had to keep: refused by a socket, or queued
    /// on a link still connecting.
    pub queued_bytes: Counter,
    pub retries: Counter,
    pub ejections: Counter,
    pub readmissions: Counter,
    pub reload_generation: Gauge,
    pub backends: Gauge,
    pub latency_ns: Histogram,
}

impl ProxyMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        let reg = telemetry.registry();
        ProxyMetrics {
            accepted: reg.counter("proxy.accepted_connections"),
            active: reg.gauge("proxy.active_connections"),
            requests: reg.counter("proxy.requests"),
            failed_requests: reg.counter("proxy.failed_requests"),
            forwarded_bytes: reg.counter("proxy.forwarded_bytes"),
            queued_bytes: reg.counter("proxy.forward.queued_bytes"),
            retries: reg.counter("proxy.retries"),
            ejections: reg.counter("proxy.ejections"),
            readmissions: reg.counter("proxy.readmissions"),
            reload_generation: reg.gauge("proxy.reload.generation"),
            backends: reg.gauge("proxy.backends"),
            latency_ns: reg.histogram("proxy.request_latency_ns"),
        }
    }
}

/// State shared by every proxy thread.
#[derive(Debug)]
pub(crate) struct Shared {
    pub stop: AtomicBool,
    /// Set once by [`ProxyHandle::shutdown`]: shards stop accepting and
    /// leave their loops when no client is left or at this instant.
    pub drain_deadline: OnceLock<Instant>,
    pub active_clients: AtomicUsize,
    pub pool: Arc<BackendPool>,
    pub cfg: ProxyConfig,
    pub metrics: ProxyMetrics,
}

/// The `DataPlane` adapter: [`ControlPlane::run_threaded`] owns the round
/// lifecycle exactly as it does for in-process regions; the proxy only
/// answers its hooks.
struct ProxyPlane {
    shared: Arc<Shared>,
    watcher: Option<ConfigWatcher>,
    reload_generation: u64,
    /// Whether a width policy (autoscaler) owns grow/shrink. When set,
    /// reload-added backends land in `reserve` instead of growing the
    /// region, and closed slots return their address to the reserve.
    autoscaling: bool,
    /// Pool backends currently not live (autoscaling only): the head is
    /// the next to open, so a freshly closed backend reopens first.
    reserve: Vec<SocketAddr>,
}

impl DataPlane for ProxyPlane {
    fn connections(&self) -> usize {
        self.shared.pool.width()
    }

    fn begin_round(&mut self, _elapsed: Duration) {
        if let Some(watcher) = &mut self.watcher {
            if let Some(cfg) = watcher.poll() {
                let diff = self.shared.pool.apply_backends(&cfg.backends);
                if self.autoscaling {
                    // The config defines the pool, the autoscaler decides
                    // how much of it is live: reload-added backends join
                    // the reserve instead of growing the region, and
                    // reserve entries dropped from the config disappear.
                    self.reserve.retain(|a| cfg.backends.contains(a));
                    self.reserve.extend(self.shared.pool.take_pending());
                }
                self.reload_generation += 1;
                self.shared
                    .metrics
                    .reload_generation
                    .set(self.reload_generation as f64);
                if diff.changed() {
                    eprintln!(
                        "streambal-proxy: reload #{}: +{} backends, -{} removed, {} resurrected",
                        self.reload_generation, diff.added, diff.removed, diff.resurrected
                    );
                }
            }
        }
        self.shared
            .metrics
            .backends
            .set(self.shared.pool.width() as f64);
    }

    fn counter(&self, j: usize) -> Arc<BlockingCounter> {
        let backend = self.shared.pool.backend(j).expect("slot j is open");
        Arc::clone(backend.counter())
    }

    fn install_weights(&mut self, weights: &WeightVector) {
        self.shared.pool.install_weights(weights);
    }

    fn target_connections(&self) -> usize {
        self.shared.pool.target()
    }

    fn open_slot(&mut self) -> bool {
        if self.shared.pool.has_pending() {
            self.shared.pool.open_pending();
        } else if self.reserve.is_empty() {
            // Autoscaler grow beyond the configured pool: refuse, and the
            // control plane caps the grow at what actually opened.
            return false;
        } else {
            self.shared.pool.push_pending(self.reserve.remove(0));
            self.shared.pool.open_pending();
        }
        true
    }

    fn close_slot(&mut self) -> bool {
        let width = self.shared.pool.width();
        if width <= 1 {
            return false;
        }
        if self.autoscaling {
            if let Some(b) = self.shared.pool.backend(width - 1) {
                // A slot closed by the width policy stays in the pool's
                // reserve; one removed from the config does not.
                if !b.is_removed() {
                    self.reserve.insert(0, b.addr);
                }
            }
        }
        self.shared.pool.close_tail(width - 1);
        true
    }

    fn slot_healthy(&self, j: usize) -> bool {
        self.shared.pool.slot_healthy(j)
    }
}

/// What [`ProxyHandle::shutdown`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every in-flight client finished within the drain budget.
    pub drained: bool,
    /// Clients still active when the budget expired (0 when drained).
    pub abandoned: usize,
}

/// A running proxy. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) stops the threads abruptly (no drain).
#[derive(Debug)]
pub struct ProxyHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    telemetry: Telemetry,
    pool: Arc<BackendPool>,
    shared: Arc<Shared>,
    shards: Vec<JoinHandle<()>>,
    /// The controller and, when configured, the metrics endpoint.
    threads: Vec<JoinHandle<()>>,
}

impl ProxyHandle {
    /// The bound client-facing address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` address, when enabled.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The telemetry hub backing `/metrics` and the controller trace.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The backend pool (tests inspect health state and weights here).
    #[must_use]
    pub fn pool(&self) -> &Arc<BackendPool> {
        &self.pool
    }

    /// Graceful shutdown: stop accepting, let in-flight clients finish
    /// (up to `drain_timeout`), then stop every thread and join them.
    pub fn shutdown(mut self) -> DrainReport {
        let deadline = Instant::now() + self.shared.cfg.drain_timeout;
        let _ = self.shared.drain_deadline.set(deadline);
        // Each shard leaves its loop once drained or out of time; the
        // clients still counted then were abandoned.
        for t in self.shards.drain(..) {
            let _ = t.join();
        }
        let abandoned = self.shared.active_clients.load(Ordering::Acquire);
        // Dropping `self` stops and joins the controller and metrics threads.
        DrainReport {
            drained: abandoned == 0,
            abandoned,
        }
    }
}

impl Drop for ProxyHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for t in self.shards.drain(..).chain(self.threads.drain(..)) {
            let _ = t.join();
        }
    }
}

/// A proxy and its worker threads.
pub struct Proxy;

impl Proxy {
    /// Binds the listener(s) and spawns the controller, I/O shard and
    /// (optionally) metrics threads.
    ///
    /// # Errors
    ///
    /// Fails when a listener cannot bind or the initial config is empty.
    ///
    /// # Panics
    ///
    /// Panics if the balancer rejects the initial width (unreachable for
    /// a non-empty backend list, which [`ProxyConfig`] guarantees).
    pub fn spawn(options: ProxyOptions) -> io::Result<ProxyHandle> {
        let cfg = options.config;
        let telemetry = options.telemetry.unwrap_or_default();
        // With autoscaling, the config's backend list is the pool and the
        // proxy starts at the configured floor; the autoscaler grows into
        // the reserve under load and hands slots back when idle.
        let (live, reserve): (Vec<SocketAddr>, Vec<SocketAddr>) = match cfg.autoscale {
            Some(a) => {
                let floor = a.min_width.clamp(1, cfg.backends.len());
                (
                    cfg.backends[..floor].to_vec(),
                    cfg.backends[floor..].to_vec(),
                )
            }
            None => (cfg.backends.clone(), Vec::new()),
        };
        let pool = Arc::new(BackendPool::new(&live));
        let metrics = ProxyMetrics::new(&telemetry);
        metrics.backends.set(live.len() as f64);

        let listener = TcpListener::bind(cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match cfg.metrics {
            Some(m) => {
                let l = TcpListener::bind(m)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = metrics_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;

        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            drain_deadline: OnceLock::new(),
            active_clients: AtomicUsize::new(0),
            pool: Arc::clone(&pool),
            cfg: cfg.clone(),
            metrics,
        });

        let watcher = options.config_path.map(|path| {
            let initial = std::fs::read_to_string(&path).unwrap_or_default();
            ConfigWatcher::new(path, initial)
        });

        let mut threads = Vec::new();

        // Controller: run_threaded owns the round lifecycle unchanged.
        let controller_shared = Arc::clone(&shared);
        let controller_telemetry = telemetry.clone();
        threads.push(
            thread::Builder::new()
                .name("proxy-controller".into())
                .spawn(move || {
                    let width = controller_shared.pool.width();
                    let bcfg = BalancerConfig::builder(width)
                        .build()
                        .expect("a non-empty backend list yields a valid width");
                    let mut builder = ControlPlane::builder(bcfg)
                        .telemetry(&controller_telemetry)
                        .metrics("proxy");
                    if let Some(auto) = controller_shared.cfg.autoscale {
                        // The pool size is the hard ceiling, whatever the
                        // file said; the reserve can't grow past it anyway.
                        let auto = AutoscalerConfig {
                            max_width: controller_shared.cfg.backends.len(),
                            ..auto
                        };
                        builder = builder.width_policy(Autoscaler::new(auto));
                    }
                    let mut cp = builder.build();
                    let mut plane = ProxyPlane {
                        shared: Arc::clone(&controller_shared),
                        watcher,
                        reload_generation: 0,
                        autoscaling: controller_shared.cfg.autoscale.is_some(),
                        reserve,
                    };
                    cp.run_threaded(
                        &mut plane,
                        controller_shared.cfg.sample_interval,
                        &controller_shared.stop,
                        &Instant::now(),
                    );
                })?,
        );

        // Metrics endpoint.
        if let Some(l) = metrics_listener {
            let metrics_shared = Arc::clone(&shared);
            let metrics_telemetry = telemetry.clone();
            threads.push(
                thread::Builder::new()
                    .name("proxy-metrics".into())
                    .spawn(move || serve_metrics(&l, &metrics_telemetry, &metrics_shared.stop))?,
            );
        }

        // Data plane: every shard accepts on its own clone of the listener.
        let mut shards = Vec::new();
        for id in 0..cfg.io_threads.max(1) {
            let shard_shared = Arc::clone(&shared);
            let shard_listener = listener.try_clone()?;
            shards.push(
                thread::Builder::new()
                    .name(format!("proxy-io-{id}"))
                    .spawn(move || {
                        crate::poll_core::run_shard(id, shard_listener, shard_shared);
                    })?,
            );
        }

        Ok(ProxyHandle {
            addr,
            metrics_addr,
            telemetry,
            pool,
            shared,
            shards,
            threads,
        })
    }
}
