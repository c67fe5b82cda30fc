//! The threaded parallel region: the `ordered` skeleton (see the crate
//! docs) with spin-multiply workers behind links of either [`Transport`] —
//! bounded, instrumented channels or real loopback TCP sockets.

use std::fmt;
use std::io;
use std::iter;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use streambal_control::ScriptedWidth;
use streambal_telemetry::Telemetry;
use streambal_transport::frame::MAX_FRAME;
use streambal_transport::{bounded, BlockingCounter};

pub use streambal_telemetry::RoundSnapshot;

use crate::ordered::{self, Closed, Link, Slot, Spec};
use crate::tcp_region::TcpLink;
use crate::workload::spin_multiplies;

/// Load multipliers are stored as fixed-point thousandths in an atomic so
/// they can change mid-run.
pub(crate) const LOAD_SCALE: f64 = 1_000.0;

/// Error starting or finishing a region run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// The builder was configured with zero workers.
    NoWorkers,
    /// A worker thread panicked.
    WorkerPanicked,
    /// The region could not be set up: a socket failed to open or connect,
    /// or ([`io::ErrorKind::InvalidInput`]) a scheduled [`LoadChange`]
    /// names a worker the region can never have.
    Io(io::ErrorKind),
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::NoWorkers => write!(f, "region needs at least one worker"),
            RegionError::WorkerPanicked => write!(f, "a region thread panicked"),
            RegionError::Io(kind) => write!(f, "setting the region up failed: {kind}"),
        }
    }
}

impl std::error::Error for RegionError {}

/// The outcome of a threaded region run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Tuples delivered downstream by the merger.
    pub delivered: u64,
    /// Whether every tuple left the region in exact sequence order.
    pub in_order: bool,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// One entry per control round.
    pub snapshots: Vec<RoundSnapshot>,
    /// Final cumulative blocking time per connection, ns.
    pub blocked_ns: Vec<u64>,
    /// Tuples rerouted at the transport level (reroute mode only).
    pub rerouted: u64,
}

impl RegionReport {
    /// Mean throughput in tuples per wall second.
    pub fn throughput(&self) -> f64 {
        self.delivered as f64 / self.duration.as_secs_f64().max(1e-9)
    }

    /// The last installed weights, if the controller ever ran.
    pub fn final_weights(&self) -> Option<&[u32]> {
        self.snapshots.last().map(|s| s.weights.as_slice())
    }
}

/// A scheduled external-load change: at `after` into the run, worker
/// `worker`'s cost multiplier becomes `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadChange {
    /// When the change applies, relative to run start.
    pub after: Duration,
    /// The worker whose load changes.
    pub worker: usize,
    /// The new cost multiplier.
    pub factor: f64,
}

/// The splitter→worker connections a region runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process bounded channels.
    Channel {
        /// Per-connection capacity in tuples.
        capacity: usize,
    },
    /// Real loopback TCP sockets, whose kernel buffers provide the
    /// back-pressure, as in the paper's deployment.
    Tcp {
        /// Bytes after each tuple frame's 8-byte sequence number. Larger
        /// frames make the buffers hold fewer tuples, like real records do.
        frame_padding: usize,
    },
}

/// Builder for a threaded parallel region run.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct RegionBuilder {
    workers: usize,
    tuple_cost: u64,
    transport: Transport,
    sample_interval: Duration,
    initial_loads: Vec<f64>,
    load_changes: Vec<LoadChange>,
    stall: Option<(usize, u64, Duration)>,
    width_script: ScriptedWidth,
    scripted_grows: usize,
    balancing: bool,
    reroute: bool,
    telemetry: Option<Telemetry>,
}

impl RegionBuilder {
    /// Starts a builder for a region with `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        RegionBuilder {
            workers,
            tuple_cost: 1_000,
            transport: Transport::Channel { capacity: 64 },
            sample_interval: Duration::from_millis(100),
            initial_loads: vec![1.0; workers],
            load_changes: Vec::new(),
            stall: None,
            width_script: ScriptedWidth::new(),
            scripted_grows: 0,
            balancing: true,
            reroute: false,
            telemetry: None,
        }
    }

    /// Sets the per-tuple base cost in integer multiplies (default 1,000).
    pub fn tuple_cost(&mut self, multiplies: u64) -> &mut Self {
        self.tuple_cost = multiplies;
        self
    }

    /// Sets the splitter→worker transport (default channels of 64 tuples).
    pub fn transport(&mut self, transport: Transport) -> &mut Self {
        self.transport = transport;
        self
    }

    /// Sets the control-loop sampling interval (default 100 ms; the paper
    /// samples every second on much longer runs).
    pub fn sample_interval_ms(&mut self, ms: u64) -> &mut Self {
        self.sample_interval = Duration::from_millis(ms.max(1));
        self
    }

    /// Gives worker `j` an initial external-load cost multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `factor` is not positive.
    pub fn initial_load(&mut self, j: usize, factor: f64) -> &mut Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be positive"
        );
        self.initial_loads[j] = factor;
        self
    }

    /// Schedules an external-load change during the run. The target may be
    /// a worker that a [`grow_after`](Self::grow_after) step adds; a change
    /// that falls due while its worker is not running is skipped, and
    /// [`run`](Self::run) rejects one whose worker can never exist.
    pub fn load_change(&mut self, change: LoadChange) -> &mut Self {
        self.load_changes.push(change);
        self
    }

    /// Injects a mid-run stall: after `after_tuples` tuples, worker `j`
    /// stops draining its connection for `stall`. The splitter's sends to
    /// it block, which the region must surface as measured blocking (and a
    /// rebalance), never as a hang.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn worker_stall(&mut self, j: usize, after_tuples: u64, stall: Duration) -> &mut Self {
        assert!(j < self.workers, "worker index out of range");
        self.stall = Some((j, after_tuples, stall));
        self
    }

    /// Schedules live growth: at `after` into the run, `count` fresh
    /// worker threads (each with its own connection) join the region and
    /// the balancer re-solves at the wider width. Scripted via the shared
    /// [`ScriptedWidth`] policy.
    pub fn grow_after(&mut self, after: Duration, count: usize) -> &mut Self {
        self.width_script.grow_after(after, count);
        self.scripted_grows += count;
        self
    }

    /// Schedules live shrink: at `after` into the run, the `count`
    /// highest-numbered slots are retired. Their queued tuples drain in
    /// order before the workers exit; the region never drops below one
    /// worker.
    pub fn shrink_after(&mut self, after: Duration, count: usize) -> &mut Self {
        self.width_script.shrink_after(after, count);
        self
    }

    /// Disables balancing entirely (naive round-robin), for baselines.
    pub fn round_robin(&mut self) -> &mut Self {
        self.balancing = false;
        self
    }

    /// Attaches a telemetry hub: channel links publish their blocking
    /// metrics under `transport.conn<j>.*`, the controller reports
    /// per-round gauges under `runtime.*` and its decision trace (including
    /// a [`streambal_telemetry::TraceEvent::Sample`] per control round) goes to the hub's trace
    /// buffer.
    pub fn telemetry(&mut self, telemetry: &Telemetry) -> &mut Self {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// §4.4's transport-level rerouting baseline: round-robin, but when a
    /// send would block, the tuple is diverted to the next connection with
    /// buffer space (blocking on the original only when all are full).
    pub fn reroute(&mut self) -> &mut Self {
        self.balancing = false;
        self.reroute = true;
        self
    }

    /// Runs the region until `total_tuples` have been merged, blocking the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// [`RegionError::NoWorkers`] for an empty region;
    /// [`RegionError::Io`] with [`io::ErrorKind::InvalidInput`] if a
    /// [`LoadChange`] names a worker beyond the initial and scripted ones or
    /// the [`Transport`] cannot carry a tuple (no capacity, a frame over
    /// [`MAX_FRAME`]), or with the socket's error if one fails to open;
    /// [`RegionError::WorkerPanicked`] if any thread dies.
    pub fn run(&self, total_tuples: u64) -> Result<RegionReport, RegionError> {
        if self.workers == 0 {
            return Err(RegionError::NoWorkers);
        }
        let widest = self.workers + self.scripted_grows;
        let unusable = match self.transport {
            Transport::Channel { capacity } => capacity == 0,
            Transport::Tcp { frame_padding } => frame_padding > MAX_FRAME - 8,
        };
        if unusable || self.load_changes.iter().any(|c| c.worker >= widest) {
            return Err(RegionError::Io(io::ErrorKind::InvalidInput));
        }

        // One shared worker -> merger channel: the merger reorders in
        // memory, so its input does not need per-connection flow control —
        // see the sim crate's merge-capacity discussion.
        let (merge_tx, merge_rx) = mpsc::channel();
        let make_slot = {
            let transport = self.transport;
            let cost = self.tuple_cost;
            let initial_loads = self.initial_loads.clone();
            let stall = self.stall;
            let telemetry = self.telemetry.clone();
            move |j: usize| {
                // Open the connection before spawning the worker, so a
                // socket error leaves no thread behind.
                let (link, inbox): (Box<dyn Link<Item = ()>>, Inbox) = match transport {
                    Transport::Channel { capacity } => {
                        let (tx, rx) = bounded(capacity);
                        if let Some(t) = &telemetry {
                            tx.instrument(t.registry(), &format!("conn{j}"));
                        }
                        (
                            Box::new(tx),
                            Box::new(iter::from_fn(move || rx.recv().ok())),
                        )
                    }
                    Transport::Tcp { frame_padding } => {
                        let (link, inbox) = TcpLink::open(frame_padding)?;
                        (Box::new(link), Box::new(inbox))
                    }
                };
                let factor = initial_loads.get(j).copied().unwrap_or(1.0);
                let load = Arc::new(AtomicU32::new((factor * LOAD_SCALE) as u32));
                // The worker spins the tuple cost scaled by its live load,
                // after its scripted stall if this is the tuple to stall at.
                let live = Arc::clone(&load);
                let stall = stall.filter(|&(worker, ..)| worker == j);
                let mut processed = 0u64;
                let op = move |()| {
                    if let Some((_, _, pause)) = stall.filter(|&(_, after, _)| after == processed) {
                        thread::sleep(pause);
                    }
                    processed += 1;
                    let factor = f64::from(live.load(Ordering::Relaxed)) / LOAD_SCALE;
                    spin_multiplies((cost as f64 * factor) as u64);
                };
                let name = format!("streambal-worker-{j}");
                Ok(Slot {
                    link,
                    worker: ordered::spawn_worker(name, inbox, op, merge_tx.clone()),
                    load: Some(load),
                })
            }
        };
        let delivered = Arc::new(AtomicU64::new(0));
        let spec = Spec {
            width: self.workers,
            balancing: self.balancing,
            reroute: self.reroute,
            interval: self.sample_interval,
            width_script: self.width_script.clone(),
            telemetry: self.telemetry.clone(),
            metrics_prefix: Some("runtime"),
            load_changes: self.load_changes.clone(),
            delivered: Some(Arc::clone(&delivered)),
            ..Spec::default()
        };
        let region = ordered::spawn(spec, (0..total_tuples).map(|_| ()), make_slot)
            .map_err(|e| RegionError::Io(e.kind()))?;
        let clean = total_tuples == 0
            || ordered::merge(&merge_rx, |()| {
                delivered.fetch_add(1, Ordering::Relaxed) + 1 < total_tuples
            });
        let duration = region.started.elapsed();
        let done = region.join(None).map_err(|_| RegionError::WorkerPanicked)?;
        let delivered = delivered.load(Ordering::Relaxed);
        let report = RegionReport {
            delivered,
            in_order: clean && delivered == total_tuples,
            duration,
            snapshots: done.snapshots,
            blocked_ns: done.blocked_ns,
            rerouted: done.rerouted,
        };
        if let Some(t) = &self.telemetry {
            t.registry()
                .counter("runtime.delivered")
                .add(report.delivered);
            t.registry()
                .gauge("runtime.duration_s")
                .set(report.duration.as_secs_f64());
        }
        Ok(report)
    }
}

/// A worker's stream of stamped tuples, whichever transport carries them.
type Inbox = Box<dyn Iterator<Item = (u64, ())> + Send>;

/// A link of either transport, behind one type.
impl Link for Box<dyn Link<Item = ()>> {
    type Item = ();

    fn send_recording(&mut self, seq: u64, (): ()) -> Result<(), Closed> {
        (**self).send_recording(seq, ())
    }

    fn try_send(&mut self, seq: u64, (): ()) -> Result<Option<()>, Closed> {
        (**self).try_send(seq, ())
    }

    fn blocking_counter(&self) -> Arc<BlockingCounter> {
        (**self).blocking_counter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_telemetry::TraceEvent;

    #[test]
    fn delivers_everything_in_order() {
        let report = RegionBuilder::new(3)
            .tuple_cost(500)
            .sample_interval_ms(20)
            .run(30_000)
            .unwrap();
        assert_eq!(report.delivered, 30_000);
        assert!(report.in_order);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn zero_workers_rejected() {
        assert_eq!(
            RegionBuilder::new(0).run(10).unwrap_err(),
            RegionError::NoWorkers
        );
    }

    #[test]
    fn round_robin_keeps_even_weights() {
        let report = RegionBuilder::new(2)
            .tuple_cost(200)
            .round_robin()
            .sample_interval_ms(10)
            .run(20_000)
            .unwrap();
        if let Some(w) = report.final_weights() {
            assert_eq!(w, &[500, 500]);
        }
        assert!(report.in_order);
    }

    #[test]
    fn balancer_shifts_weight_off_slow_worker() {
        // Worker 0 is 50x slower; after enough control rounds its weight
        // must fall well below an even share. Thresholds are generous: this
        // runs on real, noisy threads.
        let report = RegionBuilder::new(2)
            .tuple_cost(5_000)
            .initial_load(0, 50.0)
            .sample_interval_ms(25)
            .run(60_000)
            .unwrap();
        assert!(report.in_order);
        let w = report.final_weights().expect("controller ran");
        assert!(
            w[0] < 300,
            "slow worker should be throttled, weights = {w:?}"
        );
    }

    #[test]
    fn reroute_mode_reroutes_and_stays_ordered() {
        let report = RegionBuilder::new(2)
            .tuple_cost(4_000)
            .initial_load(0, 40.0)
            .reroute()
            .transport(Transport::Channel { capacity: 8 })
            .sample_interval_ms(20)
            .run(30_000)
            .unwrap();
        assert!(report.in_order, "rerouting must not break ordering");
        assert_eq!(report.delivered, 30_000);
        assert!(
            report.rerouted > 0,
            "an overloaded worker must cause reroutes"
        );
    }

    #[test]
    fn telemetry_publishes_metrics_and_trace() {
        let telemetry = Telemetry::new();
        let report = RegionBuilder::new(2)
            .tuple_cost(500)
            .sample_interval_ms(10)
            .telemetry(&telemetry)
            .run(20_000)
            .unwrap();
        assert!(report.in_order);
        let reg = telemetry.registry();
        assert_eq!(reg.counter("runtime.delivered").get(), 20_000);
        assert!(reg.counter("runtime.controller.rounds").get() >= 1);
        // Every control round leaves a Sample event plus the balancer's own
        // ControllerRound trace.
        let events = telemetry.trace().events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Sample { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ControllerRound { .. })));
    }

    #[test]
    fn traced_rounds_count_the_tuples_they_released() {
        let telemetry = Telemetry::new();
        let report = RegionBuilder::new(2)
            .tuple_cost(500)
            .sample_interval_ms(5)
            .telemetry(&telemetry)
            .run(20_000)
            .unwrap();
        assert!(report.in_order);
        let delivered: u64 = RoundSnapshot::series_from_events(&telemetry.trace().events())
            .iter()
            .map(|s| s.delivered)
            .sum();
        // Rounds that ran while the merger released tuples saw them; any
        // released after the last round are in no interval.
        assert!(
            (1..=20_000).contains(&delivered),
            "per-round deliveries sum to {delivered}"
        );
    }

    #[test]
    fn load_change_is_applied() {
        let report = RegionBuilder::new(2)
            .tuple_cost(1_000)
            .initial_load(0, 30.0)
            .load_change(LoadChange {
                after: Duration::from_millis(100),
                worker: 0,
                factor: 1.0,
            })
            .sample_interval_ms(20)
            .run(50_000)
            .unwrap();
        assert!(report.in_order);
        assert!(!report.snapshots.is_empty());
    }
}
