//! The threaded parallel region over in-process channels: the
//! `ordered` skeleton (see the crate docs) with bounded, instrumented channels
//! as links and spin-multiply workers behind them.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use streambal_control::ScriptedWidth;
use streambal_core::controller::BalancerMode;
use streambal_telemetry::Telemetry;
use streambal_transport::bounded;

pub use streambal_control::RoundSnapshot;

use crate::ordered::{self, Link, Slot, Spec};
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

/// Builder for a threaded parallel region run.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct RegionBuilder {
    workers: usize,
    tuple_cost: u64,
    channel_capacity: usize,
    sample_interval: Duration,
    initial_loads: Vec<f64>,
    load_changes: Vec<LoadChange>,
    width_script: ScriptedWidth,
    scripted_grows: usize,
    balancer_mode: BalancerMode,
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
            channel_capacity: 64,
            sample_interval: Duration::from_millis(100),
            initial_loads: vec![1.0; workers],
            load_changes: Vec::new(),
            width_script: ScriptedWidth::new(),
            scripted_grows: 0,
            balancer_mode: BalancerMode::default(),
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

    /// Sets the per-connection channel capacity in tuples (default 64).
    pub fn channel_capacity(&mut self, tuples: usize) -> &mut Self {
        self.channel_capacity = tuples;
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

    /// Schedules live growth: at `after` into the run, `count` fresh
    /// worker threads (with their own channels) join the region and the
    /// balancer re-solves at the wider width. Scripted via the shared
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

    /// Sets the balancer mode (default adaptive with 10% decay).
    pub fn balancer_mode(&mut self, mode: BalancerMode) -> &mut Self {
        self.balancer_mode = mode;
        self
    }

    /// Disables balancing entirely (naive round-robin), for baselines.
    pub fn round_robin(&mut self) -> &mut Self {
        self.balancing = false;
        self
    }

    /// Attaches a telemetry hub: per-connection blocking metrics are
    /// published under `transport.conn<j>.*`, the controller reports
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
    /// Returns [`RegionError::NoWorkers`] for an empty region,
    /// [`RegionError::Io`] with [`io::ErrorKind::InvalidInput`] if a
    /// [`LoadChange`] names a worker beyond the initial and scripted ones,
    /// or [`RegionError::WorkerPanicked`] if any thread dies.
    pub fn run(&self, total_tuples: u64) -> Result<RegionReport, RegionError> {
        if self.workers == 0 {
            return Err(RegionError::NoWorkers);
        }
        let widest = self.workers + self.scripted_grows;
        if self.load_changes.iter().any(|c| c.worker >= widest) {
            return Err(RegionError::Io(io::ErrorKind::InvalidInput));
        }

        // One shared worker -> merger channel: the merger reorders in
        // memory, so its input does not need per-connection flow control —
        // see the sim crate's merge-capacity discussion.
        let (merge_tx, merge_rx) = mpsc::channel();
        let make_slot = {
            let capacity = self.channel_capacity;
            let cost = self.tuple_cost;
            let initial_loads = self.initial_loads.clone();
            let telemetry = self.telemetry.clone();
            move |j: usize| {
                let (tx, rx) = bounded(capacity);
                if let Some(t) = &telemetry {
                    tx.instrument(t.registry(), &format!("conn{j}"));
                }
                let factor = initial_loads.get(j).copied().unwrap_or(1.0);
                let load = Arc::new(AtomicU32::new((factor * LOAD_SCALE) as u32));
                // The worker spins the tuple cost scaled by its live load.
                let live = Arc::clone(&load);
                let op = move |()| {
                    let factor = f64::from(live.load(Ordering::Relaxed)) / LOAD_SCALE;
                    spin_multiplies((cost as f64 * factor) as u64);
                };
                let inbox = std::iter::from_fn(move || rx.recv().ok());
                let name = format!("streambal-worker-{j}");
                Ok(Slot {
                    link: tx,
                    worker: ordered::spawn_worker(name, inbox, op, merge_tx.clone()),
                    load: Some(load),
                })
            }
        };
        let spec = Spec {
            width: self.workers,
            mode: self.balancer_mode,
            balancing: self.balancing,
            reroute: self.reroute,
            interval: self.sample_interval,
            width_script: self.width_script.clone(),
            telemetry: self.telemetry.clone(),
            metrics_prefix: Some("runtime"),
            load_changes: self.load_changes.clone(),
            ..Spec::default()
        };
        let report = run_to_completion(spec, make_slot, &merge_rx, total_tuples)?;
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

/// What both threaded regions do with their spec and slots: start the
/// skeleton over `total_tuples` unit items, merge strictly in order on the
/// calling thread until all are out, stop the clock, tear the region down.
pub(crate) fn run_to_completion<L: Link<Item = ()>>(
    spec: Spec,
    make_slot: impl FnMut(usize) -> io::Result<Slot<L>> + Send + 'static,
    merge_rx: &mpsc::Receiver<(u64, ())>,
    total_tuples: u64,
) -> Result<RegionReport, RegionError> {
    let region = ordered::spawn(spec, (0..total_tuples).map(|_| ()), make_slot)
        .map_err(|e| RegionError::Io(e.kind()))?;
    let mut delivered = 0u64;
    let clean = total_tuples == 0
        || ordered::merge(merge_rx, |()| {
            delivered += 1;
            delivered < total_tuples
        });
    let duration = region.started.elapsed();
    let done = region.join(None).map_err(|_| RegionError::WorkerPanicked)?;
    Ok(RegionReport {
        delivered,
        in_order: clean && delivered == total_tuples,
        duration,
        snapshots: done.snapshots,
        blocked_ns: done.blocked_ns,
        rerouted: done.rerouted,
    })
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
            .channel_capacity(8)
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
