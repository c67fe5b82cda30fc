//! The shared control plane for ordered data-parallel regions.
//!
//! The paper's controller is one algorithm — sample per-connection blocking
//! rates, fold them into the predictive functions, solve the minimax
//! resource-allocation problem, install the weights — but a system has many
//! places that need to run it: a discrete-event simulator, a threaded
//! runtime, a TCP runtime, a dataflow pipeline. [`ControlPlane`] owns that
//! round lifecycle exactly once:
//!
//! 1. ingest one interval's blocking rates,
//! 2. [`LoadBalancer::observe`] + [`LoadBalancer::rebalance`],
//! 3. install the weights into the routing fabric (via [`DataPlane`]),
//! 4. emit metrics and trace events to [`streambal_telemetry`], and
//! 5. build one [`RoundSnapshot`] per round, traced and optionally kept
//!    for post-run reports.
//!
//! Data planes that drive their own cadence (the simulators, where time is
//! virtual) call [`ControlPlane::round`] directly; wall-clock planes hand a
//! [`DataPlane`] implementation to [`ControlPlane::run_threaded`], which
//! paces rounds on a [`Clock`] and turns the plane's counters into rates.
//!
//! Dynamic membership ([`ControlPlane::attach_connection`] /
//! [`ControlPlane::detach_connection`]) passes through to the balancer: a
//! detached slot is pinned at weight 0 (a weighted-round-robin scheduler
//! never picks it) and its units are renormalized over the survivors in the
//! same call, so the installed allocation never leaves the `Σw = R`
//! simplex. The steady-state round performs no heap allocation when
//! snapshot retention is off (membership changes may allocate).
//!
//! ```
//! use streambal_control::ControlPlane;
//! use streambal_core::controller::BalancerConfig;
//!
//! let cfg = BalancerConfig::builder(2).build().unwrap();
//! let mut plane = ControlPlane::builder(cfg).build();
//! let weights = plane.round(0, &[0.9, 0.0]); // connection 0 overloaded
//! assert!(weights.units()[0] < weights.units()[1]);
//! ```

#![forbid(unsafe_code)]

pub mod width;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use streambal_core::controller::{BalancerConfig, ClusterOutcome, LoadBalancer};
use streambal_core::rate::ConnectionSample;
use streambal_core::weights::WeightVector;
use streambal_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, Telemetry, TraceEvent};
use streambal_transport::{BlockingCounter, BlockingSampler};

pub use streambal_telemetry::RoundSnapshot;
pub use width::{
    Autoscaler, AutoscalerConfig, ReactiveWidth, ScriptedWidth, WidthDecision, WidthPolicy,
    WidthView,
};

/// Where [`ControlPlane::run_threaded`] reads the time and waits.
pub trait Clock {
    /// The time since the clock's origin.
    fn now(&self) -> Duration;

    /// Returns once [`now`](Self::now) has reached `deadline`.
    fn sleep_until(&self, deadline: Duration);
}

/// The wall clock, read as the time since this instant.
impl Clock for Instant {
    fn now(&self) -> Duration {
        self.elapsed()
    }

    fn sleep_until(&self, deadline: Duration) {
        thread::sleep(deadline.saturating_sub(self.elapsed()));
    }
}

/// The two metric families every control loop publishes per round:
/// `<prefix>.controller.rounds` and `<prefix>.conn<j>.{blocking_rate,weight}`.
#[derive(Debug, Clone)]
pub struct RoundGauges {
    prefix: String,
    rounds: Counter,
    /// `(blocking_rate, weight)` per connection slot.
    per_conn: Vec<(Gauge, Gauge)>,
}

impl RoundGauges {
    /// Binds the families under `prefix`, with gauges for `width` slots.
    pub fn new(registry: &MetricsRegistry, prefix: &str, width: usize) -> Self {
        let mut gauges = RoundGauges {
            prefix: prefix.to_owned(),
            rounds: registry.counter(&format!("{prefix}.controller.rounds")),
            per_conn: Vec::new(),
        };
        gauges.extend_to(registry, width);
        gauges
    }

    /// Binds the per-connection gauges of any slot below `width` not yet
    /// bound; a narrower width keeps the gauges it has.
    pub fn extend_to(&mut self, registry: &MetricsRegistry, width: usize) {
        let prefix = &self.prefix;
        for j in self.per_conn.len()..width {
            self.per_conn.push((
                registry.gauge(&format!("{prefix}.conn{j}.blocking_rate")),
                registry.gauge(&format!("{prefix}.conn{j}.weight")),
            ));
        }
    }

    /// Counts one round and sets each connection's rate and weight gauges.
    pub fn publish(&self, rates: &[f64], weights: &[u32]) {
        self.rounds.incr();
        for ((rate_g, weight_g), (&rate, &units)) in
            self.per_conn.iter().zip(rates.iter().zip(weights))
        {
            rate_g.set(rate);
            weight_g.set(f64::from(units));
        }
    }
}

/// What the control plane needs from a routing fabric: blocked-time
/// counters, a place to install weights, and stable connection identities.
///
/// Implementations wrap whatever the plane actually is — per-connection
/// blocking counters and a weights mutex for the threaded runtimes, for
/// example. Used with [`ControlPlane::run_threaded`]; planes with virtual
/// time (the simulators) skip this trait and call [`ControlPlane::round`]
/// directly.
pub trait DataPlane {
    /// Number of connections (the region's current width; membership
    /// changes detach/attach slots within it, and
    /// [`open_slot`](Self::open_slot) / [`close_slot`](Self::close_slot)
    /// change the width itself).
    fn connections(&self) -> usize;

    /// Called at the top of each round, before sampling (apply scheduled
    /// load changes, etc.). Defaults to a no-op.
    fn begin_round(&mut self, elapsed: Duration) {
        let _ = elapsed;
    }

    /// Slot `j`'s cumulative blocked-send counter, read once, when the slot
    /// is first sampled: slots open and close at the tail only.
    fn counter(&self, j: usize) -> Arc<BlockingCounter>;

    /// Installs freshly computed weights into the routing fabric. The
    /// vector's length is the balancer's current width; a growable fabric
    /// must accept a length different from the one last installed (e.g. by
    /// resizing its WRR scheduler in place).
    fn install_weights(&mut self, weights: &WeightVector);

    /// Tuples delivered downstream so far; each round's [`RoundSnapshot`]
    /// carries the growth since the previous round. Defaults to 0.
    fn delivered(&self) -> u64 {
        0
    }

    /// The width this plane *wants* to have, polled once per round by
    /// [`ControlPlane::run_threaded`]. When it exceeds
    /// [`connections`](Self::connections) the loop opens the missing slots
    /// and grows the balancer; when smaller, it closes tail slots and
    /// shrinks. Defaults to the current width (fixed-size plane).
    fn target_connections(&self) -> usize {
        self.connections()
    }

    /// Opens one new connection slot at index
    /// [`connections`](Self::connections) — spawn the channel, worker, and
    /// whatever else the fabric needs — and returns `true` once the plane's
    /// width includes it. The default returns `false`: the plane is
    /// fixed-width and [`ControlPlane::grow`] fails cleanly.
    fn open_slot(&mut self) -> bool {
        false
    }

    /// Closes the highest-indexed connection slot (tear down its channel
    /// and worker; the slot's weight is already zero when this is called)
    /// and returns `true` once the plane's width excludes it. The default
    /// returns `false`: the plane is fixed-width.
    fn close_slot(&mut self) -> bool {
        false
    }

    /// Whether slot `j` should currently be an attached member of the
    /// region, polled once per round by [`ControlPlane::run_threaded`]: a
    /// flip to `false` detaches the slot (its weight is pinned to 0 and
    /// renormalized away — an ejected backend leaves the simplex), a flip
    /// back to `true` re-attaches it exploration-bounded. The loop never
    /// detaches the last live connection, so a plane reporting every slot
    /// unhealthy keeps exactly one attached. Defaults to always healthy
    /// (fixed-membership plane).
    fn slot_healthy(&self, j: usize) -> bool {
        let _ = j;
        true
    }
}

/// Builder for a [`ControlPlane`].
#[derive(Debug, Clone)]
pub struct ControlPlaneBuilder {
    cfg: BalancerConfig,
    balancing: bool,
    keep_snapshots: bool,
    telemetry: Option<Telemetry>,
    metrics_prefix: Option<String>,
    width_policy: Option<WidthPolicy>,
}

impl ControlPlaneBuilder {
    /// Disables balancing: the plane keeps the initial even split and never
    /// observes or rebalances (round-robin baselines).
    pub fn round_robin(mut self) -> Self {
        self.balancing = false;
        self
    }

    /// Retains the [`RoundSnapshot`] that
    /// [`run_threaded`](ControlPlane::run_threaded) builds each round (for
    /// post-run reports). Off by default — and note a retained round
    /// allocates its snapshot, so zero-allocation steady state requires
    /// this off.
    pub fn keep_snapshots(mut self, keep: bool) -> Self {
        self.keep_snapshots = keep;
        self
    }

    /// Attaches a telemetry hub: the balancer's decision trace goes to the
    /// hub's trace buffer, and [`run_threaded`](ControlPlane::run_threaded)
    /// pushes each round's [`RoundSnapshot`] as a [`TraceEvent::Sample`].
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// Additionally publishes per-round metrics under
    /// `<prefix>.controller.rounds`,
    /// `<prefix>.conn<id>.{blocking_rate,weight}`,
    /// `<prefix>.recluster.{reused,full}`, `<prefix>.cluster.distinct`,
    /// `<prefix>.width`,
    /// `<prefix>.autoscale.{grow,shrink,hold,cooldown_suppressed}` and
    /// `<prefix>.round.lag_ns` (requires [`telemetry`](Self::telemetry)).
    pub fn metrics(mut self, prefix: &str) -> Self {
        self.metrics_prefix = Some(prefix.to_owned());
        self
    }

    /// Installs a [`WidthPolicy`]: once per round (after the weight solve)
    /// the plane asks it for a [`WidthDecision`], and
    /// [`run_threaded`](ControlPlane::run_threaded) applies it through the
    /// elastic grow/shrink ordering rules. Planes with virtual time poll
    /// [`ControlPlane::decide_width`] themselves.
    pub fn width_policy(mut self, policy: impl Into<WidthPolicy>) -> Self {
        self.width_policy = Some(policy.into());
        self
    }

    /// Builds the plane, starting from an even weight split.
    pub fn build(self) -> ControlPlane {
        let mut lb = LoadBalancer::new(self.cfg);
        if let Some(t) = &self.telemetry {
            lb.attach_trace(t.trace().clone());
        }
        ControlPlane {
            lb,
            balancing: self.balancing,
            keep_snapshots: self.keep_snapshots,
            snapshots: Vec::new(),
            telemetry: self.telemetry,
            metrics_prefix: self.metrics_prefix,
            metrics: None,
            width_policy: self.width_policy,
        }
    }
}

/// Metric handles, bound together at the current width: the per-round
/// families, the `width` gauge and the
/// `autoscale.{grow,shrink,hold,cooldown_suppressed}` decision counters.
#[derive(Debug, Clone)]
struct RoundMetrics {
    round: RoundGauges,
    /// Clustered rounds that kept the previous partition.
    recluster_reused: Counter,
    /// Clustered rounds that clustered the live connections again.
    recluster_full: Counter,
    /// Distinct knee feature vectors at the last full recluster: the size
    /// of the agglomeration it ran, against `live` connections clustered.
    cluster_distinct: Gauge,
    width: Gauge,
    grow: Counter,
    shrink: Counter,
    hold: Counter,
    cooldown_suppressed: Counter,
    lag_ns: Histogram,
}

/// The control plane: owns the [`LoadBalancer`] and the full round
/// lifecycle for one parallel region. See the [crate docs](crate).
#[derive(Debug, Clone)]
pub struct ControlPlane {
    lb: LoadBalancer,
    balancing: bool,
    keep_snapshots: bool,
    snapshots: Vec<RoundSnapshot>,
    telemetry: Option<Telemetry>,
    metrics_prefix: Option<String>,
    metrics: Option<RoundMetrics>,
    width_policy: Option<WidthPolicy>,
}

impl ControlPlane {
    /// Starts a builder for a plane over `cfg.connections()` connections.
    pub fn builder(cfg: BalancerConfig) -> ControlPlaneBuilder {
        ControlPlaneBuilder {
            cfg,
            balancing: true,
            keep_snapshots: false,
            telemetry: None,
            metrics_prefix: None,
            width_policy: None,
        }
    }

    /// The owned balancer (weights, functions, membership).
    pub fn balancer(&self) -> &LoadBalancer {
        &self.lb
    }

    /// Mutable access to the owned balancer (oracles, scenario seeding).
    pub fn balancer_mut(&mut self) -> &mut LoadBalancer {
        &mut self.lb
    }

    /// The current allocation weights.
    pub fn weights(&self) -> &WeightVector {
        self.lb.weights()
    }

    /// Attaches a telemetry hub after construction (the simulator hands the
    /// hub to its policies once the run starts). Equivalent to
    /// [`ControlPlaneBuilder::telemetry`].
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.lb.attach_trace(telemetry.trace().clone());
        self.telemetry = Some(telemetry.clone());
        self.metrics = None;
    }

    /// Installs (or replaces) the plane's [`WidthPolicy`] after
    /// construction. Equivalent to [`ControlPlaneBuilder::width_policy`].
    pub fn set_width_policy(&mut self, policy: impl Into<WidthPolicy>) {
        self.width_policy = Some(policy.into());
    }

    /// Snapshots retained so far by [`run_threaded`](Self::run_threaded)
    /// (empty unless [`keep_snapshots`](ControlPlaneBuilder::keep_snapshots)
    /// is on).
    pub fn snapshots(&self) -> &[RoundSnapshot] {
        &self.snapshots
    }

    /// Consumes the plane, returning its retained snapshots.
    pub fn into_snapshots(self) -> Vec<RoundSnapshot> {
        self.snapshots
    }

    /// Detaches connection slot `j` (see
    /// [`LoadBalancer::detach_connection`]). Returns `false` if already
    /// detached.
    pub fn detach_connection(&mut self, j: usize) -> bool {
        self.lb.detach_connection(j)
    }

    /// Re-attaches connection slot `j` (see
    /// [`LoadBalancer::attach_connection`]). Returns `false` if already
    /// attached.
    pub fn attach_connection(&mut self, j: usize) -> bool {
        self.lb.attach_connection(j)
    }

    /// Grows the balancer by `added` slots (see [`LoadBalancer::grow`])
    /// without touching any routing fabric — for planes with virtual time
    /// that manage their own width and call [`round`](Self::round)
    /// directly. Per-connection metric handles are rebound at the new
    /// width on the next round. Returns the range of new slot indices.
    pub fn grow_width(&mut self, added: usize) -> std::ops::Range<usize> {
        let range = self.lb.grow(added);
        self.metrics = None;
        range
    }

    /// Shrinks the balancer by `removed` tail slots (see
    /// [`LoadBalancer::shrink`]) without touching any routing fabric.
    /// Returns the new width.
    pub fn shrink_width(&mut self, removed: usize) -> usize {
        let n = self.lb.shrink(removed);
        self.metrics = None;
        n
    }

    /// Grows the region by `added` slots end-to-end: opens each slot in the
    /// routing fabric ([`DataPlane::open_slot`]), extends the balancer
    /// ([`LoadBalancer::grow`] — new slots enter exploration-bounded), and
    /// installs the extended weights. Returns how many slots were actually
    /// opened (a fixed-width plane refuses and 0 is returned; a partial
    /// refusal grows by the accepted prefix only).
    pub fn grow<P: DataPlane + ?Sized>(&mut self, plane: &mut P, added: usize) -> usize {
        let mut opened = 0;
        for _ in 0..added {
            if !plane.open_slot() {
                break;
            }
            opened += 1;
        }
        if opened > 0 {
            self.grow_width(opened);
            self.bind_metrics();
            plane.install_weights(self.lb.weights());
        }
        opened
    }

    /// Shrinks the region by `removed` tail slots end-to-end: shrinks the
    /// balancer first (renormalizing any weight the tail held back over
    /// the survivors), installs the truncated weights so the splitter
    /// stops routing to the tail, then closes each fabric slot
    /// ([`DataPlane::close_slot`]). Returns how many slots were closed.
    ///
    /// # Panics
    ///
    /// Panics if `removed` is not below the current width, or if the tail
    /// holds the only live connection (see [`LoadBalancer::shrink`]).
    pub fn shrink<P: DataPlane + ?Sized>(&mut self, plane: &mut P, removed: usize) -> usize {
        if removed == 0 {
            return 0;
        }
        self.shrink_width(removed);
        plane.install_weights(self.lb.weights());
        let mut closed = 0;
        for _ in 0..removed {
            if !plane.close_slot() {
                break;
            }
            closed += 1;
        }
        self.bind_metrics();
        closed
    }

    /// Runs one control round on the given per-connection blocking rates
    /// (`rates.len()` must equal the connection count) and returns the
    /// weights to install. Detached slots' rates are ignored; with
    /// balancing off the initial split is returned unchanged. The round
    /// publishes its metrics but builds no [`RoundSnapshot`]: the caller
    /// owns the record (see [`run_threaded`](Self::run_threaded)).
    /// `_elapsed_ms` is not read; it stays for existing callers.
    ///
    /// Steady-state rounds (no membership change) perform no heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len()` differs from the connection count.
    pub fn round(&mut self, _elapsed_ms: u64, rates: &[f64]) -> &WeightVector {
        let n = self.lb.config().connections();
        assert_eq!(rates.len(), n, "one rate per connection slot");
        if self.balancing {
            // Each attached slot's sample goes straight into the model; a
            // detached slot's rate is neither read nor validated.
            for (j, &rate) in rates.iter().enumerate() {
                if self.lb.is_attached(j) {
                    self.lb.observe(&[ConnectionSample::new(j, rate)]);
                }
            }
            self.lb.rebalance();
        }
        self.emit(rates);
        self.lb.weights()
    }

    /// Consults the installed [`WidthPolicy`] with this round's view (the
    /// solved minimax blocking, the observed rates, the current width and
    /// liveness) and returns its decision — [`WidthDecision::Hold`] when no
    /// policy is installed. Increments the
    /// `autoscale.{grow,shrink,hold,cooldown_suppressed}` counters, and
    /// gives every grow or shrink its reason: a `width.decision` trace
    /// event carrying the view's `width`, `live`, `solved_blocking`,
    /// `observed_blocking` and `pressure`, and the signed `step` (positive
    /// grows, negative shrinks). The caller applies the decision through
    /// the grow/shrink ordering rules ([`run_threaded`](Self::run_threaded)
    /// does this itself; virtual-time planes apply it to their own fabric).
    ///
    /// Call after [`round`](Self::round) so the solve is fresh; a hold
    /// performs no heap allocation.
    pub fn decide_width(&mut self, elapsed_ms: u64, rates: &[f64]) -> WidthDecision {
        let Some(mut policy) = self.width_policy.take() else {
            return WidthDecision::Hold;
        };
        let mut observed = 0.0f64;
        for (j, &rate) in rates.iter().enumerate() {
            if self.lb.is_attached(j) {
                observed = observed.max(rate);
            }
        }
        let view = WidthView {
            elapsed_ms,
            width: self.lb.config().connections(),
            live: self.lb.live_connections(),
            solved_blocking: self.lb.solved_blocking(),
            observed_blocking: observed,
            rates,
            weights: self.lb.weights().units(),
        };
        let decision = policy.decide(&view);
        let step = match decision {
            WidthDecision::Grow(n) => Some(n as f64),
            WidthDecision::Shrink(n) => Some(-(n as f64)),
            WidthDecision::Hold => None,
        };
        if let (Some(step), Some(t)) = (step, &self.telemetry) {
            t.trace().push(TraceEvent::Custom {
                name: "width.decision".to_owned(),
                fields: vec![
                    ("width".to_owned(), view.width as f64),
                    ("live".to_owned(), view.live as f64),
                    ("solved_blocking".to_owned(), view.solved_blocking),
                    ("observed_blocking".to_owned(), view.observed_blocking),
                    ("pressure".to_owned(), view.pressure()),
                    ("step".to_owned(), step),
                ],
            });
        }
        if let Some(sm) = &self.metrics {
            match decision {
                WidthDecision::Grow(_) => sm.grow.incr(),
                WidthDecision::Shrink(_) => sm.shrink.incr(),
                WidthDecision::Hold => {
                    sm.hold.incr();
                    if policy.suppressed_by_cooldown() {
                        sm.cooldown_suppressed.incr();
                    }
                }
            }
        }
        self.width_policy = Some(policy);
        decision
    }

    /// Emits metrics for one completed round.
    fn emit(&mut self, rates: &[f64]) {
        self.bind_metrics();
        if let Some(m) = &self.metrics {
            m.round.publish(rates, self.lb.weights().units());
            match self.lb.last_cluster_outcome() {
                Some(ClusterOutcome::Reused) => m.recluster_reused.incr(),
                Some(ClusterOutcome::Full { distinct, .. }) => {
                    m.recluster_full.incr();
                    m.cluster_distinct.set(distinct as f64);
                }
                None => {}
            }
            m.width.set(self.lb.config().connections() as f64);
        }
    }

    /// Resolves the metric handles at the current width (no-op when already
    /// bound, or without a telemetry hub and a metrics prefix).
    fn bind_metrics(&mut self) {
        if self.metrics.is_some() {
            return;
        }
        let (Some(t), Some(prefix)) = (&self.telemetry, &self.metrics_prefix) else {
            return;
        };
        let reg = t.registry();
        self.metrics = Some(RoundMetrics {
            round: RoundGauges::new(reg, prefix, self.lb.config().connections()),
            recluster_reused: reg.counter(&format!("{prefix}.recluster.reused")),
            recluster_full: reg.counter(&format!("{prefix}.recluster.full")),
            cluster_distinct: reg.gauge(&format!("{prefix}.cluster.distinct")),
            width: reg.gauge(&format!("{prefix}.width")),
            grow: reg.counter(&format!("{prefix}.autoscale.grow")),
            shrink: reg.counter(&format!("{prefix}.autoscale.shrink")),
            hold: reg.counter(&format!("{prefix}.autoscale.hold")),
            cooldown_suppressed: reg.counter(&format!("{prefix}.autoscale.cooldown_suppressed")),
            lag_ns: reg.histogram(&format!("{prefix}.round.lag_ns")),
        });
    }

    /// Owns a wall-clock control loop until `stop` is set: each round, apply
    /// the plane's prelude ([`DataPlane::begin_round`]), sample, run
    /// [`round`](Self::round), install the weights, and build the round's
    /// [`RoundSnapshot`]: stamped with `clock`'s reading, its `delivered`
    /// the growth of [`DataPlane::delivered`] since the previous round. The
    /// snapshot goes to the trace as a [`TraceEvent::Sample`] when a
    /// telemetry hub is attached, and is kept when
    /// [`keep_snapshots`](ControlPlaneBuilder::keep_snapshots) is on.
    ///
    /// Round *k* is due at `t0 + k·interval` (`t0`: `clock`'s reading at the
    /// start; `interval` must be positive). Due times a round overran are
    /// skipped, never replayed, and the grid never drifts; the
    /// `<prefix>.round.lag_ns` histogram records each wake's distance from
    /// the earliest due time not yet served. A rate is the first difference
    /// of a slot's [`DataPlane::counter`] over the time `clock` measured
    /// since the previous sample.
    ///
    /// Each round first reconciles the width with
    /// [`DataPlane::target_connections`] ([`grow`](Self::grow) /
    /// [`shrink`](Self::shrink)) and membership with
    /// [`DataPlane::slot_healthy`] (never detaching the last live slot);
    /// after the solve it applies the [`WidthPolicy`]'s decision through the
    /// same ordering rules. Width and membership changes allocate; the
    /// steady state in between does not.
    pub fn run_threaded<P: DataPlane + ?Sized, C: Clock + ?Sized>(
        &mut self,
        plane: &mut P,
        interval: Duration,
        stop: &AtomicBool,
        clock: &C,
    ) {
        assert!(!interval.is_zero(), "the round interval must be positive");
        let n = self.lb.config().connections();
        assert_eq!(plane.connections(), n, "plane and balancer widths differ");
        self.bind_metrics();
        let mut rates = vec![0.0; n];
        let mut samplers = Vec::with_capacity(n);
        let mut sampled = clock.now();
        let mut delivered = 0;
        // The earliest due time not yet served.
        let mut due = sampled + interval;
        while !stop.load(Ordering::Acquire) {
            let fire = next_due(due, clock.now(), interval);
            clock.sleep_until(fire);
            let wake = clock.now();
            if let Some(m) = &self.metrics {
                m.lag_ns.record(nanos(wake.saturating_sub(due)));
            }
            due = fire + interval;
            self.reconcile_width(plane);
            self.reconcile_membership(plane);
            plane.begin_round(wake);
            let now = clock.now();
            self.sample(&*plane, &mut samplers, now - sampled, &mut rates);
            sampled = now;
            let t_ns = nanos(now);
            self.round(t_ns / 1_000_000, &rates);
            self.install(plane);
            let total = plane.delivered();
            self.record(t_ns, &rates, total.saturating_sub(delivered));
            delivered = total;
            self.apply_width_decision(plane, t_ns / 1_000_000, &rates);
            // A slot closed here may reopen on a fresh counter by the next sample.
            samplers.truncate(self.lb.config().connections());
        }
    }

    /// Builds the round's [`RoundSnapshot`] when someone takes it: the
    /// trace, the retained snapshots, or both.
    fn record(&mut self, t_ns: u64, rates: &[f64], delivered: u64) {
        if self.telemetry.is_none() && !self.keep_snapshots {
            return;
        }
        let snapshot = RoundSnapshot {
            region: 0,
            t_ns,
            weights: self.lb.weights().units().to_vec(),
            rates: rates.to_vec(),
            delivered,
            clusters: self.lb.last_clusters().map(|c| c.assignment.clone()),
        };
        match &self.telemetry {
            Some(t) if self.keep_snapshots => {
                t.trace().push(TraceEvent::Sample(snapshot.clone()));
                self.snapshots.push(snapshot);
            }
            Some(t) => t.trace().push(TraceEvent::Sample(snapshot)),
            None => self.snapshots.push(snapshot),
        }
    }

    /// Opens or closes tail slots until the width is the plane's target.
    fn reconcile_width<P: DataPlane + ?Sized>(&mut self, plane: &mut P) {
        let target = plane.target_connections().max(1);
        let current = self.lb.config().connections();
        if target > current {
            self.grow(plane, target - current);
        } else if target < current {
            self.shrink(plane, current - target);
        }
    }

    /// Health-state hook: reconciles per-slot membership with the plane's
    /// view before sampling, so an ejected backend's weight is renormalized
    /// away this round and a recovered one re-enters exploration-bounded.
    fn reconcile_membership<P: DataPlane + ?Sized>(&mut self, plane: &mut P) {
        let mut changed = false;
        for j in 0..self.lb.config().connections() {
            let healthy = plane.slot_healthy(j);
            if healthy && !self.lb.is_attached(j) {
                changed |= self.lb.attach_connection(j);
            } else if !healthy && self.lb.is_attached(j) && self.lb.live_connections() > 1 {
                changed |= self.lb.detach_connection(j);
            }
        }
        if changed {
            self.install(plane);
        }
    }

    /// Reads each slot's first difference over `since`, at the width the
    /// reconcile stages left; a slot new since the last sample gets a sampler.
    fn sample<P: DataPlane + ?Sized>(
        &self,
        plane: &P,
        samplers: &mut Vec<(Arc<BlockingCounter>, BlockingSampler)>,
        since: Duration,
        rates: &mut Vec<f64>,
    ) {
        let width = self.lb.config().connections();
        samplers.truncate(width);
        let opened = samplers.len()..width;
        samplers.extend(opened.map(|j| (plane.counter(j), BlockingSampler::new())));
        let since_ns = nanos(since).max(1);
        rates.clear();
        rates.extend(samplers.iter_mut().map(|(c, s)| s.sample(c, since_ns)));
    }

    /// Hands the current weights to the routing fabric (a round-robin
    /// plane keeps its initial split).
    fn install<P: DataPlane + ?Sized>(&self, plane: &mut P) {
        if self.balancing {
            plane.install_weights(self.lb.weights());
        }
    }

    /// Width-policy hook: the freshly solved round is the policy's input;
    /// its decision flows through the same grow/shrink ordering rules as
    /// the target reconcile. The rates buffer re-sizes at the next sample.
    fn apply_width_decision<P: DataPlane + ?Sized>(
        &mut self,
        plane: &mut P,
        elapsed_ms: u64,
        rates: &[f64],
    ) {
        match self.decide_width(elapsed_ms, rates) {
            WidthDecision::Grow(n) if n > 0 => {
                self.grow(plane, n);
            }
            WidthDecision::Shrink(n) if n > 0 => {
                let width = self.lb.config().connections();
                let mut n = n.min(width.saturating_sub(1));
                // Never close the slots holding the only live
                // connections: back the step off until a live survivor
                // remains outside the closed tail.
                while n > 0 && !(0..width - n).any(|j| self.lb.is_attached(j)) {
                    n -= 1;
                }
                if n > 0 {
                    self.shrink(plane, n);
                }
            }
            _ => {}
        }
    }
}

/// The first time at or after `now` on the grid `due + k·interval`.
fn next_due(due: Duration, now: Duration, interval: Duration) -> Duration {
    let behind = now.saturating_sub(due).as_nanos();
    due + interval * u32::try_from(behind.div_ceil(interval.as_nanos())).unwrap_or(u32::MAX)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn plane(n: usize) -> ControlPlane {
        ControlPlane::builder(BalancerConfig::builder(n).build().unwrap()).build()
    }

    /// A clock that moves only when the loop waits: `sleep_until` jumps
    /// straight to the deadline.
    #[derive(Default)]
    struct ManualClock(Cell<Duration>);

    impl Clock for ManualClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, deadline: Duration) {
            self.0.set(self.0.get().max(deadline));
        }
    }

    /// Runs `plane` under `p` on a fresh manual clock in 5 ms rounds, until
    /// the plane sets `stop`.
    fn run_manual<P: DataPlane>(p: &mut ControlPlane, plane: &mut P, stop: &AtomicBool) {
        p.run_threaded(
            plane,
            Duration::from_millis(5),
            stop,
            &ManualClock::default(),
        );
    }

    /// A counter nothing is ever charged to.
    fn idle() -> Arc<BlockingCounter> {
        Arc::new(BlockingCounter::new())
    }

    fn ms(elapsed: Duration) -> u128 {
        elapsed.as_millis()
    }

    #[test]
    fn round_throttles_an_overloaded_connection() {
        let mut p = plane(3);
        let w = p.round(0, &[0.9, 0.0, 0.0]).clone();
        assert_eq!(w.units()[0], 0);
        assert_eq!(w.units().iter().sum::<u32>(), 1000);
    }

    #[test]
    fn round_robin_plane_never_moves() {
        let mut p = ControlPlane::builder(BalancerConfig::builder(2).build().unwrap())
            .round_robin()
            .build();
        for _ in 0..5 {
            let w = p.round(0, &[0.9, 0.0]).clone();
            assert_eq!(w.units(), &[500, 500]);
        }
        assert_eq!(p.balancer().round(), 0, "no rebalance rounds consumed");
    }

    #[test]
    fn membership_passthrough_keeps_the_simplex() {
        let mut p = plane(3);
        p.round(0, &[0.4, 0.1, 0.0]);
        assert!(p.detach_connection(1));
        assert_eq!(p.weights().units()[1], 0);
        assert_eq!(p.weights().units().iter().sum::<u32>(), 1000);
        // Detached slots' rates are ignored on later rounds.
        p.round(1, &[0.1, 9.9, 0.1]);
        assert_eq!(p.balancer().function(1).raw_len(), 1);
        assert!(p.attach_connection(1));
        assert!(p.weights().units()[1] <= 10, "exploration-bounded attach");
        assert_eq!(p.weights().units().iter().sum::<u32>(), 1000);
    }

    #[test]
    fn metrics_and_trace_are_emitted() {
        let telemetry = Telemetry::new();
        let mut p = ControlPlane::builder(BalancerConfig::builder(2).build().unwrap())
            .telemetry(&telemetry)
            .metrics("test")
            .build();
        p.round(0, &[0.5, 0.0]);
        p.round(1, &[0.5, 0.0]);
        let reg = telemetry.registry();
        assert_eq!(reg.counter("test.controller.rounds").get(), 2);
        assert!((reg.gauge("test.conn0.blocking_rate").get() - 0.5).abs() < 1e-12);
        let units = p.weights().units().to_vec();
        assert_eq!(reg.gauge("test.conn1.weight").get(), f64::from(units[1]));
        assert!(telemetry
            .trace()
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::ControllerRound { .. })));
    }

    #[test]
    fn recluster_outcomes_are_counted_and_the_distinct_gauge_follows() {
        use streambal_core::controller::{BalancerMode, ClusteringConfig};
        let telemetry = Telemetry::new();
        // Static mode: with no blocking the knees hold still between
        // rounds, so exactly the rounds that change something recluster.
        let cfg = BalancerConfig::builder(40)
            .mode(BalancerMode::Static)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let mut p = ControlPlane::builder(cfg)
            .telemetry(&telemetry)
            .metrics("test")
            .build();
        let reg = telemetry.registry();
        let mut rates = vec![0.0; 40];
        rates[3] = 0.8;
        rates[4] = 0.8;
        p.round(0, &rates);
        assert_eq!(reg.counter("test.recluster.full").get(), 1);
        assert_eq!(reg.counter("test.recluster.reused").get(), 0);
        // 38 idle connections share one vector, the two loaded ones another.
        assert_eq!(reg.gauge("test.cluster.distinct").get(), 2.0);
        rates.fill(0.0);
        for round in 1..4 {
            p.round(round, &rates);
        }
        let full = reg.counter("test.recluster.full").get();
        let reused = reg.counter("test.recluster.reused").get();
        assert_eq!(
            full + reused,
            4,
            "every clustered round is one or the other"
        );
        assert!(reused >= 1, "quiet rounds keep the partition");
        // A membership change forces the next round to recluster.
        assert!(p.detach_connection(3));
        p.round(4, &rates);
        assert_eq!(reg.counter("test.recluster.full").get(), full + 1);
    }

    #[test]
    fn grow_width_extends_the_simplex_and_rounds_continue() {
        let mut p = plane(2);
        p.round(0, &[0.2, 0.1]);
        let range = p.grow_width(2);
        assert_eq!(range, 2..4);
        let units = p.weights().units();
        assert_eq!(units.len(), 4);
        assert_eq!(units.iter().sum::<u32>(), 1000);
        assert!(units[2] <= 10 && units[3] <= 10, "bounded entry: {units:?}");
        // Rounds now take (and require) the wider rate slice.
        p.round(1, &[0.1, 0.1, 0.0, 0.0]);
        assert_eq!(p.weights().units().iter().sum::<u32>(), 1000);
        assert_eq!(p.shrink_width(2), 2);
        assert_eq!(p.weights().units().len(), 2);
        assert_eq!(p.weights().units().iter().sum::<u32>(), 1000);
    }

    #[test]
    fn grow_against_a_fixed_width_plane_is_refused_cleanly() {
        struct FixedPlane;
        impl DataPlane for FixedPlane {
            fn connections(&self) -> usize {
                2
            }
            fn counter(&self, _j: usize) -> Arc<BlockingCounter> {
                idle()
            }
            fn install_weights(&mut self, _weights: &WeightVector) {}
        }
        let mut p = plane(2);
        assert_eq!(p.grow(&mut FixedPlane, 3), 0, "default open_slot refuses");
        assert_eq!(p.weights().units().len(), 2, "balancer untouched");
    }

    #[test]
    fn run_threaded_reconciles_width_with_the_planes_target() {
        struct GrowingPlane<'a> {
            width: usize,
            target: usize,
            installed: Vec<u32>,
            stop: &'a AtomicBool,
        }
        impl DataPlane for GrowingPlane<'_> {
            fn connections(&self) -> usize {
                self.width
            }
            fn begin_round(&mut self, elapsed: Duration) {
                if ms(elapsed) >= 30 {
                    self.target = 4;
                }
                self.stop.store(ms(elapsed) >= 90, Ordering::Release);
            }
            fn target_connections(&self) -> usize {
                self.target
            }
            fn open_slot(&mut self) -> bool {
                self.width += 1;
                true
            }
            fn counter(&self, _j: usize) -> Arc<BlockingCounter> {
                idle()
            }
            fn install_weights(&mut self, weights: &WeightVector) {
                self.installed = weights.units().to_vec();
            }
        }
        let stop = AtomicBool::new(false);
        let mut dp = GrowingPlane {
            width: 2,
            target: 2,
            installed: Vec::new(),
            stop: &stop,
        };
        let mut p = plane(2);
        run_manual(&mut p, &mut dp, &stop);
        let w = dp.installed;
        assert_eq!(w.len(), 4, "region grew to the target width: {w:?}");
        assert_eq!(w.iter().map(|&u| u64::from(u)).sum::<u64>(), 1000);
        assert_eq!(p.balancer().config().connections(), 4);
        assert!(p.balancer().is_attached(2) && p.balancer().is_attached(3));
    }

    #[test]
    fn run_threaded_reconciles_membership_with_slot_health() {
        struct HealthPlane<'a> {
            sick: bool,
            installed: Vec<u32>,
            /// What was installed in the last round before slot 1 recovered.
            while_sick: Vec<u32>,
            stop: &'a AtomicBool,
        }
        impl DataPlane for HealthPlane<'_> {
            fn connections(&self) -> usize {
                3
            }
            fn begin_round(&mut self, elapsed: Duration) {
                self.sick = (30..70).contains(&ms(elapsed));
                if ms(elapsed) < 70 {
                    self.while_sick.clone_from(&self.installed);
                }
                self.stop.store(ms(elapsed) >= 110, Ordering::Release);
            }
            fn slot_healthy(&self, j: usize) -> bool {
                j != 1 || !self.sick
            }
            fn counter(&self, _j: usize) -> Arc<BlockingCounter> {
                idle()
            }
            fn install_weights(&mut self, weights: &WeightVector) {
                self.installed = weights.units().to_vec();
            }
        }
        let stop = AtomicBool::new(false);
        let mut dp = HealthPlane {
            sick: false,
            installed: Vec::new(),
            while_sick: Vec::new(),
            stop: &stop,
        };
        let mut p = plane(3);
        run_manual(&mut p, &mut dp, &stop);
        let w = dp.while_sick;
        assert_eq!(w.len(), 3);
        assert_eq!(w[1], 0, "unhealthy slot leaves the simplex: {w:?}");
        assert_eq!(w.iter().map(|&u| u64::from(u)).sum::<u64>(), 1000);
        assert!(p.balancer().is_attached(1), "recovered slot re-attached");
        let w = dp.installed;
        assert_eq!(w.iter().map(|&u| u64::from(u)).sum::<u64>(), 1000);
    }

    #[test]
    fn slot_health_never_detaches_the_last_live_connection() {
        struct AllSickPlane<'a>(&'a AtomicBool);
        impl DataPlane for AllSickPlane<'_> {
            fn connections(&self) -> usize {
                2
            }
            fn begin_round(&mut self, elapsed: Duration) {
                self.0.store(ms(elapsed) >= 40, Ordering::Release);
            }
            fn slot_healthy(&self, _j: usize) -> bool {
                false
            }
            fn counter(&self, _j: usize) -> Arc<BlockingCounter> {
                idle()
            }
            fn install_weights(&mut self, _weights: &WeightVector) {}
        }
        let mut p = plane(2);
        let stop = AtomicBool::new(false);
        run_manual(&mut p, &mut AllSickPlane(&stop), &stop);
        assert_eq!(
            p.balancer().live_connections(),
            1,
            "exactly one survivor when every slot reports unhealthy"
        );
        assert_eq!(p.weights().units().iter().sum::<u32>(), 1000);
    }

    #[test]
    fn run_threaded_drives_a_data_plane() {
        /// Slot 0 blocks for 80 % of the time, slot 1 never.
        struct LoadedPlane<'a> {
            counters: [Arc<BlockingCounter>; 2],
            charged: Duration,
            installed: Vec<u32>,
            stop: &'a AtomicBool,
        }
        impl DataPlane for LoadedPlane<'_> {
            fn connections(&self) -> usize {
                2
            }
            fn begin_round(&mut self, elapsed: Duration) {
                self.counters[0].add_ns(nanos(elapsed - self.charged) / 5 * 4);
                self.charged = elapsed;
                self.stop.store(ms(elapsed) >= 60, Ordering::Release);
            }
            fn counter(&self, j: usize) -> Arc<BlockingCounter> {
                Arc::clone(&self.counters[j])
            }
            fn install_weights(&mut self, weights: &WeightVector) {
                self.installed = weights.units().to_vec();
            }
        }
        let stop = AtomicBool::new(false);
        let mut dp = LoadedPlane {
            counters: [idle(), idle()],
            charged: Duration::ZERO,
            installed: Vec::new(),
            stop: &stop,
        };
        let mut p = ControlPlane::builder(BalancerConfig::builder(2).build().unwrap())
            .keep_snapshots(true)
            .build();
        run_manual(&mut p, &mut dp, &stop);
        let w = dp.installed;
        assert_eq!(w.iter().map(|&u| u64::from(u)).sum::<u64>(), 1000);
        assert!(w[0] < w[1], "overloaded connection throttled: {w:?}");
        assert!(!p.snapshots().is_empty());
    }

    #[test]
    fn run_threaded_records_deliveries_per_round() {
        /// Delivers 10, 20 and 30 tuples in its three rounds.
        struct DeliveringPlane<'a> {
            rounds: u64,
            stop: &'a AtomicBool,
        }
        impl DataPlane for DeliveringPlane<'_> {
            fn connections(&self) -> usize {
                2
            }
            fn begin_round(&mut self, _elapsed: Duration) {
                self.rounds += 1;
                self.stop.store(self.rounds == 3, Ordering::Release);
            }
            fn counter(&self, _j: usize) -> Arc<BlockingCounter> {
                idle()
            }
            fn install_weights(&mut self, _weights: &WeightVector) {}
            fn delivered(&self) -> u64 {
                // Cumulative: 10, 30, 60.
                5 * self.rounds * (self.rounds + 1)
            }
        }
        let telemetry = Telemetry::new();
        let stop = AtomicBool::new(false);
        let mut p = ControlPlane::builder(BalancerConfig::builder(2).build().unwrap())
            .telemetry(&telemetry)
            .keep_snapshots(true)
            .build();
        run_manual(
            &mut p,
            &mut DeliveringPlane {
                rounds: 0,
                stop: &stop,
            },
            &stop,
        );
        let traced = RoundSnapshot::series_from_events(&telemetry.trace().events());
        let delivered: Vec<u64> = traced.iter().map(|s| s.delivered).collect();
        assert_eq!(delivered, [10, 20, 30], "per-interval, not cumulative");
        assert_eq!(p.snapshots(), traced, "one record, kept and traced");
        let stamps: Vec<u64> = traced.iter().map(|s| s.t_ns).collect();
        assert_eq!(stamps, [5_000_000, 10_000_000, 15_000_000]);
    }

    #[test]
    fn run_threaded_applies_a_scripted_width_policy() {
        /// An elastic plane that just tracks its width.
        struct ElasticPlane<'a> {
            width: usize,
            installed: Vec<u32>,
            stop: &'a AtomicBool,
        }
        impl DataPlane for ElasticPlane<'_> {
            fn connections(&self) -> usize {
                self.width
            }
            fn begin_round(&mut self, elapsed: Duration) {
                self.stop.store(ms(elapsed) >= 120, Ordering::Release);
            }
            fn open_slot(&mut self) -> bool {
                self.width += 1;
                true
            }
            fn close_slot(&mut self) -> bool {
                self.width -= 1;
                true
            }
            fn counter(&self, _j: usize) -> Arc<BlockingCounter> {
                idle()
            }
            fn install_weights(&mut self, weights: &WeightVector) {
                self.installed = weights.units().to_vec();
            }
        }
        let mut script = ScriptedWidth::new();
        script
            .grow_after(Duration::from_millis(20), 2)
            .shrink_after(Duration::from_millis(60), 1);
        let stop = AtomicBool::new(false);
        let mut dp = ElasticPlane {
            width: 2,
            installed: Vec::new(),
            stop: &stop,
        };
        let mut p = ControlPlane::builder(BalancerConfig::builder(2).build().unwrap())
            .width_policy(script)
            .build();
        run_manual(&mut p, &mut dp, &stop);
        assert_eq!(
            p.balancer().config().connections(),
            3,
            "grew by 2, shrank by 1"
        );
        let w = dp.installed;
        assert_eq!(w.len(), 3);
        assert_eq!(w.iter().map(|&u| u64::from(u)).sum::<u64>(), 1000);
    }

    #[test]
    fn decide_width_reports_decisions_through_autoscale_counters() {
        let telemetry = Telemetry::new();
        let mut p = ControlPlane::builder(BalancerConfig::builder(2).build().unwrap())
            .telemetry(&telemetry)
            .metrics("test")
            .width_policy(Autoscaler::new(AutoscalerConfig {
                confirm_rounds: 1,
                cooldown_rounds: 2,
                high_watermark: 0.15,
                ..AutoscalerConfig::default()
            }))
            .build();
        // Saturate both slots so the solved minimax blocking stays high.
        let rates = [5.0, 5.0];
        let mut decisions = Vec::new();
        for ms in 0..4u64 {
            p.round(ms, &rates);
            decisions.push(p.decide_width(ms, &rates));
        }
        assert!(
            matches!(decisions[0], WidthDecision::Grow(_)),
            "saturated region grows: {decisions:?}"
        );
        let reg = telemetry.registry();
        // Rounds: Grow, cooldown Hold ×2 (both suppressed), Grow again.
        assert_eq!(reg.counter("test.autoscale.grow").get(), 2);
        assert_eq!(reg.counter("test.autoscale.hold").get(), 2);
        assert_eq!(reg.counter("test.autoscale.cooldown_suppressed").get(), 2);
        assert!(reg.gauge("test.width").get() >= 2.0);
        // Each grow carries its reason in the trace; holds push nothing.
        let reasons: Vec<Vec<(String, f64)>> = telemetry
            .trace()
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Custom { name, fields } if name == "width.decision" => Some(fields),
                _ => None,
            })
            .collect();
        assert_eq!(reasons.len(), 2, "one event per grow: {reasons:?}");
        for fields in &reasons {
            let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                names,
                [
                    "width",
                    "live",
                    "solved_blocking",
                    "observed_blocking",
                    "pressure",
                    "step"
                ]
            );
            let field = |k: &str| fields.iter().find(|(n, _)| n == k).unwrap().1;
            assert_eq!(field("width"), 2.0, "the plane itself was never grown");
            assert_eq!(field("live"), 2.0);
            assert_eq!(field("observed_blocking"), 5.0);
            assert_eq!(field("pressure"), field("solved_blocking").max(1.0));
            assert_eq!(field("step"), 2.0, "default max_step");
        }
    }
}
