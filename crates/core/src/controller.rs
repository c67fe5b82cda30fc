//! The local load-balancing control loop.
//!
//! [`LoadBalancer`] owns one [`BlockingRateFunction`] per connection and the
//! current [`WeightVector`]. Each control round (one sampling interval, 1 s
//! in the paper):
//!
//! 1. [`observe`](LoadBalancer::observe) folds the new blocking-rate samples
//!    into the per-connection functions at their *current* weights. Because
//!    of drafting, usually only one connection delivers a *nonzero* sample
//!    per round; zero samples still count as evidence that the current
//!    weight is sustainable (they are what lets a throttled connection
//!    recover after external load disappears).
//! 2. [`rebalance`](LoadBalancer::rebalance) applies the exploration decay
//!    (adaptive mode only), optionally clusters the connections, solves the
//!    minimax RAP with [Fox's greedy algorithm](crate::solver::fox), and
//!    installs the new weights.
//!
//! The *LB-static* variant of the paper is [`BalancerMode::Static`]; the
//! *LB-adaptive* variant is [`BalancerMode::Adaptive`] with the paper's 10%
//! decay.

use std::fmt;

use streambal_telemetry::{TraceBuffer, TraceEvent};

use crate::cluster::{self, AggregateScratch, ClusterScratch, Clustering, Knee};
use crate::function::{BlockingRateFunction, MonotoneFit, SMOOTHING};
use crate::rate::ConnectionSample;
use crate::solver::fox::{self, FoxScratch, Limits};
use crate::weights::{WeightVector, DEFAULT_RESOLUTION};

/// Whether the balancer re-explores (decays stale data) each round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BalancerMode {
    /// *LB-static*: functions only change when new data arrives. Fast to
    /// converge, but never discovers that load has been removed.
    Static,
    /// *LB-adaptive*: every round, each function's values above its current
    /// weight shrink by the given factor (the paper reduces by 10%, i.e.
    /// `decay = 0.9`), forcing periodic re-exploration.
    Adaptive {
        /// Multiplicative per-round decay factor in `[0, 1]`.
        decay: f64,
    },
}

impl Default for BalancerMode {
    fn default() -> Self {
        BalancerMode::Adaptive { decay: 0.9 }
    }
}

/// Configuration for clustering (enabled for wide parallel regions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringConfig {
    /// Clustering only activates at or above this many connections (the
    /// paper finds it "only becomes necessary as the number of channels
    /// scales to 32 and higher").
    pub min_connections: usize,
    /// Complete-linkage merge threshold on the knee distance. With the
    /// default `α = 1`, a threshold of `ln 2 ≈ 0.69` clusters capacities
    /// within a factor of two.
    pub distance_threshold: f64,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            min_connections: 32,
            distance_threshold: 0.7,
        }
    }
}

/// What the clustering step of a [`rebalance`](LoadBalancer::rebalance)
/// round did (see [`LoadBalancer::last_cluster_outcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterOutcome {
    /// No knee value and no membership moved: the previous partition was
    /// kept as is.
    Reused,
    /// The live connections were clustered again.
    Full {
        /// Live connections clustered.
        live: usize,
        /// Distinct knee feature vectors among them — the size of the
        /// agglomeration actually run. `live - distinct` connections rode
        /// along as exact duplicates.
        distinct: usize,
    },
}

/// Error building a [`BalancerConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `connections` was zero.
    NoConnections,
    /// `resolution` was zero or smaller than the connection count.
    BadResolution,
    /// The adaptive decay factor was outside `[0, 1]`.
    BadFactor,
    /// The clustering distance threshold was negative or not finite.
    BadThreshold,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoConnections => write!(f, "need at least one connection"),
            ConfigError::BadResolution => {
                write!(f, "resolution must be positive and >= connection count")
            }
            ConfigError::BadFactor => write!(f, "the decay factor must be in [0, 1]"),
            ConfigError::BadThreshold => {
                write!(f, "clustering distance threshold must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A structural invariant of the balancer found broken by
/// [`LoadBalancer::check_invariants`].
///
/// These are the controller-level facts the chaos harness's oracles assert
/// every round; in a correct build none of them can occur, so any instance
/// is a bug (or a deliberately sabotaged run validating the oracles).
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// The installed weights do not sum to the resolution (the allocation
    /// left the simplex).
    WeightSum {
        /// Sum of the installed units.
        got: u64,
        /// The configured resolution `R`.
        expected: u32,
    },
    /// A rebuilt blocking-rate function decreased somewhere.
    NonMonotoneFunction {
        /// The offending connection.
        connection: usize,
        /// The first weight at which the prediction decreases.
        weight: u32,
    },
    /// A rebuilt blocking-rate function produced a non-finite or negative
    /// prediction.
    NonFiniteFunction {
        /// The offending connection.
        connection: usize,
        /// The weight at which the bad value sits.
        weight: u32,
        /// The bad predicted value.
        value: f64,
    },
    /// A detached connection still holds weight (its units were not
    /// renormalized away on [`LoadBalancer::detach_connection`]).
    DetachedConnectionWeight {
        /// The detached connection.
        connection: usize,
        /// The weight it still holds.
        weight: u32,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::WeightSum { got, expected } => {
                write!(f, "weights sum to {got}, expected {expected}")
            }
            InvariantViolation::NonMonotoneFunction { connection, weight } => write!(
                f,
                "connection {connection}: predicted blocking rate decreases at weight {weight}"
            ),
            InvariantViolation::NonFiniteFunction {
                connection,
                weight,
                value,
            } => write!(
                f,
                "connection {connection}: predicted blocking rate at weight {weight} is {value}"
            ),
            InvariantViolation::DetachedConnectionWeight { connection, weight } => write!(
                f,
                "detached connection {connection} still holds weight {weight}"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Checks one connection's predicted curve — its values at weights 0, 1,
/// 2, … — for finiteness and monotonicity (the per-function half of
/// [`LoadBalancer::check_invariants`]).
fn check_predicted(
    connection: usize,
    predicted: impl IntoIterator<Item = f64>,
) -> Result<(), InvariantViolation> {
    let mut prev = f64::NEG_INFINITY;
    for (w, v) in predicted.into_iter().enumerate() {
        if !v.is_finite() || v < 0.0 {
            return Err(InvariantViolation::NonFiniteFunction {
                connection,
                weight: w as u32,
                value: v,
            });
        }
        if v < prev {
            return Err(InvariantViolation::NonMonotoneFunction {
                connection,
                weight: w as u32,
            });
        }
        prev = v;
    }
    Ok(())
}

/// Configuration of a [`LoadBalancer`]. Build with
/// [`BalancerConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct BalancerConfig {
    connections: usize,
    resolution: u32,
    mode: BalancerMode,
    exploration_step: u32,
    clustering: Option<ClusteringConfig>,
}

impl BalancerConfig {
    /// Starts a builder for a balancer over `connections` connections.
    pub fn builder(connections: usize) -> BalancerConfigBuilder {
        BalancerConfigBuilder {
            connections,
            resolution: DEFAULT_RESOLUTION,
            mode: BalancerMode::default(),
            exploration_step: 10,
            clustering: None,
        }
    }

    /// Number of connections.
    pub fn connections(&self) -> usize {
        self.connections
    }

    /// Weight resolution `R`.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// The balancer mode.
    pub fn mode(&self) -> BalancerMode {
        self.mode
    }
}

/// Builder for [`BalancerConfig`].
#[derive(Debug, Clone)]
pub struct BalancerConfigBuilder {
    connections: usize,
    resolution: u32,
    mode: BalancerMode,
    exploration_step: u32,
    clustering: Option<ClusteringConfig>,
}

impl BalancerConfigBuilder {
    /// Sets the weight resolution `R` (default 1000, i.e. 0.1% units).
    pub fn resolution(&mut self, resolution: u32) -> &mut Self {
        self.resolution = resolution;
        self
    }

    /// Sets the mode (default `Adaptive { decay: 0.9 }`).
    pub fn mode(&mut self, mode: BalancerMode) -> &mut Self {
        self.mode = mode;
        self
    }

    /// Sets how far (in units) a connection's weight may push past its
    /// *knowledge frontier* — the largest weight where its function still
    /// predicts no blocking — in one round (default 10, i.e. 1%).
    ///
    /// This realizes the paper's incremental "minimum and maximum change
    /// constraints": a connection may shed weight or move freely within
    /// territory predicted clean, but may only creep into
    /// predicted-blocking territory. It is what makes the paper's loaded
    /// connection retry weight 9 (not 200) after being throttled to 0.
    pub fn exploration_step(&mut self, units: u32) -> &mut Self {
        self.exploration_step = units;
        self
    }

    /// Enables clustering with the given configuration.
    pub fn clustering(&mut self, clustering: ClusteringConfig) -> &mut Self {
        self.clustering = Some(clustering);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid field.
    pub fn build(&self) -> Result<BalancerConfig, ConfigError> {
        if self.connections == 0 {
            return Err(ConfigError::NoConnections);
        }
        if self.resolution == 0 || (self.resolution as usize) < self.connections {
            return Err(ConfigError::BadResolution);
        }
        if let BalancerMode::Adaptive { decay } = self.mode {
            if !(0.0..=1.0).contains(&decay) {
                return Err(ConfigError::BadFactor);
            }
        }
        if let Some(c) = self.clustering {
            // NaN would silently disable every merge, and a negative
            // threshold would keep identical functions apart.
            if !(c.distance_threshold.is_finite() && c.distance_threshold >= 0.0) {
                return Err(ConfigError::BadThreshold);
            }
        }
        Ok(BalancerConfig {
            connections: self.connections,
            resolution: self.resolution,
            mode: self.mode,
            exploration_step: self.exploration_step,
            clustering: self.clustering,
        })
    }
}

/// The local load balancer for one parallel region's splitter.
///
/// # Examples
///
/// Detecting a severe imbalance and adapting, then recovering once the load
/// disappears (the adaptive decay slowly re-opens the throttled connection):
///
/// ```
/// use streambal_core::controller::{BalancerConfig, LoadBalancer};
/// use streambal_core::rate::ConnectionSample;
///
/// let mut lb = LoadBalancer::new(BalancerConfig::builder(2).build().unwrap());
/// lb.observe(&[ConnectionSample::new(0, 0.95)]); // connection 0 overloaded
/// lb.rebalance();
/// assert!(lb.weights().units()[0] < lb.weights().units()[1]);
/// ```
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    cfg: BalancerConfig,
    functions: Vec<BlockingRateFunction>,
    /// `idle[j]` implies that slot `j`'s function is all-zero and, once
    /// its knee is taken, still at the knee's generation, so decay, the
    /// knee refresh and the pooled bound skip the slot after reading one
    /// byte instead of a cache line of its function. It starts true for
    /// the fresh functions of `new` and `grow`, and `retire_slot` sets it
    /// with the fresh function it installs. [`observe`](Self::observe)
    /// copies the function's own flag, and
    /// [`function_mut`](Self::function_mut) clears it until the slot's
    /// next sample, since the caller may give the function data (or a
    /// new function, which may not be re-marked while the slot's cached
    /// knee is another generation's).
    idle: Vec<bool>,
    weights: WeightVector,
    round: u64,
    last_clusters: Option<Clustering>,
    last_outcome: Option<ClusterOutcome>,
    trace: Option<TraceBuffer>,
    pending_rates: Vec<f64>,
    /// Which connection slots are currently members of the region.
    /// Detached slots keep their index (the routing fabric's connection
    /// array does not shrink) but are pinned at weight 0 and excluded from
    /// sampling, clustering and the solve.
    attached: Vec<bool>,
    /// Bumped on every membership change (attach, detach, grow, shrink);
    /// keys the scratch's cached live-slot list so steady-state rounds —
    /// including rounds with *detached* slots — rebuild nothing.
    membership_gen: u64,
    scratch: RoundScratch,
}

/// A round's upper weight bound for one solver item. Decreases are
/// unconstrained. Increases may go anywhere the item's function predicts no
/// blocking (up to its clean `frontier`), plus at most `step` units into
/// predicted-blocking territory — and an item may always keep its `current`
/// weight, which keeps the problem feasible even when every function
/// predicts blocking.
fn explore_upper(frontier: u32, current: u32, step: u32, r: u32) -> u32 {
    frontier.max(current).saturating_add(step).min(r)
}

/// The knee value stored for a slot whose function has never been looked
/// at. Real knees have `service_weight >= 1`, so comparing against this
/// placeholder always reads as "changed".
const NO_KNEE: Knee = Knee {
    service_weight: 0,
    rate_at_knee: 0.0,
    rate_at_max: 0.0,
};

/// Persistent per-round working memory.
///
/// Every buffer the control round needs lives here and is reused across
/// rounds, so a steady-state round (no topology change) performs no heap
/// allocation: the solver's item vectors are refilled in place, the Fox
/// solver recycles its heap, every solve reads fits by point query (a
/// slot's own, or a cluster's pooled fit refitted in place; no table is
/// built or copied), and the clustering is redone — out of the retained
/// [`ClusterScratch`] — only when a knee value moved.
#[derive(Debug, Clone)]
struct RoundScratch {
    /// Weight snapshot taken at the start of the round (for tracing and
    /// exploration detection).
    weights_before: Vec<u32>,
    /// The solver's per-item vectors. An item is a connection slot in a
    /// per-slot solve and a cluster in a clustered one; a round runs one
    /// or the other, so one set serves both. Lower bounds are all zero (a
    /// connection may always be throttled, even straight to zero, as in
    /// the paper's Figure 8).
    lower: Vec<u32>,
    /// Per-item upper weight bounds for this solve.
    upper: Vec<u32>,
    /// Per-item multiplicities: 1 per slot, the member count per cluster.
    mult: Vec<u32>,
    /// Per-item clean frontiers, doubling as solver tie priorities.
    priority: Vec<u64>,
    /// Fox solver state (result weights, heap pool).
    fox: FoxScratch,
    /// Per-connection knees for clustering (empty when clustering is off).
    knees: Vec<Knee>,
    /// Generation of each cached knee (`u64::MAX` = never computed).
    knee_gen: Vec<u64>,
    /// Per-connection log-feature vectors, updated alongside `knees`.
    feat: Vec<[f64; 3]>,
    /// Cached ascending list of attached slots, keyed on `live_gen`.
    live: Vec<usize>,
    /// The [`LoadBalancer::membership_gen`] the `live` cache was built at
    /// (`u64::MAX` = never built).
    live_gen: u64,
    /// The membership generation `last_clusters` was installed at
    /// (`u64::MAX` = never installed), for debug cross-checks.
    clusters_gen: u64,
    /// Nearest-neighbor-chain agglomeration working memory.
    cluster_scratch: ClusterScratch,
    /// Recycled [`Clustering`] buffer, double-buffered against
    /// `LoadBalancer::last_clusters` so a recluster allocates nothing.
    spare_clusters: Clustering,
    /// The clustered solve's items: one pooled fit per cluster, refitted
    /// in place each round.
    agg: AggregateScratch,
    /// Cluster ordering for the remainder hand-out.
    corder: Vec<usize>,
    /// Expansion buffer for per-connection units in the clustered path.
    units_tmp: Vec<u32>,
    /// Recycled `rates` vectors reclaimed from evicted trace events.
    spare_rates: Vec<Vec<f64>>,
    /// Recycled weight vectors reclaimed from evicted trace events.
    spare_units: Vec<Vec<u32>>,
}

impl RoundScratch {
    fn new(cfg: &BalancerConfig) -> Self {
        let n = cfg.connections;
        let clustered = cfg
            .clustering
            .map(|c| n >= c.min_connections)
            .unwrap_or(false);
        RoundScratch {
            weights_before: Vec::with_capacity(n),
            lower: Vec::with_capacity(n),
            upper: Vec::with_capacity(n),
            mult: Vec::with_capacity(n),
            priority: Vec::with_capacity(n),
            fox: FoxScratch::new(),
            knees: if clustered {
                vec![NO_KNEE; n]
            } else {
                Vec::new()
            },
            knee_gen: vec![u64::MAX; n],
            feat: if clustered {
                vec![[0.0; 3]; n]
            } else {
                Vec::new()
            },
            live: Vec::new(),
            live_gen: u64::MAX,
            clusters_gen: u64::MAX,
            cluster_scratch: ClusterScratch::new(),
            spare_clusters: Clustering::default(),
            agg: AggregateScratch::new(),
            corder: Vec::new(),
            units_tmp: vec![0; n],
            spare_rates: Vec::new(),
            spare_units: Vec::new(),
        }
    }

    /// Empties the solver's item vectors ahead of a bound stage.
    fn clear_items(&mut self) {
        self.lower.clear();
        self.upper.clear();
        self.mult.clear();
        self.priority.clear();
    }

    /// Appends one solver item bounded to `[0, upper]`.
    fn push_item(&mut self, upper: u32, mult: u32, frontier: u32) {
        self.lower.push(0);
        self.upper.push(upper);
        self.mult.push(mult);
        self.priority.push(u64::from(frontier));
    }
}

impl LoadBalancer {
    /// Creates a balancer starting from an even weight split.
    pub fn new(cfg: BalancerConfig) -> Self {
        let functions: Vec<BlockingRateFunction> = (0..cfg.connections)
            .map(|_| BlockingRateFunction::new(cfg.resolution, SMOOTHING))
            .collect();
        let weights = WeightVector::even(cfg.connections, cfg.resolution);
        let pending_rates = vec![0.0; cfg.connections];
        let scratch = RoundScratch::new(&cfg);
        let attached = vec![true; cfg.connections];
        LoadBalancer {
            idle: vec![true; cfg.connections],
            cfg,
            functions,
            weights,
            round: 0,
            last_clusters: None,
            last_outcome: None,
            trace: None,
            pending_rates,
            attached,
            membership_gen: 0,
            scratch,
        }
    }

    /// Attaches a telemetry trace buffer: from now on every rebalance
    /// round emits [`TraceEvent::ControllerRound`] (observed rates, input
    /// and output weights), plus [`TraceEvent::Decay`],
    /// [`TraceEvent::Exploration`] and [`TraceEvent::ClusterUpdate`]
    /// events as those decisions occur.
    pub fn attach_trace(&mut self, trace: TraceBuffer) {
        self.trace = Some(trace);
    }

    /// The attached trace buffer, if any.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// The current allocation weights.
    pub fn weights(&self) -> &WeightVector {
        &self.weights
    }

    /// The configuration this balancer was built with.
    pub fn config(&self) -> &BalancerConfig {
        &self.cfg
    }

    /// Number of completed rebalance rounds.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Checks the balancer's structural invariants, as an oracle hook for
    /// chaos/fault-injection harnesses: the installed weights sum exactly
    /// to the resolution (the simplex the solver must never leave), and
    /// every [`BlockingRateFunction`]'s [`value`](BlockingRateFunction::value)
    /// is finite, non-negative and non-decreasing over every weight in
    /// `0..=R` (PAVA's contract, read through the same point queries the
    /// round reads).
    ///
    /// Cheap enough to call every control round; takes `&mut self` because
    /// a point query refits a function whose raw points changed.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] found.
    pub fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
        let got: u64 = self.weights.units().iter().map(|&u| u64::from(u)).sum();
        if got != u64::from(self.cfg.resolution) {
            return Err(InvariantViolation::WeightSum {
                got,
                expected: self.cfg.resolution,
            });
        }
        for (j, &w) in self.weights.units().iter().enumerate() {
            if !self.attached[j] && w > 0 {
                return Err(InvariantViolation::DetachedConnectionWeight {
                    connection: j,
                    weight: w,
                });
            }
        }
        let r = self.cfg.resolution;
        for (j, f) in self.functions.iter_mut().enumerate() {
            check_predicted(j, (0..=r).map(|w| f.value(w)))?;
        }
        Ok(())
    }

    /// The predictive function of connection `j` (for introspection and
    /// plotting, e.g. the paper's Figure 7).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn function(&self, j: usize) -> &BlockingRateFunction {
        &self.functions[j]
    }

    /// Mutable access to a connection's function (used by tests and by
    /// scenario setup to seed prior knowledge).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn function_mut(&mut self, j: usize) -> &mut BlockingRateFunction {
        self.idle[j] = false;
        &mut self.functions[j]
    }

    /// The clustering used by the most recent rebalance, if clustering was
    /// active.
    pub fn last_clusters(&self) -> Option<&Clustering> {
        self.last_clusters.as_ref()
    }

    /// What the most recent rebalance's clustering step did; `None` when
    /// that round did not cluster (clustering off, or too few live
    /// connections).
    pub fn last_cluster_outcome(&self) -> Option<ClusterOutcome> {
        self.last_outcome
    }

    /// Whether connection slot `j` is currently attached to the region.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn is_attached(&self, j: usize) -> bool {
        self.attached[j]
    }

    /// Per-slot membership flags (`attached()[j]` mirrors
    /// [`is_attached`](Self::is_attached)).
    pub fn attached(&self) -> &[bool] {
        &self.attached
    }

    /// Number of currently attached connections.
    pub fn live_connections(&self) -> usize {
        self.attached.iter().filter(|&&a| a).count()
    }

    /// The solved minimax blocking rate: the worst predicted blocking
    /// across attached connections at the currently installed weights.
    /// This is the objective value of the last solve — the signal a width
    /// policy watches (near zero: capacity headroom; high: the region is
    /// saturated and no reallocation can fix it).
    ///
    /// Requires `&mut self` because a function's fit is refitted lazily;
    /// right after [`rebalance`](Self::rebalance) the fits are fresh and
    /// this performs no allocation.
    pub fn solved_blocking(&mut self) -> f64 {
        let mut worst = 0.0f64;
        for j in 0..self.cfg.connections {
            if !self.attached[j] {
                continue;
            }
            let w = self.weights.units()[j];
            worst = worst.max(self.functions[j].value(w));
        }
        worst
    }

    /// Detaches connection slot `j` from the region: its blocking-rate
    /// function is retired (replaced by a fresh one — knowledge about a
    /// departed worker does not transfer to whatever reuses the slot), its
    /// weight is pinned to 0, and its units are immediately renormalized
    /// across the remaining attached connections through the solver, so
    /// the installed allocation never leaves the `Σw = R` simplex.
    ///
    /// The slot itself is preserved: the routing fabric's connection array
    /// keeps its width, and a weighted-round-robin scheduler never picks a
    /// zero-weight slot, so a detached connection receives no traffic.
    /// Re-admit the slot later with
    /// [`attach_connection`](Self::attach_connection).
    ///
    /// Returns `false` (and changes nothing) if the slot was already
    /// detached. Membership changes may allocate; only the steady-state
    /// round is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds or if `j` is the last attached
    /// connection (an ordered region cannot run with zero members).
    pub fn detach_connection(&mut self, j: usize) -> bool {
        assert!(j < self.cfg.connections, "detach of unknown connection {j}");
        if !self.attached[j] {
            return false;
        }
        assert!(
            self.live_connections() > 1,
            "cannot detach the last attached connection"
        );
        self.attached[j] = false;
        self.membership_gen += 1;
        self.retire_slot(j);
        self.renormalize_membership(0..0);
        self.trace_membership("detach", &[("connection", j as f64)]);
        true
    }

    /// Re-attaches a previously detached connection slot `j` with a fresh
    /// blocking-rate function and an *exploration-bounded* initial weight:
    /// the newcomer starts with at most
    /// [`exploration_step`](BalancerConfigBuilder::exploration_step) units
    /// (it has no evidence it can sustain more) and earns its full share
    /// through the regular per-round exploration, which keeps the
    /// re-admission quiet under the reconvergence oracle's tolerance.
    ///
    /// Returns `false` (and changes nothing) if the slot is already
    /// attached. Membership changes may allocate; only the steady-state
    /// round is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn attach_connection(&mut self, j: usize) -> bool {
        assert!(j < self.cfg.connections, "attach of unknown connection {j}");
        if self.attached[j] {
            return false;
        }
        self.attached[j] = true;
        self.membership_gen += 1;
        self.retire_slot(j);
        self.renormalize_membership(j..j + 1);
        self.trace_membership("attach", &[("connection", j as f64)]);
        true
    }

    /// Records a membership change as a `membership.{kind}` trace event
    /// carrying `fields` and then the current round.
    fn trace_membership(&self, kind: &str, fields: &[(&str, f64)]) {
        if let Some(trace) = &self.trace {
            let round = ("round", self.round as f64);
            trace.push(TraceEvent::Custom {
                name: format!("membership.{kind}"),
                fields: fields
                    .iter()
                    .chain([&round])
                    .map(|&(k, v)| (k.to_owned(), v))
                    .collect(),
            });
        }
    }

    /// Replaces slot `j`'s function with a fresh one, marks the slot idle
    /// (a fresh function is all-zero) and invalidates every per-slot cache
    /// keyed on its generation.
    fn retire_slot(&mut self, j: usize) {
        self.functions[j] = BlockingRateFunction::new(self.cfg.resolution, SMOOTHING);
        self.idle[j] = true;
        self.scratch.knee_gen[j] = u64::MAX;
        if let Some(k) = self.scratch.knees.get_mut(j) {
            *k = NO_KNEE;
        }
        self.pending_rates[j] = 0.0;
    }

    /// Grows the region by `added` fresh connection slots beyond its
    /// current width, returning the index range of the new slots.
    ///
    /// Unlike [`attach_connection`](Self::attach_connection), which
    /// re-admits a slot that existed at construction, this extends the
    /// weight simplex, the blocking-rate function table, the solver bounds
    /// and the clustering state to `N + added` slots. Each new slot then
    /// enters through the same exploration-bounded attach path a returning
    /// member uses: it starts with at most
    /// [`exploration_step`](BalancerConfigBuilder::exploration_step) units
    /// and earns its share round by round. Growing past the clustering
    /// threshold (when configured) activates the clustered solve exactly as
    /// if the region had been built that wide.
    ///
    /// Growth is a topology change and may allocate (the per-round scratch
    /// is re-laid-out for the new width); the steady-state rounds that
    /// follow are allocation-free again.
    ///
    /// # Panics
    ///
    /// Panics if `added == 0` or the configured resolution cannot cover the
    /// new width (`R < N + added`).
    pub fn grow(&mut self, added: usize) -> std::ops::Range<usize> {
        assert!(added > 0, "grow needs at least one new slot");
        let old_n = self.cfg.connections;
        let new_n = old_n + added;
        assert!(
            self.cfg.resolution as usize >= new_n,
            "resolution {} cannot cover {new_n} connections",
            self.cfg.resolution
        );
        self.cfg.connections = new_n;
        self.functions.resize_with(new_n, || {
            BlockingRateFunction::new(self.cfg.resolution, SMOOTHING)
        });
        self.idle.resize(new_n, true);
        self.pending_rates.resize(new_n, 0.0);
        // New slots are born detached at weight 0: extending the unit
        // vector with zeros preserves the Σw = R simplex exactly.
        self.attached.resize(new_n, false);
        let mut units = std::mem::take(&mut self.scratch.units_tmp);
        units.clear();
        units.extend_from_slice(self.weights.units());
        units.resize(new_n, 0);
        self.weights
            .copy_from_units(&units)
            .expect("zero-extending the units preserves the simplex");
        self.scratch.units_tmp = units;
        self.membership_gen += 1;
        self.rebuild_scratch();
        self.last_clusters = None;
        self.trace_membership("grow", &[("from", old_n as f64), ("to", new_n as f64)]);
        // Batch admission through the attach path: every new slot becomes
        // a member at once, and a single renormalization caps the whole
        // batch at the exploration step (attaching one by one would let an
        // earlier newcomer's clean fresh function soak up a full share when
        // a later sibling's renormalization runs).
        for j in old_n..new_n {
            self.attached[j] = true;
            self.retire_slot(j);
        }
        self.renormalize_membership(old_n..new_n);
        for j in old_n..new_n {
            self.trace_membership("attach", &[("connection", j as f64)]);
        }
        old_n..new_n
    }

    /// Shrinks the region by removing its last `removed` connection slots,
    /// returning the new width.
    ///
    /// Tail slots still attached are first detached (their weight is
    /// renormalized back to the survivors through the solver), then the
    /// function table, membership flags and weight simplex are truncated —
    /// the truncated units are all zero, so Σw = R holds across the resize.
    /// Only tail slots can be removed: interior slots keep their index for
    /// the life of the region (detach them instead).
    ///
    /// # Panics
    ///
    /// Panics if `removed == 0`, if `removed >= N`, or if the removal would
    /// detach the last attached connection.
    pub fn shrink(&mut self, removed: usize) -> usize {
        assert!(removed > 0, "shrink needs at least one slot to remove");
        let old_n = self.cfg.connections;
        assert!(
            removed < old_n,
            "cannot shrink {old_n} connections by {removed}"
        );
        let new_n = old_n - removed;
        for j in new_n..old_n {
            if self.attached[j] {
                self.detach_connection(j);
            }
        }
        self.cfg.connections = new_n;
        self.functions.truncate(new_n);
        self.idle.truncate(new_n);
        self.pending_rates.truncate(new_n);
        self.attached.truncate(new_n);
        let mut units = std::mem::take(&mut self.scratch.units_tmp);
        units.clear();
        units.extend_from_slice(&self.weights.units()[..new_n]);
        self.weights
            .copy_from_units(&units)
            .expect("detached tail slots held zero units");
        self.scratch.units_tmp = units;
        self.membership_gen += 1;
        self.rebuild_scratch();
        self.last_clusters = None;
        self.trace_membership("shrink", &[("from", old_n as f64), ("to", new_n as f64)]);
        new_n
    }

    /// Re-lays-out the per-round scratch for the current width, keeping the
    /// recycled trace vectors (a topology change is the one place the
    /// balancer is allowed to allocate).
    fn rebuild_scratch(&mut self) {
        let spare_rates = std::mem::take(&mut self.scratch.spare_rates);
        let spare_units = std::mem::take(&mut self.scratch.spare_units);
        self.scratch = RoundScratch::new(&self.cfg);
        self.scratch.spare_rates = spare_rates;
        self.scratch.spare_units = spare_units;
    }

    /// Re-solves the allocation right after a membership change. It is the
    /// round's per-slot solve under different upper bounds: attached slots
    /// may take anything up to `R` (the freed capacity has to go
    /// *somewhere*, so the per-round exploration bound does not apply
    /// here), except just-attached newcomers, which are capped at the
    /// exploration step — `capped` is their slot range; a single attach
    /// passes one slot, a [`grow`](Self::grow) passes every new slot so
    /// none of the batch can soak up a full share before earning it. With
    /// no observations yet every slot is idle, and the solve deals the
    /// attached slots an even split in which no newcomer passes the step.
    fn renormalize_membership(&mut self, capped: std::ops::Range<usize>) {
        let (r, step) = (self.cfg.resolution, self.cfg.exploration_step);
        debug_assert!(
            (0..self.cfg.connections).any(|j| self.attached[j] && !capped.contains(&j)),
            "an uncapped attached slot keeps R units feasible"
        );
        self.bound_slots(|j, _, _| if capped.contains(&j) { step.min(r) } else { r });
        self.solve(false);
        self.install(None);
    }

    /// Folds one sampling interval's blocking-rate measurements into the
    /// model at the connections' current weights.
    ///
    /// Every sample is recorded, including (EWMA-smoothed) zeros. Zero
    /// observations are what let a throttled connection *recover*: the
    /// paper's Figure 8 describes the climb back to an even distribution as
    /// "slow because its function still indicates that blocking is probable
    /// at higher allocation weights, and the new data is slowly changing
    /// that function" — without recording no-blocking rounds, stale
    /// pessimism at or below the current weight would never erode (the
    /// exploration decay only touches weights *above* it). A zero into an
    /// idle slot's all-zero function at an unchanged weight is counted in
    /// place ([`BlockingRateFunction::observe`]), so a wide region's idle
    /// majority costs a compare per slot.
    ///
    /// A sample for a detached slot is skipped before its rate is read.
    /// Inlined, so a caller may pass one sample per call as it reads its
    /// rates, without collecting them first (as
    /// `ControlPlane::round` does).
    ///
    /// # Panics
    ///
    /// Panics if a sample's connection index is out of bounds.
    #[inline]
    pub fn observe(&mut self, samples: &[ConnectionSample]) {
        for s in samples {
            let j = s.connection;
            assert!(
                j < self.cfg.connections,
                "sample for unknown connection {j}"
            );
            if !self.attached[j] {
                // A detached slot receives no traffic; any residual sample
                // (e.g. a blocked span straddling the detach) would poison
                // the fresh function the slot gets on re-attach.
                continue;
            }
            let rate = s.rate.value();
            let f = &mut self.functions[j];
            f.observe(self.weights.units()[j], rate);
            self.idle[j] = f.is_all_zero()
                && (self.idle[j] || {
                    // Back to idle after `function_mut` only while the
                    // slot's cached knee (if any) is the function's own.
                    let knee_gen = self.scratch.knee_gen[j];
                    knee_gen == u64::MAX || knee_gen == f.generation()
                });
            self.pending_rates[j] = rate;
        }
    }

    /// Runs one optimization round and installs the new weights.
    ///
    /// Until the first real observation arrives every function reads 0 and
    /// every frontier is `R`, so the solve's tie order deals the even split
    /// over the attached slots (with no data every allocation is equally
    /// "optimal", and an even split is the only defensible prior).
    pub fn rebalance(&mut self) -> &WeightVector {
        self.begin_round();
        self.decay();
        let partition = self.partition();
        self.bound(partition.as_ref());
        let assigned = self.solve(partition.is_some());
        if let Some(clustering) = &partition {
            self.expand(clustering, assigned);
        }
        self.install(partition);
        self.trace_round();
        &self.weights
    }

    /// Stage 1: counts the round and snapshots the weights it starts from.
    fn begin_round(&mut self) {
        self.round += 1;
        self.last_outcome = None;
        let before = &mut self.scratch.weights_before;
        before.clear();
        before.extend_from_slice(self.weights.units());
    }

    /// Stage 2 (adaptive mode only): the exploration decay — every function
    /// forgets a share of what it believes above its current weight. An
    /// idle slot is skipped: 0 × `decay` is 0.
    fn decay(&mut self) {
        let BalancerMode::Adaptive { decay } = self.cfg.mode else {
            return;
        };
        for (j, f) in self.functions.iter_mut().enumerate() {
            if !self.idle[j] {
                f.decay_above(self.weights.units()[j], decay);
            }
        }
        if let Some(trace) = &self.trace {
            trace.push(TraceEvent::Decay {
                round: self.round,
                decay,
            });
        }
    }

    /// Stage 3: the partition of the live slots this round solves over, or
    /// `None` when it solves per slot. Clustering activates on the *live*
    /// membership, not the configured width: detaches can drop a wide
    /// region below the threshold (back to the per-slot solve) and
    /// attaches can push it over again.
    ///
    /// The previous partition is reused unless something can have changed.
    /// `last_clusters` is cleared by every membership change, so `Some`
    /// implies the previous round clustered this exact live set; with no
    /// knee moved either, the partition is identical by construction (the
    /// pooled solve still runs — member data changes every round even when
    /// knees do not). Otherwise the live slots are clustered again, which
    /// costs an agglomeration over their *distinct* feature vectors only.
    fn partition(&mut self) -> Option<Clustering> {
        let threshold = self
            .cfg
            .clustering
            .filter(|c| self.live_connections() >= c.min_connections)?
            .distance_threshold;
        let knee_moved = self.refresh_knees();
        let scratch = &mut self.scratch;
        match self.last_clusters.take() {
            Some(prev) if !knee_moved => {
                debug_assert_eq!(scratch.clusters_gen, self.membership_gen);
                self.last_outcome = Some(ClusterOutcome::Reused);
                Some(prev)
            }
            prev => {
                let mut fresh = std::mem::take(&mut scratch.spare_clusters);
                let distinct = scratch.cluster_scratch.cluster_features(
                    &scratch.live,
                    &scratch.feat,
                    threshold,
                    &mut fresh,
                );
                self.last_outcome = Some(ClusterOutcome::Full {
                    live: scratch.live.len(),
                    distinct,
                });
                let changed = match prev {
                    Some(mut prev) => {
                        let changed = fresh.assignment != prev.assignment;
                        scratch.cluster_scratch.recycle(&mut prev.members);
                        prev.assignment.clear();
                        scratch.spare_clusters = prev;
                        changed
                    }
                    None => true,
                };
                if let (true, Some(trace)) = (changed, &self.trace) {
                    trace.push(TraceEvent::ClusterUpdate {
                        round: self.round,
                        assignment: fresh.assignment.clone(),
                    });
                }
                Some(fresh)
            }
        }
    }

    /// Brings the live-slot list and every live slot's knee up to date;
    /// returns whether a knee *value* changed. Each live function whose
    /// generation moved gets a fresh knee from point queries on its fit.
    /// An idle slot's all-zero function keeps its generation, so once its
    /// knee is taken the slot is skipped on its flag alone, without
    /// reading the function; only the slots that have blocked are
    /// re-kneed. Under per-round decay their generations move every round,
    /// and comparing knee values is what lets an unmoved partition be
    /// reused.
    fn refresh_knees(&mut self) -> bool {
        let scratch = &mut self.scratch;
        // Keyed on the membership generation, so rounds with detached slots
        // do not rebuild the index list either.
        if scratch.live_gen != self.membership_gen {
            scratch.live.clear();
            scratch
                .live
                .extend((0..self.cfg.connections).filter(|&j| self.attached[j]));
            scratch.live_gen = self.membership_gen;
        }
        let mut knee_moved = false;
        for &j in &scratch.live {
            if self.idle[j] && scratch.knee_gen[j] != u64::MAX {
                debug_assert_eq!(
                    self.functions[j].generation(),
                    scratch.knee_gen[j],
                    "idle slot {j} has a stale knee"
                );
                continue;
            }
            let f = &mut self.functions[j];
            let gen = f.generation();
            if scratch.knee_gen[j] == gen {
                continue;
            }
            let fresh = cluster::knee_of_function(f);
            let never = scratch.knee_gen[j] == u64::MAX;
            scratch.knee_gen[j] = gen;
            if never || fresh != scratch.knees[j] {
                scratch.knees[j] = fresh;
                scratch.feat[j] = cluster::log_features(&fresh, self.cfg.resolution);
                knee_moved = true;
            }
        }
        knee_moved
    }

    /// Stage 4: this round's solver items — one per slot, or one per
    /// cluster of `partition` — each bounded by [`explore_upper`].
    fn bound(&mut self, partition: Option<&Clustering>) {
        let (r, step) = (self.cfg.resolution, self.cfg.exploration_step);
        match partition {
            None => self.bound_slots(|_, frontier, w| explore_upper(frontier, w, step, r)),
            Some(clustering) => self.bound_clusters(clustering),
        }
    }

    /// One solver item per connection slot: detached slots are pinned at
    /// `[0, 0]` (they hold no units and the solver may not grant them any),
    /// attached slot `j` gets `[0, upper(j, frontier, current weight)]` and
    /// its clean frontier as tie priority. The frontier is bisected on
    /// point queries of the slot's fit; an idle slot's all-zero function
    /// keeps its one-knot fit, on which the search ends at `R` after one
    /// query. The plain round and `renormalize_membership` share it.
    fn bound_slots(&mut self, upper: impl Fn(usize, u32, u32) -> u32) {
        let r = self.cfg.resolution;
        let scratch = &mut self.scratch;
        scratch.clear_items();
        for (j, &w) in self.weights.units().iter().enumerate() {
            if self.attached[j] {
                let frontier = clean_frontier(self.functions[j].fit(), r);
                scratch.push_item(upper(j, frontier, w), 1, frontier);
            } else {
                scratch.push_item(0, 1, 0);
            }
        }
    }

    /// One solver item per cluster: member data is pooled into one fit
    /// (in-place PAVA refit, bit-identical to `aggregate_functions`), read
    /// by the same first-crossing search the slots use, and granting the
    /// cluster one unit of per-connection weight consumes `size` units of
    /// resource. The weight a cluster may always keep is its best-served
    /// member's; a cluster whose frontier is `R` (an idle cluster's zero
    /// fit) may take every unit, so its members' weights are not read.
    fn bound_clusters(&mut self, clustering: &Clustering) {
        let (r, step) = (self.cfg.resolution, self.cfg.exploration_step);
        let scratch = &mut self.scratch;
        scratch.clear_items();
        for (c, members) in clustering.members.iter().enumerate() {
            let fit = scratch.agg.pool(c, &self.functions, &self.idle, members);
            let frontier = clean_frontier(fit, r);
            let upper = if frontier == r {
                r
            } else {
                let units = self.weights.units();
                let keep = members.iter().map(|&m| units[m]).max().unwrap_or(0);
                explore_upper(frontier, keep, step, r)
            };
            scratch.push_item(upper, members.len() as u32, frontier);
        }
    }

    /// Stage 5: Fox's greedy over the items the bound stage left in the
    /// scratch, into `scratch.fox.weights`; returns the units assigned.
    /// Every item is read by point query: slot items on their functions'
    /// fits, cluster items on their pooled fits. Slot items are marked
    /// with the idle flags: an idle slot's all-zero function reads `+0.0`
    /// at every weight, and [`bound_slots`](Self::bound_slots) gives every
    /// attached one lower bound 0, multiplicity 1 and its frontier `R` as
    /// priority, so Fox deals their tied units without the heap (a
    /// detached slot's `[0, 0]` takes none whatever its flag).
    fn solve(&mut self, pooled: bool) -> u64 {
        let scratch = &mut self.scratch;
        let functions = &mut self.functions;
        let limits = Limits {
            resolution: self.cfg.resolution,
            lower: &scratch.lower,
            upper: &scratch.upper,
            multiplicity: &scratch.mult,
            tie_priority: &scratch.priority,
            idle: if pooled { &[] } else { &self.idle },
        };
        if pooled {
            let fits = scratch.agg.fits();
            fox::greedy(&limits, |c, w| fits[c].value(w), &mut scratch.fox)
        } else {
            fox::greedy(&limits, |j, w| functions[j].value(w), &mut scratch.fox)
        }
    }

    /// Stage 6 (clusters only): expands per-cluster weights to the members
    /// in `scratch.units_tmp` and hands out the remainder (less than the
    /// largest cluster) unit by unit, cheapest marginal cluster first.
    fn expand(&mut self, clustering: &Clustering, assigned: u64) {
        let r = self.cfg.resolution;
        let scratch = &mut self.scratch;
        scratch.units_tmp.fill(0);
        for (c, members) in clustering.members.iter().enumerate() {
            for &m in members {
                scratch.units_tmp[m] = scratch.fox.weights[c];
            }
        }
        let mut remainder = (u64::from(r) - assigned) as u32;
        if remainder == 0 {
            return;
        }
        scratch.corder.clear();
        scratch.corder.extend(0..clustering.members.len());
        let (fits, priority, weights) =
            (scratch.agg.fits(), &scratch.priority, &scratch.fox.weights);
        scratch.corder.sort_unstable_by(|&a, &b| {
            let mut next = |c: usize| fits[c].value((weights[c] + 1).min(r));
            next(a)
                .total_cmp(&next(b))
                .then(priority[b].cmp(&priority[a]))
                .then(a.cmp(&b))
        });
        'outer: for &c in &scratch.corder {
            for &m in &clustering.members[c] {
                if remainder == 0 {
                    break 'outer;
                }
                if scratch.units_tmp[m] < r {
                    scratch.units_tmp[m] += 1;
                    remainder -= 1;
                }
            }
        }
    }

    /// Stage 7: installs the solved units — per slot straight from the
    /// solver, per cluster from the expansion — and records the partition
    /// they were solved over.
    fn install(&mut self, partition: Option<Clustering>) {
        let units = match partition {
            Some(_) => &self.scratch.units_tmp,
            None => &self.scratch.fox.weights,
        };
        self.weights
            .copy_from_units(units)
            .expect("bounds that let every item keep its weight always fit R units");
        if partition.is_some() {
            self.scratch.clusters_gen = self.membership_gen;
        }
        self.last_clusters = partition;
    }

    /// Stage 8: the round's trace events — an [`Exploration`] per slot a
    /// per-slot solve pushed past its clean frontier (the controller
    /// probing predicted-blocking territory), then the [`ControllerRound`]
    /// itself — and the reset of the rates it reported.
    ///
    /// [`Exploration`]: TraceEvent::Exploration
    /// [`ControllerRound`]: TraceEvent::ControllerRound
    fn trace_round(&mut self) {
        let scratch = &mut self.scratch;
        if let Some(trace) = &self.trace {
            if self.last_clusters.is_none() {
                let after = self.weights.units();
                for (j, (&old, &new)) in scratch.weights_before.iter().zip(after).enumerate() {
                    if new > old && u64::from(new) > scratch.priority[j] {
                        trace.push(TraceEvent::Exploration {
                            round: self.round,
                            connection: j,
                            from: old,
                            to: new,
                        });
                    }
                }
            }
            // Assemble the round event from recycled vectors (reclaimed
            // below from whatever the ring evicts) rather than fresh ones.
            let mut rates = scratch.spare_rates.pop().unwrap_or_default();
            rates.clear();
            rates.extend_from_slice(&self.pending_rates);
            let mut weights_before = scratch.spare_units.pop().unwrap_or_default();
            weights_before.clear();
            weights_before.extend_from_slice(&scratch.weights_before);
            let mut weights_after = scratch.spare_units.pop().unwrap_or_default();
            weights_after.clear();
            weights_after.extend_from_slice(self.weights.units());
            if let Some(TraceEvent::ControllerRound {
                rates: r,
                weights_before: wb,
                weights_after: wa,
                ..
            }) = trace.push_evicting(TraceEvent::ControllerRound {
                round: self.round,
                rates,
                weights_before,
                weights_after,
            }) {
                scratch.spare_rates.push(r);
                scratch.spare_units.push(wb);
                scratch.spare_units.push(wa);
            }
        }
        self.pending_rates.fill(0.0);
    }
}

/// The largest weight in `0..=r` at which `fit` (monotone) still forecasts
/// no blocking, found by bisection on point queries.
fn clean_frontier(fit: &mut MonotoneFit, r: u32) -> u32 {
    // Weight 0 never blocks, so a first blocking weight is >= 1.
    cluster::first_blocking_weight(fit, r).map_or(r, |w| w - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::ConnectionSample;
    use crate::solver::Problem;
    use crate::DELTA;

    fn balancer(n: usize) -> LoadBalancer {
        LoadBalancer::new(BalancerConfig::builder(n).build().unwrap())
    }

    #[test]
    fn starts_even() {
        let lb = balancer(4);
        assert_eq!(lb.weights().units(), &[250, 250, 250, 250]);
    }

    #[test]
    fn no_data_keeps_even_split() {
        let mut lb = balancer(3);
        for _ in 0..5 {
            lb.rebalance();
        }
        assert_eq!(lb.weights().units(), &[334, 333, 333]);
    }

    #[test]
    fn all_zero_rates_keep_even_split() {
        let mut lb = balancer(3);
        lb.observe(&[
            ConnectionSample::new(0, 0.0),
            ConnectionSample::new(1, 0.0),
            ConnectionSample::new(2, 0.0),
        ]);
        lb.rebalance();
        assert_eq!(lb.weights().units(), &[334, 333, 333]);
    }

    #[test]
    fn zero_rates_are_recorded() {
        let mut lb = balancer(3);
        lb.observe(&[ConnectionSample::new(0, 0.0)]);
        assert_eq!(lb.function(0).raw_len(), 2, "zero sample recorded");
    }

    #[test]
    fn overloaded_connection_is_throttled() {
        let mut lb = balancer(3);
        lb.observe(&[ConnectionSample::new(0, 0.9)]);
        lb.rebalance();
        // The paper: "our model decides to change its allocation weight to 0".
        assert_eq!(lb.weights().units()[0], 0);
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
    }

    #[test]
    fn weights_always_sum_to_resolution() {
        let mut lb = balancer(5);
        for round in 0..50u32 {
            let conn = (round % 5) as usize;
            lb.observe(&[ConnectionSample::new(conn, 0.1 + 0.01 * round as f64)]);
            lb.rebalance();
            assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        }
    }

    #[test]
    fn static_mode_never_recovers() {
        let cfg = BalancerConfig::builder(2)
            .mode(BalancerMode::Static)
            .build()
            .unwrap();
        let mut lb = LoadBalancer::new(cfg);
        lb.observe(&[ConnectionSample::new(0, 0.9)]);
        lb.rebalance();
        let throttled = lb.weights().units()[0];
        // Many silent rounds: without decay nothing changes.
        for _ in 0..200 {
            lb.rebalance();
        }
        assert_eq!(lb.weights().units()[0], throttled);
    }

    #[test]
    fn adaptive_mode_reexplores_after_load_removal() {
        // Simulated physics: connection 0 starts 100x loaded (it blocks
        // severely at any real weight), then the load disappears. After
        // removal connection 0 never blocks again, while connection 1 keeps
        // blocking whenever it carries more than 60% of the traffic. The
        // adaptive decay must erode connection 0's stale severe function and
        // hand its capacity back; the static variant must not.
        let run = |mode: BalancerMode| {
            let cfg = BalancerConfig::builder(2).mode(mode).build().unwrap();
            let mut lb = LoadBalancer::new(cfg);
            // While loaded: conn 0 blocks hard at its even share.
            for _ in 0..5 {
                lb.observe(&[ConnectionSample::new(0, 2.0)]);
                lb.rebalance();
            }
            // Load removed; conn 1 pushes back when oversubscribed.
            for _ in 0..300 {
                if lb.weights().units()[1] > 600 {
                    lb.observe(&[ConnectionSample::new(1, 0.3)]);
                }
                lb.rebalance();
            }
            lb.weights().units()[0]
        };
        let adaptive = run(BalancerMode::Adaptive { decay: 0.9 });
        let static_ = run(BalancerMode::Static);
        assert!(
            adaptive >= 300,
            "adaptive should hand most capacity back, got {adaptive}"
        );
        assert!(
            adaptive > static_,
            "adaptive ({adaptive}) must recover more than static ({static_})"
        );
    }

    #[test]
    fn observation_is_recorded_at_current_weight() {
        let mut lb = balancer(2);
        lb.observe(&[ConnectionSample::new(1, 0.4)]);
        let pts: Vec<(u32, f64)> = lb.function(1).raw_points().collect();
        assert_eq!(pts, vec![(0, 0.0), (500, 0.4)]);
    }

    #[test]
    fn clustering_activates_at_threshold() {
        let cfg = BalancerConfig::builder(32)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let mut lb = LoadBalancer::new(cfg);
        // Half the connections report severe blocking.
        for j in 0..16 {
            lb.observe(&[ConnectionSample::new(j, 0.8)]);
        }
        lb.rebalance();
        let clusters = lb.last_clusters().expect("clustering should be active");
        assert!(clusters.num_clusters() >= 2);
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        // Loaded connections share a cluster distinct from unloaded ones.
        let a = clusters.assignment[0];
        assert!((0..16).all(|j| clusters.assignment[j] == a));
        assert!((16..32).all(|j| clusters.assignment[j] != a));
    }

    #[test]
    fn clustering_below_threshold_is_plain() {
        let cfg = BalancerConfig::builder(4)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let mut lb = LoadBalancer::new(cfg);
        lb.observe(&[ConnectionSample::new(0, 0.5)]);
        lb.rebalance();
        assert!(lb.last_clusters().is_none());
    }

    #[test]
    fn trace_records_rounds_decay_and_rates() {
        use streambal_telemetry::{TraceBuffer, TraceEvent};
        let mut lb = balancer(2);
        let trace = TraceBuffer::with_capacity(64);
        lb.attach_trace(trace.clone());
        lb.observe(&[ConnectionSample::new(0, 0.9)]);
        lb.rebalance();
        let events = trace.events();
        assert!(events.iter().any(
            |e| matches!(e, TraceEvent::Decay { round: 1, decay } if (decay - 0.9).abs() < 1e-12)
        ));
        let round = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::ControllerRound {
                    round,
                    rates,
                    weights_before,
                    weights_after,
                } => Some((
                    round,
                    rates.clone(),
                    weights_before.clone(),
                    weights_after.clone(),
                )),
                _ => None,
            })
            .expect("controller round recorded");
        assert_eq!(*round.0, 1);
        assert_eq!(round.1, vec![0.9, 0.0]);
        assert_eq!(round.2, vec![500, 500]);
        assert_eq!(round.3, lb.weights().units());
        // Pending rates reset between rounds.
        lb.rebalance();
        let last = trace.events().into_iter().last().unwrap();
        assert!(matches!(
            last,
            TraceEvent::ControllerRound { ref rates, .. } if rates == &vec![0.0, 0.0]
        ));
    }

    #[test]
    fn trace_records_cluster_updates_once_per_change() {
        use streambal_telemetry::{TraceBuffer, TraceEvent};
        let cfg = BalancerConfig::builder(32)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let mut lb = LoadBalancer::new(cfg);
        let trace = TraceBuffer::with_capacity(1024);
        lb.attach_trace(trace.clone());
        for j in 0..16 {
            lb.observe(&[ConnectionSample::new(j, 0.8)]);
        }
        lb.rebalance();
        lb.rebalance(); // same assignment: no second ClusterUpdate
        let updates: Vec<_> = trace
            .events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::ClusterUpdate { .. }))
            .collect();
        assert_eq!(updates.len(), 1);
        if let TraceEvent::ClusterUpdate { assignment, .. } = &updates[0] {
            assert_eq!(assignment.len(), 32);
        }
    }

    #[test]
    fn check_invariants_holds_across_noisy_rounds() {
        let mut lb = LoadBalancer::new(BalancerConfig::builder(4).build().unwrap());
        let mut rng = crate::rng::SplitMix64::new(0xC0DE_0C1A);
        for _ in 0..200 {
            let samples: Vec<ConnectionSample> = (0..4)
                .map(|j| ConnectionSample::new(j, rng.frange(0.0, 1.0)))
                .collect();
            lb.observe(&samples);
            lb.rebalance();
            lb.check_invariants().expect("healthy balancer");
        }
    }

    #[test]
    fn check_predicted_reports_bad_curves() {
        // A decreasing or non-finite curve cannot come out of PAVA; drive
        // the checker directly to prove it would be seen if one did.
        assert_eq!(
            check_predicted(1, [0.1, 0.3, 0.2]),
            Err(InvariantViolation::NonMonotoneFunction {
                connection: 1,
                weight: 2
            })
        );
        assert!(matches!(
            check_predicted(0, [0.0, f64::NAN]),
            Err(InvariantViolation::NonFiniteFunction {
                connection: 0,
                weight: 1,
                ..
            })
        ));
        assert!(check_predicted(0, [0.0, 0.0, 0.5, 1.0]).is_ok());
    }

    #[test]
    fn trace_smaller_than_one_round_keeps_newest_events() {
        // Satellite: a trace buffer smaller than one round's event volume
        // must evict oldest-first and account for every drop.
        let mut lb = LoadBalancer::new(BalancerConfig::builder(3).build().unwrap());
        let trace = TraceBuffer::with_capacity(2);
        lb.attach_trace(trace.clone());
        for _ in 0..5 {
            lb.observe(&[
                ConnectionSample::new(0, 0.6),
                ConnectionSample::new(1, 0.2),
                ConnectionSample::new(2, 0.1),
            ]);
            lb.rebalance();
        }
        let records = trace.records();
        assert_eq!(records.len(), 2, "capacity bounds the ring");
        assert!(trace.dropped() > 0, "smaller-than-round buffer must drop");
        // The survivors are the newest events: sequence numbers keep
        // counting across evictions and end at the last pushed event.
        let total_pushed = trace.dropped() + records.len() as u64;
        assert_eq!(records.last().unwrap().seq, total_pushed - 1);
        assert_eq!(records[0].seq + 1, records[1].seq);
    }

    #[test]
    fn detach_renormalizes_the_highest_weight_connection_away() {
        // Throttle connections 0 and 1 so connection 2 carries the most
        // weight, then detach the heaviest slot: its units must be handed
        // back to the survivors in the same call, never leaving the
        // simplex, and its retired function must not leak knowledge.
        let mut lb = balancer(3);
        for _ in 0..5 {
            lb.observe(&[
                ConnectionSample::new(0, 0.6),
                ConnectionSample::new(1, 0.4),
                ConnectionSample::new(2, 0.0),
            ]);
            lb.rebalance();
        }
        let heaviest = (0..3)
            .max_by_key(|&j| lb.weights().units()[j])
            .expect("non-empty");
        assert!(lb.detach_connection(heaviest));
        assert!(!lb.is_attached(heaviest));
        assert_eq!(lb.weights().units()[heaviest], 0);
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        assert_eq!(lb.function(heaviest).raw_len(), 1, "function retired");
        lb.check_invariants().expect("simplex holds after detach");
        // Re-detaching is a no-op; later rounds keep the slot pinned.
        assert!(!lb.detach_connection(heaviest));
        for _ in 0..10 {
            lb.observe(&[ConnectionSample::new(heaviest, 0.5)]); // ignored
            lb.rebalance();
            assert_eq!(lb.weights().units()[heaviest], 0);
            lb.check_invariants().expect("pinned slot stays at zero");
        }
    }

    #[test]
    fn detach_down_to_a_single_connection() {
        let mut lb = balancer(4);
        lb.observe(&[ConnectionSample::new(0, 0.3)]);
        lb.rebalance();
        for j in [0, 1, 2] {
            assert!(lb.detach_connection(j));
        }
        assert_eq!(lb.live_connections(), 1);
        assert_eq!(lb.weights().units(), &[0, 0, 0, 1000]);
        lb.rebalance();
        assert_eq!(lb.weights().units(), &[0, 0, 0, 1000]);
    }

    #[test]
    #[should_panic(expected = "last attached connection")]
    fn detaching_the_last_connection_panics() {
        let mut lb = balancer(2);
        lb.detach_connection(0);
        lb.detach_connection(1);
    }

    #[test]
    fn attach_starts_exploration_bounded_and_earns_its_share() {
        let mut lb = balancer(3);
        for _ in 0..3 {
            lb.observe(&[
                ConnectionSample::new(0, 0.0),
                ConnectionSample::new(1, 0.0),
                ConnectionSample::new(2, 0.0),
            ]);
            lb.rebalance();
        }
        lb.detach_connection(0);
        assert_eq!(lb.weights().units()[0], 0);
        assert!(lb.attach_connection(0));
        assert!(!lb.attach_connection(0), "double attach is a no-op");
        // The newcomer re-enters with at most the exploration step (10
        // units by default), not a full share.
        assert!(
            lb.weights().units()[0] <= 10,
            "attach weight {} must be exploration-bounded",
            lb.weights().units()[0]
        );
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        // With every slot reporting clean rounds it climbs back to a
        // meaningful share instead of staying token.
        for _ in 0..100 {
            lb.observe(&[
                ConnectionSample::new(0, 0.0),
                ConnectionSample::new(1, 0.0),
                ConnectionSample::new(2, 0.0),
            ]);
            lb.rebalance();
            lb.check_invariants().expect("healthy during the climb");
        }
        assert!(
            lb.weights().units()[0] > 100,
            "reattached connection stuck at {}",
            lb.weights().units()[0]
        );
    }

    #[test]
    fn attach_and_detach_in_the_same_round() {
        let mut lb = balancer(4);
        for _ in 0..3 {
            lb.observe(&[
                ConnectionSample::new(0, 0.5),
                ConnectionSample::new(1, 0.1),
                ConnectionSample::new(2, 0.0),
                ConnectionSample::new(3, 0.0),
            ]);
            lb.rebalance();
        }
        lb.detach_connection(2);
        // Same control round: one member leaves, another (previously
        // detached) returns, with no rebalance in between.
        lb.detach_connection(3);
        lb.attach_connection(2);
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        assert_eq!(lb.weights().units()[3], 0);
        assert!(lb.weights().units()[2] <= 10);
        lb.check_invariants().expect("simplex after paired change");
        lb.observe(&[
            ConnectionSample::new(0, 0.5),
            ConnectionSample::new(1, 0.1),
            ConnectionSample::new(2, 0.0),
        ]);
        lb.rebalance();
        assert_eq!(lb.weights().units()[3], 0);
        lb.check_invariants().expect("simplex on the next round");
    }

    /// The largest gap between two incumbents' units (attached slots not
    /// in `capped`).
    fn incumbent_spread(lb: &LoadBalancer, capped: &[usize]) -> u32 {
        let incumbents = || {
            (0..lb.config().connections())
                .filter(|&j| lb.is_attached(j) && !capped.contains(&j))
                .map(|j| lb.weights().units()[j])
        };
        incumbents().max().unwrap() - incumbents().min().unwrap()
    }

    #[test]
    fn a_pre_data_admission_is_dealt_by_the_solve() {
        // Before any data every slot is idle and the solve deals the units
        // level by level: the newcomer stops at the exploration step and
        // the incumbents split the rest evenly.
        let mut lb = balancer(12);
        lb.detach_connection(1);
        lb.attach_connection(1);
        let mut want = vec![90; 12];
        want[1] = 10;
        assert_eq!(lb.weights().units(), want);

        let mut lb = balancer(2);
        assert_eq!(lb.grow(1), 2..3);
        assert_eq!(lb.weights().units(), &[495, 495, 10]);

        for width in 2..=40 {
            for added in 1..=4 {
                let mut lb = balancer(width);
                let capped: Vec<usize> = lb.grow(added).collect();
                let spread = incumbent_spread(&lb, &capped);
                assert!(spread <= 1, "grow {width}+{added}: spread {spread}");
            }
            for j in [0, width / 2, width - 1] {
                let mut lb = balancer(width);
                lb.detach_connection(j);
                lb.attach_connection(j);
                let spread = incumbent_spread(&lb, &[j]);
                assert!(spread <= 1, "attach {j} of {width}: spread {spread}");
            }
        }
    }

    #[test]
    fn membership_crosses_the_clustering_threshold_both_ways() {
        // 33 connections with the default >=32 threshold: detaching two
        // drops the live membership to 31 (plain solve, no clusters);
        // re-attaching one crosses back up to 32 (clustered again, with
        // the still-detached slot excluded and pinned at zero).
        let cfg = BalancerConfig::builder(33)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let mut lb = LoadBalancer::new(cfg);
        let feed = |lb: &mut LoadBalancer| {
            for j in 0..33 {
                if lb.is_attached(j) {
                    let rate = if j < 16 { 0.8 } else { 0.0 };
                    lb.observe(&[ConnectionSample::new(j, rate)]);
                }
            }
        };
        feed(&mut lb);
        lb.rebalance();
        let clusters = lb.last_clusters().expect("33 live: clustering active");
        assert!(clusters.assignment.iter().all(|&c| c != usize::MAX));

        lb.detach_connection(0);
        lb.detach_connection(32);
        feed(&mut lb);
        lb.rebalance();
        assert!(
            lb.last_clusters().is_none(),
            "31 live connections must fall back to the plain solve"
        );
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);

        lb.attach_connection(0);
        feed(&mut lb);
        lb.rebalance();
        let clusters = lb.last_clusters().expect("32 live: clustered again");
        assert_eq!(
            clusters.assignment[32],
            usize::MAX,
            "detached slot unclustered"
        );
        assert_eq!(lb.weights().units()[32], 0);
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        assert!(clusters.members.iter().flatten().all(|&m| m != 32));
        lb.check_invariants()
            .expect("clustered round with a detached slot stays on the simplex");
    }

    #[test]
    fn clustered_round_with_unmoved_knees_reuses_the_partition() {
        use streambal_telemetry::{TraceBuffer, TraceEvent};
        // Static mode: with no new samples the function generations do not
        // move, so follow-up rounds must take the reuse path — the prior
        // partition verbatim, and no further ClusterUpdate events.
        let cfg = BalancerConfig::builder(32)
            .mode(BalancerMode::Static)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let mut lb = LoadBalancer::new(cfg);
        let trace = TraceBuffer::with_capacity(1024);
        lb.attach_trace(trace.clone());
        for j in 0..16 {
            lb.observe(&[ConnectionSample::new(j, 0.8)]);
        }
        lb.rebalance();
        let first = lb.last_clusters().expect("clustered").clone();
        for _ in 0..10 {
            lb.rebalance();
            let again = lb.last_clusters().expect("still clustered");
            assert_eq!(first.assignment, again.assignment);
            assert_eq!(first.members, again.members);
        }
        let updates = trace
            .events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::ClusterUpdate { .. }))
            .count();
        assert_eq!(updates, 1, "reused partitions must not re-trace");
    }

    /// The partition the retained matrix entry gives for `lb`'s live slots:
    /// dense-table knees, a condensed matrix over the live slots only,
    /// `cluster_condensed`, mapped back to slot indices.
    fn matrix_form_clusters(lb: &mut LoadBalancer, threshold: f64) -> Clustering {
        let n = lb.cfg.connections;
        let r = lb.cfg.resolution;
        let live: Vec<usize> = (0..n).filter(|&j| lb.is_attached(j)).collect();
        let feat: Vec<[f64; 3]> = live
            .iter()
            .map(|&j| cluster::log_features(&cluster::knee_of(&lb.function_mut(j).predicted()), r))
            .collect();
        let mut condensed = vec![0.0; cluster::condensed_len(live.len())];
        cluster::fill_condensed(&feat, &mut condensed);
        let mut packed = Clustering::default();
        ClusterScratch::new().cluster_condensed(live.len(), &condensed, threshold, &mut packed);
        let mut assignment = vec![usize::MAX; n];
        for (p, &j) in live.iter().enumerate() {
            assignment[j] = packed.assignment[p];
        }
        let members = packed
            .members
            .iter()
            .map(|ms| ms.iter().map(|&p| live[p]).collect())
            .collect();
        Clustering {
            assignment,
            members,
        }
    }

    #[test]
    fn production_clustering_matches_the_matrix_form_under_churn() {
        // Drive the balancer through quiet rounds (reuse path), knee
        // movement and membership churn (distinct-vector recluster), and
        // after every round cluster the live slots again through the
        // retained matrix entry: the production path must be
        // indistinguishable from a full condensed matrix over every live
        // slot.
        let n = 40;
        let cfg = BalancerConfig::builder(n)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let threshold = ClusteringConfig::default().distance_threshold;
        let mut lb = LoadBalancer::new(cfg);
        let mut rng = crate::rng::SplitMix64::new(0x1BC2_E57A);
        let tier = |j: usize| match j % 3 {
            0 => 0.0,
            1 => 0.05,
            _ => 0.8,
        };
        let mut full = 0;
        for round in 0..120 {
            match round {
                40 => {
                    lb.detach_connection(5);
                }
                41 => {
                    lb.detach_connection(17);
                }
                70 => {
                    lb.attach_connection(5);
                }
                _ => {}
            }
            for j in 0..n {
                if !lb.is_attached(j) {
                    continue;
                }
                // Mostly settled tiers; occasional perturbations move a few
                // knees per round.
                let rate = if rng.frange(0.0, 1.0) < 0.15 {
                    rng.frange(0.0, 1.0)
                } else {
                    tier(j)
                };
                lb.observe(&[ConnectionSample::new(j, rate)]);
            }
            lb.rebalance();
            lb.check_invariants().expect("healthy clustered balancer");
            assert_idle_slots_are_all_zero(&lb);
            match lb.last_cluster_outcome().expect("clustering stays active") {
                ClusterOutcome::Reused => {}
                ClusterOutcome::Full { live, distinct } => {
                    full += 1;
                    assert_eq!(live, lb.live_connections());
                    assert!((1..=live).contains(&distinct));
                }
            }
            let want = matrix_form_clusters(&mut lb, threshold);
            let got = lb.last_clusters().expect("clustering stays active");
            assert_eq!(got.assignment, want.assignment, "round {round}");
            assert_eq!(got.members, want.members, "round {round}");
        }
        assert!(full > 0, "the churn must exercise the recluster");
    }

    /// The largest weight at which a dense predicted table still forecasts
    /// no blocking: the oracle for the bisected [`clean_frontier`].
    fn dense_clean_frontier(predicted: &[f64]) -> u32 {
        predicted.iter().rposition(|&v| v <= DELTA).unwrap_or(0) as u32
    }

    #[test]
    fn bisected_clean_frontier_matches_the_dense_table() {
        let mut rng = crate::rng::SplitMix64::new(0xF20_4713);
        for case in 0..300u32 {
            let resolution = [100, 1000, 4096][(case % 3) as usize];
            let mut f = BlockingRateFunction::new(resolution, 0.5);
            for _ in 0..rng.range_usize(0, 12) {
                // Zero, sub-DELTA and substantial rates, so crossings land
                // on every side of the noise floor — or nowhere.
                let rate = match rng.range_usize(0, 3) {
                    0 => 0.0,
                    1 => DELTA * 0.4,
                    2 => rng.frange(0.0, 0.01),
                    _ => rng.frange(0.0, 10.0),
                };
                f.observe(rng.range_u32(1, resolution), rate);
                if rng.range_usize(0, 2) == 0 {
                    f.decay_above(rng.range_u32(0, resolution), 0.9);
                }
            }
            let fast = clean_frontier(f.fit(), resolution);
            assert_eq!(fast, dense_clean_frontier(&f.predicted()), "case {case}");
        }
    }

    /// Every idle slot's function is all-zero: the flag's invariant.
    fn assert_idle_slots_are_all_zero(lb: &LoadBalancer) {
        for (j, f) in lb.functions.iter().enumerate() {
            assert!(
                !lb.idle[j] || f.is_all_zero(),
                "slot {j} idle but not all-zero"
            );
        }
    }

    #[test]
    fn an_injected_sample_ends_idleness_like_an_observed_one() {
        // Two clustered balancers with the same history. In round 30 one
        // observes a 0.5 on an idle slot and the other gets it through
        // `function_mut`, after the round's other samples (so no later
        // `observe` of that slot can mend a stale flag). Every round from
        // then on must install the same weights.
        let n = 48;
        let cfg = BalancerConfig::builder(n)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let j = 13;
        let samples = |round: usize| -> Vec<ConnectionSample> {
            (0..n)
                .filter(|&k| round != 30 || k != j)
                .map(|k| {
                    let tier = 0.2 + (round % 3) as f64 * 0.1;
                    ConnectionSample::new(k, if k % 8 == 0 { tier } else { 0.0 })
                })
                .collect()
        };
        let mut observed = LoadBalancer::new(cfg);
        for round in 0..30 {
            observed.observe(&samples(round));
            observed.rebalance();
        }
        let mut injected = observed.clone();
        assert!(injected.idle[j]);
        for round in 30..60 {
            for lb in [&mut observed, &mut injected] {
                lb.observe(&samples(round));
            }
            if round == 30 {
                let w = injected.weights().units()[j];
                injected.function_mut(j).observe(w, 0.5);
                observed.observe(&[ConnectionSample::new(j, 0.5)]);
            }
            for lb in [&mut observed, &mut injected] {
                lb.rebalance();
                assert_idle_slots_are_all_zero(lb);
            }
            assert_eq!(
                observed.weights().units(),
                injected.weights().units(),
                "round {round}"
            );
        }
    }

    #[test]
    fn an_all_zero_function_bounds_at_the_bisected_frontier() {
        // An all-zero function keeps its one-knot axiom fit, on which the
        // bisection finds `R` as the dense table does.
        let mut rng = crate::rng::SplitMix64::new(0x01D1_EF20);
        for resolution in [100, 1000, 4096] {
            let mut f = BlockingRateFunction::new(resolution, 0.5);
            for _ in 0..rng.range_usize(1, 40) {
                let w = rng.range_u32(1, resolution);
                for _ in 0..rng.range_usize(1, 3) {
                    f.observe(w, 0.0);
                }
            }
            assert_eq!(clean_frontier(f.fit(), resolution), resolution);
            assert_eq!(dense_clean_frontier(&f.predicted()), resolution);
        }
    }

    impl LoadBalancer {
        /// The renormalization as it was before the point-query rewrite — dense
        /// predicted tables, cloned, through the allocating [`fox::solve`] —
        /// kept as the oracle [`renormalize_membership`](LoadBalancer::renormalize_membership)
        /// must match unit for unit. Returns the units without installing them.
        fn renormalize_membership_dense(&mut self, capped: &[usize]) -> Vec<u32> {
            let n = self.cfg.connections;
            let r = self.cfg.resolution;
            let step = self.cfg.exploration_step;
            let predicted: Vec<Vec<f64>> = self
                .functions
                .iter_mut()
                .map(BlockingRateFunction::predicted)
                .collect();
            let slices: Vec<&[f64]> = predicted.iter().map(Vec::as_slice).collect();
            let priority: Vec<u64> = predicted
                .iter()
                .map(|p| u64::from(dense_clean_frontier(p)))
                .collect();
            let lower = vec![0; n];
            let upper: Vec<u32> = (0..n)
                .map(|j| {
                    if !self.attached[j] {
                        0
                    } else if capped.contains(&j) {
                        step.min(r)
                    } else {
                        r
                    }
                })
                .collect();
            let problem = Problem::new(slices, r)
                .expect("function domains share the balancer's resolution")
                .with_bounds(lower, upper)
                .expect("membership bounds are within the resolution")
                .with_tie_priority(priority)
                .expect("priority vector matches the connection count");
            fox::solve(&problem)
                .expect("at least one attached slot is unbounded, so R units always fit")
                .weights
        }
    }

    /// Runs `op` (a membership change capping the slots `capped(lb)`
    /// returns) and checks the installed units against the dense oracle,
    /// evaluated on a clone so the balancer under test keeps its own
    /// (unbuilt) tables.
    fn assert_renormalizes_like_the_dense_oracle(
        lb: &mut LoadBalancer,
        what: &str,
        op: impl FnOnce(&mut LoadBalancer) -> Vec<usize>,
    ) {
        let capped = op(lb);
        let want = lb.clone().renormalize_membership_dense(&capped);
        assert_eq!(lb.weights().units(), want, "{what}");
        lb.check_invariants()
            .expect("simplex after membership change");
    }

    #[test]
    fn renormalization_matches_the_dense_oracle_under_churn() {
        // Seeded attach/detach/grow churn, plain (12 slots) and clustered
        // (40 slots, crossing the 32-connection knee both ways): every
        // membership change must install exactly the units the retired
        // dense-table body computes.
        for (n, clustered) in [(12usize, false), (40, true)] {
            let mut b = BalancerConfig::builder(n);
            if clustered {
                b.clustering(ClusteringConfig::default());
            }
            let mut lb = LoadBalancer::new(b.build().unwrap());
            let mut rng = crate::rng::SplitMix64::new(0xD15C_0000 + n as u64);
            // A change before any data is the same solve over idle slots.
            assert_renormalizes_like_the_dense_oracle(&mut lb, "no-data detach", |lb| {
                lb.detach_connection(1);
                vec![]
            });
            assert_renormalizes_like_the_dense_oracle(&mut lb, "no-data attach", |lb| {
                lb.attach_connection(1);
                vec![1]
            });
            for round in 0..400 {
                let width = lb.cfg.connections;
                let r = lb.cfg.resolution;
                for j in 0..width {
                    if !lb.is_attached(j) || rng.frange(0.0, 1.0) < 0.3 {
                        continue;
                    }
                    // Each slot blocks past its own capacity; together the
                    // capacities exceed R, so the clean regions overlap
                    // and the tie priorities decide who gets the units.
                    let cap = (j as u32 * 37 % 11 + 1) * r / (4 * n as u32);
                    let w = lb.weights().units()[j];
                    let rate = if rng.frange(0.0, 1.0) < 0.05 {
                        rng.frange(0.0, 1.0)
                    } else {
                        (f64::from(w.saturating_sub(cap)) / f64::from(r) * 8.0).min(1.0)
                    };
                    lb.observe(&[ConnectionSample::new(j, rate)]);
                }
                lb.rebalance();
                if round % 5 != 0 {
                    continue;
                }
                let what = format!("n={n} round {round}");
                let j = rng.range_usize(0, width - 1);
                if round % 65 == 0 && width + 3 <= 64 {
                    assert_renormalizes_like_the_dense_oracle(&mut lb, &what, |lb| {
                        lb.grow(3).collect()
                    });
                } else if !lb.is_attached(j) {
                    assert_renormalizes_like_the_dense_oracle(&mut lb, &what, |lb| {
                        lb.attach_connection(j);
                        vec![j]
                    });
                } else if lb.live_connections() > n / 2 {
                    assert_renormalizes_like_the_dense_oracle(&mut lb, &what, |lb| {
                        lb.detach_connection(j);
                        vec![]
                    });
                }
            }
        }
    }

    #[test]
    fn renormalization_matches_the_dense_oracle_with_an_idle_majority() {
        // The regime the idle run is for: a clustered plane of 256 slots
        // where only 8 are loaded, two more have seen `-0.0` (not idle: their
        // keys sort before the run's) and every other slot only ever reads
        // `+0.0`. At R = 4096 the run deals some 16 levels, past the
        // newcomers' exploration step of 10, so capped slots leave it early.
        // Seeded detaches, attaches and grows; every membership change must
        // install exactly the units the dense oracle computes.
        let n = 256;
        let cfg = BalancerConfig::builder(n)
            .resolution(4096)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let mut lb = LoadBalancer::new(cfg);
        let mut rng = crate::rng::SplitMix64::new(0x1D1E_2560);
        let mut changes = 0;
        for round in 0..240 {
            let width = lb.cfg.connections;
            let r = lb.cfg.resolution;
            for j in 0..width {
                if !lb.is_attached(j) {
                    continue;
                }
                let rate = match j {
                    0..8 => {
                        let cap = (j as u32 + 1) * r / 64;
                        let w = lb.weights().units()[j];
                        (f64::from(w.saturating_sub(cap)) / f64::from(r) * 8.0).min(1.0)
                    }
                    8..10 => -0.0,
                    _ => 0.0,
                };
                lb.observe(&[ConnectionSample::new(j, rate)]);
            }
            lb.rebalance();
            if round % 3 != 0 {
                continue;
            }
            let idle = (0..width)
                .filter(|&j| lb.is_attached(j) && lb.idle[j])
                .count();
            assert!(idle >= n / 2, "round {round}: only {idle} idle slots");
            let what = format!("round {round}");
            let j = rng.range_usize(0, width - 1);
            changes += 1;
            if round % 45 == 0 && width + 8 <= 320 {
                assert_renormalizes_like_the_dense_oracle(&mut lb, &what, |lb| {
                    lb.grow(8).collect()
                });
            } else if !lb.is_attached(j) {
                assert_renormalizes_like_the_dense_oracle(&mut lb, &what, |lb| {
                    lb.attach_connection(j);
                    vec![j]
                });
            } else if lb.live_connections() > n / 2 {
                assert_renormalizes_like_the_dense_oracle(&mut lb, &what, |lb| {
                    lb.detach_connection(j);
                    vec![]
                });
            } else {
                changes -= 1;
            }
        }
        assert!(changes > 60, "only {changes} membership changes");
    }

    #[test]
    fn a_retired_slot_is_idle_from_its_membership_change_on() {
        // A loaded slot that is detached and re-attached gets a fresh,
        // all-zero function, so it is idle from the detach on: the attach's
        // renormalisation deals it from Fox's idle run, and the next
        // clustered round takes its knee once and then skips it. Both must
        // install what the general path installs.
        let n = 64;
        let cfg = BalancerConfig::builder(n)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let mut lb = LoadBalancer::new(cfg);
        let loaded = 5;
        for _ in 0..20 {
            for j in 0..n {
                let rate = if j == loaded { 0.6 } else { 0.0 };
                lb.observe(&[ConnectionSample::new(j, rate)]);
            }
            lb.rebalance();
        }
        assert!(!lb.idle[loaded]);
        assert_renormalizes_like_the_dense_oracle(&mut lb, "detach", |lb| {
            lb.detach_connection(loaded);
            vec![]
        });
        assert!(lb.idle[loaded], "a detached slot's fresh function is idle");
        assert_renormalizes_like_the_dense_oracle(&mut lb, "attach", |lb| {
            lb.attach_connection(loaded);
            vec![loaded]
        });
        assert!(
            lb.idle[loaded],
            "a re-attached slot's fresh function is idle"
        );
        assert_eq!(lb.scratch.knee_gen[loaded], u64::MAX);
        let mut general = lb.clone();
        general.idle.fill(false);
        for _ in 0..3 {
            for lb in [&mut lb, &mut general] {
                lb.observe(&[ConnectionSample::new(loaded, 0.0)]);
                lb.rebalance();
            }
            assert_eq!(lb.weights().units(), general.weights().units());
            assert_eq!(lb.last_clusters(), general.last_clusters());
            assert_eq!(lb.last_cluster_outcome(), general.last_cluster_outcome());
        }
        assert_eq!(
            lb.scratch.knee_gen[loaded],
            lb.functions[loaded].generation()
        );
        assert_idle_slots_are_all_zero(&lb);
    }

    #[test]
    fn a_function_replaced_through_function_mut_gets_its_own_knee() {
        // Slot 13 blocks, so its knee is taken; then its function is
        // replaced by a fresh one through `function_mut`. Zero samples must
        // not mark it idle while its cached knee is the old function's,
        // or the knee refresh would skip it and keep the loaded knee. The
        // twin re-knees every slot, and both must install the same weights
        // and clusters.
        let n = 48;
        let cfg = BalancerConfig::builder(n)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let mut lb = LoadBalancer::new(cfg);
        let j = 13;
        let rate = |k: usize, round: usize| {
            if k.is_multiple_of(8) || (k == j && round < 30) {
                0.4
            } else {
                0.0
            }
        };
        for round in 0..30 {
            for k in 0..n {
                lb.observe(&[ConnectionSample::new(k, rate(k, round))]);
            }
            lb.rebalance();
        }
        assert!(!lb.idle[j]);
        let fresh = BlockingRateFunction::new(lb.cfg.resolution, SMOOTHING);
        *lb.function_mut(j) = fresh;
        let mut twin = lb.clone();
        twin.scratch.knee_gen.fill(u64::MAX);
        for round in 30..40 {
            for lb in [&mut lb, &mut twin] {
                for k in 0..n {
                    lb.observe(&[ConnectionSample::new(k, rate(k, round))]);
                }
                lb.rebalance();
                assert_idle_slots_are_all_zero(lb);
            }
            assert_eq!(
                lb.weights().units(),
                twin.weights().units(),
                "round {round}"
            );
            assert_eq!(lb.last_clusters(), twin.last_clusters(), "round {round}");
        }
        assert!(lb.idle[j], "idle again once its own knee is taken");
    }

    #[test]
    fn grow_extends_the_simplex_and_admits_bounded_newcomers() {
        let mut lb = balancer(4);
        for _ in 0..3 {
            lb.observe(&[
                ConnectionSample::new(0, 0.4),
                ConnectionSample::new(1, 0.0),
                ConnectionSample::new(2, 0.0),
                ConnectionSample::new(3, 0.0),
            ]);
            lb.rebalance();
        }
        let range = lb.grow(2);
        assert_eq!(range, 4..6);
        assert_eq!(lb.config().connections(), 6);
        assert_eq!(lb.weights().len(), 6);
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        assert_eq!(lb.live_connections(), 6);
        for j in range {
            assert!(lb.is_attached(j));
            assert!(
                lb.weights().units()[j] <= 10,
                "new slot {j} must enter exploration-bounded, got {}",
                lb.weights().units()[j]
            );
        }
        lb.check_invariants().expect("healthy after grow");
        // The grown region keeps balancing: new slots earn a real share.
        for _ in 0..120 {
            for j in 0..6 {
                lb.observe(&[ConnectionSample::new(j, 0.0)]);
            }
            lb.rebalance();
            lb.check_invariants().expect("healthy rounds after grow");
        }
        assert!(
            lb.weights().units()[4] > 50,
            "grown slot stuck at {}",
            lb.weights().units()[4]
        );
    }

    #[test]
    fn shrink_truncates_detached_tail_slots() {
        let mut lb = balancer(3);
        lb.observe(&[ConnectionSample::new(0, 0.2)]);
        lb.rebalance();
        let range = lb.grow(3);
        assert_eq!(range, 3..6);
        // Shrink the two newest slots away again; one is still attached
        // and must be detached (weight renormalized back) on the way out.
        assert!(lb.detach_connection(5));
        assert_eq!(lb.shrink(2), 4);
        assert_eq!(lb.config().connections(), 4);
        assert_eq!(lb.weights().len(), 4);
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        assert_eq!(lb.live_connections(), 4);
        lb.check_invariants().expect("healthy after shrink");
        lb.observe(&[ConnectionSample::new(3, 0.1)]);
        lb.rebalance();
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
    }

    #[test]
    fn grow_crosses_the_clustering_threshold() {
        // Built at 30 (below the >=32 knee) with clustering configured:
        // the plain solve runs. Growing to 34 must activate the clustered
        // path exactly as if the region had been built that wide.
        let cfg = BalancerConfig::builder(30)
            .clustering(ClusteringConfig::default())
            .build()
            .unwrap();
        let mut lb = LoadBalancer::new(cfg);
        let feed = |lb: &mut LoadBalancer| {
            let n = lb.config().connections();
            for j in 0..n {
                if lb.is_attached(j) {
                    let rate = if j < 8 { 0.8 } else { 0.0 };
                    lb.observe(&[ConnectionSample::new(j, rate)]);
                }
            }
        };
        feed(&mut lb);
        lb.rebalance();
        assert!(lb.last_clusters().is_none(), "30 live: plain solve");

        lb.grow(4);
        assert_eq!(lb.live_connections(), 34);
        feed(&mut lb);
        lb.rebalance();
        let clusters = lb.last_clusters().expect("34 live: clustering active");
        assert_eq!(clusters.assignment.len(), 34);
        assert!(clusters.assignment.iter().all(|&c| c != usize::MAX));
        assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        lb.check_invariants()
            .expect("clustered grown region healthy");

        // And shrinking back below the knee returns to the plain solve.
        for j in 30..34 {
            if lb.live_connections() > 1 {
                lb.detach_connection(j);
            }
        }
        lb.shrink(4);
        feed(&mut lb);
        lb.rebalance();
        assert!(lb.last_clusters().is_none(), "30 live again: plain solve");
        lb.check_invariants()
            .expect("healthy after shrink below knee");
    }

    #[test]
    #[should_panic(expected = "at least one new slot")]
    fn grow_zero_rejected() {
        balancer(2).grow(0);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn shrink_to_zero_rejected() {
        balancer(2).shrink(2);
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            BalancerConfig::builder(0).build().unwrap_err(),
            ConfigError::NoConnections
        );
        assert_eq!(
            BalancerConfig::builder(10)
                .resolution(5)
                .build()
                .unwrap_err(),
            ConfigError::BadResolution
        );
        assert_eq!(
            BalancerConfig::builder(2)
                .mode(BalancerMode::Adaptive { decay: 1.5 })
                .build()
                .unwrap_err(),
            ConfigError::BadFactor
        );
    }

    #[test]
    fn clustering_threshold_must_be_finite_and_non_negative() {
        let build = |distance_threshold: f64| {
            BalancerConfig::builder(40)
                .clustering(ClusteringConfig {
                    min_connections: 32,
                    distance_threshold,
                })
                .build()
        };
        for bad in [-0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(build(bad).unwrap_err(), ConfigError::BadThreshold, "{bad}");
        }
        // Zero is meaningful: only identical functions share a cluster.
        assert!(build(0.0).is_ok());
        assert!(build(0.7).is_ok());
    }
}
