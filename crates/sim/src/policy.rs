//! Splitter balancing policies: the paper's scheme and all its baselines.
//!
//! | Policy | Paper name | Behaviour |
//! |---|---|---|
//! | [`RoundRobinPolicy`] | *RR* | even weights, never changes |
//! | [`RoundRobinPolicy::with_reroute`] | §4.4 baseline | even weights + transport-level rerouting on a full buffer |
//! | [`FixedPolicy`] | Figure 5 splits | arbitrary fixed weights |
//! | [`SchedulePolicy`] | *Oracle\** | precomputed weight switches at known times |
//! | [`BalancerPolicy`] | *LB-static* / *LB-adaptive* | the blocking-rate model of §5 |

use streambal_control::{ControlPlane, WidthDecision, WidthPolicy};
use streambal_core::controller::{BalancerConfig, BalancerMode, LoadBalancer};
use streambal_core::weights::{WeightVector, DEFAULT_RESOLUTION};
use streambal_telemetry::Telemetry;

/// Run-level context handed to [`Policy::on_sample`] each control round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleContext {
    /// Simulated time of the sample, ns.
    pub now_ns: u64,
    /// Tuples the merger has delivered so far.
    pub delivered: u64,
    /// Total workload when the run has a tuple-count stop.
    pub workload: Option<u64>,
}

/// One connection's measurement for a control round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySample {
    /// Connection index.
    pub connection: usize,
    /// Blocking rate over the interval (fraction of the interval blocked).
    pub rate: f64,
    /// The allocation weight (units) the connection held during the
    /// interval.
    pub weight: u32,
}

/// A splitter balancing policy driven by per-interval blocking samples.
pub trait Policy {
    /// Short display name used in reports (e.g. `"LB-adaptive"`).
    fn name(&self) -> &str;

    /// The weights to start the run with.
    fn initial_weights(&self, connections: usize) -> WeightVector {
        WeightVector::even(connections, DEFAULT_RESOLUTION)
    }

    /// Called once per sampling interval; returns new weights to install,
    /// or `None` to keep the current ones.
    fn on_sample(&mut self, ctx: &SampleContext, samples: &[PolicySample]) -> Option<WeightVector>;

    /// Whether the splitter should reroute tuples to a sibling connection
    /// instead of blocking when a buffer is full (§4.4's transport-level
    /// baseline).
    fn reroute_on_block(&self) -> bool {
        false
    }

    /// The latest cluster assignment, when the policy clusters connections.
    fn cluster_assignment(&self) -> Option<Vec<usize>> {
        None
    }

    /// Called by [`run_chaos`](crate::run_chaos) and
    /// [`run_coupled`](crate::multi::run_coupled) with a telemetry hub before
    /// the run starts; policies with internal decision state (e.g. the
    /// balancer's controller trace) hook it into the hub here. The default
    /// does nothing.
    fn attach_telemetry(&mut self, _telemetry: &Telemetry) {}

    /// Mutable access to the wrapped [`LoadBalancer`], when the policy has
    /// one. The chaos harness's oracles use this to run the controller's
    /// own invariant checks (function monotonicity, weight simplex) every
    /// round; policies without a model return `None` and those oracles
    /// become no-ops.
    fn balancer_mut(&mut self) -> Option<&mut LoadBalancer> {
        None
    }

    /// Called when the engine resizes the region to `new_width`
    /// connections (a `WorkerAdd`/`WorkerRemove` chaos event or a
    /// `--grow-at` schedule). Policies carrying per-connection state grow
    /// or shrink it here and return the weights to install at the new
    /// width; the default returns `None` and the engine installs an even
    /// split.
    fn on_resize(&mut self, new_width: usize) -> Option<WeightVector> {
        let _ = new_width;
        None
    }

    /// Called once per control round, after [`on_sample`](Self::on_sample):
    /// the policy's chance to ask for a width change (closed-loop
    /// autoscaling). The engine applies a non-[`Hold`](WidthDecision::Hold)
    /// decision by resizing the region, which calls back into
    /// [`on_resize`](Self::on_resize). The default holds forever.
    fn decide_width(&mut self, ctx: &SampleContext) -> WidthDecision {
        let _ = ctx;
        WidthDecision::Hold
    }
}

/// Naive round-robin (*RR*), optionally with §4.4 transport-level
/// rerouting.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinPolicy {
    reroute: bool,
}

impl RoundRobinPolicy {
    /// Plain round-robin with an even, never-changing split.
    pub fn new() -> Self {
        RoundRobinPolicy { reroute: false }
    }

    /// Round-robin that reroutes to the next free connection instead of
    /// blocking — the "too little, too late" baseline of §4.4.
    pub fn with_reroute() -> Self {
        RoundRobinPolicy { reroute: true }
    }
}

impl Policy for RoundRobinPolicy {
    fn name(&self) -> &str {
        if self.reroute {
            "RR-reroute"
        } else {
            "RR"
        }
    }

    fn on_sample(
        &mut self,
        _ctx: &SampleContext,
        _samples: &[PolicySample],
    ) -> Option<WeightVector> {
        None
    }

    fn reroute_on_block(&self) -> bool {
        self.reroute
    }
}

/// A fixed, never-changing weight split (the paper's Figure 5 uses static
/// 80/20, 70/30, 60/40 and 50/50 splits).
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    name: String,
    weights: WeightVector,
}

impl FixedPolicy {
    /// Creates a fixed policy from explicit weights.
    pub fn new(weights: WeightVector) -> Self {
        FixedPolicy {
            name: format!("Fixed{weights}"),
            weights,
        }
    }
}

impl Policy for FixedPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn initial_weights(&self, connections: usize) -> WeightVector {
        assert_eq!(
            self.weights.len(),
            connections,
            "fixed weights sized for a different region"
        );
        self.weights.clone()
    }

    fn on_sample(
        &mut self,
        _ctx: &SampleContext,
        _samples: &[PolicySample],
    ) -> Option<WeightVector> {
        None
    }
}

/// When a [`SchedulePolicy`] switch fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchAt {
    /// At a simulated time (ns) — for load schedules keyed to the clock.
    Time(u64),
    /// When the run has delivered this fraction of its total workload —
    /// for load changes keyed to experiment *progress* (the paper's "an
    /// eighth through the experiment").
    DeliveredFraction(f64),
}

impl SwitchAt {
    fn satisfied(self, ctx: &SampleContext) -> bool {
        match self {
            SwitchAt::Time(t) => ctx.now_ns >= t,
            SwitchAt::DeliveredFraction(f) => ctx
                .workload
                .map(|total| ctx.delivered as f64 >= f * total as f64)
                .unwrap_or(false),
        }
    }
}

/// Precomputed weight switches at known triggers — the paper's *Oracle\**,
/// which "will change the allocation weights earlier than is optimal"
/// because it switches exactly when the external load changes.
#[derive(Debug, Clone)]
pub struct SchedulePolicy {
    initial: WeightVector,
    /// Switches applied in order, each at most once.
    switches: Vec<(SwitchAt, WeightVector)>,
    next: usize,
}

impl SchedulePolicy {
    /// Creates a schedule starting with `initial` weights and switching at
    /// the given times.
    ///
    /// # Panics
    ///
    /// Panics if switch times are not strictly increasing.
    pub fn new(initial: WeightVector, switches: Vec<(u64, WeightVector)>) -> Self {
        for w in switches.windows(2) {
            assert!(w[0].0 < w[1].0, "switch times must be strictly increasing");
        }
        SchedulePolicy {
            initial,
            switches: switches
                .into_iter()
                .map(|(t, w)| (SwitchAt::Time(t), w))
                .collect(),
            next: 0,
        }
    }

    /// Creates a schedule with arbitrary triggers, applied in list order as
    /// each becomes satisfied.
    pub fn with_triggers(initial: WeightVector, switches: Vec<(SwitchAt, WeightVector)>) -> Self {
        SchedulePolicy {
            initial,
            switches,
            next: 0,
        }
    }
}

impl Policy for SchedulePolicy {
    fn name(&self) -> &str {
        "Oracle*"
    }

    fn initial_weights(&self, connections: usize) -> WeightVector {
        assert_eq!(
            self.initial.len(),
            connections,
            "oracle weights sized for a different region"
        );
        self.initial.clone()
    }

    fn on_sample(
        &mut self,
        ctx: &SampleContext,
        _samples: &[PolicySample],
    ) -> Option<WeightVector> {
        let mut latest = None;
        while self.next < self.switches.len() && self.switches[self.next].0.satisfied(ctx) {
            latest = Some(self.switches[self.next].1.clone());
            self.next += 1;
        }
        latest
    }
}

/// The paper's blocking-rate model (*LB-static* or *LB-adaptive* depending
/// on the wrapped balancer's mode), driven through the shared
/// [`ControlPlane`].
#[derive(Debug, Clone)]
pub struct BalancerPolicy {
    name: &'static str,
    plane: ControlPlane,
    rates: Vec<f64>,
}

impl BalancerPolicy {
    /// Wraps a control plane built from `cfg`; the display name follows the
    /// configured mode.
    pub fn new(cfg: BalancerConfig) -> Self {
        let name = match cfg.mode() {
            BalancerMode::Static => "LB-static",
            BalancerMode::Adaptive { .. } => "LB-adaptive",
        };
        let n = cfg.connections();
        BalancerPolicy {
            name,
            plane: ControlPlane::builder(cfg).build(),
            rates: vec![0.0; n],
        }
    }

    /// Convenience alias of [`BalancerPolicy::new`] for configurations in
    /// the default adaptive mode.
    pub fn adaptive(cfg: BalancerConfig) -> Self {
        BalancerPolicy::new(cfg)
    }

    /// The wrapped balancer (for introspecting its predictive functions).
    pub fn balancer(&self) -> &LoadBalancer {
        self.plane.balancer()
    }

    /// Installs a [`WidthPolicy`] on the wrapped plane: each round, after
    /// the weight solve, [`Policy::decide_width`] consults it and the
    /// engine applies the decision (resizing the region end-to-end).
    pub fn with_width_policy(mut self, policy: impl Into<WidthPolicy>) -> Self {
        self.plane.set_width_policy(policy);
        self
    }
}

impl Policy for BalancerPolicy {
    fn name(&self) -> &str {
        self.name
    }

    fn initial_weights(&self, connections: usize) -> WeightVector {
        assert_eq!(
            self.plane.balancer().config().connections(),
            connections,
            "balancer sized for a different region"
        );
        self.plane.weights().clone()
    }

    fn on_sample(&mut self, ctx: &SampleContext, samples: &[PolicySample]) -> Option<WeightVector> {
        self.rates.fill(0.0);
        for s in samples {
            self.rates[s.connection] = s.rate;
        }
        Some(
            self.plane
                .round(ctx.now_ns / 1_000_000, &self.rates)
                .clone(),
        )
    }

    fn on_resize(&mut self, new_width: usize) -> Option<WeightVector> {
        let n = self.plane.balancer().config().connections();
        if new_width > n {
            self.plane.grow_width(new_width - n);
        } else if new_width < n {
            self.plane.shrink_width(n - new_width);
        }
        self.rates.resize(new_width, 0.0);
        Some(self.plane.weights().clone())
    }

    fn cluster_assignment(&self) -> Option<Vec<usize>> {
        self.plane
            .balancer()
            .last_clusters()
            .map(|c| c.assignment.clone())
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.plane.attach_telemetry(telemetry);
    }

    fn balancer_mut(&mut self) -> Option<&mut LoadBalancer> {
        Some(self.plane.balancer_mut())
    }

    fn decide_width(&mut self, ctx: &SampleContext) -> WidthDecision {
        self.plane.decide_width(ctx.now_ns / 1_000_000, &self.rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_core::controller::BalancerConfig;

    fn ctx(now_ns: u64) -> SampleContext {
        SampleContext {
            now_ns,
            delivered: 0,
            workload: None,
        }
    }

    #[test]
    fn round_robin_is_inert() {
        let mut p = RoundRobinPolicy::new();
        assert_eq!(p.name(), "RR");
        assert!(!p.reroute_on_block());
        assert_eq!(p.initial_weights(4).units(), &[250, 250, 250, 250]);
        assert!(p.on_sample(&ctx(0), &[]).is_none());
    }

    #[test]
    fn reroute_flag_propagates() {
        let p = RoundRobinPolicy::with_reroute();
        assert!(p.reroute_on_block());
        assert_eq!(p.name(), "RR-reroute");
    }

    #[test]
    fn fixed_policy_returns_its_weights() {
        let w = WeightVector::from_units(vec![800, 200], 1000).unwrap();
        let mut p = FixedPolicy::new(w.clone());
        assert_eq!(p.initial_weights(2), w);
        assert!(p.on_sample(&ctx(5), &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "different region")]
    fn fixed_policy_size_mismatch_panics() {
        let w = WeightVector::from_units(vec![800, 200], 1000).unwrap();
        let p = FixedPolicy::new(w);
        let _ = p.initial_weights(3);
    }

    #[test]
    fn schedule_policy_switches_once_per_time() {
        let even = WeightVector::even(2, 1000);
        let skew = WeightVector::from_units(vec![900, 100], 1000).unwrap();
        let mut p = SchedulePolicy::new(even.clone(), vec![(100, skew.clone())]);
        assert!(p.on_sample(&ctx(50), &[]).is_none());
        assert_eq!(p.on_sample(&ctx(100), &[]), Some(skew));
        assert!(
            p.on_sample(&ctx(200), &[]).is_none(),
            "switch applies only once"
        );
    }

    #[test]
    fn schedule_policy_fraction_trigger() {
        let even = WeightVector::even(2, 1000);
        let skew = WeightVector::from_units(vec![900, 100], 1000).unwrap();
        let mut p = SchedulePolicy::with_triggers(
            even.clone(),
            vec![(SwitchAt::DeliveredFraction(0.125), skew.clone())],
        );
        let early = SampleContext {
            now_ns: 10,
            delivered: 100,
            workload: Some(1_000),
        };
        assert!(p.on_sample(&early, &[]).is_none());
        let late = SampleContext {
            now_ns: 20,
            delivered: 125,
            workload: Some(1_000),
        };
        assert_eq!(p.on_sample(&late, &[]), Some(skew));
    }

    #[test]
    fn balancer_policy_names_follow_mode() {
        use streambal_core::controller::BalancerMode;
        let a = BalancerPolicy::new(BalancerConfig::builder(2).build().unwrap());
        assert_eq!(a.name(), "LB-adaptive");
        let s = BalancerPolicy::new(
            BalancerConfig::builder(2)
                .mode(BalancerMode::Static)
                .build()
                .unwrap(),
        );
        assert_eq!(s.name(), "LB-static");
    }

    #[test]
    fn balancer_policy_resizes_its_plane_and_rate_buffer() {
        let mut p = BalancerPolicy::new(BalancerConfig::builder(2).build().unwrap());
        let w = p.on_resize(4).expect("balancer returns grown weights");
        assert_eq!(w.len(), 4);
        assert_eq!(w.units().iter().sum::<u32>(), 1000);
        assert_eq!(p.balancer().config().connections(), 4);
        // The next sample round runs at the new width without panicking.
        let samples: Vec<PolicySample> = (0..4)
            .map(|j| PolicySample {
                connection: j,
                rate: 0.1,
                weight: w.units()[j],
            })
            .collect();
        assert!(p.on_sample(&ctx(1_000_000_000), &samples).is_some());
        let w = p.on_resize(3).expect("balancer returns shrunk weights");
        assert_eq!(w.len(), 3);
        assert_eq!(w.units().iter().sum::<u32>(), 1000);
    }

    #[test]
    fn balancer_policy_rebalances_on_samples() {
        let mut p = BalancerPolicy::new(BalancerConfig::builder(2).build().unwrap());
        let w = p
            .on_sample(
                &ctx(1_000_000_000),
                &[PolicySample {
                    connection: 0,
                    rate: 0.9,
                    weight: 500,
                }],
            )
            .expect("balancer always returns weights");
        assert!(w.units()[0] < w.units()[1]);
    }
}
