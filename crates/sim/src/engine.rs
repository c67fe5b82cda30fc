//! The discrete-event engine: one event heap and one clock driving every
//! ordered parallel region of a run.
//!
//! Three event types drive each region:
//!
//! - `SendNext` — the splitter routes its next tuple (or blocks on a full
//!   connection buffer, to be woken by that worker's next dequeue);
//! - `WorkerDone(j)` — worker `j` finishes a tuple and hands it to the
//!   merger's reorder queue (stalling if the queue is full);
//! - `Sample` — the control loop samples per-connection blocking rates and
//!   lets the [`Policy`] install new weights.
//!
//! All state transitions that free a resource (worker dequeues a tuple,
//! merger pops a reorder slot) eagerly wake whoever was waiting on it, so
//! the simulation is work-conserving exactly like the real runtime.
//!
//! Every region keeps its own splitter, connection buffers, merger and
//! policy; the only thing the two kinds of run disagree on is how a started
//! tuple gets its completion time:
//!
//! - **dedicated workers** ([`run`], [`run_chaos`]) draw a service time
//!   once, from the worker's static
//!   [`effective_speeds`](RegionConfig::effective_speeds) share;
//! - **shared hosts** ([`run_coupled`](crate::multi::run_coupled)) are
//!   processor-sharing: a host with `threads` hardware threads and `b`
//!   *currently busy* PEs runs each at `speed × min(1, threads / b)`.
//!   Whenever a worker starts or finishes a tuple, the remaining work of
//!   every in-flight tuple on that host is settled at the old rate and its
//!   completion re-scheduled at the new one. Regions couple *only* through
//!   this contention, exactly as co-located PEs do.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use streambal_core::rng::SplitMix64;
use streambal_core::weights::{WeightVector, WrrScheduler};
use streambal_telemetry::{Counter, Histogram, RoundSnapshot, Telemetry, TraceEvent};

use streambal_control::{RoundGauges, WidthDecision};

use crate::chaos::{ChaosPlan, FaultKind, RoundObserver, RoundView, Sabotage};
use crate::config::{ConfigError, RegionConfig, StopCondition};
use crate::host::Host;
use crate::metrics::RunResult;
use crate::multi::{ResizeEvent, WidthChange};
use crate::policy::{Policy, PolicySample, SampleContext};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    SendNext,
    /// Worker `j` finishes the tuple whose completion was scheduled under
    /// this stamp; completions overtaken since (the worker died, or its
    /// shared host's rate changed) carry an old stamp and are ignored.
    WorkerDone(usize, u64),
    Sample,
    /// The chaos plan's `events[i]` fires.
    Fault(usize),
    /// A stalled connection becomes usable again.
    ConnResume(usize),
    /// A scripted width change fires.
    Resize(WidthChange),
}

#[derive(Debug, PartialEq, Eq)]
struct Scheduled {
    t: u64,
    tie: u64,
    region: usize,
    ev: Ev,
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        self.t.cmp(&other.t).then_with(|| self.tie.cmp(&other.tie))
    }
}

/// The event heap; same-time events fire in scheduling order.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    tie: u64,
}

impl EventQueue {
    fn push(&mut self, t: u64, region: usize, ev: Ev) {
        self.tie += 1;
        self.heap.push(Reverse(Scheduled {
            t,
            tie: self.tie,
            region,
            ev,
        }));
    }
}

/// Runs one simulation of `cfg` under the given balancing policy.
///
/// # Errors
///
/// Returns a [`ConfigError`] when the configuration is invalid.
///
/// # Examples
///
/// ```
/// use streambal_sim::config::{RegionConfig, StopCondition};
/// use streambal_sim::policy::RoundRobinPolicy;
///
/// let cfg = RegionConfig::builder(2)
///     .stop(StopCondition::Tuples(1_000))
///     .build()
///     .unwrap();
/// let result = streambal_sim::run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
/// assert_eq!(result.delivered, 1_000);
/// ```
pub fn run(cfg: &RegionConfig, policy: &mut dyn Policy) -> Result<RunResult, ConfigError> {
    run_chaos(cfg, policy, &ChaosPlan::default(), None, None)
}

/// Runs one simulation on dedicated workers with a chaos [`ChaosPlan`]
/// injected into the event loop (an empty plan is a plain [`run`]), an
/// optional telemetry hub, and an optional [`RoundObserver`] (usually an
/// [`OracleSuite`](crate::chaos::OracleSuite)) called after every control
/// round.
///
/// Fault events are scheduled at their absolute times and perturb the
/// engine exactly like the organic mechanisms they model (deaths pause a
/// worker and requeue its in-flight tuple, slowdowns and load spikes scale
/// service times, stalls gate a connection, sampling jitter perturbs the
/// control clock using the run's seeded RNG). The whole run stays
/// deterministic: the same config, plan and seed replay the same trace
/// byte for byte.
///
/// With `telemetry`, the splitter/merger hot paths publish counters under
/// `sim.*`, every control round leaves a [`TraceEvent::Sample`] in the
/// hub's trace buffer (a clone of the returned [`RoundSnapshot`]),
/// and the policy gets [`Policy::attach_telemetry`].
///
/// # Errors
///
/// Returns a [`ConfigError`] when the configuration is invalid or the plan
/// references unknown workers ([`ConfigError::BadChaosEvent`]).
///
/// # Examples
///
/// ```
/// use streambal_sim::config::{RegionConfig, StopCondition};
/// use streambal_sim::policy::RoundRobinPolicy;
/// use streambal_sim::ChaosPlan;
/// use streambal_telemetry::Telemetry;
///
/// let cfg = RegionConfig::builder(2)
///     .stop(StopCondition::Tuples(1_000))
///     .build()
///     .unwrap();
/// let telemetry = Telemetry::new();
/// let plan = ChaosPlan::default();
/// let mut policy = RoundRobinPolicy::new();
/// let result =
///     streambal_sim::run_chaos(&cfg, &mut policy, &plan, Some(&telemetry), None).unwrap();
/// assert_eq!(result.delivered, 1_000);
/// assert_eq!(telemetry.registry().counter("sim.merger.delivered").get(), 1_000);
/// ```
pub fn run_chaos<'c>(
    cfg: &'c RegionConfig,
    policy: &'c mut dyn Policy,
    plan: &'c ChaosPlan,
    telemetry: Option<&Telemetry>,
    observer: Option<&'c mut dyn RoundObserver>,
) -> Result<RunResult, ConfigError> {
    cfg.validate()?;
    plan.validate(cfg.num_workers())?;
    if let Some(t) = telemetry {
        policy.attach_telemetry(t);
    }
    let mut engine = Engine::new(std::slice::from_ref(cfg), [policy], None, &[], telemetry);
    engine.chaos = Some(plan);
    engine.observer = observer;
    Ok(engine.run().pop().expect("one region in, one result out"))
}

/// Pre-resolved metric handles for one region's hot paths, looked up once
/// at start-of-run so per-tuple work is a single atomic op.
struct Instruments {
    sent: Counter,
    delivered: Counter,
    rerouted: Counter,
    blocked_ns: Counter,
    block_events: Counter,
    latency_ns: Histogram,
    round: RoundGauges,
}

impl Instruments {
    /// Binds the handles under `prefix` (`sim` for a dedicated run,
    /// `sim.region<r>` on shared hosts) at width `n`.
    fn new(telemetry: &Telemetry, prefix: &str, n: usize) -> Self {
        let reg = telemetry.registry();
        Instruments {
            sent: reg.counter(&format!("{prefix}.splitter.sent")),
            delivered: reg.counter(&format!("{prefix}.merger.delivered")),
            rerouted: reg.counter(&format!("{prefix}.splitter.rerouted")),
            blocked_ns: reg.counter(&format!("{prefix}.splitter.blocked_ns")),
            block_events: reg.counter(&format!("{prefix}.splitter.block_events")),
            latency_ns: reg.histogram(&format!("{prefix}.latency_ns")),
            round: RoundGauges::new(reg, prefix, n),
        }
    }
}

/// Whether tuple `seq`'s entry-to-ordered-exit latency is recorded.
fn latency_sampled(seq: u64) -> bool {
    seq.is_multiple_of(16)
}

/// One worker PE with its connection buffer and its reorder queue.
#[derive(Default)]
struct Worker {
    conn_q: VecDeque<u64>,
    merge_q: VecDeque<u64>,
    busy: bool,
    /// Sequence number of the tuple in service.
    seq: u64,
    /// A finished tuple held back by a full reorder queue.
    stalled: Option<u64>,
    /// Cumulative time the splitter spent blocked on this connection.
    blocked_ns: u64,
    blocked_ns_at_sample: u64,
    busy_ns: u64,
    /// Cost multiplier overriding the configured schedule (fraction events
    /// and load spikes).
    load_override: Option<f64>,
    alive: bool,
    /// Stamp of the one valid scheduled completion: bumped by a death and
    /// by every shared-host rescale.
    stamp: u64,
    /// The connection passes no tuples to the worker before this time.
    resume_at: u64,
    /// Host-slowdown service-time multiplier (1.0 = healthy).
    slowdown: f64,
    host: usize,
    /// Dedicated workers: the static effective speed.
    speed: f64,
    /// Shared hosts: work left in the in-flight tuple (ns at rate 1.0) as
    /// of `updated_at`, and when the tuple started.
    remaining: f64,
    updated_at: u64,
    started_at: u64,
}

impl Worker {
    fn new(host: usize, speed: f64) -> Self {
        Worker {
            alive: true,
            slowdown: 1.0,
            host,
            speed,
            ..Worker::default()
        }
    }

    /// Brings the remaining work up to date at `now` under the rate that
    /// has applied since the last update.
    fn settle(&mut self, now: u64, rate: f64) {
        let elapsed = (now - self.updated_at) as f64;
        self.remaining = (self.remaining - elapsed * rate).max(0.0);
        self.updated_at = now;
    }
}

/// The processor-sharing hosts of a coupled run.
struct SharedHosts<'c> {
    hosts: &'c [Host],
    /// Busy-worker count per host.
    busy: Vec<u32>,
    /// Per host, the workers placed on it as `(region, index)`, in
    /// creation order.
    members: Vec<Vec<(usize, usize)>>,
}

impl SharedHosts<'_> {
    fn rate(&self, host: usize) -> f64 {
        let h = self.hosts[host];
        let busy = self.busy[host].max(1);
        h.speed * (f64::from(h.threads) / f64::from(busy)).min(1.0)
    }
}

/// One ordered parallel region: splitter, workers, merger, control loop.
struct Region<'c> {
    cfg: &'c RegionConfig,
    policy: &'c mut dyn Policy,
    telemetry: Option<(Telemetry, Instruments)>,
    rng: SplitMix64,

    // Splitter.
    wrr: WrrScheduler,
    weights: Vec<u32>,
    resolution: u32,
    /// Tuples routed so far, which is also the next sequence number.
    sent: u64,
    rerouted: u64,
    /// `(connection, blocked-since, pending tuple seq)` while blocked.
    blocked_on: Option<(usize, u64, u64)>,

    /// Physical worker slots. They only ever grow: a removed tail keeps
    /// its dormant state so queued tuples drain in order, and is revived
    /// before fresh slots are appended on a later grow.
    workers: Vec<Worker>,
    /// Logical region width: the connections the splitter routes to and
    /// the control loop samples.
    width: usize,

    // Merger.
    heads: BinaryHeap<Reverse<(u64, usize)>>,
    next_expected: u64,
    delivered: u64,
    delivered_at_sample: u64,
    /// Splitter entry times of the tuples whose latency is recorded (every
    /// 16th), drained in order by the merger.
    entry_times: VecDeque<u64>,
    latencies_ns: Vec<u64>,

    /// Pending workload-progress-triggered load changes as `(delivered
    /// threshold, worker, factor)`, the next one to fire last.
    fractions: Vec<(u64, usize, f64)>,

    // Control loop.
    samples: Vec<RoundSnapshot>,
    last_sample_ns: u64,
    round: u64,
    /// Sampling-clock jitter amplitude (0 = exact clock).
    sample_jitter_ns: u64,

    // Chaos (all inert unless a plan is attached; see crate::chaos).
    last_fault_ns: Option<u64>,
    /// The lowest slot index ever added by growth (for
    /// [`Sabotage::StarveNewSlots`]).
    starve_from: Option<usize>,
    /// Next thrash direction for [`Sabotage::FlappingWidth`] (grow first,
    /// so the width never dips below its configured floor).
    flap_grow: bool,
}

impl<'c> Region<'c> {
    fn new(
        cfg: &'c RegionConfig,
        policy: &'c mut dyn Policy,
        workers: Vec<Worker>,
        telemetry: Option<(Telemetry, Instruments)>,
    ) -> Self {
        let initial = policy.initial_weights(workers.len());
        let total = match cfg.stop {
            StopCondition::Tuples(n) => n,
            StopCondition::Duration(_) => 0,
        };
        let mut fractions: Vec<(u64, usize, f64)> = cfg
            .fraction_events
            .iter()
            .map(|e| ((e.fraction * total as f64) as u64, e.worker, e.factor))
            .collect();
        fractions.sort_by_key(|&(at, _, _)| at);
        fractions.reverse();
        Region {
            cfg,
            policy,
            telemetry,
            rng: SplitMix64::new(cfg.seed),
            wrr: WrrScheduler::new(&initial),
            weights: initial.units().to_vec(),
            resolution: initial.resolution(),
            sent: 0,
            rerouted: 0,
            blocked_on: None,
            width: workers.len(),
            workers,
            heads: BinaryHeap::new(),
            next_expected: 0,
            delivered: 0,
            delivered_at_sample: 0,
            entry_times: VecDeque::new(),
            latencies_ns: Vec::new(),
            fractions,
            samples: Vec::new(),
            last_sample_ns: 0,
            round: 0,
            sample_jitter_ns: 0,
            last_fault_ns: None,
            starve_from: None,
            flap_grow: true,
        }
    }

    /// Work in one tuple started at `now` by worker `j`, in ns at speed
    /// 1.0. Workers added by growth have no config entry and run unloaded
    /// until a fault says otherwise.
    fn work_ns(&self, now: u64, j: usize) -> f64 {
        let factor = self.workers[j].load_override.unwrap_or_else(|| {
            self.cfg
                .workers
                .get(j)
                .map_or(1.0, |w| w.load.factor_at(now))
        });
        self.cfg.base_cost as f64 * self.cfg.mult_ns * factor * self.workers[j].slowdown
    }

    /// A dedicated worker's service time for `work_ns` of work, drawn once
    /// at start of service.
    fn service_ns(&mut self, work_ns: f64, speed: f64) -> u64 {
        let base = work_ns / speed;
        let jitter = self.cfg.jitter;
        let mult = if jitter > 0.0 {
            1.0 + self.rng.frange(-jitter, jitter)
        } else {
            1.0
        };
        let hiccup = if self.cfg.hiccup_prob > 0.0 && self.rng.chance(self.cfg.hiccup_prob) {
            self.cfg.hiccup_ns
        } else {
            0
        };
        (base * mult).max(1.0) as u64 + hiccup
    }

    /// Resizes the policy and splitter to the current logical width,
    /// preserving the WRR pick state of surviving slots.
    fn apply_resize(&mut self) {
        let weights = self
            .policy
            .on_resize(self.width)
            .unwrap_or_else(|| WeightVector::even(self.width, self.resolution));
        self.weights.clear();
        self.weights.extend_from_slice(weights.units());
        self.wrr.set_units(weights.units());
    }

    /// Mirrors the balancer's weights into the splitter outside the
    /// normal sampling cadence (after a membership change).
    fn install_balancer_weights(&mut self) {
        if let Some(lb) = self.policy.balancer_mut() {
            let units = lb.weights().units();
            self.weights.clear();
            self.weights.extend_from_slice(units);
        }
        self.wrr.set_units(&self.weights);
    }
}

pub(crate) struct Engine<'c> {
    now: u64,
    events: EventQueue,
    regions: Vec<Region<'c>>,
    /// `Some` when the regions' workers time-share hosts; `None` gives
    /// every worker its static share.
    shared: Option<SharedHosts<'c>>,
    resizes: &'c [ResizeEvent],
    /// Faults to inject; only dedicated runs ([`run_chaos`]) carry a plan.
    chaos: Option<&'c ChaosPlan>,
    observer: Option<&'c mut dyn RoundObserver>,
}

impl<'c> Engine<'c> {
    /// One engine over `cfgs[r]` under `policies[r]`. With `shared_hosts`
    /// the workers' host indices refer to those hosts and contend for
    /// their threads; `resizes` are scheduled width changes.
    pub(crate) fn new(
        cfgs: &'c [RegionConfig],
        policies: impl IntoIterator<Item = &'c mut dyn Policy>,
        shared_hosts: Option<&'c [Host]>,
        resizes: &'c [ResizeEvent],
        telemetry: Option<&Telemetry>,
    ) -> Self {
        let mut shared = shared_hosts.map(|hosts| SharedHosts {
            hosts,
            busy: vec![0; hosts.len()],
            members: vec![Vec::new(); hosts.len()],
        });
        let regions = cfgs
            .iter()
            .zip(policies)
            .enumerate()
            .map(|(r, (cfg, policy))| {
                let workers: Vec<Worker> = cfg
                    .workers
                    .iter()
                    .zip(cfg.effective_speeds())
                    .enumerate()
                    .map(|(j, (w, speed))| {
                        if let Some(sh) = &mut shared {
                            sh.members[w.host].push((r, j));
                        }
                        Worker::new(w.host, speed)
                    })
                    .collect();
                let prefix = match shared {
                    Some(_) => format!("sim.region{r}"),
                    None => "sim".to_owned(),
                };
                let telemetry =
                    telemetry.map(|t| (t.clone(), Instruments::new(t, &prefix, workers.len())));
                Region::new(cfg, policy, workers, telemetry)
            })
            .collect();
        Engine {
            now: 0,
            events: EventQueue::default(),
            regions,
            shared,
            resizes,
            chaos: None,
            observer: None,
        }
    }

    /// Runs to the stop condition; one [`RunResult`] per region.
    pub(crate) fn run(mut self) -> Vec<RunResult> {
        for r in 0..self.regions.len() {
            self.events.push(0, r, Ev::SendNext);
        }
        for ev in self.resizes {
            self.events.push(ev.t_ns, ev.region, Ev::Resize(ev.change));
        }
        for r in 0..self.regions.len() {
            let first = self.regions[r].cfg.sample_interval_ns;
            self.events.push(first, r, Ev::Sample);
        }
        if let Some(plan) = self.chaos {
            for (i, ev) in plan.events.iter().enumerate() {
                self.events.push(ev.t_ns, 0, Ev::Fault(i));
            }
        }

        // The regions of one run share its stop condition.
        let duration_limit = match self.regions[0].cfg.stop {
            StopCondition::Duration(d) => Some(d),
            StopCondition::Tuples(_) => None,
        };

        while let Some(Reverse(s)) = self.events.heap.pop() {
            if let Some(limit) = duration_limit {
                if s.t > limit {
                    self.now = limit;
                    break;
                }
            }
            self.now = s.t;
            let r = s.region;
            match s.ev {
                Ev::SendNext => self.on_send_next(r),
                Ev::WorkerDone(j, stamp) => self.on_worker_done(r, j, stamp),
                Ev::Sample => self.on_sample(r),
                Ev::Fault(i) => self.on_fault(r, i),
                Ev::ConnResume(j) => self.maybe_start_worker(r, j),
                Ev::Resize(WidthChange::Grow { host, count }) => {
                    self.grow_region(r, Some(host), count);
                }
                Ev::Resize(WidthChange::Shrink { count }) => self.shrink_region(r, count),
            }
            let reg = &mut self.regions[r];
            while (reg.fractions.last()).is_some_and(|&(at, _, _)| at <= reg.delivered) {
                let (_, worker, factor) = reg.fractions.pop().expect("just peeked");
                reg.workers[worker].load_override = Some(factor);
            }
            if let StopCondition::Tuples(n) = reg.cfg.stop {
                if reg.delivered >= n {
                    break;
                }
            }
        }

        let now = self.now;
        self.regions
            .into_iter()
            .map(|mut reg| {
                // Fold any in-progress blocked span into the totals.
                if let Some((conn, since, _)) = reg.blocked_on.take() {
                    reg.workers[conn].blocked_ns += now.saturating_sub(since);
                    if let Some((_, inst)) = &reg.telemetry {
                        inst.blocked_ns.add(now.saturating_sub(since));
                    }
                }
                RunResult {
                    policy: reg.policy.name().to_owned(),
                    duration_ns: now,
                    delivered: reg.delivered,
                    sent: reg.sent,
                    rerouted: reg.rerouted,
                    blocked_ns: reg.workers.iter().map(|w| w.blocked_ns).collect(),
                    samples: reg.samples,
                    latencies_ns: reg.latencies_ns,
                    worker_busy_ns: reg.workers.iter().map(|w| w.busy_ns).collect(),
                }
            })
            .collect()
    }

    fn on_send_next(&mut self, r: usize) {
        let now = self.now;
        let reg = &mut self.regions[r];
        let exhausted = matches!(reg.cfg.stop, StopCondition::Tuples(n) if reg.sent >= n);
        if exhausted || reg.blocked_on.is_some() {
            return;
        }
        let j = reg.wrr.pick();
        let seq = reg.sent;
        reg.sent += 1;
        if let Some((_, inst)) = &reg.telemetry {
            inst.sent.incr();
        }
        if latency_sampled(seq) {
            reg.entry_times.push_back(now);
        }

        let capacity = reg.cfg.conn_capacity;
        let mut target = (reg.workers[j].conn_q.len() < capacity).then_some(j);
        if target.is_none() && reg.policy.reroute_on_block() {
            // §4.4: try the sibling connections instead of blocking.
            let n = reg.width;
            target = (1..n)
                .map(|k| (j + k) % n)
                .find(|&c| reg.workers[c].conn_q.len() < capacity);
            if target.is_some() {
                reg.rerouted += 1;
                if let Some((_, inst)) = &reg.telemetry {
                    inst.rerouted.incr();
                }
            }
        }
        let Some(c) = target else {
            // Elect to block on the originally chosen connection; the
            // pending tuple is delivered when that worker frees a slot.
            reg.blocked_on = Some((j, now, seq));
            if let Some((_, inst)) = &reg.telemetry {
                inst.block_events.incr();
            }
            return;
        };
        self.enqueue(r, c, seq);
    }

    /// The splitter puts `seq` on connection `j` and, after the routing
    /// overhead, turns to its next tuple.
    fn enqueue(&mut self, r: usize, j: usize, seq: u64) {
        let reg = &mut self.regions[r];
        debug_assert!(reg.workers[j].conn_q.len() < reg.cfg.conn_capacity);
        reg.workers[j].conn_q.push_back(seq);
        let next_send = self.now + reg.cfg.send_overhead_ns;
        self.maybe_start_worker(r, j);
        self.events.push(next_send, r, Ev::SendNext);
    }

    fn maybe_start_worker(&mut self, r: usize, j: usize) {
        let now = self.now;
        let reg = &mut self.regions[r];
        let w = &mut reg.workers[j];
        if w.busy || w.stalled.is_some() {
            return;
        }
        if !w.alive || now < w.resume_at {
            // Dead workers and stalled connections pass nothing on; a
            // scheduled restart/resume event retries this exact call.
            return;
        }
        let Some(seq) = w.conn_q.pop_front() else {
            return;
        };
        w.seq = seq;
        w.busy = true;
        let work = reg.work_ns(now, j);
        if let Some(sh) = &mut self.shared {
            let w = &mut reg.workers[j];
            let host = w.host;
            let old_rate = sh.rate(host);
            w.remaining = work;
            w.updated_at = now;
            w.started_at = now;
            sh.busy[host] += 1;
            // Everyone on the host (including this worker) now runs at
            // the new shared rate.
            self.rescale_host(host, old_rate);
        } else {
            let service = reg.service_ns(work, reg.workers[j].speed);
            let w = &mut reg.workers[j];
            w.busy_ns += service;
            self.events
                .push(now + service, r, Ev::WorkerDone(j, w.stamp));
        }
        self.wake_splitter(r, j);
    }

    /// After a shared host's busy set changed, re-settles and re-schedules
    /// every in-flight completion on it. `old_rate` applied until now.
    fn rescale_host(&mut self, host: usize, old_rate: f64) {
        let now = self.now;
        let sh = self.shared.as_ref().expect("only shared hosts rescale");
        let new_rate = sh.rate(host);
        for &(r, j) in &sh.members[host] {
            let w = &mut self.regions[r].workers[j];
            if !w.busy {
                continue;
            }
            w.settle(now, old_rate);
            w.stamp += 1;
            let finish = now + (w.remaining / new_rate).ceil() as u64;
            self.events
                .push(finish.max(now + 1), r, Ev::WorkerDone(j, w.stamp));
        }
    }

    /// Delivers the splitter's pending tuple once connection `j` has buffer
    /// space again, charging the blocked span to `j`'s counter.
    fn wake_splitter(&mut self, r: usize, j: usize) {
        let now = self.now;
        let reg = &mut self.regions[r];
        let Some((conn, since, seq)) = reg.blocked_on else {
            return;
        };
        if conn != j || reg.workers[j].conn_q.len() >= reg.cfg.conn_capacity {
            return;
        }
        reg.blocked_on = None;
        reg.workers[j].blocked_ns += now - since;
        if let Some((_, inst)) = &reg.telemetry {
            inst.blocked_ns.add(now - since);
        }
        // The freed slot takes the pending tuple; the worker may be idle if
        // the queue had drained completely while we were blocked.
        self.enqueue(r, j, seq);
    }

    fn on_worker_done(&mut self, r: usize, j: usize, stamp: u64) {
        let now = self.now;
        let reg = &mut self.regions[r];
        let w = &mut reg.workers[j];
        if stamp != w.stamp {
            // The worker died after starting this tuple (it went back to
            // the connection queue), or its host's rate has changed since
            // this completion was scheduled: void.
            return;
        }
        debug_assert!(w.busy);
        if let Some(sh) = &self.shared {
            let rate = sh.rate(w.host);
            w.settle(now, rate);
            if w.remaining > 1.0 {
                // Numerical guard: not actually finished (ceil slack); re-arm.
                w.stamp += 1;
                let finish = now + (w.remaining / rate).ceil() as u64;
                self.events
                    .push(finish.max(now + 1), r, Ev::WorkerDone(j, w.stamp));
                return;
            }
            w.busy_ns += now - w.started_at;
        }
        w.busy = false;
        if let Some(sh) = &mut self.shared {
            // The worker leaves its host: everyone left on it speeds up.
            let host = w.host;
            let old_rate = sh.rate(host);
            sh.busy[host] -= 1;
            self.rescale_host(host, old_rate);
        }

        let reg = &mut self.regions[r];
        let w = &mut reg.workers[j];
        if w.merge_q.len() < reg.cfg.merge_capacity {
            if w.merge_q.is_empty() {
                reg.heads.push(Reverse((w.seq, j)));
            }
            w.merge_q.push_back(w.seq);
            self.try_release(r);
            self.maybe_start_worker(r, j);
        } else {
            // Reorder queue full: the worker holds its output and stalls
            // until the merger drains a slot (Figure 3's gating).
            w.stalled = Some(w.seq);
        }
    }

    fn try_release(&mut self, r: usize) {
        let now = self.now;
        loop {
            let reg = &mut self.regions[r];
            let Some(&Reverse((seq, k))) = reg.heads.peek() else {
                break;
            };
            if seq != reg.next_expected {
                break;
            }
            reg.heads.pop();
            let released = reg.workers[k].merge_q.pop_front();
            debug_assert_eq!(released, Some(seq), "merger must release in order");
            if latency_sampled(seq) {
                let entered = (reg.entry_times.pop_front()).expect("sampled tuples were stamped");
                reg.latencies_ns.push(now - entered);
                if let Some((_, inst)) = &reg.telemetry {
                    inst.latency_ns.record(now - entered);
                }
            }
            reg.delivered += 1;
            if let Some((_, inst)) = &reg.telemetry {
                inst.delivered.incr();
            }
            reg.next_expected += 1;

            // A freed reorder slot un-stalls the worker.
            if let Some(held) = reg.workers[k].stalled.take() {
                reg.workers[k].merge_q.push_back(held);
                self.maybe_start_worker(r, k);
            }
            let reg = &mut self.regions[r];
            if let Some(&head) = reg.workers[k].merge_q.front() {
                reg.heads.push(Reverse((head, k)));
            }
        }
    }

    /// Applies the chaos plan's `events[i]`.
    fn on_fault(&mut self, r: usize, i: usize) {
        let now = self.now;
        let plan = self.chaos.expect("fault events only exist with a plan");
        let fault = plan.events[i].fault;
        let reg = &mut self.regions[r];
        reg.last_fault_ns = Some(now);
        if let Some((t, _)) = &reg.telemetry {
            // Leave the fault in the decision trace so violations show
            // what disturbed the controller and when.
            let (what, subject, detail) = match fault {
                FaultKind::WorkerDeath { worker } => ("death", worker as f64, None),
                FaultKind::WorkerRestart { worker } => ("restart", worker as f64, None),
                FaultKind::Slowdown { worker, factor } => {
                    ("slowdown", worker as f64, Some(("factor", factor)))
                }
                FaultKind::ConnectionStall { conn, duration_ns } => (
                    "stall",
                    conn as f64,
                    Some(("duration_ns", duration_ns as f64)),
                ),
                FaultKind::LoadSpike { worker, factor } => {
                    ("spike", worker as f64, Some(("factor", factor)))
                }
                FaultKind::SampleJitter { amplitude_ns } => {
                    ("jitter_ns", amplitude_ns as f64, None)
                }
                FaultKind::WorkerAdd { count } => ("add", count as f64, None),
                FaultKind::WorkerRemove { count } => ("remove", count as f64, None),
            };
            let fields = [("t_ns", now as f64), (what, subject)]
                .into_iter()
                .chain(detail)
                .map(|(name, value)| (name.to_owned(), value))
                .collect();
            t.trace().push(TraceEvent::Custom {
                name: "chaos.fault".to_owned(),
                fields,
            });
        }
        match fault {
            FaultKind::WorkerDeath { worker } => {
                let w = &mut reg.workers[worker];
                if !w.alive {
                    return;
                }
                w.alive = false;
                let freed = w.busy.then_some(w.host);
                if w.busy {
                    // Crash-restart semantics: the in-flight tuple is lost
                    // from the worker but not from the stream — it goes
                    // back to the head of the connection queue, and the
                    // scheduled completion is voided via its stamp.
                    w.busy = false;
                    w.stamp += 1;
                    w.conn_q.push_front(w.seq);
                    if self.shared.is_some() {
                        w.busy_ns += now - w.started_at;
                    }
                }
                // Real membership: retire the dead connection and
                // renormalize the survivors immediately. The sabotage
                // keeps the legacy no-detach path so the simplex oracle's
                // mutation test still has a bug to catch.
                if plan.sabotage != Some(Sabotage::SkipRenormalization) {
                    if let Some(lb) = reg.policy.balancer_mut() {
                        if lb.is_attached(worker) && lb.live_connections() > 1 {
                            lb.detach_connection(worker);
                            reg.install_balancer_weights();
                        }
                    }
                }
                if let (Some(host), Some(sh)) = (freed, &mut self.shared) {
                    // The dead worker leaves its host, as a finished one
                    // does: everyone left on it speeds up.
                    let old_rate = sh.rate(host);
                    sh.busy[host] -= 1;
                    self.rescale_host(host, old_rate);
                }
            }
            FaultKind::WorkerRestart { worker } => {
                if !reg.workers[worker].alive {
                    reg.workers[worker].alive = true;
                    self.maybe_start_worker(r, worker);
                    let reg = &mut self.regions[r];
                    if let Some(lb) = reg.policy.balancer_mut() {
                        if !lb.is_attached(worker) {
                            lb.attach_connection(worker);
                            reg.install_balancer_weights();
                        }
                    }
                }
            }
            FaultKind::Slowdown { worker, factor } => reg.workers[worker].slowdown = factor,
            FaultKind::ConnectionStall { conn, duration_ns } => {
                let until = now + duration_ns;
                if until > reg.workers[conn].resume_at {
                    reg.workers[conn].resume_at = until;
                    self.events.push(until, r, Ev::ConnResume(conn));
                }
            }
            FaultKind::LoadSpike { worker, factor } => {
                reg.workers[worker].load_override = Some(factor);
            }
            FaultKind::SampleJitter { amplitude_ns } => reg.sample_jitter_ns = amplitude_ns,
            FaultKind::WorkerAdd { count } => self.grow_region(r, None, count),
            FaultKind::WorkerRemove { count } => self.shrink_region(r, count),
        }
    }

    /// Grows region `r` by `count` workers: dormant tail slots (left by an
    /// earlier shrink) are revived first, then fresh PEs are appended on
    /// `host` — by default (policy decisions, chaos) the host of the
    /// region's last slot. A fresh dedicated worker runs at full speed
    /// until a fault says otherwise; on shared hosts it contends for
    /// `host` like everyone placed there.
    fn grow_region(&mut self, r: usize, host: Option<usize>, count: usize) {
        let reg = &mut self.regions[r];
        let old = reg.width;
        let host = host.unwrap_or(reg.workers[old - 1].host);
        let new_width = old + count;
        while reg.workers.len() < new_width {
            if let Some(sh) = &mut self.shared {
                sh.members[host].push((r, reg.workers.len()));
            }
            reg.workers.push(Worker::new(host, 1.0));
        }
        for w in &mut reg.workers[old..new_width] {
            // A revived slot comes back healthy and unloaded.
            w.alive = true;
            w.slowdown = 1.0;
            w.load_override = None;
        }
        if let Some((t, inst)) = &mut reg.telemetry {
            inst.round.extend_to(t.registry(), new_width);
        }
        reg.starve_from.get_or_insert(old);
        reg.width = new_width;
        reg.apply_resize();
        for j in old..new_width {
            self.maybe_start_worker(r, j);
        }
    }

    /// Shrinks region `r` by `count` tail workers. The splitter stops
    /// routing to the removed slots immediately (their weight returns to
    /// the survivors); tuples already queued there drain in order through
    /// the still-running dormant workers.
    fn shrink_region(&mut self, r: usize, count: usize) {
        let reg = &mut self.regions[r];
        let new_width = reg.width.saturating_sub(count).max(1);
        if new_width == reg.width {
            return;
        }
        if let Some(lb) = reg.policy.balancer_mut() {
            if !(0..new_width).any(|j| lb.is_attached(j)) {
                // Shrinking away the only live connections would leave the
                // balancer with nothing to allocate to; skip the event.
                return;
            }
        }
        reg.width = new_width;
        reg.apply_resize();
    }

    fn on_sample(&mut self, r: usize) {
        let sabotage = self.chaos.and_then(|p| p.sabotage);
        if sabotage == Some(Sabotage::FlappingWidth) {
            // Deliberate thrash for oracle mutation testing: a width
            // policy with no hysteresis, reversing direction every round.
            // Each individual resize is legal, so only the flapping
            // oracle's oscillation budget can catch it.
            if self.regions[r].flap_grow {
                self.grow_region(r, None, 1);
            } else {
                self.shrink_region(r, 1);
            }
            self.regions[r].flap_grow ^= true;
        }
        let now = self.now;
        let reg = &mut self.regions[r];
        let interval = reg.cfg.sample_interval_ns;
        // Attribute any in-progress blocked span up to now, so long blocks
        // show up smoothly across intervals (like the paper's select
        // timeouts).
        if let Some((conn, since, seq)) = reg.blocked_on {
            reg.workers[conn].blocked_ns += now - since;
            if let Some((_, inst)) = &reg.telemetry {
                inst.blocked_ns.add(now - since);
            }
            reg.blocked_on = Some((conn, now, seq));
        }

        let n = reg.width;
        // With a jittered sampling clock the interval actually elapsed can
        // differ from the nominal one; rates are always per elapsed time.
        // Without jitter this is exactly `interval`, bit for bit.
        let elapsed = (now - reg.last_sample_ns).max(1);
        let mut policy_samples = Vec::with_capacity(n);
        let mut rates = Vec::with_capacity(n);
        for (j, w) in reg.workers[..n].iter_mut().enumerate() {
            let rate = (w.blocked_ns - w.blocked_ns_at_sample) as f64 / elapsed as f64;
            rates.push(rate);
            policy_samples.push(PolicySample {
                connection: j,
                rate,
                weight: reg.weights[j],
            });
            w.blocked_ns_at_sample = w.blocked_ns;
        }

        let ctx = SampleContext {
            now_ns: now,
            delivered: reg.delivered,
            workload: match reg.cfg.stop {
                StopCondition::Tuples(n) => Some(n),
                StopCondition::Duration(_) => None,
            },
        };
        if let Some(new_weights) = reg.policy.on_sample(&ctx, &policy_samples) {
            assert_eq!(new_weights.len(), n, "policy changed the region width");
            reg.weights.clear();
            reg.weights.extend_from_slice(new_weights.units());
            reg.wrr.set_units(new_weights.units());
        }

        match sabotage {
            Some(Sabotage::SkipRenormalization) => {
                // Deliberate bug for oracle mutation testing: dead
                // connections lose their weight with no redistribution, so
                // the installed allocation sums below the resolution.
                let mut mutated = false;
                for j in 0..n {
                    if !reg.workers[j].alive && reg.weights[j] > 0 {
                        reg.weights[j] = 0;
                        mutated = true;
                    }
                }
                if mutated && reg.weights.iter().any(|&u| u > 0) {
                    reg.wrr.set_units(&reg.weights);
                }
            }
            Some(Sabotage::StarveNewSlots) => {
                // Deliberate bug: the slots added by growth are folded back
                // onto connection 0 every round. The simplex stays intact —
                // only the width oracle's starvation check can see it.
                if let Some(from) = reg.starve_from {
                    let mut moved = 0u32;
                    for j in from..n {
                        moved += reg.weights[j];
                        reg.weights[j] = 0;
                    }
                    if moved > 0 {
                        reg.weights[0] += moved;
                        reg.wrr.set_units(&reg.weights);
                    }
                }
            }
            Some(Sabotage::FlappingWidth) | None => {}
        }

        let sample = RoundSnapshot {
            region: r,
            t_ns: now,
            weights: reg.weights.clone(),
            rates,
            delivered: reg.delivered - reg.delivered_at_sample,
            clusters: reg.policy.cluster_assignment(),
        };
        if let Some((t, inst)) = &reg.telemetry {
            inst.round.publish(&sample.rates, &sample.weights);
            // The trace holds a clone of the kept record, so a run can be
            // reconstructed from the exported trace alone.
            t.trace().push(TraceEvent::Sample(sample.clone()));
        }
        reg.samples.push(sample);
        reg.delivered_at_sample = reg.delivered;
        reg.round += 1;

        if let Some(obs) = self.observer.as_deref_mut() {
            let workers = &reg.workers[..n];
            let occupancy: Vec<usize> = workers.iter().map(|w| w.merge_q.len()).collect();
            let alive: Vec<bool> = workers.iter().map(|w| w.alive).collect();
            let last = reg.samples.last().expect("sample pushed above");
            obs.on_round(&mut RoundView {
                round: reg.round,
                t_ns: now,
                resolution: reg.resolution,
                weights: &reg.weights,
                rates: &last.rates,
                delivered: reg.delivered,
                next_expected: reg.next_expected,
                merge_occupancy: &occupancy,
                merge_capacity: reg.cfg.merge_capacity,
                worker_alive: &alive,
                last_fault_ns: reg.last_fault_ns,
                balancer: reg.policy.balancer_mut(),
            });
        }

        // Width-policy hook: the policy decides at the end of the round,
        // the engine applies by resizing the region, which calls back into
        // `Policy::on_resize` so the policy tracks its own width. The
        // default implementation holds, so fixed-width runs are untouched.
        match reg.policy.decide_width(&ctx) {
            WidthDecision::Grow(count) if count > 0 => {
                self.grow_region(r, None, count);
            }
            WidthDecision::Shrink(count) if count > 0 => self.shrink_region(r, count),
            _ => {}
        }

        let reg = &mut self.regions[r];
        reg.last_sample_ns = now;
        let next = if reg.sample_jitter_ns > 0 {
            // Jitter draws come from the run's seeded RNG, so jittered
            // runs replay exactly; runs without jitter draw nothing and
            // keep their original stream.
            let amp = reg.sample_jitter_ns.min(interval.saturating_sub(1));
            interval - amp + reg.rng.range_u64(0, 2 * amp)
        } else {
            interval
        };
        self.events.push(now + next, r, Ev::Sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RegionConfig, StopCondition};
    use crate::load::LoadSchedule;
    use crate::policy::{BalancerPolicy, RoundRobinPolicy};
    use crate::SECOND_NS;
    use streambal_core::controller::BalancerConfig;

    /// A small, quick default: 2 k tuples/s per worker.
    fn quick(workers: usize) -> crate::config::RegionConfigBuilder {
        let mut b = RegionConfig::builder(workers);
        b.base_cost(1_000).mult_ns(500.0);
        b
    }

    #[test]
    fn conservation_all_sent_tuples_delivered() {
        let cfg = quick(3).stop(StopCondition::Tuples(5_000)).build().unwrap();
        let r = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        assert_eq!(r.delivered, 5_000);
        assert_eq!(r.sent, 5_000);
        assert!(r.duration_ns > 0);
    }

    #[test]
    fn equal_workers_scale_throughput() {
        // 3 equal workers at 2 k/s each -> ~6 k/s through the region.
        let cfg = quick(3)
            .stop(StopCondition::Duration(10 * SECOND_NS))
            .build()
            .unwrap();
        let r = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let tput = r.mean_throughput();
        assert!(
            (5_000.0..7_000.0).contains(&tput),
            "expected ~6 k/s, got {tput}"
        );
    }

    #[test]
    fn merge_gates_on_slowest_worker_under_rr() {
        // One worker 10x slower: even split forces the whole region to
        // 3 x the slow rate (~600/s), not the sum of capacities.
        let cfg = quick(3)
            .worker_load(1, 10.0)
            .stop(StopCondition::Duration(10 * SECOND_NS))
            .build()
            .unwrap();
        let r = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let tput = r.mean_throughput();
        assert!(
            (400.0..900.0).contains(&tput),
            "expected ~600/s gated by slow worker, got {tput}"
        );
    }

    #[test]
    fn blocking_concentrates_on_slow_connection() {
        let cfg = quick(3)
            .worker_load(1, 10.0)
            .stop(StopCondition::Duration(10 * SECOND_NS))
            .build()
            .unwrap();
        let r = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let total: u64 = r.blocked_ns.iter().sum();
        assert!(total > 0, "splitter must block at all");
        assert!(
            r.blocked_ns[1] as f64 / total as f64 > 0.9,
            "slow connection should absorb nearly all blocking: {:?}",
            r.blocked_ns
        );
    }

    #[test]
    fn drafting_emerges_with_equal_capacity() {
        // All workers equal but the region is saturated: the splitter
        // blocks, and drafting makes one connection the dominant blocker.
        let cfg = quick(3)
            .stop(StopCondition::Duration(10 * SECOND_NS))
            .build()
            .unwrap();
        let r = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let total: u64 = r.blocked_ns.iter().sum();
        assert!(
            total > SECOND_NS,
            "saturated region must block the splitter"
        );
        let max = *r.blocked_ns.iter().max().unwrap();
        assert!(
            max as f64 / total as f64 > 0.5,
            "draft leader should dominate: {:?}",
            r.blocked_ns
        );
    }

    #[test]
    fn balancer_beats_round_robin_with_imbalance() {
        let build = || {
            quick(3)
                .worker_load(0, 10.0)
                .stop(StopCondition::Duration(30 * SECOND_NS))
                .build()
                .unwrap()
        };
        let rr = run(&build(), &mut RoundRobinPolicy::new()).unwrap();
        let lb = run(
            &build(),
            &mut BalancerPolicy::new(BalancerConfig::builder(3).build().unwrap()),
        )
        .unwrap();
        assert!(
            lb.final_throughput(5) > 1.5 * rr.final_throughput(5),
            "LB {} vs RR {}",
            lb.final_throughput(5),
            rr.final_throughput(5)
        );
    }

    #[test]
    fn balancer_weights_move_away_from_loaded_worker() {
        let cfg = quick(3)
            .worker_load(0, 100.0)
            .stop(StopCondition::Duration(20 * SECOND_NS))
            .build()
            .unwrap();
        let r = run(
            &cfg,
            &mut BalancerPolicy::new(BalancerConfig::builder(3).build().unwrap()),
        )
        .unwrap();
        let last = r.samples.last().unwrap();
        assert!(
            last.weights[0] <= 50,
            "100x-loaded connection should end near zero weight: {:?}",
            last.weights
        );
    }

    #[test]
    fn reroute_policy_reroutes_some_tuples() {
        let cfg = quick(2)
            .worker_load(0, 100.0)
            .stop(StopCondition::Duration(10 * SECOND_NS))
            .build()
            .unwrap();
        let r = run(&cfg, &mut RoundRobinPolicy::with_reroute()).unwrap();
        assert!(r.rerouted > 0, "rerouting baseline must reroute");
        assert!(
            (r.rerouted as f64) < 0.5 * r.sent as f64,
            "rerouting is a rare event: {} of {}",
            r.rerouted,
            r.sent
        );
    }

    #[test]
    fn hiccups_slow_the_region_down() {
        let smooth = quick(2)
            .stop(StopCondition::Tuples(20_000))
            .build()
            .unwrap();
        let hiccupy = quick(2)
            .stop(StopCondition::Tuples(20_000))
            .hiccups(0.01, 5_000_000)
            .build()
            .unwrap();
        let a = run(&smooth, &mut RoundRobinPolicy::new()).unwrap();
        let b = run(&hiccupy, &mut RoundRobinPolicy::new()).unwrap();
        assert!(
            b.duration_ns > a.duration_ns,
            "1% x 5ms hiccups must slow the run: {} vs {}",
            b.duration_ns,
            a.duration_ns
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            quick(4)
                .worker_load(2, 5.0)
                .stop(StopCondition::Duration(5 * SECOND_NS))
                .seed(7)
                .build()
                .unwrap()
        };
        let a = run(&build(), &mut RoundRobinPolicy::new()).unwrap();
        let b = run(&build(), &mut RoundRobinPolicy::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn load_removal_recovers_throughput() {
        let cfg = quick(2)
            .worker_load_schedule(0, LoadSchedule::step(10.0, 5 * SECOND_NS, 1.0))
            .stop(StopCondition::Duration(20 * SECOND_NS))
            .build()
            .unwrap();
        let r = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        // After removal the region should approach 2 x 2k/s even under RR.
        let final_tput = r.final_throughput(5);
        assert!(
            final_tput > 3_000.0,
            "post-removal throughput {final_tput} too low"
        );
    }

    #[test]
    fn fraction_event_changes_service_mid_run() {
        use crate::config::FractionEvent;
        // Worker 0 is 50x slow until half the workload is delivered; the
        // run must finish much faster than a fully-loaded one.
        let loaded = quick(2)
            .worker_load(0, 50.0)
            .stop(StopCondition::Tuples(10_000))
            .build()
            .unwrap();
        let relieved = quick(2)
            .worker_load(0, 50.0)
            .stop(StopCondition::Tuples(10_000))
            .fraction_event(FractionEvent {
                fraction: 0.5,
                worker: 0,
                factor: 1.0,
            })
            .build()
            .unwrap();
        let a = run(&loaded, &mut RoundRobinPolicy::new()).unwrap();
        let b = run(&relieved, &mut RoundRobinPolicy::new()).unwrap();
        assert!(
            b.duration_ns * 3 < a.duration_ns * 2,
            "relieved {} vs loaded {}",
            b.duration_ns,
            a.duration_ns
        );
        assert_eq!(b.delivered, 10_000);
    }

    fn fault(t_s: u64, fault: crate::chaos::FaultKind) -> crate::chaos::TimedFault {
        crate::chaos::TimedFault {
            t_ns: t_s * SECOND_NS,
            fault,
        }
    }

    #[test]
    fn chaos_with_empty_plan_matches_plain_run() {
        // The chaos machinery must cost nothing when unused: an empty plan
        // replays the exact run (weights, rates, every sample) bit for bit.
        let cfg = quick(3)
            .stop(StopCondition::Duration(8 * SECOND_NS))
            .seed(9)
            .build()
            .unwrap();
        let mut a = BalancerPolicy::adaptive(BalancerConfig::builder(3).build().unwrap());
        let mut b = BalancerPolicy::adaptive(BalancerConfig::builder(3).build().unwrap());
        let plain = run(&cfg, &mut a).unwrap();
        let chaos = run_chaos(&cfg, &mut b, &ChaosPlan::default(), None, None).unwrap();
        assert_eq!(plain, chaos);
    }

    #[test]
    fn chaos_runs_replay_identically() {
        let cfg = quick(3)
            .stop(StopCondition::Duration(12 * SECOND_NS))
            .build()
            .unwrap();
        let plan = ChaosPlan::new(vec![
            fault(2, FaultKind::WorkerDeath { worker: 1 }),
            fault(
                3,
                FaultKind::SampleJitter {
                    amplitude_ns: SECOND_NS / 8,
                },
            ),
            fault(4, FaultKind::WorkerRestart { worker: 1 }),
            fault(
                5,
                FaultKind::Slowdown {
                    worker: 0,
                    factor: 3.0,
                },
            ),
            fault(
                7,
                FaultKind::Slowdown {
                    worker: 0,
                    factor: 1.0,
                },
            ),
        ]);
        let mut a = BalancerPolicy::adaptive(BalancerConfig::builder(3).build().unwrap());
        let mut b = BalancerPolicy::adaptive(BalancerConfig::builder(3).build().unwrap());
        let ra = run_chaos(&cfg, &mut a, &plan, None, None).unwrap();
        let rb = run_chaos(&cfg, &mut b, &plan, None, None).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn worker_death_degrades_and_restart_recovers_delivery() {
        let cfg = quick(2)
            .stop(StopCondition::Duration(10 * SECOND_NS))
            .build()
            .unwrap();
        let baseline = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let plan = ChaosPlan::new(vec![
            fault(2, FaultKind::WorkerDeath { worker: 1 }),
            fault(5, FaultKind::WorkerRestart { worker: 1 }),
        ]);
        let r = run_chaos(&cfg, &mut RoundRobinPolicy::new(), &plan, None, None).unwrap();
        assert!(
            r.delivered < baseline.delivered,
            "a 3 s outage must cost delivery: {} vs {}",
            r.delivered,
            baseline.delivered
        );
        // The restart drains the dead worker's queue and the frontier moves
        // again: well over the pre-death portion of the run gets delivered.
        assert!(
            r.delivered > baseline.delivered / 2,
            "the region must recover after the restart, delivered {}",
            r.delivered
        );
    }

    #[test]
    fn a_death_on_a_shared_host_frees_its_busy_slot() {
        // Two saturated workers on a 2-thread host each run at full speed.
        // Worker 1 dies mid-tuple and restarts: once it is back, the host
        // must count two busy workers again, not a phantom third that
        // would hold both at two thirds of their speed.
        let cfg = quick(2)
            .hosts(vec![crate::host::Host::new(2, 1.0)])
            .stop(StopCondition::Duration(12 * SECOND_NS))
            .build()
            .unwrap();
        let plan = ChaosPlan::new(vec![
            fault(3, FaultKind::WorkerDeath { worker: 1 }),
            fault(5, FaultKind::WorkerRestart { worker: 1 }),
        ]);
        let mut policy = RoundRobinPolicy::new();
        let cfgs = std::slice::from_ref(&cfg);
        let policies = [&mut policy as &mut dyn Policy];
        let mut engine = Engine::new(cfgs, policies, Some(&cfg.hosts), &[], None);
        engine.chaos = Some(&plan);
        let r = engine.run().pop().unwrap();
        let mean = |from: usize, to: usize| {
            let rounds = &r.samples[from..to];
            rounds.iter().map(|s| s.delivered).sum::<u64>() as f64 / rounds.len() as f64
        };
        let (before, after) = (mean(1, 3), mean(8, 12));
        assert!(
            after > 0.95 * before,
            "{after} tuples/round after the restart vs {before} before the death"
        );
    }

    #[test]
    fn death_without_restart_freezes_the_frontier_but_terminates() {
        // In-order merge semantics: tuples queued on the dead connection
        // gate the frontier forever, but the simulation still terminates at
        // its stop condition rather than hanging.
        let cfg = quick(2)
            .stop(StopCondition::Duration(6 * SECOND_NS))
            .build()
            .unwrap();
        let plan = ChaosPlan::new(vec![fault(2, FaultKind::WorkerDeath { worker: 0 })]);
        let r = run_chaos(&cfg, &mut RoundRobinPolicy::new(), &plan, None, None).unwrap();
        assert!(r.delivered > 0);
        assert!(
            r.delivered < r.sent,
            "work must remain stuck behind the dead worker: {} of {}",
            r.delivered,
            r.sent
        );
    }

    #[test]
    fn connection_stall_costs_throughput_then_drains() {
        let cfg = quick(2)
            .stop(StopCondition::Duration(8 * SECOND_NS))
            .build()
            .unwrap();
        let baseline = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let plan = ChaosPlan::new(vec![fault(
            2,
            FaultKind::ConnectionStall {
                conn: 0,
                duration_ns: 2 * SECOND_NS,
            },
        )]);
        let r = run_chaos(&cfg, &mut RoundRobinPolicy::new(), &plan, None, None).unwrap();
        assert!(r.delivered > 0);
        assert!(
            r.delivered < baseline.delivered,
            "a 2 s stall must cost delivery: {} vs {}",
            r.delivered,
            baseline.delivered
        );
    }

    #[test]
    fn load_spike_overrides_the_schedule_until_recovery() {
        let cfg = quick(2)
            .stop(StopCondition::Duration(10 * SECOND_NS))
            .build()
            .unwrap();
        let baseline = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let spike_only = ChaosPlan::new(vec![fault(
            2,
            FaultKind::LoadSpike {
                worker: 0,
                factor: 10.0,
            },
        )]);
        let with_recovery = ChaosPlan::new(vec![
            fault(
                2,
                FaultKind::LoadSpike {
                    worker: 0,
                    factor: 10.0,
                },
            ),
            fault(
                4,
                FaultKind::LoadSpike {
                    worker: 0,
                    factor: 1.0,
                },
            ),
        ]);
        let r_spike =
            run_chaos(&cfg, &mut RoundRobinPolicy::new(), &spike_only, None, None).unwrap();
        let r_recovered = run_chaos(
            &cfg,
            &mut RoundRobinPolicy::new(),
            &with_recovery,
            None,
            None,
        )
        .unwrap();
        assert!(r_spike.delivered < r_recovered.delivered);
        assert!(r_recovered.delivered < baseline.delivered);
    }

    #[test]
    fn sample_jitter_perturbs_the_control_clock_deterministically() {
        let cfg = quick(2)
            .stop(StopCondition::Duration(10 * SECOND_NS))
            .build()
            .unwrap();
        let plan = ChaosPlan::new(vec![fault(
            2,
            FaultKind::SampleJitter {
                amplitude_ns: SECOND_NS / 4,
            },
        )]);
        let a = run_chaos(&cfg, &mut RoundRobinPolicy::new(), &plan, None, None).unwrap();
        let b = run_chaos(&cfg, &mut RoundRobinPolicy::new(), &plan, None, None).unwrap();
        assert_eq!(a, b, "jittered sampling must still replay from the seed");
        let gaps: Vec<u64> = a
            .samples
            .windows(2)
            .map(|w| w[1].t_ns - w[0].t_ns)
            .collect();
        assert!(
            gaps.iter().any(|&g| g != gaps[0]),
            "jitter must move the sample instants: {gaps:?}"
        );
    }

    #[test]
    fn worker_add_grows_the_region_under_the_balancer() {
        let cfg = quick(2)
            .stop(StopCondition::Duration(16 * SECOND_NS))
            .build()
            .unwrap();
        let plan = ChaosPlan::new(vec![fault(3, FaultKind::WorkerAdd { count: 2 })]);
        let mut p = BalancerPolicy::adaptive(BalancerConfig::builder(2).build().unwrap());
        let r = run_chaos(&cfg, &mut p, &plan, None, None).unwrap();
        assert_eq!(r.samples.first().unwrap().weights.len(), 2);
        let last = r.samples.last().unwrap();
        assert_eq!(last.weights.len(), 4, "samples follow the grown width");
        assert_eq!(last.rates.len(), 4);
        assert_eq!(
            last.weights.iter().map(|&u| u64::from(u)).sum::<u64>(),
            1000
        );
        // The region is saturated, so the exploration-bounded newcomers
        // must have earned real weight by the end of the run.
        assert!(
            last.weights[2] > 0 && last.weights[3] > 0,
            "new slots must not starve: {:?}",
            last.weights
        );
        assert_eq!(p.balancer().config().connections(), 4);
        assert!(p.balancer().is_attached(2) && p.balancer().is_attached(3));
    }

    #[test]
    fn worker_remove_shrinks_and_keeps_the_simplex() {
        let cfg = quick(4)
            .stop(StopCondition::Duration(12 * SECOND_NS))
            .build()
            .unwrap();
        let plan = ChaosPlan::new(vec![fault(3, FaultKind::WorkerRemove { count: 2 })]);
        let mut p = BalancerPolicy::adaptive(BalancerConfig::builder(4).build().unwrap());
        let r = run_chaos(&cfg, &mut p, &plan, None, None).unwrap();
        let last = r.samples.last().unwrap();
        assert_eq!(last.weights.len(), 2, "samples follow the shrunk width");
        assert_eq!(
            last.weights.iter().map(|&u| u64::from(u)).sum::<u64>(),
            1000
        );
        assert_eq!(p.balancer().config().connections(), 2);
        assert!(r.delivered > 0);
    }

    #[test]
    fn growth_under_round_robin_installs_an_even_wider_split() {
        let cfg = quick(2)
            .stop(StopCondition::Duration(10 * SECOND_NS))
            .build()
            .unwrap();
        let plan = ChaosPlan::new(vec![fault(2, FaultKind::WorkerAdd { count: 1 })]);
        let r = run_chaos(&cfg, &mut RoundRobinPolicy::new(), &plan, None, None).unwrap();
        let last = r.samples.last().unwrap();
        assert_eq!(last.weights.len(), 3);
        assert_eq!(
            last.weights.iter().map(|&u| u64::from(u)).sum::<u64>(),
            1000
        );
        let spread = last.weights.iter().max().unwrap() - last.weights.iter().min().unwrap();
        assert!(
            spread <= 1,
            "round-robin growth stays even: {:?}",
            last.weights
        );
    }

    #[test]
    fn growth_chaos_runs_replay_identically() {
        let cfg = quick(3)
            .stop(StopCondition::Duration(14 * SECOND_NS))
            .seed(21)
            .build()
            .unwrap();
        let plan = ChaosPlan::new(vec![
            fault(2, FaultKind::WorkerAdd { count: 2 }),
            fault(4, FaultKind::WorkerDeath { worker: 4 }),
            fault(5, FaultKind::WorkerRestart { worker: 4 }),
            fault(6, FaultKind::WorkerRemove { count: 1 }),
        ]);
        let mut a = BalancerPolicy::adaptive(BalancerConfig::builder(3).build().unwrap());
        let mut b = BalancerPolicy::adaptive(BalancerConfig::builder(3).build().unwrap());
        let ra = run_chaos(&cfg, &mut a, &plan, None, None).unwrap();
        let rb = run_chaos(&cfg, &mut b, &plan, None, None).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn removed_tail_still_drains_its_queue() {
        // Shrink immediately after start: whatever was queued on the tail
        // connections must still come out the merger in order (the run
        // completes its tuple budget instead of freezing the frontier).
        let cfg = quick(4).stop(StopCondition::Tuples(5_000)).build().unwrap();
        let plan = ChaosPlan::new(vec![fault(1, FaultKind::WorkerRemove { count: 3 })]);
        let r = run_chaos(&cfg, &mut RoundRobinPolicy::new(), &plan, None, None).unwrap();
        assert_eq!(r.delivered, 5_000);
    }

    #[test]
    fn single_worker_region_works() {
        let cfg = quick(1).stop(StopCondition::Tuples(1_000)).build().unwrap();
        let r = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        assert_eq!(r.delivered, 1_000);
    }

    #[test]
    fn sample_traces_have_region_width() {
        let cfg = quick(3)
            .stop(StopCondition::Duration(5 * SECOND_NS))
            .build()
            .unwrap();
        let r = run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        assert!(!r.samples.is_empty());
        for s in &r.samples {
            assert_eq!(s.weights.len(), 3);
            assert_eq!(s.rates.len(), 3);
            assert!(s.rates.iter().all(|&x| x >= 0.0));
        }
    }
}
