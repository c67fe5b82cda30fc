//! Experiment configuration for the simulated parallel region.

use crate::host::Host;
use crate::load::LoadSchedule;
use crate::SECOND_NS;
use std::fmt;

/// When a simulation run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Stop once this many tuples have been delivered by the merger
    /// (the paper's fixed-workload *total execution time* experiments).
    Tuples(u64),
    /// Stop at this simulated time in nanoseconds (the paper's in-depth
    /// time-series experiments).
    Duration(u64),
}

/// One worker PE: its host assignment and external-load schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// Index into [`RegionConfig::hosts`].
    pub host: usize,
    /// The external-load cost multiplier over time.
    pub load: LoadSchedule,
}

/// An external-load change triggered by workload *progress* rather than
/// simulated time: when the merger has delivered `fraction` of the total
/// workload, the worker's cost multiplier becomes `factor` (overriding its
/// schedule from then on).
///
/// This is how the paper's dynamic sweep experiments remove load "an eighth
/// through the experiment": an eighth of each policy's *own* execution, so
/// a slow policy suffers the load for proportionally longer wall time.
/// Requires a [`StopCondition::Tuples`] stop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionEvent {
    /// Workload fraction in `(0, 1)` at which the change fires.
    pub fraction: f64,
    /// The worker whose load changes.
    pub worker: usize,
    /// The new cost multiplier.
    pub factor: f64,
}

/// Error returned by [`RegionConfigBuilder::build`] and
/// [`RegionConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// No workers were configured.
    NoWorkers,
    /// A worker referenced a host index that does not exist.
    UnknownHost {
        /// The offending worker.
        worker: usize,
        /// The host index it referenced.
        host: usize,
    },
    /// A size or duration parameter was zero where it must be positive.
    ZeroParameter(&'static str),
    /// A fraction event was malformed or used without a tuple-count stop.
    BadFractionEvent,
    /// A chaos fault event (see [`crate::chaos`]) referenced an unknown
    /// worker/connection or carried a non-positive parameter. The payload
    /// is the offending event's index in the plan.
    BadChaosEvent(usize),
    /// A multi-region run (see [`crate::multi`]) was handed a policy list
    /// that does not have exactly one policy per region.
    PolicyCount {
        /// Regions in the configuration.
        regions: usize,
        /// Policies supplied.
        policies: usize,
    },
    /// Region `r` of a coupled run (see [`crate::multi`]) carries `hosts`
    /// or a `stop` that differ from region 0's; the regions share both.
    CoupledMismatch(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoWorkers => write!(f, "region needs at least one worker"),
            ConfigError::UnknownHost { worker, host } => {
                write!(f, "worker {worker} references unknown host {host}")
            }
            ConfigError::ZeroParameter(name) => write!(f, "{name} must be positive"),
            ConfigError::BadFractionEvent => write!(
                f,
                "fraction events need a fraction in (0,1), a known worker and a Tuples stop"
            ),
            ConfigError::BadChaosEvent(i) => write!(
                f,
                "chaos event {i} references an unknown worker/connection or has a bad parameter"
            ),
            ConfigError::PolicyCount { regions, policies } => write!(
                f,
                "{regions} regions need one policy each, got {policies} policies"
            ),
            ConfigError::CoupledMismatch(r) => write!(
                f,
                "region {r}'s hosts or stop condition differ from region 0's"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a simulated parallel region.
///
/// Construct via [`RegionConfig::builder`]; the engine re-validates with
/// [`RegionConfig::validate`] before running.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionConfig {
    /// Worker PEs (their order defines connection indices).
    pub workers: Vec<WorkerSpec>,
    /// Compute nodes referenced by the workers.
    pub hosts: Vec<Host>,
    /// Per-tuple base cost in "integer multiplies" (the paper's unit).
    pub base_cost: u64,
    /// Nanoseconds per multiply at host speed 1.0. The paper's hardware does
    /// roughly one multiply per ns; experiment scenarios scale this up to
    /// keep simulated event counts manageable without changing any dynamics.
    pub mult_ns: f64,
    /// Splitter per-tuple routing cost in ns (bounds the region's peak rate;
    /// this is what makes the paper's workload "stop scaling at 8 PEs").
    pub send_overhead_ns: u64,
    /// Per-connection buffer capacity in tuples (models the socket buffers
    /// between splitter and worker).
    pub conn_capacity: usize,
    /// Per-connection reorder-queue capacity at the merger. The default is
    /// effectively unbounded (the paper's merger buffers out-of-order tuples
    /// in memory, so back-pressure reaches the splitter through the worker
    /// connections, not around the merger — a small bound here would
    /// misattribute a slow worker's blocking to its fast siblings, whose
    /// reorder queues fill while the merger waits).
    pub merge_capacity: usize,
    /// Control-loop sampling interval in ns (the paper samples every 1 s).
    pub sample_interval_ns: u64,
    /// When the run ends.
    pub stop: StopCondition,
    /// Workload-progress-triggered load changes (see [`FractionEvent`]).
    pub fraction_events: Vec<FractionEvent>,
    /// Relative service-time jitter (uniform in `±jitter`); breaks the
    /// perfect synchrony a noiseless simulation would otherwise exhibit.
    pub jitter: f64,
    /// Probability (per tuple) of a scheduler *hiccup*: an extra
    /// [`hiccup_ns`](Self::hiccup_ns) of service time, modelling OS
    /// preemption. Defaults to 0 (off); Figure 5's 50/50 draft-leader swap
    /// only occurs when some external disturbance breaks the drafting
    /// rhythm, which on the paper's testbed the OS provides for free.
    pub hiccup_prob: f64,
    /// Extra service time added by one hiccup, ns (default 2 ms).
    pub hiccup_ns: u64,
    /// RNG seed for the jitter; identical configs reproduce identical runs.
    pub seed: u64,
}

impl RegionConfig {
    /// Starts a builder for a region with `workers` worker PEs, all on one
    /// sufficiently large "slow" host, with the paper's defaults.
    pub fn builder(workers: usize) -> RegionConfigBuilder {
        RegionConfigBuilder(RegionConfig {
            workers: (0..workers)
                .map(|_| WorkerSpec {
                    host: 0,
                    load: LoadSchedule::unloaded(),
                })
                .collect(),
            hosts: vec![Host::new(workers.max(1) as u32, 1.0)],
            base_cost: 1_000,
            mult_ns: 50.0,
            send_overhead_ns: 0,
            conn_capacity: 64,
            merge_capacity: 1 << 20,
            sample_interval_ns: SECOND_NS,
            stop: StopCondition::Duration(60 * SECOND_NS),
            fraction_events: Vec::new(),
            jitter: 0.05,
            hiccup_prob: 0.0,
            hiccup_ns: 2_000_000,
            seed: 42,
        })
    }

    /// Number of worker PEs (= connections).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The unloaded service time of one tuple at host speed 1.0, in ns.
    pub fn base_service_ns(&self) -> f64 {
        self.base_cost as f64 * self.mult_ns
    }

    /// Checks structural validity.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers.is_empty() {
            return Err(ConfigError::NoWorkers);
        }
        for (j, w) in self.workers.iter().enumerate() {
            if w.host >= self.hosts.len() {
                return Err(ConfigError::UnknownHost {
                    worker: j,
                    host: w.host,
                });
            }
        }
        if self.base_cost == 0 {
            return Err(ConfigError::ZeroParameter("base_cost"));
        }
        if self.mult_ns.is_nan() || self.mult_ns <= 0.0 {
            return Err(ConfigError::ZeroParameter("mult_ns"));
        }
        if self.conn_capacity == 0 {
            return Err(ConfigError::ZeroParameter("conn_capacity"));
        }
        if self.merge_capacity == 0 {
            return Err(ConfigError::ZeroParameter("merge_capacity"));
        }
        if self.sample_interval_ns == 0 {
            return Err(ConfigError::ZeroParameter("sample_interval_ns"));
        }
        match self.stop {
            StopCondition::Tuples(0) => return Err(ConfigError::ZeroParameter("stop tuples")),
            StopCondition::Duration(0) => return Err(ConfigError::ZeroParameter("stop duration")),
            _ => {}
        }
        if !(0.0..=1.0).contains(&self.hiccup_prob) {
            return Err(ConfigError::ZeroParameter("hiccup_prob in [0,1]"));
        }
        for e in &self.fraction_events {
            let fraction_ok = e.fraction > 0.0 && e.fraction < 1.0;
            let stop_ok = matches!(self.stop, StopCondition::Tuples(_));
            if !fraction_ok || !stop_ok || e.worker >= self.workers.len() {
                return Err(ConfigError::BadFractionEvent);
            }
            if !(e.factor.is_finite() && e.factor > 0.0) {
                return Err(ConfigError::BadFractionEvent);
            }
        }
        Ok(())
    }

    /// Effective speed of each worker, accounting for host speed and
    /// oversubscription by the workers sharing its host.
    pub fn effective_speeds(&self) -> Vec<f64> {
        let mut per_host = vec![0u32; self.hosts.len()];
        for w in &self.workers {
            per_host[w.host] += 1;
        }
        self.workers
            .iter()
            .map(|w| self.hosts[w.host].effective_speed(per_host[w.host]))
            .collect()
    }
}

/// Builder for [`RegionConfig`]: the configuration under construction,
/// validated by [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct RegionConfigBuilder(RegionConfig);

impl RegionConfigBuilder {
    /// Replaces the host list (workers default to host 0).
    pub fn hosts(&mut self, hosts: Vec<Host>) -> &mut Self {
        self.0.hosts = hosts;
        self
    }

    /// Assigns worker `j` to host `host`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn worker_host(&mut self, j: usize, host: usize) -> &mut Self {
        self.0.workers[j].host = host;
        self
    }

    /// Gives worker `j` a constant external-load multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or the factor is invalid.
    pub fn worker_load(&mut self, j: usize, factor: f64) -> &mut Self {
        self.0.workers[j].load = LoadSchedule::constant(factor);
        self
    }

    /// Gives worker `j` an arbitrary load schedule.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn worker_load_schedule(&mut self, j: usize, schedule: LoadSchedule) -> &mut Self {
        self.0.workers[j].load = schedule;
        self
    }

    /// Sets the per-tuple base cost in integer multiplies.
    pub fn base_cost(&mut self, multiplies: u64) -> &mut Self {
        self.0.base_cost = multiplies;
        self
    }

    /// Sets the simulated cost of one multiply at speed 1.0, in ns.
    pub fn mult_ns(&mut self, ns: f64) -> &mut Self {
        self.0.mult_ns = ns;
        self
    }

    /// Sets the splitter's per-tuple routing cost in ns. `0` (the default)
    /// derives it as 1/64 of the unloaded tuple service time.
    pub fn send_overhead_ns(&mut self, ns: u64) -> &mut Self {
        self.0.send_overhead_ns = ns;
        self
    }

    /// Sets the per-connection buffer capacity in tuples.
    pub fn conn_capacity(&mut self, tuples: usize) -> &mut Self {
        self.0.conn_capacity = tuples;
        self
    }

    /// Sets the merger's per-connection reorder-queue capacity.
    pub fn merge_capacity(&mut self, tuples: usize) -> &mut Self {
        self.0.merge_capacity = tuples;
        self
    }

    /// Sets the control-loop sampling interval in ns.
    pub fn sample_interval_ns(&mut self, ns: u64) -> &mut Self {
        self.0.sample_interval_ns = ns;
        self
    }

    /// Sets the stop condition.
    pub fn stop(&mut self, stop: StopCondition) -> &mut Self {
        self.0.stop = stop;
        self
    }

    /// Adds a workload-progress-triggered load change (see
    /// [`FractionEvent`]); requires a [`StopCondition::Tuples`] stop.
    pub fn fraction_event(&mut self, event: FractionEvent) -> &mut Self {
        self.0.fraction_events.push(event);
        self
    }

    /// Sets the relative service-time jitter.
    pub fn jitter(&mut self, jitter: f64) -> &mut Self {
        self.0.jitter = jitter;
        self
    }

    /// Enables scheduler hiccups: with probability `prob` per tuple, a
    /// worker's service takes an extra `extra_ns`.
    pub fn hiccups(&mut self, prob: f64, extra_ns: u64) -> &mut Self {
        self.0.hiccup_prob = prob;
        self.0.hiccup_ns = extra_ns;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.0.seed = seed;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn build(&self) -> Result<RegionConfig, ConfigError> {
        let mut cfg = self.0.clone();
        if cfg.send_overhead_ns == 0 {
            cfg.send_overhead_ns = (cfg.base_service_ns() / 64.0).max(1.0) as u64;
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let cfg = RegionConfig::builder(3).build().unwrap();
        assert_eq!(cfg.num_workers(), 3);
        assert_eq!(cfg.effective_speeds(), vec![1.0, 1.0, 1.0]);
        assert!(cfg.send_overhead_ns > 0);
    }

    #[test]
    fn empty_region_rejected() {
        assert_eq!(
            RegionConfig::builder(0).build().unwrap_err(),
            ConfigError::NoWorkers
        );
    }

    #[test]
    fn unknown_host_rejected() {
        let err = RegionConfig::builder(2)
            .worker_host(1, 7)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::UnknownHost { worker: 1, host: 7 });
    }

    #[test]
    fn oversubscription_reflected_in_effective_speeds() {
        let mut b = RegionConfig::builder(12);
        b.hosts(vec![Host::slow()]);
        let cfg = b.build().unwrap();
        let speeds = cfg.effective_speeds();
        assert!(speeds.iter().all(|&s| (s - 8.0 / 12.0).abs() < 1e-12));
    }

    #[test]
    fn heterogeneous_hosts() {
        let mut b = RegionConfig::builder(2);
        b.hosts(vec![Host::fast(), Host::slow()]).worker_host(1, 1);
        let cfg = b.build().unwrap();
        assert_eq!(cfg.effective_speeds(), vec![1.8, 1.0]);
    }

    #[test]
    fn default_send_overhead_derived_from_cost() {
        let cfg = RegionConfig::builder(1)
            .base_cost(6400)
            .mult_ns(10.0)
            .build()
            .unwrap();
        assert_eq!(cfg.send_overhead_ns, 1000);
    }
}
