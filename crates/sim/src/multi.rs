//! Multi-region simulation with **processor-sharing hosts**: several
//! ordered parallel regions run in one event loop, their workers competing
//! for the hardware threads of shared hosts.
//!
//! This is the [`engine`](crate::engine) built with shared hosts: where a
//! single-region run gives every worker a fixed effective speed, a coupled
//! run models the §8 cluster reality — a host with `threads` hardware
//! threads and `b` *currently busy* PEs runs each of them at
//! `speed × min(1, threads / b)`, re-scaled whenever a worker starts or
//! finishes a tuple. Everything else (splitter, bounded connection
//! buffers, in-order merger, control loop, resizes) is the one engine's
//! code, so each region behaves exactly like a single-region run whose
//! workers happen to have neighbours.
//!
//! This module holds the coupled run's configuration and its entry points.

use streambal_telemetry::Telemetry;

use crate::config::{ConfigError, RegionConfig, StopCondition, WorkerSpec};
use crate::engine::Engine;
use crate::host::Host;
use crate::load::LoadSchedule;
use crate::metrics::RunResult;
use crate::policy::Policy;

/// One region of a multi-region simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRegionSpec {
    /// Per-tuple base cost in integer multiplies.
    pub base_cost: u64,
    /// Simulated ns per multiply at host speed 1.0.
    pub mult_ns: f64,
    /// Splitter per-tuple routing cost, ns.
    pub send_overhead_ns: u64,
    /// Per-connection buffer capacity in tuples.
    pub conn_capacity: usize,
    /// Host index (into [`MultiConfig::hosts`]) of each worker PE.
    pub workers: Vec<usize>,
    /// Constant external-load cost multiplier per worker.
    pub load: Vec<f64>,
}

impl MultiRegionSpec {
    /// A region with every worker on `host`, unloaded.
    pub fn uniform(pes: usize, host: usize, base_cost: u64, mult_ns: f64) -> Self {
        MultiRegionSpec {
            base_cost,
            mult_ns,
            send_overhead_ns: ((base_cost as f64 * mult_ns) / 64.0).max(1.0) as u64,
            conn_capacity: 64,
            workers: vec![host; pes],
            load: vec![1.0; pes],
        }
    }

    /// This region as the engine's [`RegionConfig`]: constant loads, exact
    /// service times (the coupling is the only noise source), a reorder
    /// queue that never gates, and the run's shared clock settings.
    fn lower(&self, run: &MultiConfig) -> RegionConfig {
        let workers = self.workers.iter().zip(&self.load);
        RegionConfig {
            workers: workers
                .map(|(&host, &factor)| WorkerSpec {
                    host,
                    load: LoadSchedule::constant(factor),
                })
                .collect(),
            hosts: run.hosts.clone(),
            base_cost: self.base_cost,
            mult_ns: self.mult_ns,
            send_overhead_ns: self.send_overhead_ns,
            conn_capacity: self.conn_capacity,
            merge_capacity: usize::MAX,
            sample_interval_ns: run.sample_interval_ns,
            stop: StopCondition::Duration(run.duration_ns),
            fraction_events: Vec::new(),
            jitter: 0.0,
            hiccup_prob: 0.0,
            hiccup_ns: 0,
            seed: 0,
        }
    }
}

/// Configuration of a coupled multi-region run (duration-stopped).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiConfig {
    /// The shared compute nodes.
    pub hosts: Vec<Host>,
    /// The regions competing for them.
    pub regions: Vec<MultiRegionSpec>,
    /// Control-loop sampling interval, ns (per region).
    pub sample_interval_ns: u64,
    /// Simulated run length, ns.
    pub duration_ns: u64,
}

impl MultiConfig {
    /// Checks structural validity.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.regions.is_empty() || self.regions.iter().any(|r| r.workers.is_empty()) {
            return Err(ConfigError::NoWorkers);
        }
        for r in &self.regions {
            if r.workers.len() != r.load.len() {
                return Err(ConfigError::ZeroParameter("load vector width"));
            }
            for (worker, (&host, &f)) in r.workers.iter().zip(&r.load).enumerate() {
                if host >= self.hosts.len() {
                    return Err(ConfigError::UnknownHost { worker, host });
                }
                if !f.is_finite() || f <= 0.0 {
                    return Err(ConfigError::ZeroParameter("load factor"));
                }
            }
            if r.base_cost == 0 || r.mult_ns.is_nan() || r.mult_ns <= 0.0 || r.conn_capacity == 0 {
                return Err(ConfigError::ZeroParameter("region parameters"));
            }
        }
        if self.sample_interval_ns == 0 || self.duration_ns == 0 {
            return Err(ConfigError::ZeroParameter("intervals"));
        }
        Ok(())
    }
}

/// A scheduled live width change for one region of a multi-region run
/// (see [`run_multi_elastic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeEvent {
    /// When the change takes effect (simulated ns).
    pub t_ns: u64,
    /// Index into [`MultiConfig::regions`].
    pub region: usize,
    /// What happens to the region's width.
    pub change: WidthChange,
}

/// The direction of a [`ResizeEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthChange {
    /// Open `count` fresh worker slots, all placed on `host`.
    Grow {
        /// Host index (into [`MultiConfig::hosts`]) for the new PEs.
        host: usize,
        /// How many slots to open (must be positive).
        count: usize,
    },
    /// Hand the `count` highest-numbered slots back. Their queued tuples
    /// still drain in order; the splitter just stops feeding them.
    Shrink {
        /// How many slots to close (must leave at least one).
        count: usize,
    },
}

/// Replays the resize schedule against the starting widths, rejecting
/// events that reference an unknown region or host, carry a zero count,
/// or would shrink a region below one worker.
fn validate_resizes(cfg: &MultiConfig, resizes: &[ResizeEvent]) -> Result<(), ConfigError> {
    let mut widths: Vec<usize> = cfg.regions.iter().map(|r| r.workers.len()).collect();
    let mut order: Vec<usize> = (0..resizes.len()).collect();
    order.sort_by_key(|&i| (resizes[i].t_ns, i));
    for i in order {
        let ev = &resizes[i];
        let ok = match ev.change {
            WidthChange::Grow { host, count } => {
                let ok = count > 0 && host < cfg.hosts.len();
                if let Some(w) = widths.get_mut(ev.region) {
                    *w += count;
                }
                ok && ev.region < cfg.regions.len()
            }
            WidthChange::Shrink { count } => match widths.get_mut(ev.region) {
                Some(w) if count > 0 && count < *w => {
                    *w -= count;
                    true
                }
                _ => false,
            },
        };
        if !ok {
            return Err(ConfigError::BadChaosEvent(i));
        }
    }
    Ok(())
}

/// Validates, lowers every region to the [`RegionConfig`] the engine runs
/// and drives them on one shared-host engine.
fn run_coupled(
    cfg: &MultiConfig,
    mut policies: Vec<Box<dyn Policy>>,
    resizes: &[ResizeEvent],
    telemetry: Option<&Telemetry>,
) -> Result<Vec<RunResult>, ConfigError> {
    cfg.validate()?;
    if policies.len() != cfg.regions.len() {
        return Err(ConfigError::PolicyCount {
            regions: cfg.regions.len(),
            policies: policies.len(),
        });
    }
    validate_resizes(cfg, resizes)?;
    let regions: Vec<RegionConfig> = cfg.regions.iter().map(|r| r.lower(cfg)).collect();
    if let Some(t) = telemetry {
        policies.iter_mut().for_each(|p| p.attach_telemetry(t));
    }
    let policies = policies.iter_mut().map(|p| &mut **p as &mut dyn Policy);
    Ok(Engine::new(&regions, policies, Some(&cfg.hosts), resizes, telemetry).run())
}

/// Runs a coupled multi-region simulation; one policy per region.
///
/// Returns one [`RunResult`] per region (all sharing the run's duration).
///
/// # Errors
///
/// Returns a [`ConfigError`] when the configuration is invalid or the
/// policy count does not match the region count
/// ([`ConfigError::PolicyCount`]).
pub fn run_multi(
    cfg: &MultiConfig,
    policies: Vec<Box<dyn Policy>>,
) -> Result<Vec<RunResult>, ConfigError> {
    run_coupled(cfg, policies, &[], None)
}

/// Like [`run_multi`], with a schedule of live width changes: regions
/// grow (fresh PEs on a chosen host) or shrink (tail slots drained and
/// retired) mid-run, and each region's [`Policy`] is told via
/// [`Policy::on_resize`] so balancers re-solve at the new width.
///
/// # Errors
///
/// Returns a [`ConfigError`] when the configuration is invalid, the
/// policy count does not match the region count, or a resize event is
/// malformed ([`ConfigError::BadChaosEvent`] with the event's index).
pub fn run_multi_elastic(
    cfg: &MultiConfig,
    policies: Vec<Box<dyn Policy>>,
    resizes: &[ResizeEvent],
) -> Result<Vec<RunResult>, ConfigError> {
    run_coupled(cfg, policies, resizes, None)
}

/// Like [`run_multi`], with a telemetry hub attached: each region publishes
/// the single-region metric families under `sim.region<r>.*`, its control
/// rounds leave [`TraceEvent::Sample`](streambal_telemetry::TraceEvent)
/// records tagged with the region index, and each policy gets
/// [`Policy::attach_telemetry`].
///
/// # Errors
///
/// Returns a [`ConfigError`] when the configuration is invalid or the
/// policy count does not match the region count.
pub fn run_multi_with_telemetry(
    cfg: &MultiConfig,
    policies: Vec<Box<dyn Policy>>,
    telemetry: &Telemetry,
) -> Result<Vec<RunResult>, ConfigError> {
    run_coupled(cfg, policies, &[], Some(telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BalancerPolicy, RoundRobinPolicy};
    use crate::SECOND_NS;
    use std::time::Duration;
    use streambal_control::ScriptedWidth;
    use streambal_core::controller::BalancerConfig;

    fn rr() -> Box<dyn Policy> {
        Box::new(RoundRobinPolicy::new())
    }

    #[test]
    fn single_region_matches_dedicated_host_rate() {
        // 2 workers on an 8-thread host at 2k tuples/s each -> ~4k/s.
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![MultiRegionSpec::uniform(2, 0, 1_000, 500.0)],
            sample_interval_ns: SECOND_NS,
            duration_ns: 10 * SECOND_NS,
        };
        let results = run_multi(&cfg, vec![rr()]).unwrap();
        let tput = results[0].mean_throughput();
        assert!((3_500.0..4_500.0).contains(&tput), "got {tput}");
    }

    #[test]
    fn contending_regions_share_a_small_host() {
        // Two 4-PE regions on a 4-thread host: 8 busy PEs time-share, so
        // each region gets about half of what it would get alone.
        let cfg = MultiConfig {
            hosts: vec![Host::new(4, 1.0)],
            regions: vec![
                MultiRegionSpec::uniform(4, 0, 1_000, 500.0),
                MultiRegionSpec::uniform(4, 0, 1_000, 500.0),
            ],
            sample_interval_ns: SECOND_NS,
            duration_ns: 10 * SECOND_NS,
        };
        let results = run_multi(&cfg, vec![rr(), rr()]).unwrap();
        let (a, b) = (results[0].mean_throughput(), results[1].mean_throughput());
        // Alone: 4 x 2k = 8k/s. Shared: ~4k/s each.
        assert!((3_000.0..5_000.0).contains(&a), "region 0 got {a}");
        assert!((3_000.0..5_000.0).contains(&b), "region 1 got {b}");
        assert!((a - b).abs() < 0.3 * a, "fair sharing expected: {a} vs {b}");
    }

    #[test]
    fn idle_neighbour_frees_capacity_in_real_time() {
        // Region 0 is splitter-capped at ~500 tuples/s (PEs mostly idle);
        // region 1 should get nearly the whole host despite 8 PEs being
        // placed on 4 threads.
        let mut capped = MultiRegionSpec::uniform(4, 0, 1_000, 500.0);
        capped.send_overhead_ns = 2_000_000;
        let cfg = MultiConfig {
            hosts: vec![Host::new(4, 1.0)],
            regions: vec![capped, MultiRegionSpec::uniform(4, 0, 1_000, 500.0)],
            sample_interval_ns: SECOND_NS,
            duration_ns: 10 * SECOND_NS,
        };
        let results = run_multi(&cfg, vec![rr(), rr()]).unwrap();
        let busy_region = results[1].mean_throughput();
        assert!(
            busy_region > 6_000.0,
            "region 1 should reclaim idle capacity: {busy_region}"
        );
        assert!(results[0].mean_throughput() < 700.0);
    }

    #[test]
    fn ordering_and_conservation_hold_per_region() {
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![
                MultiRegionSpec::uniform(3, 0, 1_000, 500.0),
                MultiRegionSpec::uniform(2, 0, 2_000, 500.0),
            ],
            sample_interval_ns: SECOND_NS,
            duration_ns: 5 * SECOND_NS,
        };
        let results = run_multi(&cfg, vec![rr(), rr()]).unwrap();
        for r in &results {
            // The merger's debug_assert verifies exact order; delivered
            // lags sent only by in-flight tuples.
            assert!(r.sent >= r.delivered);
            assert!(r.sent - r.delivered < 1_000);
        }
    }

    #[test]
    fn balancer_works_inside_the_coupled_engine() {
        // Region 0's worker 0 is 50x loaded; the adaptive balancer should
        // throttle it even while another region shares the host.
        let mut loaded = MultiRegionSpec::uniform(2, 0, 1_000, 500.0);
        loaded.load[0] = 50.0;
        let cfg = MultiConfig {
            hosts: vec![Host::new(4, 1.0)],
            regions: vec![loaded, MultiRegionSpec::uniform(2, 0, 1_000, 500.0)],
            sample_interval_ns: SECOND_NS,
            duration_ns: 30 * SECOND_NS,
        };
        let lb: Box<dyn Policy> = Box::new(BalancerPolicy::adaptive(
            BalancerConfig::builder(2).build().unwrap(),
        ));
        let results = run_multi(&cfg, vec![lb, rr()]).unwrap();
        let last = results[0].samples.last().unwrap();
        assert!(
            last.weights[0] < 200,
            "loaded worker should be throttled: {:?}",
            last.weights
        );
    }

    #[test]
    fn a_region_grows_mid_run_and_uses_the_new_slots() {
        // 2 PEs on an 8-thread host, 2 more arrive at t=4s: the balancer
        // re-solves at width 4 and the new slots carry real weight.
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![MultiRegionSpec::uniform(2, 0, 1_000, 500.0)],
            sample_interval_ns: SECOND_NS,
            duration_ns: 12 * SECOND_NS,
        };
        let resizes = vec![ResizeEvent {
            t_ns: 4 * SECOND_NS,
            region: 0,
            change: WidthChange::Grow { host: 0, count: 2 },
        }];
        let lb: Box<dyn Policy> = Box::new(BalancerPolicy::adaptive(
            BalancerConfig::builder(2).build().unwrap(),
        ));
        let results = run_multi_elastic(&cfg, vec![lb], &resizes).unwrap();
        let last = results[0].samples.last().unwrap();
        assert_eq!(last.weights.len(), 4);
        assert_eq!(last.weights.iter().sum::<u32>(), 1000);
        assert!(
            last.weights[2] > 0 && last.weights[3] > 0,
            "grown slots must not starve: {:?}",
            last.weights
        );
        // Twice the PEs on an uncontended host ≈ twice the throughput.
        let before = results[0].samples[2].delivered;
        let after = last.delivered;
        assert!(
            after > before * 3 / 2,
            "growth should raise throughput: {before} -> {after}"
        );
    }

    #[test]
    fn a_region_hands_slots_back_and_stays_ordered() {
        // 4 PEs shrink to 2 at t=4s; the retired tail drains in order
        // (the merger's debug_assert enforces exact sequence) and the
        // installed split covers only the surviving width.
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![MultiRegionSpec::uniform(4, 0, 1_000, 500.0)],
            sample_interval_ns: SECOND_NS,
            duration_ns: 12 * SECOND_NS,
        };
        let resizes = vec![ResizeEvent {
            t_ns: 4 * SECOND_NS,
            region: 0,
            change: WidthChange::Shrink { count: 2 },
        }];
        let results = run_multi_elastic(&cfg, vec![rr()], &resizes).unwrap();
        let r = &results[0];
        let last = r.samples.last().unwrap();
        assert_eq!(last.weights.len(), 2);
        assert!(r.delivered > 0);
        assert!(r.sent >= r.delivered && r.sent - r.delivered < 1_000);
    }

    #[test]
    fn grow_then_shrink_revives_dormant_slots_cleanly() {
        // Shrink retires slots 2..4; a later grow revives them before the
        // run ends, and the final split spans the full width again.
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![MultiRegionSpec::uniform(4, 0, 1_000, 500.0)],
            sample_interval_ns: SECOND_NS,
            duration_ns: 14 * SECOND_NS,
        };
        let resizes = vec![
            ResizeEvent {
                t_ns: 3 * SECOND_NS,
                region: 0,
                change: WidthChange::Shrink { count: 2 },
            },
            ResizeEvent {
                t_ns: 7 * SECOND_NS,
                region: 0,
                change: WidthChange::Grow { host: 0, count: 3 },
            },
        ];
        let results = run_multi_elastic(&cfg, vec![rr()], &resizes).unwrap();
        let last = results[0].samples.last().unwrap();
        assert_eq!(last.weights.len(), 5);
        assert!(last.weights.iter().all(|&w| w > 0));
    }

    #[test]
    fn invalid_resizes_rejected() {
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![MultiRegionSpec::uniform(2, 0, 1_000, 500.0)],
            sample_interval_ns: SECOND_NS,
            duration_ns: SECOND_NS,
        };
        let bad = [
            // Unknown region.
            ResizeEvent {
                t_ns: 0,
                region: 1,
                change: WidthChange::Grow { host: 0, count: 1 },
            },
            // Unknown host.
            ResizeEvent {
                t_ns: 0,
                region: 0,
                change: WidthChange::Grow { host: 9, count: 1 },
            },
            // Zero count.
            ResizeEvent {
                t_ns: 0,
                region: 0,
                change: WidthChange::Grow { host: 0, count: 0 },
            },
            // Shrinking to nothing.
            ResizeEvent {
                t_ns: 0,
                region: 0,
                change: WidthChange::Shrink { count: 2 },
            },
        ];
        for ev in bad {
            let err = run_multi_elastic(&cfg, vec![rr()], &[ev]).unwrap_err();
            assert_eq!(err, ConfigError::BadChaosEvent(0), "{ev:?}");
        }
        // A shrink covered by an earlier grow is fine.
        let ok = [
            ResizeEvent {
                t_ns: 0,
                region: 0,
                change: WidthChange::Grow { host: 0, count: 2 },
            },
            ResizeEvent {
                t_ns: SECOND_NS / 2,
                region: 0,
                change: WidthChange::Shrink { count: 3 },
            },
        ];
        assert!(run_multi_elastic(&cfg, vec![rr()], &ok).is_ok());
    }

    #[test]
    fn policy_count_mismatch_names_both_counts() {
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![MultiRegionSpec::uniform(2, 0, 1_000, 500.0); 2],
            sample_interval_ns: SECOND_NS,
            duration_ns: SECOND_NS,
        };
        let expected = ConfigError::PolicyCount {
            regions: 2,
            policies: 1,
        };
        assert_eq!(run_multi(&cfg, vec![rr()]).unwrap_err(), expected);
        assert_eq!(
            run_multi_elastic(&cfg, vec![rr()], &[]).unwrap_err(),
            expected
        );
        let telemetry = Telemetry::new();
        assert_eq!(
            run_multi_with_telemetry(&cfg, vec![rr()], &telemetry).unwrap_err(),
            expected
        );
        let message = expected.to_string();
        assert!(
            message.contains("2 regions") && message.contains("1 policies"),
            "{message}"
        );
    }

    #[test]
    fn rerouting_works_inside_the_coupled_engine() {
        // Worker 0 is 100x loaded, so its buffer fills long before its
        // sibling's: the §4.4 baseline must hand those tuples over instead
        // of blocking, exactly as it does in a single-region run.
        let mut spec = MultiRegionSpec::uniform(2, 0, 1_000, 500.0);
        spec.load[0] = 100.0;
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![spec],
            sample_interval_ns: SECOND_NS,
            duration_ns: 10 * SECOND_NS,
        };
        let plain = run_multi(&cfg, vec![rr()]).unwrap();
        assert_eq!(plain[0].rerouted, 0);
        let rerouting: Box<dyn Policy> = Box::new(RoundRobinPolicy::with_reroute());
        let r = &run_multi(&cfg, vec![rerouting]).unwrap()[0];
        assert!(r.rerouted > 0, "rerouting baseline must reroute");
        assert!(
            (r.rerouted as f64) < 0.5 * r.sent as f64,
            "rerouting is a rare event: {} of {}",
            r.rerouted,
            r.sent
        );
    }

    #[test]
    fn policy_grown_slots_contend_on_the_tail_slots_host() {
        // One PE on a 1-thread host, one on an 8-thread host; the region's
        // own width policy asks for two more at t=3s. Policy-grown slots
        // land on the host of the region's last slot, so which host comes
        // last decides whether the newcomers time-share the small host
        // (3 PEs on 1 thread) or fit on the big one.
        let run = |workers: Vec<usize>| {
            let mut spec = MultiRegionSpec::uniform(2, 0, 1_000, 500.0);
            spec.workers = workers;
            let cfg = MultiConfig {
                hosts: vec![Host::new(1, 1.0), Host::slow()],
                regions: vec![spec],
                sample_interval_ns: SECOND_NS,
                duration_ns: 20 * SECOND_NS,
            };
            let mut script = ScriptedWidth::new();
            script.grow_after(Duration::from_secs(3), 2);
            let lb = BalancerPolicy::adaptive(BalancerConfig::builder(2).build().unwrap())
                .with_width_policy(Box::new(script));
            run_multi(&cfg, vec![Box::new(lb)]).unwrap().remove(0)
        };
        let crowded = run(vec![1, 0]);
        let roomy = run(vec![0, 1]);
        for r in [&crowded, &roomy] {
            let last = r.samples.last().unwrap();
            assert_eq!(last.weights.len(), 4, "the policy's grow was applied");
            assert!(last.weights[2] > 0 && last.weights[3] > 0);
            assert!(r.worker_busy_ns[2] > 0 && r.worker_busy_ns[3] > 0);
        }
        // Identical until the grow; then 1 + 3x(1/3) against 4 full-speed PEs.
        assert_eq!(crowded.samples[1], roomy.samples[1]);
        assert!(
            crowded.final_throughput(5) < 0.75 * roomy.final_throughput(5),
            "newcomers must contend on the small host: {} vs {}",
            crowded.final_throughput(5),
            roomy.final_throughput(5)
        );
    }

    #[test]
    fn coupled_regions_publish_the_single_region_metric_families() {
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![
                MultiRegionSpec::uniform(2, 0, 1_000, 500.0),
                MultiRegionSpec::uniform(3, 0, 1_000, 500.0),
            ],
            sample_interval_ns: SECOND_NS,
            duration_ns: 3 * SECOND_NS,
        };
        let telemetry = Telemetry::new();
        let results = run_multi_with_telemetry(&cfg, vec![rr(), rr()], &telemetry).unwrap();
        let reg = telemetry.registry();
        for (r, result) in results.iter().enumerate() {
            let counter = |name: &str| reg.counter(&format!("sim.region{r}.{name}")).get();
            assert_eq!(counter("merger.delivered"), result.delivered);
            assert_eq!(counter("splitter.sent"), result.sent);
            assert_eq!(
                counter("splitter.blocked_ns"),
                result.blocked_ns.iter().sum::<u64>()
            );
            assert_eq!(counter("controller.rounds"), 3);
            assert!(!result.latencies_ns.is_empty(), "latencies are sampled");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![],
            sample_interval_ns: SECOND_NS,
            duration_ns: SECOND_NS,
        };
        assert!(run_multi(&cfg, vec![]).is_err());
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![MultiRegionSpec::uniform(2, 5, 1_000, 500.0)],
            sample_interval_ns: SECOND_NS,
            duration_ns: SECOND_NS,
        };
        assert!(run_multi(&cfg, vec![rr()]).is_err());
        // The unknown host is reported against the worker that names it,
        // not against its region's index.
        let mut bad = MultiRegionSpec::uniform(4, 0, 1_000, 500.0);
        bad.workers[2] = 9;
        let cfg = MultiConfig {
            hosts: vec![Host::slow()],
            regions: vec![MultiRegionSpec::uniform(3, 0, 1_000, 500.0), bad],
            sample_interval_ns: SECOND_NS,
            duration_ns: SECOND_NS,
        };
        assert_eq!(
            cfg.validate().unwrap_err(),
            ConfigError::UnknownHost { worker: 2, host: 9 }
        );
    }
}
