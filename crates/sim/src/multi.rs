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
//! A coupled region is an ordinary [`RegionConfig`]; this module holds the
//! coupled run's entry point, [`run_coupled`], and its resize schedule.

use streambal_telemetry::Telemetry;

use crate::config::{ConfigError, RegionConfig};
use crate::engine::Engine;
use crate::metrics::RunResult;
use crate::policy::Policy;

/// A scheduled live width change for one region of a coupled run (see
/// [`run_coupled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeEvent {
    /// When the change takes effect (simulated ns).
    pub t_ns: u64,
    /// Index into the coupled run's regions.
    pub region: usize,
    /// What happens to the region's width.
    pub change: WidthChange,
}

/// The direction of a [`ResizeEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthChange {
    /// Open `count` fresh worker slots, all placed on `host`.
    Grow {
        /// Host index (into the regions' shared `hosts`) for the new PEs.
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
fn validate_resizes(regions: &[RegionConfig], resizes: &[ResizeEvent]) -> Result<(), ConfigError> {
    let hosts = regions[0].hosts.len();
    let mut widths: Vec<usize> = regions.iter().map(RegionConfig::num_workers).collect();
    let mut order: Vec<usize> = (0..resizes.len()).collect();
    order.sort_by_key(|&i| (resizes[i].t_ns, i));
    for i in order {
        let ev = &resizes[i];
        let ok = match ev.change {
            WidthChange::Grow { host, count } => {
                let ok = count > 0 && host < hosts;
                if let Some(w) = widths.get_mut(ev.region) {
                    *w += count;
                }
                ok && ev.region < regions.len()
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

/// Runs a coupled multi-region simulation: `regions[r]` under
/// `policies[r]`, every worker contending for the threads of the regions'
/// common `hosts` (a worker's `host` indexes them), until the regions'
/// common `stop`. `resizes` grow or shrink regions mid-run, and each
/// region's [`Policy`] is told via [`Policy::on_resize`]. With `telemetry`
/// each region publishes the single-region metric families under
/// `sim.region<r>.*`, its control rounds leave
/// [`TraceEvent::Sample`](streambal_telemetry::TraceEvent) records tagged
/// with the region index, and each policy gets
/// [`Policy::attach_telemetry`].
///
/// Service on a shared host is exact: `jitter`, `hiccup_*` and `seed` have
/// no effect (the coupling is the only noise source).
///
/// Returns one [`RunResult`] per region.
///
/// # Errors
///
/// Returns a [`ConfigError`] when there are no regions or a region is
/// invalid, when a region's `hosts` or `stop` differ from region 0's
/// ([`ConfigError::CoupledMismatch`] with the region's index), when the
/// policy count does not match the region count
/// ([`ConfigError::PolicyCount`]), or when a resize event is malformed
/// ([`ConfigError::BadChaosEvent`] with the event's index).
pub fn run_coupled(
    regions: &[RegionConfig],
    mut policies: Vec<Box<dyn Policy>>,
    resizes: &[ResizeEvent],
    telemetry: Option<&Telemetry>,
) -> Result<Vec<RunResult>, ConfigError> {
    let first = regions.first().ok_or(ConfigError::NoWorkers)?;
    for (r, cfg) in regions.iter().enumerate() {
        cfg.validate()?;
        if cfg.hosts != first.hosts || cfg.stop != first.stop {
            return Err(ConfigError::CoupledMismatch(r));
        }
    }
    if policies.len() != regions.len() {
        return Err(ConfigError::PolicyCount {
            regions: regions.len(),
            policies: policies.len(),
        });
    }
    validate_resizes(regions, resizes)?;
    if let Some(t) = telemetry {
        policies.iter_mut().for_each(|p| p.attach_telemetry(t));
    }
    let policies = policies.iter_mut().map(|p| &mut **p as &mut dyn Policy);
    Ok(Engine::new(regions, policies, Some(&first.hosts), resizes, telemetry).run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RegionConfigBuilder, StopCondition};
    use crate::host::Host;
    use crate::policy::{BalancerPolicy, RoundRobinPolicy};
    use crate::SECOND_NS;
    use std::time::Duration;
    use streambal_control::ScriptedWidth;
    use streambal_core::controller::BalancerConfig;

    fn rr() -> Box<dyn Policy> {
        Box::new(RoundRobinPolicy::new())
    }

    /// `pes` unloaded workers on host 0 of `hosts` for `seconds`: the
    /// coupled region every test starts from (2 k tuples/s per worker).
    fn region(pes: usize, hosts: &[Host], seconds: u64) -> RegionConfigBuilder {
        let mut b = RegionConfig::builder(pes);
        b.hosts(hosts.to_vec())
            .base_cost(1_000)
            .mult_ns(500.0)
            .merge_capacity(usize::MAX)
            .stop(StopCondition::Duration(seconds * SECOND_NS));
        b
    }

    fn run(regions: &[RegionConfig], policies: Vec<Box<dyn Policy>>) -> Vec<RunResult> {
        run_coupled(regions, policies, &[], None).unwrap()
    }

    #[test]
    fn single_region_matches_dedicated_host_rate() {
        // 2 workers on an 8-thread host at 2k tuples/s each -> ~4k/s.
        let cfg = region(2, &[Host::slow()], 10).build().unwrap();
        let tput = run(&[cfg], vec![rr()])[0].mean_throughput();
        assert!((3_500.0..4_500.0).contains(&tput), "got {tput}");
    }

    #[test]
    fn contending_regions_share_a_small_host() {
        // Two 4-PE regions on a 4-thread host: 8 busy PEs time-share, so
        // each region gets about half of what it would get alone.
        let cfg = region(4, &[Host::new(4, 1.0)], 10).build().unwrap();
        let results = run(&[cfg.clone(), cfg], vec![rr(), rr()]);
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
        let hosts = [Host::new(4, 1.0)];
        let capped = region(4, &hosts, 10)
            .send_overhead_ns(2_000_000)
            .build()
            .unwrap();
        let busy = region(4, &hosts, 10).build().unwrap();
        let results = run(&[capped, busy], vec![rr(), rr()]);
        let busy_region = results[1].mean_throughput();
        assert!(
            busy_region > 6_000.0,
            "region 1 should reclaim idle capacity: {busy_region}"
        );
        assert!(results[0].mean_throughput() < 700.0);
    }

    #[test]
    fn ordering_and_conservation_hold_per_region() {
        let hosts = [Host::slow()];
        let regions = [
            region(3, &hosts, 5).build().unwrap(),
            region(2, &hosts, 5).base_cost(2_000).build().unwrap(),
        ];
        for r in &run(&regions, vec![rr(), rr()]) {
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
        let hosts = [Host::new(4, 1.0)];
        let loaded = region(2, &hosts, 30).worker_load(0, 50.0).build().unwrap();
        let idle = region(2, &hosts, 30).build().unwrap();
        let lb: Box<dyn Policy> = Box::new(BalancerPolicy::adaptive(
            BalancerConfig::builder(2).build().unwrap(),
        ));
        let results = run(&[loaded, idle], vec![lb, rr()]);
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
        let cfg = region(2, &[Host::slow()], 12).build().unwrap();
        let resizes = vec![ResizeEvent {
            t_ns: 4 * SECOND_NS,
            region: 0,
            change: WidthChange::Grow { host: 0, count: 2 },
        }];
        let lb: Box<dyn Policy> = Box::new(BalancerPolicy::adaptive(
            BalancerConfig::builder(2).build().unwrap(),
        ));
        let results = run_coupled(&[cfg], vec![lb], &resizes, None).unwrap();
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
        let cfg = region(4, &[Host::slow()], 12).build().unwrap();
        let resizes = vec![ResizeEvent {
            t_ns: 4 * SECOND_NS,
            region: 0,
            change: WidthChange::Shrink { count: 2 },
        }];
        let results = run_coupled(&[cfg], vec![rr()], &resizes, None).unwrap();
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
        let cfg = region(4, &[Host::slow()], 14).build().unwrap();
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
        let results = run_coupled(&[cfg], vec![rr()], &resizes, None).unwrap();
        let last = results[0].samples.last().unwrap();
        assert_eq!(last.weights.len(), 5);
        assert!(last.weights.iter().all(|&w| w > 0));
    }

    #[test]
    fn invalid_resizes_rejected() {
        let cfg = region(2, &[Host::slow()], 1).build().unwrap();
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
        let regions = std::slice::from_ref(&cfg);
        for ev in bad {
            let err = run_coupled(regions, vec![rr()], &[ev], None).unwrap_err();
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
        assert!(run_coupled(regions, vec![rr()], &ok, None).is_ok());
    }

    #[test]
    fn policy_count_mismatch_names_both_counts() {
        let cfg = region(2, &[Host::slow()], 1).build().unwrap();
        let regions = [cfg.clone(), cfg];
        let expected = ConfigError::PolicyCount {
            regions: 2,
            policies: 1,
        };
        assert_eq!(
            run_coupled(&regions, vec![rr()], &[], None).unwrap_err(),
            expected
        );
        let telemetry = Telemetry::new();
        assert_eq!(
            run_coupled(&regions, vec![rr()], &[], Some(&telemetry)).unwrap_err(),
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
        let cfg = region(2, &[Host::slow()], 10)
            .worker_load(0, 100.0)
            .build()
            .unwrap();
        let regions = std::slice::from_ref(&cfg);
        assert_eq!(run(regions, vec![rr()])[0].rerouted, 0);
        let rerouting: Box<dyn Policy> = Box::new(RoundRobinPolicy::with_reroute());
        let r = &run(regions, vec![rerouting])[0];
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
        let run = |hosts: [usize; 2]| {
            let cfg = region(2, &[Host::new(1, 1.0), Host::slow()], 20)
                .worker_host(0, hosts[0])
                .worker_host(1, hosts[1])
                .build()
                .unwrap();
            let mut script = ScriptedWidth::new();
            script.grow_after(Duration::from_secs(3), 2);
            let lb = BalancerPolicy::adaptive(BalancerConfig::builder(2).build().unwrap())
                .with_width_policy(script);
            run(&[cfg], vec![Box::new(lb)]).remove(0)
        };
        let crowded = run([1, 0]);
        let roomy = run([0, 1]);
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
        let hosts = [Host::slow()];
        let regions = [
            region(2, &hosts, 3).build().unwrap(),
            region(3, &hosts, 3).build().unwrap(),
        ];
        let telemetry = Telemetry::new();
        let results = run_coupled(&regions, vec![rr(), rr()], &[], Some(&telemetry)).unwrap();
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
        assert_eq!(
            run_coupled(&[], vec![], &[], None).unwrap_err(),
            ConfigError::NoWorkers
        );
        let hosts = [Host::slow()];
        let mut zero = region(2, &hosts, 1).build().unwrap();
        zero.conn_capacity = 0;
        assert_eq!(
            run_coupled(&[zero], vec![rr()], &[], None).unwrap_err(),
            ConfigError::ZeroParameter("conn_capacity")
        );
        // The unknown host is reported against the worker that names it,
        // not against its region's index.
        let mut bad = region(4, &hosts, 1).build().unwrap();
        bad.workers[2].host = 9;
        let regions = [region(3, &hosts, 1).build().unwrap(), bad];
        assert_eq!(
            run_coupled(&regions, vec![rr(), rr()], &[], None).unwrap_err(),
            ConfigError::UnknownHost { worker: 2, host: 9 }
        );
    }

    #[test]
    fn a_region_on_other_hosts_is_rejected_by_index() {
        // Every region's `hosts` are the shared hosts; region 1 naming a
        // different list would otherwise be silently ignored.
        let shared = region(2, &[Host::slow()], 5).build().unwrap();
        let other = region(2, &[Host::new(4, 1.0)], 5).build().unwrap();
        let regions = [shared.clone(), other];
        let err = run_coupled(&regions, vec![rr(), rr()], &[], None).unwrap_err();
        assert_eq!(err, ConfigError::CoupledMismatch(1));
        assert!(err.to_string().contains("region 1"), "{err}");
        // Same hosts listed twice is a different list, too.
        let doubled = region(2, &[Host::slow(), Host::slow()], 5).build().unwrap();
        let regions = [shared, doubled];
        let err = run_coupled(&regions, vec![rr(), rr()], &[], None).unwrap_err();
        assert_eq!(err, ConfigError::CoupledMismatch(1));
    }

    #[test]
    fn a_region_with_its_own_stop_is_rejected_by_index() {
        // The regions share one stop condition; region 2's differing one
        // would otherwise be silently ignored.
        let hosts = [Host::slow()];
        let cfg = region(2, &hosts, 5).build().unwrap();
        for stop in [
            StopCondition::Duration(6 * SECOND_NS),
            StopCondition::Tuples(1_000),
        ] {
            let own = region(2, &hosts, 5).stop(stop).build().unwrap();
            let regions = [cfg.clone(), cfg.clone(), own];
            assert_eq!(
                run_coupled(&regions, vec![rr(), rr(), rr()], &[], None).unwrap_err(),
                ConfigError::CoupledMismatch(2)
            );
        }
    }

    #[test]
    fn jitter_hiccups_and_seed_do_not_reach_shared_hosts() {
        // Shared-host service is exact, so callers need not zero the
        // dedicated-worker noise knobs: both runs replay bit for bit.
        let hosts = [Host::new(4, 1.0)];
        let exact = |pes| {
            region(pes, &hosts, 6)
                .jitter(0.0)
                .hiccups(0.0, 0)
                .seed(0)
                .build()
                .unwrap()
        };
        let noisy = |pes| {
            region(pes, &hosts, 6)
                .jitter(0.3)
                .hiccups(0.2, 5_000_000)
                .seed(99)
                .build()
                .unwrap()
        };
        let lb = || -> Box<dyn Policy> {
            Box::new(BalancerPolicy::adaptive(
                BalancerConfig::builder(3).build().unwrap(),
            ))
        };
        let a = run(&[exact(3), exact(2)], vec![lb(), rr()]);
        let b = run(&[noisy(3), noisy(2)], vec![lb(), rr()]);
        assert_eq!(a, b);
    }
}
