//! Validating analytic placements against the simulator.
//!
//! The placement model assumes each region's local balancer finds the
//! rate-proportional optimum. This module folds a cluster placement into
//! per-region [`RegionConfig`]s — cross-region oversubscription becomes a
//! static effective-speed adjustment on each host — and runs the simulator
//! with the real *LB-adaptive* balancer to check the analytic prediction.

use streambal_sim::config::{ConfigError, RegionConfig, StopCondition};
use streambal_sim::host::Host;
use streambal_sim::metrics::RunResult;
use streambal_sim::multi::run_coupled;
use streambal_sim::policy::{BalancerPolicy, Policy};
use streambal_sim::SECOND_NS;

use streambal_core::controller::BalancerConfig;

use crate::model::ClusterSpec;
use crate::placement::Placement;

/// Builds the simulator configuration for region `r` under `placement`,
/// with explicit per-PE effective speeds.
///
/// # Panics
///
/// Panics if `r` is out of range or lengths mismatch.
pub fn region_config_with_speeds(
    spec: &ClusterSpec,
    placement: &Placement,
    r: usize,
    speeds: &[f64],
    seconds: u64,
) -> Result<RegionConfig, ConfigError> {
    let region = &spec.regions()[r];
    let assignment = &placement.assignment()[r];
    assert_eq!(assignment.len(), region.pes, "placement width mismatch");
    assert_eq!(speeds.len(), region.pes, "speed vector width mismatch");

    // One simulated host per PE carrying its effective speed (thread count
    // 1 so the simulator adds no further oversubscription of its own).
    let hosts: Vec<Host> = speeds.iter().map(|&s| Host::new(1, s)).collect();

    let mut b = RegionConfig::builder(region.pes);
    b.hosts(hosts)
        .base_cost(region.base_cost)
        .mult_ns(region.mult_ns)
        .send_overhead_ns(region.send_overhead_ns)
        .stop(StopCondition::Duration(seconds * SECOND_NS));
    for j in 0..region.pes {
        b.worker_host(j, j);
    }
    b.build()
}

/// Builds the simulator configuration for region `r` under `placement`.
///
/// Other regions' PEs shrink each host's effective speed; that shrinkage is
/// folded into a per-host speed so the region can be simulated alone. This
/// assumes every foreign PE is fully busy — see [`co_simulate`] for the
/// utilization-aware refinement.
///
/// # Panics
///
/// Panics if `r` is out of range or the placement does not match the spec.
pub fn region_config(
    spec: &ClusterSpec,
    placement: &Placement,
    r: usize,
    seconds: u64,
) -> Result<RegionConfig, ConfigError> {
    let per_host = spec.pes_per_host(placement);
    let speeds: Vec<f64> = placement.assignment()[r]
        .iter()
        .map(|&h| spec.hosts()[h].effective_speed(per_host[h].max(1)))
        .collect();
    region_config_with_speeds(spec, placement, r, &speeds, seconds)
}

/// Simulates region `r` under `placement` with the adaptive balancer and
/// returns the run result (compare
/// [`RunResult::final_throughput`] with
/// [`ClusterSpec::region_throughput`]).
///
/// # Errors
///
/// Propagates configuration errors.
///
/// # Panics
///
/// Panics if `r` is out of range or the placement does not match the spec.
pub fn simulate_region(
    spec: &ClusterSpec,
    placement: &Placement,
    r: usize,
    seconds: u64,
) -> Result<RunResult, ConfigError> {
    let cfg = region_config(spec, placement, r, seconds)?;
    let mut policy = BalancerPolicy::adaptive(
        BalancerConfig::builder(cfg.num_workers())
            .build()
            .expect("region-sized balancer config is valid"),
    );
    streambal_sim::run(&cfg, &mut policy)
}

/// Co-simulates every region, iterating to a utilization fixed point.
///
/// The static model assumes all PEs are always busy, which overstates
/// oversubscription when some region is gated elsewhere (its splitter, or
/// its own merge). Each iteration simulates every region with the current
/// effective speeds, measures per-PE utilization, recomputes each host's
/// *demanded* thread load as the sum of its PEs' utilizations, and derives
/// new speeds `host.speed × min(1, threads / demanded)`. Two or three
/// iterations suffice in practice.
///
/// Returns the final iteration's run results, in region order.
///
/// # Errors
///
/// Propagates configuration errors.
///
/// # Panics
///
/// Panics if the placement does not match the spec or `iterations == 0`.
pub fn co_simulate(
    spec: &ClusterSpec,
    placement: &Placement,
    seconds: u64,
    iterations: usize,
) -> Result<Vec<RunResult>, ConfigError> {
    assert!(iterations > 0, "need at least one iteration");
    let mut utilizations: Vec<Vec<f64>> = spec.regions().iter().map(|r| vec![1.0; r.pes]).collect();
    let mut results = Vec::new();
    for _ in 0..iterations {
        // Demanded hardware threads per host under current utilizations.
        let mut demanded = vec![0.0f64; spec.hosts().len()];
        for (r, assignment) in placement.assignment().iter().enumerate() {
            for (i, &h) in assignment.iter().enumerate() {
                demanded[h] += utilizations[r][i];
            }
        }
        results.clear();
        for (r, utilization) in utilizations.iter_mut().enumerate() {
            let speeds: Vec<f64> = placement.assignment()[r]
                .iter()
                .map(|&h| {
                    let host = spec.hosts()[h];
                    let share = (f64::from(host.threads) / demanded[h].max(1e-9)).min(1.0);
                    host.speed * share
                })
                .collect();
            let cfg = region_config_with_speeds(spec, placement, r, &speeds, seconds)?;
            let mut policy = BalancerPolicy::adaptive(
                BalancerConfig::builder(cfg.num_workers())
                    .build()
                    .expect("region-sized balancer config is valid"),
            );
            let run = streambal_sim::run(&cfg, &mut policy)?;
            *utilization = (0..spec.regions()[r].pes)
                .map(|j| run.worker_utilization(j))
                .collect();
            results.push(run);
        }
    }
    Ok(results)
}

/// Simulates the whole placement in **one coupled event loop**: the
/// simulator's shared-host mode ([`streambal_sim::multi`]) lets regions
/// contend for host threads tuple-by-tuple, so idle periods free
/// capacity in real time. This is the exact version of what
/// [`co_simulate`] approximates with a utilization fixed point.
///
/// Returns one [`RunResult`] per region, each under its own adaptive
/// balancer.
///
/// # Errors
///
/// Propagates configuration errors.
///
/// # Panics
///
/// Panics if the placement does not match the spec.
pub fn co_simulate_coupled(
    spec: &ClusterSpec,
    placement: &Placement,
    seconds: u64,
) -> Result<Vec<RunResult>, ConfigError> {
    let regions = spec
        .regions()
        .iter()
        .zip(placement.assignment())
        .map(|(r, hosts)| {
            assert_eq!(hosts.len(), r.pes, "placement width mismatch");
            let mut b = RegionConfig::builder(r.pes);
            b.hosts(spec.hosts().to_vec())
                .base_cost(r.base_cost)
                .mult_ns(r.mult_ns)
                .send_overhead_ns(r.send_overhead_ns)
                .merge_capacity(usize::MAX)
                .stop(StopCondition::Duration(seconds * SECOND_NS));
            for (j, &h) in hosts.iter().enumerate() {
                b.worker_host(j, h);
            }
            b.build()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let policies: Vec<Box<dyn Policy>> = spec
        .regions()
        .iter()
        .map(|r| {
            Box::new(BalancerPolicy::adaptive(
                BalancerConfig::builder(r.pes)
                    .build()
                    .expect("region-sized balancer config is valid"),
            )) as Box<dyn Policy>
        })
        .collect();
    run_coupled(&regions, policies, &[], None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RegionSpec;
    use crate::placement::{place, Strategy};

    #[test]
    fn simulated_throughput_tracks_analytic_model() {
        let spec = ClusterSpec::new(
            vec![Host::fast(), Host::slow()],
            vec![RegionSpec::new(6, 20_000, 50.0)],
        )
        .unwrap();
        let p = place(&spec, Strategy::CapacityAware);
        let predicted = spec.region_throughput(&p, 0);
        let run = simulate_region(&spec, &p, 0, 60).unwrap();
        let measured = run.final_throughput(10);
        assert!(
            measured > 0.6 * predicted && measured < 1.3 * predicted,
            "predicted {predicted}, measured {measured}"
        );
    }

    #[test]
    fn co_simulation_discovers_idle_capacity() {
        // Region 0 is splitter-capped far below its PEs' capacity, so its
        // PEs are mostly idle; the static model still halves region 1's
        // speed (16 PEs on 8 threads), but co-simulation discovers the
        // idle capacity and region 1 runs faster.
        let mut gated = RegionSpec::new(8, 10_000, 50.0);
        gated.send_overhead_ns = 2_000_000; // 500 tuples/s splitter cap
        let spec = ClusterSpec::new(
            vec![Host::new(8, 1.0)],
            vec![gated, RegionSpec::new(8, 10_000, 50.0)],
        )
        .unwrap();
        let p = crate::placement::Placement::from_assignment(vec![vec![0; 8], vec![0; 8]]);

        let static_run = simulate_region(&spec, &p, 1, 30).unwrap();
        let co = co_simulate(&spec, &p, 30, 3).unwrap();
        let static_tput = static_run.final_throughput(8);
        let co_tput = co[1].final_throughput(8);
        assert!(
            co_tput > 1.4 * static_tput,
            "co-simulation should free idle capacity: static {static_tput}, co {co_tput}"
        );
        // The gated region stays near its splitter cap either way.
        assert!(co[0].final_throughput(8) < 700.0);
    }

    #[test]
    fn coupled_simulation_agrees_with_fixed_point() {
        let spec = ClusterSpec::new(
            vec![Host::new(8, 1.0)],
            vec![
                RegionSpec::new(6, 10_000, 50.0),
                RegionSpec::new(6, 10_000, 50.0),
            ],
        )
        .unwrap();
        let p = crate::placement::Placement::from_assignment(vec![vec![0; 6], vec![0; 6]]);
        let fixed = co_simulate(&spec, &p, 20, 3).unwrap();
        let coupled = co_simulate_coupled(&spec, &p, 20).unwrap();
        for r in 0..2 {
            let (a, b) = (fixed[r].final_throughput(6), coupled[r].final_throughput(6));
            assert!(
                (a - b).abs() < 0.45 * a.max(b),
                "region {r}: fixed-point {a} vs coupled {b} diverge too far"
            );
        }
    }

    #[test]
    fn heterogeneous_placement_weights_follow_speeds() {
        // 2 PEs on the fast host, 2 on the slow one: after settling, the
        // fast PEs should carry more weight.
        let spec = ClusterSpec::new(
            vec![Host::fast(), Host::slow()],
            vec![RegionSpec::new(4, 20_000, 50.0)],
        )
        .unwrap();
        let p = crate::placement::Placement::from_assignment(vec![vec![0, 0, 1, 1]]);
        let run = simulate_region(&spec, &p, 0, 90).unwrap();
        let last = run.samples.last().unwrap();
        let fast = last.weights[0] + last.weights[1];
        let slow = last.weights[2] + last.weights[3];
        assert!(
            fast > slow,
            "fast-host PEs should end with more weight: {:?}",
            last.weights
        );
    }
}
