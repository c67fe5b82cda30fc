//! Cluster specification and the analytic throughput model.

use std::fmt;

use streambal_sim::host::Host;
use streambal_sim::SECOND_NS;

use crate::placement::Placement;

/// One parallel region to be placed: how many worker PEs it replicates and
/// what a tuple costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSpec {
    /// Number of replicated worker PEs.
    pub pes: usize,
    /// Per-tuple cost in integer multiplies.
    pub base_cost: u64,
    /// Simulated nanoseconds per multiply at host speed 1.0.
    pub mult_ns: f64,
    /// The splitter's per-tuple cost in ns (caps the region's rate).
    pub send_overhead_ns: u64,
}

impl RegionSpec {
    /// A region with the given PE count and tuple cost; the splitter
    /// overhead defaults to 1/64 of the unloaded tuple service time.
    ///
    /// # Panics
    ///
    /// Panics if `pes == 0`, `base_cost == 0` or `mult_ns <= 0`.
    pub fn new(pes: usize, base_cost: u64, mult_ns: f64) -> Self {
        assert!(pes > 0, "region needs at least one PE");
        assert!(base_cost > 0, "base cost must be positive");
        assert!(mult_ns > 0.0, "mult_ns must be positive");
        RegionSpec {
            pes,
            base_cost,
            mult_ns,
            send_overhead_ns: ((base_cost as f64 * mult_ns) / 64.0).max(1.0) as u64,
        }
    }

    /// The unloaded tuple service time at host speed 1.0, ns.
    pub fn service_ns(&self) -> f64 {
        self.base_cost as f64 * self.mult_ns
    }

    /// The splitter's maximum rate, tuples per simulated second.
    pub fn splitter_rate(&self) -> f64 {
        SECOND_NS as f64 / self.send_overhead_ns.max(1) as f64
    }
}

/// Error building a [`ClusterSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No hosts were given.
    NoHosts,
    /// No regions were given.
    NoRegions,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoHosts => write!(f, "cluster needs at least one host"),
            ClusterError::NoRegions => write!(f, "cluster needs at least one region"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A cluster: hosts plus the parallel regions to place on them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    hosts: Vec<Host>,
    regions: Vec<RegionSpec>,
}

impl ClusterSpec {
    /// Creates a specification.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] if either list is empty.
    pub fn new(hosts: Vec<Host>, regions: Vec<RegionSpec>) -> Result<Self, ClusterError> {
        if hosts.is_empty() {
            return Err(ClusterError::NoHosts);
        }
        if regions.is_empty() {
            return Err(ClusterError::NoRegions);
        }
        Ok(ClusterSpec { hosts, regions })
    }

    /// The cluster's hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// The regions to place.
    pub fn regions(&self) -> &[RegionSpec] {
        &self.regions
    }

    /// PEs per host under `placement` (all regions combined) — the quantity
    /// that drives oversubscription.
    pub fn pes_per_host(&self, placement: &Placement) -> Vec<u32> {
        let mut counts = vec![0u32; self.hosts.len()];
        for region in placement.assignment() {
            for &h in region {
                counts[h] += 1;
            }
        }
        counts
    }

    /// The effective speed of a PE of region `r` placed on host `h`, given
    /// the host's total PE population under `placement`.
    pub fn effective_speed(&self, placement: &Placement, h: usize) -> f64 {
        let population = self.pes_per_host(placement)[h].max(1);
        self.hosts[h].effective_speed(population)
    }

    /// Analytic throughput of region `r` under `placement`, assuming a
    /// locally optimal splitter (weights proportional to rates): the sum of
    /// its PEs' effective service rates, capped by the splitter.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not match the specification.
    pub fn region_throughput(&self, placement: &Placement, r: usize) -> f64 {
        let spec = &self.regions[r];
        let assignment = &placement.assignment()[r];
        assert_eq!(assignment.len(), spec.pes, "placement width mismatch");
        let per_host = self.pes_per_host(placement);
        let sum: f64 = assignment
            .iter()
            .map(|&h| {
                let speed = self.hosts[h].effective_speed(per_host[h].max(1));
                speed * SECOND_NS as f64 / spec.service_ns()
            })
            .sum();
        sum.min(spec.splitter_rate())
    }

    /// The minimum across regions — the fairness objective the placement
    /// strategies maximize (no region should starve).
    pub fn min_region_throughput(&self, placement: &Placement) -> f64 {
        (0..self.regions.len())
            .map(|r| self.region_throughput(placement, r))
            .fold(f64::INFINITY, f64::min)
    }

    /// The sum across regions (aggregate cluster goodput).
    pub fn total_throughput(&self, placement: &Placement) -> f64 {
        (0..self.regions.len())
            .map(|r| self.region_throughput(placement, r))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;

    fn spec() -> ClusterSpec {
        ClusterSpec::new(
            vec![Host::slow(), Host::slow()],
            vec![RegionSpec::new(4, 10_000, 50.0)],
        )
        .unwrap()
    }

    #[test]
    fn empty_inputs_rejected() {
        assert_eq!(
            ClusterSpec::new(vec![], vec![RegionSpec::new(1, 1, 1.0)]).unwrap_err(),
            ClusterError::NoHosts
        );
        assert_eq!(
            ClusterSpec::new(vec![Host::slow()], vec![]).unwrap_err(),
            ClusterError::NoRegions
        );
    }

    #[test]
    fn throughput_sums_pe_rates() {
        let s = spec();
        // All 4 PEs on host 0 (8 threads, no oversubscription):
        // each runs at 2k tuples/s (10k multiplies x 50 ns = 500 us).
        let p = Placement::from_assignment(vec![vec![0, 0, 0, 0]]);
        let t = s.region_throughput(&p, 0);
        assert!((t - 8_000.0).abs() < 1.0, "got {t}");
    }

    #[test]
    fn oversubscription_couples_regions() {
        let s = ClusterSpec::new(
            vec![Host::new(4, 1.0)],
            vec![
                RegionSpec::new(4, 10_000, 50.0),
                RegionSpec::new(4, 10_000, 50.0),
            ],
        )
        .unwrap();
        // 8 PEs on a 4-thread host: everyone at half speed.
        let p = Placement::from_assignment(vec![vec![0; 4], vec![0; 4]]);
        let each = s.region_throughput(&p, 0);
        assert!((each - 4_000.0).abs() < 1.0, "got {each}");
        assert!((s.total_throughput(&p) - 8_000.0).abs() < 2.0);
    }

    #[test]
    fn splitter_caps_region() {
        let mut r = RegionSpec::new(64, 1_000, 50.0);
        r.send_overhead_ns = 100_000; // 10k tuples/s splitter
        let s = ClusterSpec::new(vec![Host::new(64, 1.0)], vec![r]).unwrap();
        let p = Placement::from_assignment(vec![vec![0; 64]]);
        assert!((s.region_throughput(&p, 0) - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn min_is_fairness_objective() {
        let s = ClusterSpec::new(
            vec![Host::new(8, 1.0), Host::new(8, 1.0)],
            vec![
                RegionSpec::new(2, 10_000, 50.0),
                RegionSpec::new(2, 10_000, 50.0),
            ],
        )
        .unwrap();
        let balanced = Placement::from_assignment(vec![vec![0, 1], vec![0, 1]]);
        assert!(s.min_region_throughput(&balanced) > 0.0);
        assert!(
            (s.min_region_throughput(&balanced) - s.total_throughput(&balanced) / 2.0).abs() < 1.0
        );
    }
}
