//! Run results.
//!
//! This module sits on top of [`streambal_telemetry`]: a run's per-round
//! records are [`RoundSnapshot`]s, pushed to the trace as they are built
//! (so [`RoundSnapshot::series_from_events`] over an exported and parsed
//! trace reconstructs the exact in-memory series), and a [`RunResult`]
//! can publish its summary into a [`MetricsRegistry`].

use streambal_telemetry::{MetricsRegistry, RoundSnapshot};

use crate::SECOND_NS;

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Name of the policy that produced this run.
    pub policy: String,
    /// Simulated duration, ns.
    pub duration_ns: u64,
    /// Tuples delivered in order by the merger.
    pub delivered: u64,
    /// Tuples sent by the splitter.
    pub sent: u64,
    /// Tuples rerouted at the transport level (§4.4 baseline only).
    pub rerouted: u64,
    /// Cumulative splitter blocking time per connection, ns.
    pub blocked_ns: Vec<u64>,
    /// One record per sampling interval.
    pub samples: Vec<RoundSnapshot>,
    /// Subsampled per-tuple region latencies (splitter entry to in-order
    /// exit), ns; every 16th tuple is recorded.
    pub latencies_ns: Vec<u64>,
    /// Total busy (processing) time per worker, ns — `busy/duration` is the
    /// worker's utilization, used by cluster-level co-simulation.
    pub worker_busy_ns: Vec<u64>,
}

impl RunResult {
    /// Mean throughput over the whole run, tuples per simulated second.
    pub fn mean_throughput(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.delivered as f64 * SECOND_NS as f64 / self.duration_ns as f64
    }

    /// Throughput over the last `tail` sampling intervals, tuples per
    /// simulated second — the paper's *final throughput*, "indicative of the
    /// performance the configuration would achieve if it ran longer".
    ///
    /// Falls back to [`mean_throughput`](Self::mean_throughput) when fewer
    /// than `tail` samples exist.
    pub fn final_throughput(&self, tail: usize) -> f64 {
        if self.samples.len() < tail.max(1) {
            return self.mean_throughput();
        }
        let window = &self.samples[self.samples.len() - tail..];
        let tuples: u64 = window.iter().map(|s| s.delivered).sum();
        let span_ns = window.len() as u64
            * (window[window.len() - 1].t_ns - window[0].t_ns)
                .checked_div(window.len() as u64 - 1)
                .unwrap_or(SECOND_NS)
                .max(1);
        tuples as f64 * SECOND_NS as f64 / span_ns as f64
    }

    /// Total fraction of the run the splitter spent blocked (across all
    /// connections; at most 1.0 since the splitter is a single thread).
    pub fn blocked_fraction(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.blocked_ns.iter().sum::<u64>() as f64 / self.duration_ns as f64
    }

    /// The weight of connection `j` over time as `(seconds, units)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds for any sample.
    pub fn weight_series(&self, j: usize) -> Vec<(f64, u32)> {
        self.samples
            .iter()
            .map(|s| (s.t_ns as f64 / SECOND_NS as f64, s.weights[j]))
            .collect()
    }

    /// Utilization of worker `j` over the run (busy time / duration).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds.
    pub fn worker_utilization(&self, j: usize) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        (self.worker_busy_ns[j] as f64 / self.duration_ns as f64).min(1.0)
    }

    /// The `q`-quantile of the recorded per-tuple latencies, ns
    /// (`q = 0.5` is the median). `None` when no latencies were recorded.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= q <= 1`.
    pub fn latency_quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.latencies_ns.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }

    /// The blocking rate of connection `j` over time as `(seconds, rate)`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of bounds for any sample.
    pub fn rate_series(&self, j: usize) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.t_ns as f64 / SECOND_NS as f64, s.rates[j]))
            .collect()
    }

    /// Publishes this run's summary into a telemetry registry under
    /// `sim.result.*` (for export alongside live counters).
    pub fn publish(&self, registry: &MetricsRegistry) {
        registry.counter("sim.result.delivered").add(self.delivered);
        registry.counter("sim.result.sent").add(self.sent);
        registry.counter("sim.result.rerouted").add(self.rerouted);
        registry
            .gauge("sim.result.duration_s")
            .set(self.duration_ns as f64 / SECOND_NS as f64);
        registry
            .gauge("sim.result.mean_throughput")
            .set(self.mean_throughput());
        registry
            .gauge("sim.result.blocked_fraction")
            .set(self.blocked_fraction());
        let latency = registry.histogram("sim.result.latency_ns");
        for &l in &self.latencies_ns {
            latency.record(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(samples: Vec<RoundSnapshot>, duration_ns: u64, delivered: u64) -> RunResult {
        RunResult {
            policy: "test".to_owned(),
            duration_ns,
            delivered,
            sent: delivered,
            rerouted: 0,
            blocked_ns: vec![0, 0],
            samples,
            latencies_ns: Vec::new(),
            worker_busy_ns: vec![0, 0],
        }
    }

    fn trace(t_ns: u64, delivered: u64) -> RoundSnapshot {
        RoundSnapshot {
            region: 0,
            t_ns,
            weights: vec![500, 500],
            rates: vec![0.0, 0.0],
            delivered,
            clusters: None,
        }
    }

    #[test]
    fn mean_throughput_in_tuples_per_second() {
        let r = result_with(vec![], 2 * SECOND_NS, 10_000);
        assert!((r.mean_throughput() - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn final_throughput_uses_tail_window() {
        let samples = (1..=10)
            .map(|i| trace(i * SECOND_NS, if i <= 5 { 100 } else { 1_000 }))
            .collect();
        let r = result_with(samples, 10 * SECOND_NS, 5_500);
        assert!((r.final_throughput(3) - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn final_throughput_falls_back_when_short() {
        let r = result_with(vec![trace(SECOND_NS, 42)], SECOND_NS, 42);
        assert!((r.final_throughput(10) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn series_extraction() {
        let samples = vec![trace(SECOND_NS, 1), trace(2 * SECOND_NS, 2)];
        let r = result_with(samples, 2 * SECOND_NS, 3);
        let w = r.weight_series(0);
        assert_eq!(w, vec![(1.0, 500), (2.0, 500)]);
        let rates = r.rate_series(1);
        assert_eq!(rates.len(), 2);
    }

    #[test]
    fn worker_utilization_is_bounded() {
        let mut r = result_with(vec![], 2 * SECOND_NS, 10);
        r.worker_busy_ns = vec![SECOND_NS, 3 * SECOND_NS];
        assert!((r.worker_utilization(0) - 0.5).abs() < 1e-12);
        assert_eq!(r.worker_utilization(1), 1.0, "clamped at 100%");
    }

    #[test]
    fn latency_quantiles() {
        let mut r = result_with(vec![], SECOND_NS, 1);
        assert_eq!(r.latency_quantile(0.5), None);
        r.latencies_ns = vec![10, 20, 30, 40, 100];
        assert_eq!(r.latency_quantile(0.0), Some(10));
        assert_eq!(r.latency_quantile(0.5), Some(30));
        assert_eq!(r.latency_quantile(1.0), Some(100));
    }

    #[test]
    fn zero_duration_is_zero_throughput() {
        let r = result_with(vec![], 0, 0);
        assert_eq!(r.mean_throughput(), 0.0);
        assert_eq!(r.blocked_fraction(), 0.0);
    }
}
