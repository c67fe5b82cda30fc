//! Per-stage and per-region statistics for a completed flow.

use std::time::Duration;

pub use streambal_telemetry::RoundSnapshot;

/// Statistics for one pipeline stage (one PE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stage label (e.g. `"map"`, `"parallel[4]"`, `"sink"`).
    pub name: String,
    /// Tuples the stage consumed from upstream.
    pub consumed: u64,
    /// Tuples the stage emitted downstream.
    pub emitted: u64,
    /// Cumulative time the stage's *producer* spent blocked pushing into
    /// this stage's input channel, ns (the paper's blocking-time signal, at
    /// every stage boundary).
    pub upstream_blocked_ns: u64,
}

/// The outcome of a completed flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Per-stage statistics, source first.
    pub stages: Vec<StageStats>,
    /// For each parallel region (in pipeline order), its control trace.
    pub regions: Vec<Vec<RoundSnapshot>>,
    /// Wall-clock duration from `run` to completion.
    pub duration: Duration,
}

impl FlowReport {
    /// Tuples delivered by the final stage.
    pub fn delivered(&self) -> u64 {
        self.stages.last().map_or(0, |s| s.emitted)
    }

    /// End-to-end throughput in tuples per wall second (based on the final
    /// stage's output).
    pub fn throughput(&self) -> f64 {
        self.delivered() as f64 / self.duration.as_secs_f64().max(1e-9)
    }

    /// The last installed weights of region `r`, if it ever rebalanced.
    pub fn final_region_weights(&self, r: usize) -> Option<&[u32]> {
        self.regions
            .get(r)
            .and_then(|t| t.last())
            .map(|s| s.weights.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivered_reads_last_stage() {
        let report = FlowReport {
            stages: vec![
                StageStats {
                    name: "source".into(),
                    consumed: 0,
                    emitted: 100,
                    upstream_blocked_ns: 0,
                },
                StageStats {
                    name: "sink".into(),
                    consumed: 100,
                    emitted: 42,
                    upstream_blocked_ns: 7,
                },
            ],
            regions: vec![],
            duration: Duration::from_secs(2),
        };
        assert_eq!(report.delivered(), 42);
        assert!((report.throughput() - 21.0).abs() < 1e-9);
        assert!(report.final_region_weights(0).is_none());
    }
}
