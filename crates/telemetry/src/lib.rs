//! # streambal-telemetry
//!
//! The unified observability layer for every streambal crate: a cheap
//! atomic [`MetricsRegistry`] (counters, gauges, log-bucketed histograms)
//! safe for hot paths such as the splitter's per-tuple WRR pick, a typed
//! controller decision [`trace`] backed by a bounded ring buffer, and
//! [`export`] functions producing CSV, JSON-lines and Prometheus-style
//! text exposition.
//!
//! The crate is dependency-free and std-only by design: it must build in
//! fully offline environments and add nothing to the workspace's
//! dependency closure. A minimal JSON [`json`] parser is included so
//! exported telemetry can be read back (round-trip tests, offline
//! reconstruction of controller decisions).
//!
//! Layering: `streambal-core` depends on this crate to emit decision
//! traces from the `LoadBalancer`; `sim`, `runtime`, `transport`,
//! `dataflow`, `workloads` and the CLI all report through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod registry;
pub mod trace;

pub use registry::{Counter, Gauge, Histogram, MetricSnapshot, MetricValue, MetricsRegistry};
pub use trace::{RoundSnapshot, TraceBuffer, TraceEvent, TraceRecord};

/// A bundle of one metrics registry and one trace buffer: the single
/// handle a run threads through splitter, workers, merger and controller.
///
/// Cloning is cheap (both members are `Arc`-backed) and every clone
/// observes the same underlying state.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: MetricsRegistry,
    trace: TraceBuffer,
}

impl Telemetry {
    /// Creates a hub with the default trace capacity
    /// ([`trace::DEFAULT_CAPACITY`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a hub whose trace ring holds at most `capacity` records
    /// before evicting the oldest.
    #[must_use]
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Self {
            registry: MetricsRegistry::new(),
            trace: TraceBuffer::with_capacity(capacity),
        }
    }

    /// The metrics registry.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The decision/sample trace buffer.
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_clones_share_state() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t.registry().counter("shared.count").add(3);
        assert_eq!(t2.registry().counter("shared.count").get(), 3);
        t2.trace().push(TraceEvent::Decay {
            round: 1,
            decay: 0.9,
        });
        assert_eq!(t.trace().len(), 1);
    }
}
