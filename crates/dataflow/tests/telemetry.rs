//! The dataflow layer's telemetry integration: a parallel region attached
//! to a hub publishes stage counters, per-replica transport metrics and a
//! controller decision trace.

use streambal_dataflow::{source, IterSource, ParallelConfig};
use streambal_telemetry::{Telemetry, TraceEvent};

#[test]
fn parallel_region_publishes_stage_counters_and_trace() {
    let telemetry = Telemetry::new();
    let n = 20_000u64;
    let (got, report) = source(IterSource::new(0..n))
        .parallel(ParallelConfig::new(3).telemetry(&telemetry), || {
            |x: u64| x + 1
        })
        .collect()
        .unwrap();
    assert_eq!(got.len(), n as usize);
    assert_eq!(report.delivered(), n);

    let reg = telemetry.registry();
    assert_eq!(reg.counter("dataflow.split_in").get(), n);
    assert_eq!(reg.counter("dataflow.worked").get(), n);
    assert_eq!(reg.counter("dataflow.merged_out").get(), n);
    // The replica connections were instrumented (counters exist, whether or
    // not this particular run ever blocked).
    let names: Vec<String> = reg.snapshot().into_iter().map(|s| s.name).collect();
    assert!(names.iter().any(|n| n == "transport.replica0.blocked_ns"));

    // The controller emitted both its own Sample events and the balancer's
    // ControllerRound records.
    let events = telemetry.trace().events();
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::ControllerRound { .. })));
    let last_sample = events.iter().rev().find_map(|e| match e {
        TraceEvent::Sample(s) => Some(s.delivered),
        _ => None,
    });
    assert!(last_sample.is_some(), "no Sample events traced");
}
