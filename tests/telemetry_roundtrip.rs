//! End-to-end telemetry round-trip: a fig08-style run recorded through the
//! telemetry subsystem, exported to JSONL, parsed back, and compared with
//! the simulator's own in-memory metrics — the exported controller trace
//! alone must reconstruct the per-connection weight and blocking-rate
//! trajectories.

use streambal::core::controller::BalancerConfig;
use streambal::sim::config::{RegionConfig, StopCondition};
use streambal::sim::load::LoadSchedule;
use streambal::sim::policy::BalancerPolicy;
use streambal::sim::{ChaosPlan, RoundSnapshot, SECOND_NS};
use streambal::telemetry::{export, MetricValue, Telemetry, TraceEvent};

/// A scaled-down Figure 8 (top): 3 PEs, one under heavy external load that
/// is removed an eighth of the way into the run.
fn fig08_style() -> RegionConfig {
    let change = 10 * SECOND_NS;
    RegionConfig::builder(3)
        .base_cost(1_000)
        .mult_ns(500.0)
        .worker_load_schedule(0, LoadSchedule::step(100.0, change, 1.0))
        .stop(StopCondition::Duration(80 * SECOND_NS))
        .build()
        .unwrap()
}

#[test]
fn exported_trace_reconstructs_weight_and_rate_trajectories() {
    let cfg = fig08_style();
    let telemetry = Telemetry::new();
    let mut policy = BalancerPolicy::adaptive(BalancerConfig::builder(3).build().unwrap());
    let plan = ChaosPlan::default();
    let result =
        streambal::sim::run_chaos(&cfg, &mut policy, &plan, Some(&telemetry), None).unwrap();
    assert!(result.samples.len() >= 60, "one control round per second");

    // Export the trace to JSON-lines and parse it back, as an external
    // consumer of `--trace` output would.
    let jsonl = export::trace_to_jsonl(&telemetry.trace().records());
    let records = export::parse_trace_jsonl(&jsonl).unwrap();
    assert_eq!(records.len(), telemetry.trace().len());
    let events: Vec<TraceEvent> = records.into_iter().map(|r| r.event).collect();

    // The sample series reconstructed from the exported trace alone must
    // equal the simulator's in-memory series, field for field.
    let reconstructed = RoundSnapshot::series_from_events(&events);
    assert_eq!(reconstructed, result.samples);

    // And therefore the derived per-connection trajectories match too.
    for j in 0..3 {
        let weights: Vec<u32> = reconstructed.iter().map(|s| s.weights[j]).collect();
        let expected: Vec<u32> = result.samples.iter().map(|s| s.weights[j]).collect();
        assert_eq!(weights, expected, "weight trajectory of connection {j}");
        let rates: Vec<f64> = reconstructed.iter().map(|s| s.rates[j]).collect();
        let expected: Vec<f64> = result.samples.iter().map(|s| s.rates[j]).collect();
        assert_eq!(rates, expected, "rate trajectory of connection {j}");
    }

    // The trajectory tells the paper's story: the loaded connection starts
    // near even split and is starved while loaded; after the load is
    // removed the balancer re-discovers it (exploration/decay).
    let w0: Vec<u32> = reconstructed.iter().map(|s| s.weights[0]).collect();
    let while_loaded = w0[5.min(w0.len() - 1)];
    let at_end = *w0.last().unwrap();
    assert!(
        while_loaded < 100,
        "loaded connection starved: {while_loaded}"
    );
    assert!(at_end > 200, "recovered after load removal: {at_end}");

    // The controller's own events survive the round-trip as well.
    let rounds = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ControllerRound { .. }))
        .count();
    assert!(rounds >= 60, "one ControllerRound per control period");
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::Decay { .. })),
        "adaptive mode decays the model"
    );
}

#[test]
fn exported_metrics_match_run_result() {
    let cfg = fig08_style();
    let telemetry = Telemetry::new();
    let mut policy = BalancerPolicy::adaptive(BalancerConfig::builder(3).build().unwrap());
    let plan = ChaosPlan::default();
    let result =
        streambal::sim::run_chaos(&cfg, &mut policy, &plan, Some(&telemetry), None).unwrap();
    result.publish(telemetry.registry());

    let jsonl = export::metrics_to_jsonl(&telemetry.registry().snapshot());
    let parsed = export::parse_metrics_jsonl(&jsonl).unwrap();
    let value = |name: &str| {
        parsed
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .value
            .clone()
    };

    assert_eq!(
        value("sim.merger.delivered"),
        MetricValue::Counter(result.delivered)
    );
    assert_eq!(
        value("sim.splitter.sent"),
        MetricValue::Counter(result.sent)
    );
    let MetricValue::Counter(blocked) = value("sim.splitter.blocked_ns") else {
        panic!("blocked_ns is a counter")
    };
    assert_eq!(blocked, result.blocked_ns.iter().sum::<u64>());
    let MetricValue::Gauge(tput) = value("sim.result.mean_throughput") else {
        panic!("mean_throughput is a gauge")
    };
    assert!((tput - result.mean_throughput()).abs() < 1e-6);
}
