//! The names this program reports under. `BENCHMARK.json` at the repo
//! root is the contract; a unit test keeps these tables equal to it.

use std::collections::BTreeMap;

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

pub const WORKLOADS: &[&str] = &[
    "proxy-small",
    "proxy-large",
    "proxy-skew",
    "control-plain",
    "control-churn",
];

/// Reported by every workload on an untraced run. An *op* is one
/// byte-verified request on the `proxy-*` workloads and one
/// `ControlPlane::round` on the `control-*` ones; README.md says which
/// phase each number comes from.
pub const END_TO_END: &[MetricSpec] = &[
    m("ops_per_s", "1/s"),
    m("p50_us", "us"),
    m("cpu_us_per_op", "us"),
    m("peak_rss_mib", "MiB"),
    m("setup_s", "s"),
];

/// Reported by every workload on a traced run; 0 where a layer does not
/// run on that workload.
pub const PER_LAYER: &[MetricSpec] = &[
    m("proxy.requests", "count"),
    m("proxy.retries", "count"),
    m("proxy.failed_requests", "count"),
    m("proxy.forwarded_bytes", "count"),
    m("proxy.residence_p50_us", "us"),
    m("proxy.cpu_util", "ratio"),
    m("proxy.cpu_us_per_req_sat", "us"),
    m("proxy.floor_rps_sat", "1/s"),
    m("proxy.floor_p50_us", "us"),
    m("proxy.added_p50_us", "us"),
    m("proxy.echo_cpu_us_per_req", "us"),
    m("proxy.client_p99_us", "us"),
    m("proxy.client_p999_us", "us"),
    m("proxy.gen_late_p99_us", "us"),
    m("proxy.backlog_max", "count"),
    m("proxy.slow_share", "ratio"),
    m("proxy.slow_weight_mean", "ratio"),
    m("proxy.slow_blocking_rate_mean", "ratio"),
    m("proxy.frame.decode_ns", "ns"),
    m("proxy.frame.encode_ns", "ns"),
    m("proxy.pool.pick_ns", "ns"),
    m("proxy.pool.install_ns", "ns"),
    m("transport.poll.wait_ns", "ns"),
    m("transport.poll.rereg_ns", "ns"),
    m("transport.counter.add_ns", "ns"),
    m("transport.sampler.sample_ns", "ns"),
    m("telemetry.counter.incr_ns", "ns"),
    m("telemetry.histogram.record_ns", "ns"),
    m("telemetry.registry.snapshot_us", "us"),
    m("control.rounds_per_s", "1/s"),
    m("control.first_round_ms", "ms"),
    m("control.round_us_plain_p50", "us"),
    m("control.round_ms_steady_p50", "ms"),
    m("control.round_ms_rotating_p50", "ms"),
    m("control.round_ms_membership_p50", "ms"),
    m("control.grow_round_ms_p50", "ms"),
    m("control.round_ms_max", "ms"),
    m("control.rounds_over_cadence", "count"),
    m("control.self_ms_membership", "ms"),
    m("core.cluster.knee_ms_2048", "ms"),
    m("core.cluster.fill_ms_2048", "ms"),
    m("core.cluster.agglomerate_ms_2048", "ms"),
    m("core.solver.fox_us_n8", "us"),
    m("core.function.observe_predict_us", "us"),
    m("core.function.decay_predict_us", "us"),
    m("core.pava.fit_us_1001", "us"),
    m("benchmark.trace_overhead_pct", "%"),
    m("benchmark.trace_spans", "count"),
    m("benchmark.trace_spans_dropped", "count"),
];

/// What one run hands back: the contract's counts plus named values.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_telemetry::json::{self, Json};

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let table = |specs: &[MetricSpec]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|s| (s.name.to_owned(), s.unit.to_owned()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
