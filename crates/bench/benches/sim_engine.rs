//! Raw discrete-event engine throughput (simulated tuples per wall second)
//! with dedicated workers and on shared processor-sharing hosts, plus the
//! telemetry overhead check: instrumenting the splitter/merger hot
//! path must cost < 5% (the observability budget).

use streambal_bench::Micro;
use streambal_sim::config::{RegionConfig, StopCondition};
use streambal_sim::multi::run_coupled;
use streambal_sim::policy::{Policy, RoundRobinPolicy};
use streambal_sim::{ChaosPlan, Host, SECOND_NS};
use streambal_telemetry::Telemetry;

fn region(n: usize, tuples: u64) -> RegionConfig {
    RegionConfig::builder(n)
        .base_cost(1_000)
        .mult_ns(200.0)
        .stop(StopCondition::Tuples(tuples))
        .build()
        .unwrap()
}

fn main() {
    let m = Micro::new();
    println!("== sim_engine ==");
    let tuples = 50_000u64;
    for n in [2usize, 16, 64] {
        let cfg = region(n, tuples);
        let stats = m.run(&format!("sim_engine/tuples/{n}"), || {
            let mut p = RoundRobinPolicy::new();
            streambal_sim::run(&cfg, &mut p).unwrap().delivered
        });
        stats.report_throughput(tuples);
    }

    // Shared hosts: two 8-PE regions oversubscribe one 8-thread host, so
    // every start and finish rescales the host's in-flight completions.
    let mut b = RegionConfig::builder(8);
    b.hosts(vec![Host::slow()])
        .base_cost(1_000)
        .mult_ns(200.0)
        .merge_capacity(usize::MAX)
        .stop(StopCondition::Duration(SECOND_NS));
    let coupled = [b.build().unwrap(), b.build().unwrap()];
    let mut delivered = 0;
    let stats = m.run("sim_engine/coupled/2x8", || {
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(RoundRobinPolicy::new()),
            Box::new(RoundRobinPolicy::new()),
        ];
        let results = run_coupled(&coupled, policies, &[], None).unwrap();
        delivered = results.iter().map(|r| r.delivered).sum();
        delivered
    });
    stats.report_throughput(delivered);

    // Telemetry overhead: same run, with the registry + trace instrumented.
    // The hub is reused across iterations so only the per-event atomic cost
    // is measured, not construction.
    println!("== sim_engine telemetry overhead ==");
    let cfg = region(16, tuples);
    let plain = m.run("sim_engine/telemetry_off/16", || {
        let mut p = RoundRobinPolicy::new();
        streambal_sim::run(&cfg, &mut p).unwrap().delivered
    });
    let telemetry = Telemetry::new();
    let plan = ChaosPlan::default();
    let instrumented = m.run("sim_engine/telemetry_on/16", || {
        let mut p = RoundRobinPolicy::new();
        streambal_sim::run_chaos(&cfg, &mut p, &plan, Some(&telemetry), None)
            .unwrap()
            .delivered
    });
    let overhead =
        (instrumented.median_ns as f64 - plain.median_ns as f64) / plain.median_ns as f64 * 100.0;
    println!("telemetry overhead: {overhead:+.2}% (budget < 5%)");
}
