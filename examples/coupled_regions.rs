//! Two parallel regions sharing hosts in ONE coupled simulation
//! (processor-sharing): the §8 future-work scenario where "with many
//! parallel regions, there will be flexibility in the whole system to
//! adapt". A bursty region's idle capacity is picked up by its neighbour
//! in real time.
//!
//! Run with: `cargo run --release --example coupled_regions`

use streambal::core::BalancerConfig;
use streambal::sim::config::{RegionConfig, StopCondition};
use streambal::sim::host::Host;
use streambal::sim::multi::run_coupled;
use streambal::sim::policy::{BalancerPolicy, Policy};
use streambal::sim::SECOND_NS;

fn main() {
    // One 8-thread host; two 6-PE regions (12 PEs -> oversubscribed when
    // both are busy). Region 0 is splitter-capped to a third of its demand.
    let region = |send_overhead_ns| {
        RegionConfig::builder(6)
            .hosts(vec![Host::slow()])
            .base_cost(1_000)
            .mult_ns(500.0)
            .send_overhead_ns(send_overhead_ns)
            .merge_capacity(usize::MAX)
            .stop(StopCondition::Duration(30 * SECOND_NS))
            .build()
            .expect("valid region")
    };
    let bursty = region(250_000); // ~4k tuples/s cap
    let hungry = region(0); // 0 derives the default splitter overhead
    let policies: Vec<Box<dyn Policy>> = (0..2)
        .map(|_| {
            Box::new(BalancerPolicy::adaptive(
                BalancerConfig::builder(6).build().expect("valid balancer"),
            )) as Box<dyn Policy>
        })
        .collect();
    let results =
        run_coupled(&[bursty, hungry], policies, &[], None).expect("coupled simulation runs");

    for (r, run) in results.iter().enumerate() {
        println!(
            "region {r}: {:>8.0} tuples/s mean, {:>8.0} tuples/s final, \
             worker utilizations {:?}",
            run.mean_throughput(),
            run.final_throughput(8),
            (0..6)
                .map(|j| format!("{:.2}", run.worker_utilization(j)))
                .collect::<Vec<_>>()
        );
    }
    println!(
        "\nthe capped region's PEs idle (~0.3 utilization), and the hungry\n\
         region runs well past the 8/12 oversubscription share a static\n\
         model would predict — capacity moves to where the work is."
    );
}
