//! The same balancer on real OS threads: the splitter measures genuine
//! wall-clock blocking on instrumented channels while workers burn real
//! integer multiplies (the paper's workload), and a control thread
//! rebalances live.
//!
//! Run with: `cargo run --release --example threaded_runtime`

use std::time::Duration;

use streambal::runtime::region::{LoadChange, RegionBuilder};
use streambal::runtime::workload::calibrate_ns_per_multiply;

fn main() {
    println!(
        "calibration: one multiply ≈ {:.2} ns on this machine",
        calibrate_ns_per_multiply()
    );

    // Worker 0 starts 30x slower; the load disappears 300 ms into the run.
    let report = RegionBuilder::new(3)
        .tuple_cost(2_000)
        .initial_load(0, 30.0)
        .load_change(LoadChange {
            after: Duration::from_millis(300),
            worker: 0,
            factor: 1.0,
        })
        .sample_interval_ms(25)
        .run(150_000)
        .expect("region runs to completion");

    println!(
        "\ndelivered {} tuples in {:?} ({:.0} tuples/s), strictly in order: {}",
        report.delivered,
        report.duration,
        report.throughput(),
        report.in_order
    );
    println!("\ncontrol rounds (every 4th):");
    println!("t(ms)  weights");
    for s in report.snapshots.iter().step_by(4) {
        println!("{:>5}  {:?}", s.t_ns / 1_000_000, s.weights);
    }
    println!(
        "\ncumulative splitter blocking per connection: {:?} ns",
        report.blocked_ns
    );
}
