//! The paper's measurement protocol on REAL TCP: the splitter→worker
//! connections are loopback sockets, so the kernel's own socket buffers
//! provide the back-pressure and the `MSG_DONTWAIT`-style blocking signal
//! that drives the balancer.
//!
//! Run with: `cargo run --release --example tcp_sockets`

use streambal::runtime::region::{RegionBuilder, Transport};

fn main() {
    // Three workers over real sockets; worker 0 is 50x slower.
    let report = RegionBuilder::new(3)
        .transport(Transport::Tcp {
            frame_padding: 4 * 1024, // realistic tuple size; buffers hold fewer
        })
        .tuple_cost(2_000)
        .initial_load(0, 50.0)
        .sample_interval_ms(25)
        .run(120_000)
        .expect("TCP region runs");

    println!(
        "delivered {} tuples in {:?} ({:.0} tuples/s), in order: {}",
        report.delivered,
        report.duration,
        report.throughput(),
        report.in_order
    );
    println!(
        "real kernel blocking per connection (ms): {:?}",
        report
            .blocked_ns
            .iter()
            .map(|&ns| ns / 1_000_000)
            .collect::<Vec<_>>()
    );
    println!("\ncontrol rounds (every 8th):");
    for s in report.snapshots.iter().step_by(8) {
        println!("t={:>5}ms weights {:?}", s.t_ns / 1_000_000, s.weights);
    }
    if let Some(w) = report.final_weights() {
        println!(
            "\nfinal weights {w:?} — the 50x-slow worker 0 was throttled using \
             nothing but real TCP blocking measurements."
        );
    }
}
