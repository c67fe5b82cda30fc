//! Extension: the Figure 8 (top) experiment on the *real threaded runtime*
//! — OS threads, wall-clock blocking over instrumented channels, genuine
//! scheduler noise. The time scale is compressed (milliseconds instead of
//! seconds) but the trajectory is the paper's: throttle, hold, recover.

use std::path::Path;
use std::time::Duration;

use streambal_runtime::region::{LoadChange, RegionBuilder};
use streambal_workloads::report::{fmt3, Table};

use crate::harness::quick_requested;

/// Runs the threaded Figure-8-style experiment and prints the control
/// trace.
pub fn fig08_threaded(out: &Path) -> Vec<Table> {
    let tuples: u64 = if quick_requested() { 60_000 } else { 400_000 };
    let report = RegionBuilder::new(3)
        .tuple_cost(2_000)
        .initial_load(0, 50.0)
        .load_change(LoadChange {
            after: Duration::from_millis(250),
            worker: 0,
            factor: 1.0,
        })
        .sample_interval_ms(20)
        .run(tuples)
        .expect("threaded region runs");

    let mut table = Table::new(
        "extension: fig08-style run on the threaded runtime (50x load removed at 250 ms)",
        vec![
            "t_ms".into(),
            "w0".into(),
            "w1".into(),
            "w2".into(),
            "rate0".into(),
            "rate1".into(),
            "rate2".into(),
        ],
    );
    for s in &report.snapshots {
        table.push_row(vec![
            (s.t_ns / 1_000_000).to_string(),
            s.weights[0].to_string(),
            s.weights[1].to_string(),
            s.weights[2].to_string(),
            fmt3(s.rates[0]),
            fmt3(s.rates[1]),
            fmt3(s.rates[2]),
        ]);
    }
    table
        .write_csv(out.join("extension_fig08_threaded.csv"))
        .expect("results directory is writable");

    // Print a compact view.
    let mut compact = Table::new(
        "fig08 threaded (every 4th round)",
        vec!["t_ms".into(), "w0".into(), "w1".into(), "w2".into()],
    );
    for s in report.snapshots.iter().step_by(4) {
        compact.push_row(vec![
            (s.t_ns / 1_000_000).to_string(),
            s.weights[0].to_string(),
            s.weights[1].to_string(),
            s.weights[2].to_string(),
        ]);
    }
    println!("{compact}");
    println!(
        "delivered {} tuples in {:?}, in order: {}\n",
        report.delivered, report.duration, report.in_order
    );
    vec![compact]
}
