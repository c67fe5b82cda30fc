//! Regenerates the paper's figures and tables, writing CSVs to the results
//! directory (`target/results`, or `$STREAMBAL_RESULTS`).
//!
//! ```text
//! all_experiments [NAME…] [--quick]
//! ```
//!
//! Each `NAME` runs one experiment; no name runs them all, in the order of
//! `EXPERIMENTS`. `--quick` scales every workload down for a smoke run.
//! An unknown name exits 2 and lists the valid ones.

use std::path::Path;
use std::process::ExitCode;

use streambal_bench::experiments::{
    ablations, indepth, latency, placement, reroute, sweeps, threaded,
};
use streambal_workloads::report::Table;

/// One experiment: its name on the command line and what it runs.
type Experiment = (&'static str, fn(&Path) -> Vec<Table>);

/// Every experiment, in full-run order.
const EXPERIMENTS: &[Experiment] = &[
    ("fig02", indepth::fig02),
    ("fig05", indepth::fig05),
    ("fig07", indepth::fig07),
    ("fig08_top", indepth::fig08_top),
    ("fig08_bottom", indepth::fig08_bottom),
    ("fig09", sweeps::fig09),
    ("fig10", sweeps::fig10),
    ("fig11_top", indepth::fig11_top),
    ("fig11_bottom", sweeps::fig11_bottom),
    ("fig12", indepth::fig12),
    ("fig13", sweeps::fig13),
    ("table_reroute", reroute::run),
    ("ablations", run_ablations),
    ("latency_table", latency::run),
    ("placement_table", placement::run),
    ("fig08_threaded", threaded::fig08_threaded),
];

/// The three design-choice ablations (decay factor, exploration step,
/// clustering threshold).
fn run_ablations(out: &Path) -> Vec<Table> {
    let mut tables = ablations::decay(out);
    tables.extend(ablations::step(out));
    tables.extend(ablations::clustering(out));
    tables
}

fn main() -> ExitCode {
    let mut selected = Vec::new();
    for name in std::env::args().skip(1).filter(|a| a != "--quick") {
        match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some(experiment) => selected.push(experiment),
            None => {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                eprintln!(
                    "all_experiments: unknown experiment '{name}'; valid names: {}",
                    valid.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS);
    }

    let out = streambal_bench::results_dir();
    eprintln!("writing results to {}", out.display());
    let started = std::time::Instant::now();
    for (_, run) in selected {
        run(&out);
    }
    eprintln!(
        "experiments done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}
