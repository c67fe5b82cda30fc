//! # streambal-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! paper's evaluation (§6). Each figure is a module under [`experiments`]
//! and a name of the one binary, `all_experiments [NAME…]`
//! (`cargo run --release -p streambal-bench --bin all_experiments -- fig09`;
//! no name runs them all), which writes CSV series/tables under
//! [`results_dir`] and prints the same rows the paper reports.
//!
//! Pass `--quick` (or set `STREAMBAL_QUICK=1`) to scale the workloads down
//! ~8× for a fast smoke run; shapes persist, noise grows.
//!
//! Micro-benchmarks for the algorithmic components (solvers, monotone
//! regression, function updates, clustering, the event engine) live in
//! `benches/`, driven by the dependency-free [`micro`] harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod harness;
pub mod micro;

pub use harness::{quick_requested, results_dir, run_kind, scale_scenario};
pub use micro::{BenchStats, Micro};
