//! Strategy tournament: the benchmark-of-record comparing the paper's
//! controller against classic load-balancing baselines.
//!
//! Three parts (see `docs/TOURNAMENT.md` for the playbook):
//!
//! 1. [`strategy`] — the [`StrategyKind`] roster: the adaptive
//!    controller, round-robin, and four cheap per-tuple baselines (random,
//!    least-outstanding, power-of-two-choices, PKG-style two-choice
//!    hashing) sampled into a `sim::Policy` that runs under `sim::run` /
//!    `sim::run_chaos`.
//! 2. [`scenarios`] — a curated library of six seeded disturbance
//!    patterns (diurnal ramp, flash crowd, heavy-tailed costs, correlated
//!    failure, stragglers, hotspot churn) beyond the paper's figures.
//! 3. [`runner`] — executes the strategy × scenario matrix across cores,
//!    each cell under the standard chaos oracles, and renders the CSV +
//!    markdown comparison report committed under `results/`.

pub mod runner;
pub mod scenarios;
pub mod strategy;

pub use runner::{csv_table, markdown_report, run_cell, run_matrix, CellOutcome, CellStats};
pub use scenarios::{library, TournamentScenario};
pub use strategy::StrategyKind;
