//! The tournament runner: executes the strategy × scenario matrix, one
//! deterministic chaos run per cell, every cell under the standard oracle
//! suite, and renders the results as a CSV table and a markdown report.

use std::collections::HashMap;

use streambal_sim::chaos::oracle::{OracleSuite, RoundObserver, RoundView, Violation};
use streambal_sim::driver;
use streambal_sim::metrics::RunResult;
use streambal_sim::run_chaos;

use crate::report::Table;
use crate::tournament::scenarios::TournamentScenario;
use crate::tournament::strategy::StrategyKind;

/// Per-slot weight movement below this many raw units counts as "settled"
/// when measuring reconvergence (matches the standard reconvergence
/// oracle's tolerance).
const SETTLE_TOLERANCE: u32 = 60;

/// The metrics one tournament cell is scored on.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// Median over rounds of the worst per-connection blocking rate (the
    /// paper's minimax objective, sampled per control round).
    pub p50_block: f64,
    /// 99th percentile of the same per-round worst blocking rate.
    pub p99_block: f64,
    /// Peak reorder-queue occupancy at the merger, tuples.
    pub reorder_peak: usize,
    /// Control rounds between the last fault and the last round in which
    /// any slot's weight still moved more than the settle tolerance.
    pub reconv_rounds: u64,
    /// Mean delivered throughput, tuples per simulated second.
    pub throughput: f64,
    /// Tuples delivered in order by the merger.
    pub delivered: u64,
}

/// One cell of the tournament matrix: a strategy run through a scenario.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Strategy report name.
    pub strategy: String,
    /// The scored metrics.
    pub stats: CellStats,
    /// Standard-oracle violations observed during the run.
    pub violations: Vec<Violation>,
}

impl CellOutcome {
    /// Violations of the ordering-critical invariants (simplex weights,
    /// in-order delivery, bounded reorder queues) — the ones no strategy
    /// is allowed to trade away for throughput.
    pub fn ordering_violations(&self) -> Vec<&Violation> {
        self.violations
            .iter()
            .filter(|v| matches!(v.oracle, "simplex" | "in-order" | "reorder-bound"))
            .collect()
    }

    /// Distinct names of the oracles that fired, in firing order, joined
    /// with `+` (`-` when the run was clean).
    pub fn violated_oracles(&self) -> String {
        let mut names: Vec<&str> = Vec::new();
        for v in &self.violations {
            if !names.contains(&v.oracle) {
                names.push(v.oracle);
            }
        }
        if names.is_empty() {
            "-".to_string()
        } else {
            names.join("+")
        }
    }
}

/// Round observer for one cell: feeds every round to the standard oracle
/// suite while tracking the reorder-queue peak and when the weights last
/// moved relative to the last fault.
struct CellObserver {
    suite: OracleSuite,
    reorder_peak: usize,
    prev_weights: Vec<u32>,
    last_move_round: u64,
    last_fault_ns: Option<u64>,
    last_fault_round: u64,
}

impl CellObserver {
    fn new() -> Self {
        CellObserver {
            suite: OracleSuite::standard(),
            reorder_peak: 0,
            prev_weights: Vec::new(),
            last_move_round: 0,
            last_fault_ns: None,
            last_fault_round: 0,
        }
    }

    fn reconv_rounds(&self) -> u64 {
        self.last_move_round.saturating_sub(self.last_fault_round)
    }
}

impl RoundObserver for CellObserver {
    fn on_round(&mut self, view: &mut RoundView<'_>) {
        if let Some(&peak) = view.merge_occupancy.iter().max() {
            self.reorder_peak = self.reorder_peak.max(peak);
        }
        if view.last_fault_ns != self.last_fault_ns {
            self.last_fault_ns = view.last_fault_ns;
            self.last_fault_round = view.round;
        }
        // The first observed round is the baseline, not a "move".
        if !self.prev_weights.is_empty() {
            let moved = self.prev_weights.len() != view.weights.len()
                || self
                    .prev_weights
                    .iter()
                    .zip(view.weights)
                    .any(|(&a, &b)| a.abs_diff(b) > SETTLE_TOLERANCE);
            if moved {
                self.last_move_round = view.round;
            }
        }
        self.prev_weights.clear();
        self.prev_weights.extend_from_slice(view.weights);
        self.suite.on_round(view);
    }
}

/// Nearest-rank quantile over an unsorted sample; `0.0` for empty input.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl CellStats {
    fn from_run(result: &RunResult, obs: &CellObserver) -> CellStats {
        // Per-round worst-connection blocking rate: the minimax signal
        // the paper's controller drives to zero.
        let worst: Vec<f64> = result
            .samples
            .iter()
            .map(|s| s.rates.iter().copied().fold(0.0, f64::max))
            .collect();
        CellStats {
            p50_block: quantile(&worst, 0.50),
            p99_block: quantile(&worst, 0.99),
            reorder_peak: obs.reorder_peak,
            reconv_rounds: obs.reconv_rounds(),
            throughput: result.mean_throughput(),
            delivered: result.delivered,
        }
    }
}

/// Derives one cell's policy seed from the master seed and the cell's
/// coordinates (FNV-1a over the names), so cells are decorrelated but
/// each replays exactly from `--seed`.
fn cell_seed(seed: u64, scenario: &str, strategy: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in scenario.bytes().chain([0xffu8]).chain(strategy.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs one tournament cell: builds a fresh policy for the strategy,
/// replays the scenario under chaos with the standard oracle suite
/// attached, and scores the run.
pub fn run_cell(scenario: &TournamentScenario, strategy: StrategyKind, seed: u64) -> CellOutcome {
    let mut policy = strategy.build(
        &scenario.config,
        cell_seed(seed, scenario.name, strategy.name()),
    );
    let mut obs = CellObserver::new();
    let result = run_chaos(
        &scenario.config,
        policy.as_mut(),
        &scenario.plan,
        None,
        Some(&mut obs),
    )
    .expect("tournament scenarios validate");
    let stats = CellStats::from_run(&result, &obs);
    CellOutcome {
        scenario: scenario.name.to_string(),
        strategy: strategy.name().to_string(),
        stats,
        violations: obs.suite.into_violations(),
    }
}

/// Runs the full strategy × scenario matrix across `threads` cores via
/// [`driver::par_map`]. Results come back in matrix order (scenario-major)
/// regardless of thread count, so the report is identical serial or
/// parallel.
pub fn run_matrix(
    scenarios: &[TournamentScenario],
    strategies: &[StrategyKind],
    seed: u64,
    threads: usize,
) -> Vec<CellOutcome> {
    let jobs: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|si| (0..strategies.len()).map(move |ki| (si, ki)))
        .collect();
    driver::par_map(jobs, threads, |_, (si, ki)| {
        run_cell(&scenarios[si], strategies[ki], seed)
    })
}

/// Renders the outcomes as the tournament CSV (one row per cell, fixed
/// decimal formatting so equal runs produce byte-identical files).
pub fn csv_table(outcomes: &[CellOutcome], seed: u64) -> Table {
    let mut table = Table::new(
        format!("strategy tournament (seed {seed})"),
        [
            "scenario",
            "strategy",
            "p50_block",
            "p99_block",
            "reorder_peak",
            "reconv_rounds",
            "throughput",
            "delivered",
            "violations",
            "oracles",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for cell in outcomes {
        table.push_row(vec![
            cell.scenario.clone(),
            cell.strategy.clone(),
            format!("{:.4}", cell.stats.p50_block),
            format!("{:.4}", cell.stats.p99_block),
            cell.stats.reorder_peak.to_string(),
            cell.stats.reconv_rounds.to_string(),
            format!("{:.0}", cell.stats.throughput),
            cell.stats.delivered.to_string(),
            cell.violations.len().to_string(),
            cell.violated_oracles(),
        ]);
    }
    table
}

/// Whether lower is better for a metric column of the markdown pivots.
enum Better {
    Lower,
    Higher,
}

/// Renders the outcomes as a markdown comparison report: one pivot table
/// per metric (scenarios as rows, strategies as columns, best cell bold).
pub fn markdown_report(
    outcomes: &[CellOutcome],
    scenarios: &[&str],
    strategies: &[&str],
    seed: u64,
) -> String {
    let by_cell: HashMap<(&str, &str), &CellOutcome> = outcomes
        .iter()
        .map(|c| ((c.scenario.as_str(), c.strategy.as_str()), c))
        .collect();

    let mut out = String::new();
    out.push_str(&format!("# Strategy tournament (seed {seed})\n\n"));
    out.push_str(
        "Every cell is one deterministic chaos run: the strategy plays a seeded\n\
         disturbance scenario with the standard invariant oracles attached.\n\
         Regenerate with `cargo run --release -p streambal-cli -- tournament --seed ",
    );
    out.push_str(&format!("{seed}`.\n\n"));
    out.push_str(
        "- **blocking rate**: per control round, the worst per-connection share of\n\
         the interval the splitter spent blocked (the paper's minimax objective);\n\
         p50/p99 are taken over rounds.\n\
         - **reorder peak**: maximum reorder-queue occupancy at the merger, tuples.\n\
         - **reconvergence**: control rounds (250 ms) between the last injected fault\n\
         and the last round the weight vector still moved materially.\n\
         - **throughput**: tuples delivered in order per simulated second.\n\
         - **violations**: standard-oracle failures during the run (must be 0).\n\n",
    );

    type Metric = Box<dyn Fn(&CellOutcome) -> (f64, String)>;
    let sections: [(&str, Better, Metric); 5] = [
        (
            "p99 blocking rate",
            Better::Lower,
            Box::new(|c| (c.stats.p99_block, format!("{:.4}", c.stats.p99_block))),
        ),
        (
            "p50 blocking rate",
            Better::Lower,
            Box::new(|c| (c.stats.p50_block, format!("{:.4}", c.stats.p50_block))),
        ),
        (
            "Reorder-queue peak (tuples)",
            Better::Lower,
            Box::new(|c| {
                (
                    c.stats.reorder_peak as f64,
                    c.stats.reorder_peak.to_string(),
                )
            }),
        ),
        (
            "Reconvergence (rounds)",
            Better::Lower,
            Box::new(|c| {
                (
                    c.stats.reconv_rounds as f64,
                    c.stats.reconv_rounds.to_string(),
                )
            }),
        ),
        (
            "Throughput (tuples/s)",
            Better::Higher,
            Box::new(|c| (c.stats.throughput, format!("{:.0}", c.stats.throughput))),
        ),
    ];

    for (title, better, metric) in &sections {
        out.push_str(&format!("## {title}\n\n"));
        out.push_str(&format!("| scenario | {} |\n", strategies.join(" | ")));
        out.push_str(&format!("|---|{}\n", "---|".repeat(strategies.len())));
        for scenario in scenarios {
            let cells: Vec<Option<(f64, String)>> = strategies
                .iter()
                .map(|s| by_cell.get(&(*scenario, *s)).map(|c| metric(c)))
                .collect();
            let best = cells
                .iter()
                .flatten()
                .map(|(v, _)| *v)
                .fold(None, |acc: Option<f64>, v| {
                    Some(match (acc, better) {
                        (None, _) => v,
                        (Some(a), Better::Lower) => a.min(v),
                        (Some(a), Better::Higher) => a.max(v),
                    })
                });
            let row: Vec<String> = cells
                .iter()
                .map(|cell| match cell {
                    None => "n/a".to_string(),
                    Some((v, text)) => {
                        if Some(*v) == best {
                            format!("**{text}**")
                        } else {
                            text.clone()
                        }
                    }
                })
                .collect();
            out.push_str(&format!("| {scenario} | {} |\n", row.join(" | ")));
        }
        out.push('\n');
    }

    out.push_str("## Oracle violations\n\n");
    let dirty: Vec<&CellOutcome> = outcomes
        .iter()
        .filter(|c| !c.violations.is_empty())
        .collect();
    if dirty.is_empty() {
        out.push_str("None — every cell ran clean under the standard oracle suite.\n");
    } else {
        out.push_str("| scenario | strategy | count | oracles |\n|---|---|---|---|\n");
        for c in dirty {
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                c.scenario,
                c.strategy,
                c.violations.len(),
                c.violated_oracles()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(scenario: &str, strategy: &str, p99: f64) -> CellOutcome {
        CellOutcome {
            scenario: scenario.to_string(),
            strategy: strategy.to_string(),
            stats: CellStats {
                p50_block: p99 / 2.0,
                p99_block: p99,
                reorder_peak: 10,
                reconv_rounds: 3,
                throughput: 1000.0,
                delivered: 42,
            },
            violations: Vec::new(),
        }
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [0.4, 0.1, 0.3, 0.2];
        assert_eq!(quantile(&v, 0.0), 0.1);
        assert_eq!(quantile(&v, 1.0), 0.4);
        assert_eq!(quantile(&v, 0.5), 0.3);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn cell_seeds_are_decorrelated_but_stable() {
        let a = cell_seed(7, "stragglers", "RR");
        assert_eq!(a, cell_seed(7, "stragglers", "RR"));
        assert_ne!(a, cell_seed(7, "stragglers", "Random"));
        assert_ne!(a, cell_seed(8, "stragglers", "RR"));
        // The separator byte keeps (scenario, strategy) unambiguous.
        assert_ne!(cell_seed(7, "ab", "c"), cell_seed(7, "a", "bc"));
    }

    #[test]
    fn csv_rows_cover_every_cell() {
        let outcomes = vec![outcome("s1", "RR", 0.5), outcome("s1", "Random", 0.4)];
        let csv = csv_table(&outcomes, 7).to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 cells: {csv}");
        assert!(lines[0].starts_with("scenario,strategy,p50_block,p99_block"));
        assert!(lines[1].contains("0.5000"));
    }

    #[test]
    fn markdown_bolds_the_winner() {
        let outcomes = vec![outcome("s1", "RR", 0.5), outcome("s1", "Random", 0.4)];
        let md = markdown_report(&outcomes, &["s1"], &["RR", "Random"], 7);
        assert!(md.contains("**0.4000**"), "{md}");
        assert!(!md.contains("**0.5000**"), "{md}");
        assert!(md.contains("every cell ran clean"));
    }

    #[test]
    fn violated_oracles_dedupe_in_order() {
        let mut c = outcome("s", "RR", 0.1);
        assert_eq!(c.violated_oracles(), "-");
        for oracle in ["in-order", "simplex", "in-order"] {
            c.violations.push(Violation {
                oracle,
                round: 1,
                t_ns: 1,
                detail: String::new(),
                trace_tail: Vec::new(),
            });
        }
        assert_eq!(c.violated_oracles(), "in-order+simplex");
        assert_eq!(c.ordering_violations().len(), 3);
    }
}
