//! Tournament sanity ordering: on the scenarios built around sustained
//! skew — stragglers and hotspot-key churn — the paper's controller must
//! strictly beat the static baselines (round-robin, random) on p99
//! blocking rate, no strategy may buy its score by violating the
//! ordering-critical oracles, and the full matrix reproduces the committed
//! report byte for byte.

use std::sync::OnceLock;

use streambal::workloads::tournament::{
    csv_table, markdown_report, run_matrix, scenarios, CellOutcome,
};
use streambal::workloads::StrategyKind;

const SEED: u64 = 7;

/// The full seed-7 matrix (every scenario × the whole roster), run once and
/// shared by the tests that need all of it.
fn full_matrix() -> &'static [CellOutcome] {
    static CELLS: OnceLock<Vec<CellOutcome>> = OnceLock::new();
    CELLS.get_or_init(|| {
        run_matrix(
            &scenarios::library(SEED),
            &StrategyKind::roster(),
            SEED,
            streambal::sim::driver::default_threads(),
        )
    })
}

fn outcomes() -> Vec<CellOutcome> {
    let lib = vec![
        scenarios::find("stragglers", SEED).unwrap(),
        scenarios::find("hotspot-churn", SEED).unwrap(),
    ];
    let strategies = [
        StrategyKind::Controller,
        StrategyKind::RoundRobin,
        StrategyKind::Random,
    ];
    run_matrix(
        &lib,
        &strategies,
        SEED,
        streambal::sim::driver::default_threads(),
    )
}

#[test]
fn controller_strictly_beats_static_baselines_on_sustained_skew() {
    let cells = outcomes();
    let p99 = |scenario: &str, strategy: &str| {
        cells
            .iter()
            .find(|c| c.scenario == scenario && c.strategy == strategy)
            .unwrap_or_else(|| panic!("missing cell {scenario}/{strategy}"))
            .stats
            .p99_block
    };
    for sc in ["stragglers", "hotspot-churn"] {
        let lb = p99(sc, "LB-adaptive");
        let rr = p99(sc, "RR");
        let random = p99(sc, "Random");
        assert!(
            lb < rr,
            "{sc}: controller p99 {lb:.4} must strictly beat round-robin {rr:.4}"
        );
        assert!(
            lb < random,
            "{sc}: controller p99 {lb:.4} must strictly beat random {random:.4}"
        );
    }
}

/// Every cell of the full matrix runs under the standard oracle suite: no
/// strategy may buy its score by violating the ordering-critical
/// invariants, and the controller must be clean under the whole suite.
#[test]
fn no_strategy_trades_ordering_for_score() {
    let cells = full_matrix();
    assert_eq!(
        cells.len(),
        scenarios::library(SEED).len() * StrategyKind::roster().len()
    );
    for cell in cells {
        assert!(
            cell.ordering_violations().is_empty(),
            "{}/{}: ordering oracle fired: {}",
            cell.scenario,
            cell.strategy,
            cell.violated_oracles()
        );
        if cell.strategy == "LB-adaptive" {
            assert!(
                cell.violations.is_empty(),
                "{}: controller cell must pass every oracle, got {}",
                cell.scenario,
                cell.violated_oracles()
            );
        }
    }
}

/// The full matrix renders exactly the committed `results/tournament.csv`
/// and `results/tournament.md`: every strategy, the four sampled per-tuple
/// rules included, replays byte for byte from its seed.
#[test]
fn full_matrix_reproduces_the_committed_report() {
    let cells = full_matrix();
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let golden = |name: &str| std::fs::read_to_string(results.join(name)).unwrap();
    assert!(
        csv_table(cells, SEED).to_csv() == golden("tournament.csv"),
        "tournament CSV drifted from results/tournament.csv"
    );
    let scenario_names: Vec<&str> = scenarios::library(SEED).iter().map(|s| s.name).collect();
    let strategy_names: Vec<&str> = StrategyKind::roster().iter().map(|k| k.name()).collect();
    assert!(
        markdown_report(cells, &scenario_names, &strategy_names, SEED) == golden("tournament.md"),
        "tournament report drifted from results/tournament.md"
    );
}
