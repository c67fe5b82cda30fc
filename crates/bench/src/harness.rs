//! Shared plumbing for the experiment runner (`all_experiments`).

use std::path::PathBuf;
use std::time::Instant;

use streambal_sim::config::StopCondition;
use streambal_sim::metrics::RunResult;
use streambal_workloads::policies::PolicyKind;
use streambal_workloads::scenarios::Scenario;

/// Where CSV outputs go: `$STREAMBAL_RESULTS` or `./target/results`. The
/// committed goldens in `results/` are rewritten only on request
/// (`STREAMBAL_RESULTS=results`), so a local run cannot dirty them.
pub fn results_dir() -> PathBuf {
    std::env::var_os("STREAMBAL_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/results"))
}

/// Whether a quick (scaled-down) run was requested via `--quick` on the
/// command line or `STREAMBAL_QUICK=1` in the environment.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("STREAMBAL_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
}

/// Scales a scenario's workload down by `divisor` (durations, tuple counts
/// and the load-change instant alike), for smoke runs.
///
/// # Panics
///
/// Panics if `divisor == 0`.
pub fn scale_scenario(scenario: &mut Scenario, divisor: u64) {
    assert!(divisor > 0, "divisor must be positive");
    scenario.config.stop = match scenario.config.stop {
        StopCondition::Tuples(t) => StopCondition::Tuples((t / divisor).max(1_000)),
        StopCondition::Duration(d) => {
            StopCondition::Duration((d / divisor).max(streambal_sim::SECOND_NS))
        }
    };
    if let Some(change) = scenario.load_change_ns.as_mut() {
        *change /= divisor;
        let scaled = *change;
        for w in &mut scenario.config.workers {
            if !w.load.is_constant() {
                let initial = w.load.factor_at(0);
                let after = w.load.factor_at(u64::MAX);
                w.load = streambal_sim::load::LoadSchedule::step(initial, scaled, after);
            }
        }
    }
}

/// Runs one scenario under one policy kind, printing a progress line.
///
/// # Panics
///
/// Panics if the scenario's configuration is invalid (scenario constructors
/// always produce valid configurations).
pub fn run_kind(scenario: &Scenario, kind: &PolicyKind) -> RunResult {
    let mut policy = kind.build(&scenario.config);
    let started = Instant::now();
    let result = streambal_sim::run(&scenario.config, policy.as_mut())
        .expect("scenario configurations are valid");
    eprintln!(
        "  [{}] {:<22} {:>9} tuples in {:>8.1} sim-s ({:>6.1}s wall, {:>10.0} tup/s)",
        scenario.name,
        kind.name(),
        result.delivered,
        result.duration_ns as f64 / streambal_sim::SECOND_NS as f64,
        started.elapsed().as_secs_f64(),
        result.mean_throughput(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_sim::SECOND_NS;
    use streambal_workloads::scenarios;

    #[test]
    fn scale_scenario_divides_workload() {
        let mut s = scenarios::fig09(2, true);
        let before = match s.config.stop {
            StopCondition::Tuples(t) => t,
            _ => unreachable!(),
        };
        scale_scenario(&mut s, 4);
        match s.config.stop {
            StopCondition::Tuples(t) => assert!(t <= before / 4 + 1_000),
            _ => unreachable!(),
        }
        // Fraction-based load events need no rescaling.
        assert_eq!(s.config.fraction_events[0].fraction, 0.125);
    }

    #[test]
    fn scale_scenario_moves_time_based_changes() {
        let mut s = scenarios::fig08_top();
        let change_before = s.load_change_ns.unwrap();
        scale_scenario(&mut s, 8);
        assert_eq!(s.load_change_ns.unwrap(), change_before / 8);
        assert_eq!(s.config.workers[0].load.factor_at(change_before / 8), 1.0);
    }

    #[test]
    fn scale_scenario_keeps_duration_stops_positive() {
        let mut s = scenarios::fig08_bottom();
        scale_scenario(&mut s, 1_000_000);
        match s.config.stop {
            StopCondition::Duration(d) => assert!(d >= SECOND_NS),
            _ => unreachable!(),
        }
    }

    #[test]
    fn run_kind_produces_result() {
        let mut s = scenarios::fig09(2, false);
        scale_scenario(&mut s, 64);
        let r = run_kind(&s, &PolicyKind::RoundRobin);
        assert!(r.delivered > 0);
        assert_eq!(r.policy, "RR");
    }
}
