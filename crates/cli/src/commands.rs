//! Command execution: turn parsed arguments into simulator / placement
//! calls and print results.

use std::error::Error;

use streambal_cluster::model::{ClusterSpec, RegionSpec};
use streambal_cluster::placement::{place, Strategy};
use streambal_cluster::verify::{co_simulate_coupled, simulate_region};
use streambal_control::{Autoscaler, AutoscalerConfig};
use streambal_core::controller::{BalancerConfig, BalancerMode, ClusteringConfig};
use streambal_sim::chaos::{
    run_scenario, shrink, ChaosPlan, FaultKind, FuzzFailure, Scenario, TimedFault,
    DEFAULT_SHRINK_RUNS,
};
use streambal_sim::config::{RegionConfig, StopCondition};
use streambal_sim::host::Host;
use streambal_sim::load::LoadSchedule;
use streambal_sim::policy::{BalancerPolicy, Policy, RoundRobinPolicy};
use streambal_sim::SECOND_NS;
use streambal_telemetry::{export, Telemetry};
use streambal_workloads::autoscale::{self, AutoscalePolicyKind};
use streambal_workloads::oracle;
use streambal_workloads::report::Table;
use streambal_workloads::tournament::{self, StrategyKind, TournamentScenario};

use crate::args::{
    AutoscaleArgs, ChaosArgs, Command, HostArg, PlacementArgs, PolicyArg, SabotageArg,
    SimulateArgs, TournamentArgs,
};

/// Executes a parsed command.
pub fn run(cmd: Command) -> Result<(), Box<dyn Error>> {
    match cmd {
        Command::Help => {
            println!("{}", crate::args::USAGE);
            Ok(())
        }
        Command::Simulate(a) => simulate(a),
        Command::Placement(a) => placement(a),
        Command::Chaos(a) => chaos(a),
        Command::Tournament(a) => run_tournament(a),
        Command::Autoscale(a) => run_autoscale(a),
    }
}

fn to_host(h: HostArg) -> Host {
    match h {
        HostArg::Fast => Host::fast(),
        HostArg::Slow => Host::slow(),
        HostArg::Custom(threads, speed) => Host::new(threads, speed),
    }
}

fn simulate(a: SimulateArgs) -> Result<(), Box<dyn Error>> {
    let mut b = RegionConfig::builder(a.workers);
    b.base_cost(a.base_cost).mult_ns(a.mult_ns).seed(a.seed);
    if !a.hosts.is_empty() {
        let hosts: Vec<Host> = a.hosts.iter().copied().map(to_host).collect();
        let count = hosts.len();
        b.hosts(hosts);
        for j in 0..a.workers {
            b.worker_host(j, j % count);
        }
    }
    for l in &a.loads {
        match l.until_s {
            Some(s) => {
                b.worker_load_schedule(l.worker, LoadSchedule::step(l.factor, s * SECOND_NS, 1.0));
            }
            None => {
                b.worker_load(l.worker, l.factor);
            }
        }
    }
    b.stop(match a.tuples {
        Some(t) => StopCondition::Tuples(t),
        None => StopCondition::Duration(a.seconds * SECOND_NS),
    });
    let cfg = b.build()?;

    let mut policy: Box<dyn Policy> = match a.policy {
        PolicyArg::Rr => Box::new(RoundRobinPolicy::new()),
        PolicyArg::Reroute => Box::new(RoundRobinPolicy::with_reroute()),
        PolicyArg::Oracle => Box::new(oracle::policy(&cfg)),
        PolicyArg::LbStatic | PolicyArg::LbAdaptive => {
            let mut cb = BalancerConfig::builder(a.workers);
            if a.policy == PolicyArg::LbStatic {
                cb.mode(BalancerMode::Static);
            }
            if a.clustering {
                cb.clustering(ClusteringConfig::default());
            }
            let mut p = BalancerPolicy::new(cb.build()?);
            if let Some(max) = a.autoscale {
                // Close the loop on width: the engine polls the policy
                // every control round and applies its grow/shrink
                // decisions live.
                p = p.with_width_policy(Autoscaler::new(AutoscalerConfig {
                    min_width: a.workers,
                    max_width: max,
                    ..AutoscalerConfig::default()
                }));
            }
            Box::new(p)
        }
    };

    let telemetry = (a.metrics.is_some() || a.trace.is_some()).then(Telemetry::new);
    // Live growth rides the chaos WorkerAdd path: fresh connections and
    // workers appear at the scheduled rounds and the balancer admits them
    // exploration-bounded. Without `--grow-at` the plan is empty.
    let events = a
        .grows
        .iter()
        .map(|&(round, count)| TimedFault {
            t_ns: round * cfg.sample_interval_ns,
            fault: FaultKind::WorkerAdd { count },
        })
        .collect();
    let plan = ChaosPlan::new(events);
    let result = streambal_sim::run_chaos(&cfg, policy.as_mut(), &plan, telemetry.as_ref(), None)?;
    println!(
        "policy {} delivered {} tuples in {:.1} simulated seconds \
         ({:.0} tuples/s mean, {:.0} tuples/s final)",
        result.policy,
        result.delivered,
        result.duration_ns as f64 / SECOND_NS as f64,
        result.mean_throughput(),
        result.final_throughput(10),
    );
    if let Some(last) = result.samples.last() {
        println!("final weights (0.1% units): {:?}", last.weights);
    }
    if a.autoscale.is_some() {
        let widths: Vec<usize> = result.samples.iter().map(|s| s.weights.len()).collect();
        let first = widths.first().copied().unwrap_or(a.workers);
        println!(
            "autoscaled width: start {first}, peak {}, final {}",
            widths.iter().copied().max().unwrap_or(first),
            widths.last().copied().unwrap_or(first),
        );
    }
    if result.rerouted > 0 {
        println!(
            "rerouted {} tuples ({:.2}%)",
            result.rerouted,
            100.0 * result.rerouted as f64 / result.sent.max(1) as f64
        );
    }

    if let Some(path) = &a.csv {
        // The region may have grown mid-run; size the columns to the
        // widest round and zero-pad earlier (narrower) rows.
        let width = result
            .samples
            .iter()
            .map(|s| s.weights.len())
            .max()
            .unwrap_or(a.workers);
        let mut headers = vec!["t_s".to_owned()];
        for j in 0..width {
            headers.push(format!("w{j}"));
        }
        for j in 0..width {
            headers.push(format!("rate{j}"));
        }
        headers.push("delivered".to_owned());
        let mut table = Table::new("trace", headers);
        for s in &result.samples {
            let mut row = vec![format!("{}", s.t_ns / SECOND_NS)];
            row.extend(s.weights.iter().map(u32::to_string));
            row.extend((s.weights.len()..width).map(|_| "0".to_owned()));
            row.extend(s.rates.iter().map(|r| format!("{r:.4}")));
            row.extend((s.rates.len()..width).map(|_| "0.0000".to_owned()));
            row.push(s.delivered.to_string());
            table.push_row(row);
        }
        table.write_csv(path)?;
        println!("trace written to {path}");
    }

    if let Some(t) = &telemetry {
        result.publish(t.registry());
        if let Some(path) = &a.metrics {
            let snapshot = t.registry().snapshot();
            let rendered = if path.ends_with(".prom") {
                export::metrics_to_prometheus(&snapshot)
            } else if path.ends_with(".csv") {
                export::metrics_to_csv(&snapshot)
            } else {
                export::metrics_to_jsonl(&snapshot)
            };
            export::write_file(path, &rendered)?;
            println!("metrics written to {path}");
        }
        if let Some(path) = &a.trace {
            let records = t.trace().records();
            let rendered = if path.ends_with(".csv") {
                export::trace_to_csv(&records)
            } else {
                export::trace_to_jsonl(&records)
            };
            export::write_file(path, &rendered)?;
            println!("telemetry trace written to {path}");
        }
    }
    Ok(())
}

fn chaos(a: ChaosArgs) -> Result<(), Box<dyn Error>> {
    let mut failures = 0u64;
    let mut deaths = 0usize;
    let mut growths = 0usize;
    let mut first_failure: Option<FuzzFailure> = None;
    for i in 0..a.rounds {
        let seed = a.seed.wrapping_add(i);
        let mut scenario = Scenario::generate(seed);
        match a.sabotage {
            Some(SabotageArg::SkipRenorm) => {
                scenario.sabotage = Some(streambal_sim::Sabotage::SkipRenormalization);
            }
            Some(SabotageArg::Flap) => {
                scenario.sabotage = Some(streambal_sim::Sabotage::FlappingWidth);
            }
            None => {}
        }
        deaths += scenario
            .events
            .iter()
            .filter(|e| matches!(e.fault, FaultKind::WorkerDeath { .. }))
            .count();
        growths += scenario
            .events
            .iter()
            .filter(|e| matches!(e.fault, FaultKind::WorkerAdd { .. }))
            .count();
        let outcome = run_scenario(&scenario)?;
        if outcome.violations.is_empty() {
            println!(
                "seed {seed}: {} workers, {} fault events, {} tuples delivered — clean",
                scenario.workers,
                scenario.events.len(),
                outcome.result.delivered,
            );
            continue;
        }
        failures += 1;
        println!(
            "seed {seed}: {} workers, {} fault events — {} violation(s)",
            scenario.workers,
            scenario.events.len(),
            outcome.violations.len(),
        );
        for v in &outcome.violations {
            println!("  {v}");
        }
        if first_failure.is_none() {
            first_failure = Some(if a.shrink {
                shrink(&scenario, DEFAULT_SHRINK_RUNS)?
                    .expect("a failing scenario survives shrinking")
            } else {
                FuzzFailure {
                    original_events: scenario.events.len(),
                    violations: outcome.violations,
                    scenario,
                    shrink_runs: 0,
                }
            });
        }
    }
    if let Some(f) = &first_failure {
        if a.shrink {
            println!(
                "\nshrunk first failure from {} to {} event(s) in {} re-runs; \
                 minimal reproduction:\n",
                f.original_events,
                f.scenario.events.len(),
                f.shrink_runs,
            );
            println!(
                "{}",
                f.scenario
                    .to_regression_test(&format!("seed_{}", f.scenario.seed))
            );
        }
        return Err(format!(
            "{failures} of {} chaos seed(s) violated an invariant",
            a.rounds
        )
        .into());
    }
    if a.require_death && deaths == 0 {
        return Err(format!(
            "--require-death: none of the {} seed(s) generated a worker death, \
             so the membership (detach/re-attach) path was never exercised; \
             pick a different --seed",
            a.rounds
        )
        .into());
    }
    if a.require_growth && growths == 0 {
        return Err(format!(
            "--require-growth: none of the {} seed(s) generated a WorkerAdd, \
             so the elastic growth path was never exercised; \
             pick a different --seed",
            a.rounds
        )
        .into());
    }
    println!("{} chaos seed(s) clean", a.rounds);
    Ok(())
}

fn run_tournament(a: TournamentArgs) -> Result<(), Box<dyn Error>> {
    let strategies: Vec<StrategyKind> = match &a.strategies {
        None => StrategyKind::roster(),
        Some(ids) => ids
            .iter()
            .map(|id| StrategyKind::parse(id).ok_or_else(|| format!("unknown strategy '{id}'")))
            .collect::<Result<_, _>>()?,
    };
    let scenarios: Vec<TournamentScenario> = match &a.scenarios {
        None => tournament::library(a.seed),
        Some(names) => names
            .iter()
            .map(|name| {
                tournament::scenarios::find(name, a.seed)
                    .ok_or_else(|| format!("unknown scenario '{name}'"))
            })
            .collect::<Result<_, _>>()?,
    };
    let threads = a
        .threads
        .unwrap_or_else(streambal_sim::driver::default_threads);
    println!(
        "running {} strategies x {} scenarios on {threads} thread(s), seed {}",
        strategies.len(),
        scenarios.len(),
        a.seed
    );
    let outcomes = tournament::run_matrix(&scenarios, &strategies, a.seed, threads);

    let table = tournament::csv_table(&outcomes, a.seed);
    println!("{table}");
    if let Some(path) = &a.csv {
        table.write_csv(path)?;
        println!("tournament CSV written to {path}");
    }
    if let Some(path) = &a.md {
        let scenario_names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        let strategy_names: Vec<&str> = strategies.iter().map(|k| k.name()).collect();
        let md = tournament::markdown_report(&outcomes, &scenario_names, &strategy_names, a.seed);
        streambal_telemetry::export::write_file(path, &md)?;
        println!("tournament report written to {path}");
    }

    // Ordering-critical oracle failures (simplex, in-order delivery,
    // bounded reorder queues) fail the command: no strategy may buy its
    // numbers by breaking the region's correctness contract.
    let mut dirty_cells = 0usize;
    for cell in &outcomes {
        let ordering = cell.ordering_violations();
        if ordering.is_empty() {
            continue;
        }
        dirty_cells += 1;
        println!(
            "ordering violation: {} x {} ({} violation(s))",
            cell.scenario,
            cell.strategy,
            ordering.len()
        );
        for v in ordering {
            println!("  {v}");
        }
    }
    if dirty_cells > 0 {
        return Err(
            format!("{dirty_cells} tournament cell(s) violated an ordering invariant").into(),
        );
    }
    Ok(())
}

fn run_autoscale(a: AutoscaleArgs) -> Result<(), Box<dyn Error>> {
    let seed = a.seed.unwrap_or(autoscale::RAMP_SEED);
    println!(
        "replaying the diurnal ramp (seed {seed:#x}) under {} width policies",
        AutoscalePolicyKind::roster().len()
    );
    let outcomes = autoscale::run_comparison(seed);
    let table = autoscale::comparison_table(&outcomes);
    println!("{table}");
    if let Some(path) = &a.csv {
        table.write_csv(path)?;
        println!("autoscale CSV written to {path}");
    }
    if let Some(path) = &a.md {
        let md = autoscale::markdown_report(&outcomes, seed);
        streambal_telemetry::export::write_file(path, &md)?;
        println!("autoscale report written to {path}");
    }

    // The command asserts the headline so CI can pin it: the production
    // autoscaler must ride the full ramp and come back, with a clean
    // oracle record.
    let auto = outcomes
        .iter()
        .find(|o| o.policy == AutoscalePolicyKind::Autoscaler.name())
        .expect("the roster always includes the autoscaler");
    if auto.peak_width != autoscale::PEAK_WIDTH
        || auto.final_width != autoscale::BASE_WIDTH
        || !auto.violations.is_empty()
    {
        return Err(format!(
            "autoscaler failed to ride the ramp {}->{}->{} cleanly: \
             peak {}, final {}, {} violation(s) [{}]",
            autoscale::BASE_WIDTH,
            autoscale::PEAK_WIDTH,
            autoscale::BASE_WIDTH,
            auto.peak_width,
            auto.final_width,
            auto.violations.len(),
            auto.violated_oracles(),
        )
        .into());
    }
    println!(
        "autoscaler rode the ramp {}->{}->{} with a clean oracle record \
         ({} resizes, {} reversal(s))",
        autoscale::BASE_WIDTH,
        autoscale::PEAK_WIDTH,
        autoscale::BASE_WIDTH,
        auto.resizes,
        auto.reversals,
    );
    Ok(())
}

fn placement(a: PlacementArgs) -> Result<(), Box<dyn Error>> {
    let strategy = match a.strategy.as_str() {
        "round-robin" => Strategy::RoundRobin,
        "capacity-aware" => Strategy::CapacityAware,
        "local-search" => Strategy::LocalSearch,
        other => return Err(format!("unknown strategy '{other}'").into()),
    };
    let spec = ClusterSpec::new(
        a.hosts.iter().copied().map(to_host).collect(),
        a.regions
            .iter()
            .map(|&(pes, cost)| RegionSpec::new(pes, cost, a.mult_ns))
            .collect(),
    )?;
    let p = place(&spec, strategy);
    println!("strategy {strategy:?}");
    println!("PEs per host: {:?}", spec.pes_per_host(&p));
    for (r, hosts) in p.assignment().iter().enumerate() {
        println!(
            "region {r}: predicted {:>10.0} tuples/s  hosts {hosts:?}",
            spec.region_throughput(&p, r)
        );
    }
    println!(
        "min region {:.0} tuples/s, total {:.0} tuples/s",
        spec.min_region_throughput(&p),
        spec.total_throughput(&p)
    );
    if a.verify {
        if a.coupled {
            println!("\ncoupled multi-region simulation (45 sim-seconds, LB-adaptive):");
            let runs = co_simulate_coupled(&spec, &p, 45)?;
            for (r, run) in runs.iter().enumerate() {
                println!(
                    "region {r}: simulated {:>10.0} tuples/s",
                    run.final_throughput(8)
                );
            }
        } else {
            println!("\nsimulating each region (45 sim-seconds, LB-adaptive):");
            for r in 0..spec.regions().len() {
                let run = simulate_region(&spec, &p, r, 45)?;
                println!(
                    "region {r}: simulated {:>10.0} tuples/s",
                    run.final_throughput(8)
                );
            }
        }
    }
    Ok(())
}
