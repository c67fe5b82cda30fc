//! In-depth single-run experiments: Figures 2, 5, 7, 8, 11 (top) and 12.

use std::path::Path;

use streambal_core::controller::BalancerConfig;
use streambal_sim::metrics::RunResult;
use streambal_sim::policy::{BalancerPolicy, FixedPolicy};
use streambal_sim::SECOND_NS;
use streambal_workloads::report::{fmt3, Table};
use streambal_workloads::scenarios::{self, Scenario};

use crate::harness::{quick_requested, run_kind, scale_scenario};
use streambal_workloads::policies::PolicyKind;

fn maybe_quick(mut s: Scenario) -> Scenario {
    if quick_requested() {
        scale_scenario(&mut s, 8);
    }
    s
}

/// Writes a per-connection `(t, weight, rate)` series CSV for every
/// connection of a run.
fn write_series(result: &RunResult, out: &Path, stem: &str) {
    let n = result.samples.first().map_or(0, |s| s.weights.len());
    let mut headers = vec!["t_s".to_owned()];
    for j in 0..n {
        headers.push(format!("weight_{j}"));
        headers.push(format!("rate_{j}"));
    }
    let mut table = Table::new(stem, headers);
    for s in &result.samples {
        let mut row = vec![format!("{}", s.t_ns / SECOND_NS)];
        for j in 0..n {
            row.push(s.weights[j].to_string());
            row.push(fmt3(s.rates[j]));
        }
        table.push_row(row);
    }
    table
        .write_csv(out.join(format!("{stem}.csv")))
        .expect("results directory is writable");
}

/// Prints a downsampled view of the weight/rate series (one line per
/// `every` seconds).
fn print_series(result: &RunResult, title: &str, every: usize) -> Table {
    let n = result.samples.first().map_or(0, |s| s.weights.len());
    let mut headers = vec!["t_s".to_owned()];
    for j in 0..n {
        headers.push(format!("w{j}"));
    }
    for j in 0..n {
        headers.push(format!("rate{j}"));
    }
    let mut table = Table::new(title, headers);
    for s in result.samples.iter().step_by(every.max(1)) {
        let mut row = vec![format!("{}", s.t_ns / SECOND_NS)];
        for j in 0..n {
            row.push(s.weights[j].to_string());
        }
        for j in 0..n {
            row.push(fmt3(s.rates[j]));
        }
        table.push_row(row);
    }
    println!("{table}");
    table
}

/// Figure 2: idealized cumulative blocking time and its first-difference
/// rate for one connection, including the transport layer's periodic
/// counter reset (sawtooth).
pub fn fig02(out: &Path) -> Vec<Table> {
    let (scenario, weights) = scenarios::fig05_fixed_split(800);
    let scenario = maybe_quick(scenario);
    let mut policy = FixedPolicy::new(weights);
    let result =
        streambal_sim::run(&scenario.config, &mut policy).expect("fig02 scenario is valid");

    let mut table = Table::new(
        "fig02: cumulative blocking time (reset every 30 s) and blocking rate",
        vec!["t_s".into(), "cumulative_ms".into(), "rate".into()],
    );
    let mut cumulative_ms = 0.0;
    for (i, s) in result.samples.iter().enumerate() {
        if i % 30 == 0 {
            cumulative_ms = 0.0; // the transport layer's periodic reset
        }
        let interval_ms = scenario.config.sample_interval_ns as f64 / 1e6;
        cumulative_ms += s.rates[0] * interval_ms;
        table.push_row(vec![
            format!("{}", s.t_ns / SECOND_NS),
            format!("{cumulative_ms:.1}"),
            fmt3(s.rates[0]),
        ]);
    }
    table
        .write_csv(out.join("fig02.csv"))
        .expect("results directory is writable");
    // Print a compact view.
    let mut compact = Table::new(
        "fig02 (every 5 s)",
        vec!["t_s".into(), "cumulative_ms".into(), "rate".into()],
    );
    for row in table_rows_every(&table, 5) {
        compact.push_row(row);
    }
    println!("{compact}");
    vec![compact]
}

fn table_rows_every(_table: &Table, _every: usize) -> Vec<Vec<String>> {
    // Table intentionally hides its rows; rebuild from CSV text.
    let csv = _table.to_csv();
    csv.lines()
        .skip(1)
        .step_by(_every)
        .map(|l| l.split(',').map(str::to_owned).collect())
        .collect()
}

/// Figure 5: blocking rates over time for fixed 80/20, 70/30, 60/40 and
/// 50/50 splits on two homogeneous PEs — stable, monotone in the share, and
/// swapping draft leaders at 50/50.
pub fn fig05(out: &Path) -> Vec<Table> {
    let mut summary = Table::new(
        "fig05: blocking rate per fixed split and draft-leader swaps",
        vec![
            "split".into(),
            "rate_conn0".into(),
            "rate_conn1".into(),
            "leader_swaps".into(),
        ],
    );
    for split in [800, 700, 600, 500] {
        let (scenario, weights) = scenarios::fig05_fixed_split(split);
        let scenario = maybe_quick(scenario);
        let mut policy = FixedPolicy::new(weights);
        let result =
            streambal_sim::run(&scenario.config, &mut policy).expect("fig05 scenario is valid");
        write_series(&result, out, &format!("fig05_{split}"));
        let tail = result.samples.len() / 2;
        let mean = |j: usize| -> f64 {
            let w = &result.samples[tail..];
            w.iter().map(|s| s.rates[j]).sum::<f64>() / w.len() as f64
        };
        // The paper's Figure 5d phenomenon: at 50/50 the drafting roles
        // swap at arbitrary points; skewed splits keep a stable leader.
        let swaps = result
            .samples
            .windows(2)
            .filter(|p| {
                let lead = |s: &streambal_sim::RoundSnapshot| s.rates[0] >= s.rates[1];
                lead(&p[0]) != lead(&p[1])
            })
            .count();
        summary.push_row(vec![
            format!("{}/{}", split / 10, 100 - split / 10),
            fmt3(mean(0)),
            fmt3(mean(1)),
            swaps.to_string(),
        ]);
    }
    println!("{summary}");
    vec![summary]
}

/// Figure 7: sample predictive functions — after running a 3-PE region with
/// three capacity classes, dump each connection's learned `F_j`.
pub fn fig07(out: &Path) -> Vec<Table> {
    let mut scenario = {
        let mut b = streambal_sim::config::RegionConfig::builder(3);
        b.base_cost(10_000)
            .mult_ns(50.0)
            .worker_load(0, 100.0)
            .worker_load(1, 5.0)
            .stop(streambal_sim::config::StopCondition::Duration(
                120 * SECOND_NS,
            ));
        Scenario {
            name: "fig07".into(),
            config: b.build().expect("fig07 configuration is valid"),
            load_change_ns: None,
            clustered: false,
        }
    };
    if quick_requested() {
        scale_scenario(&mut scenario, 8);
    }
    let mut policy = BalancerPolicy::new(
        BalancerConfig::builder(3)
            .build()
            .expect("3-connection balancer config is valid"),
    );
    let _ = streambal_sim::run(&scenario.config, &mut policy).expect("fig07 scenario is valid");

    let mut table = Table::new(
        "fig07: learned predictive functions F_j (sampled every 50 units)",
        vec![
            "weight".into(),
            "F_severe(100x)".into(),
            "F_moderate(5x)".into(),
            "F_light(1x)".into(),
        ],
    );
    // Clone the balancer to get mutable access to predictions.
    let mut lb = policy.balancer().clone();
    for w in (0..=1000u32).step_by(50) {
        let row: Vec<String> = std::iter::once(w.to_string())
            .chain((0..3).map(|j| fmt3(lb.function_mut(j).value(w))))
            .collect();
        table.push_row(row);
    }
    table
        .write_csv(out.join("fig07.csv"))
        .expect("results directory is writable");
    println!("{table}");
    vec![table]
}

/// Figure 8 top: 3 PEs, 1,000-multiply tuples, 100× load removed at 75 s —
/// per-connection allocation weights and blocking rates over time.
pub fn fig08_top(out: &Path) -> Vec<Table> {
    let scenario = maybe_quick(scenarios::fig08_top());
    let result = run_kind(&scenario, &PolicyKind::LbAdaptive);
    write_series(&result, out, "fig08_top");
    vec![print_series(&result, "fig08 top (every 20 s)", 20)]
}

/// Figure 8 bottom: 3 equal PEs, 10,000-multiply tuples — drafting, then
/// convergence to an even split.
pub fn fig08_bottom(out: &Path) -> Vec<Table> {
    let scenario = maybe_quick(scenarios::fig08_bottom());
    let result = run_kind(&scenario, &PolicyKind::LbAdaptive);
    write_series(&result, out, "fig08_bottom");
    vec![print_series(&result, "fig08 bottom (every 20 s)", 20)]
}

/// Figure 11 top: one PE on a fast host, one on a slow host — the balancer
/// discovers the ≈65/35 capacity split.
pub fn fig11_top(out: &Path) -> Vec<Table> {
    let scenario = maybe_quick(scenarios::fig11_indepth());
    let result = run_kind(&scenario, &PolicyKind::LbAdaptive);
    write_series(&result, out, "fig11_top");
    let table = print_series(&result, "fig11 top (every 10 s)", 10);
    let last = result.samples.last().expect("in-depth runs record samples");
    println!(
        "final split: {:.0}% fast / {:.0}% slow (paper: ~65/35)\n",
        last.weights[0] as f64 / 10.0,
        last.weights[1] as f64 / 10.0
    );
    vec![table]
}

/// Figure 12: 64 PEs in three load classes under the clustered balancer —
/// per-channel weights over time plus the clustering heatmap.
pub fn fig12(out: &Path) -> Vec<Table> {
    let scenario = maybe_quick(scenarios::fig12());
    let result = run_kind(&scenario, &PolicyKind::LbAdaptiveClustered);

    // Weights CSV: t + 64 columns.
    let n = scenario.config.num_workers();
    let mut headers = vec!["t_s".to_owned()];
    headers.extend((0..n).map(|j| format!("w{j}")));
    let mut weights_csv = Table::new("fig12 weights", headers);
    for s in &result.samples {
        let mut row = vec![format!("{}", s.t_ns / SECOND_NS)];
        row.extend(s.weights.iter().map(u32::to_string));
        weights_csv.push_row(row);
    }
    weights_csv
        .write_csv(out.join("fig12_weights.csv"))
        .expect("results directory is writable");

    // Cluster heatmap CSV + compact print.
    let mut headers = vec!["t_s".to_owned()];
    headers.extend((0..n).map(|j| format!("c{j}")));
    let mut cluster_csv = Table::new("fig12 clusters", headers);
    println!("== fig12: clustering heatmap (channel 0..63, one row per 20 s) ==");
    for (i, s) in result.samples.iter().enumerate() {
        if let Some(clusters) = &s.clusters {
            let mut row = vec![format!("{}", s.t_ns / SECOND_NS)];
            row.extend(clusters.iter().map(usize::to_string));
            cluster_csv.push_row(row);
            if i % 20 == 0 {
                let line: String = clusters
                    .iter()
                    .map(|&c| char::from_digit((c % 36) as u32, 36).unwrap_or('?'))
                    .collect();
                println!("t={:>4}s {line}", s.t_ns / SECOND_NS);
            }
        }
    }
    cluster_csv
        .write_csv(out.join("fig12_clusters.csv"))
        .expect("results directory is writable");

    // Cluster purity: the paper calls it "imperative that clusters emerge
    // which have only channels from the [same] group". Report, per sample,
    // the fraction of channels whose cluster is class-pure.
    let class_of = |j: usize| usize::from(j >= 20) + usize::from(j >= 40);
    let purity = |assignment: &[usize]| -> f64 {
        let nclusters = assignment.iter().max().map(|m| m + 1).unwrap_or(0);
        let mut pure_channels = 0usize;
        for c in 0..nclusters {
            let members: Vec<usize> = (0..n).filter(|&j| assignment[j] == c).collect();
            if members.is_empty() {
                continue;
            }
            let first = class_of(members[0]);
            if members.iter().all(|&m| class_of(m) == first) {
                pure_channels += members.len();
            }
        }
        pure_channels as f64 / n as f64
    };
    if let Some(assignment) = result
        .samples
        .iter()
        .rev()
        .find_map(|s| s.clusters.as_ref())
    {
        println!(
            "final cluster purity: {:.1}% of channels sit in class-pure clusters
",
            100.0 * purity(assignment)
        );
    }

    // Summary: mean final weight per load class.
    let last = result.samples.last().expect("fig12 records samples");
    let class_mean = |range: std::ops::Range<usize>| -> f64 {
        let w: u32 = range.clone().map(|j| last.weights[j]).sum();
        w as f64 / range.len() as f64
    };
    let mut summary = Table::new(
        "fig12: final mean allocation weight per load class",
        vec!["class".into(), "PEs".into(), "mean_weight_units".into()],
    );
    summary.push_row(vec!["100x".into(), "20".into(), fmt3(class_mean(0..20))]);
    summary.push_row(vec!["5x".into(), "20".into(), fmt3(class_mean(20..40))]);
    summary.push_row(vec!["1x".into(), "24".into(), fmt3(class_mean(40..64))]);
    println!("{summary}");
    vec![summary]
}
