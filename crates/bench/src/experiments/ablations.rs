//! Ablations of the design choices DESIGN.md calls out: the exploration
//! decay factor, the frontier exploration step, and clustering
//! (on/off + merge threshold). These go beyond the paper's own figures;
//! LB-static vs LB-adaptive (the paper's built-in decay ablation) is
//! covered by Figures 9/10/13.

use std::path::Path;

use streambal_core::controller::{BalancerConfig, BalancerMode, ClusteringConfig};
use streambal_sim::config::{RegionConfig, StopCondition};
use streambal_sim::load::LoadSchedule;
use streambal_sim::policy::BalancerPolicy;
use streambal_sim::SECOND_NS;
use streambal_workloads::report::{fmt3, fmt_tput, Table};

use crate::harness::quick_requested;

fn scale(seconds: u64) -> u64 {
    if quick_requested() {
        (seconds / 8).max(10)
    } else {
        seconds
    }
}

/// The Figure 8 (top) workload: 3 PEs, one 100x-loaded until an eighth of
/// the run.
fn dynamic_region(seconds: u64) -> RegionConfig {
    RegionConfig::builder(3)
        .base_cost(1_000)
        .mult_ns(500.0)
        .worker_load_schedule(0, LoadSchedule::step(100.0, seconds / 8 * SECOND_NS, 1.0))
        .stop(StopCondition::Duration(seconds * SECOND_NS))
        .build()
        .expect("static ablation region is valid")
}

/// Seconds until the throttled worker regains at least `target` weight
/// units after the load removal, if it ever does.
fn recovery_seconds(
    samples: &[streambal_sim::RoundSnapshot],
    removal_s: u64,
    target: u32,
) -> Option<u64> {
    samples
        .iter()
        .find(|s| s.t_ns / SECOND_NS >= removal_s && s.weights[0] >= target)
        .map(|s| s.t_ns / SECOND_NS - removal_s)
}

/// Sweeps the exploration decay factor (the paper fixes 10%, i.e. 0.9).
pub fn decay(out: &Path) -> Vec<Table> {
    let seconds = scale(400);
    let mut table = Table::new(
        "ablation: decay factor (3 PEs, 100x load removed at an eighth)",
        vec![
            "decay".into(),
            "recovery_s".into(),
            "final_tput".into(),
            "final_w0".into(),
        ],
    );
    for decay in [0.5, 0.8, 0.9, 0.95, 0.99] {
        let cfg = dynamic_region(seconds);
        let mode = BalancerMode::Adaptive { decay };
        let mut policy = BalancerPolicy::new(
            BalancerConfig::builder(3)
                .mode(mode)
                .build()
                .expect("valid"),
        );
        let r = streambal_sim::run(&cfg, &mut policy).expect("ablation region runs");
        let rec = recovery_seconds(&r.samples, seconds / 8, 200);
        table.push_row(vec![
            fmt3(decay),
            rec.map(|s| s.to_string()).unwrap_or_else(|| "never".into()),
            fmt_tput(r.final_throughput(10)),
            r.samples
                .last()
                .map(|s| s.weights[0])
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    // Static mode as the no-decay endpoint.
    {
        let cfg = dynamic_region(seconds);
        let mut policy = BalancerPolicy::new(
            BalancerConfig::builder(3)
                .mode(BalancerMode::Static)
                .build()
                .expect("valid"),
        );
        let r = streambal_sim::run(&cfg, &mut policy).expect("ablation region runs");
        table.push_row(vec![
            "static".into(),
            recovery_seconds(&r.samples, seconds / 8, 200)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "never".into()),
            fmt_tput(r.final_throughput(10)),
            r.samples
                .last()
                .map(|s| s.weights[0])
                .unwrap_or(0)
                .to_string(),
        ]);
    }
    table
        .write_csv(out.join("ablation_decay.csv"))
        .expect("results directory is writable");
    println!("{table}");
    vec![table]
}

/// Sweeps the frontier exploration step (DESIGN.md §4.5 item 1).
pub fn step(out: &Path) -> Vec<Table> {
    let seconds = scale(300);
    let mut table = Table::new(
        "ablation: exploration step (3 PEs, 100x load removed at an eighth)",
        vec![
            "step_units".into(),
            "recovery_s".into(),
            "final_tput".into(),
            "mean_tput".into(),
        ],
    );
    for step in [1u32, 5, 10, 25, 100, 1000] {
        let cfg = dynamic_region(seconds);
        let mut policy = BalancerPolicy::new(
            BalancerConfig::builder(3)
                .exploration_step(step)
                .build()
                .expect("valid"),
        );
        let r = streambal_sim::run(&cfg, &mut policy).expect("ablation region runs");
        table.push_row(vec![
            step.to_string(),
            recovery_seconds(&r.samples, seconds / 8, 200)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "never".into()),
            fmt_tput(r.final_throughput(10)),
            fmt_tput(r.mean_throughput()),
        ]);
    }
    table
        .write_csv(out.join("ablation_step.csv"))
        .expect("results directory is writable");
    println!("{table}");
    vec![table]
}

/// Clustering on/off and merge-threshold sweep at 32 and 64 channels.
pub fn clustering(out: &Path) -> Vec<Table> {
    let seconds = scale(150);
    let mut table = Table::new(
        "ablation: clustering (half the channels 20x loaded)",
        vec![
            "n".into(),
            "variant".into(),
            "final_tput".into(),
            "clusters".into(),
        ],
    );
    for n in [32usize, 64] {
        let region = {
            let mut b = RegionConfig::builder(n);
            b.hosts(vec![streambal_sim::host::Host::new(n as u32, 1.0)])
                .base_cost(20_000)
                .mult_ns(50.0)
                .stop(StopCondition::Duration(seconds * SECOND_NS));
            for j in 0..n / 2 {
                b.worker_load(j, 20.0);
            }
            b.build().expect("static clustering region is valid")
        };
        let mut variants: Vec<(String, BalancerConfig)> = vec![(
            "off".into(),
            BalancerConfig::builder(n).build().expect("valid"),
        )];
        for threshold in [0.35, 0.7, 1.4] {
            let mut b = BalancerConfig::builder(n);
            b.clustering(ClusteringConfig {
                min_connections: 32,
                distance_threshold: threshold,
            });
            variants.push((format!("thr={threshold}"), b.build().expect("valid")));
        }
        for (name, cfg) in variants {
            let mut policy = BalancerPolicy::new(cfg);
            let r = streambal_sim::run(&region, &mut policy).expect("ablation region runs");
            let clusters = r
                .samples
                .last()
                .and_then(|s| s.clusters.as_ref())
                .map(|c| (c.iter().max().unwrap() + 1).to_string())
                .unwrap_or_else(|| "-".into());
            table.push_row(vec![
                n.to_string(),
                name,
                fmt_tput(r.final_throughput(10)),
                clusters,
            ]);
        }
    }
    table
        .write_csv(out.join("ablation_clustering.csv"))
        .expect("results directory is writable");
    println!("{table}");
    vec![table]
}
