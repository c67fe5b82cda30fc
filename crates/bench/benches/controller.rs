//! The per-round cost of the whole control loop — the paper's claim that
//! "calculating the blocking rate is cheap, which means that we are not
//! harming performance while trying to improve it", measured end to end
//! through the shared control plane: ingest one interval's rates, observe,
//! decay, (optionally cluster,) rebuild functions, solve.

use std::hint::black_box;

use streambal_bench::Micro;
use streambal_control::ControlPlane;
use streambal_core::controller::{BalancerConfig, ClusteringConfig};

/// Wall-clock budget for one steady-state round at N=1024 (median). The
/// zero-allocation round path must keep large regions comfortably inside
/// this; override with `STREAMBAL_ROUND_BUDGET_MS` on slow machines.
fn round_budget_ms() -> u64 {
    std::env::var("STREAMBAL_ROUND_BUDGET_MS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(100)
}

/// A plane that has run `max(100, n)` rounds of rotating observations:
/// slot `7·round mod n` blocks each round, and since 7 is coprime to every
/// width measured here, every slot has blocked at least once before the
/// measured window opens. None is idle, so the measured rounds run the same
/// regime however many iterations the harness takes. Returns the plane, a
/// rate buffer and the first round number after the warm-up.
fn warmed_plane(n: usize, clustered: bool) -> (ControlPlane, Vec<f64>, u64) {
    let mut b = BalancerConfig::builder(n);
    if n > 1024 / 2 {
        // The solver resolution must be >= the connection count.
        b.resolution(2 * n as u32);
    }
    if clustered {
        b.clustering(ClusteringConfig::default());
    }
    let mut plane = ControlPlane::builder(b.build().unwrap()).build();
    let mut rates = vec![0.0; n];
    let warm = 100.max(n as u64);
    for round in 0..warm {
        let conn = (round as usize * 7) % n;
        rates.fill(0.0);
        rates[conn] = 0.1 + (round % 9) as f64 * 0.1;
        plane.round(round, &rates);
    }
    (plane, rates, warm)
}

fn bench_round(m: &Micro, name: &str, n: usize, clustered: bool) -> streambal_bench::BenchStats {
    let (mut plane, mut rates, mut round) = warmed_plane(n, clustered);
    m.run(name, || {
        round += 1;
        let conn = (round as usize * 13) % n;
        rates.fill(0.0);
        rates[conn] = 0.42;
        black_box(plane.round(round, &rates).units()[0])
    })
}

/// One round at a *post-growth* width: the plane is warmed at `start`
/// connections, grown by `added` (newcomers enter exploration-bounded,
/// exactly as a live `WorkerAdd` would), settled for a few rounds, then
/// measured at the wider width. Growth must not leave the round path any
/// slower than a plane born at that width.
fn bench_grown_round(
    m: &Micro,
    name: &str,
    start: usize,
    added: usize,
    clustered: bool,
) -> streambal_bench::BenchStats {
    let n = start + added;
    let (mut plane, _, warm) = warmed_plane(start, clustered);
    plane.grow_width(added);
    let mut rates = vec![0.0; n];
    for round in warm..warm + 20 {
        let conn = (round as usize * 7) % n;
        rates.fill(0.0);
        rates[conn] = 0.3;
        plane.round(round, &rates);
    }
    let mut round = warm + 20;
    m.run(name, || {
        round += 1;
        let conn = (round as usize * 13) % n;
        rates.fill(0.0);
        rates[conn] = 0.42;
        black_box(plane.round(round, &rates).units()[0])
    })
}

/// A clustered plane at `n` connections in its adaptive steady state: a
/// small loaded set with fixed per-tier rates, everyone else idle. Once
/// the knee values converge every round reuses the partition — the regime
/// the 1 s control cadence budget is first of all about; the transitions
/// out of it (a detach, an attach, a grow) are measured from here too.
fn steady_clustered_plane(n: usize, loaded: usize) -> (ControlPlane, Vec<f64>) {
    let mut b = BalancerConfig::builder(n);
    if n > 1024 / 2 {
        b.resolution(2 * n as u32);
    }
    b.clustering(ClusteringConfig::default());
    let mut plane = ControlPlane::builder(b.build().unwrap()).build();
    let mut rates = vec![0.0; n];
    for (j, r) in rates.iter_mut().enumerate().take(loaded) {
        *r = match j % 3 {
            0 => 0.3,
            1 => 0.6,
            _ => 0.9,
        };
    }
    // Settle until the loaded set's EWMAs, and with them the knees, stop
    // moving.
    for round in 0..300u64 {
        plane.round(round, &rates);
    }
    (plane, rates)
}

fn main() {
    let m = Micro::new().measure_ms(500);
    println!("== controller_round ==");
    for &n in &[4usize, 16, 64] {
        bench_round(&m, &format!("controller_round/plain/{n}"), n, false);
    }
    // The rotating workload moves one knee per round, so every measured
    // round reclusters (over the few distinct knee vectors).
    for &n in &[32usize, 64, 128, 1024, 4096] {
        bench_round(&m, &format!("controller_round/clustered/{n}"), n, true);
    }
    // Post-growth widths: 4->8 and 32->64 plain, plus 30->34 clustered —
    // the last one crosses the default 32-connection clustering knee, so
    // the measured round includes the clustered solve the growth enabled.
    bench_grown_round(&m, "controller_round/grown/4to8", 4, 4, false);
    bench_grown_round(&m, "controller_round/grown/32to64", 32, 32, false);
    bench_grown_round(&m, "controller_round/grown_clustered/30to34", 30, 4, true);

    // The steady round of the benchmark's `control-churn` workload (width
    // 2048, resolution 4096, 32 loaded slots, every other slot idle), with
    // no hot spot moving and no membership change.
    let (mut plane, rates) = steady_clustered_plane(2048, 32);
    let mut round = 300u64;
    m.run("controller_round/clustered_steady/2048", || {
        round += 1;
        black_box(plane.round(round, &rates).units()[0])
    });

    // Large-region budget check: one plain round at N=1024 (resolution
    // 2048) must stay under the wall-clock budget at the median.
    let n = 1024usize;
    let stats = bench_round(&m, &format!("controller_round/plain/{n}"), n, false);
    let budget_ms = round_budget_ms();
    assert_within_budget(&stats, budget_ms);

    // Scale check: a clustered steady-state round at N=16384 (resolution
    // 32768) must also fit well inside the paper's 1 s control cadence —
    // the round carries the full fit-based knee refresh over every live
    // connection plus the pooled solve, but no recluster while the knees
    // hold still.
    let n = 16384usize;
    let (mut plane, mut rates) = steady_clustered_plane(n, 32);
    let mut round = 300u64;
    let stats = m.run(&format!("controller_round/clustered/{n}"), || {
        round += 1;
        black_box(plane.round(round, &rates).units()[0])
    });
    assert_within_budget(&stats, budget_ms);

    // So must the rounds that are *not* steady: a membership change
    // renormalizes the weights on the spot and makes the next round
    // recluster every live connection. Alternately detach an idle slot and
    // attach it again, each followed by its round.
    let stats = bench_membership_change(&m, &mut plane, &rates, &mut round);
    assert_within_budget(&stats, budget_ms);
    let (mut small, small_rates) = steady_clustered_plane(2048, 32);
    bench_membership_change(&m, &mut small, &small_rates, &mut 300);

    // And growth, which re-lays-out the per-round scratch for the new
    // width on top of that. The resolution bounds the width at 2n — 2048
    // grows away, far more than the time budget allows at this scale — so
    // the shrink back is only a guard against running into it.
    let stats = m.run(&format!("controller_round/grow/{n}"), || {
        if plane.balancer().config().connections() + 8 > 2 * n {
            let extra = plane.balancer().config().connections() - n;
            plane.shrink_width(extra);
            rates.truncate(n);
        }
        plane.grow_width(8);
        rates.extend([0.0; 8]);
        round += 1;
        black_box(plane.round(round, &rates).units()[0])
    });
    assert_within_budget(&stats, budget_ms);
}

/// Times `detach + round` and `attach + round` alternately on slot
/// `n - 1` (idle: only the first few slots are loaded).
fn bench_membership_change(
    m: &Micro,
    plane: &mut ControlPlane,
    rates: &[f64],
    round: &mut u64,
) -> streambal_bench::BenchStats {
    let n = rates.len();
    let victim = n - 1;
    m.run(&format!("controller_round/membership_change/{n}"), || {
        if plane.balancer().is_attached(victim) {
            plane.detach_connection(victim);
        } else {
            plane.attach_connection(victim);
        }
        *round += 1;
        black_box(plane.round(*round, rates).units()[0])
    })
}

fn assert_within_budget(stats: &streambal_bench::BenchStats, budget_ms: u64) {
    assert!(
        stats.median_ns < budget_ms * 1_000_000,
        "{} blew its budget: median {} ns >= {budget_ms} ms",
        stats.name,
        stats.median_ns
    );
    println!("  {} budget ok: median within {budget_ms} ms", stats.name);
}
