//! Fox's greedy checked against an exact optimality certificate, at
//! realistic scale and on functions actually learned during simulation
//! runs.
//!
//! For a multiplicity-1 problem, let `t` be a candidate's objective and
//! `c_j` the largest `w` in `[l_j, u_j]` with `F_j(w) < t`. Every `F_j` is
//! non-decreasing, so an allocation with objective below `t` must keep each
//! `w_j <= c_j`, and none exists when some `F_j(l_j) >= t` or when
//! `Σ_j c_j < R`. Conversely, if every `F_j(l_j) < t` and `Σ_j c_j >= R`,
//! some allocation under the `c_j` beats `t`. So the candidate is optimal
//! exactly when the certificate holds, whatever the problem's size: no
//! second solver is needed to check it.

use streambal::core::controller::BalancerConfig;
use streambal::core::rng::SplitMix64;
use streambal::core::solver::{fox, Allocation, Problem};
use streambal::sim::config::{RegionConfig, StopCondition};
use streambal::sim::policy::BalancerPolicy;
use streambal::sim::SECOND_NS;

/// `max_j F_j(w_j)`, folded the way the solver folds it.
fn objective(problem: &Problem<'_>, weights: &[u32]) -> f64 {
    weights
        .iter()
        .enumerate()
        .map(|(j, &w)| problem.function(j)[w as usize])
        .fold(0.0, f64::max)
}

/// Whether no allocation of the multiplicity-1 `problem` has an objective
/// below `t` (the certificate in the module doc). Taking `c_j` as the
/// largest such weight keeps the check sound even where a learned table
/// dips by an ulp; only its converse needs monotone functions.
fn no_allocation_beats(problem: &Problem<'_>, t: f64) -> bool {
    let mut room = 0u64;
    for j in 0..problem.len() {
        let f = problem.function(j);
        let (l, u) = (problem.lower()[j], problem.upper()[j]);
        match (l..=u).rev().find(|&w| f[w as usize] < t) {
            None => return true,
            Some(c) => room += u64::from(c),
        }
    }
    room < u64::from(problem.resolution())
}

/// Asserts that `a` is a feasible, correctly scored and optimal allocation
/// of the multiplicity-1 `problem`.
fn assert_optimal(problem: &Problem<'_>, a: &Allocation) {
    for (j, &w) in a.weights.iter().enumerate() {
        assert!(
            problem.lower()[j] <= w && w <= problem.upper()[j],
            "item {j}: weight {w} outside its bounds"
        );
    }
    assert_eq!(
        a.weights.iter().map(|&w| u64::from(w)).sum::<u64>(),
        u64::from(problem.resolution())
    );
    assert_eq!(a.assigned, u64::from(problem.resolution()));
    assert_eq!(
        a.objective.to_bits(),
        objective(problem, &a.weights).to_bits(),
        "reported objective {} is not max_j F_j(w_j)",
        a.objective
    );
    assert!(
        no_allocation_beats(problem, a.objective),
        "an allocation beats objective {} ({:?})",
        a.objective,
        a.weights
    );
}

/// A random non-decreasing function over `0..=r` starting at 0.
fn monotone_function(r: u32, rng: &mut SplitMix64) -> Vec<f64> {
    let mut f = Vec::with_capacity(r as usize + 1);
    let mut acc = 0.0;
    f.push(0.0);
    for _ in 0..r {
        acc += rng.frange(0.0, 0.25);
        f.push(acc);
    }
    f
}

/// Fox is optimal for functions learned in a real (simulated) run, not
/// just synthetic ones.
#[test]
fn solvers_agree_on_learned_functions() {
    let cfg = RegionConfig::builder(6)
        .base_cost(1_000)
        .mult_ns(500.0)
        .worker_load(0, 20.0)
        .worker_load(1, 5.0)
        .stop(StopCondition::Duration(60 * SECOND_NS))
        .build()
        .unwrap();
    let mut policy = BalancerPolicy::adaptive(BalancerConfig::builder(6).build().unwrap());
    let _ = streambal::sim::run(&cfg, &mut policy).unwrap();

    let mut lb = policy.balancer().clone();
    let predicted: Vec<Vec<f64>> = (0..6).map(|j| lb.function_mut(j).predicted()).collect();
    let slices: Vec<&[f64]> = predicted.iter().map(Vec::as_slice).collect();
    let problem = Problem::new(slices, 1000).unwrap();
    assert_optimal(&problem, &fox::solve(&problem).unwrap());
}

/// At the paper's full width (64 connections x 1001 weights), Fox is
/// still optimal.
#[test]
fn solvers_agree_at_full_width() {
    let n = 64;
    let r = 1000u32;
    let funcs: Vec<Vec<f64>> = (0..n)
        .map(|j| {
            let knee = 5 + (j * 13) % 400;
            (0..=r as usize)
                .map(|w| {
                    if w <= knee {
                        0.0
                    } else {
                        (w - knee) as f64 * (0.0005 + j as f64 * 1e-5)
                    }
                })
                .collect()
        })
        .collect();
    let slices: Vec<&[f64]> = funcs.iter().map(Vec::as_slice).collect();
    let problem = Problem::new(slices, r).unwrap();
    assert_optimal(&problem, &fox::solve(&problem).unwrap());
}

/// 64 random problems per seed, 2 to 7 functions over `0..=60`; the third
/// seed's problems also get random feasible bounds.
#[test]
fn fox_meets_the_certificate_on_random_problems() {
    const R: u32 = 60;
    for (seed, bounded) in [
        (0xC0DE_0008, false),
        (0xC0DE_0009, false),
        (0xC0DE_0012, true),
    ] {
        let mut rng = SplitMix64::new(seed);
        let mut cases = 0;
        while cases < 64 {
            let n = rng.range_usize(2, 7);
            let funcs: Vec<Vec<f64>> = (0..n).map(|_| monotone_function(R, &mut rng)).collect();
            let slices: Vec<&[f64]> = funcs.iter().map(Vec::as_slice).collect();
            let mut problem = Problem::new(slices, R).unwrap();
            if bounded {
                let lower: Vec<u32> = (0..n).map(|_| rng.range_u32(0, R / n as u32)).collect();
                let upper: Vec<u32> = lower.iter().map(|&l| rng.range_u32(l, R)).collect();
                problem = problem.with_bounds(lower, upper).unwrap();
                if problem.check_feasible().is_err() {
                    continue;
                }
            }
            cases += 1;
            assert_optimal(&problem, &fox::solve(&problem).unwrap());
        }
    }
}

/// The certificate is not vacuous: it rejects allocations that are not
/// optimal.
#[test]
fn the_certificate_rejects_a_suboptimal_allocation() {
    // A skewed instance: an even split parks half the load on the steep
    // function, while the optimum puts it all on the flat one.
    let steep: Vec<f64> = (0..=10).map(f64::from).collect();
    let flat = vec![0.0; 11];
    let skewed = Problem::new(vec![&steep, &flat], 10).unwrap();
    assert_eq!(objective(&skewed, &[5, 5]), 5.0);
    assert!(!no_allocation_beats(&skewed, 5.0));
    assert_optimal(&skewed, &fox::solve(&skewed).unwrap());

    // F_0(w) = w and F_1(w) = 2w share R = 9 best as (6, 3), objective 6:
    // one unit either way raises the objective, and the certificate sees it.
    let f0: Vec<f64> = (0..=9).map(f64::from).collect();
    let f1: Vec<f64> = (0..=9).map(|w| 2.0 * f64::from(w)).collect();
    let problem = Problem::new(vec![&f0, &f1], 9).unwrap();
    let best = fox::solve(&problem).unwrap();
    assert_eq!(best.weights, vec![6, 3]);
    assert!(best.objective > 0.0);
    assert_optimal(&problem, &best);
    for off in [[7, 2], [5, 4]] {
        let t = objective(&problem, &off);
        assert!(t > best.objective);
        assert!(!no_allocation_beats(&problem, t), "{off:?} passed");
    }
}
