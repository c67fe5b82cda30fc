//! Randomized tests for the core invariants listed in DESIGN.md §6.
//!
//! These were originally proptest properties; they now run on the in-repo
//! seeded [`SplitMix64`] generator so the default test suite needs no
//! external crates (and every failure is reproducible from the fixed
//! seeds below).

use streambal_core::cluster;
use streambal_core::controller::{BalancerConfig, LoadBalancer};
use streambal_core::function::BlockingRateFunction;
use streambal_core::pava::isotonic_non_decreasing;
use streambal_core::rate::ConnectionSample;
use streambal_core::rng::SplitMix64;
use streambal_core::solver::{fox, Problem};
use streambal_core::weights::{WeightVector, WrrScheduler};

const CASES: u64 = 64;

fn is_non_decreasing(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1] + 1e-9)
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

fn f64_vec(rng: &mut SplitMix64, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.frange(lo, hi)).collect()
}

/// Exhaustive reference solver for tiny instances: the test oracle for
/// [`fox`]. Production code has no use for it, so it lives here.
mod brute {
    use streambal_core::solver::{Allocation, Problem};

    /// Evaluates `max_j F_j(w_j)` for a candidate weight assignment.
    pub fn minimax_objective(functions: &[&[f64]], weights: &[u32]) -> f64 {
        assert_eq!(functions.len(), weights.len(), "length mismatch");
        functions
            .iter()
            .zip(weights)
            .map(|(f, &w)| f[w as usize])
            .fold(0.0, f64::max)
    }

    /// Solves a feasible multiplicity-1 problem by enumerating every weight
    /// composition. `O(binom(R + N - 1, N - 1))`: meant for `N <= 5`,
    /// `R <= ~30`.
    ///
    /// # Panics
    ///
    /// Panics if a multiplicity is not 1 or the bounds cannot bracket `R`.
    pub fn solve(problem: &Problem<'_>) -> Allocation {
        assert!(
            problem.multiplicity().iter().all(|&m| m == 1),
            "brute force solves multiplicity-1 problems only"
        );
        let functions: Vec<&[f64]> = (0..problem.len()).map(|j| problem.function(j)).collect();
        let mut best: Option<(f64, Vec<u32>)> = None;
        let mut current = vec![0u32; problem.len()];

        fn recurse(
            j: usize,
            remaining: u32,
            current: &mut Vec<u32>,
            functions: &[&[f64]],
            lower: &[u32],
            upper: &[u32],
            best: &mut Option<(f64, Vec<u32>)>,
        ) {
            let n = current.len();
            if j == n - 1 {
                if remaining < lower[j] || remaining > upper[j] {
                    return;
                }
                current[j] = remaining;
                let obj = minimax_objective(functions, current);
                match best {
                    Some((b, _)) if *b <= obj => {}
                    _ => *best = Some((obj, current.clone())),
                }
                return;
            }
            let hi = upper[j].min(remaining);
            for w in lower[j]..=hi {
                current[j] = w;
                recurse(j + 1, remaining - w, current, functions, lower, upper, best);
            }
        }

        recurse(
            0,
            problem.resolution(),
            &mut current,
            &functions,
            problem.lower(),
            problem.upper(),
            &mut best,
        );
        let (objective, weights) = best.expect("bounds make the problem infeasible");
        Allocation {
            assigned: weights.iter().map(|&w| u64::from(w)).sum(),
            weights,
            objective,
        }
    }

    #[test]
    fn objective_evaluates_max() {
        let f0 = vec![0.0, 0.1, 0.2];
        let f1 = vec![0.0, 0.5, 0.9];
        let obj = minimax_objective(&[&f0, &f1], &[2, 1]);
        assert!((obj - 0.5).abs() < 1e-12);
    }

    #[test]
    fn finds_obvious_optimum() {
        let steep: Vec<f64> = (0..=6).map(|i| i as f64).collect();
        let flat = vec![0.0; 7];
        let p = Problem::new(vec![&steep, &flat], 6).unwrap();
        let a = solve(&p);
        assert_eq!(a.weights, vec![0, 6]);
        assert_eq!(a.objective, 0.0);
    }

    #[test]
    fn bounds_are_respected() {
        let steep: Vec<f64> = (0..=6).map(|i| i as f64).collect();
        let flat = vec![0.0; 7];
        let p = Problem::new(vec![&steep, &flat], 6)
            .unwrap()
            .with_bounds(vec![2, 0], vec![6, 6])
            .unwrap();
        let a = solve(&p);
        assert_eq!(a.weights, vec![2, 4]);
        assert_eq!(a.objective, 2.0);
    }
}

#[test]
fn pava_output_is_monotone_and_mean_preserving() {
    let mut rng = SplitMix64::new(0xC0DE_0001);
    for _ in 0..CASES {
        let len = rng.range_usize(1, 39);
        let y = f64_vec(&mut rng, len, -10.0, 10.0);
        let w = f64_vec(&mut rng, len, 0.1, 5.0);
        let fit = isotonic_non_decreasing(&y, &w);
        assert!(is_non_decreasing(&fit));
        let m0: f64 = y.iter().zip(&w).map(|(a, b)| a * b).sum();
        let m1: f64 = fit.iter().zip(&w).map(|(a, b)| a * b).sum();
        assert!((m0 - m1).abs() < 1e-6 * (1.0 + m0.abs()));
    }
}

#[test]
fn pava_beats_any_sorted_candidate() {
    let mut rng = SplitMix64::new(0xC0DE_0002);
    for _ in 0..CASES {
        let len = rng.range_usize(1, 29);
        let y = f64_vec(&mut rng, len, -10.0, 10.0);
        // The fit must have no larger squared error than the (monotone)
        // candidate obtained by sorting the input.
        let fit = isotonic_non_decreasing(&y, &vec![1.0; y.len()]);
        let mut candidate = y.clone();
        candidate.sort_by(f64::total_cmp);
        let sse = |v: &[f64]| -> f64 { v.iter().zip(&y).map(|(a, b)| (a - b).powi(2)).sum() };
        assert!(sse(&fit) <= sse(&candidate) + 1e-9);
    }
}

#[test]
fn pava_is_idempotent() {
    let mut rng = SplitMix64::new(0xC0DE_0003);
    for _ in 0..CASES {
        let len = rng.range_usize(1, 39);
        let y = f64_vec(&mut rng, len, -10.0, 10.0);
        let fit = isotonic_non_decreasing(&y, &vec![1.0; y.len()]);
        let fit2 = isotonic_non_decreasing(&fit, &vec![1.0; y.len()]);
        for (a, b) in fit.iter().zip(&fit2) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}

#[test]
fn weight_vector_from_fractions_sums_to_resolution() {
    let mut rng = SplitMix64::new(0xC0DE_0004);
    for _ in 0..CASES {
        let len = rng.range_usize(1, 63);
        let fracs = f64_vec(&mut rng, len, 0.0, 100.0);
        let resolution = rng.range_u32(1, 4_999);
        let w = WeightVector::from_fractions(&fracs, resolution);
        assert_eq!(
            w.units().iter().map(|&u| u64::from(u)).sum::<u64>(),
            u64::from(resolution)
        );
        assert_eq!(w.len(), fracs.len());
    }
}

#[test]
fn wrr_long_run_frequencies_are_exact() {
    let mut rng = SplitMix64::new(0xC0DE_0005);
    let mut cases = 0;
    while cases < CASES {
        let len = rng.range_usize(2, 9);
        let units: Vec<u32> = (0..len).map(|_| rng.range_u32(0, 49)).collect();
        let total: u32 = units.iter().sum();
        if total == 0 {
            continue;
        }
        cases += 1;
        let w = WeightVector::from_units(units.clone(), total).unwrap();
        let mut wrr = WrrScheduler::new(&w);
        let mut counts = vec![0u32; units.len()];
        for _ in 0..total {
            counts[wrr.pick()] += 1;
        }
        assert_eq!(counts, units);
    }
}

#[test]
fn fox_matches_brute_force() {
    let mut rng = SplitMix64::new(0xC0DE_0006);
    for _ in 0..CASES {
        let n = rng.range_usize(2, 3);
        let funcs: Vec<Vec<f64>> = (0..n).map(|_| monotone_function(12, &mut rng)).collect();
        let slices: Vec<&[f64]> = funcs.iter().map(Vec::as_slice).collect();
        let p = Problem::new(slices, 12).unwrap();
        let a = fox::solve(&p).unwrap();
        let b = brute::solve(&p);
        assert!(
            (a.objective - b.objective).abs() < 1e-9,
            "fox {} vs brute {}",
            a.objective,
            b.objective
        );
        assert_eq!(a.weights.iter().sum::<u32>(), 12);
    }
}

#[test]
fn fox_matches_brute_force_with_bounds() {
    let mut rng = SplitMix64::new(0xC0DE_0007);
    let mut cases = 0;
    while cases < CASES {
        let n = rng.range_usize(2, 3);
        let funcs: Vec<Vec<f64>> = (0..n).map(|_| monotone_function(10, &mut rng)).collect();
        let lower: Vec<u32> = (0..n).map(|_| rng.range_u32(0, 2)).collect();
        let upper: Vec<u32> = (0..n).map(|_| rng.range_u32(5, 9)).collect();
        let slices: Vec<&[f64]> = funcs.iter().map(Vec::as_slice).collect();
        let p = Problem::new(slices, 10)
            .unwrap()
            .with_bounds(lower.clone(), upper.clone())
            .unwrap();
        if p.check_feasible().is_err() {
            continue;
        }
        cases += 1;
        let a = fox::solve(&p).unwrap();
        let b = brute::solve(&p);
        assert!((a.objective - b.objective).abs() < 1e-9);
        for (j, &w) in a.weights.iter().enumerate() {
            assert!(w >= lower[j] && w <= upper[j]);
        }
    }
}

#[test]
fn wrr_is_maximally_smooth() {
    let mut rng = SplitMix64::new(0xC0DE_000A);
    for _ in 0..CASES {
        let n = rng.range_usize(2, 7);
        let units: Vec<u32> = (0..n).map(|_| rng.range_u32(1, 39)).collect();
        // Smoothness guarantee: a connection with share w_j/total is never
        // starved for much longer than its ideal inter-pick distance — we
        // assert a 2x bound, comfortably met by interleaved smooth WRR (the
        // exact worst case exceeds ceil(total/w_j) by a small constant).
        let total: u32 = units.iter().sum();
        let w = WeightVector::from_units(units.clone(), total).unwrap();
        let mut wrr = WrrScheduler::new(&w);
        let picks: Vec<usize> = (0..(3 * total) as usize).map(|_| wrr.pick()).collect();
        for (j, &u) in units.iter().enumerate() {
            let max_gap = 2 * (total as usize).div_ceil(u as usize);
            let mut last = None;
            for (i, &p) in picks.iter().enumerate() {
                if p == j {
                    if let Some(prev) = last {
                        assert!(
                            i - prev <= max_gap,
                            "connection {j} starved for {} picks (bound {max_gap})",
                            i - prev
                        );
                    }
                    last = Some(i);
                }
            }
            assert!(last.is_some(), "connection {j} never picked");
        }
    }
}

#[test]
fn function_predictions_stay_monotone() {
    let mut rng = SplitMix64::new(0xC0DE_000B);
    for _ in 0..CASES {
        let mut f = BlockingRateFunction::new(100, 0.5);
        for _ in 0..rng.range_usize(0, 39) {
            let w = rng.range_u32(1, 100);
            let v = rng.frange(0.0, 5.0);
            f.observe(w, v);
        }
        for _ in 0..rng.range_usize(0, 9) {
            let w = rng.range_u32(0, 100);
            f.decay_above(w, 0.9);
        }
        let p = f.predicted();
        assert!(is_non_decreasing(&p));
        assert_eq!(p[0], 0.0);
        assert!(p.iter().all(|&v| v >= 0.0));
    }
}

#[test]
fn incremental_rebuild_is_bit_identical_to_from_scratch() {
    // Two functions receive the identical randomized op sequence. `a` is
    // additionally probed with point queries (`value`, which refits a stale
    // fit and reads it) and intermediate `predicted()` calls at random
    // times, exercising every path of the lazy refit; `b` only ever refits
    // at the comparison points. Point queries and tables must match bit
    // for bit.
    let mut rng = SplitMix64::new(0xC0DE_000E);
    for _ in 0..CASES {
        let r = 100;
        let mut a = BlockingRateFunction::new(r, 0.5);
        let mut b = BlockingRateFunction::new(r, 0.5);
        for _ in 0..rng.range_usize(1, 79) {
            match rng.range_u32(0, 9) {
                0..=5 => {
                    let w = rng.range_u32(1, r);
                    let v = rng.frange(0.0, 5.0);
                    a.observe(w, v);
                    b.observe(w, v);
                }
                6..=7 => {
                    let w = rng.range_u32(0, r);
                    a.decay_above(w, 0.9);
                    b.decay_above(w, 0.9);
                }
                8 => {
                    // Point query on `a` only: refreshes its fit at a
                    // state `b` never materializes.
                    let w = rng.range_u32(0, r);
                    let _ = a.value(w);
                }
                _ => {
                    a.reset();
                    b.reset();
                }
            }
            if rng.range_u32(0, 4) == 0 {
                let _ = a.predicted();
            }
        }
        let table_b = b.predicted();
        for (w, expect) in table_b.iter().enumerate() {
            assert_eq!(
                a.value(w as u32).to_bits(),
                expect.to_bits(),
                "point query diverged at weight {w}"
            );
        }
        for (w, (got, expect)) in a.predicted().iter().zip(&table_b).enumerate() {
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "table diverged at weight {w}"
            );
        }
    }
}

#[test]
fn clustering_is_a_valid_partition() {
    let mut rng = SplitMix64::new(0xC0DE_000C);
    for _ in 0..CASES {
        let n = rng.range_usize(2, 19);
        let threshold = rng.frange(0.0, 5.0);
        // Build a symmetric matrix with zero diagonal.
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let v = rng.frange(0.0, 10.0);
                d[i * n + j] = v;
                d[j * n + i] = v;
            }
        }
        let c = cluster::cluster(n, &d, threshold);
        assert_eq!(c.assignment.len(), n);
        let mut seen = vec![false; n];
        for members in &c.members {
            for &m in members {
                assert!(!seen[m], "item in two clusters");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every item clustered");
    }
}

#[test]
fn single_connection_balancer_is_a_fixed_point() {
    // N = 1 is the degenerate simplex: the whole resolution belongs to the
    // only connection, whatever the observed rates do.
    let mut rng = SplitMix64::new(0xC0DE_000F);
    let mut lb = LoadBalancer::new(BalancerConfig::builder(1).build().unwrap());
    for _ in 0..200 {
        let rate = rng.frange(0.0, 5.0);
        lb.observe(&[ConnectionSample::new(0, rate)]);
        lb.rebalance();
        assert_eq!(lb.weights().units(), &[1000]);
    }
}

#[test]
fn all_equal_rates_keep_the_allocation_near_even() {
    // Identical blocking everywhere gives the solver no gradient; the
    // allocation must stay on the simplex and not collapse onto a few
    // connections.
    let mut rng = SplitMix64::new(0xC0DE_0010);
    for _ in 0..16 {
        let n = rng.range_usize(2, 8);
        let rate = rng.frange(0.0, 2.0);
        let mut lb = LoadBalancer::new(BalancerConfig::builder(n).build().unwrap());
        for _ in 0..50 {
            let samples: Vec<ConnectionSample> =
                (0..n).map(|j| ConnectionSample::new(j, rate)).collect();
            lb.observe(&samples);
            lb.rebalance();
            assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        }
        let units = lb.weights().units();
        let min = *units.iter().min().unwrap();
        let max = *units.iter().max().unwrap();
        assert!(
            max - min <= 100,
            "equal rates must keep weights near even, got {units:?}"
        );
    }
}

#[test]
fn solver_bounds_with_tight_lower_sums_force_the_allocation() {
    // When the per-connection lower bounds already consume the whole
    // resolution (Σ m_j = R), the bound vector is the only feasible point;
    // with one unit of slack (Σ m_j = R - 1) the solver places exactly one
    // unit above the bounds.
    let mut rng = SplitMix64::new(0xC0DE_0011);
    for _ in 0..CASES {
        let n = rng.range_usize(2, 5);
        let r = 12u32;
        let funcs: Vec<Vec<f64>> = (0..n).map(|_| monotone_function(r, &mut rng)).collect();
        let mut lower = vec![0u32; n];
        for _ in 0..r {
            lower[rng.range_usize(0, n - 1)] += 1;
        }

        let slices: Vec<&[f64]> = funcs.iter().map(Vec::as_slice).collect();
        let p = Problem::new(slices, r)
            .unwrap()
            .with_bounds(lower.clone(), vec![r; n])
            .unwrap();
        p.check_feasible().expect("Σ lower == R is feasible");
        assert_eq!(fox::solve(&p).unwrap().weights, lower);

        let j = lower.iter().position(|&u| u > 0).expect("r > 0");
        let mut slack_lower = lower.clone();
        slack_lower[j] -= 1;
        let slices: Vec<&[f64]> = funcs.iter().map(Vec::as_slice).collect();
        let p = Problem::new(slices, r)
            .unwrap()
            .with_bounds(slack_lower.clone(), vec![r; n])
            .unwrap();
        let sol = fox::solve(&p).unwrap();
        assert_eq!(sol.weights.iter().sum::<u32>(), r);
        let slack: u32 = sol
            .weights
            .iter()
            .zip(&slack_lower)
            .map(|(w, l)| w - l)
            .sum();
        assert_eq!(slack, 1, "exactly one free unit above the bounds");
    }
}

#[test]
fn balancer_weights_always_sum_to_resolution() {
    let mut rng = SplitMix64::new(0xC0DE_000D);
    for _ in 0..CASES {
        let mut lb = LoadBalancer::new(BalancerConfig::builder(6).build().unwrap());
        for _ in 0..rng.range_usize(0, 59) {
            let conn = rng.range_usize(0, 5);
            let rate = rng.frange(0.0, 2.0);
            lb.observe(&[ConnectionSample::new(conn, rate)]);
            lb.rebalance();
            assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
        }
    }
}

#[test]
fn random_growth_churn_preserves_every_invariant() {
    // A seeded storm of grow/shrink interleaved with detach/attach,
    // observe and rebalance: after *every* operation the simplex holds,
    // detached slots carry zero weight, newly grown slots enter
    // exploration-bounded, and the full invariant check passes.
    let mut rng = SplitMix64::new(0x6120_57C4);
    for case in 0..32 {
        let n0 = rng.range_usize(2, 12);
        let mut lb = LoadBalancer::new(BalancerConfig::builder(n0).build().unwrap());
        for _ in 0..rng.range_usize(20, 60) {
            let n = lb.config().connections();
            let op = rng.below(6);
            match op {
                0 if n < 48 => {
                    let added = rng.range_usize(1, 3);
                    let range = lb.grow(added);
                    assert_eq!(range.len(), added);
                    for j in range {
                        assert!(lb.is_attached(j));
                        assert!(
                            lb.weights().units()[j] <= 10,
                            "case {case}: grown slot {j} over-admitted with {}",
                            lb.weights().units()[j]
                        );
                    }
                }
                1 if n > 2 => {
                    // Shrinking may only panic-free remove tail slots while
                    // at least one live member survives; guard like a real
                    // control plane would.
                    let removed = rng.range_usize(1, (n - 1).min(3));
                    let live_outside_tail = (0..n - removed).filter(|&j| lb.is_attached(j)).count();
                    if live_outside_tail >= 1 {
                        assert_eq!(lb.shrink(removed), n - removed);
                    }
                }
                2 => {
                    let j = rng.range_usize(0, n - 1);
                    if lb.is_attached(j) && lb.live_connections() > 1 {
                        assert!(lb.detach_connection(j));
                    }
                }
                3 => {
                    let j = rng.range_usize(0, n - 1);
                    if !lb.is_attached(j) {
                        assert!(lb.attach_connection(j));
                    }
                }
                _ => {
                    let j = rng.range_usize(0, n - 1);
                    if lb.is_attached(j) {
                        lb.observe(&[ConnectionSample::new(j, rng.frange(0.0, 1.5))]);
                    }
                    lb.rebalance();
                }
            }
            assert_eq!(
                lb.weights().units().iter().sum::<u32>(),
                1000,
                "case {case}: weights left the simplex after op {op}"
            );
            assert_eq!(lb.weights().len(), lb.config().connections());
            for (slot, &w) in lb.weights().units().iter().enumerate() {
                assert!(
                    lb.is_attached(slot) || w == 0,
                    "case {case}: detached slot {slot} holds weight {w}"
                );
            }
            lb.check_invariants()
                .expect("growth churn broke an invariant");
        }
        assert!(lb.live_connections() >= 1, "case {case}: region emptied");
    }
}

#[test]
fn wrr_resize_is_frequency_exact_vs_a_fresh_scheduler() {
    // After any seeded sequence of picks and resizes, a resized scheduler
    // must deliver the same exact long-run frequencies as a scheduler
    // freshly built from the final weights: over any window of `total`
    // picks, connection j is chosen exactly units[j] times.
    let mut rng = SplitMix64::new(0x6120_57C5);
    for _ in 0..CASES {
        let n0 = rng.range_usize(2, 6);
        let mut units: Vec<u32> = (0..n0).map(|_| rng.range_u32(1, 30)).collect();
        let total: u32 = units.iter().sum();
        let w = WeightVector::from_units(units.clone(), total).unwrap();
        let mut wrr = WrrScheduler::new(&w);
        for _ in 0..rng.range_usize(1, 5) {
            // Random warm-up picks, then a resize (grow or shrink).
            for _ in 0..rng.range_usize(0, 20) {
                wrr.pick();
            }
            if rng.chance(0.6) || units.len() <= 2 {
                for _ in 0..rng.range_usize(1, 3) {
                    units.push(rng.range_u32(1, 30));
                }
            } else {
                units.truncate(rng.range_usize(2, units.len() - 1).max(2));
            }
            wrr.set_units(&units);
            assert_eq!(wrr.len(), units.len());
        }
        let total: u32 = units.iter().sum();
        let mut counts = vec![0u32; units.len()];
        // Drain one full cycle to absorb residual credit phase, then
        // measure a whole window.
        for _ in 0..total {
            wrr.pick();
        }
        for _ in 0..total {
            counts[wrr.pick()] += 1;
        }
        let max_dev = counts
            .iter()
            .zip(&units)
            .map(|(&c, &u)| c.abs_diff(u))
            .max()
            .unwrap();
        assert!(
            max_dev <= 1,
            "resized scheduler drifted from exact frequencies: {counts:?} vs {units:?}"
        );
    }
}

#[test]
fn random_membership_churn_preserves_every_invariant() {
    // A seeded storm of attach/detach/observe/rebalance: after *every*
    // operation the simplex holds (weights sum to R), detached slots carry
    // zero weight, and the full invariant check passes.
    let mut rng = SplitMix64::new(0xDE7A_C4ED);
    for case in 0..CASES {
        let n = rng.range_usize(2, 40);
        let mut lb = LoadBalancer::new(BalancerConfig::builder(n).build().unwrap());
        for _ in 0..rng.range_usize(10, 80) {
            let j = rng.range_usize(0, n - 1);
            if rng.chance(0.2) && lb.is_attached(j) && lb.live_connections() > 1 {
                assert!(lb.detach_connection(j));
            } else if rng.chance(0.25) && !lb.is_attached(j) {
                assert!(lb.attach_connection(j));
            } else if lb.is_attached(j) {
                lb.observe(&[ConnectionSample::new(j, rng.frange(0.0, 1.5))]);
                lb.rebalance();
            }
            assert_eq!(
                lb.weights().units().iter().sum::<u32>(),
                1000,
                "case {case}: weights left the simplex"
            );
            for (slot, &w) in lb.weights().units().iter().enumerate() {
                assert!(
                    lb.is_attached(slot) || w == 0,
                    "case {case}: detached slot {slot} holds weight {w}"
                );
            }
            lb.check_invariants().expect("churn broke an invariant");
        }
        let live = lb.live_connections();
        assert!(live >= 1, "case {case}: region lost all members");
    }
}
