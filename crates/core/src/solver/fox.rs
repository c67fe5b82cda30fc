//! Fox's greedy marginal-allocation algorithm.
//!
//! For minimax discrete separable RAPs with monotone non-decreasing
//! functions, the greedy scheme attributed to Fox (1966) is exact: start
//! every item at its lower bound, then repeatedly grant one more unit to the
//! item whose *next* value `F_j(w_j + 1)` is smallest. A simple interchange
//! argument shows the result minimizes `max_j F_j(w_j)`. With a binary heap
//! the complexity is `O(N + R log N)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

use super::{Allocation, Problem, SolveError};

/// Min-heap entry ordered by candidate value. Ties are broken by the item's
/// priority (higher first — the controller passes each connection's clean
/// frontier, so equal-value units land where the model shows headroom),
/// then by the weight the step would reach (so remaining ties are dealt out
/// evenly), then by item index for determinism.
#[derive(Debug, Clone)]
struct Entry {
    value: f64,
    priority: u64,
    weight: u32,
    item: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest value.
        other
            .value
            .total_cmp(&self.value)
            .then_with(|| self.priority.cmp(&other.priority))
            .then_with(|| other.weight.cmp(&self.weight))
            .then_with(|| other.item.cmp(&self.item))
    }
}

/// Solves the problem with Fox's greedy algorithm.
///
/// For multiplicity-1 problems the returned allocation is exact
/// (`assigned == R`) and optimal. With multiplicities (clustered items) the
/// greedy may leave a remainder smaller than the largest multiplicity
/// unassigned; [`Allocation::assigned`] reports how much was placed and the
/// caller distributes the rest (see
/// [`LoadBalancer`](crate::controller::LoadBalancer)).
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] when the bounds cannot bracket `R`.
///
/// # Examples
///
/// ```
/// use streambal_core::solver::{fox, Problem};
///
/// let flat = vec![0.0, 0.0, 0.0, 0.0, 0.0];
/// let steep = vec![0.0, 1.0, 2.0, 3.0, 4.0];
/// let p = Problem::new(vec![&flat, &steep], 4).unwrap();
/// let a = fox::solve(&p).unwrap();
/// assert_eq!(a.weights, vec![4, 0]);
/// assert_eq!(a.objective, 0.0);
/// ```
pub fn solve(problem: &Problem<'_>) -> Result<Allocation, SolveError> {
    let mut scratch = FoxScratch::new();
    let stats = solve_with(problem, &mut scratch)?;
    Ok(Allocation {
        weights: mem::take(&mut scratch.weights),
        objective: stats.objective,
        assigned: stats.assigned,
    })
}

/// Reusable state for repeated Fox solves.
///
/// Holds the output weight vector plus the heap and skipped-entry pools; a
/// controller solving every round keeps one of these so steady-state solves
/// perform no heap allocation once capacities have warmed up.
#[derive(Debug, Clone, Default)]
pub struct FoxScratch {
    /// Per-item weights of the most recent [`solve_with`] call.
    pub weights: Vec<u32>,
    /// Recycled backing store for the candidate heap.
    heap: Vec<Entry>,
    /// Entries set aside mid-round because their multiplicity overshoots
    /// the remainder.
    skipped: Vec<Entry>,
}

impl FoxScratch {
    /// Creates an empty scratch (no capacity reserved yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Summary of a [`solve_with`] run; the weights live in the scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoxStats {
    /// The minimax objective `max_j F_j(w_j)`.
    pub objective: f64,
    /// Total resource consumed, `Σ mult_j · w_j` (see
    /// [`Allocation::assigned`]).
    pub assigned: u64,
}

/// Solves the problem with Fox's greedy algorithm into `scratch.weights`.
///
/// Identical results to [`solve`], but reuses the scratch's buffers so
/// repeated solves of same-shaped problems are allocation-free.
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] when the bounds cannot bracket `R`.
pub fn solve_with(problem: &Problem<'_>, scratch: &mut FoxScratch) -> Result<FoxStats, SolveError> {
    problem.check_feasible()?;
    Ok(greedy(
        &Limits {
            resolution: problem.resolution(),
            lower: problem.lower(),
            upper: problem.upper(),
            multiplicity: problem.multiplicity(),
            tie_priority: problem.tie_priority(),
        },
        |j, w| problem.function(j)[w as usize],
        scratch,
    ))
}

/// Everything about a RAP instance except its functions.
pub(crate) struct Limits<'a> {
    pub(crate) resolution: u32,
    pub(crate) lower: &'a [u32],
    pub(crate) upper: &'a [u32],
    pub(crate) multiplicity: &'a [u32],
    pub(crate) tie_priority: &'a [u64],
}

/// The greedy loop itself, over any source of function values: `value(j,
/// w)` is `F_j(w)`, asked only for `lower[j] < w <= upper[j]` and, once
/// for the objective, at the final weights. [`solve_with`] reads a
/// [`Problem`]'s dense tables; the [controller](crate::controller) — whose
/// only solver entry this is — answers slot items from the functions' fits
/// and cluster items from pooled fits, by point query. The caller guarantees
/// well-formed, feasible limits.
pub(crate) fn greedy(
    limits: &Limits<'_>,
    mut value: impl FnMut(usize, u32) -> f64,
    scratch: &mut FoxScratch,
) -> FoxStats {
    let Limits {
        lower,
        upper,
        multiplicity: mult,
        tie_priority: priority,
        ..
    } = *limits;
    let r = u64::from(limits.resolution);

    let weights = &mut scratch.weights;
    weights.clear();
    weights.extend_from_slice(lower);
    let mut assigned: u64 = weights
        .iter()
        .zip(mult)
        .map(|(&w, &m)| u64::from(w) * u64::from(m))
        .sum();

    // Recycle the heap's backing vector across solves: take it out of the
    // scratch, refill, and put it back (cleared) when done.
    let mut heap_vec = mem::take(&mut scratch.heap);
    heap_vec.clear();
    let mut heap = BinaryHeap::from(heap_vec);
    for (j, &w) in weights.iter().enumerate() {
        if w < upper[j] {
            heap.push(Entry {
                value: value(j, w + 1),
                priority: priority[j],
                weight: w + 1,
                item: j,
            });
        }
    }

    let skipped = &mut scratch.skipped;
    skipped.clear();
    while assigned < r {
        // Find the cheapest next step that still fits in the remainder.
        let step = loop {
            match heap.pop() {
                None => break None,
                Some(e) => {
                    if assigned + u64::from(mult[e.item]) <= r {
                        break Some(e);
                    }
                    // Too big for the remainder; set aside, try the next.
                    skipped.push(e);
                }
            }
        };
        for e in skipped.drain(..) {
            heap.push(e);
        }
        let Some(e) = step else { break };
        let j = e.item;
        weights[j] += 1;
        assigned += u64::from(mult[j]);
        if weights[j] < upper[j] {
            heap.push(Entry {
                value: value(j, weights[j] + 1),
                priority: priority[j],
                weight: weights[j] + 1,
                item: j,
            });
        }
    }

    let objective = weights
        .iter()
        .enumerate()
        .map(|(j, &w)| value(j, w))
        .fold(0.0, f64::max);
    scratch.heap = heap.into_vec();
    FoxStats {
        objective,
        assigned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Problem;

    #[test]
    fn exact_assignment_with_unit_multiplicity() {
        let f0: Vec<f64> = (0..=10).map(|i| i as f64 * 0.1).collect();
        let f1: Vec<f64> = (0..=10).map(|i| i as f64 * 0.2).collect();
        let p = Problem::new(vec![&f0, &f1], 10).unwrap();
        let a = solve(&p).unwrap();
        assert_eq!(a.assigned, 10);
        assert_eq!(a.weights.iter().sum::<u32>(), 10);
        // Steeper function gets less.
        assert!(a.weights[0] > a.weights[1]);
    }

    #[test]
    fn balanced_when_identical() {
        let f: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let p = Problem::new(vec![&f, &f], 10).unwrap();
        let a = solve(&p).unwrap();
        assert_eq!(a.weights, vec![5, 5]);
        assert_eq!(a.objective, 5.0);
    }

    #[test]
    fn respects_lower_bounds() {
        let flat = vec![0.0; 11];
        let steep: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let p = Problem::new(vec![&flat, &steep], 10)
            .unwrap()
            .with_bounds(vec![0, 3], vec![10, 10])
            .unwrap();
        let a = solve(&p).unwrap();
        assert_eq!(a.weights[1], 3, "steep item pinned at its lower bound");
        assert_eq!(a.weights[0], 7);
        assert_eq!(a.objective, 3.0);
    }

    #[test]
    fn respects_upper_bounds() {
        let flat = vec![0.0; 11];
        let steep: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let p = Problem::new(vec![&flat, &steep], 10)
            .unwrap()
            .with_bounds(vec![0, 0], vec![6, 10])
            .unwrap();
        let a = solve(&p).unwrap();
        assert_eq!(a.weights, vec![6, 4]);
    }

    #[test]
    fn overloaded_connection_gets_zero() {
        // Mirrors the paper's 100x-load case: one connection predicts severe
        // blocking at any weight, the rest predict none.
        let severe: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();
        let free = vec![0.0; 11];
        let p = Problem::new(vec![&severe, &free, &free], 10).unwrap();
        let a = solve(&p).unwrap();
        assert_eq!(a.weights[0], 0);
        assert_eq!(a.weights[1] + a.weights[2], 10);
        assert_eq!(a.objective, 0.0);
    }

    #[test]
    fn multiplicity_consumes_group_resource() {
        // Two clusters: 3 identical cheap members, 1 expensive member.
        let cheap = vec![0.0; 11];
        let dear: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let p = Problem::new(vec![&cheap, &dear], 10)
            .unwrap()
            .with_multiplicity(vec![3, 1])
            .unwrap();
        let a = solve(&p).unwrap();
        // Greedy grants the cheap cluster 3 per-connection units (9 total),
        // then one unit to the expensive one.
        assert_eq!(a.weights, vec![3, 1]);
        assert_eq!(a.assigned, 10);
    }

    #[test]
    fn multiplicity_remainder_reported() {
        // Two clusters of 3 identical members each, R = 10: only 9 units fit
        // in whole per-connection steps; the last unit is left to the caller.
        let cheap = vec![0.0; 11];
        let p = Problem::new(vec![&cheap, &cheap], 10)
            .unwrap()
            .with_multiplicity(vec![3, 3])
            .unwrap()
            .with_bounds(vec![0, 0], vec![2, 2])
            .unwrap();
        let a = solve(&p).unwrap();
        assert_eq!(a.assigned, 9);
        assert_eq!(
            a.weights
                .iter()
                .zip([3u64, 3])
                .map(|(&w, m)| u64::from(w) * m)
                .sum::<u64>(),
            9
        );
    }

    #[test]
    fn ties_are_dealt_out_evenly() {
        let f = vec![0.0; 11];
        let p = Problem::new(vec![&f, &f, &f], 10).unwrap();
        let a = solve(&p).unwrap();
        // All marginals equal; units are dealt round-robin, lowest current
        // weight first, so the split is as even as possible.
        assert_eq!(a.weights, vec![4, 3, 3]);
    }

    #[test]
    fn tie_priority_steers_equal_marginals() {
        // Both functions are zero up to their knees; item 1 has far more
        // headroom (knee at 8 vs 2). With priorities equal to the knees,
        // the zero-valued units go to item 1 first.
        let f0 = vec![0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let f1 = vec![0.0; 11];
        let p = Problem::new(vec![&f0, &f1], 10)
            .unwrap()
            .with_tie_priority(vec![2, 8])
            .unwrap();
        let a = solve(&p).unwrap();
        assert_eq!(a.weights, vec![0, 10]);
        assert_eq!(a.objective, 0.0);
    }

    #[test]
    fn scratch_reuse_matches_one_shot() {
        let mut scratch = FoxScratch::new();
        for n in [2usize, 5, 3] {
            let fns: Vec<Vec<f64>> = (0..n)
                .map(|j| (0..=10).map(|i| i as f64 * (j + 1) as f64 * 0.1).collect())
                .collect();
            let refs: Vec<&[f64]> = fns.iter().map(Vec::as_slice).collect();
            let p = Problem::new(refs, 10).unwrap();
            let one_shot = solve(&p).unwrap();
            let stats = solve_with(&p, &mut scratch).unwrap();
            assert_eq!(scratch.weights, one_shot.weights);
            assert_eq!(stats.objective, one_shot.objective);
            assert_eq!(stats.assigned, one_shot.assigned);
        }
    }

    #[test]
    fn point_query_accessor_matches_the_dense_solve() {
        use crate::function::BlockingRateFunction;
        use crate::rng::SplitMix64;
        // The same greedy loop, fed once from dense tables through
        // `solve_with` and once from `BlockingRateFunction::value` point
        // queries on functions whose tables were never built: bounded,
        // prioritised, and (every third case) with multiplicities.
        let mut rng = SplitMix64::new(0xF0C5_ACCE);
        let mut dense = FoxScratch::new();
        let mut sparse = FoxScratch::new();
        let mut feasible = 0;
        for case in 0..200u32 {
            let r = [64u32, 500, 1000][(case % 3) as usize];
            let n = rng.range_usize(1, 12);
            let mut functions: Vec<BlockingRateFunction> = (0..n)
                .map(|_| {
                    let mut f = BlockingRateFunction::new(r, 0.5);
                    for _ in 0..rng.range_usize(0, 8) {
                        let rate = if rng.range_usize(0, 2) == 0 {
                            0.0
                        } else {
                            rng.frange(0.0, 2.0)
                        };
                        f.observe(rng.range_u32(1, r), rate);
                    }
                    f
                })
                .collect();
            let tables: Vec<Vec<f64>> = functions.iter().map(|f| f.clone().predicted()).collect();
            let lower: Vec<u32> = (0..n)
                .map(|_| rng.range_u32(0, r / (2 * n as u32)))
                .collect();
            let upper: Vec<u32> = lower.iter().map(|&l| rng.range_u32(l, r)).collect();
            let priority: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 3)).collect();
            let mult: Vec<u32> = (0..n)
                .map(|_| {
                    if case % 3 == 0 {
                        rng.range_u32(1, 4)
                    } else {
                        1
                    }
                })
                .collect();
            let problem = Problem::new(tables.iter().map(Vec::as_slice).collect(), r)
                .unwrap()
                .with_bounds(lower.clone(), upper.clone())
                .unwrap()
                .with_multiplicity(mult.clone())
                .unwrap()
                .with_tie_priority(priority.clone())
                .unwrap();
            let Ok(want) = solve_with(&problem, &mut dense) else {
                continue;
            };
            feasible += 1;
            let got = greedy(
                &Limits {
                    resolution: r,
                    lower: &lower,
                    upper: &upper,
                    multiplicity: &mult,
                    tie_priority: &priority,
                },
                |j, w| functions[j].value(w),
                &mut sparse,
            );
            assert_eq!(sparse.weights, dense.weights, "case {case}");
            assert_eq!(
                got.objective.to_bits(),
                want.objective.to_bits(),
                "case {case}"
            );
            assert_eq!(got.assigned, want.assigned, "case {case}");
        }
        assert!(feasible > 100, "only {feasible} feasible cases");
    }

    #[test]
    fn infeasible_bounds_error() {
        let f = vec![0.0; 11];
        let p = Problem::new(vec![&f], 10)
            .unwrap()
            .with_bounds(vec![0], vec![5])
            .unwrap();
        assert!(solve(&p).is_err());
    }
}
