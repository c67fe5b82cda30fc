//! Fox's greedy marginal-allocation algorithm.
//!
//! For minimax discrete separable RAPs with monotone non-decreasing
//! functions, the greedy scheme attributed to Fox (1966) is exact: start
//! every item at its lower bound, then repeatedly grant one more unit to the
//! item whose *next* value `F_j(w_j + 1)` is smallest. A simple interchange
//! argument shows the result minimizes `max_j F_j(w_j)`. With a binary heap
//! the complexity is `O(N + R log N)`. In a problem whose multiplicities
//! are all 1, items the caller marks idle (they read `+0.0` everywhere and
//! tie with each other) are dealt from a cursor instead, so `R_i` units
//! granted to them cost `O(R_i)` and the heap holds only the other `N_h`
//! items: `O(N + R_i + R_h log N_h)`. The loop computes weights and the
//! units they consume and nothing else; [`solve_with`] folds the objective
//! from its dense tables.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

use super::{Allocation, Problem, SolveError};

/// Min-heap entry ordered by candidate value. Ties are broken by the item's
/// priority (higher first — the controller passes each connection's clean
/// frontier, so equal-value units land where the model shows headroom),
/// then by the weight the step would reach (so remaining ties are dealt out
/// evenly), then by item index for determinism. A push or pop costs
/// `O(log N_h)` over the `N_h` items on the heap; idle items never enter
/// it, and their next entry is built by the cursor in [`greedy`].
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
    /// The idle items still below their upper bound, ascending.
    idle_run: Vec<usize>,
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
    let value = |j: usize, w: u32| problem.function(j)[w as usize];
    let assigned = greedy(
        &Limits {
            resolution: problem.resolution(),
            lower: problem.lower(),
            upper: problem.upper(),
            multiplicity: problem.multiplicity(),
            tie_priority: problem.tie_priority(),
            idle: &[],
        },
        value,
        scratch,
    );
    let objective = scratch
        .weights
        .iter()
        .enumerate()
        .map(|(j, &w)| value(j, w))
        .fold(0.0, f64::max);
    Ok(FoxStats {
        objective,
        assigned,
    })
}

/// Everything about a RAP instance except its functions.
pub(crate) struct Limits<'a> {
    pub(crate) resolution: u32,
    pub(crate) lower: &'a [u32],
    pub(crate) upper: &'a [u32],
    pub(crate) multiplicity: &'a [u32],
    pub(crate) tie_priority: &'a [u64],
    /// Per item, empty meaning none: the item is idle. It may be non-empty
    /// only when every multiplicity is 1. An idle item with
    /// `lower < upper` must read `+0.0` (bits) at every weight in
    /// `(lower, upper]` and share its lower bound and tie priority with
    /// the other such idle items; one with `lower == upper` is never dealt
    /// a unit whatever its mark.
    pub(crate) idle: &'a [bool],
}

/// The greedy loop itself, over any source of function values: `value(j,
/// w)` is `F_j(w)`, asked only for `lower[j] < w <= upper[j]`. It leaves
/// the weights in `scratch.weights` and returns the units they consume,
/// `Σ mult_j · w_j`. [`solve_with`] reads a [`Problem`]'s dense tables; the
/// [controller](crate::controller) — whose only solver entry this is —
/// answers slot items from the functions' fits and cluster items from
/// pooled fits, by point query. The caller guarantees well-formed, feasible
/// limits.
///
/// Idle items (see [`Limits::idle`]) are never pushed on the heap, and
/// only debug builds query them. Their entries would all read
/// `(+0.0, P, w + 1, j)` with one `P`, so the smallest of them is the
/// lowest-indexed item at the lowest weight: a cursor walks them in index
/// order, one weight level at a time, and each step grants the cursor's
/// unit or the heap's top, whichever comes first under [`Entry`]'s order
/// (with every multiplicity 1, the top always fits the remainder). The
/// allocation is the all-heap loop's, tie for tie, at `O(1)` per idle unit
/// plus `O((N_h + R_h) log N_h)` for the `N_h` items on the heap and the
/// `R_h` units they take.
pub(crate) fn greedy(
    limits: &Limits<'_>,
    mut value: impl FnMut(usize, u32) -> f64,
    scratch: &mut FoxScratch,
) -> u64 {
    let Limits {
        lower,
        upper,
        multiplicity: mult,
        tie_priority: priority,
        idle,
        ..
    } = *limits;
    let r = u64::from(limits.resolution);
    debug_assert!(idle.is_empty() || (idle.len() == lower.len() && mult.iter().all(|&m| m == 1)));

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
    let run = &mut scratch.idle_run;
    run.clear();
    for (j, &w) in weights.iter().enumerate() {
        if w >= upper[j] {
            continue;
        }
        if idle.get(j) == Some(&true) {
            run.push(j);
        } else {
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
    // The cursor: `run[..pos]` have reached `level`, `run[pos..]` are one
    // below it, so `run[pos]` at `level` is the smallest idle entry.
    let (run_priority, mut level) = run.first().map_or((0, 0), |&j| (priority[j], lower[j] + 1));
    debug_assert!(run
        .iter()
        .all(|&j| priority[j] == run_priority && lower[j] + 1 == level));
    let mut pos = 0;
    let idle_entry = |j: usize, level: u32| Entry {
        value: 0.0,
        priority: run_priority,
        weight: level,
        item: j,
    };

    while assigned < r {
        // Idle units go first while the cursor's entry precedes the heap's
        // top.
        while assigned < r {
            let Some(&j) = run.get(pos) else { break };
            if heap.peek().is_some_and(|top| *top > idle_entry(j, level)) {
                break;
            }
            debug_assert_eq!(value(j, level).to_bits(), 0, "idle item {j} reads +0.0");
            weights[j] += 1;
            assigned += 1;
            pos += 1;
            if pos == run.len() {
                // The level is dealt: the items it brought to their upper
                // bound leave the run, the rest go round again.
                run.retain(|&i| upper[i] > level);
                level += 1;
                pos = 0;
            }
        }
        if assigned == r {
            break;
        }
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

    scratch.heap = heap.into_vec();
    assigned
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
                    idle: &[],
                },
                |j, w| functions[j].value(w),
                &mut sparse,
            );
            assert_eq!(sparse.weights, dense.weights, "case {case}");
            assert_eq!(got, want.assigned, "case {case}");
        }
        assert!(feasible > 100, "only {feasible} feasible cases");
    }

    #[test]
    fn an_idle_run_deals_like_the_heap() {
        use crate::rng::SplitMix64;
        // The idle cursor against the all-heap loop on the same limits.
        // Idle items are unbounded, capped at a small step, or detached at
        // `[0, 0]`; beside them sit loaded items, items whose `-0.0` prefix
        // sorts before the run's `+0.0`, and items that read `+0.0` over a
        // prefix at the run's priority `R`, so their keys interleave with
        // the run's by weight. Every multiplicity is 1, as an idle run
        // requires.
        let mut rng = SplitMix64::new(0x1D1E_C0DE);
        let (mut cursor, mut heap) = (FoxScratch::new(), FoxScratch::new());
        let (mut feasible, mut interleaved) = (0, 0);
        for case in 0..400u32 {
            let r = rng.range_u32(16, 4096);
            let n = rng.range_usize(2, 64);
            let spread = r / (4 * n as u32);
            let run_lower = if rng.chance(0.5) {
                0
            } else {
                rng.range_u32(0, spread)
            };
            let step = rng.range_u32(1, 16);
            let mut tables: Vec<Vec<f64>> = Vec::with_capacity(n);
            let (mut lower, mut upper, mut mult) = (vec![], vec![], vec![]);
            let (mut priority, mut idle, mut zero_prefixed) = (vec![], vec![], vec![]);
            for _ in 0..n {
                let kind = rng.range_usize(0, 4);
                // The weight up to which the item reads a (signed) zero,
                // then a random non-decreasing climb. A `-0.0` prefix is
                // dealt before every `+0.0` unit, so it stays short enough
                // to leave the run most of `R`.
                let prefix = rng.range_u32(0, if kind == 3 { 2 * spread } else { r });
                let slope = rng.frange(0.001, 1.0);
                let climb = |zero: f64| -> Vec<f64> {
                    (0..=r)
                        .map(|w| {
                            if w <= prefix {
                                zero
                            } else {
                                f64::from(w - prefix) * slope
                            }
                        })
                        .collect()
                };
                if kind <= 1 {
                    tables.push(vec![0.0; r as usize + 1]);
                    let detached = run_lower == 0 && rng.chance(0.15);
                    upper.push(match rng.range_usize(0, 2) {
                        _ if detached => 0,
                        0 => (run_lower + step).min(r),
                        _ => r,
                    });
                    lower.push(run_lower);
                    mult.push(1);
                    priority.push(if detached { 0 } else { u64::from(r) });
                    idle.push(true);
                    zero_prefixed.push(false);
                    continue;
                }
                let (table, prio) = match kind {
                    2 => (climb(0.0), u64::from(r)),
                    3 => (climb(-0.0), rng.range_u64(0, u64::from(r) + 1)),
                    _ => {
                        let loaded = climb(0.0).iter().map(|&v| v + 0.5).collect();
                        (loaded, rng.range_u64(0, u64::from(r)))
                    }
                };
                tables.push(table);
                let l = rng.range_u32(0, spread);
                lower.push(l);
                upper.push(rng.range_u32(l, r));
                mult.push(1);
                priority.push(prio);
                idle.push(false);
                zero_prefixed.push(kind == 2);
            }
            let total = |bound: &[u32]| -> u64 {
                bound
                    .iter()
                    .zip(&mult)
                    .map(|(&b, &m)| u64::from(b) * u64::from(m))
                    .sum()
            };
            if total(&lower) > u64::from(r) || total(&upper) < u64::from(r) {
                continue;
            }
            feasible += 1;
            let limits = |idle| Limits {
                resolution: r,
                lower: &lower,
                upper: &upper,
                multiplicity: &mult,
                tie_priority: &priority,
                idle,
            };
            let value = |j: usize, w: u32| tables[j][w as usize];
            let got = greedy(&limits(&idle), value, &mut cursor);
            let want = greedy(&limits(&[]), value, &mut heap);
            assert_eq!(cursor.weights, heap.weights, "case {case}");
            assert_eq!(got, want, "case {case}");
            let raised = |j: usize| heap.weights[j] > lower[j];
            if (0..n).any(|j| idle[j] && raised(j)) && (0..n).any(|j| zero_prefixed[j] && raised(j))
            {
                interleaved += 1;
            }
        }
        assert!(feasible > 350, "only {feasible} feasible cases");
        assert!(interleaved > 300, "only {interleaved} interleaved cases");
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
