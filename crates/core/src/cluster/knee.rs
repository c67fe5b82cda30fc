//! Knee extraction from predictive blocking-rate functions.
//!
//! Predictive functions "tend to have a sharp knee at a particular weight
//! `w_{j,s}`, which is effectively the service rate for channel j": below
//! the knee the function is zero, above it blocking grows. The clustering
//! distance compares three features: the knee position, the blocking at the
//! knee, and the blocking at full load.

use crate::function::{BlockingRateFunction, MonotoneFit};
use crate::DELTA;

/// The characteristic features of a predictive function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knee {
    /// `w_{j,s}`: the first weight (in units, `>= 1`) where the predicted
    /// blocking rate exceeds [`DELTA`]. Equal to the resolution `R` when the
    /// function never predicts blocking.
    pub service_weight: u32,
    /// `F_j(w_{j,s})`: blocking at the knee, floored at [`DELTA`].
    pub rate_at_knee: f64,
    /// `F_j(R)`: blocking at full load, floored at [`DELTA`].
    pub rate_at_max: f64,
}

/// Extracts the knee of a predicted function (a slice of length `R + 1`).
///
/// # Panics
///
/// Panics if `predicted.len() < 2`.
///
/// # Examples
///
/// ```
/// use streambal_core::cluster::knee_of;
///
/// // No blocking until weight 3, then rising.
/// let f = [0.0, 0.0, 0.0, 0.1, 0.2];
/// let k = knee_of(&f);
/// assert_eq!(k.service_weight, 3);
/// assert_eq!(k.rate_at_knee, 0.1);
/// assert_eq!(k.rate_at_max, 0.2);
/// ```
pub fn knee_of(predicted: &[f64]) -> Knee {
    assert!(
        predicted.len() >= 2,
        "function domain must have at least two points"
    );
    let r = predicted.len() - 1;
    let service_weight = predicted
        .iter()
        .position(|&v| v > DELTA)
        .unwrap_or(r)
        .max(1) as u32;
    Knee {
        service_weight,
        rate_at_knee: predicted[service_weight as usize].max(DELTA),
        rate_at_max: predicted[r].max(DELTA),
    }
}

/// Extracts the knee of a [`BlockingRateFunction`] from its monotone fit.
///
/// The crossing segment is located on the fit's knots (one per *raw
/// observation*, typically a few dozen), then the exact crossing weight is
/// binary-searched with point queries on the fit — the same reads
/// [`value`](BlockingRateFunction::value) answers — so the result equals
/// `knee_of(&f.predicted())` while costing `O(raw · log R)` instead of
/// `O(R)` per changed function. Every round's decay can move the
/// generation of each function that has blocked (an idle, all-zero function
/// keeps its generation), so this is what keeps the knee refresh of a wide
/// region's loaded connections off the round's critical path.
///
/// An all-zero function is not refitted for its zero observations, so a
/// fresh one that only ever saw `+0.0` gets the never-blocks knee
/// `(R, DELTA, DELTA)` from its one-knot fit in `O(1)`.
pub fn knee_of_function(f: &mut BlockingRateFunction) -> Knee {
    let r = f.resolution();
    let fit = f.fit();
    let service_weight = first_blocking_weight(fit, r).unwrap_or(r).max(1);
    Knee {
        service_weight,
        rate_at_knee: fit.value(service_weight).max(DELTA),
        rate_at_max: fit.value(r).max(DELTA),
    }
}

/// The first weight in `0..=r` at which `fit` predicts blocking above
/// [`DELTA`], if any — the position a dense table's
/// `iter().position(|&v| v > DELTA)` finds, located by point queries.
pub(crate) fn first_blocking_weight(fit: &mut MonotoneFit, r: u32) -> Option<u32> {
    // The fit is non-decreasing and its value at the (0, 0) axiom knot is
    // 0 (the global minimum, so PAVA can never pool it upwards), hence the
    // first knot above DELTA — if any — ends the segment containing the
    // first crossing.
    let (xs, ys) = fit.knots();
    let (mut lo, mut hi) = match ys.iter().position(|&v| v > DELTA) {
        Some(k) => (xs[k - 1], xs[k]),
        // No knot predicts blocking: any crossing lies in the extrapolated
        // tail (monotone as well).
        None => (*xs.last().expect("a fit holds the axiom point"), r),
    };
    if hi == lo || fit.value(hi) <= DELTA {
        return None;
    }
    // First weight in (lo, hi] whose prediction exceeds DELTA; the
    // invariant value(lo) <= DELTA < value(hi) holds throughout.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fit.value(mid) > DELTA {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_function_has_knee_at_max() {
        let f = vec![0.0; 11];
        let k = knee_of(&f);
        assert_eq!(k.service_weight, 10);
        assert_eq!(k.rate_at_knee, DELTA);
        assert_eq!(k.rate_at_max, DELTA);
    }

    #[test]
    fn immediate_blocking_has_knee_at_one() {
        // The paper's "severe blocking even with 0.001 of the load" channel.
        let f: Vec<f64> = (0..=10).map(|i| i as f64 * 5.0).collect();
        let k = knee_of(&f);
        assert_eq!(k.service_weight, 1);
        assert_eq!(k.rate_at_knee, 5.0);
        assert_eq!(k.rate_at_max, 50.0);
    }

    #[test]
    fn rates_floored_at_delta() {
        let mut f = vec![0.0; 11];
        f[10] = DELTA / 2.0;
        let k = knee_of(&f);
        assert_eq!(k.rate_at_max, DELTA);
    }

    #[test]
    fn an_all_zero_function_has_the_never_blocks_knee() {
        for resolution in [1, 100, 4096] {
            let mut f = BlockingRateFunction::new(resolution, 0.5);
            for w in [1, resolution / 3, resolution, resolution / 3] {
                f.observe(w.max(1), 0.0);
                let knee = knee_of_function(&mut f);
                assert_eq!(knee, knee_of(&f.predicted()), "R {resolution}");
                assert_eq!(knee.service_weight, resolution);
                assert_eq!(f.fit().knots().0.len(), 1, "R {resolution}");
                assert_eq!(first_blocking_weight(f.fit(), resolution), None);
            }
        }
    }

    #[test]
    fn knee_of_function_matches_dense_table_knee() {
        // Seeded random observe/decay histories: the fit-based fast path
        // must agree with the dense-table knee bit for bit, including the
        // never-blocks and extrapolated-crossing shapes.
        let mut state = 0xBADC_0FFE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..300u32 {
            let resolution = [100, 1000, 2048][(case % 3) as usize];
            let mut f = BlockingRateFunction::new(resolution, 0.5);
            for _ in 0..(next() % 12) {
                let w = (next() % u64::from(resolution) + 1) as u32;
                // Mix of zero, tiny (sub-DELTA) and substantial rates so
                // crossings land on every side of the noise floor.
                let rate = match next() % 4 {
                    0 => 0.0,
                    1 => DELTA * 0.4,
                    2 => (next() % 1000) as f64 * 1e-5,
                    _ => (next() % 1000) as f64 * 1e-2,
                };
                f.observe(w, rate);
                if next() % 3 == 0 {
                    f.decay_above((next() % u64::from(resolution)) as u32, 0.9);
                }
            }
            let fast = knee_of_function(&mut f);
            let dense = knee_of(&f.predicted());
            assert_eq!(fast.service_weight, dense.service_weight, "case {case}");
            assert_eq!(
                fast.rate_at_knee.to_bits(),
                dense.rate_at_knee.to_bits(),
                "case {case}"
            );
            assert_eq!(
                fast.rate_at_max.to_bits(),
                dense.rate_at_max.to_bits(),
                "case {case}"
            );
        }
    }
}
