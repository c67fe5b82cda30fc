//! Per-connection predictive blocking-rate functions `F_j(w_j)`.
//!
//! The x-axis is the discrete allocation weight (units of `1/R`, default
//! 0.1%); the y-axis is the blocking rate the connection experienced — or is
//! predicted to experience — at that weight. Following §5.1 of the paper, a
//! function is derived in three steps:
//!
//! 1. new data is smoothed into the existing raw data (EWMA per weight; the
//!    point `(0, 0)` is assumed),
//! 2. the raw points are forced into non-decreasing order by
//!    [monotone regression](crate::pava), and
//! 3. missing points in the domain are filled by linear interpolation, with
//!    linear extrapolation past the last observation.
//!
//! Only steps 1 and 2 are stored: the function *is* its monotone fit (one
//! knot per raw point), and step 3 happens at read time, one weight per
//! point query ([`BlockingRateFunction::value`]). No dense `R + 1`-point
//! table is kept; [`BlockingRateFunction::predicted`] builds one on demand.
//!
//! The adaptive balancer additionally applies an *exploration decay*
//! ([`BlockingRateFunction::decay_above`]): every round, all raw values above
//! the current allocation weight shrink by 10%, so stale pessimism erodes
//! and the optimizer eventually re-explores higher weights.

use std::collections::BTreeMap;
use std::fmt;

use crate::pava::PavaScratch;

/// The EWMA weight the balancer gives a new observation at an
/// already-observed weight: the paper's "appropriately smoothed single
/// blocking rate value".
pub const SMOOTHING: f64 = 0.5;

/// Predictive blocking-rate function for one connection.
///
/// # Examples
///
/// ```
/// use streambal_core::function::BlockingRateFunction;
///
/// let mut f = BlockingRateFunction::new(1000, 0.5);
/// f.observe(500, 0.2); // blocked 20% of the interval at weight 50.0%
/// assert_eq!(f.value(0), 0.0);
/// assert!((f.value(500) - 0.2).abs() < 1e-12);
/// assert!(f.value(250) > 0.0); // interpolated
/// assert!(f.value(1000) > f.value(500)); // extrapolated
/// ```
#[derive(Debug, Clone)]
pub struct BlockingRateFunction {
    resolution: u32,
    alpha: f64,
    /// Raw smoothed observations, keyed by weight units: `(rate, count)`
    /// where `count` is how many samples were folded in (used to weight the
    /// monotone regression — a frequently-confirmed point should not be
    /// pooled away by a single noisy neighbour). Always contains `(0, 0.0)`.
    raw: BTreeMap<u32, (f64, f64)>,
    /// The monotone fit of `raw`, which answers every prediction.
    fit: MonotoneFit,
    /// `fit` is stale relative to `raw`. A zero rate into an all-zero
    /// function leaves it clean: the fit it would refit to gives `+0.0` at
    /// every weight, the same bits as the fit it has.
    fit_dirty: bool,
    /// Bumped on every mutation that can change predictions; callers use it
    /// to cache per-function derived state (knees) across control rounds.
    generation: u64,
    /// Every raw value is exactly `+0.0`, so the function predicts 0 at
    /// every weight whatever its raw weights and counts: a zero rate or a
    /// decay changes the raw data but not a prediction.
    all_zero: bool,
    /// `(w, n)`: the function holds `n` more `+0.0` samples at weight `w`
    /// than `raw`'s count at `w` says. Only an all-zero function has a run
    /// (`w == 0` means none), and `w` is always a key of `raw`, so a zero
    /// repeated at the weight of the last one costs `n += 1` instead of a
    /// map entry. Every read of the counts adds `n` at `w`; any other
    /// observation folds the run into `raw` first, and `reset` drops it.
    zero_run: (u32, u32),
}

impl BlockingRateFunction {
    /// Creates an empty function over weights `0..=resolution`.
    ///
    /// `alpha` is the EWMA weight given to new observations at an
    /// already-observed weight.
    ///
    /// # Panics
    ///
    /// Panics if `resolution == 0` or `alpha` is not in `(0, 1]`.
    pub fn new(resolution: u32, alpha: f64) -> Self {
        assert!(resolution > 0, "resolution must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        let mut raw = BTreeMap::new();
        raw.insert(0, (0.0, 1.0));
        BlockingRateFunction {
            resolution,
            alpha,
            raw,
            fit: MonotoneFit::new(),
            fit_dirty: false,
            generation: 0,
            all_zero: true,
            zero_run: (0, 0),
        }
    }

    /// The number of discrete units `R` in the weight domain.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// A counter that moves whenever the predictions may have changed:
    /// [`observe`](Self::observe), an effective
    /// [`decay_above`](Self::decay_above), [`reset`](Self::reset).
    ///
    /// A function whose raw values are all exactly zero predicts 0 at every
    /// weight, so while that holds a zero-rate `observe` (which still
    /// records the point and its count, if only in the zero run) and
    /// `decay_above` leave the generation alone; the first positive rate
    /// moves it. A wide region's idle connections therefore keep their
    /// generation round after round.
    ///
    /// Callers cache derived per-function state (clustering knees) keyed by
    /// this value and skip recomputation while it is unchanged.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records a blocking-rate observation at the given allocation weight.
    ///
    /// Observations at weight zero are ignored — `(0, 0)` is an axiom of the
    /// model (a connection receiving no tuples cannot block). If the weight
    /// was observed before, the new rate is folded in by EWMA. A zero rate
    /// into an all-zero function moves no [`generation`](Self::generation);
    /// repeated at the weight of the previous zero, it only counts one
    /// more sample in place (EWMA of `+0.0` into `+0.0` is `+0.0`), which
    /// [`raw_points_weighted`](Self::raw_points_weighted) and the fit
    /// read as a count like any other.
    ///
    /// # Panics
    ///
    /// Panics if `weight > resolution` or `rate` is negative/non-finite.
    #[inline]
    pub fn observe(&mut self, weight: u32, rate: f64) {
        // A run's weight is a raw key (so in the domain) and never 0, and
        // a run exists only while the function is all-zero.
        let (w, n) = self.zero_run;
        if weight == w && w != 0 && rate.to_bits() == 0 && n < u32::MAX {
            self.zero_run.1 = n + 1;
            return;
        }
        self.observe_entry(weight, rate);
    }

    /// [`observe`](Self::observe) past the zero-run check: the map entry.
    #[inline(never)]
    fn observe_entry(&mut self, weight: u32, rate: f64) {
        assert!(weight <= self.resolution, "weight out of domain");
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be finite and >= 0"
        );
        if weight == 0 {
            return;
        }
        // Fold the zero run: its samples join its weight's count.
        let (run_w, n) = std::mem::take(&mut self.zero_run);
        if n > 0 {
            self.raw
                .get_mut(&run_w)
                .expect("a run's weight is a raw key")
                .1 += f64::from(n);
        }
        let alpha = self.alpha;
        self.raw
            .entry(weight)
            .and_modify(|(v, count)| {
                *v = alpha * rate + (1.0 - alpha) * *v;
                *count += 1.0;
            })
            .or_insert((rate, 1.0));
        // EWMA of +0.0 into +0.0 is +0.0; -0.0 would be stored as is, so
        // only the bits of +0.0 keep the function all-zero, and its fit
        // (`+0.0` at every knot, whatever the knots) stays as it is.
        if self.all_zero && rate.to_bits() == 0 {
            self.zero_run = (weight, 0);
        } else {
            self.all_zero = false;
            self.mark_changed();
        }
    }

    /// Applies one round of exploration decay: every raw value at a weight
    /// strictly above `weight` is multiplied by `factor`.
    ///
    /// The paper reduces such values by a fixed 10% per round
    /// (`factor = 0.9`); combined with monotone regression this flattens the
    /// function beyond the current allocation and induces re-exploration.
    /// An all-zero function is left as it is (0 × `factor` is 0).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= factor <= 1`.
    pub fn decay_above(&mut self, weight: u32, factor: f64) {
        assert!((0.0..=1.0).contains(&factor), "factor must be in [0, 1]");
        if self.all_zero {
            return;
        }
        let mut changed = false;
        for (_, (v, _)) in self.raw.range_mut(weight.saturating_add(1)..) {
            *v *= factor;
            changed = true;
        }
        if changed {
            self.mark_changed();
        }
    }

    fn mark_changed(&mut self) {
        self.fit_dirty = true;
        self.generation = self.generation.wrapping_add(1);
    }

    /// The predicted blocking rate at every weight in `0..=R`, as a freshly
    /// allocated copy of length `R + 1` (non-decreasing).
    ///
    /// The function keeps no such table: this fills one from the monotone
    /// fit on every call, for tests, plots and dense-table solves. The
    /// control round reads [`value`](Self::value) instead; every entry
    /// equals `value` at its weight bit for bit.
    pub fn predicted(&mut self) -> Vec<f64> {
        let mut out = vec![0.0; self.resolution as usize + 1];
        let fit = self.fit();
        fill_predicted(&fit.xs, &fit.fit, &mut out);
        out
    }

    /// The predicted blocking rate at a single weight: a point query on
    /// the monotone fit (`O(1)` when the weight lies in the segment that
    /// answered the previous query, `O(log raw_len)` otherwise), refitting
    /// first if an observation or decay made the fit stale.
    ///
    /// An all-zero function is never refitted for its zero observations,
    /// so a fresh one that only ever saw `+0.0` answers from the one-knot
    /// `(0, 0)` axiom fit in `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if `weight > resolution`.
    pub fn value(&mut self, weight: u32) -> f64 {
        assert!(weight <= self.resolution, "weight out of domain");
        self.fit().value(weight)
    }

    /// Every raw value is exactly `+0.0` (the zero rule of
    /// [`generation`](Self::generation)), so the function predicts `+0.0`
    /// at every weight and never blocks. A cluster of such functions is
    /// pooled without reading their points
    /// ([`AggregateScratch::pool`](crate::cluster::AggregateScratch::pool)).
    /// A function that has seen `-0.0` is not all-zero: its fit keeps the
    /// sign.
    pub(crate) fn is_all_zero(&self) -> bool {
        self.all_zero
    }

    /// Iterates over the raw (smoothed, pre-regression) data points.
    pub fn raw_points(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.raw.iter().map(|(&w, &(v, _))| (w, v))
    }

    /// Iterates over the raw points with their observation counts (the
    /// weights used by the monotone regression). A zero run's samples are
    /// counted at its weight: counts are integer-valued and exact below
    /// 2⁵³, so the sum is the count one map entry per sample would hold.
    pub fn raw_points_weighted(&self) -> impl Iterator<Item = (u32, f64, f64)> + '_ {
        weighted_points(&self.raw, self.zero_run)
    }

    /// Number of distinct weights with raw data (including the axiom point).
    pub fn raw_len(&self) -> usize {
        self.raw.len()
    }

    /// Discards all observations, returning to the empty function.
    pub fn reset(&mut self) {
        self.zero_run = (0, 0);
        self.raw.clear();
        self.raw.insert(0, (0.0, 1.0));
        self.fit_dirty = true;
        self.all_zero = true;
        self.generation = self.generation.wrapping_add(1);
    }

    /// Builds a function directly from raw points (used when aggregating
    /// cluster members). Points at weight 0 are pinned to zero; duplicate
    /// weights are averaged.
    ///
    /// # Panics
    ///
    /// Panics if any weight exceeds `resolution` or any rate is
    /// negative/non-finite.
    pub fn from_raw_points<I>(resolution: u32, alpha: f64, points: I) -> Self
    where
        I: IntoIterator<Item = (u32, f64)>,
    {
        let mut sums: BTreeMap<u32, (f64, u32)> = BTreeMap::new();
        for (w, v) in points {
            assert!(w <= resolution, "weight out of domain");
            assert!(v.is_finite() && v >= 0.0, "rate must be finite and >= 0");
            let e = sums.entry(w).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
        let mut f = BlockingRateFunction::new(resolution, alpha);
        for (w, (sum, n)) in sums {
            if w == 0 {
                continue;
            }
            f.raw.insert(w, (sum / f64::from(n), f64::from(n)));
        }
        f.all_zero = f.raw.values().all(|&(v, _)| v.to_bits() == 0);
        f.mark_changed();
        f
    }

    /// The monotone fit every prediction is read from, refitted first if
    /// an observation or decay changed the raw points.
    pub(crate) fn fit(&mut self) -> &mut MonotoneFit {
        if self.fit_dirty {
            self.fit.refit(weighted_points(&self.raw, self.zero_run));
            self.fit_dirty = false;
        }
        &mut self.fit
    }
}

/// `raw`'s `(weight, value, count)` points with a zero run's `n` samples
/// added to its weight's count (see `BlockingRateFunction::zero_run`).
fn weighted_points(
    raw: &BTreeMap<u32, (f64, f64)>,
    (run_w, n): (u32, u32),
) -> impl Iterator<Item = (u32, f64, f64)> + '_ {
    raw.iter()
        .map(move |(&w, &(v, c))| (w, v, if w == run_w { c + f64::from(n) } else { c }))
}

/// A monotone fit over raw points, read by point query: the knots `xs`
/// (ascending, starting at the `(0, 0)` axiom) carry their PAVA values
/// `fit`; between knots the function is linear, and past the last knot it
/// continues along the final segment's slope.
///
/// A [`BlockingRateFunction`] holds one, and the clustered control round
/// holds one per cluster for the members' pooled data
/// ([`AggregateScratch`](crate::cluster::AggregateScratch)). Its buffers
/// are refilled in place, so a refit allocates nothing once their
/// capacities have warmed up.
#[derive(Debug, Clone)]
pub(crate) struct MonotoneFit {
    xs: Vec<u32>,
    fit: Vec<f64>,
    /// The regression's inputs (raw values, observation counts) and its
    /// block stack: refit scratch, of which only the capacity persists.
    ys: Vec<f64>,
    ws: Vec<f64>,
    pava: PavaScratch,
    /// The segment that answered the last point query (`seg` is the first
    /// knot at or above the queried weight). The solver asks for
    /// consecutive weights, so it usually answers the next one too.
    seg: usize,
}

impl MonotoneFit {
    /// The fit of the `(0, 0)` axiom alone: zero at every weight.
    pub(crate) fn new() -> Self {
        MonotoneFit {
            xs: vec![0],
            fit: vec![0.0],
            ys: Vec::new(),
            ws: Vec::new(),
            pava: PavaScratch::new(),
            seg: 0,
        }
    }

    /// Makes this the fit of the `(0, 0)` axiom alone, as
    /// [`new`](Self::new) builds it, keeping the buffers.
    pub(crate) fn set_axiom(&mut self) {
        self.xs.clear();
        self.xs.push(0);
        self.fit.clear();
        self.fit.push(0.0);
        self.seg = 0;
    }

    /// Refits from `(weight, value, count)` points in ascending weight
    /// order, the `(0, 0)` axiom point first.
    pub(crate) fn refit(&mut self, points: impl IntoIterator<Item = (u32, f64, f64)>) {
        self.xs.clear();
        self.ys.clear();
        self.ws.clear();
        for (x, y, w) in points {
            self.xs.push(x);
            self.ys.push(y);
            self.ws.push(w);
        }
        self.pava.fit_into(&self.ys, &self.ws, &mut self.fit);
    }

    /// The knots and their fitted values, as parallel slices.
    pub(crate) fn knots(&self) -> (&[u32], &[f64]) {
        (&self.xs, &self.fit)
    }

    /// The fitted rate at `weight`, with arithmetic identical to
    /// [`BlockingRateFunction::predicted`]'s dense fill, so a point query
    /// equals the table entry bit for bit.
    pub(crate) fn value(&mut self, weight: u32) -> f64 {
        let xs = &self.xs;
        let fit = &self.fit;
        // k = the first knot at or above `weight` (xs.len() if none).
        let mut k = self.seg;
        if !(k <= xs.len() && (k == 0 || xs[k - 1] < weight) && (k == xs.len() || weight <= xs[k]))
        {
            k = xs.partition_point(|&x| x < weight);
            self.seg = k;
        }
        if k == xs.len() {
            // Extrapolate past the last knot.
            let last = *xs.last().expect("a fit holds the axiom point") as usize;
            let slope = if xs.len() >= 2 {
                let x0 = xs[xs.len() - 2] as usize;
                (fit[xs.len() - 1] - fit[xs.len() - 2]) / (last - x0) as f64
            } else {
                0.0
            };
            fit[xs.len() - 1] + slope * (weight as usize - last) as f64
        } else if xs[k] == weight {
            fit[k]
        } else {
            // Interpolate inside the segment xs[k-1]..xs[k]. k >= 1
            // because xs always starts at weight 0.
            let x0 = xs[k - 1] as usize;
            let x1 = xs[k] as usize;
            let (y0, y1) = (fit[k - 1], fit[k]);
            let span = (x1 - x0) as f64;
            y0 + (y1 - y0) * (weight as usize - x0) as f64 / span
        }
    }
}

/// Fills a dense predicted table (`out.len() == R + 1`) from a monotone
/// fit over raw points: piecewise-linear interpolation between the fit
/// points, linear extrapolation past the last one.
///
/// The one dense form of a fit, behind
/// [`BlockingRateFunction::predicted`]; it is written independently of
/// [`MonotoneFit::value`] so that tests comparing the two check the point
/// query's arithmetic.
fn fill_predicted(xs: &[u32], fit: &[f64], out: &mut [f64]) {
    let r = out.len() - 1;

    // Piecewise-linear fill between consecutive raw points.
    for k in 0..xs.len() {
        let x0 = xs[k] as usize;
        let y0 = fit[k];
        out[x0] = y0;
        if k + 1 < xs.len() {
            let x1 = xs[k + 1] as usize;
            let y1 = fit[k + 1];
            let span = (x1 - x0) as f64;
            for (i, x) in (x0 + 1..x1).enumerate() {
                out[x] = y0 + (y1 - y0) * (i + 1) as f64 / span;
            }
        }
    }

    // Linear extrapolation past the last raw point using the slope of
    // the final segment (non-negative because the fit is monotone).
    let last = *xs.last().expect("raw always contains weight 0") as usize;
    if last < r {
        let slope = if xs.len() >= 2 {
            let x0 = xs[xs.len() - 2] as usize;
            (fit[xs.len() - 1] - fit[xs.len() - 2]) / (last - x0) as f64
        } else {
            0.0
        };
        let base = fit[xs.len() - 1];
        for (i, o) in out[last + 1..=r].iter_mut().enumerate() {
            *o = base + slope * (i + 1) as f64;
        }
    }
}

impl fmt::Display for BlockingRateFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "F({} raw points over 0..={})",
            self.raw.len(),
            self.resolution
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_function_is_zero() {
        let mut f = BlockingRateFunction::new(1000, 0.5);
        assert!(f.predicted().iter().all(|&v| v == 0.0));
        assert_eq!(f.predicted().len(), 1001);
    }

    #[test]
    fn observation_interpolates_from_origin() {
        let mut f = BlockingRateFunction::new(1000, 0.5);
        f.observe(400, 0.4);
        assert!((f.value(200) - 0.2).abs() < 1e-12);
        assert!((f.value(100) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_continues_last_slope() {
        let mut f = BlockingRateFunction::new(1000, 0.5);
        f.observe(400, 0.4);
        f.observe(500, 0.6);
        // Slope past 500 is (0.6-0.4)/100 = 0.002 per unit.
        assert!((f.value(600) - 0.8).abs() < 1e-9);
        assert!((f.value(1000) - 1.6).abs() < 1e-9);
    }

    #[test]
    fn single_point_extrapolates_flat() {
        let mut f = BlockingRateFunction::new(1000, 0.5);
        f.observe(300, 0.3);
        // Only segment is (0,0)..(300,0.3); beyond 300 slope continues.
        assert!((f.value(600) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn ewma_smoothing_at_same_weight() {
        let mut f = BlockingRateFunction::new(1000, 0.5);
        f.observe(500, 0.8);
        f.observe(500, 0.0);
        assert!((f.value(500) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn monotone_regression_fixes_violations() {
        let mut f = BlockingRateFunction::new(1000, 1.0);
        f.observe(200, 0.5);
        f.observe(400, 0.1); // violates monotonicity
        let p = f.predicted();
        assert!(p.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert!((p[200] - 0.3).abs() < 1e-12, "pooled to mean");
        assert!((p[400] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn confirmed_points_outweigh_one_off_noise() {
        // Weight 200 confirmed three times at 0.5; a single noisy 0.1 at
        // weight 400 should barely drag the pooled value down.
        let mut f = BlockingRateFunction::new(1000, 1.0);
        f.observe(200, 0.5);
        f.observe(200, 0.5);
        f.observe(200, 0.5);
        f.observe(400, 0.1);
        let p = f.predicted();
        // Weighted pool: (3*0.5 + 1*0.1) / 4 = 0.4 (vs 0.3 unweighted).
        assert!((p[200] - 0.4).abs() < 1e-12, "got {}", p[200]);
        let counts: Vec<f64> = f.raw_points_weighted().map(|(_, _, c)| c).collect();
        assert_eq!(counts, vec![1.0, 3.0, 1.0]);
    }

    #[test]
    fn observe_at_zero_ignored() {
        let mut f = BlockingRateFunction::new(1000, 0.5);
        f.observe(0, 0.9);
        assert_eq!(f.value(0), 0.0);
        assert_eq!(f.raw_len(), 1);
    }

    #[test]
    fn decay_flattens_above_current_weight() {
        let mut f = BlockingRateFunction::new(1000, 0.5);
        f.observe(300, 0.3);
        f.observe(800, 0.9);
        let before = f.value(800);
        for _ in 0..10 {
            f.decay_above(300, 0.9);
        }
        let after = f.value(800);
        assert!(after < before);
        assert!((after - before * 0.9f64.powi(10)).abs() < 1e-9);
        // Values at or below the current weight are untouched.
        assert!((f.value(300) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn decay_eventually_flattens_to_current_level() {
        let mut f = BlockingRateFunction::new(1000, 0.5);
        f.observe(300, 0.3);
        f.observe(800, 5.0);
        for _ in 0..400 {
            f.decay_above(300, 0.9);
        }
        // Monotone regression keeps the function >= its value at 300.
        assert!(f.value(800) >= f.value(300) - 1e-9);
        assert!(f.value(800) < 0.31);
    }

    #[test]
    fn reset_clears_all_data() {
        let mut f = BlockingRateFunction::new(1000, 0.5);
        f.observe(500, 1.0);
        f.reset();
        assert!(f.predicted().iter().all(|&v| v == 0.0));
        assert_eq!(f.raw_len(), 1);
    }

    #[test]
    fn from_raw_points_averages_duplicates() {
        let mut f = BlockingRateFunction::from_raw_points(1000, 0.5, vec![(500, 0.2), (500, 0.4)]);
        assert!((f.value(500) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn predicted_is_always_monotone() {
        let mut f = BlockingRateFunction::new(100, 0.7);
        let data = [(10, 0.9), (20, 0.1), (50, 0.5), (70, 0.2), (90, 2.0)];
        for (w, v) in data {
            f.observe(w, v);
        }
        let p = f.predicted();
        assert!(p.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert_eq!(p[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "weight out of domain")]
    fn observe_out_of_domain_panics() {
        let mut f = BlockingRateFunction::new(100, 0.5);
        f.observe(101, 0.1);
    }

    #[test]
    fn point_query_matches_the_dense_fill_bitwise() {
        let data = [(10u32, 0.9), (20, 0.1), (50, 0.5), (70, 0.2), (90, 2.0)];
        let mut a = BlockingRateFunction::new(100, 0.7);
        let mut b = BlockingRateFunction::new(100, 0.7);
        for (w, v) in data {
            a.observe(w, v);
            b.observe(w, v);
        }
        // `a` is queried point by point; `b` fills the dense table.
        // Ascending (the remembered segment answers most queries), then
        // descending and in jumps of 37 (it rarely does), then again after
        // the raw points — and with them the segments — changed.
        let sweep = |a: &mut BlockingRateFunction, b: &mut BlockingRateFunction| {
            let table = b.predicted();
            let jumps = (0..=100u32).map(|i| i * 37 % 101);
            for w in (0..=100u32).chain((0..=100).rev()).chain(jumps) {
                assert_eq!(
                    a.value(w).to_bits(),
                    table[w as usize].to_bits(),
                    "mismatch at weight {w}"
                );
            }
        };
        sweep(&mut a, &mut b);
        for f in [&mut a, &mut b] {
            f.observe(5, 0.3);
            f.observe(95, 0.1);
            f.decay_above(40, 0.5);
        }
        sweep(&mut a, &mut b);
    }

    #[test]
    fn an_all_zero_function_answers_like_its_fit() {
        // Zero rates at weights of their own and repeated ones, with decays
        // in between: the fit is never refitted, and it must answer with
        // the bits of a fit refitted from the raw points.
        let mut rng = crate::rng::SplitMix64::new(0x01D1_EF17);
        for resolution in [100, 1000, 4096] {
            let mut f = BlockingRateFunction::new(resolution, 0.5);
            for step in 0..40 {
                let w = rng.range_u32(1, resolution);
                f.observe(w, 0.0);
                if step % 3 == 0 {
                    f.observe(w, 0.0);
                    f.decay_above(rng.range_u32(0, resolution), 0.9);
                }
                assert!(f.is_all_zero());
                assert_eq!(f.fit().knots(), (&[0u32][..], &[0.0][..]));
                let mut general = MonotoneFit::new();
                general.refit(f.raw_points_weighted());
                for w in [0, 1, w - 1, w, resolution / 2, resolution] {
                    assert_eq!(
                        f.value(w).to_bits(),
                        general.value(w).to_bits(),
                        "R {resolution}, w {w}"
                    );
                }
            }
        }
        // A `-0.0` keeps its sign in the fit, so it takes the general path.
        let mut f = BlockingRateFunction::new(100, 0.5);
        f.observe(40, 0.0);
        f.observe(60, -0.0);
        assert!(!f.is_all_zero());
        assert_eq!(f.value(60).to_bits(), (-0.0f64).to_bits());
        assert_eq!(f.value(80).to_bits(), (-0.0f64).to_bits());
        assert_eq!(f.value(50).to_bits(), 0.0f64.to_bits());
    }

    /// The map a function's raw data must equal: one entry update per
    /// sample (EWMA per weight, counts as `f64`s) and the generation rule,
    /// with no zero run.
    struct RawModel {
        raw: BTreeMap<u32, (f64, f64)>,
        all_zero: bool,
        generation: u64,
    }

    impl RawModel {
        fn new() -> Self {
            RawModel {
                raw: BTreeMap::from([(0, (0.0, 1.0))]),
                all_zero: true,
                generation: 0,
            }
        }

        fn observe(&mut self, weight: u32, rate: f64, alpha: f64) {
            if weight == 0 {
                return;
            }
            let e = self.raw.entry(weight).or_insert((rate, 0.0));
            if e.1 > 0.0 {
                e.0 = alpha * rate + (1.0 - alpha) * e.0;
            }
            e.1 += 1.0;
            if !(self.all_zero && rate.to_bits() == 0) {
                self.all_zero = false;
                self.generation += 1;
            }
        }

        fn decay_above(&mut self, weight: u32, factor: f64) {
            if self.all_zero {
                return;
            }
            let mut changed = false;
            for (_, (v, _)) in self.raw.range_mut(weight + 1..) {
                *v *= factor;
                changed = true;
            }
            self.generation += u64::from(changed);
        }

        fn reset(&mut self) {
            *self = RawModel {
                generation: self.generation + 1,
                ..RawModel::new()
            };
        }
    }

    /// Checks every read of `f` against the model: the weighted raw points
    /// (value bits and counts), `raw_len`, the generation, the value bits
    /// at every weight and the knee.
    fn assert_matches_model(f: &mut BlockingRateFunction, model: &RawModel, what: &str) {
        let got: Vec<(u32, u64, f64)> = f
            .raw_points_weighted()
            .map(|(w, v, c)| (w, v.to_bits(), c))
            .collect();
        let want: Vec<(u32, u64, f64)> = model
            .raw
            .iter()
            .map(|(&w, &(v, c))| (w, v.to_bits(), c))
            .collect();
        assert_eq!(got, want, "{what}: raw points");
        assert_eq!(f.raw_len(), model.raw.len(), "{what}: raw_len");
        assert_eq!(f.generation(), model.generation, "{what}: generation");
        let mut fit = MonotoneFit::new();
        fit.refit(model.raw.iter().map(|(&w, &(v, c))| (w, v, c)));
        let table: Vec<f64> = (0..=f.resolution()).map(|w| fit.value(w)).collect();
        for (w, want) in (0..).zip(&table) {
            assert_eq!(f.value(w).to_bits(), want.to_bits(), "{what}: value({w})");
        }
        assert_eq!(
            crate::cluster::knee_of_function(f),
            crate::cluster::knee_of(&table),
            "{what}: knee"
        );
    }

    #[test]
    fn zero_runs_read_like_one_entry_per_sample() {
        // Seeded sequences over 2-4 weights, mostly `+0.0` at the last
        // zero's weight (the run), with weight changes, `-0.0`, positive
        // rates, decays, resets, clones and samples at weight 0 mixed in.
        let mut rng = crate::rng::SplitMix64::new(0x2E50_5E15);
        let (mut run_hits, mut checks) = (0, 0);
        for case in 0..120 {
            let resolution = [16, 64, 100][case % 3];
            let alpha = [0.5, 0.3, 1.0][case % 3];
            let weights: Vec<u32> = (0..rng.range_usize(2, 4))
                .map(|_| rng.range_u32(1, resolution))
                .collect();
            let mut f = BlockingRateFunction::new(resolution, alpha);
            let mut model = RawModel::new();
            let mut w = weights[0];
            for step in 0..80 {
                let what = format!("case {case}, step {step}");
                let op = rng.below(100);
                if op < 15 {
                    w = weights[rng.range_usize(0, weights.len() - 1)];
                }
                match op {
                    0..60 => {
                        run_hits += usize::from(f.zero_run.0 == w);
                        f.observe(w, 0.0);
                        model.observe(w, 0.0, alpha);
                    }
                    60..66 => {
                        f.observe(w, -0.0);
                        model.observe(w, -0.0, alpha);
                    }
                    66..72 => {
                        let rate = rng.frange(0.0, 1.0);
                        f.observe(w, rate);
                        model.observe(w, rate, alpha);
                    }
                    72..76 => {
                        f.observe(0, 0.0);
                        model.observe(0, 0.0, alpha);
                    }
                    76..86 => {
                        let above = rng.range_u32(0, resolution);
                        f.decay_above(above, 0.9);
                        model.decay_above(above, 0.9);
                    }
                    86..90 => {
                        f.reset();
                        model.reset();
                    }
                    90..95 => f = f.clone(),
                    _ => {}
                }
                // Reads refit the function, so check only now and then:
                // runs must also survive steps that do not read.
                if rng.chance(0.3) {
                    assert_matches_model(&mut f, &model, &what);
                    checks += 1;
                }
            }
            assert_matches_model(&mut f, &model, &format!("case {case}, end"));
        }
        assert!(run_hits > 1_000, "only {run_hits} zeros extended a run");
        assert!(checks > 2_000, "only {checks} checks");

        // A run about to overflow its `u32` count folds and starts over.
        let mut f = BlockingRateFunction::new(100, 0.5);
        f.observe(40, 0.0);
        f.observe(40, 0.0);
        f.zero_run.1 = u32::MAX - 1;
        for _ in 0..3 {
            f.observe(40, 0.0);
        }
        // One map entry at the first zero, the full run folded, the entry
        // that ended it, and the new run's one sample.
        let count = 1.0 + f64::from(u32::MAX) + 1.0 + 1.0;
        assert_eq!(f.raw_points_weighted().nth(1), Some((40, 0.0, count)));
        assert_eq!(f.zero_run, (40, 1));
    }

    #[test]
    fn generation_tracks_model_changes() {
        let mut f = BlockingRateFunction::new(100, 0.5);
        let g0 = f.generation();
        f.observe(0, 0.5); // axiom weight: ignored, no change
        assert_eq!(f.generation(), g0);
        f.observe(40, 0.5);
        let g1 = f.generation();
        assert_ne!(g1, g0);
        f.decay_above(90, 0.9); // nothing above 90: no change
        assert_eq!(f.generation(), g1);
        f.decay_above(10, 0.9);
        assert_ne!(f.generation(), g1);
        let g2 = f.generation();
        let _ = f.predicted(); // reads never bump
        assert_eq!(f.generation(), g2);
        f.reset();
        assert_ne!(f.generation(), g2);
    }
}
