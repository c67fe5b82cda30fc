//! Clustering of connections with similar blocking-rate functions (§5.3).
//!
//! With many connections the fixed budget of blocking observations spreads
//! thin and each per-connection function becomes unreliable. The paper's
//! systems insight is that performance is correlated per host, so
//! connections are grouped by *function shape*: each predictive function has
//! a sharp knee at its effective service rate, and two functions are close
//! when their knees, knee heights and full-load heights agree within small
//! log-ratios. Clusters pool their members' raw data into one robust
//! function, the [minimax optimization](crate::solver) runs over clusters
//! (with multiplicities), and the per-cluster weight is shared by every
//! member.

mod agglomerative;
mod distance;
mod knee;

pub use agglomerative::{cluster, condensed_index, condensed_len, ClusterScratch, Clustering};
pub use distance::{alpha, distance, feature_distance, fill_condensed, log_features};
pub(crate) use knee::first_blocking_weight;
pub use knee::{knee_of, knee_of_function, Knee};

use crate::function::{BlockingRateFunction, MonotoneFit};

/// Builds the pooled function for a cluster by merging the raw data points
/// of all member functions (duplicate weights are averaged).
///
/// # Panics
///
/// Panics if `members` is empty or the members disagree on resolution.
pub fn aggregate_functions(
    members: &[&BlockingRateFunction],
    alpha_smoothing: f64,
) -> BlockingRateFunction {
    assert!(!members.is_empty(), "cluster must have at least one member");
    let resolution = members[0].resolution();
    assert!(
        members.iter().all(|m| m.resolution() == resolution),
        "members must share a resolution"
    );
    let points = members.iter().flat_map(|m| m.raw_points());
    BlockingRateFunction::from_raw_points(resolution, alpha_smoothing, points)
}

/// Retained working memory that holds each cluster's pooled fit without
/// constructing a [`BlockingRateFunction`] (and hence without allocating
/// once warm): member raw points are accumulated into per-weight sum/count
/// arrays and regressed into the cluster's [`MonotoneFit`], which the
/// clustered round then reads by point query like a slot's own fit. A
/// pooled fit's value at every weight is bit-identical to
/// `aggregate_functions(members, _).predicted()` (averaging order
/// included), which a unit test below pins down.
#[derive(Debug, Clone, Default)]
pub(crate) struct AggregateScratch {
    /// Per-weight rate sums (dense, `R + 1` wide once warmed).
    sum: Vec<f64>,
    /// Per-weight observation counts (dense).
    cnt: Vec<u32>,
    /// Weights with data this run (reset targets for the next run).
    touched: Vec<u32>,
    /// One pooled fit per cluster of the current partition (grows to the
    /// largest cluster count seen; each keeps its buffers).
    fits: Vec<MonotoneFit>,
}

impl AggregateScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Refits pooled fit `c` from the raw points of `members` (indices
    /// into `functions`) and returns it.
    ///
    /// `idle[m]` must imply that member `m`'s function is all-zero. When
    /// every member is idle, every pooled average is `+0.0` and so is the
    /// fit at every weight: fit `c` becomes the `(0, 0)` axiom's fit,
    /// which answers every weight with the same bits, and no member is
    /// read. A wide region's idle cluster costs one flag per member.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub(crate) fn pool(
        &mut self,
        c: usize,
        functions: &[BlockingRateFunction],
        idle: &[bool],
        members: &[usize],
    ) -> &mut MonotoneFit {
        assert!(!members.is_empty(), "cluster must have at least one member");
        if self.fits.len() <= c {
            self.fits.resize_with(c + 1, MonotoneFit::new);
        }
        if members.iter().all(|&m| idle[m]) {
            self.fits[c].set_axiom();
            return &mut self.fits[c];
        }
        let width = functions[members[0]].resolution() as usize + 1;
        if self.sum.len() < width {
            self.sum.resize(width, 0.0);
            self.cnt.resize(width, 0);
        }
        // Reset only the weights the previous run touched.
        for &w in &self.touched {
            self.sum[w as usize] = 0.0;
            self.cnt[w as usize] = 0;
        }
        self.touched.clear();
        // Member-major accumulation: the same per-weight summation order
        // `from_raw_points` sees from the members' flat-mapped raw points,
        // so the averaged values match bit for bit.
        for &m in members {
            for (w, v) in functions[m].raw_points() {
                if w == 0 {
                    continue;
                }
                if self.cnt[w as usize] == 0 {
                    self.touched.push(w);
                }
                self.sum[w as usize] += v;
                self.cnt[w as usize] += 1;
            }
        }
        self.touched.sort_unstable();
        let (sum, cnt) = (&self.sum, &self.cnt);
        // The (0, 0) axiom point every function carries, then the averages.
        let points = self.touched.iter().map(|&w| {
            let n = f64::from(cnt[w as usize]);
            (w, sum[w as usize] / n, n)
        });
        self.fits[c].refit(std::iter::once((0, 0.0, 1.0)).chain(points));
        &mut self.fits[c]
    }

    /// The pooled fits [`pool`](Self::pool) built, by cluster index.
    pub(crate) fn fits(&mut self) -> &mut [MonotoneFit] {
        &mut self.fits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_pools_member_data() {
        let mut a = BlockingRateFunction::new(100, 1.0);
        a.observe(50, 0.2);
        let mut b = BlockingRateFunction::new(100, 1.0);
        b.observe(50, 0.4);
        b.observe(80, 1.0);
        let mut g = aggregate_functions(&[&a, &b], 1.0);
        assert!(
            (g.value(50) - 0.3).abs() < 1e-12,
            "averaged at shared weight"
        );
        assert!((g.value(80) - 1.0).abs() < 1e-12, "kept unique point");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn aggregate_rejects_empty() {
        let _ = aggregate_functions(&[], 0.5);
    }

    /// Pools `members` into fit `c` of `scratch` and compares its value at
    /// every weight with `aggregate_functions(..).predicted()`, bit for bit.
    fn assert_pooled_fit_matches(
        scratch: &mut AggregateScratch,
        c: usize,
        functions: &[BlockingRateFunction],
        members: &[usize],
    ) {
        let idle: Vec<bool> = functions.iter().map(|f| f.is_all_zero()).collect();
        let fit = scratch.pool(c, functions, &idle, members);
        let refs: Vec<&BlockingRateFunction> = members.iter().map(|&m| &functions[m]).collect();
        let expect = aggregate_functions(&refs, 0.5).predicted();
        assert_eq!(expect.len(), functions[0].resolution() as usize + 1);
        for (w, want) in expect.iter().enumerate() {
            assert_eq!(
                fit.value(w as u32).to_bits(),
                want.to_bits(),
                "cluster {c} of {} members, weight {w}",
                members.len()
            );
        }
    }

    /// `n` functions over `0..=resolution` with up to seven seeded
    /// observations each.
    fn random_functions(n: usize, resolution: u32, seed: u64) -> Vec<BlockingRateFunction> {
        let mut rng = crate::rng::SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let mut f = BlockingRateFunction::new(resolution, 0.5);
                for _ in 0..rng.range_usize(0, 7) {
                    f.observe(rng.range_u32(1, resolution), rng.frange(0.0, 0.5));
                }
                f
            })
            .collect()
    }

    #[test]
    fn pooled_fits_match_aggregate_functions_bitwise() {
        let mut scratch = AggregateScratch::new();
        // Re-use the scratch across clusters (overlapping members included)
        // and refit each pooled fit with other members on a second pass, to
        // prove the per-run reset is complete.
        let clusters = [vec![0usize, 1, 2], vec![2, 5, 6, 7], vec![3], vec![0, 7]];
        for resolution in [200, 4096] {
            let functions = random_functions(8, resolution, 0xA66E);
            for pass in 0..2 {
                for (c, members) in clusters.iter().enumerate() {
                    let c = if pass == 0 { c } else { clusters.len() - 1 - c };
                    assert_pooled_fit_matches(&mut scratch, c, &functions, members);
                }
            }
        }

        // A wide region's idle cluster: 1 200 members that have only ever
        // seen a zero rate, at weights of their own, plus one loaded member.
        let resolution = 4096;
        let mut rng = crate::rng::SplitMix64::new(0x1D1E);
        let mut functions: Vec<BlockingRateFunction> = (0..1_200)
            .map(|_| {
                let mut f = BlockingRateFunction::new(resolution, 0.5);
                for _ in 0..rng.range_usize(1, 3) {
                    f.observe(rng.range_u32(1, 16), 0.0);
                }
                f
            })
            .collect();
        let mut loaded = BlockingRateFunction::new(resolution, 0.5);
        for (w, rate) in [(3, 0.02), (5, 0.3), (8, 0.1), (12, 0.7)] {
            loaded.observe(w, rate);
        }
        functions.push(loaded);
        let members: Vec<usize> = (0..functions.len()).collect();
        assert_pooled_fit_matches(&mut scratch, 0, &functions, &members);
        assert_pooled_fit_matches(&mut scratch, 1, &functions, &members[..1_200]);
    }

    #[test]
    fn an_idle_cluster_pools_the_axiom_fit() {
        let resolution = 1000;
        let mut rng = crate::rng::SplitMix64::new(0x001D_1EC1);
        let mut functions: Vec<BlockingRateFunction> = (0..40)
            .map(|_| {
                let mut f = BlockingRateFunction::new(resolution, 0.5);
                for _ in 0..rng.range_usize(0, 4) {
                    let w = rng.range_u32(1, resolution);
                    f.observe(w, 0.0);
                    f.observe(w, 0.0);
                }
                f
            })
            .collect();
        let mut loaded = BlockingRateFunction::new(resolution, 0.5);
        loaded.observe(300, 0.2);
        let mut signed = BlockingRateFunction::new(resolution, 0.5);
        signed.observe(500, -0.0);
        functions.extend([loaded, signed]);
        let idle_members: Vec<usize> = (0..40).collect();
        let mut scratch = AggregateScratch::new();
        for extra in [40, 41] {
            // Every member idle: the zero fit, as the pooled general path
            // would give it bit for bit.
            assert_pooled_fit_matches(&mut scratch, 0, &functions, &idle_members);
            assert_eq!(scratch.fits()[0].knots(), (&[0u32][..], &[0.0][..]));
            // One loaded or `-0.0` member sends the cluster down the pooled
            // path, which must still clear what the pooled run before the
            // idle one accumulated.
            let mut members = idle_members.clone();
            members.push(extra);
            assert_pooled_fit_matches(&mut scratch, 0, &functions, &members);
            assert!(scratch.fits()[0].knots().0.len() > 1, "member {extra}");
        }
    }
}
