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

use crate::function::{fill_predicted, BlockingRateFunction};
use crate::pava::PavaScratch;

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

/// Retained working memory that computes a cluster's pooled predicted-rate
/// row without constructing a [`BlockingRateFunction`] (and hence without
/// allocating): member raw points are accumulated into dense per-weight
/// sum/count arrays, regressed with the shared PAVA scratch, and expanded
/// through the same table fill the per-connection functions use — the
/// resulting row is bit-identical to
/// `aggregate_functions(members, _).predicted()` (averaging order included),
/// which a unit test below pins down.
#[derive(Debug, Clone, Default)]
pub(crate) struct AggregateScratch {
    /// Per-weight rate sums (dense, `R + 1` wide once warmed).
    sum: Vec<f64>,
    /// Per-weight observation counts (dense).
    cnt: Vec<u32>,
    /// Weights with data this run (reset targets for the next run).
    touched: Vec<u32>,
    /// Parallel fit inputs/outputs, axiom point first.
    xs: Vec<u32>,
    ys: Vec<f64>,
    ws: Vec<f64>,
    fit: Vec<f64>,
    pava: PavaScratch,
}

impl AggregateScratch {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Fills `out` (length `R + 1`) with the pooled predicted rates of
    /// `members` (indices into `functions`).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or a member's raw weight falls outside
    /// `out`'s domain.
    pub(crate) fn pooled_row(
        &mut self,
        functions: &[BlockingRateFunction],
        members: &[usize],
        out: &mut [f64],
    ) {
        assert!(!members.is_empty(), "cluster must have at least one member");
        if self.sum.len() < out.len() {
            self.sum.resize(out.len(), 0.0);
            self.cnt.resize(out.len(), 0);
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
        self.xs.clear();
        self.ys.clear();
        self.ws.clear();
        // The (0, 0) axiom point every function carries.
        self.xs.push(0);
        self.ys.push(0.0);
        self.ws.push(1.0);
        for &w in &self.touched {
            self.xs.push(w);
            self.ys
                .push(self.sum[w as usize] / f64::from(self.cnt[w as usize]));
            self.ws.push(f64::from(self.cnt[w as usize]));
        }
        self.pava.fit_into(&self.ys, &self.ws, &mut self.fit);
        fill_predicted(&self.xs, &self.fit, out);
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

    #[test]
    fn pooled_row_matches_aggregate_functions_bitwise() {
        let mut state = 0xA66E_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let resolution = 200u32;
        let functions: Vec<BlockingRateFunction> = (0..8)
            .map(|_| {
                let mut f = BlockingRateFunction::new(resolution, 0.5);
                for _ in 0..(next() % 8) {
                    let w = (next() % u64::from(resolution) + 1) as u32;
                    f.observe(w, (next() % 500) as f64 * 1e-3);
                }
                f
            })
            .collect();
        let mut scratch = AggregateScratch::new();
        let mut row = vec![0.0; resolution as usize + 1];
        // Re-use the scratch across clusters (overlapping members included)
        // to prove the per-run reset is complete.
        for members in [vec![0usize, 1, 2], vec![2, 5, 6, 7], vec![3], vec![0, 7]] {
            scratch.pooled_row(&functions, &members, &mut row);
            let refs: Vec<&BlockingRateFunction> = members.iter().map(|&m| &functions[m]).collect();
            let mut pooled = aggregate_functions(&refs, 0.5);
            let expect = pooled.predicted();
            assert_eq!(row.len(), expect.len());
            for (w, (got, want)) in row.iter().zip(expect).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "members {members:?} weight {w}"
                );
            }
        }
    }
}
