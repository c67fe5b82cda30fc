//! Agglomerative (bottom-up) clustering over a pairwise distance matrix.
//!
//! Standard complete-linkage agglomeration: start with singletons and
//! repeatedly merge the two closest clusters while their linkage distance
//! stays below a threshold. Complete linkage (the *maximum* pairwise
//! distance between members) keeps clusters tight, which matters here: a
//! cluster mixing a 100×-loaded channel with an unloaded one would starve or
//! flood its members.
//!
//! The implementation is the nearest-neighbor-chain algorithm over a
//! condensed (upper-triangular) distance array with Lance–Williams updates:
//! O(n²) time and O(n²)/2 memory instead of the naive rescan-every-pair
//! loop's O(n³)–O(n⁴). For complete linkage the Lance–Williams update is a
//! pure `max`, so merge heights are bit-identical to the naive member-pair
//! scan, and the nearest-neighbor scan breaks distance ties towards the
//! smallest cluster label — the same total order the naive reference
//! induces — so the resulting partition is *identical*, not merely
//! equivalent (property-tested against the retained naive oracle below).
//!
//! The controller never builds a matrix over every connection: a wide
//! region has few distinct function shapes, so
//! [`ClusterScratch::cluster_features`] collapses identical feature vectors
//! first and agglomerates only their representatives (exactly — see its
//! docs).
//!
//! All working memory lives in a [`ClusterScratch`] that callers retain
//! across runs, so a controller round clusters without heap allocation.

use std::collections::HashMap;

use super::distance::fill_condensed;

/// Number of entries in a condensed (strict upper-triangular, row-major)
/// pairwise distance matrix over `n` items: `n · (n − 1) / 2`.
#[inline]
pub fn condensed_len(n: usize) -> usize {
    n * (n - 1) / 2
}

/// Index of the pair `(i, j)` with `i < j` in a condensed distance matrix
/// over `n` items.
///
/// Row `i` of the condensed layout stores `(i, i+1) .. (i, n-1)`.
#[inline]
pub fn condensed_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n, "need i < j < n, got i={i} j={j} n={n}");
    // i rows before this one hold (n-1) + (n-2) + ... + (n-i) entries.
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// A clustering result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clustering {
    /// For each item, the id of its cluster (`0..num_clusters`). Cluster ids
    /// are assigned in order of each cluster's smallest member index, so the
    /// labelling is deterministic. Items outside the clustered set (possible
    /// only via [`ClusterScratch::cluster_features`]) carry `usize::MAX`.
    pub assignment: Vec<usize>,
    /// The members of each cluster, sorted ascending.
    pub members: Vec<Vec<usize>>,
}

impl Clustering {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.members.len()
    }
}

/// Retained working memory for the nearest-neighbor-chain clustering.
///
/// Every buffer (the grouping map, the condensed working matrix, the
/// chain, the dendrogram, the union-find for the threshold cut, and a pool
/// of recycled member vectors) is reused across runs: after warm-up,
/// re-clustering the same width performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct ClusterScratch {
    /// Condensed working copy of the distance matrix, mutated in place by
    /// the Lance–Williams merges.
    work: Vec<f64>,
    /// Which packed labels still denote active clusters.
    active: Vec<bool>,
    /// The nearest-neighbor chain (packed labels).
    chain: Vec<u32>,
    /// The full dendrogram: `(survivor, victim, height)` per merge. A
    /// cluster's label is its smallest member, so `survivor < victim`.
    merges: Vec<(u32, u32, f64)>,
    /// Union-find parents for the threshold cut.
    parent: Vec<u32>,
    /// Union-find root → cluster id, filled during the labelling pass.
    cluster_of: Vec<usize>,
    /// Packed label → cluster id, resolved once per label before the
    /// items are written.
    label_cluster: Vec<usize>,
    /// [`cluster_features`](Self::cluster_features): the bits of each
    /// distinct feature vector (`-0.0` read as `0.0`) → its packed label.
    /// Cleared every run; its capacity is kept.
    groups: HashMap<[u64; 3], u32>,
    /// Live position → packed label of its group of identical vectors.
    packed: Vec<u32>,
    /// One feature vector per distinct group, in packed-label order (the
    /// vector of the group's smallest slot).
    reps: Vec<[f64; 3]>,
    /// Recycled member vectors (returned via [`recycle`](Self::recycle)).
    pool: Vec<Vec<usize>>,
}

impl ClusterScratch {
    /// Creates an empty scratch; buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a retired clustering's member vectors to the internal pool so
    /// the next run reuses their capacity instead of allocating.
    pub fn recycle(&mut self, members: &mut Vec<Vec<usize>>) {
        for mut m in members.drain(..) {
            // Vectors whose allocation was moved elsewhere (capacity 0)
            // would only pollute the pool with useless handles.
            if m.capacity() == 0 {
                continue;
            }
            m.clear();
            self.pool.push(m);
        }
    }

    fn grab(&mut self) -> Vec<usize> {
        self.pool.pop().unwrap_or_default()
    }

    /// Clusters `n` items from a condensed distance matrix (see
    /// [`condensed_len`] / [`condensed_index`]), merging while the
    /// complete-linkage distance is at most `threshold`. The result is
    /// written into `out` (whose previous buffers are recycled).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `condensed.len() != condensed_len(n)`. Debug
    /// builds also panic on negative or non-finite distances.
    pub fn cluster_condensed(
        &mut self,
        n: usize,
        condensed: &[f64],
        threshold: f64,
        out: &mut Clustering,
    ) {
        assert!(n > 0, "need at least one item");
        assert_eq!(
            condensed.len(),
            condensed_len(n),
            "condensed matrix must hold n(n-1)/2 entries"
        );
        debug_assert!(
            condensed.iter().all(|&d| d.is_finite() && d >= 0.0),
            "distances must be finite and >= 0"
        );
        self.work.clear();
        self.work.extend_from_slice(condensed);
        self.run(n, threshold);
        self.emit(n, n, (0..n).zip(0..n as u32), out);
    }

    /// Clusters the slots `live` (strictly ascending indices into `feat`)
    /// by their [`log_features`](super::log_features) vectors under the
    /// knee [`feature_distance`](super::feature_distance), merging while
    /// the complete-linkage distance is at most `threshold`. The result is
    /// expressed in slot
    /// indices: `out.assignment` has length `feat.len()` with `usize::MAX`
    /// for slots not in `live`. Returns the number of *distinct* vectors
    /// among the live slots.
    ///
    /// Only the distinct vectors are agglomerated: one hashed pass over
    /// `live` groups the slots by identical vector (`-0.0` equals `0.0`),
    /// each group is represented by its smallest slot, and the
    /// nearest-neighbor chain runs over a local condensed matrix of the `m`
    /// representatives, so a run costs `O(n + m²)` for `n` live slots.
    /// The partition is the one a matrix over *all* live slots gives, not
    /// an approximation of it: the distance is 0 exactly between identical
    /// vectors, which also have identical distance rows, so complete
    /// linkage (ties to the smallest label) first merges every group at
    /// height 0 — within any `threshold >= 0` — and from then on the
    /// linkage between two groups *is* their representatives' distance,
    /// with groups ordered by smallest member just as the representatives
    /// are.
    ///
    /// # Panics
    ///
    /// Panics if `live` is empty or `threshold` is negative or NaN. Debug
    /// builds also check that `live` is strictly ascending and in bounds
    /// and that the live features are finite.
    pub fn cluster_features(
        &mut self,
        live: &[usize],
        feat: &[[f64; 3]],
        threshold: f64,
        out: &mut Clustering,
    ) -> usize {
        assert!(!live.is_empty(), "need at least one live slot");
        assert!(threshold >= 0.0, "threshold must be >= 0, got {threshold}");
        debug_assert!(
            live.windows(2).all(|w| w[0] < w[1]) && live[live.len() - 1] < feat.len(),
            "live must be strictly ascending slot indices into feat"
        );
        debug_assert!(
            live.iter().all(|&j| feat[j].iter().all(|v| v.is_finite())),
            "features must be finite"
        );
        // One pass in slot order: a vector's group is labelled when its
        // smallest member is met, so the packed labels (and `reps`) come out
        // ordered by representative. Adding +0.0 maps -0.0 to +0.0 and
        // leaves every other value alone, so equal vectors share a key.
        // Identical vectors often sit next to each other; the previous
        // slot's key answers those without a lookup.
        self.groups.clear();
        self.packed.clear();
        self.reps.clear();
        let mut prev: Option<([u64; 3], u32)> = None;
        for &j in live {
            let key = feat[j].map(|v| (v + 0.0).to_bits());
            let label = match prev {
                Some((k, label)) if k == key => label,
                _ => {
                    let next = self.reps.len() as u32;
                    let label = *self.groups.entry(key).or_insert(next);
                    if label == next {
                        self.reps.push(feat[j]);
                    }
                    label
                }
            };
            prev = Some((key, label));
            self.packed.push(label);
        }
        let m = self.reps.len();
        self.work.clear();
        self.work.resize(condensed_len(m), 0.0);
        fill_condensed(&self.reps, &mut self.work);
        self.run(m, threshold);
        let packed = std::mem::take(&mut self.packed);
        self.emit(
            m,
            feat.len(),
            live.iter().copied().zip(packed.iter().copied()),
            out,
        );
        self.packed = packed;
        m
    }

    /// Builds the full dendrogram for `m` packed items from `self.work`,
    /// then cuts it at `threshold` into `self.parent`.
    fn run(&mut self, m: usize, threshold: f64) {
        debug_assert_eq!(self.work.len(), condensed_len(m));
        self.active.clear();
        self.active.resize(m, true);
        self.chain.clear();
        self.merges.clear();
        if m > 1 {
            self.chain_merges(m);
        }
        self.cut(m, threshold);
    }

    /// The nearest-neighbor-chain loop: follow nearest-neighbor links until
    /// two clusters are mutual nearest neighbors, merge them with the
    /// Lance–Williams complete-linkage update, repeat until one cluster
    /// remains. Ties are broken towards the smaller label, which makes the
    /// chain's pair order strictly decrease (no cycles) and reproduces the
    /// naive reference's merge choices exactly.
    fn chain_merges(&mut self, m: usize) {
        // Labels never reactivate, so a monotone watermark finds the lowest
        // active label whenever the chain empties.
        let mut seed = 0usize;
        while self.merges.len() < m - 1 {
            if self.chain.is_empty() {
                while !self.active[seed] {
                    seed += 1;
                }
                self.chain.push(seed as u32);
            }
            let top = *self.chain.last().expect("chain seeded above") as usize;
            // Nearest neighbor of `top`: ascending scan with strict `<`, so
            // among equal distances the smallest label wins.
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for j in 0..m {
                if j == top || !self.active[j] {
                    continue;
                }
                let d = self.work[condensed_index(m, top.min(j), top.max(j))];
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            let len = self.chain.len();
            if len >= 2 && best as u32 == self.chain[len - 2] {
                // `top` and its predecessor are mutual nearest neighbors:
                // merge into the smaller label (the union's smallest member)
                // and pop both ends.
                self.chain.truncate(len - 2);
                let survivor = top.min(best);
                let victim = top.max(best);
                self.active[victim] = false;
                for k in 0..m {
                    if k == survivor || k == victim || !self.active[k] {
                        continue;
                    }
                    let sk = condensed_index(m, survivor.min(k), survivor.max(k));
                    let vk = condensed_index(m, victim.min(k), victim.max(k));
                    // Lance–Williams for complete linkage: a pure max, so
                    // merged linkages stay bit-identical to a member-pair
                    // rescan.
                    if self.work[vk] > self.work[sk] {
                        self.work[sk] = self.work[vk];
                    }
                }
                self.merges.push((survivor as u32, victim as u32, best_d));
            } else {
                self.chain.push(best as u32);
            }
        }
    }

    /// Cuts the dendrogram at `threshold`: applies every merge whose height
    /// is within the threshold to a union-find over the packed labels.
    ///
    /// Complete-linkage merge heights are monotone along any root path, so
    /// this flat cut equals stopping the naive loop at the threshold.
    fn cut(&mut self, m: usize, threshold: f64) {
        self.parent.clear();
        self.parent.extend(0..m as u32);
        for idx in 0..self.merges.len() {
            let (a, b, h) = self.merges[idx];
            if h <= threshold {
                // Merge labels are union minima, so linking the larger root
                // under the smaller keeps every root at its cluster's
                // smallest member — which the labelling pass relies on.
                let ra = self.find(a);
                let rb = self.find(b);
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                self.parent[hi as usize] = lo;
            }
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Writes the cut partition over `m` packed labels into `out`, given
    /// every clustered item as `(slot, packed label)` in ascending slot
    /// order (several slots may share a label). Every label has an item,
    /// and labels first appear in ascending order, so resolving the labels
    /// in order numbers the clusters by their first item. Each label's
    /// cluster is found once; an item then costs one table read. Member
    /// lists come out sorted, and ids follow each cluster's smallest
    /// member — the naive labelling.
    fn emit(
        &mut self,
        m: usize,
        n_out: usize,
        items: impl Iterator<Item = (usize, u32)>,
        out: &mut Clustering,
    ) {
        self.recycle(&mut out.members);
        out.assignment.clear();
        out.assignment.resize(n_out, usize::MAX);
        self.cluster_of.clear();
        self.cluster_of.resize(m, usize::MAX);
        self.label_cluster.clear();
        for label in 0..m as u32 {
            let root = self.find(label) as usize;
            if self.cluster_of[root] == usize::MAX {
                self.cluster_of[root] = out.members.len();
                let fresh = self.grab();
                out.members.push(fresh);
            }
            self.label_cluster.push(self.cluster_of[root]);
        }
        for (slot, label) in items {
            let id = self.label_cluster[label as usize];
            out.assignment[slot] = id;
            out.members[id].push(slot);
        }
        debug_assert!(
            out.members.iter().all(|members| !members.is_empty()),
            "every packed label has an item"
        );
    }
}

/// Clusters `n` items given a symmetric pairwise `distances` matrix
/// (row-major `n × n`), merging while the complete-linkage distance is at
/// most `threshold`. Only the strict upper triangle is read.
///
/// This is the allocating convenience wrapper; hot paths keep a
/// [`ClusterScratch`] and call
/// [`cluster_condensed`](ClusterScratch::cluster_condensed) instead.
///
/// # Panics
///
/// Panics if `distances.len() != n * n` or `n == 0`. Debug builds also
/// panic if any distance is negative or non-finite (release rounds skip
/// that O(n²) scan).
///
/// # Examples
///
/// ```
/// use streambal_core::cluster::cluster;
///
/// // Items 0,1 close together; item 2 far away.
/// let d = vec![
///     0.0, 0.1, 9.0,
///     0.1, 0.0, 9.0,
///     9.0, 9.0, 0.0,
/// ];
/// let c = cluster(3, &d, 0.5);
/// assert_eq!(c.assignment, vec![0, 0, 1]);
/// ```
pub fn cluster(n: usize, distances: &[f64], threshold: f64) -> Clustering {
    assert!(n > 0, "need at least one item");
    assert_eq!(distances.len(), n * n, "distance matrix must be n x n");
    debug_assert!(
        distances.iter().all(|&d| d.is_finite() && d >= 0.0),
        "distances must be finite and >= 0"
    );
    let mut condensed = Vec::with_capacity(condensed_len(n));
    for i in 0..n {
        condensed.extend_from_slice(&distances[i * n + i + 1..(i + 1) * n]);
    }
    let mut scratch = ClusterScratch::new();
    let mut out = Clustering {
        assignment: Vec::new(),
        members: Vec::new(),
    };
    scratch.cluster_condensed(n, &condensed, threshold, &mut out);
    out
}

#[cfg(test)]
// Distance matrices below keep the explicit `row * n + col` form even where
// the row is 0, so the symmetric pairs line up visually.
#[allow(clippy::erasing_op, clippy::identity_op)]
mod tests {
    use super::*;
    use crate::cluster::feature_distance;

    /// The original rescan-every-pair implementation, retained verbatim as
    /// the reference oracle for the nearest-neighbor-chain rewrite.
    fn naive_cluster(n: usize, distances: &[f64], threshold: f64) -> Clustering {
        assert!(n > 0, "need at least one item");
        assert_eq!(distances.len(), n * n, "distance matrix must be n x n");

        // Active clusters as member lists; complete-linkage from members.
        let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

        let linkage = |a: &[usize], b: &[usize]| -> f64 {
            let mut worst = 0.0f64;
            for &i in a {
                for &j in b {
                    worst = worst.max(distances[i * n + j]);
                }
            }
            worst
        };

        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for a in 0..clusters.len() {
                for b in a + 1..clusters.len() {
                    let d = linkage(&clusters[a], &clusters[b]);
                    match best {
                        Some((_, _, bd)) if bd <= d => {}
                        _ => best = Some((a, b, d)),
                    }
                }
            }
            match best {
                Some((a, b, d)) if d <= threshold => {
                    let merged = clusters.remove(b);
                    clusters[a].extend(merged);
                    clusters[a].sort_unstable();
                }
                _ => break,
            }
        }

        // Deterministic labelling by smallest member.
        clusters.sort_by_key(|c| c[0]);
        let mut assignment = vec![0usize; n];
        for (id, members) in clusters.iter().enumerate() {
            for &m in members {
                assignment[m] = id;
            }
        }
        Clustering {
            assignment,
            members: clusters,
        }
    }

    fn matrix(n: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        let mut m = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                m[i * n + j] = if i == j { 0.0 } else { f(i.min(j), i.max(j)) };
            }
        }
        m
    }

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn rand_unit(state: &mut u64) -> f64 {
        (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded symmetric matrix; `levels = Some(..)` quantizes every
    /// distance onto the given values, which makes ties ubiquitous.
    fn random_matrix(n: usize, seed: u64, levels: Option<&[f64]>) -> Vec<f64> {
        let mut s = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678);
        let mut m = vec![0.0; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let v = match levels {
                    Some(levels) => levels[(xorshift(&mut s) % levels.len() as u64) as usize],
                    None => rand_unit(&mut s) * 2.0,
                };
                m[i * n + j] = v;
                m[j * n + i] = v;
            }
        }
        m
    }

    fn assert_matches_naive(n: usize, d: &[f64], threshold: f64, what: &str) {
        let fast = cluster(n, d, threshold);
        let naive = naive_cluster(n, d, threshold);
        assert_eq!(fast, naive, "{what}: n={n} threshold={threshold}");
    }

    #[test]
    fn condensed_index_round_trips() {
        for n in 1..=12usize {
            let mut next = 0;
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(condensed_index(n, i, j), next, "n={n} i={i} j={j}");
                    next += 1;
                }
            }
            assert_eq!(condensed_len(n), next);
        }
    }

    #[test]
    fn all_far_stays_singletons() {
        let d = matrix(4, |_, _| 10.0);
        let c = cluster(4, &d, 1.0);
        assert_eq!(c.num_clusters(), 4);
        assert_eq!(c.assignment, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_close_merges_to_one() {
        let d = matrix(5, |_, _| 0.01);
        let c = cluster(5, &d, 1.0);
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.members[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn two_groups_separate() {
        // Items 0-2 in one group, 3-5 in another.
        let d = matrix(6, |i, j| {
            let same = (i < 3) == (j < 3);
            if same {
                0.1
            } else {
                5.0
            }
        });
        let c = cluster(6, &d, 1.0);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.members[0], vec![0, 1, 2]);
        assert_eq!(c.members[1], vec![3, 4, 5]);
        assert_eq!(c.assignment, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn complete_linkage_blocks_chaining() {
        // 0-1 close, 1-2 close, but 0-2 far: complete linkage must not put
        // all three together.
        let mut d = matrix(3, |_, _| 0.0);
        d[0 * 3 + 1] = 0.1;
        d[1 * 3 + 0] = 0.1;
        d[1 * 3 + 2] = 0.1;
        d[2 * 3 + 1] = 0.1;
        d[0 * 3 + 2] = 9.0;
        d[2 * 3 + 0] = 9.0;
        let c = cluster(3, &d, 1.0);
        assert_eq!(c.num_clusters(), 2, "chaining should be prevented");
    }

    #[test]
    fn singleton_input() {
        let c = cluster(1, &[0.0], 1.0);
        assert_eq!(c.assignment, vec![0]);
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn threshold_zero_merges_only_identical() {
        let mut d = matrix(3, |_, _| 1.0);
        d[0 * 3 + 1] = 0.0;
        d[1 * 3 + 0] = 0.0;
        let c = cluster(3, &d, 0.0);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.assignment[0], c.assignment[1]);
    }

    #[test]
    fn nn_chain_matches_naive_on_random_matrices() {
        let thresholds = [0.3, 0.7, 1.0, 1.6];
        for n in 1..=64usize {
            for (t, &threshold) in thresholds.iter().enumerate() {
                let d = random_matrix(n, (n * 31 + t) as u64, None);
                assert_matches_naive(n, &d, threshold, "continuous");
            }
        }
    }

    #[test]
    fn nn_chain_matches_naive_with_ties() {
        // Quantized distances make equal-distance merge candidates the norm
        // rather than the exception, exercising the tie-break path hard.
        let levels = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5];
        let thresholds = [0.25, 0.5, 0.75, 1.0];
        for n in 2..=64usize {
            for (t, &threshold) in thresholds.iter().enumerate() {
                let d = random_matrix(n, (n * 77 + t) as u64, Some(&levels));
                assert_matches_naive(n, &d, threshold, "quantized");
            }
        }
    }

    #[test]
    fn nn_chain_matches_naive_at_larger_widths() {
        for seed in [1u64, 2] {
            let d = random_matrix(128, seed, None);
            assert_matches_naive(128, &d, 0.5, "continuous 128");
        }
        let levels = [0.1, 0.4, 0.9, 2.0];
        let d = random_matrix(128, 3, Some(&levels));
        assert_matches_naive(128, &d, 0.5, "quantized 128");

        // At 512 keep the naive oracle affordable: a low threshold keeps
        // merges sparse, so its O(k²) rescans stay on small member lists.
        let d = random_matrix(512, 9, None);
        assert_matches_naive(512, &d, 0.02, "continuous 512");
    }

    /// Checks `cluster_features` over `live` against the naive oracle run
    /// on the full pairwise matrix of the live slots (duplicates and all),
    /// remapped to slot indices.
    fn assert_features_match_naive(
        scratch: &mut ClusterScratch,
        out: &mut Clustering,
        feat: &[[f64; 3]],
        live: &[usize],
        threshold: f64,
        what: &str,
    ) {
        let m = live.len();
        let mut sub = vec![0.0; m * m];
        for (a, &i) in live.iter().enumerate() {
            for (b, &j) in live.iter().enumerate() {
                sub[a * m + b] = feature_distance(&feat[i], &feat[j]);
            }
        }
        let packed = naive_cluster(m, &sub, threshold);
        let mut assignment = vec![usize::MAX; feat.len()];
        for (p, &j) in live.iter().enumerate() {
            assignment[j] = packed.assignment[p];
        }
        let members: Vec<Vec<usize>> = packed
            .members
            .iter()
            .map(|ms| ms.iter().map(|&p| live[p]).collect())
            .collect();
        let mut distinct: Vec<[u64; 3]> = live
            .iter()
            .map(|&j| feat[j].map(|v| (v + 0.0).to_bits()))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();

        let got = scratch.cluster_features(live, feat, threshold, out);
        assert_eq!(got, distinct.len(), "{what}: distinct count");
        assert_eq!(out.assignment, assignment, "{what}: assignment");
        assert_eq!(out.members, members, "{what}: members");
    }

    #[test]
    fn cluster_features_matches_naive_on_the_full_live_matrix() {
        // The populations the collapse must be exact on: a handful of
        // shapes shared by everyone (the production regime), coordinates
        // on a grid that puts distances *on* the thresholds, signed zeros,
        // one shape only, no duplicates at all — each with every slot live
        // and with a seeded third of the slots detached.
        let grid = [0.0, 0.35, 0.7, 1.05, 1.4];
        let zeros = [0.0, -0.0, 0.7, -0.7];
        let mut scratch = ClusterScratch::new();
        let mut out = Clustering::default();
        let mut s = 0x0D15_71C7_u64;
        for case in 0..240usize {
            let n = 1 + case % 48;
            let kind = case % 5;
            let palette: Vec<[f64; 3]> = (0..1 + case % 6)
                .map(|_| [0; 3].map(|_| rand_unit(&mut s) * 3.0))
                .collect();
            let feat: Vec<[f64; 3]> = (0..n)
                .map(|_| match kind {
                    0 => palette[(xorshift(&mut s) % palette.len() as u64) as usize],
                    1 => [0; 3].map(|_| grid[(xorshift(&mut s) % 5) as usize]),
                    2 => [0; 3].map(|_| zeros[(xorshift(&mut s) % 4) as usize]),
                    3 => palette[0],
                    _ => [0; 3].map(|_| rand_unit(&mut s) * 3.0),
                })
                .collect();
            let everyone: Vec<usize> = (0..n).collect();
            let mut some: Vec<usize> = (0..n)
                .filter(|_| !xorshift(&mut s).is_multiple_of(3))
                .collect();
            if some.is_empty() {
                some.push(n - 1);
            }
            for threshold in [0.0, 0.35, 0.7, 1.0] {
                for live in [&everyone, &some] {
                    let what = format!("case {case} kind {kind} n={n} t={threshold}");
                    assert_features_match_naive(
                        &mut scratch,
                        &mut out,
                        &feat,
                        live,
                        threshold,
                        &what,
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "threshold must be >= 0")]
    fn cluster_features_rejects_a_negative_threshold() {
        ClusterScratch::new().cluster_features(&[0], &[[0.0; 3]], -0.1, &mut Clustering::default());
    }

    #[test]
    fn scratch_reuse_across_runs_is_clean() {
        // Re-running different widths and matrices through one scratch (with
        // recycled output buffers) must match fresh single-use runs.
        let mut scratch = ClusterScratch::new();
        let mut out = Clustering {
            assignment: Vec::new(),
            members: Vec::new(),
        };
        for (round, &n) in [17usize, 40, 8, 40, 33].iter().enumerate() {
            let square = random_matrix(n, round as u64 + 100, None);
            let mut condensed = Vec::new();
            for i in 0..n {
                condensed.extend_from_slice(&square[i * n + i + 1..(i + 1) * n]);
            }
            scratch.cluster_condensed(n, &condensed, 0.6, &mut out);
            let fresh = cluster(n, &square, 0.6);
            assert_eq!(out, fresh, "round {round} n={n}");
        }
    }

    #[test]
    fn emit_numbers_clusters_by_first_item_whatever_the_roots() {
        // A forest over 6 packed labels in which no cluster's root is the
        // first label that reaches it: {0, 1, 3} hangs under 3 (label 0
        // through 1), {2, 5} under 5, and {4} alone. Slots repeat labels
        // (as identical vectors do) and the labels first appear in
        // ascending order. The clusters must be numbered by first slot and
        // list their slots in order, as a `find` per slot numbers them.
        let parent = vec![1, 3, 5, 3, 4, 5];
        let items = [
            (0, 0),
            (1, 1),
            (2, 0),
            (4, 2),
            (5, 3),
            (6, 1),
            (7, 4),
            (9, 5),
            (10, 2),
        ];
        let mut reference = Clustering {
            assignment: vec![usize::MAX; 12],
            members: Vec::new(),
        };
        let mut roots: Vec<u32> = Vec::new();
        for &(slot, mut label) in &items {
            while parent[label as usize] != label {
                label = parent[label as usize];
            }
            let id = match roots.iter().position(|&r| r == label) {
                Some(id) => id,
                None => {
                    roots.push(label);
                    reference.members.push(Vec::new());
                    roots.len() - 1
                }
            };
            reference.assignment[slot] = id;
            reference.members[id].push(slot);
        }
        assert_eq!(roots, [3, 5, 4]);
        let mut scratch = ClusterScratch::new();
        let mut out = Clustering::default();
        // Twice through one scratch: the second run reuses its buffers.
        for run in 0..2 {
            scratch.parent = parent.clone();
            scratch.emit(6, 12, items.iter().copied(), &mut out);
            assert_eq!(out, reference, "run {run}");
        }
    }
}
