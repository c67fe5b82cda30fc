//! Clustering cost from the paper's 64-channel scale up to the 10k+
//! connection regime, measured over the exact path a recluster round runs:
//! the fit-based knee refresh, per-item log-feature extraction, and the
//! agglomeration over the *distinct* feature vectors (`class_functions`
//! has 21 at every width) — all out of retained scratch, as in the
//! controller.

use std::hint::black_box;

use streambal_bench::Micro;
use streambal_core::cluster::{knee_of_function, log_features, ClusterScratch, Clustering};
use streambal_core::function::BlockingRateFunction;

/// Functions from three capacity classes, like Figure 12, with small
/// within-class spread so the distance structure is non-trivial. The
/// resolution scales with the width (the controller keeps `R >= n`).
fn class_functions(n: usize, resolution: u32) -> Vec<BlockingRateFunction> {
    (0..n)
        .map(|j| {
            let (knee_frac, peak) = match j % 3 {
                0 => (0.01, 0.9),
                1 => (0.15, 0.7),
                _ => (0.40, 0.5),
            };
            let knee = ((f64::from(resolution) * knee_frac) as u32).max(1);
            let mut f = BlockingRateFunction::new(resolution, 0.5);
            f.observe(knee, 0.0);
            // Spread the full-load rate a little within each class.
            f.observe(resolution, peak * (1.0 + 0.05 * ((j / 3 % 7) as f64) / 7.0));
            f
        })
        .collect()
}

fn main() {
    let m = Micro::new().measure_ms(500);
    println!("== cluster ==");
    for n in [16usize, 64, 128, 1024, 4096, 16384] {
        let resolution = (2 * n).max(1000) as u32;
        let mut funcs = class_functions(n, resolution);
        let mut feat = vec![[0.0f64; 3]; n];
        let live: Vec<usize> = (0..n).collect();
        let mut scratch = ClusterScratch::new();
        let mut out = Clustering::default();
        m.run(&format!("cluster/full_round/{n}"), || {
            for (j, f) in funcs.iter_mut().enumerate() {
                let k = knee_of_function(f);
                feat[j] = log_features(&k, resolution);
            }
            black_box(scratch.cluster_features(&live, &feat, 0.7, &mut out))
        });
        assert_eq!(
            out.num_clusters(),
            3.min(n),
            "the three capacity classes must come out as three clusters"
        );
    }
}
