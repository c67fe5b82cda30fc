//! Exactness of the two matrix-free control-plane paths, checked from
//! outside `core` against oracles built from its public pieces only:
//!
//! - `ClusterScratch::cluster_features` (agglomerate the *distinct* knee
//!   vectors) must give the partition `cluster_condensed` gives on a full
//!   condensed matrix over every live slot;
//! - a function's knee may be cached for as long as its `generation()`
//!   stays put, and an idle (all-zero) function keeps its generation;
//! - an idle function, never refitted for its zero observations, answers
//!   (`value`, `knee_of_function`) like its dense fill and like a refit of
//!   its raw points, bit for bit;
//! - a membership change (`detach` / `attach` / `grow`) must install the
//!   units a Fox solve over the dense predicted tables gives.
//!
//! The crate-internal versions of both (against the naive O(n⁴) clusterer
//! and the retired renormalization body) live in `core`'s unit tests; this
//! file is what `cargo test -q` at the root runs.

use streambal::core::cluster::{
    aggregate_functions, condensed_len, fill_condensed, knee_of, knee_of_function, log_features,
    ClusterScratch, Clustering, Knee,
};
use streambal::core::controller::{BalancerConfig, ClusteringConfig, LoadBalancer};
use streambal::core::function::SMOOTHING;
use streambal::core::solver::{fox, Problem};
use streambal::core::{BlockingRateFunction, ConnectionSample, SplitMix64, DELTA};

/// `cluster_condensed` over the live slots' full matrix, in slot indices.
fn matrix_form(live: &[usize], feat: &[[f64; 3]], threshold: f64) -> Clustering {
    let packed_feat: Vec<[f64; 3]> = live.iter().map(|&j| feat[j]).collect();
    let mut condensed = vec![0.0; condensed_len(live.len())];
    fill_condensed(&packed_feat, &mut condensed);
    let mut packed = Clustering::default();
    ClusterScratch::new().cluster_condensed(live.len(), &condensed, threshold, &mut packed);
    let mut assignment = vec![usize::MAX; feat.len()];
    for (p, &j) in live.iter().enumerate() {
        assignment[j] = packed.assignment[p];
    }
    let members = packed
        .members
        .iter()
        .map(|ms| ms.iter().map(|&p| live[p]).collect())
        .collect();
    Clustering {
        assignment,
        members,
    }
}

#[test]
fn distinct_vector_clustering_equals_the_full_matrix_form() {
    let grid = [0.0, 0.35, 0.7, 1.05, 1.4];
    let zeros = [0.0, -0.0, 0.7, -0.7];
    let mut rng = SplitMix64::new(0xC1_0571);
    let mut scratch = ClusterScratch::new();
    let mut got = Clustering::default();
    for case in 0..200usize {
        let n = 1 + case % 96;
        let palette: Vec<[f64; 3]> = (0..1 + case % 7)
            .map(|_| [0; 3].map(|_| rng.frange(0.0, 3.0)))
            .collect();
        let feat: Vec<[f64; 3]> = (0..n)
            .map(|_| match case % 5 {
                // A few shapes shared by everyone: the production regime.
                0 => palette[rng.range_usize(0, palette.len() - 1)],
                // Distances that land on the thresholds.
                1 => [0; 3].map(|_| grid[rng.range_usize(0, 4)]),
                2 => [0; 3].map(|_| zeros[rng.range_usize(0, 3)]),
                3 => palette[0],
                _ => [0; 3].map(|_| rng.frange(0.0, 3.0)),
            })
            .collect();
        let mut live: Vec<usize> = (0..n).filter(|_| rng.range_usize(0, 3) != 0).collect();
        if live.is_empty() {
            live.push(0);
        }
        for threshold in [0.0, 0.35, 0.7, 1.0] {
            let distinct = scratch.cluster_features(&live, &feat, threshold, &mut got);
            assert!((1..=live.len()).contains(&distinct));
            let want = matrix_form(&live, &feat, threshold);
            assert_eq!(got, want, "case {case} n={n} threshold={threshold}");
        }
    }

    // Inputs on which grouping by a sort and grouping in slot order could
    // part ways: no two neighbours alike, one vector almost everywhere
    // (whole or with holes in the live set), and vectors that differ
    // only in the sign of a zero.
    let idle = log_features(
        &knee_of_function(&mut BlockingRateFunction::new(4096, SMOOTHING)),
        4096,
    );
    let mut run = vec![idle; 2000];
    for j in [3, 411, 412, 977, 1500, 1998] {
        run[j] = [0; 3].map(|_| rng.frange(0.0, 3.0));
    }
    run[1999] = run[3];
    let mut holed: Vec<usize> = (0..2000).filter(|j| !(600..1400).contains(j)).collect();
    holed.retain(|&j| j % 97 != 5 && j != 3);
    let mut signed = Vec::new();
    for j in 0..60 {
        let mut v = [[0.0, 0.7, 1.4], [1.05, 0.0, 0.35], [0.35, 1.4, 0.0]][j % 3];
        if j % 2 == 1 {
            v[j % 3] = -0.0;
        }
        signed.push(v);
    }
    let cases = [
        (
            "interleaved classes",
            interleaved_features(300, 1000),
            (0..300).collect(),
        ),
        ("one long run", run.clone(), (0..2000).collect()),
        ("one long run with detached slots", run, holed),
        ("signed zeros", signed, (0..60).collect::<Vec<usize>>()),
    ];
    for (what, feat, live) in cases {
        for threshold in [0.0, 0.7] {
            let distinct = scratch.cluster_features(&live, &feat, threshold, &mut got);
            assert_eq!(
                got,
                matrix_form(&live, &feat, threshold),
                "{what} at {threshold}"
            );
            let mut seen: Vec<[f64; 3]> = Vec::new();
            for &j in &live {
                // `==` on floats reads -0.0 as 0.0.
                if !seen.contains(&feat[j]) {
                    seen.push(feat[j]);
                }
            }
            assert_eq!(distinct, seen.len(), "{what} at {threshold}");
        }
    }
}

/// The knee vectors of `crates/bench/benches/cluster.rs`: three capacity
/// classes by `j % 3` and seven spreads by `j / 3 % 7`, so neighbouring
/// slots never share a vector.
fn interleaved_features(n: usize, resolution: u32) -> Vec<[f64; 3]> {
    (0..n)
        .map(|j| {
            let (knee_frac, peak) = [(0.01, 0.9), (0.15, 0.7), (0.40, 0.5)][j % 3];
            let knee = ((f64::from(resolution) * knee_frac) as u32).max(1);
            let mut f = BlockingRateFunction::new(resolution, 0.5);
            f.observe(knee, 0.0);
            f.observe(resolution, peak * (1.0 + 0.05 * ((j / 3 % 7) as f64) / 7.0));
            log_features(&knee_of_function(&mut f), resolution)
        })
        .collect()
}

/// The contract the controller's knee cache rests on: while a function's
/// `generation()` is the one its knee was taken at, the knee is unchanged
/// bit for bit — through zero and positive observes and decays alike.
#[test]
fn an_unmoved_generation_means_an_unmoved_knee() {
    let mut rng = SplitMix64::new(0x6E_4E27);
    let bits = |k: Knee| {
        (
            k.service_weight,
            k.rate_at_knee.to_bits(),
            k.rate_at_max.to_bits(),
        )
    };
    for r in [100u32, 1000, 4096] {
        for case in 0..60 {
            let mut f = BlockingRateFunction::new(r, SMOOTHING);
            let mut cached = (f.generation(), bits(knee_of_function(&mut f)));
            // Some histories stay idle for a while before mixing in blocking.
            let idle_steps = rng.range_usize(0, 40);
            for step in 0..120 {
                if rng.range_usize(0, 3) == 0 {
                    f.decay_above(rng.range_u32(0, r), 0.9);
                } else {
                    let w = rng.range_u32(1, r);
                    let rate = if step < idle_steps || rng.chance(0.5) {
                        0.0
                    } else {
                        match rng.range_usize(0, 3) {
                            0 => -0.0,
                            1 => DELTA * 0.4,
                            2 => rng.frange(0.0, 0.01),
                            _ => rng.frange(0.0, 2.0),
                        }
                    };
                    f.observe(w, rate);
                }
                let knee = bits(knee_of_function(&mut f));
                if f.generation() == cached.0 {
                    assert_eq!(knee, cached.1, "r={r} case {case} step {step}");
                } else {
                    cached = (f.generation(), knee);
                }
            }
        }
    }
}

#[test]
fn an_idle_function_keeps_its_generation_until_it_blocks() {
    let mut rng = SplitMix64::new(0x1D_1E);
    for r in [100u32, 1000, 4096] {
        let mut f = BlockingRateFunction::new(r, SMOOTHING);
        let start = f.generation();
        let mut observes = 0;
        while f.raw_len() < 21 {
            let w = rng.range_u32(1, r);
            f.observe(w, 0.0);
            f.observe(w, 0.0);
            observes += 2;
            f.decay_above(rng.range_u32(0, r - 1), 0.9);
        }
        assert_eq!(f.generation(), start, "r={r}");
        // The zeros were recorded, counts included, for the fits to come.
        let counts: f64 = f.raw_points_weighted().map(|(_, _, c)| c).sum();
        assert_eq!(counts, f64::from(observes + 1));
        assert!(f.predicted().iter().all(|v| v.to_bits() == 0), "r={r}");
        let never = Knee {
            service_weight: r,
            rate_at_knee: DELTA,
            rate_at_max: DELTA,
        };
        assert_eq!(knee_of_function(&mut f), never, "r={r}");
        f.observe(rng.range_u32(1, r), 0.25);
        assert_ne!(f.generation(), start, "r={r}");
        assert_ne!(knee_of_function(&mut f), never, "r={r}");
    }
}

/// Every `value(w)` equals the dense fill at `w` bit for bit, and the knee
/// read off the fit equals the dense table's.
fn assert_answers_like_its_dense_fill(f: &mut BlockingRateFunction, what: &str) {
    let table = f.predicted();
    for (w, want) in table.iter().enumerate() {
        assert_eq!(
            f.value(w as u32).to_bits(),
            want.to_bits(),
            "{what}, weight {w}"
        );
    }
    let (knee, dense) = (knee_of_function(f), knee_of(&table));
    assert_eq!(knee.service_weight, dense.service_weight, "{what}");
    assert_eq!(
        knee.rate_at_knee.to_bits(),
        dense.rate_at_knee.to_bits(),
        "{what}"
    );
    assert_eq!(
        knee.rate_at_max.to_bits(),
        dense.rate_at_max.to_bits(),
        "{what}"
    );
}

/// An idle (all-zero) function is never refitted for its zero
/// observations: it answers `+0.0` at every weight and the never-blocks
/// knee from the fit it has. Those answers must be the dense fill's and a
/// refit's, for the idle functions themselves, for one that saw `-0.0`
/// (not idle: its fit keeps the sign), and for an idle cluster's pooled
/// function with and without one loaded member.
#[test]
fn an_idle_function_answers_like_its_dense_fill() {
    let mut rng = SplitMix64::new(0x1D1E_F111);
    for r in [100u32, 1000, 4096] {
        let mut idle = Vec::new();
        for case in 0..12 {
            let mut f = BlockingRateFunction::new(r, SMOOTHING);
            let distinct = rng.range_usize(1, 40);
            for _ in 0..distinct {
                let w = rng.range_u32(1, r);
                for _ in 0..rng.range_usize(1, 4) {
                    f.observe(w, 0.0);
                }
            }
            assert_answers_like_its_dense_fill(&mut f, &format!("r={r} case {case}"));
            let bits = |t: Vec<f64>| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut refit = BlockingRateFunction::from_raw_points(r, SMOOTHING, f.raw_points());
            assert_eq!(
                bits(f.predicted()),
                bits(refit.predicted()),
                "r={r} case {case}"
            );
            idle.push(f);
        }
        // At a weight of its own, so that no EWMA turns the sign to `+0.0`.
        let mut signed = idle[0].clone();
        let fresh = (1..=r).find(|&w| signed.raw_points().all(|(x, _)| x != w));
        let fresh = fresh.expect("fewer than R observed weights");
        signed.observe(fresh, -0.0);
        assert_eq!(signed.value(fresh).to_bits(), (-0.0f64).to_bits(), "r={r}");
        assert_answers_like_its_dense_fill(&mut signed, &format!("r={r} -0.0"));

        let members: Vec<&BlockingRateFunction> = idle.iter().collect();
        let mut pooled = aggregate_functions(&members, SMOOTHING);
        assert_answers_like_its_dense_fill(&mut pooled, &format!("r={r} idle cluster"));
        let mut loaded = BlockingRateFunction::new(r, SMOOTHING);
        loaded.observe(r / 3, 0.4);
        let mut members = members;
        members.push(&loaded);
        let mut pooled = aggregate_functions(&members, SMOOTHING);
        assert!(pooled.value(r) > 0.0, "r={r}");
        assert_answers_like_its_dense_fill(&mut pooled, &format!("r={r} loaded member"));
    }
}

/// The units the dense formulation installs for `lb`'s current membership
/// and functions, with or without data: full predicted tables, clean
/// frontiers read off them, newcomers in `capped` bounded by the
/// exploration step (10, the default).
fn dense_renormalization(lb: &mut LoadBalancer, capped: &[usize]) -> Vec<u32> {
    let n = lb.config().connections();
    let r = lb.config().resolution();
    let attached = lb.attached().to_vec();
    let tables: Vec<Vec<f64>> = (0..n).map(|j| lb.function_mut(j).predicted()).collect();
    let priority = tables
        .iter()
        .map(|t| t.iter().rposition(|&v| v <= DELTA).unwrap_or(0) as u64)
        .collect();
    let upper = (0..n)
        .map(|j| match (attached[j], capped.contains(&j)) {
            (false, _) => 0,
            (true, true) => 10,
            (true, false) => r,
        })
        .collect();
    let problem = Problem::new(tables.iter().map(Vec::as_slice).collect(), r)
        .unwrap()
        .with_bounds(vec![0; n], upper)
        .unwrap()
        .with_tie_priority(priority)
        .unwrap();
    fox::solve(&problem).unwrap().weights
}

#[test]
fn membership_changes_install_the_dense_solution() {
    for (n, clustered) in [(10usize, false), (48, true)] {
        let mut b = BalancerConfig::builder(n);
        if clustered {
            b.clustering(ClusteringConfig::default());
        }
        let mut lb = LoadBalancer::new(b.build().unwrap());
        let mut rng = SplitMix64::new(0xE9_0000 + n as u64);
        let check = |lb: &mut LoadBalancer, capped: &[usize], what: &str| {
            // The oracle builds dense tables; keep them off the balancer
            // under test.
            let want = dense_renormalization(&mut lb.clone(), capped);
            assert_eq!(lb.weights().units(), want, "{what}");
        };
        assert!(lb.detach_connection(2));
        check(&mut lb, &[], "no-data detach");
        assert!(lb.attach_connection(2));
        check(&mut lb, &[2], "no-data attach");
        for round in 0..300 {
            let width = lb.config().connections();
            let r = lb.config().resolution();
            for j in 0..width {
                if !lb.is_attached(j) || rng.range_usize(0, 3) == 0 {
                    continue;
                }
                // Slots block past their own capacity; the capacities sum
                // past R, so tie priorities decide who gets the units.
                let cap = (j as u32 * 37 % 11 + 1) * r / (4 * n as u32);
                let w = lb.weights().units()[j];
                let rate = (f64::from(w.saturating_sub(cap)) / f64::from(r) * 8.0).min(1.0);
                lb.observe(&[ConnectionSample::new(j, rate)]);
            }
            lb.rebalance();
            if round % 4 != 0 {
                continue;
            }
            let what = format!("n={n} round {round}");
            let j = rng.range_usize(0, width - 1);
            if round % 60 == 0 && width + 4 <= 80 {
                let grown: Vec<usize> = lb.grow(4).collect();
                check(&mut lb, &grown, &what);
            } else if !lb.is_attached(j) {
                lb.attach_connection(j);
                check(&mut lb, &[j], &what);
            } else if lb.live_connections() > n / 2 {
                lb.detach_connection(j);
                check(&mut lb, &[], &what);
            }
            lb.check_invariants().expect("simplex after the change");
        }
    }
}
