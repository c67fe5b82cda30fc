//! Property tests for the tournament roster: every strategy builds a
//! working policy at any width, and the sampled per-tuple rules are
//! deterministic for a seed and always install a full simplex.

use streambal_core::rng::SplitMix64;
use streambal_core::weights::DEFAULT_RESOLUTION;
use streambal_sim::config::RegionConfig;
use streambal_sim::policy::{PolicySample, SampleContext};
use streambal_workloads::tournament::StrategyKind;

const WIDTH: usize = 8;

/// Two policies built from the same seed emit identical weight vectors
/// under identical samples, and every vector sums to the full resolution
/// (the simplex the engine asserts on).
#[test]
fn sampled_rules_are_deterministic_and_on_simplex() {
    let cfg = RegionConfig::builder(WIDTH).build().unwrap();
    for kind in [
        StrategyKind::Random,
        StrategyKind::LeastOutstanding,
        StrategyKind::PowerOfTwoChoices,
        StrategyKind::TwoChoiceHashing,
    ] {
        let mut a = kind.build(&cfg, 5678);
        let mut b = kind.build(&cfg, 5678);
        let mut rng = SplitMix64::new(7);
        for round in 0..50u64 {
            let ctx = SampleContext {
                now_ns: round * 250_000_000,
                delivered: round * 1000,
                workload: None,
            };
            let samples: Vec<PolicySample> = (0..WIDTH)
                .map(|j| PolicySample {
                    connection: j,
                    rate: rng.frange(0.0, 1.0),
                    weight: (DEFAULT_RESOLUTION / WIDTH as u32),
                })
                .collect();
            let wa = a
                .on_sample(&ctx, &samples)
                .expect("sampled rules always rebalance");
            let wb = b
                .on_sample(&ctx, &samples)
                .expect("sampled rules always rebalance");
            assert_eq!(
                wa.units(),
                wb.units(),
                "{}: round {round} diverged",
                kind.name()
            );
            assert_eq!(
                wa.units().iter().sum::<u32>(),
                DEFAULT_RESOLUTION,
                "{}: round {round} left the simplex",
                kind.name()
            );
        }
    }
}

/// The roster builds a working policy for every kind at any width the
/// scenarios use.
#[test]
fn roster_builds_for_all_kinds() {
    let cfg = RegionConfig::builder(6).build().unwrap();
    for kind in StrategyKind::roster() {
        let mut policy = kind.build(&cfg, 3);
        assert_eq!(policy.name(), kind.name());
        let wv = policy.on_resize(4);
        if let Some(wv) = wv {
            assert_eq!(wv.units().iter().sum::<u32>(), DEFAULT_RESOLUTION);
        }
    }
}
