//! Randomized tests of the discrete-event engine: the invariants of
//! DESIGN.md §6 over randomized configurations.
//!
//! Originally proptest properties; now driven by the in-repo seeded
//! [`SplitMix64`] generator so the default test suite needs no external
//! crates, with every case reproducible from the fixed seeds below.

use streambal_core::controller::BalancerConfig;
use streambal_core::rng::SplitMix64;
use streambal_core::weights::WeightVector;
use streambal_sim::config::{RegionConfig, StopCondition};
use streambal_sim::policy::{BalancerPolicy, FixedPolicy, RoundRobinPolicy};
use streambal_sim::SECOND_NS;

const CASES: u64 = 24;

/// A small random region (2-6 workers, random loads and buffer sizes) with
/// a fixed tuple workload.
fn random_region(rng: &mut SplitMix64) -> RegionConfig {
    let n = rng.range_usize(2, 6);
    let capacity = rng.range_usize(4, 64);
    let seed = rng.next_u64();
    let tuples = rng.range_u64(1_000, 20_000);
    let mut b = RegionConfig::builder(n);
    b.base_cost(1_000)
        .mult_ns(500.0)
        .conn_capacity(capacity)
        .seed(seed)
        .stop(StopCondition::Tuples(tuples));
    for j in 0..n {
        b.worker_load(j, f64::from(rng.range_u32(1, 40)));
    }
    b.build()
        .expect("randomized region configurations are valid")
}

/// Every tuple sent is delivered exactly once, in order (the engine
/// debug-asserts exact sequence), under round-robin.
#[test]
fn conservation_under_round_robin() {
    let mut rng = SplitMix64::new(0x51A_0001);
    for _ in 0..CASES {
        let cfg = random_region(&mut rng);
        let r = streambal_sim::run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let StopCondition::Tuples(t) = cfg.stop else {
            unreachable!()
        };
        assert_eq!(r.delivered, t);
        assert_eq!(r.sent, t);
        assert!(r.duration_ns > 0);
    }
}

/// Same under the adaptive balancer, with valid weight traces.
#[test]
fn conservation_under_balancer() {
    let mut rng = SplitMix64::new(0x51A_0002);
    for _ in 0..CASES {
        let cfg = random_region(&mut rng);
        let n = cfg.num_workers();
        let mut p = BalancerPolicy::adaptive(BalancerConfig::builder(n).build().unwrap());
        let r = streambal_sim::run(&cfg, &mut p).unwrap();
        let StopCondition::Tuples(t) = cfg.stop else {
            unreachable!()
        };
        assert_eq!(r.delivered, t);
        for s in &r.samples {
            assert_eq!(s.weights.iter().sum::<u32>(), 1000);
            assert!(s.rates.iter().all(|&x| (0.0..=2.0).contains(&x)));
        }
    }
}

/// Determinism: identical configurations produce identical results.
#[test]
fn identical_configs_reproduce() {
    let mut rng = SplitMix64::new(0x51A_0003);
    for _ in 0..CASES {
        let cfg = random_region(&mut rng);
        let a = streambal_sim::run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let b = streambal_sim::run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        assert_eq!(a, b);
    }
}

/// Throughput never exceeds the physical bound: the sum of worker service
/// rates (with slack for jitter), nor the splitter's rate.
#[test]
fn throughput_respects_capacity() {
    let mut rng = SplitMix64::new(0x51A_0004);
    for _ in 0..CASES {
        let cfg = random_region(&mut rng);
        let r = streambal_sim::run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let speeds = cfg.effective_speeds();
        let capacity: f64 = cfg
            .workers
            .iter()
            .zip(&speeds)
            .map(|(w, &s)| {
                s * SECOND_NS as f64 / (cfg.base_cost as f64 * cfg.mult_ns * w.load.factor_at(0))
            })
            .sum();
        let splitter = SECOND_NS as f64 / cfg.send_overhead_ns as f64;
        let bound = capacity.min(splitter) * 1.15; // jitter + startup slack
        assert!(
            r.mean_throughput() <= bound,
            "throughput {} exceeds bound {}",
            r.mean_throughput(),
            bound
        );
    }
}

/// Under a fixed split, the merge gates throughput at
/// `min_j rate_j / fraction_j` (within jitter slack).
#[test]
fn merge_gating_formula_holds() {
    let mut rng = SplitMix64::new(0x51A_0005);
    for _ in 0..CASES {
        let mut cfg = random_region(&mut rng);
        let n = cfg.num_workers();
        let raw_units: Vec<u32> = (0..n).map(|_| rng.range_u32(1, 50)).collect();
        cfg.stop = StopCondition::Duration(20 * SECOND_NS);
        let weights = WeightVector::from_fractions(
            &raw_units.iter().map(|&u| f64::from(u)).collect::<Vec<_>>(),
            1000,
        );
        let speeds = cfg.effective_speeds();
        let gated = cfg
            .workers
            .iter()
            .zip(&speeds)
            .zip(weights.units())
            .filter(|&(_, &u)| u > 0)
            .map(|((w, &s), &u)| {
                let rate = s * SECOND_NS as f64
                    / (cfg.base_cost as f64 * cfg.mult_ns * w.load.factor_at(0));
                rate / (f64::from(u) / 1000.0)
            })
            .fold(f64::INFINITY, f64::min);
        let splitter = SECOND_NS as f64 / cfg.send_overhead_ns as f64;
        let bound = gated.min(splitter);
        let mut p = FixedPolicy::new(weights);
        let r = streambal_sim::run(&cfg, &mut p).unwrap();
        assert!(
            r.mean_throughput() <= bound * 1.15,
            "throughput {} exceeds merge-gated bound {}",
            r.mean_throughput(),
            bound
        );
    }
}

/// The splitter's total blocked time never exceeds the run duration (it is
/// a single thread).
#[test]
fn blocked_time_bounded_by_duration() {
    let mut rng = SplitMix64::new(0x51A_0006);
    for _ in 0..CASES {
        let cfg = random_region(&mut rng);
        let r = streambal_sim::run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let blocked: u64 = r.blocked_ns.iter().sum();
        assert!(
            blocked <= r.duration_ns,
            "blocked {} > duration {}",
            blocked,
            r.duration_ns
        );
    }
}

/// A telemetry-instrumented run returns the identical result to a plain run
/// (instrumentation is observation only), and the trace's sample series
/// reconstructs the in-memory one exactly.
#[test]
fn telemetry_run_is_observation_only() {
    use streambal_sim::ChaosPlan;
    use streambal_sim::RoundSnapshot;
    use streambal_telemetry::Telemetry;

    let plan = ChaosPlan::default();
    let mut rng = SplitMix64::new(0x51A_0007);
    for _ in 0..8 {
        let cfg = random_region(&mut rng);
        let plain = streambal_sim::run(&cfg, &mut RoundRobinPolicy::new()).unwrap();
        let telemetry = Telemetry::new();
        let mut policy = RoundRobinPolicy::new();
        let instrumented =
            streambal_sim::run_chaos(&cfg, &mut policy, &plan, Some(&telemetry), None).unwrap();
        assert_eq!(plain, instrumented);
        let reconstructed = RoundSnapshot::series_from_events(&telemetry.trace().events());
        assert_eq!(reconstructed, instrumented.samples);
        assert_eq!(
            telemetry.registry().counter("sim.merger.delivered").get(),
            instrumented.delivered
        );
    }
}
