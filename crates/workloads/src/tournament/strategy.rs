//! The tournament roster: the paper's controller, round-robin, and four
//! classic per-tuple balancers sampled into the simulator's weight
//! contract.
//!
//! The engine routes every tuple through a smooth weighted round-robin
//! scheduler and lets the installed policy replace the weight vector once
//! per control round ([`Policy::on_sample`]). Classic per-tuple balancers
//! — random, least-outstanding, power-of-two-choices, partial-key-grouping
//! two-choice hashing — do not speak weights natively, so the tournament
//! *samples* them: each round it routes one simulated tuple per weight
//! unit through the balancer's decision rule and installs the resulting
//! pick histogram as the next weight vector. Blocked connections charge
//! more pressure per assigned unit, so load-sensitive rules steer away
//! from them at round granularity exactly as they would per tuple.
//!
//! | Kind | Report name | Decision rule |
//! |---|---|---|
//! | [`StrategyKind::RoundRobin`] | *RR* | even split, never changes |
//! | [`StrategyKind::Random`] | *Random* | uniform pick over the slots |
//! | [`StrategyKind::LeastOutstanding`] | *Least-out* | min outstanding + pressure |
//! | [`StrategyKind::PowerOfTwoChoices`] | *P2C* | best of two sampled slots |
//! | [`StrategyKind::TwoChoiceHashing`] | *PKG-2C* | best of the key's two hash slots |
//! | [`StrategyKind::Controller`] | *LB-adaptive* | the paper's blocking-rate model |

use streambal_core::controller::{BalancerConfig, ClusteringConfig};
use streambal_core::rng::SplitMix64;
use streambal_core::weights::{WeightVector, DEFAULT_RESOLUTION};
use streambal_sim::config::RegionConfig;
use streambal_sim::policy::{
    BalancerPolicy, Policy, PolicySample, RoundRobinPolicy, SampleContext,
};

/// Size of the synthetic routing-key space the sampled rules draw from.
/// Small enough that hot keys repeat within a round (exercising two-choice
/// hashing's key bindings), large enough to spread over any region width
/// the tournament uses.
const KEY_SPACE: usize = 64;

/// How many times power-of-two-choices redraws its second candidate when
/// it lands on the first.
const REDRAWS: usize = 16;

/// How much one fully-blocked interval inflates a slot's per-unit
/// pressure cost. A connection that blocked the whole interval costs
/// `1 + PRESSURE_GAIN` per assigned unit, so load-sensitive rules give it
/// roughly `1 / (1 + PRESSURE_GAIN)` of an even share.
const PRESSURE_GAIN: f64 = 8.0;

/// A per-tuple decision rule, sampled by [`SampledPolicy`].
///
/// Every sampled tuple of a round completes at the round's end, so a
/// slot's outstanding count is the number of tuples the round has picked
/// for it so far, and a two-choice-hashing key stays bound to its first
/// slot for the rest of the round.
#[derive(Debug)]
enum TupleRule {
    /// Uniform random pick.
    Random(SplitMix64),
    /// Least-outstanding (least-connections): the slot with the fewest
    /// outstanding tuples, pressure-adjusted; ties go to the lowest index.
    LeastOutstanding,
    /// Power-of-two-choices: sample two distinct slots, keep the one with
    /// less outstanding work (*The Power of Both Choices*, PAPERS.md).
    PowerOfTwoChoices(SplitMix64),
    /// Partial-key-grouping-style two-choice hashing: every key hashes to
    /// two candidate slots and binds to the less-loaded one, so a key's
    /// tuples are never in flight on two slots at once. A drained key may
    /// rebind next round, which lets the rule follow hotspot churn.
    TwoChoiceHashing {
        /// Salts of the two hash functions.
        salts: [u64; 2],
    },
}

impl TupleRule {
    /// Routes one tuple carrying routing key `key`, given the round's
    /// picks so far (`units`), their pressure and the key bindings.
    fn pick(
        &mut self,
        key: usize,
        units: &[u32],
        pressure: &[f64],
        bound: &mut [Option<usize>; KEY_SPACE],
    ) -> usize {
        let n = units.len();
        let score = |j: usize| f64::from(units[j]) + pressure[j];
        match self {
            TupleRule::Random(rng) => rng.below(n as u64) as usize,
            TupleRule::LeastOutstanding => {
                (1..n).fold(0, |best, j| if score(j) < score(best) { j } else { best })
            }
            TupleRule::PowerOfTwoChoices(rng) => {
                let a = rng.below(n as u64) as usize;
                let mut b = rng.below(n as u64) as usize;
                for _ in 0..REDRAWS {
                    if b != a {
                        break;
                    }
                    b = rng.below(n as u64) as usize;
                }
                if score(b) < score(a) {
                    b
                } else {
                    a
                }
            }
            TupleRule::TwoChoiceHashing { salts } => *bound[key].get_or_insert_with(|| {
                let [c1, c2] = salts.map(|salt| {
                    (SplitMix64::new(key as u64 ^ salt).next_u64() % n as u64) as usize
                });
                if score(c2) < score(c1) {
                    c2
                } else {
                    c1
                }
            }),
        }
    }
}

/// Plugs a [`TupleRule`] into the engine's [`Policy`] contract.
///
/// Each control round routes [`DEFAULT_RESOLUTION`] simulated tuples (with
/// keys from a seeded stream) through the rule and installs the pick
/// histogram as the next weight vector — the smooth WRR scheduler then
/// reproduces the rule's empirical routing distribution for the following
/// interval. Per-unit pressure costs are derived from the measured
/// blocking rates, so rules that react to load see the imbalance the
/// paper's controller sees.
#[derive(Debug)]
struct SampledPolicy {
    name: &'static str,
    rule: TupleRule,
    keys: SplitMix64,
    width: usize,
}

impl Policy for SampledPolicy {
    fn name(&self) -> &str {
        self.name
    }

    fn on_sample(
        &mut self,
        _ctx: &SampleContext,
        samples: &[PolicySample],
    ) -> Option<WeightVector> {
        let n = self.width;
        // Per-unit cost: a slot that blocked the whole interval is
        // (1 + PRESSURE_GAIN)x as expensive per assigned tuple.
        let mut cost = vec![1.0; n];
        for s in samples {
            if s.connection < n {
                cost[s.connection] = 1.0 + PRESSURE_GAIN * s.rate.clamp(0.0, 1.0);
            }
        }
        let mut units = vec![0u32; n];
        let mut pressure = vec![0.0; n];
        let mut bound = [None; KEY_SPACE];
        for _ in 0..DEFAULT_RESOLUTION {
            let key = self.keys.below(KEY_SPACE as u64) as usize;
            let j = self.rule.pick(key, &units, &pressure, &mut bound);
            units[j] += 1;
            pressure[j] += cost[j];
        }
        Some(WeightVector::from_units(units, DEFAULT_RESOLUTION).expect("picks sum to resolution"))
    }

    fn on_resize(&mut self, new_width: usize) -> Option<WeightVector> {
        self.width = new_width;
        Some(WeightVector::even(new_width, DEFAULT_RESOLUTION))
    }
}

/// A nameable, re-buildable tournament strategy — the tournament's
/// counterpart of [`PolicyKind`](crate::policies::PolicyKind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Even, never-changing split (the existing [`RoundRobinPolicy`]).
    RoundRobin,
    /// Uniform random pick per tuple.
    Random,
    /// Least-outstanding (least-connections).
    LeastOutstanding,
    /// Power-of-two-choices.
    PowerOfTwoChoices,
    /// Partial-key-grouping-style two-choice hashing.
    TwoChoiceHashing,
    /// The paper's adaptive blocking-rate controller.
    Controller,
}

impl StrategyKind {
    /// The display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::RoundRobin => "RR",
            StrategyKind::Random => "Random",
            StrategyKind::LeastOutstanding => "Least-out",
            StrategyKind::PowerOfTwoChoices => "P2C",
            StrategyKind::TwoChoiceHashing => "PKG-2C",
            StrategyKind::Controller => "LB-adaptive",
        }
    }

    /// The canonical command-line identifier.
    pub fn id(&self) -> &'static str {
        match self {
            StrategyKind::RoundRobin => "rr",
            StrategyKind::Random => "random",
            StrategyKind::LeastOutstanding => "least-outstanding",
            StrategyKind::PowerOfTwoChoices => "p2c",
            StrategyKind::TwoChoiceHashing => "pkg",
            StrategyKind::Controller => "lb-adaptive",
        }
    }

    /// Parses a command-line identifier (canonical ids plus a few
    /// aliases); returns `None` for unknown names.
    pub fn parse(s: &str) -> Option<StrategyKind> {
        match s {
            "rr" | "round-robin" => Some(StrategyKind::RoundRobin),
            "random" => Some(StrategyKind::Random),
            "least-outstanding" | "least-out" | "least-connections" => {
                Some(StrategyKind::LeastOutstanding)
            }
            "p2c" | "power-of-two" => Some(StrategyKind::PowerOfTwoChoices),
            "pkg" | "two-choice-hash" | "pkg-2c" => Some(StrategyKind::TwoChoiceHashing),
            "lb-adaptive" | "controller" => Some(StrategyKind::Controller),
            _ => None,
        }
    }

    /// The full tournament roster, in report order.
    pub fn roster() -> Vec<StrategyKind> {
        vec![
            StrategyKind::Controller,
            StrategyKind::LeastOutstanding,
            StrategyKind::PowerOfTwoChoices,
            StrategyKind::TwoChoiceHashing,
            StrategyKind::RoundRobin,
            StrategyKind::Random,
        ]
    }

    /// Builds a fresh policy instance for one run of `cfg`; `seed` drives
    /// any internal randomness (candidate sampling, hash salts, the
    /// sampled key stream), so a cell replays exactly from its seed.
    pub fn build(&self, cfg: &RegionConfig, seed: u64) -> Box<dyn Policy> {
        let n = cfg.num_workers();
        let mut rng = SplitMix64::new(seed);
        let rule_seed = rng.next_u64();
        let key_seed = rng.next_u64();
        let rule = match self {
            StrategyKind::RoundRobin => return Box::new(RoundRobinPolicy::new()),
            StrategyKind::Controller => {
                return Box::new(BalancerPolicy::new(
                    BalancerConfig::builder(n)
                        .clustering(ClusteringConfig::default())
                        .build()
                        .expect("tournament-sized balancer config is valid"),
                ))
            }
            StrategyKind::Random => TupleRule::Random(SplitMix64::new(rule_seed)),
            StrategyKind::LeastOutstanding => TupleRule::LeastOutstanding,
            StrategyKind::PowerOfTwoChoices => {
                TupleRule::PowerOfTwoChoices(SplitMix64::new(rule_seed))
            }
            StrategyKind::TwoChoiceHashing => {
                let mut salts = SplitMix64::new(rule_seed);
                TupleRule::TwoChoiceHashing {
                    salts: [salts.next_u64(), salts.next_u64()],
                }
            }
        };
        Box::new(SampledPolicy {
            name: self.name(),
            rule,
            keys: SplitMix64::new(key_seed),
            width: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SampleContext {
        SampleContext {
            now_ns: 1_000_000_000,
            delivered: 0,
            workload: None,
        }
    }

    /// One sample per slot, slot `j` blocked for `rates[j]` of the
    /// interval.
    fn samples(rates: &[f64]) -> Vec<PolicySample> {
        rates
            .iter()
            .enumerate()
            .map(|(connection, &rate)| PolicySample {
                connection,
                rate,
                weight: DEFAULT_RESOLUTION / rates.len() as u32,
            })
            .collect()
    }

    fn sampled(kind: StrategyKind, width: usize, seed: u64) -> Box<dyn Policy> {
        kind.build(&RegionConfig::builder(width).build().unwrap(), seed)
    }

    #[test]
    fn least_outstanding_balances_an_idle_round_exactly() {
        let mut p = sampled(StrategyKind::LeastOutstanding, 4, 1);
        let w = p.on_sample(&ctx(), &samples(&[0.0; 4])).unwrap();
        assert_eq!(w.units(), &[250, 250, 250, 250]);
    }

    #[test]
    fn load_sensitive_rules_avoid_pressured_slots() {
        for kind in [
            StrategyKind::LeastOutstanding,
            StrategyKind::PowerOfTwoChoices,
            StrategyKind::TwoChoiceHashing,
        ] {
            let mut p = sampled(kind, 2, 13);
            let w = p.on_sample(&ctx(), &samples(&[0.9, 0.0])).unwrap();
            assert!(
                w.units()[0] < w.units()[1],
                "{}: blocked slot must lose weight: {:?}",
                kind.name(),
                w.units()
            );
        }
    }

    #[test]
    fn p2c_prefers_the_emptier_sample() {
        let mut rule = TupleRule::PowerOfTwoChoices(SplitMix64::new(11));
        let mut bound = [None; KEY_SPACE];
        let mut picks = [0u32; 2];
        for _ in 0..200 {
            picks[rule.pick(0, &[0, 0], &[50.0, 0.0], &mut bound)] += 1;
        }
        assert_eq!(picks, [0, 200], "two slots: both are always sampled");
    }

    #[test]
    fn two_choice_hashing_binds_each_key_for_the_round() {
        let salts = [3, 5];
        let mut rule = TupleRule::TwoChoiceHashing { salts };
        let mut rng = SplitMix64::new(99);
        let mut bound = [None; KEY_SPACE];
        let mut units = [0u32; 8];
        let mut pressure = [0.0; 8];
        let mut first = [None; KEY_SPACE];
        for _ in 0..2_000 {
            let key = rng.below(KEY_SPACE as u64) as usize;
            let j = rule.pick(key, &units, &pressure, &mut bound);
            let c = salts.map(|s| (SplitMix64::new(key as u64 ^ s).next_u64() % 8) as usize);
            assert!(c.contains(&j), "key {key} routed to {j}, candidates {c:?}");
            // Load moves on, the key stays put.
            assert_eq!(*first[key].get_or_insert(j), j, "key {key} moved");
            units[j] += 1;
            pressure[j] += 1.0 + rng.frange(0.0, 8.0);
        }
    }

    #[test]
    fn sampled_rules_install_a_full_simplex_and_resize() {
        for kind in [
            StrategyKind::Random,
            StrategyKind::LeastOutstanding,
            StrategyKind::PowerOfTwoChoices,
            StrategyKind::TwoChoiceHashing,
        ] {
            let mut p = sampled(kind, 4, 9);
            for _ in 0..5 {
                let w = p
                    .on_sample(&ctx(), &samples(&[0.0, 0.25, 0.5, 0.75]))
                    .unwrap();
                assert_eq!(w.len(), 4);
                assert_eq!(w.units().iter().sum::<u32>(), DEFAULT_RESOLUTION);
            }
            assert_eq!(p.on_resize(5).unwrap().len(), 5);
            let w = p.on_sample(&ctx(), &[]).unwrap();
            assert_eq!(w.len(), 5);
            assert_eq!(w.units().iter().sum::<u32>(), DEFAULT_RESOLUTION);
        }
    }

    #[test]
    fn kinds_round_trip_through_parse() {
        for kind in StrategyKind::roster() {
            assert_eq!(StrategyKind::parse(kind.id()), Some(kind));
        }
        assert_eq!(StrategyKind::parse("frobnicate"), None);
    }

    #[test]
    fn every_kind_builds_and_names_agree() {
        let cfg = RegionConfig::builder(4).build().unwrap();
        for kind in StrategyKind::roster() {
            let p = kind.build(&cfg, 7);
            assert_eq!(p.name(), kind.name());
        }
    }
}
