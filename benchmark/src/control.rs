//! The two controller workloads: no sockets, one thread, back-to-back
//! calls of `ControlPlane::round` — the same entry point the proxy's
//! control thread calls every 100 ms.
//!
//! `control-plain` is the proxy's own regime (a handful of backends, no
//! clustering). `control-churn` is a wide clustered region under a fixed
//! mix of steady rounds, rounds where the hot connection moves, and
//! membership changes that force a full recluster.

use std::io;
use std::path::Path;
use std::time::Instant;

use streambal_control::ControlPlane;
use streambal_core::controller::{BalancerConfig, ClusteringConfig};
use streambal_core::SplitMix64;

use crate::children::{cpu_ns, peak_rss_kib};
use crate::replay;
use crate::spec::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

const PLAIN_WIDTH: usize = 8;
const CHURN_WIDTH: usize = 2048;
const CHURN_RESOLUTION: u32 = 4096;
/// Connections that block in every round of `control-churn`.
const LOADED: usize = 32;
/// Rounds of each kind in one `control-churn` cycle. Most rounds are
/// steady; most of the *time* goes to the five that are not.
const STEADY_PER_CYCLE: usize = 40;
const ROTATING_PER_CYCLE: usize = 3;
const MEMBERSHIP_PER_CYCLE: usize = 2;
/// Rounds run on a fresh plane before anything is timed.
const WARM_ROUNDS: u64 = 100;
/// The control cadence no round may exceed, in nanoseconds.
const CADENCE_NS: u64 = 1_000_000_000;

fn build(width: usize, resolution: u32, clustered: bool) -> ControlPlane {
    let mut b = BalancerConfig::builder(width);
    b.resolution(resolution);
    if clustered {
        b.clustering(ClusteringConfig::default());
    }
    ControlPlane::builder(b.build().expect("width and resolution are valid")).build()
}

/// The output check every round goes through: the weights sum to the
/// resolution exactly, and a detached slot holds none of them.
fn simplex_holds(plane: &ControlPlane) -> bool {
    let lb = plane.balancer();
    let units = plane.weights().units();
    units.iter().map(|&u| u64::from(u)).sum::<u64>() == u64::from(lb.config().resolution())
        && units
            .iter()
            .zip(lb.attached())
            .all(|(&u, &attached)| attached || u == 0)
}

/// Everything a run of rounds accumulates, timed or not.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    max_ns: u64,
    over_cadence: u64,
}

impl Tally {
    fn record(&mut self, ns: u64, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.max_ns = self.max_ns.max(ns);
        self.over_cadence += u64::from(ns > CADENCE_NS);
    }
}

/// The timed rounds of one episode.
#[derive(Default)]
struct Window {
    secs: f64,
    cpu_ns: u64,
    rounds: u64,
    /// Round durations by kind: plain/steady, rotating, membership.
    ns: [Vec<f64>; 3],
}

const STEADY: usize = 0;
const ROTATING: usize = 1;
const MEMBERSHIP: usize = 2;
const GROW: usize = 3;
const KIND_LABEL: [&str; 4] = ["steady", "rotating", "membership", "grow"];

/// A plane plus the seeded script that drives it.
struct Driver {
    plane: ControlPlane,
    rates: Vec<f64>,
    rng: SplitMix64,
    round_no: u64,
    /// `control-churn`: never-loaded slots in seeded order; hot slots
    /// are taken from the front, detach victims from the back.
    spare: Vec<usize>,
    next_hot: usize,
    hot: Option<usize>,
    next_victim: usize,
    detached: Option<usize>,
    first_round_ns: u64,
}

impl Driver {
    /// Times one `round` (after `before`, which is timed with it) and
    /// checks its output.
    fn round(
        &mut self,
        kind: usize,
        before: impl FnOnce(&mut ControlPlane),
        tally: &mut Tally,
        tracer: Option<&mut Tracer>,
    ) -> u64 {
        self.round_no += 1;
        let t = Instant::now();
        before(&mut self.plane);
        self.plane.round(self.round_no, &self.rates);
        let end = Instant::now();
        let ns = u64::try_from(end.duration_since(t).as_nanos()).unwrap_or(u64::MAX);
        if let Some(tr) = tracer {
            let (start, end) = (tr.ns_at(t), tr.ns_at(end));
            tr.push(0, self.round_no, "round", KIND_LABEL[kind], start, end);
        }
        tally.record(ns, simplex_holds(&self.plane));
        ns
    }

    /// `control-plain`: a fresh width-8 plane, warmed.
    fn plain(seed: u64, tally: &mut Tally) -> Driver {
        let mut d = Driver {
            plane: build(PLAIN_WIDTH, 1000, false),
            rates: vec![0.0; PLAIN_WIDTH],
            rng: SplitMix64::new(seed),
            round_no: 0,
            spare: Vec::new(),
            next_hot: 0,
            hot: None,
            next_victim: 0,
            detached: None,
            first_round_ns: 0,
        };
        for i in 0..WARM_ROUNDS {
            let ns = d.plain_round(tally, None);
            if i == 0 {
                d.first_round_ns = ns;
            }
        }
        d
    }

    /// One to three seeded connections block this round, the rest idle.
    fn plain_round(&mut self, tally: &mut Tally, tracer: Option<&mut Tracer>) -> u64 {
        self.rates.fill(0.0);
        for _ in 0..self.rng.range_usize(1, 3) {
            let j = self.rng.range_usize(0, PLAIN_WIDTH - 1);
            self.rates[j] = self.rng.frange(0.1, 0.9);
        }
        self.round(STEADY, |_| {}, tally, tracer)
    }

    /// `control-churn`: a fresh width-2048 clustered plane with a seeded
    /// loaded set, warmed. The first round pays the full recluster.
    fn churn(seed: u64, tally: &mut Tally) -> Driver {
        let mut rng = SplitMix64::new(seed);
        let mut slots: Vec<usize> = (0..CHURN_WIDTH).collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.range_usize(0, i));
        }
        let spare = slots.split_off(LOADED);
        // The seed picks *which* slots are loaded; how hard they block
        // is fixed, so every seed builds the same cluster structure.
        let mut rates = vec![0.0; CHURN_WIDTH];
        for (k, &j) in slots.iter().enumerate() {
            rates[j] = [0.3, 0.6, 0.9][k % 3];
        }
        let mut d = Driver {
            plane: build(CHURN_WIDTH, CHURN_RESOLUTION, true),
            rates,
            rng,
            round_no: 0,
            spare,
            next_hot: 0,
            hot: None,
            next_victim: 0,
            detached: None,
            first_round_ns: 0,
        };
        for i in 0..WARM_ROUNDS {
            let ns = d.round(STEADY, |_| {}, tally, None);
            if i == 0 {
                d.first_round_ns = ns;
            }
        }
        d
    }

    /// One cycle of the churn mix into `w`.
    fn churn_cycle(&mut self, w: &mut Window, tally: &mut Tally, mut tracer: Option<&mut Tracer>) {
        for _ in 0..STEADY_PER_CYCLE {
            let ns = self.round(STEADY, |_| {}, tally, tracer.as_deref_mut());
            w.ns[STEADY].push(ns as f64);
        }
        for _ in 0..ROTATING_PER_CYCLE {
            // The hot connection moves: the old one goes quiet, a slot
            // with no history starts to block.
            if let Some(h) = self.hot.take() {
                self.rates[h] = 0.0;
            }
            let h = self.spare[self.next_hot % (self.spare.len() / 2)];
            self.next_hot += 1;
            self.rates[h] = 0.42;
            self.hot = Some(h);
            let ns = self.round(ROTATING, |_| {}, tally, tracer.as_deref_mut());
            w.ns[ROTATING].push(ns as f64);
        }
        for _ in 0..MEMBERSHIP_PER_CYCLE {
            // Alternately detach a slot and attach it again; either way
            // the next round reclusters from scratch.
            let ns = match self.detached.take() {
                Some(v) => self.round(
                    MEMBERSHIP,
                    |p| assert!(p.attach_connection(v)),
                    tally,
                    tracer.as_deref_mut(),
                ),
                None => {
                    let half = self.spare.len() / 2;
                    let v = self.spare[half + self.next_victim % half];
                    self.next_victim += 1;
                    self.detached = Some(v);
                    self.round(
                        MEMBERSHIP,
                        |p| assert!(p.detach_connection(v)),
                        tally,
                        tracer.as_deref_mut(),
                    )
                }
            };
            w.ns[MEMBERSHIP].push(ns as f64);
        }
        w.rounds += (STEADY_PER_CYCLE + ROTATING_PER_CYCLE + MEMBERSHIP_PER_CYCLE) as u64;
    }
}

/// One episode: a fresh plane set up from its own sub-seed, then the
/// workload's fixed script of timed rounds. Every episode does the same
/// amount of work at the same point of a plane's life — rounds get
/// dearer as the function tables fill, so timing "whatever fits in a
/// second" would make the numbers depend on how fast the machine is.
struct Episode {
    traced: bool,
    setup_secs: f64,
    first_round_ns: u64,
    window: Window,
}

#[derive(Clone, Copy)]
enum Kind {
    Plain,
    Churn,
}

impl Kind {
    fn of(workload: &str) -> Kind {
        if workload == "control-plain" {
            Kind::Plain
        } else {
            Kind::Churn
        }
    }
}

/// Timed rounds per `control-plain` episode (rounds 100..2000 of the
/// plane's life).
const PLAIN_ROUNDS: usize = 1_900;
/// Cycles per `control-churn` episode.
const CHURN_CYCLES: usize = 3;

fn episode(
    kind: Kind,
    seed: u64,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> (Driver, Episode) {
    let t = Instant::now();
    let mut d = match kind {
        Kind::Plain => Driver::plain(seed, tally),
        Kind::Churn => Driver::churn(seed, tally),
    };
    let setup_secs = t.elapsed().as_secs_f64();
    let mut w = Window::default();
    let (t, cpu) = (Instant::now(), cpu_ns());
    match kind {
        Kind::Plain => {
            for _ in 0..PLAIN_ROUNDS {
                let ns = d.plain_round(tally, tracer.as_deref_mut());
                w.ns[STEADY].push(ns as f64);
            }
            w.rounds = PLAIN_ROUNDS as u64;
        }
        Kind::Churn => {
            for _ in 0..CHURN_CYCLES {
                d.churn_cycle(&mut w, tally, tracer.as_deref_mut());
            }
        }
    }
    w.secs = t.elapsed().as_secs_f64();
    w.cpu_ns = cpu_ns().saturating_sub(cpu);
    let episode = Episode {
        traced: tracer.is_some(),
        setup_secs,
        first_round_ns: d.first_round_ns,
        window: w,
    };
    (d, episode)
}

/// Episodes back to back until `seconds` have passed, each from the
/// next sub-seed of `seed`; with a tracer, every other one records a
/// span per round (interleaved, because machine speed drifts by more
/// than tracing costs). Returns them with the last episode's plane.
fn episodes(
    kind: Kind,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Episode>, Driver) {
    let started = Instant::now();
    let mut seeds = SplitMix64::new(seed);
    let mut done = Vec::new();
    loop {
        let trace_this = tracer.as_deref_mut().filter(|_| done.len() % 2 == 1);
        let (d, e) = episode(kind, seeds.next_u64(), tally, trace_this);
        done.push(e);
        if started.elapsed().as_secs_f64() >= seconds && (tracer.is_none() || done.len() >= 2) {
            return (done, d);
        }
    }
}

/// The median over episodes of one per-episode number.
fn over(episodes: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    median(&episodes.iter().map(f).collect::<Vec<_>>())
}

fn kind_p50(episodes: &[Episode], kind: usize) -> f64 {
    over(episodes, |e| median(&e.window.ns[kind]))
}

fn rounds_per_s(episodes: &[Episode]) -> f64 {
    over(episodes, |e| e.window.rounds as f64 / e.window.secs)
}

/// The untraced run of either controller workload.
pub fn run(name: &str, seed: u64, seconds: f64) -> Outcome {
    let kind = Kind::of(name);
    let mut tally = Tally::default();
    let (eps, _) = episodes(kind, seed, seconds, &mut tally, None);
    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        ..Outcome::default()
    };
    out.set("ops_per_s", rounds_per_s(&eps));
    out.set("p50_us", kind_p50(&eps, STEADY) / 1e3);
    out.set(
        "cpu_us_per_op",
        over(&eps, |e| {
            e.window.cpu_ns as f64 / 1e3 / e.window.rounds as f64
        }),
    );
    out.set("peak_rss_mib", peak_rss_kib() as f64 / 1024.0);
    out.set("setup_s", over(&eps, |e| e.setup_secs));
    out
}

/// The traced run of either controller workload: every other episode
/// with a span per round, then the replays.
pub fn run_traced(name: &str, seed: u64, seconds: f64, trace_path: &Path) -> io::Result<Outcome> {
    let kind = Kind::of(name);
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let (all, mut d) = episodes(kind, seed, seconds, &mut tally, Some(&mut tracer));
    let (traced, plain): (Vec<Episode>, Vec<Episode>) = all.into_iter().partition(|e| e.traced);
    let mut out = Outcome::default();
    out.set("control.rounds_per_s", rounds_per_s(&traced));
    out.set(
        "control.first_round_ms",
        over(&traced, |e| e.first_round_ns as f64 / 1e6),
    );
    match kind {
        Kind::Plain => out.set(
            "control.round_us_plain_p50",
            kind_p50(&traced, STEADY) / 1e3,
        ),
        Kind::Churn => {
            out.set(
                "control.round_ms_steady_p50",
                kind_p50(&traced, STEADY) / 1e6,
            );
            out.set(
                "control.round_ms_rotating_p50",
                kind_p50(&traced, ROTATING) / 1e6,
            );
            let membership_ms = kind_p50(&traced, MEMBERSHIP) / 1e6;
            out.set("control.round_ms_membership_p50", membership_ms);
            // Growth: eight new slots six times over, each followed by
            // a round, on the last episode's plane.
            let grow_ns: Vec<f64> = (0..6)
                .map(|_| {
                    d.rates.extend([0.0; 8]);
                    d.round(
                        GROW,
                        |p| {
                            p.grow_width(8);
                        },
                        &mut tally,
                        Some(&mut tracer),
                    ) as f64
                })
                .collect();
            out.set("control.grow_round_ms_p50", median(&grow_ns) / 1e6);
            let cluster_ms = replay::cluster_stages(&mut tracer, &mut d.plane, &mut out);
            out.set("control.self_ms_membership", membership_ms - cluster_ms);
        }
    }
    replay::core_small(&mut tracer, &mut out);
    out.set("control.round_ms_max", tally.max_ns as f64 / 1e6);
    out.set("control.rounds_over_cadence", tally.over_cadence as f64);
    let (plain_ns, traced_ns) = (kind_p50(&plain, STEADY), kind_p50(&traced, STEADY));
    out.set(
        "benchmark.trace_overhead_pct",
        (traced_ns - plain_ns) / plain_ns.max(1e-9) * 100.0,
    );
    out.set("benchmark.trace_spans", tracer.recorded() as f64);
    out.set("benchmark.trace_spans_dropped", tracer.dropped() as f64);
    tracer.write_jsonl(trace_path)?;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simplex_check_sees_a_detached_slot_and_a_healthy_round() {
        let mut plane = build(4, 1000, false);
        plane.round(1, &[0.9, 0.0, 0.0, 0.0]);
        assert!(simplex_holds(&plane));
        plane.detach_connection(2);
        plane.round(2, &[0.9, 0.0, 0.0, 0.0]);
        assert!(simplex_holds(&plane));
        assert_eq!(plane.weights().units()[2], 0);
    }

    #[test]
    fn an_episode_runs_its_whole_script_and_every_round_checks_out() {
        let mut tally = Tally::default();
        let (d, e) = episode(Kind::Plain, 42, &mut tally, None);
        assert_eq!(e.window.rounds as usize, PLAIN_ROUNDS);
        assert_eq!(e.window.ns[STEADY].len(), PLAIN_ROUNDS);
        assert_eq!(tally.attempted, WARM_ROUNDS + PLAIN_ROUNDS as u64);
        assert_eq!(tally.failed, 0);
        assert_eq!(d.round_no, tally.attempted);
        // Same seed, same script: the installed weights repeat exactly.
        let (d2, _) = episode(Kind::Plain, 42, &mut Tally::default(), None);
        assert_eq!(d.plane.weights().units(), d2.plane.weights().units());
    }
}
