//! Pins the controller bit for bit: five seeded scripts drive
//! `ControlPlane::round` plus the membership and width calls, and an FNV-1a
//! digest covers every round's installed weights, cluster assignment and
//! cluster outcome (and, for two scripts, the whole decision trace). Any
//! change to bounds, tie-breaking, clustering reuse, remainder hand-out,
//! membership renormalisation or trace order moves a digest.
//!
//! The rates are a closed loop on the installed weights (a slot blocks in
//! proportion to how far its weight exceeds a scripted capacity), so the
//! scripts walk through throttling, exploration and recovery rather than
//! feeding the model noise.

use streambal::control::ControlPlane;
use streambal::core::controller::{BalancerConfig, BalancerMode, ClusterOutcome, ClusteringConfig};
use streambal::core::rng::SplitMix64;
use streambal::telemetry::{Telemetry, TraceEvent};

/// FNV-1a over the little-endian bytes of every pinned quantity.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn mix_str(&mut self, s: &str) {
        self.mix(s.len() as u64);
        s.bytes().for_each(|b| self.mix(u64::from(b)));
    }

    /// Everything a round leaves visible on the balancer.
    fn mix_round(&mut self, plane: &ControlPlane) {
        let lb = plane.balancer();
        self.mix(lb.weights().units().len() as u64);
        lb.weights()
            .units()
            .iter()
            .for_each(|&w| self.mix(u64::from(w)));
        match lb.last_clusters().map(|c| &c.assignment) {
            None => self.mix(u64::MAX),
            Some(assignment) => {
                self.mix(assignment.len() as u64);
                assignment.iter().for_each(|&c| self.mix(c as u64));
            }
        }
        match lb.last_cluster_outcome() {
            None => self.mix(0),
            Some(ClusterOutcome::Reused) => self.mix(1),
            Some(ClusterOutcome::Full { live, distinct }) => {
                self.mix(2);
                self.mix(live as u64);
                self.mix(distinct as u64);
            }
        }
    }

    /// The decision trace, event by event in ring order.
    fn mix_trace(&mut self, telemetry: &Telemetry) {
        assert_eq!(telemetry.trace().dropped(), 0, "ring must hold the run");
        for event in telemetry.trace().events() {
            self.mix_str(event.kind());
            match event {
                TraceEvent::ControllerRound {
                    round,
                    rates,
                    weights_before,
                    weights_after,
                } => {
                    self.mix(round);
                    rates.iter().for_each(|r| self.mix(r.to_bits()));
                    weights_before.iter().for_each(|&w| self.mix(u64::from(w)));
                    weights_after.iter().for_each(|&w| self.mix(u64::from(w)));
                }
                TraceEvent::Decay { round, decay } => {
                    self.mix(round);
                    self.mix(decay.to_bits());
                }
                TraceEvent::Exploration {
                    round,
                    connection,
                    from,
                    to,
                } => {
                    self.mix(round);
                    self.mix(connection as u64);
                    self.mix(u64::from(from));
                    self.mix(u64::from(to));
                }
                TraceEvent::ClusterUpdate { round, assignment } => {
                    self.mix(round);
                    assignment.iter().for_each(|&c| self.mix(c as u64));
                }
                TraceEvent::Custom { name, fields } => {
                    self.mix_str(&name);
                    for (field, value) in fields {
                        self.mix_str(&field);
                        self.mix(value.to_bits());
                    }
                }
                TraceEvent::Sample { .. } => panic!("ControlPlane::round pushes no samples"),
            }
        }
    }
}

/// One closed-loop round: slot `j` blocks for the share of its weight above
/// `caps[j]` (jittered ±25 %, at most 1.0); detached slots report a junk
/// rate the plane must ignore.
fn round(plane: &mut ControlPlane, rng: &mut SplitMix64, t: u64, caps: &[u32]) {
    let lb = plane.balancer();
    let rates: Vec<f64> = lb
        .weights()
        .units()
        .iter()
        .zip(caps)
        .enumerate()
        .map(|(j, (&w, &cap))| {
            let jitter = rng.frange(0.75, 1.25);
            if !lb.is_attached(j) {
                0.25
            } else if w > cap {
                (f64::from(w - cap) / f64::from(w) * jitter).min(1.0)
            } else {
                0.0
            }
        })
        .collect();
    plane.round(t * 1000, &rates);
}

/// Scripts (a) and (b): width 8, R = 1000, 400 rounds; every 20 rounds a
/// fresh set of 1–3 slots loses most of its capacity; slot 2 and slot 5
/// each leave and come back once.
fn narrow_script(mode: BalancerMode, seed: u64, with_trace: bool) -> u64 {
    let cfg = BalancerConfig::builder(8).mode(mode).build().unwrap();
    let telemetry = Telemetry::new();
    let mut plane = ControlPlane::builder(cfg).telemetry(&telemetry).build();
    let mut rng = SplitMix64::new(seed);
    let mut digest = Digest::new();
    let mut caps = [400u32; 8];
    for t in 0..400u64 {
        if t % 20 == 0 {
            caps = [400; 8];
            for _ in 0..rng.range_usize(1, 3) {
                caps[rng.range_usize(0, 7)] = rng.range_u32(5, 80);
            }
        }
        match t {
            100 => assert!(plane.detach_connection(2)),
            140 => assert!(plane.attach_connection(2)),
            250 => assert!(plane.detach_connection(5)),
            290 => assert!(plane.attach_connection(5)),
            _ => {}
        }
        round(&mut plane, &mut rng, t, &caps);
        digest.mix_round(&plane);
    }
    if with_trace {
        digest.mix_trace(&telemetry);
    }
    digest.0
}

#[test]
fn adaptive_width_8_digest_is_pinned() {
    assert_eq!(
        narrow_script(BalancerMode::default(), 0xA11C_E5ED, true),
        3_702_243_074_865_355_386,
        "plain adaptive controller behaviour changed"
    );
}

#[test]
fn static_width_8_digest_is_pinned() {
    assert_eq!(
        narrow_script(BalancerMode::Static, 0xA11C_E5ED, false),
        371_001_185_118_390_936,
        "plain static controller behaviour changed"
    );
}

/// Script (c): width 64 with default clustering (threshold 32). Three
/// capacity classes, a hot spot that moves every 15 rounds, a wave of
/// detaches that takes the live count from 64 down to 28 (so the round
/// falls back to the per-slot solve with most slots detached) and a wave of
/// attaches that brings it back over the threshold. Rounds 300..600 have
/// capacity to spare everywhere: it takes the decaying knees some 220
/// rounds to stop moving, after which the partition is reused rather than
/// rebuilt, until the hot spot returns.
#[test]
fn clustered_width_64_digest_is_pinned() {
    let n = 64usize;
    let cfg = BalancerConfig::builder(n)
        .clustering(ClusteringConfig::default())
        .build()
        .unwrap();
    let telemetry = Telemetry::new();
    let mut plane = ControlPlane::builder(cfg).telemetry(&telemetry).build();
    let mut rng = SplitMix64::new(0x0C1A_55E5);
    let mut digest = Digest::new();
    let base: Vec<u32> = (0..n).map(|j| [6, 14, 22, 22][j % 4]).collect();
    let mut caps = base.clone();
    let mut reused = 0;
    for t in 0..640u64 {
        if (300..600).contains(&t) {
            caps.fill(60);
        } else if t % 15 == 0 {
            caps.clone_from(&base);
            caps[rng.range_usize(0, n - 1)] = 2;
        }
        // 36 detaches, four a round, from round 60; the same slots return
        // three a round from round 150.
        if (60..69).contains(&t) {
            for k in 0..4 {
                assert!(plane.detach_connection(((t - 60) * 4 + k) as usize));
            }
        }
        if (150..162).contains(&t) {
            for k in 0..3 {
                assert!(plane.attach_connection(((t - 150) * 3 + k) as usize));
            }
        }
        round(&mut plane, &mut rng, t, &caps);
        digest.mix_round(&plane);
        reused +=
            u32::from(plane.balancer().last_cluster_outcome() == Some(ClusterOutcome::Reused));
    }
    assert_eq!(plane.balancer().live_connections(), n);
    assert!(reused > 50, "only {reused} rounds reused the partition");
    digest.mix_trace(&telemetry);
    assert_eq!(
        digest.0, 7_658_302_955_406_570_869,
        "clustered controller behaviour changed"
    );
}

/// Script (d): width changes. A narrow region goes 4 → 8 → 5 on the
/// per-slot path; a region configured for clustering goes 30 → 34 (crossing
/// the threshold upwards, so the clustered solve switches on) and back to
/// 30.
#[test]
fn width_change_digest_is_pinned() {
    let mut digest = Digest::new();
    let mut rng = SplitMix64::new(0x0005_1DE5);

    let cfg = BalancerConfig::builder(4).build().unwrap();
    let mut plane = ControlPlane::builder(cfg).build();
    let caps = [300u32, 60, 300, 300, 40, 300, 300, 300];
    for t in 0..90u64 {
        match t {
            30 => assert_eq!(plane.grow_width(4), 4..8),
            60 => assert_eq!(plane.shrink_width(3), 5),
            _ => {}
        }
        let width = plane.balancer().config().connections();
        round(&mut plane, &mut rng, t, &caps[..width]);
        digest.mix_round(&plane);
    }

    let cfg = BalancerConfig::builder(30)
        .clustering(ClusteringConfig::default())
        .build()
        .unwrap();
    let mut plane = ControlPlane::builder(cfg).build();
    let caps: Vec<u32> = (0..34).map(|j| [12, 30, 45][j % 3]).collect();
    for t in 0..120u64 {
        match t {
            40 => assert_eq!(plane.grow_width(4), 30..34),
            80 => assert_eq!(plane.shrink_width(4), 30),
            _ => {}
        }
        let width = plane.balancer().config().connections();
        round(&mut plane, &mut rng, t, &caps[..width]);
        digest.mix_round(&plane);
    }
    assert_eq!(
        digest.0, 17_135_917_757_891_607_599,
        "width-change controller behaviour changed"
    );
}

/// Script (e): the wide clustered regime — width 512, R = 4096, default
/// clustering. An idle majority never blocks (their functions stay all
/// zero), every sixteenth slot is loaded, one hot slot moves every 20
/// rounds, and slot 7 leaves at round 40 and returns at round 80. The
/// clustered round pools the idle majority into one cluster, so this is
/// the regime where the pooled fits, the first-crossing search on them
/// and the remainder hand-out carry the solve.
#[test]
fn clustered_width_512_digest_is_pinned() {
    let n = 512usize;
    let cfg = BalancerConfig::builder(n)
        .resolution(4096)
        .clustering(ClusteringConfig::default())
        .build()
        .unwrap();
    let mut plane = ControlPlane::builder(cfg).build();
    let mut rng = SplitMix64::new(0x0005_12E5);
    let mut digest = Digest::new();
    let base: Vec<u32> = (0..n).map(|j| if j % 16 == 0 { 5 } else { 4096 }).collect();
    let mut caps = base.clone();
    let mut clustered = 0;
    for t in 0..200u64 {
        if t % 20 == 0 {
            caps.clone_from(&base);
            caps[rng.range_usize(0, n - 1)] = 1;
        }
        match t {
            40 => assert!(plane.detach_connection(7)),
            80 => assert!(plane.attach_connection(7)),
            _ => {}
        }
        round(&mut plane, &mut rng, t, &caps);
        digest.mix_round(&plane);
        clustered += u32::from(plane.balancer().last_clusters().is_some());
    }
    assert!(clustered > 180, "only {clustered} rounds clustered");
    assert_eq!(
        digest.0, 2_863_506_102_725_276_282,
        "wide clustered controller behaviour changed"
    );
}
