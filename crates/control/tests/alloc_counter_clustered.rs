//! Proves the steady-state *clustered* control-plane round is
//! allocation-free — the end-to-end companion of
//! `core/tests/alloc_counter_clustered.rs`, driving a clustering-enabled
//! balancer through [`ControlPlane::round`] and across every membership
//! transition a region sees in production: detach, re-attach, growth and
//! shrink. The transitions themselves may allocate (fresh functions,
//! scratch re-layout); the steady state before and after each one must
//! not, and neither may a round that reclusters because a knee moved. What
//! a detach allocates is bounded in bytes at the end, on a 2048-wide
//! region.
//!
//! This file deliberately holds exactly one `#[test]`: the counter is
//! process-global, so any concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use streambal_control::ControlPlane;
use streambal_core::controller::{BalancerConfig, ClusterOutcome, ClusteringConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Runs `f` with the counters on; returns `(allocations, bytes requested)`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    f();
    ENABLED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const N: usize = 64;

fn warm(plane: &mut ControlPlane, rates: &mut [f64], rounds: u32, from: u32) {
    let n = rates.len();
    for round in 0..rounds {
        let j = (round as usize * 7) % n;
        rates.fill(0.0);
        if plane.balancer().is_attached(j) {
            // Two load tiers keep several clusters alive through the warmup.
            rates[j] = if j.is_multiple_of(2) {
                0.05 + 0.3 * f64::from(round % 10) / 10.0
            } else {
                0.0
            };
        }
        plane.round(u64::from(from + round), rates);
    }
}

fn measure_zero(plane: &mut ControlPlane, rates: &[f64], label: &str) {
    // Settle on the exact workload we are about to measure, so weight
    // movement (and the raw-point inserts it causes) finishes first and
    // the decaying knees converge. The clustered path needs a longer
    // runway than the plain one: pooled predicted values keep decaying
    // (and occasionally re-ordering the greedy solve) until every decayed
    // point has sunk below every frozen below-weight point.
    for round in 0..500u64 {
        plane.round(round, rates);
    }
    assert!(
        plane.balancer().last_clusters().is_some(),
        "{label}: the live membership must stay above the clustering \
         threshold for this proof to mean anything"
    );
    let (allocs, _) = counted(|| {
        for round in 0..20u64 {
            plane.round(round, rates);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state clustered control-plane rounds must not allocate \
         ({label}: got {allocs} over 20 rounds)"
    );
}

#[test]
fn clustered_rounds_allocate_nothing_through_the_control_plane() {
    let cfg = BalancerConfig::builder(N)
        .clustering(ClusteringConfig::default())
        .build()
        .unwrap();
    let mut plane = ControlPlane::builder(cfg).build();
    let mut rates = vec![0.0; N];

    warm(&mut plane, &mut rates, 200, 0);
    rates.fill(0.0);
    measure_zero(&mut plane, &rates, "initial clustered steady state");

    // Detaching drops one member but stays above the threshold, so the
    // steady state after the change is still the clustered round — now
    // running over the cached live-index list for a sparse membership.
    assert!(plane.detach_connection(3));
    warm(&mut plane, &mut rates, 100, 200);
    rates.fill(0.0);
    measure_zero(&mut plane, &rates, "after detach");

    assert!(plane.attach_connection(3));
    warm(&mut plane, &mut rates, 200, 300);
    rates.fill(0.0);
    measure_zero(&mut plane, &rates, "after re-attach");

    // Growth re-lays-out the whole per-round scratch and
    // may allocate in the act; the steady state at the wider width must be
    // allocation-free again.
    let range = plane.grow_width(8);
    assert_eq!(range, N..N + 8);
    rates.resize(N + 8, 0.0);
    warm(&mut plane, &mut rates, 200, 500);
    rates.fill(0.0);
    measure_zero(&mut plane, &rates, "after grow");

    plane.shrink_width(8);
    rates.truncate(N);
    warm(&mut plane, &mut rates, 200, 700);
    rates.fill(0.0);
    measure_zero(&mut plane, &rates, "after shrink");

    // Knee-moving rounds: re-observe connection 0 at a weight it already
    // has data for with an alternating rate, so its knee value — and with
    // it the live set's clustering — is redone every round. The weights
    // settle into a two-cycle, after which the zero samples every round
    // records land on weights seen before.
    let key = plane.balancer().function(0).raw_points().last().unwrap().0;
    let mut flip = false;
    let mut knee_moving_round = |plane: &mut ControlPlane| {
        flip = !flip;
        let rate = if flip { 0.9 } else { 0.1 };
        plane.balancer_mut().function_mut(0).observe(key, rate);
        plane.round(0, &rates);
        assert!(
            matches!(
                plane.balancer().last_cluster_outcome(),
                Some(ClusterOutcome::Full { live: N, .. })
            ),
            "a moved knee must recluster"
        );
    };
    for _ in 0..300 {
        knee_moving_round(&mut plane);
    }
    let (allocs, _) = counted(|| {
        for _ in 0..20 {
            knee_moving_round(&mut plane);
        }
    });
    assert_eq!(
        allocs, 0,
        "a control-plane round that reclusters must not allocate \
         (got {allocs} over 20 rounds)"
    );

    // The plane still functions after the measured windows.
    rates[0] = 0.9;
    let w = plane.round(1_000, &rates);
    assert_eq!(w.units().iter().sum::<u32>(), 1000);

    // A detach and the round after it on a warmed 2048-wide, 4096-unit
    // plane: renormalizing used to build and clone every dense predicted
    // table, about 134 MB.
    const WIDE: usize = 2048;
    let cfg = BalancerConfig::builder(WIDE)
        .resolution(4096)
        .clustering(ClusteringConfig::default())
        .build()
        .unwrap();
    let mut plane = ControlPlane::builder(cfg).build();
    let rates: Vec<f64> = (0..WIDE)
        .map(|j| {
            if j < 32 {
                0.3 * (1 + j % 3) as f64
            } else {
                0.0
            }
        })
        .collect();
    for round in 0..30 {
        plane.round(round, &rates);
    }
    let (_, bytes) = counted(|| {
        assert!(plane.detach_connection(WIDE - 1));
        plane.round(30, &rates);
    });
    assert_eq!(plane.weights().units().iter().sum::<u32>(), 4096);
    assert!(
        bytes < 1 << 20,
        "detach + the following round allocated {bytes} bytes, budget 1 MiB"
    );
}
