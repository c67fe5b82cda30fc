//! Proves the *clustered* controller round is allocation-free — in steady
//! state and in a round whose knees move — and bounds what a membership
//! change may allocate.
//!
//! The clustered path has far more moving parts than the plain one — the
//! fit-based knee refresh, the distinct-vector grouping and
//! nearest-neighbor-chain recluster, the in-place pooled PAVA refit and
//! the cluster-level solve — and every one of them must run out of
//! retained scratch. Adaptive decay moves the generation of every function
//! that has blocked — the even slots, which the warm-up feeds positive
//! rates — every round, so even the steady window re-knees those; the odd
//! slots have only ever seen 0.0, keep all-zero functions and keep their
//! generations. The second window then moves a knee *value* every round,
//! which forces the recluster itself. A detach may allocate (a fresh function for the slot,
//! the next round's first use of the spare clustering buffer), but only a
//! sliver of what it did when renormalizing built and cloned every dense
//! predicted table.
//!
//! This file deliberately holds exactly one `#[test]`: the counter is
//! process-global, so any concurrently running test would pollute it. The
//! plain-path variant lives in `alloc_counter.rs`; the end-to-end clustered
//! variant (through `ControlPlane::round`, across detach/attach and
//! grow/shrink) in `crates/control/tests/alloc_counter_clustered.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use streambal_core::controller::{BalancerConfig, ClusterOutcome, ClusteringConfig, LoadBalancer};
use streambal_core::rate::ConnectionSample;

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

#[test]
fn clustered_rounds_allocate_nothing_and_a_detach_stays_under_a_mebibyte() {
    const N: usize = 64;
    let cfg = BalancerConfig::builder(N)
        .clustering(ClusteringConfig::default())
        .build()
        .unwrap();
    let mut lb = LoadBalancer::new(cfg);

    // Warm up with two distinct load tiers so several clusters form and
    // every scratch buffer (condensed rows, member-vector pool, pooled
    // fits, solver heap) reaches its steady-state capacity.
    for round in 0..200u32 {
        let j = (round as usize * 7) % N;
        let rate = if j.is_multiple_of(2) {
            0.05 + 0.3 * f64::from(round % 10) / 10.0
        } else {
            0.0
        };
        lb.observe(&[ConnectionSample::new(j, rate)]);
        lb.rebalance();
    }
    assert!(
        lb.last_clusters().is_some(),
        "64 connections with the default threshold must cluster"
    );
    // Settle into the no-new-samples regime (the one we measure) so the
    // decaying knees converge and the raw-point keys stop changing.
    for _ in 0..150 {
        lb.rebalance();
    }

    let (allocs, _) = counted(|| {
        for _ in 0..20 {
            lb.rebalance();
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state clustered rounds must not allocate (got {allocs} over 20 rounds)"
    );

    // Knee-moving rounds: re-observe connection 0 at a weight it already
    // has data for (no new raw point) with an alternating rate, so its
    // knee value differs from the previous round's every round and the
    // live set is clustered again each time.
    let key = lb.function(0).raw_points().last().expect("warmed").0;
    let mut flip = false;
    let mut knee_moving_round = |lb: &mut LoadBalancer| {
        flip = !flip;
        lb.function_mut(0)
            .observe(key, if flip { 0.9 } else { 0.1 });
        lb.rebalance();
        assert!(
            matches!(
                lb.last_cluster_outcome(),
                Some(ClusterOutcome::Full { live: N, .. })
            ),
            "a moved knee must recluster, got {:?}",
            lb.last_cluster_outcome()
        );
    };
    // Let the EWMA settle into its two-cycle and both clustering buffers
    // see both partitions.
    for _ in 0..100 {
        knee_moving_round(&mut lb);
    }
    let (allocs, _) = counted(|| {
        for _ in 0..20 {
            knee_moving_round(&mut lb);
        }
    });
    assert_eq!(
        allocs, 0,
        "a round that reclusters must not allocate (got {allocs} over 20 rounds)"
    );
    // The balancer still functions after the measured window.
    lb.observe(&[ConnectionSample::new(0, 0.9)]);
    lb.rebalance();
    assert_eq!(lb.weights().units().iter().sum::<u32>(), 1000);
    assert!(lb.last_clusters().is_some());

    // A detach and the round after it on a warmed 2048-wide, 4096-unit
    // region. The dense formulation built 2048 tables of 4097 values and
    // cloned them: about 134 MB.
    const WIDE: usize = 2048;
    let cfg = BalancerConfig::builder(WIDE)
        .resolution(4096)
        .clustering(ClusteringConfig::default())
        .build()
        .unwrap();
    let mut lb = LoadBalancer::new(cfg);
    let samples: Vec<ConnectionSample> = (0..WIDE)
        .map(|j| {
            ConnectionSample::new(
                j,
                if j < 32 {
                    0.3 * (1 + j % 3) as f64
                } else {
                    0.0
                },
            )
        })
        .collect();
    for _ in 0..30 {
        lb.observe(&samples);
        lb.rebalance();
    }
    let (_, bytes) = counted(|| {
        assert!(lb.detach_connection(WIDE - 1));
        lb.observe(&samples[..WIDE - 1]);
        lb.rebalance();
    });
    assert_eq!(lb.weights().units().iter().sum::<u32>(), 4096);
    assert!(
        bytes < 1 << 20,
        "detach + the following round allocated {bytes} bytes, budget 1 MiB"
    );
}
