//! Proves the steady-state control-plane round is allocation-free — the
//! end-to-end companion of `core/tests/alloc_counter.rs`, driving the
//! balancer the way every data plane does: through
//! [`ControlPlane::round`]. Membership changes (detach/attach) are allowed
//! to allocate; the steady state before and after them is not. A width
//! decision that holds allocates nothing either, even with telemetry
//! attached.
//!
//! This file deliberately holds exactly one `#[test]`: the counter is
//! process-global, so any concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use streambal_control::{Autoscaler, ControlPlane, WidthDecision};
use streambal_core::controller::BalancerConfig;
use streambal_telemetry::Telemetry;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

fn count() {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
            rates[j] = 0.05 + 0.3 * f64::from(round % 10) / 10.0;
        }
        plane.round(u64::from(from + round), rates);
    }
}

fn measure_zero(plane: &mut ControlPlane, rates: &[f64], label: &str) {
    // Settle on the exact workload we are about to measure, so weight
    // movement (and the raw-point inserts it causes) finishes first.
    for round in 0..150u64 {
        plane.round(round, rates);
    }
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    for round in 0..20u64 {
        plane.round(round, rates);
    }
    ENABLED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "steady-state control-plane rounds must not allocate \
         ({label}: got {allocs} over 20 rounds)"
    );
}

#[test]
fn steady_state_rounds_allocate_nothing_through_the_control_plane() {
    let cfg = BalancerConfig::builder(N).build().unwrap();
    let mut plane = ControlPlane::builder(cfg).build();
    let mut rates = vec![0.0; N];

    // Warm up: every connection gets data, the solver runs its full path,
    // and all scratch capacities reach their steady-state sizes.
    warm(&mut plane, &mut rates, 200, 0);
    rates.fill(0.0);
    measure_zero(&mut plane, &rates, "initial steady state");

    // A membership change may allocate (fresh function, solver
    // renormalization, trace events)...
    assert!(plane.detach_connection(3));
    warm(&mut plane, &mut rates, 100, 200);
    rates.fill(0.0);
    // ...but the steady state after it must be allocation-free again.
    measure_zero(&mut plane, &rates, "after detach");

    assert!(plane.attach_connection(3));
    warm(&mut plane, &mut rates, 200, 300);
    rates.fill(0.0);
    measure_zero(&mut plane, &rates, "after re-attach");

    // Growth rebuilds the solver scratch wholesale and may allocate as much
    // as it likes in the act — but the very next steady state, at the wider
    // width, must be allocation-free again.
    let range = plane.grow_width(8);
    assert_eq!(range, N..N + 8);
    rates.resize(N + 8, 0.0);
    warm(&mut plane, &mut rates, 200, 500);
    rates.fill(0.0);
    measure_zero(&mut plane, &rates, "after grow");

    // And the same after shrinking back to the original width.
    plane.shrink_width(8);
    rates.truncate(N);
    warm(&mut plane, &mut rates, 200, 700);
    rates.fill(0.0);
    measure_zero(&mut plane, &rates, "after shrink");

    // The plane still functions after the measured windows.
    rates[0] = 0.9;
    let w = plane.round(1_000, &rates);
    assert_eq!(w.units().iter().sum::<u32>(), 1000);

    // Width decisions: only a grow or shrink pushes its traced reason.
    let telemetry = Telemetry::new();
    let mut plane = ControlPlane::builder(BalancerConfig::builder(4).build().unwrap())
        .telemetry(&telemetry)
        .metrics("alloc")
        .width_policy(Autoscaler::default())
        .build();
    let decide = |plane: &mut ControlPlane, round: u64, rates: &[f64]| {
        plane.round(round, rates);
        ALLOCS.store(0, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
        let decision = plane.decide_width(round, rates);
        ENABLED.store(false, Ordering::SeqCst);
        (decision, ALLOCS.load(Ordering::SeqCst))
    };
    // Pressure between the default watermarks: every round holds.
    for round in 0..20u64 {
        let (decision, allocs) = decide(&mut plane, round, &[0.01; 4]);
        assert_eq!(decision, WidthDecision::Hold, "round {round}");
        assert_eq!(
            allocs, 0,
            "a holding width decision allocated (round {round})"
        );
    }
    // Saturated: the third confirming round grows, and that one allocates.
    let mut grew = false;
    for round in 20..23u64 {
        let (decision, allocs) = decide(&mut plane, round, &[0.9; 4]);
        if decision == WidthDecision::Hold {
            assert_eq!(allocs, 0, "round {round}");
        } else {
            assert!(allocs > 0, "the grow's trace event was not built");
            grew = true;
        }
    }
    assert!(grew, "a saturated region must grow after confirmation");
}
