//! Integration tests of the real threaded runtime. Thresholds are generous:
//! these run on genuinely noisy OS threads.

use std::time::Duration;

use streambal::core::DEFAULT_RESOLUTION;
use streambal::runtime::region::{LoadChange, RegionBuilder, RegionError, RegionReport, Transport};
use streambal::transport::frame::MAX_FRAME;

#[test]
fn ordering_and_conservation_hold() {
    let report = RegionBuilder::new(4)
        .tuple_cost(300)
        .sample_interval_ms(20)
        .run(40_000)
        .unwrap();
    assert_eq!(report.delivered, 40_000);
    assert!(report.in_order, "sequential semantics must hold");
}

#[test]
fn round_robin_baseline_works() {
    let report = RegionBuilder::new(2)
        .tuple_cost(300)
        .round_robin()
        .sample_interval_ms(20)
        .run(20_000)
        .unwrap();
    assert!(report.in_order);
    assert_eq!(report.delivered, 20_000);
}

#[test]
fn real_blocking_shifts_weight_from_slow_worker() {
    let report = RegionBuilder::new(2)
        .tuple_cost(5_000)
        .initial_load(1, 40.0)
        .sample_interval_ms(25)
        .run(60_000)
        .unwrap();
    assert!(report.in_order);
    let w = report.final_weights().expect("controller ran");
    assert!(w[1] < w[0], "slow worker must end with less weight: {w:?}");
    assert!(w[1] < 350, "slow worker should be clearly throttled: {w:?}");
}

#[test]
fn blocking_counters_accumulate_on_saturated_region() {
    let report = RegionBuilder::new(2)
        .tuple_cost(8_000)
        .round_robin()
        .sample_interval_ms(20)
        .run(30_000)
        .unwrap();
    // An infinite source saturates two workers: the splitter must have
    // blocked somewhere.
    assert!(
        report.blocked_ns.iter().sum::<u64>() > 0,
        "saturated splitter must record blocking: {:?}",
        report.blocked_ns
    );
}

#[test]
fn load_change_recovers_weight() {
    // Worker 0 is slow only for the first ~200 ms; with adaptive balancing
    // it should regain weight by the end of a longer run.
    let report = RegionBuilder::new(2)
        .tuple_cost(2_000)
        .initial_load(0, 30.0)
        .load_change(LoadChange {
            after: Duration::from_millis(200),
            worker: 0,
            factor: 1.0,
        })
        .sample_interval_ms(20)
        .run(400_000)
        .unwrap();
    assert!(report.in_order);
    let w = report.final_weights().expect("controller ran");
    assert!(
        w[0] > 100,
        "worker 0 should recover weight after the load vanishes: {w:?}"
    );
}

/// One elastic run on either transport: `start` workers, `delta` more
/// (or, negative, fewer) shortly into the run.
fn elastic_run(tcp: bool, start: usize, delta: isize, tuples: u64) -> RegionReport {
    let count = delta.unsigned_abs();
    // Over real loopback sockets a grown slot is a listen + connect +
    // worker spawn, and a retired one drains its kernel buffer in order.
    let (transport, at_ms, cost, interval_ms) = if tcp {
        (
            Transport::Tcp {
                frame_padding: 1024,
            },
            60,
            4_000,
            15,
        )
    } else {
        (Transport::Channel { capacity: 64 }, 50, 5_000, 10)
    };
    let at = Duration::from_millis(at_ms);
    let mut b = RegionBuilder::new(start);
    b.transport(transport)
        .tuple_cost(cost)
        .sample_interval_ms(interval_ms);
    if delta > 0 {
        b.grow_after(at, count);
    } else {
        b.shrink_after(at, count);
    }
    b.run(tuples).unwrap()
}

#[test]
fn regions_resize_mid_run_and_keep_order_on_both_transports() {
    for (tcp, start, delta, tuples) in [
        (false, 2usize, 2isize, 80_000),
        (false, 4, -2, 80_000),
        (true, 4, 4, 80_000),
        (true, 4, -2, 60_000),
    ] {
        let case = format!("tcp={tcp} {start}{delta:+}");
        let end = start.checked_add_signed(delta).unwrap();
        let report = elastic_run(tcp, start, delta, tuples);
        assert_eq!(report.delivered, tuples, "{case}");
        assert!(report.in_order, "{case}: a resize must not break ordering");
        let w = report.final_weights().expect("controller ran");
        assert_eq!(w.len(), end, "{case}: region should end at {end}: {w:?}");
        assert_eq!(report.blocked_ns.len(), end, "{case}");
        for s in &report.snapshots {
            assert_eq!(
                s.weights.iter().sum::<u32>(),
                DEFAULT_RESOLUTION,
                "{case}: round at {} ms left the simplex: {:?}",
                s.t_ns / 1_000_000,
                s.weights
            );
        }
        // Real threads and sockets are noisy — the minimax solve may park a
        // blocked slot at 0 in any single round — but every grown slot must
        // be admitted with positive weight in at least one round.
        for j in start..end {
            assert!(
                report
                    .snapshots
                    .iter()
                    .any(|s| s.weights.len() == end && s.weights[j] > 0),
                "{case}: grown slot {j} never carried weight"
            );
        }
    }
}

#[test]
fn load_change_reaches_a_worker_added_by_growth() {
    // Workers 2 and 3 join 60 ms in; 90 ms later worker 3 turns 50x
    // slower. The change must land on the grown worker's load handle and
    // the balancer must throttle it — not kill the controller thread.
    let report = RegionBuilder::new(2)
        .tuple_cost(5_000)
        .sample_interval_ms(20)
        .grow_after(Duration::from_millis(60), 2)
        .load_change(LoadChange {
            after: Duration::from_millis(150),
            worker: 3,
            factor: 50.0,
        })
        .run(150_000)
        .expect("a load change on a grown worker is legitimate");
    assert!(report.in_order);
    assert_eq!(report.delivered, 150_000);
    let w = report.final_weights().expect("controller ran");
    assert_eq!(w.len(), 4, "region should have grown: {w:?}");
    assert!(
        w[3] < DEFAULT_RESOLUTION / 8,
        "the slowed grown worker must end well below an even share: {w:?}"
    );
}

#[test]
fn load_change_on_a_worker_that_never_exists_is_rejected_or_skipped() {
    let change = |after_ms, worker| LoadChange {
        after: Duration::from_millis(after_ms),
        worker,
        factor: 20.0,
    };
    // Decidable up front: 2 workers + 1 scripted grow never reach index 3.
    let err = RegionBuilder::new(2)
        .grow_after(Duration::from_millis(40), 1)
        .load_change(change(10, 3))
        .run(1_000)
        .unwrap_err();
    assert_eq!(err, RegionError::Io(std::io::ErrorKind::InvalidInput));
    // Not decidable: worker 2 will exist, but not yet when the change falls
    // due. It is skipped; the controller lives and keeps balancing.
    let report = RegionBuilder::new(2)
        .tuple_cost(2_000)
        .sample_interval_ms(10)
        .grow_after(Duration::from_millis(80), 1)
        .load_change(change(20, 2))
        .run(60_000)
        .expect("a change that falls due early is skipped, not fatal");
    assert!(report.in_order);
    let rounds_after = report
        .snapshots
        .iter()
        .filter(|s| s.t_ns / 1_000_000 > 20)
        .count();
    assert!(rounds_after > 0, "the control loop must outlive the change");
}

#[test]
fn a_tcp_frame_over_the_wire_limit_is_rejected_up_front() {
    // The worker's receiver would refuse the first frame as corrupt and the
    // run would end silently short; the builder refuses to start instead,
    // the way it refuses an impossible load change.
    let tcp = |frame_padding| {
        let mut b = RegionBuilder::new(2);
        b.transport(Transport::Tcp { frame_padding });
        b
    };
    let err = tcp(2 << 20).run(200).unwrap_err();
    assert_eq!(err, RegionError::Io(std::io::ErrorKind::InvalidInput));
    let err = tcp(MAX_FRAME - 7).run(200).unwrap_err();
    assert_eq!(err, RegionError::Io(std::io::ErrorKind::InvalidInput));
    // The largest frame the wire carries still runs.
    let report = tcp(MAX_FRAME - 8).run(20).unwrap();
    assert_eq!(report.delivered, 20);
    assert!(report.in_order);
}
