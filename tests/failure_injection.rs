//! Failure injection: dead operators, dropped peers, poisoned stages. The
//! system must fail *loudly* (errors surfaced) rather than hang or deliver
//! silently-wrong output.

use std::time::Duration;

use streambal::dataflow::{source, ParallelConfig, RangeSource};
use streambal::runtime::region::{RegionBuilder, RegionError, RegionReport, Transport};
use streambal::transport::{bounded, SendError, TrySendError};

#[test]
fn panicking_map_stage_is_reported() {
    let result = source(RangeSource::new(0..10_000))
        .map(|x: u64| {
            assert!(x < 5_000, "injected failure");
            x
        })
        .count();
    let err = result.expect_err("a dead stage must surface as an error");
    let msg = err.to_string();
    assert!(msg.contains("panicked"), "unexpected error: {msg}");
}

#[test]
fn panicking_replica_in_parallel_region_is_reported() {
    let result = source(RangeSource::new(0..50_000))
        .parallel(ParallelConfig::new(3), || {
            |x: u64| {
                assert!(x != 20_000, "injected replica failure");
                x
            }
        })
        .count();
    assert!(
        result.is_err(),
        "a dead replica must not produce a silently-short stream"
    );
}

#[test]
fn panicking_source_is_reported() {
    struct Exploding(u64);
    impl streambal::dataflow::Source for Exploding {
        type Item = u64;
        fn next_tuple(&mut self) -> Option<u64> {
            self.0 += 1;
            assert!(self.0 < 100, "injected source failure");
            Some(self.0)
        }
    }
    let result = source(Exploding(0)).map(|x| x).count();
    assert!(result.is_err(), "a dead source must surface as an error");
}

#[test]
fn transport_surfaces_dead_peers() {
    let (tx, rx) = bounded::<u32>(4);
    drop(rx);
    assert_eq!(tx.try_send(1), Err(TrySendError::Disconnected(1)));
    assert_eq!(tx.send_recording(2), Err(SendError(2)));
}

#[test]
fn downstream_cancellation_stops_the_pipeline() {
    // Dropping the receiving half mid-run must wind the stages down rather
    // than deadlock; the transport reports disconnection to each sender.
    let (tx, rx) = bounded::<u64>(2);
    let producer = std::thread::spawn(move || {
        let mut sent = 0u64;
        for i in 0..1_000_000 {
            if tx.send_recording(i).is_err() {
                break;
            }
            sent += 1;
        }
        sent
    });
    // Consume a few then walk away.
    for _ in 0..10 {
        let _ = rx.recv();
    }
    drop(rx);
    let sent = producer.join().unwrap();
    assert!(
        sent < 1_000_000,
        "producer must observe the cancellation, sent {sent}"
    );
}

const INTERVAL_MS: u64 = 20;
/// Slack for a late *sender* wake: blocked time reaches the counter when
/// the sender wakes (every 5 ms readiness-wait slice, later on a stolen
/// vCPU), so a round can be charged a span that began before its own
/// measured interval.
const LATE_MS: u64 = 150;

/// Both transports the stall tests run on: a real socket whose kernel
/// buffer fills, and an in-process channel whose queue does.
const STALL_TRANSPORTS: [Transport; 2] = [
    Transport::Tcp {
        frame_padding: 8 * 1024,
    },
    Transport::Channel { capacity: 64 },
];

/// The stall scenario both tests below build on: worker 0 of a 2-worker
/// region stops draining its connection for 400 ms after 2 000 tuples, so
/// the connection fills and the splitter's sends to connection 0 block.
fn stalled_region(transport: Transport) -> RegionBuilder {
    let mut b = RegionBuilder::new(2);
    b.transport(transport)
        .tuple_cost(500)
        .sample_interval_ms(INTERVAL_MS)
        .worker_stall(0, 2_000, Duration::from_millis(400));
    b
}

/// Runs the region on a thread of its own under a watchdog: it must finish
/// or error, never hang.
fn run_watched(builder: RegionBuilder, tuples: u64) -> Result<RegionReport, RegionError> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(builder.run(tuples));
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("stalled region must finish or error, not hang (watchdog)")
}

#[test]
fn tcp_worker_socket_stall_rebalances_and_never_hangs() {
    // Both links charge blocked time by one rule, so the stall must read
    // the same on a channel as on a socket.
    for transport in STALL_TRANSPORTS {
        eprintln!("stall on {transport:?}");
        stall_rebalances_and_never_hangs(transport);
    }
}

fn stall_rebalances_and_never_hangs(transport: Transport) {
    use streambal::core::DEFAULT_RESOLUTION;

    // The run must finish (watchdog), surfacing the stall as measured
    // blocking and a rebalance — or as an error — never as a hang.
    let result = run_watched(stalled_region(transport), 40_000);
    if let Ok(report) = result {
        assert_eq!(report.delivered, 40_000);
        assert!(report.in_order);
        assert!(
            report.blocked_ns[0] > 0,
            "the stall must surface as recorded blocking: {:?}",
            report.blocked_ns
        );
        // Δ: the interval round `i` measured its rates over.
        let step_ms = |i: usize| {
            let prev_ms = i
                .checked_sub(1)
                .map_or(0, |p| report.snapshots[p].t_ns / 1_000_000);
            report.snapshots[i].t_ns / 1_000_000 - prev_ms
        };
        // Blocked time is charged as it accrues and a rate divides by Δ, so
        // one splitter reads at most 1 — never the whole stall in one lump.
        // LATE_MS absorbs a late sender wake; the aggregate check below is
        // the tight one.
        for (i, s) in report.snapshots.iter().enumerate() {
            let bound = (step_ms(i) + LATE_MS) as f64 / step_ms(i) as f64;
            assert!(
                s.rates.iter().all(|&r| r <= bound),
                "round at {} ms sampled {:?} (bound {bound})",
                s.t_ns / 1_000_000,
                s.rates
            );
        }
        // Keyed on the stall itself, not on the whole run (start-up blocking
        // lands on either connection): the stall is the longest run of
        // rounds that saw blocking on connection 0. Over it the controller
        // ends below the weight in force when it began, and never hands
        // weight back in a round the splitter spent stuck on 0 alone.
        let rounds: Vec<_> = report.snapshots.iter().enumerate().collect();
        let stall = rounds
            .chunk_by(|a, b| (a.1.rates[0] > 0.0) == (b.1.rates[0] > 0.0))
            .filter(|run| run[0].1.rates[0] > 0.0)
            .max_by_key(|run| run.len())
            .expect("the stall must show up as rounds with connection 0 blocked");
        let before = match stall[0].0 {
            0 => DEFAULT_RESOLUTION / 2,
            i => report.snapshots[i - 1].weights[0],
        };
        // One splitter thread cannot be blocked for longer than the wall
        // clock ran: what the stall's rounds charged in total (each rate
        // times its measured interval) fits in their span, give or take one
        // interval for a wait slice that began before the first of them and
        // millisecond rounding. A late wake moves time between rounds, not
        // into the sum; a span charged twice doubles it.
        let wall_ms: u64 = stall.iter().map(|&(i, _)| step_ms(i)).sum();
        let charged_ms: f64 = stall
            .iter()
            .map(|&(i, s)| s.rates[0] * step_ms(i) as f64)
            .sum();
        assert!(
            charged_ms <= (wall_ms + INTERVAL_MS) as f64,
            "{charged_ms:.1} ms of blocking charged to connection 0 in {wall_ms} ms of wall clock"
        );
        // (Sabotage used to check this test bites: `.round_robin()` on the
        // builder for the weight asserts, and for the rate asserts doubled
        // charging or lump charging — one charge when the blocked send
        // completes, in `chan::Sender::send_recording` or `TcpSender`'s
        // wait loop. On the channel, lump charging reads one round at
        // ≈ 400/20 = 20 against a bound of ≈ 8.5.)
        let mut w0 = before;
        for (_, s) in stall {
            assert!(
                s.weights[0] <= w0 || s.rates[0] < 0.5 || s.rates[1] > 0.0,
                "weight handed back to the stalled worker at {} ms: {w0} -> {:?}",
                s.t_ns / 1_000_000,
                s.weights
            );
            w0 = s.weights[0];
        }
        assert!(
            w0 < before,
            "the controller must shift weight away from the stalled worker: {before} -> {w0}"
        );
    }
    // An Err(..) is also acceptable: the failure was surfaced, not hidden.
}

#[test]
fn control_loop_keeps_its_cadence_while_a_slot_opens_during_a_stall() {
    for transport in STALL_TRANSPORTS {
        eprintln!("stall on {transport:?}");
        cadence_holds_while_a_slot_opens(transport);
    }
}

fn cadence_holds_while_a_slot_opens(transport: Transport) {
    // A third connection is scripted to open 250 ms in, while the splitter
    // sits blocked on connection 0. Opening it must not wait for that send:
    // the controller hands the new link over through the weights mutex,
    // which the splitter never holds across a send.
    let mut builder = stalled_region(transport);
    builder.grow_after(Duration::from_millis(250), 1);
    let Ok(report) = run_watched(builder, 40_000) else {
        return; // the failure was surfaced, not hidden
    };
    assert_eq!(report.delivered, 40_000);
    assert!(report.in_order);
    // Keyed on the stall, not on the clock: whenever the region widened,
    // connection 0 must still show up blocked in a later round.
    let grown = report
        .snapshots
        .iter()
        .position(|s| s.weights.len() == 3)
        .expect("the region must have grown");
    assert!(
        report.snapshots[grown + 1..]
            .iter()
            .any(|s| s.rates[0] >= 0.5),
        "width 3 was first recorded at {} ms, only after the stall had ended",
        report.snapshots[grown].t_ns / 1_000_000
    );
    // And no round inside the stall — the longest run of rounds that saw
    // blocking on connection 0 — went missing.
    let stall = report
        .snapshots
        .chunk_by(|a, b| (a.rates[0] > 0.0) == (b.rates[0] > 0.0))
        .filter(|run| run[0].rates[0] > 0.0)
        .max_by_key(|run| run.len())
        .expect("the stall must show up as rounds with connection 0 blocked");
    for pair in stall.windows(2) {
        let gap = pair[1].t_ns / 1_000_000 - pair[0].t_ns / 1_000_000;
        assert!(
            gap <= INTERVAL_MS + LATE_MS,
            "the control loop froze for {gap} ms at {} ms",
            pair[0].t_ns / 1_000_000
        );
    }
}

#[test]
fn tcp_peer_death_is_an_error_not_a_hang() {
    use streambal::transport::tcp::{connect, listen};
    let (addr, incoming) = listen().unwrap();
    let acceptor = std::thread::spawn(move || incoming.accept().unwrap());
    let mut tx = connect(addr).unwrap();
    let rx = acceptor.join().unwrap();
    drop(rx); // peer dies
              // The kernel may accept a few frames into its buffers, but sending must
              // eventually fail rather than block forever.
    let payload = vec![0u8; 16 * 1024];
    let mut failed = false;
    for _ in 0..10_000 {
        if tx.send_recording(&payload).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "writes to a dead peer must error");
}
