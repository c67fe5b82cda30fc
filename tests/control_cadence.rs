//! The wall-clock control loop's cadence and rate, on a scripted clock:
//! rounds fire on the `t0 + k·interval` grid, a round that overruns its
//! slot makes the loop skip the due times it missed (never replay them,
//! never drift), and a rate is blocked time over the interval that actually
//! elapsed — including across the overrun.
//!
//! Sabotages this test was checked against, each on a copy of
//! `ControlPlane::run_threaded`:
//! - nominal division (rates over `interval`, not the measured time): the
//!   overrunning round reads 0.8 × 45 / 10 = 3.6;
//! - catch-up bursting (fire the missed due times back to back): the three
//!   missed rounds all run at the overrun's 1 065 ms and, with no time
//!   elapsed, read a rate of 0;
//! - sleep-after-round (wait one interval after each round instead of
//!   until the next due time): every round after the overrun falls off the
//!   grid, at 1 075, 1 085, … ms.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use streambal::control::{Clock, ControlPlane, DataPlane};
use streambal::core::{BalancerConfig, WeightVector};
use streambal::telemetry::Telemetry;
use streambal::transport::BlockingCounter;

const T0: Duration = Duration::from_millis(1_000);
const INTERVAL: Duration = Duration::from_millis(10);
/// The round whose prelude overruns, and by how much.
const OVERRUN_ROUND: usize = 3;
const OVERRUN: Duration = Duration::from_millis(35);
const STOP_AT: Duration = Duration::from_millis(1_150);

/// A clock that moves only when told to: `sleep_until` jumps straight to
/// the deadline, and the plane below advances it to script an overrun.
struct ManualClock(Cell<Duration>);

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        self.0.get()
    }

    fn sleep_until(&self, deadline: Duration) {
        self.0.set(self.0.get().max(deadline));
    }
}

/// Two slots: slot 0's sender is blocked 80 % of the wall clock, charged
/// at the top of every round for the time since the last charge; slot 1
/// never blocks.
struct ScriptedPlane<'a> {
    clock: &'a ManualClock,
    stop: &'a AtomicBool,
    counters: [Arc<BlockingCounter>; 2],
    charged: Duration,
    rounds: usize,
}

impl DataPlane for ScriptedPlane<'_> {
    fn connections(&self) -> usize {
        2
    }

    fn begin_round(&mut self, _elapsed: Duration) {
        self.rounds += 1;
        if self.rounds == OVERRUN_ROUND {
            self.clock.0.set(self.clock.now() + OVERRUN);
        }
        let now = self.clock.now();
        let since = u64::try_from((now - self.charged).as_nanos()).unwrap();
        self.counters[0].add_ns(since / 5 * 4);
        self.charged = now;
        self.stop.store(now >= STOP_AT, Ordering::Release);
    }

    fn counter(&self, j: usize) -> Arc<BlockingCounter> {
        Arc::clone(&self.counters[j])
    }

    fn install_weights(&mut self, _weights: &WeightVector) {}
}

#[test]
fn rounds_keep_the_grid_and_rates_use_the_elapsed_interval() {
    let clock = ManualClock(Cell::new(T0));
    let stop = AtomicBool::new(false);
    let mut plane = ScriptedPlane {
        clock: &clock,
        stop: &stop,
        counters: [
            Arc::new(BlockingCounter::new()),
            Arc::new(BlockingCounter::new()),
        ],
        charged: T0,
        rounds: 0,
    };
    let telemetry = Telemetry::new();
    let mut control = ControlPlane::builder(BalancerConfig::builder(2).build().unwrap())
        .keep_snapshots(true)
        .telemetry(&telemetry)
        .metrics("cadence")
        .build();
    control.run_threaded(&mut plane, INTERVAL, &stop, &clock);

    let snapshots = control.snapshots();
    let ms = |d: Duration| u64::try_from(d.as_millis()).unwrap();
    let stamps: Vec<u64> = snapshots.iter().map(|s| s.t_ns / 1_000_000).collect();
    assert_eq!(snapshots.len(), plane.rounds, "one snapshot per round");

    // One rate: 80 % on slot 0 in every round, the overrunning one included.
    for s in snapshots {
        assert!(
            (s.rates[0] - 0.8).abs() < 1e-9 && s.rates[1] == 0.0,
            "round at {} ms read {:?}",
            s.t_ns / 1_000_000,
            s.rates
        );
    }

    // One cadence: strictly increasing stamps, all on the grid except the
    // overrunning round's, and the round after it at the first grid point
    // past the overrun, so the due times it covered were skipped.
    assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
    let late = OVERRUN_ROUND - 1;
    let on_grid = |t: u64| (t - ms(T0)).is_multiple_of(ms(INTERVAL));
    for (i, &t) in stamps.iter().enumerate() {
        assert_eq!(on_grid(t), i != late, "round {i} at {t} ms: {stamps:?}");
    }
    let overran_to = ms(T0 + INTERVAL * OVERRUN_ROUND as u32 + OVERRUN);
    assert_eq!(stamps[late], overran_to);
    assert_eq!(stamps[late + 1], overran_to.next_multiple_of(ms(INTERVAL)));
    assert_eq!(*stamps.last().unwrap(), ms(STOP_AT), "{stamps:?}");

    // Lag: one sample per round, zero on time, and the round after the
    // overrun woke 30 ms after the earliest due time it was serving.
    let lag = telemetry.registry().histogram("cadence.round.lag_ns");
    assert_eq!(lag.count(), snapshots.len() as u64);
    let waited = stamps[late + 1] - ms(T0 + INTERVAL * (OVERRUN_ROUND as u32 + 1));
    assert_eq!(waited, 30);
    assert_eq!(lag.max(), Some(waited * 1_000_000));
    assert_eq!(lag.sum(), waited * 1_000_000, "every other round on time");
}
