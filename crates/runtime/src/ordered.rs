//! The ordered-region protocol, written once: the paper's Figure 3 plus
//! DESIGN.md §5's resize contract; the [crate docs](crate) draw it and say
//! which parts each region supplies. Public only so that the sibling
//! `streambal-dataflow` crate can reach it — not part of the documented API.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use streambal_control::{ControlPlane, DataPlane, ScriptedWidth};
use streambal_core::controller::{BalancerConfig, BalancerMode};
use streambal_core::weights::{WeightVector, WrrScheduler};
use streambal_telemetry::{RoundSnapshot, Telemetry};
use streambal_transport::{BlockingCounter, Sender, TrySendError};

use crate::region::{LoadChange, LOAD_SCALE};

/// Locks a mutex, ignoring poisoning (a panicked peer thread is surfaced
/// at join time instead).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The worker behind a link hung up.
#[derive(Debug)]
pub struct Closed;

/// One splitter→worker connection: the seam that hides the transport from
/// the skeleton.
pub trait Link: Send + 'static {
    /// What the region's source yields; the splitter adds the sequence
    /// number.
    type Item;

    /// Sends one stamped item, electing to block — and charging the time
    /// to the link's blocking counter — when the connection is full.
    fn send_recording(&mut self, seq: u64, item: Self::Item) -> Result<(), Closed>;

    /// Sends without blocking; a full connection hands the item back as
    /// `Ok(Some(item))`.
    fn try_send(&mut self, seq: u64, item: Self::Item) -> Result<Option<Self::Item>, Closed>;

    /// The connection's cumulative blocking-time counter.
    fn blocking_counter(&self) -> Arc<BlockingCounter>;
}

impl<T: Send + 'static> Link for Sender<(u64, T)> {
    type Item = T;

    fn send_recording(&mut self, seq: u64, item: T) -> Result<(), Closed> {
        Sender::send_recording(self, (seq, item)).map_err(|_| Closed)
    }

    fn try_send(&mut self, seq: u64, item: T) -> Result<Option<T>, Closed> {
        match Sender::try_send(self, (seq, item)) {
            Ok(()) => Ok(None),
            Err(TrySendError::Full((_, item))) => Ok(Some(item)),
            Err(TrySendError::Disconnected(_)) => Err(Closed),
        }
    }

    fn blocking_counter(&self) -> Arc<BlockingCounter> {
        Sender::blocking_counter(self)
    }
}

/// What `make_slot(j)` hands the skeleton: connection `j` and the worker
/// thread draining it, which must exit once `link` is dropped and its
/// queue is empty.
pub struct Slot<L> {
    pub link: L,
    pub worker: JoinHandle<()>,
    /// The worker's live cost multiplier in thousandths, if scheduled
    /// [`LoadChange`]s can reach it.
    pub load: Option<Arc<AtomicU32>>,
}

/// Spawns the worker behind a link: applies `op` to every item `inbox`
/// yields and forwards the result to the merger under the item's sequence
/// number, until `inbox` ends or the merger is gone.
pub fn spawn_worker<T, U: Send + 'static>(
    name: String,
    inbox: impl Iterator<Item = (u64, T)> + Send + 'static,
    mut op: impl FnMut(T) -> U + Send + 'static,
    merge_tx: mpsc::Sender<(u64, U)>,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name(name)
        .spawn(move || {
            for (seq, item) in inbox {
                if merge_tx.send((seq, op(item))).is_err() {
                    break;
                }
            }
        })
        .expect("spawning a worker thread succeeds")
}

/// A region's shape and control-loop settings.
#[derive(Default)]
pub struct Spec {
    /// Initial width.
    pub width: usize,
    pub mode: BalancerMode,
    /// `false` pins the initial even split (round-robin baselines).
    pub balancing: bool,
    /// §4.4 transport-level rerouting instead of blocking straight away.
    pub reroute: bool,
    pub interval: Duration,
    pub width_script: ScriptedWidth,
    /// Hub for the controller's decision trace, and the prefix of its
    /// per-round gauges there.
    pub telemetry: Option<Telemetry>,
    pub metrics_prefix: Option<&'static str>,
    pub load_changes: Vec<LoadChange>,
    /// The merger's released-tuple count, which each round's snapshot
    /// turns into its interval's deliveries.
    pub delivered: Option<Arc<AtomicU64>>,
}

/// The state the splitter polls between tuples, and the only way a resize
/// reaches it: the controller pushes a fresh link into `opened` *before* it
/// installs the wider weights and lowers `keep` only *after* it installed
/// the narrower ones, and the splitter adopts both under the same lock it
/// reads the weights with — so the links it owns (and never locks across a
/// send) cover every weight vector it can see, by construction.
struct Hub<L> {
    weights: WeightVector,
    /// Links the splitter has yet to adopt: always the highest slots,
    /// lowest first.
    opened: Vec<L>,
    /// Lowest width reached by closing links the splitter holds since it
    /// last looked (`usize::MAX`: none closed).
    keep: usize,
    /// The splitter is done; no slot may open any more.
    draining: bool,
}

/// The splitter loop: stamp, pick up resizes and weights, pick a link by
/// WRR, send. Returns how many tuples §4.4 rerouting diverted.
fn split<L: Link>(
    hub: &Mutex<Hub<L>>,
    mut links: Vec<L>,
    source: impl Iterator<Item = L::Item>,
    reroute: bool,
) -> u64 {
    let mut current = lock(hub).weights.clone();
    let mut wrr = WrrScheduler::new(&current);
    let mut rerouted = 0;
    'tuples: for (seq, mut item) in (0u64..).zip(source) {
        {
            let mut hub = lock(hub);
            if hub.keep < links.len() || !hub.opened.is_empty() {
                // Dropping a retired link lets its worker drain and exit.
                links.truncate(hub.keep);
                links.append(&mut hub.opened);
                hub.keep = usize::MAX;
            }
            if hub.weights != current {
                wrr.set_units(hub.weights.units());
                current.clone_from(&hub.weights);
            }
        }
        let j = wrr.pick();
        if reroute {
            // MSG_DONTWAIT-style attempt on the pick, then on its siblings;
            // block on the original only when all are full.
            for k in 0..current.len() {
                match links[(j + k) % current.len()].try_send(seq, item) {
                    Ok(None) => {
                        rerouted += u64::from(k > 0);
                        continue 'tuples;
                    }
                    Ok(Some(back)) => item = back,
                    Err(Closed) => break 'tuples,
                }
            }
        }
        if links[j].send_recording(seq, item).is_err() {
            break;
        }
    }
    // Begin the drain: from here on the opener refuses, and dropping every
    // link lets the workers empty their queues in order and exit.
    let mut hub = lock(hub);
    hub.draining = true;
    hub.opened.clear();
    rerouted
}

/// What the plane keeps per open slot.
struct Booked {
    counter: Arc<BlockingCounter>,
    load: Option<Arc<AtomicU32>>,
}

/// The one [`DataPlane`]: the links' blocking counters, weights and
/// resizes into the hub, scheduled load changes at the top of a round.
struct CounterPlane<L> {
    hub: Arc<Mutex<Hub<L>>>,
    make_slot: Box<dyn FnMut(usize) -> io::Result<Slot<L>> + Send>,
    slots: Vec<Booked>,
    /// Every worker ever spawned, retired ones included; joined at teardown.
    workers: Vec<JoinHandle<()>>,
    changes: Vec<LoadChange>,
    next_change: usize,
    delivered: Option<Arc<AtomicU64>>,
}

impl<L: Link> CounterPlane<L> {
    /// Opens the next slot and queues its link for the splitter.
    fn try_open(&mut self) -> io::Result<()> {
        let slot = (self.make_slot)(self.slots.len())?;
        self.workers.push(slot.worker);
        let mut hub = lock(&self.hub);
        if hub.draining {
            // Dropping the link lets the fresh worker exit straight away.
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        self.slots.push(Booked {
            counter: slot.link.blocking_counter(),
            load: slot.load,
        });
        hub.opened.push(slot.link);
        Ok(())
    }
}

impl<L: Link> DataPlane for CounterPlane<L> {
    fn connections(&self) -> usize {
        self.slots.len()
    }

    fn begin_round(&mut self, elapsed: Duration) {
        while let Some(c) = self.changes.get(self.next_change) {
            if c.after > elapsed {
                break;
            }
            // A change aimed at a slot that is not open when it falls due
            // (not grown yet, or already retired) is skipped.
            if let Some(load) = self.slots.get(c.worker).and_then(|s| s.load.as_ref()) {
                load.store((c.factor * LOAD_SCALE) as u32, Ordering::Relaxed);
            }
            self.next_change += 1;
        }
    }

    fn open_slot(&mut self) -> bool {
        self.try_open().is_ok()
    }

    /// Acknowledges the retirement of the highest slot; the narrower
    /// weights are installed already. A link the splitter never adopted is
    /// dropped here, an adopted one when the splitter next looks.
    fn close_slot(&mut self) -> bool {
        if self.slots.len() <= 1 {
            return false;
        }
        self.slots.pop();
        let mut hub = lock(&self.hub);
        if hub.opened.pop().is_none() {
            hub.keep = hub.keep.min(self.slots.len());
        }
        true
    }

    fn counter(&self, j: usize) -> Arc<BlockingCounter> {
        Arc::clone(&self.slots[j].counter)
    }

    fn install_weights(&mut self, weights: &WeightVector) {
        lock(&self.hub).weights.clone_from(weights);
    }

    fn delivered(&self) -> u64 {
        self.delivered
            .as_ref()
            .map_or(0, |d| d.load(Ordering::Relaxed))
    }
}

/// A running region: the splitter and controller threads.
pub struct Region {
    /// When the region started; control rounds are stamped relative to it.
    pub started: Instant,
    splitter: JoinHandle<u64>,
    #[allow(clippy::type_complexity)]
    controller: JoinHandle<(Vec<RoundSnapshot>, Vec<u64>, Vec<JoinHandle<()>>)>,
    stop: Arc<AtomicBool>,
}

/// What a region leaves behind once joined.
pub struct Outcome {
    /// One entry per control round.
    pub snapshots: Vec<RoundSnapshot>,
    /// Final cumulative blocking time per connection, ns.
    pub blocked_ns: Vec<u64>,
    /// Tuples diverted by §4.4 rerouting.
    pub rerouted: u64,
}

/// Opens `spec.width` slots through `make_slot`, then starts the splitter
/// over `source` and the controller. Fails with the error of the first
/// initial slot that does not open, after tearing down the ones before it.
pub fn spawn<L: Link>(
    spec: Spec,
    source: impl Iterator<Item = L::Item> + Send + 'static,
    make_slot: impl FnMut(usize) -> io::Result<Slot<L>> + Send + 'static,
) -> io::Result<Region> {
    let started = Instant::now();
    let hub = Arc::new(Mutex::new(Hub {
        weights: WeightVector::even(spec.width, streambal_core::DEFAULT_RESOLUTION),
        opened: Vec::with_capacity(spec.width),
        keep: usize::MAX,
        draining: false,
    }));
    let mut changes = spec.load_changes;
    changes.sort_by_key(|c| c.after);
    let mut plane = CounterPlane {
        hub: Arc::clone(&hub),
        make_slot: Box::new(make_slot),
        slots: Vec::with_capacity(spec.width),
        workers: Vec::with_capacity(spec.width),
        changes,
        next_change: 0,
        delivered: spec.delivered,
    };
    for _ in 0..spec.width {
        if let Err(e) = plane.try_open() {
            lock(&hub).opened.clear();
            for worker in plane.workers {
                let _ = worker.join();
            }
            return Err(e);
        }
    }
    let links = std::mem::take(&mut lock(&hub).opened);

    // The splitter stops the control loop on its way out: the controller
    // holds (through `make_slot`) a hand on the workers' channel to the
    // merger, which therefore only closes once the controller is gone.
    let stop = Arc::new(AtomicBool::new(false));
    let splitter = {
        let stop = Arc::clone(&stop);
        let reroute = spec.reroute;
        thread::Builder::new()
            .name("streambal-splitter".to_owned())
            .spawn(move || {
                let rerouted = split(&hub, links, source, reroute);
                stop.store(true, Ordering::Release);
                rerouted
            })
            .expect("spawning the splitter thread succeeds")
    };

    let controller = {
        let stop = Arc::clone(&stop);
        let mut script = spec.width_script;
        script.sort();
        thread::Builder::new()
            .name("streambal-controller".to_owned())
            .spawn(move || {
                let cfg = BalancerConfig::builder(plane.connections())
                    .mode(spec.mode)
                    .build()
                    .expect("region-sized balancer config is valid");
                let mut builder = ControlPlane::builder(cfg).keep_snapshots(true);
                if let Some(t) = &spec.telemetry {
                    builder = builder.telemetry(t);
                }
                if let Some(prefix) = spec.metrics_prefix {
                    builder = builder.metrics(prefix);
                }
                if !spec.balancing {
                    builder = builder.round_robin();
                }
                if !script.is_empty() {
                    builder = builder.width_policy(script);
                }
                let mut control = builder.build();
                control.run_threaded(&mut plane, spec.interval, &stop, &started);
                let blocked_ns = plane
                    .slots
                    .iter()
                    .map(|s| s.counter.cumulative_ns())
                    .collect();
                // Dropping the rest of the plane here drops `make_slot`, and
                // with it the last hand on the workers' channel to the merger.
                (control.into_snapshots(), blocked_ns, plane.workers)
            })
            .expect("spawning the controller thread succeeds")
    };
    Ok(Region {
        started,
        splitter,
        controller,
        stop,
    })
}

impl Region {
    /// Tears the region down in the one order that cannot deadlock: join
    /// the splitter (it dropped its links and stopped the control loop on
    /// the way out), join the controller (it holds the slot opener), join
    /// the workers, then the merger thread if the region runs one. The
    /// error names the role of the first thread found to have panicked.
    pub fn join(self, merger: Option<JoinHandle<()>>) -> Result<Outcome, &'static str> {
        let rerouted = self.splitter.join();
        // A splitter that panicked never got to stop the control loop.
        self.stop.store(true, Ordering::Release);
        let rerouted = rerouted.map_err(|_| "splitter")?;
        let (snapshots, blocked_ns, workers) = self.controller.join().map_err(|_| "controller")?;
        for worker in workers {
            worker.join().map_err(|_| "worker")?;
        }
        if let Some(merger) = merger {
            merger.join().map_err(|_| "merger")?;
        }
        Ok(Outcome {
            snapshots,
            blocked_ns,
            rerouted,
        })
    }
}

/// A sequence number arrived twice.
#[derive(Debug, PartialEq, Eq)]
pub struct Duplicate(pub u64);

/// The in-order merger's buffer: items go in by sequence number in any
/// order and come out in exact sequence order, from 0.
pub struct Reorder<U> {
    pending: BTreeMap<u64, U>,
    next: u64,
}

impl<U> Default for Reorder<U> {
    fn default() -> Self {
        Reorder {
            pending: BTreeMap::new(),
            next: 0,
        }
    }
}

impl<U> Reorder<U> {
    /// Buffers `item` until every lower sequence number has been released;
    /// reports a `seq` that was released or is buffered already (one of the
    /// two copies is dropped).
    pub fn push(&mut self, seq: u64, item: U) -> Result<(), Duplicate> {
        if seq < self.next || self.pending.insert(seq, item).is_some() {
            return Err(Duplicate(seq));
        }
        Ok(())
    }

    /// Releases the next item in sequence, if it has arrived.
    pub fn pop_ready(&mut self) -> Option<U> {
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }
}

/// The merger loop: receive worker outputs until the channel closes or
/// `emit` returns `false`, releasing into `emit` strictly by sequence
/// number. Returns whether the merge was clean: no duplicate arrived and
/// nothing was left waiting on a gap.
pub fn merge<U>(rx: &mpsc::Receiver<(u64, U)>, mut emit: impl FnMut(U) -> bool) -> bool {
    let mut reorder = Reorder::default();
    'recv: while let Ok((seq, item)) = rx.recv() {
        if reorder.push(seq, item).is_err() {
            return false;
        }
        while let Some(item) = reorder.pop_ready() {
            if !emit(item) {
                break 'recv;
            }
        }
    }
    reorder.pending.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_holds_release_at_a_gap() {
        let mut r = Reorder::default();
        r.push(1, "b").unwrap();
        r.push(2, "c").unwrap();
        assert_eq!(r.pop_ready(), None, "seq 0 has not arrived");
        assert_eq!(r.pending.len(), 2);
        r.push(0, "a").unwrap();
        assert_eq!(r.pop_ready(), Some("a"));
        assert_eq!(r.pop_ready(), Some("b"));
        assert_eq!(r.pop_ready(), Some("c"));
        assert_eq!(r.pop_ready(), None);
        assert!(r.pending.is_empty());
    }

    #[test]
    fn reorder_reports_a_duplicate_instead_of_growing() {
        let mut r = Reorder::default();
        r.push(0, ()).unwrap();
        assert_eq!(r.pop_ready(), Some(()));
        assert_eq!(r.push(0, ()), Err(Duplicate(0)), "released already");
        assert!(r.pending.is_empty());
        r.push(2, ()).unwrap();
        assert_eq!(r.push(2, ()), Err(Duplicate(2)), "buffered already");
        assert_eq!(r.pending.len(), 1);
    }

    #[test]
    fn reorder_takes_payloads_without_an_order() {
        // f64 is not Ord and a closure is not even PartialEq.
        let mut r = Reorder::default();
        r.push(1, (f64::NAN, Box::new(|| 1) as Box<dyn Fn() -> i32>))
            .unwrap();
        r.push(0, (0.5, Box::new(|| 0))).unwrap();
        assert_eq!(r.pop_ready().map(|(_, f)| f()), Some(0));
        assert_eq!(r.pop_ready().map(|(_, f)| f()), Some(1));
    }

    #[test]
    fn merge_releases_in_order_and_flags_duplicates() {
        let (tx, rx) = mpsc::channel();
        for seq in [2u64, 0, 1, 3] {
            tx.send((seq, seq * 10)).unwrap();
        }
        let mut out = Vec::new();
        assert!(merge(&rx, |v| {
            out.push(v);
            out.len() < 4
        }));
        assert_eq!(out, [0, 10, 20, 30]);

        tx.send((0, 0)).unwrap();
        tx.send((0, 0)).unwrap();
        assert!(!merge(&rx, |_| true), "seq 0 arrived after its release");
    }
}
