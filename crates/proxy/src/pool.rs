//! The backend pool: per-backend health state, WRR
//! selection over the controller-installed weights, and the reload diff
//! that maps config changes onto region grow/shrink.
//!
//! Slot indices are stable for the lifetime of a backend: the pool never
//! reorders `slots`, so slot `j` here is connection `j` in the balancer's
//! weight vector and `proxy.conn<j>.*` in telemetry. Removing a mid-list
//! backend via reload marks it `removed` (permanently detached, weight
//! pinned to 0) rather than shifting its successors; only trailing
//! removed slots are actually closed, via region shrink.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use streambal_core::{WeightVector, WrrScheduler};
use streambal_transport::BlockingCounter;

/// Weight-simplex resolution, matching the controller default (Σw = 1000).
const RESOLUTION: u32 = 1000;

/// Cap on the probe-backoff doubling (base × 32).
const MAX_BACKOFF_MULT: u32 = 32;

/// One backend worker: address, health state and shared blocking counter.
#[derive(Debug)]
pub struct Backend {
    /// Where the backend listens.
    pub addr: SocketAddr,
    counter: Arc<BlockingCounter>,
    ejected: AtomicBool,
    removed: AtomicBool,
    consecutive_failures: AtomicU32,
    backoff_mult: AtomicU32,
    /// Earliest re-admission probe time, as millis since pool start.
    next_probe_ms: AtomicU64,
}

impl Backend {
    fn new(addr: SocketAddr) -> Self {
        Backend {
            addr,
            counter: Arc::new(BlockingCounter::new()),
            ejected: AtomicBool::new(false),
            removed: AtomicBool::new(false),
            consecutive_failures: AtomicU32::new(0),
            backoff_mult: AtomicU32::new(1),
            next_probe_ms: AtomicU64::new(0),
        }
    }

    /// The shared counter forwarding charges blocked-write time to; the
    /// balancer samples it through the usual first-difference contract.
    #[must_use]
    pub fn counter(&self) -> &Arc<BlockingCounter> {
        &self.counter
    }

    /// In rotation: neither ejected by the health checker nor removed by
    /// a config reload.
    #[must_use]
    pub fn healthy(&self) -> bool {
        !self.ejected.load(Ordering::Acquire) && !self.removed.load(Ordering::Acquire)
    }

    /// Whether the health checker currently has this backend ejected.
    #[must_use]
    pub fn is_ejected(&self) -> bool {
        self.ejected.load(Ordering::Acquire)
    }

    /// Whether a reload removed this backend from the config.
    #[must_use]
    pub fn is_removed(&self) -> bool {
        self.removed.load(Ordering::Acquire)
    }

    /// Records one forward failure. Returns `true` when this failure
    /// crosses the ejection threshold (the caller bumps the ejection
    /// counter); schedules the first re-admission probe `probe_interval ×
    /// backoff` from `now_ms`, doubling the backoff up to ×32 so a
    /// flapping backend (e.g. accepting connects but never reading) is
    /// re-admitted less and less eagerly.
    pub fn record_failure(&self, eject_after: u32, probe_interval: Duration, now_ms: u64) -> bool {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        if failures < eject_after || self.ejected.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.schedule_probe(probe_interval, now_ms);
        true
    }

    /// Records one successful forward: resets the failure streak and, once
    /// the backend has proven itself in rotation, the probe backoff.
    pub fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Release);
        self.backoff_mult.store(1, Ordering::Release);
    }

    /// Whether an ejected backend is due for a re-admission probe.
    #[must_use]
    pub fn probe_due(&self, now_ms: u64) -> bool {
        self.is_ejected()
            && !self.is_removed()
            && now_ms >= self.next_probe_ms.load(Ordering::Acquire)
    }

    /// Re-admits the backend after a successful probe. The failure streak
    /// restarts from zero but the doubled backoff is kept until a real
    /// forwarded request succeeds — a connect-only probe is weaker
    /// evidence of health than served traffic.
    pub fn readmit(&self) {
        self.consecutive_failures.store(0, Ordering::Release);
        self.ejected.store(false, Ordering::Release);
    }

    /// Pushes a probe time into the future without re-admitting (failed
    /// probe).
    pub fn probe_failed(&self, probe_interval: Duration, now_ms: u64) {
        self.schedule_probe(probe_interval, now_ms);
    }

    /// Sets the next probe `probe_interval × backoff` after `now_ms` and
    /// doubles the backoff, up to ×32.
    fn schedule_probe(&self, probe_interval: Duration, now_ms: u64) {
        let mult = self.backoff_mult.load(Ordering::Acquire);
        let delay = probe_interval.as_millis() as u64 * u64::from(mult);
        self.next_probe_ms.store(now_ms + delay, Ordering::Release);
        self.backoff_mult
            .store((mult * 2).min(MAX_BACKOFF_MULT), Ordering::Release);
    }
}

/// The outcome of applying a reloaded backend list.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ReloadDiff {
    /// Backends newly queued for slot creation (region grow).
    pub added: usize,
    /// Backends newly marked removed (detach, and shrink when trailing).
    pub removed: usize,
    /// Previously removed backends resurrected in place.
    pub resurrected: usize,
}

impl ReloadDiff {
    /// Whether the reload changed anything.
    #[must_use]
    pub fn changed(&self) -> bool {
        self.added + self.removed + self.resurrected > 0
    }
}

/// Shared state between the I/O shards (selection, and shard 0's
/// re-admission probes), the control round (weights, width, health), and
/// reload.
#[derive(Debug)]
pub struct BackendPool {
    slots: RwLock<Vec<Arc<Backend>>>,
    /// Backends from a reload awaiting slot creation via `open_slot`.
    pending: Mutex<Vec<SocketAddr>>,
    weights: Mutex<WeightVector>,
    weights_gen: AtomicU64,
    wrr: Mutex<WrrState>,
    started: Instant,
}

#[derive(Debug)]
struct WrrState {
    wrr: WrrScheduler,
    gen: u64,
}

impl BackendPool {
    /// A pool with one slot per initial backend and even weights.
    #[must_use]
    pub fn new(backends: &[SocketAddr]) -> Self {
        assert!(!backends.is_empty(), "a pool needs at least one backend");
        let slots: Vec<Arc<Backend>> = backends
            .iter()
            .map(|&a| Arc::new(Backend::new(a)))
            .collect();
        let weights = WeightVector::even(slots.len(), RESOLUTION);
        let wrr = WrrScheduler::new(&weights);
        BackendPool {
            slots: RwLock::new(slots),
            pending: Mutex::new(Vec::new()),
            weights: Mutex::new(weights),
            weights_gen: AtomicU64::new(0),
            wrr: Mutex::new(WrrState { wrr, gen: 0 }),
            started: Instant::now(),
        }
    }

    /// Milliseconds since the pool started (the probe clock).
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Current slot count (region width as the pool sees it).
    #[must_use]
    pub fn width(&self) -> usize {
        self.slots.read().expect("slots lock").len()
    }

    /// The backend at slot `j`, if the slot exists.
    #[must_use]
    pub fn backend(&self, j: usize) -> Option<Arc<Backend>> {
        self.slots.read().expect("slots lock").get(j).cloned()
    }

    /// Snapshot of all slots (index, backend).
    #[must_use]
    pub fn slots(&self) -> Vec<(usize, Arc<Backend>)> {
        self.slots
            .read()
            .expect("slots lock")
            .iter()
            .cloned()
            .enumerate()
            .collect()
    }

    /// `DataPlane::slot_healthy` answer for slot `j`.
    #[must_use]
    pub fn slot_healthy(&self, j: usize) -> bool {
        self.backend(j).is_some_and(|b| b.healthy())
    }

    /// Installs controller weights (called from the control round). Lock
    /// order everywhere is wrr → weights; this takes only `weights`, so it
    /// can never deadlock against a concurrent `pick`.
    pub fn install_weights(&self, weights: &WeightVector) {
        *self.weights.lock().expect("weights lock") = weights.clone();
        self.weights_gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Picks the next backend by smooth WRR over the installed weights,
    /// skipping unhealthy backends and any slot already in `tried` (the
    /// retry skip-list). Falls back to a linear scan so a pick succeeds
    /// whenever any untried healthy backend exists at all.
    #[must_use]
    pub fn pick(&self, tried: &[usize]) -> Option<(usize, Arc<Backend>)> {
        let slots = self.slots.read().expect("slots lock");
        let mut state = self.wrr.lock().expect("wrr lock");
        let gen = self.weights_gen.load(Ordering::Acquire);
        if state.gen != gen {
            let weights = self.weights.lock().expect("weights lock");
            state.wrr.set_units(weights.units());
            state.gen = gen;
        }
        // A few weighted picks first so healthy traffic follows the
        // controller's simplex...
        for _ in 0..slots.len().max(1) {
            if state.wrr.len() != slots.len() {
                break;
            }
            let j = state.wrr.pick();
            if !tried.contains(&j) && slots.get(j).is_some_and(|b| b.healthy()) {
                return Some((j, Arc::clone(&slots[j])));
            }
        }
        // ...then any untried healthy backend at all (dispatch-proxy's
        // skip-list idiom): correctness of retry beats weight fidelity.
        slots
            .iter()
            .enumerate()
            .find(|(j, b)| !tried.contains(j) && b.healthy())
            .map(|(j, b)| (j, Arc::clone(b)))
    }

    /// Applies a reloaded backend list: matches existing slots by address
    /// (first unconsumed match wins, so duplicates pair off in order),
    /// resurrects removed slots whose address came back, marks unmatched
    /// slots removed, and queues genuinely new addresses for region grow.
    pub fn apply_backends(&self, desired: &[SocketAddr]) -> ReloadDiff {
        let slots = self.slots.read().expect("slots lock");
        let mut diff = ReloadDiff::default();
        let mut consumed = vec![false; slots.len()];
        let mut new_addrs: Vec<SocketAddr> = Vec::new();
        for &addr in desired {
            let matched = slots
                .iter()
                .enumerate()
                .find(|(j, b)| !consumed[*j] && b.addr == addr);
            match matched {
                Some((j, b)) => {
                    consumed[j] = true;
                    if b.removed.swap(false, Ordering::AcqRel) {
                        diff.resurrected += 1;
                    }
                }
                None => new_addrs.push(addr),
            }
        }
        for (j, b) in slots.iter().enumerate() {
            if !consumed[j] && !b.removed.swap(true, Ordering::AcqRel) {
                diff.removed += 1;
            }
        }
        drop(slots);
        if !new_addrs.is_empty() {
            let mut pending = self.pending.lock().expect("pending lock");
            // Only queue addresses not already pending (repeated polls of
            // the same contents are idempotent at the watcher, but belt
            // and braces for programmatic callers).
            for addr in new_addrs {
                if !pending.contains(&addr) {
                    pending.push(addr);
                    diff.added += 1;
                }
            }
        }
        diff
    }

    /// The width the control plane should reconcile toward. Shrink wins
    /// over grow when both apply — `run_threaded` moves one direction per
    /// round, and a trailing removed slot must not block pending adds
    /// forever (once the tail closes, the next round grows).
    #[must_use]
    pub fn target(&self) -> usize {
        let slots = self.slots.read().expect("slots lock");
        let trailing_removed = slots
            .iter()
            .rev()
            .take_while(|b| b.is_removed())
            .count()
            // Never shrink below one slot.
            .min(slots.len() - 1);
        if trailing_removed > 0 {
            return slots.len() - trailing_removed;
        }
        slots.len() + self.pending.lock().expect("pending lock").len()
    }

    /// Whether a reload queued backends that still await slot creation.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.pending.lock().expect("pending lock").is_empty()
    }

    /// Drains the reload-pending queue without opening slots. The
    /// autoscaling proxy routes reload-added backends into its reserve
    /// instead of growing immediately — the config defines the pool, the
    /// width policy decides how much of it is live.
    #[must_use]
    pub fn take_pending(&self) -> Vec<SocketAddr> {
        std::mem::take(&mut *self.pending.lock().expect("pending lock"))
    }

    /// Queues one backend for slot creation via
    /// [`open_pending`](Self::open_pending) (the autoscaler's grow path;
    /// reload uses [`apply_backends`](Self::apply_backends)).
    pub fn push_pending(&self, addr: SocketAddr) {
        self.pending.lock().expect("pending lock").push(addr);
    }

    /// `DataPlane::open_slot`: materialises one pending backend as a new
    /// trailing slot and returns its index.
    ///
    /// # Panics
    ///
    /// Panics when no pending backend exists — the control plane only
    /// opens slots it was told to via [`target`](Self::target).
    pub fn open_pending(&self) -> usize {
        let addr = self.pending.lock().expect("pending lock").remove(0);
        let mut slots = self.slots.write().expect("slots lock");
        slots.push(Arc::new(Backend::new(addr)));
        slots.len() - 1
    }

    /// `DataPlane::close_slot`: drops the trailing slot. The control
    /// plane narrows the region (weight drained to zero) before closing.
    ///
    /// # Panics
    ///
    /// Panics if asked to close a non-trailing slot or the last slot.
    pub fn close_tail(&self, j: usize) {
        let mut slots = self.slots.write().expect("slots lock");
        assert_eq!(j, slots.len() - 1, "only the trailing slot can close");
        assert!(slots.len() > 1, "the last slot never closes");
        slots.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    #[test]
    fn pick_follows_weights_and_skips_unhealthy_and_tried() {
        let pool = BackendPool::new(&[addr(1), addr(2), addr(3)]);
        let heavy = WeightVector::from_units(vec![800, 100, 100], RESOLUTION).unwrap();
        pool.install_weights(&heavy);
        let mut counts = [0usize; 3];
        for _ in 0..100 {
            let (j, _) = pool.pick(&[]).unwrap();
            counts[j] += 1;
        }
        assert!(counts[0] > counts[1] && counts[0] > counts[2], "{counts:?}");

        // Eject slot 0: picks avoid it entirely.
        let b0 = pool.backend(0).unwrap();
        for _ in 0..3 {
            b0.record_failure(3, Duration::from_millis(100), 0);
        }
        assert!(!pool.slot_healthy(0));
        for _ in 0..50 {
            let (j, _) = pool.pick(&[]).unwrap();
            assert_ne!(j, 0);
        }
        // Skip-list exhaustion: with 0 ejected and 1,2 tried, nothing is left.
        assert!(pool.pick(&[1, 2]).is_none());
        // The skip-list also applies to healthy slots.
        let (j, _) = pool.pick(&[1]).unwrap();
        assert_eq!(j, 2);
    }

    #[test]
    fn record_failure_ejects_once_at_threshold_and_backoff_doubles() {
        let b = Backend::new(addr(9));
        assert!(!b.record_failure(3, Duration::from_millis(100), 0));
        assert!(!b.record_failure(3, Duration::from_millis(100), 0));
        assert!(
            b.record_failure(3, Duration::from_millis(100), 0),
            "third failure ejects"
        );
        assert!(b.is_ejected());
        assert!(
            !b.record_failure(3, Duration::from_millis(100), 0),
            "already ejected"
        );
        assert!(!b.probe_due(50), "first probe waits out the base interval");
        assert!(b.probe_due(100));
        b.probe_failed(Duration::from_millis(100), 100);
        assert!(!b.probe_due(250), "second wait doubled");
        assert!(b.probe_due(300));
        b.readmit();
        assert!(b.healthy());
        b.record_success();
        assert!(!b.record_failure(3, Duration::from_millis(100), 400));
    }

    #[test]
    fn apply_backends_maps_config_changes_onto_slots() {
        let pool = BackendPool::new(&[addr(1), addr(2), addr(3)]);
        // Drop the middle backend, add a new one.
        let diff = pool.apply_backends(&[addr(1), addr(3), addr(4)]);
        assert_eq!(
            diff,
            ReloadDiff {
                added: 1,
                removed: 1,
                resurrected: 0
            }
        );
        assert!(pool.backend(1).unwrap().is_removed());
        assert!(!pool.slot_healthy(1));
        assert_eq!(pool.target(), 4, "pending add grows the region");
        let j = pool.open_pending();
        assert_eq!(j, 3);
        assert_eq!(pool.backend(3).unwrap().addr, addr(4));
        assert_eq!(pool.target(), 4);

        // Resurrect the middle backend.
        let diff = pool.apply_backends(&[addr(1), addr(2), addr(3), addr(4)]);
        assert_eq!(
            diff,
            ReloadDiff {
                added: 0,
                removed: 0,
                resurrected: 1
            }
        );
        assert!(pool.slot_healthy(1));

        // Drop the tail: shrink wins over (absent) grow.
        let diff = pool.apply_backends(&[addr(1), addr(2), addr(3)]);
        assert_eq!(diff.removed, 1);
        assert_eq!(pool.target(), 3);
        pool.close_tail(3);
        assert_eq!(pool.width(), 3);
        assert_eq!(pool.target(), 3);
    }

    #[test]
    fn target_never_drops_below_one() {
        let pool = BackendPool::new(&[addr(1)]);
        pool.apply_backends(&[addr(2)]);
        // addr(1) is removed but is the only slot: shrink is clamped, the
        // pending add can still grow.
        assert_eq!(pool.target(), 2);
    }
}
