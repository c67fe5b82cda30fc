//! Cumulative blocking-time counters and rate sampling.
//!
//! The data transport layer maintains, per connection, a counter of the
//! total time the sender has spent blocked (the paper's "cumulative blocking
//! time", Figure 2). The balancer samples it periodically; the first
//! difference divided by the sampling interval is the **blocking rate**.
//!
//! A writer that elects to block marks the wait with a [`BlockedSpan`] and
//! does nothing else: a read returns the time of every ended span plus every
//! open one up to the moment of the read, so a stall shows while it lasts
//! and the sampler's first difference is exact. The counter is never reset.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A monotone cumulative blocking-time counter, in nanoseconds. Cheap to
/// update from the sending thread and to read from a sampling thread.
///
/// Overlapping spans (several writers blocked on one connection) read as
/// the sum of their lengths.
#[derive(Debug)]
pub struct BlockingCounter {
    /// Time of every ended span, plus whatever [`add_ns`](Self::add_ns)
    /// scripted.
    closed_ns: AtomicU64,
    /// How many spans are open; a read with none open takes no lock. It
    /// changes only under `starts_ns`'s lock.
    open: AtomicUsize,
    /// Sum of the open spans' start times, in ns since `epoch`. A span
    /// moves from here into `closed_ns` under this lock, so a locked read
    /// counts it exactly once. The sum wraps: `open × now − starts_ns` is
    /// the true, far smaller, sum of the open spans' lengths modulo 2⁶⁴.
    starts_ns: Mutex<u64>,
    /// Origin of the span start times.
    epoch: Instant,
}

impl Default for BlockingCounter {
    fn default() -> Self {
        BlockingCounter {
            closed_ns: AtomicU64::new(0),
            open: AtomicUsize::new(0),
            starts_ns: Mutex::new(0),
            epoch: Instant::now(),
        }
    }
}

impl BlockingCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a blocked duration that was measured elsewhere.
    pub fn add_ns(&self, ns: u64) {
        self.closed_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Starts a blocked span: reads include it from now until the returned
    /// span is dropped.
    pub fn start_span(self: &Arc<Self>) -> BlockedSpan {
        let mut starts = self.lock_starts();
        let start_ns = self.now_ns();
        *starts = starts.wrapping_add(start_ns);
        self.open.fetch_add(1, Ordering::Release);
        BlockedSpan {
            counter: Arc::clone(self),
            start_ns: Some(start_ns),
        }
    }

    /// Reads the cumulative blocked time: every ended span, plus every
    /// open one up to now. Successive reads never decrease.
    pub fn cumulative_ns(&self) -> u64 {
        // A span's time lands in `closed_ns` before its `open` decrement,
        // so a read that sees no span open sees the time of every ended one.
        if self.open.load(Ordering::Acquire) == 0 {
            return self.closed_ns.load(Ordering::Relaxed);
        }
        let starts = self.lock_starts();
        let open = self.open.load(Ordering::Relaxed) as u64;
        let open_ns = open.wrapping_mul(self.now_ns()).wrapping_sub(*starts);
        self.closed_ns.load(Ordering::Relaxed) + open_ns
    }

    /// Moves the span that started at `start_ns` into closed time,
    /// returning its length.
    fn end_span(&self, start_ns: u64) -> u64 {
        let mut starts = self.lock_starts();
        let ns = self.now_ns() - start_ns;
        self.closed_ns.fetch_add(ns, Ordering::Relaxed);
        *starts = starts.wrapping_sub(start_ns);
        self.open.fetch_sub(1, Ordering::Release);
        ns
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock_starts(&self) -> MutexGuard<'_, u64> {
        self.starts_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// An open blocked span on a [`BlockingCounter`], from
/// [`BlockingCounter::start_span`]. Dropping it ends it.
#[derive(Debug)]
#[must_use = "dropping a span ends it at once"]
pub struct BlockedSpan {
    counter: Arc<BlockingCounter>,
    /// `None` once ended.
    start_ns: Option<u64>,
}

impl BlockedSpan {
    /// Ends the span, returning its length in nanoseconds.
    pub fn end(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        self.start_ns
            .take()
            .map_or(0, |start_ns| self.counter.end_span(start_ns))
    }
}

impl Drop for BlockedSpan {
    fn drop(&mut self) {
        self.close();
    }
}

/// Derives per-interval blocking rates from a cumulative counter by first
/// differences.
///
/// # Examples
///
/// ```
/// use streambal_transport::{BlockingCounter, BlockingSampler};
///
/// let c = BlockingCounter::new();
/// let mut s = BlockingSampler::new();
/// c.add_ns(250_000_000);
/// let rate = s.sample(&c, 1_000_000_000);
/// assert!((rate - 0.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockingSampler {
    last_cumulative_ns: u64,
}

impl BlockingSampler {
    /// Creates a sampler with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples the counter, returning the blocking *rate* over the interval
    /// (blocked time divided by interval length, dimensionless).
    ///
    /// # Panics
    ///
    /// Panics if `interval_ns == 0`.
    pub fn sample(&mut self, counter: &BlockingCounter, interval_ns: u64) -> f64 {
        assert!(interval_ns > 0, "interval must be positive");
        let now = counter.cumulative_ns();
        // Reads never decrease; the saturation guards a sampler moved to
        // another counter.
        let delta = now.saturating_sub(self.last_cumulative_ns);
        self.last_cumulative_ns = now;
        delta as f64 / interval_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn counter_accumulates() {
        let c = BlockingCounter::new();
        c.add_ns(10);
        c.add_ns(32);
        assert_eq!(c.cumulative_ns(), 42);
    }

    #[test]
    fn sampler_takes_first_differences() {
        let c = BlockingCounter::new();
        let mut s = BlockingSampler::new();
        c.add_ns(100);
        assert!((s.sample(&c, 1000) - 0.1).abs() < 1e-12);
        c.add_ns(300);
        assert!((s.sample(&c, 1000) - 0.3).abs() < 1e-12);
        // No new blocking: rate 0.
        assert_eq!(s.sample(&c, 1000), 0.0);
    }

    #[test]
    fn an_open_span_shows_its_elapsed_time_before_it_ends() {
        let c = Arc::new(BlockingCounter::new());
        let span = c.start_span();
        let started = Instant::now();
        thread::sleep(Duration::from_millis(20));
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap();
        assert!(
            c.cumulative_ns() >= elapsed,
            "{} < {elapsed}",
            c.cumulative_ns()
        );
        let len = span.end();
        assert!(len >= elapsed);
        assert_eq!(c.cumulative_ns(), len);
    }

    #[test]
    fn overlapping_spans_read_as_their_sum() {
        let c = Arc::new(BlockingCounter::new());
        let first = c.start_span();
        thread::sleep(Duration::from_millis(10));
        let second = c.start_span();
        thread::sleep(Duration::from_millis(10));
        let open = c.cumulative_ns();
        let (a, b) = (first.end(), second.end());
        assert!(open <= a + b, "{open} > {a} + {b}");
        assert!(open >= 30_000_000 && a > b, "{open}: {a} then {b}");
        assert_eq!(c.cumulative_ns(), a + b);
    }

    #[test]
    fn dropping_a_span_ends_it() {
        let c = Arc::new(BlockingCounter::new());
        drop(c.start_span());
        let ended = c.cumulative_ns();
        thread::sleep(Duration::from_millis(5));
        assert_eq!(c.cumulative_ns(), ended, "a dropped span kept accruing");
        assert_eq!(c.open.load(Ordering::Acquire), 0);
    }

    #[test]
    fn reads_never_decrease_while_spans_start_and_end() {
        let c = Arc::new(BlockingCounter::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..3)
            .map(|_| {
                let (c, stop) = (Arc::clone(&c), Arc::clone(&stop));
                thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let span = c.start_span();
                        thread::yield_now();
                        drop(span);
                        c.add_ns(1);
                    }
                })
            })
            .collect();
        let mut last = 0;
        for _ in 0..200_000 {
            let now = c.cumulative_ns();
            assert!(now >= last, "read went back from {last} to {now}");
            last = now;
        }
        stop.store(true, Ordering::Release);
        for w in writers {
            w.join().unwrap();
        }
        assert!(c.cumulative_ns() >= last);
    }

    #[test]
    fn counter_is_sync_and_send() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<BlockingCounter>();
        assert_sync::<BlockedSpan>();
    }
}
