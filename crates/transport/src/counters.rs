//! Cumulative blocking-time counters and rate sampling.
//!
//! The data transport layer maintains, per connection, a counter of the
//! total time the sender has spent blocked (the paper's "cumulative blocking
//! time", Figure 2). The balancer samples it periodically; the first
//! difference divided by the sampling interval is the **blocking rate**.
//! The counter may be reset at any time (the paper's transport resets it
//! periodically); the sampler is reset-aware.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Budget for one wait inside an elective blocking send, on either link.
/// Blocked time reaches the counter once per wake, so this is also the
/// granularity at which a stall becomes visible to a sampler — keep it
/// well under the shortest sampling interval in use (20 ms in the tests).
pub(crate) const WAIT_SLICE: Duration = Duration::from_millis(5);

/// A monotone (between resets) cumulative blocking-time counter, in
/// nanoseconds. Cheap to update from the sending thread and to read from a
/// sampling thread.
#[derive(Debug, Default)]
pub struct BlockingCounter {
    blocked_ns: AtomicU64,
}

impl BlockingCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a blocked duration.
    pub fn add_ns(&self, ns: u64) {
        self.blocked_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Reads the cumulative blocked time since the last reset.
    pub fn cumulative_ns(&self) -> u64 {
        self.blocked_ns.load(Ordering::Relaxed)
    }

    /// Resets the counter, returning the value it held.
    pub fn reset(&self) -> u64 {
        self.blocked_ns.swap(0, Ordering::Relaxed)
    }
}

/// Derives per-interval blocking rates from a cumulative counter by first
/// differences, tolerating counter resets.
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
    /// If the counter was reset since the previous sample (its value
    /// decreased), the current value is taken as the whole delta — the same
    /// recovery the paper's transport applies after its periodic resets.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ns == 0`.
    pub fn sample(&mut self, counter: &BlockingCounter, interval_ns: u64) -> f64 {
        assert!(interval_ns > 0, "interval must be positive");
        let now = counter.cumulative_ns();
        let delta = if now >= self.last_cumulative_ns {
            now - self.last_cumulative_ns
        } else {
            now
        };
        self.last_cumulative_ns = now;
        delta as f64 / interval_ns as f64
    }

    /// Forgets the sampling history (e.g. after an external counter reset
    /// that should not be interpreted as a delta).
    pub fn resync(&mut self, counter: &BlockingCounter) {
        self.last_cumulative_ns = counter.cumulative_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = BlockingCounter::new();
        c.add_ns(10);
        c.add_ns(32);
        assert_eq!(c.cumulative_ns(), 42);
    }

    #[test]
    fn counter_reset_returns_previous() {
        let c = BlockingCounter::new();
        c.add_ns(7);
        assert_eq!(c.reset(), 7);
        assert_eq!(c.cumulative_ns(), 0);
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
    fn sampler_survives_counter_reset() {
        let c = BlockingCounter::new();
        let mut s = BlockingSampler::new();
        c.add_ns(500);
        s.sample(&c, 1000);
        c.reset();
        c.add_ns(200);
        // Counter went 500 -> 200: treat 200 as the delta.
        assert!((s.sample(&c, 1000) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn resync_suppresses_stale_delta() {
        let c = BlockingCounter::new();
        let mut s = BlockingSampler::new();
        c.add_ns(900);
        s.resync(&c);
        assert_eq!(s.sample(&c, 1000), 0.0);
    }

    #[test]
    fn counter_is_sync_and_send() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<BlockingCounter>();
    }
}
