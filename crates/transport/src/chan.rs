//! Bounded MPSC channels with elective, *recorded* blocking on send.
//!
//! The channel models one TCP connection between the splitter and a worker
//! PE: a bounded buffer whose full condition makes the sender block. The
//! sender exposes the paper's two-step measurement protocol:
//!
//! 1. [`Sender::try_send`] — the `MSG_DONTWAIT` analogue; never blocks.
//! 2. [`Sender::send_recording`] — on a full buffer it *elects to block*
//!    (like the paper's `select` with a timeout object), and the wait is
//!    one span on the connection's [`BlockingCounter`].
//!
//! A sender can additionally be [instrumented](Sender::instrument) with a
//! telemetry registry, publishing the same blocking signal as a named
//! counter plus a wait-duration histogram.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use streambal_telemetry::{Counter, Histogram, MetricsRegistry};

use crate::counters::BlockingCounter;

/// Locks a mutex, ignoring poisoning (the queues hold plain data; a
/// panicked peer cannot leave them logically inconsistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Telemetry handles published by [`Sender::instrument`].
struct Instrument {
    blocked_ns: Counter,
    block_waits: Counter,
    wait_ns: Histogram,
}

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    counter: Arc<BlockingCounter>,
    instrument: OnceLock<Instrument>,
}

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The buffer is full; the message is handed back.
    Full(T),
    /// The receiver is gone; the message is handed back.
    Disconnected(T),
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "channel buffer is full"),
            TrySendError::Disconnected(_) => write!(f, "receiving side was disconnected"),
        }
    }
}

impl<T: fmt::Debug> std::error::Error for TrySendError<T> {}

/// Error returned by [`Sender::send_recording`] when the receiver is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(
    /// The message that could not be delivered.
    pub T,
);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving side was disconnected")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The buffer is currently empty.
    Empty,
    /// All senders are gone and the buffer is drained.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "channel buffer is empty"),
            TryRecvError::Disconnected => write!(f, "sending side was disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`Receiver::recv`] when all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending side was disconnected")
    }
}

impl std::error::Error for RecvError {}

/// Creates a bounded instrumented channel with the given buffer capacity.
///
/// The capacity models the socket buffers between the splitter and a
/// worker; the paper notes an overloaded connection holds "at least two
/// system buffers worth of unprocessed tuples" before its sender ever
/// blocks.
///
/// # Panics
///
/// Panics if `capacity == 0`.
///
/// # Examples
///
/// ```
/// use streambal_transport::{bounded, TrySendError};
///
/// let (tx, rx) = bounded::<u64>(2);
/// tx.try_send(1).unwrap();
/// tx.try_send(2).unwrap();
/// assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
/// assert_eq!(rx.try_recv().unwrap(), 1);
/// ```
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "capacity must be positive");
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::with_capacity(capacity)),
        capacity,
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        counter: Arc::new(BlockingCounter::new()),
        instrument: OnceLock::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The sending half of an instrumented channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Attempts to enqueue without blocking (the `MSG_DONTWAIT` analogue).
    ///
    /// # Errors
    ///
    /// Returns [`TrySendError::Full`] when the buffer is at capacity, or
    /// [`TrySendError::Disconnected`] when the receiver is gone; the message
    /// is handed back in both cases.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        if self.shared.receivers.load(Ordering::Acquire) == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        let mut q = lock(&self.shared.queue);
        if q.len() >= self.shared.capacity {
            return Err(TrySendError::Full(value));
        }
        q.push_back(value);
        drop(q);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Sends, electing to block when the buffer is full; the wait is a
    /// span on this connection's [`BlockingCounter`].
    ///
    /// This is the paper's measurement path: first a non-blocking attempt,
    /// then — if it would block — a recorded wait until space frees up.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] with the message when the receiver is gone.
    pub fn send_recording(&self, value: T) -> Result<(), SendError<T>> {
        // Fast path: MSG_DONTWAIT-style attempt.
        let value = match self.try_send(value) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
            Err(TrySendError::Full(v)) => v,
        };
        // Slow path: elect to block; the counter shows the wait while it lasts.
        let span = self.shared.counter.start_span();
        let mut q = lock(&self.shared.queue);
        let sent = loop {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                break Err(SendError(value));
            }
            if q.len() < self.shared.capacity {
                q.push_back(value);
                break Ok(());
            }
            q = self
                .shared
                .not_full
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(q);
        let ns = span.end();
        if let Some(inst) = self.shared.instrument.get() {
            inst.blocked_ns.add(ns);
            inst.block_waits.incr();
            inst.wait_ns.record(ns);
        }
        self.shared.not_empty.notify_one();
        sent
    }

    /// Publishes this connection's blocking signal into `registry` under
    /// `transport.<name>.blocked_ns` (cumulative counter, mirrors the
    /// [`BlockingCounter`] as of each wait's end),
    /// `transport.<name>.block_waits` (number of recorded waits) and
    /// `transport.<name>.block_wait_ns` (per-wait duration histogram), all
    /// updated once, when a wait ends.
    ///
    /// Instrumentation can be attached once per channel; later calls are
    /// ignored. All clones of this sender share it.
    pub fn instrument(&self, registry: &MetricsRegistry, name: &str) {
        let _ = self.shared.instrument.set(Instrument {
            blocked_ns: registry.counter(&format!("transport.{name}.blocked_ns")),
            block_waits: registry.counter(&format!("transport.{name}.block_waits")),
            wait_ns: registry.histogram(&format!("transport.{name}.block_wait_ns")),
        });
    }

    /// The connection's cumulative blocking-time counter, shared with any
    /// sampling thread.
    pub fn blocking_counter(&self) -> Arc<BlockingCounter> {
        Arc::clone(&self.shared.counter)
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Whether the buffer is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffer capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Take the lock first: a receiver between its check and its wait
            // would otherwise miss this wake-up and wait forever.
            drop(lock(&self.shared.queue));
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.shared.capacity)
            .field("len", &self.len())
            .finish()
    }
}

/// The receiving half of an instrumented channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Attempts to dequeue without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] when nothing is buffered, or
    /// [`TryRecvError::Disconnected`] once all senders are gone *and* the
    /// buffer is drained.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut q = lock(&self.shared.queue);
        match q.pop_front() {
            Some(v) => {
                drop(q);
                self.shared.not_full.notify_one();
                Ok(v)
            }
            None => {
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    Err(TryRecvError::Disconnected)
                } else {
                    Err(TryRecvError::Empty)
                }
            }
        }
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once all senders are gone and the buffer is
    /// drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut q = lock(&self.shared.queue);
        loop {
            if let Some(v) = q.pop_front() {
                drop(q);
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvError);
            }
            q = self
                .shared
                .not_empty
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Whether the buffer is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Take the lock first: a sender between its check and its wait
            // would otherwise miss this wake-up and wait forever.
            drop(lock(&self.shared.queue));
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver")
            .field("capacity", &self.shared.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = bounded(8);
        for i in 0..8 {
            tx.try_send(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(rx.try_recv().unwrap(), i);
        }
    }

    #[test]
    fn try_send_full_hands_value_back() {
        let (tx, _rx) = bounded(1);
        tx.try_send(10).unwrap();
        assert_eq!(tx.try_send(11), Err(TrySendError::Full(11)));
    }

    #[test]
    fn try_recv_empty_then_disconnected() {
        let (tx, rx) = bounded::<u32>(1);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_to_dropped_receiver_fails() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.try_send(1), Err(TrySendError::Disconnected(1)));
        assert_eq!(tx.send_recording(2), Err(SendError(2)));
    }

    #[test]
    fn recv_after_sender_drop_drains_buffer() {
        let (tx, rx) = bounded(4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn blocking_send_records_time() {
        let (tx, rx) = bounded(1);
        tx.try_send(0u32).unwrap();
        let counter = tx.blocking_counter();
        let handle = thread::spawn(move || {
            // This send must block until the receiver drains one slot.
            tx.send_recording(1).unwrap();
        });
        thread::sleep(Duration::from_millis(30));
        assert_eq!(rx.recv().unwrap(), 0);
        handle.join().unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        // The sender was blocked for roughly the sleep duration.
        assert!(
            counter.cumulative_ns() >= 10_000_000,
            "blocked {} ns, expected >= 10 ms",
            counter.cumulative_ns()
        );
    }

    #[test]
    fn dropping_the_receiver_wakes_a_blocked_sender() {
        for round in 0..500 {
            let (tx, rx) = bounded(1);
            tx.try_send(0u32).unwrap();
            let counter = tx.blocking_counter();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let sender = thread::spawn(move || done_tx.send(tx.send_recording(1)).unwrap());
            // Hang up just as the sender heads for its wait: its span opens
            // right before it takes the lock, checks and parks. Every other
            // round hangs up a pause later, across the check.
            while counter.cumulative_ns() == 0 {
                std::hint::spin_loop();
            }
            if round % 2 == 1 {
                std::hint::spin_loop();
            }
            drop(rx);
            let sent = done_rx
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("round {round}: the sender missed the hang-up"));
            assert_eq!(sent, Err(SendError(1)));
            sender.join().unwrap();
        }
    }

    #[test]
    fn dropping_the_last_sender_wakes_a_blocked_receiver() {
        use std::sync::atomic::AtomicBool;
        for round in 0..500 {
            let (tx, rx) = bounded::<u32>(1);
            let heading = Arc::new(AtomicBool::new(false));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let receiver = {
                let heading = Arc::clone(&heading);
                thread::spawn(move || {
                    heading.store(true, Ordering::Release);
                    done_tx.send(rx.recv()).unwrap();
                })
            };
            // Hang up just as the receiver heads for its wait: the flag goes
            // up right before it takes the lock, checks the sender count
            // and parks. Every other round hangs up a pause later (of a
            // length that sweeps across the check).
            while !heading.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            if round % 2 == 1 {
                for _ in 0..round % 64 {
                    std::hint::spin_loop();
                }
            }
            drop(tx);
            let got = done_rx
                .recv_timeout(Duration::from_secs(1))
                .unwrap_or_else(|_| panic!("round {round}: the receiver missed the hang-up"));
            assert_eq!(got, Err(RecvError));
            receiver.join().unwrap();
        }
    }

    #[test]
    fn non_blocking_send_records_nothing() {
        let (tx, rx) = bounded(4);
        tx.send_recording(1u32).unwrap();
        tx.send_recording(2).unwrap();
        assert_eq!(tx.blocking_counter().cumulative_ns(), 0);
        drop(rx);
    }

    #[test]
    fn stress_many_items_through_small_buffer() {
        let (tx, rx) = bounded(2);
        let n = 10_000u64;
        let producer = thread::spawn(move || {
            for i in 0..n {
                tx.send_recording(i).unwrap();
            }
        });
        let mut expected = 0;
        while let Ok(v) = rx.recv() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, n);
        producer.join().unwrap();
    }

    #[test]
    fn cloned_senders_share_counter() {
        let (tx, _rx) = bounded::<u8>(1);
        let tx2 = tx.clone();
        assert!(Arc::ptr_eq(&tx.blocking_counter(), &tx2.blocking_counter()));
    }

    #[test]
    fn len_and_capacity() {
        let (tx, rx) = bounded::<u8>(3);
        assert_eq!(tx.capacity(), 3);
        assert!(tx.is_empty() && rx.is_empty());
        tx.try_send(1).unwrap();
        assert_eq!(tx.len(), 1);
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn instrumented_sender_publishes_blocking_metrics() {
        let registry = MetricsRegistry::new();
        let (tx, rx) = bounded(1);
        tx.instrument(&registry, "conn0");
        tx.try_send(0u32).unwrap();
        let handle = thread::spawn(move || {
            tx.send_recording(1).unwrap();
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 0);
        handle.join().unwrap();
        assert!(registry.counter("transport.conn0.blocked_ns").get() >= 5_000_000);
        assert_eq!(registry.counter("transport.conn0.block_waits").get(), 1);
        assert_eq!(
            registry.histogram("transport.conn0.block_wait_ns").count(),
            1
        );
    }
}
