//! The fluent pipeline builder: each combinator spawns a PE (thread) and
//! returns the downstream end of an instrumented bounded channel.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use streambal_transport::{bounded, BlockingCounter, Receiver, Sender};

use crate::region::{self, ParallelConfig};
use crate::report::{FlowReport, RoundSnapshot, StageStats};
use crate::source::Source;

/// Default inter-stage channel capacity in tuples.
const DEFAULT_CAPACITY: usize = 256;

/// Error completing a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// A stage thread panicked; the flow's output is incomplete.
    StagePanicked {
        /// The label of the stage that died.
        stage: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::StagePanicked { stage } => write!(f, "stage '{stage}' panicked"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Per-stage bookkeeping: counters live in atomics shared with the stage's
/// thread so stats survive the join.
struct Stage {
    name: String,
    handle: JoinHandle<()>,
    consumed: Arc<AtomicU64>,
    emitted: Arc<AtomicU64>,
    input_counter: Option<Arc<BlockingCounter>>,
}

/// A region's joinable parts, deferred until the terminal stage.
struct Region {
    spawned: region::SpawnedRegion,
    input_counter: Option<Arc<BlockingCounter>>,
}

enum Link {
    Stage(Stage),
    Region(Region),
}

/// A running, partially-built pipeline whose current output tuples have
/// type `T`. Produced by [`source`]; extended by combinators; completed by
/// a terminal method ([`count`](Flow::count), [`for_each`](Flow::for_each),
/// [`collect`](Flow::collect)).
///
/// Every combinator spawns the stage's PE immediately; back-pressure from
/// the bounded channels keeps upstream stages paced until a terminal method
/// starts draining.
#[must_use = "a Flow does nothing until completed with count/for_each/collect"]
pub struct Flow<T: Send + 'static> {
    rx: Receiver<T>,
    /// Blocking counter of the channel feeding `rx` (the upstream stage's
    /// send-side blocking), consumed by whichever stage attaches next.
    pending_counter: Option<Arc<BlockingCounter>>,
    links: Vec<Link>,
    pub(crate) capacity: usize,
}

/// Starts a flow from a [`Source`]; the source runs on its own PE.
///
/// # Examples
///
/// ```
/// use streambal_dataflow::{source, RangeSource};
///
/// let (n, _report) = source(RangeSource::new(0..100)).count().unwrap();
/// assert_eq!(n, 100);
/// ```
pub fn source<S: Source>(mut src: S) -> Flow<S::Item> {
    let (tx, rx) = bounded(DEFAULT_CAPACITY);
    let source_counter = tx.blocking_counter();
    let consumed = Arc::new(AtomicU64::new(0));
    let emitted = Arc::new(AtomicU64::new(0));
    let emitted_in = Arc::clone(&emitted);
    let handle = thread::Builder::new()
        .name("streambal-df-source".to_owned())
        .spawn(move || {
            while let Some(t) = src.next_tuple() {
                if tx.send_recording(t).is_err() {
                    return;
                }
                emitted_in.fetch_add(1, Ordering::Relaxed);
            }
        })
        .expect("spawning the source thread succeeds");
    Flow {
        rx,
        pending_counter: Some(source_counter),
        links: vec![Link::Stage(Stage {
            name: "source".to_owned(),
            handle,
            consumed,
            emitted,
            input_counter: None,
        })],
        capacity: DEFAULT_CAPACITY,
    }
}

impl<T: Send + 'static> Flow<T> {
    /// Sets the channel capacity (tuples) used by stages added *after* this
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn buffer(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        self.capacity = capacity;
        self
    }

    pub(crate) fn add_stage<U, F>(mut self, name: &str, body: F) -> Flow<U>
    where
        U: Send + 'static,
        F: FnOnce(Receiver<T>, Sender<U>, Arc<AtomicU64>, Arc<AtomicU64>) + Send + 'static,
    {
        let (tx, rx_next) = bounded(self.capacity);
        let next_counter = tx.blocking_counter();
        let input_counter = self.pending_counter.take();
        let consumed = Arc::new(AtomicU64::new(0));
        let emitted = Arc::new(AtomicU64::new(0));
        let rx = self.rx;
        let (c2, e2) = (Arc::clone(&consumed), Arc::clone(&emitted));
        let handle = thread::Builder::new()
            .name(format!("streambal-df-{name}"))
            .spawn(move || body(rx, tx, c2, e2))
            .expect("spawning a stage thread succeeds");
        self.links.push(Link::Stage(Stage {
            name: name.to_owned(),
            handle,
            consumed,
            emitted,
            input_counter,
        }));
        Flow {
            rx: rx_next,
            pending_counter: Some(next_counter),
            links: self.links,
            capacity: self.capacity,
        }
    }

    /// Transforms every tuple 1:1 on a dedicated PE.
    pub fn map<U, F>(self, mut f: F) -> Flow<U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'static,
    {
        self.add_stage("map", move |rx, tx, consumed, emitted| {
            while let Ok(t) = rx.recv() {
                consumed.fetch_add(1, Ordering::Relaxed);
                if tx.send_recording(f(t)).is_err() {
                    return;
                }
                emitted.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    /// Keeps only the tuples matching the predicate.
    pub fn filter<F>(self, mut pred: F) -> Flow<T>
    where
        F: FnMut(&T) -> bool + Send + 'static,
    {
        self.add_stage("filter", move |rx, tx, consumed, emitted| {
            while let Ok(t) = rx.recv() {
                consumed.fetch_add(1, Ordering::Relaxed);
                if pred(&t) {
                    if tx.send_recording(t).is_err() {
                        return;
                    }
                    emitted.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    }

    /// Expands each tuple into zero or more output tuples (in order).
    pub fn flat_map<U, I, F>(self, mut f: F) -> Flow<U>
    where
        U: Send + 'static,
        I: IntoIterator<Item = U>,
        F: FnMut(T) -> I + Send + 'static,
    {
        self.add_stage("flat_map", move |rx, tx, consumed, emitted| {
            while let Ok(t) = rx.recv() {
                consumed.fetch_add(1, Ordering::Relaxed);
                for u in f(t) {
                    if tx.send_recording(u).is_err() {
                        return;
                    }
                    emitted.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    }

    /// Observes each tuple without changing the stream (for taps/metrics).
    pub fn inspect<F>(self, mut f: F) -> Flow<T>
    where
        F: FnMut(&T) + Send + 'static,
    {
        self.map(move |t| {
            f(&t);
            t
        })
    }

    /// Task parallelism (the paper's PEs *B* and *C*): every tuple is
    /// processed by two operators on two separate PEs; the output pairs the
    /// results, preserving input order.
    pub fn fork_join<B, C, FB, FC>(self, mut fb: FB, mut fc: FC) -> Flow<(B, C)>
    where
        T: Clone,
        B: Send + 'static,
        C: Send + 'static,
        FB: FnMut(T) -> B + Send + 'static,
        FC: FnMut(T) -> C + Send + 'static,
    {
        let capacity = self.capacity;
        // Broadcast to two branch PEs, then zip their (1:1, hence aligned)
        // outputs back together.
        self.add_stage("fork", move |rx, tx, consumed, emitted| {
            let (btx, brx) = bounded::<T>(capacity);
            let (ctx_, crx) = bounded::<T>(capacity);
            let (bout_tx, bout_rx) = bounded::<B>(capacity);
            let (cout_tx, cout_rx) = bounded::<C>(capacity);
            let hb = thread::Builder::new()
                .name("streambal-df-fork-b".to_owned())
                .spawn(move || {
                    while let Ok(t) = brx.recv() {
                        if bout_tx.send_recording(fb(t)).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawning a branch thread succeeds");
            let hc = thread::Builder::new()
                .name("streambal-df-fork-c".to_owned())
                .spawn(move || {
                    while let Ok(t) = crx.recv() {
                        if cout_tx.send_recording(fc(t)).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawning a branch thread succeeds");
            // Broadcast + zip on this PE: forward a tuple to both branches,
            // then await both results (lock-step keeps buffers bounded).
            while let Ok(t) = rx.recv() {
                consumed.fetch_add(1, Ordering::Relaxed);
                if btx.send_recording(t.clone()).is_err() || ctx_.send_recording(t).is_err() {
                    break;
                }
                let (Ok(b), Ok(c)) = (bout_rx.recv(), cout_rx.recv()) else {
                    break;
                };
                if tx.send_recording((b, c)).is_err() {
                    break;
                }
                emitted.fetch_add(1, Ordering::Relaxed);
            }
            drop(btx);
            drop(ctx_);
            let _ = hb.join();
            let _ = hc.join();
        })
    }

    /// An **ordered data-parallel region**: `cfg.replicas()` copies of the
    /// stateless operator produced by `factory` process tuples in parallel;
    /// outputs leave in exact input order; the splitter balances load using
    /// the blocking-rate model (unless the config selects round-robin).
    pub fn parallel<U, F, Op>(mut self, cfg: ParallelConfig, factory: F) -> Flow<U>
    where
        U: Send + 'static,
        F: Fn() -> Op + Send + 'static,
        Op: FnMut(T) -> U + Send + 'static,
    {
        let (tx, rx_next) = bounded(self.capacity);
        let next_counter = tx.blocking_counter();
        let input_counter = self.pending_counter.take();
        let spawned = region::spawn(&cfg, self.rx, tx, factory);
        self.links.push(Link::Region(Region {
            spawned,
            input_counter,
        }));
        Flow {
            rx: rx_next,
            pending_counter: Some(next_counter),
            links: self.links,
            capacity: self.capacity,
        }
    }

    /// Completes the flow, invoking `f` on every tuple on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::StagePanicked`] if any PE died.
    pub fn for_each<F>(mut self, mut f: F) -> Result<FlowReport, FlowError>
    where
        F: FnMut(T),
    {
        let started = Instant::now();
        let sink_counter = self.pending_counter.take();
        let rx = self.rx;
        let mut delivered = 0u64;
        while let Ok(t) = rx.recv() {
            f(t);
            delivered += 1;
        }
        let mut stages = Vec::new();
        let mut regions: Vec<Vec<RoundSnapshot>> = Vec::new();
        for link in self.links {
            match link {
                Link::Stage(s) => {
                    let name = s.name.clone();
                    s.handle
                        .join()
                        .map_err(|_| FlowError::StagePanicked { stage: name })?;
                    stages.push(StageStats {
                        name: s.name,
                        consumed: s.consumed.load(Ordering::Relaxed),
                        emitted: s.emitted.load(Ordering::Relaxed),
                        upstream_blocked_ns: s
                            .input_counter
                            .map(|c| c.cumulative_ns())
                            .unwrap_or(0),
                    });
                }
                Link::Region(r) => {
                    let sp = r.spawned;
                    let trace = sp
                        .region
                        .join(Some(sp.merger))
                        .map_err(|stage| FlowError::StagePanicked {
                            stage: stage.into(),
                        })?
                        .snapshots;
                    stages.push(StageStats {
                        name: format!(
                            "parallel[{}]",
                            trace.last().map(|t| t.weights.len()).unwrap_or(0)
                        ),
                        consumed: sp.counters.split_in.load(Ordering::Relaxed),
                        emitted: sp.counters.merged_out.load(Ordering::Relaxed),
                        upstream_blocked_ns: r
                            .input_counter
                            .map(|c| c.cumulative_ns())
                            .unwrap_or(0),
                    });
                    regions.push(trace);
                }
            }
        }
        stages.push(StageStats {
            name: "sink".to_owned(),
            consumed: delivered,
            emitted: delivered,
            upstream_blocked_ns: sink_counter.map(|c| c.cumulative_ns()).unwrap_or(0),
        });
        Ok(FlowReport {
            stages,
            regions,
            duration: started.elapsed(),
        })
    }

    /// Completes the flow, counting delivered tuples.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::StagePanicked`] if any PE died.
    pub fn count(self) -> Result<(u64, FlowReport), FlowError> {
        let mut n = 0u64;
        let report = self.for_each(|_| n += 1)?;
        Ok((n, report))
    }

    /// Completes the flow, collecting every tuple in order.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::StagePanicked`] if any PE died.
    pub fn collect(self) -> Result<(Vec<T>, FlowReport), FlowError> {
        let mut out = Vec::new();
        let report = self.for_each(|t| out.push(t))?;
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::RangeSource;

    #[test]
    fn linear_pipeline_preserves_order() {
        let (items, report) = source(RangeSource::new(0..10_000))
            .map(|x| x + 1)
            .filter(|&x| x % 2 == 0)
            .collect()
            .unwrap();
        let expected: Vec<u64> = (0..10_000).map(|x| x + 1).filter(|x| x % 2 == 0).collect();
        assert_eq!(items, expected);
        assert_eq!(report.delivered(), expected.len() as u64);
        assert_eq!(report.stages.first().unwrap().name, "source");
        assert_eq!(report.stages.last().unwrap().name, "sink");
    }

    #[test]
    fn flat_map_expands_in_order() {
        let (items, _) = source(RangeSource::new(0..5))
            .flat_map(|x| vec![x, x * 10])
            .collect()
            .unwrap();
        assert_eq!(items, vec![0, 0, 1, 10, 2, 20, 3, 30, 4, 40]);
    }

    #[test]
    fn fork_join_pairs_branch_outputs() {
        let (items, _) = source(RangeSource::new(0..1_000))
            .fork_join(|x| x * 2, |x| x + 1)
            .collect()
            .unwrap();
        assert_eq!(items.len(), 1_000);
        for (i, &(b, c)) in items.iter().enumerate() {
            let x = i as u64;
            assert_eq!((b, c), (x * 2, x + 1));
        }
    }

    #[test]
    fn ordering_holds_under_parallel_region() {
        let (items, report) = source(RangeSource::new(0..50_000))
            .parallel(ParallelConfig::new(4), || |x: u64| x * 3)
            .collect()
            .unwrap();
        assert_eq!(items.len(), 50_000);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64 * 3, "sequential semantics violated at {i}");
        }
        assert_eq!(report.regions.len(), 1);
    }

    #[test]
    fn parallel_region_grows_mid_run_in_order() {
        // Start at 2 replicas, grow to 4 mid-run: fresh operator instances
        // and channels come up live, yet sequential semantics must hold for
        // every tuple and the final control round must cover all 4 slots.
        let cfg = ParallelConfig::new(2)
            .channel_capacity(16)
            .sample_interval(std::time::Duration::from_millis(10))
            .grow_after(std::time::Duration::from_millis(30), 2);
        let (items, report) = source(RangeSource::new(0..40_000))
            .parallel(cfg, || {
                |x: u64| {
                    let mut acc = x;
                    for _ in 0..5_000u32 {
                        acc = acc
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                    }
                    std::hint::black_box(acc);
                    x * 3
                }
            })
            .collect()
            .unwrap();
        assert_eq!(items.len(), 40_000);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64 * 3, "sequential semantics violated at {i}");
        }
        let trace = &report.regions[0];
        let last = trace.last().expect("controller recorded rounds");
        assert_eq!(last.weights.len(), 4, "region should end at width 4");
        assert_eq!(last.weights.iter().sum::<u32>(), 1_000);
    }

    #[test]
    fn parallel_region_shrinks_mid_run_in_order() {
        let cfg = ParallelConfig::new(4)
            .channel_capacity(16)
            .sample_interval(std::time::Duration::from_millis(10))
            .shrink_after(std::time::Duration::from_millis(30), 2);
        let (items, report) = source(RangeSource::new(0..30_000))
            .parallel(cfg, || {
                |x: u64| {
                    let mut acc = x;
                    for _ in 0..5_000u32 {
                        acc = acc
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                    }
                    std::hint::black_box(acc);
                    x + 7
                }
            })
            .collect()
            .unwrap();
        assert_eq!(items.len(), 30_000);
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64 + 7, "sequential semantics violated at {i}");
        }
        let last = report.regions[0]
            .last()
            .expect("controller recorded rounds");
        assert_eq!(last.weights.len(), 2, "region should end at width 2");
        assert_eq!(last.weights.iter().sum::<u32>(), 1_000);
    }

    #[test]
    fn ordering_holds_under_round_robin_region() {
        let (items, _) = source(RangeSource::new(0..20_000))
            .parallel(ParallelConfig::new(3).round_robin(), || |x: u64| x)
            .collect()
            .unwrap();
        for (i, &v) in items.iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn inspect_does_not_change_stream() {
        use std::sync::atomic::AtomicU64;
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let (n, _) = source(RangeSource::new(0..100))
            .inspect(move |_| {
                seen2.fetch_add(1, Ordering::Relaxed);
            })
            .count()
            .unwrap();
        assert_eq!(n, 100);
        assert_eq!(seen.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn stage_stats_are_plausible() {
        let (_, report) = source(RangeSource::new(0..1_000))
            .map(|x| x)
            .filter(|&x| x < 500)
            .count()
            .unwrap();
        let by_name = |n: &str| {
            report
                .stages
                .iter()
                .find(|s| s.name == n)
                .unwrap_or_else(|| panic!("stage {n}"))
                .clone()
        };
        assert_eq!(by_name("source").emitted, 1_000);
        assert_eq!(by_name("map").consumed, 1_000);
        assert_eq!(by_name("filter").emitted, 500);
        assert_eq!(by_name("sink").consumed, 500);
    }

    #[test]
    fn backpressure_shows_up_in_stage_stats() {
        // A slow map stage makes its upstream (the source) block; the map
        // stage's input-channel counter must record that time.
        let (_, report) = source(RangeSource::new(0..2_000))
            .buffer(4)
            .map(|x| {
                std::thread::sleep(std::time::Duration::from_micros(20));
                x
            })
            .count()
            .unwrap();
        let map = report.stages.iter().find(|s| s.name == "map").unwrap();
        assert!(
            map.upstream_blocked_ns > 0,
            "source should have blocked into the slow map stage"
        );
    }

    #[test]
    fn buffer_capacity_is_respected() {
        // A tiny buffer forces back-pressure; the pipeline still completes.
        let (n, _) = source(RangeSource::new(0..5_000))
            .buffer(2)
            .map(|x| x)
            .count()
            .unwrap();
        assert_eq!(n, 5_000);
    }
}
