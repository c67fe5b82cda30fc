//! The ordered data-parallel region: splitter → replicas → in-order merger,
//! with a balancing controller — the dataflow-level counterpart of the
//! paper's Figure 3.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use streambal_control::ScriptedWidth;
use streambal_core::controller::BalancerMode;
use streambal_runtime::ordered::{self, Slot, Spec};
use streambal_telemetry::Telemetry;
use streambal_transport::{bounded, Receiver, Sender};

/// Configuration of an ordered data-parallel region.
///
/// By default the region runs the paper's *LB-adaptive* balancer; switch to
/// plain round-robin with [`round_robin`](Self::round_robin) for baselines.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    replicas: usize,
    balanced: bool,
    mode: BalancerMode,
    channel_capacity: usize,
    sample_interval: Duration,
    telemetry: Option<Telemetry>,
    width_script: ScriptedWidth,
}

impl ParallelConfig {
    /// A region with `replicas` replicas, adaptive balancing, 64-tuple
    /// connection buffers and a 50 ms control interval.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas > 0, "region needs at least one replica");
        ParallelConfig {
            replicas,
            balanced: true,
            mode: BalancerMode::default(),
            channel_capacity: 64,
            sample_interval: Duration::from_millis(50),
            telemetry: None,
            width_script: ScriptedWidth::new(),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Disables balancing (even, never-changing weights).
    pub fn round_robin(mut self) -> Self {
        self.balanced = false;
        self
    }

    /// Sets the balancer mode (default adaptive with 10% decay).
    pub fn mode(mut self, mode: BalancerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the per-replica connection buffer capacity in tuples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        self.channel_capacity = capacity;
        self
    }

    /// Sets the control-loop sampling interval.
    pub fn sample_interval(mut self, interval: Duration) -> Self {
        self.sample_interval = Duration::from_millis(interval.as_millis().max(1) as u64);
        self
    }

    /// Attaches a telemetry hub: replica connections publish blocking
    /// metrics under `transport.replica<j>.*`, stage counters appear under
    /// `dataflow.*`, and the controller's decision trace goes to the hub's
    /// trace buffer.
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// Schedules live growth: at `after` into the run, `count` fresh
    /// replicas (operator instances on their own threads and channels)
    /// join the region and the balancer re-solves at the wider width.
    /// Scripted via the shared [`ScriptedWidth`] policy.
    pub fn grow_after(mut self, after: Duration, count: usize) -> Self {
        self.width_script.grow_after(after, count);
        self
    }

    /// Schedules live shrink: at `after` into the run, the `count`
    /// highest-numbered replicas are retired. Their queued tuples drain in
    /// order before the threads exit; the region never drops below one
    /// replica.
    pub fn shrink_after(mut self, after: Duration, count: usize) -> Self {
        self.width_script.shrink_after(after, count);
        self
    }
}

/// Aggregated stage counters shared by the region's threads.
#[derive(Clone, Default)]
pub(crate) struct RegionCounters {
    pub split_in: Arc<AtomicU64>,
    pub worked: Arc<AtomicU64>,
    pub merged_out: Arc<AtomicU64>,
}

/// Everything `Flow::parallel` spawns; the terminal stage joins `region`
/// with `merger`, in the skeleton's teardown order.
pub(crate) struct SpawnedRegion {
    pub region: ordered::Region,
    pub merger: thread::JoinHandle<()>,
    pub counters: RegionCounters,
}

/// Spawns an ordered parallel region reading `T` from `input`, applying a
/// per-replica operator produced by `factory`, and writing `U` in input
/// order into `output`: the [`ordered`] skeleton over instrumented channels,
/// fed from `input` until it closes, with the merger on a thread of its own.
pub(crate) fn spawn<T, U, F, Op>(
    cfg: &ParallelConfig,
    input: Receiver<T>,
    output: Sender<U>,
    factory: F,
) -> SpawnedRegion
where
    T: Send + 'static,
    U: Send + 'static,
    F: Fn() -> Op + Send + 'static,
    Op: FnMut(T) -> U + Send + 'static,
{
    let counters = RegionCounters::default();
    // The shared worker -> merger channel is memory-bounded at the merger,
    // per the paper's design.
    let (merge_tx, merge_rx) = mpsc::channel::<(u64, U)>();
    let make_slot = {
        let capacity = cfg.channel_capacity;
        let telemetry = cfg.telemetry.clone();
        let worked = Arc::clone(&counters.worked);
        move |j: usize| {
            let (tx, rx) = bounded(capacity);
            if let Some(t) = &telemetry {
                tx.instrument(t.registry(), &format!("replica{j}"));
            }
            let (mut op, worked) = (factory(), Arc::clone(&worked));
            let worker = ordered::spawn_worker(
                "streambal-df-worker".to_owned(),
                std::iter::from_fn(move || rx.recv().ok()),
                move |t| {
                    let u = op(t);
                    worked.fetch_add(1, Ordering::Relaxed);
                    u
                },
                merge_tx.clone(),
            );
            Ok(Slot {
                link: tx,
                worker,
                load: None,
            })
        }
    };
    let source = {
        let split_in = Arc::clone(&counters.split_in);
        std::iter::from_fn(move || input.recv().ok()).inspect(move |_| {
            split_in.fetch_add(1, Ordering::Relaxed);
        })
    };
    let spec = Spec {
        width: cfg.replicas,
        mode: cfg.mode,
        balancing: cfg.balanced,
        interval: cfg.sample_interval,
        width_script: cfg.width_script.clone(),
        telemetry: cfg.telemetry.clone(),
        delivered: Some(Arc::clone(&counters.merged_out)),
        ..Spec::default()
    };
    let region = ordered::spawn(spec, source, make_slot)
        .expect("opening an in-process channel slot cannot fail");

    // The merger is the last of the region's threads to see its input
    // close, so the stage counters are final when it publishes them.
    let merger = {
        let telemetry = cfg.telemetry.clone();
        let counters = counters.clone();
        thread::Builder::new()
            .name("streambal-df-merger".to_owned())
            .spawn(move || {
                ordered::merge(&merge_rx, |u| {
                    counters.merged_out.fetch_add(1, Ordering::Relaxed);
                    output.send_recording(u).is_ok()
                });
                if let Some(t) = &telemetry {
                    for (name, count) in [
                        ("dataflow.split_in", &counters.split_in),
                        ("dataflow.worked", &counters.worked),
                        ("dataflow.merged_out", &counters.merged_out),
                    ] {
                        let count = count.load(Ordering::Relaxed);
                        t.registry().counter(name).add(count);
                    }
                }
            })
            .expect("spawning the merger thread succeeds")
    };

    SpawnedRegion {
        region,
        merger,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let c = ParallelConfig::new(4);
        assert_eq!(c.replicas(), 4);
        let c = c.round_robin().channel_capacity(8);
        assert_eq!(c.channel_capacity, 8);
        assert!(!c.balanced);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = ParallelConfig::new(0);
    }
}
