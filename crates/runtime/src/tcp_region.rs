//! A parallel region whose splitter→worker connections are **real loopback
//! TCP sockets**: the kernel's socket buffers provide the back-pressure and
//! the §3 blocking measurements, exactly as in the paper's deployment. The
//! worker→merger path stays in-process (the merger's reorder buffer is
//! memory-bounded either way; the balancing signal lives entirely on the
//! splitter's sending side).

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use streambal_control::ScriptedWidth;
use streambal_core::controller::BalancerMode;
use streambal_transport::tcp::{connect, listen, TcpSender};
use streambal_transport::BlockingCounter;

use crate::ordered::{self, Closed, Link, Slot, Spec};
use crate::region::{run_to_completion, RegionError, RegionReport};
use crate::workload::spin_multiplies;

/// A TCP connection as a [`Link`]: each tuple travels as one frame, the
/// 8-byte sequence number followed by the configured padding.
struct TcpLink {
    tx: TcpSender,
    frame: Vec<u8>,
}

impl Link for TcpLink {
    type Item = ();

    fn send_recording(&mut self, seq: u64, (): ()) -> Result<(), Closed> {
        self.frame[..8].copy_from_slice(&seq.to_le_bytes());
        self.tx.send_recording(&self.frame).map_err(|_| Closed)
    }

    fn try_send(&mut self, seq: u64, (): ()) -> Result<Option<()>, Closed> {
        self.frame[..8].copy_from_slice(&seq.to_le_bytes());
        match self.tx.try_send(&self.frame) {
            Ok(sent) => Ok((!sent).then_some(())),
            Err(_) => Err(Closed),
        }
    }

    fn blocking_counter(&self) -> Arc<BlockingCounter> {
        self.tx.blocking_counter()
    }
}

/// Builder for a TCP-backed parallel region run.
///
/// # Examples
///
/// ```no_run
/// use streambal_runtime::tcp_region::TcpRegionBuilder;
///
/// let report = TcpRegionBuilder::new(2)
///     .tuple_cost(2_000)
///     .worker_load(0, 20.0)
///     .run(50_000)
///     .unwrap();
/// assert!(report.in_order);
/// ```
#[derive(Debug, Clone)]
pub struct TcpRegionBuilder {
    workers: usize,
    tuple_cost: u64,
    loads: Vec<f64>,
    frame_padding: usize,
    sample_interval: Duration,
    balancing: bool,
    mode: BalancerMode,
    stall: Option<(usize, u64, Duration)>,
    width_script: ScriptedWidth,
}

impl TcpRegionBuilder {
    /// Starts a builder for a region with `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        TcpRegionBuilder {
            workers,
            tuple_cost: 1_000,
            loads: vec![1.0; workers],
            frame_padding: 1024,
            sample_interval: Duration::from_millis(50),
            balancing: true,
            mode: BalancerMode::default(),
            stall: None,
            width_script: ScriptedWidth::new(),
        }
    }

    /// Sets the per-tuple base cost in integer multiplies.
    pub fn tuple_cost(&mut self, multiplies: u64) -> &mut Self {
        self.tuple_cost = multiplies;
        self
    }

    /// Gives worker `j` a constant external-load cost multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `factor` is not positive.
    pub fn worker_load(&mut self, j: usize, factor: f64) -> &mut Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be positive"
        );
        self.loads[j] = factor;
        self
    }

    /// Sets the tuple frame padding in bytes (default 1 KiB). Larger frames
    /// make the kernel's fixed-byte socket buffers hold fewer tuples, so
    /// back-pressure (and the blocking signal) appears sooner — real tuples
    /// are structured records of comparable size.
    pub fn frame_padding(&mut self, bytes: usize) -> &mut Self {
        self.frame_padding = bytes;
        self
    }

    /// Sets the control-loop sampling interval.
    pub fn sample_interval_ms(&mut self, ms: u64) -> &mut Self {
        self.sample_interval = Duration::from_millis(ms.max(1));
        self
    }

    /// Injects a mid-run socket stall: after processing `after_tuples`
    /// frames, worker `j` stops reading its connection for `stall`. The
    /// kernel buffer fills and the splitter's sends to that connection
    /// block — the region must surface this as measured blocking (and a
    /// rebalance under an adaptive mode), never as a hang.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn worker_stall(&mut self, j: usize, after_tuples: u64, stall: Duration) -> &mut Self {
        assert!(j < self.workers, "worker index out of range");
        self.stall = Some((j, after_tuples, stall));
        self
    }

    /// Disables balancing (even, never-changing weights).
    pub fn round_robin(&mut self) -> &mut Self {
        self.balancing = false;
        self
    }

    /// Schedules live growth: at `after` into the run, `count` fresh
    /// workers — each with its own real loopback TCP connection — join the
    /// region and the balancer re-solves at the wider width. Scripted via
    /// the shared [`ScriptedWidth`] policy.
    pub fn grow_after(&mut self, after: Duration, count: usize) -> &mut Self {
        self.width_script.grow_after(after, count);
        self
    }

    /// Schedules live shrink: at `after` into the run, the `count`
    /// highest-numbered connections close. Their kernel buffers drain in
    /// order before the workers exit; the region never drops below one
    /// worker.
    pub fn shrink_after(&mut self, after: Duration, count: usize) -> &mut Self {
        self.width_script.shrink_after(after, count);
        self
    }

    /// Sets the balancer mode (default adaptive).
    pub fn balancer_mode(&mut self, mode: BalancerMode) -> &mut Self {
        self.mode = mode;
        self
    }

    /// Runs the region over real loopback TCP until `total_tuples` have
    /// been merged, blocking the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`RegionError::NoWorkers`] for an empty region,
    /// [`RegionError::Io`] if the initial sockets could not be set up, or
    /// [`RegionError::WorkerPanicked`] if any thread dies.
    pub fn run(&self, total_tuples: u64) -> Result<RegionReport, RegionError> {
        if self.workers == 0 {
            return Err(RegionError::NoWorkers);
        }
        // One real connection per slot: bind, connect, accept (the kernel
        // has the connection queued by then), and only then start the
        // worker — so a socket error leaves no thread behind.
        let (merge_tx, merge_rx) = mpsc::channel();
        let make_slot = {
            let base_cost = self.tuple_cost as f64;
            let loads = self.loads.clone();
            let padding = self.frame_padding;
            let stall = self.stall;
            move |j: usize| {
                let (addr, incoming) = listen()?;
                let tx = connect(addr)?;
                let mut rx = incoming.accept()?;
                // A frame too short to carry a sequence number ends the stream.
                let inbox = std::iter::from_fn(move || {
                    let frame = rx.recv_frame().ok()??;
                    let seq = frame.get(..8)?.try_into().ok()?;
                    Some((u64::from_le_bytes(seq), ()))
                });
                let cost = (base_cost * loads.get(j).copied().unwrap_or(1.0)) as u64;
                let stall = stall.filter(|&(worker, ..)| worker == j);
                let mut processed = 0u64;
                let op = move |()| {
                    if let Some((_, _, pause)) = stall.filter(|&(_, after, _)| after == processed) {
                        thread::sleep(pause);
                    }
                    processed += 1;
                    spin_multiplies(cost);
                };
                let name = format!("streambal-tcp-worker-{j}");
                Ok(Slot {
                    link: TcpLink {
                        tx,
                        frame: vec![0u8; 8 + padding],
                    },
                    worker: ordered::spawn_worker(name, inbox, op, merge_tx.clone()),
                    load: None,
                })
            }
        };
        let spec = Spec {
            width: self.workers,
            mode: self.mode,
            balancing: self.balancing,
            interval: self.sample_interval,
            width_script: self.width_script.clone(),
            ..Spec::default()
        };
        run_to_completion(spec, make_slot, &merge_rx, total_tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_region_delivers_in_order() {
        let report = TcpRegionBuilder::new(2)
            .tuple_cost(200)
            .sample_interval_ms(20)
            .run(20_000)
            .unwrap();
        assert_eq!(report.delivered, 20_000);
        assert!(report.in_order);
    }

    #[test]
    fn real_kernel_backpressure_throttles_slow_worker() {
        // Worker 0 is 60x slower; the kernel's socket buffer for its
        // connection fills and the splitter's recorded TCP blocking drives
        // the weights down. Generous thresholds: real sockets, real
        // scheduler.
        let report = TcpRegionBuilder::new(2)
            .tuple_cost(3_000)
            .worker_load(0, 60.0)
            .frame_padding(4 * 1024)
            .sample_interval_ms(25)
            .run(60_000)
            .unwrap();
        assert!(report.in_order);
        assert!(
            report.blocked_ns[0] > 0,
            "the slow connection must record real TCP blocking: {:?}",
            report.blocked_ns
        );
        let w = report.final_weights().expect("controller ran");
        assert!(
            w[0] < w[1],
            "slow worker should end with less weight: {w:?}"
        );
    }

    #[test]
    fn zero_workers_rejected() {
        assert_eq!(
            TcpRegionBuilder::new(0).run(10).unwrap_err(),
            RegionError::NoWorkers
        );
    }
}
