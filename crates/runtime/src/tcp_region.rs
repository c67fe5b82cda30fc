//! The link behind [`Transport::Tcp`](crate::region::Transport::Tcp): each
//! splitter→worker connection is a real loopback socket. The worker→merger
//! path stays in-process; the balancing signal lives on the sending side.

use std::io;
use std::sync::Arc;

use streambal_transport::tcp::{connect, listen, TcpSender};
use streambal_transport::BlockingCounter;

use crate::ordered::{Closed, Link};

/// A TCP connection as a [`Link`]: each tuple travels as one frame, the
/// 8-byte sequence number followed by the configured padding.
pub(crate) struct TcpLink {
    tx: TcpSender,
    frame: Vec<u8>,
}

impl TcpLink {
    /// Opens one loopback connection; returns the link and the worker's end
    /// as stamped tuples, which end at a frame too short for a sequence.
    pub(crate) fn open(
        frame_padding: usize,
    ) -> io::Result<(Self, impl Iterator<Item = (u64, ())> + Send)> {
        let (addr, incoming) = listen()?;
        let tx = connect(addr)?;
        let mut rx = incoming.accept()?;
        let inbox = std::iter::from_fn(move || {
            let frame = rx.recv_frame().ok()??;
            let seq = frame.get(..8)?.try_into().ok()?;
            Some((u64::from_le_bytes(seq), ()))
        });
        let frame = vec![0u8; 8 + frame_padding];
        Ok((TcpLink { tx, frame }, inbox))
    }
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

#[cfg(test)]
mod tests {
    use crate::region::{RegionBuilder, RegionError, Transport};

    fn tcp(workers: usize, frame_padding: usize) -> RegionBuilder {
        let mut b = RegionBuilder::new(workers);
        b.transport(Transport::Tcp { frame_padding });
        b
    }

    #[test]
    fn tcp_region_delivers_in_order() {
        let report = tcp(2, 1024)
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
        let report = tcp(2, 4 * 1024)
            .tuple_cost(3_000)
            .initial_load(0, 60.0)
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
        assert_eq!(tcp(0, 1024).run(10).unwrap_err(), RegionError::NoWorkers);
    }
}
