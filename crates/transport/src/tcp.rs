//! Real TCP connections with the paper's blocking-time instrumentation.
//!
//! Where [`chan`](crate::chan) models a connection with an in-process
//! bounded buffer, this module runs the *actual* §3 protocol against the
//! kernel's socket buffers: a non-blocking `write` (the `MSG_DONTWAIT`
//! analogue), then, when the buffer is full, an *elective* wait until the
//! kernel drains it, held as one span on the connection's
//! [`BlockingCounter`]. The sender drains a [`FrameWriter`] and the
//! receiver is a [`FrameReader`] over its blocking stream, so back-pressure
//! — and the blocking signal the balancer feeds on — is the genuine article.

use std::io::{self, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use crate::counters::BlockingCounter;
use crate::frame::{FrameReader, FrameWriter, Poll, WriteStatus};

/// The sending half of an instrumented TCP connection.
///
/// # Examples
///
/// ```no_run
/// use streambal_transport::tcp::{connect, listen};
///
/// let (addr, incoming) = listen()?;
/// let handle = std::thread::spawn(move || incoming.accept());
/// let mut tx = connect(addr)?;
/// let mut rx = handle.join().unwrap()?;
/// tx.send_recording(b"tuple")?;
/// assert_eq!(rx.recv_frame()?.as_deref(), Some(&b"tuple"[..]));
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct TcpSender {
    stream: TcpStream,
    out: FrameWriter,
    counter: Arc<BlockingCounter>,
}

/// The receiving half of an instrumented TCP connection.
#[derive(Debug)]
pub struct TcpReceiver {
    stream: TcpStream,
    reader: FrameReader,
}

/// A bound listener waiting for the peer PE to connect.
#[derive(Debug)]
pub struct Incoming {
    listener: TcpListener,
}

/// Binds a loopback listener; returns its address and the acceptor.
///
/// # Errors
///
/// Propagates socket errors.
pub fn listen() -> io::Result<(std::net::SocketAddr, Incoming)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    Ok((addr, Incoming { listener }))
}

impl Incoming {
    /// Accepts the peer connection and returns the receiving half.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn accept(self) -> io::Result<TcpReceiver> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true)?;
        Ok(TcpReceiver {
            stream,
            reader: FrameReader::new(),
        })
    }
}

/// Connects to a listening peer and returns the instrumented sending half.
///
/// # Errors
///
/// Propagates socket errors.
pub fn connect(addr: std::net::SocketAddr) -> io::Result<TcpSender> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(TcpSender {
        stream,
        out: FrameWriter::new(),
        counter: Arc::new(BlockingCounter::new()),
    })
}

impl TcpSender {
    /// The connection's cumulative blocking-time counter.
    pub fn blocking_counter(&self) -> Arc<BlockingCounter> {
        Arc::clone(&self.counter)
    }

    /// Attempts to send a frame without blocking (the `MSG_DONTWAIT`
    /// analogue). Returns `Ok(false)` when the kernel buffer could not take
    /// the whole frame *before any byte was written* — once a frame is
    /// partially written it must complete, so this only probes at frame
    /// boundaries.
    ///
    /// # Errors
    ///
    /// Propagates socket errors other than `WouldBlock`.
    pub fn try_send(&mut self, payload: &[u8]) -> io::Result<bool> {
        self.out.enqueue(payload);
        let whole = self.out.pending();
        if self.out.write_to(&mut self.stream)? == WriteStatus::Blocked {
            if self.out.pending() == whole {
                self.out.clear();
                return Ok(false);
            }
            // Partial write: the frame must be completed (recording the
            // wait), otherwise the stream would de-frame.
            self.finish_blocking()?;
        }
        Ok(true)
    }

    /// Sends a frame, electing to block (and recording for how long) when
    /// the kernel's socket buffer is full — the paper's measurement path.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_recording(&mut self, payload: &[u8]) -> io::Result<()> {
        self.out.enqueue(payload);
        if self.out.write_to(&mut self.stream)? == WriteStatus::Blocked {
            self.finish_blocking()?;
        }
        Ok(())
    }

    /// Drains a frame the kernel refused, parking on writability (no
    /// sleep-polling, no timeout). The whole wait is one span on the
    /// blocking counter, so a sampler mid-stall sees it accrue and no
    /// sampled rate exceeds 1.
    fn finish_blocking(&mut self) -> io::Result<()> {
        let _span = self.counter.start_span();
        loop {
            crate::poll::wait_writable(&self.stream, None)?;
            if self.out.write_to(&mut self.stream)? == WriteStatus::Drained {
                return Ok(());
            }
        }
    }
}

impl TcpReceiver {
    /// Receives the next frame, or `None` when the peer closed the
    /// connection cleanly.
    ///
    /// # Errors
    ///
    /// Propagates socket errors, and rejects frames over
    /// [`MAX_FRAME`](crate::frame::MAX_FRAME) as corrupt.
    pub fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self.reader.poll_frame(&mut self.stream)? {
            Poll::Frame(frame) => Ok(Some(frame)),
            Poll::Eof => Ok(None),
            // The stream blocks, so it never reports `WouldBlock`.
            Poll::Pending => Err(ErrorKind::WouldBlock.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::thread;
    use std::time::{Duration, Instant};

    fn pair() -> (TcpSender, TcpReceiver) {
        let (addr, incoming) = listen().unwrap();
        let acceptor = thread::spawn(move || incoming.accept().unwrap());
        let tx = connect(addr).unwrap();
        let rx = acceptor.join().unwrap();
        (tx, rx)
    }

    #[test]
    fn frames_round_trip_in_order() {
        let (mut tx, mut rx) = pair();
        for i in 0..500u32 {
            tx.send_recording(&i.to_le_bytes()).unwrap();
        }
        drop(tx);
        for i in 0..500u32 {
            let frame = rx.recv_frame().unwrap().expect("frame arrives");
            assert_eq!(frame, i.to_le_bytes());
        }
        assert!(rx.recv_frame().unwrap().is_none(), "clean EOF after close");
    }

    #[test]
    fn empty_and_large_frames() {
        let (mut tx, mut rx) = pair();
        tx.send_recording(b"").unwrap();
        let big = vec![0xAB; 100_000];
        tx.send_recording(&big).unwrap();
        assert_eq!(rx.recv_frame().unwrap().unwrap(), b"");
        assert_eq!(rx.recv_frame().unwrap().unwrap(), big);
    }

    #[test]
    fn blocking_on_full_kernel_buffer_is_recorded_while_it_lasts() {
        let (mut tx, mut rx) = pair();
        let counter = tx.blocking_counter();
        let sent = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        // Nobody reads: the kernel buffers fill and the writer ends up
        // inside one send that cannot complete.
        let writer = {
            let (sent, stop) = (Arc::clone(&sent), Arc::clone(&stop));
            thread::spawn(move || {
                let payload = vec![0u8; 32 * 1024];
                while !stop.load(Ordering::Acquire) && tx.send_recording(&payload).is_ok() {
                    sent.fetch_add(1, Ordering::Release);
                }
            })
        };
        // The stuck send's blocked time must reach the counter while it
        // accrues, not in one lump when the send returns: look for a window
        // with no send completing and the counter advancing all the same.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut accrued_mid_send = false;
        while !accrued_mid_send && Instant::now() < deadline {
            let (sent0, ns0) = (sent.load(Ordering::Acquire), counter.cumulative_ns());
            thread::sleep(Duration::from_millis(30));
            accrued_mid_send = counter.cumulative_ns() >= ns0 + 20_000_000
                && sent.load(Ordering::Acquire) == sent0;
        }
        // Drain so the writer can finish (dropping its sender on exit).
        stop.store(true, Ordering::Release);
        let reader = thread::spawn(move || while let Ok(Some(_)) = rx.recv_frame() {});
        writer.join().unwrap();
        reader.join().unwrap();
        assert!(
            accrued_mid_send,
            "no blocked time was charged while a send was stuck ({} ns in total)",
            counter.cumulative_ns()
        );
    }

    #[test]
    fn try_send_reports_full_buffer() {
        let (mut tx, mut rx) = pair();
        let counter = tx.blocking_counter();
        // Fill the kernel buffers behind the sender's back until, after a
        // pause for in-flight segments to settle, a write takes nothing:
        // full at a frame boundary by construction. (Filling through
        // `try_send` itself usually ends in a partial write, which it must
        // complete and report as sent.)
        let junk = vec![0u8; 64 * 1024];
        loop {
            let mut took = 0;
            while let Ok(n) = tx.stream.write(&junk) {
                took += n;
            }
            if took == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        // Nobody reads unless the send below wrongly blocks: then the peer
        // drains, so a broken `try_send` fails the assert instead of hanging.
        let done = Arc::new(AtomicBool::new(false));
        let rescuer = {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut sink = vec![0u8; 64 * 1024];
                while !done.load(Ordering::Acquire) {
                    if counter.cumulative_ns() > 0 {
                        while matches!(rx.stream.read(&mut sink), Ok(n) if n > 0) {}
                    }
                    thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let sent = tx.try_send(b"tuple").unwrap();
        done.store(true, Ordering::Release);
        drop(tx);
        rescuer.join().unwrap();
        assert!(!sent, "a full socket must refuse the frame, not block");
    }
}
