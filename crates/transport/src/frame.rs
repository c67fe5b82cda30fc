//! The workspace's one wire format: a 4-byte little-endian length prefix,
//! then the payload, at most [`MAX_FRAME`] bytes. [`FrameWriter::enqueue`]
//! is the only code that writes a prefix and [`FrameReader`] the only code
//! that parses one; [`FrameWriter::forward`] passes on a frame, prefix and
//! all, that a reader validated. Both are generic over `Write`/`Read` and
//! never wait: a `WouldBlock` comes back as [`WriteStatus::Blocked`] or
//! [`Poll::Pending`] and the caller — an event loop, [`tcp`](crate::tcp),
//! a deadline helper below, a scripted test stream — decides what waiting
//! means.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::poll::{wait_readable, wait_writable};

/// Maximum accepted frame length (1 MiB), a sanity bound against corrupt
/// length prefixes.
pub const MAX_FRAME: usize = 1 << 20;

/// First allocation of a reader's reassembly buffer: small, because 10k+
/// idle clients must fit; doubled on demand up to the frame being read.
const INITIAL_BUF: usize = 4 * 1024;

/// Writes one frame to a non-blocking stream, parking on writability
/// readiness while the kernel buffer is full, up to `deadline`.
///
/// # Errors
///
/// `ErrorKind::TimedOut` when the deadline passes first — the stream may
/// then be mid-frame and MUST be discarded — or any other socket error.
pub fn write_frame_deadline(
    stream: &mut TcpStream,
    payload: &[u8],
    deadline: Instant,
) -> io::Result<()> {
    let mut out = FrameWriter::new();
    out.enqueue(payload);
    while out.write_to(stream)? == WriteStatus::Blocked {
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(ErrorKind::TimedOut, "write deadline"));
        }
        wait_writable(stream, Some(deadline - now))?;
    }
    Ok(())
}

/// How far a [`FrameWriter`] drain got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStatus {
    /// Every queued byte reached the kernel; the queue is empty.
    Drained,
    /// The kernel buffer filled (`WouldBlock`) with bytes still queued —
    /// the caller should ask for writability and try again on the
    /// readiness transition.
    Blocked,
}

/// The write half of a connection: frames queue as encoded bytes and
/// drain through non-blocking writes across `WouldBlock` boundaries. The
/// span from a [`WriteStatus::Blocked`] to the drain *is* the paper's
/// blocked-send time, which the caller charges to a
/// [`BlockingCounter`](crate::BlockingCounter).
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameWriter {
    /// An empty write queue.
    #[must_use]
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes queued but not yet accepted by the kernel.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Queues one payload as a length-prefixed frame.
    #[inline]
    pub fn enqueue(&mut self, payload: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// Queues the frame at the front of `from`, prefix included, without
    /// writing (for a stream still connecting). Panics without one.
    pub fn queue(&mut self, from: &FrameReader) {
        let frame = from.encoded().expect("caller holds a whole frame");
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(frame);
    }

    /// Writes the frame at the front of `from` to `w` behind anything
    /// queued; with nothing queued, straight from `from`'s buffer, copying
    /// only the tail `w` refuses. `from` keeps the frame until consumed.
    /// Errors are [`write_to`](Self::write_to)'s.
    pub fn forward(&mut self, from: &FrameReader, w: &mut impl Write) -> io::Result<WriteStatus> {
        if !self.is_empty() {
            self.queue(from);
            return self.write_to(w);
        }
        let (frame, mut at) = (from.encoded().expect("caller holds a whole frame"), 0);
        let status = drain(w, frame, &mut at)?;
        if status == WriteStatus::Blocked {
            self.clear();
            self.buf.extend_from_slice(&frame[at..]);
        }
        Ok(status)
    }

    /// Drops everything queued; sound only while none of it is on the wire.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    /// Drains queued bytes into `w` until empty or `WouldBlock`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a clean `Ok(0)` from the peer is
    /// `WriteZero` (the connection is dead mid-frame).
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<WriteStatus> {
        let status = drain(w, &self.buf, &mut self.pos)?;
        if status == WriteStatus::Drained {
            self.clear();
        }
        Ok(status)
    }
}

/// Writes `bytes[*at..]` to `w`, advancing `at`, until done or `WouldBlock`.
fn drain(w: &mut impl Write, bytes: &[u8], at: &mut usize) -> io::Result<WriteStatus> {
    while *at < bytes.len() {
        match w.write(&bytes[*at..]) {
            Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "peer closed")),
            Ok(n) => *at += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(WriteStatus::Blocked),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(WriteStatus::Drained)
}

/// One non-blocking poll step of a [`FrameReader`]; `Poll<()>` when the
/// frame stays in the reader ([`FrameReader::poll_front`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Poll<F = Vec<u8>> {
    /// A complete frame arrived.
    Frame(F),
    /// No complete frame is available right now; try again later.
    Pending,
    /// The peer closed the connection cleanly at a frame boundary.
    Eof,
}

/// Reassembles length-prefixed frames from a stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    filled: usize,
    drained: bool,
}

impl FrameReader {
    /// A reader whose reassembly buffer allocates lazily, on the first
    /// read, so ten thousand idle connections cost kilobytes.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Whether any bytes are buffered: part of a frame, or a whole one not
    /// yet consumed — a drain decision should wait for the frame.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.filled > 0
    }

    /// Whether the last read left the stream empty: it returned
    /// `WouldBlock`, EOF, or fewer bytes than offered. A short read means
    /// the socket's receive queue ran dry, so an edge-triggered owner can
    /// stop reading until its next readable edge without a read that
    /// returns `WouldBlock` — unless the peer's FIN came with the same
    /// edge ([`Event::read_closed`](crate::poll::Event::read_closed)).
    #[must_use]
    pub fn drained(&self) -> bool {
        self.drained
    }

    /// Reads what the stream has and returns [`Poll::Frame`] once a whole
    /// frame is buffered (one already buffered is returned without a
    /// read), [`Poll::Pending`] if the stream reports `WouldBlock` first,
    /// or [`Poll::Eof`] on a clean close.
    ///
    /// # Errors
    ///
    /// Propagates stream errors; rejects a length prefix over
    /// [`MAX_FRAME`] as `InvalidData` as soon as it arrives, and an EOF
    /// mid-frame as `UnexpectedEof`.
    pub fn poll_frame(&mut self, stream: &mut impl Read) -> io::Result<Poll> {
        Ok(match self.poll_front(stream)? {
            Poll::Frame(()) => Poll::Frame(self.take_buffered()?.unwrap_or_default()),
            Poll::Pending => Poll::Pending,
            Poll::Eof => Poll::Eof,
        })
    }

    /// As [`poll_frame`](Self::poll_frame), errors included, but the
    /// frame stays at the front of the buffer until [`consume`](Self::consume).
    pub fn poll_front(&mut self, stream: &mut impl Read) -> io::Result<Poll<()>> {
        loop {
            if self.buffered()? {
                return Ok(Poll::Frame(()));
            }
            if self.filled == self.buf.len() {
                self.buf.resize((self.buf.len() * 2).max(INITIAL_BUF), 0);
            }
            let offered = self.buf.len() - self.filled;
            match stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => {
                    self.drained = true;
                    return if self.filled == 0 {
                        Ok(Poll::Eof)
                    } else {
                        Err(io::Error::new(ErrorKind::UnexpectedEof, "truncated frame"))
                    };
                }
                Ok(n) => {
                    self.filled += n;
                    self.drained = n < offered;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.drained = true;
                    return Ok(Poll::Pending);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Parks on readability until the next frame, EOF, or `deadline`.
    /// Returns `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// `ErrorKind::TimedOut` when the deadline passes first; otherwise as
    /// [`poll_frame`](Self::poll_frame).
    pub fn read_frame_deadline(
        &mut self,
        stream: &mut TcpStream,
        deadline: Instant,
    ) -> io::Result<Option<Vec<u8>>> {
        loop {
            match self.poll_frame(stream)? {
                Poll::Frame(f) => return Ok(Some(f)),
                Poll::Eof => return Ok(None),
                Poll::Pending => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(io::Error::new(ErrorKind::TimedOut, "read deadline"));
                    }
                    wait_readable(stream, deadline - now)?;
                }
            }
        }
    }

    /// The next complete frame already in the reassembly buffer, if any,
    /// without reading the stream.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the buffered length prefix exceeds
    /// [`MAX_FRAME`].
    #[inline]
    pub fn take_buffered(&mut self) -> io::Result<Option<Vec<u8>>> {
        let frame = self
            .buffered()?
            .then(|| self.payload().unwrap_or_default().to_vec());
        self.consume();
        Ok(frame)
    }

    /// Whether a complete frame is at the front of the buffer, without
    /// reading the stream; sizes the buffer for it once its prefix is in.
    /// Errors are [`take_buffered`](Self::take_buffered)'s.
    pub fn buffered(&mut self) -> io::Result<bool> {
        let Some(len) = self.announced() else {
            return Ok(false);
        };
        if len > MAX_FRAME {
            return Err(io::Error::new(ErrorKind::InvalidData, "frame too large"));
        }
        if self.buf.len() < 4 + len {
            self.buf.resize(4 + len, 0);
        }
        Ok(self.filled >= 4 + len)
    }

    /// The complete frame at the front of the buffer, prefix included.
    pub fn encoded(&self) -> Option<&[u8]> {
        let end = 4 + self.announced().filter(|&len| len <= MAX_FRAME)?;
        (end <= self.filled).then(|| &self.buf[..end])
    }

    /// The payload of the complete frame at the front of the buffer.
    pub fn payload(&self) -> Option<&[u8]> {
        self.encoded().map(|frame| &frame[4..])
    }

    /// Drops the complete frame at the front of the buffer, if any.
    pub fn consume(&mut self) {
        if let Some(end) = self.encoded().map(<[u8]>::len) {
            self.buf.copy_within(end..self.filled, 0);
            self.filled -= end;
        }
    }

    /// The length a whole buffered prefix announces: the one parser.
    fn announced(&self) -> Option<usize> {
        let prefix = self.buf.get(..4).filter(|_| self.filled >= 4)?;
        Some(u32::from_le_bytes(prefix.try_into().expect("sliced to four bytes")) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    fn nonblocking_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn frames_round_trip_through_reader() {
        let (mut a, mut b) = nonblocking_pair();
        let deadline = Instant::now() + Duration::from_secs(2);
        for i in 0..50u32 {
            write_frame_deadline(&mut a, &i.to_le_bytes(), deadline).unwrap();
        }
        let mut reader = FrameReader::new();
        for i in 0..50u32 {
            let f = reader
                .read_frame_deadline(&mut b, deadline)
                .unwrap()
                .expect("frame");
            assert_eq!(f, i.to_le_bytes());
        }
        drop(a);
        assert_eq!(reader.read_frame_deadline(&mut b, deadline).unwrap(), None);
    }

    #[test]
    fn read_deadline_fires_when_no_data_comes() {
        let (_a, mut b) = nonblocking_pair();
        let mut reader = FrameReader::new();
        let start = Instant::now();
        let err = reader
            .read_frame_deadline(&mut b, start + Duration::from_millis(60))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(55));
    }

    #[test]
    fn write_deadline_fires_against_a_stalled_reader() {
        let (mut a, _b) = nonblocking_pair();
        let payload = vec![0u8; 64 * 1024];
        let deadline = Instant::now() + Duration::from_millis(150);
        // Nobody reads `_b`: the kernel buffers fill and the deadline fires.
        let mut result = Ok(());
        for _ in 0..1024 {
            result = write_frame_deadline(&mut a, &payload, deadline);
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result.unwrap_err().kind(), ErrorKind::TimedOut);
    }
}
