//! Property tests for the event-loop frame codec: seeded fuzz of
//! partial writes, partial reads and `WouldBlock` interleavings through
//! [`FrameWriter`]/[`FrameReader`], checking byte-identical reassembly
//! against the naive wire encoding (4-byte LE length prefix + payload),
//! and that a frame passed on from a reader's buffer by
//! [`FrameWriter::forward`] reaches the wire exactly as `enqueue` puts it.
//!
//! The proxy's event loop carries every byte through these two state
//! machines, and the kernel is free to split or stall the stream at any
//! byte boundary — so the codec must survive *arbitrary* chunkings, not
//! just the friendly ones loopback produces. Driven by the in-repo
//! [`SplitMix64`] generator with fixed seeds: fully deterministic, any
//! failure reproduces by re-running the test.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use streambal_core::SplitMix64;
use streambal_transport::frame::{FrameReader, FrameWriter, Poll, WriteStatus, MAX_FRAME};

const SEED: u64 = 0xC0DE_F4A3;
const CASES: u64 = 40;

/// The naive reference encoding the state machines must reproduce.
fn reference_encoding(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for f in frames {
        wire.extend_from_slice(&(f.len() as u32).to_le_bytes());
        wire.extend_from_slice(f);
    }
    wire
}

fn random_frames(rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let count = rng.range_usize(1, 12);
    (0..count)
        .map(|_| {
            // Mix empty, tiny, and multi-buffer frames: every size class
            // crosses the reader's internal buffer boundaries differently.
            let len = match rng.below(4) {
                0 => 0,
                1 => rng.range_usize(1, 16),
                2 => rng.range_usize(17, 4_096),
                _ => rng.range_usize(4_097, 40_000),
            };
            let mut frame = vec![0u8; len];
            for chunk in frame.chunks_mut(8) {
                let bytes = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
            frame
        })
        .collect()
}

/// A writer that accepts a random number of bytes per call and
/// interleaves `WouldBlock` (and the occasional `Interrupted`) — the
/// kernel's worst mood, scripted.
struct ThrottlingWriter {
    rng: SplitMix64,
    accepted: Vec<u8>,
}

impl Write for ThrottlingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.rng.below(5) {
            0 => Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted block")),
            1 => Err(io::Error::new(io::ErrorKind::Interrupted, "scripted eintr")),
            _ => {
                let n = self.rng.range_usize(1, buf.len().max(1)).min(buf.len());
                self.accepted.extend_from_slice(&buf[..n]);
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A reader that hands out the wire bytes in random-sized chunks with
/// `WouldBlock`/`Interrupted` interleaved, then EOF.
struct ChunkedReader {
    rng: SplitMix64,
    wire: Vec<u8>,
    pos: usize,
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.wire.len() {
            return Ok(0);
        }
        match self.rng.below(5) {
            0 => Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted block")),
            1 => Err(io::Error::new(io::ErrorKind::Interrupted, "scripted eintr")),
            _ => {
                let left = self.wire.len() - self.pos;
                let n = self
                    .rng
                    .range_usize(1, left.min(buf.len().max(1)))
                    .min(buf.len());
                buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
    }
}

#[test]
fn writer_produces_the_reference_encoding_under_scripted_chaos() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..CASES {
        let frames = random_frames(&mut rng);
        let mut writer = FrameWriter::new();
        let mut sink = ThrottlingWriter {
            rng: rng.fork(),
            accepted: Vec::new(),
        };
        // Enqueue in random batches: sometimes several frames pile up
        // before a drain makes progress (exactly the pipelined-link
        // shape), sometimes each frame drains alone.
        let mut queued = 0usize;
        while queued < frames.len() || !writer.is_empty() {
            if queued < frames.len() && (writer.is_empty() || rng.chance(0.5)) {
                writer.enqueue(&frames[queued]);
                queued += 1;
            }
            match writer.write_to(&mut sink) {
                Ok(WriteStatus::Drained | WriteStatus::Blocked) => {}
                Err(e) => panic!("case {case}: scripted writer errored: {e}"),
            }
        }
        assert_eq!(
            sink.accepted,
            reference_encoding(&frames),
            "case {case}: drained bytes diverge from the reference encoding"
        );
    }
}

#[test]
fn reader_reassembles_byte_identical_frames_from_any_chunking() {
    let mut rng = SplitMix64::new(SEED ^ 0x5EED);
    for case in 0..CASES {
        let frames = random_frames(&mut rng);
        let mut source = ChunkedReader {
            rng: rng.fork(),
            wire: reference_encoding(&frames),
            pos: 0,
        };
        let mut reader = FrameReader::new();
        let mut out: Vec<Vec<u8>> = Vec::new();
        loop {
            match reader.poll_frame(&mut source) {
                Ok(Poll::Frame(f)) => out.push(f),
                Ok(Poll::Pending) => {} // scripted WouldBlock; just retry
                Ok(Poll::Eof) => break,
                Err(e) => panic!("case {case}: reader errored: {e}"),
            }
        }
        assert_eq!(out, frames, "case {case}: reassembly diverged");
    }
}

#[test]
fn the_borrowed_view_plus_consume_sees_what_poll_frame_returns() {
    let mut rng = SplitMix64::new(SEED ^ 0xF00D);
    for case in 0..CASES {
        let frames = random_frames(&mut rng);
        let wire = reference_encoding(&frames);
        let chunking = rng.fork();
        let mut copying = ChunkedReader {
            rng: chunking.clone(),
            wire: wire.clone(),
            pos: 0,
        };
        let mut borrowing = ChunkedReader {
            rng: chunking,
            wire,
            pos: 0,
        };
        let (mut a, mut b) = (FrameReader::new(), FrameReader::new());
        let mut seen = 0;
        loop {
            let polled = a.poll_frame(&mut copying).unwrap();
            let front = b.poll_front(&mut borrowing).unwrap();
            match (polled, front) {
                (Poll::Frame(f), Poll::Frame(())) => {
                    assert_eq!(b.payload(), Some(&f[..]), "case {case}, frame {seen}");
                    let encoded = reference_encoding(std::slice::from_ref(&f));
                    assert_eq!(b.encoded(), Some(&encoded[..]), "case {case}");
                    assert_eq!(f, frames[seen], "case {case}, frame {seen}");
                    b.consume();
                    seen += 1;
                }
                (Poll::Pending, Poll::Pending) => {}
                (Poll::Eof, Poll::Eof) => break,
                (p, q) => panic!("case {case}: poll_frame gave {p:?}, poll_front {q:?}"),
            }
        }
        assert_eq!(seen, frames.len(), "case {case}");
        assert!(!b.mid_frame() && b.payload().is_none(), "case {case}");
    }
}

/// Reads frames off a scripted stream until one is at the front.
fn next_front(reader: &mut FrameReader, source: &mut ChunkedReader) -> bool {
    loop {
        match reader.poll_front(source).unwrap() {
            Poll::Frame(()) => return true,
            Poll::Pending => {}
            Poll::Eof => return false,
        }
    }
}

#[test]
fn forward_puts_the_bytes_enqueue_would_on_the_wire() {
    let mut rng = SplitMix64::new(SEED ^ 0xF0D0);
    for case in 0..CASES {
        let frames = random_frames(&mut rng);
        let mut source = ChunkedReader {
            rng: rng.fork(),
            wire: reference_encoding(&frames),
            pos: 0,
        };
        let mut reader = FrameReader::new();
        let mut writer = FrameWriter::new();
        let mut sink = ThrottlingWriter {
            rng: rng.fork(),
            accepted: Vec::new(),
        };
        while next_front(&mut reader, &mut source) {
            let (queued, sent) = (writer.pending(), sink.accepted.len());
            let frame_len = reader.encoded().unwrap().len();
            if rng.chance(0.2) {
                // A stream still connecting: a plain append.
                writer.queue(&reader);
                assert_eq!(writer.pending(), queued + frame_len, "case {case}");
            } else {
                let status = writer.forward(&reader, &mut sink).unwrap();
                let wrote = sink.accepted.len() - sent;
                match status {
                    // What the writer holds is exactly what the sink
                    // refused.
                    WriteStatus::Blocked => {
                        assert_eq!(writer.pending(), queued + frame_len - wrote, "case {case}");
                    }
                    WriteStatus::Drained => assert!(writer.is_empty(), "case {case}"),
                }
            }
            reader.consume();
            // Sometimes a writable edge lets the queue drain in between.
            if rng.chance(0.3) {
                writer.write_to(&mut sink).unwrap();
            }
        }
        while writer.write_to(&mut sink).unwrap() == WriteStatus::Blocked {}
        assert_eq!(
            sink.accepted,
            reference_encoding(&frames),
            "case {case}: forwarded bytes diverge from the enqueued encoding"
        );
    }
}

#[test]
fn writer_to_reader_round_trip_over_a_real_nonblocking_socket() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut tx = TcpStream::connect(addr).unwrap();
    let (mut rx, _) = listener.accept().unwrap();
    tx.set_nonblocking(true).unwrap();
    rx.set_nonblocking(true).unwrap();

    let mut rng = SplitMix64::new(SEED ^ 0x50CE);
    let frames: Vec<Vec<u8>> = (0..8).flat_map(|_| random_frames(&mut rng)).collect();

    let mut writer = FrameWriter::new();
    let mut reader = FrameReader::new();
    let mut queued = 0usize;
    let mut out: Vec<Vec<u8>> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    // Single-threaded pump: writes fill the kernel pipe until it blocks,
    // reads drain it — real partial-write/partial-read boundaries chosen
    // by the kernel, not a script.
    while out.len() < frames.len() {
        assert!(Instant::now() < deadline, "socket round trip wedged");
        if queued < frames.len() {
            writer.enqueue(&frames[queued]);
            queued += 1;
            let _ = writer.write_to(&mut tx).unwrap();
        }
        loop {
            match reader.poll_frame(&mut rx).unwrap() {
                Poll::Frame(f) => out.push(f),
                Poll::Pending => break,
                Poll::Eof => panic!("premature EOF"),
            }
        }
        if queued == frames.len() && !writer.is_empty() {
            let _ = writer.write_to(&mut tx).unwrap();
        }
    }
    assert_eq!(out, frames, "socket round trip diverged");
}

// Named hostile inputs, in memory: each is one way a peer can lie about
// or starve the stream.

/// A reader that plays a fixed script — each step a chunk of bytes or
/// (`None`) one `WouldBlock` — then reports EOF.
struct Script(VecDeque<Option<Vec<u8>>>);

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(step) = self.0.front_mut() else {
            return Ok(0);
        };
        let Some(chunk) = step else {
            self.0.pop_front();
            return Err(io::ErrorKind::WouldBlock.into());
        };
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        chunk.drain(..n);
        if chunk.is_empty() {
            self.0.pop_front();
        }
        Ok(n)
    }
}

fn prefix(len: usize) -> Vec<u8> {
    (len as u32).to_le_bytes().to_vec()
}

#[test]
fn truncated_body_then_eof_is_unexpected_eof() {
    let mut body = prefix(10);
    body.extend_from_slice(&[7; 5]);
    let mut stream = Script(VecDeque::from([Some(body)]));
    let err = FrameReader::new().poll_frame(&mut stream).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
}

#[test]
fn oversized_prefix_is_rejected_at_once_not_pending() {
    // The body never comes: the reader must not wait for a frame it would
    // refuse anyway.
    let mut stream = Script(VecDeque::from([Some(prefix(MAX_FRAME + 1)), None]));
    let err = FrameReader::new().poll_frame(&mut stream).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn frame_of_exactly_max_frame_round_trips() {
    let frame: Vec<u8> = (0..MAX_FRAME).map(|i| i as u8).collect();
    let mut writer = FrameWriter::new();
    writer.enqueue(&frame);
    let mut wire = Vec::new();
    assert_eq!(writer.write_to(&mut wire).unwrap(), WriteStatus::Drained);
    assert_eq!(wire, reference_encoding(std::slice::from_ref(&frame)));
    let mut reader = FrameReader::new();
    let mut stream = &wire[..];
    assert_eq!(reader.poll_frame(&mut stream).unwrap(), Poll::Frame(frame));
    assert_eq!(reader.poll_frame(&mut stream).unwrap(), Poll::Eof);
}

#[test]
fn one_byte_per_read_reassembles_every_frame() {
    let mut rng = SplitMix64::new(SEED ^ 0x0B1E);
    for case in 0..8 {
        let frames = random_frames(&mut rng);
        let wire = reference_encoding(&frames);
        let mut stream = Script(wire.into_iter().map(|b| Some(vec![b])).collect());
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        while let Poll::Frame(f) = reader.poll_frame(&mut stream).unwrap() {
            out.push(f);
        }
        assert_eq!(out, frames, "case {case}: slow-drip reassembly diverged");
    }
}

// What a read tells an edge-triggered owner: whether the socket ran dry.

/// A reader that fills every buffer it is offered, from an endless run of
/// 8-byte frames.
struct Firehose;

impl Read for Firehose {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = if i % 12 == 0 { 8 } else { 0 };
        }
        Ok(buf.len())
    }
}

/// A reader that must never be read.
struct NoRead;

impl Read for NoRead {
    fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
        panic!("read a stream while a complete frame was buffered");
    }
}

#[test]
fn a_short_read_reports_drained() {
    let mut stream = Script(VecDeque::from([Some(reference_encoding(&[vec![1; 20]]))]));
    let mut reader = FrameReader::new();
    assert_eq!(
        reader.poll_frame(&mut stream).unwrap(),
        Poll::Frame(vec![1; 20])
    );
    assert!(reader.drained());
}

#[test]
fn a_read_that_fills_the_offered_buffer_is_not_drained() {
    let mut reader = FrameReader::new();
    assert_eq!(
        reader.poll_frame(&mut Firehose).unwrap(),
        Poll::Frame(vec![0; 8])
    );
    assert!(!reader.drained());
}

#[test]
fn would_block_reports_drained() {
    let mut stream = Script(VecDeque::from([Some(prefix(10)), None]));
    let mut reader = FrameReader::new();
    assert_eq!(reader.poll_frame(&mut stream).unwrap(), Poll::Pending);
    assert!(reader.drained());
}

#[test]
fn buffered_frames_are_taken_without_reading() {
    let frames = vec![vec![1; 3], vec![2; 5], vec![3; 7]];
    let mut stream = Script(VecDeque::from([Some(reference_encoding(&frames))]));
    let mut reader = FrameReader::new();
    assert_eq!(
        reader.poll_frame(&mut stream).unwrap(),
        Poll::Frame(frames[0].clone())
    );
    assert_eq!(reader.take_buffered().unwrap(), Some(frames[1].clone()));
    assert_eq!(
        reader.poll_frame(&mut NoRead).unwrap(),
        Poll::Frame(frames[2].clone())
    );
    assert_eq!(reader.take_buffered().unwrap(), None);
    assert!(!reader.mid_frame());
}
