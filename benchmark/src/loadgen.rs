//! The load generator: one thread, nonblocking sockets on the
//! transport crate's `Poller`, one outstanding request per connection
//! (the proxy allows no more), every response compared byte for byte.
//!
//! A *closed* phase re-sends on each connection as soon as its response
//! verifies. An *open* phase sends on a fixed schedule whatever the
//! system does; a request is timed from when it was **due**, so the wait
//! a stall imposes on later requests is counted, and how late the
//! generator itself ran is reported beside it.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use streambal_core::SplitMix64;
use streambal_proxy::{FrameReader, FrameWriter, Poll, WriteStatus};
use streambal_transport::poll::{Event, Interest, Poller};

use crate::stats::{due_count, due_ns};
use crate::trace::Tracer;

/// Client-side budget for one request; a request over it is a failure.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);
/// `Poller::wait` timeouts are millisecond-granular, so an open loop
/// sleeps only while the next due time is at least this far away and
/// polls without blocking otherwise.
const SPIN_BELOW: Duration = Duration::from_millis(2);
/// How many different payload alignments a run uses.
const NOISE_SLACK: usize = 4096;

/// Seeded request payloads: an 8-byte sequence number followed by a
/// slice of one seeded noise block, at an offset that depends on the
/// sequence number — so no two consecutive requests carry the same
/// bytes and a cross-wired or corrupted response cannot verify.
pub struct Payloads {
    noise: Vec<u8>,
    len: usize,
}

impl Payloads {
    pub fn new(seed: u64, len: usize) -> Self {
        assert!(len >= 8, "a payload starts with its sequence number");
        let mut rng = SplitMix64::new(seed);
        let mut noise = vec![0u8; len - 8 + NOISE_SLACK];
        for chunk in noise.chunks_mut(8) {
            let bytes = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Payloads { noise, len }
    }

    fn body(&self, seq: u64) -> &[u8] {
        let off = (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % NOISE_SLACK;
        &self.noise[off..off + self.len - 8]
    }

    /// Writes request `seq`'s payload into `out` (cleared first).
    pub fn fill(&self, seq: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(self.body(seq));
    }

    /// Whether `frame` is byte for byte the payload of request `seq`.
    pub fn verify(&self, seq: u64, frame: &[u8]) -> bool {
        frame.len() == self.len && frame[..8] == seq.to_le_bytes() && frame[8..] == *self.body(seq)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Idle,
    Sending,
    Awaiting,
    Dead,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: FrameWriter,
    state: ConnState,
    interest: Interest,
    seq: u64,
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    /// Span boundaries, taken only while tracing.
    sent: Instant,
    written: Instant,
}

/// What one measurement window saw.
#[derive(Default)]
pub struct Window {
    pub secs: f64,
    pub completed: u64,
    /// Response verified minus due time, per request.
    pub latency_ns: Vec<u64>,
    /// Open loop: send time minus due time for requests that found an
    /// idle connection waiting — how late the generator itself ran.
    pub late_ns: Vec<u64>,
    /// Open loop: most requests due but not yet sent at any instant.
    pub backlog_max: u64,
}

impl Window {
    pub fn rate(&self) -> f64 {
        self.completed as f64 / self.secs
    }

    fn record(&mut self, latency_ns: Option<u64>) {
        if let Some(ns) = latency_ns {
            self.completed += 1;
            self.latency_ns.push(ns);
        }
    }
}

#[derive(Clone, Copy)]
pub enum Mode {
    Closed,
    /// Requests per second.
    Open(u64),
}

/// One phase: `settle` untimed, then `windows` windows of `window` each.
#[derive(Clone, Copy)]
pub struct Phase {
    pub mode: Mode,
    pub settle: Duration,
    pub window: Duration,
    pub windows: usize,
}

impl Phase {
    /// A phase of `total` seconds: the first `settle_share` settles, the
    /// rest is cut into windows of about `window_secs`.
    pub fn of(mode: Mode, total: f64, settle_share: f64, window_secs: f64) -> Self {
        let settle = total * settle_share;
        let windows = (((total - settle) / window_secs).floor() as usize).max(1);
        Phase {
            mode,
            settle: Duration::from_secs_f64(settle),
            window: Duration::from_secs_f64((total - settle) / windows as f64),
            windows,
        }
    }
}

pub struct LoadGen {
    poller: Poller,
    conns: Vec<Conn>,
    idle: VecDeque<usize>,
    payloads: Payloads,
    next_seq: u64,
    scratch: Vec<u8>,
    events: Vec<Event>,
    active: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl LoadGen {
    /// Connects `count` connections, dealt round-robin over `targets`;
    /// `seed` fixes the payload bytes and the order connections are
    /// used in.
    pub fn connect(
        targets: &[SocketAddr],
        count: usize,
        frame_len: usize,
        seed: u64,
    ) -> io::Result<Self> {
        let mut gen = LoadGen {
            poller: Poller::new()?,
            conns: Vec::with_capacity(count),
            idle: VecDeque::with_capacity(count),
            payloads: Payloads::new(seed, frame_len),
            next_seq: 0,
            scratch: Vec::with_capacity(frame_len),
            events: Vec::new(),
            active: 0,
            attempted: 0,
            failed: 0,
        };
        let now = Instant::now();
        for tok in 0..count {
            let target = targets[tok % targets.len()];
            let stream = TcpStream::connect_timeout(&target, Duration::from_secs(5))?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            gen.poller
                .register(stream.as_raw_fd(), tok, Interest::NONE)?;
            gen.conns.push(Conn {
                stream,
                reader: FrameReader::new(),
                out: FrameWriter::new(),
                state: ConnState::Idle,
                interest: Interest::NONE,
                seq: 0,
                due: now,
                sent: now,
                written: now,
            });
        }
        let mut order: Vec<usize> = (0..count).collect();
        let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00);
        for i in (1..count).rev() {
            order.swap(i, rng.range_usize(0, i));
        }
        gen.idle.extend(order);
        Ok(gen)
    }

    fn set_interest(&mut self, tok: usize, want: Interest) {
        let conn = &mut self.conns[tok];
        if conn.interest != want
            && self
                .poller
                .reregister(conn.stream.as_raw_fd(), tok, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// The next connection with no request outstanding, in use order.
    fn next_idle(&mut self) -> Option<usize> {
        while let Some(tok) = self.idle.pop_front() {
            if self.conns[tok].state == ConnState::Idle {
                return Some(tok);
            }
        }
        None
    }

    /// Sends the next request on `tok` and drives it as far as it goes
    /// at once; a response that is already there lands in `window`.
    fn issue(
        &mut self,
        tok: usize,
        due: Instant,
        window: &mut Window,
        tracer: &mut Option<&mut Tracer>,
    ) {
        self.start(tok, due, tracer.is_some());
        window.record(self.pump(tok, tracer));
    }

    fn start(&mut self, tok: usize, due: Instant, tracing: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.attempted += 1;
        self.active += 1;
        self.payloads.fill(seq, &mut self.scratch);
        let conn = &mut self.conns[tok];
        conn.seq = seq;
        conn.due = due;
        if tracing {
            conn.sent = Instant::now();
        }
        conn.out.enqueue(&self.scratch);
        conn.state = ConnState::Sending;
    }

    /// Drives connection `tok` as far as it goes without blocking.
    /// Returns the completed request's latency from its due time.
    fn pump(&mut self, tok: usize, tracer: &mut Option<&mut Tracer>) -> Option<u64> {
        loop {
            let conn = &mut self.conns[tok];
            match conn.state {
                ConnState::Idle | ConnState::Dead => return None,
                ConnState::Sending => match conn.out.write_to(&mut conn.stream) {
                    Ok(WriteStatus::Drained) => {
                        if tracer.is_some() {
                            conn.written = Instant::now();
                        }
                        conn.state = ConnState::Awaiting;
                    }
                    Ok(WriteStatus::Blocked) => {
                        self.set_interest(tok, Interest::WRITABLE);
                        return None;
                    }
                    Err(_) => {
                        self.fail(tok);
                        return None;
                    }
                },
                ConnState::Awaiting => match conn.reader.poll_frame(&mut conn.stream) {
                    Ok(Poll::Frame(frame)) => {
                        let decoded = Instant::now();
                        if !self.payloads.verify(conn.seq, &frame) {
                            self.fail(tok);
                            return None;
                        }
                        let done = if tracer.is_some() {
                            Instant::now()
                        } else {
                            decoded
                        };
                        if let Some(t) = tracer {
                            let [due, sent, written, decoded, done] =
                                [conn.due, conn.sent, conn.written, decoded, done]
                                    .map(|i| t.ns_at(i));
                            let id = t.push(0, conn.seq, "request", "", due, done);
                            t.push(id, conn.seq, "write", "", sent, written);
                            t.push(id, conn.seq, "await", "", written, decoded);
                            t.push(id, conn.seq, "verify", "", decoded, done);
                        }
                        conn.state = ConnState::Idle;
                        self.active -= 1;
                        self.idle.push_back(tok);
                        let ns = done.saturating_duration_since(conn.due).as_nanos();
                        self.set_interest(tok, Interest::NONE);
                        return Some(u64::try_from(ns).unwrap_or(u64::MAX));
                    }
                    Ok(Poll::Pending) => {
                        self.set_interest(tok, Interest::READABLE);
                        return None;
                    }
                    Ok(Poll::Eof) | Err(_) => {
                        self.fail(tok);
                        return None;
                    }
                },
            }
        }
    }

    /// A failed request: refused, reset, timed out or byte-mismatched.
    /// The connection is not revived, so later requests it would have
    /// carried queue on the others — any failure fails the run anyway.
    fn fail(&mut self, tok: usize) {
        let conn = &mut self.conns[tok];
        if matches!(conn.state, ConnState::Sending | ConnState::Awaiting) {
            self.active -= 1;
            self.failed += 1;
        }
        conn.state = ConnState::Dead;
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
    }

    fn fail_overdue(&mut self) {
        let now = Instant::now();
        for tok in 0..self.conns.len() {
            let c = &self.conns[tok];
            if matches!(c.state, ConnState::Sending | ConnState::Awaiting)
                && now.saturating_duration_since(c.due) > REQUEST_DEADLINE
            {
                self.fail(tok);
            }
        }
    }

    /// Polls once (for at most `timeout`) and pumps every ready
    /// connection, recording completions into `window`.
    fn turn(&mut self, timeout: Duration, window: &mut Window, tracer: &mut Option<&mut Tracer>) {
        let mut events = std::mem::take(&mut self.events);
        let _ = self.poller.wait(&mut events, Some(timeout));
        for ev in &events {
            if ev.token >= self.conns.len() {
                continue;
            }
            if ev.closed && !ev.readable && !ev.writable {
                self.fail(ev.token);
            } else {
                window.record(self.pump(ev.token, tracer));
            }
        }
        self.events = events;
    }

    /// Runs one phase. `boundary(i)` is called at the start of window
    /// `i` and once more, with `i == windows`, at the end of the last —
    /// the place to sample a child's CPU clock.
    pub fn run_phase(
        &mut self,
        phase: Phase,
        mut tracer: Option<&mut Tracer>,
        mut boundary: impl FnMut(usize),
    ) -> Vec<Window> {
        let t0 = Instant::now();
        // Open loop: requests sent so far, and whether a due request
        // found no idle connection — what is sent late after that waited
        // for the system, not for the generator.
        let mut issued = 0u64;
        let mut starved = false;
        let mut edges = vec![t0 + phase.settle];
        for i in 1..=phase.windows {
            edges.push(t0 + phase.settle + phase.window * i as u32);
        }
        let mut settle = Window::default();
        let mut out: Vec<Window> = Vec::with_capacity(phase.windows);
        let mut current: Option<usize> = None; // index into `out`
        let mut window_started = t0;
        let mut last_overdue_scan = t0;
        loop {
            let now = Instant::now();
            // Cross window edges.
            let next_edge = current.map_or(0, |i| i + 1);
            if now >= edges[next_edge] {
                if let Some(i) = current {
                    out[i].secs = now.duration_since(window_started).as_secs_f64();
                }
                boundary(next_edge);
                if next_edge == phase.windows {
                    break;
                }
                out.push(Window::default());
                current = Some(next_edge);
                window_started = Instant::now();
                continue;
            }
            let window = match current {
                Some(i) => &mut out[i],
                None => &mut settle,
            };
            // Issue what is due.
            let timeout = match phase.mode {
                Mode::Closed => {
                    while let Some(tok) = self.next_idle() {
                        self.issue(tok, now, window, &mut tracer);
                    }
                    Duration::from_millis(20)
                }
                Mode::Open(rate) => {
                    let now_ns =
                        u64::try_from(now.duration_since(t0).as_nanos()).unwrap_or(u64::MAX);
                    let due_now = due_count(now_ns, rate);
                    while issued < due_now {
                        let Some(tok) = self.next_idle() else {
                            starved = true;
                            break;
                        };
                        let due = t0 + Duration::from_nanos(due_ns(issued, rate));
                        if !starved {
                            let late = Instant::now().saturating_duration_since(due);
                            window.late_ns.push(late.as_nanos() as u64);
                        }
                        issued += 1;
                        self.issue(tok, due, window, &mut tracer);
                    }
                    window.backlog_max = window.backlog_max.max(due_now - issued);
                    if issued == due_now {
                        starved = false;
                    }
                    let next_due = t0 + Duration::from_nanos(due_ns(issued, rate));
                    let until = next_due.saturating_duration_since(Instant::now());
                    if until < SPIN_BELOW {
                        Duration::ZERO
                    } else {
                        until - Duration::from_millis(1)
                    }
                }
            };
            let to_edge = edges[next_edge].saturating_duration_since(Instant::now());
            // Round a sub-millisecond remainder up, or the wait would
            // truncate to a busy poll until the edge.
            let timeout = timeout.min(to_edge + Duration::from_millis(1));
            self.turn(timeout, window, &mut tracer);
            if now.duration_since(last_overdue_scan) > Duration::from_millis(250) {
                last_overdue_scan = now;
                self.fail_overdue();
            }
        }
        self.drain();
        out
    }

    /// Lets every in-flight request finish (or fail on its deadline).
    fn drain(&mut self) {
        let mut sink = Window::default();
        while self.active > 0 {
            self.turn(Duration::from_millis(20), &mut sink, &mut None);
            self.fail_overdue();
        }
    }

    /// `count` closed-loop requests, untimed: the warm-up.
    pub fn warm_up(&mut self, count: u64) {
        let target = self.attempted + count;
        let mut sink = Window::default();
        while self.attempted < target {
            let now = Instant::now();
            while self.attempted < target {
                let Some(tok) = self.next_idle() else {
                    break;
                };
                self.issue(tok, now, &mut sink, &mut None);
            }
            if self.conns.iter().all(|c| c.state == ConnState::Dead) {
                break;
            }
            self.turn(Duration::from_millis(20), &mut sink, &mut None);
            self.fail_overdue();
        }
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_verify_only_their_own_bytes() {
        let p = Payloads::new(7, 128);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        p.fill(1, &mut a);
        p.fill(2, &mut b);
        assert_eq!(a.len(), 128);
        assert!(p.verify(1, &a) && p.verify(2, &b));
        assert!(!p.verify(2, &a), "another request's bytes");
        assert_ne!(
            a[8..],
            b[8..],
            "consecutive requests differ past the header"
        );
        a[100] ^= 1;
        assert!(!p.verify(1, &a), "one flipped bit");
        assert!(!p.verify(1, &a[..127]), "a short frame");
        // Same seed, same bytes; another seed, other bytes.
        let mut c = Vec::new();
        Payloads::new(7, 128).fill(2, &mut c);
        assert_eq!(b, c);
        Payloads::new(8, 128).fill(2, &mut c);
        assert_ne!(b, c);
    }

    #[test]
    fn phase_cuts_the_time_after_settling_into_whole_windows() {
        let p = Phase::of(Mode::Closed, 5.0, 0.2, 0.5);
        assert_eq!(p.windows, 8);
        assert_eq!(p.settle, Duration::from_secs(1));
        assert_eq!(p.window, Duration::from_millis(500));
        // Too short for a full window: one window of what is left.
        let q = Phase::of(Mode::Open(1000), 0.5, 0.2, 0.5);
        assert_eq!(q.windows, 1);
        assert_eq!(q.window, Duration::from_millis(400));
    }
}
