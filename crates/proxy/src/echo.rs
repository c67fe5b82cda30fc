//! Test kit: a framed echo backend, a client-fleet load driver and a
//! `/metrics` scraper. Lives in the library (not `#[cfg(test)]`) because
//! the e2e tests, the benches, the CI smoke job and the `streambal-proxy
//! echo`/`load` subcommands all share it.
//!
//! The backend is a single readiness-polled event loop — one thread no
//! matter how many connections — so a soak test can park thousands of
//! sockets against it without burning CPU. Each connection is served
//! strictly serially, and [`EchoBackend::set_delay`] throttles the *read
//! rate*: after every read that makes progress the connection stops
//! reading for the delay. That read-stop is what generates real
//! back-pressure — the kernel buffers fill and the proxy side
//! accumulates blocked-write time.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use streambal_transport::frame::{
    write_frame_deadline, FrameReader, FrameWriter, Poll, WriteStatus,
};
use streambal_transport::poll::{set_recv_buffer, Interest, Poller};

const LISTENER_TOKEN: usize = usize::MAX;
/// Upper bound on how long the loop sleeps: bounds reaction time to
/// `stall`/`set_delay`/`kill`, which are plain atomics with no waker.
const TICK: Duration = Duration::from_millis(25);

/// A backend that echoes every frame back, with switchable misbehaviour.
#[derive(Debug)]
pub struct EchoBackend {
    addr: SocketAddr,
    served: Arc<AtomicU64>,
    stalled: Arc<AtomicBool>,
    read_delay_ms: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    loop_thread: Option<JoinHandle<()>>,
}

/// Tuning for [`EchoBackend::spawn_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EchoOptions {
    /// Kernel receive-buffer cap for accepted connections. A small value
    /// shrinks the backend-side pipe so a delayed backend pushes
    /// back-pressure to the proxy after just a few queued frames.
    pub recv_buffer: Option<usize>,
}

impl EchoBackend {
    /// Spawns an echo backend on `addr` (use port 0 for an ephemeral
    /// port; the bound address is [`addr`](Self::addr)).
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot bind.
    pub fn spawn(addr: SocketAddr) -> io::Result<Self> {
        Self::spawn_with(addr, EchoOptions::default())
    }

    /// [`spawn`](Self::spawn) with explicit [`EchoOptions`].
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot bind or the poller cannot start.
    pub fn spawn_with(addr: SocketAddr, options: EchoOptions) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        if let Some(bytes) = options.recv_buffer {
            // Set on the listener so accepted sockets inherit it before
            // the peer's first window update.
            let _ = set_recv_buffer(&listener, bytes);
        }
        let addr = listener.local_addr()?;
        let served = Arc::new(AtomicU64::new(0));
        let stalled = Arc::new(AtomicBool::new(false));
        let read_delay_ms = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let mut server = EchoLoop {
            listener,
            poller: Poller::new()?,
            conns: Vec::new(),
            free: Vec::new(),
            served: Arc::clone(&served),
            stalled: Arc::clone(&stalled),
            read_delay_ms: Arc::clone(&read_delay_ms),
            stop: Arc::clone(&stop),
            was_stalled: false,
        };
        server.poller.register(
            server.listener.as_raw_fd(),
            LISTENER_TOKEN,
            Interest::READABLE,
        )?;
        let t = thread::Builder::new()
            .name("echo-loop".into())
            .spawn(move || server.run())?;
        Ok(EchoBackend {
            addr,
            served,
            stalled,
            read_delay_ms,
            stop,
            loop_thread: Some(t),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Acquire)
    }

    /// Makes every connection stop reading (and answering) — the classic
    /// "accepts but wedged" failure the health checker must catch via
    /// forward timeouts.
    pub fn stall(&self) {
        self.stalled.store(true, Ordering::Release);
    }

    /// Un-wedges a stalled backend.
    pub fn unstall(&self) {
        self.stalled.store(false, Ordering::Release);
    }

    /// Throttles each connection's read rate: after any read that makes
    /// progress (a full frame *or* a partial chunk of a large one), the
    /// connection reads nothing for `delay`. Once the kernel pipe fills,
    /// the proxy's writes toward this backend block — exactly the signal
    /// the balancer shifts weight away from. Pair with a small
    /// [`EchoOptions::recv_buffer`] and payloads larger than the pipe to
    /// make the back-pressure show up within a few requests.
    pub fn set_delay(&self, delay: Duration) {
        self.read_delay_ms.store(
            u64::try_from(delay.as_millis()).unwrap_or(u64::MAX),
            Ordering::Release,
        );
    }

    /// Kills the backend: the listener closes (new connects refused) and
    /// every open connection drops mid-stream.
    pub fn kill(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for EchoBackend {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

struct EchoConn {
    stream: TcpStream,
    reader: FrameReader,
    out: FrameWriter,
    /// Read throttle: the connection reads nothing before this instant.
    /// Armed after every read that made progress while a delay is set —
    /// that read-stop is what turns the delay into back-pressure.
    read_gate: Option<Instant>,
    /// An echo is in `out`; `served` increments when it drains.
    echoing: bool,
    interest: Interest,
}

struct EchoLoop {
    listener: TcpListener,
    poller: Poller,
    conns: Vec<Option<EchoConn>>,
    free: Vec<usize>,
    served: Arc<AtomicU64>,
    stalled: Arc<AtomicBool>,
    read_delay_ms: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    was_stalled: bool,
}

impl EchoLoop {
    fn run(&mut self) {
        let mut events = Vec::new();
        while !self.stop.load(Ordering::Acquire) {
            let timeout = self.wait_timeout();
            let _ = self.poller.wait(&mut events, Some(timeout));
            let stalled = self.stalled.load(Ordering::Acquire);
            if stalled != self.was_stalled {
                self.was_stalled = stalled;
                for tok in 0..self.conns.len() {
                    if self.conns[tok].is_some() {
                        if stalled {
                            self.set_interest(tok, Interest::NONE);
                        } else {
                            self.serve_cycle(tok);
                        }
                    }
                }
            }
            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else if self.conns.get(ev.token).is_some_and(Option::is_some) {
                    if ev.closed && !ev.readable && !ev.writable {
                        self.close(ev.token);
                    } else {
                        self.serve_cycle(ev.token);
                    }
                }
            }
            if !stalled {
                // Resume connections whose read gate has elapsed.
                let now = Instant::now();
                for tok in 0..self.conns.len() {
                    let due = self.conns[tok]
                        .as_ref()
                        .is_some_and(|c| c.read_gate.is_some_and(|gate| gate <= now));
                    if due {
                        self.serve_cycle(tok);
                    }
                }
            }
        }
        // Dropping the loop closes the listener and every connection.
    }

    fn wait_timeout(&self) -> Duration {
        let mut timeout = TICK;
        if !self.was_stalled {
            let now = Instant::now();
            for conn in self.conns.iter().flatten() {
                if let Some(gate) = conn.read_gate {
                    timeout = timeout.min(gate.saturating_duration_since(now));
                }
            }
        }
        timeout.max(Duration::from_millis(1))
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let tok = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let fd = stream.as_raw_fd();
                    self.conns[tok] = Some(EchoConn {
                        stream,
                        reader: FrameReader::new(),
                        out: FrameWriter::new(),
                        read_gate: None,
                        echoing: false,
                        interest: Interest::READABLE,
                    });
                    if self.poller.register(fd, tok, Interest::READABLE).is_err() {
                        self.conns[tok] = None;
                        self.free.push(tok);
                        continue;
                    }
                    if self.was_stalled {
                        self.set_interest(tok, Interest::NONE);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Transient accept failure (e.g. fd pressure): back
                    // off briefly instead of spinning on the
                    // still-readable listener.
                    thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
    }

    /// Advances one connection's serve state machine as far as it can go
    /// without blocking: flush pending echo, then read/echo frames until
    /// the socket runs dry, a delay starts, or a write would block.
    fn serve_cycle(&mut self, tok: usize) {
        loop {
            if self.was_stalled {
                self.set_interest(tok, Interest::NONE);
                return;
            }
            enum Step {
                Wait(Interest),
                Served,
                GotFrame(Vec<u8>),
                Gate,
                Close,
            }
            let delay = self.read_delay_ms.load(Ordering::Acquire);
            let step = {
                let Some(conn) = self.conns[tok].as_mut() else {
                    return;
                };
                if !conn.out.is_empty() {
                    match conn.out.write_to(&mut conn.stream) {
                        Ok(WriteStatus::Drained) => {
                            if conn.echoing {
                                conn.echoing = false;
                                Step::Served
                            } else {
                                continue;
                            }
                        }
                        Ok(WriteStatus::Blocked) => Step::Wait(Interest::WRITABLE),
                        Err(_) => Step::Close,
                    }
                } else if let Some(gate) = conn.read_gate {
                    if gate > Instant::now() {
                        Step::Wait(Interest::NONE)
                    } else {
                        conn.read_gate = None;
                        continue;
                    }
                } else {
                    match conn.reader.poll_frame(&mut conn.stream) {
                        Ok(Poll::Frame(frame)) => Step::GotFrame(frame),
                        Ok(Poll::Pending) => {
                            // Mid-frame progress counts against the read
                            // throttle too: a throttled backend consumes
                            // a large frame one buffer-full per delay.
                            if delay > 0 && conn.reader.mid_frame() {
                                Step::Gate
                            } else {
                                Step::Wait(Interest::READABLE)
                            }
                        }
                        Ok(Poll::Eof) | Err(_) => Step::Close,
                    }
                }
            };
            match step {
                Step::Wait(interest) => return self.set_interest(tok, interest),
                Step::Served => {
                    self.served.fetch_add(1, Ordering::AcqRel);
                }
                Step::GotFrame(frame) => {
                    let conn = self.conns[tok].as_mut().expect("conn checked above");
                    conn.out.enqueue(&frame);
                    conn.echoing = true;
                    if delay > 0 {
                        conn.read_gate = Some(Instant::now() + Duration::from_millis(delay));
                    }
                }
                Step::Gate => {
                    let conn = self.conns[tok].as_mut().expect("conn checked above");
                    conn.read_gate = Some(Instant::now() + Duration::from_millis(delay));
                }
                Step::Close => return self.close(tok),
            }
        }
    }

    fn set_interest(&mut self, tok: usize, want: Interest) {
        let Some(conn) = self.conns[tok].as_mut() else {
            return;
        };
        if conn.interest != want {
            let fd = conn.stream.as_raw_fd();
            if self.poller.reregister(fd, tok, want).is_ok() {
                conn.interest = want;
            }
        }
    }

    fn close(&mut self, tok: usize) {
        if let Some(conn) = self.conns[tok].take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.free.push(tok);
        }
    }
}

/// What a [`run_load`] fleet observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Requests answered with a byte-correct echo.
    pub succeeded: u64,
    /// Requests that failed (connect error, timeout, wrong payload,
    /// connection closed). The e2e acceptance bar is zero.
    pub failed: u64,
}

/// [`run_load_stats`] output: the pass/fail report plus the latency
/// distribution of successful round trips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Pass/fail counts, as in [`run_load`].
    pub report: LoadReport,
    /// Median round-trip latency (zero when nothing succeeded).
    pub p50: Duration,
    /// 99th-percentile round-trip latency (zero when nothing succeeded).
    pub p99: Duration,
    /// Worst observed round-trip latency.
    pub max: Duration,
}

/// Drives `clients` concurrent connections through the proxy, each
/// sending `requests` framed payloads and checking the echo. A client
/// whose connection dies reconnects and **retries the same request** —
/// exactly once per request — so a proxy-side failure only counts as
/// `failed` when the retry fails too.
#[must_use]
pub fn run_load(
    proxy: SocketAddr,
    clients: usize,
    requests: usize,
    payload_len: usize,
) -> LoadReport {
    run_load_stats(proxy, clients, requests, payload_len).report
}

/// [`run_load`] plus a latency distribution — the soak test's SLO probe.
/// Latency is measured per request across both attempts, so a retry
/// after a dropped connection counts its full (slower) round trip.
#[must_use]
pub fn run_load_stats(
    proxy: SocketAddr,
    clients: usize,
    requests: usize,
    payload_len: usize,
) -> LoadStats {
    let handles: Vec<JoinHandle<(LoadReport, Vec<u64>)>> = (0..clients)
        .map(|c| {
            thread::spawn(move || {
                let mut report = LoadReport::default();
                let mut latencies = Vec::with_capacity(requests);
                let mut conn: Option<(TcpStream, FrameReader)> = None;
                for r in 0..requests {
                    let mut payload = vec![0u8; payload_len.max(8)];
                    payload[..8].copy_from_slice(&((c * 1_000_000 + r) as u64).to_le_bytes());
                    let started = Instant::now();
                    let mut ok = false;
                    for _attempt in 0..2 {
                        if conn.is_none() {
                            conn = connect_client(proxy);
                        }
                        let Some((stream, reader)) = conn.as_mut() else {
                            continue;
                        };
                        let deadline = Instant::now() + Duration::from_secs(5);
                        let sent = write_frame_deadline(stream, &payload, deadline);
                        let echoed =
                            sent.and_then(|()| reader.read_frame_deadline(stream, deadline));
                        match echoed {
                            Ok(Some(frame)) if frame == payload => {
                                ok = true;
                                break;
                            }
                            _ => conn = None,
                        }
                    }
                    if ok {
                        report.succeeded += 1;
                        latencies
                            .push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    } else {
                        report.failed += 1;
                    }
                }
                (report, latencies)
            })
        })
        .collect();
    let mut total = LoadReport::default();
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        if let Ok((r, lats)) = h.join() {
            total.succeeded += r.succeeded;
            total.failed += r.failed;
            latencies.extend(lats);
        }
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        Duration::from_nanos(latencies[idx.min(latencies.len() - 1)])
    };
    LoadStats {
        report: total,
        p50: pct(0.50),
        p99: pct(0.99),
        max: pct(1.0),
    }
}

fn connect_client(proxy: SocketAddr) -> Option<(TcpStream, FrameReader)> {
    let stream = TcpStream::connect_timeout(&proxy, Duration::from_secs(2)).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.set_nonblocking(true).ok()?;
    Some((stream, FrameReader::new()))
}

/// Scrapes an HTTP endpoint (the proxy's `/metrics`) and returns the
/// response body.
///
/// # Errors
///
/// Propagates connect/read failures; a non-200 status is an
/// `InvalidData` error.
pub fn scrape(metrics: SocketAddr, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&metrics, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let request = format!("GET {path} HTTP/1.0\r\nHost: streambal\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    if !response.starts_with("HTTP/1.0 200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("scrape failed: {}", response.lines().next().unwrap_or("")),
        ));
    }
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok(body)
}
