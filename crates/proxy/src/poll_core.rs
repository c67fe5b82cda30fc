//! The readiness-polled forwarding core: every client and backend
//! socket multiplexed on a small set of event-loop shards.
//!
//! Each shard owns its sockets outright — clients are nonblocking frame
//! state machines, and each (shard, backend-slot) pair shares one
//! *pipelined link*: requests from many clients are queued onto the same
//! backend connection and responses complete them in FIFO order. That
//! concentration is deliberate: queued bytes pile onto one socket, so a
//! slow backend turns into measurable *unwritable time* on its link.
//!
//! A shard's only inputs are its own poller and clock: every shard
//! accepts on its own clone of the listener, shard 0 also runs the
//! re-admission probes as nonblocking connects, and every shard leaves
//! its loop on its own once the drain is done or out of time.
//!
//! ## Readiness model
//!
//! Every client, link and probe socket is registered once,
//! edge-triggered for reading, writing and the peer's FIN, and never
//! re-registered; only the listener is level-triggered (it pauses,
//! rarely, on fd pressure and on drain). An edge sets the socket's
//! `readable` flag, and a read clears it when it comes back short or
//! `WouldBlock` — a short read means the receive queue ran dry — unless
//! an edge reported the peer's FIN, which stays readable until a read
//! reaches it. Reads happen only while the flag is set, and a frame
//! already in the reader's buffer is taken without one. Writes run until
//! `WouldBlock` and resume on the next writable edge. A client has one
//! request outstanding, kept in its `FrameReader` until the response is
//! forwarded: every (re)dispatch writes it from there, a response goes to
//! its client straight from the link's reader, and a `FrameWriter` holds
//! only what its socket refused or a connecting link cannot take yet.
//!
//! ## Blocking measurement
//!
//! The paper's blocked-send time is derived from readiness: a span on
//! the backend's [`BlockingCounter`](streambal_transport::BlockingCounter)
//! starts when a link write returns `WouldBlock` and ends at the first
//! write that drains the link, or when the link is dropped. The counter
//! shows an open span to a sampler as it accrues. One link per backend
//! per shard means at most one span per backend is open at a time, so a
//! one-shard proxy never charges a backend more blocked time than wall
//! time.
//!
//! ## Failure semantics
//!
//! A dead link redispatches every queued request to another backend
//! (bounded by a `max(2×width, 4)` attempt budget) and charges one
//! failure per queued request toward ejection. A link that reaches EOF
//! while idle is dropped silently — a backend closing an idle pooled
//! connection is not evidence of ill health. Clients whose request
//! exhausts the budget see their connection close; an error or hangup on
//! a client closes it at once.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use streambal_telemetry::Counter;
use streambal_transport::frame::{FrameReader, FrameWriter, Poll, WriteStatus};
use streambal_transport::poll::{
    connect_finished, connect_nonblocking, set_send_buffer, Event, Interest, Poller,
};
use streambal_transport::BlockedSpan;

use crate::pool::Backend;
use crate::server::Shared;

const LISTENER_TOKEN: usize = usize::MAX;
/// Wait bound: reaction time to the stop flag, the drain and deadlines,
/// and shard 0's probe tick.
const IDLE_WAIT: Duration = Duration::from_millis(50);
/// Back-off after a failed `accept` (fd pressure): the listener stays
/// level-triggered readable, so without a pause the loop would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Runs one event-loop shard on its own clone of the listener until the
/// stop flag, or until the drain ends. Shard 0 also probes ejected
/// backends for re-admission.
pub(crate) fn run_shard(id: usize, listener: TcpListener, shared: Arc<Shared>) {
    let poller = Poller::new().and_then(|mut p| {
        p.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        Ok(p)
    });
    let poller = match poller {
        Ok(p) => p,
        Err(e) => {
            eprintln!("streambal-proxy: shard {id}: cannot poll the listener: {e}");
            return;
        }
    };
    let mut shard = Shard {
        shared,
        poller,
        entries: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        links: Vec::new(),
        probes: Vec::new(),
        next_probe: (id == 0).then(Instant::now),
        redq: VecDeque::new(),
        listener,
        accept_paused_until: None,
        accepting: true,
    };
    let mut events = Vec::new();
    while !shard.done() {
        let _ = shard.poller.wait(&mut events, Some(IDLE_WAIT));
        for &ev in &events {
            shard.handle_event(ev);
        }
        shard.drain_redispatch();
        shard.scan();
        shard.drain_redispatch();
    }
    // Dropping the shard closes every client, link and probe socket.
}

/// One request queued on (or bouncing between) backend links; its bytes
/// stay in the client's reader.
struct Inflight {
    client: usize,
    gen: u64,
    len: usize,
    tried: Vec<usize>,
    attempts: usize,
    deadline: Instant,
}

/// A nonblocking socket with its frame codec and edge-triggered read
/// readiness: the part clients and links share.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: FrameWriter,
    /// Set by an edge, cleared by a read that drained the socket.
    readable: bool,
    /// An edge reported the peer's FIN, a hangup or an error. It is
    /// reported once, possibly with the last data, so reads stay allowed
    /// until one reaches it.
    read_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(),
            out: FrameWriter::new(),
            readable: false,
            read_closed: false,
        }
    }

    fn note(&mut self, ev: Event) {
        self.read_closed |= ev.read_closed || ev.closed;
        self.readable |= ev.readable || self.read_closed;
    }

    /// Whether a frame is at the front of the reader: one already
    /// buffered, else one read from the socket while it is readable.
    fn next_frame(&mut self) -> io::Result<Poll<()>> {
        if self.reader.buffered()? {
            return Ok(Poll::Frame(()));
        }
        if !self.readable {
            return Ok(Poll::Pending);
        }
        let polled = self.reader.poll_front(&mut self.stream);
        self.readable = self.read_closed || !self.reader.drained();
        polled
    }

    /// Writes `from`'s front frame to this socket, counting what `out`
    /// had to keep: the tail refused, or the whole frame behind a queue.
    fn forward(&mut self, from: &FrameReader, queued: &Counter) -> io::Result<WriteStatus> {
        let behind = !self.out.is_empty();
        let written = self.out.forward(from, &mut self.stream);
        let kept = if behind {
            from.encoded().map_or(0, <[u8]>::len)
        } else {
            self.out.pending()
        };
        if kept > 0 {
            queued.add(kept as u64);
        }
        written
    }
}

struct Client {
    conn: Conn,
    /// A request is out on a link; the next one is not taken until the
    /// response drains (one outstanding request per client).
    awaiting: bool,
    /// Start of the in-progress request, for the latency histogram.
    /// `Some` from request receipt until the response fully drains.
    started: Option<Instant>,
}

struct Link {
    slot: usize,
    backend: Arc<Backend>,
    conn: Conn,
    connecting: bool,
    connect_deadline: Instant,
    inflight: VecDeque<Inflight>,
    /// The open unwritable span, while the last write blocked.
    blocked: Option<BlockedSpan>,
}

impl Link {
    /// Sends `from`'s front frame: queued while the link connects, else
    /// written through and booked.
    fn send(&mut self, from: &FrameReader, queued: &Counter) -> io::Result<()> {
        if self.connecting {
            self.conn.out.queue(from);
            queued.add(from.encoded().map_or(0, <[u8]>::len) as u64);
            return Ok(());
        }
        let written = self.conn.forward(from, queued);
        self.book(written)
    }

    /// Books every link write: a write that blocked opens an unwritable
    /// span, or keeps the one already open, and any other write ends it.
    fn book(&mut self, written: io::Result<WriteStatus>) -> io::Result<()> {
        if matches!(written, Ok(WriteStatus::Blocked)) {
            let counter = self.backend.counter();
            self.blocked.get_or_insert_with(|| counter.start_span());
        } else {
            self.blocked = None;
        }
        written.map(drop)
    }
}

/// A client and a link entry at once, for a forward between them.
fn pair(entries: &mut [Option<Entry>], c: usize, l: usize) -> Option<(&mut Client, &mut Link)> {
    match entries.get_disjoint_mut([c, l]) {
        Ok([Some(Entry::Client(c)), Some(Entry::Link(l))]) => Some((c, l)),
        _ => None,
    }
}

/// A re-admission probe: a nonblocking connect to an ejected backend,
/// dropped as soon as it resolves.
struct Probe {
    backend: Arc<Backend>,
    stream: TcpStream,
    /// The pool clock when the probe started; a failure backs off from it.
    started_ms: u64,
    deadline: Instant,
}

enum Entry {
    Client(Client),
    Link(Link),
    Probe(Probe),
}

struct Shard {
    shared: Arc<Shared>,
    poller: Poller,
    entries: Vec<Option<Entry>>,
    /// Per-token generation, bumped on free: an `Inflight` holds
    /// (token, gen) so a response for a dead client is dropped instead
    /// of completing whoever reused the slot.
    gens: Vec<u64>,
    free: Vec<usize>,
    /// Backend slot → link token: this shard's pipelined links.
    links: Vec<Option<usize>>,
    /// Tokens of the probes in flight, at most one per backend.
    probes: Vec<usize>,
    /// When the next probe round is due; `Some` on shard 0 only.
    next_probe: Option<Instant>,
    /// Requests awaiting (re)dispatch to a link.
    redq: VecDeque<Inflight>,
    listener: TcpListener,
    accept_paused_until: Option<Instant>,
    /// Whether the listener's read interest is currently armed.
    accepting: bool,
}

impl Shard {
    /// Stopped, or draining with no client left or no time left.
    fn done(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
            || self.shared.drain_deadline.get().is_some_and(|&deadline| {
                self.shared.active_clients.load(Ordering::Acquire) == 0
                    || Instant::now() >= deadline
            })
    }

    fn insert(&mut self, entry: Entry) -> usize {
        let tok = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            self.gens.push(0);
            self.entries.len() - 1
        });
        self.entries[tok] = Some(entry);
        tok
    }

    fn remove(&mut self, tok: usize) -> Option<Entry> {
        let entry = self.entries.get_mut(tok)?.take()?;
        self.gens[tok] = self.gens[tok].wrapping_add(1);
        self.free.push(tok);
        Some(entry)
    }

    fn client_alive(&self, tok: usize, gen: u64) -> bool {
        self.gens.get(tok).copied() == Some(gen)
            && matches!(self.entries.get(tok), Some(Some(Entry::Client(_))))
    }

    fn handle_event(&mut self, ev: Event) {
        if ev.token == LISTENER_TOKEN {
            return self.accept_ready();
        }
        match self.entries.get_mut(ev.token).and_then(Option::as_mut) {
            Some(Entry::Client(_)) if ev.closed => self.close_client(ev.token),
            Some(Entry::Client(c)) => {
                c.conn.note(ev);
                self.serve_client(ev.token, ev.writable);
            }
            Some(Entry::Link(l)) => {
                l.conn.note(ev);
                if l.connecting {
                    return self.link_connect_ready(ev.token);
                }
                self.link_readable(ev.token);
                if ev.writable {
                    self.flush_link(ev.token);
                }
            }
            Some(Entry::Probe(_)) => self.probe_ready(ev.token),
            None => {}
        }
    }

    // ---- accept path ------------------------------------------------

    /// Every shard accepts on its own clone of the listener: the shard
    /// that wakes first takes the connection and keeps it.
    fn accept_ready(&mut self) {
        let draining = self.shared.drain_deadline.get().is_some();
        loop {
            match self.listener.accept() {
                // Draining: a new connection is closed at once.
                Ok(_) if draining => {}
                Ok((stream, _)) => {
                    self.shared.metrics.accepted.incr();
                    let n = self.shared.active_clients.fetch_add(1, Ordering::AcqRel) + 1;
                    self.shared.metrics.active.set(n as f64);
                    self.adopt(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    self.set_accepting(false);
                    return;
                }
            }
        }
    }

    fn set_accepting(&mut self, on: bool) {
        if self.accepting == on {
            return;
        }
        let want = if on {
            Interest::READABLE
        } else {
            Interest::NONE
        };
        let fd = self.listener.as_raw_fd();
        if self.poller.reregister(fd, LISTENER_TOKEN, want).is_ok() {
            self.accepting = on;
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.drop_client_conn();
            return;
        }
        let fd = stream.as_raw_fd();
        let tok = self.insert(Entry::Client(Client {
            conn: Conn::new(stream),
            awaiting: false,
            started: None,
        }));
        if self.poller.register_edge(fd, tok).is_err() {
            self.remove(tok);
            self.drop_client_conn();
        }
    }

    /// Books out a client connection that never became an entry.
    fn drop_client_conn(&self) {
        let n = self.shared.active_clients.fetch_sub(1, Ordering::AcqRel) - 1;
        self.shared.metrics.active.set(n as f64);
    }

    // ---- client path ------------------------------------------------

    /// Drains the client's response when `writable` says its socket
    /// takes bytes, then takes its next request.
    fn serve_client(&mut self, tok: usize, writable: bool) {
        let Some(Entry::Client(c)) = self.entries.get_mut(tok).and_then(Option::as_mut) else {
            return;
        };
        if c.awaiting {
            return;
        }
        if !c.conn.out.is_empty() {
            if !writable {
                return;
            }
            match c.conn.out.write_to(&mut c.conn.stream) {
                Ok(WriteStatus::Drained) => {}
                Ok(WriteStatus::Blocked) => return,
                Err(_) => return self.close_client(tok),
            }
        }
        // The response has drained, whichever call wrote it.
        if let Some(t0) = c.started.take() {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.shared.metrics.latency_ns.record(ns);
            if self.shared.drain_deadline.get().is_some() && !c.conn.reader.mid_frame() {
                return self.close_client(tok);
            }
        }
        match c.conn.next_frame() {
            Ok(Poll::Frame(())) => {
                let now = Instant::now();
                c.awaiting = true;
                c.started = Some(now);
                self.shared.metrics.requests.incr();
                self.redq.push_back(Inflight {
                    client: tok,
                    gen: self.gens[tok],
                    len: c.conn.reader.payload().map_or(0, <[u8]>::len),
                    tried: Vec::new(),
                    attempts: 0,
                    deadline: now + self.shared.cfg.forward_timeout,
                });
            }
            Ok(Poll::Pending) => {}
            Ok(Poll::Eof) | Err(_) => self.close_client(tok),
        }
    }

    fn close_client(&mut self, tok: usize) {
        if let Some(Entry::Client(c)) = self.remove(tok) {
            let _ = self.poller.deregister(c.conn.stream.as_raw_fd());
            self.drop_client_conn();
        }
    }

    // ---- dispatch + links -------------------------------------------

    fn drain_redispatch(&mut self) {
        while let Some(inf) = self.redq.pop_front() {
            self.dispatch(inf);
        }
    }

    fn dispatch(&mut self, mut inf: Inflight) {
        if !self.client_alive(inf.client, inf.gen) {
            return;
        }
        let budget = (2 * self.shared.pool.width()).max(4);
        loop {
            if inf.attempts >= budget {
                return self.fail_request(&inf);
            }
            let Some((slot, backend)) = self.shared.pool.pick(&inf.tried) else {
                return self.fail_request(&inf);
            };
            if inf.attempts > 0 {
                self.shared.metrics.retries.incr();
            }
            match self.ensure_link(slot, &backend) {
                Ok(tok) => {
                    inf.deadline = Instant::now() + self.shared.cfg.forward_timeout;
                    let Some((c, l)) = pair(&mut self.entries, inf.client, tok) else {
                        return self.fail_request(&inf);
                    };
                    let sent = l.send(&c.conn.reader, &self.shared.metrics.queued_bytes);
                    l.inflight.push_back(inf);
                    if sent.is_err() {
                        self.fail_link(tok);
                    }
                    return;
                }
                Err(_) => {
                    self.record_failure(&backend);
                    inf.tried.push(slot);
                    inf.attempts += 1;
                }
            }
        }
    }

    /// Returns this shard's live link to backend `slot`, connecting a
    /// new one if needed. A stale link (the slot was closed and reopened
    /// with a different backend) is failed over first.
    fn ensure_link(&mut self, slot: usize, backend: &Arc<Backend>) -> io::Result<usize> {
        if let Some(tok) = self.links.get(slot).copied().flatten() {
            if let Some(Entry::Link(l)) = self.entries.get(tok).and_then(Option::as_ref) {
                if Arc::ptr_eq(&l.backend, backend) {
                    return Ok(tok);
                }
            }
            self.fail_link(tok);
        }
        let stream = connect_nonblocking(backend.addr)?;
        if let Some(bytes) = self.shared.cfg.backend_send_buffer {
            let _ = set_send_buffer(&stream, bytes);
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let tok = self.insert(Entry::Link(Link {
            slot,
            backend: Arc::clone(backend),
            conn: Conn::new(stream),
            connecting: true,
            connect_deadline: Instant::now() + self.shared.cfg.connect_timeout,
            inflight: VecDeque::new(),
            blocked: None,
        }));
        // Connect completion or failure arrives as the first writable or
        // error edge.
        if let Err(e) = self.poller.register_edge(fd, tok) {
            self.remove(tok);
            return Err(e);
        }
        self.links.resize(self.links.len().max(slot + 1), None);
        self.links[slot] = Some(tok);
        Ok(tok)
    }

    fn link_connect_ready(&mut self, tok: usize) {
        let Some(Entry::Link(l)) = self.entries.get_mut(tok).and_then(Option::as_mut) else {
            return;
        };
        match connect_finished(&l.conn.stream) {
            Ok(true) => {
                l.connecting = false;
                self.flush_link(tok);
            }
            Ok(false) => {}
            Err(_) => self.fail_link(tok),
        }
    }

    /// Writes as much of the link's out-queue as the socket accepts,
    /// booking the write's unwritable span.
    fn flush_link(&mut self, tok: usize) {
        let Some(Entry::Link(l)) = self.entries.get_mut(tok).and_then(Option::as_mut) else {
            return;
        };
        // Nothing queued means no span is open either.
        if l.conn.out.is_empty() {
            return;
        }
        let written = l.conn.out.write_to(&mut l.conn.stream);
        if l.book(written).is_err() {
            self.fail_link(tok);
        }
    }

    fn link_readable(&mut self, tok: usize) {
        loop {
            let Some(Entry::Link(l)) = self.entries.get_mut(tok).and_then(Option::as_mut) else {
                return;
            };
            match l.conn.next_frame() {
                Ok(Poll::Frame(())) => {
                    l.backend.record_success();
                    match l.inflight.pop_front() {
                        Some(inf) => self.complete_request(tok, inf),
                        // A response with nothing queued: protocol
                        // confusion — drop the link, quietly.
                        None => return drop(self.remove_link(tok)),
                    }
                }
                Ok(Poll::Pending) => return,
                Ok(Poll::Eof) if l.inflight.is_empty() && l.conn.out.is_empty() => {
                    return drop(self.remove_link(tok))
                }
                Ok(Poll::Eof) | Err(_) => return self.fail_link(tok),
            }
        }
    }

    /// Forwards link `tok`'s front response to its client, then consumes
    /// it and the request the client's reader kept for redispatch. A dead
    /// client's response is consumed too, keeping the link's FIFO in step.
    fn complete_request(&mut self, tok: usize, inf: Inflight) {
        let alive = self.client_alive(inf.client, inf.gen);
        let metrics = &self.shared.metrics;
        let Some((c, l)) = pair(&mut self.entries, inf.client, tok).filter(|_| alive) else {
            if let Some(Some(Entry::Link(l))) = self.entries.get_mut(tok) {
                l.conn.reader.consume();
            }
            return;
        };
        let written = c.conn.forward(&l.conn.reader, &metrics.queued_bytes);
        let response = l.conn.reader.payload().map_or(0, <[u8]>::len);
        metrics.forwarded_bytes.add((inf.len + response) as u64);
        l.conn.reader.consume();
        c.conn.reader.consume();
        c.awaiting = false;
        match written {
            Ok(_) => self.serve_client(inf.client, false),
            Err(_) => self.close_client(inf.client),
        }
    }

    /// The request ran out of backends: the client connection closes and
    /// the client may retry elsewhere.
    fn fail_request(&mut self, inf: &Inflight) {
        self.shared.metrics.failed_requests.incr();
        if self.client_alive(inf.client, inf.gen) {
            self.close_client(inf.client);
        }
    }

    /// Kills a link: every queued request counts one failure toward the
    /// backend's ejection and goes back to dispatch with this slot on
    /// its skip-list.
    fn fail_link(&mut self, tok: usize) {
        let Some(l) = self.remove_link(tok) else {
            return;
        };
        for _ in 0..l.inflight.len().max(1) {
            self.record_failure(&l.backend);
        }
        for mut inf in l.inflight {
            inf.tried.push(l.slot);
            inf.attempts += 1;
            self.redq.push_back(inf);
        }
    }

    /// Counts one forward failure toward the backend's ejection.
    fn record_failure(&self, backend: &Backend) {
        let cfg = &self.shared.cfg;
        let now_ms = self.shared.pool.now_ms();
        if backend.record_failure(cfg.eject_after, cfg.probe_interval, now_ms) {
            self.shared.metrics.ejections.incr();
        }
    }

    /// Takes link `tok` out of the shard; on its own, that drops an idle
    /// link without blaming the backend.
    fn remove_link(&mut self, tok: usize) -> Option<Link> {
        let Some(Entry::Link(l)) = self.remove(tok) else {
            return None;
        };
        let _ = self.poller.deregister(l.conn.stream.as_raw_fd());
        if self.links.get(l.slot) == Some(&Some(tok)) {
            self.links[l.slot] = None;
        }
        Some(l)
    }

    // ---- re-admission probes (shard 0) -------------------------------

    /// Starts a connect to every backend due for a probe that has none in
    /// flight. A connect that fails at once is a failed probe.
    fn start_probes(&mut self, now: Instant) {
        let now_ms = self.shared.pool.now_ms();
        for (_, backend) in self.shared.pool.slots() {
            let in_flight = self.probes.iter().any(|&tok| {
                self.probe(tok)
                    .is_some_and(|p| Arc::ptr_eq(&p.backend, &backend))
            });
            if in_flight || !backend.probe_due(now_ms) {
                continue;
            }
            let Ok(stream) = connect_nonblocking(backend.addr) else {
                backend.probe_failed(self.shared.cfg.probe_interval, now_ms);
                continue;
            };
            let fd = stream.as_raw_fd();
            let tok = self.insert(Entry::Probe(Probe {
                backend,
                stream,
                started_ms: now_ms,
                deadline: now + self.shared.cfg.connect_timeout,
            }));
            // Like a link's, the connect resolves on the first writable
            // or error edge.
            if self.poller.register_edge(fd, tok).is_ok() {
                self.probes.push(tok);
            } else {
                self.end_probe(tok, false);
            }
        }
    }

    fn probe(&self, tok: usize) -> Option<&Probe> {
        match self.entries.get(tok) {
            Some(Some(Entry::Probe(p))) => Some(p),
            _ => None,
        }
    }

    fn probe_ready(&mut self, tok: usize) {
        match self.probe(tok).map(|p| connect_finished(&p.stream)) {
            Some(Ok(true)) => self.end_probe(tok, true),
            Some(Err(_)) => self.end_probe(tok, false),
            Some(Ok(false)) | None => {}
        }
    }

    /// Drops a probe: a connect re-admits its backend, a failure (or the
    /// connect timeout) backs the next probe off.
    fn end_probe(&mut self, tok: usize, connected: bool) {
        let Some(Entry::Probe(p)) = self.remove(tok) else {
            return;
        };
        let _ = self.poller.deregister(p.stream.as_raw_fd());
        self.probes.retain(|&t| t != tok);
        if connected {
            p.backend.readmit();
            self.shared.metrics.readmissions.incr();
        } else {
            p.backend
                .probe_failed(self.shared.cfg.probe_interval, p.started_ms);
        }
    }

    // ---- periodic scan ----------------------------------------------

    fn scan(&mut self) {
        let now = Instant::now();

        // Re-arm a paused listener.
        if self.accept_paused_until.is_some_and(|t| now >= t) {
            self.accept_paused_until = None;
            if self.shared.drain_deadline.get().is_none() {
                self.set_accepting(true);
            }
        }

        // Probe timeouts, then this tick's new probes.
        for i in (0..self.probes.len()).rev() {
            let tok = self.probes[i];
            if self.probe(tok).is_some_and(|p| now >= p.deadline) {
                self.end_probe(tok, false);
            }
        }
        if self.next_probe.is_some_and(|t| now >= t) {
            self.next_probe = Some(now + IDLE_WAIT);
            self.start_probes(now);
        }

        // Link deadlines and retired backends.
        for slot in 0..self.links.len() {
            let Some(tok) = self.links[slot] else {
                continue;
            };
            let Some(Entry::Link(l)) = self.entries.get_mut(tok).and_then(Option::as_mut) else {
                continue;
            };
            if (l.connecting && now >= l.connect_deadline)
                || l.inflight.front().is_some_and(|inf| now >= inf.deadline)
            {
                self.fail_link(tok);
            } else if l.inflight.is_empty()
                && l.conn.out.is_empty()
                && (l.backend.is_removed() || l.backend.is_ejected())
            {
                // An idle link to a retired backend holds an fd (and a
                // half-open socket) for nothing.
                self.remove_link(tok);
            }
        }

        // Drain: stop accepting, close idle clients; in-flight clients
        // close when their response drains (see serve_client).
        if self.shared.drain_deadline.get().is_some() {
            self.set_accepting(false);
            for tok in 0..self.entries.len() {
                if let Some(Some(Entry::Client(c))) = self.entries.get(tok) {
                    if !c.awaiting && c.conn.out.is_empty() && !c.conn.reader.mid_frame() {
                        self.close_client(tok);
                    }
                }
            }
        }
    }
}
