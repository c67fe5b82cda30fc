//! Soak tier: a five-figure client fleet against the proxy's event loop.
//!
//! The parent test process hosts the proxy (one readiness-polled io thread)
//! and the echo backends in-process, then re-execs copies of this test
//! binary as **client drivers** (`soak_child_driver`, gated on
//! `STREAMBAL_SOAK_DRIVER`) so the client-side file descriptors live in
//! child processes — the proxy alone holds one fd per client, and the
//! box's `RLIMIT_NOFILE` caps a single process well below 2× the fleet.
//! Coordination is file-based: children drop `ready-*` markers once
//! their fleet is connected, the parent drops `stop` to end the soak,
//! and children answer with `report-*` files.
//!
//! Soak phases (children keep a bounded-concurrency request wave cycling
//! round-robin over every connection throughout):
//!
//! 1. **Steady** — all backends serve, zero failures.
//! 2. **Kill** — a backend dies mid-traffic (keyed to observed progress,
//!    not a sleep); skip-and-retry must absorb it invisibly.
//! 3. **Hot reload** — a new backend is appended to the watched config;
//!    the region grows live and the newcomer takes traffic.
//! 4. **Throttle** — one backend's read rate is gated; the controller
//!    must shift installed weight off it from readiness-derived blocked
//!    -send samples alone, without the slot going unhealthy.
//! 5. **Verify** — every connection performs one final byte-checked
//!    round trip; p99 of this phase is the SLO gate.
//!
//! Acceptance: zero client-visible failures anywhere, every connection
//! verified, verify-phase p99 within the SLO.
//!
//! Knobs (env): `STREAMBAL_SOAK_CLIENTS` (default derived from
//! `RLIMIT_NOFILE`), `STREAMBAL_SOAK_SECONDS` (steady phase, default 5),
//! `STREAMBAL_SOAK_P99_MS` (default 2500), `STREAMBAL_SOAK_DELAY_MS`
//! (throttle read gate, default 75). CI pins a 1 000-client variant.
//!
//! Run locally: `cargo test --release --test proxy_soak -- --ignored`

#![cfg(unix)]

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use streambal::proxy::{
    EchoBackend, EchoOptions, FrameReader, FrameWriter, Poll, Proxy, ProxyConfig, ProxyOptions,
    WriteStatus,
};
use streambal::transport::poll::{nofile_limit, Interest, Poller};

/// Concurrent in-flight requests per child — the wave width. The fleet
/// is far larger; the wave cycles round-robin so every connection is
/// exercised continuously without saturating a one-core box.
const MAX_INFLIGHT: usize = 64;
/// Per-request budget on the client side (send + echo). Generous: it
/// must cover a queue wait behind the throttled backend mid-shift.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);
/// Connections per child process.
const CONNS_PER_CHILD: usize = 4_000;
/// Paced connects: a batch per pause keeps the proxy's accept backlog
/// (128) from overflowing while the fleet establishes.
const CONNECT_BATCH: usize = 128;
const CONNECT_PAUSE: Duration = Duration::from_millis(25);
/// Request payload. Larger than the capped proxy→backend send buffer
/// (4 KiB) so a throttled backend turns the link unwritable — the
/// readiness-derived blocked-send signal the controller consumes.
const PAYLOAD_LEN: usize = 4_096;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn wait_until(budget: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    done()
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Deterministic per-request payload: identity in the head, seeded
/// noise in the tail, so a cross-wired echo can never verify.
fn build_payload(child: u64, conn: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut payload = vec![0u8; len.max(24)];
    payload[..8].copy_from_slice(&child.to_le_bytes());
    payload[8..16].copy_from_slice(&conn.to_le_bytes());
    payload[16..24].copy_from_slice(&seq.to_le_bytes());
    let mut state = child
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(conn)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(seq)
        | 1;
    for chunk in payload[24..].chunks_mut(8) {
        let bytes = xorshift(&mut state).to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    payload
}

// ---------------------------------------------------------------------
// Child: a readiness-polled client fleet.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Idle,
    Sending,
    Awaiting,
    Dead,
}

struct ClientConn {
    stream: TcpStream,
    reader: FrameReader,
    out: FrameWriter,
    state: ConnState,
    interest: Interest,
    seq: u64,
    started: Instant,
    deadline: Instant,
    expected: Vec<u8>,
    /// The current request is the verify-phase round trip.
    verifying: bool,
    verified: bool,
}

#[derive(Default)]
struct ChildReport {
    succeeded: u64,
    failed: u64,
    verified: u64,
    verify_failed: u64,
    latencies: Vec<u64>,
    verify_latencies: Vec<u64>,
}

struct Fleet {
    child_id: u64,
    poller: Poller,
    conns: Vec<ClientConn>,
    idle: VecDeque<usize>,
    active: usize,
    verify_mode: bool,
    report: ChildReport,
}

impl Fleet {
    fn connect(child_id: u64, proxy: SocketAddr, count: usize) -> io::Result<Fleet> {
        let mut fleet = Fleet {
            child_id,
            poller: Poller::new()?,
            conns: Vec::with_capacity(count),
            idle: VecDeque::with_capacity(count),
            active: 0,
            verify_mode: false,
            report: ChildReport::default(),
        };
        for i in 0..count {
            if i > 0 && i % CONNECT_BATCH == 0 {
                std::thread::sleep(CONNECT_PAUSE);
            }
            let mut last_err = None;
            let mut stream = None;
            for _attempt in 0..5 {
                match TcpStream::connect_timeout(&proxy, Duration::from_secs(5)) {
                    Ok(s) => {
                        stream = Some(s);
                        break;
                    }
                    Err(e) => {
                        last_err = Some(e);
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            }
            let stream = stream.ok_or_else(|| {
                last_err.unwrap_or_else(|| io::Error::other("connect retries exhausted"))
            })?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            let tok = fleet.conns.len();
            fleet
                .poller
                .register(stream.as_raw_fd(), tok, Interest::NONE)?;
            fleet.conns.push(ClientConn {
                stream,
                reader: FrameReader::new(),
                out: FrameWriter::new(),
                state: ConnState::Idle,
                interest: Interest::NONE,
                seq: 0,
                started: Instant::now(),
                deadline: Instant::now() + REQUEST_DEADLINE,
                expected: Vec::new(),
                verifying: false,
                verified: false,
            });
            fleet.idle.push_back(tok);
        }
        Ok(fleet)
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

    fn start_request(&mut self, tok: usize) {
        let verifying = self.verify_mode;
        let child = self.child_id;
        let conn = &mut self.conns[tok];
        conn.seq += 1;
        let payload = build_payload(child, tok as u64, conn.seq, PAYLOAD_LEN);
        conn.out.enqueue(&payload);
        conn.expected = payload;
        conn.state = ConnState::Sending;
        conn.started = Instant::now();
        conn.deadline = conn.started + REQUEST_DEADLINE;
        conn.verifying = verifying;
        self.active += 1;
        self.pump(tok);
    }

    fn pump(&mut self, tok: usize) {
        loop {
            let conn = &mut self.conns[tok];
            match conn.state {
                ConnState::Idle | ConnState::Dead => return,
                ConnState::Sending => match conn.out.write_to(&mut conn.stream) {
                    Ok(WriteStatus::Drained) => conn.state = ConnState::Awaiting,
                    Ok(WriteStatus::Blocked) => return self.set_interest(tok, Interest::WRITABLE),
                    Err(_) => return self.fail(tok),
                },
                ConnState::Awaiting => match conn.reader.poll_frame(&mut conn.stream) {
                    Ok(Poll::Frame(frame)) => {
                        if frame == conn.expected {
                            return self.complete(tok);
                        }
                        return self.fail(tok);
                    }
                    Ok(Poll::Pending) => return self.set_interest(tok, Interest::READABLE),
                    Ok(Poll::Eof) | Err(_) => return self.fail(tok),
                },
            }
        }
    }

    fn complete(&mut self, tok: usize) {
        self.active -= 1;
        let conn = &mut self.conns[tok];
        let ns = u64::try_from(conn.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        conn.state = ConnState::Idle;
        conn.expected = Vec::new();
        if conn.verifying {
            conn.verified = true;
            self.report.verified += 1;
            self.report.verify_latencies.push(ns);
        } else {
            self.report.succeeded += 1;
            self.report.latencies.push(ns);
            self.idle.push_back(tok);
        }
        self.set_interest(tok, Interest::NONE);
    }

    /// A client-visible failure. The connection is not revived — any
    /// failure fails the soak, so fidelity of the count is what matters.
    fn fail(&mut self, tok: usize) {
        let conn = &mut self.conns[tok];
        let was_active = conn.state == ConnState::Sending || conn.state == ConnState::Awaiting;
        let verifying = conn.verifying;
        conn.state = ConnState::Dead;
        let fd = conn.stream.as_raw_fd();
        let _ = self.poller.deregister(fd);
        if was_active {
            self.active -= 1;
            if verifying {
                self.report.verify_failed += 1;
            } else {
                self.report.failed += 1;
            }
        }
    }

    fn fill_wave(&mut self) {
        while self.active < MAX_INFLIGHT {
            let Some(tok) = self.idle.pop_front() else {
                return;
            };
            if self.conns[tok].state != ConnState::Idle
                || (self.verify_mode && self.conns[tok].verified)
            {
                continue;
            }
            self.start_request(tok);
        }
    }

    /// Switch to the verify phase: every live connection owes exactly
    /// one more (byte-checked) round trip. In-flight soak requests run
    /// to completion first — `complete` requeues them as idle.
    fn enter_verify(&mut self) {
        self.verify_mode = true;
        self.idle.clear();
        for tok in 0..self.conns.len() {
            if self.conns[tok].state == ConnState::Idle {
                self.idle.push_back(tok);
            }
        }
    }

    fn verify_done(&self) -> bool {
        self.conns
            .iter()
            .all(|c| c.verified || c.state == ConnState::Dead)
    }

    fn scan_deadlines(&mut self) {
        let now = Instant::now();
        for tok in 0..self.conns.len() {
            let late = matches!(
                self.conns[tok].state,
                ConnState::Sending | ConnState::Awaiting
            ) && now > self.conns[tok].deadline;
            if late {
                self.fail(tok);
            }
        }
    }

    fn run(&mut self, stop_file: &Path) {
        let mut events = Vec::new();
        let mut last_stop_check = Instant::now() - Duration::from_secs(1);
        let mut last_deadline_scan = Instant::now();
        let verify_budget = Duration::from_secs(180);
        let mut verify_started: Option<Instant> = None;
        loop {
            if last_stop_check.elapsed() >= Duration::from_millis(100) {
                last_stop_check = Instant::now();
                if !self.verify_mode && stop_file.exists() {
                    self.enter_verify();
                    verify_started = Some(Instant::now());
                }
            }
            if self.verify_mode
                && (self.verify_done()
                    || verify_started.is_some_and(|t| t.elapsed() > verify_budget))
            {
                for tok in 0..self.conns.len() {
                    if !self.conns[tok].verified && self.conns[tok].state != ConnState::Dead {
                        // Ran out of budget mid-verify: client-visible.
                        self.report.verify_failed += 1;
                    }
                }
                return;
            }
            self.fill_wave();
            let _ = self
                .poller
                .wait(&mut events, Some(Duration::from_millis(100)));
            for &ev in &events {
                if ev.token >= self.conns.len() {
                    continue;
                }
                if ev.closed && !ev.readable && !ev.writable {
                    if matches!(
                        self.conns[ev.token].state,
                        ConnState::Sending | ConnState::Awaiting
                    ) {
                        self.fail(ev.token);
                    }
                } else {
                    self.pump(ev.token);
                }
            }
            if last_deadline_scan.elapsed() >= Duration::from_millis(500) {
                last_deadline_scan = Instant::now();
                self.scan_deadlines();
            }
        }
    }

    fn write_report(&mut self, path: &Path) {
        let pct = |sorted: &[u64], p: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        self.report.latencies.sort_unstable();
        self.report.verify_latencies.sort_unstable();
        let dead = self
            .conns
            .iter()
            .filter(|c| c.state == ConnState::Dead)
            .count();
        let body = format!(
            "conns={}\nsucceeded={}\nfailed={}\nverified={}\nverify_failed={}\ndead={}\n\
             p50_ns={}\np99_ns={}\nmax_ns={}\nverify_p50_ns={}\nverify_p99_ns={}\nverify_max_ns={}\n",
            self.conns.len(),
            self.report.succeeded,
            self.report.failed,
            self.report.verified,
            self.report.verify_failed,
            dead,
            pct(&self.report.latencies, 0.50),
            pct(&self.report.latencies, 0.99),
            pct(&self.report.latencies, 1.0),
            pct(&self.report.verify_latencies, 0.50),
            pct(&self.report.verify_latencies, 0.99),
            pct(&self.report.verify_latencies, 1.0),
        );
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, body).expect("write report");
        std::fs::rename(&tmp, path).expect("publish report");
    }
}

/// The re-exec entry point: inert unless spawned by the soak parent
/// with `STREAMBAL_SOAK_DRIVER` set.
#[test]
fn soak_child_driver() {
    let Ok(id) = std::env::var("STREAMBAL_SOAK_DRIVER") else {
        return;
    };
    let child_id: u64 = id.parse().expect("driver id");
    let proxy: SocketAddr = std::env::var("STREAMBAL_SOAK_PROXY")
        .expect("proxy addr")
        .parse()
        .expect("proxy addr");
    let conns = env_usize("STREAMBAL_SOAK_CONNS", 0);
    let dir = PathBuf::from(std::env::var("STREAMBAL_SOAK_DIR").expect("soak dir"));
    assert!(conns > 0, "STREAMBAL_SOAK_CONNS must be set for the driver");

    let mut fleet = Fleet::connect(child_id, proxy, conns).expect("fleet connect");
    std::fs::write(dir.join(format!("ready-{child_id}")), conns.to_string()).expect("ready file");
    fleet.run(&dir.join("stop"));
    fleet.write_report(&dir.join(format!("report-{child_id}")));
}

// ---------------------------------------------------------------------
// Parent: proxy + backends + phase orchestration.
// ---------------------------------------------------------------------

struct ParsedReport {
    conns: u64,
    succeeded: u64,
    failed: u64,
    verified: u64,
    verify_failed: u64,
    p99_ns: u64,
    verify_p99_ns: u64,
}

fn parse_report(text: &str) -> ParsedReport {
    let get = |key: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("report missing {key}: {text}"))
    };
    ParsedReport {
        conns: get("conns"),
        succeeded: get("succeeded"),
        failed: get("failed"),
        verified: get("verified"),
        verify_failed: get("verify_failed"),
        p99_ns: get("p99_ns"),
        verify_p99_ns: get("verify_p99_ns"),
    }
}

fn config_text(backends: &[SocketAddr]) -> String {
    let mut text = String::from(
        "listen 127.0.0.1:0\nio_threads 1\nsample_interval_ms 50\n\
         forward_timeout_ms 5000\nconnect_timeout_ms 1000\neject_after 200\n\
         probe_interval_ms 500\ndrain_timeout_ms 10000\n\
         backend_send_buffer_bytes 4096\n",
    );
    for b in backends {
        text.push_str(&format!("backend {b}\n"));
    }
    text
}

fn spawn_backend() -> EchoBackend {
    EchoBackend::spawn_with(
        "127.0.0.1:0".parse().unwrap(),
        EchoOptions {
            recv_buffer: Some(4_096),
        },
    )
    .expect("echo backend")
}

fn spawn_child(dir: &Path, proxy: SocketAddr, id: u64, conns: usize) -> Child {
    Command::new(std::env::current_exe().expect("current exe"))
        .args([
            "--exact",
            "soak_child_driver",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env("STREAMBAL_SOAK_DRIVER", id.to_string())
        .env("STREAMBAL_SOAK_PROXY", proxy.to_string())
        .env("STREAMBAL_SOAK_CONNS", conns.to_string())
        .env("STREAMBAL_SOAK_DIR", dir)
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn soak driver")
}

fn run_soak(total_clients: usize) {
    let steady = Duration::from_secs(env_usize("STREAMBAL_SOAK_SECONDS", 5) as u64);
    let slo_p99 = Duration::from_millis(env_usize("STREAMBAL_SOAK_P99_MS", 2500) as u64);
    let throttle = Duration::from_millis(env_usize("STREAMBAL_SOAK_DELAY_MS", 75) as u64);

    let dir = std::env::temp_dir().join(format!("streambal-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("soak dir");

    // Four backends to start; the hot reload adds a fifth.
    let mut backends: Vec<EchoBackend> = (0..4).map(|_| spawn_backend()).collect();
    let mut addrs: Vec<_> = backends.iter().map(EchoBackend::addr).collect();
    let cfg_path = dir.join("proxy.conf");
    std::fs::write(&cfg_path, config_text(&addrs)).expect("config");
    let config = ProxyConfig::parse(&config_text(&addrs)).expect("parse config");
    let handle = Proxy::spawn(ProxyOptions {
        config,
        config_path: Some(cfg_path.clone()),
        telemetry: None,
    })
    .expect("proxy spawn");
    let proxy_addr = handle.addr();
    let pool = handle.pool().clone();
    let registry = handle.telemetry().registry().clone();

    // Fan the fleet out over child processes so no single process
    // (including this one, which holds the proxy's fds) nears the
    // nofile ceiling.
    let child_count = total_clients.div_ceil(CONNS_PER_CHILD);
    let mut children: Vec<Child> = Vec::new();
    let mut remaining = total_clients;
    for id in 0..child_count {
        let conns = remaining.min(CONNS_PER_CHILD);
        remaining -= conns;
        children.push(spawn_child(&dir, proxy_addr, id as u64, conns));
    }
    let all_ready = wait_until(Duration::from_secs(120), || {
        (0..child_count).all(|id| dir.join(format!("ready-{id}")).exists())
    });
    assert!(all_ready, "fleet never finished connecting");

    // Phase 1 — steady: every backend serves, traffic keeps flowing.
    let serve_floor = total_clients as u64 / 4;
    let steady_ok = wait_until(steady.max(Duration::from_secs(2)), || {
        backends.iter().map(EchoBackend::served).sum::<u64>() >= serve_floor
            && backends.iter().all(|b| b.served() > 0)
    });
    assert!(steady_ok, "steady phase starved");
    std::thread::sleep(steady / 2);

    // Phase 2 — kill backend 2 mid-traffic, keyed to observed progress.
    let victim = backends.remove(2);
    let victim_addr = victim.addr();
    let victim_base = victim.served();
    assert!(
        wait_until(Duration::from_secs(30), || victim.served()
            > victim_base + 20),
        "victim stopped seeing traffic before the kill"
    );
    victim.kill();
    assert!(
        wait_until(Duration::from_secs(30), || !pool.slot_healthy(2)),
        "dead backend was never ejected"
    );

    // Phase 3 — hot reload: add a fifth backend; the region must grow
    // live and the newcomer must take traffic.
    let fifth = spawn_backend();
    addrs = vec![addrs[0], addrs[1], victim_addr, addrs[3], fifth.addr()];
    std::fs::write(&cfg_path, config_text(&addrs)).expect("reload config");
    assert!(
        wait_until(Duration::from_secs(30), || pool.width() == 5),
        "hot reload did not grow the region (width={})",
        pool.width()
    );
    assert!(
        wait_until(Duration::from_secs(30), || fifth.served() > 0),
        "grown backend received no traffic"
    );

    // Phase 4 — throttle backend 0's read rate. The event loop's
    // EPOLLOUT-wait spans are the only blocked-send source here; the
    // controller must shift weight off the slot while it stays healthy.
    let w0 = registry.gauge("proxy.conn0.weight");
    // 4 live slots (victim is detached at weight 0) share the 1000-unit
    // simplex; "shifted" = at or below 70% of the live fair share.
    let fair = 1000.0 / 4.0;
    let bar = fair * 0.7;
    backends[0].set_delay(throttle);
    let shifted = wait_until(Duration::from_secs(45), || {
        w0.get() > 0.0 && w0.get() < bar && pool.slot_healthy(0)
    });
    assert!(
        shifted,
        "weight never shifted off the throttled backend: w0={} (bar {bar}, healthy={})",
        w0.get(),
        pool.slot_healthy(0)
    );
    backends[0].set_delay(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(500));

    // Phase 5 — stop: children run their per-connection verification
    // round trips and report.
    std::fs::write(dir.join("stop"), b"stop").expect("stop file");
    let reports_in = wait_until(Duration::from_secs(240), || {
        (0..child_count).all(|id| dir.join(format!("report-{id}")).exists())
    });
    for child in &mut children {
        if !reports_in {
            let _ = child.kill();
        }
        let status = child.wait().expect("child wait");
        assert!(status.success(), "soak driver exited with {status}");
    }
    assert!(reports_in, "fleet never reported");

    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64);
    for id in 0..child_count {
        let text = std::fs::read_to_string(dir.join(format!("report-{id}"))).expect("report");
        let r = parse_report(&text);
        println!(
            "soak child {id}: conns={} succeeded={} failed={} verified={} verify_failed={} \
             p99={:?} verify_p99={:?}",
            r.conns,
            r.succeeded,
            r.failed,
            r.verified,
            r.verify_failed,
            Duration::from_nanos(r.p99_ns),
            Duration::from_nanos(r.verify_p99_ns),
        );
        totals.0 += r.conns;
        totals.1 += r.succeeded;
        totals.2 += r.failed + r.verify_failed;
        totals.3 += r.verified;
        totals.4 = totals.4.max(r.verify_p99_ns);
    }
    let (conns, succeeded, failures, verified, worst_verify_p99) = totals;
    assert_eq!(conns as usize, total_clients, "fleet size mismatch");
    assert_eq!(
        failures, 0,
        "client-visible failures across kill + reload + throttle"
    );
    assert_eq!(verified, conns, "not every connection verified");
    assert!(succeeded > 0, "soak produced no traffic");
    let verify_p99 = Duration::from_nanos(worst_verify_p99);
    assert!(
        verify_p99 <= slo_p99,
        "verify-phase p99 {verify_p99:?} breaches the {slo_p99:?} SLO"
    );

    let drain = handle.shutdown();
    assert!(
        drain.drained,
        "shutdown abandoned {} clients",
        drain.abandoned
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full soak. Client count: `STREAMBAL_SOAK_CLIENTS`, else derived
/// from `RLIMIT_NOFILE` (the proxy holds one fd per client, plus slack
/// for backends, links and the toolchain).
#[test]
#[ignore = "soak tier: run with --release -- --ignored (see docs/TESTING.md)"]
fn soak_fleet_survives_kill_reload_and_throttle() {
    let derived = nofile_limit()
        .map(|(soft, _)| (soft as usize).saturating_sub(8_000).clamp(1_000, 12_000))
        .unwrap_or(1_000);
    let clients = env_usize("STREAMBAL_SOAK_CLIENTS", derived);
    run_soak(clients);
}
