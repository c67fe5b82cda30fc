//! Lost-wakeup tests for the proxy's edge-triggered sockets. Each socket
//! is registered once and reports a readiness transition once, so every
//! byte the proxy does not take on its edge must be taken later without
//! one: a second request buffered behind the first, a FIN that arrived
//! with the last request, responses larger than the client's socket
//! buffers, two responses in one backend write. Every client read has a
//! timeout, so a lost wakeup fails the test instead of hanging it.
//!
//! Two waits outside a socket's edges ride along: a fresh connection on
//! a multi-shard proxy, and a drain that runs out of time. So does a
//! request redispatched off a link that died, which must reach its client
//! byte for byte.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use streambal::proxy::{
    DrainReport, EchoBackend, Proxy, ProxyConfig, ProxyHandle, ProxyOptions, MAX_FRAME,
};
use streambal::transport::poll::set_recv_buffer;

/// Bound on any single wait for the proxy: far above a loopback round
/// trip, far below a test-harness timeout.
const WAIT: Duration = Duration::from_secs(5);

fn proxy(backend: SocketAddr) -> ProxyHandle {
    let config = ProxyConfig::new("127.0.0.1:0".parse().unwrap(), vec![backend]);
    Proxy::spawn(ProxyOptions::new(config)).unwrap()
}

fn client(proxy: &ProxyHandle) -> TcpStream {
    let stream = TcpStream::connect(proxy.addr()).unwrap();
    stream.set_read_timeout(Some(WAIT)).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(payload);
    wire
}

fn read_frame(stream: &mut TcpStream, what: &str) -> Vec<u8> {
    let mut prefix = [0u8; 4];
    stream
        .read_exact(&mut prefix)
        .unwrap_or_else(|e| panic!("{what}: no length prefix: {e}"));
    let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
    stream
        .read_exact(&mut payload)
        .unwrap_or_else(|e| panic!("{what}: truncated payload: {e}"));
    payload
}

fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
}

#[test]
fn two_requests_in_one_write_both_get_responses_in_order() {
    let backend = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();
    let proxy = proxy(backend.addr());
    let mut c = client(&proxy);
    for round in 0..10u8 {
        let first = payload(round, 100);
        let second = payload(round ^ 0x80, 200);
        let mut wire = frame(&first);
        wire.extend_from_slice(&frame(&second));
        c.write_all(&wire).unwrap();
        assert_eq!(read_frame(&mut c, "first response"), first, "round {round}");
        assert_eq!(
            read_frame(&mut c, "second response"),
            second,
            "round {round}"
        );
    }
}

#[test]
fn a_half_closed_client_gets_its_response_then_eof() {
    let backend = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();
    let proxy = proxy(backend.addr());
    // Many connections: the FIN sometimes lands on the proxy's edge
    // together with the request, sometimes on an edge of its own.
    for i in 0..20u8 {
        let mut c = client(&proxy);
        let request = payload(i, 64);
        c.write_all(&frame(&request)).unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        assert_eq!(read_frame(&mut c, "response"), request, "connection {i}");
        let mut rest = [0u8; 1];
        match c.read(&mut rest) {
            Ok(0) => {}
            Ok(_) => panic!("connection {i}: bytes after the response"),
            Err(e) => panic!("connection {i}: no EOF after the response: {e}"),
        }
    }
}

#[test]
fn responses_larger_than_the_client_socket_buffers_drain_on_writable_edges() {
    let backend = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();
    let proxy = proxy(backend.addr());
    let mut c = client(&proxy);
    set_recv_buffer(&c, 16 * 1024).unwrap();
    // More response bytes than the proxy's send buffer can hold (it
    // autotunes up to `tcp_wmem`'s 4 MiB cap) plus the client's receive
    // buffer: while the client holds off, the proxy's writes block.
    let requests: Vec<Vec<u8>> = (0..5u8).map(|i| payload(i, MAX_FRAME)).collect();
    let mut writer = c.try_clone().unwrap();
    let wire: Vec<u8> = requests.iter().flat_map(|r| frame(r)).collect();
    let sender = thread::spawn(move || writer.write_all(&wire));
    thread::sleep(Duration::from_millis(300));

    // Then a slow reader: 4 KiB at a time with a pause, so every
    // resumption of the proxy's writes needs a writable edge.
    let mut got = Vec::with_capacity(wire_len(&requests));
    let mut step = [0u8; 4 * 1024];
    while got.len() < wire_len(&requests) {
        match c.read(&mut step) {
            Ok(0) => panic!("EOF after {} bytes", got.len()),
            Ok(n) => got.extend_from_slice(&step[..n]),
            Err(e) => panic!("responses stalled after {} bytes: {e}", got.len()),
        }
        thread::sleep(Duration::from_micros(50));
    }
    sender.join().unwrap().unwrap();
    let mut at = 0;
    for (i, request) in requests.iter().enumerate() {
        let expected = frame(request);
        assert!(
            got[at..at + expected.len()] == expected[..],
            "response {i} diverged"
        );
        at += expected.len();
    }
}

fn wire_len(frames: &[Vec<u8>]) -> usize {
    frames.iter().map(|f| 4 + f.len()).sum()
}

#[test]
fn two_responses_in_one_backend_write_complete_both_clients() {
    // A backend that answers only once it holds two requests, then sends
    // both responses in one write: they reach the proxy's link together.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let backend_addr = listener.local_addr().unwrap();
    let backend = thread::spawn(move || {
        let (mut link, _) = listener.accept().unwrap();
        link.set_read_timeout(Some(WAIT)).unwrap();
        let first = read_frame(&mut link, "backend: first request");
        let second = read_frame(&mut link, "backend: second request");
        let mut wire = frame(&[&b"re:"[..], &first].concat());
        wire.extend_from_slice(&frame(&[&b"re:"[..], &second].concat()));
        link.write_all(&wire).unwrap();
        // Hold the link open until both clients are answered.
        let mut end = [0u8; 1];
        let _ = link.read(&mut end);
    });

    let proxy = proxy(backend_addr);
    let mut a = client(&proxy);
    let mut b = client(&proxy);
    a.write_all(&frame(b"alpha")).unwrap();
    b.write_all(&frame(b"bravo")).unwrap();
    let ra = read_frame(&mut a, "client a");
    let rb = read_frame(&mut b, "client b");
    // The link is FIFO: whichever request reached the backend first was
    // answered first, and each client gets the answer to its own.
    assert_eq!(ra, b"re:alpha");
    assert_eq!(rb, b"re:bravo");
    drop(proxy);
    match backend.join() {
        Ok(()) => {}
        Err(e) => std::panic::resume_unwind(e),
    }
}

/// A request stays in its client's reader until it is answered, so a
/// request redispatched off a dead link is written again from there. A
/// client only sees its own bytes back if that copy is its own request,
/// whole: `tests/proxy_e2e.rs` cannot tell, because its clients resend
/// on a mismatch.
#[test]
fn a_request_redispatched_off_a_dead_link_reaches_its_client_intact() {
    // Backend A reads one whole request off each link, then closes it
    // unanswered; backend B echoes.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = listener.local_addr().unwrap();
    listener.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_dead = Arc::clone(&stop);
    let dead = thread::spawn(move || {
        while !stop_dead.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((mut link, _)) => {
                    // A re-admission probe sends nothing: it just closes.
                    link.set_nonblocking(false).unwrap();
                    link.set_read_timeout(Some(WAIT)).unwrap();
                    let mut prefix = [0u8; 4];
                    if link.read_exact(&mut prefix).is_ok() {
                        let mut body = vec![0u8; u32::from_le_bytes(prefix) as usize];
                        let _ = link.read_exact(&mut body);
                    }
                }
                Err(_) => thread::sleep(Duration::from_millis(1)),
            }
        }
    });
    let echo = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();
    let config = ProxyConfig::new("127.0.0.1:0".parse().unwrap(), vec![dead_addr, echo.addr()]);
    let proxy = Proxy::spawn(ProxyOptions::new(config)).unwrap();

    let requests: Vec<Vec<u8>> = (0..4u8).map(|i| payload(i * 61, 64 * 1024)).collect();
    let mut clients: Vec<TcpStream> = requests.iter().map(|_| client(&proxy)).collect();
    for (c, request) in clients.iter_mut().zip(&requests) {
        c.write_all(&frame(request)).unwrap();
    }
    for (i, (c, request)) in clients.iter_mut().zip(&requests).enumerate() {
        let response = read_frame(c, "response");
        assert!(response == *request, "client {i} got someone else's bytes");
    }
    let retries = proxy.telemetry().registry().counter("proxy.retries").get();
    assert!(
        retries >= 1,
        "no request was redispatched ({retries} retries)"
    );
    drop(proxy);
    stop.store(true, Ordering::Relaxed);
    dead.join().unwrap();
}

/// Every shard accepts for itself, so a fresh connection is served by the
/// shard that took it. When shard 0 accepted every connection and handed
/// the others over through a queue each shard checked every 15 ms, 19–20
/// of these 40 connections took ≥ 5 ms (about 15 ms each) at two shards
/// and 28–29 at four.
#[test]
fn fresh_connections_do_not_wait_for_a_hand_off() {
    let backends: Vec<EchoBackend> = (0..3)
        .map(|_| EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(EchoBackend::addr).collect();
    for io_threads in [2, 4] {
        let mut config = ProxyConfig::new("127.0.0.1:0".parse().unwrap(), addrs.clone());
        config.io_threads = io_threads;
        let proxy = Proxy::spawn(ProxyOptions::new(config)).unwrap();
        let mut slow = Vec::new();
        for i in 0..40u8 {
            let t0 = Instant::now();
            let mut c = client(&proxy);
            let request = payload(i, 64);
            c.write_all(&frame(&request)).unwrap();
            assert_eq!(read_frame(&mut c, "response"), request, "connection {i}");
            let took = t0.elapsed();
            if took >= Duration::from_millis(5) {
                slow.push(took);
            }
        }
        assert!(
            slow.len() <= 2,
            "{io_threads} shards: {} of 40 fresh connections took >= 5 ms: {slow:?}",
            slow.len()
        );
    }
}

#[test]
fn a_drain_gives_up_on_a_half_sent_request_at_its_deadline() {
    let backend = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut config = ProxyConfig::new("127.0.0.1:0".parse().unwrap(), vec![backend.addr()]);
    config.drain_timeout = Duration::from_millis(300);
    let draining = Proxy::spawn(ProxyOptions::new(config)).unwrap();
    let mut c = client(&draining);
    c.write_all(&frame(b"ping")).unwrap();
    assert_eq!(read_frame(&mut c, "ping"), b"ping");
    // Half a frame, held: the client is neither idle nor awaiting a
    // response, so only the deadline ends the drain.
    let request = frame(&payload(7, 64));
    c.write_all(&request[..request.len() / 2]).unwrap();
    thread::sleep(Duration::from_millis(100));

    let t0 = Instant::now();
    let report = draining.shutdown();
    let took = t0.elapsed();
    assert_eq!(
        report,
        DrainReport {
            drained: false,
            abandoned: 1
        }
    );
    assert!(
        took >= Duration::from_millis(300) && took <= Duration::from_millis(800),
        "shutdown took {took:?} against a 300 ms drain"
    );

    // With no client, the drain ends at once, not at its deadline.
    let idle = proxy(backend.addr());
    let t0 = Instant::now();
    assert!(idle.shutdown().drained);
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "an idle proxy took {took:?} to shut down"
    );
}
