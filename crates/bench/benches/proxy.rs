//! Proxy forwarding cost: one framed request through streambal-proxy to
//! an echo backend and back, on loopback. This is the per-request price
//! of the ingress path (frame parse, WRR pick, pipelined backend round
//! trip) — the blocking-rate controller itself runs off-path.
//!
//! `proxy/round_trip_256KiB` sends one 256 KiB request the same way: at
//! that size the bytes the proxy copies, not its fixed per-request work,
//! set the price.
//!
//! The `proxy/async_round_trip_Nconns` entries take the measurement
//! with N idle connections parked against the proxy: epoll's O(ready)
//! wakeups mean the per-request
//! cost must not grow with the parked fleet, which is the property that
//! lets one event-loop thread carry a five-figure connection count.

use std::hint::black_box;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use streambal_bench::Micro;
use streambal_proxy::{EchoBackend, FrameReader, Proxy, ProxyConfig, ProxyOptions};
use streambal_transport::frame::write_frame_deadline;

fn main() {
    let backends: Vec<EchoBackend> = (0..3)
        .map(|_| EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).expect("spawn echo"))
        .collect();
    let config = ProxyConfig::new(
        "127.0.0.1:0".parse().unwrap(),
        backends.iter().map(EchoBackend::addr).collect(),
    );
    let handle = Proxy::spawn(ProxyOptions::new(config)).expect("spawn proxy");

    println!("== proxy ==");
    let m = Micro::new().measure_ms(500);
    let payload = vec![0xa5u8; 128];
    let mut conn = TcpStream::connect(handle.addr()).expect("connect to proxy");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_nonblocking(true).expect("nonblocking");
    let mut reader = FrameReader::new();

    let large = vec![0x5au8; 256 * 1024];
    m.run("proxy/round_trip_256KiB", || {
        let deadline = Instant::now() + Duration::from_secs(5);
        write_frame_deadline(&mut conn, &large, deadline).expect("request");
        let echoed = reader
            .read_frame_deadline(&mut conn, deadline)
            .expect("response")
            .expect("proxy closed");
        black_box(echoed.len())
    });

    // The event loop under parked-fleet pressure: the active connection's
    // round trip is measured while N others sit idle in the same event
    // loops. Connections accumulate across the sizes (64 → 1024 → 8192).
    let mut parked: Vec<TcpStream> = Vec::new();
    for &n in &[64usize, 1024, 8192] {
        while parked.len() < n {
            // Small batches keep the accept backlog comfortable.
            for _ in 0..64.min(n - parked.len()) {
                let s = TcpStream::connect(handle.addr()).expect("park conn");
                s.set_nodelay(true).expect("nodelay");
                parked.push(s);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        m.run(&format!("proxy/async_round_trip_{n}conns"), || {
            let deadline = Instant::now() + Duration::from_secs(5);
            write_frame_deadline(&mut conn, &payload, deadline).expect("request");
            let echoed = reader
                .read_frame_deadline(&mut conn, deadline)
                .expect("response")
                .expect("proxy closed");
            black_box(echoed.len())
        });
    }
    drop(parked);

    handle.shutdown();
}
