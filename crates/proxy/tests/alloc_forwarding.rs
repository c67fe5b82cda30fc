//! Steady forwarding allocates nothing: once a client, its link and the
//! shard's queues have warmed up, a request crosses the proxy and its
//! response comes back without a heap allocation anywhere in the process.
//!
//! A request stays in its client's `FrameReader` until it is answered and
//! both directions are written straight from the reader that received
//! the bytes, so no frame is copied into a fresh `Vec`. When the proxy
//! still took each frame out of its reader, this test counted 8 016 and
//! 8 017 allocations over the 2 000 requests: a payload `to_vec` per
//! direction, plus the link list the periodic scan collected on every
//! event-loop turn (two per request). Now it counts 16, and 3 with the
//! controller's rounds 30 s apart: what is left is the control plane's.
//!
//! This file deliberately holds exactly one `#[test]`: the counter is
//! process-global, so any concurrently running test would pollute it. The
//! backend and the client below use fixed buffers for the same reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use streambal_proxy::{Proxy, ProxyConfig, ProxyOptions};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

fn count() {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const PAYLOAD: usize = 128;
const WIRE: usize = 4 + PAYLOAD;
const WARM_UP: usize = 200;
const MEASURED: usize = 2_000;
const BUDGET: u64 = 100;

/// Echoes frames of exactly `PAYLOAD` bytes until the link closes.
fn echo(mut link: TcpStream) {
    let mut frame = [0u8; WIRE];
    while link.read_exact(&mut frame).is_ok() {
        assert_eq!(
            u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize,
            PAYLOAD
        );
        if link.write_all(&frame).is_err() {
            return;
        }
    }
}

fn round_trip(client: &mut TcpStream, request: &[u8; WIRE], response: &mut [u8; WIRE]) {
    client.write_all(request).expect("request");
    client.read_exact(response).expect("response");
    assert!(response == request, "the echo came back altered");
}

#[test]
fn steady_forwarding_allocates_nothing() {
    let backend = TcpListener::bind("127.0.0.1:0").unwrap();
    let backend_addr = backend.local_addr().unwrap();
    let echo_thread = thread::spawn(move || {
        let (link, _) = backend.accept().unwrap();
        link.set_nodelay(true).unwrap();
        echo(link);
    });
    let config = ProxyConfig::new("127.0.0.1:0".parse().unwrap(), vec![backend_addr]);
    let proxy = Proxy::spawn(ProxyOptions::new(config)).unwrap();

    let mut client = TcpStream::connect(proxy.addr()).unwrap();
    client.set_nodelay(true).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut request = [0u8; WIRE];
    request[..4].copy_from_slice(&(PAYLOAD as u32).to_le_bytes());
    let mut response = [0u8; WIRE];

    // Warm-up: the link connects, and every buffer and queue on the path
    // reaches its steady size.
    for i in 0..WARM_UP {
        request[4] = i as u8;
        round_trip(&mut client, &request, &mut response);
    }
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    for i in 0..MEASURED {
        request[4..12].copy_from_slice(&(i as u64).to_le_bytes());
        round_trip(&mut client, &request, &mut response);
    }
    ENABLED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    eprintln!("allocations over {MEASURED} requests: {allocs}");

    drop(client);
    drop(proxy);
    echo_thread.join().unwrap();
    assert!(
        allocs < BUDGET,
        "{allocs} allocations over {MEASURED} forwarded requests (budget {BUDGET})"
    );
}
