//! The blocked-time probe against a physical oracle.
//!
//! The event loop derives each backend's blocked-send time from
//! `EPOLLOUT`-wait spans on its one pipelined link. With one io thread
//! those spans cannot overlap, so the time charged to a throttled
//! backend must track the wall clock while the slot carries traffic and
//! never exceed it, while unthrottled backends are charged next to
//! nothing, and the controller must shift installed weight off the
//! throttled slot.
//!
//! The scenario is engineered so back-pressure is real: the throttled
//! backend reads at most one buffer-full per delay (see
//! `EchoBackend::set_delay`), its kernel receive buffer is capped, the
//! proxy's send buffer toward backends is capped, and payloads exceed
//! the resulting pipe — so every forward to the throttled backend
//! spends measurable wall time unable to write.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streambal_proxy::{run_load, EchoBackend, EchoOptions, Proxy, ProxyConfig, ProxyOptions};

/// Weight resolution installed by the controller (the simplex sums to
/// this; see `streambal_control`).
const RESOLUTION: f64 = 1000.0;
/// Three backends → fair share is a third of the resolution.
const FAIR_SHARE: f64 = RESOLUTION / 3.0;
/// The throttled slot must end at or below this fraction of fair share.
const SHIFTED_FRACTION: f64 = 0.75;
/// The slot whose backend is throttled.
const THROTTLED: usize = 1;
/// The counters are read against the wall clock after this many 100 ms
/// samples: a frame already on the throttled link takes ≥ 160 ms to drain
/// (eight gated reads), so the controller cannot yet have starved the slot
/// of traffic. Later it can — a slot at weight 0 is not sent to, hence not
/// blocked, and the other two then forward thousands of 32 KiB frames a
/// second through their own 4 KiB pipes, which is blocking too.
const PROBE_AT_SAMPLE: usize = 3;

#[test]
fn throttled_backend_is_charged_wall_time_and_loses_weight() {
    let backends: Vec<EchoBackend> = (0..3)
        .map(|_| {
            EchoBackend::spawn_with(
                "127.0.0.1:0".parse().unwrap(),
                EchoOptions {
                    recv_buffer: Some(4096),
                },
            )
            .unwrap()
        })
        .collect();
    let mut text = String::from(
        "listen 127.0.0.1:0\nio_threads 1\n\
         sample_interval_ms 50\nforward_timeout_ms 3000\n\
         connect_timeout_ms 500\neject_after 20\nprobe_interval_ms 200\n\
         backend_send_buffer_bytes 4096\n",
    );
    for b in &backends {
        text.push_str(&format!("backend {}\n", b.addr()));
    }
    let handle = Proxy::spawn(ProxyOptions::new(ProxyConfig::parse(&text).unwrap())).unwrap();

    // One read per 20 ms. A 32 KiB frame through a ~4 KiB receive buffer
    // takes several gated reads, so the proxy's capped send buffer stays
    // full for most of each forward.
    backends[THROTTLED].set_delay(Duration::from_millis(20));

    // Drive load until told to stop; retries inside run_load keep the
    // fleet alive across any transient hiccup.
    let stop = Arc::new(AtomicBool::new(false));
    let loaded = Instant::now();
    let loader = {
        let stop = Arc::clone(&stop);
        let addr = handle.addr();
        std::thread::spawn(move || {
            let mut failed = 0u64;
            while !stop.load(Ordering::Acquire) {
                failed += run_load(addr, 4, 10, 32 * 1024).failed;
            }
            failed
        })
    };

    // Sample the installed weight of the throttled slot while the
    // controller reacts (sample interval 50 ms → a round every 50 ms).
    let weight = handle
        .telemetry()
        .registry()
        .clone()
        .gauge(&format!("proxy.conn{THROTTLED}.weight"));
    let bar = FAIR_SHARE * SHIFTED_FRACTION;
    let charged_to = |j: usize| {
        let backend = handle.pool().backend(j).unwrap();
        Duration::from_nanos(backend.counter().cumulative_ns())
    };
    let mut samples = Vec::new();
    let mut probe = None;
    while loaded.elapsed() < Duration::from_secs(6) {
        std::thread::sleep(Duration::from_millis(100));
        samples.push((loaded.elapsed(), weight.get()));
        if samples.len() == PROBE_AT_SAMPLE {
            // Counters first, clock second: every span a read counts,
            // open or ended, started after the load did and is counted up
            // to a moment before the wall reading, so charged ≤ wall
            // needs no slack.
            let charged: Vec<Duration> = (0..3).map(charged_to).collect();
            probe = Some((charged, loaded.elapsed()));
        }
        // Converged early: weight well below the bar and stable for the
        // last five samples (half a second).
        if samples.len() >= 5
            && samples
                .iter()
                .rev()
                .take(5)
                .all(|&(_, w)| w > 0.0 && w < bar)
        {
            break;
        }
    }
    stop.store(true, Ordering::Release);
    assert_eq!(loader.join().unwrap(), 0, "load failures while probing");
    assert!(handle.shutdown().drained, "shutdown abandoned clients");

    let last = samples.last().map_or(FAIR_SHARE, |&(_, w)| w);
    assert!(
        last > 0.0 && last < bar,
        "throttled slot held weight {last} (bar {bar}); trajectory: {samples:?}"
    );
    let (charged, wall) = probe.expect("the loop takes at least five samples");
    assert!(
        charged[THROTTLED] >= wall / 2 && charged[THROTTLED] <= wall,
        "throttled backend charged {:?} in the first {wall:?} of load",
        charged[THROTTLED]
    );
    // Typically 1 %. The bound leaves room for the proxy thread itself
    // losing its CPU mid-write, which lands on whichever links were
    // waiting; time charged to the wrong backend would read like the
    // throttled one.
    for j in (0..3).filter(|&j| j != THROTTLED) {
        assert!(
            charged[j] <= wall / 4,
            "unthrottled backend {j} charged {:?} in the first {wall:?} of load",
            charged[j]
        );
    }
}
