//! Idle-CPU regression: an idle proxy plus idle echo backends and parked
//! client connections must cost (almost) no CPU.
//!
//! This pins the readiness-polling work: the echo backend's accept loop,
//! the proxy's accept/forward paths and the `/metrics` accept loop used
//! to burn short-sleep spin loops; all of them now park on readiness
//! with bounded timeouts. The budget is rusage-based
//! (`process_cpu_time`), so wall-clock load from elsewhere on the
//! machine doesn't flake it — only CPU *this process* burns counts.
//! Lives in its own integration binary so no sibling test threads
//! pollute the measurement.

use std::net::TcpStream;
use std::time::Duration;

use streambal_proxy::{EchoBackend, Proxy, ProxyConfig, ProxyOptions};
use streambal_transport::poll::process_cpu_time;

/// CPU budget for ~3 s of idling across one proxy (io shard, which also
/// runs the re-admission probes, controller, metrics endpoint), three
/// echo loops and 16 parked client connections. An event-loop stack spends well under 100 ms here (timer
/// wakeups and 50 ms control rounds); the old spin loops burned whole
/// cores.
const IDLE_BUDGET: Duration = Duration::from_millis(300);
const IDLE_SPAN: Duration = Duration::from_secs(3);

#[test]
fn idle_stack_stays_within_the_cpu_budget() {
    let backends: Vec<EchoBackend> = (0..3)
        .map(|_| EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap())
        .collect();
    let mut text = String::from(
        "listen 127.0.0.1:0\nmetrics 127.0.0.1:0\nio_threads 1\nsample_interval_ms 50\n",
    );
    for b in &backends {
        text.push_str(&format!("backend {}\n", b.addr()));
    }
    let proxy = Proxy::spawn(ProxyOptions::new(ProxyConfig::parse(&text).unwrap())).unwrap();

    // Park idle clients: connections held open, no requests. These
    // exercise the per-connection readiness bookkeeping.
    let parked: Vec<TcpStream> = (0..16)
        .map(|_| {
            let s = TcpStream::connect(proxy.addr()).unwrap();
            s.set_nodelay(true).unwrap();
            s
        })
        .collect();
    // Let accepts, registrations and the first control rounds settle
    // before the measurement starts.
    std::thread::sleep(Duration::from_millis(300));

    let before = process_cpu_time();
    std::thread::sleep(IDLE_SPAN);
    let spent = process_cpu_time().saturating_sub(before);

    drop(parked);
    drop(proxy);
    drop(backends);

    assert!(
        spent <= IDLE_BUDGET,
        "idle stack burned {spent:?} CPU over {IDLE_SPAN:?} (budget {IDLE_BUDGET:?}) — \
         a wait path is spinning"
    );
}
