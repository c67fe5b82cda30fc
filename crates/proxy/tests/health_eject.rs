//! Sabotage-style self-test: a backend that *accepts connections but
//! stops reading* must be ejected by the health checker within the probe
//! budget, while every client request keeps succeeding via
//! skip-and-retry. This is the failure mode connect-probes alone cannot
//! see — only forward timeouts catch it.

use std::time::{Duration, Instant};

use streambal_proxy::{run_load, EchoBackend, Proxy, ProxyConfig, ProxyOptions};

fn wait_until(budget: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    done()
}

#[test]
fn stalled_backend_is_ejected_within_the_probe_budget() {
    let healthy = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();
    let wedged = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();

    let mut cfg = ProxyConfig::new(
        "127.0.0.1:0".parse().unwrap(),
        vec![healthy.addr(), wedged.addr()],
    );
    cfg.sample_interval = Duration::from_millis(50);
    cfg.forward_timeout = Duration::from_millis(250);
    cfg.eject_after = 2;
    // Keep re-admission probes out of this test's window: a wedged
    // backend still accepts connects, so a short probe interval would
    // legitimately flap it back in.
    cfg.probe_interval = Duration::from_secs(30);
    let handle = Proxy::spawn(ProxyOptions::new(cfg)).unwrap();

    wedged.stall();
    let report = run_load(handle.addr(), 4, 20, 64);
    assert_eq!(
        report.failed, 0,
        "skip-and-retry must absorb the wedged backend"
    );
    assert_eq!(report.succeeded, 4 * 20);

    let registry = handle.telemetry().registry().clone();
    let ejections = registry.counter("proxy.ejections");
    assert!(
        wait_until(Duration::from_secs(5), || ejections.get() >= 1),
        "the wedged backend was never ejected (probe budget exceeded)"
    );
    let pool = handle.pool().clone();
    assert!(
        wait_until(Duration::from_secs(1), || !pool.slot_healthy(1)),
        "slot 1 should be out of rotation"
    );

    // The control round detaches the unhealthy slot: its weight gauge
    // drains to zero and the healthy slot absorbs the full simplex.
    let w1 = registry.gauge("proxy.conn1.weight");
    let w0 = registry.gauge("proxy.conn0.weight");
    assert!(
        wait_until(Duration::from_secs(5), || {
            w1.get() == 0.0 && w0.get() == 1000.0
        }),
        "weights did not reconverge: w0={} w1={}",
        w0.get(),
        w1.get()
    );

    // Traffic keeps flowing on the survivor.
    let before = healthy.served();
    let report = run_load(handle.addr(), 2, 10, 64);
    assert_eq!(report.failed, 0);
    assert!(healthy.served() >= before + 20);

    handle.shutdown();
}

#[test]
fn ejected_backend_is_readmitted_after_recovery() {
    // Shard 0 runs the probes, alone and beside another shard.
    for io_threads in [1, 2] {
        eprintln!("io_threads {io_threads}");
        readmission(io_threads);
    }
}

fn readmission(io_threads: usize) {
    let a = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();
    let b = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();

    let mut cfg = ProxyConfig::new("127.0.0.1:0".parse().unwrap(), vec![a.addr(), b.addr()]);
    cfg.sample_interval = Duration::from_millis(50);
    cfg.forward_timeout = Duration::from_millis(200);
    cfg.eject_after = 2;
    cfg.probe_interval = Duration::from_millis(100);
    cfg.io_threads = io_threads;
    let handle = Proxy::spawn(ProxyOptions::new(cfg)).unwrap();

    b.stall();
    let report = run_load(handle.addr(), 2, 10, 64);
    assert_eq!(report.failed, 0);
    let pool = handle.pool().clone();
    assert!(wait_until(Duration::from_secs(5), || !pool.slot_healthy(1)));

    // Recovery: the backend reads again, a connect probe re-admits it,
    // and the control round re-attaches the slot.
    b.unstall();
    let registry = handle.telemetry().registry().clone();
    let readmissions = registry.counter("proxy.readmissions");
    assert!(
        wait_until(Duration::from_secs(10), || readmissions.get() >= 1),
        "recovered backend was never re-admitted"
    );
    assert!(wait_until(Duration::from_secs(5), || pool.slot_healthy(1)));

    // It actually serves again. Re-attachment is exploration-bounded
    // (the slot re-enters at a small weight), so keep offering request
    // batches until one lands on it.
    let before = b.served();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut failed = 0;
    while b.served() == before && Instant::now() < deadline {
        failed += run_load(handle.addr(), 2, 20, 64).failed;
    }
    assert_eq!(failed, 0);
    assert!(
        b.served() > before,
        "re-admitted backend received no traffic"
    );

    handle.shutdown();
}

#[test]
fn a_refused_probe_keeps_a_dead_backend_out() {
    let a = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();
    let b = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();

    let mut cfg = ProxyConfig::new("127.0.0.1:0".parse().unwrap(), vec![a.addr(), b.addr()]);
    cfg.sample_interval = Duration::from_millis(50);
    cfg.eject_after = 2;
    cfg.probe_interval = Duration::from_millis(50);
    let handle = Proxy::spawn(ProxyOptions::new(cfg)).unwrap();

    // A dead backend refuses every connect: forwards fail over to `a`
    // until `b` is ejected, and every probe after that is refused.
    b.kill();
    let pool = handle.pool().clone();
    let deadline = Instant::now() + Duration::from_secs(5);
    while pool.slot_healthy(1) && Instant::now() < deadline {
        assert_eq!(run_load(handle.addr(), 2, 10, 64).failed, 0);
    }
    assert!(!pool.slot_healthy(1), "the dead backend was never ejected");

    std::thread::sleep(6 * Duration::from_millis(50));
    let readmissions = handle.telemetry().registry().counter("proxy.readmissions");
    assert_eq!(readmissions.get(), 0, "a refused probe re-admitted");
    assert!(
        !pool.slot_healthy(1),
        "the dead backend is back in rotation"
    );

    handle.shutdown();
}
