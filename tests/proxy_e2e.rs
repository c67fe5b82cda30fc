//! End-to-end acceptance for streambal-proxy: a client fleet drives a
//! proxy over three live echo backends; one backend is killed mid-run
//! and every client request still succeeds via skip-and-retry; the dead
//! backend's weight drains to zero in the installed simplex; a hot
//! config reload adds a fourth backend, the region grows live, and the
//! new backend receives traffic within the reconvergence budget. Runs
//! on one io thread and on two (each shard accepting its own clients).

use std::time::{Duration, Instant};

use streambal::proxy::{run_load, scrape, EchoBackend, Proxy, ProxyConfig, ProxyOptions};

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

fn config_text(io_threads: usize, backends: &[std::net::SocketAddr]) -> String {
    let mut text = format!(
        "listen 127.0.0.1:0\nmetrics 127.0.0.1:0\nsample_interval_ms 50\n\
         forward_timeout_ms 400\nconnect_timeout_ms 300\neject_after 2\n\
         probe_interval_ms 200\nio_threads {io_threads}\n",
    );
    for b in backends {
        text.push_str(&format!("backend {b}\n"));
    }
    text
}

#[test]
fn fleet_survives_backend_death_and_hot_reload_grows_the_region() {
    for io_threads in [1, 2] {
        eprintln!("io_threads {io_threads}");
        scenario(io_threads);
    }
}

fn scenario(io_threads: usize) {
    let mut backends: Vec<EchoBackend> = (0..3)
        .map(|_| EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap())
        .collect();
    let addrs: Vec<_> = backends.iter().map(EchoBackend::addr).collect();

    // The config lives in a real file so hot reload can watch it.
    let cfg_path = std::env::temp_dir().join(format!("proxy-e2e-{}.conf", std::process::id()));
    std::fs::write(&cfg_path, config_text(io_threads, &addrs)).unwrap();
    let config = ProxyConfig::parse(&config_text(io_threads, &addrs)).unwrap();
    let handle = Proxy::spawn(ProxyOptions {
        config,
        config_path: Some(cfg_path.clone()),
        telemetry: None,
    })
    .unwrap();

    // Phase 1 — steady state: the fleet succeeds and all backends serve.
    let report = run_load(handle.addr(), 6, 30, 128);
    assert_eq!(report.failed, 0, "steady-state failures");
    assert_eq!(report.succeeded, 6 * 30);
    for (i, b) in backends.iter().enumerate() {
        assert!(b.served() > 0, "backend {i} never served");
    }

    // Phase 2 — kill backend 1 while a fleet is mid-run. The kill is
    // keyed to observed progress, not a sleep: it fires once the victim
    // has served a slice of *this* load but well before the run can be
    // over, so the death lands on live traffic however fast the core
    // drains the fleet.
    let proxy_addr = handle.addr();
    let victim = backends.remove(1);
    let victim_addr = victim.addr();
    let victim_base = victim.served();
    let loader = std::thread::spawn(move || run_load(proxy_addr, 6, 500, 128));
    assert!(
        wait_until(Duration::from_secs(5), || {
            victim.served() > victim_base + 50
        }),
        "victim never saw load traffic"
    );
    victim.kill();
    let report = loader.join().unwrap();
    assert_eq!(
        report.failed, 0,
        "a backend death mid-run must be absorbed by retry"
    );
    assert_eq!(report.succeeded, 6 * 500);

    // The dead backend leaves the simplex: detached, weight zero, and
    // the survivors hold the full resolution between them.
    let pool = handle.pool().clone();
    assert!(
        wait_until(Duration::from_secs(5), || !pool.slot_healthy(1)),
        "dead backend still in rotation"
    );
    let registry = handle.telemetry().registry().clone();
    let w1 = registry.gauge("proxy.conn1.weight");
    let w0 = registry.gauge("proxy.conn0.weight");
    let w2 = registry.gauge("proxy.conn2.weight");
    assert!(
        wait_until(Duration::from_secs(5), || {
            w1.get() == 0.0 && (w0.get() + w2.get() - 1000.0).abs() < f64::EPSILON
        }),
        "weights did not reconverge: w0={} w1={} w2={}",
        w0.get(),
        w1.get(),
        w2.get()
    );

    // Phase 3 — hot reload: add a fourth backend (and keep the dead
    // one listed; health, not config, keeps it out of rotation).
    let fourth = EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap();
    let mut reload_addrs = vec![addrs[0], victim_addr, addrs[2], fourth.addr()];
    std::fs::write(&cfg_path, config_text(io_threads, &reload_addrs)).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || pool.width() == 4),
        "reload did not grow the region (width={})",
        pool.width()
    );

    // The new backend receives traffic within the reconvergence budget.
    let t0 = Instant::now();
    let mut failed = 0;
    while fourth.served() == 0 && t0.elapsed() < Duration::from_secs(10) {
        failed += run_load(handle.addr(), 4, 20, 128).failed;
    }
    assert_eq!(failed, 0);
    assert!(fourth.served() > 0, "grown backend received no traffic");

    // /metrics agrees: four backends, some ejections, traffic counted.
    let metrics_addr = handle.metrics_addr().expect("metrics enabled");
    let body = scrape(metrics_addr, "/metrics?prefix=proxy.").unwrap();
    assert!(body.contains("proxy_backends 4"), "{body}");
    assert!(body.contains("proxy_requests"), "{body}");
    assert!(body.contains("proxy_ejections"), "{body}");

    // Phase 4 — shrink: drop the dead backend from the config. It is a
    // mid-list slot, so it stays detached (indices are stable) and the
    // width holds; dropping the *tail* backend then closes a slot.
    reload_addrs.remove(1);
    std::fs::write(&cfg_path, config_text(io_threads, &reload_addrs)).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || {
            pool.backend(1).is_some_and(|b| b.is_removed())
        }),
        "mid-list removal did not mark the slot removed"
    );
    assert_eq!(pool.width(), 4, "mid-list removal must not shift slots");
    reload_addrs.pop();
    std::fs::write(&cfg_path, config_text(io_threads, &reload_addrs)).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || pool.width() == 3),
        "tail removal did not shrink the region (width={})",
        pool.width()
    );
    let report = run_load(handle.addr(), 4, 20, 128);
    assert_eq!(report.failed, 0, "post-shrink failures");

    let drain = handle.shutdown();
    assert!(
        drain.drained,
        "shutdown abandoned {} clients",
        drain.abandoned
    );
    std::fs::remove_file(&cfg_path).ok();
}
