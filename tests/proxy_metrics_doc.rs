//! The proxy's metric names and the docs/PROXY.md metrics table agree in
//! both directions: every `proxy_*` family a running proxy exposes on
//! `/metrics` is in the table, and every name in the table is exposed.
//! Slot indices are written `<j>` in the table and `{a,b}` lists stand
//! for one name per item.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use streambal::proxy::{run_load, scrape, EchoBackend, Proxy, ProxyConfig, ProxyOptions};

/// Every backticked name in the first cell of a row of the "Metrics"
/// table, with `{a,b}` lists expanded.
fn documented() -> BTreeSet<String> {
    let text = include_str!("../docs/PROXY.md");
    let section = text
        .split("\n## Metrics\n")
        .nth(1)
        .expect("docs/PROXY.md has a Metrics section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter(|line| line.starts_with("| `"))
        .filter_map(|row| row.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2).flat_map(expand))
        .collect()
}

/// `a{b,c}d` → `abd`, `acd`; any number of lists.
fn expand(name: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (name.find('{'), name.find('}')) else {
        return vec![name.to_owned()];
    };
    let (head, tail) = (&name[..open], &name[close + 1..]);
    name[open + 1..close]
        .split(',')
        .flat_map(|item| expand(&format!("{head}{item}{tail}")))
        .collect()
}

/// A scraped family name with its slot indices written `<j>`.
fn generic(name: &str) -> String {
    let mut out = String::new();
    let mut rest = name;
    while let Some(at) = rest.find("conn") {
        out.push_str(&rest[..at + 4]);
        rest = &rest[at + 4..];
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits > 0 {
            out.push_str("<j>");
            rest = &rest[digits..];
        }
    }
    out.push_str(rest);
    out
}

#[test]
fn proxy_metric_names_match_the_docs_table() {
    let backends: Vec<EchoBackend> = (0..2)
        .map(|_| EchoBackend::spawn("127.0.0.1:0".parse().unwrap()).unwrap())
        .collect();
    let mut text = String::from("listen 127.0.0.1:0\nmetrics 127.0.0.1:0\nsample_interval_ms 20\n");
    for b in &backends {
        text.push_str(&format!("backend {}\n", b.addr()));
    }
    let handle = Proxy::spawn(ProxyOptions::new(ProxyConfig::parse(&text).unwrap())).unwrap();
    let report = run_load(handle.addr(), 2, 20, 128);
    assert_eq!(report.failed, 0, "load failures");
    // Every family is bound once the controller has run a few rounds.
    let rounds = handle
        .telemetry()
        .registry()
        .counter("proxy.controller.rounds");
    let deadline = Instant::now() + Duration::from_secs(5);
    while rounds.get() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = handle.metrics_addr().expect("metrics endpoint on");
    let body = scrape(metrics, "/metrics?prefix=proxy.").unwrap();
    assert!(handle.shutdown().drained, "shutdown abandoned clients");

    let exposed: BTreeSet<String> = body
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|line| line.split_whitespace().next())
        .map(generic)
        .collect();
    let documented = documented();
    let undocumented: Vec<_> = exposed.difference(&documented).collect();
    let unexposed: Vec<_> = documented.difference(&exposed).collect();
    assert!(
        undocumented.is_empty() && unexposed.is_empty(),
        "exposed but not in docs/PROXY.md: {undocumented:?}\n\
         in docs/PROXY.md but not exposed: {unexposed:?}"
    );
}
