//! The `/metrics` endpoint: a deliberately tiny HTTP/1.0-ish responder
//! serving the Prometheus text exposition of the shared registry.
//!
//! Routes:
//!
//! - `GET /metrics` — all metrics
//! - `GET /metrics?prefix=proxy.` — only families under a prefix
//!   (matched against the registry names, before Prometheus mangling)
//! - `GET /healthz` — `ok` (liveness)
//!
//! No keep-alive, no chunking, no headers parsed beyond the request
//! line: the endpoint exists for scrapers and `curl`, and the workspace
//! is dependency-free by design, so a full HTTP stack is out of scope.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use streambal_telemetry::export::metrics_to_prometheus;
use streambal_telemetry::Telemetry;
use streambal_transport::poll::wait_readable;

/// Per-request budget for reading the request head and writing the body.
const HTTP_BUDGET: Duration = Duration::from_secs(2);

/// Serves `/metrics` until `stop` is set. The listener must already be
/// non-blocking.
pub(crate) fn serve_metrics(listener: &TcpListener, telemetry: &Telemetry, stop: &AtomicBool) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are rare (one per poll interval)
                // and tiny, so a thread per request buys nothing.
                let _ = serve_one(stream, telemetry);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // Park on listener readiness; the timeout bounds reaction
                // to the stop flag.
                let _ = wait_readable(listener, Duration::from_millis(100));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn serve_one(mut stream: TcpStream, telemetry: &Telemetry) -> std::io::Result<()> {
    // Blocking with socket timeouts: accepted sockets may inherit the
    // listener's non-blocking flag on some platforms.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(HTTP_BUDGET))?;
    stream.set_write_timeout(Some(HTTP_BUDGET))?;
    let head = read_head(&mut stream)?;
    let target = head
        .strip_prefix("GET ")
        .and_then(|rest| rest.split_whitespace().next());
    let (status, content, body) = match target.map(|t| t.split_once('?').unwrap_or((t, ""))) {
        Some(("/metrics", query)) => {
            let prefix = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("prefix="))
                .unwrap_or("");
            let snapshot = telemetry.registry().snapshot_matching(prefix);
            (
                "200 OK",
                "text/plain; version=0.0.4",
                metrics_to_prometheus(&snapshot),
            )
        }
        Some(("/healthz", _)) => ("200 OK", "text/plain", "ok\n".to_owned()),
        Some(_) => ("404 Not Found", "text/plain", "not found\n".to_owned()),
        None => ("400 Bad Request", "text/plain", "bad request\n".to_owned()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Reads up to the end of the request head (or 4 KiB, whichever first)
/// and returns the request line.
fn read_head(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = [0u8; 4096];
    let mut filled = 0;
    let deadline = Instant::now() + HTTP_BUDGET;
    loop {
        if filled == buf.len() || Instant::now() >= deadline {
            break;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if buf[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                break;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let text = String::from_utf8_lossy(&buf[..filled]);
    Ok(text.lines().next().unwrap_or("").to_owned())
}
