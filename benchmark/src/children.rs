//! The two child roles and the line protocol the parent drives them by.
//!
//! The parent (the load generator) re-executes its own binary as a
//! `proxy` child and an `echo` child, so CPU time and peak memory are
//! per role. A child answers one line on stdout per line on stdin:
//!
//! ```text
//! cpu               -> cpu <user+sys ns>
//! stat              -> stat cpu_ns=<n> rss_kib=<n> <name>=<value> ...
//! delay <slot> <ms> -> ok            (echo only: read-gate one backend)
//! quit              -> bye           (then the child exits)
//! ```
//!
//! A child also exits when its stdin closes, so a parent that dies
//! cannot leave one behind.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use streambal_proxy::{EchoBackend, EchoOptions, Proxy, ProxyConfig, ProxyOptions};
use streambal_telemetry::MetricValue;
use streambal_transport::poll::process_cpu_time;

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

pub fn cpu_ns() -> u64 {
    u64::try_from(process_cpu_time().as_nanos()).unwrap_or(u64::MAX)
}

fn bad_arg(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, format!("child: bad {what}"))
}

/// Serves the line protocol until `quit` or EOF. `extra_stat` appends
/// the role's own `name=value` pairs to a `stat` answer; `command`
/// handles the role's own verbs.
fn serve(
    mut extra_stat: impl FnMut(&mut String),
    mut command: impl FnMut(&[&str]) -> bool,
) -> io::Result<()> {
    let stdin = io::stdin();
    let mut stdout = io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line?;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["cpu"] => writeln!(stdout, "cpu {}", cpu_ns())?,
            ["stat"] => {
                let mut out = format!("stat cpu_ns={} rss_kib={}", cpu_ns(), peak_rss_kib());
                extra_stat(&mut out);
                writeln!(stdout, "{out}")?;
            }
            ["quit"] => break,
            other if command(other) => writeln!(stdout, "ok")?,
            _ => writeln!(stdout, "err unknown command")?,
        }
        stdout.flush()?;
    }
    Ok(())
}

/// `child echo <backends> <recv_buffer|0>`
fn run_echo(args: &[String]) -> io::Result<()> {
    let n: usize = args
        .first()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad_arg("backend count"))?;
    let recv: usize = args
        .get(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad_arg("recv buffer"))?;
    let options = EchoOptions {
        recv_buffer: (recv > 0).then_some(recv),
    };
    let backends = (0..n)
        .map(|_| EchoBackend::spawn_with(SocketAddr::from(([127, 0, 0, 1], 0)), options))
        .collect::<io::Result<Vec<_>>>()?;
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    println!("ready {}", addrs.join(" "));
    serve(
        |out| {
            for (j, b) in backends.iter().enumerate() {
                out.push_str(&format!(" served{j}={}", b.served()));
            }
        },
        |words| match words {
            ["delay", slot, ms] => match (slot.parse::<usize>(), ms.parse::<u64>()) {
                (Ok(j), Ok(ms)) if j < backends.len() => {
                    backends[j].set_delay(Duration::from_millis(ms));
                    true
                }
                _ => false,
            },
            _ => false,
        },
    )?;
    println!("bye");
    Ok(())
}

/// `child proxy <backend_send_buffer|0> <backend addr>...` — the proxy
/// with its defaults: `core async`, one io thread, 100 ms rounds.
fn run_proxy(args: &[String]) -> io::Result<()> {
    let send: usize = args
        .first()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad_arg("send buffer"))?;
    let backends = args[1..]
        .iter()
        .map(|a| a.parse().map_err(|_| bad_arg("backend address")))
        .collect::<io::Result<Vec<SocketAddr>>>()?;
    let mut config = ProxyConfig::new(SocketAddr::from(([127, 0, 0, 1], 0)), backends);
    config.backend_send_buffer = (send > 0).then_some(send);
    let handle = Proxy::spawn(ProxyOptions::new(config))?;
    println!("ready {}", handle.addr());
    let registry = handle.telemetry().registry().clone();
    serve(
        |out| {
            for m in registry.snapshot() {
                match m.value {
                    MetricValue::Counter(v) => out.push_str(&format!(" {}={v}", m.name)),
                    MetricValue::Gauge(v) => out.push_str(&format!(" {}={v}", m.name)),
                    MetricValue::Histogram(h) => out.push_str(&format!(
                        " {0}.count={1} {0}.p50={2} {0}.p99={3}",
                        m.name, h.count, h.p50, h.p99
                    )),
                }
            }
        },
        |_| false,
    )?;
    handle.shutdown();
    println!("bye");
    Ok(())
}

/// Entry point for `child <role> ...`.
pub fn run_child(args: &[String]) -> io::Result<()> {
    match args.first().map(String::as_str) {
        Some("echo") => run_echo(&args[1..]),
        Some("proxy") => run_proxy(&args[1..]),
        _ => Err(bad_arg("role")),
    }
}

/// The parent's handle on one child. Dropping it stops the child and
/// waits until it has ended.
pub struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Re-executes this binary as `child <args>` and waits for its
    /// `ready` line, whose remaining words are returned.
    pub fn spawn(args: &[String]) -> io::Result<(ChildProc, Vec<String>)> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("child")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut proc = ChildProc {
            child,
            stdin,
            stdout,
        };
        let line = proc.read_line()?;
        let mut words = line.split_whitespace().map(str::to_owned);
        if words.next().as_deref() != Some("ready") {
            return Err(io::Error::other(format!("child said '{line}', not ready")));
        }
        Ok((proc, words.collect()))
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "child closed its stdout",
            ));
        }
        Ok(line.trim_end().to_owned())
    }

    /// Sends one command line and returns the one answer line.
    pub fn request(&mut self, command: &str) -> io::Result<String> {
        let stdin = self.stdin.as_mut().expect("stdin is open until drop");
        writeln!(stdin, "{command}")?;
        stdin.flush()?;
        self.read_line()
    }

    /// User + system CPU nanoseconds the child has consumed.
    pub fn cpu_ns(&mut self) -> io::Result<u64> {
        let line = self.request("cpu")?;
        line.strip_prefix("cpu ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad cpu answer '{line}'")))
    }

    /// The child's `stat` answer as a name → value map.
    pub fn stat(&mut self) -> io::Result<HashMap<String, f64>> {
        let line = self.request("stat")?;
        let body = line
            .strip_prefix("stat ")
            .ok_or_else(|| io::Error::other(format!("bad stat answer '{line}'")))?;
        Ok(body
            .split_whitespace()
            .filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_owned(), v.parse().ok()?))
            })
            .collect())
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "quit");
            // Dropping stdin closes the pipe: EOF stops a child that
            // missed the line.
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
