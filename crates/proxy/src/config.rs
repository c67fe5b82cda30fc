//! Proxy configuration: a small line-oriented file format plus the
//! polling watcher behind hot reload.
//!
//! ```text
//! # streambal-proxy config
//! listen  127.0.0.1:7100
//! metrics 127.0.0.1:7190
//! backend 127.0.0.1:7101
//! backend 127.0.0.1:7102
//! sample_interval_ms 100
//! connect_timeout_ms 500
//! forward_timeout_ms 1000
//! eject_after 3
//! probe_interval_ms 250
//! drain_timeout_ms 5000
//! autoscale on
//! autoscale_high 0.15
//! autoscale_low 0.02
//! autoscale_confirm 3
//! autoscale_cooldown 8
//! autoscale_max_step 2
//! autoscale_min_backends 1
//! ```
//!
//! Blank lines and `#` comments are ignored; every other line is
//! `key value`. Only `listen` and at least one `backend` are required.
//! `io_threads` sets how many readiness-polled event-loop threads the
//! connections are multiplexed on.
//! `backend_send_buffer_bytes` caps the kernel send buffer on
//! proxy→backend connections — a small explicit buffer disables kernel
//! autotuning so back-pressure from a slow backend surfaces as blocked
//! -write time (the balancer's signal) instead of silent buffering.
//!
//! **Hot reload** is file-watch polling, not SIGHUP: signal handling is
//! kept out of the proxy (the workspace confines `unsafe` FFI to the
//! transport crate's readiness-poll module), so the control loop
//! re-reads the file once per control round (`sample_interval_ms`) and
//! applies the diff when the contents change. Only the `backend` set is applied
//! live — added backends grow the region, dropped backends are detached
//! (and tail slots closed); changes to any other key are ignored until
//! restart, with a warning on stderr.

use std::fmt;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use streambal_control::AutoscalerConfig;

/// A parse or I/O problem with a config file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Human-readable description, with a line number when applicable.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(message: impl Into<String>) -> ConfigError {
    ConfigError {
        message: message.into(),
    }
}

/// Everything the proxy needs to run. See the [module docs](self) for
/// the file format.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyConfig {
    /// Client-facing listening address (`listen`).
    pub listen: SocketAddr,
    /// `/metrics` endpoint address (`metrics`); disabled when absent.
    pub metrics: Option<SocketAddr>,
    /// Backend workers, one `backend` line each, in order.
    pub backends: Vec<SocketAddr>,
    /// Control-round cadence (`sample_interval_ms`, default 100).
    pub sample_interval: Duration,
    /// Backend connection-setup budget (`connect_timeout_ms`, default 500).
    pub connect_timeout: Duration,
    /// Per-attempt forward budget, send + response (`forward_timeout_ms`,
    /// default 1000).
    pub forward_timeout: Duration,
    /// Consecutive forward failures before a backend is ejected
    /// (`eject_after`, default 3).
    pub eject_after: u32,
    /// Base delay between re-admission probes of an ejected backend
    /// (`probe_interval_ms`, default 250); doubles per repeat ejection up
    /// to 32x.
    pub probe_interval: Duration,
    /// How long shutdown waits for in-flight requests
    /// (`drain_timeout_ms`, default 5000).
    pub drain_timeout: Duration,
    /// Closed-loop autoscaling over the backend pool (`autoscale on`):
    /// the `backend` lines define the *pool*, the autoscaler decides how
    /// many of them are live. `None` (the default) keeps every backend
    /// live, exactly as before. Tuned by `autoscale_high`,
    /// `autoscale_low`, `autoscale_confirm`, `autoscale_cooldown`,
    /// `autoscale_max_step` and `autoscale_min_backends`;
    /// `max_width` is always the pool size, set at spawn.
    pub autoscale: Option<AutoscalerConfig>,
    /// Event-loop shard count (`io_threads`, default 1): every client
    /// and backend socket is multiplexed on this many I/O threads.
    pub io_threads: usize,
    /// Kernel send-buffer cap for proxy→backend connections
    /// (`backend_send_buffer_bytes`); `None` keeps kernel autotuning.
    /// Setting it small makes a slow backend's back-pressure show up
    /// promptly as blocked-write time — the balancer's input signal.
    pub backend_send_buffer: Option<usize>,
}

impl ProxyConfig {
    /// A config for the given listener and backends with default knobs —
    /// the programmatic entry point tests and benches use.
    #[must_use]
    pub fn new(listen: SocketAddr, backends: Vec<SocketAddr>) -> Self {
        ProxyConfig {
            listen,
            metrics: None,
            backends,
            sample_interval: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(500),
            forward_timeout: Duration::from_millis(1000),
            eject_after: 3,
            probe_interval: Duration::from_millis(250),
            drain_timeout: Duration::from_millis(5000),
            autoscale: None,
            io_threads: 1,
            backend_send_buffer: None,
        }
    }

    /// Parses the config file format.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending line for unknown
    /// keys, bad values, a missing `listen`, or an empty backend set.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut listen: Option<SocketAddr> = None;
        let mut metrics: Option<SocketAddr> = None;
        let mut backends: Vec<SocketAddr> = Vec::new();
        let mut ms: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        let mut eject_after: Option<u32> = None;
        let mut io_threads: Option<usize> = None;
        let mut backend_send_buffer: Option<usize> = None;
        let mut autoscale_on = false;
        let mut auto = AutoscalerConfig::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().expect("non-empty line has a first token");
            let value = parts
                .next()
                .ok_or_else(|| err(format!("line {}: '{key}' needs a value", lineno + 1)))?;
            if parts.next().is_some() {
                return Err(err(format!("line {}: trailing tokens", lineno + 1)));
            }
            let addr = |v: &str| -> Result<SocketAddr, ConfigError> {
                v.parse()
                    .map_err(|_| err(format!("line {}: bad address '{v}'", lineno + 1)))
            };
            let num = |v: &str| -> Result<u64, ConfigError> {
                v.parse()
                    .map_err(|_| err(format!("line {}: bad number '{v}'", lineno + 1)))
            };
            let frac = |v: &str| -> Result<f64, ConfigError> {
                match v.parse::<f64>() {
                    Ok(f) if f.is_finite() && (0.0..=1.0).contains(&f) => Ok(f),
                    _ => Err(err(format!(
                        "line {}: expected a rate in [0, 1], got '{v}'",
                        lineno + 1
                    ))),
                }
            };
            match key {
                "listen" => listen = Some(addr(value)?),
                "metrics" => metrics = Some(addr(value)?),
                "backend" => backends.push(addr(value)?),
                "autoscale" => {
                    autoscale_on = match value {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(err(format!(
                                "line {}: autoscale must be 'on' or 'off', got '{other}'",
                                lineno + 1
                            )))
                        }
                    };
                }
                "autoscale_high" => auto.high_watermark = frac(value)?,
                "autoscale_low" => auto.low_watermark = frac(value)?,
                "autoscale_confirm" => {
                    auto.confirm_rounds = u32::try_from(num(value)?.max(1))
                        .map_err(|_| err(format!("line {}: value too large", lineno + 1)))?;
                }
                "autoscale_cooldown" => {
                    auto.cooldown_rounds = u32::try_from(num(value)?)
                        .map_err(|_| err(format!("line {}: value too large", lineno + 1)))?;
                }
                "autoscale_max_step" => {
                    auto.max_step = usize::try_from(num(value)?.max(1))
                        .map_err(|_| err(format!("line {}: value too large", lineno + 1)))?;
                }
                "autoscale_min_backends" => {
                    auto.min_width = usize::try_from(num(value)?.max(1))
                        .map_err(|_| err(format!("line {}: value too large", lineno + 1)))?;
                }
                "io_threads" => {
                    io_threads = Some(usize::try_from(num(value)?.clamp(1, 64)).expect("<= 64"));
                }
                "backend_send_buffer_bytes" => {
                    backend_send_buffer = Some(
                        usize::try_from(num(value)?)
                            .map_err(|_| err(format!("line {}: value too large", lineno + 1)))?,
                    );
                }
                "eject_after" => {
                    let n = num(value)?;
                    eject_after =
                        Some(u32::try_from(n.max(1)).map_err(|_| {
                            err(format!("line {}: eject_after too large", lineno + 1))
                        })?);
                }
                "sample_interval_ms" | "connect_timeout_ms" | "forward_timeout_ms"
                | "probe_interval_ms" | "drain_timeout_ms" => {
                    ms.insert(
                        match key {
                            "sample_interval_ms" => "sample",
                            "connect_timeout_ms" => "connect",
                            "forward_timeout_ms" => "forward",
                            "probe_interval_ms" => "probe",
                            _ => "drain",
                        },
                        num(value)?.max(1),
                    );
                }
                other => return Err(err(format!("line {}: unknown key '{other}'", lineno + 1))),
            }
        }
        let listen = listen.ok_or_else(|| err("missing 'listen'"))?;
        if backends.is_empty() {
            return Err(err("at least one 'backend' is required"));
        }
        let mut cfg = ProxyConfig::new(listen, backends);
        cfg.metrics = metrics;
        if let Some(n) = eject_after {
            cfg.eject_after = n;
        }
        if let Some(n) = io_threads {
            cfg.io_threads = n;
        }
        cfg.backend_send_buffer = backend_send_buffer.filter(|&n| n > 0);
        let get = |k: &str, d: Duration| ms.get(k).map_or(d, |&v| Duration::from_millis(v));
        cfg.sample_interval = get("sample", cfg.sample_interval);
        cfg.connect_timeout = get("connect", cfg.connect_timeout);
        cfg.forward_timeout = get("forward", cfg.forward_timeout);
        cfg.probe_interval = get("probe", cfg.probe_interval);
        cfg.drain_timeout = get("drain", cfg.drain_timeout);
        if autoscale_on {
            if auto.low_watermark > auto.high_watermark {
                return Err(err("autoscale_low above autoscale_high"));
            }
            if auto.min_width > cfg.backends.len() {
                return Err(err(format!(
                    "autoscale_min_backends {} exceeds the {} configured backends",
                    auto.min_width,
                    cfg.backends.len()
                )));
            }
            cfg.autoscale = Some(auto);
        }
        Ok(cfg)
    }

    /// Reads and parses a config file.
    ///
    /// # Errors
    ///
    /// I/O failures and parse errors both surface as [`ConfigError`].
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(format!("reading {}: {e}", path.display())))?;
        Self::parse(&text)
    }
}

/// Polls a config file for content changes (hot reload). The watcher
/// compares raw file contents, not mtimes — editors and CI steps that
/// rewrite a file within one timestamp granule still trigger a reload.
#[derive(Debug)]
pub struct ConfigWatcher {
    path: PathBuf,
    last_contents: String,
}

impl ConfigWatcher {
    /// Starts watching `path`, treating `initial` as the already-applied
    /// contents (so the first poll only fires on a real change).
    #[must_use]
    pub fn new(path: PathBuf, initial: String) -> Self {
        ConfigWatcher {
            path,
            last_contents: initial,
        }
    }

    /// Re-reads the file; returns the parsed config when the contents
    /// changed and parse cleanly. Unreadable or invalid contents are
    /// reported on stderr and skipped — a half-written reload must never
    /// take the proxy down.
    pub fn poll(&mut self) -> Option<ProxyConfig> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "streambal-proxy: reload: cannot read {}: {e}",
                    self.path.display()
                );
                return None;
            }
        };
        if text == self.last_contents {
            return None;
        }
        match ProxyConfig::parse(&text) {
            Ok(cfg) => {
                self.last_contents = text;
                Some(cfg)
            }
            Err(e) => {
                eprintln!("streambal-proxy: reload: keeping previous config: {e}",);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment
listen 127.0.0.1:7100
metrics 127.0.0.1:7190   # inline comment
backend 127.0.0.1:7101
backend 127.0.0.1:7102
sample_interval_ms 50
eject_after 2
";

    #[test]
    fn parses_the_documented_format() {
        let cfg = ProxyConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.listen, "127.0.0.1:7100".parse().unwrap());
        assert_eq!(cfg.metrics, Some("127.0.0.1:7190".parse().unwrap()));
        assert_eq!(cfg.backends.len(), 2);
        assert_eq!(cfg.sample_interval, Duration::from_millis(50));
        assert_eq!(cfg.eject_after, 2);
        assert_eq!(cfg.forward_timeout, Duration::from_millis(1000), "default");
    }

    #[test]
    fn parses_autoscale_keys_into_an_autoscaler_config() {
        let cfg = ProxyConfig::parse(
            "listen 127.0.0.1:7100\n\
             backend 127.0.0.1:7101\n\
             backend 127.0.0.1:7102\n\
             autoscale on\n\
             autoscale_high 0.2\n\
             autoscale_low 0.01\n\
             autoscale_confirm 2\n\
             autoscale_cooldown 6\n\
             autoscale_max_step 1\n\
             autoscale_min_backends 1\n",
        )
        .unwrap();
        let auto = cfg.autoscale.expect("autoscale on");
        assert!((auto.high_watermark - 0.2).abs() < 1e-12);
        assert!((auto.low_watermark - 0.01).abs() < 1e-12);
        assert_eq!(auto.confirm_rounds, 2);
        assert_eq!(auto.cooldown_rounds, 6);
        assert_eq!(auto.max_step, 1);
        assert_eq!(auto.min_width, 1);

        // Off (and absent) keep the fixed-width behaviour.
        let off =
            ProxyConfig::parse("listen 127.0.0.1:7100\nbackend 127.0.0.1:7101\nautoscale off\n")
                .unwrap();
        assert_eq!(off.autoscale, None);
        assert_eq!(ProxyConfig::parse(SAMPLE).unwrap().autoscale, None);

        // Bad values are named, and constraints are cross-checked.
        assert!(
            ProxyConfig::parse("listen 1.2.3.4:1\nbackend 1.2.3.4:2\nautoscale maybe")
                .unwrap_err()
                .message
                .contains("'on' or 'off'")
        );
        assert!(
            ProxyConfig::parse("listen 1.2.3.4:1\nbackend 1.2.3.4:2\nautoscale_high 1.5")
                .unwrap_err()
                .message
                .contains("[0, 1]")
        );
        assert!(ProxyConfig::parse(
            "listen 1.2.3.4:1\nbackend 1.2.3.4:2\nautoscale on\nautoscale_min_backends 3"
        )
        .unwrap_err()
        .message
        .contains("exceeds"));
        assert!(ProxyConfig::parse(
            "listen 1.2.3.4:1\nbackend 1.2.3.4:2\nautoscale on\nautoscale_low 0.5\nautoscale_high 0.1"
        )
        .unwrap_err()
        .message
        .contains("autoscale_low above autoscale_high"));
    }

    #[test]
    fn parses_io_threads_and_backend_buffer_keys() {
        let base = "listen 127.0.0.1:7100\nbackend 127.0.0.1:7101\n";
        let cfg = ProxyConfig::parse(base).unwrap();
        assert_eq!(cfg.io_threads, 1);
        assert_eq!(cfg.backend_send_buffer, None);

        let cfg = ProxyConfig::parse(&format!(
            "{base}io_threads 4\nbackend_send_buffer_bytes 8192\n"
        ))
        .unwrap();
        assert_eq!(cfg.io_threads, 4);
        assert_eq!(cfg.backend_send_buffer, Some(8192));

        let cfg = ProxyConfig::parse(&format!("{base}backend_send_buffer_bytes 0\n")).unwrap();
        assert_eq!(cfg.backend_send_buffer, None, "0 means kernel default");
    }

    #[test]
    fn rejects_unknown_keys_missing_listen_and_empty_backends() {
        assert!(
            ProxyConfig::parse("listen 1.2.3.4:1\nbackend 1.2.3.4:2\nbogus 1")
                .unwrap_err()
                .message
                .contains("unknown key")
        );
        assert!(ProxyConfig::parse("backend 1.2.3.4:2")
            .unwrap_err()
            .message
            .contains("listen"));
        assert!(ProxyConfig::parse("listen 1.2.3.4:1")
            .unwrap_err()
            .message
            .contains("backend"));
    }

    #[test]
    fn watcher_fires_once_per_content_change_and_survives_bad_contents() {
        let path = std::env::temp_dir().join(format!(
            "streambal-proxy-cfg-test-{}.conf",
            std::process::id()
        ));
        std::fs::write(&path, SAMPLE).unwrap();
        let mut w = ConfigWatcher::new(path.clone(), SAMPLE.to_owned());
        assert!(w.poll().is_none(), "unchanged contents do not fire");
        let grown = format!("{SAMPLE}backend 127.0.0.1:7103\n");
        std::fs::write(&path, &grown).unwrap();
        let cfg = w.poll().expect("change fires");
        assert_eq!(cfg.backends.len(), 3);
        assert!(w.poll().is_none(), "applied contents do not re-fire");
        std::fs::write(&path, "listen nonsense").unwrap();
        assert!(w.poll().is_none(), "invalid contents are skipped");
        std::fs::write(&path, SAMPLE).unwrap();
        assert!(
            w.poll().is_some(),
            "recovery fires against the last GOOD contents"
        );
        std::fs::remove_file(&path).ok();
    }
}
