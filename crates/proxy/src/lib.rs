//! # streambal-proxy
//!
//! A deployable TCP ingress load balancer driven by the blocking-rate
//! controller (the paper's §3 balancer, aimed at real sockets instead of
//! in-process channels).
//!
//! Clients speak the workspace's length-prefixed frame protocol
//! ([`streambal_transport::frame`]) to one listening address; each request is forwarded to a backend chosen by
//! smooth WRR over the weights the [`streambal_control::ControlPlane`]
//! installs. The per-backend signal is the same one the paper's regions
//! use: cumulative blocked-write time (socket writability) on the
//! proxy→backend connections, one [`streambal_transport::BlockingCounter`]
//! per backend, which the control plane samples as a first difference.
//! The control plane owns the round lifecycle unchanged — the proxy is "just" a
//! [`streambal_control::DataPlane`] whose slots are backends.
//!
//! On top of the balancer the proxy layers the operational pieces a real
//! ingress needs:
//!
//! - **Health checking** — consecutive forward failures eject a backend
//!   ([`pool::Backend::record_failure`]); the control plane detaches it
//!   (weight → 0, renormalized away) via the `slot_healthy` hook; shard
//!   0 re-admits it after a successful nonblocking connect probe, with
//!   doubling backoff.
//! - **Skip-and-retry** — a failed forward retries on the next healthy
//!   backend (skip-list), so one dead backend costs latency, not errors.
//! - **Hot reload** — the config file is polled; added backends map onto
//!   region grow, removed ones onto detach + tail shrink.
//! - **Graceful drain** — shutdown stops accepting, lets in-flight
//!   requests finish within a budget, then stops the threads.
//! - **`/metrics`** — Prometheus text exposition of the shared registry
//!   (controller weights and blocking rates included).
//!
//! One data plane implements all of the above: `poll_core` multiplexes
//! every socket on `io_threads` readiness-polled event-loop threads, each
//! accepting for itself and waiting only in its own poller, and derives
//! blocked-send time from `EPOLLOUT`-wait spans.
//!
//! See `docs/PROXY.md` for the operational guide and `examples/proxy.conf`
//! for the config format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod echo;
pub mod metrics;
pub(crate) mod poll_core;
pub mod pool;
pub mod server;

pub use config::{ConfigError, ConfigWatcher, ProxyConfig};
pub use echo::{run_load, run_load_stats, scrape, EchoBackend, EchoOptions, LoadReport, LoadStats};
pub use pool::{Backend, BackendPool, ReloadDiff};
pub use server::{DrainReport, Proxy, ProxyHandle, ProxyOptions};
pub use streambal_transport::frame::{FrameReader, FrameWriter, Poll, WriteStatus, MAX_FRAME};
