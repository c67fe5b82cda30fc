//! # streambal-sim
//!
//! A deterministic **discrete-event simulator** of an ordered data-parallel
//! region in a distributed streaming system — the experimental substrate for
//! reproducing the paper's evaluation.
//!
//! The simulated region mirrors the paper's Figure 3:
//!
//! ```text
//!             ┌─ conn 0 ─ queue ─▶ worker 0 ─ merge queue 0 ─┐
//! splitter ───┼─ conn 1 ─ queue ─▶ worker 1 ─ merge queue 1 ─┼─▶ merger ─▶ sink
//!             └─ conn 2 ─ queue ─▶ worker 2 ─ merge queue 2 ─┘
//! ```
//!
//! - The **splitter** is a single thread of control: it assigns global
//!   sequence numbers, routes each tuple by smooth weighted round-robin, and
//!   *blocks* when a connection's bounded buffer is full — charging the
//!   blocked time to that connection's cumulative counter, exactly where
//!   the paper measures.
//! - **Workers** process one tuple at a time; service time is
//!   `base_cost × mult_ns × load_factor(t) / effective_host_speed`, where
//!   the [host model](host) captures heterogeneous speeds, SMT thread
//!   counts and oversubscription.
//! - The **merger** releases tuples strictly in sequence order from bounded
//!   per-connection reorder queues; a full reorder queue stalls its worker.
//!   This makes the region's throughput gate on its slowest member
//!   (back-pressure) and produces the paper's *drafting* phenomenon at the
//!   splitter.
//!
//! Balancing behaviour is pluggable via [`policy::Policy`]: naive
//! round-robin, fixed splits, oracle weight schedules, the transport-level
//! rerouting baseline of §4.4, and the paper's model-based balancer
//! ([`policy::BalancerPolicy`] wrapping [`streambal_core::LoadBalancer`]).
//!
//! # Quick example
//!
//! ```
//! use streambal_sim::config::{RegionConfig, StopCondition};
//! use streambal_sim::policy::BalancerPolicy;
//! use streambal_core::BalancerConfig;
//!
//! // 2 workers; worker 0 is 10x slower. Run 20 simulated seconds.
//! let cfg = RegionConfig::builder(2)
//!     .base_cost(1_000)
//!     .worker_load(0, 10.0)
//!     .stop(StopCondition::Duration(20_000_000_000))
//!     .build()
//!     .unwrap();
//! let mut policy = BalancerPolicy::adaptive(BalancerConfig::builder(2).build().unwrap());
//! let result = streambal_sim::run(&cfg, &mut policy).unwrap();
//! let last = result.samples.last().unwrap();
//! assert!(last.weights[0] < last.weights[1]); // slow worker got less
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod driver;
pub mod engine;
pub mod host;
pub mod load;
pub mod metrics;
pub mod multi;
pub mod policy;

pub use chaos::{ChaosPlan, FaultKind, Sabotage, TimedFault};
pub use config::{RegionConfig, StopCondition};
pub use engine::{run, run_chaos};
pub use host::Host;
pub use load::LoadSchedule;
pub use metrics::RunResult;
pub use policy::{BalancerPolicy, FixedPolicy, Policy, PolicySample, RoundRobinPolicy};
pub use streambal_telemetry::RoundSnapshot;

/// Nanoseconds in one simulated second.
pub const SECOND_NS: u64 = 1_000_000_000;
