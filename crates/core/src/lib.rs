//! # streambal-core
//!
//! Core algorithms for **dynamic load balancing of ordered data-parallel
//! regions** in distributed streaming systems, reproducing Schneider et al.,
//! *"Dynamic Load Balancing for Ordered Data-Parallel Regions in Distributed
//! Streaming Systems"* (MIDDLEWARE 2016).
//!
//! A data-parallel region replicates a stateless operator across N workers.
//! A *splitter* routes tuples to workers over per-worker connections and an
//! in-order *merger* restores sequential semantics at the region's exit.
//! Because of the merge, per-connection throughput carries no information
//! (back-pressure equalizes it); the only useful local signal is each
//! connection's **blocking rate** — the fraction of time the splitter spends
//! blocked in `send` on that connection.
//!
//! This crate turns that sparse signal into allocation weights:
//!
//! 1. [`function::BlockingRateFunction`] — per-connection predictive model
//!    `F_j(w_j)` over discrete allocation weights, built from smoothed raw
//!    samples, [monotone regression](pava) and linear interpolation.
//! 2. [`solver`] — the exact solver for the minimax separable resource
//!    allocation problem `min max_j F_j(w_j)` s.t. `Σ w_j = R`,
//!    `m_j ≤ w_j ≤ M_j`: [`solver::fox`], Fox's greedy.
//! 3. [`cluster`] — knee-based distance and agglomerative clustering to pool
//!    data across connections when N is large.
//! 4. [`controller::LoadBalancer`] — the control loop tying it all together,
//!    including the 10%-per-round *exploration decay* of the adaptive mode.
//!
//! # Quick example
//!
//! ```
//! use streambal_core::controller::{BalancerConfig, LoadBalancer};
//! use streambal_core::rate::ConnectionSample;
//!
//! let mut lb = LoadBalancer::new(BalancerConfig::builder(3).build().unwrap());
//! // Connection 0 is overloaded: it reports a high blocking rate.
//! let w0 = lb.weights().units()[0];
//! lb.observe(&[ConnectionSample::new(0, 0.9)]);
//! lb.rebalance();
//! assert!(lb.weights().units()[0] < w0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod controller;
pub mod function;
pub mod pava;
pub mod rate;
pub mod rng;
pub mod solver;
pub mod weights;

pub use controller::{BalancerConfig, BalancerMode, InvariantViolation, LoadBalancer};
pub use function::BlockingRateFunction;
pub use rate::{BlockingRate, ConnectionSample};
pub use rng::SplitMix64;
pub use weights::{WeightVector, WrrScheduler, DEFAULT_RESOLUTION};

/// The smallest blocking-rate value distinguishable from zero.
///
/// This is the `δ` of the paper: the value introduced "when we need to force
/// monotonicity", also used to floor arguments of logarithms in the
/// clustering distance. With the default resolution `R = 1000` this makes the
/// paper's scaling factor `α = log R / |log(Rδ)| = 1`.
pub const DELTA: f64 = 1e-6;
