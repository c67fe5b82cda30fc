//! # streambal-dataflow
//!
//! An SPL-style mini dataflow framework — the substrate the paper's system
//! (IBM Streams) provides: applications are graphs of **operators**
//! connected by **streams** of **tuples**; chains of operators expose
//! pipeline parallelism, forked branches expose task parallelism, and
//! replicated stateless operators form **ordered data-parallel regions**
//! whose splitter runs the blocking-rate load balancer of
//! [`streambal_core`].
//!
//! Each stage executes as its own PE (an OS thread); stages are connected
//! by the bounded, blocking-time-instrumented channels of
//! [`streambal_transport`], so back-pressure propagates exactly as in the
//! paper's transport and every stage boundary reports how long its
//! producer spent blocked.
//!
//! # Example
//!
//! ```
//! use streambal_dataflow::{source, ParallelConfig, RangeSource};
//!
//! // Source -> x2 -> 3-way ordered parallel region -> filter -> count.
//! let (count, report) = source(RangeSource::new(0..10_000))
//!     .map(|x: u64| x * 2)
//!     .parallel(
//!         ParallelConfig::new(3),
//!         || |x: u64| x.wrapping_mul(2_654_435_761) >> 3,
//!     )
//!     .filter(|&x| x % 3 != 0)
//!     .count()
//!     .unwrap();
//! assert!(count > 0 && count <= 10_000);
//! assert!(report.stages.len() >= 4);
//! ```
//!
//! [`Flow::parallel`] is the ordered-region skeleton of `streambal-runtime`
//! (its crate docs draw the splitter / hub / controller / merger diagram)
//! with this crate's parts plugged in: the source is the upstream channel,
//! the links are instrumented channels, a worker runs one replica of the
//! operator, and a merger thread releases into the downstream channel.
//! [`Flow::parallel_keyed`] pins routing by key hash and shares the worker
//! loop and the merger thread.
//!
//! The parallel region preserves **sequential semantics**: tuples leave it
//! in exactly the order they entered, whatever the relative speeds of the
//! replicas (verified by the `ordering_holds_under_*` tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod keyed;
mod region;
mod report;
mod source;
mod window;

pub use flow::{source, Flow, FlowError};
pub use region::ParallelConfig;
pub use report::{FlowReport, RoundSnapshot, StageStats};
pub use source::{IterSource, RangeSource, Source};
