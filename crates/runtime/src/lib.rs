//! # streambal-runtime
//!
//! A real multi-threaded mini streaming runtime: OS threads for the
//! splitter, the worker PEs and the in-order merger, connected by the
//! instrumented bounded channels of [`streambal_transport`], with a control
//! thread that samples genuine wall-clock blocking times and drives
//! [`streambal_core::LoadBalancer`].
//!
//! Where `streambal-sim` reproduces the paper's evaluation
//! deterministically, this crate demonstrates the same machinery against
//! real scheduler noise: tuples cost real *integer multiplies* (the paper's
//! workload), external load is a per-worker cost multiplier that can change
//! mid-run, and the splitter's blocking is measured exactly as in §3.
//! With [`Transport::Tcp`] the splitter→worker links are real loopback TCP
//! sockets instead, so the kernel's own socket buffers provide the
//! back-pressure and the blocking signal.
//!
//! # One skeleton, two regions
//!
//! The ordered-region protocol is written once, in the `ordered` module.
//! The splitter never holds a lock across a send; a resize reaches it
//! through the hub — *open the slot, then widen; narrow, then close*:
//!
//! ```text
//!              ┌──── hub (one mutex): weights · opened links · keep · draining ────┐
//!   install_weights / open_slot / close_slot            adopt links, pick up weights
//!              │                                                                   ▼
//!   controller: CounterPlane under         source ──► splitter: stamp seq, WRR pick,
//!   ControlPlane::run_threaded                        send_recording on links it owns
//!              │ make_slot(j)                             │ Link    │ Link    │ Link
//!              ▼                                          ▼         ▼         ▼
//!   Slot { link, worker, load }                        worker    worker    worker
//!                                                         └── (seq, item) ───┘
//!                                                                   ▼
//!                                                 merge: Reorder, release by seq ──► sink
//! ```
//!
//! | region | source | link | worker | sink |
//! |---|---|---|---|---|
//! | [`region`] | `0..total` | per [`Transport`]: `transport::Sender`, or framed `TcpSender` | spin × live load, scripted stall | count, on the caller |
//! | `dataflow::Flow::parallel` | upstream channel | `transport::Sender` | the replica's operator | downstream channel, on a merger thread |
//!
//! # Example
//!
//! ```
//! use streambal_runtime::region::RegionBuilder;
//!
//! // Two workers; worker 0 is 20x slower. Process 20k tuples.
//! let report = RegionBuilder::new(2)
//!     .tuple_cost(2_000)
//!     .initial_load(0, 20.0)
//!     .sample_interval_ms(25)
//!     .run(20_000)
//!     .unwrap();
//! assert!(report.in_order);
//! assert_eq!(report.delivered, 20_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod ordered;
pub mod region;
mod tcp_region;
pub mod workload;

pub use region::{RegionBuilder, RegionReport, Transport};
