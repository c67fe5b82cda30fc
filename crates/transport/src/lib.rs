//! # streambal-transport
//!
//! The data-transport substrate for streambal: bounded point-to-point
//! channels instrumented with per-connection **cumulative blocking time**.
//!
//! The paper's splitter measures blocking with a two-step protocol on TCP
//! sockets: a `send` with `MSG_DONTWAIT` that returns immediately when the
//! socket buffer is full, followed by an *elective* blocking `select` whose
//! duration is recorded. This crate reproduces that protocol over in-process
//! bounded channels:
//!
//! - [`chan::Sender::try_send`] is the `MSG_DONTWAIT` analogue — it never
//!   blocks and reports a full buffer.
//! - [`chan::Sender::send_recording`] elects to block when the buffer is
//!   full and adds the blocked duration to the connection's
//!   [`counters::BlockingCounter`].
//!
//! A [`counters::BlockingSampler`] turns the cumulative counter into
//! per-interval blocking rates exactly as the paper does: periodic samples,
//! first differences, divided by the interval.
//!
//! For full fidelity, [`tcp`] runs the same protocol over *real* loopback
//! TCP sockets — the kernel's socket buffers provide the back-pressure and
//! the blocking signal, exactly as in the paper's deployment. Every socket
//! in the workspace speaks one wire format, the I/O-free codec in
//! [`frame`]. At high
//! connection counts the [`poll`] module supplies the readiness substrate
//! (Linux `epoll`, dependency-free, level- or edge-triggered):
//! blocked-write time becomes "time spent with the socket unwritable",
//! measured from readiness transitions instead of sleep-loops, feeding
//! the same sampler contract.
//!
//! `unsafe` is denied crate-wide and allowed in exactly one place: the
//! [`poll`] module's thin syscall wrappers (readiness polling has no
//! std-only spelling). Everything else in the workspace stays safe code.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chan;
pub mod counters;
pub mod frame;
pub mod poll;
pub mod tcp;

pub use chan::{bounded, Receiver, RecvError, SendError, Sender, TryRecvError, TrySendError};
pub use counters::{BlockedSpan, BlockingCounter, BlockingSampler};
pub use poll::{Event, Interest, Poller};
