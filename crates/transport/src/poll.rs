//! Readiness polling without dependencies: a small event-loop substrate
//! over Linux `epoll` plus the socket plumbing an async data path needs
//! — non-blocking connect, one-shot readiness waits (`poll(2)` on one
//! fd), fd-limit and CPU-accounting helpers.
//!
//! A registration is either level-triggered with an [`Interest`]
//! ([`Poller::register`], changed by [`Poller::reregister`]) or
//! edge-triggered on everything ([`Poller::register_edge`]): the latter
//! is made once per socket and reports each readiness *transition* once,
//! so its owner reads until the socket drains and writes until
//! `WouldBlock`, then waits for the next edge.
//!
//! This is the measurement substrate for the paper's blocking signal at
//! high connection counts: instead of a thread sleeping in short bursts
//! while a socket is unwritable, one thread parks in the kernel and the
//! *readiness transition* (EPOLLOUT arriving) bounds the blocked-write
//! span charged to a [`BlockingCounter`](crate::BlockingCounter).
//!
//! The workspace is dependency-free, so the syscalls are declared here
//! directly against the C library the Rust standard library already
//! links. This is the one module in the workspace allowed to use
//! `unsafe` (the crate root is `#![deny(unsafe_code)]`); every wrapper
//! is a thin, safe API over one syscall.

#![allow(unsafe_code)]

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("streambal_transport::poll supports Linux only (epoll)");

/// Raw syscall declarations against the libc that std already links.
mod sys {
    #![allow(non_camel_case_types)]

    pub type c_int = i32;
    pub type c_uint = u32;
    pub type c_ulong = u64;
    pub type c_long = i64;

    /// `struct epoll_event`. x86-64 Linux declares it packed; other
    /// architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct timeval {
        pub tv_sec: c_long,
        pub tv_usec: c_long,
    }

    /// `struct rusage`: only the two leading timevals are read; the
    /// trailing `c_long` block keeps the size right for the syscall.
    #[repr(C)]
    pub struct rusage {
        pub ru_utime: timeval,
        pub ru_stime: timeval,
        pub pad: [c_long; 14],
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    /// IPv4 socket address in wire layout (port/addr big-endian).
    #[repr(C)]
    pub struct sockaddr_in {
        pub sin_family: u16,
        pub sin_port: [u8; 2],
        pub sin_addr: [u8; 4],
        pub sin_zero: [u8; 8],
    }

    /// IPv6 socket address in wire layout.
    #[repr(C)]
    pub struct sockaddr_in6 {
        pub sin6_family: u16,
        pub sin6_port: [u8; 2],
        pub sin6_flowinfo: u32,
        pub sin6_addr: [u8; 16],
        pub sin6_scope_id: u32,
    }

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;
    pub const EPOLL_CLOEXEC: c_int = 0x80000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    pub const AF_INET: c_int = 2;
    pub const AF_INET6: c_int = 10;
    pub const SOCK_STREAM: c_int = 1;
    pub const EINPROGRESS: c_int = 115;

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;
    pub const SO_RCVBUF: c_int = 8;

    pub const F_SETFD: c_int = 2;
    pub const FD_CLOEXEC: c_int = 1;

    pub const RLIMIT_NOFILE: c_int = 7;
    pub const RUSAGE_SELF: c_int = 0;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn poll(fds: *mut pollfd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn connect(fd: c_int, addr: *const u8, addrlen: c_uint) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_int,
            optlen: c_uint,
        ) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
        pub fn getrusage(who: c_int, usage: *mut rusage) -> c_int;
    }
}

/// Which readiness transitions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    read: bool,
    write: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        read: true,
        write: false,
    };
    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
    /// Neither — the fd stays registered but only error/hangup wake it.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };

    /// Whether readability is requested.
    #[must_use]
    pub fn is_readable(self) -> bool {
        self.read
    }

    /// Whether writability is requested.
    #[must_use]
    pub fn is_writable(self) -> bool {
        self.write
    }
}

/// One readiness event from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// The fd is readable (or has pending error/EOF to read out).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// Error or hangup: the peer closed or the socket failed. The next
    /// read/write surfaces the specific error.
    pub closed: bool,
    /// The peer shut down its sending half, or the connection hung up
    /// (`EPOLLRDHUP`/`EPOLLHUP`): reading ends in EOF or an error. An edge
    /// registration reports this once, possibly on the same event as the
    /// last data, so an owner that stops reading after a short read must
    /// remember it.
    pub read_closed: bool,
}

/// An `epoll` instance over raw fds.
///
/// Registration is by `RawFd` + caller token; the poller never owns the
/// fd (the caller's `TcpStream`/`TcpListener` keeps ownership) and a
/// registration must be [`deregister`](Self::deregister)ed before the fd
/// is closed.
pub struct Poller {
    epfd: RawFd,
    /// fd → token, for `registered()` and re-registration checks.
    fds: HashMap<RawFd, usize>,
    buf: Vec<sys::epoll_event>,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("registered", &self.registered())
            .finish()
    }
}

impl Poller {
    /// A new, empty `epoll` instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flag word and returns a new fd or
        // -1; no pointers are involved.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            fds: HashMap::new(),
            buf: Vec::new(),
        })
    }

    /// How many fds are currently registered.
    #[must_use]
    pub fn registered(&self) -> usize {
        self.fds.len()
    }

    /// Registers `fd` under `token`. Level-triggered: while the fd stays
    /// ready and the interest is set, every `wait` reports it.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` when the fd is already registered; propagates
    /// syscall failures.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.add(fd, token, epoll_mask(interest))
    }

    /// Registers `fd` under `token` for every readiness transition,
    /// edge-triggered: a `wait` reports the fd once per change (new
    /// bytes, freed send space, the peer's FIN, an error), not while it
    /// stays ready. The owner reads until the socket drains and writes
    /// until `WouldBlock`; the next edge says when to try again. Such a
    /// registration is made once and never re-registered.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` when the fd is already registered; propagates
    /// syscall failures.
    pub fn register_edge(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
        let all = epoll_mask(Interest::BOTH) | sys::EPOLLET;
        self.add(fd, token, all)
    }

    fn add(&mut self, fd: RawFd, token: usize, events: u32) -> io::Result<()> {
        if self.fds.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, events)?;
        self.fds.insert(fd, token);
        Ok(())
    }

    /// Updates the interest (and token) of a registered fd.
    ///
    /// # Errors
    ///
    /// `NotFound` when the fd is not registered; propagates syscall
    /// failures.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if !self.fds.contains_key(&fd) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        }
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, epoll_mask(interest))?;
        self.fds.insert(fd, token);
        Ok(())
    }

    /// Removes a registration. Must be called before the fd is closed.
    ///
    /// # Errors
    ///
    /// `NotFound` when the fd is not registered; propagates syscall
    /// failures.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        if self.fds.remove(&fd).is_none() {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        }
        // DEL ignores the event, but old kernels demand a non-null one.
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, token: usize, events: u32) -> io::Result<()> {
        let mut ev = sys::epoll_event {
            events,
            data: token as u64,
        };
        // SAFETY: `ev` is a valid epoll_event for the duration of the
        // call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// expires (`None` waits indefinitely). Ready fds are appended to
    /// `events` (cleared first); returns how many. A signal interruption
    /// reports zero events rather than an error.
    ///
    /// # Errors
    ///
    /// Propagates syscall failures other than `EINTR`.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let cap = self.fds.len().clamp(1, 1024);
        self.buf
            .resize(cap, sys::epoll_event { events: 0, data: 0 });
        // SAFETY: `buf` holds `cap` writable epoll_events; the kernel
        // fills at most `cap` of them.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                cap as i32,
                timeout_to_ms(timeout),
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        for ev in &self.buf[..n as usize] {
            let bits = ev.events;
            events.push(Event {
                token: ev.data as usize,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                read_closed: bits & (sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
            });
        }
        Ok(events.len())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd was returned by epoll_create1 and is closed exactly
        // once, here.
        unsafe { sys::close(self.epfd) };
    }
}

fn epoll_mask(interest: Interest) -> u32 {
    // RDHUP rides along with read interest only: a half-closed peer must
    // not level-trigger wakeups on a socket whose owner has read interest
    // off (a connection parked at `Interest::NONE`).
    let mut m = 0u32;
    if interest.is_readable() {
        m |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if interest.is_writable() {
        m |= sys::EPOLLOUT;
    }
    m
}

fn timeout_to_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            if t.is_zero() {
                0
            } else {
                // Round up so a 100µs timeout waits 1ms instead of spinning.
                i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX)
            }
        }
    }
}

/// Waits (one-shot, single fd) until `fd` is writable, has a pending
/// error, or `timeout` expires (`None` waits for as long as it takes).
/// Returns whether the fd became ready — `false` means the timeout
/// elapsed or a signal interrupted the wait. This is the
/// readiness-transition primitive the blocked-write measurement uses:
/// instead of sleeping in fixed slices while the kernel buffer is full,
/// the caller parks here and the wait span *is* the blocked span.
///
/// # Errors
///
/// Propagates `poll(2)` failures other than `EINTR`.
pub fn wait_writable(fd: &impl AsRawFd, timeout: Option<Duration>) -> io::Result<bool> {
    wait_ready(fd.as_raw_fd(), sys::POLLOUT, timeout)
}

/// Waits (one-shot, single fd) until `fd` is readable, closed, or
/// `timeout` expires. Returns whether the fd became ready.
///
/// # Errors
///
/// Propagates `poll(2)` failures other than `EINTR`.
pub fn wait_readable(fd: &impl AsRawFd, timeout: Duration) -> io::Result<bool> {
    wait_ready(fd.as_raw_fd(), sys::POLLIN, Some(timeout))
}

fn wait_ready(fd: RawFd, events: i16, timeout: Option<Duration>) -> io::Result<bool> {
    let mut pfd = sys::pollfd {
        fd,
        events,
        revents: 0,
    };
    // SAFETY: one valid pollfd for the duration of the call.
    let n = unsafe { sys::poll(&mut pfd, 1, timeout_to_ms(timeout)) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(false);
        }
        return Err(e);
    }
    Ok(n > 0)
}

/// Starts a TCP connect without blocking: the socket is created
/// non-blocking and `connect` returns immediately (`EINPROGRESS`).
/// Register the stream for writability; when it fires, call
/// [`connect_finished`] to learn the outcome. `TCP_NODELAY` is set.
///
/// # Errors
///
/// Propagates socket-creation failures and immediate connect errors
/// (e.g. no route).
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    let domain = match addr {
        SocketAddr::V4(_) => sys::AF_INET,
        SocketAddr::V6(_) => sys::AF_INET6,
    };
    // SAFETY: socket() takes three ints and returns an fd or -1.
    let fd = unsafe { sys::socket(domain, sys::SOCK_STREAM, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: fd was just returned by socket(); the TcpStream takes
    // ownership and closes it on drop (including every early return).
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    // SAFETY: F_SETFD with FD_CLOEXEC only flips the close-on-exec flag.
    unsafe { sys::fcntl(fd, sys::F_SETFD, sys::FD_CLOEXEC) };
    stream.set_nonblocking(true)?;
    let rc = match addr {
        SocketAddr::V4(v4) => {
            let sin = sys::sockaddr_in {
                sin_family: sys::AF_INET as u16,
                sin_port: v4.port().to_be_bytes(),
                sin_addr: v4.ip().octets(),
                sin_zero: [0; 8],
            };
            // SAFETY: `sin` is a valid sockaddr_in for the call; the
            // kernel copies it.
            unsafe {
                sys::connect(
                    fd,
                    (&sin as *const sys::sockaddr_in).cast(),
                    std::mem::size_of::<sys::sockaddr_in>() as u32,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let sin6 = sys::sockaddr_in6 {
                sin6_family: sys::AF_INET6 as u16,
                sin6_port: v6.port().to_be_bytes(),
                sin6_flowinfo: v6.flowinfo(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            // SAFETY: as above with a valid sockaddr_in6.
            unsafe {
                sys::connect(
                    fd,
                    (&sin6 as *const sys::sockaddr_in6).cast(),
                    std::mem::size_of::<sys::sockaddr_in6>() as u32,
                )
            }
        }
    };
    if rc != 0 {
        let e = io::Error::last_os_error();
        if e.raw_os_error() != Some(sys::EINPROGRESS) {
            return Err(e);
        }
    }
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Resolves a [`connect_nonblocking`] once its socket reported writable:
/// `Ok(true)` — connected; `Ok(false)` — still in progress (spurious
/// wakeup); `Err` — the connect failed (`SO_ERROR`).
///
/// # Errors
///
/// The connect failure (refused, unreachable, timed out), read out of
/// the socket's pending error slot.
pub fn connect_finished(stream: &TcpStream) -> io::Result<bool> {
    if let Some(e) = stream.take_error()? {
        return Err(e);
    }
    match stream.peer_addr() {
        Ok(_) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotConnected => Ok(false),
        Err(e) => Err(e),
    }
}

/// Shrinks (or grows) a socket's kernel send buffer. A small explicit
/// `SO_SNDBUF` disables the kernel's buffer autotuning — exactly what a
/// blocking-signal path wants, so back-pressure from a slow peer turns
/// into unwritable-socket time instead of megabytes of silent kernel
/// buffering.
///
/// # Errors
///
/// Propagates `setsockopt` failure.
pub fn set_send_buffer(sock: &impl AsRawFd, bytes: usize) -> io::Result<()> {
    set_buf(sock.as_raw_fd(), sys::SO_SNDBUF, bytes)
}

/// Shrinks (or grows) a socket's kernel receive buffer. On a listener,
/// accepted connections inherit it.
///
/// # Errors
///
/// Propagates `setsockopt` failure.
pub fn set_recv_buffer(sock: &impl AsRawFd, bytes: usize) -> io::Result<()> {
    set_buf(sock.as_raw_fd(), sys::SO_RCVBUF, bytes)
}

fn set_buf(fd: RawFd, opt: i32, bytes: usize) -> io::Result<()> {
    let val = i32::try_from(bytes).unwrap_or(i32::MAX);
    // SAFETY: optval points at one int; the kernel copies it.
    let rc = unsafe {
        sys::setsockopt(
            fd,
            sys::SOL_SOCKET,
            opt,
            &val,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The process's `RLIMIT_NOFILE` as `(soft, hard)`.
///
/// # Errors
///
/// Propagates `getrlimit` failure.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut lim = sys::rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a valid rlimit the kernel fills.
    let rc = unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((lim.rlim_cur, lim.rlim_max))
}

/// Best-effort raise of the soft `RLIMIT_NOFILE` toward `target`
/// (clamped to the hard limit). Returns the soft limit in effect after
/// the attempt — callers size their connection fleets from this, so an
/// unprivileged environment degrades instead of failing.
#[must_use]
pub fn raise_nofile_limit(target: u64) -> u64 {
    let Ok((soft, hard)) = nofile_limit() else {
        return 1024;
    };
    if soft >= target {
        return soft;
    }
    let want = target.min(hard);
    let lim = sys::rlimit {
        rlim_cur: want,
        rlim_max: hard,
    };
    // SAFETY: `lim` is a valid rlimit; the kernel copies it.
    let rc = unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &lim) };
    if rc < 0 {
        soft
    } else {
        want
    }
}

/// CPU time (user + system) this process has consumed, from
/// `getrusage(RUSAGE_SELF)`. The idle-proxy regression test budgets
/// this: an event-loop proxy with no traffic must burn ~no CPU.
#[must_use]
pub fn process_cpu_time() -> Duration {
    let mut usage = sys::rusage {
        ru_utime: sys::timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: sys::timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        pad: [0; 14],
    };
    // SAFETY: `usage` is a valid rusage the kernel fills.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut usage) };
    if rc < 0 {
        return Duration::ZERO;
    }
    let tv = |t: &sys::timeval| {
        Duration::from_secs(t.tv_sec.max(0) as u64) + Duration::from_micros(t.tv_usec.max(0) as u64)
    };
    tv(&usage.ru_utime) + tv(&usage.ru_stime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readable_event_fires_with_the_registered_token() {
        let mut poller = Poller::new().unwrap();
        let (mut a, mut b) = pair();
        poller
            .register(b.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: the wait times out with no events.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);

        a.write_all(b"x").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 1);
        poller.deregister(b.as_raw_fd()).unwrap();
        assert_eq!(poller.registered(), 0);
    }

    #[test]
    fn writability_interest_toggles_via_reregister() {
        let mut poller = Poller::new().unwrap();
        let (a, _b) = pair();
        poller.register(a.as_raw_fd(), 1, Interest::NONE).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "no interest, no events");
        poller
            .reregister(a.as_raw_fd(), 2, Interest::WRITABLE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 2);
        assert!(events[0].writable);
        poller.deregister(a.as_raw_fd()).unwrap();
    }

    /// One bounded wait that must report exactly one event, for `token`.
    fn one_event(poller: &mut Poller, token: usize) -> Event {
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1, "expected one event, got {events:?}");
        assert_eq!(events[0].token, token);
        events[0]
    }

    fn no_event(poller: &mut Poller) {
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "unexpected events {events:?}");
    }

    #[test]
    fn edge_registration_reports_unread_data_once_and_new_bytes_again() {
        let mut poller = Poller::new().unwrap();
        let (mut a, mut b) = pair();
        poller.register_edge(b.as_raw_fd(), 9).unwrap();
        // Registering reports the state at that moment: writable.
        assert!(one_event(&mut poller, 9).writable);
        no_event(&mut poller);

        a.write_all(b"x").unwrap();
        let ev = one_event(&mut poller, 9);
        assert!(ev.readable && !ev.read_closed && !ev.closed);
        // The byte is still unread, but the edge was reported.
        no_event(&mut poller);

        a.write_all(b"y").unwrap();
        assert!(one_event(&mut poller, 9).readable);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 2);

        a.shutdown(std::net::Shutdown::Write).unwrap();
        let ev = one_event(&mut poller, 9);
        assert!(ev.readable && ev.read_closed && !ev.closed);
        no_event(&mut poller);
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn edge_registration_reports_writable_after_the_peer_drains() {
        let mut poller = Poller::new().unwrap();
        let (mut a, mut b) = pair();
        set_send_buffer(&a, 4 * 1024).unwrap();
        poller.register_edge(a.as_raw_fd(), 4).unwrap();
        assert!(one_event(&mut poller, 4).writable);

        let chunk = [7u8; 1024];
        let mut sent = 0usize;
        loop {
            match a.write(&chunk) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("write: {e}"),
            }
            assert!(sent < 64 << 20, "the socket never blocked");
        }
        no_event(&mut poller);

        let mut got = 0usize;
        let mut buf = [0u8; 16 * 1024];
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while got < sent {
            assert!(std::time::Instant::now() < deadline, "peer drain stalled");
            match b.read(&mut buf) {
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::yield_now();
                }
                Err(e) => panic!("read: {e}"),
            }
        }
        let ev = one_event(&mut poller, 4);
        assert!(ev.writable && !ev.readable);
        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn nonblocking_connect_completes_against_a_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = connect_nonblocking(listener.local_addr().unwrap()).unwrap();
        assert!(wait_writable(&stream, Some(Duration::from_secs(2))).unwrap());
        assert!(connect_finished(&stream).unwrap());
    }

    #[test]
    fn nonblocking_connect_to_a_dead_port_reports_the_error() {
        // Bind-then-drop: the port was just free, connects are refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let stream = match connect_nonblocking(addr) {
            Err(_) => return, // refused synchronously: also correct
            Ok(s) => s,
        };
        assert!(wait_writable(&stream, Some(Duration::from_secs(2))).unwrap());
        assert!(connect_finished(&stream).is_err());
    }

    #[test]
    fn rlimit_and_rusage_helpers_answer() {
        let (soft, hard) = nofile_limit().unwrap();
        assert!(soft > 0 && hard >= soft);
        assert_eq!(raise_nofile_limit(soft), soft, "no-op raise keeps soft");
        // CPU time is monotone non-decreasing and non-zero for a test
        // process that has compiled and run this far.
        let a = process_cpu_time();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(x);
        let b = process_cpu_time();
        assert!(b >= a);
    }

    #[test]
    fn send_buffer_can_be_shrunk() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_send_buffer(&stream, 8 * 1024).unwrap();
        set_recv_buffer(&stream, 8 * 1024).unwrap();
    }
}
