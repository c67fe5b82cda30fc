//! Poller churn properties: registration/deregistration cycles leak no
//! file descriptors, a socket parked at [`Interest::NONE`] never
//! livelocks the wait loop (even with unread data or a half-closed
//! peer — the state the echo backend and the load generators park
//! connections in), and a re-arm delivers its event. Seeded with the
//! in-repo [`SplitMix64`]; every case reproduces by re-running.
//!
//! The leak check counts the whole process's fds, so every test here
//! holds [`SOCKETS`] while it has sockets open: a test running alongside
//! would otherwise move the count.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use streambal_core::SplitMix64;
use streambal_transport::poll::{Interest, Poller};

const SEED: u64 = 0xC0DE_90CC;

/// Held by each test for as long as it opens or closes sockets.
static SOCKETS: Mutex<()> = Mutex::new(());

fn exclusive_sockets() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock must not fail the others.
    SOCKETS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
    let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (b, _) = listener.accept().unwrap();
    a.set_nonblocking(true).unwrap();
    b.set_nonblocking(true).unwrap();
    (a, b)
}

/// Open fds of this process (Linux). `None` elsewhere — the leak check
/// is skipped but the churn itself still runs.
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd").ok().map(|d| d.count())
}

#[test]
fn registration_churn_leaks_no_fds_and_keeps_the_poller_consistent() {
    let _sockets = exclusive_sockets();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut rng = SplitMix64::new(SEED);
    let mut poller = Poller::new().unwrap();
    // Warm up allocators and fd tables before taking the baseline.
    let warm = pair(&listener);
    drop(warm);
    let baseline = open_fds();

    let mut events = Vec::new();
    for round in 0..50 {
        let live: Vec<(TcpStream, TcpStream)> = (0..rng.range_usize(1, 8))
            .map(|_| pair(&listener))
            .collect();
        for (i, (_, b)) in live.iter().enumerate() {
            let fd = b.as_raw_fd();
            match rng.below(4) {
                0 => poller.register(fd, i, Interest::READABLE).unwrap(),
                1 => poller.register(fd, i, Interest::WRITABLE).unwrap(),
                2 => poller.register(fd, i, Interest::NONE).unwrap(),
                _ => poller.register_edge(fd, i).unwrap(),
            }
        }
        assert_eq!(poller.registered(), live.len(), "round {round}");
        // Random token remaps mid-flight: events must carry the
        // *current* token, never a stale one.
        for (i, (_, b)) in live.iter().enumerate() {
            if rng.chance(0.5) {
                poller
                    .reregister(b.as_raw_fd(), 100 + i, Interest::READABLE)
                    .unwrap();
            }
        }
        let _ = poller
            .wait(&mut events, Some(Duration::from_millis(1)))
            .unwrap();
        for ev in &events {
            assert!(
                ev.token < live.len() || (100..100 + live.len()).contains(&ev.token),
                "round {round}: stale token {}",
                ev.token
            );
        }
        for (_, b) in &live {
            poller.deregister(b.as_raw_fd()).unwrap();
        }
        assert_eq!(poller.registered(), 0, "round {round}");
    }
    if let (Some(before), Some(after)) = (baseline, open_fds()) {
        assert_eq!(before, after, "fd leak across churn");
    }
}

#[test]
fn interest_none_with_pending_data_or_half_close_never_wakes() {
    let _sockets = exclusive_sockets();
    let mut poller = Poller::new().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (mut a, b) = pair(&listener);
    poller.register(b.as_raw_fd(), 3, Interest::NONE).unwrap();

    // Unread data alone must not produce events at Interest::NONE — the
    // echo backend and the load generators park sockets this way.
    a.write_all(b"pending").unwrap();
    let mut events = Vec::new();
    for _ in 0..5 {
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "pending data woke an Interest::NONE socket");
    }

    // A half-closed peer (FIN received) must not either: EPOLLRDHUP
    // may only be armed alongside read interest, else a parked
    // socket level-triggers a busy loop.
    a.shutdown(std::net::Shutdown::Write).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    for _ in 0..5 {
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "half-close woke an Interest::NONE socket");
    }

    // Re-arming read interest delivers everything that was parked:
    // the buffered bytes and the FIN.
    poller
        .reregister(b.as_raw_fd(), 4, Interest::READABLE)
        .unwrap();
    let n = poller
        .wait(&mut events, Some(Duration::from_secs(2)))
        .unwrap();
    assert_eq!(n, 1, "re-arm delivered nothing");
    assert_eq!(events[0].token, 4);
    assert!(events[0].readable);
    poller.deregister(b.as_raw_fd()).unwrap();
}
