//! Readiness for event loops, with zero external dependencies: one blocking
//! `poll(2)` call over a set the caller rebuilds before every wait
//! ([`wait`]), and a cross-thread wakeup ([`wake_pair`]).
//!
//! `std` already links libc, so `poll` is declared here directly; it is the
//! one foreign call. The caller lists its fds afresh from its own tables each
//! time, so there is no registry to keep in step with them and no fd can stay
//! watched after it is closed.
//!
//! Level-triggered: an fd that is readable keeps reporting readable until
//! drained, which keeps the consuming loop simple (no starvation bookkeeping
//! on short reads). There is no `POLLRDHUP` (Linux-only): a peer's hang-up
//! reads as readable on an fd watched for reading, and one that is not is
//! noticed when it is next written or read.

use std::io;
use std::os::raw::{c_int, c_short};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// C's `nfds_t`: `unsigned long` in glibc and musl, `unsigned int` on Apple
/// and the BSDs.
#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

// The same values on Linux, macOS and the BSDs.
const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// What to watch an fd for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// What one [`wait`] saw on one fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Readable, hung up or failed: the next read returns data, EOF or the
    /// error.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Hang-up or error; the owner should read to completion and close.
    pub closed: bool,
}

/// One entry of a readiness set, laid out as C's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `interest`. Hang-up and error are reported whatever
    /// the interest, even none.
    pub fn new(fd: RawFd, interest: Interest) -> PollFd {
        let read = if interest.read { POLLIN } else { 0 };
        let write = if interest.write { POLLOUT } else { 0 };
        PollFd {
            fd,
            events: read | write,
            revents: 0,
        }
    }

    /// What the last [`wait`] over this entry saw; `None` for nothing.
    pub fn event(&self) -> Option<Event> {
        let r = self.revents;
        (r != 0).then_some(Event {
            readable: r & (POLLIN | POLLHUP | POLLERR) != 0,
            writable: r & POLLOUT != 0,
            closed: r & (POLLHUP | POLLERR) != 0,
        })
    }
}

/// Blocks until an fd of `fds` is ready or the timeout elapses (`None` =
/// forever), then records on every entry what it saw ([`PollFd::event`]).
/// Returns how many entries saw something (0 = timeout).
///
/// # Errors
///
/// The underlying `poll` failure. `EINTR` is retried with the full timeout
/// (coarse, but callers wait on periodic deadlines anyway).
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = match timeout {
        None => -1,
        // Round up, so a nonzero budget never busy-spins as 0 ms.
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int,
    };
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd`s and `nfds` is at most its length, so the kernel
        // reads and writes only inside it, and only during the call.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Cross-thread wakeup for a [`wait`] loop: `wake()` makes the paired
/// [`WakeReceiver`] readable. Built on a nonblocking `UnixStream` pair so it
/// works on every Unix without extra syscall surface.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Makes the paired receiver readable. Never blocks: a full pipe means a
    /// wakeup is already pending, which is all a level-triggered loop needs.
    pub fn wake(&self) {
        use std::io::Write;
        match (&self.tx).write(&[1u8]) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => {} // receiver gone: the loop has exited
        }
    }

    /// Clones the waker for another producer thread.
    ///
    /// # Errors
    ///
    /// The underlying fd duplication failure.
    pub fn try_clone(&self) -> io::Result<Waker> {
        Ok(Waker {
            tx: self.tx.try_clone()?,
        })
    }
}

/// The readable end of a [`Waker`]; watch `as_raw_fd()` for reading and
/// [`WakeReceiver::drain`] it when it fires.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: UnixStream,
}

impl WakeReceiver {
    /// The fd to watch for reading.
    pub fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes all pending wakeup bytes (level-triggered reset).
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Creates a connected waker pair, both ends nonblocking.
///
/// # Errors
///
/// Socket-pair creation or `set_nonblocking` failure.
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    const SHORT: Option<Duration> = Some(Duration::from_secs(5));
    const BRIEF: Option<Duration> = Some(Duration::from_millis(10));

    /// A connected loopback pair: `(peer, accepted)`, the accepted end
    /// nonblocking.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();
        (peer, sock)
    }

    /// One wait over one fd.
    fn wait_one(fd: RawFd, interest: Interest, timeout: Option<Duration>) -> Option<Event> {
        let mut set = [PollFd::new(fd, interest)];
        let n = wait(&mut set, timeout).unwrap();
        assert_eq!(n, usize::from(set[0].event().is_some()));
        set[0].event()
    }

    #[test]
    fn readable_once_the_peer_writes() {
        let (mut peer, mut sock) = tcp_pair();
        assert_eq!(wait_one(sock.as_raw_fd(), Interest::READ, BRIEF), None);

        peer.write_all(b"ping").unwrap();
        let ev = wait_one(sock.as_raw_fd(), Interest::READ, SHORT).expect("readable");
        assert!(ev.readable && !ev.writable && !ev.closed, "{ev:?}");
        let mut buf = [0u8; 8];
        assert_eq!(sock.read(&mut buf).unwrap(), 4);
    }

    #[test]
    fn a_fresh_socket_is_writable() {
        let (_peer, sock) = tcp_pair();
        let both = Interest {
            read: true,
            write: true,
        };
        let ev = wait_one(sock.as_raw_fd(), both, SHORT).expect("writable");
        assert!(ev.writable && !ev.readable, "{ev:?}");
    }

    #[test]
    fn hangup_reads_as_readable() {
        let (peer, mut sock) = tcp_pair();
        drop(peer);
        let ev = wait_one(sock.as_raw_fd(), Interest::READ, SHORT).expect("hang-up");
        assert!(ev.readable, "a hang-up must surface as readable (EOF)");
        assert_eq!(sock.read(&mut [0u8; 1]).unwrap(), 0);
    }

    #[test]
    fn interest_switches_between_waits() {
        let (mut peer, sock) = tcp_pair();
        peer.write_all(b"x").unwrap();
        let write_only = Interest {
            read: false,
            write: true,
        };
        // Pending input does not wake a wait that is not watching for it.
        let ev = wait_one(sock.as_raw_fd(), write_only, SHORT).expect("writable");
        assert!(ev.writable && !ev.readable, "{ev:?}");
        let ev = wait_one(sock.as_raw_fd(), Interest::READ, SHORT).expect("readable");
        assert!(ev.readable && !ev.writable, "{ev:?}");
    }

    #[test]
    fn a_timeout_only_wait_sleeps_its_budget() {
        let start = Instant::now();
        assert_eq!(wait(&mut [], Some(Duration::from_millis(30))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn one_wait_reports_more_than_64_ready_fds() {
        const N: usize = 100;
        let mut pairs: Vec<_> = (0..N).map(|_| UnixStream::pair().unwrap()).collect();
        for (tx, _) in &mut pairs {
            tx.write_all(b"!").unwrap();
        }
        let mut set: Vec<PollFd> = pairs
            .iter()
            .map(|(_, rx)| PollFd::new(rx.as_raw_fd(), Interest::READ))
            .collect();
        assert_eq!(wait(&mut set, SHORT).unwrap(), N);
        assert!(set.iter().all(|p| p.event().is_some_and(|e| e.readable)));
    }

    #[test]
    fn waker_crosses_threads_and_drains() {
        let (waker, receiver) = wake_pair().unwrap();
        let handle = std::thread::spawn(move || {
            // Multiple wakes collapse into one readable fd.
            waker.wake();
            waker.wake();
            waker.try_clone().unwrap().wake();
            waker // keep the pipe open: dropping it would read as EOF
        });
        let ev = wait_one(receiver.as_raw_fd(), Interest::READ, SHORT);
        assert!(ev.is_some_and(|e| e.readable));
        let _waker = handle.join().unwrap();

        receiver.drain();
        assert_eq!(
            wait_one(receiver.as_raw_fd(), Interest::READ, BRIEF),
            None,
            "a drained receiver must go quiet"
        );
    }
}
