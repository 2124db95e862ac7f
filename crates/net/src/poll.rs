//! Readiness polling over raw file descriptors — the single seam where
//! `dgs-net` talks to the OS below `std`'s blocking socket API.
//!
//! The registry is offline in the build container, so there is no `mio`
//! and no `libc` crate here: the handful of syscalls the event loop needs
//! are declared directly as a minimal FFI shim. One backend sits behind
//! [`Poller`]: **`poll(2)`** — portable across unix, O(n) per wakeup. The
//! registration table is a dense `pollfd` array plus a token→slot map, so
//! register/reregister/deregister are O(1). (`Poller`'s methods take the
//! fd as well as the token, so an O(ready) backend fits behind the same
//! API.)
//!
//! It is level-triggered: a socket with unread bytes (or writable
//! space) keeps reporting ready, so the event loop can stop reading
//! mid-buffer without losing a wakeup. Hangups and errors are folded into
//! *readability* — the owner's next `read` observes the EOF/error and
//! tears the connection down through the normal path.
//!
//! This module is the crate's entire `unsafe` budget (see `dgs-audit`'s
//! `unsafe-budget` scope): every block carries a `// SAFETY:` note, and
//! nothing above this file touches a raw pointer or syscall.

// The one sanctioned hole in the workspace-wide `unsafe_code = "deny"`
// wall (Cargo.toml): raw syscall FFI has no safe alternative on std
// alone. Policed by dgs-audit's unsafe-budget rule instead.
#![allow(unsafe_code)]

use std::io;
use std::time::Duration;

/// Raw file descriptor as the poller sees it.
#[cfg(unix)]
pub type Fd = std::os::unix::io::RawFd;
/// Raw file descriptor as the poller sees it (non-unix placeholder).
#[cfg(not(unix))]
pub type Fd = i32;

/// Caller-chosen identifier attached to a registration; delivered back in
/// every [`PollEvent`]. The event loop uses dense slab indices — the
/// `poll(2)` backend's token→slot map is a `Vec`, so sparse huge tokens
/// would waste memory.
pub type Token = usize;

/// Which readiness a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes (or a hangup/error) to read.
    pub readable: bool,
    /// Wake when the fd can accept more written bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Read + write interest — a connection with a non-empty write queue.
    pub const BOTH: Interest = Interest { readable: true, writable: true };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The registration's token.
    pub token: Token,
    /// Readable now (includes hangup/error — read to observe it).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
}

/// Readiness selector over registered file descriptors.
pub struct Poller {
    imp: imp::Backend,
}

impl Poller {
    /// Opens a poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { imp: imp::Backend::new()? })
    }

    /// Adds `fd` with `token` and `interest`. One registration per fd.
    pub fn register(&mut self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
        self.imp.register(fd, token, interest)
    }

    /// Replaces the interest of an existing registration.
    pub fn reregister(&mut self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
        self.imp.reregister(fd, token, interest)
    }

    /// Removes a registration. The fd may already be closed — errors from
    /// the OS about unknown fds are swallowed, since deregistration is
    /// part of teardown paths that must not fail.
    pub fn deregister(&mut self, fd: Fd, token: Token) {
        self.imp.deregister(fd, token);
    }

    /// Blocks until at least one registration is ready or `timeout`
    /// expires, appending reports to `events` (cleared first). A signal
    /// interruption returns an empty set rather than an error.
    pub fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.imp.wait(events, timeout_ms(timeout))
    }
}

/// Clamps a timeout to the `int` milliseconds the syscalls take
/// (`None` → infinite → `-1`).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => i32::try_from(d.as_millis()).unwrap_or(i32::MAX),
    }
}

// ---------------------------------------------------------------------------
// poll(2) backend — portable unix

#[cfg(unix)]
mod imp {
    use super::{Fd, Interest, PollEvent, Token};
    use std::io;
    use std::os::raw::{c_int, c_ulong};

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// Mirror of `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    fn events_for(interest: Interest) -> i16 {
        let mut ev = 0i16;
        if interest.readable {
            ev |= POLLIN;
        }
        if interest.writable {
            ev |= POLLOUT;
        }
        ev
    }

    /// Dense `pollfd` array + parallel token array + token→slot map.
    pub struct Backend {
        fds: Vec<PollFd>,
        tokens: Vec<Token>,
        /// `slot_of[token] == Some(i)` ⇔ `fds[i]`/`tokens[i]` is `token`.
        slot_of: Vec<Option<usize>>,
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            Ok(Backend { fds: Vec::new(), tokens: Vec::new(), slot_of: Vec::new() })
        }

        fn slot(&mut self, token: Token) -> &mut Option<usize> {
            if self.slot_of.len() <= token {
                self.slot_of.resize(token + 1, None);
            }
            &mut self.slot_of[token]
        }

        pub fn register(&mut self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
            if self.slot(token).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "token already registered",
                ));
            }
            let i = self.fds.len();
            self.fds.push(PollFd { fd, events: events_for(interest), revents: 0 });
            self.tokens.push(token);
            *self.slot(token) = Some(i);
            Ok(())
        }

        pub fn reregister(&mut self, _fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
            match self.slot_of.get(token).copied().flatten() {
                Some(i) => {
                    self.fds[i].events = events_for(interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "token not registered")),
            }
        }

        pub fn deregister(&mut self, _fd: Fd, token: Token) {
            let Some(i) = self.slot_of.get(token).copied().flatten() else { return };
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            self.slot_of[token] = None;
            // swap_remove moved the former tail (if any) into slot i; its
            // token→slot entry must follow it or it goes stale.
            if let Some(&moved) = self.tokens.get(i) {
                self.slot_of[moved] = Some(i);
            }
        }

        pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
            for f in &mut self.fds {
                f.revents = 0;
            }
            let nfds = self.fds.len() as c_ulong;
            // SAFETY: `fds` points at `self.fds.len()` initialised,
            // properly-laid-out (`repr(C)`) pollfd entries owned by this
            // Vec; the kernel writes only `revents` within that span.
            let n = unsafe { poll(self.fds.as_mut_ptr(), nfds, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            if n == 0 {
                return Ok(());
            }
            for (f, &token) in self.fds.iter().zip(&self.tokens) {
                let r = f.revents;
                if r == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token,
                    readable: r & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0,
                    writable: r & (POLLOUT | POLLERR) != 0,
                });
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// non-unix stub — keeps the crate compiling; the evented server reports
// the platform gap as an error instead of failing the build.

#[cfg(not(unix))]
mod imp {
    use super::{Fd, Interest, PollEvent, Token};
    use std::io;

    pub struct Backend;

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "evented io requires a unix poll(2) backend",
            ))
        }

        pub fn register(&mut self, _fd: Fd, _t: Token, _i: Interest) -> io::Result<()> {
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }

        pub fn reregister(&mut self, _fd: Fd, _t: Token, _i: Interest) -> io::Result<()> {
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }

        pub fn deregister(&mut self, _fd: Fd, _t: Token) {}

        pub fn wait(&mut self, _out: &mut Vec<PollEvent>, _ms: i32) -> io::Result<()> {
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    const TICK: Option<Duration> = Some(Duration::from_millis(500));

    /// A connected localhost socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn wait_for(
        poller: &mut Poller,
        events: &mut Vec<PollEvent>,
        pred: impl Fn(&PollEvent) -> bool,
    ) -> PollEvent {
        for _ in 0..20 {
            poller.wait(events, TICK).unwrap();
            if let Some(ev) = events.iter().find(|e| pred(e)) {
                return *ev;
            }
        }
        panic!("readiness never arrived");
    }

    #[test]
    fn accept_readiness_fires_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(listener.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing pending: a short wait returns empty.
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));
        let _client = TcpStream::connect(addr).unwrap();
        let ev = wait_for(&mut poller, &mut events, |e| e.token == 7 && e.readable);
        assert_eq!(ev.token, 7);
        listener.accept().unwrap();
    }

    #[test]
    fn read_and_write_interest_toggle() {
        let (mut a, b) = pair();
        let mut poller = Poller::new().unwrap();
        // A fresh socket is writable but not readable.
        poller.register(b.as_raw_fd(), 3, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        let ev = wait_for(&mut poller, &mut events, |e| e.token == 3 && e.writable);
        assert!(!ev.readable, "no bytes yet");
        // Narrow to read interest: now nothing is ready until bytes arrive.
        poller.reregister(b.as_raw_fd(), 3, Interest::READ).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "read-only interest with empty buffer: {events:?}");
        a.write_all(b"ping").unwrap();
        let ev = wait_for(&mut poller, &mut events, |e| e.token == 3 && e.readable);
        assert!(ev.readable);
        let mut buf = [0u8; 4];
        let mut b_read = &b;
        b_read.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn hangup_reports_readable() {
        let (a, b) = pair();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        let ev = wait_for(&mut poller, &mut events, |e| e.token == 1);
        assert!(ev.readable, "hangup must surface as readability: {ev:?}");
    }

    #[test]
    fn deregister_stops_reports_and_tolerates_closed_fds() {
        let (mut a, b) = pair();
        let fd = b.as_raw_fd();
        let mut poller = Poller::new().unwrap();
        poller.register(fd, 0, Interest::READ).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        wait_for(&mut poller, &mut events, |e| e.token == 0 && e.readable);
        poller.deregister(fd, 0);
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "deregistered fd still reported: {events:?}");
        // Double-deregister and deregister-after-close are teardown-path
        // no-ops, never errors.
        poller.deregister(fd, 0);
        drop(b);
        poller.deregister(fd, 0);
        // The poller survives for further registrations.
        let (_c, d) = pair();
        poller.register(d.as_raw_fd(), 2, Interest::BOTH).unwrap();
        wait_for(&mut poller, &mut events, |e| e.token == 2 && e.writable);
    }

    #[test]
    fn deregister_relinks_the_moved_tail_registration() {
        // Regression: the poll backend's deregister swap_removes slot i,
        // which moves the former *tail* registration into i — and
        // `swap_remove`'s return value is the removed element, not that
        // tail. The tail's token→slot entry must be re-pointed at i or
        // every later lookup for it is stale (out-of-bounds panics or
        // events delivered against the wrong connection).
        let (_a1, b1) = pair();
        let (_a2, b2) = pair();
        let (mut a3, b3) = pair();
        let mut poller = Poller::new().unwrap();
        poller.register(b1.as_raw_fd(), 0, Interest::READ).unwrap();
        poller.register(b2.as_raw_fd(), 1, Interest::READ).unwrap();
        poller.register(b3.as_raw_fd(), 2, Interest::READ).unwrap();
        // Remove the head: the tail (token 2) moves into its slot.
        poller.deregister(b1.as_raw_fd(), 0);
        // The moved registration stays fully operational under its token…
        poller.reregister(b3.as_raw_fd(), 2, Interest::READ).unwrap();
        a3.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let ev = wait_for(&mut poller, &mut events, |e| e.readable);
        assert_eq!(ev.token, 2, "readiness delivered against the wrong token");
        // …and tears down cleanly (the stale-slot bug panicked here).
        poller.deregister(b3.as_raw_fd(), 2);
        poller.deregister(b2.as_raw_fd(), 1);
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "deregistered fds still reported: {events:?}");
    }

    #[test]
    fn register_rejects_duplicate_tokens() {
        let (_a, b) = pair();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 5, Interest::READ).unwrap();
        assert!(poller.register(b.as_raw_fd(), 5, Interest::READ).is_err());
        assert!(poller.reregister(b.as_raw_fd(), 5, Interest::BOTH).is_ok());
    }
}
