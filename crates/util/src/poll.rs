//! Dependency-free readiness polling: the substrate for `habf-serve`'s
//! reactor event loop.
//!
//! Like the mmap shim in [`crate::store`], this module talks to the
//! kernel directly instead of pulling in `libc`/`mio` (the workspace
//! builds in an offline container):
//!
//! * **Linux x86_64/aarch64** — `epoll_create1(2)` / `epoll_ctl(2)` /
//!   `epoll_pwait(2)` via the shared raw-syscall shim. Level-triggered,
//!   which is what the serve reactor's fairness bound relies on: data
//!   left unread in a socket re-reports on the next wakeup.
//! * **other Unix** — `poll(2)` through the C ABI (std already links
//!   libc there); the [`Poller`] keeps its own fd registry and rebuilds
//!   the pollfd array per wait.
//!
//! The module exists on unix targets only, and so does the serve
//! reactor built on it.
//!
//! The API is deliberately tiny — register / modify / deregister an fd
//! with a `u64` token, then `wait` for [`Event`]s — and level-triggered
//! on every backend, so callers can treat readiness as a hint and rely
//! on `WouldBlock` from nonblocking sockets for the truth.

use std::io;
use std::time::Duration;

/// A raw file descriptor (`c_int` on every supported platform), as a
/// plain `i32` alias so the API is identical on both backends.
pub type RawFd = i32;

/// Which readiness directions a registration asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has data to read, or the read side reached EOF/error —
    /// callers should `read` and let `Ok(0)` / `Err` disambiguate.
    pub readable: bool,
    /// The fd can accept writes (also set on error so a pending write
    /// attempt surfaces the failure instead of waiting forever).
    pub writable: bool,
    /// The peer hung up or the fd errored.
    pub hangup: bool,
}

/// A level-triggered readiness poller over raw fds.
///
/// Not `Sync`: each reactor worker owns one `Poller` outright, which is
/// exactly the sharded-by-fd design the serve loop wants.
pub struct Poller {
    inner: imp::Inner,
}

impl Poller {
    /// Creates a new poller instance.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: imp::Inner::new()?,
        })
    }

    /// Starts watching `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`] (closing a registered fd is harmless on
    /// epoll but leaks a registry slot on the `poll(2)` backend).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Replaces the token/interest of an already-registered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait forever), then fills `events` with the
    /// ready set and returns its size. A signal interruption reports as
    /// `Ok(0)` — callers already treat an empty wakeup as a timeout
    /// tick.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        self.inner.wait(events, timeout)
    }
}

/// Clamps an optional timeout into the millisecond `c_int` the kernel
/// interfaces take (`-1` = infinite). Rounds zero-but-nonempty timeouts
/// up to 1ms so a short timeout cannot spin.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = i32::try_from(d.as_millis()).unwrap_or(i32::MAX);
            if ms == 0 && d.as_nanos() > 0 {
                1
            } else {
                ms
            }
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    //! epoll backend over the shared raw-syscall shim.

    use super::{timeout_ms, Event, Interest, RawFd};
    use crate::sys;
    use std::io;
    use std::time::Duration;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const CLOSE: usize = 57;
    }

    const EPOLL_CLOEXEC: usize = 0x8_0000; // O_CLOEXEC
    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Kernel-ABI `struct epoll_event`: packed on x86_64 (the kernel
    /// declares it `__attribute__((packed))` there), naturally aligned
    /// on aarch64.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// How many kernel events one `epoll_pwait` call can deliver; more
    /// simply arrive on the next wakeup (level-triggered).
    const WAIT_CAPACITY: usize = 1024;

    pub(super) struct Inner {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Inner {
        pub(super) fn new() -> io::Result<Inner> {
            // SAFETY: epoll_create1 takes a flags word and no pointers.
            let ret = unsafe { sys::syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
            let epfd = sys::check(ret)?;
            Ok(Inner {
                epfd: epfd as i32,
                buf: vec![EpollEvent { events: 0, data: 0 }; WAIT_CAPACITY],
            })
        }

        fn ctl(&self, op: usize, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events, data };
            // SAFETY: `ev` is a live, properly laid out epoll_event for
            // the duration of the call; fd and epfd are owned open fds.
            let ret = unsafe {
                sys::syscall6(
                    nr::EPOLL_CTL,
                    self.epfd as usize,
                    op,
                    fd as usize,
                    core::ptr::addr_of_mut!(ev) as usize,
                    0,
                    0,
                )
            };
            sys::check(ret).map(|_| ())
        }

        pub(super) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, flags_of(interest), token)
        }

        pub(super) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, flags_of(interest), token)
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            // A non-null (ignored) event pointer keeps pre-2.6.9 kernel
            // semantics satisfied.
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let ms = timeout_ms(timeout);
            // SAFETY: buf is a live array of WAIT_CAPACITY epoll_events;
            // the sigmask pointer is NULL (arg 5 = 0), under which the
            // kernel ignores the sigsetsize argument.
            let ret = unsafe {
                sys::syscall6(
                    nr::EPOLL_PWAIT,
                    self.epfd as usize,
                    self.buf.as_mut_ptr() as usize,
                    self.buf.len(),
                    ms as isize as usize,
                    0,
                    8,
                )
            };
            let n = match sys::check(ret) {
                Ok(n) => n.unsigned_abs(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for slot in self.buf.iter().take(n) {
                // Copy out of the (possibly packed) struct by value.
                let bits = { slot.events };
                let data = { slot.data };
                events.push(Event {
                    token: data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                    hangup: bits & (EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(events.len())
        }
    }

    impl Drop for Inner {
        fn drop(&mut self) {
            // SAFETY: epfd is an fd this struct owns; close takes no
            // pointers.
            let _ = unsafe { sys::syscall6(nr::CLOSE, self.epfd as usize, 0, 0, 0, 0, 0) };
        }
    }

    fn flags_of(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

#[cfg(all(
    unix,
    not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
))]
mod imp {
    //! `poll(2)` backend for other Unix targets: std links libc there,
    //! so the C ABI declaration resolves without adding a dependency.

    use super::{timeout_ms, Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    // `nfds_t` is `unsigned long` on Linux and `unsigned int` elsewhere;
    // this arm only compiles on non-(x86_64/aarch64) Linux and the BSDs.
    #[cfg(target_os = "linux")]
    type NFds = usize;
    #[cfg(not(target_os = "linux"))]
    type NFds = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    pub(super) struct Inner {
        registry: Vec<(RawFd, u64, Interest)>,
        fds: Vec<PollFd>,
    }

    impl Inner {
        pub(super) fn new() -> io::Result<Inner> {
            Ok(Inner {
                registry: Vec::new(),
                fds: Vec::new(),
            })
        }

        pub(super) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            if self.registry.iter().any(|&(f, _, _)| f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.registry.push((fd, token, interest));
            Ok(())
        }

        pub(super) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            for slot in &mut self.registry {
                if slot.0 == fd {
                    slot.1 = token;
                    slot.2 = interest;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let before = self.registry.len();
            self.registry.retain(|&(f, _, _)| f != fd);
            if self.registry.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            self.fds.clear();
            for &(fd, _, interest) in &self.registry {
                let mut bits = 0i16;
                if interest.readable {
                    bits |= POLLIN;
                }
                if interest.writable {
                    bits |= POLLOUT;
                }
                self.fds.push(PollFd {
                    fd,
                    events: bits,
                    revents: 0,
                });
            }
            let nfds = NFds::try_from(self.fds.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many fds"))?;
            // SAFETY: fds points at a live array of `nfds` pollfd structs
            // for the duration of the call.
            let ret = unsafe { poll(self.fds.as_mut_ptr(), nfds, timeout_ms(timeout)) };
            if ret < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for (slot, &(_, token, _)) in self.fds.iter().zip(&self.registry) {
                let bits = slot.revents;
                if bits == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
                    hangup: bits & (POLLHUP | POLLERR) != 0,
                });
            }
            Ok(events.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn fresh_socket_is_writable_not_readable() {
        let (a, _b) = pair();
        let mut poller = Poller::new().expect("poller");
        poller
            .register(a.as_raw_fd(), 7, Interest::BOTH)
            .expect("register");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].writable);
        assert!(!events[0].readable);
    }

    #[test]
    fn becomes_readable_after_peer_write_and_stays_level_triggered() {
        let (a, mut b) = pair();
        let mut poller = Poller::new().expect("poller");
        poller
            .register(a.as_raw_fd(), 42, Interest::READABLE)
            .expect("register");
        b.write_all(b"ping").expect("write");
        let mut events = Vec::new();
        for _ in 0..2 {
            // Unread data must re-report on every wait (level-triggered).
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(n, 1);
            assert_eq!(events[0].token, 42);
            assert!(events[0].readable);
        }
        let mut buf = [0u8; 8];
        let mut a_read = &a;
        let n = a_read.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn timeout_elapses_with_no_events() {
        let (a, _b) = pair();
        let mut poller = Poller::new().expect("poller");
        poller
            .register(a.as_raw_fd(), 1, Interest::READABLE)
            .expect("register");
        let start = Instant::now();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .expect("wait");
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn modify_and_deregister_change_the_ready_set() {
        let (a, mut b) = pair();
        let mut poller = Poller::new().expect("poller");
        poller
            .register(a.as_raw_fd(), 3, Interest::READABLE)
            .expect("register");
        b.write_all(b"x").expect("write");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(events.len(), 1);

        // Narrow to write interest: pending unread data stops waking us
        // (the socket's write buffer is empty, so writable fires alone).
        poller
            .modify(a.as_raw_fd(), 4, Interest::WRITABLE)
            .expect("modify");
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 4);
        assert!(events[0].writable && !events[0].readable);

        poller.deregister(a.as_raw_fd()).expect("deregister");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn hangup_reports_as_readable() {
        let (a, b) = pair();
        let mut poller = Poller::new().expect("poller");
        poller
            .register(a.as_raw_fd(), 9, Interest::READABLE)
            .expect("register");
        drop(b);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1);
        assert!(events[0].readable, "EOF must surface as readable");
    }
}
