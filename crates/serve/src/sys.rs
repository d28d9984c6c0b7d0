//! Readiness polling for the event-loop core: a zero-dependency
//! `poll(2)` wrapper.
//!
//! The crate vendors nothing, so the syscall is declared directly with
//! `extern "C"`. The [`Poller`] is level-triggered: register a file
//! descriptor with a caller-chosen `u64` token, then [`Poller::wait`]
//! reports which tokens are readable/writable. Each wait costs time in
//! the number of registered descriptors, not the number that are ready.

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// What a registration wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable.
    pub read: bool,
    /// Wake when the descriptor is writable.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
    /// Neither — the descriptor stays registered but silent (hangups
    /// are still reported; they cannot be masked).
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    /// The descriptor is readable (or at EOF).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// Peer hangup or descriptor error; the owner should drain reads
    /// and close.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
type NFds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::ffi::c_uint;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
}

fn poll_events(interest: Interest) -> c_short {
    let mut events = 0;
    if interest.read {
        events |= POLLIN;
    }
    if interest.write {
        events |= POLLOUT;
    }
    events
}

/// A readiness poller: the `pollfd` array every wait hands to the
/// kernel, with the token of each entry beside it.
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<PollFd>,
    tokens: Vec<u64>,
}

impl Poller {
    /// An empty poller.
    pub fn new() -> Poller {
        Poller::default()
    }

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|slot| slot.fd == fd)
    }

    /// Starts watching `fd`, reporting events with `token`.
    ///
    /// # Errors
    ///
    /// Fails when `fd` is already registered.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.fds.push(PollFd {
            fd,
            events: poll_events(interest),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    /// Changes what an already-registered `fd` is watched for.
    ///
    /// # Errors
    ///
    /// Fails when `fd` was never registered.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let i = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds[i].events = poll_events(interest);
        self.tokens[i] = token;
        Ok(())
    }

    /// Stops watching `fd`. Removing an unknown descriptor is a no-op —
    /// close paths call this unconditionally.
    pub fn deregister(&mut self, fd: RawFd) {
        if let Some(i) = self.position(fd) {
            self.fds.remove(i);
            self.tokens.remove(i);
        }
    }

    /// Blocks until readiness or `timeout`, appending reports to
    /// `events` (cleared first). A `None` timeout blocks indefinitely.
    ///
    /// # Errors
    ///
    /// Propagates `poll` failures other than `EINTR` (which retries).
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(c_int::MAX as u128) as c_int,
        };
        let n = loop {
            // SAFETY: `fds` is a live, correctly-sized pollfd array for
            // the duration of the call; the kernel writes only the
            // `revents` fields.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NFds, timeout_ms) };
            if n >= 0 {
                break n;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if n == 0 {
            return Ok(());
        }
        for (slot, &token) in self.fds.iter().zip(&self.tokens) {
            if slot.revents == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: slot.revents & (POLLIN | POLLHUP) != 0,
                writable: slot.revents & POLLOUT != 0,
                hangup: slot.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_round_trip() {
        let mut poller = Poller::new();
        let (mut a, mut b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing to read yet: a short wait reports no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "spurious event");

        a.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1, "expected one event");
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 1);

        // Write interest on an empty socket buffer fires at once.
        poller.modify(b.as_raw_fd(), 7, Interest::WRITE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.writable),
            "expected writable"
        );

        // Peer hangup surfaces as readable EOF and/or hangup.
        poller.modify(b.as_raw_fd(), 7, Interest::READ).unwrap();
        drop(a);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.readable || e.hangup),
            "expected EOF readiness"
        );
        poller.deregister(b.as_raw_fd());
        poller.deregister(b.as_raw_fd()); // double-remove is a no-op
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let (_a, b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        assert!(poller.register(b.as_raw_fd(), 2, Interest::READ).is_err());
    }
}
