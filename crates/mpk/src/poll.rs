//! Readiness waiting for the socket backend: a binding of `ppoll(2)`, the
//! one foreign call — and the one `unsafe` block — in the product crates.
//!
//! `std` has no way to wait on several sockets at once, and the workspace
//! has no registry access (so no `libc`/`mio`); `std` already links the C
//! library, so declaring the symbol adds no dependency. `ppoll` rather
//! than `poll` because its timeout is a `timespec`: receive deadlines
//! keep nanosecond resolution instead of rounding to milliseconds.

use std::ffi::{c_int, c_long, c_ulong, c_void};
use std::os::fd::RawFd;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("mpk::poll binds ppoll(2) with the 64-bit Linux `struct timespec` layout only");

/// Data may be read without blocking (also set on EOF).
pub(crate) const POLLIN: i16 = 0x001;
/// Data may be written without blocking.
pub(crate) const POLLOUT: i16 = 0x004;

/// `struct pollfd`: one descriptor to watch, the events asked for, and
/// the events the kernel reported.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// True if the last [`wait_ready`] reported anything for this
    /// descriptor: a requested event, or `POLLHUP`/`POLLERR`/`POLLNVAL`,
    /// which the kernel reports unasked and which the next `read` or
    /// `write` turns into the matching EOF or error.
    pub(crate) fn is_ready(&self) -> bool {
        self.revents != 0
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Block until a descriptor in `fds` is ready or `timeout` elapses
/// (`None` waits indefinitely, zero polls), and return how many are ready.
/// An interrupted or failed call reads as "nothing ready" — callers loop
/// on their own deadline — and leaves [`PollFd::is_ready`] as it was, so
/// consult it only after a non-zero return.
pub(crate) fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) -> usize {
    let ts = timeout.map(|d| Timespec {
        tv_sec: c_long::try_from(d.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(d.subsec_nanos()),
    });
    let ts_ptr = ts.as_ref().map_or(std::ptr::null(), std::ptr::from_ref);
    // SAFETY: `fds` is an exclusive borrow of `fds.len()` initialised
    // `#[repr(C)]` `pollfd`s that outlives the call, and the kernel writes
    // only their `revents` fields. `ts_ptr` is null or points at `ts`,
    // which lives until the end of this function and holds
    // `0 <= tv_nsec < 1e9`. A null `sigmask` leaves the signal mask alone.
    // Descriptor numbers need not be open: the kernel answers a closed one
    // with `POLLNVAL`, not with undefined behaviour.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            ts_ptr,
            std::ptr::null(),
        )
    };
    usize::try_from(n).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn empty_set_sleeps_for_the_timeout_with_sub_millisecond_resolution() {
        let t0 = Instant::now();
        assert_eq!(wait_ready(&mut [], Some(Duration::from_micros(300))), 0);
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_micros(300), "returned early");
        assert!(waited < Duration::from_millis(100), "slept {waited:?}");
    }

    #[test]
    fn readable_writable_and_hung_up_descriptors_are_reported() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        assert_eq!(wait_ready(&mut fds, Some(Duration::ZERO)), 0);
        assert!(!fds[0].is_ready());

        b.write_all(&[7]).unwrap();
        assert_eq!(wait_ready(&mut fds, None), 1);
        assert!(fds[0].is_ready());

        let mut out = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        assert_eq!(wait_ready(&mut out, Some(Duration::ZERO)), 1);

        // A closed peer is "ready" (the read returns EOF), asked for or not.
        drop(b);
        let mut hup = [PollFd::new(a.as_raw_fd(), 0)];
        assert_eq!(wait_ready(&mut hup, None), 1);
        assert!(hup[0].is_ready());
    }
}
