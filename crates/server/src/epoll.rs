//! The three Linux epoll calls the readiness loop ([`crate::event_loop`])
//! is built on. This file holds the workspace's only non-test `unsafe`: the
//! `extern "C"` declarations, their call sites, and the adoption of the new
//! epoll descriptor into an [`OwnedFd`] so that it is closed on drop.
//!
//! Every registration is `EPOLLONESHOT`: an event disarms its descriptor
//! until the thread that took it calls [`Epoll::rearm`], so no two threads
//! ever handle one session at a time. An event carries the caller's `u64`
//! token; the loop packs a (slot, generation) pair into it, so an event
//! that was already taken when its session closed never reaches the
//! session that reuses the slot. Register only a descriptor the caller
//! owns, never one `try_clone`d from it: a duplicate keeps the registration
//! alive after the original closes.

use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd};
use std::time::Duration;

/// Readable (`EPOLLIN`).
pub(crate) const READABLE: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub(crate) const WRITABLE: u32 = 0x004;
const ONESHOT: u32 = 1 << 30;
const CLOEXEC: i32 = 0o2_000_000;
const CTL_ADD: i32 = 1;
const CTL_DEL: i32 = 2;
const CTL_MOD: i32 = 3;

/// `struct epoll_event`; the kernel packs it on x86_64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct Event {
    events: u32,
    data: u64,
}

impl Event {
    pub(crate) const EMPTY: Event = Event { events: 0, data: 0 };

    /// The token the descriptor was registered with.
    pub(crate) fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
}

/// An epoll set; closed when dropped.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers.
        let fd = check(unsafe { epoll_create1(CLOEXEC) })?;
        // SAFETY: `fd` is a fresh descriptor that nothing else owns.
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
    }

    /// Watch `fd` for `interest` (one-shot), reporting `token`.
    pub(crate) fn add(&self, fd: BorrowedFd<'_>, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(CTL_ADD, fd, Event { events: interest | ONESHOT, data: token })
    }

    /// Arm `fd` again after its one-shot event, for `interest`.
    pub(crate) fn rearm(&self, fd: BorrowedFd<'_>, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(CTL_MOD, fd, Event { events: interest | ONESHOT, data: token })
    }

    /// Stop watching `fd`.
    pub(crate) fn delete(&self, fd: BorrowedFd<'_>) -> io::Result<()> {
        self.ctl(CTL_DEL, fd, Event::EMPTY)
    }

    fn ctl(&self, op: i32, fd: BorrowedFd<'_>, mut event: Event) -> io::Result<()> {
        // SAFETY: `event` outlives the call, and the kernel only reads it.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd.as_raw_fd(), &mut event) }).map(drop)
    }

    /// Wait up to `timeout` (`None`: forever) for events; returns how many
    /// of `events` were filled. An interrupted wait is retried.
    pub(crate) fn wait(
        &self,
        events: &mut [Event],
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let timeout = timeout.map_or(-1, |t| i32::try_from(t.as_millis()).unwrap_or(i32::MAX));
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        loop {
            // SAFETY: the kernel writes at most `max` events into `events`,
            // which holds at least that many.
            match check(unsafe {
                epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout)
            }) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn one_shot_events_carry_their_token_and_wait_for_a_rearm() {
        let epoll = Epoll::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        epoll.add(rx.as_fd(), READABLE, 7 << 32 | 3).unwrap();
        let mut events = [Event::EMPTY; 4];
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);

        tx.write_all(b"x").unwrap();
        assert_eq!(epoll.wait(&mut events, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_eq!(events[0].token(), 7 << 32 | 3);
        // Still readable, but disarmed until rearmed.
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        epoll.rearm(rx.as_fd(), READABLE, 9).unwrap();
        assert_eq!(epoll.wait(&mut events, Some(Duration::ZERO)).unwrap(), 1);
        assert_eq!(events[0].token(), 9);

        epoll.delete(rx.as_fd()).unwrap();
        assert!(epoll.rearm(rx.as_fd(), READABLE, 9).is_err(), "deleted descriptors are gone");
    }
}
