//! The spool doorbell: wake the always-on loop when a minute lands.
//!
//! [`SpoolWatch`] puts a Linux inotify watch on the spool directory and
//! uses it only to cut the idle wait between scan rounds short. It never
//! says *what* arrived: after a wake-up the loop scans, and the
//! scanner's directory listing stays the only source of truth. Coalesced
//! events, a queue overflow (`IN_Q_OVERFLOW`) and events for `.tmp`
//! names therefore cannot lose or invent a file; the worst they do is
//! cost one scan that finds nothing new. Queued events are drained
//! unread.
//!
//! The watch is made before the loop's first scan, so an arrival that
//! lands between a listing and the next wait is already queued and that
//! wait returns at once. Where no watch can be made (another OS or
//! architecture, the inotify instance or watch limits, a path with a NUL
//! byte) [`SpoolWatch::wait`] is a plain sleep, and the daemon says so
//! once. Either way the caller's timeout bounds every wait: retry
//! deadlines and the stop flag are only looked at between waits.

use std::fs::File;
use std::io;
use std::path::Path;
use std::time::Duration;

pub(crate) struct SpoolWatch {
    /// The inotify instance; `None` means every wait is a sleep.
    inotify: Option<File>,
}

impl SpoolWatch {
    /// Watch `spool` for files renamed in or closed after writing.
    pub(crate) fn new(spool: &Path) -> SpoolWatch {
        let inotify = match sys::watch(spool) {
            Ok(f) => Some(f),
            Err(e) => {
                obs::log_warn!(
                    "ingest",
                    "no arrival watch on {} ({e}); scanning every poll interval",
                    spool.display()
                );
                None
            }
        };
        SpoolWatch { inotify }
    }

    /// Return once something lands in the spool or `timeout` passes,
    /// whichever is first.
    pub(crate) fn wait(&self, timeout: Duration) {
        if let Some(inotify) = &self.inotify {
            match sys::wait(inotify, timeout) {
                // A signal ends the wait early too: the loop looks at
                // its stop flag and scans, as after any wake-up.
                Ok(()) => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return,
                Err(_) => {}
            }
        }
        std::thread::sleep(timeout);
    }
}

#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
mod sys {
    use std::ffi::{c_char, c_int, c_long, c_ulong, c_void, CString};
    use std::fs::File;
    use std::io::{self, Read};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;
    use std::time::Duration;

    // <sys/inotify.h> and <poll.h> in the generic Linux ABI these 64-bit
    // targets share (`time_t` is `long`).
    const IN_NONBLOCK: c_int = 0o4000;
    const IN_CLOEXEC: c_int = 0o2000000;
    const IN_CLOSE_WRITE: u32 = 0x08;
    const IN_MOVED_TO: u32 = 0x80;
    const POLLIN: i16 = 0x1;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn inotify_init1(flags: c_int) -> c_int;
        fn inotify_add_watch(fd: c_int, path: *const c_char, mask: u32) -> c_int;
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    pub(super) fn watch(dir: &Path) -> io::Result<File> {
        let path = CString::new(dir.as_os_str().as_bytes())?;
        // SAFETY: `inotify_init1` takes no pointers and has no
        // preconditions.
        let fd = unsafe { inotify_init1(IN_NONBLOCK | IN_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a descriptor the kernel just opened for this
        // call and nothing else owns; the `File` closes it, error paths
        // included.
        let inotify = unsafe { File::from_raw_fd(fd) };
        // SAFETY: `path` is NUL-terminated and outlives the call; the
        // descriptor is live for as long as `inotify` is.
        let wd = unsafe {
            inotify_add_watch(
                inotify.as_raw_fd(),
                path.as_ptr(),
                IN_MOVED_TO | IN_CLOSE_WRITE,
            )
        };
        if wd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(inotify)
    }

    /// Block until `inotify` has events or `timeout` passes, then drain
    /// whatever is queued without parsing it.
    pub(super) fn wait(inotify: &File, timeout: Duration) -> io::Result<()> {
        let mut pfd = PollFd {
            fd: inotify.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `pfd` and `ts` are live locals with the C layout for
        // the whole call, `nfds` is 1, and a null signal mask leaves the
        // thread's mask alone.
        let ready = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        if ready < 0 {
            return Err(io::Error::last_os_error());
        }
        // Non-blocking: reads stop at `WouldBlock` once the queue is
        // empty. 4 KiB holds at least one event with a maximal name.
        let mut buf = [0u8; 4096];
        let mut reader = inotify;
        while matches!(reader.read(&mut buf), Ok(n) if n > 0) {}
        Ok(())
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
)))]
mod sys {
    use std::fs::File;
    use std::io;
    use std::path::Path;
    use std::time::Duration;

    pub(super) fn watch(_dir: &Path) -> io::Result<File> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "arrival watches need Linux inotify",
        ))
    }

    pub(super) fn wait(_inotify: &File, timeout: Duration) -> io::Result<()> {
        std::thread::sleep(timeout);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::Instant;

    fn fresh_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dassa-watch-{tag}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Write `name` beside `spool` and rename it in, the way a producer
    /// delivers a minute.
    fn deliver(spool: &Path, name: &str) {
        let staged = spool.with_extension("staging");
        std::fs::create_dir_all(&staged).unwrap();
        std::fs::write(staged.join(name), b"minute").unwrap();
        std::fs::rename(staged.join(name), spool.join(name)).unwrap();
    }

    fn timed(f: impl FnOnce()) -> Duration {
        let t0 = Instant::now();
        f();
        t0.elapsed()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_rename_wakes_a_long_wait() {
        let spool = fresh_dir("wake");
        let watch = SpoolWatch::new(&spool);
        assert!(watch.inotify.is_some(), "inotify is available on Linux");
        let took = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(100));
                deliver(&spool, "a.dasf");
            });
            timed(|| watch.wait(Duration::from_secs(10)))
        });
        assert!(took < Duration::from_secs(1), "woke after {took:?}");
        assert!(spool.join("a.dasf").exists());
    }

    #[test]
    fn a_quiet_spool_waits_out_the_timeout() {
        let spool = fresh_dir("quiet");
        let watch = SpoolWatch::new(&spool);
        // A file written next to the spool is not in it.
        std::fs::write(spool.with_extension("beside"), b"minute").unwrap();
        let took = timed(|| watch.wait(Duration::from_millis(50)));
        assert!(took >= Duration::from_millis(50), "returned after {took:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn an_arrival_between_waits_is_not_lost() {
        let spool = fresh_dir("between");
        let watch = SpoolWatch::new(&spool);
        // Lands while nobody waits: the next wait finds it queued.
        deliver(&spool, "b.dasf");
        let took = timed(|| watch.wait(Duration::from_secs(10)));
        assert!(took < Duration::from_secs(1), "woke after {took:?}");
        // That wait drained the queue: the one after sleeps again.
        let took = timed(|| watch.wait(Duration::from_millis(50)));
        assert!(took >= Duration::from_millis(50), "returned after {took:?}");
    }

    #[test]
    fn an_unwatchable_path_falls_back_to_sleeping() {
        let missing = fresh_dir("missing").join("not-there");
        let nul = PathBuf::from("spool\0with-a-nul");
        for path in [missing, nul] {
            let watch = SpoolWatch::new(&path);
            assert!(watch.inotify.is_none(), "{path:?}");
            let took = timed(|| watch.wait(Duration::from_millis(50)));
            assert!(took >= Duration::from_millis(50), "{path:?}: {took:?}");
        }
    }
}
