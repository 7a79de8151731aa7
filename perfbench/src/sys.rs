//! Process resource readings: CPU time and page faults from `getrusage`,
//! resident memory from `/proc/self/status`.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// Linux `struct rusage` (every field after the two timevals is a `long`).
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawUsage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_THREAD: c_int = 1;

/// A snapshot of `getrusage` for the whole process or the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU time.
    pub user: Duration,
    /// System (kernel) CPU time.
    pub sys: Duration,
    /// Minor page faults.
    pub minflt: u64,
}

impl Usage {
    fn read(who: c_int) -> Usage {
        let mut raw = RawUsage::default();
        // SAFETY: `raw` is a valid, writable `struct rusage` with the Linux
        // layout, and `who` is RUSAGE_SELF or RUSAGE_THREAD, both supported.
        let rc = unsafe { getrusage(who, &mut raw) };
        assert_eq!(rc, 0, "getrusage failed");
        let tv = |t: &Timeval| Duration::new(t.sec as u64, (t.usec as u32) * 1000);
        Usage {
            user: tv(&raw.utime),
            sys: tv(&raw.stime),
            minflt: raw.minflt as u64,
        }
    }

    /// Usage of the whole process, every thread included.
    pub fn process() -> Usage {
        Usage::read(RUSAGE_SELF)
    }

    /// Usage of the calling thread.
    pub fn thread() -> Usage {
        Usage::read(RUSAGE_THREAD)
    }

    /// User plus system CPU time.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }

    /// The change from `earlier` to `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }
}

/// The current resident set size in bytes (`VmRSS`).
pub fn current_rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

/// The high-water resident set size in bytes (`VmHWM`). Unlike
/// `getrusage`'s `ru_maxrss`, which keeps the parent's peak across
/// `fork` and `execve`, this covers only the benchmark process itself.
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:") * 1024
}

fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"))
}
