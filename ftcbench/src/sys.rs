//! What the report stamps about the machine: core count, build profile,
//! peak resident memory and the filesystem under the work directory.
//!
//! The two system calls are declared here directly (the process links the
//! C library already), so the benchmark needs no `libc` dependency.

use std::ffi::CString;
use std::path::Path;

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The build profile, by whether debug assertions are compiled in.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn getrusage(who: i32, usage: *mut i64) -> i32;
    fn statfs(path: *const std::ffi::c_char, buf: *mut i64) -> i32;
}

/// Peak resident set size of the process in MB (`ru_maxrss`, the same
/// high-water mark as `VmHWM`).
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 words), then
    // `ru_maxrss` in KiB, then 14 more longs — 18 words in all.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of exactly the 144 bytes
    // `struct rusage` occupies; `RUSAGE_SELF` (0) is a valid `who`.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    if rc != 0 {
        return f64::NAN;
    }
    usage[4] as f64 * 1024.0 / 1e6
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

/// The type of the filesystem holding `path`, by its `statfs` magic.
#[cfg(target_os = "linux")]
pub fn fs_type(path: &Path) -> String {
    use std::os::unix::ffi::OsStrExt;
    let Ok(c_path) = CString::new(path.as_os_str().as_bytes()) else {
        return "unknown".into();
    };
    // `struct statfs` is 120 bytes on 64-bit Linux with `f_type` as its
    // first word; the buffer leaves room to spare.
    let mut buf = [0i64; 32];
    // SAFETY: `c_path` is NUL-terminated and outlives the call; `buf` is
    // a writable buffer larger than `struct statfs`.
    let rc = unsafe { statfs(c_path.as_ptr(), buf.as_mut_ptr()) };
    if rc != 0 {
        return "unknown".into();
    }
    let magic = buf[0] as u32;
    match magic {
        0xEF53 => "ext4".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        0x0102_1994 => "tmpfs".into(),
        0x794C_7630 => "overlayfs".into(),
        0x2FC1_2FC1 => "zfs".into(),
        0xF2F5_2010 => "f2fs".into(),
        0x6969 => "nfs".into(),
        0x0102_1997 => "9p".into(),
        0x6573_5546 => "fuse".into(),
        other => format!("0x{other:x}"),
    }
}

#[cfg(not(target_os = "linux"))]
pub fn fs_type(_path: &Path) -> String {
    "unknown".into()
}
