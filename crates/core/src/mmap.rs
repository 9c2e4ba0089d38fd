//! The one byte buffer behind every archive handle: an owned heap blob
//! or a read-only memory-mapped file.
//!
//! Both archive formats hold their bytes as an `Arc<ArchiveBytes>`, so a
//! blob built or read into a `Vec` is wrapped without copying, clones of
//! a handle share it, and the sole handle of a heap blob hands the `Vec`
//! back ([`ArchiveBytes::into_vec`]).
//!
//! The archive layer opens multi-gigabyte blobs; reading them into a
//! `Vec` doubles peak memory and front-loads I/O the lazily-validated
//! v2 container would never perform. On Unix we map the file with a raw
//! `extern "C"` binding to `mmap`/`munmap` — the same no-new-deps
//! discipline as ftc-net's signal handling. Everywhere else (or when the
//! kernel refuses the mapping) we fall back to `std::fs::read`, which is
//! always correct, merely less lazy.
//!
//! A mapping reflects the file at map time; truncating the file while a
//! map is live is undefined behavior at the OS level (SIGBUS on access).
//! Archives are immutable artifacts, so this is outside the supported
//! contract, exactly as it is for every mmap-based reader.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// An immutable archive blob: owned on the heap, or a live read-only
/// memory mapping of an archive file.
pub(crate) enum ArchiveBytes {
    /// A live `mmap` region, unmapped on drop.
    #[cfg(unix)]
    Mapped { ptr: *mut u8, len: usize },
    /// An owned blob: built or read in memory, or a file the platform
    /// would not map.
    Heap(Vec<u8>),
}

// SAFETY: the region is mapped read-only (`PROT_READ`, private) and
// never mutated or remapped after construction, so shared references to
// it are valid from any thread; the heap variant is a plain `Vec`.
unsafe impl Send for ArchiveBytes {}
unsafe impl Sync for ArchiveBytes {}

impl ArchiveBytes {
    /// Opens `path` as a read-only buffer, preferring a memory mapping.
    pub(crate) fn open(path: &Path) -> io::Result<ArchiveBytes> {
        #[cfg(unix)]
        {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 {
                return Ok(ArchiveBytes::Heap(Vec::new()));
            }
            let Ok(len) = usize::try_from(len) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "file exceeds the address space",
                ));
            };
            if let Some(buf) = unix::map_readonly(&file, len) {
                return Ok(buf);
            }
            // Mapping refused (unusual filesystem, resource limits):
            // fall through to the portable path.
        }
        Ok(ArchiveBytes::Heap(std::fs::read(path)?))
    }

    /// The buffer contents.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: `ptr` is a live `PROT_READ` mapping of exactly
            // `len` bytes, valid until `drop` unmaps it.
            ArchiveBytes::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            ArchiveBytes::Heap(v) => v,
        }
    }

    /// The heap blob itself when `this` is its only handle; otherwise
    /// `this` back, untouched.
    pub(crate) fn try_into_vec(mut this: Arc<ArchiveBytes>) -> Result<Vec<u8>, Arc<ArchiveBytes>> {
        match Arc::get_mut(&mut this) {
            Some(ArchiveBytes::Heap(v)) => Ok(std::mem::take(v)),
            _ => Err(this),
        }
    }

    /// The blob as a `Vec`: moved out when `this` is the only handle of
    /// a heap blob, copied otherwise.
    pub(crate) fn into_vec(this: Arc<ArchiveBytes>) -> Vec<u8> {
        Self::try_into_vec(this).unwrap_or_else(|shared| shared.bytes().to_vec())
    }
}

impl Drop for ArchiveBytes {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let ArchiveBytes::Mapped { ptr, len } = *self {
            // SAFETY: `ptr`/`len` came from a successful `mmap` and are
            // unmapped exactly once.
            unsafe {
                unix::munmap(ptr.cast(), len);
            }
        }
    }
}

#[cfg(unix)]
mod unix {
    use super::ArchiveBytes;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub(super) fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// Maps `len` bytes of `file` read-only; `None` when the kernel
    /// refuses (caller falls back to reading the file).
    pub(super) fn map_readonly(file: &File, len: usize) -> Option<ArchiveBytes> {
        // SAFETY: a fresh private read-only mapping of an open fd; the
        // kernel validates every argument and reports failure as
        // MAP_FAILED (-1), which we check before use.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return None;
        }
        Some(ArchiveBytes::Mapped {
            ptr: ptr.cast(),
            len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_reads_back() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ftc-mmap-test-{}", std::process::id()));
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let buf = ArchiveBytes::open(&path).unwrap();
        assert_eq!(buf.bytes(), &payload[..]);
        drop(buf);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_missing_files() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ftc-mmap-empty-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let buf = ArchiveBytes::open(&path).unwrap();
        assert!(buf.bytes().is_empty());
        std::fs::remove_file(&path).unwrap();

        let missing = dir.join("ftc-mmap-definitely-missing-xyz");
        assert!(ArchiveBytes::open(&missing).is_err());
    }

    #[test]
    fn sole_heap_handles_give_their_vec_back() {
        let blob = vec![7u8; 64];
        let ptr = blob.as_ptr();
        let sole = Arc::new(ArchiveBytes::Heap(blob));
        let back = ArchiveBytes::into_vec(sole);
        assert_eq!(back.as_ptr(), ptr);

        let shared = Arc::new(ArchiveBytes::Heap(vec![7u8; 64]));
        let other = Arc::clone(&shared);
        let back = ArchiveBytes::try_into_vec(shared).unwrap_err();
        assert_eq!(ArchiveBytes::into_vec(back), vec![7u8; 64]);
        assert_eq!(other.bytes(), &[7u8; 64][..]);
    }
}
