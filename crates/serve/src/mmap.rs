//! Read-only file memory mappings for zero-copy v3 bundle loading.
//!
//! The workspace is std-only (no libc crate), so `mmap`/`munmap` are
//! declared here directly, in the style of `eventloop::sys`. A [`Mapping`]
//! is an immutable byte view of a whole file; v3 bundle sections hand
//! `Arc<Mapping>` clones to every zero-copy borrower (`QuantTensor` tables,
//! the ANN vector matrix), so the registry's hot-swap is a pointer swap and
//! the pages are unmapped only when the **last** borrower — including any
//! in-flight batch still holding the previous model — drops its `Arc`.
//!
//! The mapping is `MAP_PRIVATE` + `PROT_READ`: serving never writes through
//! it, and mutations of the underlying file by other processes are not part
//! of the bundle lifecycle (bundles are written atomically via
//! rename-into-place, so a path reload sees a different inode, not a
//! mutated mapping).

use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

const PROT_READ: c_int = 1;
const MAP_PRIVATE: c_int = 2;

/// Number of [`Mapping`]s currently alive in the process — the deferred-unmap
/// observability hook: a hot-swap that replaces a v3 bundle leaves the old
/// mapping alive until the last in-flight borrower drops its `Arc`, at which
/// point this gauge ticks back down. Tests (and the hot-swap fault-injection
/// suite) assert on it instead of poking `/proc/self/maps`.
static LIVE_MAPPINGS: AtomicUsize = AtomicUsize::new(0);

/// The number of live [`Mapping`]s process-wide.
pub fn live_mappings() -> usize {
    LIVE_MAPPINGS.load(Ordering::SeqCst)
}

extern "C" {
    fn mmap(
        addr: *mut c_void,
        length: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, length: usize) -> c_int;
}

/// A read-only memory mapping of an entire file.
///
/// Pages are mapped on creation and unmapped on drop; `Arc<Mapping>` is the
/// keepalive handed to zero-copy borrowers.
pub struct Mapping {
    ptr: *const u8,
    len: usize,
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mapping({} bytes)", self.len)
    }
}

// SAFETY: the mapping is read-only for its whole lifetime; concurrent reads
// from multiple threads are fine, and the raw pointer is never handed out
// mutably.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `file` read-only in full. Fails (like the syscall) on an empty
    /// file — a zero-length bundle is malformed anyway.
    pub fn of_file(file: &File) -> io::Result<Mapping> {
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cannot map an empty file",
            ));
        }
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file larger than the address space",
            ));
        }
        let len = len as usize;
        // SAFETY: plain syscall with a valid fd; the kernel picks the
        // address. On success the returned range is ours until munmap.
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
            return Err(io::Error::last_os_error());
        }
        LIVE_MAPPINGS.fetch_add(1, Ordering::SeqCst);
        Ok(Mapping {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// Opens and maps the file at `path`.
    pub fn of_path(path: &Path) -> io::Result<Mapping> {
        Mapping::of_file(&File::open(path)?)
    }

    /// The mapped bytes. The returned slice borrows `self`; zero-copy
    /// consumers that outlive this call must hold an `Arc<Mapping>` instead.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr..ptr+len` is a live PROT_READ mapping until drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true — creation rejects it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: exactly the range returned by mmap; errors on unmap are
        // unreportable from drop and the range is ours, so ignore the code.
        unsafe {
            munmap(self.ptr as *mut c_void, self.len);
        }
        LIVE_MAPPINGS.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Arc;

    /// Held by every test that creates a `Mapping`, so the gauge test's
    /// before/after deltas are its own even with tests running in parallel.
    static MAPPING_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tmp_file(name: &str, content: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("imre_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(content).unwrap();
        path
    }

    #[test]
    fn maps_whole_file_and_reads_back() {
        let _gauge = MAPPING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let content: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let path = tmp_file("whole.bin", &content);
        let map = Mapping::of_path(&path).unwrap();
        assert_eq!(map.len(), content.len());
        assert_eq!(map.as_slice(), &content[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_rejected() {
        let path = tmp_file("empty.bin", b"");
        let err = Mapping::of_path(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_base_is_page_aligned() {
        let _gauge = MAPPING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let path = tmp_file("aligned.bin", &[7u8; 130]);
        let map = Mapping::of_path(&path).unwrap();
        // 64-aligned file offsets are only 64-aligned in memory because the
        // kernel maps at (at least) page granularity; pin that assumption.
        assert_eq!(map.as_slice().as_ptr() as usize % 4096, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arc_clones_keep_pages_alive_after_original_drop() {
        let _gauge = MAPPING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let path = tmp_file("keep.bin", b"staying alive");
        let map = Arc::new(Mapping::of_path(&path).unwrap());
        let clone = Arc::clone(&map);
        drop(map);
        assert_eq!(clone.as_slice(), b"staying alive");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn live_gauge_tracks_mapping_lifetime() {
        // Other tests in this process create mappings too: hold them off
        // for the duration and assert on deltas rather than absolute values.
        let _alone = MAPPING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let path = tmp_file("gauge.bin", b"gauge payload");
        let before = live_mappings();
        let map = Arc::new(Mapping::of_path(&path).unwrap());
        assert_eq!(live_mappings(), before + 1);
        let clone = Arc::clone(&map);
        drop(map);
        assert_eq!(live_mappings(), before + 1, "clone must keep pages mapped");
        drop(clone);
        assert_eq!(live_mappings(), before);
        std::fs::remove_file(&path).ok();
    }
}
