//! Artifact bytes: one owner for how every on-disk format is laid out,
//! checked and held in memory.
//!
//! Every binary format of the workspace (IMRP, IMRM, IMRC, `.imrb`
//! v1/v2/v3, QNT8, IMRA) is written and parsed with the primitives here:
//!
//! - [`Le`] — the little-endian element codec (`u8`, `i8`, `u32`, `i32`,
//!   `u64`, `f32`), used by [`put`] and [`extend`] on the write side and by
//!   [`Cursor`] and [`Storage`] on the read side;
//! - [`expect_header`] — the `magic · version u32` check every format opens
//!   with;
//! - [`Cursor`] — the bounds-checked slice reader of the slice formats
//!   (QNT8, IMRA, the v3 section table);
//! - [`Fnv1a`] — the one checksum (IMRA v1 bodies, v3 sections);
//! - [`ALIGN`] — the one alignment of every mappable array;
//! - [`Storage`] — an owned or mapped array. A mapped `Storage` holds the
//!   `Arc<Mapping>` its view points into and is created only by
//!   [`Storage::mapped`], which proves the view lies inside that mapping
//!   and is aligned for `T`. Safe code therefore cannot make a view that
//!   outlives its pages: ownership is carried by the type, not promised by
//!   the caller.

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

pub use crate::mmap::{live_mappings, Mapping};

/// Alignment of every mappable array, relative to the start of its v3
/// section. Sections sit at multiples of it in the file, and mappings are
/// page-aligned, so file alignment is memory alignment.
pub const ALIGN: usize = 64;

/// An `InvalidData` error: the bytes are malformed.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

mod sealed {
    pub trait Sealed {}
}

/// A plain little-endian element: fixed size, and every bit pattern of
/// that size is a valid value — which is what lets [`Storage::mapped`]
/// view file bytes as `[T]` in place.
pub trait Le: Copy + Send + Sync + 'static + sealed::Sealed {
    /// Encoded size in bytes (equal to `size_of::<Self>()`).
    const SIZE: usize;
    /// Decodes one value from exactly [`Le::SIZE`] bytes.
    fn from_le(bytes: &[u8]) -> Self;
    /// Encodes `self` into exactly [`Le::SIZE`] bytes.
    fn write_le(self, dst: &mut [u8]);
}

macro_rules! le {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Le for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn from_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("one element"))
            }
            #[inline]
            fn write_le(self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
le!(u8, i8, u32, i32, u64, f32);

fn encode<T: Le>(dst: &mut [u8], xs: &[T]) {
    for (d, &x) in dst.chunks_exact_mut(T::SIZE).zip(xs) {
        x.write_le(d);
    }
}

/// Appends `xs` little-endian.
pub fn extend<T: Le>(out: &mut Vec<u8>, xs: &[T]) {
    let start = out.len();
    out.resize(start + xs.len() * T::SIZE, 0);
    encode(&mut out[start..], xs);
}

/// Writes `xs` little-endian, encoding through a small stack buffer.
pub fn put<T: Le>(w: &mut impl Write, xs: &[T]) -> io::Result<()> {
    let mut buf = [0u8; 128];
    for chunk in xs.chunks(buf.len() / T::SIZE) {
        let bytes = &mut buf[..chunk.len() * T::SIZE];
        encode(bytes, chunk);
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Writes a string as `len u32 · UTF-8 bytes`.
pub fn put_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    put(w, &[s.len() as u32])?;
    w.write_all(s.as_bytes())
}

/// Reads one little-endian element from a stream.
pub fn read_le<T: Le>(r: &mut impl Read) -> io::Result<T> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf[..T::SIZE])?;
    Ok(T::from_le(&buf[..T::SIZE]))
}

/// Reads a string written by [`put_str`]. The length is untrusted: the
/// first 4 KiB are read in place, and anything past them grows with the
/// bytes that actually arrive, never from the length itself, so a short
/// input ends in `UnexpectedEof`.
pub fn read_str(r: &mut impl Read) -> io::Result<String> {
    let len = read_le::<u32>(r)? as usize;
    let mut buf = vec![0u8; len.min(1 << 12)];
    r.read_exact(&mut buf)?;
    if buf.len() < len {
        r.take((len - buf.len()) as u64).read_to_end(&mut buf)?;
        if buf.len() != len {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
    }
    String::from_utf8(buf).map_err(|e| invalid(e.to_string()))
}

/// Zero-pads `out` to a multiple of [`ALIGN`].
pub fn pad(out: &mut Vec<u8>) {
    out.resize(out.len().next_multiple_of(ALIGN), 0);
}

/// Reads and checks a format's opening `magic · version u32`, returning
/// the version. A wrong magic or a version outside `versions` is
/// `InvalidData`; a short input is the reader's own error.
pub fn expect_header(r: &mut impl Read, magic: &[u8; 4], versions: &[u32]) -> io::Result<u32> {
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    let name = String::from_utf8_lossy(magic);
    if &head != magic {
        return Err(invalid(format!("not an {name} file (bad magic)")));
    }
    let version = read_le::<u32>(r)?;
    if !versions.contains(&version) {
        return Err(invalid(format!("unsupported {name} version {version}")));
    }
    Ok(version)
}

/// Streaming FNV-1a (64-bit).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The hash of `bytes` alone.
    pub fn digest(bytes: &[u8]) -> u64 {
        Fnv1a::default().write(bytes).finish()
    }
}

/// A bounds-checked reader over one slice. Every count it is handed is
/// untrusted: sizes are computed with checked arithmetic and nothing is
/// allocated before the bytes backing it are known to be present.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`; `what` names the format in errors.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Cursor { buf, pos: 0, what }
    }

    /// The next `n` bytes.
    pub fn slice(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| invalid(format!("{} truncated", self.what)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The bytes of the next `n` elements of `T`.
    fn slice_n<T: Le>(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let len = n
            .checked_mul(T::SIZE)
            .ok_or_else(|| invalid(format!("{} sizes overflow", self.what)))?;
        self.slice(len)
    }

    /// One element.
    pub fn get<T: Le>(&mut self) -> io::Result<T> {
        Ok(T::from_le(self.slice(T::SIZE)?))
    }

    /// `n` elements, copied.
    pub fn vec<T: Le>(&mut self, n: usize) -> io::Result<Vec<T>> {
        Ok(decode(self.slice_n::<T>(n)?))
    }

    /// `n` elements, viewed in `map` when the constructor allows, else
    /// copied.
    pub fn storage<T: Le>(
        &mut self,
        n: usize,
        map: Option<&Arc<Mapping>>,
    ) -> io::Result<Storage<T>> {
        Ok(Storage::view_or_copy(self.slice_n::<T>(n)?, map))
    }

    /// Skips the zero padding up to the next multiple of [`ALIGN`].
    pub fn align(&mut self) -> io::Result<()> {
        let pad = self.pos.next_multiple_of(ALIGN) - self.pos;
        if self.slice(pad)?.iter().any(|&b| b != 0) {
            return Err(invalid(format!("{} padding not zeroed", self.what)));
        }
        Ok(())
    }

    /// Checks that every byte was consumed.
    pub fn finish(self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(invalid(format!("{} has trailing bytes", self.what)));
        }
        Ok(())
    }
}

/// Reads all of `out` or nothing: reading past the end of a slice format
/// is malformed data (`InvalidData`), not a short stream.
impl Read for Cursor<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        out.copy_from_slice(self.slice(out.len())?);
        Ok(out.len())
    }
}

/// Whether `inner` lies wholly inside `outer`, by address.
fn within(outer: &[u8], inner: &[u8]) -> bool {
    let (o, i) = (outer.as_ptr_range(), inner.as_ptr_range());
    o.start <= i.start && i.end <= o.end
}

fn decode<T: Le>(bytes: &[u8]) -> Vec<T> {
    bytes.chunks_exact(T::SIZE).map(T::from_le).collect()
}

/// An immutable array that either owns its elements or views them inside
/// a [`Mapping`] it holds. Reading is one `from_raw_parts` over a cached
/// pointer either way.
pub struct Storage<T: Le> {
    ptr: *const T,
    len: usize,
    _owner: Owner<T>,
}

/// What keeps the elements alive: held, dropped, never read.
#[allow(dead_code)]
enum Owner<T> {
    Vec(Vec<T>),
    Map(Arc<Mapping>),
}

// SAFETY: a `Storage` is an immutable view of memory its `_owner` owns: a
// `Vec` of `Send + Sync` elements, or a read-only `Mapping` (itself
// `Send + Sync`). Nothing ever writes through `ptr`.
unsafe impl<T: Le> Send for Storage<T> {}
unsafe impl<T: Le> Sync for Storage<T> {}

impl<T: Le> From<Vec<T>> for Storage<T> {
    fn from(v: Vec<T>) -> Self {
        Storage {
            ptr: v.as_ptr(),
            len: v.len(),
            _owner: Owner::Vec(v),
        }
    }
}

impl<T: Le> Storage<T> {
    /// A view of `bytes` as `[T]`, holding `map` alive. `None` unless
    /// `bytes` lies wholly inside `map`, starts aligned for `T`, is a
    /// whole number of elements, and the target is little-endian (so the
    /// in-memory value is the encoded one).
    pub fn mapped(map: &Arc<Mapping>, bytes: &[u8]) -> Option<Self> {
        let aligned = bytes.as_ptr().align_offset(std::mem::align_of::<T>()) == 0;
        (cfg!(target_endian = "little")
            && within(map.as_slice(), bytes)
            && aligned
            && bytes.len().is_multiple_of(T::SIZE))
        .then(|| Storage {
            ptr: bytes.as_ptr().cast(),
            len: bytes.len() / T::SIZE,
            _owner: Owner::Map(Arc::clone(map)),
        })
    }

    /// [`Storage::mapped`] when `map` is given and accepts `bytes`, else an
    /// owned copy decoded from them.
    pub fn view_or_copy(bytes: &[u8], map: Option<&Arc<Mapping>>) -> Self {
        map.and_then(|m| Storage::mapped(m, bytes))
            .unwrap_or_else(|| decode(bytes).into())
    }

    /// The elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr..ptr+len` is the owned `Vec`'s buffer (never resized
        // after construction) or was proven by `mapped` to lie inside the
        // held, immutable mapping, aligned for `T`; any bit pattern is a
        // valid `T` (`Le`).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Whether the elements live in a mapping rather than an owned buffer.
    pub fn is_mapped(&self) -> bool {
        matches!(self._owner, Owner::Map(_))
    }
}

impl<T: Le> fmt::Debug for Storage<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let how = if self.is_mapped() { "mapped" } else { "owned" };
        write!(f, "Storage({how}, {} elements)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmap::tests::MAPPING_TESTS;

    fn mapped_file(name: &str, content: &[u8]) -> Arc<Mapping> {
        let path = std::env::temp_dir().join(format!("imre_bytes_{}_{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        let map = Mapping::of_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        Arc::new(map)
    }

    #[test]
    fn fnv1a_matches_reference_vectors_and_streams() {
        assert_eq!(Fnv1a::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        let whole = Fnv1a::digest(b"foobar");
        assert_eq!(Fnv1a::default().write(b"foo").write(b"bar").finish(), whole);
    }

    #[test]
    fn mapped_view_refuses_foreign_overlong_and_misaligned_slices() {
        let _gauge = MAPPING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let content: Vec<u8> = (0..256u32).flat_map(|i| i.to_le_bytes()).collect();
        let map = mapped_file("refuse", &content);
        let base = map.as_slice();
        let view = Storage::<u32>::mapped(&map, &base[64..128]).expect("inside, aligned");
        assert!(view.is_mapped());
        assert_eq!(view.as_slice(), &(16..32).collect::<Vec<u32>>()[..]);
        // A slice of a `Vec`, and of another mapping, is not inside `map`.
        assert!(Storage::<u32>::mapped(&map, &content[64..128]).is_none());
        let other = mapped_file("other", &content);
        assert!(Storage::<u32>::mapped(&map, &other.as_slice()[..64]).is_none());
        // A range that starts inside and runs past the end.
        assert!(within(&content[..64], &content[..64]));
        assert!(!within(&content[..64], &content[32..96]));
        assert!(!within(&content[32..64], &content[..40]));
        // Misaligned for `T`, and a ragged element count.
        assert!(Storage::<u32>::mapped(&map, &base[2..10]).is_none());
        assert!(Storage::<u32>::mapped(&map, &base[4..10]).is_none());
        assert!(Storage::<u8>::mapped(&map, &base[3..10]).is_some());
        // What the constructor refuses, `view_or_copy` copies.
        let copied = Storage::<u32>::view_or_copy(&content[64..128], Some(&map));
        assert!(!copied.is_mapped());
        assert_eq!(copied.as_slice(), view.as_slice());
    }

    #[test]
    fn mapped_view_keeps_its_pages_after_every_other_handle_drops() {
        let _gauge = MAPPING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let content: Vec<u8> = (0..64u32).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let map = mapped_file("keep", &content);
        let view = Storage::<f32>::mapped(&map, &map.as_slice()[96..128]).unwrap();
        let live = live_mappings();
        drop(map);
        assert_eq!(live_mappings(), live, "the view holds the mapping");
        assert_eq!(
            view.as_slice(),
            &[24.0, 25.0, 26.0, 27.0, 28.0, 29.0, 30.0, 31.0]
        );
        drop(view);
        assert_eq!(live_mappings(), live - 1);
    }

    #[test]
    fn cursor_checks_every_count_and_header() {
        let mut bytes = b"ABCD".to_vec();
        extend(&mut bytes, &[3u32, 7, 9]);
        let mut c = Cursor::new(&bytes, "test");
        assert_eq!(expect_header(&mut c, b"ABCD", &[3]).unwrap(), 3);
        assert_eq!(c.vec::<u32>(2).unwrap(), [7, 9]);
        c.finish().unwrap();
        let mut c = Cursor::new(&bytes, "test");
        let err = expect_header(&mut c, b"ABCD", &[1, 2]).unwrap_err();
        assert!(
            err.to_string().contains("unsupported ABCD version 3"),
            "{err}"
        );
        assert!(expect_header(&mut &bytes[..], b"WXYZ", &[3]).is_err());
        let mut c = Cursor::new(&bytes, "test");
        let overflow = c.vec::<u64>(usize::MAX).unwrap_err();
        assert_eq!(overflow.kind(), io::ErrorKind::InvalidData);
        assert_eq!(c.slice(17).unwrap_err().kind(), io::ErrorKind::InvalidData);
        c.slice(5).unwrap();
        assert!(c.align().is_err(), "non-zero padding");
    }
}
