//! The `IMRA` format: the HNSW index inside `.imrb` v2 and v3 bundles, in
//! two layouts around one body, written by one encoder and read by one
//! decoder.
//!
//! ```text
//! stream layout (v2 bundles), version 1:
//!   magic "IMRA" · version u32 · body_len u64 · body · FNV-1a u64 of body
//! aligned layout (v3 bundle sections), version 2:
//!   magic "IMRA" · version u32 · body, padded before the vectors
//!
//! body (all integers little-endian):
//!   seed u64 · m u32 · ef_construction u32 · ef_search u32
//!   dim u32 · n u32 · entry u32 · max_level u32
//!   labels   n × u32
//!   levels   n × u8
//!   (aligned layout only: zero padding to a multiple of 64 bytes from the
//!    section start)
//!   vectors  n·dim × f32          ← mappable in the aligned layout
//!   links    per node, per layer 0..=level: count u32, count × u32
//! ```
//!
//! The stream body is length-prefixed and checksummed, so a corrupt or
//! truncated section is a typed `InvalidData` error before any structural
//! parsing; the aligned layout is checksummed by the v3 section table.
//! Either way the decoded graph then passes the structural validation the
//! builder guarantees. The version tags differ so neither reader can
//! misparse the other layout.

use crate::hnsw::{AnnIndex, HnswConfig, MAX_LEVEL};
use imre_tensor::bytes::{expect_header, extend, invalid, pad, put, Cursor, Fnv1a, Mapping, ALIGN};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Section magic, distinct from the bundle's `IMRB`.
pub const ANN_MAGIC: &[u8; 4] = b"IMRA";

/// Version tag of the stream layout.
pub const ANN_VERSION: u32 = 1;

/// Version tag of the aligned layout of v3 bundle sections.
pub const ANN_ALIGNED_VERSION: u32 = 2;

/// Stream bodies larger than this are rejected as corrupt before
/// allocation (1 GiB of index for a research corpus means the length field
/// is garbage).
const MAX_BODY: u64 = 1 << 30;

impl AnnIndex {
    /// Serializes the index as one self-delimiting stream-layout section.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut body = Vec::with_capacity(self.body_len());
        self.encode(&mut body, false);
        w.write_all(ANN_MAGIC)?;
        put(w, &[ANN_VERSION])?;
        put(w, &[body.len() as u64])?;
        w.write_all(&body)?;
        put(w, &[Fnv1a::digest(&body)])
    }

    /// Exact on-disk size of the stream-layout section in bytes.
    pub fn serialized_len(&self) -> usize {
        // magic + version + body_len + body + checksum
        4 + 4 + 8 + self.body_len() + 8
    }

    fn body_len(&self) -> usize {
        let p = self.raw_parts();
        let n = p.labels.len();
        let link_words: usize = p
            .links
            .iter()
            .flat_map(|layers| layers.iter().map(|l| 1 + l.len()))
            .sum();
        8 + 4 * 7 + 4 * n + n + 4 * n * p.dim + 4 * link_words
    }

    /// Serializes the index in the aligned layout of a v3 bundle section.
    pub fn write_aligned(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + ALIGN + self.body_len());
        out.extend_from_slice(ANN_MAGIC);
        extend(&mut out, &[ANN_ALIGNED_VERSION]);
        self.encode(&mut out, true);
        out
    }

    /// Appends the body; `aligned` pads `out` before the vectors.
    fn encode(&self, out: &mut Vec<u8>, aligned: bool) {
        let p = self.raw_parts();
        extend(out, &[p.cfg.seed]);
        extend(
            out,
            &[
                p.cfg.m as u32,
                p.cfg.ef_construction as u32,
                p.cfg.ef_search as u32,
                p.dim as u32,
                p.labels.len() as u32,
                p.entry,
                p.max_level as u32,
            ],
        );
        extend(out, p.labels);
        extend(out, p.levels);
        if aligned {
            pad(out);
        }
        extend(out, p.vectors);
        for list in p.links.iter().flatten() {
            extend(out, &[list.len() as u32]);
            extend(out, list);
        }
    }

    /// Reads one stream-layout section. Corruption of any kind — bad
    /// magic, unknown version, wrong length, checksum mismatch, truncated
    /// body, or a structurally invalid graph — comes back as `InvalidData`.
    pub fn read_from(r: &mut impl Read) -> io::Result<AnnIndex> {
        expect_header(r, ANN_MAGIC, &[ANN_VERSION])?;
        let mut len8 = [0u8; 8];
        r.read_exact(&mut len8)?;
        let body_len = u64::from_le_bytes(len8);
        if body_len > MAX_BODY {
            return Err(invalid(format!("IMRA section claims {body_len} bytes")));
        }
        let mut body = vec![0u8; body_len as usize];
        r.read_exact(&mut body)
            .map_err(|_| invalid("IMRA body truncated"))?;
        r.read_exact(&mut len8)
            .map_err(|_| invalid("IMRA checksum missing"))?;
        if u64::from_le_bytes(len8) != Fnv1a::digest(&body) {
            return Err(invalid("IMRA checksum mismatch"));
        }
        Self::decode(Cursor::new(&body, "IMRA body"), None, false)
    }

    /// Parses an aligned section written by [`AnnIndex::write_aligned`].
    ///
    /// With `map` given and `bytes` inside it (the mmap load), the vector
    /// matrix is a view into the mapping, which the index then holds;
    /// anything the view constructor refuses is copied. Labels, levels and
    /// links are always copied. Corruption of any kind is `InvalidData`.
    pub fn read_aligned(bytes: &[u8], map: Option<&Arc<Mapping>>) -> io::Result<AnnIndex> {
        let mut c = Cursor::new(bytes, "IMRA section");
        expect_header(&mut c, ANN_MAGIC, &[ANN_ALIGNED_VERSION])?;
        Self::decode(c, map, true)
    }

    /// Reads the body [`AnnIndex::encode`] wrote, to the end of `c`.
    fn decode(
        mut c: Cursor<'_>,
        map: Option<&Arc<Mapping>>,
        aligned: bool,
    ) -> io::Result<AnnIndex> {
        let seed = c.get::<u64>()?;
        let [m, ef_construction, ef_search, dim, n, entry, max_level] =
            <[u32; 7]>::try_from(c.vec::<u32>(7)?).expect("seven words");
        let (m, dim, n) = (m as usize, dim as usize, n as usize);
        if dim == 0 || n == 0 || m < 2 {
            return Err(invalid("IMRA header degenerate"));
        }
        if max_level as usize > MAX_LEVEL {
            return Err(invalid("IMRA max level out of range"));
        }
        let labels = c.vec::<u32>(n)?;
        let levels = c.vec::<u8>(n)?;
        if aligned {
            c.align()?;
        }
        let cells = n
            .checked_mul(dim)
            .ok_or_else(|| invalid("IMRA sizes overflow"))?;
        let vectors = c.storage::<f32>(cells, map)?;
        let mut links = Vec::with_capacity(n);
        for &level in &levels {
            let mut layers = Vec::with_capacity(level as usize + 1);
            for _ in 0..=level {
                let count = c.get::<u32>()? as usize;
                if count > n {
                    return Err(invalid("IMRA neighbor count exceeds node count"));
                }
                layers.push(c.vec::<u32>(count)?);
            }
            links.push(layers);
        }
        c.finish()?;
        let index = AnnIndex::from_raw_parts(crate::hnsw::OwnedParts {
            cfg: HnswConfig {
                m,
                ef_construction: (ef_construction as usize).max(1),
                ef_search: (ef_search as usize).max(1),
                seed,
            },
            dim,
            vectors,
            labels,
            levels,
            links,
            entry,
            max_level: max_level as u8,
        });
        index
            .validate_structure()
            .map_err(|e| invalid(e.to_string()))?;
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index(seed: u64) -> AnnIndex {
        let n = 40usize;
        let dim = 3usize;
        let vectors: Vec<f32> = (0..n * dim)
            .map(|i| ((i * 37 % 97) as f32) * 0.25)
            .collect();
        let labels: Vec<u32> = (0..n).map(|i| (i % 5) as u32).collect();
        AnnIndex::build(dim, vectors, labels, HnswConfig::with_seed(seed)).unwrap()
    }

    fn to_bytes(index: &AnnIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_bytes_and_results() {
        let index = sample_index(9);
        let bytes = to_bytes(&index);
        assert_eq!(bytes.len(), index.serialized_len());
        let back = AnnIndex::read_from(&mut &bytes[..]).unwrap();
        assert_eq!(to_bytes(&back), bytes, "reserialization changed bytes");

        let mut s1 = crate::SearchScratch::new();
        let mut s2 = crate::SearchScratch::new();
        let q = [1.0f32, 2.0, 3.0];
        assert_eq!(index.search(&q, 6, &mut s1), back.search(&q, 6, &mut s2));
    }

    #[test]
    fn corrupt_bytes_are_typed_errors_not_panics() {
        let bytes = to_bytes(&sample_index(4));
        // Flip one byte at every offset: all must fail cleanly or parse to
        // a structurally valid index (magic/version/length/checksum guard).
        for pos in [0usize, 4, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let got = AnnIndex::read_from(&mut &bad[..]);
            assert!(got.is_err(), "flip at {pos} was not detected");
            assert_eq!(got.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = to_bytes(&sample_index(4));
        for keep in [3usize, 11, 17, bytes.len() / 3, bytes.len() - 1] {
            let got = AnnIndex::read_from(&mut &bytes[..keep]);
            assert!(got.is_err(), "truncation to {keep} bytes was not detected");
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = to_bytes(&sample_index(4));
        bytes[4] = 9;
        let err = AnnIndex::read_from(&mut &bytes[..]).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = to_bytes(&sample_index(4));
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(AnnIndex::read_from(&mut &bytes[..]).is_err());
    }

    #[test]
    fn huge_header_sizes_error_instead_of_overflowing() {
        // A corrupt-but-checksummed header claiming u32::MAX nodes of
        // u32::MAX dims makes `4 * n * dim` exceed usize; the size math
        // must report InvalidData rather than panic on overflow (debug
        // builds) or wrap (release).
        let mut bytes = to_bytes(&sample_index(4));
        bytes[36..40].copy_from_slice(&u32::MAX.to_le_bytes()); // dim (body offset 20)
        bytes[44..48].copy_from_slice(&u32::MAX.to_le_bytes()); // n (body offset 24)
        let body_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let sum = Fnv1a::digest(&bytes[16..16 + body_len]);
        bytes[16 + body_len..16 + body_len + 8].copy_from_slice(&sum.to_le_bytes());
        let err = AnnIndex::read_from(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn aligned_roundtrip_owned_and_borrowed_agree() {
        let index = sample_index(9);
        let bytes = index.write_aligned();
        let path = std::env::temp_dir().join(format!("imre_imra_{}.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let map = Arc::new(Mapping::of_path(&path).unwrap());
        std::fs::remove_file(&path).ok();
        let owned = AnnIndex::read_aligned(&bytes, None).unwrap();
        assert!(!owned.is_borrowed());
        // Bytes outside the passed mapping are copied, not viewed.
        assert!(!AnnIndex::read_aligned(&bytes, Some(&map))
            .unwrap()
            .is_borrowed());
        let borrowed = AnnIndex::read_aligned(map.as_slice(), Some(&map)).unwrap();
        assert!(borrowed.is_borrowed());
        drop(map);
        let mut s = crate::SearchScratch::new();
        let q = [1.0f32, 2.0, 3.0];
        let want = index.search(&q, 7, &mut s).to_vec();
        let mut s2 = crate::SearchScratch::new();
        assert_eq!(owned.search(&q, 7, &mut s2), &want[..]);
        let mut s3 = crate::SearchScratch::new();
        assert_eq!(borrowed.search(&q, 7, &mut s3), &want[..]);
        // Re-serialization is byte-identical regardless of storage mode.
        assert_eq!(owned.write_aligned(), bytes);
        assert_eq!(borrowed.write_aligned(), bytes);
    }

    #[test]
    fn aligned_vectors_block_is_64_aligned_relative_to_section() {
        for seed in [4u64, 9, 21] {
            let index = sample_index(seed);
            let bytes = index.write_aligned();
            let n = index.len();
            let voff = (44 + 5 * n).next_multiple_of(ALIGN);
            let dim = index.dim();
            let got: Vec<f32> = bytes[voff..voff + 4 * n * dim]
                .chunks_exact(4)
                .map(|w| f32::from_le_bytes(w.try_into().unwrap()))
                .collect();
            assert_eq!(&got[..dim], index.vector(0), "seed {seed}");
        }
    }

    #[test]
    fn aligned_truncation_and_trailing_bytes_rejected() {
        let bytes = sample_index(4).write_aligned();
        for keep in [3usize, 12, 47, bytes.len() / 2, bytes.len() - 1] {
            let err = AnnIndex::read_aligned(&bytes[..keep], None).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "keep {keep}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(AnnIndex::read_aligned(&long, None).is_err());
        // The classic stream reader must not accept the aligned layout.
        assert!(AnnIndex::read_from(&mut &bytes[..]).is_err());
    }

    #[test]
    fn aligned_huge_header_sizes_error_instead_of_overflowing() {
        let mut bytes = sample_index(4).write_aligned();
        bytes[28..32].copy_from_slice(&u32::MAX.to_le_bytes()); // dim
        bytes[32..36].copy_from_slice(&u32::MAX.to_le_bytes()); // n
        let err = AnnIndex::read_aligned(&bytes, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn two_builds_serialize_identically() {
        assert_eq!(to_bytes(&sample_index(21)), to_bytes(&sample_index(21)));
        assert_ne!(
            to_bytes(&sample_index(21)),
            to_bytes(&sample_index(22)),
            "seed should perturb the graph"
        );
    }
}
