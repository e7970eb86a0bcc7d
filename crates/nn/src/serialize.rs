//! Binary persistence for parameter stores.
//!
//! A released relation-extraction system must save trained weights and load
//! them later (the paper's pipeline trains LINE offline, then reuses the
//! embeddings across every model). This module implements a small
//! self-describing little-endian format — no external serialisation crate:
//!
//! ```text
//! magic "IMRP" | u32 version | u32 n_params
//! per param: u32 name_len | name bytes | u32 rank | u64 dims… | f32 data…
//! ```

use crate::param::ParamStore;
use imre_tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"IMRP";
const VERSION: u32 = 1;

/// Writes every parameter of `store` to `w`.
pub fn write_params<W: Write>(store: &ParamStore, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(store.len() as u32).to_le_bytes())?;
    for (_, name, tensor) in store.iter() {
        let name_bytes = name.as_bytes();
        w.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
        w.write_all(name_bytes)?;
        w.write_all(&(tensor.rank() as u32).to_le_bytes())?;
        for &d in tensor.shape() {
            w.write_all(&(d as u64).to_le_bytes())?;
        }
        for &x in tensor.data() {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a parameter store written by [`write_params`].
///
/// # Errors
/// On malformed input (wrong magic, truncated data, bad version).
pub fn read_params<R: Read>(r: &mut R) -> io::Result<ParamStore> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an IMRP parameter file",
        ));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported IMRP version {version}"),
        ));
    }
    let n = read_u32(r)?;
    let mut store = ParamStore::new();
    for _ in 0..n {
        let name_len = read_u32(r)? as usize;
        let name = String::from_utf8(read_bytes(r, name_len)?).map_err(invalid)?;
        if store.find(&name).is_some() {
            return Err(invalid(format!("duplicate parameter name {name:?}")));
        }
        let rank = read_u32(r)?;
        // No count in this file sizes an allocation: entries are pushed as
        // they are read, so a short file fails having allocated no more
        // than it held.
        let mut shape = Vec::new();
        let mut len = 1usize;
        for _ in 0..rank {
            let dim = usize::try_from(read_u64(r)?).map_err(invalid)?;
            len = len
                .checked_mul(dim)
                .ok_or_else(|| invalid("tensor shape overflows"))?;
            shape.push(dim);
        }
        store.register(&name, Tensor::from_vec(read_f32s(r, len)?, &shape));
    }
    Ok(store)
}

fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Reads exactly `len` bytes, `len` being untrusted: the buffer grows with
/// the bytes that actually arrive, never from `len` itself.
fn read_bytes<R: Read>(r: &mut R, len: usize) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    r.take(len as u64).read_to_end(&mut bytes)?;
    if bytes.len() != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(bytes)
}

/// Reads `len` little-endian `f32`s, decoding through a fixed 64 KiB buffer.
/// `len` is whatever an untrusted header claimed, so the output grows with
/// the bytes that actually arrive: a short input ends in `UnexpectedEof`
/// having allocated no more than a constant factor of what it delivered.
/// Shared by the IMRP and `.imrb` readers.
pub fn read_f32s<R: Read>(r: &mut R, len: usize) -> io::Result<Vec<f32>> {
    let mut data = Vec::new();
    let mut buf = [0u8; 1 << 16];
    let mut left = len;
    while left > 0 {
        let n = left.min(buf.len() / 4);
        let chunk = &mut buf[..4 * n];
        r.read_exact(chunk)?;
        data.extend(
            chunk
                .chunks_exact(4)
                .map(|w| f32::from_le_bytes(w.try_into().expect("chunks_exact(4)"))),
        );
        left -= n;
    }
    data.shrink_to_fit();
    Ok(data)
}

/// Saves a parameter store to a file.
pub fn save_params(store: &ParamStore, path: &Path) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    write_params(store, &mut file)
}

/// Loads a parameter store from a file.
pub fn load_params(path: &Path) -> io::Result<ParamStore> {
    let mut file = io::BufReader::new(std::fs::File::open(path)?);
    read_params(&mut file)
}

/// Reads one little-endian `u32`. Shared, like [`read_f32s`], by every
/// binary reader in the workspace.
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads one little-endian `u64`.
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads one little-endian `f32`.
pub fn read_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(f32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imre_tensor::TensorRng;

    fn sample_store() -> ParamStore {
        let mut rng = TensorRng::seed(3);
        let mut store = ParamStore::new();
        store.xavier("layer.w", 4, 6, &mut rng);
        store.zeros("layer.b", &[6]);
        store.uniform("emb", &[10, 3], 0.5, &mut rng);
        store
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_params(&store, &mut buf).unwrap();
        let loaded = read_params(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), store.len());
        for (id, name, tensor) in store.iter() {
            let lid = loaded.find(name).expect("param present");
            assert_eq!(loaded.get(lid).shape(), tensor.shape());
            assert_eq!(loaded.get(lid).data(), tensor.data());
            let _ = id;
        }
    }

    #[test]
    fn file_roundtrip() {
        let store = sample_store();
        let dir = std::env::temp_dir().join("imre_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.imrp");
        save_params(&store, &path).unwrap();
        let loaded = load_params(&path).unwrap();
        assert_eq!(loaded.num_scalars(), store.num_scalars());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00".to_vec();
        let err = match read_params(&mut buf.as_slice()) {
            Err(e) => e,
            Ok(_) => panic!("bad magic accepted"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_data_rejected() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_params(&store, &mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        assert!(read_params(&mut buf.as_slice()).is_err());
    }

    fn le(xs: &[u64]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    /// Error kind of an IMRP stream declaring `n` parameters, then `body`.
    fn kind_of(n: u32, body: &[Vec<u8>]) -> io::ErrorKind {
        let mut buf = [&MAGIC[..], &VERSION.to_le_bytes(), &n.to_le_bytes()].concat();
        buf.extend(body.concat());
        match read_params(&mut buf.as_slice()) {
            Err(e) => e.kind(),
            Ok(_) => panic!("hostile header accepted"),
        }
    }

    #[test]
    fn absurd_lengths_are_typed_errors() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        // every count is a lie the few bytes behind it cannot back
        let name = |len: u32| [&len.to_le_bytes()[..], b"w"].concat();
        let rank = |r: u32| r.to_le_bytes().to_vec();
        assert_eq!(kind_of(1, &[name(u32::MAX)]), UnexpectedEof);
        assert_eq!(
            kind_of(1, &[name(1), rank(u32::MAX), le(&[3])]),
            UnexpectedEof
        );
        let overflow = [name(1), rank(2), le(&[u64::MAX, 2]), vec![0; 16]];
        assert_eq!(kind_of(1, &overflow), InvalidData);
        // 4e10 floats claimed (160 GB), 12 bytes present
        let short = [name(1), rank(1), le(&[40_000_000_000]), vec![0; 12]];
        assert_eq!(kind_of(1, &short), UnexpectedEof);
        // the same name twice
        let w = [name(1), rank(1), le(&[1]), vec![0; 4]].concat();
        assert_eq!(kind_of(2, &[w.clone(), w]), InvalidData);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_params(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = ParamStore::new();
        let mut buf = Vec::new();
        write_params(&store, &mut buf).unwrap();
        let loaded = read_params(&mut buf.as_slice()).unwrap();
        assert!(loaded.is_empty());
    }
}
