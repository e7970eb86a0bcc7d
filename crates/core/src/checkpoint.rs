//! Training checkpoints: the IMRC format.
//!
//! A checkpoint is a resume point of [`crate::train_model`]: the run's
//! training seed, the epoch to resume at, the learning rate that epoch
//! starts with, and the model in the IMRM format ([`crate::persist`]).
//! Every epoch of `train_model` draws its shuffle and dropout from a stream
//! that is a pure function of `(seed, epoch)`, so a run resumed from a
//! checkpoint is bit-identical to one that never stopped.
//!
//! ```text
//! magic "IMRC" | u32 version (2) | u64 seed | u64 next_epoch | f32 lr | IMRM model
//! ```
//!
//! Version 1 files are refused: they were written under per-bag streams
//! that no longer exist, so they could not resume bit-identically. Files
//! are written atomically (tmp sibling, fsync, rename), so a kill mid-write
//! never leaves a truncated checkpoint behind.

use crate::model::ReModel;
use crate::persist::{read_model, save_atomically, write_model};
use imre_nn::serialize::{read_f32, read_u32, read_u64};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"IMRC";
const VERSION: u32 = 2;

/// Where a [`crate::train_model`] run stands at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResumePoint {
    /// The run's training seed ([`crate::TrainConfig::seed`]).
    pub seed: u64,
    /// The first epoch still to train.
    pub next_epoch: usize,
    /// The learning rate that epoch starts with.
    pub lr: f32,
}

/// A loaded checkpoint: resume by training `model` from `at`.
pub struct Checkpoint {
    /// Where the run stood.
    pub at: ResumePoint,
    /// The model weights (and architecture) at that point.
    pub model: ReModel,
}

/// When and where [`crate::train_model`] writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointCfg {
    /// Write after every `every`-th epoch (0 disables).
    pub every: usize,
    /// Destination, replaced atomically on each write.
    pub path: PathBuf,
}

/// Writes a checkpoint: the header, then the embedded IMRM model.
pub fn write_checkpoint<W: Write>(model: &ReModel, at: &ResumePoint, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&at.seed.to_le_bytes())?;
    w.write_all(&(at.next_epoch as u64).to_le_bytes())?;
    w.write_all(&at.lr.to_le_bytes())?;
    write_model(model, w)
}

/// Reads a checkpoint written by [`write_checkpoint`].
///
/// # Errors
/// On a wrong magic, a version other than 2, truncated input or a corrupt
/// embedded model.
pub fn read_checkpoint<R: Read>(r: &mut R) -> io::Result<Checkpoint> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not an IMRC checkpoint file".into()));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(invalid(format!("unsupported IMRC version {version}")));
    }
    let at = ResumePoint {
        seed: read_u64(r)?,
        next_epoch: read_u64(r)? as usize,
        lr: read_f32(r)?,
    };
    Ok(Checkpoint {
        at,
        model: read_model(r)?,
    })
}

/// Saves a checkpoint to a file atomically.
pub fn save_checkpoint(model: &ReModel, at: &ResumePoint, path: &Path) -> io::Result<()> {
    save_atomically(path, |w| write_checkpoint(model, at, w))
}

/// Loads a checkpoint from a file.
pub fn load_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    read_checkpoint(&mut io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyperParams;
    use crate::model::ModelSpec;

    fn small_checkpoint() -> Vec<u8> {
        let model = ReModel::new(ModelSpec::pcnn(), &HyperParams::tiny(), 6, 3, 4, 8, 1);
        let at = ResumePoint {
            seed: 9,
            next_epoch: 2,
            lr: 0.18,
        };
        let mut buf = Vec::new();
        write_checkpoint(&model, &at, &mut buf).unwrap();
        buf
    }

    fn error_of(bytes: &[u8]) -> io::Error {
        match read_checkpoint(&mut &bytes[..]) {
            Err(e) => e,
            Ok(_) => panic!("hostile checkpoint accepted"),
        }
    }

    #[test]
    fn hostile_input_is_a_typed_error() {
        let buf = small_checkpoint();
        let ck = read_checkpoint(&mut buf.as_slice()).unwrap();
        assert_eq!((ck.at.seed, ck.at.next_epoch, ck.at.lr), (9, 2, 0.18));
        for len in 0..buf.len() {
            let kind = error_of(&buf[..len]).kind();
            assert!(
                matches!(
                    kind,
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                ),
                "truncated at {len}: {kind:?}"
            );
        }
        let mut bad_magic = buf.clone();
        bad_magic[..4].copy_from_slice(b"IMRM");
        assert_eq!(error_of(&bad_magic).kind(), io::ErrorKind::InvalidData);
        for version in [1u32, 3] {
            let mut other = buf.clone();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            let e = error_of(&other);
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains("unsupported IMRC version"), "{e}");
        }
    }
}
