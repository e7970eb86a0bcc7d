//! Periodic training checkpoints: the IMRC format.
//!
//! A checkpoint bundles everything needed to continue training exactly
//! where it stopped: the epoch to resume at, the optimizer state (SGD's
//! decayed learning rate, or Adam's step clock and both moment vectors),
//! and the full model in the IMRM format. Because the training engine
//! derives every RNG stream from `(seed, epoch)` (see `imre_core::train`),
//! resuming at an epoch boundary replays the exact shuffles and dropout
//! noise an uninterrupted run would see — the resumed run is bit-identical.
//!
//! Files are written atomically: bytes go to a `<path>.tmp` sibling, are
//! fsynced, and renamed over the destination, so a kill mid-write can never
//! leave a truncated checkpoint behind.

use imre_core::persist::{read_model, write_model};
use imre_core::ReModel;
use imre_nn::serialize::read_f32s;
use imre_tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"IMRC";
const VERSION: u32 = 1;

/// Serializable optimizer state carried inside a checkpoint.
pub enum OptState {
    /// SGD: only the (decayed) learning rate.
    Sgd {
        /// Learning rate at the time of the checkpoint.
        lr: f32,
    },
    /// Adam: learning rate, bias-correction step clock, and both moments.
    Adam {
        /// Learning rate at the time of the checkpoint.
        lr: f32,
        /// Steps taken so far (the bias-correction clock).
        t: u64,
        /// First-moment buffers, in parameter order.
        m: Vec<Tensor>,
        /// Second-moment buffers, in parameter order.
        v: Vec<Tensor>,
    },
}

/// A loaded checkpoint: resume by rebuilding the engine around `model`
/// with `opt` restored and training from `next_epoch`.
pub struct Checkpoint {
    /// First epoch the resumed run should execute.
    pub next_epoch: usize,
    /// Optimizer state as of the end of epoch `next_epoch - 1`.
    pub opt: OptState,
    /// The model weights (and architecture) at the checkpoint.
    pub model: ReModel,
}

fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn write_tensor<W: Write>(t: &Tensor, w: &mut W) -> io::Result<()> {
    w.write_all(&(t.shape().len() as u64).to_le_bytes())?;
    for &d in t.shape() {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    for &x in t.data() {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_tensor<R: Read>(r: &mut R) -> io::Result<Tensor> {
    let ndim = read_u64(r)?;
    // Untrusted counts size nothing: dims are pushed as they are read.
    let overflow = || io::Error::new(io::ErrorKind::InvalidData, "tensor shape overflows");
    let mut shape = Vec::new();
    let mut len = 1usize;
    for _ in 0..ndim {
        let dim = usize::try_from(read_u64(r)?).map_err(|_| overflow())?;
        len = len.checked_mul(dim).ok_or_else(overflow)?;
        shape.push(dim);
    }
    Ok(Tensor::from_vec(read_f32s(r, len)?, &shape))
}

/// Writes a checkpoint to a writer (header, optimizer state, then the
/// embedded IMRM model).
pub fn write_checkpoint<W: Write>(
    model: &ReModel,
    next_epoch: usize,
    opt: &OptState,
    w: &mut W,
) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(next_epoch as u64).to_le_bytes())?;
    match opt {
        OptState::Sgd { lr } => {
            w.write_all(&[0u8])?;
            w.write_all(&lr.to_le_bytes())?;
        }
        OptState::Adam { lr, t, m, v } => {
            w.write_all(&[1u8])?;
            w.write_all(&lr.to_le_bytes())?;
            w.write_all(&t.to_le_bytes())?;
            w.write_all(&(m.len() as u64).to_le_bytes())?;
            for t in m.iter().chain(v) {
                write_tensor(t, w)?;
            }
        }
    }
    write_model(model, w)
}

/// Reads a checkpoint written by [`write_checkpoint`].
///
/// # Errors
/// On malformed input, an unknown version, or a corrupt embedded model.
pub fn read_checkpoint<R: Read>(r: &mut R) -> io::Result<Checkpoint> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an IMRC checkpoint file",
        ));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported IMRC version {version}"),
        ));
    }
    let next_epoch = read_u64(r)? as usize;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let opt = match tag[0] {
        0 => OptState::Sgd { lr: read_f32(r)? },
        1 => {
            let lr = read_f32(r)?;
            let t = read_u64(r)?;
            let n = read_u64(r)?;
            let mut m = Vec::new();
            for _ in 0..n {
                m.push(read_tensor(r)?);
            }
            let mut v = Vec::new();
            for _ in 0..n {
                v.push(read_tensor(r)?);
            }
            OptState::Adam { lr, t, m, v }
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad optimizer tag {other}"),
            ))
        }
    };
    let model = read_model(r)?;
    Ok(Checkpoint {
        next_epoch,
        opt,
        model,
    })
}

/// Saves a checkpoint to a file **atomically** (tmp-sibling write + rename).
pub fn save_checkpoint(
    model: &ReModel,
    next_epoch: usize,
    opt: &OptState,
    path: &Path,
) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let file = std::fs::File::create(&tmp)?;
    let mut w = io::BufWriter::new(file);
    write_checkpoint(model, next_epoch, opt, &mut w)?;
    w.flush()?;
    w.into_inner()
        .map_err(|e| io::Error::other(e.to_string()))?
        .sync_all()?;
    std::fs::rename(&tmp, path)
}

/// Loads a checkpoint from a file.
pub fn load_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let mut file = io::BufReader::new(std::fs::File::open(path)?);
    read_checkpoint(&mut file)
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(f32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Error kind of an Adam checkpoint whose moment count and first tensor
    /// header are `fields` (all u64), followed by `payload`.
    fn kind_of(fields: &[u64], payload: &[u8]) -> io::ErrorKind {
        // next_epoch 3, Adam tag, lr, step clock 7
        let mut buf = [
            &MAGIC[..],
            &VERSION.to_le_bytes(),
            &3u64.to_le_bytes(),
            &[1],
        ]
        .concat();
        buf.extend(0.01f32.to_le_bytes());
        buf.extend(7u64.to_le_bytes());
        buf.extend(fields.iter().flat_map(|x| x.to_le_bytes()));
        buf.extend(payload);
        match read_checkpoint(&mut buf.as_slice()) {
            Err(e) => e.kind(),
            Ok(_) => panic!("hostile header accepted"),
        }
    }

    #[test]
    fn absurd_lengths_are_typed_errors() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        // fields: moment count, ndim, dims…
        assert_eq!(kind_of(&[u64::MAX, 1, 1], &[0; 4]), UnexpectedEof);
        assert_eq!(kind_of(&[1, u64::MAX, 3], &[]), UnexpectedEof);
        assert_eq!(kind_of(&[1, 2, u64::MAX, 2], &[0; 16]), InvalidData);
        // 4e10 floats claimed (160 GB), 12 bytes present
        assert_eq!(kind_of(&[1, 1, 40_000_000_000], &[0; 12]), UnexpectedEof);
    }
}
