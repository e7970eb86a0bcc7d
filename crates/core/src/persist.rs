//! Whole-model persistence: save a trained [`ReModel`] with its metadata
//! and reload it later without re-training.
//!
//! The file carries a metadata header (spec flags, hyperparameters, shape
//! arguments) followed by the parameter store in the `imre-nn` IMRP format,
//! so a loaded model is reconstructed with the exact architecture and then
//! overwritten with the trained weights.

use crate::attention::AggKind;
use crate::config::HyperParams;
use crate::encoder::EncoderKind;
use crate::model::{ModelSpec, ReModel};
use imre_nn::serialize::{read_f32, read_params, read_u32, read_u64, write_params};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"IMRM";
const VERSION: u32 = 1;

/// Saves a model (architecture + weights) to a writer.
pub fn write_model<W: Write>(model: &ReModel, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    // spec
    let enc = match model.spec.encoder {
        EncoderKind::Cnn => 0u8,
        EncoderKind::Pcnn => 1,
        EncoderKind::Gru => 2,
    };
    let agg = match model.spec.agg {
        AggKind::Mean => 0u8,
        AggKind::Att => 1,
    };
    w.write_all(&[
        enc,
        agg,
        model.spec.word_att as u8,
        model.spec.use_type as u8,
        model.spec.use_mr as u8,
    ])?;
    // shape arguments
    for v in [
        model.vocab_size() as u64,
        model.num_relations() as u64,
        model.num_types() as u64,
        model.entity_dim() as u64,
    ] {
        w.write_all(&v.to_le_bytes())?;
    }
    // hyperparameters
    let hp = &model.hp;
    for v in [
        hp.entity_dim as u64,
        hp.type_dim as u64,
        hp.window as u64,
        hp.filters as u64,
        hp.pos_dim as u64,
        hp.word_dim as u64,
        hp.gru_hidden as u64,
        hp.max_len as u64,
        hp.batch_size as u64,
        hp.epochs as u64,
        hp.pos_clip as u64,
    ] {
        w.write_all(&v.to_le_bytes())?;
    }
    w.write_all(&hp.lr.to_le_bytes())?;
    w.write_all(&hp.dropout.to_le_bytes())?;
    // weights
    write_params(&model.store, w)
}

/// Loads a model saved by [`write_model`].
///
/// # Errors
/// On malformed input or an architecture/weight mismatch.
pub fn read_model<R: Read>(r: &mut R) -> io::Result<ReModel> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an IMRM model file",
        ));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported IMRM version {version}"),
        ));
    }
    let mut flags = [0u8; 5];
    r.read_exact(&mut flags)?;
    let encoder = match flags[0] {
        0 => EncoderKind::Cnn,
        1 => EncoderKind::Pcnn,
        2 => EncoderKind::Gru,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad encoder tag {other}"),
            ))
        }
    };
    let agg = match flags[1] {
        0 => AggKind::Mean,
        1 => AggKind::Att,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad aggregation tag {other}"),
            ))
        }
    };
    let spec = ModelSpec {
        encoder,
        agg,
        word_att: flags[2] != 0,
        use_type: flags[3] != 0,
        use_mr: flags[4] != 0,
    };
    let vocab_size = read_u64(r)? as usize;
    let num_relations = read_u64(r)? as usize;
    let num_types = read_u64(r)? as usize;
    let entity_dim = read_u64(r)? as usize;
    let mut hp = HyperParams::scaled();
    hp.entity_dim = read_u64(r)? as usize;
    hp.type_dim = read_u64(r)? as usize;
    hp.window = read_u64(r)? as usize;
    hp.filters = read_u64(r)? as usize;
    hp.pos_dim = read_u64(r)? as usize;
    hp.word_dim = read_u64(r)? as usize;
    hp.gru_hidden = read_u64(r)? as usize;
    hp.max_len = read_u64(r)? as usize;
    hp.batch_size = read_u64(r)? as usize;
    hp.epochs = read_u64(r)? as usize;
    hp.pos_clip = read_u64(r)? as usize;
    hp.lr = read_f32(r)?;
    hp.dropout = read_f32(r)?;

    let loaded = read_params(r)?;

    // Rebuild the architecture (seed irrelevant — weights are overwritten)
    // and copy the trained values in by name.
    let mut model = ReModel::new(
        spec,
        &hp,
        vocab_size,
        num_relations,
        num_types,
        entity_dim,
        0,
    );
    if loaded.len() != model.store.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "weight count mismatch: file has {}, architecture needs {}",
                loaded.len(),
                model.store.len()
            ),
        ));
    }
    for (_, name, tensor) in loaded.iter() {
        let id = model.store.find(name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected parameter {name:?} in file"),
            )
        })?;
        if model.store.get(id).shape() != tensor.shape() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shape mismatch for {name:?}"),
            ));
        }
        model.store.set(id, tensor.clone());
    }
    Ok(model)
}

/// A sibling temp path for atomic write-rename: `m.imrm` → `m.imrm.tmp`.
/// Same directory, so the final rename stays within one filesystem.
pub(crate) fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `path` **atomically**: the bytes go to a `<path>.tmp` sibling,
/// are flushed and fsynced, and are renamed over `path`, so a crash
/// mid-save (or a reader racing a checkpoint) can never observe a
/// truncated file — it sees either the old complete file or the new one.
pub(crate) fn save_atomically(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
    write(&mut w)?;
    w.flush()?;
    w.into_inner()
        .map_err(|e| io::Error::other(e.to_string()))?
        .sync_all()?;
    std::fs::rename(&tmp, path)
}

/// Saves a model to a file atomically (see `save_atomically`).
pub fn save_model(model: &ReModel, path: &Path) -> io::Result<()> {
    save_atomically(path, |w| write_model(model, w))
}

/// Loads a model from a file.
pub fn load_model(path: &Path) -> io::Result<ReModel> {
    let mut file = io::BufReader::new(std::fs::File::open(path)?);
    read_model(&mut file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{entity_type_table, prepare_bags, BagContext};
    use imre_corpus::Dataset;
    use imre_eval_shim::smoke;

    /// Local stand-in to avoid a dev-dependency cycle with imre-eval: the
    /// same small dataset config the eval crate's smoke preset uses.
    mod imre_eval_shim {
        use imre_corpus::{DatasetConfig, SentenceGenConfig, WorldConfig};

        pub fn smoke(seed: u64) -> DatasetConfig {
            DatasetConfig {
                name: "persist-smoke".into(),
                world: WorldConfig {
                    n_relations: 5,
                    entities_per_cluster: 8,
                    facts_per_relation: 20,
                    cluster_reuse_prob: 0.3,
                    seed: seed ^ 0x5111,
                },
                sentence: SentenceGenConfig {
                    noise_prob: 0.2,
                    min_len: 6,
                    max_len: 14,
                },
                train_fraction: 0.7,
                na_train: 30,
                na_test: 15,
                na_hard_fraction: 0.5,
                zipf_alpha: 1.8,
                max_sentences_per_bag: 8,
                seed,
            }
        }
    }

    fn trained_model() -> (ReModel, Dataset) {
        let ds = Dataset::generate(&smoke(5));
        let hp = HyperParams::tiny();
        let bags = prepare_bags(&ds.train, &hp);
        let types = entity_type_table(&ds.world);
        let ctx = BagContext {
            entity_embedding: None,
            entity_types: &types,
        };
        let mut model = ReModel::new(
            ModelSpec::pa_t(),
            &hp,
            ds.vocab.len(),
            ds.num_relations(),
            38,
            hp.entity_dim,
            7,
        );
        let tc = crate::train::TrainConfig {
            epochs: 2,
            batch_size: 8,
            lr: 0.2,
            lr_decay: 0.95,
            clip_norm: 5.0,
            seed: 3,
        };
        crate::train::train_model(&mut model, &bags, &ctx, &tc, None, None).unwrap();
        (model, ds)
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let (model, ds) = trained_model();
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        let loaded = read_model(&mut buf.as_slice()).unwrap();

        let hp = HyperParams::tiny();
        let test = prepare_bags(&ds.test, &hp);
        let types = entity_type_table(&ds.world);
        let ctx = BagContext {
            entity_embedding: None,
            entity_types: &types,
        };
        for bag in test.iter().take(10) {
            let a = model.predict(bag, &ctx);
            let b = loaded.predict(bag, &ctx);
            assert_eq!(a, b, "loaded model must predict identically");
        }
        assert_eq!(loaded.spec, model.spec);
        assert_eq!(loaded.num_relations(), model.num_relations());
    }

    #[test]
    fn file_roundtrip() {
        let (model, _) = trained_model();
        let dir = std::env::temp_dir().join("imre_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.imrm");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.store.num_scalars(), model.store.num_scalars());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_no_tmp_residue() {
        let (model, _) = trained_model();
        let dir = std::env::temp_dir().join("imre_persist_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.imrm");
        // Overwrite an existing (stale) file: rename must replace it whole.
        std::fs::write(&path, b"stale").unwrap();
        save_model(&model, &path).unwrap();
        assert!(
            !tmp_sibling(&path).exists(),
            "tmp sibling must be renamed away"
        );
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.store.num_scalars(), model.store.num_scalars());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_header_rejected() {
        let buf = b"XXXX\x01\x00\x00\x00".to_vec();
        assert!(read_model(&mut buf.as_slice()).is_err());
    }
}
