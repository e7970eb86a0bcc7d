//! Self-contained serving artifacts (`.imrb` bundles).
//!
//! A trained [`ReModel`] alone cannot serve raw text: it speaks token ids
//! and entity ids. A [`Bundle`] freezes everything the request pipeline
//! needs next to the model — the vocabulary, the entity table (names +
//! coarse types), the relation names, and (for `*-MR` models) the LINE
//! entity embeddings — so one file is a complete, loadable serving unit.
//!
//! Layout (little-endian): magic, version, vocabulary words, entity table,
//! relation names, optional embedding matrix, then the model in the
//! existing `IMRM` format. Version 1 ends there; version 2 appends the
//! serving-time kNN index as a self-delimiting `IMRA` section
//! (`imre-ann`'s format, DESIGN.md §4g). A bundle without an index is
//! always written as version 1, so pre-kNN readers keep loading it —
//! version 2 is only emitted when there is genuinely new content an old
//! reader could not serve correctly by skipping.
//!
//! **Version 3** (emitted only when a quantized model is attached) swaps
//! the stream layout for a *section table*: after the magic/version, a
//! directory of `{tag, offset, length, FNV-1a checksum}` entries points at
//! 64-byte-aligned sections — `META` (the v1 table stream), `MODL` (IMRM),
//! `QNT8` (int8 tables, [`crate::quantio`]), and optionally `IMRA` (the
//! aligned ANN layout). Aligned sections let [`load_bundle`] memory-map the
//! file and hand the int8 tables and ANN vectors to the model **zero-copy**
//! (`crate::mmap`), with the mapping's `Arc` dropped — and the pages
//! unmapped — only when the last borrower goes away. Reading a v3 bundle
//! from a generic stream still works; it simply owns all buffers. v1/v2
//! writing and loading are byte-for-byte unchanged.

use imre_ann::AnnIndex;
use imre_core::{read_model, write_model, QuantModel, ReModel};
use imre_corpus::{Vocab, World};
use imre_graph::EntityEmbedding;
use imre_nn::serialize::{read_f32s, read_u32, read_u64};
use imre_tensor::{QuantTensor, Tensor};
use std::any::Any;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"IMRB";
/// Bundle without an ANN section (the only version pre-kNN readers accept).
pub const VERSION_V1: u32 = 1;
/// Bundle with a trailing ANN index section.
pub const VERSION_V2: u32 = 2;
/// Section-table bundle carrying a quantized model (and mmap-able payloads).
pub const VERSION_V3: u32 = 3;

/// File-offset alignment of every v3 section.
pub const SECTION_ALIGN: usize = 64;

const TAG_META: &[u8; 4] = b"META";
const TAG_MODL: &[u8; 4] = b"MODL";
const TAG_QNT8: &[u8; 4] = b"QNT8";
const TAG_IMRA: &[u8; 4] = b"IMRA";

/// Size of one v3 section-table entry: tag + offset + length + checksum.
const ENTRY_LEN: usize = 4 + 8 + 8 + 8;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A frozen serving artifact: model plus the lookup tables that turn raw
/// text and entity names into model inputs.
pub struct Bundle {
    /// Token vocabulary the model was trained with.
    pub vocab: Vocab,
    /// Entity table: `(surface name, coarse type ids)` indexed by entity id.
    pub entities: Vec<(String, Vec<usize>)>,
    /// Relation names indexed by relation id (index 0 is NA).
    pub relations: Vec<String>,
    /// LINE entity embeddings; required when the model uses the implicit
    /// mutual-relation component.
    pub embedding: Option<EntityEmbedding>,
    /// The trained model.
    pub model: ReModel,
    /// Optional kNN index over training-bag representations, enabling the
    /// serve-time label interpolation path (`knn=K lambda=L`).
    pub ann: Option<AnnIndex>,
    /// Optional int8 quantized snapshot of `model`; its presence switches
    /// the on-disk layout to version 3 and enables `--precision int8`.
    pub quant: Option<QuantModel>,
}

impl Bundle {
    /// Assembles a bundle from a trained model and the world it was trained
    /// on. `embedding` must be given for `*-MR` models.
    pub fn new(
        model: ReModel,
        vocab: Vocab,
        world: &World,
        embedding: Option<EntityEmbedding>,
    ) -> Self {
        let entities = world
            .entities
            .iter()
            .map(|e| (e.name.clone(), e.types.iter().map(|t| t.0).collect()))
            .collect();
        let relations = world.relations.iter().map(|r| r.name.clone()).collect();
        Bundle {
            vocab,
            entities,
            relations,
            embedding,
            model,
            ann: None,
            quant: None,
        }
    }

    /// Attaches a kNN index (built over the training bags' pooled
    /// representations via `ReModel::predict_repr_batch`). The bundle is
    /// then written as version 2 (or 3 if a quantized model is attached).
    pub fn with_ann(mut self, ann: AnnIndex) -> Self {
        self.ann = Some(ann);
        self
    }

    /// Attaches an int8 quantized snapshot of the model. The bundle is then
    /// written as version 3 (section table, mmap-able payloads).
    pub fn with_quant(mut self, quant: QuantModel) -> Self {
        self.quant = Some(quant);
        self
    }

    /// Re-quantizes the attached int8 model's entity table from the f32
    /// entity embedding, as [`QuantModel::from_model`] builds it. Call after
    /// swapping in a new `embedding` (a stream refresh does): the int8 path
    /// would otherwise score MR with the old vectors, and an admitted
    /// entity would have no int8 row. Does nothing without a quantized
    /// entity table, or when the embedding's width differs from it (left
    /// for [`Bundle::validate`] to report).
    pub fn requantize_entities(&mut self) {
        let (Some(quant), Some(emb)) = (self.quant.as_mut(), self.embedding.as_ref()) else {
            return;
        };
        if let Some(table) = quant.entity_emb.as_mut().filter(|t| t.cols() == emb.dim()) {
            *table = QuantTensor::quantize(emb.matrix());
        }
    }

    /// Checks the cross-references between the tables and the model.
    ///
    /// # Errors
    /// With a description of the first inconsistency found.
    pub fn validate(&self) -> io::Result<()> {
        let fail = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        if self.model.vocab_size() != self.vocab.len() {
            return fail(format!(
                "vocab size mismatch: model expects {}, bundle has {}",
                self.model.vocab_size(),
                self.vocab.len()
            ));
        }
        if self.model.num_relations() != self.relations.len() {
            return fail(format!(
                "relation count mismatch: model expects {}, bundle has {}",
                self.model.num_relations(),
                self.relations.len()
            ));
        }
        if self.model.spec.use_mr {
            match &self.embedding {
                None => {
                    return fail(
                        "model uses mutual relations but bundle has no entity embedding".into(),
                    )
                }
                Some(emb) => {
                    if emb.len() != self.entities.len() {
                        return fail(format!(
                            "embedding rows ({}) != entity count ({})",
                            emb.len(),
                            self.entities.len()
                        ));
                    }
                    if emb.dim() != self.model.entity_dim() {
                        return fail(format!(
                            "embedding dim ({}) != model entity dim ({})",
                            emb.dim(),
                            self.model.entity_dim()
                        ));
                    }
                }
            }
        }
        if self.model.spec.use_type {
            // The type component averages an entity's type embeddings: an
            // empty list would score NaN.
            for (name, tys) in &self.entities {
                if tys.is_empty() {
                    return fail(format!("entity {name:?} has no type id"));
                }
                if tys.iter().any(|&t| t >= self.model.num_types()) {
                    return fail(format!("entity {name:?} has type id {tys:?} out of range"));
                }
            }
        }
        if let Some(quant) = &self.quant {
            if quant.spec != self.model.spec {
                return fail("quantized model spec differs from the f32 model".into());
            }
            if quant.num_relations != self.model.num_relations() {
                return fail(format!(
                    "quantized model has {} relations, f32 model {}",
                    quant.num_relations,
                    self.model.num_relations()
                ));
            }
            quant.validate().map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("quantized model: {e}"))
            })?;
            // Lookup tables are indexed by ids from this bundle's tables,
            // so their row counts must match them, not just their widths.
            let lookups = [
                ("word", Some(&quant.word_emb), self.vocab.len()),
                ("entity", quant.entity_emb.as_ref(), self.entities.len()),
                (
                    "type",
                    quant.ty.as_ref().map(|ty| &ty.emb),
                    self.model.num_types(),
                ),
            ];
            for (name, table, want) in lookups {
                if let Some(t) = table.filter(|t| t.rows() != want) {
                    return fail(format!(
                        "quantized {name} table has {} rows, bundle needs {want}",
                        t.rows()
                    ));
                }
            }
        }
        if let Some(ann) = &self.ann {
            if ann.dim() != self.model.sent_dim() {
                return fail(format!(
                    "ANN index dim ({}) != model sentence dim ({})",
                    ann.dim(),
                    self.model.sent_dim()
                ));
            }
            if let Some(&bad) = ann
                .labels()
                .iter()
                .find(|&&l| l as usize >= self.relations.len())
            {
                return fail(format!(
                    "ANN index labels a bag with relation {bad}, but the bundle has {} relations",
                    self.relations.len()
                ));
            }
        }
        Ok(())
    }
}

/// Writes the vocabulary / entity / relation / embedding tables — the byte
/// stream shared by every bundle version (inline in v1/v2, the `META`
/// section in v3).
fn write_tables<W: Write>(bundle: &Bundle, w: &mut W) -> io::Result<()> {
    // vocabulary (all words in id order, specials included)
    write_u64(w, bundle.vocab.len() as u64)?;
    for id in 0..bundle.vocab.len() {
        write_str(w, bundle.vocab.word(id))?;
    }
    // entity table
    write_u64(w, bundle.entities.len() as u64)?;
    for (name, types) in &bundle.entities {
        write_str(w, name)?;
        write_u64(w, types.len() as u64)?;
        for &t in types {
            write_u64(w, t as u64)?;
        }
    }
    // relation names
    write_u64(w, bundle.relations.len() as u64)?;
    for name in &bundle.relations {
        write_str(w, name)?;
    }
    // optional entity embedding
    match &bundle.embedding {
        None => w.write_all(&[0u8])?,
        Some(emb) => {
            w.write_all(&[1u8])?;
            let m = emb.matrix();
            write_u64(w, m.rows() as u64)?;
            write_u64(w, m.cols() as u64)?;
            let mut bytes = Vec::with_capacity(4 * m.data().len());
            for &x in m.data() {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            w.write_all(&bytes)?;
        }
    }
    Ok(())
}

/// Writes a bundle to a writer. Version is chosen by content: quantized
/// model → v3, ANN index only → v2, neither → v1 (v1/v2 bytes unchanged
/// from previous releases).
pub fn write_bundle<W: Write>(bundle: &Bundle, w: &mut W) -> io::Result<()> {
    if bundle.quant.is_some() {
        return write_bundle_v3(bundle, w);
    }
    let version = if bundle.ann.is_some() {
        VERSION_V2
    } else {
        VERSION_V1
    };
    w.write_all(MAGIC)?;
    w.write_all(&version.to_le_bytes())?;
    write_tables(bundle, w)?;
    write_model(&bundle.model, w)?;
    if let Some(ann) = &bundle.ann {
        ann.write_to(w)?;
    }
    Ok(())
}

/// v3: magic/version, section count, directory of
/// `{tag, offset u64, len u64, fnv1a u64}`, then the sections themselves at
/// 64-byte-aligned offsets with zero padding between.
fn write_bundle_v3<W: Write>(bundle: &Bundle, w: &mut W) -> io::Result<()> {
    let quant = bundle.quant.as_ref().expect("v3 writer needs quant");
    let mut sections: Vec<(&[u8; 4], Vec<u8>)> = Vec::new();
    let mut meta = Vec::new();
    write_tables(bundle, &mut meta)?;
    sections.push((TAG_META, meta));
    let mut modl = Vec::new();
    write_model(&bundle.model, &mut modl)?;
    sections.push((TAG_MODL, modl));
    sections.push((TAG_QNT8, crate::quantio::write_quant_section(quant)));
    if let Some(ann) = &bundle.ann {
        sections.push((TAG_IMRA, ann.write_aligned()));
    }

    w.write_all(MAGIC)?;
    w.write_all(&VERSION_V3.to_le_bytes())?;
    w.write_all(&(sections.len() as u32).to_le_bytes())?;
    let header_len = 12 + ENTRY_LEN * sections.len();
    let mut offset = header_len.next_multiple_of(SECTION_ALIGN);
    for (tag, body) in &sections {
        w.write_all(*tag)?;
        write_u64(w, offset as u64)?;
        write_u64(w, body.len() as u64)?;
        write_u64(w, fnv1a(body))?;
        offset = (offset + body.len()).next_multiple_of(SECTION_ALIGN);
    }
    let mut pos = header_len;
    for (_, body) in &sections {
        let pad = pos.next_multiple_of(SECTION_ALIGN) - pos;
        w.write_all(&vec![0u8; pad])?;
        w.write_all(body)?;
        pos = pos + pad + body.len();
    }
    Ok(())
}

/// Reads the table stream written by [`write_tables`].
#[allow(clippy::type_complexity)]
fn read_tables<R: Read>(
    r: &mut R,
) -> io::Result<(
    Vocab,
    Vec<(String, Vec<usize>)>,
    Vec<String>,
    Option<EntityEmbedding>,
)> {
    let vocab_len = read_u64(r)? as usize;
    if vocab_len < 2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "vocabulary misses the special tokens",
        ));
    }
    let mut vocab = Vocab::new();
    for id in 0..vocab_len {
        let word = read_str(r)?;
        if id < 2 {
            // `Vocab::new` pre-interns <pad>/<unk>; just check they match.
            if vocab.word(id) != word {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "special token {id} is {word:?}, expected {:?}",
                        vocab.word(id)
                    ),
                ));
            }
        } else if vocab.intern(&word) != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("duplicate vocabulary word {word:?}"),
            ));
        }
    }
    // The three counts below are untrusted and size nothing: entries are
    // pushed as they are read, so a short file ends in `UnexpectedEof`
    // having allocated no more than it held.
    let num_entities = read_u64(r)?;
    let mut entities = Vec::new();
    for _ in 0..num_entities {
        let name = read_str(r)?;
        let n_types = read_u64(r)?;
        let mut types = Vec::new();
        for _ in 0..n_types {
            types.push(read_u64(r)? as usize);
        }
        entities.push((name, types));
    }
    let num_relations = read_u64(r)?;
    let mut relations = Vec::new();
    for _ in 0..num_relations {
        relations.push(read_str(r)?);
    }
    let mut has_embedding = [0u8];
    r.read_exact(&mut has_embedding)?;
    let embedding = match has_embedding[0] {
        0 => None,
        1 => {
            let rows = read_u64(r)? as usize;
            let cols = read_u64(r)? as usize;
            let len = rows
                .checked_mul(cols)
                .ok_or_else(|| bad("embedding matrix size overflows"))?;
            let data = read_f32s(r, len)?;
            Some(EntityEmbedding::from_matrix(Tensor::from_vec(
                data,
                &[rows, cols],
            )))
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad embedding flag {other}"),
            ));
        }
    };
    Ok((vocab, entities, relations, embedding))
}

/// Reads a bundle written by [`write_bundle`] and validates it.
///
/// Works for every version; a v3 stream is buffered in memory and parsed
/// through the owned path (use [`load_bundle`] for the zero-copy mmap
/// path).
///
/// # Errors
/// On malformed input or inconsistent tables.
pub fn read_bundle<R: Read>(r: &mut R) -> io::Result<Bundle> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not an IMRB bundle file"));
    }
    let version = read_u32(r)?;
    match version {
        VERSION_V1 | VERSION_V2 => {
            let (vocab, entities, relations, embedding) = read_tables(r)?;
            let model = read_model(r)?;
            let ann = if version >= VERSION_V2 {
                Some(AnnIndex::read_from(r)?)
            } else {
                None
            };
            let bundle = Bundle {
                vocab,
                entities,
                relations,
                embedding,
                model,
                ann,
                quant: None,
            };
            bundle.validate()?;
            Ok(bundle)
        }
        VERSION_V3 => {
            // Rebuild the full file image so the directory's absolute
            // offsets stay meaningful, then parse owned.
            let mut full = Vec::new();
            full.extend_from_slice(MAGIC);
            full.extend_from_slice(&version.to_le_bytes());
            r.read_to_end(&mut full)?;
            parse_v3(&full, None)
        }
        other => Err(bad(format!(
            "unsupported IMRB version {other} (this reader supports 1-3)"
        ))),
    }
}

/// One parsed v3 directory entry.
struct Section {
    tag: [u8; 4],
    offset: usize,
    len: usize,
}

/// Parses a complete v3 file image. With `keep = Some(mapping)` the large
/// payloads (int8 tables, ANN vectors) borrow from `bytes` zero-copy and
/// hold the mapping alive; without, everything is copied into owned
/// buffers. Either way every section's FNV-1a checksum is verified first.
fn parse_v3(bytes: &[u8], keep: Option<Arc<dyn Any + Send + Sync>>) -> io::Result<Bundle> {
    if bytes.len() < 12 || &bytes[0..4] != MAGIC {
        return Err(bad("not an IMRB bundle file"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION_V3 {
        return Err(bad(format!("expected IMRB version 3, found {version}")));
    }
    let n = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    if !(3..=8).contains(&n) {
        return Err(bad(format!("implausible v3 section count {n}")));
    }
    let header_len = 12usize
        .checked_add(ENTRY_LEN.checked_mul(n).ok_or_else(|| bad("overflow"))?)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| bad("v3 section table truncated"))?;
    let mut sections = Vec::with_capacity(n);
    for i in 0..n {
        let e = &bytes[12 + i * ENTRY_LEN..12 + (i + 1) * ENTRY_LEN];
        let tag: [u8; 4] = e[0..4].try_into().unwrap();
        let offset = u64::from_le_bytes(e[4..12].try_into().unwrap());
        let len = u64::from_le_bytes(e[12..20].try_into().unwrap());
        let checksum = u64::from_le_bytes(e[20..28].try_into().unwrap());
        // All directory fields are untrusted: checked math end to end.
        let offset = usize::try_from(offset).map_err(|_| bad("section offset overflows"))?;
        let len = usize::try_from(len).map_err(|_| bad("section length overflows"))?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| {
                bad(format!(
                    "section {} out of bounds",
                    String::from_utf8_lossy(&tag)
                ))
            })?;
        if offset < header_len || !offset.is_multiple_of(SECTION_ALIGN) {
            return Err(bad(format!(
                "section {} misaligned at offset {offset}",
                String::from_utf8_lossy(&tag)
            )));
        }
        if sections.iter().any(|s: &Section| s.tag == tag) {
            return Err(bad(format!(
                "duplicate section {}",
                String::from_utf8_lossy(&tag)
            )));
        }
        if fnv1a(&bytes[offset..end]) != checksum {
            return Err(bad(format!(
                "section {} checksum mismatch",
                String::from_utf8_lossy(&tag)
            )));
        }
        sections.push(Section { tag, offset, len });
    }
    let find = |tag: &[u8; 4]| -> Option<&[u8]> {
        sections
            .iter()
            .find(|s| &s.tag == tag)
            .map(|s| &bytes[s.offset..s.offset + s.len])
    };
    let meta = find(TAG_META).ok_or_else(|| bad("v3 bundle misses META section"))?;
    let modl = find(TAG_MODL).ok_or_else(|| bad("v3 bundle misses MODL section"))?;
    let qnt8 = find(TAG_QNT8).ok_or_else(|| bad("v3 bundle misses QNT8 section"))?;

    let mut meta_r = meta;
    let (vocab, entities, relations, embedding) = read_tables(&mut meta_r)?;
    if !meta_r.is_empty() {
        return Err(bad("META section has trailing bytes"));
    }
    let mut modl_r = modl;
    let model = read_model(&mut modl_r)?;
    if !modl_r.is_empty() {
        return Err(bad("MODL section has trailing bytes"));
    }
    let quant = crate::quantio::read_quant_section(qnt8, &model, keep.clone())?;
    let ann = match find(TAG_IMRA) {
        Some(sec) => Some(AnnIndex::read_aligned(sec, keep)?),
        None => None,
    };
    let bundle = Bundle {
        vocab,
        entities,
        relations,
        embedding,
        model,
        ann,
        quant: Some(quant),
    };
    bundle.validate()?;
    Ok(bundle)
}

/// Saves a bundle to a file.
pub fn save_bundle(bundle: &Bundle, path: &Path) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    write_bundle(bundle, &mut file)
}

/// Loads a bundle from a file.
///
/// v1/v2 files stream through the owned reader, byte-identically to
/// previous releases. A v3 file is **memory-mapped** (on Linux): the int8
/// tables and ANN vectors borrow the mapping zero-copy, and the pages stay
/// mapped until the last model/batch holding them drops — which is what
/// makes registry hot-swap a pointer swap.
pub fn load_bundle(path: &Path) -> io::Result<Bundle> {
    let file = std::fs::File::open(path)?;
    #[cfg(target_os = "linux")]
    {
        let mut head = [0u8; 8];
        use std::io::Read as _;
        (&file).read_exact(&mut head)?;
        if &head[0..4] == MAGIC && u32::from_le_bytes(head[4..8].try_into().unwrap()) == VERSION_V3
        {
            let map = Arc::new(crate::mmap::Mapping::of_file(&file)?);
            // SAFETY-free borrow: the slice lives as long as `map`, and
            // every borrower holds an `Arc<Mapping>` clone.
            let bytes: &[u8] = map.as_slice();
            // The borrow checker cannot see that `map` outlives the parse,
            // so extend the slice lifetime manually; the Arc keepalives
            // inside the parsed bundle uphold it.
            #[allow(unsafe_code)]
            let bytes: &'static [u8] =
                unsafe { std::slice::from_raw_parts(bytes.as_ptr(), bytes.len()) };
            return parse_v3(bytes, Some(map));
        }
        // Not v3: rewind by reopening through the buffered stream path.
    }
    drop(file);
    let mut file = io::BufReader::new(std::fs::File::open(path)?);
    read_bundle(&mut file)
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)
}

fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible string length {len}"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}
