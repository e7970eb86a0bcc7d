//! Serialization of an int8 [`QuantModel`] as the `QNT8` section of a v3
//! `.imrb` bundle.
//!
//! The section is laid out so every large array starts at a multiple of 64
//! bytes **relative to the section start** (which the bundle places at a
//! 64-byte-aligned file offset, and mappings are page-aligned — so relative
//! alignment is absolute alignment both on disk and in memory):
//!
//! ```text
//! magic "QNT8" · version u32
//! alpha f32 · beta f32 · gamma f32      (combiner mix; zeros if absent)
//! n_tables u32 · n_biases u32
//! table directory: n × { tag u32, rows u64, cols u64 }
//! bias directory:  n × { tag u32, len u64 }
//! bias payloads (packed f32 — small, always copied on read)
//! per table, in directory order:
//!   pad to 64 · data i8[rows·cols]
//!   pad to 64 · scales f32[rows]
//!   pad to 64 · zeros i8[rows]
//!   pad to 64 · row_sums i32[rows]
//! ```
//!
//! The architecture (spec, hyperparameters, relation count) is *not*
//! duplicated here — the reader takes them from the bundle's f32 model and
//! cross-checks every shape via [`QuantModel::validate`], so the two
//! sections can never drift apart silently.
//!
//! With a keepalive `Arc` (the mmap path) and an aligned base address, all
//! table payloads are **borrowed zero-copy**; otherwise they are copied
//! into owned buffers. Both paths produce models with bit-identical
//! predictions — the bytes are the same either way.

use imre_core::quant::{QuantCombiner, QuantLinear, QuantType};
use imre_core::{QuantModel, ReModel};
use imre_tensor::quant::QuantPack;
use imre_tensor::QuantTensor;
use std::any::Any;
use std::io;
use std::sync::Arc;

/// Section magic, distinct from `IMRB`/`IMRM`/`IMRA`.
pub const QUANT_MAGIC: &[u8; 4] = b"QNT8";
/// Current `QNT8` layout version.
pub const QUANT_VERSION: u32 = 1;
/// Alignment of every array payload, relative to the section start.
pub const QUANT_ALIGN: usize = 64;

// Table tags, fixed for the format's lifetime.
const T_WORD_EMB: u32 = 0;
const T_HEAD_POS: u32 = 1;
const T_TAIL_POS: u32 = 2;
const T_CONV_W: u32 = 3;
const T_ATT_Q: u32 = 4;
const T_RE_HEAD_W: u32 = 5;
const T_MR_W: u32 = 6;
const T_ENTITY_EMB: u32 = 7;
const T_TY_EMB: u32 = 8;
const T_TY_FC_W: u32 = 9;
const T_COMB_OUT_W: u32 = 10;

// Bias tags.
const B_CONV: u32 = 0;
const B_RE_HEAD: u32 = 1;
const B_MR: u32 = 2;
const B_TY_FC: u32 = 3;
const B_COMB_OUT: u32 = 4;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `(tag, tensor)` pairs in canonical write order.
fn tables(qm: &QuantModel) -> Vec<(u32, &QuantTensor)> {
    let mut out = vec![
        (T_WORD_EMB, &qm.word_emb),
        (T_HEAD_POS, &qm.head_pos_emb),
        (T_TAIL_POS, &qm.tail_pos_emb),
        (T_CONV_W, &qm.conv.w),
        (T_RE_HEAD_W, &qm.re_head.w),
    ];
    if let Some(q) = &qm.att_queries {
        out.push((T_ATT_Q, q));
    }
    if let Some(mr) = &qm.mr {
        out.push((T_MR_W, &mr.w));
    }
    if let Some(e) = &qm.entity_emb {
        out.push((T_ENTITY_EMB, e));
    }
    if let Some(ty) = &qm.ty {
        out.push((T_TY_EMB, &ty.emb));
        out.push((T_TY_FC_W, &ty.fc.w));
    }
    if let Some(c) = &qm.comb {
        out.push((T_COMB_OUT_W, &c.out.w));
    }
    out
}

/// `(tag, bias)` pairs in canonical write order.
fn biases(qm: &QuantModel) -> Vec<(u32, &[f32])> {
    let mut out = vec![(B_CONV, &qm.conv.b[..]), (B_RE_HEAD, &qm.re_head.b[..])];
    if let Some(mr) = &qm.mr {
        out.push((B_MR, &mr.b[..]));
    }
    if let Some(ty) = &qm.ty {
        out.push((B_TY_FC, &ty.fc.b[..]));
    }
    if let Some(c) = &qm.comb {
        out.push((B_COMB_OUT, &c.out.b[..]));
    }
    out
}

fn pad_to(b: &mut Vec<u8>, align: usize) {
    b.resize(b.len().next_multiple_of(align), 0);
}

/// Serializes a quantized model as one `QNT8` section.
pub fn write_quant_section(qm: &QuantModel) -> Vec<u8> {
    let tabs = tables(qm);
    let bs = biases(qm);
    let mut b = Vec::with_capacity(qm.bytes() + 64 * (4 * tabs.len() + 2));
    b.extend_from_slice(QUANT_MAGIC);
    b.extend_from_slice(&QUANT_VERSION.to_le_bytes());
    let (alpha, beta, gamma) = qm
        .comb
        .as_ref()
        .map(|c| (c.alpha, c.beta, c.gamma))
        .unwrap_or((0.0, 0.0, 0.0));
    for v in [alpha, beta, gamma] {
        b.extend_from_slice(&v.to_le_bytes());
    }
    b.extend_from_slice(&(tabs.len() as u32).to_le_bytes());
    b.extend_from_slice(&(bs.len() as u32).to_le_bytes());
    for (tag, t) in &tabs {
        b.extend_from_slice(&tag.to_le_bytes());
        b.extend_from_slice(&(t.rows() as u64).to_le_bytes());
        b.extend_from_slice(&(t.cols() as u64).to_le_bytes());
    }
    for (tag, bias) in &bs {
        b.extend_from_slice(&tag.to_le_bytes());
        b.extend_from_slice(&(bias.len() as u64).to_le_bytes());
    }
    for (_, bias) in &bs {
        for &x in *bias {
            b.extend_from_slice(&x.to_le_bytes());
        }
    }
    for (_, t) in &tabs {
        pad_to(&mut b, QUANT_ALIGN);
        // i8 slices reinterpret to u8 bytes one-to-one.
        b.extend(t.data().iter().map(|&v| v as u8));
        pad_to(&mut b, QUANT_ALIGN);
        for &s in t.scales() {
            b.extend_from_slice(&s.to_le_bytes());
        }
        pad_to(&mut b, QUANT_ALIGN);
        b.extend(t.zeros().iter().map(|&v| v as u8));
        pad_to(&mut b, QUANT_ALIGN);
        for &s in t.row_sums() {
            b.extend_from_slice(&s.to_le_bytes());
        }
    }
    b
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("QNT8 section truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn align(&mut self, align: usize) -> io::Result<()> {
        let pad = self.pos.next_multiple_of(align) - self.pos;
        if self.take(pad)?.iter().any(|&b| b != 0) {
            return Err(bad("QNT8 alignment padding not zeroed"));
        }
        Ok(())
    }
}

/// One parsed table payload, either borrowed or copied.
fn read_table(
    c: &mut Cursor<'_>,
    rows: usize,
    cols: usize,
    keep: &Option<Arc<dyn Any + Send + Sync>>,
) -> io::Result<QuantTensor> {
    let cells = rows
        .checked_mul(cols)
        .filter(|&n| n <= (1 << 31))
        .ok_or_else(|| bad("QNT8 table shape overflows"))?;
    c.align(QUANT_ALIGN)?;
    let data = c.take(cells)?;
    c.align(QUANT_ALIGN)?;
    let scales = c.take(4 * rows)?;
    c.align(QUANT_ALIGN)?;
    let zeros = c.take(rows)?;
    c.align(QUANT_ALIGN)?;
    let sums = c.take(4 * rows)?;
    let borrowable = cfg!(target_endian = "little")
        && (scales.as_ptr() as usize).is_multiple_of(4)
        && (sums.as_ptr() as usize).is_multiple_of(4);
    if let (Some(owner), true) = (keep, borrowable) {
        // SAFETY: alignment checked above (i8 needs none), lengths match
        // the directory entry, and `owner` keeps the mapping alive and
        // immutable for the tensor's lifetime.
        return Ok(unsafe {
            QuantTensor::from_borrowed_parts(
                rows,
                cols,
                data.as_ptr() as *const i8,
                scales.as_ptr() as *const f32,
                zeros.as_ptr() as *const i8,
                sums.as_ptr() as *const i32,
                Arc::clone(owner),
            )
        });
    }
    QuantTensor::from_owned_parts(
        rows,
        cols,
        data.iter().map(|&b| b as i8).collect(),
        scales
            .chunks_exact(4)
            .map(|w| f32::from_le_bytes(w.try_into().unwrap()))
            .collect(),
        zeros.iter().map(|&b| b as i8).collect(),
        sums.chunks_exact(4)
            .map(|w| i32::from_le_bytes(w.try_into().unwrap()))
            .collect(),
    )
    .map_err(bad)
}

/// Parses a `QNT8` section against the bundle's f32 `model` (which supplies
/// the architecture) and rebuilds the [`QuantModel`].
///
/// With `keep = Some(mapping)` the table payloads are borrowed zero-copy
/// from `bytes` (the caller guarantees `bytes` outlives `keep`); without,
/// everything is copied. All shapes are cross-checked against the model via
/// [`QuantModel::validate`] — mismatches are `InvalidData`.
pub fn read_quant_section(
    bytes: &[u8],
    model: &ReModel,
    keep: Option<Arc<dyn Any + Send + Sync>>,
) -> io::Result<QuantModel> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(4)? != QUANT_MAGIC {
        return Err(bad("bad QNT8 section magic"));
    }
    let version = c.u32()?;
    if version != QUANT_VERSION {
        return Err(bad(format!("unsupported QNT8 version {version}")));
    }
    let alpha = c.f32()?;
    let beta = c.f32()?;
    let gamma = c.f32()?;
    let n_tables = c.u32()? as usize;
    let n_biases = c.u32()? as usize;
    if n_tables > 16 || n_biases > 16 {
        return Err(bad("QNT8 directory implausibly large"));
    }
    let mut tab_dir = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let tag = c.u32()?;
        let rows = c.u64()? as usize;
        let cols = c.u64()? as usize;
        tab_dir.push((tag, rows, cols));
    }
    let mut bias_dir = Vec::with_capacity(n_biases);
    for _ in 0..n_biases {
        let tag = c.u32()?;
        let len = c.u64()? as usize;
        if len > 1 << 24 {
            return Err(bad("QNT8 bias implausibly large"));
        }
        bias_dir.push((tag, len));
    }
    let mut bias: [Option<Vec<f32>>; 5] = Default::default();
    for (tag, len) in bias_dir {
        let slot = bias
            .get_mut(tag as usize)
            .ok_or_else(|| bad(format!("unknown QNT8 bias tag {tag}")))?;
        if slot.is_some() {
            return Err(bad(format!("duplicate QNT8 bias tag {tag}")));
        }
        *slot = Some(
            c.take(4 * len)?
                .chunks_exact(4)
                .map(|w| f32::from_le_bytes(w.try_into().unwrap()))
                .collect(),
        );
    }
    let mut table: [Option<QuantTensor>; 11] = Default::default();
    for (tag, rows, cols) in tab_dir {
        let slot = (tag as usize) < table.len();
        if !slot {
            return Err(bad(format!("unknown QNT8 table tag {tag}")));
        }
        if table[tag as usize].is_some() {
            return Err(bad(format!("duplicate QNT8 table tag {tag}")));
        }
        table[tag as usize] = Some(read_table(&mut c, rows, cols, &keep)?);
    }
    if c.pos != bytes.len() {
        return Err(bad("QNT8 section has trailing bytes"));
    }

    let mut take_tab = |tag: u32| -> io::Result<QuantTensor> {
        table[tag as usize]
            .take()
            .ok_or_else(|| bad(format!("QNT8 section misses table {tag}")))
    };
    let mut take_bias = |tag: u32| -> io::Result<Vec<f32>> {
        bias[tag as usize]
            .take()
            .ok_or_else(|| bad(format!("QNT8 section misses bias {tag}")))
    };

    let spec = model.spec;
    let conv = QuantLinear {
        w: take_tab(T_CONV_W)?,
        b: take_bias(B_CONV)?,
    };
    let qm = QuantModel {
        spec,
        hp: model.hp.clone(),
        word_emb: take_tab(T_WORD_EMB)?,
        head_pos_emb: take_tab(T_HEAD_POS)?,
        tail_pos_emb: take_tab(T_TAIL_POS)?,
        conv_pack: QuantPack::new(&conv.w),
        conv,
        att_queries: if spec.agg == imre_core::AggKind::Att {
            Some(take_tab(T_ATT_Q)?)
        } else {
            None
        },
        re_head: QuantLinear {
            w: take_tab(T_RE_HEAD_W)?,
            b: take_bias(B_RE_HEAD)?,
        },
        mr: if spec.use_mr {
            Some(QuantLinear {
                w: take_tab(T_MR_W)?,
                b: take_bias(B_MR)?,
            })
        } else {
            None
        },
        entity_emb: if spec.use_mr {
            Some(take_tab(T_ENTITY_EMB)?)
        } else {
            None
        },
        ty: if spec.use_type {
            Some(QuantType {
                emb: take_tab(T_TY_EMB)?,
                fc: QuantLinear {
                    w: take_tab(T_TY_FC_W)?,
                    b: take_bias(B_TY_FC)?,
                },
            })
        } else {
            None
        },
        comb: if spec.use_mr || spec.use_type {
            Some(QuantCombiner {
                alpha,
                beta,
                gamma,
                out: QuantLinear {
                    w: take_tab(T_COMB_OUT_W)?,
                    b: take_bias(B_COMB_OUT)?,
                },
            })
        } else {
            None
        },
        num_relations: model.num_relations(),
    };
    qm.validate().map_err(bad)?;
    Ok(qm)
}
