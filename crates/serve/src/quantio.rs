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
//! Read from a mapped file (the mmap load), every table array is a view
//! into the mapping, holding it alive; whatever the view constructor
//! refuses is copied. Both paths produce models with bit-identical
//! predictions — the bytes are the same either way.

use imre_core::quant::{QuantCombiner, QuantLinear, QuantType};
use imre_core::{QuantModel, ReModel};
use imre_tensor::bytes::{expect_header, extend, invalid, pad, Cursor, Mapping, ALIGN};
use imre_tensor::quant::{QuantPack, MAX_COLS};
use imre_tensor::QuantTensor;
use std::io;
use std::sync::Arc;

/// Section magic, distinct from `IMRB`/`IMRM`/`IMRA`.
pub const QUANT_MAGIC: &[u8; 4] = b"QNT8";
/// Current `QNT8` layout version.
pub const QUANT_VERSION: u32 = 1;

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

/// Serializes a quantized model as one `QNT8` section.
pub fn write_quant_section(qm: &QuantModel) -> Vec<u8> {
    let tabs = tables(qm);
    let bs = biases(qm);
    let mut b = Vec::with_capacity(qm.bytes() + ALIGN * (4 * tabs.len() + 2));
    b.extend_from_slice(QUANT_MAGIC);
    extend(&mut b, &[QUANT_VERSION]);
    let (alpha, beta, gamma) = qm
        .comb
        .as_ref()
        .map(|c| (c.alpha, c.beta, c.gamma))
        .unwrap_or((0.0, 0.0, 0.0));
    extend(&mut b, &[alpha, beta, gamma]);
    extend(&mut b, &[tabs.len() as u32, bs.len() as u32]);
    for (tag, t) in &tabs {
        extend(&mut b, &[*tag]);
        extend(&mut b, &[t.rows() as u64, t.cols() as u64]);
    }
    for (tag, bias) in &bs {
        extend(&mut b, &[*tag]);
        extend(&mut b, &[bias.len() as u64]);
    }
    for (_, bias) in &bs {
        extend(&mut b, bias);
    }
    for (_, t) in &tabs {
        pad(&mut b);
        extend(&mut b, t.data());
        pad(&mut b);
        extend(&mut b, t.scales());
        pad(&mut b);
        extend(&mut b, t.zeros());
        pad(&mut b);
        extend(&mut b, t.row_sums());
    }
    b
}

/// One table's four arrays, each viewed in `map` or copied. The shape is
/// untrusted: `cols` must be a width the kernels accept, and every size is
/// checked arithmetic.
fn read_table(
    c: &mut Cursor<'_>,
    rows: usize,
    cols: usize,
    map: Option<&Arc<Mapping>>,
) -> io::Result<QuantTensor> {
    if cols == 0 || cols > MAX_COLS {
        return Err(invalid(format!("QNT8 table width {cols} out of range")));
    }
    let cells = rows
        .checked_mul(cols)
        .ok_or_else(|| invalid("QNT8 table shape overflows"))?;
    c.align()?;
    let data = c.storage::<i8>(cells, map)?;
    c.align()?;
    let scales = c.storage::<f32>(rows, map)?;
    c.align()?;
    let zeros = c.storage::<i8>(rows, map)?;
    c.align()?;
    let sums = c.storage::<i32>(rows, map)?;
    QuantTensor::from_parts(rows, cols, data, scales, zeros, sums).map_err(invalid)
}

/// Parses a `QNT8` section against the bundle's f32 `model` (which supplies
/// the architecture) and rebuilds the [`QuantModel`].
///
/// With `map` given and `bytes` inside it, the table arrays are views into
/// the mapping; otherwise, or wherever the view constructor refuses, they
/// are copied. All shapes are cross-checked against the model via
/// [`QuantModel::validate`] — mismatches are `InvalidData`.
pub fn read_quant_section(
    bytes: &[u8],
    model: &ReModel,
    map: Option<&Arc<Mapping>>,
) -> io::Result<QuantModel> {
    let mut c = Cursor::new(bytes, "QNT8 section");
    expect_header(&mut c, QUANT_MAGIC, &[QUANT_VERSION])?;
    let alpha = c.get::<f32>()?;
    let beta = c.get::<f32>()?;
    let gamma = c.get::<f32>()?;
    let n_tables = c.get::<u32>()? as usize;
    let n_biases = c.get::<u32>()? as usize;
    if n_tables > 16 || n_biases > 16 {
        return Err(invalid("QNT8 directory implausibly large"));
    }
    let mut tab_dir = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let tag = c.get::<u32>()?;
        let rows = c.get::<u64>()? as usize;
        let cols = c.get::<u64>()? as usize;
        tab_dir.push((tag, rows, cols));
    }
    let mut bias_dir = Vec::with_capacity(n_biases);
    for _ in 0..n_biases {
        let tag = c.get::<u32>()?;
        let len = c.get::<u64>()? as usize;
        if len > 1 << 24 {
            return Err(invalid("QNT8 bias implausibly large"));
        }
        bias_dir.push((tag, len));
    }
    let mut bias: [Option<Vec<f32>>; 5] = Default::default();
    for (tag, len) in bias_dir {
        let slot = bias
            .get_mut(tag as usize)
            .ok_or_else(|| invalid(format!("unknown QNT8 bias tag {tag}")))?;
        if slot.is_some() {
            return Err(invalid(format!("duplicate QNT8 bias tag {tag}")));
        }
        *slot = Some(c.vec::<f32>(len)?);
    }
    let mut table: [Option<QuantTensor>; 11] = Default::default();
    for (tag, rows, cols) in tab_dir {
        let slot = table
            .get_mut(tag as usize)
            .ok_or_else(|| invalid(format!("unknown QNT8 table tag {tag}")))?;
        if slot.is_some() {
            return Err(invalid(format!("duplicate QNT8 table tag {tag}")));
        }
        *slot = Some(read_table(&mut c, rows, cols, map)?);
    }
    c.finish()?;

    let mut take_tab = |tag: u32| -> io::Result<QuantTensor> {
        table[tag as usize]
            .take()
            .ok_or_else(|| invalid(format!("QNT8 section misses table {tag}")))
    };
    let mut take_bias = |tag: u32| -> io::Result<Vec<f32>> {
        bias[tag as usize]
            .take()
            .ok_or_else(|| invalid(format!("QNT8 section misses bias {tag}")))
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
    qm.validate().map_err(invalid)?;
    Ok(qm)
}
