//! Post-training int8 quantization of a trained [`ReModel`] and the
//! tape-free quantized inference forward (`predict_quant_into`).
//!
//! [`QuantModel::from_model`] snapshots every large table of a trained
//! model — the word/position embedding front-end, the conv filter bank,
//! the selective-attention queries (pre-multiplied by the diagonal `A`),
//! the relation head, and the optional MR / entity-type / combiner
//! components plus the LINE entity embeddings — into per-row affine
//! [`QuantTensor`]s (`imre_tensor::quant`). Small parameters (biases,
//! α/β/γ) stay f32.
//!
//! The forward replays the eval-mode f32 graph exactly, with every
//! matrix-vector product running in i8×i8→i32 and dequantizing only at the
//! nonlinearity boundaries (tanh, softmax) and the attention-weighted sums:
//!
//! ```text
//! gather-dequant embeddings → unfold → qgemm(conv) → piecewise max →
//! tanh → [per sentence, one quantized row: qmatvec(a⊙q), qmatvec(re_head)]
//! → [f32: attention softmax per relation → mix projections + bias →
//! softmax → diagonal] → combiner (f32 mix → qmatvec → softmax)
//! ```
//!
//! Held-out scoring follows the f32 path's project-once identity
//! (`W·Σ_j α_j x_j = Σ_j α_j W·x_j`, see [`crate::attention`]): each
//! sentence encoding is quantized **once** and that row feeds both the
//! attention-query product and the relation-head product; the per-relation
//! work that remains is f32 mixing of `[n, R]` projections, shared with the
//! f32 forward. No bag vector is formed or quantized per relation.
//!
//! All intermediate storage lives in a [`QuantScratch`] whose `Vec`s are
//! `clear()`+`resize()`d — capacity is retained across calls, so a warm
//! quantized inference performs **zero** heap allocations (gated by
//! `crates/bench/tests/zero_alloc_quant.rs`), mirroring the PR 4 arena
//! discipline of the f32 path.
//!
//! GRU-family encoders (GRU+ATT, BGWA) are recurrent with per-step
//! activation ranges; they are not supported by the post-training scheme
//! and [`QuantModel::from_model`] reports a typed error for them.

use crate::config::HyperParams;
use crate::model::{ModelSpec, PreparedBag};
use imre_graph::EntityEmbedding;
use imre_nn::pcnn_segments_array;
use imre_tensor::quant::{self, QuantPack, QuantRowParams};
use imre_tensor::{softmax_in_place, QuantTensor, Tensor};

use crate::attention::{diagonal_scores, AggKind};
use crate::encoder::EncoderKind;
use crate::model::ReModel;

/// Why a model cannot be quantized.
#[derive(Debug)]
pub enum QuantizeError {
    /// The architecture is outside the post-training int8 scheme.
    Unsupported(String),
    /// A required parameter or input was missing.
    Missing(String),
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizeError::Unsupported(what) => {
                write!(f, "unsupported for int8 quantization: {what}")
            }
            QuantizeError::Missing(what) => write!(f, "missing quantization input: {what}"),
        }
    }
}

impl std::error::Error for QuantizeError {}

/// A quantized dense layer: `[out, in]` int8 weight rows + f32 bias.
pub struct QuantLinear {
    /// Weight rows, one per output unit (transposed from the f32 layout).
    pub w: QuantTensor,
    /// f32 bias, length `w.rows()`.
    pub b: Vec<f32>,
}

impl QuantLinear {
    fn from_store(store: &imre_nn::ParamStore, name: &str) -> Result<QuantLinear, QuantizeError> {
        let w = find(store, &format!("{name}.w"))?;
        let b = find(store, &format!("{name}.b"))?;
        Ok(QuantLinear {
            w: QuantTensor::quantize_transposed(w),
            b: b.data().to_vec(),
        })
    }

    /// `out = dequant(act · wᵀ) + b` for a pre-quantized activation row.
    fn apply(&self, act: &[i8], p: QuantRowParams, out: &mut [f32]) {
        quant::qmatvec_into(&self.w, act, p, Some(&self.b), out);
    }
}

/// The quantized entity-type component.
pub struct QuantType {
    /// Type-embedding table `[num_types, type_dim]`.
    pub emb: QuantTensor,
    /// Confidence head `2·type_dim → num_relations`.
    pub fc: QuantLinear,
}

/// The quantized combiner (α/β/γ stay f32; the near-identity output map is
/// quantized like any other linear layer).
pub struct QuantCombiner {
    /// Mixing weight for `C_MR`.
    pub alpha: f32,
    /// Mixing weight for `C_T`.
    pub beta: f32,
    /// Mixing weight for the RE score vector.
    pub gamma: f32,
    /// Final `num_relations → num_relations` map.
    pub out: QuantLinear,
}

/// An int8-quantized, inference-only snapshot of a trained [`ReModel`].
///
/// Fields are public so the bundle layer can serialize them and rebuild the
/// struct from (possibly memory-mapped) parts; always run
/// [`QuantModel::validate`] after manual construction.
pub struct QuantModel {
    /// The architecture this snapshot implements.
    pub spec: ModelSpec,
    /// Hyperparameters (featurization + widths).
    pub hp: HyperParams,
    /// Word embeddings `[vocab, word_dim]`.
    pub word_emb: QuantTensor,
    /// Head relative-position embeddings `[pos_vocab, pos_dim]`.
    pub head_pos_emb: QuantTensor,
    /// Tail relative-position embeddings `[pos_vocab, pos_dim]`.
    pub tail_pos_emb: QuantTensor,
    /// Conv filter bank `[filters, window·in_dim]` (transposed).
    pub conv: QuantLinear,
    /// `conv.w` packed for [`quant::qgemm_into`]: `QuantPack::new(&conv.w)`,
    /// built with the model, never per request.
    pub conv_pack: QuantPack,
    /// Selective-attention query rows `a ⊙ q_r`, `[num_relations,
    /// sent_dim]` (absent under mean aggregation).
    pub att_queries: Option<QuantTensor>,
    /// Relation head `sent_dim → num_relations`.
    pub re_head: QuantLinear,
    /// MR head `entity_dim → num_relations` (PA-MR/PA-TMR).
    pub mr: Option<QuantLinear>,
    /// LINE entity embeddings `[entities, entity_dim]` (required with
    /// `mr`).
    pub entity_emb: Option<QuantTensor>,
    /// Entity-type component (PA-T/PA-TMR).
    pub ty: Option<QuantType>,
    /// Confidence combiner (any PA-* variant).
    pub comb: Option<QuantCombiner>,
    /// Number of relation labels.
    pub num_relations: usize,
}

fn find<'a>(store: &'a imre_nn::ParamStore, name: &str) -> Result<&'a Tensor, QuantizeError> {
    store
        .find(name)
        .map(|id| store.get(id))
        .ok_or_else(|| QuantizeError::Missing(format!("parameter {name}")))
}

impl QuantModel {
    /// Quantizes a trained model (plus, for MR variants, the LINE entity
    /// embeddings that live next to the model in the bundle).
    pub fn from_model(
        model: &ReModel,
        entity_emb: Option<&EntityEmbedding>,
    ) -> Result<QuantModel, QuantizeError> {
        let spec = model.spec;
        if spec.encoder == EncoderKind::Gru || spec.word_att {
            return Err(QuantizeError::Unsupported(format!(
                "{} uses a recurrent encoder; post-training int8 covers the CNN/PCNN family",
                spec.name()
            )));
        }
        let store = &model.store;
        let word_emb = QuantTensor::quantize(find(store, "enc.word_emb")?);
        let head_pos_emb = QuantTensor::quantize(find(store, "enc.head_pos_emb")?);
        let tail_pos_emb = QuantTensor::quantize(find(store, "enc.tail_pos_emb")?);
        let conv = QuantLinear::from_store(store, "enc.conv")?;
        let att_queries = if spec.agg == AggKind::Att {
            let a = find(store, "att.a_diag")?;
            let q = find(store, "att.queries")?;
            let (rows, cols) = (q.rows(), q.cols());
            let mut aq = Tensor::zeros(&[rows, cols]);
            for r in 0..rows {
                for c in 0..cols {
                    aq.data_mut()[r * cols + c] = a.data()[c] * q.data()[r * cols + c];
                }
            }
            Some(QuantTensor::quantize(&aq))
        } else {
            None
        };
        let re_head = QuantLinear::from_store(store, "re_head")?;
        let mr = if spec.use_mr {
            Some(QuantLinear::from_store(store, "mr")?)
        } else {
            None
        };
        let entity_emb = if spec.use_mr {
            let emb = entity_emb.ok_or_else(|| {
                QuantizeError::Missing("entity embeddings (spec.use_mr)".to_string())
            })?;
            Some(QuantTensor::quantize(emb.matrix()))
        } else {
            None
        };
        let ty = if spec.use_type {
            Some(QuantType {
                emb: QuantTensor::quantize(find(store, "ty.emb")?),
                fc: QuantLinear::from_store(store, "ty.fc")?,
            })
        } else {
            None
        };
        let comb = if spec.use_mr || spec.use_type {
            Some(QuantCombiner {
                alpha: find(store, "comb.alpha")?.data()[0],
                beta: find(store, "comb.beta")?.data()[0],
                gamma: find(store, "comb.gamma")?.data()[0],
                out: QuantLinear::from_store(store, "comb.out")?,
            })
        } else {
            None
        };
        let qm = QuantModel {
            spec,
            hp: model.hp.clone(),
            word_emb,
            head_pos_emb,
            tail_pos_emb,
            conv_pack: QuantPack::new(&conv.w),
            conv,
            att_queries,
            re_head,
            mr,
            entity_emb,
            ty,
            comb,
            num_relations: model.num_relations(),
        };
        qm.validate().map_err(QuantizeError::Unsupported)?;
        Ok(qm)
    }

    /// Per-token encoder input width.
    pub fn in_dim(&self) -> usize {
        self.hp.word_dim + 2 * self.hp.pos_dim
    }

    /// Sentence-vector width (`filters` for CNN, `3·filters` for PCNN).
    pub fn sent_dim(&self) -> usize {
        match self.spec.encoder {
            EncoderKind::Cnn => self.hp.filters,
            EncoderKind::Pcnn => 3 * self.hp.filters,
            EncoderKind::Gru => unreachable!("GRU specs are rejected at construction"),
        }
    }

    /// Total bytes of quantized payload (weights + per-row parameters).
    pub fn bytes(&self) -> usize {
        let lin = |l: &QuantLinear| l.w.bytes() + l.b.len() * 4;
        let mut total = self.word_emb.bytes()
            + self.head_pos_emb.bytes()
            + self.tail_pos_emb.bytes()
            + lin(&self.conv)
            + lin(&self.re_head);
        if let Some(q) = &self.att_queries {
            total += q.bytes();
        }
        if let Some(mr) = &self.mr {
            total += lin(mr);
        }
        if let Some(e) = &self.entity_emb {
            total += e.bytes();
        }
        if let Some(ty) = &self.ty {
            total += ty.emb.bytes() + lin(&ty.fc);
        }
        if let Some(c) = &self.comb {
            total += lin(&c.out) + 3 * 4;
        }
        total
    }

    /// Whether any table borrows from an external (mmap) allocation.
    pub fn is_borrowed(&self) -> bool {
        self.word_emb.is_borrowed()
    }

    /// Checks internal shape consistency (bundle loads call this before
    /// serving; [`QuantModel::from_model`] output always passes).
    pub fn validate(&self) -> Result<(), String> {
        if self.spec.encoder == EncoderKind::Gru || self.spec.word_att {
            return Err("quantized model with a recurrent encoder".to_string());
        }
        let (in_dim, sent_dim, nr) = (self.in_dim(), self.sent_dim(), self.num_relations);
        if self.word_emb.cols() != self.hp.word_dim {
            return Err("word embedding width != hp.word_dim".to_string());
        }
        for (name, t) in [
            ("head_pos_emb", &self.head_pos_emb),
            ("tail_pos_emb", &self.tail_pos_emb),
        ] {
            if t.cols() != self.hp.pos_dim || t.rows() != self.hp.pos_vocab() {
                return Err(format!("{name} shape inconsistent with hyperparameters"));
            }
        }
        if self.conv.w.rows() != self.hp.filters
            || self.conv.w.cols() != self.hp.window * in_dim
            || self.conv.b.len() != self.hp.filters
        {
            return Err("conv table shape inconsistent with hyperparameters".to_string());
        }
        if (self.conv_pack.rows(), self.conv_pack.cols())
            != (self.conv.w.rows(), self.conv.w.cols())
        {
            return Err("packed conv bank shape differs from the conv table".to_string());
        }
        if (self.spec.agg == AggKind::Att) != self.att_queries.is_some() {
            return Err("attention queries presence does not match spec.agg".to_string());
        }
        if let Some(q) = &self.att_queries {
            if q.rows() != nr || q.cols() != sent_dim {
                return Err("attention query table shape mismatch".to_string());
            }
        }
        if self.re_head.w.rows() != nr || self.re_head.w.cols() != sent_dim {
            return Err("relation head shape mismatch".to_string());
        }
        if self.spec.use_mr != self.mr.is_some() || self.spec.use_mr != self.entity_emb.is_some() {
            return Err("MR component presence does not match spec.use_mr".to_string());
        }
        if let (Some(mr), Some(emb)) = (&self.mr, &self.entity_emb) {
            if mr.w.rows() != nr || mr.w.cols() != emb.cols() {
                return Err("MR head shape inconsistent with entity embeddings".to_string());
            }
        }
        if self.spec.use_type != self.ty.is_some() {
            return Err("type component presence does not match spec.use_type".to_string());
        }
        if let Some(ty) = &self.ty {
            if ty.fc.w.rows() != nr || ty.fc.w.cols() != 2 * ty.emb.cols() {
                return Err("type head shape inconsistent with type embeddings".to_string());
            }
        }
        if (self.spec.use_mr || self.spec.use_type) != self.comb.is_some() {
            return Err("combiner presence does not match spec".to_string());
        }
        if let Some(c) = &self.comb {
            if c.out.w.rows() != nr || c.out.w.cols() != nr {
                return Err("combiner output map shape mismatch".to_string());
            }
        }
        Ok(())
    }
}

/// Capacity-retaining workspace of the quantized forward. One per serving
/// worker; after the first bag warms the capacities, further passes
/// allocate nothing.
#[derive(Default)]
pub struct QuantScratch {
    emb: Vec<f32>,
    unf: Vec<f32>,
    qrow: Vec<i8>,
    qact: Vec<i8>,
    qparams: Vec<QuantRowParams>,
    conv: Vec<f32>,
    xs: Vec<f32>,
    att_scores: Vec<f32>,
    alpha: Vec<f32>,
    proj: Vec<f32>,
    bag_vec: Vec<f32>,
    logits: Vec<f32>,
    re_scores: Vec<f32>,
    side: Vec<f32>,
    side_b: Vec<f32>,
}

impl QuantScratch {
    /// An empty workspace (capacities grow on first use).
    pub fn new() -> QuantScratch {
        QuantScratch::default()
    }
}

/// `clear` + `resize` without shrinking: reuses capacity, so a warm vector
/// of sufficient capacity never reallocates.
fn reuse(v: &mut Vec<f32>, n: usize) -> &mut [f32] {
    v.clear();
    v.resize(n, 0.0);
    v
}

impl QuantModel {
    /// Quantized [`ReModel::predict`]: per-relation probabilities for one
    /// bag, written into `out` (length [`QuantModel::num_relations`]).
    ///
    /// `entity_types` is the per-entity type table (only read when
    /// `spec.use_type`). When `repr` is given it receives the eval-mode
    /// mean sentence encoding (length [`QuantModel::sent_dim`]) — the same
    /// representation contract as [`ReModel::predict_repr_into`], computed
    /// from the quantized encoder.
    pub fn predict_quant_into(
        &self,
        bag: &PreparedBag,
        entity_types: &[Vec<usize>],
        scratch: &mut QuantScratch,
        out: &mut [f32],
        repr: Option<&mut [f32]>,
    ) {
        let nr = self.num_relations;
        assert_eq!(out.len(), nr, "output length != num_relations");
        let (in_dim, sent_dim) = (self.in_dim(), self.sent_dim());
        let (window, filters) = (self.hp.window, self.hp.filters);
        let half = window / 2;
        let n = bag.sentences.len();

        // --- encode every sentence into xs[n, sent_dim] ---
        let max_t = bag
            .sentences
            .iter()
            .map(|s| s.tokens.len())
            .max()
            .unwrap_or(0);
        assert!(max_t > 0, "bag with no tokens");
        scratch.xs.clear();
        scratch.xs.resize(n * sent_dim, 0.0);
        scratch.emb.reserve(max_t * in_dim);
        scratch.conv.reserve(max_t * filters);
        for (j, feats) in bag.sentences.iter().enumerate() {
            let t = feats.tokens.len();
            let emb = reuse(&mut scratch.emb, t * in_dim);
            // Gather-dequant the three embedding tables, interleaved
            // per token (word ‖ head-pos ‖ tail-pos).
            let (wd, pd) = (self.hp.word_dim, self.hp.pos_dim);
            for row in 0..t {
                let base = row * in_dim;
                self.word_emb
                    .dequant_row_into(feats.tokens[row], &mut emb[base..base + wd]);
                self.head_pos_emb
                    .dequant_row_into(feats.head_offsets[row], &mut emb[base + wd..base + wd + pd]);
                self.tail_pos_emb.dequant_row_into(
                    feats.tail_offsets[row],
                    &mut emb[base + wd + pd..base + in_dim],
                );
            }
            // Conv as unfold → one quantized GEMM over the sentence's rows.
            // Each unfolded window is zero-padded exactly like
            // `Tape::unfold` and quantized as its own row; quantization
            // keeps zeros exact, so padding contributes nothing — matching
            // the f32 graph.
            let k = window * in_dim;
            scratch.qact.clear();
            scratch.qact.resize(t * k, 0);
            scratch.qparams.clear();
            for (row, qa) in scratch.qact.chunks_exact_mut(k).enumerate() {
                let unf = reuse(&mut scratch.unf, k);
                for o in 0..window {
                    let src = row as isize + o as isize - half as isize;
                    if src >= 0 && (src as usize) < t {
                        let s = src as usize * in_dim;
                        unf[o * in_dim..(o + 1) * in_dim].copy_from_slice(&emb[s..s + in_dim]);
                    }
                }
                scratch.qparams.push(quant::quantize_row_into(unf, qa));
            }
            let conv = reuse(&mut scratch.conv, t * filters);
            quant::qgemm_into(
                &self.conv.w,
                &self.conv_pack,
                &scratch.qact,
                &scratch.qparams,
                Some(&self.conv.b),
                conv,
            );
            // Piecewise max-pool + tanh into this sentence's xs row: rows
            // fold in ascending order into a −∞ start with a strict `>`
            // select (branch-free, as `Tensor::max_over_rows_into`); the
            // CNN's one segment fills its single `filters`-wide chunk.
            let segs = match self.spec.encoder {
                EncoderKind::Cnn => [(0, t); 3],
                EncoderKind::Pcnn => pcnn_segments_array(t, feats.head_pos, feats.tail_pos),
                EncoderKind::Gru => unreachable!(),
            };
            let xrow = &mut scratch.xs[j * sent_dim..(j + 1) * sent_dim];
            for (&(lo, hi), pooled) in segs.iter().zip(xrow.chunks_exact_mut(filters)) {
                pooled.fill(f32::NEG_INFINITY);
                for row in conv[lo * filters..hi * filters].chunks_exact(filters) {
                    for (m, &v) in pooled.iter_mut().zip(row) {
                        *m = if v > *m { v } else { *m };
                    }
                }
                for m in pooled.iter_mut() {
                    *m = m.tanh();
                }
            }
        }

        if let Some(r) = repr {
            assert_eq!(r.len(), sent_dim, "repr length != sent_dim");
            // Mean over sentence encodings — the single pooled-representation
            // contract shared with the f32 path (`repr_from_matrix`).
            r.fill(0.0);
            for j in 0..n {
                for (d, acc) in r.iter_mut().enumerate() {
                    *acc += scratch.xs[j * sent_dim + d];
                }
            }
            let inv = 1.0 / n as f32;
            for acc in r.iter_mut() {
                *acc *= inv;
            }
        }

        // --- aggregate + relation head → re_scores[nr] ---
        let re_scores = {
            scratch.re_scores.clear();
            scratch.re_scores.resize(nr, 0.0);
            &mut scratch.re_scores
        };
        match &self.att_queries {
            None => {
                let bag_vec = reuse(&mut scratch.bag_vec, sent_dim);
                let inv = 1.0 / n as f32;
                for j in 0..n {
                    for (d, acc) in bag_vec.iter_mut().enumerate() {
                        *acc += scratch.xs[j * sent_dim + d];
                    }
                }
                for acc in bag_vec.iter_mut() {
                    *acc *= inv;
                }
                scratch.qrow.clear();
                scratch.qrow.resize(sent_dim, 0);
                let p = quant::quantize_row_into(bag_vec, &mut scratch.qrow);
                let logits = reuse(&mut scratch.logits, nr);
                self.re_head.apply(&scratch.qrow, p, logits);
                softmax_in_place(logits);
                re_scores.copy_from_slice(logits);
            }
            Some(aq) => {
                // Held-out scoring, project-once: each sentence row is
                // quantized once and multiplied into both the attention
                // queries (att_scores[j, r] = x_j·(a⊙q_r)) and the relation
                // head (proj[j, :] = x_j·W, bias deferred until after the
                // mix). A one-sentence bag has α ≡ 1 under every query.
                let att_scores = reuse(&mut scratch.att_scores, n * nr);
                let proj = reuse(&mut scratch.proj, n * nr);
                for j in 0..n {
                    scratch.qrow.clear();
                    scratch.qrow.resize(sent_dim, 0);
                    let p = quant::quantize_row_into(
                        &scratch.xs[j * sent_dim..(j + 1) * sent_dim],
                        &mut scratch.qrow,
                    );
                    let row = j * nr..(j + 1) * nr;
                    quant::qmatvec_into(aq, &scratch.qrow, p, None, &mut att_scores[row.clone()]);
                    quant::qmatvec_into(&self.re_head.w, &scratch.qrow, p, None, &mut proj[row]);
                }
                // alpha[r, :] = softmax over sentences of relation r's scores.
                let alpha = reuse(&mut scratch.alpha, nr * n);
                for (r, row) in alpha.chunks_mut(n).enumerate() {
                    for (j, a) in row.iter_mut().enumerate() {
                        *a = att_scores[j * nr + r];
                    }
                    softmax_in_place(row);
                }
                let logits = reuse(&mut scratch.logits, nr * nr);
                diagonal_scores(alpha, proj, &self.re_head.b, logits, re_scores);
            }
        }

        // --- side components + combiner (or plain RE scores) ---
        let Some(comb) = &self.comb else {
            out.copy_from_slice(re_scores);
            return;
        };
        let acc = reuse(&mut scratch.side, nr);
        for (a, &re) in acc.iter_mut().zip(re_scores.iter()) {
            *a = comb.gamma * re;
        }
        if let (Some(mr), Some(emb)) = (&self.mr, &self.entity_emb) {
            // MR_ij = U_j − U_i from the quantized LINE table.
            let dim = emb.cols();
            let head = reuse(&mut scratch.bag_vec, dim);
            emb.dequant_row_into(bag.head, head);
            let tail = reuse(&mut scratch.side_b, dim);
            emb.dequant_row_into(bag.tail, tail);
            for (t, &h) in tail.iter_mut().zip(scratch.bag_vec.iter()) {
                *t -= h;
            }
            scratch.qrow.clear();
            scratch.qrow.resize(dim, 0);
            let p = quant::quantize_row_into(&scratch.side_b, &mut scratch.qrow);
            let logits = reuse(&mut scratch.logits, nr);
            mr.apply(&scratch.qrow, p, logits);
            softmax_in_place(logits);
            for (a, &c) in scratch.side.iter_mut().zip(scratch.logits.iter()) {
                *a += comb.alpha * c;
            }
        }
        if let Some(ty) = &self.ty {
            let td = ty.emb.cols();
            let cat = reuse(&mut scratch.side_b, 2 * td);
            for (half, types) in [(0, &entity_types[bag.head]), (1, &entity_types[bag.tail])] {
                // Mean over the entity's type embeddings.
                let dst = &mut cat[half * td..(half + 1) * td];
                let inv = 1.0 / types.len() as f32;
                let row = reuse(&mut scratch.bag_vec, td);
                for &tid in types.iter() {
                    ty.emb.dequant_row_into(tid, row);
                    for (d, &v) in dst.iter_mut().zip(row.iter()) {
                        *d += v;
                    }
                }
                for d in dst.iter_mut() {
                    *d *= inv;
                }
            }
            scratch.qrow.clear();
            scratch.qrow.resize(2 * td, 0);
            let p = quant::quantize_row_into(&scratch.side_b, &mut scratch.qrow);
            let logits = reuse(&mut scratch.logits, nr);
            ty.fc.apply(&scratch.qrow, p, logits);
            softmax_in_place(logits);
            for (a, &c) in scratch.side.iter_mut().zip(scratch.logits.iter()) {
                *a += comb.beta * c;
            }
        }
        scratch.qrow.clear();
        scratch.qrow.resize(nr, 0);
        let p = quant::quantize_row_into(&scratch.side, &mut scratch.qrow);
        let logits = reuse(&mut scratch.logits, nr);
        comb.out.apply(&scratch.qrow, p, logits);
        softmax_in_place(logits);
        out.copy_from_slice(logits);
    }

    /// [`QuantModel::predict_quant_into`] over a slice of bags, in order on
    /// the caller's `scratch`, exporting the pooled representation of each
    /// bag whose `wants_repr` entry is set.
    pub fn predict_batch_quant_with_repr(
        &self,
        bags: &[&PreparedBag],
        entity_types: &[Vec<usize>],
        scratch: &mut QuantScratch,
        wants_repr: &[bool],
    ) -> Vec<(Vec<f32>, Option<Vec<f32>>)> {
        assert_eq!(bags.len(), wants_repr.len());
        let mut run_one = |bag: &PreparedBag, want: bool| {
            let mut scores = vec![0.0f32; self.num_relations];
            let mut repr = want.then(|| vec![0.0f32; self.sent_dim()]);
            self.predict_quant_into(bag, entity_types, scratch, &mut scores, repr.as_deref_mut());
            (scores, repr)
        };
        let scored = bags.iter().zip(wants_repr);
        scored.map(|(bag, &want)| run_one(bag, want)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BagContext;
    use crate::testutil::{random_bag, toy_embedding, toy_types, VOCAB};

    fn tiny_hp() -> HyperParams {
        HyperParams {
            epochs: 1,
            ..HyperParams::tiny()
        }
    }

    /// A three-sentence tiny-dims bag.
    fn toy_bag(label: usize, seed: u64) -> PreparedBag {
        random_bag(3, 9, &tiny_hp(), label, seed)
    }

    fn build(spec: ModelSpec) -> ReModel {
        ReModel::new(spec, &tiny_hp(), VOCAB, 4, 5, 8, 7)
    }

    #[test]
    fn gru_and_bgwa_rejected_with_typed_error() {
        for spec in [ModelSpec::gru_att(), ModelSpec::bgwa()] {
            let model = build(spec);
            match QuantModel::from_model(&model, None) {
                Err(QuantizeError::Unsupported(msg)) => {
                    assert!(msg.contains("recurrent"), "message: {msg}")
                }
                other => panic!("expected Unsupported, got {other:?}", other = other.err()),
            }
        }
    }

    #[test]
    fn mr_spec_requires_entity_embeddings() {
        let model = build(ModelSpec::pa_mr());
        assert!(matches!(
            QuantModel::from_model(&model, None),
            Err(QuantizeError::Missing(_))
        ));
    }

    /// The quantized forward must track the f32 reference closely on every
    /// supported spec — this is the in-crate version of the CI drift gate.
    #[test]
    fn quantized_scores_track_f32_for_every_supported_spec() {
        let emb = toy_embedding(8);
        let types = toy_types();
        for spec in [
            ModelSpec::pcnn(),
            ModelSpec::pcnn_att(),
            ModelSpec::cnn_att(),
            ModelSpec::pa_t(),
            ModelSpec::pa_mr(),
            ModelSpec::pa_tmr(),
        ] {
            let model = build(spec);
            let qm = QuantModel::from_model(&model, Some(&emb)).expect("quantizes");
            let ctx = BagContext {
                entity_embedding: Some(&emb),
                entity_types: &types,
            };
            let mut scratch = QuantScratch::new();
            for (seed, n) in [1usize, 2, 5, 8].into_iter().enumerate() {
                let bag = random_bag(n, 9, &tiny_hp(), seed % 4, 100 + seed as u64);
                let want = model.predict(&bag, &ctx);
                let mut got = vec![0.0f32; 4];
                qm.predict_quant_into(&bag, &types, &mut scratch, &mut got, None);
                // Attention scores take the diagonal of per-relation
                // softmaxes, so only the full-softmax outputs (mean agg, or
                // any combiner variant) form a distribution — as in f32.
                if spec.agg == AggKind::Mean || spec.use_mr || spec.use_type {
                    let sum: f32 = got.iter().sum();
                    assert!(
                        (sum - 1.0).abs() < 1e-4,
                        "{}: not a distribution",
                        spec.name()
                    );
                }
                for r in 0..4 {
                    assert!(
                        (want[r] - got[r]).abs() < 0.06,
                        "{} n={n} rel {r}: f32 {} vs int8 {}",
                        spec.name(),
                        want[r],
                        got[r]
                    );
                }
            }
        }
    }

    /// The int8 held-out loop as it ran before the project-once rewrite: per
    /// relation, attention-weight the f32 sentence rows into a bag vector,
    /// quantize **it**, run the head (bias inside the kernel), softmax, keep
    /// the relation's own entry.
    fn re_scores_per_relation(qm: &QuantModel, xs: &[f32]) -> Vec<f32> {
        let (nr, dim) = (qm.num_relations, qm.sent_dim());
        let n = xs.len() / dim;
        let aq = qm.att_queries.as_ref().expect("an attention spec");
        let mut qrow = vec![0i8; dim];
        let mut att_scores = vec![0.0f32; n * nr];
        for (x, out) in xs.chunks(dim).zip(att_scores.chunks_mut(nr)) {
            let p = quant::quantize_row_into(x, &mut qrow);
            quant::qmatvec_into(aq, &qrow, p, None, out);
        }
        (0..nr)
            .map(|r| {
                let mut alpha: Vec<f32> = (0..n).map(|j| att_scores[j * nr + r]).collect();
                softmax_in_place(&mut alpha);
                let mut bag_vec = vec![0.0f32; dim];
                for (&a, x) in alpha.iter().zip(xs.chunks(dim)) {
                    for (acc, &v) in bag_vec.iter_mut().zip(x) {
                        *acc += a * v;
                    }
                }
                let p = quant::quantize_row_into(&bag_vec, &mut qrow);
                let mut logits = vec![0.0f32; nr];
                qm.re_head.apply(&qrow, p, &mut logits);
                softmax_in_place(&mut logits);
                logits[r]
            })
            .collect()
    }

    /// For a one-sentence bag α ≡ 1, so the old loop quantized the very row
    /// the new path quantizes: the two differ only in where the head bias is
    /// added.
    #[test]
    fn single_sentence_scores_match_per_relation_int8_loop() {
        let emb = toy_embedding(8);
        let types = toy_types();
        for spec in [
            ModelSpec::pcnn_att(),
            ModelSpec::cnn_att(),
            ModelSpec::pa_tmr(),
        ] {
            let qm = QuantModel::from_model(&build(spec), Some(&emb)).expect("quantizes");
            let mut scratch = QuantScratch::new();
            let mut out = vec![0.0f32; 4];
            for seed in 0..4u64 {
                let bag = random_bag(1, 9, &tiny_hp(), 0, 300 + seed);
                qm.predict_quant_into(&bag, &types, &mut scratch, &mut out, None);
                let want = re_scores_per_relation(&qm, &scratch.xs);
                imre_tensor::assert_close(&scratch.re_scores, &want, 1e-6);
            }
        }
    }

    #[test]
    fn batch_matches_single_and_exports_repr() {
        let model = build(ModelSpec::pcnn_att());
        let qm = QuantModel::from_model(&model, None).expect("quantizes");
        let types = toy_types();
        let bags: Vec<PreparedBag> = (0..5).map(|i| toy_bag(i % 4, 200 + i as u64)).collect();
        let refs: Vec<&PreparedBag> = bags.iter().collect();
        let mut scratch = QuantScratch::new();
        let wants: Vec<bool> = (0..bags.len()).map(|i| i % 2 == 0).collect();
        let batch = qm.predict_batch_quant_with_repr(&refs, &types, &mut scratch, &wants);
        assert_eq!(batch.len(), bags.len());
        for (i, bag) in bags.iter().enumerate() {
            let mut one = vec![0.0f32; 4];
            let mut repr = vec![0.0f32; qm.sent_dim()];
            qm.predict_quant_into(bag, &types, &mut scratch, &mut one, Some(&mut repr));
            assert_eq!(batch[i].0, one, "bag {i} scores differ batch-vs-single");
            let want = wants[i].then_some(&repr);
            assert_eq!(batch[i].1.as_ref(), want, "bag {i} repr differs");
        }
    }

    /// The footprint promise at Table III widths: with the 9-byte/row
    /// parameters and f32 biases counted, the int8 model is at most a third
    /// of the f32 bytes. Word rows (50 wide) are the narrowest big table, so
    /// a vocabulary-heavy model is the hard case.
    #[test]
    fn int8_model_is_at_most_a_third_of_f32_bytes_at_paper_dims() {
        let hp = HyperParams::paper();
        let model = ReModel::new(ModelSpec::pa_tmr(), &hp, 5_000, 53, 38, hp.entity_dim, 7);
        let emb = EntityEmbedding::from_matrix(Tensor::zeros(&[1_000, hp.entity_dim]));
        let qm = QuantModel::from_model(&model, Some(&emb)).expect("quantizes");
        let f32_bytes = 4 * (model.store.num_scalars() + emb.matrix().len());
        assert!(
            3 * qm.bytes() <= f32_bytes,
            "quantized {} bytes vs f32 {f32_bytes}",
            qm.bytes()
        );
    }
}
