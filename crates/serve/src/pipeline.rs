//! Request pipeline: raw text + entity names → featurized bag → scores.
//!
//! A [`ServingModel`] wraps a [`Bundle`] with the lookup structures needed
//! at request time and exposes the full path the engine runs per request:
//! whitespace tokenization, mention location, relative-position
//! featurization ([`imre_core::featurize`]), bag construction, and the
//! forward pass.

use crate::bundle::Bundle;
use crate::error::ServeError;
use imre_ann::{blend_scores, AnnIndex, SearchScratch};
use imre_core::{featurize, BagContext, PreparedBag, QuantModel, QuantScratch};
use imre_corpus::EncodedSentence;
use std::collections::HashMap;

/// One inference request, as submitted by a client.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InferRequest {
    /// Registered model to run.
    pub model: String,
    /// Head entity surface name (must occur as a token of `text`).
    pub head: String,
    /// Tail entity surface name (must occur as a token of `text`).
    pub tail: String,
    /// Whitespace-tokenized sentence text; `|` separates the sentences of a
    /// multi-sentence bag.
    pub text: String,
    /// How many top relations to return (0 = all).
    pub top_k: usize,
    /// Optional time budget in milliseconds, measured from submission. A
    /// request still queued when the budget runs out is shed with
    /// [`crate::error::ServeError::DeadlineExceeded`] instead of paying for
    /// featurize/forward. `None` falls back to the engine's
    /// `default_deadline_ms` (and to no deadline if that is unset too).
    pub deadline_ms: Option<u64>,
    /// Neighbors to retrieve for kNN label interpolation (`knn=` on the
    /// wire). `None` falls back to the engine's `knn_k` default; `0`
    /// forces the pure model path regardless of defaults, which is
    /// bit-identical to a pre-kNN engine (the index is never queried).
    pub knn_k: Option<usize>,
    /// Interpolation weight λ ∈ [0, 1] (`lambda=` on the wire): scores
    /// become `(1−λ)·model + λ·neighbor-label-distribution`. `None` falls
    /// back to the engine's `knn_lambda` default; `0` disables blending.
    pub knn_lambda: Option<f32>,
}

/// One scored relation in a response.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedRelation {
    /// Relation name from the bundle's relation table.
    pub relation: String,
    /// Model probability for the relation.
    pub score: f32,
}

/// A completed inference with its per-stage timings.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Model that served the request.
    pub model: String,
    /// Relations sorted by descending score, truncated to `top_k`.
    pub ranked: Vec<RankedRelation>,
    /// Time spent queued before a worker picked the request up.
    pub queue_us: u64,
    /// Tokenization + featurization time.
    pub featurize_us: u64,
    /// Forward-pass time of this request, as measured around its own pass.
    pub forward_us: u64,
}

/// One bag's scores plus its optional pooled representation (flagged via
/// `wants_repr`).
pub type ScoredBag = (Vec<f32>, Option<Vec<f32>>);

/// A bundle prepared for serving: adds the entity-name index and exposes
/// the request pipeline.
pub struct ServingModel {
    bundle: Bundle,
    entity_index: HashMap<String, usize>,
    entity_types: Vec<Vec<usize>>,
}

impl ServingModel {
    /// Wraps a validated bundle. An int8 entity table whose row count is not
    /// the entity count is first re-quantized from the f32 embedding
    /// ([`Bundle::requantize_entities`]).
    ///
    /// # Errors
    /// [`ServeError::BadArtifact`] when the bundle's tables are inconsistent
    /// with the model architecture.
    pub fn new(mut bundle: Bundle) -> Result<Self, ServeError> {
        // The int8 entity table is derived from the embedding, and a caller
        // that swaps in a grown entity table and embedding (a stream
        // refresh) leaves it short: re-derive it rather than refuse.
        let short = bundle
            .quant
            .as_ref()
            .and_then(|q| q.entity_emb.as_ref())
            .is_some_and(|t| t.rows() != bundle.entities.len());
        if short {
            bundle.requantize_entities();
        }
        bundle
            .validate()
            .map_err(|e| ServeError::BadArtifact(e.to_string()))?;
        let entity_index = bundle
            .entities
            .iter()
            .enumerate()
            .map(|(id, (name, _))| (name.clone(), id))
            .collect();
        let entity_types = bundle
            .entities
            .iter()
            .map(|(_, types)| types.clone())
            .collect();
        Ok(ServingModel {
            bundle,
            entity_index,
            entity_types,
        })
    }

    /// The wrapped bundle.
    pub fn bundle(&self) -> &Bundle {
        &self.bundle
    }

    /// Number of relations this model scores.
    pub fn num_relations(&self) -> usize {
        self.bundle.relations.len()
    }

    /// The bundled kNN index over training-bag representations, if the
    /// artifact shipped one (`.imrb` version 2).
    pub fn ann(&self) -> Option<&AnnIndex> {
        self.bundle.ann.as_ref()
    }

    /// The bundled int8 model, if the artifact shipped one (`.imrb`
    /// version 3, written by `imre quantize`).
    pub fn quant(&self) -> Option<&QuantModel> {
        self.bundle.quant.as_ref()
    }

    /// The forward-time side context (entity types, LINE embeddings).
    pub fn ctx(&self) -> BagContext<'_> {
        BagContext {
            entity_embedding: self.bundle.embedding.as_ref(),
            entity_types: &self.entity_types,
        }
    }

    /// Resolves an entity name to its id, or errors if the model needs
    /// entity side information it cannot look up for an unknown entity.
    fn entity_id(&self, name: &str) -> Result<usize, ServeError> {
        match self.entity_index.get(name) {
            Some(&id) => Ok(id),
            // Plain text models treat an unknown entity like any
            // out-of-vocabulary token; only the side components need ids.
            None if !self.bundle.model.spec.use_mr && !self.bundle.model.spec.use_type => Ok(0),
            None => Err(ServeError::UnknownEntity(name.to_string())),
        }
    }

    /// Tokenizes and featurizes a request into a [`PreparedBag`].
    ///
    /// # Errors
    /// When the text is empty, a mention cannot be located, or an entity is
    /// unknown to a model that needs entity side information.
    pub fn featurize_request(&self, req: &InferRequest) -> Result<PreparedBag, ServeError> {
        let head_id = self.entity_id(&req.head)?;
        let tail_id = self.entity_id(&req.tail)?;
        let hp = &self.bundle.model.hp;
        let mut sentences = Vec::new();
        for raw in req.text.split('|') {
            let words: Vec<&str> = raw.split_whitespace().collect();
            if words.is_empty() {
                continue;
            }
            let head_pos = words
                .iter()
                .position(|&w| w == req.head)
                .ok_or_else(|| ServeError::MentionNotFound(req.head.clone()))?;
            // When head and tail share a surface form, prefer a second
            // occurrence for the tail mention.
            let tail_pos = words
                .iter()
                .enumerate()
                .position(|(i, &w)| w == req.tail && (req.head != req.tail || i != head_pos))
                .or_else(|| (req.head == req.tail).then_some(head_pos))
                .ok_or_else(|| ServeError::MentionNotFound(req.tail.clone()))?;
            let tokens = words
                .iter()
                .map(|w| self.bundle.vocab.get_or_unk(w))
                .collect();
            let encoded = EncodedSentence {
                tokens,
                head_pos,
                tail_pos,
                expresses_relation: false,
            };
            sentences.push(featurize(&encoded, hp.max_len, hp.pos_clip));
        }
        if sentences.is_empty() {
            return Err(ServeError::EmptyText);
        }
        Ok(PreparedBag {
            head: head_id,
            tail: tail_id,
            label: 0,
            sentences,
        })
    }

    /// Scores a featurized bag (one forward pass on a throwaway tape).
    pub fn predict_prepared(&self, bag: &PreparedBag) -> Vec<f32> {
        self.bundle.model.predict(bag, &self.ctx())
    }

    /// [`ServingModel::predict_prepared`] served from a caller-owned buffer
    /// arena, optionally exporting the bag's pooled representation (the ANN
    /// query vector, length `sent_dim`) from the same encoder pass — see
    /// [`imre_core::ReModel::predict_pooled`]. The engine passes each
    /// worker's arena here so that after warm-up a forward pass performs
    /// zero tensor allocations; `pool.stats().misses` is the engine's
    /// `allocs_per_request` numerator.
    pub fn predict_prepared_pooled(
        &self,
        bag: &PreparedBag,
        pool: &mut imre_tensor::BufferPool,
        repr: Option<&mut [f32]>,
    ) -> Vec<f32> {
        self.bundle
            .model
            .predict_pooled(bag, &self.ctx(), pool, repr)
    }

    /// The int8 counterpart of [`ServingModel::predict_prepared_pooled`],
    /// over a slice of bags: one integer forward pass per bag, in order, on
    /// the caller's recycled [`QuantScratch`] (the engine passes each
    /// worker's, with a one-bag slice). Exported representations come from
    /// the quantized encoder, so kNN interpolation keeps working against
    /// the bundled f32 index.
    ///
    /// # Errors
    /// [`ServeError::NoQuantModel`] when the bundle has no int8 section.
    pub fn predict_prepared_batch_quant_with_repr(
        &self,
        bags: &[&PreparedBag],
        scratch: &mut QuantScratch,
        wants_repr: &[bool],
    ) -> Result<Vec<ScoredBag>, ServeError> {
        let qm = self.quant().ok_or(ServeError::NoQuantModel)?;
        Ok(qm.predict_batch_quant_with_repr(bags, &self.entity_types, scratch, wants_repr))
    }

    /// Resolves a request's effective kNN parameters against engine-level
    /// defaults: `Some((k, λ))` when interpolation should run.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] when λ is outside `[0, 1]` and
    /// [`ServeError::NoKnnIndex`] when interpolation is requested but the
    /// bundle shipped no index.
    pub fn knn_params(
        &self,
        req: &InferRequest,
        default_k: usize,
        default_lambda: f32,
    ) -> Result<Option<(usize, f32)>, ServeError> {
        let k = req.knn_k.unwrap_or(default_k);
        let lambda = req.knn_lambda.unwrap_or(default_lambda);
        if !(0.0..=1.0).contains(&lambda) {
            return Err(ServeError::BadRequest(format!(
                "lambda must be in [0, 1], got {lambda}"
            )));
        }
        if k == 0 || lambda == 0.0 {
            return Ok(None);
        }
        if self.ann().is_none() {
            return Err(ServeError::NoKnnIndex);
        }
        Ok(Some((k, lambda)))
    }

    /// Turns a score vector into named relations ranked by descending score
    /// (ties by relation id), truncated to `top_k` (0 = all).
    pub fn rank(&self, scores: &[f32], top_k: usize) -> Vec<RankedRelation> {
        let mut ranked: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let k = if top_k == 0 {
            ranked.len()
        } else {
            top_k.min(ranked.len())
        };
        ranked
            .into_iter()
            .take(k)
            .map(|(r, score)| RankedRelation {
                relation: self.bundle.relations[r].clone(),
                score,
            })
            .collect()
    }

    /// The whole pipeline in one call (featurize → forward → rank), used by
    /// single-shot callers and tests; the engine runs the stages separately
    /// so it can time each one and reuse per-worker scratch. A
    /// request carrying `knn_k`/`knn_lambda` runs the interpolation path
    /// (with throwaway scratch — the engine's is recycled).
    pub fn infer(&self, req: &InferRequest) -> Result<Vec<RankedRelation>, ServeError> {
        let bag = self.featurize_request(req)?;
        let params = self.knn_params(req, 0, req.knn_k.map(|_| 0.3).unwrap_or(0.0))?;
        let (k, lambda) = match params {
            // The λ=0 / k=0 path never computes a representation or touches
            // the index: bit-identical to a model without one.
            None => {
                let scores = self.predict_prepared(&bag);
                return Ok(self.rank(&scores, req.top_k));
            }
            Some(p) => p,
        };
        let ann = self.ann().expect("knn_params verified the index");
        let mut pool = imre_tensor::BufferPool::new();
        let mut repr = vec![0.0; self.bundle.model.sent_dim()];
        let mut scores = self.predict_prepared_pooled(&bag, &mut pool, Some(&mut repr));
        let mut scratch = SearchScratch::new();
        let neighbors = ann.search(&repr, k.min(ann.len()), &mut scratch);
        let mut votes = vec![0.0f32; scores.len()];
        ann.label_votes_into(neighbors, &mut votes);
        blend_scores(&mut scores, &votes, lambda);
        Ok(self.rank(&scores, req.top_k))
    }
}
