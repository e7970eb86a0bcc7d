//! The unified relation-extraction model (paper Figure 2).
//!
//! A [`ReModel`] is assembled from a [`ModelSpec`]: a sentence encoder
//! (CNN / PCNN / bi-GRU), a bag aggregator (mean or selective attention,
//! optionally with BGWA's word-level attention), and — for the `PA-*`
//! variants — the entity-type and implicit-mutual-relation components fused
//! by the learned combiner. Every system row of the paper's Table IV and
//! Figure 5 is one `ModelSpec`.

use crate::attention::{mean_aggregate, AggKind, SelectiveAttention, WordAttention};
use crate::components::{Combiner, MrComponent, TypeComponent};
use crate::config::HyperParams;
use crate::encoder::{Encoder, EncoderKind};
use crate::features::{featurize, SentenceFeatures};
use imre_corpus::{Bag, World};
use imre_graph::EntityEmbedding;
use imre_nn::{GradStore, Linear, ParamStore, Tape, Var};
use imre_tensor::{bufpool, BufferPool, PoolStats, Tensor, TensorRng};

/// Declarative description of a model variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    /// Sentence encoder architecture.
    pub encoder: EncoderKind,
    /// Bag aggregation strategy.
    pub agg: AggKind,
    /// Word-level attention inside each sentence (BGWA).
    pub word_att: bool,
    /// Include the entity-type component (`…-T`).
    pub use_type: bool,
    /// Include the implicit-mutual-relation component (`…-MR`).
    pub use_mr: bool,
}

impl ModelSpec {
    /// Plain PCNN (Zeng 2015): piecewise CNN, mean aggregation.
    pub fn pcnn() -> Self {
        ModelSpec {
            encoder: EncoderKind::Pcnn,
            agg: AggKind::Mean,
            word_att: false,
            use_type: false,
            use_mr: false,
        }
    }

    /// PCNN + selective attention (Lin 2016) — the paper's base model.
    pub fn pcnn_att() -> Self {
        ModelSpec {
            agg: AggKind::Att,
            ..Self::pcnn()
        }
    }

    /// CNN + selective attention.
    pub fn cnn_att() -> Self {
        ModelSpec {
            encoder: EncoderKind::Cnn,
            ..Self::pcnn_att()
        }
    }

    /// Bi-GRU + selective attention.
    pub fn gru_att() -> Self {
        ModelSpec {
            encoder: EncoderKind::Gru,
            ..Self::pcnn_att()
        }
    }

    /// BGWA (Jat 2018): bi-GRU with word- and sentence-level attention.
    pub fn bgwa() -> Self {
        ModelSpec {
            encoder: EncoderKind::Gru,
            agg: AggKind::Att,
            word_att: true,
            use_type: false,
            use_mr: false,
        }
    }

    /// PA-T: PCNN+ATT with the entity-type component.
    pub fn pa_t() -> Self {
        ModelSpec {
            use_type: true,
            ..Self::pcnn_att()
        }
    }

    /// PA-MR: PCNN+ATT with the implicit-mutual-relation component.
    pub fn pa_mr() -> Self {
        ModelSpec {
            use_mr: true,
            ..Self::pcnn_att()
        }
    }

    /// PA-TMR: the paper's full model.
    pub fn pa_tmr() -> Self {
        ModelSpec {
            use_type: true,
            use_mr: true,
            ..Self::pcnn_att()
        }
    }

    /// Adds both entity-information components to any base spec (the
    /// Figure 5 `X → X+TMR` transformation).
    pub fn with_tmr(self) -> Self {
        ModelSpec {
            use_type: true,
            use_mr: true,
            ..self
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        if *self == Self::pa_tmr() {
            return "PA-TMR".to_string();
        }
        if *self == Self::pa_t() {
            return "PA-T".to_string();
        }
        if *self == Self::pa_mr() {
            return "PA-MR".to_string();
        }
        if *self == Self::bgwa() {
            return "BGWA".to_string();
        }
        let mut name = self.encoder.name().to_string();
        if self.word_att {
            name.push_str("+WATT");
        }
        if self.agg == AggKind::Att {
            name.push_str("+ATT");
        }
        match (self.use_type, self.use_mr) {
            (true, true) => name.push_str("+TMR"),
            (true, false) => name.push_str("+T"),
            (false, true) => name.push_str("+MR"),
            (false, false) => {}
        }
        name
    }
}

/// A featurised bag ready for training/evaluation.
#[derive(Debug, Clone)]
pub struct PreparedBag {
    /// Head entity id.
    pub head: usize,
    /// Tail entity id.
    pub tail: usize,
    /// Gold (distant-supervision) relation index.
    pub label: usize,
    /// Featurised sentences.
    pub sentences: Vec<SentenceFeatures>,
}

/// Featurises a corpus split once, up front.
pub fn prepare_bags(bags: &[Bag], hp: &HyperParams) -> Vec<PreparedBag> {
    bags.iter()
        .map(|b| PreparedBag {
            head: b.head.0,
            tail: b.tail.0,
            label: b.label.0,
            sentences: b
                .sentences
                .iter()
                .map(|s| featurize(s, hp.max_len, hp.pos_clip))
                .collect(),
        })
        .collect()
}

/// Per-entity coarse-type id lists, extracted from the world model.
pub fn entity_type_table(world: &World) -> Vec<Vec<usize>> {
    world
        .entities
        .iter()
        .map(|e| e.types.iter().map(|t| t.0).collect())
        .collect()
}

/// Side information a model may consume at forward time.
pub struct BagContext<'a> {
    /// LINE entity embeddings (required when `use_mr`).
    pub entity_embedding: Option<&'a EntityEmbedding>,
    /// Per-entity type ids (required when `use_type`).
    pub entity_types: &'a [Vec<usize>],
}

/// The mutable half of a training step — a tape arena and the gradient
/// store one shard of a mini-batch accumulates into — so that forward and
/// backward themselves only read the [`ReModel`]. The store holds the
/// embedding tables compactly ([`GradStore::compact_like`]): a worker costs
/// the dense parameters plus the rows its bags touched, not a second model.
pub(crate) struct ShardWorker {
    arena: BufferPool,
    grads: GradStore,
}

impl ShardWorker {
    /// A cold worker for `model`.
    pub fn new(model: &ReModel) -> Self {
        ShardWorker {
            arena: BufferPool::new(),
            grads: GradStore::compact_like(&model.store),
        }
    }

    /// The gradients accumulated since they were last zeroed.
    pub fn grads_mut(&mut self) -> &mut GradStore {
        &mut self.grads
    }

    /// Allocator-pressure counters of this worker's arena.
    pub fn arena_stats(&self) -> PoolStats {
        self.arena.stats()
    }
}

/// An instantiated relation-extraction model with its parameters.
pub struct ReModel {
    /// The variant this model implements.
    pub spec: ModelSpec,
    /// Hyperparameters the model was built with.
    pub hp: HyperParams,
    /// Trainable parameters.
    pub store: ParamStore,
    /// Gradient buffers.
    pub grads: GradStore,
    /// Tensor-buffer arena threaded through every
    /// [`ReModel::bag_loss_and_backward`] call: the tape of step *n*+1 is
    /// served from the recycled buffers of step *n*, so steady-state
    /// training performs no per-step tensor allocations.
    arena: BufferPool,
    /// The shard workers [`crate::train_epoch`] fans a mini-batch out over,
    /// kept across steps so their arenas stay warm.
    pub(crate) workers: Vec<ShardWorker>,
    encoder: Encoder,
    word_att: Option<WordAttention>,
    att: Option<SelectiveAttention>,
    re_head: Linear,
    mr: Option<MrComponent>,
    ty: Option<TypeComponent>,
    combiner: Option<Combiner>,
    num_relations: usize,
    vocab_size: usize,
    num_types: usize,
    entity_dim: usize,
}

impl ReModel {
    /// Builds a model for a dataset with `vocab_size` tokens,
    /// `num_relations` labels and `num_types` coarse entity types.
    /// `entity_dim` is the width of the LINE embeddings fed to the MR
    /// component (ignored unless `spec.use_mr`).
    pub fn new(
        spec: ModelSpec,
        hp: &HyperParams,
        vocab_size: usize,
        num_relations: usize,
        num_types: usize,
        entity_dim: usize,
        seed: u64,
    ) -> Self {
        let mut rng = TensorRng::seed(seed);
        let mut store = ParamStore::new();
        let encoder = Encoder::new(spec.encoder, &mut store, "enc", vocab_size, hp, &mut rng);
        let sent_dim = if spec.word_att {
            encoder.token_dim()
        } else {
            encoder.out_dim()
        };
        let word_att = spec
            .word_att
            .then(|| WordAttention::new(&mut store, "watt", encoder.token_dim(), &mut rng));
        let att = (spec.agg == AggKind::Att)
            .then(|| SelectiveAttention::new(&mut store, "att", sent_dim, num_relations, &mut rng));
        let re_head = Linear::new(&mut store, "re_head", sent_dim, num_relations, &mut rng);
        let mr = spec
            .use_mr
            .then(|| MrComponent::new(&mut store, "mr", entity_dim, num_relations, &mut rng));
        let ty = spec.use_type.then(|| {
            TypeComponent::new(
                &mut store,
                "ty",
                num_types,
                hp.type_dim,
                num_relations,
                &mut rng,
            )
        });
        let combiner = (spec.use_mr || spec.use_type)
            .then(|| Combiner::new(&mut store, "comb", num_relations, &mut rng));
        let grads = GradStore::zeros_like(&store);
        ReModel {
            spec,
            hp: hp.clone(),
            store,
            grads,
            arena: BufferPool::new(),
            workers: Vec::new(),
            encoder,
            word_att,
            att,
            re_head,
            mr,
            ty,
            combiner,
            num_relations,
            vocab_size,
            num_types,
            entity_dim,
        }
    }

    /// The vocabulary size the model was built for.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// The number of coarse entity types the model was built for.
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// The entity-embedding width the MR component expects.
    pub fn entity_dim(&self) -> usize {
        self.entity_dim
    }

    /// Number of relation labels.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Encodes one sentence (dispatching on the BGWA word-attention flag).
    fn encode_sentence(
        &self,
        tape: &mut Tape,
        feats: &SentenceFeatures,
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        match &self.word_att {
            None => self.encoder.encode(tape, feats, training, rng),
            Some(wa) => {
                let states = self.encoder.token_states(tape, feats);
                let pooled = wa.pool(tape, states);
                tape.tanh(pooled)
            }
        }
    }

    /// Stacks all sentence encodings of a bag into `[n, sent_dim]`.
    fn bag_matrix(
        &self,
        tape: &mut Tape,
        bag: &PreparedBag,
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        let rows: Vec<Var> = bag
            .sentences
            .iter()
            .map(|s| self.encode_sentence(tape, s, training, rng))
            .collect();
        tape.stack_rows(&rows)
    }

    /// Pre-softmax component scores for a pair.
    fn side_logits(
        &self,
        tape: &mut Tape,
        bag: &PreparedBag,
        ctx: &BagContext,
    ) -> (Option<Var>, Option<Var>) {
        let mr_logits = self.mr.as_ref().map(|mr| {
            let emb = ctx
                .entity_embedding
                .expect("spec.use_mr requires BagContext::entity_embedding");
            let mut mr_vec = tape.alloc(&[emb.dim()]);
            emb.mutual_relation_into(bag.head, bag.tail, &mut mr_vec);
            mr.logits(tape, mr_vec)
        });
        let t_logits = self.ty.as_ref().map(|ty| {
            ty.logits(
                tape,
                &ctx.entity_types[bag.head],
                &ctx.entity_types[bag.tail],
            )
        });
        (mr_logits, t_logits)
    }

    /// Component confidences for a pair (shared by train and predict paths).
    fn side_confidences(
        &self,
        tape: &mut Tape,
        bag: &PreparedBag,
        ctx: &BagContext,
    ) -> (Option<Var>, Option<Var>) {
        let (mr_logits, t_logits) = self.side_logits(tape, bag, ctx);
        (
            mr_logits.map(|l| tape.softmax(l)),
            t_logits.map(|l| tape.softmax(l)),
        )
    }

    /// Forward and backward of one bag against the shared parameters:
    /// returns the training loss and accumulates its gradient, scaled by
    /// `scale` (typically `1 / batch_size`), into `worker`. Only reads the
    /// model, so any number of workers may run it concurrently.
    pub(crate) fn bag_forward_backward(
        &self,
        bag: &PreparedBag,
        ctx: &BagContext,
        scale: f32,
        rng: &mut TensorRng,
        worker: &mut ShardWorker,
    ) -> f32 {
        // The arena moves into the tape and comes back from
        // `backward_scaled`, recycled for the next step.
        let mut tape = Tape::with_pool(&self.store, std::mem::take(&mut worker.arena));

        let xs = self.bag_matrix(&mut tape, bag, true, rng);
        let bag_vec = match &self.att {
            Some(att) => att.aggregate(&mut tape, xs, bag.label),
            None => mean_aggregate(&mut tape, xs),
        };
        let re_logits = self.re_head.forward_vec(&mut tape, bag_vec);

        let loss = match &self.combiner {
            None => tape.softmax_cross_entropy(re_logits, bag.label),
            Some(comb) => {
                let re_soft = tape.softmax(re_logits);
                let (mr_logits, t_logits) = self.side_logits(&mut tape, bag, ctx);
                let c_mr = mr_logits.map(|l| tape.softmax(l));
                let c_t = t_logits.map(|l| tape.softmax(l));
                let logits = comb.combine(&mut tape, c_mr, c_t, re_soft);
                // Deep supervision: auxiliary cross-entropy on each
                // component's own logits (weight 0.5). The combined head
                // (the paper's P(r)) stays the only prediction path; the
                // auxiliary terms keep gradients flowing through the softmax
                // bottleneck — without the RE term the encoder starves and
                // the model collapses to always-NA, and ablations showed the
                // side-component terms also help PA-TMR (DESIGN.md §4b.2).
                let mut loss = tape.softmax_cross_entropy(logits, bag.label);
                for aux_logits in [Some(re_logits), mr_logits, t_logits].into_iter().flatten() {
                    let aux = tape.softmax_cross_entropy(aux_logits, bag.label);
                    let scaled = tape.scale(aux, 0.5);
                    loss = tape.add(loss, scaled);
                }
                loss
            }
        };
        let loss_val = tape.value(loss).data()[0];
        worker.arena = tape.backward_scaled(loss, scale, &mut worker.grads);
        loss_val
    }

    /// Forward and backward of one bag into the model's own arena and
    /// [`ReModel::grads`], scaled by `scale`; returns the training loss.
    pub fn bag_loss_and_backward(
        &mut self,
        bag: &PreparedBag,
        ctx: &BagContext,
        scale: f32,
        rng: &mut TensorRng,
    ) -> f32 {
        let mut own = ShardWorker {
            arena: std::mem::take(&mut self.arena),
            grads: std::mem::take(&mut self.grads),
        };
        let loss = self.bag_forward_backward(bag, ctx, scale, rng, &mut own);
        (self.arena, self.grads) = (own.arena, own.grads);
        loss
    }

    /// Allocator-pressure counters of the model's training arenas: its own
    /// plus every shard worker's.
    pub fn arena_stats(&self) -> PoolStats {
        let mut stats = self.arena.stats();
        for w in &self.workers {
            stats.merge(&w.arena_stats());
        }
        stats
    }

    /// Loads pretrained word embeddings (e.g. skip-gram vectors from
    /// [`imre_graph::train_skipgram`]) into the encoder's word table. The table is
    /// still fine-tuned during training, as in the paper's stack.
    ///
    /// # Panics
    /// If the matrix shape differs from `[vocab_size, word_dim]`.
    pub fn set_word_embeddings(&mut self, matrix: Tensor) {
        self.store
            .set(self.encoder.frontend().word_emb_id(), matrix);
    }

    /// Sentence-vector width (the encoder output the heads consume).
    pub fn sent_dim(&self) -> usize {
        if self.spec.word_att {
            self.encoder.token_dim()
        } else {
            self.encoder.out_dim()
        }
    }

    /// Eval-mode encodings of every sentence in a bag (used by the CNN+RL
    /// instance selector, which scores sentences outside the tape).
    pub fn sentence_encodings(&self, bag: &PreparedBag) -> Vec<Vec<f32>> {
        let mut rng = TensorRng::seed(0);
        let mut tape = Tape::inference(&self.store);
        bag.sentences
            .iter()
            .map(|s| {
                let v = self.encode_sentence(&mut tape, s, false, &mut rng);
                tape.value(v).data().to_vec()
            })
            .collect()
    }

    /// Predicts the per-relation probability vector for a bag (eval mode).
    ///
    /// With selective attention this is Lin et al.'s held-out protocol: each
    /// candidate relation `r` queries its own bag representation and
    /// contributes the score its own softmax gives it — the diagonal of the
    /// `[R, R]` matrix of per-query softmaxes, so the vector is not a
    /// distribution. The relation head is linear, so the `R` bag
    /// representations are never built: every sentence is projected through
    /// the head once and the projections are mixed by each relation's
    /// attention row ([`SelectiveAttention::held_out_scores`]). A
    /// single-sentence bag has attention `1.0` under every query, and its
    /// scores are the diagonal of `R` identical softmaxes. The `PA-*`
    /// variants then pass that score vector through the combiner with the
    /// side confidences.
    pub fn predict(&self, bag: &PreparedBag, ctx: &BagContext) -> Vec<f32> {
        let mut tape = Tape::inference(&self.store);
        self.forward(&mut tape, bag, ctx, None)
    }

    /// [`ReModel::predict`] served from a caller-owned buffer arena — the
    /// f32 twin of [`crate::QuantModel::predict_quant_into`]. The serving
    /// engine passes each worker's arena: after the first requests warm it,
    /// a forward pass performs zero tensor allocations
    /// (`pool.stats().misses` stops growing). When `repr` is given it
    /// receives the bag's pooled representation (length
    /// [`ReModel::sent_dim`], the serve-time kNN query) from the same
    /// stacked sentence matrix — one encoder pass serves both outputs, and
    /// the scores are bit-identical to [`ReModel::predict`] either way
    /// (pooled buffers are re-zeroed on alloc).
    pub fn predict_pooled(
        &self,
        bag: &PreparedBag,
        ctx: &BagContext,
        pool: &mut BufferPool,
        repr: Option<&mut [f32]>,
    ) -> Vec<f32> {
        let mut tape = Tape::inference_with_pool(&self.store, std::mem::take(pool));
        let scores = self.forward(&mut tape, bag, ctx, repr);
        *pool = tape.into_pool();
        scores
    }

    /// The eval-mode forward pass behind [`ReModel::predict`] and
    /// [`ReModel::predict_pooled`]: encode, optionally export the pooled
    /// representation, score.
    fn forward<'a>(
        &'a self,
        tape: &mut Tape<'a>,
        bag: &PreparedBag,
        ctx: &BagContext,
        repr: Option<&mut [f32]>,
    ) -> Vec<f32> {
        let mut rng = TensorRng::seed(0); // eval mode: dropout disabled, rng unused
        let xs = self.bag_matrix(tape, bag, false, &mut rng);
        if let Some(out) = repr {
            self.repr_from_matrix(tape, xs, out);
        }
        self.scores_from_matrix(tape, xs, bag, ctx)
    }

    /// Scores a bag given its already-stacked sentence matrix `xs`
    /// (`[n, sent_dim]`), so the encoder runs exactly once per bag whether
    /// or not a representation is exported. Mean aggregation scores the mean
    /// row through the head; selective attention scores all relations from
    /// `xs` in one project-once pass (see [`ReModel::predict`]) whose cost
    /// grows with `n`, not with the number of relations squared.
    fn scores_from_matrix<'a>(
        &'a self,
        tape: &mut Tape<'a>,
        xs: Var,
        bag: &PreparedBag,
        ctx: &BagContext,
    ) -> Vec<f32> {
        // The per-relation score vector lives in a pooled tensor: the only
        // heap allocation left on this path is the returned response Vec.
        let mut re_scores = tape.alloc(&[self.num_relations]);
        match &self.att {
            None => {
                let bag_vec = mean_aggregate(tape, xs);
                let logits = self.re_head.forward_vec(tape, bag_vec);
                let probs = tape.softmax(logits);
                re_scores
                    .data_mut()
                    .copy_from_slice(tape.value(probs).data());
            }
            Some(att) => att.held_out_scores(tape, xs, &self.re_head, re_scores.data_mut()),
        }
        self.combine_scores(tape, re_scores, bag, ctx)
    }

    /// Turns the relation-extraction score vector into the model's output:
    /// as is for the base models, through the combiner with the side
    /// confidences for the `PA-*` variants.
    fn combine_scores<'a>(
        &'a self,
        tape: &mut Tape<'a>,
        re_scores: Tensor,
        bag: &PreparedBag,
        ctx: &BagContext,
    ) -> Vec<f32> {
        match &self.combiner {
            None => {
                let out = re_scores.data().to_vec();
                tape.recycle(re_scores);
                out
            }
            Some(comb) => {
                let re = tape.leaf(re_scores);
                let (c_mr, c_t) = self.side_confidences(tape, bag, ctx);
                let logits = comb.combine(tape, c_mr, c_t, re);
                let probs = tape.softmax(logits);
                tape.value(probs).data().to_vec()
            }
        }
    }

    /// Writes the pooled bag representation for stacked sentence encodings
    /// `xs` into `out`. This is the **single** pooling code path behind
    /// every representation consumer — training-time index export,
    /// `imre eval --knn`, and the serve-time query — so the index and its
    /// queries can never drift apart (ISSUE 6 satellite).
    ///
    /// The representation is the eval-mode unweighted mean over the bag's
    /// sentence encodings (`mean_aggregate`), dimension
    /// [`ReModel::sent_dim`]. Attention is deliberately not applied: it is
    /// relation-conditioned, and the index needs one vector per bag.
    fn repr_from_matrix<'a>(&'a self, tape: &mut Tape<'a>, xs: Var, out: &mut [f32]) {
        let pooled = mean_aggregate(tape, xs);
        out.copy_from_slice(tape.value(pooled).data());
    }

    /// Pooled bag representation onto a caller-supplied tape; `out` must
    /// have length [`ReModel::sent_dim`].
    pub fn predict_repr_into<'a>(
        &'a self,
        tape: &mut Tape<'a>,
        bag: &PreparedBag,
        out: &mut [f32],
    ) {
        let mut rng = TensorRng::seed(0); // eval mode: dropout disabled, rng unused
        let xs = self.bag_matrix(tape, bag, false, &mut rng);
        self.repr_from_matrix(tape, xs, out);
    }

    /// Pooled bag representation of one bag (eval mode, fresh tape).
    pub fn predict_repr(&self, bag: &PreparedBag) -> Vec<f32> {
        let mut tape = Tape::inference(&self.store);
        let mut out = vec![0.0; self.sent_dim()];
        self.predict_repr_into(&mut tape, bag, &mut out);
        out
    }

    /// Pooled bag representations for a batch, parallelized over the
    /// compute pool — the one bag-parallel inference path (each bag's
    /// encodings are computed by one thread in a fixed kernel order on that
    /// thread's own [`bufpool::with_local`] stash, so results are
    /// bit-identical across `--threads`). Used to export the training-bag
    /// matrix the ANN index is built over.
    pub fn predict_repr_batch(&self, bags: &[&PreparedBag]) -> Vec<Vec<f32>> {
        imre_tensor::pool::par_map(bags.len(), |i| {
            bufpool::with_local(|stash| {
                let mut tape = Tape::inference_with_pool(&self.store, std::mem::take(stash));
                let mut out = vec![0.0; self.sent_dim()];
                self.predict_repr_into(&mut tape, bags[i], &mut out);
                *stash = tape.into_pool();
                out
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_match_paper() {
        assert_eq!(ModelSpec::pcnn().name(), "PCNN");
        assert_eq!(ModelSpec::pcnn_att().name(), "PCNN+ATT");
        assert_eq!(ModelSpec::cnn_att().name(), "CNN+ATT");
        assert_eq!(ModelSpec::gru_att().name(), "GRU+ATT");
        assert_eq!(ModelSpec::bgwa().name(), "BGWA");
        assert_eq!(ModelSpec::pa_t().name(), "PA-T");
        assert_eq!(ModelSpec::pa_mr().name(), "PA-MR");
        assert_eq!(ModelSpec::pa_tmr().name(), "PA-TMR");
        assert_eq!(ModelSpec::gru_att().with_tmr().name(), "GRU+ATT+TMR");
        assert_eq!(ModelSpec::pcnn().with_tmr().name(), "PCNN+TMR");
    }

    #[test]
    fn tmr_composition() {
        let spec = ModelSpec::pcnn_att().with_tmr();
        assert_eq!(spec, ModelSpec::pa_tmr());
    }

    fn toy_bag(label: usize) -> PreparedBag {
        let sentence = |tokens: Vec<usize>| SentenceFeatures {
            head_offsets: (0..tokens.len()).map(|i| i.min(8)).collect(),
            tail_offsets: (0..tokens.len()).map(|i| (i + 1).min(8)).collect(),
            head_pos: 1,
            tail_pos: 3,
            tokens,
        };
        PreparedBag {
            head: 0,
            tail: 1,
            label,
            sentences: vec![sentence(vec![2, 3, 4, 5, 6]), sentence(vec![4, 5, 6, 7, 2])],
        }
    }

    fn toy_types() -> Vec<Vec<usize>> {
        vec![vec![0], vec![1]]
    }

    fn tiny_hp() -> HyperParams {
        let mut hp = HyperParams::tiny();
        hp.pos_clip = 4; // matches toy offsets < 10
        hp
    }

    fn build(spec: ModelSpec) -> ReModel {
        ReModel::new(spec, &tiny_hp(), 10, 4, 5, 8, 7)
    }

    fn toy_embedding() -> imre_graph::EntityEmbedding {
        let mut rng = TensorRng::seed(1);
        imre_graph::EntityEmbedding::from_matrix(imre_tensor::Tensor::rand_uniform(
            &[3, 8],
            -1.0,
            1.0,
            &mut rng,
        ))
    }

    #[test]
    fn predict_returns_distribution_for_every_spec() {
        let emb = toy_embedding();
        let types = toy_types();
        for spec in [
            ModelSpec::pcnn(),
            ModelSpec::pcnn_att(),
            ModelSpec::cnn_att(),
            ModelSpec::gru_att(),
            ModelSpec::bgwa(),
            ModelSpec::pa_t(),
            ModelSpec::pa_mr(),
            ModelSpec::pa_tmr(),
        ] {
            let model = build(spec);
            let ctx = BagContext {
                entity_embedding: Some(&emb),
                entity_types: &types,
            };
            let probs = model.predict(&toy_bag(1), &ctx);
            assert_eq!(probs.len(), 4, "{}", spec.name());
            assert!(
                probs.iter().all(|&p| p.is_finite() && p >= 0.0),
                "{}",
                spec.name()
            );
            // combined and mean paths produce true distributions; the
            // attention diag path produces scores in (0, 1]
            assert!(probs.iter().all(|&p| p <= 1.0), "{}", spec.name());
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_bag() {
        let emb = toy_embedding();
        let types = toy_types();
        let mut model = build(ModelSpec::pa_tmr());
        let ctx = BagContext {
            entity_embedding: Some(&emb),
            entity_types: &types,
        };
        let bag = toy_bag(2);
        let mut rng = TensorRng::seed(9);
        let sgd = imre_nn::Sgd::new(0.2).with_clip_norm(5.0);
        let mut losses = Vec::new();
        for _ in 0..25 {
            let loss = model.bag_loss_and_backward(&bag, &ctx, 1.0, &mut rng);
            losses.push(loss);
            sgd.step(&mut model.store, &mut model.grads);
        }
        assert!(
            losses[24] < losses[0] * 0.7,
            "loss should shrink: {} → {}",
            losses[0],
            losses[24]
        );
    }

    #[test]
    fn repr_accessor_is_one_code_path() {
        let emb = toy_embedding();
        let types = toy_types();
        let model = build(ModelSpec::pa_tmr());
        let ctx = BagContext {
            entity_embedding: Some(&emb),
            entity_types: &types,
        };
        let (a, b) = (toy_bag(1), toy_bag(2));

        let repr = model.predict_repr(&a);
        assert_eq!(repr.len(), model.sent_dim());
        assert!(repr.iter().all(|v| v.is_finite()));

        // Batch export and the combined predict+repr path must agree bit
        // for bit with the single-bag accessor.
        let batch = model.predict_repr_batch(&[&a, &b]);
        assert_eq!(batch[0], repr);
        assert_eq!(batch[1], model.predict_repr(&b));

        let mut pool = BufferPool::new();
        let mut exported = vec![0.0; model.sent_dim()];
        let with_repr = model.predict_pooled(&a, &ctx, &mut pool, Some(&mut exported));
        assert_eq!(exported, repr);

        // Exporting a repr must not perturb the scores, and a pooled pass
        // that skips the export must match plain predict exactly.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&with_repr), bits(&model.predict(&a, &ctx)));
        let without = model.predict_pooled(&b, &ctx, &mut pool, None);
        assert_eq!(bits(&without), bits(&model.predict(&b, &ctx)));
    }

    /// The held-out protocol as literally stated — one attention query, one
    /// bag vector and one head projection per candidate relation, keep that
    /// relation's own softmax score. The reference
    /// [`SelectiveAttention::held_out_scores`] is checked against.
    fn predict_per_relation(model: &ReModel, bag: &PreparedBag, ctx: &BagContext) -> Vec<f32> {
        let att = model.att.as_ref().expect("an attention spec");
        let mut tape = Tape::inference(&model.store);
        let mut rng = TensorRng::seed(0);
        let xs = model.bag_matrix(&mut tape, bag, false, &mut rng);
        let mut re_scores = tape.alloc(&[model.num_relations]);
        for r in 0..model.num_relations {
            let bag_vec = att.aggregate(&mut tape, xs, r);
            let logits = model.re_head.forward_vec(&mut tape, bag_vec);
            let probs = tape.softmax(logits);
            re_scores.data_mut()[r] = tape.value(probs).data()[r];
        }
        model.combine_scores(&mut tape, re_scores, bag, ctx)
    }

    #[test]
    fn project_once_scores_match_per_relation_reference() {
        use crate::testutil::{random_bag, toy_embedding, toy_types, VOCAB};
        let types = toy_types();
        let argmax = |v: &[f32]| Tensor::from_vec(v.to_vec(), &[v.len()]).argmax();
        for (hp, num_relations, max_tokens) in
            [(HyperParams::tiny(), 7, 12), (HyperParams::paper(), 53, 65)]
        {
            let emb = toy_embedding(hp.entity_dim);
            let ctx = BagContext {
                entity_embedding: Some(&emb),
                entity_types: &types,
            };
            for spec in [
                ModelSpec::pcnn_att(),
                ModelSpec::cnn_att(),
                ModelSpec::pa_t(),
                ModelSpec::pa_mr(),
                ModelSpec::pa_tmr(),
            ] {
                let model = ReModel::new(spec, &hp, VOCAB, num_relations, 5, hp.entity_dim, 7);
                for (i, n) in [1usize, 2, 5, 8].into_iter().enumerate() {
                    let bag = random_bag(n, max_tokens, &hp, 1, 40 + i as u64);
                    let want = predict_per_relation(&model, &bag, &ctx);
                    let got = model.predict(&bag, &ctx);
                    let what = format!("{} k={} n={n}", spec.name(), hp.filters);
                    imre_tensor::assert_close(&got, &want, 1e-6);
                    assert_eq!(argmax(&got), argmax(&want), "{what}: argmax moved");
                }
            }
        }
    }

    /// The held-out buffers are `[R, n]`-shaped, so what must hold is pool
    /// reuse *across* bag sizes: once bags of 1 and 8 sentences have been
    /// seen, going 1 → 8 → 1 allocates no tensor buffer.
    #[test]
    fn warm_pool_serves_every_bag_size_without_misses() {
        use crate::testutil::{random_bag, toy_embedding, toy_types, VOCAB};
        let hp = HyperParams::tiny();
        let (emb, types) = (toy_embedding(hp.entity_dim), toy_types());
        let ctx = BagContext {
            entity_embedding: Some(&emb),
            entity_types: &types,
        };
        let model = ReModel::new(ModelSpec::pa_tmr(), &hp, VOCAB, 7, 5, hp.entity_dim, 7);
        let (one, eight) = (random_bag(1, 12, &hp, 0, 50), random_bag(8, 12, &hp, 0, 51));
        let mut pool = BufferPool::new();
        let mut repr = vec![0.0; model.sent_dim()];
        for bag in [&one, &eight] {
            model.predict_pooled(bag, &ctx, &mut pool, Some(&mut repr));
        }
        let warm = pool.stats();
        assert!(warm.misses > 0, "warm-up should populate the pool");
        for bag in [&one, &eight, &one] {
            model.predict_pooled(bag, &ctx, &mut pool, Some(&mut repr));
        }
        let steady = pool.stats().since(&warm);
        assert_eq!(steady.misses, 0, "warm forward allocated tensor buffers");
        assert!(steady.hits > 0);
    }

    #[test]
    #[should_panic(expected = "requires")]
    fn mr_without_embedding_panics() {
        let types = toy_types();
        let model = build(ModelSpec::pa_mr());
        let ctx = BagContext {
            entity_embedding: None,
            entity_types: &types,
        };
        let _ = model.predict(&toy_bag(0), &ctx);
    }

    #[test]
    fn prepare_bags_roundtrip() {
        use imre_corpus::{Dataset, DatasetConfig, SentenceGenConfig, WorldConfig};
        let ds = Dataset::generate(&DatasetConfig {
            name: "t".into(),
            world: WorldConfig {
                n_relations: 4,
                entities_per_cluster: 6,
                facts_per_relation: 8,
                cluster_reuse_prob: 0.3,
                seed: 1,
            },
            sentence: SentenceGenConfig::default(),
            train_fraction: 0.7,
            na_train: 5,
            na_test: 3,
            na_hard_fraction: 0.5,
            zipf_alpha: 2.0,
            max_sentences_per_bag: 10,
            seed: 2,
        });
        let hp = HyperParams::tiny();
        let prepared = prepare_bags(&ds.train, &hp);
        assert_eq!(prepared.len(), ds.train.len());
        for (p, b) in prepared.iter().zip(&ds.train) {
            assert_eq!(p.sentences.len(), b.sentences.len());
            assert_eq!(p.label, b.label.0);
        }
        let types = entity_type_table(&ds.world);
        assert_eq!(types.len(), ds.world.num_entities());
    }
}
