//! Sentence encoders (paper §III-C step 1–2).
//!
//! Every encoder shares the same embedding front-end — word embeddings plus
//! two relative-position embeddings (head/tail), concatenated per token —
//! and differs in how it turns the `[T, k_w + 2·k_p]` sequence into a fixed
//! sentence vector:
//!
//! * [`EncoderKind::Cnn`] — Conv1d + global max pooling + tanh (Zeng 2014).
//! * [`EncoderKind::Pcnn`] — Conv1d + piecewise max pooling + tanh
//!   (Zeng 2015; the paper's base encoder).
//! * [`EncoderKind::Gru`] — bidirectional GRU + max pooling over time.

use crate::config::HyperParams;
use crate::features::SentenceFeatures;
use imre_nn::{pcnn_segments_array, BiGru, Conv1d, Dropout, ParamId, ParamStore, Tape, Var};
use imre_tensor::TensorRng;

/// Which sentence encoder a model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// CNN with global max pooling.
    Cnn,
    /// CNN with piecewise max pooling (PCNN).
    Pcnn,
    /// Bidirectional GRU with max pooling over time.
    Gru,
}

impl EncoderKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            EncoderKind::Cnn => "CNN",
            EncoderKind::Pcnn => "PCNN",
            EncoderKind::Gru => "GRU",
        }
    }
}

/// Word + dual relative-position embedding tables.
pub struct Frontend {
    word_emb: ParamId,
    head_pos_emb: ParamId,
    tail_pos_emb: ParamId,
    in_dim: usize,
}

impl Frontend {
    /// Registers the three embedding tables under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab_size: usize,
        hp: &HyperParams,
        rng: &mut TensorRng,
    ) -> Self {
        let word_emb = store.uniform(
            &format!("{name}.word_emb"),
            &[vocab_size, hp.word_dim],
            0.25,
            rng,
        );
        let head_pos_emb = store.uniform(
            &format!("{name}.head_pos_emb"),
            &[hp.pos_vocab(), hp.pos_dim],
            0.25,
            rng,
        );
        let tail_pos_emb = store.uniform(
            &format!("{name}.tail_pos_emb"),
            &[hp.pos_vocab(), hp.pos_dim],
            0.25,
            rng,
        );
        Frontend {
            word_emb,
            head_pos_emb,
            tail_pos_emb,
            in_dim: hp.word_dim + 2 * hp.pos_dim,
        }
    }

    /// Per-token input width (`k_w + 2·k_p`).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Embeds a featurised sentence into a `[T, in_dim]` matrix.
    pub fn embed(&self, tape: &mut Tape, feats: &SentenceFeatures) -> Var {
        let words = tape.gather(self.word_emb, &feats.tokens);
        let head = tape.gather(self.head_pos_emb, &feats.head_offsets);
        let tail = tape.gather(self.tail_pos_emb, &feats.tail_offsets);
        tape.concat_cols(&[words, head, tail])
    }

    /// The word-embedding table id (exposed so tests can inspect updates).
    pub fn word_emb_id(&self) -> ParamId {
        self.word_emb
    }
}

enum Variant {
    Cnn(Conv1d),
    Pcnn(Conv1d),
    Gru(BiGru),
}

/// A complete sentence encoder: front-end + architecture + output dropout.
pub struct Encoder {
    frontend: Frontend,
    variant: Variant,
    dropout: Dropout,
    out_dim: usize,
}

impl Encoder {
    /// Builds an encoder of the given kind.
    pub fn new(
        kind: EncoderKind,
        store: &mut ParamStore,
        name: &str,
        vocab_size: usize,
        hp: &HyperParams,
        rng: &mut TensorRng,
    ) -> Self {
        let frontend = Frontend::new(store, name, vocab_size, hp, rng);
        let in_dim = frontend.in_dim();
        let (variant, out_dim) = match kind {
            EncoderKind::Cnn => {
                let conv = Conv1d::new(
                    store,
                    &format!("{name}.conv"),
                    in_dim,
                    hp.filters,
                    hp.window,
                    rng,
                );
                (Variant::Cnn(conv), hp.filters)
            }
            EncoderKind::Pcnn => {
                let conv = Conv1d::new(
                    store,
                    &format!("{name}.conv"),
                    in_dim,
                    hp.filters,
                    hp.window,
                    rng,
                );
                (Variant::Pcnn(conv), 3 * hp.filters)
            }
            EncoderKind::Gru => {
                let gru = BiGru::new(store, &format!("{name}.gru"), in_dim, hp.gru_hidden, rng);
                (Variant::Gru(gru), 2 * hp.gru_hidden)
            }
        };
        Encoder {
            frontend,
            variant,
            dropout: Dropout::new(hp.dropout),
            out_dim,
        }
    }

    /// Sentence-vector width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The shared embedding front-end.
    pub fn frontend(&self) -> &Frontend {
        &self.frontend
    }

    /// Encodes one sentence to a rank-1 vector of [`Self::out_dim`].
    ///
    /// `training` enables dropout on the sentence vector (paper: p = 0.5).
    pub fn encode(
        &self,
        tape: &mut Tape,
        feats: &SentenceFeatures,
        training: bool,
        rng: &mut TensorRng,
    ) -> Var {
        let x = self.frontend.embed(tape, feats);
        let t = tape.value(x).rows();
        let encoded = match &self.variant {
            Variant::Cnn(conv) => conv.forward_pooled(tape, x, &[(0, t)]),
            Variant::Pcnn(conv) => {
                let segs = pcnn_segments_array(t, feats.head_pos, feats.tail_pos);
                conv.forward_pooled(tape, x, &segs)
            }
            Variant::Gru(gru) => {
                // GRU states are already bounded by their gating nonlinearities;
                // a second tanh after pooling would squash the encoding toward
                // zero and starve the classifier's logits.
                let hs = gru.forward(tape, x);
                tape.piecewise_max(hs, &[(0, t)])
            }
        };
        self.dropout.forward(tape, encoded, training, rng)
    }

    /// Encodes with access to the per-token states (needed by BGWA's
    /// word-level attention). Returns `[T, token_dim]` states *before*
    /// pooling. Only meaningful for the GRU variant; CNN variants return the
    /// post-convolution token states.
    pub fn token_states(&self, tape: &mut Tape, feats: &SentenceFeatures) -> Var {
        let x = self.frontend.embed(tape, feats);
        match &self.variant {
            Variant::Cnn(conv) | Variant::Pcnn(conv) => conv.forward(tape, x),
            Variant::Gru(gru) => gru.forward(tape, x),
        }
    }

    /// Width of [`Self::token_states`] rows.
    pub fn token_dim(&self) -> usize {
        match &self.variant {
            Variant::Cnn(conv) | Variant::Pcnn(conv) => conv.filters(),
            Variant::Gru(gru) => gru.out_dim(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imre_corpus::EncodedSentence;
    use imre_nn::GradStore;

    fn feats() -> SentenceFeatures {
        crate::features::featurize(
            &EncodedSentence {
                tokens: vec![2, 3, 4, 5, 6, 7],
                head_pos: 1,
                tail_pos: 4,
                expresses_relation: true,
            },
            30,
            20,
        )
    }

    fn hp() -> HyperParams {
        HyperParams::tiny()
    }

    #[test]
    fn out_dims_per_kind() {
        let mut rng = TensorRng::seed(1);
        let h = hp();
        let mut store = ParamStore::new();
        let cnn = Encoder::new(EncoderKind::Cnn, &mut store, "cnn", 10, &h, &mut rng);
        let pcnn = Encoder::new(EncoderKind::Pcnn, &mut store, "pcnn", 10, &h, &mut rng);
        let gru = Encoder::new(EncoderKind::Gru, &mut store, "gru", 10, &h, &mut rng);
        assert_eq!(cnn.out_dim(), h.filters);
        assert_eq!(pcnn.out_dim(), 3 * h.filters);
        assert_eq!(gru.out_dim(), 2 * h.gru_hidden);
    }

    #[test]
    fn encode_shapes() {
        let mut rng = TensorRng::seed(2);
        let h = hp();
        for kind in [EncoderKind::Cnn, EncoderKind::Pcnn, EncoderKind::Gru] {
            let mut store = ParamStore::new();
            let enc = Encoder::new(kind, &mut store, "e", 10, &h, &mut rng);
            let mut tape = Tape::new(&store);
            let v = enc.encode(&mut tape, &feats(), false, &mut rng);
            assert_eq!(tape.value(v).len(), enc.out_dim(), "{:?}", kind);
            assert!(tape.value(v).data().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn eval_mode_deterministic_train_mode_not_identical() {
        let mut rng = TensorRng::seed(3);
        let h = hp();
        let mut store = ParamStore::new();
        let enc = Encoder::new(EncoderKind::Pcnn, &mut store, "e", 10, &h, &mut rng);
        let f = feats();
        let out_eval: Vec<f32> = {
            let mut tape = Tape::new(&store);
            let v = enc.encode(&mut tape, &f, false, &mut rng);
            tape.value(v).data().to_vec()
        };
        let out_eval2: Vec<f32> = {
            let mut tape = Tape::new(&store);
            let v = enc.encode(&mut tape, &f, false, &mut rng);
            tape.value(v).data().to_vec()
        };
        assert_eq!(out_eval, out_eval2, "eval must be deterministic");
        let out_train: Vec<f32> = {
            let mut tape = Tape::new(&store);
            let v = enc.encode(&mut tape, &f, true, &mut rng);
            tape.value(v).data().to_vec()
        };
        assert_ne!(out_eval, out_train, "dropout must perturb training output");
    }

    #[test]
    fn gradients_reach_embeddings() {
        let mut rng = TensorRng::seed(4);
        let h = hp();
        let mut store = ParamStore::new();
        let enc = Encoder::new(EncoderKind::Pcnn, &mut store, "e", 10, &h, &mut rng);
        let mut grads = GradStore::zeros_like(&store);
        let mut tape = Tape::new(&store);
        let v = enc.encode(&mut tape, &feats(), false, &mut rng);
        let loss = tape.softmax_cross_entropy(v, 0);
        tape.backward(loss, &mut grads);
        let g = grads.get(enc.frontend().word_emb_id());
        // tokens 2..8 were used, so their rows must receive gradient
        assert!(g.row(3).iter().any(|&x| x != 0.0));
        // token 9 never appears
        assert!(g.row(9).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn token_states_shapes() {
        let mut rng = TensorRng::seed(5);
        let h = hp();
        for kind in [EncoderKind::Cnn, EncoderKind::Gru] {
            let mut store = ParamStore::new();
            let enc = Encoder::new(kind, &mut store, "e", 10, &h, &mut rng);
            let mut tape = Tape::new(&store);
            let states = enc.token_states(&mut tape, &feats());
            assert_eq!(tape.value(states).rows(), 6);
            assert_eq!(tape.value(states).cols(), enc.token_dim());
        }
    }

    #[test]
    fn kind_names() {
        assert_eq!(EncoderKind::Pcnn.name(), "PCNN");
        assert_eq!(EncoderKind::Cnn.name(), "CNN");
        assert_eq!(EncoderKind::Gru.name(), "GRU");
    }
}
