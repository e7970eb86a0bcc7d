//! Persistent model parameters and their gradient buffers.
//!
//! Parameters live outside any single computation tape so that one set of
//! weights can be trained across many [`crate::Tape`]s (one per bag/batch).
//! Gradients accumulate in a parallel [`GradStore`]; the optimizer consumes
//! both and the grad store is zeroed between steps.

use imre_tensor::{Tensor, TensorRng};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Handle to a parameter registered in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of this parameter inside its store.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A named collection of trainable tensors.
#[derive(Default)]
pub struct ParamStore {
    names: Vec<String>,
    tensors: Vec<Tensor>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tensor as a trainable parameter.
    ///
    /// # Panics
    /// If a parameter with the same name already exists.
    pub fn register(&mut self, name: &str, tensor: Tensor) -> ParamId {
        assert!(
            !self.names.iter().any(|n| n == name),
            "ParamStore::register: duplicate parameter name {name:?}"
        );
        self.names.push(name.to_string());
        self.tensors.push(tensor);
        ParamId(self.tensors.len() - 1)
    }

    /// Registers a Xavier-initialised `[fan_in, fan_out]` weight.
    pub fn xavier(
        &mut self,
        name: &str,
        fan_in: usize,
        fan_out: usize,
        rng: &mut TensorRng,
    ) -> ParamId {
        self.register(name, Tensor::xavier(fan_in, fan_out, rng))
    }

    /// Registers a zero-initialised tensor (typical for biases).
    pub fn zeros(&mut self, name: &str, shape: &[usize]) -> ParamId {
        self.register(name, Tensor::zeros(shape))
    }

    /// Registers a uniformly-initialised tensor (typical for embeddings).
    pub fn uniform(
        &mut self,
        name: &str,
        shape: &[usize],
        bound: f32,
        rng: &mut TensorRng,
    ) -> ParamId {
        self.register(name, Tensor::rand_uniform(shape, -bound, bound, rng))
    }

    /// Borrow a parameter's current value.
    #[inline]
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutably borrow a parameter (used by optimizers and tests).
    #[inline]
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Overwrites a parameter's value (e.g. loading pre-trained embeddings).
    ///
    /// # Panics
    /// If the new tensor's shape differs from the registered one.
    pub fn set(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.tensors[id.0].shape(),
            value.shape(),
            "ParamStore::set: shape mismatch for {:?}",
            self.names[id.0]
        );
        self.tensors[id.0] = value;
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Looks a parameter up by name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of trainable scalars across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Iterates over `(id, name, tensor)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.names
            .iter()
            .zip(&self.tensors)
            .enumerate()
            .map(|(i, (n, t))| (ParamId(i), n.as_str(), t))
    }
}

/// The indices of the set bits of a bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
}

/// A parameter-shaped tensor of zeros allocated at first use: a model that
/// is only served never pays for its gradient buffers, and a store's
/// never-written parameters cost nothing.
struct LazyZeros {
    shape: Vec<usize>,
    cell: OnceLock<Tensor>,
}

impl LazyZeros {
    fn get(&self) -> &Tensor {
        self.cell.get_or_init(|| Tensor::zeros(&self.shape))
    }

    fn get_mut(&mut self) -> &mut Tensor {
        self.get();
        self.cell.get_mut().expect("initialised on the line above")
    }
}

/// One parameter's gradient inside a [`GradStore`].
enum Grad {
    /// A parameter-shaped buffer — what [`GradStore::get`] hands out.
    /// While `dense` is false every row outside `rows` is exactly zero, so
    /// sweeps may skip it.
    Full {
        tensor: LazyZeros,
        /// A write came through [`GradStore::accumulate`] or
        /// [`GradStore::get_mut`] since the last zero: any element may be
        /// non-zero.
        dense: bool,
        /// Bit `r` set ⇔ row `r` was written by
        /// [`GradStore::scatter_add_rows`] since the last zero (one bit per
        /// row of a rank-2 parameter; empty for other ranks).
        rows: Vec<u64>,
    },
    /// Only the written rows of a rank-2 parameter are held: `slots[&r]` is
    /// the index of row `r`'s `shape[1]` scalars in `data`. The form a
    /// shard worker's store keeps an embedding table in.
    Compact {
        shape: [usize; 2],
        slots: BTreeMap<usize, usize>,
        data: Vec<f32>,
    },
}

impl Grad {
    fn full(shape: &[usize]) -> Grad {
        let rows = if shape.len() == 2 { shape[0] } else { 0 };
        Grad::Full {
            tensor: LazyZeros {
                shape: shape.to_vec(),
                cell: OnceLock::new(),
            },
            dense: false,
            rows: vec![0; rows.div_ceil(64)],
        }
    }

    /// Adds `src` into row `row` and records the row as written.
    fn add_row(&mut self, row: usize, src: &[f32]) {
        let (rows, cols) = match self {
            Grad::Full { tensor, .. } => match tensor.shape[..] {
                [rows, cols] => (rows, cols),
                _ => panic!("GradStore: rows of a rank-{} gradient", tensor.shape.len()),
            },
            Grad::Compact { shape, .. } => (shape[0], shape[1]),
        };
        assert!(
            row < rows,
            "GradStore: row {row} out of bounds for {rows} rows"
        );
        assert_eq!(
            src.len(),
            cols,
            "GradStore: update width {} vs table width {cols}",
            src.len()
        );
        let dst = match self {
            Grad::Full { tensor, rows, .. } => {
                rows[row / 64] |= 1 << (row % 64);
                tensor.get_mut().row_mut(row)
            }
            Grad::Compact { slots, data, .. } => {
                let next = slots.len();
                let slot = *slots.entry(row).or_insert_with(|| {
                    data.resize(data.len() + cols, 0.0);
                    next
                });
                &mut data[slot * cols..(slot + 1) * cols]
            }
        };
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    /// Calls `f(row, values)` for every written row, in ascending row
    /// order. Must not be called on a dense buffer (its row set is stale).
    fn for_each_row(&self, mut f: impl FnMut(usize, &[f32])) {
        match self {
            Grad::Full { tensor, rows, .. } => {
                for row in set_bits(rows) {
                    f(row, tensor.get().row(row));
                }
            }
            Grad::Compact { shape, slots, data } => {
                let cols = shape[1];
                for (&row, &slot) in slots {
                    f(row, &data[slot * cols..(slot + 1) * cols]);
                }
            }
        }
    }

    /// The whole buffer when any element may be non-zero, `None` while the
    /// row set is authoritative.
    fn dense(&self) -> Option<&Tensor> {
        match self {
            Grad::Full {
                tensor,
                dense: true,
                ..
            } => Some(tensor.get()),
            _ => None,
        }
    }

    /// The parameter-shaped buffer, marked dense; a compact gradient is
    /// expanded first and stays full-size from then on.
    fn make_dense(&mut self) -> &mut Tensor {
        if let Grad::Compact { shape, .. } = self {
            let mut full = Grad::full(&shape[..]);
            self.for_each_row(|row, g| full.add_row(row, g));
            *self = full;
        }
        match self {
            Grad::Full { tensor, dense, .. } => {
                *dense = true;
                tensor.get_mut()
            }
            Grad::Compact { .. } => unreachable!("expanded above"),
        }
    }

    /// Calls `f(offset, values)` for every run of scalars that may be
    /// non-zero, `offset` being the run's position in the flat parameter,
    /// in ascending order.
    fn for_each_span(&self, mut f: impl FnMut(usize, &[f32])) {
        match self.dense() {
            Some(t) => f(0, t.data()),
            None => self.for_each_row(|row, g| f(row * g.len(), g)),
        }
    }

    fn scale(&mut self, s: f32) {
        match self {
            Grad::Full {
                tensor,
                dense: true,
                ..
            } => tensor.get_mut().map_in_place(|x| x * s),
            Grad::Full { tensor, rows, .. } => {
                for row in set_bits(rows) {
                    let values = tensor.get_mut().row_mut(row);
                    values.iter_mut().for_each(|x| *x *= s);
                }
            }
            Grad::Compact { data, .. } => data.iter_mut().for_each(|x| *x *= s),
        }
    }

    fn zero(&mut self) {
        match self {
            Grad::Full {
                tensor,
                dense,
                rows,
            } => {
                if *dense {
                    tensor.get_mut().fill_zero();
                } else {
                    for row in set_bits(rows) {
                        tensor.get_mut().row_mut(row).fill(0.0);
                    }
                }
                *dense = false;
                rows.fill(0);
            }
            Grad::Compact { slots, data, .. } => {
                slots.clear();
                data.clear();
            }
        }
    }
}

/// Gradient buffers mirroring a [`ParamStore`], **row-sparse**: per
/// parameter the store remembers which rows were written since the last
/// [`GradStore::zero`] as long as every write came through
/// [`GradStore::scatter_add_rows`], and `zero`, `scale`, `global_norm`,
/// `add_from` and [`crate::Sgd::step`] visit only those rows, in ascending
/// row order. The skipped elements are exact zeros (`s + 0·0 = s`,
/// `θ − lr·0 = θ`), so every result is bit-identical to a sweep over the
/// whole buffer — an embedding table of 114,042 rows of which a mini-batch
/// touches a few thousand costs what it touched. A write through
/// [`GradStore::accumulate`] or [`GradStore::get_mut`] marks the parameter
/// dense until the next zero.
#[derive(Default)]
pub struct GradStore {
    grads: Vec<Grad>,
}

impl GradStore {
    /// Creates zeroed, parameter-shaped gradient buffers matching `store`
    /// (each allocated when it is first written or read).
    pub fn zeros_like(store: &ParamStore) -> Self {
        GradStore {
            grads: store
                .tensors
                .iter()
                .map(|t| Grad::full(t.shape()))
                .collect(),
        }
    }

    /// A store for one shard of a mini-batch: a rank-2 parameter holds only
    /// the rows [`GradStore::scatter_add_rows`] wrote (`[touched × cols]`
    /// scalars and a row → slot index, never a table-sized buffer) until
    /// its first dense write expands it for good. Merge it into a
    /// [`GradStore::zeros_like`] store with [`GradStore::add_from`];
    /// [`GradStore::get`] panics on a parameter still held compactly.
    pub fn compact_like(store: &ParamStore) -> Self {
        GradStore {
            grads: store
                .tensors
                .iter()
                .map(|t| match t.shape() {
                    &[rows, cols] => Grad::Compact {
                        shape: [rows, cols],
                        slots: BTreeMap::new(),
                        data: Vec::new(),
                    },
                    shape => Grad::full(shape),
                })
                .collect(),
        }
    }

    /// Borrow the gradient of a parameter.
    ///
    /// # Panics
    /// If the parameter is held compactly ([`GradStore::compact_like`]).
    #[inline]
    pub fn get(&self, id: ParamId) -> &Tensor {
        match &self.grads[id.0] {
            Grad::Full { tensor, .. } => tensor.get(),
            Grad::Compact { .. } => panic!(
                "GradStore::get: parameter {} is held compactly; add_from it into a zeros_like store",
                id.0
            ),
        }
    }

    /// Mutably borrow the gradient of a parameter (marks it dense).
    #[inline]
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.grads[id.0].make_dense()
    }

    /// Accumulates `delta` into a parameter's gradient (marks it dense).
    pub fn accumulate(&mut self, id: ParamId, delta: &Tensor) {
        self.get_mut(id).add_assign(delta);
    }

    /// Adds row `k` of `updates` into row `indices[k]` of a rank-2
    /// parameter's gradient (indices may repeat) — the gradient of an
    /// embedding gather, and the one write that keeps the parameter
    /// row-sparse.
    ///
    /// # Panics
    /// If shapes disagree or any index is out of bounds.
    pub fn scatter_add_rows(&mut self, id: ParamId, indices: &[usize], updates: &Tensor) {
        assert_eq!(
            updates.rows(),
            indices.len(),
            "GradStore::scatter_add_rows: {} updates for {} indices",
            updates.rows(),
            indices.len()
        );
        let g = &mut self.grads[id.0];
        for (k, &i) in indices.iter().enumerate() {
            g.add_row(i, updates.row(k));
        }
    }

    /// Accumulates every gradient of `other` into this store — the merge of
    /// a shard's store into the primary and the pairwise combine of
    /// `imre_dist::tree_all_reduce`. Only what `other` wrote is visited;
    /// summation inside each buffer is in element order, so for a fixed
    /// pair the result is bit-identical no matter which thread runs it.
    ///
    /// # Panics
    /// If the stores differ in buffer count or any tensor shape.
    pub fn add_from(&mut self, other: &GradStore) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "GradStore::add_from: buffer count mismatch"
        );
        for (dst, src) in self.grads.iter_mut().zip(&other.grads) {
            match src.dense() {
                Some(t) => dst.make_dense().add_assign(t),
                None => src.for_each_row(|row, g| dst.add_row(row, g)),
            }
        }
    }

    /// Zeroes all gradients (between optimizer steps).
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            g.zero();
        }
    }

    /// Global L2 norm over all gradients (used for clipping).
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| {
                let mut sq = 0.0f32;
                g.for_each_span(|_, values| {
                    for &x in values {
                        sq += x * x;
                    }
                });
                let n = sq.sqrt();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients by a finite, non-negative constant (clipping /
    /// batch mean) — anything else would have to turn the skipped zeros
    /// into `-0.0` or NaN.
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.grads {
            g.scale(s);
        }
    }

    /// [`Grad::for_each_span`] of one parameter (the optimizer's view).
    pub(crate) fn for_each_span(&self, id: ParamId, f: impl FnMut(usize, &[f32])) {
        self.grads[id.0].for_each_span(f);
    }

    /// How many gradient scalars this store holds buffers for.
    #[cfg(test)]
    fn held_scalars(&self) -> usize {
        self.grads
            .iter()
            .map(|g| match g {
                Grad::Full { tensor, .. } => tensor.cell.get().map_or(0, Tensor::len),
                Grad::Compact { data, .. } => data.len(),
            })
            .sum()
    }

    /// Number of gradient buffers.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_get_set_roundtrip() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::ones(&[2, 2]));
        assert_eq!(store.get(id).data(), &[1.0; 4]);
        store.set(id, Tensor::zeros(&[2, 2]));
        assert_eq!(store.get(id).data(), &[0.0; 4]);
        assert_eq!(store.name(id), "w");
        assert_eq!(store.find("w"), Some(id));
        assert_eq!(store.find("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut store = ParamStore::new();
        store.zeros("w", &[1]);
        store.zeros("w", &[1]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn set_wrong_shape_panics() {
        let mut store = ParamStore::new();
        let id = store.zeros("w", &[2]);
        store.set(id, Tensor::zeros(&[3]));
    }

    #[test]
    fn scalar_count() {
        let mut store = ParamStore::new();
        store.zeros("a", &[2, 3]);
        store.zeros("b", &[4]);
        assert_eq!(store.num_scalars(), 10);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let mut store = ParamStore::new();
        let id = store.zeros("w", &[2]);
        let mut grads = GradStore::zeros_like(&store);
        grads.accumulate(id, &Tensor::from_vec(vec![1.0, 2.0], &[2]));
        grads.accumulate(id, &Tensor::from_vec(vec![1.0, 2.0], &[2]));
        assert_eq!(grads.get(id).data(), &[2.0, 4.0]);
        grads.zero();
        assert_eq!(grads.get(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn global_norm_and_scale() {
        let mut store = ParamStore::new();
        let a = store.zeros("a", &[1]);
        let b = store.zeros("b", &[1]);
        let mut grads = GradStore::zeros_like(&store);
        grads.accumulate(a, &Tensor::from_vec(vec![3.0], &[1]));
        grads.accumulate(b, &Tensor::from_vec(vec![4.0], &[1]));
        assert!((grads.global_norm() - 5.0).abs() < 1e-6);
        grads.scale(0.5);
        assert_eq!(grads.get(a).data(), &[1.5]);
    }

    #[test]
    fn add_from_accumulates_pairwise() {
        let mut store = ParamStore::new();
        let id = store.zeros("w", &[2]);
        let mut a = GradStore::zeros_like(&store);
        let mut b = GradStore::zeros_like(&store);
        a.accumulate(id, &Tensor::from_vec(vec![1.0, 2.0], &[2]));
        b.accumulate(id, &Tensor::from_vec(vec![10.0, 20.0], &[2]));
        a.add_from(&b);
        assert_eq!(a.get(id).data(), &[11.0, 22.0]);
        assert_eq!(b.get(id).data(), &[10.0, 20.0], "source unchanged");
    }

    /// A shard store costs the dense parameters plus the rows it touched — at
    /// Table III's `[114042×50]` word table, not 5.7 M scalars per shard.
    #[test]
    fn compact_store_never_holds_a_table_sized_buffer() {
        let (rows, cols, touched) = (114_042usize, 50usize, 2_000usize);
        let mut params = ParamStore::new();
        let table = params.zeros("table", &[rows, cols]);
        let weight = params.zeros("weight", &[180, 230]);
        let bias = params.zeros("bias", &[230]);
        let mut shard = GradStore::compact_like(&params);
        assert_eq!(shard.held_scalars(), 0, "nothing up front");

        let mut rng = TensorRng::seed(1);
        let mut indices: Vec<usize> = (0..touched).map(|i| i * 57).collect();
        indices.extend([0, rows - 1, 57]); // repeats take no new slot
        let updates = Tensor::rand_uniform(&[indices.len(), cols], -1.0, 1.0, &mut rng);
        shard.scatter_add_rows(table, &indices, &updates);
        shard.accumulate(weight, &Tensor::ones(&[180, 230]));
        shard.get_mut(bias).data_mut()[0] = 1.0;
        assert_eq!(
            shard.held_scalars(),
            (touched + 1) * cols + 180 * 230 + 230,
            "touched rows + dense parameters"
        );

        // Merged into the primary, the rows land where they belong.
        let mut primary = GradStore::zeros_like(&params);
        primary.add_from(&shard);
        let mut want = Tensor::zeros(&[rows, cols]);
        want.scatter_add_rows(&indices, &updates);
        assert_eq!(primary.get(table).data(), want.data());

        shard.zero();
        assert_eq!(shard.held_scalars(), 180 * 230 + 230, "zero drops the rows");
    }

    #[test]
    fn iter_yields_all() {
        let mut store = ParamStore::new();
        store.zeros("a", &[1]);
        store.zeros("b", &[2]);
        let names: Vec<&str> = store.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
