//! The row-sparse [`GradStore`] against a dense oracle, bit for bit.
//!
//! Three stores — two parameter-shaped (`zeros_like`) and one compact shard
//! store (`compact_like`) — are driven through random interleavings of
//! every write, sweep and merge the store offers, each beside a plain
//! `Vec<Tensor>` twin that always sweeps every scalar the way the store did
//! before it tracked rows. After every operation the twins must agree
//! exactly; the op list runs twice with a `zero` in between, because stale
//! touched-row state after a zero is the bug this guards against.

use imre_nn::{GradStore, ParamId, ParamStore, Sgd};
use imre_tensor::{Tensor, TensorRng};
use proptest::prelude::*;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// The pre-row-sparse store: every sweep covers every scalar.
struct Dense(Vec<Tensor>);

impl Dense {
    fn zeros_like(params: &ParamStore) -> Dense {
        Dense(
            params
                .iter()
                .map(|(_, _, t)| Tensor::zeros(t.shape()))
                .collect(),
        )
    }

    fn global_norm(&self) -> f32 {
        self.0
            .iter()
            .map(|g| {
                let n = g.norm_l2();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    fn scale(&mut self, s: f32) {
        for g in &mut self.0 {
            g.map_in_place(|x| x * s);
        }
    }

    fn add_from(&mut self, other: &Dense) {
        for (d, s) in self.0.iter_mut().zip(&other.0) {
            d.add_assign(s);
        }
    }

    fn zero(&mut self) {
        for g in &mut self.0 {
            g.fill_zero();
        }
    }

    /// `Sgd::step` as it was: clip by global norm, sweep, zero.
    fn sgd_step(&mut self, sgd: &Sgd, params: &mut ParamStore, ids: &[ParamId]) {
        if let Some(c) = sgd.clip_norm {
            let n = self.global_norm();
            if n > c && n > 0.0 {
                self.scale(c / n);
            }
        }
        for (g, &id) in self.0.iter().zip(ids) {
            params.get_mut(id).axpy(-sgd.lr, g);
        }
        self.zero();
    }
}

/// A store under test, its oracle, and the parameters each of them steps.
struct Twin {
    store: GradStore,
    oracle: Dense,
    params: ParamStore,
    oracle_params: ParamStore,
    compact: bool,
}

fn build_params(rows: usize, cols: usize) -> (ParamStore, Vec<ParamId>) {
    let mut rng = TensorRng::seed(17);
    let mut params = ParamStore::new();
    let ids = vec![
        params.uniform("table", &[rows, cols], 1.0, &mut rng),
        params.uniform("weight", &[3, 2], 1.0, &mut rng),
        params.uniform("bias", &[4], 1.0, &mut rng),
    ];
    (params, ids)
}

impl Twin {
    fn new(rows: usize, cols: usize, compact: bool) -> Twin {
        let (params, _) = build_params(rows, cols);
        let (oracle_params, _) = build_params(rows, cols);
        Twin {
            store: if compact {
                GradStore::compact_like(&params)
            } else {
                GradStore::zeros_like(&params)
            },
            oracle: Dense::zeros_like(&params),
            params,
            oracle_params,
            compact,
        }
    }

    /// Gradients, norm and parameters agree with the oracle exactly. A
    /// compact store is read through a merge into a fresh dense one.
    fn check(&self, ids: &[ParamId], what: &str) -> Result<(), TestCaseError> {
        let mut merged = GradStore::zeros_like(&self.params);
        let view = if self.compact {
            merged.add_from(&self.store);
            &merged
        } else {
            &self.store
        };
        for (&id, want) in ids.iter().zip(&self.oracle.0) {
            prop_assert_eq!(
                bits(view.get(id).data()),
                bits(want.data()),
                "{}: gradient of {}",
                what,
                self.params.name(id)
            );
            prop_assert_eq!(
                bits(self.params.get(id).data()),
                bits(self.oracle_params.get(id).data()),
                "{}: parameter {}",
                what,
                self.params.name(id)
            );
        }
        prop_assert_eq!(
            self.store.global_norm().to_bits(),
            self.oracle.global_norm().to_bits(),
            "{}: global norm",
            what
        );
        Ok(())
    }
}

/// One operation: `(kind, store, other store, parameter, value seed)`.
type Op = (usize, usize, usize, usize, u64);

fn apply(twins: &mut [Twin], ids: &[ParamId], rows: usize, cols: usize, op: Op) -> String {
    let (kind, a, b, p, seed) = op;
    let mut rng = TensorRng::seed(seed);
    let t = &mut twins[a];
    match kind {
        // Scatter into the table: repeats, row 0 and the last row included.
        0..=2 => {
            let n = 1 + rng.below(6);
            let indices: Vec<usize> = (0..n)
                .map(|_| match rng.below(4) {
                    0 => 0,
                    1 => rows - 1,
                    _ => rng.below(rows),
                })
                .collect();
            let updates = Tensor::rand_uniform(&[n, cols], -1.0, 1.0, &mut rng);
            t.store.scatter_add_rows(ids[0], &indices, &updates);
            t.oracle.0[0].scatter_add_rows(&indices, &updates);
            format!("scatter {indices:?} into store {a}")
        }
        // Dense writes, on the table as readily as on the dense parameters.
        3 => {
            let delta = Tensor::rand_uniform(t.oracle.0[p].shape(), -1.0, 1.0, &mut rng);
            t.store.accumulate(ids[p], &delta);
            t.oracle.0[p].add_assign(&delta);
            format!("accumulate into parameter {p} of store {a}")
        }
        4 => {
            let at = rng.below(t.oracle.0[p].len());
            let v = rng.uniform(-1.0, 1.0);
            t.store.get_mut(ids[p]).data_mut()[at] += v;
            t.oracle.0[p].data_mut()[at] += v;
            format!("get_mut write to parameter {p} of store {a}")
        }
        5 => {
            let s = rng.uniform(0.1, 2.0);
            t.store.scale(s);
            t.oracle.scale(s);
            format!("scale store {a} by {s}")
        }
        // Merges in every direction: sparse ← dense, dense ← sparse,
        // compact → primary, primary → compact.
        6 | 7 if a != b => {
            let (lo, hi) = twins.split_at_mut(a.max(b));
            let (dst, src) = if a < b {
                (&mut lo[a], &hi[0])
            } else {
                (&mut hi[0], &lo[b])
            };
            dst.store.add_from(&src.store);
            dst.oracle.add_from(&src.oracle);
            format!("add store {b} into store {a}")
        }
        // Clip active (tiny bound) and inactive (huge bound).
        8 | 9 => {
            let clip = if kind == 8 { 1e-2 } else { 1e6 };
            let sgd = Sgd::new(0.3).with_clip_norm(clip);
            sgd.step(&mut t.params, &mut t.store);
            t.oracle.sgd_step(&sgd, &mut t.oracle_params, ids);
            format!("Sgd::step on store {a}, clip {clip}")
        }
        10 => {
            t.store.zero();
            t.oracle.zero();
            format!("zero store {a}")
        }
        _ => "no-op".to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn row_sparse_store_matches_the_dense_sweep(
        rows in 1usize..150,
        cols in 1usize..5,
        ops in proptest::collection::vec(
            (0usize..11, 0usize..3, 0usize..3, 0usize..3, 0u64..u64::MAX),
            1..40,
        ),
    ) {
        let (_, ids) = build_params(rows, cols);
        let mut twins = [
            Twin::new(rows, cols, false),
            Twin::new(rows, cols, false),
            Twin::new(rows, cols, true),
        ];
        for round in 0..2 {
            for &op in &ops {
                let what = apply(&mut twins, &ids, rows, cols, op);
                for (i, t) in twins.iter().enumerate() {
                    t.check(&ids, &format!("round {round}, store {i} after {what}"))?;
                }
            }
            for t in &mut twins {
                t.store.zero();
                t.oracle.zero();
            }
        }
    }
}
