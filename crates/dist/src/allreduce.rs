//! Fixed-order tree all-reduce over replica gradient stores.
//!
//! The reduction schedule is a pure function of the replica index: round
//! with stride *s* combines replica `k + s` into replica `k` for every
//! `k ≡ 0 (mod 2s)`, doubling `s` each round until the full sum sits in
//! replica 0. Within a round the pairs touch disjoint stores, so they may
//! run concurrently on the tensor thread pool — but which thread executes a
//! pair can never change *what* is added to *what*, and each pairwise
//! [`GradStore::add_from`] sums element-by-element in buffer order. The
//! combined gradient is therefore bit-identical across runs and across
//! `--threads` settings.

use imre_nn::GradStore;
use imre_tensor::pool::par_map;
use std::sync::Mutex;

/// Reduces every store into `grads[0]` by fixed-order binary tree.
///
/// After the call `grads[0]` holds the element-wise sum of all inputs;
/// the other stores hold partial sums and must be zeroed before reuse.
///
/// The pair schedule for `n` replicas, in rounds:
/// `s=1: (0,1) (2,3) (4,5) …` → `s=2: (0,2) (4,6) …` → `s=4: (0,4) …`
/// Odd counts simply leave the unpaired tail store for a later round, so
/// any `n ≥ 1` reduces completely.
pub fn tree_all_reduce(grads: &mut [&mut GradStore]) {
    let n = grads.len();
    let mut stride = 1;
    while stride < n {
        // A block of `2·stride` stores holds one pair: its first store and
        // the one `stride` further on (absent from a short tail block).
        // Blocks are disjoint, so each task locks a block of its own.
        let pairs: Vec<Mutex<&mut [&mut GradStore]>> = grads
            .chunks_mut(2 * stride)
            .filter(|block| block.len() > stride)
            .map(Mutex::new)
            .collect();
        par_map(pairs.len(), |p| {
            let mut block = pairs[p].lock().expect("one task per pair");
            let (dst, src) = block.split_at_mut(stride);
            dst[0].add_from(src[0]);
        });
        stride *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imre_nn::ParamStore;
    use imre_tensor::Tensor;

    /// Integer-valued floats sum exactly, so the tree must match the plain
    /// element-wise total bit-for-bit here, at every replica count.
    #[test]
    fn tree_sums_exactly_for_integer_grads() {
        for n in 1..=9usize {
            let mut params = ParamStore::new();
            let ids = [params.zeros("p0", &[3]), params.zeros("p1", &[2, 2])];
            let mut stores: Vec<GradStore> = (0..n)
                .map(|r| {
                    let mut g = GradStore::zeros_like(&params);
                    for &pid in &ids {
                        let shape = params.get(pid).shape().to_vec();
                        let len: usize = shape.iter().product();
                        let vals: Vec<f32> = (0..len).map(|j| (r * 10 + j) as f32).collect();
                        g.accumulate(pid, &Tensor::from_vec(vals, &shape));
                    }
                    g
                })
                .collect();
            let mut refs: Vec<&mut GradStore> = stores.iter_mut().collect();
            tree_all_reduce(&mut refs);
            for &pid in &ids {
                let len = params.get(pid).shape().iter().product::<usize>();
                let want: Vec<f32> = (0..len)
                    .map(|j| (0..n).map(|r| (r * 10 + j) as f32).sum())
                    .collect();
                assert_eq!(stores[0].get(pid).data(), &want[..], "n={n}");
            }
        }
    }
}
