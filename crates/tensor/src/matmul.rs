//! Matrix multiplication kernels, row-parallel on the [`crate::pool`] backend
//! and SIMD-dispatched through [`crate::simd`].
//!
//! Each output row is produced by [`simd::rows_times_mat`] (one
//! register-blocked tile body, at `[f32; 8]`, AVX2 or AVX-512 lanes) for the `nn`/`tn` forms,
//! or by the fixed-lane [`simd::dot`] for the `nt`/`matvec` dot forms. All
//! backends perform the same IEEE ops per output element in the same order,
//! so backend choice never changes the bits (see `simd` module docs).
//!
//! Parallel kernels split the *output* into row ranges whose bounds depend
//! only on the problem shape, and every output element is accumulated by one
//! task in the same ascending-`l` order the sequential kernel uses — so
//! results are bit-identical at any thread count (see `pool` module docs).

use crate::pool;
use crate::simd;
use crate::Tensor;

/// Target multiply-adds per parallel task. Sized so a chunk costs ≫ the
/// pool's per-call overhead (≈ 650 ns for a 64-task `ThreadPool::run` on
/// the 2-vCPU reference box) *at the SIMD kernel's speed*: at ~55 GFLOP/s an
/// 8 Mi-MAC chunk runs for ~300 µs, making dispatch and scheduler noise
/// < 1% even when workers timeshare a small box. Everything below the
/// grain (a 256-token `Conv1d`, every matmul in a smoke-scale PCNN step)
/// runs inline. Derived from shape only — never from the thread count — so
/// the partition is identical no matter how many workers execute it.
const GRAIN_MACS: usize = 8 * 1024 * 1024;

/// Rows per task for an `m × n`-output kernel with `k`-deep reductions.
#[inline]
fn row_grain(k: usize, n: usize) -> usize {
    (GRAIN_MACS / (k * n).max(1)).max(1)
}

impl Tensor {
    /// Matrix product `self · other` for rank-2 tensors.
    ///
    /// # Panics
    /// If either operand is not rank-2 or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "Tensor::matmul: inner dimension mismatch {:?} · {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(&[m, n]);
        matmul_into(self.data(), other.data(), out.data_mut(), m, k, n);
        out
    }

    /// `selfᵀ · other` without materialising the transpose.
    ///
    /// `self` is `[k, m]`, `other` is `[k, n]`, result is `[m, n]`.
    ///
    /// # Panics
    /// If shapes disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "Tensor::matmul_tn: leading dimension mismatch {:?}ᵀ · {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(&[m, n]);
        matmul_tn_into(self.data(), other.data(), out.data_mut(), m, k, n);
        out
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// `self` is `[m, k]`, `other` is `[n, k]`, result is `[m, n]`.
    ///
    /// # Panics
    /// If shapes disagree.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(
            k,
            k2,
            "Tensor::matmul_nt: trailing dimension mismatch {:?} · {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(&[m, n]);
        matmul_nt_into(self.data(), other.data(), out.data_mut(), m, k, n);
        out
    }

    /// Matrix–vector product: `self` is `[m, k]`, `v` has `k` elements;
    /// the result has `m` elements (rank 1).
    ///
    /// # Panics
    /// If shapes disagree.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        assert_eq!(
            v.len(),
            k,
            "Tensor::matvec: {:?} · vec of len {}",
            self.shape(),
            v.len()
        );
        let a = self.data();
        let x = v.data();
        let be = simd::backend();
        simd::note(be);
        let mut out = Tensor::zeros(&[m]);
        pool::for_rows(out.data_mut(), m, 1, row_grain(k, 1), |lo, hi, shard| {
            for (s, i) in shard.iter_mut().zip(lo..hi) {
                *s = simd::dot(be, &a[i * k..(i + 1) * k], x);
            }
        });
        out
    }

    /// Matrix–vector product written into a pre-shaped `[m]` destination;
    /// same partition and dot kernel as [`Tensor::matvec`] — bit-identical.
    pub fn matvec_into(&self, v: &Tensor, out: &mut Tensor) {
        let (m, k) = (self.rows(), self.cols());
        assert_eq!(
            v.len(),
            k,
            "Tensor::matvec_into: {:?} · vec of len {}",
            self.shape(),
            v.len()
        );
        assert_eq!(
            out.shape(),
            [m],
            "Tensor::matvec_into: destination shape {:?} for {m} rows",
            out.shape()
        );
        let a = self.data();
        let x = v.data();
        let be = simd::backend();
        simd::note(be);
        pool::for_rows(out.data_mut(), m, 1, row_grain(k, 1), |lo, hi, shard| {
            for (s, i) in shard.iter_mut().zip(lo..hi) {
                *s = simd::dot(be, &a[i * k..(i + 1) * k], x);
            }
        });
    }

    /// Outer product of two rank-1 tensors: result is `[self.len(), other.len()]`.
    pub fn outer(&self, other: &Tensor) -> Tensor {
        let (m, n) = (self.len(), other.len());
        let mut out = Tensor::zeros(&[m, n]);
        let o = out.data_mut();
        for (i, &a) in self.data().iter().enumerate() {
            let row = &mut o[i * n..(i + 1) * n];
            for (r, &b) in row.iter_mut().zip(other.data()) {
                *r = a * b;
            }
        }
        out
    }
}

/// Writes `a · b` into `out` where `a` is `[m, k]`, `b` is `[k, n]`.
///
/// Exposed for `imre-nn`'s fused kernels. Parallel over output-row ranges;
/// each range is one [`simd::rows_times_mat`] call (four output rows per
/// register tile on the vector backends) accumulating every element in
/// ascending-`l` order, so backend and threading both leave the float
/// result bit-identical to the naive triple loop.
///
/// # Panics
/// If a slice length disagrees with `m`, `k` and `n` — in every profile,
/// since the vector kernels index the slices through raw pointers.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_into: a is not {m}×{k}");
    assert_eq!(b.len(), k * n, "matmul_into: b is not {k}×{n}");
    assert_eq!(out.len(), m * n, "matmul_into: out is not {m}×{n}");
    let be = simd::backend();
    simd::note(be);
    pool::for_rows(out, m, n, row_grain(k, n), |lo, hi, shard| {
        simd::rows_times_mat(be, a, lo * k, k, 1, hi - lo, k, b, n, shard);
    });
}

/// Writes `aᵀ · b` into `out` where `a` is `[k, m]`, `b` is `[k, n]`.
///
/// Parallel over ranges of output rows — i.e. over *columns* of `a`. Row `i`
/// of the output walks column `i` of `a` (stride `m`) through the same
/// multi-row microkernel, so every `out[i][j]` accumulates in exactly the
/// ascending-`l` order the sequential rank-1-update sweep uses.
///
/// # Panics
/// As [`matmul_into`].
pub fn matmul_tn_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "matmul_tn_into: a is not {k}×{m}");
    assert_eq!(b.len(), k * n, "matmul_tn_into: b is not {k}×{n}");
    assert_eq!(out.len(), m * n, "matmul_tn_into: out is not {m}×{n}");
    let be = simd::backend();
    simd::note(be);
    pool::for_rows(out, m, n, row_grain(k, n), |lo, hi, shard| {
        simd::rows_times_mat(be, a, lo, 1, m, hi - lo, k, b, n, shard);
    });
}

/// Writes `a · bᵀ` into `out` where `a` is `[m, k]`, `b` is `[n, k]`.
///
/// Parallel over output-row ranges; each element is one independent
/// fixed-lane [`simd::dot`], so partitioning cannot change results.
///
/// # Panics
/// As [`matmul_into`].
pub fn matmul_nt_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_nt_into: a is not {m}×{k}");
    assert_eq!(b.len(), n * k, "matmul_nt_into: b is not {n}×{k}");
    assert_eq!(out.len(), m * n, "matmul_nt_into: out is not {m}×{n}");
    let be = simd::backend();
    simd::note(be);
    pool::for_rows(out, m, n, row_grain(k, n), |lo, hi, shard| {
        for i in lo..hi {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut shard[(i - lo) * n..(i - lo + 1) * n];
            for (j, oj) in orow.iter_mut().enumerate() {
                *oj = simd::dot(be, arow, &b[j * k..(j + 1) * k]);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::simd::Backend;

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        assert_eq!(a.matmul(&Tensor::eye(4)).data(), a.data());
        assert_eq!(Tensor::eye(3).matmul(&a).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_mismatch_panics() {
        let _ = Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }

    /// The `*_into` entry points check slice lengths in release too: the
    /// row kernels behind them index through raw pointers.
    #[test]
    #[should_panic(expected = "matmul_into: a is not 4×180")]
    fn matmul_into_short_a_panics() {
        let mut out = [0.0; 4 * 32];
        matmul_into(&[1.0; 8], &[1.0; 180 * 32], &mut out, 4, 180, 32);
    }

    #[test]
    #[should_panic(expected = "matmul_into: b is not 180×32")]
    fn matmul_into_short_b_panics() {
        let mut out = [0.0; 4 * 32];
        matmul_into(&[1.0; 4 * 180], &[1.0; 16], &mut out, 4, 180, 32);
    }

    #[test]
    #[should_panic(expected = "matmul_into: out is not 4×32")]
    fn matmul_into_short_out_panics() {
        let mut out = [0.0; 4 * 32 - 1];
        matmul_into(&[1.0; 4 * 180], &[1.0; 180 * 32], &mut out, 4, 180, 32);
    }

    #[test]
    #[should_panic(expected = "matmul_tn_into: a is not 180×4")]
    fn matmul_tn_into_short_a_panics() {
        let mut out = [0.0; 4 * 32];
        matmul_tn_into(&[1.0; 8], &[1.0; 180 * 32], &mut out, 4, 180, 32);
    }

    #[test]
    #[should_panic(expected = "matmul_tn_into: b is not 180×32")]
    fn matmul_tn_into_short_b_panics() {
        let mut out = [0.0; 4 * 32];
        matmul_tn_into(&[1.0; 180 * 4], &[1.0; 16], &mut out, 4, 180, 32);
    }

    #[test]
    #[should_panic(expected = "matmul_tn_into: out is not 4×32")]
    fn matmul_tn_into_short_out_panics() {
        let mut out = [0.0; 8];
        matmul_tn_into(&[1.0; 180 * 4], &[1.0; 180 * 32], &mut out, 4, 180, 32);
    }

    #[test]
    #[should_panic(expected = "matmul_nt_into: b is not 32×180")]
    fn matmul_nt_into_short_b_panics() {
        let mut out = [0.0; 4 * 32];
        matmul_nt_into(&[1.0; 4 * 180], &[1.0; 16], &mut out, 4, 180, 32);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32 * 0.5).collect(), &[3, 2]);
        let b = Tensor::from_vec((0..12).map(|i| i as f32 - 4.0).collect(), &[3, 4]);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert_close(fast.data(), slow.data(), 1e-5);
        assert_eq!(fast.shape(), &[2, 4]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[2, 4]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32).sin()).collect(), &[3, 4]);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert_close(fast.data(), slow.data(), 1e-5);
        assert_eq!(fast.shape(), &[2, 3]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let v = Tensor::from_vec(vec![1.0, 0.5, -1.0], &[3]);
        let fast = a.matvec(&v);
        let slow = a.matmul(&Tensor::from_vec(v.data().to_vec(), &[3, 1]));
        assert_close(fast.data(), slow.data(), 1e-6);
        assert_eq!(fast.shape(), &[2]);
    }

    #[test]
    fn outer_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]);
        let o = a.outer(&b);
        assert_eq!(o.shape(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn matmul_associativity_approx() {
        let a = Tensor::from_vec((0..4).map(|i| i as f32 * 0.1).collect(), &[2, 2]);
        let b = Tensor::from_vec((0..4).map(|i| 1.0 - i as f32 * 0.2).collect(), &[2, 2]);
        let c = Tensor::from_vec((0..4).map(|i| (i as f32).exp() * 0.01).collect(), &[2, 2]);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert_close(left.data(), right.data(), 1e-5);
    }

    /// Large enough to cross the parallel grain (`k·n` = 90 000 MACs/row ⇒
    /// ~93-row chunks): results must be bitwise equal across pool sizes
    /// (the core determinism contract).
    #[test]
    fn matmul_bit_identical_across_pool_sizes() {
        let mut rng = crate::TensorRng::seed(42);
        let a = Tensor::rand_uniform(&[130, 300], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[300, 300], -1.0, 1.0, &mut rng);
        let bt = b.transpose();
        let at = a.transpose();
        let p1 = crate::pool::ThreadPool::new(1);
        let p4 = crate::pool::ThreadPool::new(4);
        let run = |p: &crate::pool::ThreadPool| {
            crate::pool::with_pool(p, || {
                (
                    a.matmul(&b),
                    at.matmul_tn(&b),
                    a.matmul_nt(&bt),
                    a.matvec(&bt.row_tensor(0)),
                )
            })
        };
        let (c1, tn1, nt1, mv1) = run(&p1);
        let (c4, tn4, nt4, mv4) = run(&p4);
        assert_eq!(c1.data(), c4.data());
        assert_eq!(tn1.data(), tn4.data());
        assert_eq!(nt1.data(), nt4.data());
        assert_eq!(mv1.data(), mv4.data());
    }

    /// Backend choice must not change a single bit of any matmul variant.
    #[test]
    fn matmul_variants_bit_identical_across_backends() {
        let mut rng = crate::TensorRng::seed(7);
        let a = Tensor::rand_uniform(&[33, 70], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[70, 53], -2.0, 2.0, &mut rng);
        let bt = b.transpose();
        let at = a.transpose();
        let run = |be: Backend| {
            crate::simd::with_backend(be, || {
                (
                    a.matmul(&b),
                    at.matmul_tn(&b),
                    a.matmul_nt(&bt),
                    a.matvec(&bt.row_tensor(0)),
                )
            })
        };
        let (c_s, tn_s, nt_s, mv_s) = run(Backend::Scalar);
        for be in [Backend::Avx2, Backend::Avx512] {
            let (c, tn, nt, mv) = run(be);
            assert_eq!(c_s.data(), c.data(), "matmul vs {}", be.name());
            assert_eq!(tn_s.data(), tn.data(), "matmul_tn vs {}", be.name());
            assert_eq!(nt_s.data(), nt.data(), "matmul_nt vs {}", be.name());
            assert_eq!(mv_s.data(), mv.data(), "matvec vs {}", be.name());
        }
    }

    /// Grain sizing: a sub-grain matmul must take the inline fast path on a
    /// multi-thread pool, and a super-grain one must dispatch to workers.
    #[test]
    fn grain_sizing_inline_vs_dispatch() {
        let p4 = crate::pool::ThreadPool::new(4);
        crate::pool::with_pool(&p4, || {
            let mut rng = crate::TensorRng::seed(3);
            let small_a = Tensor::rand_uniform(&[64, 64], -1.0, 1.0, &mut rng);
            let small_b = Tensor::rand_uniform(&[64, 64], -1.0, 1.0, &mut rng);
            let before = p4.dispatched_jobs();
            let _ = small_a.matmul(&small_b); // 64·64 MACs/row ⇒ grain ≫ 64 rows
            assert_eq!(
                p4.dispatched_jobs(),
                before,
                "sub-grain matmul must stay inline"
            );
            let big_a = Tensor::rand_uniform(&[64, 512], -1.0, 1.0, &mut rng);
            let big_b = Tensor::rand_uniform(&[512, 512], -1.0, 1.0, &mut rng);
            let _ = big_a.matmul(&big_b); // 512·512 MACs/row ⇒ 32-row chunks
            assert!(
                p4.dispatched_jobs() > before,
                "super-grain matmul must dispatch to the pool"
            );
        });
    }
}
