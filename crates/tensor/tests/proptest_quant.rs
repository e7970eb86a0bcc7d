//! Bit-identity of the int8 quantized kernels across SIMD backends and
//! thread counts.
//!
//! The quantized path's determinism story is stronger than the f32
//! kernels': the i8×i8→i32 inner product is *exact* integer arithmetic, so
//! every summation order yields the same `i32`, and the single shared f32
//! dequant epilogue then yields the same bits on every backend. These
//! properties pin that down empirically: random matrices and activations,
//! every backend (`IMRE_FORCE_SCALAR=1` in CI re-runs the whole file with
//! the scalar fallback pinned), at 1 and 4 pool threads. The GEMM form,
//! whose VNNI tier has its own epilogue, is held to per-row `qmatvec` over
//! every tile and tail shape.

use imre_tensor::pool::{self, ThreadPool};
use imre_tensor::quant::{self, QuantPack, QuantRowParams, QuantTensor};
use imre_tensor::simd::{self, Backend};
use imre_tensor::{Tensor, TensorRng};
use proptest::prelude::*;

fn matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-8.0f32..8.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]))
    })
}

/// Quantizes `x`'s single row and runs `qmatvec` under the given backend.
fn qmatvec_under(
    be: Backend,
    w: &QuantTensor,
    qx: &[i8],
    p: QuantRowParams,
    bias: &[f32],
) -> Vec<u32> {
    simd::with_backend(be, || {
        let mut out = vec![0f32; w.rows()];
        quant::qmatvec_into(w, qx, p, Some(bias), &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    })
}

fn gather_under(be: Backend, w: &QuantTensor, ids: &[usize]) -> Vec<u32> {
    simd::with_backend(be, || {
        let mut out = vec![0f32; ids.len() * w.cols()];
        quant::gather_dequant_into(w, ids, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    })
}

/// Runs `f` single-threaded and on a 4-worker pool; asserts identical bits.
fn at_both_thread_counts(mut f: impl FnMut() -> Vec<u32>) -> Vec<u32> {
    let t1 = pool::with_pool(&ThreadPool::new(1), &mut f);
    let t4 = pool::with_pool(&ThreadPool::new(4), &mut f);
    assert_eq!(t1, t4, "thread count changed the quantized bits");
    t1
}

/// A `[n, k]` bank, its pack, and `m` activation rows quantized one by one.
struct Gemm {
    w: QuantTensor,
    pack: QuantPack,
    act: Vec<i8>,
    params: Vec<QuantRowParams>,
    bias: Option<Vec<f32>>,
}

impl Gemm {
    fn random(m: usize, n: usize, k: usize, with_bias: bool, seed: u64) -> Gemm {
        let mut rng = TensorRng::seed(seed);
        let w = QuantTensor::quantize(&Tensor::rand_uniform(&[n, k], -8.0, 8.0, &mut rng));
        let mut x = Tensor::rand_uniform(&[m, k], -8.0, 8.0, &mut rng);
        // A zero-padded window at the sentence start, as the conv sees it.
        x.data_mut()[..k.div_ceil(3)].fill(0.0);
        let mut act = vec![0i8; m * k];
        let params = x
            .data()
            .chunks_exact(k)
            .zip(act.chunks_exact_mut(k))
            .map(|(row, q)| quant::quantize_row_into(row, q))
            .collect();
        let bias = with_bias.then(|| (0..n).map(|i| i as f32 * 0.013 - 0.4).collect());
        Gemm {
            pack: QuantPack::new(&w),
            w,
            act,
            params,
            bias,
        }
    }

    /// `qgemm_into` under `be`, its `out` cut exactly from a NaN-padded
    /// buffer; asserts the pad on both sides survived.
    fn qgemm_under(&self, be: Backend) -> Vec<u32> {
        let (len, pad) = (self.params.len() * self.w.rows(), 16);
        let mut buf = vec![f32::NAN; pad + len + pad];
        simd::with_backend(be, || {
            quant::qgemm_into(
                &self.w,
                &self.pack,
                &self.act,
                &self.params,
                self.bias.as_deref(),
                &mut buf[pad..pad + len],
            )
        });
        let (head, rest) = buf.split_at(pad);
        let (out, tail) = rest.split_at(len);
        for v in head.iter().chain(tail) {
            assert_eq!(v.to_bits(), f32::NAN.to_bits(), "{be:?} wrote past out");
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// The oracle: `qmatvec_into` on each activation row under `be`.
    fn qmatvec_rows_under(&self, be: Backend) -> Vec<u32> {
        let (k, n) = (self.w.cols(), self.w.rows());
        let mut out = vec![0f32; self.params.len() * n];
        simd::with_backend(be, || {
            for (i, &p) in self.params.iter().enumerate() {
                let act = &self.act[i * k..(i + 1) * k];
                let row = &mut out[i * n..(i + 1) * n];
                quant::qmatvec_into(&self.w, act, p, self.bias.as_deref(), row);
            }
        });
        out.iter().map(|v| v.to_bits()).collect()
    }
}

/// `qgemm_into` against per-row `qmatvec_into`, bit for bit, on every
/// tier and at 1 and 4 threads, over every shape edge of the kernel:
/// 1–9 activation rows (the 4-row strips and their 1–3 remainder) and 65
/// (one sentence); 1–17 filters (every 16-lane tail) plus the served 53
/// and 230; widths on both sides of the pad-to-4, and the served 180 and
/// 690.
#[test]
fn qgemm_bit_identical_to_per_row_qmatvec_across_backends_and_threads() {
    let rows = (1..=9).chain([65]);
    let filters: Vec<usize> = (1..=17).chain([53, 230]).collect();
    let mut seed = 0;
    for m in rows {
        for &n in &filters {
            for k in [1, 3, 4, 5, 180, 690] {
                seed += 1;
                let g = Gemm::random(m, n, k, seed % 2 == 0, seed);
                let want = g.qmatvec_rows_under(Backend::Scalar);
                for be in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
                    let got = at_both_thread_counts(|| g.qgemm_under(be));
                    assert_eq!(got, want, "{be:?} qgemm diverged at m={m} n={n} k={k}");
                    let rows = g.qmatvec_rows_under(be);
                    assert_eq!(rows, want, "{be:?} qmatvec diverged at m={m} n={n} k={k}");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "qgemm_into: act of len 9 is not 2 rows")]
fn qgemm_into_short_act_panics() {
    let g = Gemm::random(2, 3, 5, true, 1);
    let mut out = vec![0f32; 6];
    quant::qgemm_into(&g.w, &g.pack, &g.act[..9], &g.params, None, &mut out);
}

#[test]
#[should_panic(expected = "qgemm_into: act of len 10 is not 1 rows")]
fn qgemm_into_short_params_panics() {
    let g = Gemm::random(2, 3, 5, true, 1);
    let mut out = vec![0f32; 3];
    quant::qgemm_into(&g.w, &g.pack, &g.act, &g.params[..1], None, &mut out);
}

#[test]
#[should_panic(expected = "qgemm_into: bias of len 2 for 3 rows")]
fn qgemm_into_short_bias_panics() {
    let g = Gemm::random(2, 3, 5, true, 1);
    let mut out = vec![0f32; 6];
    let bias = &g.bias.as_deref().unwrap()[..2];
    quant::qgemm_into(&g.w, &g.pack, &g.act, &g.params, Some(bias), &mut out);
}

#[test]
#[should_panic(expected = "qgemm_into: out of len 5 for 2 rows of 3")]
fn qgemm_into_short_out_panics() {
    let g = Gemm::random(2, 3, 5, true, 1);
    let mut out = vec![0f32; 5];
    quant::qgemm_into(&g.w, &g.pack, &g.act, &g.params, None, &mut out);
}

#[test]
#[should_panic(expected = "qgemm_into: pack of [4, 5] for a [3, 5] bank")]
fn qgemm_into_foreign_pack_panics() {
    let g = Gemm::random(2, 3, 5, true, 1);
    let other = Gemm::random(2, 4, 5, true, 2);
    let mut out = vec![0f32; 6];
    quant::qgemm_into(&g.w, &other.pack, &g.act, &g.params, None, &mut out);
}

proptest! {
    #[test]
    fn qmatvec_bit_identical_across_backends_and_threads(
        w in matrix(12, 140),
        xs in proptest::collection::vec(-8.0f32..8.0, 140),
    ) {
        let cols = w.shape()[1];
        let rows = w.shape()[0];
        let qw = QuantTensor::quantize(&w);
        let mut qx = vec![0i8; cols];
        let p = quant::quantize_row_into(&xs[..cols], &mut qx);
        let bias: Vec<f32> = (0..rows).map(|i| i as f32 * 0.017 - 0.1).collect();
        let scalar = at_both_thread_counts(|| qmatvec_under(Backend::Scalar, &qw, &qx, p, &bias));
        for be in [Backend::Avx2, Backend::Avx512] {
            let got = at_both_thread_counts(|| qmatvec_under(be, &qw, &qx, p, &bias));
            prop_assert_eq!(&scalar, &got, "{:?} diverged from scalar", be);
        }
    }

    #[test]
    fn gather_dequant_bit_identical_across_backends_and_threads(
        w in matrix(20, 70),
        picks in proptest::collection::vec(0usize..1000, 1..12),
    ) {
        let rows = w.shape()[0];
        let qw = QuantTensor::quantize(&w);
        let ids: Vec<usize> = picks.iter().map(|&p| p % rows).collect();
        let scalar = at_both_thread_counts(|| gather_under(Backend::Scalar, &qw, &ids));
        for be in [Backend::Avx2, Backend::Avx512] {
            let got = at_both_thread_counts(|| gather_under(be, &qw, &ids));
            prop_assert_eq!(&scalar, &got, "{:?} diverged from scalar", be);
        }
    }

    #[test]
    fn quantize_row_bit_identical_across_backends(
        xs in proptest::collection::vec(-50.0f32..50.0, 1..200),
    ) {
        let mut q_scalar = vec![0i8; xs.len()];
        let p_scalar = simd::with_backend(Backend::Scalar, || {
            quant::quantize_row_into(&xs, &mut q_scalar)
        });
        for be in [Backend::Avx2, Backend::Avx512] {
            let mut q = vec![0i8; xs.len()];
            let p = simd::with_backend(be, || quant::quantize_row_into(&xs, &mut q));
            prop_assert_eq!(&q_scalar, &q, "{:?} payload diverged from scalar", be);
            prop_assert_eq!(p_scalar.scale.to_bits(), p.scale.to_bits());
            prop_assert_eq!(p_scalar.zero_point, p.zero_point);
            prop_assert_eq!(p_scalar.sum, p.sum);
        }
    }

    #[test]
    fn quantize_row_round_trip_error_within_half_step(
        xs in proptest::collection::vec(-50.0f32..50.0, 1..200),
    ) {
        let mut q = vec![0i8; xs.len()];
        let p = quant::quantize_row_into(&xs, &mut q);
        prop_assert!(p.scale > 0.0 && p.scale.is_finite());
        let sum: i32 = q.iter().map(|&v| v as i32).sum();
        prop_assert_eq!(sum, p.sum, "stored row sum must match the payload");
        for (&x, &qi) in xs.iter().zip(&q) {
            let deq = (qi as f32 - p.zero_point as f32) * p.scale;
            prop_assert!(
                (x - deq).abs() <= p.scale * 0.5 + 1e-5,
                "{} -> {} (scale {})", x, deq, p.scale
            );
        }
    }

    #[test]
    fn row_sums_always_match_payload(w in matrix(10, 64)) {
        let q = QuantTensor::quantize(&w);
        for r in 0..q.rows() {
            let sum: i32 = q.data()[r * q.cols()..(r + 1) * q.cols()]
                .iter()
                .map(|&v| v as i32)
                .sum();
            prop_assert_eq!(sum, q.row_sums()[r]);
        }
    }
}
