//! Bit-identity of the destination-passing (`_into`) kernels against their
//! allocating counterparts.
//!
//! The zero-allocation hot path rests on one contract: writing into a
//! recycled pool buffer produces **exactly** the same bits as allocating a
//! fresh zeroed tensor. Every property here exercises an `_into` kernel with
//! a destination drawn from a deliberately dirtied [`BufferPool`] (the pool
//! re-zeroes on alloc) and with a plain poisoned buffer that the kernel must
//! fully overwrite, at one and several worker threads.
//!
//! The second block extends the contract across SIMD backends: every kernel
//! must produce the same bits under the scalar fallback and under each
//! vector backend, again at 1 and 4 threads with pool-poisoned
//! destinations. (On hardware without a given instruction set the request
//! clamps to the best available, so the comparison degrades gracefully.)

use imre_tensor::pool::{self, ThreadPool};
use imre_tensor::simd::{self, Backend};
use imre_tensor::{BufferPool, Tensor};
use proptest::prelude::*;

fn matrix(max_side: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_side, 1..=max_side).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]))
    })
}

fn vector(max_len: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_len).prop_flat_map(|n| {
        proptest::collection::vec(-10.0f32..10.0, n)
            .prop_map(move |data| Tensor::from_vec(data, &[n]))
    })
}

/// A pool whose free lists hold poisoned buffers covering `shapes`, so the
/// next `alloc` of any of those shapes is a *hit* on dirty memory.
fn dirty_pool(shapes: &[&[usize]]) -> BufferPool {
    let mut pool = BufferPool::new();
    for shape in shapes {
        let mut t = pool.alloc(shape);
        t.data_mut().iter_mut().for_each(|v| *v = f32::NAN);
        pool.recycle(t);
    }
    pool
}

/// Runs `f` single-threaded and with a 4-worker pool; asserts both runs
/// produce identical bits and returns the single-threaded result.
fn at_both_thread_counts(mut f: impl FnMut() -> Tensor) -> Tensor {
    let t1 = pool::with_pool(&ThreadPool::new(1), &mut f);
    let t4 = pool::with_pool(&ThreadPool::new(4), &mut f);
    assert_eq!(t1.data(), t4.data(), "thread count changed the bits");
    t1
}

proptest! {
    #[test]
    fn elementwise_into_bitwise_matches(m in matrix(8)) {
        let other = m.map(|x| (x * 0.7 + 1.3).sin() + 0.5);
        type BinOp = fn(&Tensor, &Tensor) -> Tensor;
        type BinInto = fn(&Tensor, &Tensor, &mut Tensor);
        let cases: [(BinOp, BinInto); 4] = [
            (Tensor::add, Tensor::add_into),
            (Tensor::sub, Tensor::sub_into),
            (Tensor::mul, Tensor::mul_into),
            (Tensor::div, Tensor::div_into),
        ];
        for (alloc_op, into_op) in cases {
            let expect = at_both_thread_counts(|| alloc_op(&m, &other));
            let mut pool = dirty_pool(&[m.shape()]);
            let got = at_both_thread_counts(|| {
                let mut out = pool.alloc(m.shape());
                into_op(&m, &other, &mut out);
                let r = out.clone();
                pool.recycle(out);
                r
            });
            prop_assert_eq!(expect.data(), got.data());
        }
    }

    #[test]
    fn unary_into_bitwise_matches(m in matrix(8), s in -4.0f32..4.0) {
        let mut pool = dirty_pool(&[m.shape()]);
        let mut check = |expect: Tensor, into_op: &dyn Fn(&Tensor, &mut Tensor)| {
            let mut out = pool.alloc(m.shape());
            into_op(&m, &mut out);
            assert_eq!(expect.data(), out.data());
            pool.recycle(out);
        };
        check(m.scale(s), &|t, out| t.scale_into(s, out));
        check(m.tanh(), &|t, out| t.tanh_into(out));
        check(m.sigmoid(), &|t, out| t.sigmoid_into(out));
        check(m.map(|x| x * 2.0 - 1.0), &|t, out| t.map_into(out, |x| x * 2.0 - 1.0));
    }

    #[test]
    fn row_broadcast_into_bitwise_matches(m in matrix(8), seed in 0u64..1000) {
        let mut rng = imre_tensor::TensorRng::seed(seed);
        let bias = Tensor::rand_uniform(&[m.cols()], -2.0, 2.0, &mut rng);
        let expect_add = at_both_thread_counts(|| m.add_row_broadcast(&bias));
        let expect_mul = at_both_thread_counts(|| m.mul_row_broadcast(&bias));
        let mut pool = dirty_pool(&[m.shape(), m.shape()]);
        let got = at_both_thread_counts(|| {
            let mut a = pool.alloc(m.shape());
            m.add_row_broadcast_into(&bias, &mut a);
            let mut b = pool.alloc(m.shape());
            m.mul_row_broadcast_into(&bias, &mut b);
            let r = Tensor::concat(&[&a.flatten(), &b.flatten()]);
            pool.recycle(a);
            pool.recycle(b);
            r
        });
        prop_assert_eq!(&got.data()[..m.len()], expect_add.data());
        prop_assert_eq!(&got.data()[m.len()..], expect_mul.data());
    }

    #[test]
    fn reductions_into_bitwise_match(m in matrix(9)) {
        let mut pool = dirty_pool(&[&[m.cols()], &[m.cols()]]);
        let mut sums = pool.alloc(&[m.cols()]);
        m.sum_rows_into(&mut sums);
        let expect_sums = m.sum_rows();
        prop_assert_eq!(expect_sums.data(), sums.data());
        let mut means = pool.alloc(&[m.cols()]);
        m.mean_rows_into(&mut means);
        let expect_means = m.mean_rows();
        prop_assert_eq!(expect_means.data(), means.data());
    }

    #[test]
    fn max_over_rows_into_bitwise_matches(m in matrix(9), cut in 0usize..9) {
        let lo = cut % m.rows();
        let mut vals = vec![f32::NAN; m.cols()];
        let mut idx = vec![u32::MAX; m.cols()];
        m.max_argmax_over_rows_into(lo, m.rows(), &mut vals, &mut idx);
        let mut out = vec![f32::NAN; m.cols()];
        m.max_over_rows_into(lo, m.rows(), &mut out);
        prop_assert_eq!(&vals, &out);
        for (c, &r) in idx.iter().enumerate() {
            // the argmax names the first row holding the max
            prop_assert_eq!(m.at(r as usize, c), out[c]);
            prop_assert!((lo..r as usize).all(|e| m.at(e, c) < out[c]));
        }
    }

    #[test]
    fn softmax_into_bitwise_matches(v in vector(24), m in matrix(8)) {
        let mut pool = dirty_pool(&[v.shape(), m.shape()]);
        let mut sv = pool.alloc(v.shape());
        v.softmax_into(&mut sv);
        let expect_sm = v.softmax();
        prop_assert_eq!(expect_sm.data(), sv.data());
        let expect_rows = at_both_thread_counts(|| m.softmax_rows());
        let got_rows = at_both_thread_counts(|| {
            let mut out = pool.alloc(m.shape());
            m.softmax_rows_into(&mut out);
            let r = out.clone();
            pool.recycle(out);
            r
        });
        prop_assert_eq!(expect_rows.data(), got_rows.data());
    }

    #[test]
    fn gather_rows_into_bitwise_matches(m in matrix(7), pick in proptest::collection::vec(0usize..7, 1..10)) {
        let idx: Vec<usize> = pick.into_iter().map(|i| i % m.rows()).collect();
        let expect = at_both_thread_counts(|| m.gather_rows(&idx));
        let mut pool = dirty_pool(&[&[idx.len(), m.cols()]]);
        let got = at_both_thread_counts(|| {
            let mut out = pool.alloc(&[idx.len(), m.cols()]);
            m.gather_rows_into(&idx, &mut out);
            let r = out.clone();
            pool.recycle(out);
            r
        });
        prop_assert_eq!(expect.data(), got.data());
    }

    #[test]
    fn matvec_into_bitwise_matches(m in matrix(9), seed in 0u64..1000) {
        let mut rng = imre_tensor::TensorRng::seed(seed);
        let v = Tensor::rand_uniform(&[m.cols()], -3.0, 3.0, &mut rng);
        let expect = at_both_thread_counts(|| m.matvec(&v));
        let mut pool = dirty_pool(&[&[m.rows()]]);
        let got = at_both_thread_counts(|| {
            let mut out = pool.alloc(&[m.rows()]);
            m.matvec_into(&v, &mut out);
            let r = out.clone();
            pool.recycle(out);
            r
        });
        prop_assert_eq!(expect.data(), got.data());
    }

    #[test]
    fn matmul_into_pooled_dest_bitwise_matches(a in matrix(7), seed in 0u64..1000) {
        // matmul_into accumulates: the pool's always-zeroed contract is what
        // makes a recycled destination equivalent to a fresh Tensor::zeros.
        let mut rng = imre_tensor::TensorRng::seed(seed);
        let b = Tensor::rand_uniform(&[a.cols(), 5], -1.0, 1.0, &mut rng);
        let expect = at_both_thread_counts(|| a.matmul(&b));
        let mut pool = dirty_pool(&[&[a.rows(), 5]]);
        let got = at_both_thread_counts(|| {
            let mut out = pool.alloc(&[a.rows(), 5]);
            imre_tensor::matmul_into(a.data(), b.data(), out.data_mut(), a.rows(), a.cols(), 5);
            let r = out.clone();
            pool.recycle(out);
            r
        });
        prop_assert_eq!(expect.data(), got.data());
    }

    #[test]
    fn pooled_alloc_never_leaks_previous_contents(shape_a in 1usize..200, shape_b in 1usize..200) {
        // Whatever sizes hit the pool in whatever order, alloc is all-zero.
        let mut pool = BufferPool::new();
        for &n in &[shape_a, shape_b, shape_a] {
            let mut t = pool.alloc(&[n]);
            prop_assert!(t.data().iter().all(|&x| x == 0.0));
            t.data_mut().iter_mut().for_each(|v| *v = 3.25);
            pool.recycle(t);
        }
    }
}

// ----------------------------------------------------------------------
// SIMD vs scalar bit-identity
// ----------------------------------------------------------------------

/// Runs `f` under the scalar backend and under each vector backend, each at
/// 1 and 4 pool threads; asserts every combination produces identical bits
/// and returns the scalar result.
fn across_backends_and_threads(mut f: impl FnMut() -> Tensor) -> Tensor {
    let reference = simd::with_backend(Backend::Scalar, || at_both_thread_counts(&mut f));
    for be in [Backend::Avx2, Backend::Avx512] {
        let got = simd::with_backend(be, || at_both_thread_counts(&mut f));
        assert_eq!(
            reference.data(),
            got.data(),
            "backend {} changed the bits",
            be.name()
        );
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Matmul family: `n` ranges past the 64-wide AVX-512 tile, the 48-wide
    // AVX2 tile, the 16/8-wide tails, and the scalar remainder; `matmul_into`
    // additionally accumulates into a pool-poisoned (re-zeroed) destination.
    #[test]
    fn matmul_family_bitwise_matches_across_backends(
        m in 1usize..12, k in 1usize..48, n in 1usize..140, seed in 0u64..1000
    ) {
        let mut rng = imre_tensor::TensorRng::seed(seed);
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        let at = a.transpose();
        let bt = b.transpose();
        let _ = across_backends_and_threads(|| a.matmul(&b));
        let _ = across_backends_and_threads(|| at.matmul_tn(&b));
        let _ = across_backends_and_threads(|| a.matmul_nt(&bt));
        let _ = across_backends_and_threads(|| a.matvec(&bt.row_tensor(0)));
        let mut pool = dirty_pool(&[&[m, n]]);
        let _ = across_backends_and_threads(|| {
            let mut out = pool.alloc(&[m, n]);
            imre_tensor::matmul_into(a.data(), b.data(), out.data_mut(), m, k, n);
            let r = out.clone();
            pool.recycle(out);
            r
        });
    }

    // Elementwise kernels: lengths cross the 8-lane width and its tail.
    #[test]
    fn elementwise_bitwise_matches_across_backends(
        len in 1usize..80, s in -3.0f32..3.0, seed in 0u64..1000
    ) {
        let mut rng = imre_tensor::TensorRng::seed(seed);
        let a = Tensor::rand_uniform(&[len], -5.0, 5.0, &mut rng);
        let b = Tensor::rand_uniform(&[len], -5.0, 5.0, &mut rng);
        let _ = across_backends_and_threads(|| a.add(&b));
        let _ = across_backends_and_threads(|| a.sub(&b));
        let _ = across_backends_and_threads(|| a.mul(&b));
        let _ = across_backends_and_threads(|| a.div(&b));
        let _ = across_backends_and_threads(|| a.scale(s));
        let _ = across_backends_and_threads(|| {
            let mut acc = a.clone();
            acc.add_assign(&b);
            acc.axpy(s, &b);
            acc
        });
    }

    // Softmax rows and broadcasts: per-row reductions use the fixed 8-lane
    // structure; widths cross the lane width and its tail.
    #[test]
    fn rowwise_bitwise_matches_across_backends(
        rows in 1usize..10, cols in 1usize..40, seed in 0u64..1000
    ) {
        let mut rng = imre_tensor::TensorRng::seed(seed);
        let m = Tensor::rand_uniform(&[rows, cols], -4.0, 4.0, &mut rng);
        let bias = Tensor::rand_uniform(&[cols], -2.0, 2.0, &mut rng);
        let _ = across_backends_and_threads(|| m.softmax_rows());
        let _ = across_backends_and_threads(|| m.add_row_broadcast(&bias));
        let _ = across_backends_and_threads(|| m.mul_row_broadcast(&bias));
        let mut pool = dirty_pool(&[m.shape()]);
        let _ = across_backends_and_threads(|| {
            let mut out = pool.alloc(m.shape());
            m.softmax_rows_into(&mut out);
            let r = out.clone();
            pool.recycle(out);
            r
        });
    }

    // Squared L2 runs `dot`'s 32-lane body: lengths 0..=70 put every tail
    // width against the 32 lanes, 690/691 are the kNN width and one past
    // it, and the offsets start both slices at every 4-byte misalignment
    // of a 32-byte vector. Each tier must give the scalar twin's bits, a
    // symmetric non-negative value close to the f64 sum, and exactly 0 on
    // equal slices.
    #[test]
    fn l2sq_bitwise_matches_across_backends(
        seed in 0u64..1000, off_a in 0usize..8, off_b in 0usize..8
    ) {
        let mut rng = imre_tensor::TensorRng::seed(seed);
        let buf_a = Tensor::rand_uniform(&[691 + 8], -5.0, 5.0, &mut rng);
        let buf_b = Tensor::rand_uniform(&[691 + 8], -5.0, 5.0, &mut rng);
        for len in (0..=70).chain([690, 691]) {
            let a = &buf_a.data()[off_a..off_a + len];
            let b = &buf_b.data()[off_b..off_b + len];
            let exact: f64 = a.iter().zip(b).map(|(&x, &y)| (x as f64 - y as f64).powi(2)).sum();
            let want = simd::with_backend(Backend::Scalar, || imre_tensor::l2sq(a, b));
            prop_assert!((want as f64 - exact).abs() <= 1e-5 * exact.max(1.0), "len={len}");
            for be in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
                let at = format!("{} len={len}", be.name());
                let (ab, ba, aa) = simd::with_backend(be, || {
                    (imre_tensor::l2sq(a, b), imre_tensor::l2sq(b, a), imre_tensor::l2sq(a, a))
                });
                prop_assert_eq!(ab.to_bits(), want.to_bits(), "{}", at);
                prop_assert_eq!(ba.to_bits(), ab.to_bits(), "{} symmetry", at);
                prop_assert!(ab >= 0.0, "{}", at);
                prop_assert_eq!(aa.to_bits(), 0.0f32.to_bits(), "{} self-distance", at);
            }
        }
    }
}

#[test]
#[should_panic(expected = "l2sq: slices of len 3 and 2")]
fn l2sq_length_mismatch_panics() {
    imre_tensor::l2sq(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
}
