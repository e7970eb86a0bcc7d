//! Property-based tests for the tensor substrate: algebraic laws that must
//! hold for arbitrary shapes and values.

use imre_tensor::{assert_close, Tensor, TensorRng};
use proptest::prelude::*;

fn small_matrix(max_side: usize) -> impl Strategy<Value = Tensor> {
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

proptest! {
    #[test]
    fn add_commutes(m in small_matrix(6)) {
        let other = m.map(|x| x * 0.5 - 1.0);
        let ab = m.add(&other);
        let ba = other.add(&m);
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn sub_is_add_of_negation(m in small_matrix(6)) {
        let other = m.map(|x| (x + 2.0).sin());
        let direct = m.sub(&other);
        let via_neg = m.add(&other.scale(-1.0));
        assert_close(direct.data(), via_neg.data(), 1e-5);
    }

    #[test]
    fn transpose_is_involution(m in small_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_left_right(m in small_matrix(8)) {
        let (r, c) = (m.rows(), m.cols());
        assert_close(Tensor::eye(r).matmul(&m).data(), m.data(), 1e-4);
        assert_close(m.matmul(&Tensor::eye(c)).data(), m.data(), 1e-4);
    }

    #[test]
    fn matmul_transpose_identity(a in small_matrix(6), seed in 0u64..1000) {
        // (A · B)ᵀ == Bᵀ · Aᵀ
        let mut rng = TensorRng::seed(seed);
        let b = Tensor::rand_uniform(&[a.cols(), 4], -1.0, 1.0, &mut rng);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert_close(lhs.data(), rhs.data(), 1e-3);
    }

    #[test]
    fn matmul_tn_nt_agree_with_naive(a in small_matrix(6), seed in 0u64..1000) {
        let mut rng = TensorRng::seed(seed);
        let b = Tensor::rand_uniform(&[a.rows(), 5], -1.0, 1.0, &mut rng);
        assert_close(a.matmul_tn(&b).data(), a.transpose().matmul(&b).data(), 1e-3);
        let c = Tensor::rand_uniform(&[7, a.cols()], -1.0, 1.0, &mut rng);
        assert_close(a.matmul_nt(&c).data(), a.matmul(&c.transpose()).data(), 1e-3);
    }

    #[test]
    fn softmax_is_probability_vector(v in vector(16)) {
        let s = v.softmax();
        prop_assert!(s.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
        prop_assert!((s.sum() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_shift_invariant(v in vector(12)) {
        let shifted = v.map(|x| x + 13.5);
        assert_close(v.softmax().data(), shifted.softmax().data(), 1e-4);
    }

    #[test]
    fn softmax_preserves_argmax(v in vector(12)) {
        prop_assert_eq!(v.argmax(), v.softmax().argmax());
    }

    #[test]
    fn gather_then_sum_matches_manual(m in small_matrix(6), pick in proptest::collection::vec(0usize..6, 1..8)) {
        let idx: Vec<usize> = pick.into_iter().map(|i| i % m.rows()).collect();
        let g = m.gather_rows(&idx);
        let mut manual = vec![0.0f32; m.cols()];
        for &i in &idx {
            for (acc, &x) in manual.iter_mut().zip(m.row(i)) {
                *acc += x;
            }
        }
        assert_close(g.sum_rows().data(), &manual, 1e-4);
    }

    #[test]
    fn scatter_gather_adjoint(m in small_matrix(5), pick in proptest::collection::vec(0usize..5, 1..6), seed in 0u64..100) {
        // <gather(M, idx), U> == <M, scatter(idx, U)>
        let idx: Vec<usize> = pick.into_iter().map(|i| i % m.rows()).collect();
        let mut rng = TensorRng::seed(seed);
        let u = Tensor::rand_uniform(&[idx.len(), m.cols()], -1.0, 1.0, &mut rng);
        let lhs = m.gather_rows(&idx).dot(&u);
        let mut scat = Tensor::zeros(&[m.rows(), m.cols()]);
        scat.scatter_add_rows(&idx, &u);
        let rhs = m.dot(&scat);
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
    }

    #[test]
    fn max_over_rows_dominates_every_row(m in small_matrix(7)) {
        let mut vals = vec![0.0f32; m.cols()];
        let mut idx = vec![0u32; m.cols()];
        m.max_argmax_over_rows_into(0, m.rows(), &mut vals, &mut idx);
        for (c, (&v, &r)) in vals.iter().zip(&idx).enumerate() {
            prop_assert!((0..m.rows()).all(|row| v >= m.at(row, c)));
            prop_assert_eq!(m.at(r as usize, c), v);
        }
    }

    #[test]
    fn concat_cols_roundtrips_through_slices(m in small_matrix(6)) {
        let c = m.cols();
        if c >= 2 {
            let left = m.slice_cols(0, c / 2);
            let right = m.slice_cols(c / 2, c);
            let back = Tensor::concat_cols(&[&left, &right]);
            prop_assert_eq!(back.data(), m.data());
        }
    }

    #[test]
    fn norm_is_absolutely_homogeneous(v in vector(10), s in -5.0f32..5.0) {
        let lhs = v.scale(s).norm_l2();
        let rhs = s.abs() * v.norm_l2();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs));
    }

    #[test]
    fn mean_rows_between_min_and_max(m in small_matrix(6)) {
        let mr = m.mean_rows();
        for c in 0..m.cols() {
            let col: Vec<f32> = (0..m.rows()).map(|r| m.at(r, c)).collect();
            let lo = col.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = col.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(mr.data()[c] >= lo - 1e-4 && mr.data()[c] <= hi + 1e-4);
        }
    }
}
