//! Elementwise and broadcast arithmetic on [`Tensor`].
//!
//! Elementwise ops are chunk-parallel on the [`crate::pool`] backend: the
//! flat buffer is split into fixed [`ELEM_GRAIN`]-sized ranges (shape-derived,
//! thread-count independent) and each element is written by exactly one task,
//! so results are bit-identical to a sequential run. The binary ops, `scale`,
//! `add_assign`, `axpy`, and the row broadcasts dispatch through
//! [`crate::simd`] (per-lane IEEE ops — backend choice never changes bits);
//! generic `map` closures and the reductions (`dot`, `norm_l2`) stay scalar
//! to keep their accumulation order fixed.

use crate::pool;
use crate::simd;
use crate::simd::EwOp;
use crate::Tensor;

/// Elements per parallel task for elementwise kernels. These kernels are
/// memory-bound (≲ 1 ns/element), so a chunk must be large for its compute
/// to dwarf the ~650 ns dispatch cost; small tensors (the common case in
/// this workspace) stay on the inline single-chunk path.
const ELEM_GRAIN: usize = 128 * 1024;

impl Tensor {
    // ------------------------------------------------------------------
    // Elementwise binary ops (shapes must match exactly)
    // ------------------------------------------------------------------

    fn zip_with(&self, other: &Tensor, op_name: &str, op: EwOp) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "Tensor::{op_name}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let (a, b) = (self.data(), other.data());
        let be = simd::backend();
        simd::note(be);
        let mut out = Tensor::zeros(self.shape());
        pool::for_rows(out.data_mut(), a.len(), 1, ELEM_GRAIN, |lo, hi, shard| {
            simd::ew(be, op, &a[lo..hi], &b[lo..hi], shard);
        });
        out
    }

    /// Destination-passing core of the elementwise binary ops: fully
    /// overwrites `out`, which must already have `self`'s shape (the pool
    /// hands out pre-shaped buffers). Identical op order to [`zip_with`],
    /// so results are bit-identical to the allocating path.
    fn zip_with_into(&self, other: &Tensor, op_name: &str, out: &mut Tensor, op: EwOp) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "Tensor::{op_name}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        assert_eq!(
            out.shape(),
            self.shape(),
            "Tensor::{op_name}: destination shape {:?} for operands {:?}",
            out.shape(),
            self.shape()
        );
        let (a, b) = (self.data(), other.data());
        let be = simd::backend();
        simd::note(be);
        pool::for_rows(out.data_mut(), a.len(), 1, ELEM_GRAIN, |lo, hi, shard| {
            simd::ew(be, op, &a[lo..hi], &b[lo..hi], shard);
        });
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "add", EwOp::Add)
    }

    /// Elementwise sum written into `out` (pre-shaped, fully overwritten).
    pub fn add_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_with_into(other, "add_into", out, EwOp::Add)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "sub", EwOp::Sub)
    }

    /// Elementwise difference written into `out`.
    pub fn sub_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_with_into(other, "sub_into", out, EwOp::Sub)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "mul", EwOp::Mul)
    }

    /// Elementwise product written into `out`.
    pub fn mul_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_with_into(other, "mul_into", out, EwOp::Mul)
    }

    /// Elementwise quotient.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "div", EwOp::Div)
    }

    /// Elementwise quotient written into `out`.
    pub fn div_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_with_into(other, "div_into", out, EwOp::Div)
    }

    /// In-place elementwise accumulate: `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "Tensor::add_assign: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let b = other.data();
        let n = b.len();
        let be = simd::backend();
        simd::note(be);
        pool::for_rows(self.data_mut(), n, 1, ELEM_GRAIN, |lo, hi, shard| {
            simd::add_assign(be, shard, &b[lo..hi]);
        });
    }

    /// In-place `self += alpha * other` (axpy). The multiply and add stay
    /// unfused on every backend, preserving the bits of the scalar loop.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "Tensor::axpy: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let b = other.data();
        let n = b.len();
        let be = simd::backend();
        simd::note(be);
        pool::for_rows(self.data_mut(), n, 1, ELEM_GRAIN, |lo, hi, shard| {
            simd::axpy(be, shard, alpha, &b[lo..hi]);
        });
    }

    // ------------------------------------------------------------------
    // Scalar ops
    // ------------------------------------------------------------------

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let a = self.data();
        let be = simd::backend();
        simd::note(be);
        let mut out = Tensor::zeros(self.shape());
        pool::for_rows(out.data_mut(), a.len(), 1, ELEM_GRAIN, |lo, hi, shard| {
            simd::scale(be, &a[lo..hi], s, shard);
        });
        out
    }

    /// Scaled copy written into `out` (pre-shaped, fully overwritten).
    pub fn scale_into(&self, s: f32, out: &mut Tensor) {
        assert_eq!(
            out.shape(),
            self.shape(),
            "Tensor::scale_into: destination shape {:?} for source {:?}",
            out.shape(),
            self.shape()
        );
        let a = self.data();
        let be = simd::backend();
        simd::note(be);
        pool::for_rows(out.data_mut(), a.len(), 1, ELEM_GRAIN, |lo, hi, shard| {
            simd::scale(be, &a[lo..hi], s, shard);
        });
    }

    /// Applies `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let a = self.data();
        let mut out = Tensor::zeros(self.shape());
        pool::for_rows(out.data_mut(), a.len(), 1, ELEM_GRAIN, |lo, hi, shard| {
            for (s, &x) in shard.iter_mut().zip(&a[lo..hi]) {
                *s = f(x);
            }
        });
        out
    }

    /// Applies `f` to every element, writing into `out` (pre-shaped, fully
    /// overwritten). Same partition and op order as [`Tensor::map`].
    pub fn map_into(&self, out: &mut Tensor, f: impl Fn(f32) -> f32 + Sync) {
        assert_eq!(
            out.shape(),
            self.shape(),
            "Tensor::map_into: destination shape {:?} for source {:?}",
            out.shape(),
            self.shape()
        );
        let a = self.data();
        pool::for_rows(out.data_mut(), a.len(), 1, ELEM_GRAIN, |lo, hi, shard| {
            for (s, &x) in shard.iter_mut().zip(&a[lo..hi]) {
                *s = f(x);
            }
        });
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let n = self.len();
        pool::for_rows(self.data_mut(), n, 1, ELEM_GRAIN, |_, _, shard| {
            for x in shard {
                *x = f(*x);
            }
        });
    }

    /// Sets every element to zero, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data_mut().fill(0.0);
    }

    // ------------------------------------------------------------------
    // Broadcast ops
    // ------------------------------------------------------------------

    /// Adds a rank-1 `bias` of length `cols` to every row of a rank-2 tensor.
    ///
    /// # Panics
    /// If `self` is not rank-2 or `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        let cols = self.cols();
        assert_eq!(
            bias.len(),
            cols,
            "Tensor::add_row_broadcast: bias of len {} for {} columns",
            bias.len(),
            cols
        );
        let rows = self.rows();
        let a = self.data();
        let b = bias.data();
        let be = simd::backend();
        simd::note(be);
        let mut out = Tensor::zeros(self.shape());
        let grain = (ELEM_GRAIN / cols.max(1)).max(1);
        pool::for_rows(out.data_mut(), rows, cols, grain, |lo, _, shard| {
            for (ri, row) in shard.chunks_mut(cols).enumerate() {
                let src = &a[(lo + ri) * cols..(lo + ri + 1) * cols];
                simd::ew(be, EwOp::Add, src, b, row);
            }
        });
        out
    }

    /// Row-broadcast bias addition written into `out` (pre-shaped, fully
    /// overwritten). Computes `out[r][c] = self[r][c] + bias[c]` in one pass;
    /// the single `+` per element is the same float op the allocating
    /// clone-then-accumulate path performs, so results are bit-identical.
    pub fn add_row_broadcast_into(&self, bias: &Tensor, out: &mut Tensor) {
        let (rows, cols) = (self.rows(), self.cols());
        assert_eq!(
            bias.len(),
            cols,
            "Tensor::add_row_broadcast_into: bias of len {} for {} columns",
            bias.len(),
            cols
        );
        assert_eq!(
            out.shape(),
            self.shape(),
            "Tensor::add_row_broadcast_into: destination shape {:?} for source {:?}",
            out.shape(),
            self.shape()
        );
        let a = self.data();
        let b = bias.data();
        let be = simd::backend();
        simd::note(be);
        let grain = (ELEM_GRAIN / cols.max(1)).max(1);
        pool::for_rows(out.data_mut(), rows, cols, grain, |lo, _, shard| {
            for (ri, row) in shard.chunks_mut(cols).enumerate() {
                let src = &a[(lo + ri) * cols..(lo + ri + 1) * cols];
                simd::ew(be, EwOp::Add, src, b, row);
            }
        });
    }

    /// Multiplies each row elementwise by a rank-1 `scale` of length `cols`.
    ///
    /// # Panics
    /// If `self` is not rank-2 or `scale.len() != self.cols()`.
    pub fn mul_row_broadcast(&self, scale: &Tensor) -> Tensor {
        let cols = self.cols();
        assert_eq!(
            scale.len(),
            cols,
            "Tensor::mul_row_broadcast: scale of len {} for {} columns",
            scale.len(),
            cols
        );
        let rows = self.rows();
        let a = self.data();
        let s = scale.data();
        let be = simd::backend();
        simd::note(be);
        let mut out = Tensor::zeros(self.shape());
        let grain = (ELEM_GRAIN / cols.max(1)).max(1);
        pool::for_rows(out.data_mut(), rows, cols, grain, |lo, _, shard| {
            for (ri, row) in shard.chunks_mut(cols).enumerate() {
                let src = &a[(lo + ri) * cols..(lo + ri + 1) * cols];
                simd::ew(be, EwOp::Mul, src, s, row);
            }
        });
        out
    }

    /// Row-broadcast scaling written into `out` (pre-shaped, fully
    /// overwritten); see [`Tensor::add_row_broadcast_into`] for the
    /// bit-identity argument.
    pub fn mul_row_broadcast_into(&self, scale: &Tensor, out: &mut Tensor) {
        let (rows, cols) = (self.rows(), self.cols());
        assert_eq!(
            scale.len(),
            cols,
            "Tensor::mul_row_broadcast_into: scale of len {} for {} columns",
            scale.len(),
            cols
        );
        assert_eq!(
            out.shape(),
            self.shape(),
            "Tensor::mul_row_broadcast_into: destination shape {:?} for source {:?}",
            out.shape(),
            self.shape()
        );
        let a = self.data();
        let s = scale.data();
        let be = simd::backend();
        simd::note(be);
        let grain = (ELEM_GRAIN / cols.max(1)).max(1);
        pool::for_rows(out.data_mut(), rows, cols, grain, |lo, _, shard| {
            for (ri, row) in shard.chunks_mut(cols).enumerate() {
                let src = &a[(lo + ri) * cols..(lo + ri + 1) * cols];
                simd::ew(be, EwOp::Mul, src, s, row);
            }
        });
    }

    // ------------------------------------------------------------------
    // Vector ops
    // ------------------------------------------------------------------

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Panics
    /// If element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.len(),
            other.len(),
            "Tensor::dot: length mismatch {} vs {}",
            self.len(),
            other.len()
        );
        self.data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Euclidean (L2) norm of the flat buffer.
    pub fn norm_l2(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Cosine similarity between two tensors viewed as flat vectors.
    ///
    /// Returns 0 when either vector has zero norm.
    pub fn cosine(&self, other: &Tensor) -> f32 {
        let d = self.dot(other);
        let n = self.norm_l2() * other.norm_l2();
        if n == 0.0 {
            0.0
        } else {
            d / n
        }
    }

    // ------------------------------------------------------------------
    // Activations (forward only; derivatives live in imre-nn's tape)
    // ------------------------------------------------------------------

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Elementwise tanh written into `out`.
    pub fn tanh_into(&self, out: &mut Tensor) {
        self.map_into(out, f32::tanh)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Elementwise sigmoid written into `out`.
    pub fn sigmoid_into(&self, out: &mut Tensor) {
        self.map_into(out, |x| 1.0 / (1.0 + (-x).exp()))
    }
}

/// Slice-level `dst[i] += alpha * src[i]` on the calling thread: the kernel
/// behind [`Tensor::axpy`] without the tensor wrapper or the pool dispatch,
/// for callers whose operands are rows of larger buffers (`imre-nn`'s sparse
/// convolution backward issues hundreds of row-long calls per sentence, so
/// the call is not counted as a kernel dispatch either). Multiply and add
/// stay unfused per element, so every backend produces the scalar loop's
/// bits.
///
/// # Panics
/// If the slices differ in length.
#[inline]
pub fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "axpy: destination of len {} for source of len {}",
        dst.len(),
        src.len()
    );
    simd::axpy(simd::backend(), dst, alpha, src);
}

/// Squared Euclidean distance `Σ (a_i − b_i)²` on the calling thread, with
/// the fixed 32-lane structure of the dot-product kernel: 32 stride-32
/// partial sums, a fixed reduction tree, then the tail in order. Every
/// backend produces the scalar twin's bits, so a kNN index built from it is
/// the same on every tier. Like [`axpy`], the call is not counted as a
/// kernel dispatch (a kNN query makes hundreds of them).
///
/// # Panics
/// If the slices differ in length.
#[inline]
pub fn l2sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "l2sq: slices of len {} and {}",
        a.len(),
        b.len()
    );
    simd::l2sq(simd::backend(), a, b)
}

/// Numerically stable logistic sigmoid for scalars, shared across the workspace.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()])
    }

    #[test]
    fn add_sub_mul_div() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let _ = t(&[1.0]).add(&t(&[1.0, 2.0]));
    }

    #[test]
    fn add_assign_and_axpy() {
        let mut a = t(&[1.0, 1.0]);
        a.add_assign(&t(&[2.0, 3.0]));
        assert_eq!(a.data(), &[3.0, 4.0]);
        a.axpy(0.5, &t(&[2.0, 2.0]));
        assert_eq!(a.data(), &[4.0, 5.0]);
        // the slice-level entry is the same kernel (vector body + tail)
        let src: Vec<f32> = (0..11).map(|i| i as f32 * 0.37 - 1.0).collect();
        let mut whole = Tensor::ones(&[11]);
        whole.axpy(-1.5, &t(&src));
        let mut row = vec![1.0f32; 11];
        axpy(&mut row, -1.5, &src);
        assert_eq!(row, whole.data());
    }

    #[test]
    fn scalar_ops() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0]);
        assert_eq!(a.map(|x| x * x).data(), &[1.0, 4.0]);
    }

    #[test]
    fn fill_zero_resets() {
        let mut a = t(&[1.0, 2.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn row_broadcasts() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[10.0, 20.0]);
        assert_eq!(m.add_row_broadcast(&b).data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(m.mul_row_broadcast(&b).data(), &[10.0, 40.0, 30.0, 80.0]);
    }

    #[test]
    #[should_panic(expected = "add_row_broadcast")]
    fn broadcast_bad_len_panics() {
        let m = Tensor::zeros(&[2, 2]);
        let _ = m.add_row_broadcast(&t(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn dot_norm_cosine() {
        let a = t(&[3.0, 4.0]);
        let b = t(&[4.0, 3.0]);
        assert_eq!(a.dot(&b), 24.0);
        assert_eq!(a.norm_l2(), 5.0);
        assert_close(&[a.cosine(&b)], &[24.0 / 25.0], 1e-6);
        assert_eq!(a.cosine(&t(&[0.0, 0.0])), 0.0);
    }

    #[test]
    fn activations() {
        let a = t(&[0.0, 1.0, -1.0]);
        assert_close(a.tanh().data(), &[0.0, 0.76159, -0.76159], 1e-4);
        assert_close(a.sigmoid().data(), &[0.5, 0.73106, 0.26894], 1e-4);
    }

    #[test]
    fn sigmoid_scalar_stable_at_extremes() {
        assert!((sigmoid_scalar(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid_scalar(-100.0).abs() < 1e-6);
        assert!(sigmoid_scalar(100.0).is_finite());
        assert!(sigmoid_scalar(-100.0).is_finite());
        assert_close(
            &[sigmoid_scalar(0.3)],
            &[1.0 / (1.0 + (-0.3f32).exp())],
            1e-7,
        );
    }
}
