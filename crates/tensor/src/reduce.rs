//! Reductions and normalisations: sums, means, axis max (with argmax, the
//! backbone of piecewise max pooling), and numerically stable softmax.
//!
//! Row-independent normalisations (`softmax_rows`) are row-parallel on the
//! [`crate::pool`] backend; true reductions keep their sequential
//! accumulation order so results stay bit-identical at any thread count.

use crate::pool;
use crate::simd;
use crate::Tensor;

/// Target elements per parallel task for row-parallel normalisations.
/// Softmax costs ~5 ns/element (the `exp`), so a chunk runs for ≫ the
/// ~650 ns dispatch cost; typical logit matrices stay on the inline path.
const ROW_GRAIN_ELEMS: usize = 64 * 1024;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Column-wise sum of a rank-2 tensor → rank-1 of length `cols`.
    pub fn sum_rows(&self) -> Tensor {
        let cols = self.cols();
        let mut out = vec![0.0f32; cols];
        for row in self.data().chunks(cols) {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        Tensor::from_vec(out, &[cols])
    }

    /// Column-wise sum written into a pre-shaped `[cols]` destination.
    /// Re-zeroes `out` first, then accumulates rows in the same order as
    /// [`Tensor::sum_rows`] — bit-identical results.
    pub fn sum_rows_into(&self, out: &mut Tensor) {
        let cols = self.cols();
        assert_eq!(
            out.shape(),
            [cols],
            "Tensor::sum_rows_into: destination shape {:?} for {} columns",
            out.shape(),
            cols
        );
        let o = out.data_mut();
        o.fill(0.0);
        for row in self.data().chunks(cols) {
            for (oo, &x) in o.iter_mut().zip(row) {
                *oo += x;
            }
        }
    }

    /// Column-wise mean of a rank-2 tensor → rank-1 of length `cols`.
    pub fn mean_rows(&self) -> Tensor {
        let rows = self.rows() as f32;
        self.sum_rows().scale(1.0 / rows)
    }

    /// Column-wise mean written into a pre-shaped `[cols]` destination;
    /// same sum-then-scale op order as [`Tensor::mean_rows`].
    pub fn mean_rows_into(&self, out: &mut Tensor) {
        let inv = 1.0 / self.rows() as f32;
        self.sum_rows_into(out);
        for x in out.data_mut() {
            *x *= inv;
        }
    }

    /// Column-wise max over a contiguous row range `[lo, hi)`, written into a
    /// caller-provided `cols`-long slice. Rows are folded in ascending order
    /// with a strict `>`, so on ties the first row's value stays.
    ///
    /// This is the values-only primitive behind (piecewise) max pooling on
    /// inference tapes, which need no gradient routing. Taking a raw slice
    /// lets piecewise pooling write every segment into one recycled buffer.
    ///
    /// # Panics
    /// If `lo >= hi`, `hi > rows`, `self` is not rank-2, or `out` does not
    /// hold exactly `cols` elements.
    pub fn max_over_rows_into(&self, lo: usize, hi: usize, out: &mut [f32]) {
        let (rows, cols) = (self.rows(), self.cols());
        assert!(
            lo < hi && hi <= rows,
            "Tensor::max_over_rows_into: empty or out-of-range segment [{lo}, {hi}) of {rows} rows"
        );
        assert_eq!(
            out.len(),
            cols,
            "Tensor::max_over_rows_into: destination of len {} for {} columns",
            out.len(),
            cols
        );
        let d = self.data();
        let vals = out;
        vals.copy_from_slice(&d[lo * cols..(lo + 1) * cols]);
        for r in lo + 1..hi {
            let row = &d[r * cols..(r + 1) * cols];
            // A select, not a conditional store: whether `x` wins is a coin
            // toss on short segments, which a branch would mispredict.
            for (v, &x) in vals.iter_mut().zip(row) {
                *v = if x > *v { x } else { *v };
            }
        }
    }

    /// [`Tensor::max_over_rows_into`] plus the *absolute* row index achieving
    /// each max, written flat into `idx` — what recording tapes route the
    /// pooling gradient through. Same `>` comparison order (the first row
    /// wins ties), so `vals` is bit-identical to the values-only routine.
    ///
    /// # Panics
    /// If `lo >= hi`, `hi > rows`, `rows` exceeds `u32::MAX`, `self` is not
    /// rank-2, or `vals` / `idx` do not hold exactly `cols` elements.
    pub fn max_argmax_over_rows_into(
        &self,
        lo: usize,
        hi: usize,
        vals: &mut [f32],
        idx: &mut [u32],
    ) {
        let (rows, cols) = (self.rows(), self.cols());
        assert!(
            lo < hi && hi <= rows && rows <= u32::MAX as usize,
            "Tensor::max_argmax_over_rows_into: empty or out-of-range segment [{lo}, {hi}) of {rows} rows"
        );
        assert!(
            vals.len() == cols && idx.len() == cols,
            "Tensor::max_argmax_over_rows_into: destinations of len {} / {} for {cols} columns",
            vals.len(),
            idx.len()
        );
        let d = self.data();
        vals.copy_from_slice(&d[lo * cols..(lo + 1) * cols]);
        idx.fill(lo as u32);
        for r in lo + 1..hi {
            let row = &d[r * cols..(r + 1) * cols];
            // Selects as bit masks on two same-width lanes: a `>` that wins
            // or loses unpredictably (short segments) must not be a branch.
            for ((v, i), &x) in vals.iter_mut().zip(idx.iter_mut()).zip(row) {
                let gt = 0u32.wrapping_sub((x > *v) as u32);
                *v = f32::from_bits((x.to_bits() & gt) | (v.to_bits() & !gt));
                *i = (r as u32 & gt) | (*i & !gt);
            }
        }
    }

    /// Index of the maximum element of a rank-1 tensor (first on ties).
    ///
    /// # Panics
    /// If the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "Tensor::argmax: empty tensor");
        let mut best = 0;
        let d = self.data();
        for i in 1..d.len() {
            if d[i] > d[best] {
                best = i;
            }
        }
        best
    }

    /// Numerically stable softmax over a rank-1 tensor.
    pub fn softmax(&self) -> Tensor {
        let m = self.max();
        let exps: Vec<f32> = self.data().iter().map(|&x| (x - m).exp()).collect();
        let z: f32 = exps.iter().sum();
        Tensor::from_vec(exps.iter().map(|&e| e / z).collect(), self.shape())
    }

    /// Softmax written into a pre-shaped destination: copies the source,
    /// then normalises it with [`softmax_in_place`] — the same max/exp/sum/div
    /// op order as [`Tensor::softmax`], so results are bit-identical, with
    /// zero temporaries.
    pub fn softmax_into(&self, out: &mut Tensor) {
        assert_eq!(
            out.shape(),
            self.shape(),
            "Tensor::softmax_into: destination shape {:?} for source {:?}",
            out.shape(),
            self.shape()
        );
        out.data_mut().copy_from_slice(self.data());
        softmax_in_place(out.data_mut());
    }

    /// Row-wise softmax of a rank-2 tensor. Rows are independent, so this is
    /// row-parallel with bit-identical results at any thread count. The row
    /// max and partition-function sum use the fixed 8-lane reduction
    /// structure of [`crate::simd`] (identical on every backend); the `exp`
    /// stays scalar.
    pub fn softmax_rows(&self) -> Tensor {
        let (rows, cols) = (self.rows(), self.cols());
        let mut out = self.clone();
        let be = simd::backend();
        simd::note(be);
        let grain = (ROW_GRAIN_ELEMS / cols.max(1)).max(1);
        pool::for_rows(out.data_mut(), rows, cols, grain, |_, _, shard| {
            for row in shard.chunks_mut(cols) {
                softmax_row_in_place(be, row);
            }
        });
        out
    }

    /// Row-wise softmax written into a pre-shaped destination: copies the
    /// source row into `out`, then runs the identical in-place normalisation
    /// [`Tensor::softmax_rows`] uses, with the same partition — results are
    /// bit-identical at any thread count.
    pub fn softmax_rows_into(&self, out: &mut Tensor) {
        let (rows, cols) = (self.rows(), self.cols());
        assert_eq!(
            out.shape(),
            self.shape(),
            "Tensor::softmax_rows_into: destination shape {:?} for source {:?}",
            out.shape(),
            self.shape()
        );
        let a = self.data();
        let be = simd::backend();
        simd::note(be);
        let grain = (ROW_GRAIN_ELEMS / cols.max(1)).max(1);
        pool::for_rows(out.data_mut(), rows, cols, grain, |lo, hi, shard| {
            shard.copy_from_slice(&a[lo * cols..hi * cols]);
            for row in shard.chunks_mut(cols) {
                softmax_row_in_place(be, row);
            }
        });
    }
}

/// Numerically stable softmax of a slice, in place: max, `exp`, sequential
/// sum, divide. The one rank-1 softmax body — [`Tensor::softmax_into`] and
/// the tape-free int8 forward both call it, so their results agree bit for
/// bit.
pub fn softmax_in_place(xs: &mut [f32]) {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
    }
    let mut z = 0.0f32;
    for &x in xs.iter() {
        z += x;
    }
    for x in xs.iter_mut() {
        *x /= z;
    }
}

/// Shared per-row normalisation of the row-parallel softmax kernels:
/// lane-structured max, scalar `exp`, lane-structured sum, per-lane divide.
#[inline]
fn softmax_row_in_place(be: simd::Backend, row: &mut [f32]) {
    let m = simd::row_max(be, row);
    for x in row.iter_mut() {
        *x = (*x - m).exp();
    }
    let z = simd::row_sum(be, row);
    simd::div_inplace(be, row, z);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn sum_mean_max() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn row_and_col_sums() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.sum_rows().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.mean_rows().data(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn max_over_rows_values_and_argmax() {
        let t = Tensor::from_vec(
            vec![
                1.0, 9.0, //
                5.0, 2.0, //
                3.0, 7.0, //
            ],
            &[3, 2],
        );
        let (mut v, mut idx) = ([0.0f32; 2], [0u32; 2]);
        t.max_argmax_over_rows_into(0, 3, &mut v, &mut idx);
        assert_eq!(v, [5.0, 9.0]);
        assert_eq!(idx, [1, 0]);
        t.max_argmax_over_rows_into(1, 3, &mut v, &mut idx);
        assert_eq!(v, [5.0, 7.0]);
        assert_eq!(idx, [1, 2]);
        // ties keep the first row
        let tie = Tensor::from_vec(vec![4.0, 4.0, 4.0], &[3, 1]);
        tie.max_argmax_over_rows_into(1, 3, &mut v[..1], &mut idx[..1]);
        assert_eq!((v[0], idx[0]), (4.0, 1));
    }

    #[test]
    #[should_panic(expected = "max_argmax_over_rows_into")]
    fn max_over_rows_empty_segment_panics() {
        let (mut v, mut idx) = ([0.0f32; 2], [0u32; 2]);
        Tensor::zeros(&[3, 2]).max_argmax_over_rows_into(2, 2, &mut v, &mut idx);
    }

    #[test]
    fn argmax_first_tie() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.0], &[4]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let t = Tensor::from_vec(vec![1000.0, 1000.0, 999.0], &[3]);
        let s = t.softmax();
        assert!((s.sum() - 1.0).abs() < 1e-5);
        assert!(s.data().iter().all(|x| x.is_finite() && *x > 0.0));
        assert!(s.data()[0] > s.data()[2]);
    }

    #[test]
    fn softmax_rows_each_row_normalised() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let row_sum: f32 = (0..3).map(|c| s.at(r, c)).sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        // shift invariance: rows differing by a constant have equal softmax
        assert_close(
            &[s.at(0, 0), s.at(0, 1), s.at(0, 2)],
            &[s.at(1, 0), s.at(1, 1), s.at(1, 2)],
            1e-5,
        );
    }
}
