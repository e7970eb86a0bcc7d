//! The core [`Tensor`] type: a row-major, contiguous dense array of `f32`.

use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// The shape is dynamic (`Vec<usize>`); most of the workspace uses rank 1 and
/// rank 2. The last axis varies fastest, so a `[rows, cols]` tensor stores row
/// `r` at `data[r * cols .. (r + 1) * cols]`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from an existing buffer.
    ///
    /// # Panics
    /// If `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "Tensor::from_vec: buffer of {} elements cannot have shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// A tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Assembles a tensor from a shape vector and a data buffer, both owned.
    ///
    /// Unlike [`Tensor::from_vec`] this takes the shape by value, so callers
    /// that recycle shape vectors (the buffer pool) avoid the `to_vec` copy.
    ///
    /// # Panics
    /// If `data.len()` does not equal the product of `shape`.
    pub fn from_parts(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "Tensor::from_parts: buffer of {} elements cannot have shape {:?}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// Consumes the tensor and returns its shape vector and data buffer, so
    /// both allocations can be recycled (see `bufpool`).
    pub fn into_parts(self) -> (Vec<usize>, Vec<f32>) {
        (self.shape, self.data)
    }

    /// Builds a rank-2 tensor from rows; every row must have equal length.
    ///
    /// # Panics
    /// If rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "Tensor::from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Tensor::from_rows: row {i} has len {} expected {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Tensor {
            shape: vec![rows.len(), cols],
            data,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of rows, treating the tensor as a matrix.
    ///
    /// # Panics
    /// If rank is not 2.
    #[inline]
    pub fn rows(&self) -> usize {
        assert_eq!(
            self.rank(),
            2,
            "Tensor::rows: expected rank-2, got shape {:?}",
            self.shape
        );
        self.shape[0]
    }

    /// Number of columns, treating the tensor as a matrix.
    ///
    /// # Panics
    /// If rank is not 2.
    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(
            self.rank(),
            2,
            "Tensor::cols: expected rank-2, got shape {:?}",
            self.shape
        );
        self.shape[1]
    }

    /// Element access for rank-2 tensors.
    ///
    /// # Panics
    /// If rank is not 2 or indices are out of bounds.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        let (rows, cols) = (self.rows(), self.cols());
        assert!(
            r < rows && c < cols,
            "Tensor::at: ({r},{c}) out of bounds for {:?}",
            self.shape
        );
        self.data[r * cols + c]
    }

    /// Mutable element access for rank-2 tensors.
    ///
    /// # Panics
    /// If rank is not 2 or indices are out of bounds.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        let (rows, cols) = (self.rows(), self.cols());
        assert!(
            r < rows && c < cols,
            "Tensor::at_mut: ({r},{c}) out of bounds for {:?}",
            self.shape
        );
        &mut self.data[r * cols + c]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor viewing the same data with a new shape.
    ///
    /// # Panics
    /// If the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "Tensor::reshape: cannot view {:?} ({} elems) as {:?} ({} elems)",
            self.shape,
            self.data.len(),
            shape,
            n
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// In-place reshape (no copy).
    ///
    /// # Panics
    /// If the element counts differ.
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "Tensor::reshape_in_place: element count mismatch"
        );
        self.shape = shape.to_vec();
    }

    /// Matrix transpose for rank-2 tensors (copies).
    ///
    /// # Panics
    /// If rank is not 2.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Treats a rank-1 tensor as a 1×n row matrix.
    ///
    /// # Panics
    /// If rank is not 1.
    pub fn as_row_matrix(&self) -> Tensor {
        assert_eq!(
            self.rank(),
            1,
            "Tensor::as_row_matrix: expected rank-1, got {:?}",
            self.shape
        );
        Tensor {
            shape: vec![1, self.data.len()],
            data: self.data.clone(),
        }
    }

    /// Flattens to rank 1.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: vec![self.data.len()],
            data: self.data.clone(),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.at(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[2]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[4], 2.5).data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_diagonal() {
        let e = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(e.at(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_builds_matrix() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.at(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "row 1")]
    fn from_rows_ragged_panics() {
        let _ = Tensor::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(2, 1), 6.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[6]).reshape(&[2, 3]);
        assert_eq!(t.at(1, 0), 3.0);
        let mut u = t.clone();
        u.reshape_in_place(&[3, 2]);
        assert_eq!(u.shape(), &[3, 2]);
        assert_eq!(u.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_mismatch_panics() {
        let _ = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[6]).reshape(&[4, 2]);
    }

    #[test]
    fn as_row_matrix_shape() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 2.0], &[3]).as_row_matrix();
        assert_eq!(t.shape(), &[1, 3]);
    }

    #[test]
    fn flatten_rank() {
        let t = Tensor::zeros(&[2, 3]).flatten();
        assert_eq!(t.shape(), &[6]);
    }

    #[test]
    fn debug_is_compact_for_large_tensors() {
        let s = format!("{:?}", Tensor::zeros(&[100, 100]));
        assert!(s.len() < 100, "debug output too verbose: {s}");
    }
}
