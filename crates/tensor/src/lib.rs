//! # imre-tensor
//!
//! Minimal dense-tensor substrate for the `imre` relation-extraction stack.
//!
//! The paper this workspace reproduces (Kuang et al., *Improving Neural Relation
//! Extraction with Implicit Mutual Relations*, ICDE 2020) was built on a Python
//! deep-learning framework. No mature equivalent exists in Rust, so this crate
//! provides the numeric core everything else is built on: a row-major `f32`
//! [`Tensor`] with the exact operations the models need — elementwise algebra,
//! (blocked) matrix multiplication, broadcast bias addition, row gather /
//! scatter-add (embedding lookups), axis reductions with argmax (max pooling),
//! and numerically stable softmax / log-softmax.
//!
//! Design choices:
//!
//! * **Row-major, contiguous `Vec<f32>`.** All models in the paper are small
//!   (hundreds of hidden units); cache-friendly contiguous storage with an
//!   `ikj`-ordered matmul is fast enough without a BLAS dependency.
//! * **Panics on shape mismatch.** Like `ndarray`, shape errors are programmer
//!   errors; every panic message names the operation and both shapes.
//! * **Mostly rank-1/rank-2.** Sequence and bag structure is handled one level
//!   up (in `imre-nn` / `imre-core`) by explicit loops over rows, which keeps
//!   this crate small and easily verified.
//! * **Deterministic parallelism.** Hot kernels run on the persistent
//!   [`pool`] worker pool (sized from `IMRE_THREADS` or the machine), with
//!   shape-derived row partitions guaranteeing results bit-identical to a
//!   single-threaded run at any thread count.
//! * **Runtime-dispatched SIMD.** The hot `*_into` kernels pick an AVX2 or
//!   AVX-512 register-blocked implementation at runtime via [`simd`], with a
//!   scalar fallback (`IMRE_FORCE_SCALAR=1` forces it) that is bit-identical
//!   to every vector path by construction.
//!
//! ```
//! use imre_tensor::Tensor;
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod bufpool;
pub mod bytes;
mod init;
mod matmul;
mod mmap;
mod ops;
pub mod pool;
pub mod quant;
mod reduce;
mod rows;
pub mod simd;
mod tensor;

pub use bufpool::{BufferPool, PoolStats};
pub use init::{mix64, TensorRng};
pub use matmul::{matmul_into, matmul_nt_into, matmul_tn_into};
pub use ops::{axpy, dot, l2sq, sigmoid_scalar};
pub use quant::QuantTensor;
pub use reduce::softmax_in_place;
pub use tensor::Tensor;

/// Asserts two f32 slices are elementwise close; used across the workspace's tests.
///
/// Panics with the first offending index on failure.
pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(
        a.len(),
        b.len(),
        "assert_close: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol,
            "assert_close: index {i}: {x} vs {y} (tol {tol})"
        );
    }
}
