//! Runtime SIMD dispatch behaviour: which backend is selected, that the
//! vector path is really taken on capable hardware (via the dispatch
//! counters), that `IMRE_FORCE_SCALAR=1` pins the scalar fallback, and that
//! backend choice never changes results. The CI `simd` step runs this suite
//! twice — once normally and once under `IMRE_FORCE_SCALAR=1` — so both
//! branches of the env check below are exercised.

use imre_tensor::pool::{with_pool, ThreadPool};
use imre_tensor::simd::{self, Backend};
use imre_tensor::{Tensor, TensorRng};

fn mat(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = TensorRng::seed(seed);
    Tensor::rand_uniform(&[rows, cols], -1.0, 1.0, &mut rng)
}

/// `backend()` honours the environment: `IMRE_FORCE_SCALAR=1` pins the
/// scalar fallback, otherwise detection resolves to the best instruction
/// set the CPU reports.
#[test]
fn backend_selection_honours_environment() {
    if std::env::var("IMRE_FORCE_SCALAR").as_deref() == Ok("1") {
        assert_eq!(simd::backend(), Backend::Scalar);
    } else {
        assert_eq!(simd::backend(), simd::hardware_backend());
    }
}

/// On SIMD-capable hardware the default dispatch must take the vector path
/// for a real kernel — counted, not inferred.
#[test]
fn vector_path_taken_on_capable_hardware() {
    if simd::backend() == Backend::Scalar {
        // Scalar-only hardware or a forced-scalar run: the scalar counter
        // must move instead.
        let before = simd::scalar_kernels();
        let _ = mat(16, 16, 1).matmul(&mat(16, 16, 2));
        assert!(simd::scalar_kernels() > before);
        return;
    }
    let before = simd::vector_kernels();
    let _ = mat(16, 16, 1).matmul(&mat(16, 16, 2));
    assert!(
        simd::vector_kernels() > before,
        "capable hardware must dispatch the vector kernel path"
    );
}

/// A scoped scalar override takes the scalar path (counted) and produces
/// exactly the bits of the default backend.
#[test]
fn forced_scalar_is_counted_and_bit_identical() {
    let a = mat(33, 47, 5);
    let b = mat(47, 61, 6);
    let default_run = a.matmul(&b);
    let before = simd::scalar_kernels();
    let scalar_run = simd::with_backend(Backend::Scalar, || a.matmul(&b));
    assert!(
        simd::scalar_kernels() > before,
        "scalar override must route through the scalar kernels"
    );
    assert_eq!(default_run.data(), scalar_run.data());
}

/// The backend resolved at kernel entry travels into pool workers: a scalar
/// override applies even when the work dispatches to a 4-thread pool.
#[test]
fn backend_override_propagates_to_pool_workers() {
    let a = mat(64, 512, 9);
    let b = mat(512, 512, 10);
    let p4 = ThreadPool::new(4);
    let (scalar_par, dispatched) = with_pool(&p4, || {
        let r = simd::with_backend(Backend::Scalar, || a.matmul(&b));
        (r, p4.dispatched_jobs())
    });
    assert!(dispatched > 0, "shape must be large enough to dispatch");
    let scalar_seq = simd::with_backend(Backend::Scalar, || a.matmul(&b));
    assert_eq!(scalar_par.data(), scalar_seq.data());
}

/// Grain sizing end-to-end: sub-grain shapes stay on the inline fast path
/// (no channel dispatch), super-grain shapes go to the workers.
#[test]
fn grain_sizing_pins_inline_and_dispatch_paths() {
    let p4 = ThreadPool::new(4);
    with_pool(&p4, || {
        let _ = mat(96, 48, 3).matmul(&mat(48, 48, 4));
        let _ = mat(64, 64, 5).softmax_rows();
        let _ = mat(100, 100, 7).add(&mat(100, 100, 8));
        assert_eq!(
            p4.dispatched_jobs(),
            0,
            "sub-grain kernels must run inline on a 4-thread pool"
        );
        let _ = mat(64, 512, 11).matmul(&mat(512, 512, 12));
        assert!(
            p4.dispatched_jobs() > 0,
            "super-grain matmul must dispatch to workers"
        );
    });
}
