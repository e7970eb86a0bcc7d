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

/// Folds output bits into one `u64` with [`imre_tensor::mix64`].
fn digest(h: u64, xs: &[f32]) -> u64 {
    xs.iter()
        .fold(h, |h, x| imre_tensor::mix64(h ^ x.to_bits() as u64))
}

/// The kernels' output bits at the served shapes, on every tier, equal
/// constants recorded before the kernels were last rewritten: this pins
/// "the same bits as before", not only "the same bits on every tier".
/// Covered: the conv-shaped `matmul` (65×180×230) and its `matmul_tn`
/// transpose, `l2sq` and the 32-lane `dot` (via `matmul_nt`) at 690,
/// `softmax_rows` at 8×53, `axpy` at 690, the int8 `qmatvec_into` and
/// the dequantizing gather.
#[test]
fn kernel_output_bits_match_recorded_digests() {
    use imre_tensor::quant::{self, QuantTensor};
    let (m, k, n) = (65usize, 180usize, 230usize);
    let a = mat(m, k, 21);
    let b = mat(k, n, 22);
    let at = mat(k, m, 23);
    let x = mat(2, 690, 24);
    let logits = mat(8, 53, 25);
    let w = QuantTensor::quantize(&mat(n, k, 26));
    let table = QuantTensor::quantize(&mat(40, 60, 27));
    let run = || {
        let mut h = 0u64;
        let mut out = vec![0f32; m * n];
        imre_tensor::matmul_into(a.data(), b.data(), &mut out, m, k, n);
        h = digest(h, &out);
        imre_tensor::matmul_tn_into(at.data(), b.data(), &mut out, m, k, n);
        h = digest(h, &out);
        let (x0, x1) = (x.row(0), x.row(1));
        h = digest(h, &[imre_tensor::l2sq(x0, x1)]);
        let mut dots = [0f32; 4];
        imre_tensor::matmul_nt_into(x.data(), x.data(), &mut dots, 2, 690, 2);
        h = digest(h, &dots);
        h = digest(h, logits.softmax_rows().data());
        let mut y = x1.to_vec();
        imre_tensor::axpy(&mut y, -0.37, x0);
        h = digest(h, &y);
        let mut q = vec![0i8; k];
        let p = quant::quantize_row_into(a.row(0), &mut q);
        let mut qout = vec![0f32; n];
        quant::qmatvec_into(&w, &q, p, Some(&b.data()[..n]), &mut qout);
        h = digest(h, &qout);
        let mut deq = vec![0f32; 5 * 60];
        quant::gather_dequant_into(&table, &[3, 0, 39, 17, 3], &mut deq);
        digest(h, &deq)
    };
    for be in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
        let got = simd::with_backend(be, run);
        assert_eq!(
            got, 0x0401_d392_35cf_de87,
            "{be:?}: kernel output bits changed ({got:#018x})"
        );
    }
}
