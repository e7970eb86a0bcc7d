//! Runtime-dispatched SIMD backends for the hot `*_into` kernels.
//!
//! Every kernel in this crate has one semantic definition — a scalar op
//! sequence per output element — and up to three implementations of it:
//!
//! * **Scalar** — the always-available fallback, plain Rust loops.
//! * **Avx2** — 8-lane `f32x8` kernels via `core::arch::x86_64` intrinsics.
//! * **Avx512** — 16-lane register-blocked matmul rows; every other
//!   primitive reuses the AVX2 implementation (elementwise ops are
//!   memory-bound and reductions have a fixed lane structure, see below).
//!
//! **Bit-identity contract.** The vector backends are not "close" to the
//! scalar backend — they are *bit-identical*, by construction:
//!
//! * Kernels vectorised across independent output elements (matmul rows,
//!   elementwise ops, broadcasts) perform exactly the same IEEE-754
//!   `mul`/`add`/`div` per element in exactly the same order as the scalar
//!   loop; lane width cannot be observed. A matmul row's columns past its
//!   last full vector run as one masked vector step: masked-off lanes load
//!   zeros and are never stored, so the tail keeps the per-lane op order
//!   and no row kernel has a scalar column loop. No FMA is used anywhere —
//!   a fused multiply-add rounds differently, and `f32::mul_add` in the
//!   scalar mirror would fall back to a slow soft-float libm call on
//!   baseline x86-64 builds.
//! * Kernels that reduce *across* elements (`dot`, `l2sq`, row max/sum for
//!   softmax) have a **fixed virtual lane structure** that is part of their
//!   definition: `dot` and `l2sq` share one body, which sums its per-element
//!   term (`a·b`, `(a−b)²`) into 32 stride-32 partial sums, reduces them in
//!   a fixed tree order and adds the tail in order; row max/sum use 8
//!   stride-8 lanes.
//!   The scalar fallback implements that exact structure with plain arrays,
//!   so scalar and vector runs agree bitwise — and so do AVX2 and AVX-512
//!   machines, because the lane structure never widens with the hardware.
//!
//! **Dispatch.** [`backend()`] resolves once per kernel call on the caller
//! thread (so a scoped override travels into pool workers with the task
//! closure): a thread-local override installed by [`with_backend`] (tests,
//! benches), else the process-wide detection — `IMRE_FORCE_SCALAR=1` pins
//! the scalar fallback, otherwise the best instruction set the CPU reports.
//! Per-backend dispatch counters ([`vector_kernels`] /
//! [`scalar_kernels`]) let tests and CI assert the vector path was actually
//! taken on capable hardware, and that forcing the scalar fallback works.
//!
//! **Alignment.** Vector loads/stores are unaligned (`loadu`/`storeu`);
//! correctness never depends on buffer alignment. Cache-line considerations
//! live in [`crate::pool::for_rows`], which rounds row grains so parallel
//! shards cover whole 64-byte lines wherever the column count permits.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One of the available kernel implementations. Ordered by capability.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Backend {
    /// Plain Rust loops; always available, bit-identical to the vector paths.
    Scalar,
    /// 8-lane AVX2 kernels (x86-64 with `avx2`).
    Avx2,
    /// 16-lane matmul rows (x86-64 with `avx512f`; implies the AVX2 tier).
    Avx512,
}

impl Backend {
    /// Human-readable name, for logs and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }
}

/// Best backend the hardware supports, ignoring environment overrides.
pub fn hardware_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
            return Backend::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

static DETECTED: OnceLock<Backend> = OnceLock::new();

fn detect() -> Backend {
    if std::env::var("IMRE_FORCE_SCALAR").as_deref() == Ok("1") {
        Backend::Scalar
    } else {
        hardware_backend()
    }
}

thread_local! {
    static OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The backend kernels on this thread will dispatch to: a scoped
/// [`with_backend`] override, else the process-wide detection
/// (`IMRE_FORCE_SCALAR=1`, else the best the CPU supports).
///
/// Kernels resolve this once at entry on the caller thread and carry the
/// value into their task closures, so an override is honored even when the
/// work runs on pool worker threads.
pub fn backend() -> Backend {
    OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(|| *DETECTED.get_or_init(detect))
}

/// Runs `f` with kernels on this thread pinned to `be` (capped to what the
/// hardware supports — requesting `Avx512` on an AVX2-only box runs AVX2).
/// Used by the bit-identity proptests and the kernel benches to compare
/// backends within one process.
pub fn with_backend<R>(be: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let be = be.min(hardware_backend());
    let prev = OVERRIDE.with(|c| c.replace(Some(be)));
    let _restore = Restore(prev);
    f()
}

static VECTOR_KERNELS: AtomicU64 = AtomicU64::new(0);
static SCALAR_KERNELS: AtomicU64 = AtomicU64::new(0);

/// Counts one kernel-level dispatch decision; called at kernel entry.
#[inline]
pub(crate) fn note(be: Backend) {
    match be {
        Backend::Scalar => SCALAR_KERNELS.fetch_add(1, Ordering::Relaxed),
        _ => VECTOR_KERNELS.fetch_add(1, Ordering::Relaxed),
    };
}

/// Process-wide count of kernel calls that took a vector (AVX2/AVX-512)
/// path. Monotone; tests assert deltas, not absolutes.
pub fn vector_kernels() -> u64 {
    VECTOR_KERNELS.load(Ordering::Relaxed)
}

/// Process-wide count of kernel calls that took the scalar fallback.
pub fn scalar_kernels() -> u64 {
    SCALAR_KERNELS.load(Ordering::Relaxed)
}

// ----------------------------------------------------------------------
// Elementwise primitives (vectorised across independent elements)
// ----------------------------------------------------------------------

/// Elementwise binary operation selector for [`ew`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum EwOp {
    Add,
    Sub,
    Mul,
    Div,
}

#[inline(always)]
fn ew_scalar_one(op: EwOp, x: f32, y: f32) -> f32 {
    match op {
        EwOp::Add => x + y,
        EwOp::Sub => x - y,
        EwOp::Mul => x * y,
        EwOp::Div => x / y,
    }
}

/// `out[i] = a[i] op b[i]`; fully overwrites `out`.
pub(crate) fn ew(be: Backend, op: EwOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar {
        // SAFETY: backend() only reports Avx2/Avx512 when the CPU has avx2.
        unsafe { ew_avx2(op, a, b, out) };
        return;
    }
    let _ = be;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = ew_scalar_one(op, x, y);
    }
}

/// `dst[i] += src[i]` in place.
pub(crate) fn add_assign(be: Backend, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar {
        // SAFETY: vector backends imply avx2 support (see `backend()`).
        unsafe { add_assign_avx2(dst, src) };
        return;
    }
    let _ = be;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[i] += alpha * src[i]` (unfused mul-then-add, as in the scalar axpy).
pub(crate) fn axpy(be: Backend, dst: &mut [f32], alpha: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar {
        // SAFETY: vector backends imply avx2 support (see `backend()`).
        unsafe { axpy_avx2(dst, alpha, src) };
        return;
    }
    let _ = be;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += alpha * s;
    }
}

/// `out[i] = a[i] * s`; fully overwrites `out`.
pub(crate) fn scale(be: Backend, a: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar {
        // SAFETY: vector backends imply avx2 support (see `backend()`).
        unsafe { scale_avx2(a, s, out) };
        return;
    }
    let _ = be;
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x * s;
    }
}

/// `xs[i] /= z` in place (softmax normalisation).
pub(crate) fn div_inplace(be: Backend, xs: &mut [f32], z: f32) {
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar {
        // SAFETY: vector backends imply avx2 support (see `backend()`).
        unsafe { div_inplace_avx2(xs, z) };
        return;
    }
    let _ = be;
    for x in xs {
        *x /= z;
    }
}

// ----------------------------------------------------------------------
// Lane-structured reductions (fixed virtual width, hardware-independent)
// ----------------------------------------------------------------------

/// Virtual lane count of the `dot` accumulator structure.
const DOT_LANES: usize = 32;
/// Virtual lane count of the row max/sum structure.
const ROW_LANES: usize = 8;

/// `max_ps(a, b)` semantics: `a` if `a > b`, else `b` (ties and NaN take
/// `b`). Shared by the scalar mirror and the vector tail so both fold
/// identically.
#[inline(always)]
fn maxps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// The per-element term of a 32-lane sum: `x·y`, or `(x−y)²` when
/// `DIFF`. The AVX2 body performs the same IEEE-754 ops per lane (no FMA),
/// so the lane structure alone fixes the bits.
#[inline(always)]
fn term<const DIFF: bool>(x: f32, y: f32) -> f32 {
    if DIFF {
        let d = x - y;
        d * d
    } else {
        x * y
    }
}

/// Dot product with the fixed 32-lane accumulator structure.
pub(crate) fn dot(be: Backend, a: &[f32], b: &[f32]) -> f32 {
    lanes32::<false>(be, a, b)
}

/// Squared Euclidean distance `Σ (a_i − b_i)²`, with the same 32-lane
/// structure as [`dot`].
pub(crate) fn l2sq(be: Backend, a: &[f32], b: &[f32]) -> f32 {
    lanes32::<true>(be, a, b)
}

/// `Σ term(a_i, b_i)` with the fixed 32-lane structure shared by every
/// cross-element sum of two slices.
#[inline(always)]
fn lanes32<const DIFF: bool>(be: Backend, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar {
        // SAFETY: vector backends imply avx2 support (see `backend()`).
        return unsafe { lanes32_avx2::<DIFF>(a, b) };
    }
    let _ = be;
    lanes32_scalar::<DIFF>(a, b)
}

/// Scalar twin of the 32-lane sum: stride-32 partial sums, pairwise
/// 32→8 fold, then the 8-lane tree the AVX horizontal sum performs, then
/// the tail in order.
fn lanes32_scalar<const DIFF: bool>(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let blocks = n / DOT_LANES;
    let mut acc = [0.0f32; DOT_LANES];
    for i in 0..blocks {
        let base = i * DOT_LANES;
        for (w, aw) in acc.iter_mut().enumerate() {
            *aw += term::<DIFF>(a[base + w], b[base + w]);
        }
    }
    let mut s = hsum8_tree(core::array::from_fn(|j| {
        (acc[j] + acc[j + 8]) + (acc[j + 16] + acc[j + 24])
    }));
    for i in blocks * DOT_LANES..n {
        s += term::<DIFF>(a[i], b[i]);
    }
    s
}

/// The fixed 8-lane horizontal-sum tree (the `vextractf128`/`movehl`/
/// `shuffle` order of the AVX reduction).
#[inline(always)]
fn hsum8_tree(t: [f32; 8]) -> f32 {
    ((t[0] + t[4]) + (t[2] + t[6])) + ((t[1] + t[5]) + (t[3] + t[7]))
}

/// The fixed 8-lane horizontal-max tree, with [`maxps`] at every node.
#[inline(always)]
fn hmax8_tree(t: [f32; 8]) -> f32 {
    maxps(
        maxps(maxps(t[0], t[4]), maxps(t[2], t[6])),
        maxps(maxps(t[1], t[5]), maxps(t[3], t[7])),
    )
}

/// Maximum of a slice with the fixed 8-lane structure (`-inf` for empty).
pub(crate) fn row_max(be: Backend, xs: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar {
        // SAFETY: vector backends imply avx2 support (see `backend()`).
        return unsafe { row_max_avx2(xs) };
    }
    let _ = be;
    row_max_scalar(xs)
}

fn row_max_scalar(xs: &[f32]) -> f32 {
    let blocks = xs.len() / ROW_LANES;
    let mut acc = [f32::NEG_INFINITY; ROW_LANES];
    for i in 0..blocks {
        let base = i * ROW_LANES;
        for (w, aw) in acc.iter_mut().enumerate() {
            *aw = maxps(*aw, xs[base + w]);
        }
    }
    let mut m = hmax8_tree(acc);
    for &x in &xs[blocks * ROW_LANES..] {
        m = maxps(m, x);
    }
    m
}

/// Sum of a slice with the fixed 8-lane structure (0 for empty).
pub(crate) fn row_sum(be: Backend, xs: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar {
        // SAFETY: vector backends imply avx2 support (see `backend()`).
        return unsafe { row_sum_avx2(xs) };
    }
    let _ = be;
    row_sum_scalar(xs)
}

fn row_sum_scalar(xs: &[f32]) -> f32 {
    let blocks = xs.len() / ROW_LANES;
    let mut acc = [0.0f32; ROW_LANES];
    for i in 0..blocks {
        let base = i * ROW_LANES;
        for (w, aw) in acc.iter_mut().enumerate() {
            *aw += xs[base + w];
        }
    }
    let mut s = hsum8_tree(acc);
    for &x in &xs[blocks * ROW_LANES..] {
        s += x;
    }
    s
}

// ----------------------------------------------------------------------
// Register-blocked matmul row kernel
// ----------------------------------------------------------------------

/// Accumulates `out[j] += sum_l a[a_off + l*a_stride] * b[l*n + j]` for one
/// output row, ascending `l` per element — the exact per-element op
/// sequence of the scalar `ikj` kernel. `a_stride = 1` walks a row of `a`
/// (plain matmul); `a_stride = m` walks a column (`aᵀ·b`).
///
/// The vector paths hold a tile of the output row in registers (6×f32x8 on
/// AVX2, 4×f32x16 on AVX-512) and stream rows of `b` through it, so each
/// output element is loaded and stored exactly once per call. Columns past
/// the last full tile go one vector at a time, the last step under a lane
/// mask, so a width like the conv's 230 never falls back to scalar.
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_times_mat(
    be: Backend,
    a: &[f32],
    a_off: usize,
    a_stride: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), n);
    debug_assert!(k == 0 || a_off + (k - 1) * a_stride < a.len());
    debug_assert!(b.len() >= k * n);
    match be {
        Backend::Scalar => row_times_mat_scalar(a, a_off, a_stride, k, b, n, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only reported when avx2 is detected; the bounds
        // above are the `assert_eq!`s of `matmul_into` / `matmul_tn_into`.
        Backend::Avx2 => unsafe { row_times_mat_avx2(a, a_off, a_stride, k, b, n, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx512 is only reported when avx512f is detected; bounds
        // as for Avx2.
        Backend::Avx512 => unsafe { row_times_mat_avx512(a, a_off, a_stride, k, b, n, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => row_times_mat_scalar(a, a_off, a_stride, k, b, n, out),
    }
}

/// Accumulates a block of `nrows` consecutive output rows, where row `r`
/// reads `a` starting at `a_off + r*a_row_step` with stride `a_stride` and
/// writes `out[r*n .. (r+1)*n]`:
///
/// `out[r*n + j] += Σ_l a[a_off + r*a_row_step + l*a_stride] · b[l*n + j]`
///
/// Semantically this is `nrows` independent [`row_times_mat`] calls — and
/// on the scalar backend it is exactly that. The vector backends process
/// rows in groups of four so every `b` vector load is reused by four
/// output rows (register blocking in the M dimension, quartering the `b`
/// stream traffic that dominates the single-row kernel); each output
/// element still accumulates in ascending-`l` order in its own register
/// lane, so the row grouping is invisible in the bits.
///
/// `matmul` passes `a_row_step = k, a_stride = 1` (consecutive rows of
/// `a`); `matmul_tn` passes `a_row_step = 1, a_stride = m` (consecutive
/// columns).
#[allow(clippy::too_many_arguments)]
pub(crate) fn rows_times_mat(
    be: Backend,
    a: &[f32],
    a_off: usize,
    a_row_step: usize,
    a_stride: usize,
    nrows: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), nrows * n);
    let mut r = 0;
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar {
        while r + 4 <= nrows {
            let offs = [
                a_off + r * a_row_step,
                a_off + (r + 1) * a_row_step,
                a_off + (r + 2) * a_row_step,
                a_off + (r + 3) * a_row_step,
            ];
            let chunk = &mut out[r * n..(r + 4) * n];
            // SAFETY: vector backends imply the matching CPU features. The
            // `a` and `b` reads stay in bounds by the `assert_eq!`s of
            // `matmul_into` / `matmul_tn_into`, the only callers; `chunk`
            // is a checked slice of exactly `4n`.
            unsafe {
                if be == Backend::Avx512 {
                    rows4_times_mat_avx512(a, offs, a_stride, k, b, n, chunk);
                } else {
                    rows4_times_mat_avx2(a, offs, a_stride, k, b, n, chunk);
                }
            }
            r += 4;
        }
    }
    for rr in r..nrows {
        row_times_mat(
            be,
            a,
            a_off + rr * a_row_step,
            a_stride,
            k,
            b,
            n,
            &mut out[rr * n..(rr + 1) * n],
        );
    }
}

/// Scalar reference: the `ikj` rank-1-update sweep, cache-blocked over the
/// reduction in `KC`-sized panels. Per element the accumulation is still
/// plain ascending `l` (blocks are visited in order), so blocking is
/// invisible in the bits.
fn row_times_mat_scalar(
    a: &[f32],
    a_off: usize,
    a_stride: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    /// Reduction block: `KC × n` floats of `b` stay hot in L1/L2.
    const KC: usize = 128;
    for k0 in (0..k).step_by(KC) {
        let k1 = (k0 + KC).min(k);
        for l in k0..k1 {
            let al = a[a_off + l * a_stride];
            let brow = &b[l * n..(l + 1) * n];
            for (oj, &bj) in out.iter_mut().zip(brow) {
                *oj += al * bj;
            }
        }
    }
}

// ----------------------------------------------------------------------
// x86-64 vector implementations
// ----------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{hmax8_tree, hsum8_tree, maxps, term, EwOp, DOT_LANES, ROW_LANES};
    use core::arch::x86_64::*;

    /// # Safety
    /// Requires AVX2. Slices must satisfy the caller's length contracts.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ew_avx2(op: EwOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (ap, bp, op_) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let va = _mm256_loadu_ps(ap.add(i));
            let vb = _mm256_loadu_ps(bp.add(i));
            let v = match op {
                EwOp::Add => _mm256_add_ps(va, vb),
                EwOp::Sub => _mm256_sub_ps(va, vb),
                EwOp::Mul => _mm256_mul_ps(va, vb),
                EwOp::Div => _mm256_div_ps(va, vb),
            };
            _mm256_storeu_ps(op_.add(i), v);
            i += 8;
        }
        for j in i..n {
            out[j] = super::ew_scalar_one(op, a[j], b[j]);
        }
    }

    /// # Safety
    /// Requires AVX2; `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_assign_avx2(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(dp.add(i)), _mm256_loadu_ps(sp.add(i)));
            _mm256_storeu_ps(dp.add(i), v);
            i += 8;
        }
        for j in i..n {
            dst[j] += src[j];
        }
    }

    /// # Safety
    /// Requires AVX2; `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(dst: &mut [f32], alpha: f32, src: &[f32]) {
        let n = dst.len();
        let va = _mm256_set1_ps(alpha);
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_add_ps(
                _mm256_loadu_ps(dp.add(i)),
                _mm256_mul_ps(va, _mm256_loadu_ps(sp.add(i))),
            );
            _mm256_storeu_ps(dp.add(i), v);
            i += 8;
        }
        for j in i..n {
            dst[j] += alpha * src[j];
        }
    }

    /// # Safety
    /// Requires AVX2; `a.len() == out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_avx2(a: &[f32], s: f32, out: &mut [f32]) {
        let n = out.len();
        let vs = _mm256_set1_ps(s);
        let (ap, op_) = (a.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(op_.add(i), _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), vs));
            i += 8;
        }
        for j in i..n {
            out[j] = a[j] * s;
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn div_inplace_avx2(xs: &mut [f32], z: f32) {
        let n = xs.len();
        let vz = _mm256_set1_ps(z);
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(p.add(i), _mm256_div_ps(_mm256_loadu_ps(p.add(i)), vz));
            i += 8;
        }
        for x in xs.iter_mut().skip(i) {
            *x /= z;
        }
    }

    /// The 8-lane horizontal sum in the fixed tree order of
    /// [`hsum8_tree`]: low+high 128-bit halves, `movehl`, then lane 1.
    #[inline(always)]
    unsafe fn hsum8(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s4 = _mm_add_ps(lo, hi);
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));
        _mm_cvtss_f32(s1)
    }

    /// The 8-lane horizontal max in the same fixed tree order.
    #[inline(always)]
    unsafe fn hmax8(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s4 = _mm_max_ps(lo, hi);
        let s2 = _mm_max_ps(s4, _mm_movehl_ps(s4, s4));
        let s1 = _mm_max_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));
        _mm_cvtss_f32(s1)
    }

    /// The 32-lane sum of [`super::lanes32`]: four 8-lane accumulators
    /// whose lane `w` of register `r` is virtual lane `8r + w`.
    ///
    /// # Safety
    /// Requires AVX2; `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lanes32_avx2<const DIFF: bool>(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let blocks = n / DOT_LANES;
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let lanes = |off: usize| {
            let (x, y) = (_mm256_loadu_ps(ap.add(off)), _mm256_loadu_ps(bp.add(off)));
            if DIFF {
                let d = _mm256_sub_ps(x, y);
                _mm256_mul_ps(d, d)
            } else {
                _mm256_mul_ps(x, y)
            }
        };
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut c2 = _mm256_setzero_ps();
        let mut c3 = _mm256_setzero_ps();
        for i in 0..blocks {
            let base = i * DOT_LANES;
            c0 = _mm256_add_ps(c0, lanes(base));
            c1 = _mm256_add_ps(c1, lanes(base + 8));
            c2 = _mm256_add_ps(c2, lanes(base + 16));
            c3 = _mm256_add_ps(c3, lanes(base + 24));
        }
        // 32 → 8 lanes: (c0+c1) + (c2+c3), lane j = (v[j]+v[j+8]) + (v[j+16]+v[j+24]).
        let t = _mm256_add_ps(_mm256_add_ps(c0, c1), _mm256_add_ps(c2, c3));
        let mut s = hsum8(t);
        for i in blocks * DOT_LANES..n {
            s += term::<DIFF>(a[i], b[i]);
        }
        s
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_max_avx2(xs: &[f32]) -> f32 {
        let n = xs.len();
        let blocks = n / ROW_LANES;
        let p = xs.as_ptr();
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        for i in 0..blocks {
            acc = _mm256_max_ps(acc, _mm256_loadu_ps(p.add(i * ROW_LANES)));
        }
        let mut m = hmax8(acc);
        for &x in &xs[blocks * ROW_LANES..] {
            m = maxps(m, x);
        }
        m
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_sum_avx2(xs: &[f32]) -> f32 {
        let n = xs.len();
        let blocks = n / ROW_LANES;
        let p = xs.as_ptr();
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(p.add(i * ROW_LANES)));
        }
        let mut s = hsum8(acc);
        for &x in &xs[blocks * ROW_LANES..] {
            s += x;
        }
        s
    }

    /// # Safety
    /// Requires AVX2; bounds as in [`super::row_times_mat`].
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn row_times_mat_avx2(
        a: &[f32],
        a_off: usize,
        a_stride: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let ap = a.as_ptr().add(a_off);
        let bp = b.as_ptr();
        let op_ = out.as_mut_ptr();
        let mut j = 0;
        // 48-wide register tile: 6 accumulators live across the whole
        // reduction; each output element is loaded/stored exactly once.
        while j + 48 <= n {
            let o = op_.add(j);
            let mut c0 = _mm256_loadu_ps(o);
            let mut c1 = _mm256_loadu_ps(o.add(8));
            let mut c2 = _mm256_loadu_ps(o.add(16));
            let mut c3 = _mm256_loadu_ps(o.add(24));
            let mut c4 = _mm256_loadu_ps(o.add(32));
            let mut c5 = _mm256_loadu_ps(o.add(40));
            for l in 0..k {
                let va = _mm256_set1_ps(*ap.add(l * a_stride));
                let br = bp.add(l * n + j);
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, _mm256_loadu_ps(br)));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(va, _mm256_loadu_ps(br.add(8))));
                c2 = _mm256_add_ps(c2, _mm256_mul_ps(va, _mm256_loadu_ps(br.add(16))));
                c3 = _mm256_add_ps(c3, _mm256_mul_ps(va, _mm256_loadu_ps(br.add(24))));
                c4 = _mm256_add_ps(c4, _mm256_mul_ps(va, _mm256_loadu_ps(br.add(32))));
                c5 = _mm256_add_ps(c5, _mm256_mul_ps(va, _mm256_loadu_ps(br.add(40))));
            }
            _mm256_storeu_ps(o, c0);
            _mm256_storeu_ps(o.add(8), c1);
            _mm256_storeu_ps(o.add(16), c2);
            _mm256_storeu_ps(o.add(24), c3);
            _mm256_storeu_ps(o.add(32), c4);
            _mm256_storeu_ps(o.add(40), c5);
            j += 48;
        }
        // The rest 8 columns at a time; the last step's mask keeps the
        // lanes below `n`. Masked-off lanes load zeros and are never stored.
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        while j < n {
            let m = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - j).min(8) as i32), lane);
            let o = op_.add(j);
            let mut c0 = _mm256_maskload_ps(o, m);
            for l in 0..k {
                let va = _mm256_set1_ps(*ap.add(l * a_stride));
                let b0 = _mm256_maskload_ps(bp.add(l * n + j), m);
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(va, b0));
            }
            _mm256_maskstore_ps(o, m, c0);
            j += 8;
        }
    }

    /// # Safety
    /// Requires AVX-512F; bounds as in [`super::row_times_mat`].
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn row_times_mat_avx512(
        a: &[f32],
        a_off: usize,
        a_stride: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let ap = a.as_ptr().add(a_off);
        let bp = b.as_ptr();
        let op_ = out.as_mut_ptr();
        let mut j = 0;
        // 64-wide register tile: 4 zmm accumulators across the reduction.
        while j + 64 <= n {
            let o = op_.add(j);
            let mut c0 = _mm512_loadu_ps(o);
            let mut c1 = _mm512_loadu_ps(o.add(16));
            let mut c2 = _mm512_loadu_ps(o.add(32));
            let mut c3 = _mm512_loadu_ps(o.add(48));
            for l in 0..k {
                let va = _mm512_set1_ps(*ap.add(l * a_stride));
                let br = bp.add(l * n + j);
                c0 = _mm512_add_ps(c0, _mm512_mul_ps(va, _mm512_loadu_ps(br)));
                c1 = _mm512_add_ps(c1, _mm512_mul_ps(va, _mm512_loadu_ps(br.add(16))));
                c2 = _mm512_add_ps(c2, _mm512_mul_ps(va, _mm512_loadu_ps(br.add(32))));
                c3 = _mm512_add_ps(c3, _mm512_mul_ps(va, _mm512_loadu_ps(br.add(48))));
            }
            _mm512_storeu_ps(o, c0);
            _mm512_storeu_ps(o.add(16), c1);
            _mm512_storeu_ps(o.add(32), c2);
            _mm512_storeu_ps(o.add(48), c3);
            j += 64;
        }
        // The rest 16 columns at a time; the last step's mask keeps the
        // lanes below `n`. Masked-off lanes load zeros and are never stored.
        while j < n {
            let m = ((1u32 << (n - j).min(16)) - 1) as __mmask16;
            let o = op_.add(j);
            let mut c0 = _mm512_maskz_loadu_ps(m, o);
            for l in 0..k {
                let va = _mm512_set1_ps(*ap.add(l * a_stride));
                let b0 = _mm512_maskz_loadu_ps(m, bp.add(l * n + j));
                c0 = _mm512_add_ps(c0, _mm512_mul_ps(va, b0));
            }
            _mm512_mask_storeu_ps(o, m, c0);
            j += 16;
        }
    }

    /// Four output rows at once, 4×16 register tile: 8 ymm accumulators
    /// stay live across the whole reduction and every 8-lane load of `b`
    /// feeds all four rows. Each element's own accumulator chain is still
    /// ascending-`l` — bit-identical to four single-row calls.
    ///
    /// # Safety
    /// Requires AVX2; `offs[r] + (k-1)*a_stride` in bounds, `out.len() == 4n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rows4_times_mat_avx2(
        a: &[f32],
        offs: [usize; 4],
        a_stride: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let ap = a.as_ptr();
        let a0 = ap.add(offs[0]);
        let a1 = ap.add(offs[1]);
        let a2 = ap.add(offs[2]);
        let a3 = ap.add(offs[3]);
        let bp = b.as_ptr();
        let op_ = out.as_mut_ptr();
        let mut j = 0;
        while j + 16 <= n {
            let mut c00 = _mm256_loadu_ps(op_.add(j));
            let mut c01 = _mm256_loadu_ps(op_.add(j + 8));
            let mut c10 = _mm256_loadu_ps(op_.add(n + j));
            let mut c11 = _mm256_loadu_ps(op_.add(n + j + 8));
            let mut c20 = _mm256_loadu_ps(op_.add(2 * n + j));
            let mut c21 = _mm256_loadu_ps(op_.add(2 * n + j + 8));
            let mut c30 = _mm256_loadu_ps(op_.add(3 * n + j));
            let mut c31 = _mm256_loadu_ps(op_.add(3 * n + j + 8));
            for l in 0..k {
                let br = bp.add(l * n + j);
                let b0 = _mm256_loadu_ps(br);
                let b1 = _mm256_loadu_ps(br.add(8));
                let s = l * a_stride;
                let va0 = _mm256_set1_ps(*a0.add(s));
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(va0, b0));
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(va0, b1));
                let va1 = _mm256_set1_ps(*a1.add(s));
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(va1, b0));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(va1, b1));
                let va2 = _mm256_set1_ps(*a2.add(s));
                c20 = _mm256_add_ps(c20, _mm256_mul_ps(va2, b0));
                c21 = _mm256_add_ps(c21, _mm256_mul_ps(va2, b1));
                let va3 = _mm256_set1_ps(*a3.add(s));
                c30 = _mm256_add_ps(c30, _mm256_mul_ps(va3, b0));
                c31 = _mm256_add_ps(c31, _mm256_mul_ps(va3, b1));
            }
            _mm256_storeu_ps(op_.add(j), c00);
            _mm256_storeu_ps(op_.add(j + 8), c01);
            _mm256_storeu_ps(op_.add(n + j), c10);
            _mm256_storeu_ps(op_.add(n + j + 8), c11);
            _mm256_storeu_ps(op_.add(2 * n + j), c20);
            _mm256_storeu_ps(op_.add(2 * n + j + 8), c21);
            _mm256_storeu_ps(op_.add(3 * n + j), c30);
            _mm256_storeu_ps(op_.add(3 * n + j + 8), c31);
            j += 16;
        }
        // The rest 8 columns at a time, the last step masked as in
        // `row_times_mat_avx2`.
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        while j < n {
            let m = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - j).min(8) as i32), lane);
            let mut c0 = _mm256_maskload_ps(op_.add(j), m);
            let mut c1 = _mm256_maskload_ps(op_.add(n + j), m);
            let mut c2 = _mm256_maskload_ps(op_.add(2 * n + j), m);
            let mut c3 = _mm256_maskload_ps(op_.add(3 * n + j), m);
            for l in 0..k {
                let b0 = _mm256_maskload_ps(bp.add(l * n + j), m);
                let s = l * a_stride;
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(*a0.add(s)), b0));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(*a1.add(s)), b0));
                c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(*a2.add(s)), b0));
                c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(*a3.add(s)), b0));
            }
            _mm256_maskstore_ps(op_.add(j), m, c0);
            _mm256_maskstore_ps(op_.add(n + j), m, c1);
            _mm256_maskstore_ps(op_.add(2 * n + j), m, c2);
            _mm256_maskstore_ps(op_.add(3 * n + j), m, c3);
            j += 8;
        }
    }

    /// Four output rows at once, 4×32 register tile: 8 zmm accumulators,
    /// every 16-lane load of `b` reused by all four rows. Same ascending-`l`
    /// per-element chains as the scalar kernel.
    ///
    /// # Safety
    /// Requires AVX-512F; bounds as in [`rows4_times_mat_avx2`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn rows4_times_mat_avx512(
        a: &[f32],
        offs: [usize; 4],
        a_stride: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let ap = a.as_ptr();
        let a0 = ap.add(offs[0]);
        let a1 = ap.add(offs[1]);
        let a2 = ap.add(offs[2]);
        let a3 = ap.add(offs[3]);
        let bp = b.as_ptr();
        let op_ = out.as_mut_ptr();
        let mut j = 0;
        while j + 32 <= n {
            let mut c00 = _mm512_loadu_ps(op_.add(j));
            let mut c01 = _mm512_loadu_ps(op_.add(j + 16));
            let mut c10 = _mm512_loadu_ps(op_.add(n + j));
            let mut c11 = _mm512_loadu_ps(op_.add(n + j + 16));
            let mut c20 = _mm512_loadu_ps(op_.add(2 * n + j));
            let mut c21 = _mm512_loadu_ps(op_.add(2 * n + j + 16));
            let mut c30 = _mm512_loadu_ps(op_.add(3 * n + j));
            let mut c31 = _mm512_loadu_ps(op_.add(3 * n + j + 16));
            for l in 0..k {
                let br = bp.add(l * n + j);
                let b0 = _mm512_loadu_ps(br);
                let b1 = _mm512_loadu_ps(br.add(16));
                let s = l * a_stride;
                let va0 = _mm512_set1_ps(*a0.add(s));
                c00 = _mm512_add_ps(c00, _mm512_mul_ps(va0, b0));
                c01 = _mm512_add_ps(c01, _mm512_mul_ps(va0, b1));
                let va1 = _mm512_set1_ps(*a1.add(s));
                c10 = _mm512_add_ps(c10, _mm512_mul_ps(va1, b0));
                c11 = _mm512_add_ps(c11, _mm512_mul_ps(va1, b1));
                let va2 = _mm512_set1_ps(*a2.add(s));
                c20 = _mm512_add_ps(c20, _mm512_mul_ps(va2, b0));
                c21 = _mm512_add_ps(c21, _mm512_mul_ps(va2, b1));
                let va3 = _mm512_set1_ps(*a3.add(s));
                c30 = _mm512_add_ps(c30, _mm512_mul_ps(va3, b0));
                c31 = _mm512_add_ps(c31, _mm512_mul_ps(va3, b1));
            }
            _mm512_storeu_ps(op_.add(j), c00);
            _mm512_storeu_ps(op_.add(j + 16), c01);
            _mm512_storeu_ps(op_.add(n + j), c10);
            _mm512_storeu_ps(op_.add(n + j + 16), c11);
            _mm512_storeu_ps(op_.add(2 * n + j), c20);
            _mm512_storeu_ps(op_.add(2 * n + j + 16), c21);
            _mm512_storeu_ps(op_.add(3 * n + j), c30);
            _mm512_storeu_ps(op_.add(3 * n + j + 16), c31);
            j += 32;
        }
        // The rest 16 columns at a time, the last step masked as in
        // `row_times_mat_avx512`.
        while j < n {
            let m = ((1u32 << (n - j).min(16)) - 1) as __mmask16;
            let mut c0 = _mm512_maskz_loadu_ps(m, op_.add(j));
            let mut c1 = _mm512_maskz_loadu_ps(m, op_.add(n + j));
            let mut c2 = _mm512_maskz_loadu_ps(m, op_.add(2 * n + j));
            let mut c3 = _mm512_maskz_loadu_ps(m, op_.add(3 * n + j));
            for l in 0..k {
                let b0 = _mm512_maskz_loadu_ps(m, bp.add(l * n + j));
                let s = l * a_stride;
                c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(*a0.add(s)), b0));
                c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(*a1.add(s)), b0));
                c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(*a2.add(s)), b0));
                c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(*a3.add(s)), b0));
            }
            _mm512_mask_storeu_ps(op_.add(j), m, c0);
            _mm512_mask_storeu_ps(op_.add(n + j), m, c1);
            _mm512_mask_storeu_ps(op_.add(2 * n + j), m, c2);
            _mm512_mask_storeu_ps(op_.add(3 * n + j), m, c3);
            j += 16;
        }
    }

    // Silence "unused" for the tree mirrors referenced only in docs here.
    const _: fn([f32; 8]) -> f32 = hsum8_tree;
    const _: fn([f32; 8]) -> f32 = hmax8_tree;
}

#[cfg(target_arch = "x86_64")]
use x86::{
    add_assign_avx2, axpy_avx2, div_inplace_avx2, ew_avx2, lanes32_avx2, row_max_avx2,
    row_sum_avx2, row_times_mat_avx2, row_times_mat_avx512, rows4_times_mat_avx2,
    rows4_times_mat_avx512, scale_avx2,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    /// Every lane-structured reduction must agree bitwise between the
    /// scalar mirror and the vector path, at sizes crossing every tail.
    #[test]
    fn lane_structured_reductions_bitwise_match_scalar() {
        for n in [0usize, 1, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 257] {
            let a = seq(n, |i| ((i * 37 + 11) % 101) as f32 * 0.173 - 6.0);
            let b = seq(n, |i| ((i * 53 + 29) % 97) as f32 * 0.211 - 9.0);
            let want_dot = dot(Backend::Scalar, &a, &b);
            let want_max = row_max(Backend::Scalar, &a);
            let want_sum = row_sum(Backend::Scalar, &a);
            let hw = hardware_backend();
            assert_eq!(dot(hw, &a, &b).to_bits(), want_dot.to_bits(), "dot n={n}");
            assert_eq!(row_max(hw, &a).to_bits(), want_max.to_bits(), "max n={n}");
            assert_eq!(row_sum(hw, &a).to_bits(), want_sum.to_bits(), "sum n={n}");
        }
    }

    /// The row microkernel must agree bitwise with the scalar KC-blocked
    /// sweep across tile widths (full 64/48-wide tiles, then 16/8-lane
    /// steps whose last one is masked) and both strides.
    #[test]
    fn row_times_mat_bitwise_matches_scalar() {
        for (k, n) in [
            (1usize, 1usize),
            (3, 7),
            (5, 8),
            (7, 47),
            (130, 49),
            (9, 65),
            (17, 131),
        ] {
            let a = seq(k * 2, |i| (i as f32 * 0.37).sin());
            let b = seq(k * n, |i| (i as f32 * 0.11).cos());
            for stride in [1usize, 2] {
                let mut want = seq(n, |i| i as f32 * 0.01 - 0.3);
                let mut got = want.clone();
                row_times_mat(Backend::Scalar, &a, 0, stride, k, &b, n, &mut want);
                row_times_mat(hardware_backend(), &a, 0, stride, k, &b, n, &mut got);
                for (j, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "k={k} n={n} stride={stride} j={j}"
                    );
                }
            }
        }
    }

    /// The 4-row register tiles and their row/column tails, on every tier,
    /// must be bitwise equal to per-row scalar calls for both access
    /// patterns: `matmul` (`a_row_step = k, a_stride = 1`) and `matmul_tn`
    /// (`a_row_step = 1, a_stride = m`). Row counts straddle the 4-row
    /// grouping. Widths are the ones the model runs (53 relations, 230
    /// filters, 690 = 3·230) and every masked tail: `n` in 1..=33 leaves
    /// 1..15 columns past a 16-lane step and 1..7 past an 8-lane one. `a`,
    /// `b` and `out` are cut to exactly their length from NaN-padded
    /// buffers, so the last masked step touches the last element of each
    /// slice: reading past `a` or `b` into a stored lane would change its
    /// bits, and writing past `out` would clobber the pad.
    #[test]
    fn rows_times_mat_bitwise_matches_scalar() {
        const PAD: usize = 16;
        let padded = |len: usize, f: fn(usize) -> f32| {
            let mut v = seq(len + PAD, f);
            v[len..].fill(f32::NAN);
            v
        };
        let tiers =
            [Backend::Scalar, Backend::Avx2, Backend::Avx512].map(|be| with_backend(be, backend));
        for n in (1..=33).chain([53, 230, 690]) {
            for k in [1usize, 180, 690] {
                let b = padded(k * n, |i| ((i * 53 + 29) % 97) as f32 * 0.021 - 1.0);
                for nrows in 1..=9 {
                    let a = padded(nrows * k, |i| (i as f32 * 0.37).sin());
                    let init = |i: usize| i as f32 * 0.01 - 0.3;
                    for (a_row_step, a_stride) in [(k, 1usize), (1usize, nrows)] {
                        let mut want = seq(nrows * n, init);
                        for (r, row) in want.chunks_mut(n).enumerate() {
                            let (a, b) = (&a[..nrows * k], &b[..k * n]);
                            row_times_mat_scalar(a, r * a_row_step, a_stride, k, b, n, row);
                        }
                        for be in tiers {
                            let mut got = padded(nrows * n, init);
                            rows_times_mat(
                                be,
                                &a[..nrows * k],
                                0,
                                a_row_step,
                                a_stride,
                                nrows,
                                k,
                                &b[..k * n],
                                n,
                                &mut got[..nrows * n],
                            );
                            let at = format!(
                                "{} nrows={nrows} k={k} n={n} a_stride={a_stride}",
                                be.name()
                            );
                            for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                                assert_eq!(w.to_bits(), g.to_bits(), "{at} i={i}");
                            }
                            assert!(got[nrows * n..].iter().all(|x| x.is_nan()), "{at} pad");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn with_backend_overrides_and_restores() {
        let before = backend();
        let inside = with_backend(Backend::Scalar, backend);
        assert_eq!(inside, Backend::Scalar);
        assert_eq!(backend(), before);
    }

    #[test]
    fn counters_are_monotone() {
        let (v0, s0) = (vector_kernels(), scalar_kernels());
        note(Backend::Scalar);
        note(Backend::Avx2);
        assert!(scalar_kernels() > s0);
        assert!(vector_kernels() > v0);
    }
}
