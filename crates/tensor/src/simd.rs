//! Runtime-dispatched SIMD tiers for the hot `*_into` kernels, with one
//! body per kernel. DESIGN.md §4c has the measurements behind the choices.
//!
//! **Tiers.** Scalar (always available, the only tier off x86-64), Avx2
//! (8-lane `__m256`) and Avx512 (16-lane `__m512` matmul tiles; every other
//! kernel runs as on Avx2). The tier picks what a body is compiled for:
//!
//! * The matmul row tiles (`rows_times_mat`) and the float reductions
//!   (`dot`, `l2sq`, `row_max`, `row_sum`) are generic over
//!   `Lanes`, a register of `W` f32 lanes: `[f32; 8]` on the scalar tier,
//!   `__m256`/`__m512` on the vector tiers. A plain loop would not do for
//!   the reductions: LLVM keeps a 32-partial array sum scalar even when
//!   compiled for AVX2.
//! * Every other kernel (`ew`, `add_assign`, `axpy`, `scale`,
//!   `div_inplace`, and `quant`'s `qdot`/`dequant`) is its plain scalar
//!   loop, run through `on_tier`: directly on the scalar tier, inside one
//!   `#[target_feature(enable = "avx2")]` shim on the vector tiers, where
//!   LLVM vectorizes it.
//!
//! **Bit-identity contract.** The tiers are *bit-identical* by
//! construction. Per output element every tier performs the same IEEE-754
//! `mul`/`add`/`div` in the same order, with no FMA anywhere (a fused
//! multiply-add rounds differently); a matmul row's last columns run as one
//! masked step whose masked-off lanes load zeros and are never stored.
//! Cross-element reductions have a **fixed virtual lane structure** that is
//! part of their definition: `dot` and `l2sq` sum their term (`a·b`,
//! `(a−b)²`) into 32 stride-32 partials, fold them in a fixed tree and add
//! the tail in order; row max/sum use 8 stride-8 lanes. Those bodies only
//! run at 8-lane types (`Lanes8`), so the structure never widens with
//! the hardware.
//!
//! **Dispatch.** [`backend()`] resolves once per kernel call on the caller
//! thread (so a scoped override travels into pool workers with the task
//! closure): a [`with_backend`] override, else the process-wide detection —
//! `IMRE_FORCE_SCALAR=1` pins the scalar tier, otherwise the best the CPU
//! reports. The counters [`vector_kernels`] / [`scalar_kernels`] let tests
//! and CI assert which path was taken.
//!
//! **Where `unsafe` lives.** In the `Lanes` impls of the register types
//! (each intrinsic, and the raw-pointer load/store methods), at the
//! `#[target_feature]` shim calls, and in the generic bodies, which walk
//! raw pointers as `unsafe fn`s. Every safe function that hands slices to
//! a body `assert!`s, once per call, the lengths the body relies on.
//! Loads and stores are unaligned; correctness never depends on alignment.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// One of the available kernel implementations. Ordered by capability.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Backend {
    /// Plain Rust loops; always available, bit-identical to the vector paths.
    Scalar,
    /// 8-lane AVX2 kernels (x86-64 with `avx2`).
    Avx2,
    /// 16-lane matmul tiles and the AVX-512 int8 kernels (x86-64 with
    /// `avx512f`, `avx512bw` and `avx512vl`; implies the AVX2 tier).
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
/// `Avx512` needs the byte (`avx512bw`) and 256-bit (`avx512vl`) forms the
/// int8 kernels use, so a part with `avx512f` alone runs the AVX2 tier —
/// with the same bits.
pub fn hardware_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl")
        {
            return Backend::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
    }
    Backend::Scalar
}

/// Whether `be` runs the AVX-512 VNNI int8 kernels: the Avx512 tier on a
/// CPU that also has `avx512vnni`. A [`with_backend`] override below
/// Avx512 turns them off.
pub(crate) fn vnni(be: Backend) -> bool {
    #[cfg(target_arch = "x86_64")]
    if be == Backend::Avx512 {
        static VNNI: OnceLock<bool> = OnceLock::new();
        return *VNNI.get_or_init(|| is_x86_feature_detected!("avx512vnni"));
    }
    let _ = be;
    false
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
// The tier shims
// ----------------------------------------------------------------------

/// Runs `f` compiled for `be`: inside the AVX2 shim on a vector tier,
/// where LLVM vectorizes a plain loop to 8 lanes, and directly on the
/// scalar tier. Every kernel without a cross-element float reduction goes
/// through here as its plain scalar loop; its bits cannot depend on the
/// tier, since it makes no cross-element float reduction and no fused op.
#[inline(always)]
pub(crate) fn on_tier<R>(be: Backend, f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if be != Backend::Scalar {
        // SAFETY: `backend()` reports a vector tier only on a CPU with avx2.
        return unsafe { avx2(f) };
    }
    let _ = be;
    f()
}

/// `f`, inlined here and compiled with AVX2: the one shim every plain loop
/// and `__m256` body of the vector tiers runs in.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// `f`, inlined here and compiled with AVX-512F: the shim of the `__m512`
/// row tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
}

// ----------------------------------------------------------------------
// Lanes: the register vocabulary of the generic bodies
// ----------------------------------------------------------------------

/// A register of `W` f32 lanes, the one vocabulary the row tiles and the
/// reductions are written in: `[f32; 8]` is the scalar tier, `__m256` and
/// `__m512` the vector tiers.
///
/// Every op is the IEEE-754 op per lane, so a body computes the same bits
/// at every `L`, and none fuses a multiply-add. The register-type impls
/// run their intrinsics unchecked: a body is instantiated at a register
/// type only inside the shim ([`avx2`], [`avx512`]) of its tier, which
/// `backend()` selects only on a CPU that has the feature, and the trait
/// is private to this module, so no other code makes such a value.
trait Lanes: Copy {
    /// Lane count.
    const W: usize;
    /// Every lane `x`.
    fn splat(x: f32) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    /// [`maxps`] per lane.
    fn max(self, o: Self) -> Self;
    /// `W` lanes from `p`, unaligned.
    ///
    /// # Safety
    /// `p..p + W` is readable.
    unsafe fn load(p: *const f32) -> Self;
    /// `W` lanes to `p`, unaligned.
    ///
    /// # Safety
    /// `p..p + W` is writable.
    unsafe fn store(self, p: *mut f32);
    /// Lanes `0..live` from `p`, the rest zero; nothing past them is read.
    ///
    /// # Safety
    /// `live ≤ W` and `p..p + live` is readable.
    unsafe fn load_part(p: *const f32, live: usize) -> Self;
    /// Lanes `0..live` to `p`; nothing past them is written.
    ///
    /// # Safety
    /// `live ≤ W` and `p..p + live` is writable.
    unsafe fn store_part(self, p: *mut f32, live: usize);
}

/// An 8-lane [`Lanes`] with the fixed horizontal trees of the reductions
/// (the `vextractf128`/`movehl`/`shuffle` order of the AVX reduction).
trait Lanes8: Lanes {
    /// `((t0+t4) + (t2+t6)) + ((t1+t5) + (t3+t7))`.
    fn hsum8(self) -> f32;
    /// The same tree with [`maxps`] at every node.
    fn hmax8(self) -> f32;
}

/// `max_ps(a, b)` semantics: `a` if `a > b`, else `b` (ties and NaN take
/// `b`). The scalar lanes and every reduction tail fold with it, so they
/// agree with the vector `max` bit for bit.
#[inline(always)]
fn maxps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

impl Lanes for [f32; 8] {
    const W: usize = 8;
    #[inline(always)]
    fn splat(x: f32) -> Self {
        [x; 8]
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        core::array::from_fn(|i| self[i] + o[i])
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        core::array::from_fn(|i| self[i] - o[i])
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        core::array::from_fn(|i| self[i] * o[i])
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        core::array::from_fn(|i| maxps(self[i], o[i]))
    }
    // SAFETY: the four pointer methods keep the `# Safety` contracts of
    // `Lanes`, which their callers uphold.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        p.cast::<Self>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<Self>().write_unaligned(self)
    }
    #[inline(always)]
    unsafe fn load_part(p: *const f32, live: usize) -> Self {
        let mut v = [0.0; 8];
        v[..live].copy_from_slice(std::slice::from_raw_parts(p, live));
        v
    }
    #[inline(always)]
    unsafe fn store_part(self, p: *mut f32, live: usize) {
        std::slice::from_raw_parts_mut(p, live).copy_from_slice(&self[..live]);
    }
}

impl Lanes8 for [f32; 8] {
    #[inline(always)]
    fn hsum8(self) -> f32 {
        let t = self;
        ((t[0] + t[4]) + (t[2] + t[6])) + ((t[1] + t[5]) + (t[3] + t[7]))
    }
    #[inline(always)]
    fn hmax8(self) -> f32 {
        let t = self;
        maxps(
            maxps(maxps(t[0], t[4]), maxps(t[2], t[6])),
            maxps(maxps(t[1], t[5]), maxps(t[3], t[7])),
        )
    }
}

/// The lanes below `live` of an AVX2 mask.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn mask8(live: usize) -> __m256i {
    // SAFETY: only reached from `__m256` methods, under the avx2 shim.
    unsafe {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(live as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for __m256 {
    const W: usize = 8;
    #[inline(always)]
    fn splat(x: f32) -> Self {
        // SAFETY: a `__m256` exists only under the avx2 shim (see `Lanes`).
        unsafe { _mm256_set1_ps(x) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: as `splat`.
        unsafe { _mm256_add_ps(self, o) }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: as `splat`.
        unsafe { _mm256_sub_ps(self, o) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: as `splat`.
        unsafe { _mm256_mul_ps(self, o) }
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        // SAFETY: as `splat`.
        unsafe { _mm256_max_ps(self, o) }
    }
    // SAFETY: the four pointer methods keep the `# Safety` contracts of
    // `Lanes`, which their callers uphold.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm256_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm256_storeu_ps(p, self)
    }
    #[inline(always)]
    unsafe fn load_part(p: *const f32, live: usize) -> Self {
        _mm256_maskload_ps(p, mask8(live))
    }
    #[inline(always)]
    unsafe fn store_part(self, p: *mut f32, live: usize) {
        _mm256_maskstore_ps(p, mask8(live), self)
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes8 for __m256 {
    #[inline(always)]
    fn hsum8(self) -> f32 {
        // SAFETY: as `splat`. Low+high 128-bit halves, `movehl`, lane 1.
        unsafe {
            let s4 = _mm_add_ps(_mm256_castps256_ps128(self), _mm256_extractf128_ps(self, 1));
            let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
            _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x55)))
        }
    }
    #[inline(always)]
    fn hmax8(self) -> f32 {
        // SAFETY: as `splat`; the tree of `hsum8`.
        unsafe {
            let s4 = _mm_max_ps(_mm256_castps256_ps128(self), _mm256_extractf128_ps(self, 1));
            let s2 = _mm_max_ps(s4, _mm_movehl_ps(s4, s4));
            _mm_cvtss_f32(_mm_max_ss(s2, _mm_shuffle_ps(s2, s2, 0x55)))
        }
    }
}

/// The lanes below `live` of an AVX-512 mask.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn mask16(live: usize) -> __mmask16 {
    ((1u32 << live) - 1) as __mmask16
}

#[cfg(target_arch = "x86_64")]
impl Lanes for __m512 {
    const W: usize = 16;
    #[inline(always)]
    fn splat(x: f32) -> Self {
        // SAFETY: a `__m512` exists only under the avx512f shim (see `Lanes`).
        unsafe { _mm512_set1_ps(x) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: as `splat`.
        unsafe { _mm512_add_ps(self, o) }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: as `splat`.
        unsafe { _mm512_sub_ps(self, o) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: as `splat`.
        unsafe { _mm512_mul_ps(self, o) }
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        // SAFETY: as `splat`.
        unsafe { _mm512_max_ps(self, o) }
    }
    // SAFETY: the four pointer methods keep the `# Safety` contracts of
    // `Lanes`, which their callers uphold.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm512_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm512_storeu_ps(p, self)
    }
    #[inline(always)]
    unsafe fn load_part(p: *const f32, live: usize) -> Self {
        _mm512_maskz_loadu_ps(mask16(live), p)
    }
    #[inline(always)]
    unsafe fn store_part(self, p: *mut f32, live: usize) {
        _mm512_mask_storeu_ps(p, mask16(live), self)
    }
}

// ----------------------------------------------------------------------
// Elementwise primitives: plain loops (vectorised across elements)
// ----------------------------------------------------------------------

/// Elementwise binary operation selector for [`ew`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum EwOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// `out[i] = f(a[i], b[i])`, the loop every two-input kernel
/// monomorphizes. The slices arrive as parameters, not closure captures, so
/// LLVM knows `out` aliases neither input and vectorizes without run-time
/// overlap checks.
#[inline(always)]
fn zip_with(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// `dst[i] = f(dst[i], src[i])`, the in-place twin of [`zip_with`].
#[inline(always)]
fn update(dst: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f(*d, s);
    }
}

/// `out[i] = a[i] op b[i]`; fully overwrites `out`.
pub(crate) fn ew(be: Backend, op: EwOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    on_tier(be, move || match op {
        EwOp::Add => zip_with(a, b, out, |x, y| x + y),
        EwOp::Sub => zip_with(a, b, out, |x, y| x - y),
        EwOp::Mul => zip_with(a, b, out, |x, y| x * y),
        EwOp::Div => zip_with(a, b, out, |x, y| x / y),
    })
}

/// `dst[i] += src[i]` in place.
pub(crate) fn add_assign(be: Backend, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    on_tier(be, move || update(dst, src, |d, s| d + s))
}

/// `dst[i] += alpha * src[i]` (unfused mul-then-add).
pub(crate) fn axpy(be: Backend, dst: &mut [f32], alpha: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    on_tier(be, move || update(dst, src, |d, s| d + alpha * s))
}

/// `out[i] = a[i] * s`; fully overwrites `out`.
pub(crate) fn scale(be: Backend, a: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    on_tier(be, move || update(out, a, |_, x| x * s))
}

/// `xs[i] /= z` in place (softmax normalisation).
pub(crate) fn div_inplace(be: Backend, xs: &mut [f32], z: f32) {
    on_tier(be, move || {
        for x in xs {
            *x /= z;
        }
    })
}

// ----------------------------------------------------------------------
// Lane-structured reductions (fixed virtual width, hardware-independent)
// ----------------------------------------------------------------------

/// Virtual lane count of the `dot` accumulator structure.
const DOT_LANES: usize = 32;

/// The per-element term of a 32-lane sum: `x·y`, or `(x−y)²` when `DIFF`.
#[inline(always)]
fn term<L: Lanes, const DIFF: bool>(x: L, y: L) -> L {
    if DIFF {
        let d = x.sub(y);
        d.mul(d)
    } else {
        x.mul(y)
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
/// cross-element sum of two slices, on the tier's 8-lane type.
#[inline(always)]
fn lanes32<const DIFF: bool>(be: Backend, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "lanes32: slices of len {} and {}",
        a.len(),
        b.len()
    );
    // SAFETY: the lengths are checked above, a vector tier has avx2, and
    // `[f32; 8]` runs anywhere.
    unsafe {
        match be {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 | Backend::Avx512 => avx2(|| sum32::<__m256, DIFF>(a, b)),
            _ => sum32::<[f32; 8], DIFF>(a, b),
        }
    }
}

/// The 32-lane sum: four 8-lane accumulators whose lane `w` of register
/// `r` is virtual lane `8r + w`, folded pairwise 32 → 8 as
/// `(v[j]+v[j+8]) + (v[j+16]+v[j+24])`, then [`Lanes8::hsum8`], then the
/// tail added in order.
///
/// # Safety
/// `L` runs on this CPU and `a.len() == b.len()`.
#[inline(always)]
unsafe fn sum32<L: Lanes8, const DIFF: bool>(a: &[f32], b: &[f32]) -> f32 {
    let blocks = a.len() / DOT_LANES;
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut c = [L::splat(0.0); 4];
    for i in 0..blocks {
        for (r, c) in c.iter_mut().enumerate() {
            let off = i * DOT_LANES + r * L::W;
            *c = c.add(term::<L, DIFF>(L::load(ap.add(off)), L::load(bp.add(off))));
        }
    }
    let tail = blocks * DOT_LANES;
    let head = c[0].add(c[1]).add(c[2].add(c[3])).hsum8();
    let rest = a[tail..].iter().zip(&b[tail..]);
    rest.fold(head, |s, (&x, &y)| {
        if DIFF {
            s + (x - y) * (x - y)
        } else {
            s + x * y
        }
    })
}

/// Maximum of a slice with the fixed 8-lane structure (`-inf` for empty).
pub(crate) fn row_max(be: Backend, xs: &[f32]) -> f32 {
    lanes8::<true>(be, xs)
}

/// Sum of a slice with the fixed 8-lane structure (0 for empty).
pub(crate) fn row_sum(be: Backend, xs: &[f32]) -> f32 {
    lanes8::<false>(be, xs)
}

/// Max (`MAX`) or sum of `xs` over 8 stride-8 lanes, on the tier's 8-lane
/// type.
#[inline(always)]
fn lanes8<const MAX: bool>(be: Backend, xs: &[f32]) -> f32 {
    // SAFETY: a vector tier has avx2, and `[f32; 8]` runs anywhere.
    unsafe {
        match be {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 | Backend::Avx512 => avx2(|| fold8::<__m256, MAX>(xs)),
            _ => fold8::<[f32; 8], MAX>(xs),
        }
    }
}

/// The 8-lane fold: stride-8 lanes, the fixed tree, then the tail in order.
///
/// # Safety
/// `L` runs on this CPU.
#[inline(always)]
unsafe fn fold8<L: Lanes8, const MAX: bool>(xs: &[f32]) -> f32 {
    let mut acc = L::splat(if MAX { f32::NEG_INFINITY } else { 0.0 });
    let mut blocks = xs.chunks_exact(L::W);
    for block in blocks.by_ref() {
        // SAFETY: `block` holds `W` floats.
        let v = L::load(block.as_ptr());
        acc = if MAX { acc.max(v) } else { acc.add(v) };
    }
    let rest = blocks.remainder().iter();
    if MAX {
        rest.fold(acc.hmax8(), |m, &x| maxps(m, x))
    } else {
        rest.fold(acc.hsum8(), |s, &x| s + x)
    }
}

// ----------------------------------------------------------------------
// Register-blocked matmul rows
// ----------------------------------------------------------------------

/// Accumulates a block of `nrows` consecutive output rows, where row `r`
/// reads `a` starting at `a_off + r*a_row_step` with stride `a_stride` and
/// writes `out[r*n .. (r+1)*n]`:
///
/// `out[r*n + j] += Σ_l a[a_off + r*a_row_step + l*a_stride] · b[l*n + j]`
///
/// ascending `l` per element — the exact per-element op sequence of the
/// scalar `ikj` kernel. Rows go in groups of four, so every `b` register
/// load feeds four output rows (register blocking in the M dimension,
/// quartering the `b` stream traffic); the last 1–3 rows go one at a time
/// through a wider tile (6×8 lanes, 4×16 on AVX-512). Each output element
/// still accumulates in ascending-`l` order in its own lane, so neither
/// the grouping nor the tier is visible in the bits.
///
/// `matmul` passes `a_row_step = k, a_stride = 1` (consecutive rows of
/// `a`); `matmul_tn` passes `a_row_step = 1, a_stride = m` (consecutive
/// columns).
///
/// # Panics
/// When `out` is not `nrows × n`, `b` is shorter than `k × n`, or a row of
/// `a` reaches past its end: the tiles read and write through raw
/// pointers.
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
    assert_eq!(
        out.len(),
        nrows * n,
        "rows_times_mat: out is not {nrows}×{n}"
    );
    assert!(
        b.len() >= k * n,
        "rows_times_mat: b is shorter than {k}×{n}"
    );
    assert!(
        nrows == 0 || k == 0 || a_off + (nrows - 1) * a_row_step + (k - 1) * a_stride < a.len(),
        "rows_times_mat: a row of a reaches past its {} elements",
        a.len()
    );
    let g = Rows {
        a: a.as_ptr(),
        a_off,
        a_row_step,
        a_stride,
        nrows,
        k,
        b: b.as_ptr(),
        n,
        out: out.as_mut_ptr(),
    };
    // SAFETY: the asserts above are `Rows`' contract, and each register
    // type runs under the shim of its feature, which `backend()` reports
    // only on a CPU that has it.
    unsafe {
        match be {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => avx512(|| rows::<__m512, 4>(g)),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2(|| rows::<__m256, 6>(g)),
            _ => rows::<[f32; 8], 6>(g),
        }
    }
}

/// The operands of one [`rows_times_mat`] call, as raw pointers. Its
/// asserts are the contract: `out` holds `nrows × n`, `b` at least `k × n`,
/// and `a` every `a_off + r·a_row_step + l·a_stride` for `r < nrows`,
/// `l < k`.
#[derive(Clone, Copy)]
struct Rows {
    a: *const f32,
    a_off: usize,
    a_row_step: usize,
    a_stride: usize,
    nrows: usize,
    k: usize,
    b: *const f32,
    n: usize,
    out: *mut f32,
}

/// Every row of `g`: 4-row tiles of 2 registers per row, then each left
/// over row as a 1-row tile of `C1` registers.
///
/// # Safety
/// `L` runs on this CPU, and `g` meets the contract of [`Rows`].
#[inline(always)]
unsafe fn rows<L: Lanes, const C1: usize>(g: Rows) {
    let mut r = 0;
    while r + 4 <= g.nrows {
        tile::<L, 4, 2>(&g, r);
        r += 4;
    }
    for r in r..g.nrows {
        tile::<L, 1, C1>(&g, r);
    }
}

/// Rows `r0..r0 + R` of `g`, `C` registers of columns per tile: `R × C`
/// accumulators live across the whole reduction, so each output element is
/// loaded and stored once, and each `b` register load feeds `R` rows.
/// Columns past the last full tile go one register at a time, the last
/// step masked to the columns that exist.
///
/// # Safety
/// As [`rows`], and `r0 + R ≤ g.nrows`.
#[inline(always)]
unsafe fn tile<L: Lanes, const R: usize, const C: usize>(g: &Rows, r0: usize) {
    let (k, n, w) = (g.k, g.n, L::W);
    let offs: [usize; R] = core::array::from_fn(|r| g.a_off + (r0 + r) * g.a_row_step);
    let out = g.out.add(r0 * n);
    let mut j = 0;
    while j + C * w <= n {
        let o = out.add(j);
        let mut c: [[L; C]; R] =
            core::array::from_fn(|r| core::array::from_fn(|v| L::load(o.add(r * n + v * w))));
        for l in 0..k {
            let bl = g.b.add(l * n + j);
            let bv: [L; C] = core::array::from_fn(|v| L::load(bl.add(v * w)));
            for (cr, &off) in c.iter_mut().zip(&offs) {
                let va = L::splat(*g.a.add(off + l * g.a_stride));
                for (c, &bv) in cr.iter_mut().zip(&bv) {
                    *c = c.add(va.mul(bv));
                }
            }
        }
        for (r, cr) in c.iter().enumerate() {
            for (v, c) in cr.iter().enumerate() {
                c.store(o.add(r * n + v * w));
            }
        }
        j += C * w;
    }
    while j < n {
        let (o, live) = (out.add(j), (n - j).min(w));
        let mut c: [L; R] = core::array::from_fn(|r| L::load_part(o.add(r * n), live));
        for l in 0..k {
            let bv = L::load_part(g.b.add(l * n + j), live);
            for (c, &off) in c.iter_mut().zip(&offs) {
                *c = c.add(L::splat(*g.a.add(off + l * g.a_stride)).mul(bv));
            }
        }
        for (r, c) in c.iter().enumerate() {
            c.store_part(o.add(r * n), live);
        }
        j += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{self, QuantTensor};

    /// The tiers this machine runs, each capped by `with_backend`.
    fn tiers() -> [Backend; 3] {
        [Backend::Scalar, Backend::Avx2, Backend::Avx512].map(|be| with_backend(be, backend))
    }

    /// NaN pad after every live part.
    const PAD: usize = 17;

    /// `off` NaN pads, then `len` values of `f`, then `PAD` NaN pads.
    fn padded(off: usize, len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        let mut v = vec![f32::NAN; off + len + PAD];
        for (i, x) in v[off..off + len].iter_mut().enumerate() {
            *x = f(i);
        }
        v
    }

    /// `got[off..]` equals `want` bit for bit, and every pad is still NaN.
    fn check(got: &[f32], off: usize, want: &[f32], at: &str) {
        let end = off + want.len();
        for (i, (g, w)) in got[off..end].iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{at} i={i}");
        }
        let mut pads = got[..off].iter().chain(&got[end..]);
        assert!(pads.all(|x| x.is_nan()), "{at}: a pad was written");
    }

    /// A seeded value in ±2^15 with a spread of exponents, so that a
    /// reordered sum rounds differently.
    fn spread(seed: u64) -> f32 {
        let h = crate::mix64(seed);
        ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * ((h & 15) as f32).exp2()
    }

    /// Oracle of `dot` (`diff = false`) and `l2sq`, by plain index: 32
    /// stride-32 partials, the pairwise 32 → 8 fold, the 8-lane tree, then
    /// the tail in order.
    fn lanes32_oracle(a: &[f32], b: &[f32], diff: bool) -> f32 {
        let t = |i: usize| {
            if diff {
                (a[i] - b[i]) * (a[i] - b[i])
            } else {
                a[i] * b[i]
            }
        };
        let blocks = a.len() / 32;
        let mut acc = [0.0f32; 32];
        for i in 0..blocks {
            for (w, acc) in acc.iter_mut().enumerate() {
                *acc += t(32 * i + w);
            }
        }
        let v: [f32; 8] =
            core::array::from_fn(|j| (acc[j] + acc[j + 8]) + (acc[j + 16] + acc[j + 24]));
        let mut s = ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]));
        for i in 32 * blocks..a.len() {
            s += t(i);
        }
        s
    }

    /// Oracle of `row_max` (`max`) and `row_sum`, by plain index: 8
    /// stride-8 lanes, the 8-lane tree, then the tail in order.
    fn lanes8_oracle(xs: &[f32], max: bool) -> f32 {
        let op = |x: f32, y: f32| if max { maxps(x, y) } else { x + y };
        let blocks = xs.len() / 8;
        let mut t = [if max { f32::NEG_INFINITY } else { 0.0 }; 8];
        for i in 0..blocks {
            for (w, t) in t.iter_mut().enumerate() {
                *t = op(*t, xs[8 * i + w]);
            }
        }
        let mut s = op(
            op(op(t[0], t[4]), op(t[2], t[6])),
            op(op(t[1], t[5]), op(t[3], t[7])),
        );
        for &x in &xs[8 * blocks..] {
            s = op(s, x);
        }
        s
    }

    /// Oracle of one `rows_times_mat` row: the `ikj` rank-1-update sweep,
    /// cache-blocked over the reduction in `KC`-sized panels. Per element
    /// the accumulation is still plain ascending `l`.
    fn row_times_mat_scalar(
        a: &[f32],
        a_off: usize,
        a_stride: usize,
        (k, n): (usize, usize),
        b: &[f32],
        out: &mut [f32],
    ) {
        const KC: usize = 128;
        for k0 in (0..k).step_by(KC) {
            for l in k0..(k0 + KC).min(k) {
                let al = a[a_off + l * a_stride];
                for (oj, &bj) in out.iter_mut().zip(&b[l * n..(l + 1) * n]) {
                    *oj += al * bj;
                }
            }
        }
    }

    /// The differential cases: lengths 0..=33 hit every tail of 8, 16 and
    /// 32 lanes; 53, 230 and 690 = 3·230 are the model's widths. Each
    /// slice is cut at offset 0, 1 or 3 from a NaN-padded buffer, so a
    /// tail touches the last element of its slice: a read past `a` or `b`
    /// into a stored lane would change its bits, and a write past `out`
    /// would clobber a pad.
    fn cases() -> impl Iterator<Item = (usize, usize)> {
        (0..=33)
            .chain([53, 230, 690])
            .flat_map(|len| [0, 1, 3].map(|off| (len, off)))
    }

    /// The NaN-padded `a` and `b` of one case.
    fn case_inputs(len: usize, off: usize) -> (Vec<f32>, Vec<f32>) {
        let a = padded(off, len, |i| spread(i as u64));
        let b = padded(off, len, |i| spread(!(i as u64)));
        (a, b)
    }

    /// The fixed-lane reductions, on every tier, equal their plain-index
    /// oracles bit for bit.
    #[test]
    fn lane_structured_reductions_bitwise_match_scalar() {
        for (len, off) in cases() {
            let (a, b) = case_inputs(len, off);
            let (sa, sb) = (&a[off..off + len], &b[off..off + len]);
            for be in tiers() {
                let at = |what: &str| format!("{} {what} len={len} off={off}", be.name());
                let bits = |x: f32| x.to_bits();
                let want = lanes32_oracle(sa, sb, false);
                assert_eq!(bits(dot(be, sa, sb)), bits(want), "{}", at("dot"));
                let want = lanes32_oracle(sa, sb, true);
                assert_eq!(bits(l2sq(be, sa, sb)), bits(want), "{}", at("l2sq"));
                let want = lanes8_oracle(sa, true);
                assert_eq!(bits(row_max(be, sa)), bits(want), "{}", at("row_max"));
                let want = lanes8_oracle(sa, false);
                assert_eq!(bits(row_sum(be, sa)), bits(want), "{}", at("row_sum"));
            }
        }
    }

    /// The elementwise and int8 kernels on every tier, and `qmatvec_into`
    /// either side of the VNNI width cap, equal their sequential oracles
    /// bit for bit.
    #[test]
    fn every_kernel_bitwise_matches_its_oracle_on_every_tier() {
        for (len, off) in cases() {
            let (a, b) = case_inputs(len, off);
            let (sa, sb) = (&a[off..off + len], &b[off..off + len]);
            let qa: Vec<i8> = (0..len)
                .map(|i| (((i * 37) % 255) as i32 - 127) as i8)
                .collect();
            let qb: Vec<i8> = (0..len)
                .map(|i| (127 - ((i * 53) % 255) as i32) as i8)
                .collect();
            let zip = |f: &dyn Fn(f32, f32) -> f32| -> Vec<f32> {
                sa.iter().zip(sb).map(|(&x, &y)| f(x, y)).collect()
            };
            let in_place = |f: &dyn Fn(&mut [f32])| {
                let mut d = a.clone();
                f(&mut d[off..off + len]);
                d
            };
            for be in tiers() {
                let at = |what: &str| format!("{} {what} len={len} off={off}", be.name());
                for op in [EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Div] {
                    let mut out = padded(off, len, |_| 0.0);
                    ew(be, op, sa, sb, &mut out[off..off + len]);
                    let want = zip(&|x, y| match op {
                        EwOp::Add => x + y,
                        EwOp::Sub => x - y,
                        EwOp::Mul => x * y,
                        EwOp::Div => x / y,
                    });
                    check(&out, off, &want, &at(&format!("ew {op:?}")));
                }
                let got = in_place(&|d| add_assign(be, d, sb));
                check(&got, off, &zip(&|x, y| x + y), &at("add_assign"));
                let got = in_place(&|d| axpy(be, d, 0.37, sb));
                check(&got, off, &zip(&|x, y| x + 0.37 * y), &at("axpy"));
                let got = in_place(&|d| div_inplace(be, d, 3.0));
                check(&got, off, &zip(&|x, _| x / 3.0), &at("div_inplace"));
                let mut out = padded(off, len, |_| 0.0);
                scale(be, sa, -1.5, &mut out[off..off + len]);
                check(&out, off, &zip(&|x, _| x * -1.5), &at("scale"));
                let want: i32 = qa.iter().zip(&qb).map(|(&x, &y)| x as i32 * y as i32).sum();
                let got = on_tier(be, || quant::qdot(&qa, &qb));
                assert_eq!(got, want, "{}", at("qdot"));
                let mut out = padded(off, len, |_| 0.0);
                on_tier(be, || {
                    quant::dequant(&qa, -3, 0.25, &mut out[off..off + len])
                });
                let want: Vec<f32> = qa.iter().map(|&q| (q as f32 - -3.0) * 0.25).collect();
                check(&out, off, &want, &at("dequant"));
            }
        }

        // The int8 matvec either side of the VNNI width cap, against an
        // exact i64 dot and `qmatvec_into`'s epilogue.
        #[cfg(target_arch = "x86_64")]
        for cols in [quant::VNNI_MAX_COLS, quant::VNNI_MAX_COLS + 1] {
            let mut rng = crate::TensorRng::seed(cols as u64);
            let w = crate::Tensor::rand_uniform(&[5, cols], -1.0, 1.0, &mut rng);
            let w = QuantTensor::quantize(&w);
            let x = crate::Tensor::rand_uniform(&[cols], -1.0, 1.0, &mut rng);
            let mut act = vec![0i8; cols];
            let p = quant::quantize_row_into(x.data(), &mut act);
            let bias = [0.5f32, -1.0, 0.0, 2.0, 0.25];
            let (n, za) = (cols as i64, p.zero_point as i64);
            let want: Vec<f32> = (0..5)
                .map(|r| {
                    let row = &w.data()[r * cols..(r + 1) * cols];
                    let dot = act.iter().zip(row).map(|(&x, &y)| x as i64 * y as i64);
                    let zw = w.zeros()[r] as i64;
                    let int = dot.sum::<i64>() - zw * p.sum as i64 - za * w.row_sums()[r] as i64
                        + n * za * zw;
                    int as f32 * (p.scale * w.scales()[r]) + bias[r]
                })
                .collect();
            for be in tiers() {
                let mut got = padded(0, 5, |_| 0.0);
                let out = &mut got[..5];
                with_backend(be, || quant::qmatvec_into(&w, &act, p, Some(&bias), out));
                check(
                    &got,
                    0,
                    &want,
                    &format!("{} qmatvec cols={cols}", be.name()),
                );
            }
        }
    }

    /// The row tiles at each of `row_counts` rows, on every tier, equal the
    /// per-row oracle bit for bit: `k = 0` and both access patterns —
    /// `matmul` (`a_row_step = k, a_stride = 1`) and `matmul_tn`
    /// (`a_row_step = 1, a_stride = nrows`).
    fn check_row_tiles(row_counts: &[usize]) {
        for (n, off) in cases() {
            for k in [0usize, 1, 180, 690] {
                let b = padded(off, k * n, |i| ((i * 53 + 29) % 97) as f32 * 0.021 - 1.0);
                let b = &b[off..off + k * n];
                for &nrows in row_counts {
                    let a = padded(off, nrows * k, |i| (i as f32 * 0.37).sin());
                    let a = &a[off..off + nrows * k];
                    let init = |i: usize| i as f32 * 0.01 - 0.3;
                    for (a_row_step, a_stride) in [(k, 1usize), (1usize, nrows)] {
                        let mut want: Vec<f32> = (0..nrows * n).map(init).collect();
                        for (r, row) in want.chunks_mut(n.max(1)).enumerate() {
                            row_times_mat_scalar(a, r * a_row_step, a_stride, (k, n), b, row);
                        }
                        for be in tiers() {
                            let mut got = padded(off, nrows * n, init);
                            let out = &mut got[off..off + nrows * n];
                            rows_times_mat(be, a, 0, a_row_step, a_stride, nrows, k, b, n, out);
                            let at = format!(
                                "{} rows_times_mat nrows={nrows} k={k} n={n} off={off} a_stride={a_stride}",
                                be.name()
                            );
                            check(&got, off, &want, &at);
                        }
                    }
                }
            }
        }
    }

    /// A single row is the 1-row tile of `rows_times_mat`.
    #[test]
    fn row_times_mat_bitwise_matches_scalar() {
        check_row_tiles(&[1]);
    }

    /// Row counts around the 4-row grouping, and none.
    #[test]
    fn rows_times_mat_bitwise_matches_scalar() {
        check_row_tiles(&[0, 3, 4, 5, 8, 9]);
    }

    /// The length checks hold in release too: two rows of `k = 3` need six
    /// elements of `a`.
    #[test]
    #[should_panic(expected = "rows_times_mat: a row of a reaches past its 5 elements")]
    fn rows_times_mat_rejects_a_short_a() {
        let (a, b, mut out) = ([0.0f32; 5], [0.0f32; 6], [0.0f32; 4]);
        rows_times_mat(hardware_backend(), &a, 0, 3, 1, 2, 3, &b, 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "lanes32: slices of len 9 and 8")]
    fn lanes32_rejects_mismatched_lengths() {
        dot(hardware_backend(), &[1.0; 9], &[1.0; 8]);
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
