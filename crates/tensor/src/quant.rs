//! Post-training int8 quantization: per-row affine `QuantTensor` storage and
//! the i8×i8→i32 kernels of the quantized inference path.
//!
//! ## Scheme
//!
//! Every row of a matrix is quantized independently with an affine map
//! `q = round(x / scale) + zero_point` clamped to `[-127, 127]` (−128 is
//! never produced, so negation stays in range). The quantization range
//! always covers `0.0`, which makes real zeros — conv zero-padding, unused
//! position slots — round-trip *exactly* to `0.0`.
//!
//! A dot product between a quantized activation row `(qa, sa, za)` and a
//! quantized weight row `(qw, sw, zw)` expands to
//!
//! ```text
//! Σ (qa−za)·sa · (qw−zw)·sw
//!   = [Σ qa·qw − zw·Σqa − za·Σqw + n·za·zw] · sa·sw
//! ```
//!
//! where `Σ qa·qw` is the integer kernel and the per-row sums are
//! precomputed (`row_sums` for weights, returned by [`quantize_row_into`]
//! for activations). Integer accumulation is **exact**, so every backend —
//! scalar, AVX2, AVX-512 — produces the same `i32` regardless of summation
//! order, and the single f32 epilogue expression is shared; the quantized
//! kernels are therefore bit-identical across backends *by construction*
//! (a stronger property than the fixed-virtual-lane f32 reductions in
//! `simd`, whose lane structure is part of their definition).
//!
//! f32 appears only at dequantization boundaries: nonlinearities (tanh,
//! softmax), attention-weighted sums, and bias adds.
//!
//! [`qgemm_into`] runs many activation rows (a sentence's conv windows)
//! against a bank repacked once into a [`QuantPack`]. On AVX-512 VNNI it is
//! one register-blocked GEMM whose wrapping-`i32` epilogue reproduces
//! [`qmatvec_into`] bit for bit up to [`QGEMM_MAX_COLS`]; elsewhere it is
//! the per-row [`qmatvec_into`] loop.
//!
//! ## Storage
//!
//! [`QuantTensor`] holds its four arrays as [`Storage`]: owned, or viewed
//! in place inside the file mapping of a `.imrb` v3 bundle, whose
//! `Arc<Mapping>` the view itself holds (see [`crate::bytes`]).
//!
//! ## Kernels and dispatch
//!
//! Dispatch mirrors the `simd` module: `simd::backend()` picks the tier
//! (honoring `IMRE_FORCE_SCALAR` and `simd::with_backend` overrides),
//! `simd::vnni` says whether that tier runs the VNNI kernels, and every
//! kernel invocation is counted — see
//! [`quant_vector_kernels`]/[`quant_scalar_kernels`].
//!
//! The i8 dot (`qdot`) and `dequant` are one plain scalar loop each, run
//! through `simd::on_tier`: LLVM vectorizes them under its AVX2 shim. The
//! VNNI matvec, the VNNI GEMM and `quantize_row_avx512` are each the only
//! vector form of their kernel, written in AVX-512 intrinsics beside a
//! portable loop that every other tier runs and the tests use as oracle.
//! `Backend::Avx512` guarantees their `avx512f`/`avx512bw`/`avx512vl`;
//! `simd::vnni` adds `avx512vnni`.

use crate::bytes::Storage;
use crate::simd::{self, Backend};
use crate::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smallest quantized value. −128 is excluded so `-q` never overflows.
pub const QMIN: i8 = -127;
/// Largest quantized value.
pub const QMAX: i8 = 127;

/// Largest supported row width. Bounds the exact-i32 accumulator:
/// `MAX_COLS · 127 · 127 < i32::MAX` with a wide margin.
pub const MAX_COLS: usize = 1 << 17;

// ----------------------------------------------------------------------
// Dispatch counters (quantized-kernel slice of the PR 7 counters)
// ----------------------------------------------------------------------

static QUANT_VECTOR: AtomicU64 = AtomicU64::new(0);
static QUANT_SCALAR: AtomicU64 = AtomicU64::new(0);

/// Counts one quantized-kernel dispatch, and mirrors it into the global
/// `simd` vector/scalar counters so existing dispatch assertions see the
/// quantized path too.
#[inline]
fn note_quant(be: Backend) {
    if be == Backend::Scalar {
        QUANT_SCALAR.fetch_add(1, Ordering::Relaxed);
    } else {
        QUANT_VECTOR.fetch_add(1, Ordering::Relaxed);
    }
    simd::note(be);
}

/// Quantized kernel invocations that took a vector backend.
pub fn quant_vector_kernels() -> u64 {
    QUANT_VECTOR.load(Ordering::Relaxed)
}

/// Quantized kernel invocations that fell back to scalar.
pub fn quant_scalar_kernels() -> u64 {
    QUANT_SCALAR.load(Ordering::Relaxed)
}

// ----------------------------------------------------------------------
// Storage
// ----------------------------------------------------------------------

/// A 2-D int8 matrix quantized row-wise: `data` is `[rows, cols]`
/// row-major i8, and each row `r` carries `scales[r]`, `zeros[r]`, and the
/// precomputed integer row sum `row_sums[r] = Σ data[r][..] as i32`.
pub struct QuantTensor {
    rows: usize,
    cols: usize,
    data: Storage<i8>,
    scales: Storage<f32>,
    zeros: Storage<i8>,
    row_sums: Storage<i32>,
}

/// One quantized activation row, as produced by [`quantize_row_into`].
#[derive(Clone, Copy, Debug)]
pub struct QuantRowParams {
    /// Dequantization scale.
    pub scale: f32,
    /// Zero point in the quantized domain.
    pub zero_point: i8,
    /// `Σ q` over the row.
    pub sum: i32,
}

impl QuantTensor {
    /// Quantizes a 2-D `Tensor` row-wise.
    ///
    /// # Panics
    /// When `t` is not 2-D or wider than [`MAX_COLS`].
    pub fn quantize(t: &Tensor) -> QuantTensor {
        let (rows, cols) = dims2(t);
        let mut data = vec![0i8; rows * cols];
        let params: Vec<QuantRowParams> = t
            .data()
            .chunks_exact(cols)
            .zip(data.chunks_exact_mut(cols))
            .map(|(src, dst)| quantize_row_into(src, dst))
            .collect();
        let scales: Vec<f32> = params.iter().map(|p| p.scale).collect();
        let zeros: Vec<i8> = params.iter().map(|p| p.zero_point).collect();
        let row_sums: Vec<i32> = params.iter().map(|p| p.sum).collect();
        QuantTensor::from_parts(rows, cols, data, scales, zeros, row_sums)
            .expect("parts are built to [rows, cols]")
    }

    /// Quantizes the *transpose* of a 2-D `Tensor` row-wise — the layout
    /// [`qmatvec_into`] wants for a `[in, out]` linear weight: the result
    /// has one row per output unit.
    pub fn quantize_transposed(t: &Tensor) -> QuantTensor {
        QuantTensor::quantize(&t.transpose())
    }

    /// Assembles a tensor from its four arrays, owned or mapped (the
    /// `.imrb` v3 load paths). Fails when `cols` is out of range or a
    /// length disagrees with `[rows, cols]`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        data: impl Into<Storage<i8>>,
        scales: impl Into<Storage<f32>>,
        zeros: impl Into<Storage<i8>>,
        row_sums: impl Into<Storage<i32>>,
    ) -> Result<QuantTensor, String> {
        let (data, scales, zeros, row_sums) =
            (data.into(), scales.into(), zeros.into(), row_sums.into());
        if cols == 0 || cols > MAX_COLS {
            return Err(format!("quant tensor cols {cols} out of range"));
        }
        if rows.checked_mul(cols) != Some(data.as_slice().len())
            || scales.as_slice().len() != rows
            || zeros.as_slice().len() != rows
            || row_sums.as_slice().len() != rows
        {
            return Err(format!(
                "quant tensor part lengths inconsistent with [{rows}, {cols}]"
            ));
        }
        Ok(QuantTensor {
            rows,
            cols,
            data,
            scales,
            zeros,
            row_sums,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The i8 payload, `[rows, cols]` row-major.
    pub fn data(&self) -> &[i8] {
        self.data.as_slice()
    }

    /// Per-row dequantization scales.
    pub fn scales(&self) -> &[f32] {
        self.scales.as_slice()
    }

    /// Per-row zero points.
    pub fn zeros(&self) -> &[i8] {
        self.zeros.as_slice()
    }

    /// Per-row precomputed integer sums.
    pub fn row_sums(&self) -> &[i32] {
        self.row_sums.as_slice()
    }

    /// Whether the buffers are views into a file mapping.
    pub fn is_borrowed(&self) -> bool {
        self.data.is_mapped()
    }

    /// Total payload bytes across all four buffers (the serialized and
    /// resident size of the quantized table, excluding headers).
    pub fn bytes(&self) -> usize {
        self.rows * self.cols + self.rows * (4 + 1 + 4)
    }

    /// Dequantizes row `r` into `out` (len `cols`).
    pub fn dequant_row_into(&self, r: usize, out: &mut [f32]) {
        gather_dequant_into(self, &[r], out);
    }
}

fn dims2(t: &Tensor) -> (usize, usize) {
    assert!(
        t.shape().len() == 2,
        "QuantTensor::quantize wants a 2-D tensor"
    );
    let (rows, cols) = (t.shape()[0], t.shape()[1]);
    assert!(
        cols > 0 && cols <= MAX_COLS,
        "quant tensor cols out of range"
    );
    (rows, cols)
}

// ----------------------------------------------------------------------
// Activation quantization (deterministic scalar; O(n) next to O(n·m) matvec)
// ----------------------------------------------------------------------

/// Quantizes one f32 row into `dst` and returns its affine parameters.
///
/// The range is widened to include `0.0` so exact zeros stay exact. The
/// AVX-512 form mirrors the scalar formula operation for operation
/// (elementwise IEEE ops have no summation-order freedom) and routes rows
/// containing non-finite values back to the scalar loop, so the output is
/// bit-identical on every backend. Not counted in the kernel dispatch
/// counters — those track the O(n·m) matvec/gather work, and the existing
/// count assertions would shift.
pub fn quantize_row_into(src: &[f32], dst: &mut [i8]) -> QuantRowParams {
    assert_eq!(src.len(), dst.len());
    assert!(src.len() <= MAX_COLS, "row wider than MAX_COLS");
    #[cfg(target_arch = "x86_64")]
    if simd::backend() == Backend::Avx512 {
        // SAFETY: the Avx512 tier has avx512f, avx512bw and avx512vl.
        return unsafe { quantize_row_avx512(src, dst) };
    }
    quantize_row_scalar(src, dst)
}

fn quantize_row_scalar(src: &[f32], dst: &mut [i8]) -> QuantRowParams {
    let mut min = 0.0f32;
    let mut max = 0.0f32;
    for &x in src {
        if x.is_finite() {
            if x < min {
                min = x;
            }
            if x > max {
                max = x;
            }
        }
    }
    let scale = if max > min {
        (max - min) / (QMAX as f32 - QMIN as f32)
    } else {
        1.0
    };
    let zp = (QMIN as f32 - min / scale)
        .round()
        .clamp(QMIN as f32, QMAX as f32) as i32;
    let inv = 1.0 / scale;
    let mut sum = 0i32;
    for (d, &x) in dst.iter_mut().zip(src) {
        // Round-half-away-from-zero via truncation: one multiply, one add,
        // one `cvttss2si` — no libm `roundf` call in the hot loop. `as i32`
        // truncates (and saturates), matching on every platform.
        let y = x * inv;
        let q =
            ((y + if y >= 0.0 { 0.5 } else { -0.5 }) as i32 + zp).clamp(QMIN as i32, QMAX as i32);
        *d = q as i8;
        sum += q;
    }
    QuantRowParams {
        scale,
        zero_point: zp as i8,
        sum,
    }
}

/// Vector [`quantize_row_scalar`]: same min/max selection (exact — no
/// rounding in comparisons), same shared `scale`/`zp` scalars, and an
/// elementwise pipeline (`mul`, signed `±0.5`, truncating convert, `+zp`,
/// clamp) whose every step is the IEEE operation the scalar loop performs,
/// so the two agree bitwise. Rows with non-finite elements (or a subnormal
/// scale, whose reciprocal overflows) fall back to the scalar loop rather
/// than emulating Rust's saturating-cast edge cases lane by lane.
///
/// # Safety
/// The CPU has avx512f, avx512bw and avx512vl, and `src.len() == dst.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vl")]
unsafe fn quantize_row_avx512(src: &[f32], dst: &mut [i8]) -> QuantRowParams {
    use std::arch::x86_64::*;
    let n = src.len();
    // SAFETY: the features are the caller's; every load and store is a full
    // 16-lane block below `n` or the one masked tail, inside both slices.
    unsafe {
        // Pass 1: min/max over finite lanes, starting from 0.0 like scalar.
        let absmask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fff_ffff));
        let vinf = _mm512_set1_ps(f32::INFINITY);
        let mut vmin = _mm512_setzero_ps();
        let mut vmax = _mm512_setzero_ps();
        let mut nonfinite: __mmask16 = 0;
        let mut i = 0;
        while i + 16 <= n {
            let v = _mm512_loadu_ps(src.as_ptr().add(i));
            let fin = _mm512_cmp_ps_mask(_mm512_and_ps(v, absmask), vinf, _CMP_LT_OQ);
            nonfinite |= !fin;
            vmin = _mm512_mask_min_ps(vmin, fin, vmin, v);
            vmax = _mm512_mask_max_ps(vmax, fin, vmax, v);
            i += 16;
        }
        let ktail: __mmask16 = if i < n { (1u16 << (n - i)) - 1 } else { 0 };
        if i < n {
            let v = _mm512_maskz_loadu_ps(ktail, src.as_ptr().add(i));
            let fin = _mm512_cmp_ps_mask(_mm512_and_ps(v, absmask), vinf, _CMP_LT_OQ);
            nonfinite |= !fin & ktail;
            let fin = fin & ktail;
            vmin = _mm512_mask_min_ps(vmin, fin, vmin, v);
            vmax = _mm512_mask_max_ps(vmax, fin, vmax, v);
        }
        if nonfinite != 0 {
            return quantize_row_scalar(src, dst);
        }
        let min = _mm512_reduce_min_ps(vmin);
        let max = _mm512_reduce_max_ps(vmax);
        let scale = if max > min {
            (max - min) / (QMAX as f32 - QMIN as f32)
        } else {
            1.0
        };
        let zp = (QMIN as f32 - min / scale)
            .round()
            .clamp(QMIN as f32, QMAX as f32) as i32;
        let inv = 1.0 / scale;
        if !inv.is_finite() {
            return quantize_row_scalar(src, dst);
        }
        // With `inv` finite and every x inside [min, max] ∋ 0, |x·inv| stays
        // below ~255, so the truncating convert never saturates.
        let vinv = _mm512_set1_ps(inv);
        let vhalf = _mm512_set1_ps(0.5);
        let vsign = _mm512_castsi512_ps(_mm512_set1_epi32(u32::MAX as i32 ^ 0x7fff_ffff));
        let vzp = _mm512_set1_epi32(zp);
        let vqmin = _mm512_set1_epi32(QMIN as i32);
        let vqmax = _mm512_set1_epi32(QMAX as i32);
        let mut vsum = _mm512_setzero_si512();
        let quantize_block = |v: __m512, vsum: &mut __m512i| -> __m512i {
            let y = _mm512_mul_ps(v, vinv);
            // `y >= 0.0 ? 0.5 : -0.5`: y = -0.0 takes +0.5 in scalar and
            // -0.5 here, but both truncate to 0, so results agree.
            let half = _mm512_or_ps(_mm512_and_ps(y, vsign), vhalf);
            let vi = _mm512_cvttps_epi32(_mm512_add_ps(y, half));
            let vq = _mm512_max_epi32(_mm512_min_epi32(_mm512_add_epi32(vi, vzp), vqmax), vqmin);
            *vsum = _mm512_add_epi32(*vsum, vq);
            vq
        };
        let mut i = 0;
        while i + 16 <= n {
            let v = _mm512_loadu_ps(src.as_ptr().add(i));
            let vq = quantize_block(v, &mut vsum);
            _mm_storeu_si128(
                dst.as_mut_ptr().add(i) as *mut __m128i,
                _mm512_cvtepi32_epi8(vq),
            );
            i += 16;
        }
        if i < n {
            let v = _mm512_maskz_loadu_ps(ktail, src.as_ptr().add(i));
            // Masked-off lanes quantize the placeholder 0.0; exclude them
            // from the stored sum and the masked store.
            let mut vsum_tail = _mm512_setzero_si512();
            let vq = quantize_block(v, &mut vsum_tail);
            vsum = _mm512_add_epi32(vsum, _mm512_maskz_mov_epi32(ktail, vq));
            _mm_mask_storeu_epi8(dst.as_mut_ptr().add(i), ktail, _mm512_cvtepi32_epi8(vq));
        }
        QuantRowParams {
            scale,
            zero_point: zp as i8,
            sum: _mm512_reduce_add_epi32(vsum),
        }
    }
}

// ----------------------------------------------------------------------
// Kernels
// ----------------------------------------------------------------------

/// `out[r] = dequant(act · weight_row_r) + bias[r]` for every weight row.
///
/// `act` is a row previously quantized with [`quantize_row_into`] (its
/// params in `p`). The integer dot is exact on every backend and the f32
/// epilogue is one shared expression, so the result is bit-identical
/// scalar-vs-SIMD.
pub fn qmatvec_into(
    w: &QuantTensor,
    act: &[i8],
    p: QuantRowParams,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(act.len(), w.cols, "activation/weight width mismatch");
    assert_eq!(out.len(), w.rows, "output/weight rows mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), w.rows, "bias/weight rows mismatch");
    }
    let be = simd::backend();
    note_quant(be);
    let (n, za) = (w.cols as i64, p.zero_point as i64);
    let (scales, zeros, sums) = (w.scales(), w.zeros(), w.row_sums());
    let mut epilogue = |r: usize, acc: i64| {
        let zw = zeros[r] as i64;
        let int = acc - zw * p.sum as i64 - za * sums[r] as i64 + n * za * zw;
        let real = int as f32 * (p.scale * scales[r]);
        out[r] = match bias {
            Some(b) => real + b[r],
            None => real,
        };
    };
    #[cfg(target_arch = "x86_64")]
    if w.cols <= VNNI_MAX_COLS && simd::vnni(be) {
        // SAFETY: the Avx512 tier has avx512f and avx512bw, `vnni` checked
        // avx512vnni, and the asserts above fix every length it reads.
        unsafe { qmatvec_avx512vnni(w, act, epilogue) };
        return;
    }
    simd::on_tier(be, move || {
        for (r, row) in w.data().chunks_exact(w.cols).enumerate() {
            epilogue(r, qdot(act, row) as i64);
        }
    })
}

/// Width cap of the VNNI matvec: the biased-u8 dot is bounded by
/// `255·128·cols`, which must stay inside the exact-i32 accumulator.
#[cfg(target_arch = "x86_64")]
pub(crate) const VNNI_MAX_COLS: usize = 1 << 16;

/// VNNI matvec: calls `row(r, Σ act·w_r)` for every weight row `r`.
/// `vpdpbusd` needs an unsigned left operand, so activations are biased to
/// u8 on the fly (`a ⊕ 0x80 = a + 128`) and the exact surplus `128·Σw_r`
/// is subtracted per row — all in integers, so each dot is exactly
/// `qdot`'s. Weight rows run four at a time sharing each activation load,
/// then one at a time.
///
/// # Safety
/// The CPU has avx512f, avx512bw and avx512vnni, and `act.len() == w.cols`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
unsafe fn qmatvec_avx512vnni(w: &QuantTensor, act: &[i8], mut row: impl FnMut(usize, i64)) {
    let (data, sums) = (w.data(), w.row_sums());
    let mut r = 0;
    // SAFETY: the features and `act`'s length are the caller's, and
    // `r + R` stays within `w.rows`.
    unsafe {
        while r + 4 <= w.rows {
            for (j, d) in vnni_dots::<4>(data, act, r).into_iter().enumerate() {
                row(r + j, d - 128 * sums[r + j] as i64);
            }
            r += 4;
        }
        for (r, &sum) in sums.iter().enumerate().skip(r) {
            row(r, vnni_dots::<1>(data, act, r)[0] - 128 * sum as i64);
        }
    }
}

/// The biased dots `Σ (a + 128)·w` of weight rows `r..r + R` of `data`
/// (rows of `act.len()`), 64 columns per step, then the rest as one masked
/// step: a zeroed weight lane annihilates whatever the biased activation
/// holds.
///
/// # Safety
/// As [`qmatvec_avx512vnni`], and `(r + R) · act.len() ≤ data.len()`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn vnni_dots<const R: usize>(data: &[i8], act: &[i8], r: usize) -> [i64; R] {
    use std::arch::x86_64::*;
    let cols = act.len();
    let vbias = _mm512_set1_epi8(-128i8);
    let mut acc = [_mm512_setzero_si512(); R];
    let full = cols / 64 * 64;
    for i in (0..full).step_by(64) {
        let va = _mm512_xor_si512(_mm512_loadu_si512(act.as_ptr().add(i).cast()), vbias);
        for (j, a) in acc.iter_mut().enumerate() {
            let vw = _mm512_loadu_si512(data.as_ptr().add((r + j) * cols + i).cast());
            *a = _mm512_dpbusd_epi32(*a, va, vw);
        }
    }
    if full < cols {
        let k: __mmask64 = (1 << (cols - full)) - 1;
        let va = _mm512_xor_si512(_mm512_maskz_loadu_epi8(k, act.as_ptr().add(full)), vbias);
        for (j, a) in acc.iter_mut().enumerate() {
            let vw = _mm512_maskz_loadu_epi8(k, data.as_ptr().add((r + j) * cols + full));
            *a = _mm512_dpbusd_epi32(*a, va, vw);
        }
    }
    let mut dots = [0; R];
    for (d, a) in dots.iter_mut().zip(acc) {
        *d = _mm512_reduce_add_epi32(a) as i64;
    }
    dots
}

// ----------------------------------------------------------------------
// GEMM over a packed weight bank
// ----------------------------------------------------------------------

/// Widest row [`qgemm_into`] runs as one VNNI GEMM. Its epilogue works in
/// wrapping `i32`, which is exact whenever the true result fits: with
/// every quantized value and zero point an `i8`, `|Σ (a−za)(w−zw)| ≤
/// cols·255²`, inside `i32` up to this width. Wider rows take the per-row
/// [`qmatvec_into`] loop.
pub const QGEMM_MAX_COLS: usize = i32::MAX as usize / (255 * 255);

/// Weight rows per packed block: one zmm of `i32` lanes.
const QGEMM_LANES: usize = 16;

/// Four columns of one packed block: lane `l` holds the four weights of
/// the block's row `l`. Cache-line aligned, so each load is one line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Group([i8; 4 * QGEMM_LANES]);

/// A [`QuantTensor`] weight bank repacked for [`qgemm_into`], built once
/// per bank (at model build or load), never per call.
///
/// Rows are cut into blocks of 16. A block stores its columns four at a
/// time as one 64-byte group, so a broadcast of four activation bytes
/// against one group feeds 16 rows' `i32` lanes of a single `vpdpbusd`
/// and no horizontal reduction is left. Columns pad to a multiple of 4 and
/// rows to a multiple of 16 with zero weights, which contribute exact
/// zeros. The per-row epilogue terms are copied beside it, zero-padded the
/// same way, so the epilogue loads whole blocks.
pub struct QuantPack {
    rows: usize,
    cols: usize,
    /// `[blocks][cols.div_ceil(4)]` groups, block-major.
    groups: Vec<Group>,
    zeros: Vec<i32>,
    sums: Vec<i32>,
    scales: Vec<f32>,
}

impl QuantPack {
    /// Packs `w`'s rows.
    pub fn new(w: &QuantTensor) -> QuantPack {
        let (rows, cols) = (w.rows, w.cols);
        let blocks = rows.div_ceil(QGEMM_LANES);
        let per_block = cols.div_ceil(4);
        let mut groups = vec![Group([0; 4 * QGEMM_LANES]); blocks * per_block];
        for (r, row) in w.data().chunks_exact(cols).enumerate() {
            let (block, lane) = (r / QGEMM_LANES, r % QGEMM_LANES);
            for (c, &q) in row.iter().enumerate() {
                groups[block * per_block + c / 4].0[4 * lane + c % 4] = q;
            }
        }
        let padded = blocks * QGEMM_LANES;
        let mut zeros: Vec<i32> = w.zeros().iter().map(|&z| z as i32).collect();
        let mut sums = w.row_sums().to_vec();
        let mut scales = w.scales().to_vec();
        zeros.resize(padded, 0);
        sums.resize(padded, 0);
        scales.resize(padded, 0.0);
        QuantPack {
            rows,
            cols,
            groups,
            zeros,
            sums,
            scales,
        }
    }

    /// Number of weight rows packed.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// `out[i, r] = dequant(act_i · weight_row_r) + bias[r]` for every
/// activation row `i` — [`qmatvec_into`] on each row of `act`, bit for
/// bit, in one call.
///
/// `act` is `[m × cols]` row-major with row `i` quantized by
/// [`quantize_row_into`] into `params[i]` (`m = params.len()`); `out` is
/// `[m × rows]`; `pack` is `QuantPack::new(w)`. On AVX-512 with VNNI the
/// rows run as one register-blocked GEMM over the packed bank. Its integer
/// sums are exact and its epilogue is [`qmatvec_into`]'s expression in
/// wrapping `i32`, exact up to [`QGEMM_MAX_COLS`], so the bits agree. Every
/// other tier, and wider rows, runs the per-row loop.
///
/// # Panics
/// When `pack`'s shape is not `w`'s, or `act`, `bias` or `out` is not the
/// length `params.len()` and `w` imply.
pub fn qgemm_into(
    w: &QuantTensor,
    pack: &QuantPack,
    act: &[i8],
    params: &[QuantRowParams],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let (m, k, n) = (params.len(), w.cols, w.rows);
    assert_eq!(
        (pack.rows, pack.cols),
        (n, k),
        "qgemm_into: pack of [{}, {}] for a [{n}, {k}] bank",
        pack.rows,
        pack.cols
    );
    assert_eq!(
        act.len(),
        m * k,
        "qgemm_into: act of len {} is not {m} rows (one per params entry) of {k}",
        act.len()
    );
    assert_eq!(
        out.len(),
        m * n,
        "qgemm_into: out of len {} for {m} rows of {n}",
        out.len()
    );
    if let Some(b) = bias {
        assert_eq!(
            b.len(),
            n,
            "qgemm_into: bias of len {} for {n} rows",
            b.len()
        );
    }
    #[cfg(target_arch = "x86_64")]
    if k <= QGEMM_MAX_COLS && simd::vnni(simd::backend()) {
        note_quant(Backend::Avx512);
        let mut g = Qgemm {
            pack,
            act,
            params,
            bias,
            out,
        };
        // SAFETY: the Avx512 tier has avx512f, `vnni` checked avx512vnni,
        // and the asserts above fix every length the kernel indexes by.
        unsafe { qgemm_avx512vnni(&mut g) };
        return;
    }
    for (i, &p) in params.iter().enumerate() {
        qmatvec_into(
            w,
            &act[i * k..(i + 1) * k],
            p,
            bias,
            &mut out[i * n..(i + 1) * n],
        );
    }
}

/// The operands of one [`qgemm_into`] call, lengths already checked:
/// `act` is `params.len() × pack.cols`, `out` is `params.len() ×
/// pack.rows`, `bias` is `pack.rows`.
#[cfg(target_arch = "x86_64")]
struct Qgemm<'a> {
    pack: &'a QuantPack,
    act: &'a [i8],
    params: &'a [QuantRowParams],
    bias: Option<&'a [f32]>,
    out: &'a mut [f32],
}

/// The VNNI GEMM: strips of 4 activation rows (then the 1–3 left over),
/// each against every block of the pack, 4 blocks per register tile. The
/// helpers below are `#[inline(always)]` so they compile inside this
/// function, with its features.
///
/// # Safety
/// The CPU has avx512f and avx512vnni, and `g`'s lengths are as documented
/// on [`Qgemm`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512vnni")]
unsafe fn qgemm_avx512vnni(g: &mut Qgemm) {
    let m = g.params.len();
    let mut i = 0;
    while i + 4 <= m {
        qgemm_strip::<4>(g, i);
        i += 4;
    }
    match m - i {
        1 => qgemm_strip::<1>(g, i),
        2 => qgemm_strip::<2>(g, i),
        3 => qgemm_strip::<3>(g, i),
        _ => {}
    }
}

/// Activation rows `i..i + R` against every block: 4 blocks per tile, then
/// the 1–3 left over as one narrower tile.
///
/// # Safety
/// As [`qgemm_avx512vnni`], and `i + R ≤ g.params.len()`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn qgemm_strip<const R: usize>(g: &mut Qgemm, i: usize) {
    let blocks = g.pack.rows.div_ceil(QGEMM_LANES);
    let mut b = 0;
    while b + 4 <= blocks {
        qgemm_tile::<R, 4>(g, i, b);
        b += 4;
    }
    match blocks - b {
        1 => qgemm_tile::<R, 1>(g, i, b),
        2 => qgemm_tile::<R, 2>(g, i, b),
        3 => qgemm_tile::<R, 3>(g, i, b),
        _ => {}
    }
}

/// One `R`-row × `F`-block register tile (`R·F ≤ 16` accumulators): per
/// group of four columns, `F` aligned weight loads and `R` broadcasts of
/// four activation bytes biased to `u8` (`a ⊕ 0x80 = a + 128`, as in
/// [`qmatvec_avx512vnni`]), then `R·F` `vpdpbusd`s. The epilogue removes
/// the bias and the zero points per 16 rows in wrapping `i32` and runs
/// [`qmatvec_into`]'s f32 expression lane for lane; the last block's
/// store is masked to the rows that exist.
///
/// # Safety
/// As [`qgemm_avx512vnni`], `i0 + R ≤ g.params.len()` and `b0 + F` blocks
/// at most cover `g.pack.rows`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn qgemm_tile<const R: usize, const F: usize>(g: &mut Qgemm, i0: usize, b0: usize) {
    use std::arch::x86_64::*;
    let pack = g.pack;
    let (k, n) = (pack.cols, pack.rows);
    let per_block = k.div_ceil(4);
    let full = k / 4;
    let groups = pack.groups.as_ptr().add(b0 * per_block);
    let act = g.act.as_ptr().add(i0 * k);
    let mut acc = [[_mm512_setzero_si512(); F]; R];
    for q in 0..full {
        let mut four = [0i32; R];
        for (r, f) in four.iter_mut().enumerate() {
            *f = (act.add(r * k + 4 * q) as *const i32).read_unaligned();
        }
        qgemm_step(&mut acc, groups.add(q), per_block, &four);
    }
    if full < per_block {
        // The last 1–3 columns; the pad bytes meet zero weights.
        let mut four = [0i32; R];
        for (r, f) in four.iter_mut().enumerate() {
            let tail = &g.act[(i0 + r) * k + 4 * full..(i0 + r + 1) * k];
            let mut bytes = [0u8; 4];
            for (d, &a) in bytes.iter_mut().zip(tail) {
                *d = a as u8;
            }
            *f = i32::from_le_bytes(bytes);
        }
        qgemm_step(&mut acc, groups.add(full), per_block, &four);
    }
    // int = Σ(a+128)·w − (128 + za)·Σw + zw·(k·za − Σa)
    //     = Σa·w − zw·Σa − za·Σw + k·za·zw.
    for (r, acc_r) in acc.iter().enumerate() {
        let p = g.params[i0 + r];
        let za = p.zero_point as i32;
        let c_sum = _mm512_set1_epi32(128 + za);
        let c_zero = _mm512_set1_epi32((k as i32).wrapping_mul(za).wrapping_sub(p.sum));
        let p_scale = _mm512_set1_ps(p.scale);
        for (j, &a) in acc_r.iter().enumerate() {
            let f0 = (b0 + j) * QGEMM_LANES;
            let sums = _mm512_loadu_si512(pack.sums.as_ptr().add(f0) as *const _);
            let zeros = _mm512_loadu_si512(pack.zeros.as_ptr().add(f0) as *const _);
            let scales = _mm512_loadu_ps(pack.scales.as_ptr().add(f0));
            let int = _mm512_add_epi32(
                _mm512_sub_epi32(a, _mm512_mullo_epi32(c_sum, sums)),
                _mm512_mullo_epi32(c_zero, zeros),
            );
            let mut real = _mm512_mul_ps(_mm512_cvtepi32_ps(int), _mm512_mul_ps(p_scale, scales));
            let live = (n - f0).min(QGEMM_LANES);
            let mask = ((1u32 << live) - 1) as __mmask16;
            if let Some(b) = g.bias {
                real = _mm512_add_ps(real, _mm512_maskz_loadu_ps(mask, b.as_ptr().add(f0)));
            }
            let dst = g.out.as_mut_ptr().add((i0 + r) * n + f0);
            _mm512_mask_storeu_ps(dst, mask, real);
        }
    }
}

/// One group of four columns into an `R × F` tile: `F` aligned weight
/// loads (`group`, then a block's stride apart), `R` broadcasts of `four`
/// activation bytes biased to `u8`, `R·F` `vpdpbusd`s.
///
/// # Safety
/// As [`qgemm_avx512vnni`], and `group.add(j * per_block)` is a group of
/// the pack for every `j < F`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn qgemm_step<const R: usize, const F: usize>(
    acc: &mut [[std::arch::x86_64::__m512i; F]; R],
    group: *const Group,
    per_block: usize,
    four: &[i32; R],
) {
    use std::arch::x86_64::*;
    let mut w = [_mm512_setzero_si512(); F];
    for (j, v) in w.iter_mut().enumerate() {
        *v = _mm512_load_si512(group.add(j * per_block) as *const _);
    }
    for (acc_r, &f) in acc.iter_mut().zip(four) {
        let a = _mm512_set1_epi32(f ^ 0x8080_8080u32 as i32);
        for (c, &v) in acc_r.iter_mut().zip(&w) {
            *c = _mm512_dpbusd_epi32(*c, a, v);
        }
    }
}

/// Gathers `ids` rows of a quantized table, dequantized, into `out`
/// (`ids.len() × cols` row-major) — the embedding-lookup kernel.
pub fn gather_dequant_into(table: &QuantTensor, ids: &[usize], out: &mut [f32]) {
    assert_eq!(
        out.len(),
        ids.len() * table.cols,
        "gather output size mismatch"
    );
    let be = simd::backend();
    note_quant(be);
    let (cols, data) = (table.cols, table.data());
    let (zeros, scales) = (table.zeros(), table.scales());
    simd::on_tier(be, move || {
        for (&id, row) in ids.iter().zip(out.chunks_exact_mut(cols)) {
            assert!(
                id < table.rows,
                "gather id {id} out of range {}",
                table.rows
            );
            dequant(
                &data[id * cols..(id + 1) * cols],
                zeros[id],
                scales[id],
                row,
            );
        }
    })
}

/// Exact integer dot `Σ a[i]·b[i]` over i8 operands: a plain loop, which
/// LLVM vectorizes under the AVX2 shim of `simd::on_tier` (`vpmovsxbw` +
/// `vpmaddwd`). Integer adds are associative and the sum stays far below
/// `i32::MAX` for widths ≤ [`MAX_COLS`], so every lane structure yields the
/// same `i32`.
#[inline(always)]
pub(crate) fn qdot(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// `out[i] = (q[i] − zp) · scale`: `float(q) − float(zp)` on exactly
/// representable small integers, then one multiply, per element — a plain
/// loop with no reduction, so every tier gives its bits.
#[inline(always)]
pub(crate) fn dequant(q: &[i8], zp: i8, scale: f32, out: &mut [f32]) {
    debug_assert_eq!(q.len(), out.len());
    let zpf = zp as f32;
    for (o, &x) in out.iter_mut().zip(q) {
        *o = (x as f32 - zpf) * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TensorRng;
    use std::sync::Arc;

    fn random_matrix(rng: &mut TensorRng, rows: usize, cols: usize, amp: f32) -> Tensor {
        let mut t = Tensor::zeros(&[rows, cols]);
        for v in t.data_mut() {
            *v = (rng.f32() * 2.0 - 1.0) * amp;
        }
        t
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let mut rng = TensorRng::seed(11);
        let t = random_matrix(&mut rng, 7, 33, 3.0);
        let q = QuantTensor::quantize(&t);
        let mut row = vec![0f32; 33];
        for r in 0..7 {
            q.dequant_row_into(r, &mut row);
            let scale = q.scales()[r];
            for (c, &d) in row.iter().enumerate() {
                let x = t.data()[r * 33 + c];
                assert!(
                    (x - d).abs() <= scale * 0.5 + 1e-6,
                    "row {r} col {c}: {x} vs {d} (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn exact_zero_stays_exact() {
        let t = Tensor::from_vec(vec![0.0, 1.5, -2.0, 0.0, 0.25, 0.0], &[2, 3]);
        let q = QuantTensor::quantize(&t);
        let mut row = vec![0f32; 3];
        for r in 0..2 {
            q.dequant_row_into(r, &mut row);
            for (c, &d) in row.iter().enumerate() {
                if t.data()[r * 3 + c] == 0.0 {
                    assert_eq!(
                        d.to_bits(),
                        0.0f32.to_bits(),
                        "zero must round-trip exactly"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_row_quantizes_without_nan() {
        let t = Tensor::from_vec(vec![2.5; 8], &[1, 8]);
        let q = QuantTensor::quantize(&t);
        let mut row = vec![0f32; 8];
        q.dequant_row_into(0, &mut row);
        for &d in &row {
            assert!(d.is_finite());
            assert!((d - 2.5).abs() <= q.scales()[0] * 0.5 + 1e-6);
        }
    }

    #[test]
    fn qmatvec_tracks_f32_reference() {
        let mut rng = TensorRng::seed(5);
        let w = random_matrix(&mut rng, 16, 96, 1.0);
        let x = random_matrix(&mut rng, 1, 96, 1.0);
        let bias: Vec<f32> = (0..16).map(|i| i as f32 * 0.01).collect();
        // f32 reference: x · w^T + b over rows of w.
        let mut want = [0f32; 16];
        for (r, wr) in want.iter_mut().enumerate() {
            let mut acc = 0f32;
            for c in 0..96 {
                acc += x.data()[c] * w.data()[r * 96 + c];
            }
            *wr = acc + bias[r];
        }
        let qw = QuantTensor::quantize(&w);
        let mut qx = vec![0i8; 96];
        let p = quantize_row_into(x.data(), &mut qx);
        let mut got = vec![0f32; 16];
        qmatvec_into(&qw, &qx, p, Some(&bias), &mut got);
        for r in 0..16 {
            assert!(
                (want[r] - got[r]).abs() < 0.05,
                "row {r}: f32 {} vs int8 {}",
                want[r],
                got[r]
            );
        }
    }

    #[test]
    fn quantize_transposed_matches_manual_transpose() {
        let mut rng = TensorRng::seed(9);
        let t = random_matrix(&mut rng, 12, 5, 2.0);
        let mut tt = Tensor::zeros(&[5, 12]);
        for r in 0..12 {
            for c in 0..5 {
                tt.data_mut()[c * 12 + r] = t.data()[r * 5 + c];
            }
        }
        let a = QuantTensor::quantize_transposed(&t);
        let b = QuantTensor::quantize(&tt);
        assert_eq!(a.data(), b.data());
        assert_eq!(a.scales(), b.scales());
        assert_eq!(a.zeros(), b.zeros());
        assert_eq!(a.row_sums(), b.row_sums());
    }

    #[test]
    fn backends_agree_bitwise_and_counters_move() {
        let mut rng = TensorRng::seed(23);
        let w = random_matrix(&mut rng, 9, 131, 1.0);
        let x = random_matrix(&mut rng, 1, 131, 1.0);
        let qw = QuantTensor::quantize(&w);
        let mut qx = vec![0i8; 131];
        let p = quantize_row_into(x.data(), &mut qx);
        let run = |be: Backend| {
            simd::with_backend(be, || {
                let mut out = vec![0f32; 9];
                qmatvec_into(&qw, &qx, p, None, &mut out);
                let mut deq = vec![0f32; 131 * 2];
                gather_dequant_into(&qw, &[3, 7], &mut deq);
                (out, deq)
            })
        };
        let before = (quant_scalar_kernels(), quant_vector_kernels());
        let scalar = run(Backend::Scalar);
        assert!(
            quant_scalar_kernels() > before.0,
            "scalar counter must move"
        );
        for be in [Backend::Avx2, Backend::Avx512] {
            let vec = run(be);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&scalar.0), bits(&vec.0), "{be:?} qmatvec diverged");
            assert_eq!(bits(&scalar.1), bits(&vec.1), "{be:?} dequant diverged");
        }
        if simd::hardware_backend() != Backend::Scalar {
            assert!(
                quant_vector_kernels() > before.1,
                "vector counter must move"
            );
        }
    }

    #[test]
    fn borrowed_parts_read_identically_and_keepalive_holds() {
        use crate::bytes::{extend, pad, Mapping, Storage};
        let _gauge = crate::mmap::tests::MAPPING_TESTS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut rng = TensorRng::seed(31);
        let t = random_matrix(&mut rng, 4, 16, 1.0);
        let owned = QuantTensor::quantize(&t);
        // The four arrays at 64-aligned offsets of one mapped file.
        let mut file = Vec::new();
        let mut offsets = [0usize; 4];
        offsets[0] = file.len();
        extend(&mut file, owned.data());
        pad(&mut file);
        offsets[1] = file.len();
        extend(&mut file, owned.scales());
        pad(&mut file);
        offsets[2] = file.len();
        extend(&mut file, owned.zeros());
        pad(&mut file);
        offsets[3] = file.len();
        extend(&mut file, owned.row_sums());
        let path = std::env::temp_dir().join(format!("imre_quant_{}.bin", std::process::id()));
        std::fs::write(&path, &file).unwrap();
        let map = Arc::new(Mapping::of_path(&path).unwrap());
        std::fs::remove_file(&path).ok();
        let at = |i: usize, len: usize| &map.as_slice()[offsets[i]..offsets[i] + len];
        let borrowed = QuantTensor::from_parts(
            4,
            16,
            Storage::mapped(&map, at(0, 64)).unwrap(),
            Storage::mapped(&map, at(1, 16)).unwrap(),
            Storage::mapped(&map, at(2, 4)).unwrap(),
            Storage::mapped(&map, at(3, 16)).unwrap(),
        )
        .unwrap();
        assert!(borrowed.is_borrowed() && !owned.is_borrowed());
        let weak = Arc::downgrade(&map);
        drop(map);
        assert!(weak.upgrade().is_some(), "tensor must keep the mapping");
        assert_eq!(owned.data(), borrowed.data());
        assert_eq!(owned.row_sums(), borrowed.row_sums());
        let mut a = vec![0f32; 16];
        let mut b = vec![0f32; 16];
        owned.dequant_row_into(2, &mut a);
        borrowed.dequant_row_into(2, &mut b);
        assert_eq!(a, b);
        drop(borrowed);
        assert!(weak.upgrade().is_none(), "mapping must go with the tensor");
    }
}
