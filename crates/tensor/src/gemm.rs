//! Cache-blocked, register-tiled GEMM behind the [`Kernel`] seam.
//!
//! This is the compute-tier core: one 6×16 microkernel shared by the three
//! layout variants backprop needs (`A·B`, `Aᵀ·B` with `A` stored `k×m`,
//! `A·Bᵀ` with `B` stored `n×k`), which differ only in how their packing
//! routines gather panels.
//!
//! # Blocking scheme
//!
//! * `B` is packed once per call into `⌈n/NR⌉` panels of `NR = 16` columns,
//!   laid out k-major (`panel[p·NR + jj]`), so the microkernel streams two
//!   contiguous 8-lane vectors per k-step.
//! * `C` rows are processed in blocks of `MR = 6`; the block's `A` rows are
//!   packed k-major (`panel[p·MR + ii]`) so each k-step issues `MR`
//!   broadcasts from one cache line.
//! * The microkernel holds the full `MR×NR` tile in 12 ymm accumulators
//!   (plus two `B` vectors and one broadcast — 15 of 16 registers).
//! * rayon parallelism splits `C` into disjoint row-block chunks; nothing
//!   else is shared mutably, so the split cannot reorder any accumulation.
//!
//! There is deliberately **no blocking over k**: the bitwise-identity
//! contract (see below) requires each output element's additions to happen
//! in ascending-`p` order as one uninterrupted chain, and at this
//! workspace's layer shapes (`k ≤ a few thousand`) a full `k×NR` panel fits
//! comfortably in L2, so k-blocking would cost contract complexity for no
//! locality win.
//!
//! # Accumulation-order contract (bitwise identity)
//!
//! Every backend computes, for each output element, exactly
//! `((0.0 + a·b) + a·b) + …` with `p` ascending and each term a plain
//! (non-fused) multiply then add. SIMD vectorizes across *independent
//! output lanes* only, never within one element's chain, so the scalar
//! loops, the AVX2 microkernel, and any rayon split are bitwise identical
//! on every non-NaN output — ±Inf, denormals and signed zeros included —
//! and produce NaN at exactly the same positions.
//!
//! NaN *payload* bits are the one deliberate exclusion: LLVM treats
//! `fadd`/`fmul` as commutative and leaves the payload of a NaN result
//! unspecified, while x86 `addss`/`addps` propagates the *first* source's
//! payload when both operands are NaN. Which payload survives
//! `acc + term` when an earlier NaN accumulator meets a fresh indefinite
//! NaN (e.g. `-inf × -0.0` → `0xFFC00000`) therefore depends on operand
//! order the compiler is free to flip — it differs even between two
//! scalar compilations of the same source chain. The differential suites
//! compare NaN outputs payload-insensitively; data-movement kernels
//! (ReLU, pooling, im2col, packing) still preserve payloads exactly.
//!
//! **FMA is deliberately excluded.** `vfmadd` skips the intermediate
//! rounding of the multiply, so an FMA kernel cannot be bit-identical to
//! any scalar mul+add twin; a `f32::mul_add` scalar oracle would in turn
//! hit libm's software `fmaf` on the default x86-64 target — slow and with
//! its own NaN-payload hazards. Plain `vmulps`+`vaddps` keeps the oracle a
//! readable safe loop and costs roughly a third of peak throughput, which
//! the register tiling more than buys back against the streaming scalar
//! baseline. Zero-padded edge panels are bitwise-safe because padded lanes
//! are discarded at copy-out and padding never extends the k chain.
//!
//! Packing panels come from a thread-local [`BufferPool`] (released with
//! [`BufferPool::release_unchanged`]: every element that will be read is
//! overwritten first, so the pool skips the O(k·n) re-zero), keeping
//! steady-state GEMM calls allocation-free on every rayon worker.

use crate::bufpool::BufferPool;
use crate::kernel::Kernel;
use rayon::prelude::*;
use std::cell::RefCell;

/// Microkernel tile rows (`C` rows per register tile).
pub const MR: usize = 6;
/// Microkernel tile columns (`C` columns per register tile; two ymm lanes).
pub const NR: usize = 16;

/// Minimum number of output elements before the kernels bother with rayon.
/// Below this the spawn overhead dominates for the small layers in tests.
const PAR_THRESHOLD: usize = 16 * 1024;

/// `C` rows per rayon task on the packed path — a few microkernel tiles,
/// so task count stays well above core count at layer shapes.
const ROWS_PER_TASK: usize = 4 * MR;

/// Operand layout of a GEMM call. The microkernel is layout-agnostic; only
/// the pack routines differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `C = A·B`: `a` is `m×k` row-major, `b` is `k×n` row-major.
    Nn,
    /// `C = Aᵀ·B`: `a` is stored `k×m` (so `Aᵀ` is `m×k`), `b` is `k×n`.
    Tn,
    /// `C = A·Bᵀ`: `a` is `m×k`, `b` is stored `n×k` (so `Bᵀ` is `k×n`).
    Nt,
}

thread_local! {
    /// Per-thread pool for packed panels. `release_unchanged` keeps length
    /// and contents: panels are fully overwritten before every read, so
    /// re-zeroing on release would be pure waste.
    static PANELS: RefCell<BufferPool<f32>> = RefCell::new(BufferPool::new(4));
}

fn panel_take(min_len: usize) -> Vec<f32> {
    let mut v = PANELS.with(|p| p.borrow_mut().acquire());
    if v.len() < min_len {
        v.resize(min_len, 0.0);
    }
    v
}

fn panel_put(v: Vec<f32>) {
    PANELS.with(|p| p.borrow_mut().release_unchanged(v));
}

/// Dispatch entry: `C = op(A)·op(B)` per `layout`, overwriting `c`.
///
/// Size contract (checked): `c.len() == m*n`, and `a`/`b` hold the layout's
/// operand exactly (`m×k`/`k×m` and `k×n`/`n×k`).
pub fn gemm(kernel: Kernel, layout: Layout, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let (a_len, b_len) = match layout {
        Layout::Nn => (m * k, k * n),
        Layout::Tn => (k * m, k * n),
        Layout::Nt => (m * k, n * k),
    };
    assert_eq!(a.len(), a_len, "gemm {layout:?}: lhs size");
    assert_eq!(b.len(), b_len, "gemm {layout:?}: rhs size");
    assert_eq!(c.len(), m * n, "gemm {layout:?}: out size");
    if m == 0 || n == 0 {
        return;
    }
    match kernel {
        Kernel::Scalar => scalar_gemm(layout, a, b, c, m, k, n),
        Kernel::Simd => simd_gemm(layout, a, b, c, m, k, n),
    }
}

// ---------------------------------------------------------------------------
// Scalar oracle
// ---------------------------------------------------------------------------

/// Portable scalar GEMM — the differential oracle the SIMD path must match
/// bit for bit. `ikj` order for the row-major variants (streaming `b`
/// rows), a sequential dot product for `Nt`; each output element's k chain
/// is ascending and unbroken, which is the whole contract.
fn scalar_gemm(layout: Layout, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let body = |(i, c_row): (usize, &mut [f32])| match layout {
        Layout::Nn => {
            c_row.fill(0.0);
            let a_row = &a[i * k..(i + 1) * k];
            // No zero-skip: `0.0 * b` must still enter the chain (it is not
            // a no-op for Inf/NaN `b` or a `-0.0` accumulator), or the
            // backends desync exactly on the torture inputs.
            for (p, &a_v) in a_row.iter().enumerate() {
                let b_row = &b[p * n..(p + 1) * n];
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                    *c_v += a_v * b_v;
                }
            }
        }
        Layout::Tn => {
            c_row.fill(0.0);
            for p in 0..k {
                let a_v = a[p * m + i];
                let b_row = &b[p * n..(p + 1) * n];
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                    *c_v += a_v * b_v;
                }
            }
        }
        Layout::Nt => {
            let a_row = &a[i * k..(i + 1) * k];
            for (j, c_v) in c_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                    acc += x * y;
                }
                *c_v = acc;
            }
        }
    };
    if m * n >= PAR_THRESHOLD {
        c.par_chunks_mut(n).enumerate().for_each(body);
    } else {
        c.chunks_mut(n).enumerate().for_each(body);
    }
}

// ---------------------------------------------------------------------------
// Packed AVX2 path
// ---------------------------------------------------------------------------

/// SIMD GEMM: packed panels + the 6×16 microkernel where AVX2 is present,
/// scalar oracle otherwise (same fallback rule as every [`crate::simd`]
/// wrapper, so a hand-built `Kernel::Simd` is safe on any CPU).
fn simd_gemm(layout: Layout, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_available() {
        return packed_gemm_avx2(layout, a, b, c, m, k, n);
    }
    scalar_gemm(layout, a, b, c, m, k, n);
}

/// Packs the `NR`-column panel starting at column `j0` into
/// `pb[..k*NR]`, zero-filling lanes past `n` so edge panels still feed a
/// full-width microkernel. Writes every element it covers.
fn pack_b(layout: Layout, b: &[f32], pb: &mut [f32], k: usize, n: usize, j0: usize) {
    let cols = NR.min(n - j0);
    match layout {
        // `b` is k×n: each k-step's slice is contiguous.
        Layout::Nn | Layout::Tn => {
            for (p, dst) in pb.chunks_exact_mut(NR).take(k).enumerate() {
                dst[..cols].copy_from_slice(&b[p * n + j0..p * n + j0 + cols]);
                dst[cols..].fill(0.0);
            }
        }
        // `b` is stored n×k: jj-outer keeps the reads contiguous (one
        // stored row per lane) at the cost of NR-strided writes.
        Layout::Nt => {
            for jj in 0..cols {
                let b_row = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
                for (p, &v) in b_row.iter().enumerate() {
                    pb[p * NR + jj] = v;
                }
            }
            if cols < NR {
                for p in 0..k {
                    pb[p * NR + cols..p * NR + NR].fill(0.0);
                }
            }
        }
    }
}

/// Packs the `MR`-row block starting at row `i0` into `pa[..k*MR]`,
/// zero-filling rows past `m`. Writes every element it covers.
fn pack_a(layout: Layout, a: &[f32], pa: &mut [f32], m: usize, k: usize, i0: usize) {
    let rows = MR.min(m - i0);
    match layout {
        // `a` is m×k row-major: transpose the block into k-major order.
        Layout::Nn | Layout::Nt => {
            for ii in 0..rows {
                let a_row = &a[(i0 + ii) * k..(i0 + ii + 1) * k];
                for (p, &v) in a_row.iter().enumerate() {
                    pa[p * MR + ii] = v;
                }
            }
        }
        // `a` is stored k×m: already k-major, each k-step contiguous.
        Layout::Tn => {
            for (p, dst) in pa.chunks_exact_mut(MR).take(k).enumerate() {
                dst[..rows].copy_from_slice(&a[p * m + i0..p * m + i0 + rows]);
            }
        }
    }
    if rows < MR {
        for p in 0..k {
            pa[p * MR + rows..p * MR + MR].fill(0.0);
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn packed_gemm_avx2(layout: Layout, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let np = n.div_ceil(NR);
    let mut pb = panel_take(np * k * NR);
    for jp in 0..np {
        pack_b(layout, b, &mut pb[jp * k * NR..(jp + 1) * k * NR], k, n, jp * NR);
    }
    let pb_ref: &[f32] = &pb;

    let body = |(blk, c_rows): (usize, &mut [f32])| {
        let i_base = blk * ROWS_PER_TASK;
        let rows_in_block = c_rows.len() / n;
        let mut pa = panel_take(k * MR);
        let mut tile = [0.0f32; MR * NR];
        let mut t0 = 0;
        while t0 < rows_in_block {
            let rows = MR.min(rows_in_block - t0);
            pack_a(layout, a, &mut pa, m, k, i_base + t0);
            for jp in 0..np {
                let panel = &pb_ref[jp * k * NR..(jp + 1) * k * NR];
                // SAFETY: AVX2 presence was checked by the caller
                // (`simd_gemm`); `pa`/`panel` hold at least `k` full
                // k-steps and `tile` is exactly MR×NR.
                unsafe { avx2::microkernel_6x16(&pa, panel, k, &mut tile) };
                let j0 = jp * NR;
                let cols = NR.min(n - j0);
                for ii in 0..rows {
                    let dst = &mut c_rows[(t0 + ii) * n + j0..(t0 + ii) * n + j0 + cols];
                    dst.copy_from_slice(&tile[ii * NR..ii * NR + cols]);
                }
            }
            t0 += rows;
        }
        panel_put(pa);
    };

    if m * n >= PAR_THRESHOLD && m > ROWS_PER_TASK {
        c.par_chunks_mut(ROWS_PER_TASK * n).enumerate().for_each(body);
    } else {
        c.chunks_mut(ROWS_PER_TASK * n).enumerate().for_each(body);
    }
    panel_put(pb);
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The register-tiled tile kernel. Lives in the tensor crate's audited
    //! unsafe budget; every `unsafe` carries a `// SAFETY:` note.

    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// Computes one `MR×NR` tile of `C` into `tile` from k-major packed
    /// panels: `pa[p*MR + ii]`, `pb[p*NR + jj]`.
    ///
    /// Per element this is exactly the scalar chain
    /// `(((0.0 + a·b) + a·b) + …)` with `p` ascending: `vmulps` + `vaddps`
    /// have scalar rounding/NaN semantics lane-wise, and no FMA contraction
    /// can occur because intrinsics lower to their named instructions.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `pa.len() >= k*MR`,
    /// `pb.len() >= k*NR`.
    // SAFETY: callers verify AVX2 before taking this path and pass
    // panels of at least k*MR / k*NR floats — the only obligations.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn microkernel_6x16(pa: &[f32], pb: &[f32], k: usize, tile: &mut [f32; MR * NR]) {
        debug_assert!(pa.len() >= k * MR && pb.len() >= k * NR);
        let mut acc = [_mm256_setzero_ps(); 2 * MR];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..k {
            // SAFETY: `bp` walks `pb` in NR-float steps for `k` steps,
            // within the length the caller guaranteed; loads are unaligned.
            let b0 = unsafe { _mm256_loadu_ps(bp) };
            // SAFETY: as above, second half of the same NR-float step.
            let b1 = unsafe { _mm256_loadu_ps(bp.add(8)) };
            for ii in 0..MR {
                // SAFETY: `ap` walks `pa` in MR-float steps for `k` steps,
                // within the length the caller guaranteed.
                let av = unsafe { _mm256_set1_ps(*ap.add(ii)) };
                // Non-fused multiply then add: bitwise-identical to the
                // scalar twin's `c += a * b` (FMA would skip a rounding).
                acc[2 * ii] = _mm256_add_ps(acc[2 * ii], _mm256_mul_ps(av, b0));
                acc[2 * ii + 1] = _mm256_add_ps(acc[2 * ii + 1], _mm256_mul_ps(av, b1));
            }
            // SAFETY: in-bounds pointer arithmetic per the length contract.
            ap = unsafe { ap.add(MR) };
            // SAFETY: in-bounds pointer arithmetic per the length contract.
            bp = unsafe { bp.add(NR) };
        }
        for ii in 0..MR {
            // SAFETY: `tile` is exactly MR*NR floats; each row stores two
            // unaligned 8-lane vectors at offsets ii*NR and ii*NR+8.
            unsafe {
                _mm256_storeu_ps(tile.as_mut_ptr().add(ii * NR), acc[2 * ii]);
                _mm256_storeu_ps(tile.as_mut_ptr().add(ii * NR + 8), acc[2 * ii + 1]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic mixed-class value: every special class the contract
    /// names (NaN payloads, ±Inf, ±0, denormals) plus ordinary values.
    fn torture_value(s: &mut u64) -> f32 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        match *s % 13 {
            0 => f32::NAN,
            1 => f32::from_bits(0x7FC0_5A5A), // NaN payload
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => 0.0,
            5 => -0.0,
            6 => f32::from_bits((*s >> 40) as u32 & 0x007F_FFFF), // denormal
            7 => 1.0,
            8 => -1.0,
            9 => 1.0 + f32::EPSILON,
            _ => f32::from_bits((*s >> 32) as u32),
        }
    }

    fn torture_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
        (0..n).map(|_| torture_value(&mut s)).collect()
    }

    /// Bitwise equality, except both-NaN pairs compare equal regardless of
    /// payload: NaN payloads through `fadd`/`fmul` are LLVM-unspecified
    /// (see the module docs), so only NaN *positions* are contractual.
    fn assert_bits_eq(a: &[f32], b: &[f32], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            if x.is_nan() && y.is_nan() {
                continue;
            }
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: bits diverged at {i}: {x} vs {y}");
        }
    }

    /// Shapes straddling every edge: unit dims, non-multiples of MR/NR,
    /// exact multiples, and one past PAR_THRESHOLD to hit the rayon split.
    fn shapes() -> Vec<(usize, usize, usize)> {
        vec![
            (1, 1, 1),
            (3, 5, 7),
            (6, 4, 16),
            (7, 9, 17),
            (5, 16, 15),
            (13, 33, 31),
            (12, 8, 32),
            (25, 17, 40),
            (160, 40, 160),
        ]
    }

    #[test]
    fn backends_bitwise_identical_all_layouts() {
        for layout in [Layout::Nn, Layout::Tn, Layout::Nt] {
            for (m, k, n) in shapes() {
                let (a_len, b_len) = match layout {
                    Layout::Nn => (m * k, k * n),
                    Layout::Tn => (k * m, k * n),
                    Layout::Nt => (m * k, n * k),
                };
                let a = torture_vec(a_len, (m * 31 + k) as u64);
                let b = torture_vec(b_len, (n * 17 + k) as u64);
                let mut cs = vec![f32::NAN; m * n];
                let mut cv = vec![0.0f32; m * n];
                gemm(Kernel::Scalar, layout, &a, &b, &mut cs, m, k, n);
                gemm(Kernel::Simd, layout, &a, &b, &mut cv, m, k, n);
                assert_bits_eq(&cs, &cv, &format!("{layout:?} {m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn matches_naive_on_finite_inputs() {
        // Against the textbook ijk loop (same chain, so exactly equal), in
        // every storage layout, up to the shape that takes the rayon split.
        for (m, k, n) in shapes() {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 7 + 3) % 23) as f32 - 11.0).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 5 + 1) % 19) as f32 - 9.0).collect();
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a[i * k + p] * b[p * n + j];
                    }
                    naive[i * n + j] = acc;
                }
            }
            let transposed = |x: &[f32], rows: usize, cols: usize| -> Vec<f32> {
                (0..rows * cols).map(|i| x[(i % rows) * cols + i / rows]).collect()
            };
            let (a_t, b_t) = (transposed(&a, m, k), transposed(&b, k, n));
            for kernel in [Kernel::Scalar, Kernel::Simd] {
                for (layout, a, b) in
                    [(Layout::Nn, &a, &b), (Layout::Tn, &a_t, &b), (Layout::Nt, &a, &b_t)]
                {
                    let mut c = vec![0.0f32; m * n];
                    gemm(kernel, layout, a, b, &mut c, m, k, n);
                    assert_bits_eq(
                        &c,
                        &naive,
                        &format!("{} {layout:?} {m}x{k}x{n}", kernel.name()),
                    );
                }
            }
        }
    }

    #[test]
    fn k_zero_writes_zeros() {
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let mut c = vec![f32::NAN; 6];
            gemm(kernel, Layout::Nn, &[], &[], &mut c, 2, 0, 3);
            assert!(c.iter().all(|v| v.to_bits() == 0), "{:?}", c);
        }
    }

    #[test]
    fn empty_output_is_a_no_op() {
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let mut c: Vec<f32> = vec![];
            gemm(kernel, Layout::Nn, &[], &[1.0, 2.0], &mut c, 0, 1, 2);
            gemm(kernel, Layout::Nn, &[1.0, 2.0], &[], &mut c, 2, 1, 0);
        }
    }

    #[test]
    fn panel_pool_reuses_buffers() {
        // Warm up, then confirm the thread-local pool serves repeat calls.
        let a = vec![1.0f32; 32 * 32];
        let b = vec![2.0f32; 32 * 32];
        let mut c = vec![0.0f32; 32 * 32];
        gemm(Kernel::Simd, Layout::Nn, &a, &b, &mut c, 32, 32, 32);
        let idle_after_warmup = PANELS.with(|p| p.borrow().idle());
        gemm(Kernel::Simd, Layout::Nn, &a, &b, &mut c, 32, 32, 32);
        let idle_after_reuse = PANELS.with(|p| p.borrow().idle());
        assert_eq!(idle_after_warmup, idle_after_reuse, "pool should cycle, not grow");
    }
}
