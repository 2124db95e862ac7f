//! Cache-blocked, register-tiled GEMM behind the [`Kernel`] seam.
//!
//! This is the compute-tier core: one packed driver and one 6×16 tile
//! kernel (an AVX2 body and a portable twin) shared by the three layout
//! variants backprop needs (`A·B`, `Aᵀ·B` with `A` stored `k×m`, `A·Bᵀ`
//! with `B` stored `n×k`), which differ only in how their packing routines
//! gather panels — and by the convolution, which skips the packing of its
//! big operand altogether by lowering image patches straight into `B`
//! panels ([`crate::conv`]).
//!
//! # Data path
//!
//! * `B` is packed once per call into `⌈n/NR⌉` panels of `NR = 16` columns,
//!   laid out k-major (`panel[p·NR + jj]`), so the tile kernel streams two
//!   contiguous 8-lane vectors per k-step — unless the call is one row
//!   block deep, when nothing is packed at all (next section).
//! * `A` is packed once per call into `⌈m/MR⌉` row blocks of `MR = 6` rows,
//!   k-major (`block[p·MR + ii]`), so each k-step issues `MR` broadcasts
//!   from one cache line. A caller that multiplies many `B`s by one `A`
//!   (the convolution: one weight bank, one `B` per image) packs `A` once
//!   and calls [`gemm_packed`] per `B`.
//! * The tile kernel holds the full `MR×NR` tile in 12 ymm accumulators
//!   (plus two `B` vectors and one broadcast — 15 of 16 registers) and
//!   finishes the tile's k chain before anything touches `C`.
//! * The copy-out lands the finished tile in `C` by [`Store`]: `Set`
//!   overwrites (so `C` never needs zeroing first), `Add` computes
//!   `C += tile` (so a caller accumulating a product into an existing
//!   buffer — `Linear`'s `grad += dYᵀ·X` — needs no temporary and no second
//!   pass). Either way `C` is touched exactly once per element.
//! * rayon parallelism splits `C` into disjoint row-block chunks; nothing
//!   else is shared mutably, so the split cannot reorder any accumulation.
//!
//! Copies per operand between the caller's matrix and the tile kernel,
//! before → after this layout (PR 17):
//!
//! | operand                    | before                              | after                        |
//! |----------------------------|-------------------------------------|------------------------------|
//! | `A` (generic call)         | 1 pack per row block per call       | 1 pack per call              |
//! | `A` (conv weights)         | 1 pack per row block **per image**  | 1 pack per layer call        |
//! | `B` (generic call)         | 1 pack                              | 1 pack                       |
//! | `B` (conv patches)         | im2col matrix + 1 pack (2 writes)   | lowered into panels (1 write)|
//! | `C`                        | zero-fill + copy-out (2 writes)     | copy-out (1 write)           |
//! | `C` added into a buffer    | zero-fill + copy-out + add pass (3) | `Store::Add` copy-out (1)    |
//!
//! # Skinny products: one row block, nothing packed
//!
//! Packing pays when a packed element is reused: `B`'s panels once per row
//! block of `A`, a tile's stack round-trip once per k-step. A batch-4
//! `Linear` has neither. Its forward (`Nt`) and `dX` (`Nn`) are `m = 4`
//! products, a single one-third-padded row block, so every packed weight
//! was written once and read once — three passes over the weight matrix
//! (read, write strided, read) for one pass of arithmetic — and its
//! `grad_W += dYᵀ·X` (`Tn`) has `k = 4`, four multiply-adds per element
//! between a tile's zeroing and its copy-out. So when the packed driver
//! would run a single row block (`m ≤ MR`, `Nn`/`Nt` overwriting `C`) or
//! chains no longer than one (`k ≤ MR`, `Tn`), the call takes a streamed
//! loop instead ([`streams`], [`gemm_streamed`]): the small operand stays
//! cache-resident and the big one goes past exactly once, unpacked, in its
//! stored order. The criterion is structural — one row block means packing
//! is never amortised — so there is no threshold to tune, and the arms are
//! the contract's chain per element, bit for bit the packed driver
//! (differential tests below).
//!
//! | `Linear` operand (batch ≤ 6)  | packed driver                        | streamed                    |
//! |-------------------------------|--------------------------------------|-----------------------------|
//! | `W`, forward (`Nt`)           | read + strided panel write + read (3)| read (1)                    |
//! | `W`, `dX` (`Nn`)              | read + panel write + read (3)        | read (1); 0 where unread¹   |
//! | `grad_W`, `+= dYᵀ·X` (`Tn`)   | tile → stack → read-modify-write     | 1 read + 1 write            |
//! | `X`, `dY`                     | packed (small)                       | in place / 8-lane k-major   |
//!
//! ¹ the network's first parameter-owning layer skips its `dX` product
//! (`dgs_nn::layer::Layer::skip_input_grad`).
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
//! (non-fused) multiply then add; `Store::Add` then adds that finished sum
//! to the old `C` value once (`c + tile`, never `(c + a·b) + …`). SIMD
//! vectorizes across *independent output lanes* only, never within one
//! element's chain, so the portable tile kernel (the scalar oracle: a plain
//! safe triple loop), the AVX2 tile kernel, and any rayon split are bitwise
//! identical on every non-NaN output — ±Inf, denormals and signed zeros
//! included — and produce NaN at exactly the same positions.
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
//! (ReLU, pooling, patch lowering, packing) still preserve payloads exactly.
//!
//! **FMA is deliberately excluded.** `vfmadd` skips the intermediate
//! rounding of the multiply, so an FMA kernel cannot be bit-identical to
//! any scalar mul+add twin; a `f32::mul_add` scalar oracle would in turn
//! hit libm's software `fmaf` on the default x86-64 target — slow and with
//! its own NaN-payload hazards. Plain `vmulps`+`vaddps` keeps the oracle a
//! readable safe loop and costs roughly a third of peak throughput, which
//! the register tiling more than buys back against a streaming scalar
//! baseline. Edge panels are bitwise-safe because padded lanes are
//! discarded at copy-out and padding never extends the k chain.
//!
//! Packed operands and the convolution's per-task working set come from a
//! thread-local [`BufferPool`] (released with
//! [`BufferPool::release_unchanged`]: every element that will be read is
//! overwritten first, so nothing is re-zeroed), keeping steady-state calls
//! allocation-free on every rayon worker — and, on a sequential build,
//! keeping one cache-hot working set under every task of every layer.

use crate::bufpool::BufferPool;
use crate::kernel::Kernel;
use rayon::prelude::*;
use std::cell::RefCell;

/// Microkernel tile rows (`C` rows per register tile).
pub const MR: usize = 6;
/// Microkernel tile columns (`C` columns per register tile; two ymm lanes).
pub const NR: usize = 16;

/// Minimum number of output elements before the driver bothers with rayon.
/// Below this the spawn overhead dominates for the small layers in tests.
const PAR_THRESHOLD: usize = 16 * 1024;

/// `C` rows per rayon task — a few microkernel tiles, so task count stays
/// well above core count at layer shapes.
const ROWS_PER_TASK: usize = 4 * MR;

/// Images per fan-out chunk of the convolution backward pass: the images
/// of a chunk run as parallel tasks, then their weight-gradient partials
/// are folded in image order while still cache-resident, so the partials
/// buffer is this many weight banks, not a batch of them.
pub(crate) const IMAGES_PER_CHUNK: usize = 4;

/// Operand layout of a GEMM call. The tile kernel is layout-agnostic; only
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

/// How the copy-out lands a finished tile in `C`.
#[derive(Clone, Copy)]
pub(crate) enum Store {
    /// `C = tile`: old contents are never read.
    Set,
    /// `C += tile`: one add of the finished sum per element.
    Add,
}

thread_local! {
    /// Per-thread pool for packed operands and conv working sets.
    /// `release_unchanged` keeps length and contents: every element is
    /// overwritten before it is read, so re-zeroing would be pure waste.
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

/// Runs `f` over a `len`-element working set from the calling thread's
/// panel pool. Contents are whatever the last user left: `f` must write
/// every element before reading it.
pub(crate) fn with_workspace<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut ws = panel_take(len);
    let r = f(&mut ws[..len]);
    panel_put(ws);
    r
}

/// Dispatch entry: `C = op(A)·op(B)` per `layout`, overwriting `c` (whose
/// old contents are never read).
///
/// Size contract (checked): `c.len() == m*n`, and `a`/`b` hold the layout's
/// operand exactly (`m×k`/`k×m` and `k×n`/`n×k`).
pub fn gemm(kernel: Kernel, layout: Layout, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_store(kernel, layout, Store::Set, a, b, c, m, k, n);
}

/// [`gemm`] with the accumulating copy-out: `C += op(A)·op(B)`, each
/// element's chain finished first and added to `c` once.
pub fn gemm_add(kernel: Kernel, layout: Layout, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_store(kernel, layout, Store::Add, a, b, c, m, k, n);
}

#[allow(clippy::too_many_arguments)]
fn gemm_store(
    kernel: Kernel,
    layout: Layout,
    store: Store,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
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
    if streams(layout, store, m, k) {
        return gemm_streamed(kernel, layout, store, a, b, c, m, k, n);
    }
    let (a_packed, b_packed) = (packed_a_len(m, k), packed_b_len(k, n));
    with_workspace(a_packed + b_packed, |ws| {
        let (pa, pb) = ws.split_at_mut(a_packed);
        pack_a(layout, a, pa, m, k);
        pack_b(layout, b, pb, k, n);
        gemm_packed(kernel, store, pa, pb, c, m, k, n);
    });
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Length of [`pack_a`]'s output for an `m×k` operand.
pub(crate) fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Length of [`pack_b`]'s output for a `k×n` operand.
pub(crate) fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Packs `B` into `⌈n/NR⌉` k-major panels (`pb[jp·k·NR + p·NR + jj]`),
/// zero-filling lanes past `n` so edge panels still feed a full-width
/// tile kernel. Writes every element of `pb[..packed_b_len(k, n)]`.
pub(crate) fn pack_b(layout: Layout, b: &[f32], pb: &mut [f32], k: usize, n: usize) {
    for (jp, panel) in pb[..packed_b_len(k, n)].chunks_exact_mut((k * NR).max(1)).enumerate() {
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        match layout {
            // `b` is k×n: each k-step's slice is contiguous.
            Layout::Nn | Layout::Tn => {
                for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
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
                        panel[p * NR + jj] = v;
                    }
                }
                if cols < NR {
                    for dst in panel.chunks_exact_mut(NR) {
                        dst[cols..].fill(0.0);
                    }
                }
            }
        }
    }
}

/// Packs `A` into `⌈m/MR⌉` k-major row blocks (`pa[ib·k·MR + p·MR + ii]`),
/// zero-filling rows past `m`. Writes every element of
/// `pa[..packed_a_len(m, k)]`.
pub(crate) fn pack_a(layout: Layout, a: &[f32], pa: &mut [f32], m: usize, k: usize) {
    for (ib, block) in pa[..packed_a_len(m, k)].chunks_exact_mut((k * MR).max(1)).enumerate() {
        let i0 = ib * MR;
        let rows = MR.min(m - i0);
        match layout {
            // `a` is m×k row-major: transpose the block into k-major order.
            Layout::Nn | Layout::Nt => {
                for ii in 0..rows {
                    let a_row = &a[(i0 + ii) * k..(i0 + ii + 1) * k];
                    for (p, &v) in a_row.iter().enumerate() {
                        block[p * MR + ii] = v;
                    }
                }
            }
            // `a` is stored k×m: already k-major, each k-step contiguous.
            Layout::Tn => {
                for (p, dst) in block.chunks_exact_mut(MR).enumerate() {
                    dst[..rows].copy_from_slice(&a[p * m + i0..p * m + i0 + rows]);
                }
            }
        }
        if rows < MR {
            for dst in block.chunks_exact_mut(MR) {
                dst[rows..].fill(0.0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed driver
// ---------------------------------------------------------------------------

/// `C = A·B` (or `C += A·B`) over operands already in packed form: `pa` as
/// [`pack_a`] lays an `m×k` operand out, `pb` as [`pack_b`] lays a `k×n`
/// one out (lanes past `n` may hold anything finite or not — their tile
/// columns are never copied out). `c` is `m×n` row-major.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed(
    kernel: Kernel,
    store: Store,
    pa: &[f32],
    pb: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(pa.len() >= packed_a_len(m, k), "gemm_packed: lhs blocks");
    assert!(pb.len() >= packed_b_len(k, n), "gemm_packed: rhs panels");
    assert_eq!(c.len(), m * n, "gemm_packed: out size");
    if m == 0 || n == 0 {
        return;
    }
    let tile_kernel = tile_kernel_for(kernel);
    let body = |(chunk, c_rows): (usize, &mut [f32])| {
        let mut tile = [0.0f32; MR * NR];
        for (tb, c_tile_rows) in c_rows.chunks_mut(MR * n).enumerate() {
            let ib = chunk * (ROWS_PER_TASK / MR) + tb;
            let block = &pa[ib * k * MR..(ib + 1) * k * MR];
            for (jp, j0) in (0..n).step_by(NR).enumerate() {
                tile_kernel(block, &pb[jp * k * NR..(jp + 1) * k * NR], k, &mut tile);
                let cols = NR.min(n - j0);
                for (c_row, t_row) in c_tile_rows.chunks_exact_mut(n).zip(tile.chunks_exact(NR)) {
                    let dst = &mut c_row[j0..j0 + cols];
                    match store {
                        Store::Set => dst.copy_from_slice(&t_row[..cols]),
                        Store::Add => {
                            for (d, &t) in dst.iter_mut().zip(t_row.iter()) {
                                *d += t;
                            }
                        }
                    }
                }
            }
        }
    };
    if m * n >= PAR_THRESHOLD && m > ROWS_PER_TASK {
        c.par_chunks_mut(ROWS_PER_TASK * n).enumerate().for_each(body);
    } else {
        c.chunks_mut(ROWS_PER_TASK * n).enumerate().for_each(body);
    }
}

/// One `MR×NR` tile from a packed row block and a packed panel.
type TileKernel = fn(&[f32], &[f32], usize, &mut [f32; MR * NR]);

/// The AVX2 tile kernel where `kernel` asks for SIMD and the CPU has it,
/// the portable one otherwise (same fallback rule as every [`crate::simd`]
/// wrapper, so a hand-built `Kernel::Simd` is safe on any CPU).
fn tile_kernel_for(kernel: Kernel) -> TileKernel {
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Simd && crate::simd::avx2_available() {
        return |pa, pb, k, tile| {
            assert!(pa.len() >= k * MR && pb.len() >= k * NR, "tile kernel: packed operand length");
            // SAFETY: `tile_kernel_for` hands this closure out only after
            // `avx2_available()`; the assert above is the length contract.
            unsafe { avx2::microkernel_6x16(pa, pb, k, tile) }
        };
    }
    let _ = kernel;
    tile_portable
}

/// Portable tile kernel — the differential oracle the AVX2 kernel must
/// match bit for bit: per element one ascending-`p` chain of non-fused
/// multiply-then-add from `0.0`, which is the whole contract. No
/// zero-skip: `0.0 * b` must still enter the chain (it is not a no-op for
/// Inf/NaN `b` or a `-0.0` accumulator).
fn tile_portable(pa: &[f32], pb: &[f32], k: usize, tile: &mut [f32; MR * NR]) {
    let mut acc = [0.0f32; MR * NR];
    for (a, b) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(k) {
        for (acc_row, &a_v) in acc.chunks_exact_mut(NR).zip(a.iter()) {
            for (c_v, &b_v) in acc_row.iter_mut().zip(b.iter()) {
                *c_v += a_v * b_v;
            }
        }
    }
    *tile = acc;
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

// ---------------------------------------------------------------------------
// Streamed skinny products
// ---------------------------------------------------------------------------

/// Whether a product is too skinny for packing to pay: the packed driver
/// would run a single row block (`m ≤ MR`), using every packed `B` element
/// exactly once, or — in `Tn`, the weight-gradient form — chains no longer
/// than one block (`k ≤ MR`), round-tripping every tile through the stack
/// for a handful of multiply-adds. Structural, not tuned: one row block
/// means the copies are never amortised. `Nn`/`Nt` with [`Store::Add`] have
/// no caller and keep the packed driver.
fn streams(layout: Layout, store: Store, m: usize, k: usize) -> bool {
    match (layout, store) {
        (Layout::Nn | Layout::Nt, Store::Set) => m <= MR,
        (Layout::Nn | Layout::Nt, Store::Add) => false,
        (Layout::Tn, _) => k <= MR,
    }
}

/// Output lanes [`stream_nt`] carries per stored row of `B`: the skinny
/// operand's `m ≤ MR` rows, padded to one 8-float vector.
const LANES: usize = 8;

/// The products [`streams`] selects, run unpacked: the small operand stays
/// cache-resident and the big one streams past exactly once. Each loop is
/// the contract's chain verbatim per output element (`0.0`, then `+ a·b`
/// with `p` ascending, multiply then add; `Store::Add` adds the finished sum
/// once), so it is the packed driver bit for bit. One safe body per layout,
/// compiled twice: as is for the portable path, and under AVX2 codegen —
/// where LLVM vectorises across the independent output lanes — for
/// [`Kernel::Simd`]. `ROWS` is [`stream_nt`]'s register budget: its
/// `ROWS × LANES` sums fill half of either register file.
#[allow(clippy::too_many_arguments)]
fn gemm_streamed(
    kernel: Kernel,
    layout: Layout,
    store: Store,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // Only `Nt` needs room: its `A`, re-laid k-major.
    let lanes = if layout == Layout::Nt { k * LANES } else { 0 };
    with_workspace(lanes, |xa| {
        #[cfg(target_arch = "x86_64")]
        if kernel == Kernel::Simd && crate::simd::avx2_available() {
            // SAFETY: AVX2 was verified on the line above, which is the
            // callee's only obligation — its body is safe code.
            return unsafe { streamed_avx2(layout, store, a, b, c, xa, m, k, n) };
        }
        let _ = kernel;
        streamed::<4>(layout, store, a, b, c, xa, m, k, n)
    })
}

/// [`streamed`] compiled with AVX2 enabled.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
// SAFETY: the one caller checks `avx2_available()` first; nothing in the
// body is unsafe, the attribute only widens what LLVM may emit.
#[target_feature(enable = "avx2")]
unsafe fn streamed_avx2(
    layout: Layout,
    store: Store,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    xa: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    streamed::<8>(layout, store, a, b, c, xa, m, k, n)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn streamed<const ROWS: usize>(
    layout: Layout,
    store: Store,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    xa: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match layout {
        Layout::Nn => stream_nn(a, b, c, k, n),
        Layout::Tn => stream_tn(store, a, b, c, m, k, n),
        Layout::Nt => stream_nt::<ROWS>(a, b, c, xa, m, k, n),
    }
}

/// `C = A·B`, `m ≤ MR`: `C` (a few rows) stays cache-resident while every
/// stored row of `B` is read once. `C` starts at `0.0` rather than at the
/// first product: `0.0 + (-0.0)` is `+0.0`, and the contract's chain says so.
#[inline(always)]
fn stream_nn(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    c.fill(0.0);
    for (p, b_row) in b.chunks_exact(n).enumerate() {
        for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            let a_v = a_row[p];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_v * b_v;
            }
        }
    }
}

/// Output columns per [`stream_tn`] run: four 8-float vectors of sums.
const TN_RUN: usize = 32;

/// `C = Aᵀ·B` or `C += Aᵀ·B`, `k ≤ MR`: both operands (`k` rows each) stay
/// cache-resident while `C` is written — or read and written — once, a
/// vector-friendly run of columns at a time.
#[inline(always)]
fn stream_tn(store: Store, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for (o, c_row) in c.chunks_exact_mut(n).enumerate() {
        // Full runs have a constant length, so their sums live in registers.
        let mut full = c_row.chunks_exact_mut(TN_RUN);
        let mut j0 = 0;
        for c_run in full.by_ref() {
            tn_run(store, a, b, c_run, o, j0, m, k, n);
            j0 += TN_RUN;
        }
        tn_run(store, a, b, full.into_remainder(), o, j0, m, k, n);
    }
}

/// The `c_run.len() ≤ TN_RUN` outputs of row `o` from column `j0` on.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tn_run(
    store: Store,
    a: &[f32],
    b: &[f32],
    c_run: &mut [f32],
    o: usize,
    j0: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let mut t = [0.0f32; TN_RUN];
    for p in 0..k {
        let a_v = a[p * m + o];
        for (t_v, &b_v) in t.iter_mut().zip(&b[p * n + j0..p * n + j0 + c_run.len()]) {
            *t_v += a_v * b_v;
        }
    }
    match store {
        Store::Set => c_run.copy_from_slice(&t[..c_run.len()]),
        Store::Add => {
            for (c_v, &t_v) in c_run.iter_mut().zip(t.iter()) {
                *c_v += t_v;
            }
        }
    }
}

/// `C = A·Bᵀ`, `m ≤ MR`: `A` is re-laid k-major into `xa` (`xa[p·LANES + i]`,
/// spare lanes zero) and stays cache-resident; `B`'s stored rows — each one
/// output column's whole chain, contiguous — are read once, `ROWS` at a time
/// as that many independent accumulator vectors, and lanes `0..m` are
/// scattered to `C` when the chains end. No transpose, no panel.
#[inline(always)]
fn stream_nt<const ROWS: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    xa: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    xa.fill(0.0);
    for (i, a_row) in a.chunks_exact(k.max(1)).enumerate() {
        for (p, &v) in a_row.iter().enumerate() {
            xa[p * LANES + i] = v;
        }
    }
    for j0 in (0..n).step_by(ROWS) {
        let rows = ROWS.min(n - j0);
        // Past the last row the group re-reads it; those sums are dropped.
        let w: [&[f32]; ROWS] = std::array::from_fn(|jj| {
            let j = j0 + jj.min(rows - 1);
            &b[j * k..(j + 1) * k]
        });
        let mut acc = [[0.0f32; LANES]; ROWS];
        for (p, x) in xa.chunks_exact(LANES).enumerate() {
            for (acc_j, w_j) in acc.iter_mut().zip(w.iter()) {
                let w_v = w_j[p];
                for (s, &x_v) in acc_j.iter_mut().zip(x) {
                    *s += w_v * x_v;
                }
            }
        }
        for (jj, acc_j) in acc.iter().enumerate().take(rows) {
            for (i, &s) in acc_j.iter().enumerate().take(m) {
                c[i * n + j0 + jj] = s;
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
    fn add_store_adds_the_finished_tile_once() {
        // `Store::Add` is `c_old + (finished chain)`, not a chain seeded
        // with `c_old`: compare against Set into a temporary, then add.
        for layout in [Layout::Nn, Layout::Tn, Layout::Nt] {
            for (m, k, n) in shapes() {
                let (a_len, b_len) = match layout {
                    Layout::Nn => (m * k, k * n),
                    Layout::Tn => (k * m, k * n),
                    Layout::Nt => (m * k, n * k),
                };
                let a = torture_vec(a_len, (m * 13 + k) as u64);
                let b = torture_vec(b_len, (n * 29 + k) as u64);
                let old = torture_vec(m * n, (m * n) as u64);
                for kernel in [Kernel::Scalar, Kernel::Simd] {
                    let mut prod = vec![f32::NAN; m * n];
                    gemm(kernel, layout, &a, &b, &mut prod, m, k, n);
                    let want: Vec<f32> = old.iter().zip(prod.iter()).map(|(o, p)| o + p).collect();
                    let mut got = old.clone();
                    gemm_add(kernel, layout, &a, &b, &mut got, m, k, n);
                    assert_bits_eq(&got, &want, &format!("{} add {layout:?} {m}x{k}x{n}", kernel.name()));
                }
            }
        }
    }

    /// The packed driver called directly: what every `gemm_store` call ran
    /// before the streamed arms existed, and still the reference for them.
    #[allow(clippy::too_many_arguments)]
    fn packed_reference(
        kernel: Kernel,
        layout: Layout,
        store: Store,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut pa = vec![f32::NAN; packed_a_len(m, k)];
        let mut pb = vec![f32::NAN; packed_b_len(k, n)];
        pack_a(layout, a, &mut pa, m, k);
        pack_b(layout, b, &mut pb, k, n);
        gemm_packed(kernel, store, &pa, &pb, c, m, k, n);
    }

    /// `(layout, store, m, k)` for a skinny side `s` and a free side `d`, for
    /// every combination that has a streamed arm.
    fn streamed_arms(s: usize, d: usize) -> [(Layout, Store, usize, usize); 4] {
        [
            (Layout::Nn, Store::Set, s, d),
            (Layout::Nt, Store::Set, s, d),
            (Layout::Tn, Store::Set, d, s),
            (Layout::Tn, Store::Add, d, s),
        ]
    }

    #[test]
    fn streamed_arms_match_the_packed_driver_bitwise() {
        // Skinny side from empty to one past the last streamed size (so the
        // hand-over to the packed driver is in range); the other two odd and
        // straddling NR, the Tn run length and the Nt row group.
        let sizes = [1usize, 15, 16, 17, 33, 100];
        for s in 0..=MR + 1 {
            for &d in &sizes {
                for &n in &sizes {
                    for (layout, store, m, k) in streamed_arms(s, d) {
                        assert_eq!(streams(layout, store, m, k), s <= MR);
                        // Same element count in either storage order.
                        let a = torture_vec(m * k, (s * 131 + d * 7 + n) as u64);
                        let b = torture_vec(k * n, (s * 17 + d * 29 + n * 3) as u64);
                        let old = torture_vec(m * n, (d * n + s) as u64);
                        for kernel in [Kernel::Scalar, Kernel::Simd] {
                            let mut want = old.clone();
                            packed_reference(kernel, layout, store, &a, &b, &mut want, m, k, n);
                            let mut got = old.clone();
                            let add = matches!(store, Store::Add);
                            let public = if add { gemm_add } else { gemm };
                            public(kernel, layout, &a, &b, &mut got, m, k, n);
                            let ctx = format!("{} {layout:?} add={add} {m}x{k}x{n}", kernel.name());
                            assert_bits_eq(&got, &want, &ctx);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn streamed_chains_start_from_positive_zero() {
        // `a·b = -0.0` at `p = 0`: the chain is `0.0 + (-0.0) = +0.0`, not
        // the bare product, and `Add` lands that `+0.0` on an old `-0.0`
        // (`-0.0 + 0.0 = +0.0`) instead of seeding the chain with it.
        let (s, d, n) = (1, 1, 19);
        for (layout, store, m, k) in streamed_arms(s, d) {
            assert!(streams(layout, store, m, k));
            let a = vec![-0.0f32; m * k];
            let b = vec![1.0f32; k * n];
            for kernel in [Kernel::Scalar, Kernel::Simd] {
                let mut c = vec![-0.0f32; m * n];
                gemm_store(kernel, layout, store, &a, &b, &mut c, m, k, n);
                assert!(c.iter().all(|v| v.to_bits() == 0), "{} {layout:?}: {c:?}", kernel.name());
            }
        }
    }

    #[test]
    fn set_store_never_reads_old_contents() {
        let (m, k, n) = (7, 9, 17);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 5) as f32 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 3.0).collect();
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let mut clean = vec![0.0f32; m * n];
            let mut dirty = vec![f32::NAN; m * n];
            gemm(kernel, Layout::Nn, &a, &b, &mut clean, m, k, n);
            gemm(kernel, Layout::Nn, &a, &b, &mut dirty, m, k, n);
            assert_bits_eq(&clean, &dirty, kernel.name());
            assert!(dirty.iter().all(|v| !v.is_nan()));
        }
    }

    #[test]
    fn packed_operands_may_carry_garbage_in_padding_lanes() {
        // Conv lowering leaves whatever it likes past column `n`; those
        // tile columns are never copied out.
        let (m, k, n) = (5, 4, 19);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 11) as f32 - 5.0).collect();
        let mut want = vec![0.0f32; m * n];
        gemm(Kernel::Scalar, Layout::Nn, &a, &b, &mut want, m, k, n);
        let mut pa = vec![0.0f32; packed_a_len(m, k)];
        let mut pb = vec![0.0f32; packed_b_len(k, n)];
        pack_a(Layout::Nn, &a, &mut pa, m, k);
        pack_b(Layout::Nn, &b, &mut pb, k, n);
        for p in 0..k {
            pb[k * NR + p * NR + (n - NR)..k * NR + (p + 1) * NR].fill(f32::NAN);
        }
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let mut got = vec![f32::NAN; m * n];
            gemm_packed(kernel, Store::Set, &pa, &pb, &mut got, m, k, n);
            assert_bits_eq(&got, &want, kernel.name());
            assert!(got.iter().all(|v| !v.is_nan()));
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
