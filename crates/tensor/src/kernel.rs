//! Runtime-selected compute backend for the workspace's hot scalar loops.
//!
//! [`Kernel`] is the dispatch seam between the portable scalar kernels
//! (always compiled — they are the differential oracle) and the
//! explicit-SIMD backend in [`crate::simd`] (x86-64 AVX2 intrinsics,
//! selected at runtime via CPU feature detection). Both backends are
//! required to be **bitwise identical** on every input — NaN payloads, ±Inf,
//! denormals, signed zeros, one-ulp tie plateaus included — so backend
//! choice can never change a payload, only its cost. The differential
//! suites in `crates/sparsify/tests/kernel_equivalence.rs` and the unit
//! tests below pin that contract. The arithmetic kernels' one exclusion,
//! spelled out on [`Kernel::momentum_scan_ge`] and in [`crate::gemm`]: the
//! payload of a NaN computed from two NaNs.
//!
//! Selection order (cached process-wide on first use):
//!
//! 1. `DGS_KERNEL=scalar` forces the scalar backend.
//! 2. `DGS_KERNEL=simd` forces SIMD; if the CPU lacks AVX2 this falls
//!    back to scalar with a one-time notice on stderr (the alternative —
//!    `SIGILL` — is not a useful way to report a missing feature).
//! 3. Otherwise: SIMD iff the CPU reports AVX2, else scalar.
//!
//! Even a hand-constructed `Kernel::Simd` is safe on a non-AVX2 CPU: the
//! wrappers in [`crate::simd`] re-check the feature and delegate to the
//! scalar twin, so `Simd` means "use vector kernels where possible", not
//! "the CPU has AVX2".

use crate::gemm::Layout;
use std::sync::OnceLock;

/// Bucket count of the 16-bit magnitude-key histogram filled by
/// [`Kernel::hist16`] (the top two bytes of a [`mag_key`]).
pub const HIST16_BUCKETS: usize = 1 << 16;

/// Sign-stripping mask: `f32::to_bits` minus the sign bit.
pub(crate) const MAG_MASK: u32 = 0x7FFF_FFFF;

/// Magnitude key of a float: its IEEE-754 bits with the sign cleared.
///
/// For non-negative bit patterns, `u32` order equals `f32::total_cmp`
/// order, so comparing keys compares magnitudes with NaN sorting above
/// +Inf. This is the same key `dgs-sparsify`'s radix engine uses; it is
/// duplicated there as the crates share no helper module.
#[inline(always)]
pub(crate) fn mag_key(v: f32) -> u32 {
    v.to_bits() & MAG_MASK
}

/// Compute backend for the hot kernels. See the module docs for the
/// selection rules and the bitwise-identity contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar loops — the differential oracle. Always available.
    Scalar,
    /// Explicit AVX2 kernels from [`crate::simd`]; each wrapper falls
    /// back to the scalar twin when the CPU lacks AVX2.
    Simd,
}

impl Default for Kernel {
    /// The runtime-detected backend ([`Kernel::runtime`]).
    fn default() -> Self {
        Kernel::runtime()
    }
}

static RUNTIME: OnceLock<Kernel> = OnceLock::new();

impl Kernel {
    /// The process-wide backend: `DGS_KERNEL` override if set, else CPU
    /// feature detection. Cached after the first call.
    pub fn runtime() -> Kernel {
        *RUNTIME.get_or_init(|| {
            let auto = if Kernel::simd_available() {
                Kernel::Simd
            } else {
                Kernel::Scalar
            };
            match std::env::var("DGS_KERNEL").as_deref() {
                Ok("scalar") => Kernel::Scalar,
                Ok("simd") => {
                    if Kernel::simd_available() {
                        Kernel::Simd
                    } else {
                        eprintln!(
                            "dgs: DGS_KERNEL=simd requested but the CPU lacks AVX2; \
                             using the scalar backend"
                        );
                        Kernel::Scalar
                    }
                }
                Ok(other) => {
                    eprintln!(
                        "dgs: unknown DGS_KERNEL value {other:?} \
                         (expected \"scalar\" or \"simd\"); auto-detecting"
                    );
                    auto
                }
                Err(_) => auto,
            }
        })
    }

    /// Whether the CPU supports the SIMD backend (AVX2 on x86-64).
    pub fn simd_available() -> bool {
        crate::simd::avx2_available()
    }

    /// Stable lowercase name, e.g. for bench provenance records.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Simd => "simd",
        }
    }

    /// Fill `counts` with the 65,536-bucket histogram of the top two
    /// bytes of each element's [`mag_key`]. `counts` is cleared and
    /// resized to [`HIST16_BUCKETS`]; backends may use it as scratch for
    /// partial histograms but must leave exactly the merged counts.
    #[inline]
    pub fn hist16(self, seg: &[f32], counts: &mut Vec<u32>) {
        match self {
            Kernel::Scalar => scalar::hist16(seg, counts),
            Kernel::Simd => crate::simd::hist16(seg, counts),
        }
    }

    /// Chunk-skipping selection scan: for each element whose key's
    /// `>> shift` equals `prefix`, append the key to `keys` and its
    /// position to `pos`; for each element strictly above the prefix
    /// window, append the position to `definite`. Positions are relative
    /// to `seg` and emitted in ascending order — chunks whose elements
    /// are all below `prefix << shift` are skipped without emitting, so
    /// the output is independent of the backend's chunk width.
    #[inline]
    pub fn select_scan(
        self,
        seg: &[f32],
        prefix: u32,
        shift: u32,
        keys: &mut Vec<u32>,
        pos: &mut Vec<u32>,
        definite: &mut Vec<u32>,
    ) {
        match self {
            Kernel::Scalar => scalar::select_scan(seg, prefix, shift, keys, pos, definite),
            Kernel::Simd => crate::simd::select_scan(seg, prefix, shift, keys, pos, definite),
        }
    }

    /// Gather variant of [`Kernel::select_scan`]: append only the keys
    /// (no positions) whose `>> shift` equals `prefix`, in segment order.
    #[inline]
    pub fn gather_keys(self, seg: &[f32], prefix: u32, shift: u32, keys: &mut Vec<u32>) {
        match self {
            Kernel::Scalar => scalar::gather_keys(seg, prefix, shift, keys),
            Kernel::Simd => crate::simd::gather_keys(seg, prefix, shift, keys),
        }
    }

    /// One-pass candidate scan: every element whose [`mag_key`] is
    /// `>= guess`, as `(position, key)` in ascending position. `pos` and
    /// `keys` are cleared first and receive the first `cap` admitted
    /// elements; the return value counts *all* of them, so a caller whose
    /// guess admits more than it is willing to refine sees that from the
    /// count and pays for at most `cap` emits. A `guess` above every key
    /// (`> 0x7FFF_FFFF`) admits nothing.
    #[inline]
    pub fn scan_ge(
        self,
        seg: &[f32],
        guess: u32,
        cap: usize,
        pos: &mut Vec<u32>,
        keys: &mut Vec<u32>,
    ) -> usize {
        match self {
            Kernel::Scalar => scalar::scan_ge(seg, guess, cap, pos, keys),
            Kernel::Simd => crate::simd::scan_ge(seg, guess, cap, pos, keys),
        }
    }

    /// [`Kernel::scan_ge`] fused behind the momentum update it selects
    /// on: `u[i] = momentum * u[i] + lr * grad[i]` (two multiplies and an
    /// add, never fused — the expression the unfused loop evaluates), the
    /// result stored and its key compared in the same pass.
    ///
    /// The one exception to the module's bitwise contract: where `u[i]`
    /// and `grad[i]` are *both* NaN the sum is a NaN whose payload — and
    /// with it the stored bits and the emitted key — is unspecified (LLVM
    /// may commute the add; x86 keeps its first operand's payload), so the
    /// backends, or two builds of the scalar loop, may differ there. Every
    /// other lane, a NaN on one side included, is bit-exact.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn momentum_scan_ge(
        self,
        u: &mut [f32],
        grad: &[f32],
        momentum: f32,
        lr: f32,
        guess: u32,
        cap: usize,
        pos: &mut Vec<u32>,
        keys: &mut Vec<u32>,
    ) -> usize {
        match self {
            Kernel::Scalar => {
                scalar::momentum_scan_ge(u, grad, momentum, lr, guess, cap, pos, keys)
            }
            Kernel::Simd => {
                crate::simd::momentum_scan_ge(u, grad, momentum, lr, guess, cap, pos, keys)
            }
        }
    }

    /// [`Kernel::scan_ge`] over the difference `m[i] - v[i]`, which is
    /// never stored. Returns `(nonzero, admitted)`: the count of nonzero
    /// differences under [`Kernel::diff_into`]'s rule, and the admitted
    /// count as in [`Kernel::scan_ge`].
    #[inline]
    pub fn diff_scan_ge(
        self,
        m: &[f32],
        v: &[f32],
        guess: u32,
        cap: usize,
        pos: &mut Vec<u32>,
        keys: &mut Vec<u32>,
    ) -> (usize, usize) {
        match self {
            Kernel::Scalar => scalar::diff_scan_ge(m, v, guess, cap, pos, keys),
            Kernel::Simd => crate::simd::diff_scan_ge(m, v, guess, cap, pos, keys),
        }
    }

    /// Materialize `m[i] - v[i]` into `out` (cleared first) and return
    /// the count of nonzero differences (`d != 0.0`, so NaN counts and
    /// `-0.0` does not — matching the scalar send paths).
    #[inline]
    pub fn diff_into(self, m: &[f32], v: &[f32], out: &mut Vec<f32>) -> usize {
        match self {
            Kernel::Scalar => scalar::diff_into(m, v, out),
            Kernel::Simd => crate::simd::diff_into(m, v, out),
        }
    }

    /// Conservative block test for dense diff walks: `false` guarantees
    /// no index `i` has `m[i] - v[i] != 0.0`; `true` promises nothing.
    /// The scalar backend always answers `true` without scanning (the
    /// caller's per-element loop is the scan); the SIMD backend answers
    /// exactly, letting callers skip clean blocks.
    #[inline]
    pub fn may_have_diff(self, m: &[f32], v: &[f32]) -> bool {
        match self {
            Kernel::Scalar => true,
            Kernel::Simd => crate::simd::may_have_diff(m, v),
        }
    }

    /// Append `seg[idx[j]]` for each `j` in order. Panics on an
    /// out-of-bounds index exactly like the scalar indexing loop.
    #[inline]
    pub fn gather_into(self, seg: &[f32], idx: &[u32], out: &mut Vec<f32>) {
        match self {
            Kernel::Scalar => scalar::gather_into(seg, idx, out),
            Kernel::Simd => crate::simd::gather_into(seg, idx, out),
        }
    }

    /// `vals.iter().fold(0.0, |m, v| m.max(v.abs()))`: the largest
    /// absolute value, ignoring NaNs (`f32::max` semantics), `0.0` for
    /// an empty or all-NaN slice. This is the ternary quantizer's scale.
    #[inline]
    pub fn max_abs(self, vals: &[f32]) -> f32 {
        match self {
            Kernel::Scalar => scalar::max_abs(vals),
            Kernel::Simd => crate::simd::max_abs(vals),
        }
    }

    /// Expand `n` sign bits (LSB-first within each byte, bit set means
    /// positive) into `±scale` values appended to `out`. Negation is a
    /// sign-bit flip, bitwise identical across backends even for
    /// infinite `scale`.
    #[inline]
    pub fn sign_expand(self, scale: f32, signs: &[u8], n: usize, out: &mut Vec<f32>) {
        match self {
            Kernel::Scalar => scalar::sign_expand(scale, signs, n, out),
            Kernel::Simd => crate::simd::sign_expand(scale, signs, n, out),
        }
    }

    /// The little-endian wire bytes of `xs` as a borrowed slice, if this
    /// backend bulk-copies encodes. `Scalar` always answers `None` so the
    /// caller's per-element `put_u32_le` loop stays the oracle; `Simd`
    /// answers `Some` on little-endian targets (the bytes are identical
    /// by definition of the wire format).
    #[inline]
    pub fn u32s_le(self, xs: &[u32]) -> Option<&[u8]> {
        match self {
            Kernel::Scalar => None,
            Kernel::Simd => crate::simd::u32s_as_le_bytes(xs),
        }
    }

    /// [`Kernel::u32s_le`] for `f32` payloads (`put_f32_le` loops).
    #[inline]
    pub fn f32s_le(self, xs: &[f32]) -> Option<&[u8]> {
        match self {
            Kernel::Scalar => None,
            Kernel::Simd => crate::simd::f32s_as_le_bytes(xs),
        }
    }

    // --- compute tier (see crate::gemm and DESIGN.md "Compute tier") ---

    /// `C = A·B`: `a` is `m×k` row-major, `b` is `k×n` row-major, `c` is
    /// overwritten (never read, so it needs no zeroing). Every backend
    /// runs each output element's k-chain in ascending order with
    /// non-fused mul+add, so outputs are bitwise identical across backends
    /// and rayon splits.
    #[inline]
    pub fn gemm(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        crate::gemm::gemm(self, Layout::Nn, a, b, c, m, k, n);
    }

    /// `C += Aᵀ·B` with `a` stored `k×m` row-major (so no transpose copy is
    /// needed for weight-gradient products). Same bitwise contract as
    /// [`Kernel::gemm`], with the accumulating copy-out: each element's
    /// chain is finished first, then added to `c` once, so the result is
    /// bit for bit `c + (Aᵀ·B)` without the temporary.
    #[inline]
    pub fn gemm_at_b_add(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        crate::gemm::gemm_add(self, Layout::Tn, a, b, c, m, k, n);
    }

    /// `C = A·Bᵀ` with `b` stored `n×k` row-major (linear-layer forward
    /// against row-major weights). Same bitwise contract as
    /// [`Kernel::gemm`].
    #[inline]
    pub fn gemm_a_bt(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        crate::gemm::gemm(self, Layout::Nt, a, b, c, m, k, n);
    }

    /// In-place ReLU: `x = if x > 0.0 { x } else { 0.0 }` per element.
    /// NaN and `-0.0` both map to `+0.0` in every backend (exactly the
    /// `vmaxps(x, 0)` lane rule, which the scalar twin mirrors).
    #[inline]
    pub fn relu_inplace(self, xs: &mut [f32]) {
        match self {
            Kernel::Scalar => scalar::relu_inplace(xs),
            Kernel::Simd => crate::simd::relu_inplace(xs),
        }
    }

    /// ReLU backward gate: zero `d[i]` where `x[i] <= 0.0`, keep it
    /// otherwise. A NaN `x[i]` fails `<=` and therefore *passes* the
    /// gradient through — both backends preserve that scalar quirk.
    #[inline]
    pub fn relu_grad_mask(self, x: &[f32], d: &mut [f32]) {
        match self {
            Kernel::Scalar => scalar::relu_grad_mask(x, d),
            Kernel::Simd => crate::simd::relu_grad_mask(x, d),
        }
    }

    /// 2×2 stride-2 max-pool of one `h×w` plane (`h`, `w` even): appends
    /// `h/2 * w/2` maxima to `y` and their *absolute* input indices
    /// (`base + flat index in the plane`) to `argmax`. Ties and NaN follow
    /// the scalar scan: strict `>` against a running best that starts at
    /// `-inf` with index 0, window cells visited in `(ky, kx)` order —
    /// first max wins, an all-NaN window yields index 0.
    #[inline]
    pub fn maxpool2_plane(self, x: &[f32], h: usize, w: usize, base: u32, y: &mut Vec<f32>, argmax: &mut Vec<u32>) {
        match self {
            Kernel::Scalar => scalar::maxpool2_plane(x, h, w, base, y, argmax),
            Kernel::Simd => crate::simd::maxpool2_plane(x, h, w, base, y, argmax),
        }
    }
}

/// Portable scalar twins. These are the semantics the SIMD backend must
/// reproduce bit for bit; `crate::simd` also calls them for tails and as
/// the non-AVX2 fallback.
pub(crate) mod scalar {
    use super::{mag_key, HIST16_BUCKETS};

    pub(crate) fn hist16(seg: &[f32], counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(2 * HIST16_BUCKETS, 0);
        let (h0, h1) = counts.split_at_mut(HIST16_BUCKETS);
        let mut chunks = seg.chunks_exact(2);
        for pair in &mut chunks {
            h0[(mag_key(pair[0]) >> 16) as usize] += 1;
            h1[(mag_key(pair[1]) >> 16) as usize] += 1;
        }
        for &v in chunks.remainder() {
            h0[(mag_key(v) >> 16) as usize] += 1;
        }
        for (a, &b) in h0.iter_mut().zip(h1.iter()) {
            *a += b;
        }
        counts.truncate(HIST16_BUCKETS);
    }

    pub(crate) fn select_scan(
        seg: &[f32],
        prefix: u32,
        shift: u32,
        keys: &mut Vec<u32>,
        pos: &mut Vec<u32>,
        definite: &mut Vec<u32>,
    ) {
        let lo = prefix << shift;
        let mut base = 0u32;
        let mut chunks = seg.chunks_exact(4);
        for c in &mut chunks {
            let ks = [mag_key(c[0]), mag_key(c[1]), mag_key(c[2]), mag_key(c[3])];
            // Branchless "any lane could emit": both emit conditions
            // below imply key >= lo, so an all-below chunk is skipped.
            if (ks[0] >= lo) | (ks[1] >= lo) | (ks[2] >= lo) | (ks[3] >= lo) {
                for (j, &key) in ks.iter().enumerate() {
                    let b = key >> shift;
                    if b == prefix {
                        keys.push(key);
                        pos.push(base + j as u32);
                    } else if b > prefix {
                        definite.push(base + j as u32);
                    }
                }
            }
            base += 4;
        }
        for &v in chunks.remainder() {
            let key = mag_key(v);
            let b = key >> shift;
            if b == prefix {
                keys.push(key);
                pos.push(base);
            } else if b > prefix {
                definite.push(base);
            }
            base += 1;
        }
    }

    pub(crate) fn gather_keys(seg: &[f32], prefix: u32, shift: u32, keys: &mut Vec<u32>) {
        let lo = prefix << shift;
        let mut chunks = seg.chunks_exact(4);
        for c in &mut chunks {
            let ks = [mag_key(c[0]), mag_key(c[1]), mag_key(c[2]), mag_key(c[3])];
            if (ks[0] >= lo) | (ks[1] >= lo) | (ks[2] >= lo) | (ks[3] >= lo) {
                for &key in &ks {
                    if key >> shift == prefix {
                        keys.push(key);
                    }
                }
            }
        }
        for &v in chunks.remainder() {
            let key = mag_key(v);
            if key >> shift == prefix {
                keys.push(key);
            }
        }
    }

    /// Emit step shared by the three `*_scan_ge` twins and the SIMD
    /// backend's tails: counts an admitted element and records it while
    /// fewer than `cap` are held.
    #[inline(always)]
    pub(crate) fn admit(
        i: usize,
        key: u32,
        guess: u32,
        cap: usize,
        pos: &mut Vec<u32>,
        keys: &mut Vec<u32>,
    ) -> usize {
        if key < guess {
            return 0;
        }
        if pos.len() < cap {
            pos.push(i as u32);
            keys.push(key);
        }
        1
    }

    pub(crate) fn scan_ge(
        seg: &[f32],
        guess: u32,
        cap: usize,
        pos: &mut Vec<u32>,
        keys: &mut Vec<u32>,
    ) -> usize {
        pos.clear();
        keys.clear();
        let mut admitted = 0usize;
        for (i, &x) in seg.iter().enumerate() {
            admitted += admit(i, mag_key(x), guess, cap, pos, keys);
        }
        admitted
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn momentum_scan_ge(
        u: &mut [f32],
        grad: &[f32],
        momentum: f32,
        lr: f32,
        guess: u32,
        cap: usize,
        pos: &mut Vec<u32>,
        keys: &mut Vec<u32>,
    ) -> usize {
        assert_eq!(u.len(), grad.len());
        pos.clear();
        keys.clear();
        let mut admitted = 0usize;
        for (i, (ui, &g)) in u.iter_mut().zip(grad.iter()).enumerate() {
            *ui = momentum * *ui + lr * g;
            admitted += admit(i, mag_key(*ui), guess, cap, pos, keys);
        }
        admitted
    }

    pub(crate) fn diff_scan_ge(
        m: &[f32],
        v: &[f32],
        guess: u32,
        cap: usize,
        pos: &mut Vec<u32>,
        keys: &mut Vec<u32>,
    ) -> (usize, usize) {
        assert_eq!(m.len(), v.len());
        pos.clear();
        keys.clear();
        let (mut nnz, mut admitted) = (0usize, 0usize);
        for (i, (&mi, &vi)) in m.iter().zip(v.iter()).enumerate() {
            let d = mi - vi;
            nnz += (d != 0.0) as usize;
            admitted += admit(i, mag_key(d), guess, cap, pos, keys);
        }
        (nnz, admitted)
    }

    pub(crate) fn diff_into(m: &[f32], v: &[f32], out: &mut Vec<f32>) -> usize {
        assert_eq!(m.len(), v.len());
        out.clear();
        out.reserve(m.len());
        let mut nnz = 0usize;
        for (&mi, &vi) in m.iter().zip(v.iter()) {
            let d = mi - vi;
            nnz += (d != 0.0) as usize;
            out.push(d);
        }
        nnz
    }

    pub(crate) fn gather_into(seg: &[f32], idx: &[u32], out: &mut Vec<f32>) {
        out.reserve(idx.len());
        out.extend(idx.iter().map(|&i| seg[i as usize]));
    }

    pub(crate) fn max_abs(vals: &[f32]) -> f32 {
        vals.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    pub(crate) fn sign_expand(scale: f32, signs: &[u8], n: usize, out: &mut Vec<f32>) {
        assert!(signs.len() * 8 >= n);
        out.reserve(n);
        for bit in 0..n {
            let positive = signs[bit / 8] & (1 << (bit % 8)) != 0;
            out.push(if positive { scale } else { -scale });
        }
    }

    // --- compute-tier twins (GEMM's scalar oracle lives in crate::gemm) ---

    pub(crate) fn relu_inplace(xs: &mut [f32]) {
        for v in xs.iter_mut() {
            // NOT `v.max(0.0)`: Rust leaves max's signed-zero choice
            // unspecified, while this explicit compare pins the vmaxps
            // lane rule (NaN and -0.0 both become +0.0).
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    }

    pub(crate) fn relu_grad_mask(x: &[f32], d: &mut [f32]) {
        assert_eq!(x.len(), d.len());
        for (&xi, di) in x.iter().zip(d.iter_mut()) {
            if xi <= 0.0 {
                *di = 0.0;
            }
        }
    }

    pub(crate) fn maxpool2_plane(x: &[f32], h: usize, w: usize, base: u32, y: &mut Vec<f32>, argmax: &mut Vec<u32>) {
        assert!(h % 2 == 0 && w % 2 == 0 && x.len() == h * w);
        let (oh, ow) = (h / 2, w / 2);
        y.reserve(oh * ow);
        argmax.reserve(oh * ow);
        for oy in 0..oh {
            maxpool2_row(x, w, base, oy, 0, ow, y, argmax);
        }
    }

    /// One output row of the 2×2 max-pool, columns `[ox0, ox1)` — shared
    /// by the scalar plane twin and the SIMD backend's row tails.
    pub(crate) fn maxpool2_row(
        x: &[f32],
        w: usize,
        base: u32,
        oy: usize,
        ox0: usize,
        ox1: usize,
        y: &mut Vec<f32>,
        argmax: &mut Vec<u32>,
    ) {
        for ox in ox0..ox1 {
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = 0u32;
            for ky in 0..2 {
                for kx in 0..2 {
                    let idx = (oy * 2 + ky) * w + ox * 2 + kx;
                    if x[idx] > best {
                        best = x[idx];
                        best_idx = base + idx as u32;
                    }
                }
            }
            y.push(best);
            argmax.push(best_idx);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Torture inputs: every special-value class the bitwise-identity
    /// contract names, plus gradient-shaped noise.
    pub(crate) fn torture_cases() -> Vec<Vec<f32>> {
        let mut cases: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.0],
            vec![1.0; 7],
            vec![-0.0; 33],
            vec![f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY],
            vec![f32::MIN_POSITIVE / 2.0; 17], // denormals
            vec![1.0, 1.0 + f32::EPSILON, 1.0, 1.0 + f32::EPSILON], // one-ulp plateau
        ];
        // All-equal large plateau (exercises boundary-bucket handling).
        cases.push(vec![3.25; 100]);
        // Deterministic xorshift mix of every class at several lengths
        // straddling the 4- and 8-wide chunk boundaries.
        for &n in &[1usize, 3, 4, 5, 8, 9, 15, 16, 17, 63, 64, 65, 255, 1024, 4097] {
            let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ (n as u64);
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let x = match s % 11 {
                    0 => f32::NAN,
                    1 => f32::from_bits(0x7FC0_1234), // NaN payload
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4 => 0.0,
                    5 => -0.0,
                    6 => f32::from_bits((s >> 40) as u32 & 0x007F_FFFF), // denormal
                    7 => 1.0,
                    8 => -1.0,
                    _ => f32::from_bits((s >> 32) as u32),
                };
                v.push(x);
            }
            cases.push(v);
        }
        cases
    }

    fn shifts_and_prefixes(seg: &[f32]) -> Vec<(u32, u32)> {
        let mut out = vec![(16u32, 0u32), (16, 0x7FFF), (8, 0), (8, 0x7FFF00 >> 8)];
        if let Some(&v) = seg.first() {
            out.push((16, mag_key(v) >> 16));
            out.push((8, mag_key(v) >> 8));
        }
        if let Some(&v) = seg.last() {
            out.push((16, mag_key(v) >> 16));
        }
        out
    }

    #[test]
    fn runtime_is_cached_and_named() {
        let k = Kernel::runtime();
        assert_eq!(k, Kernel::runtime());
        assert!(k.name() == "scalar" || k.name() == "simd");
        assert_eq!(Kernel::Scalar.name(), "scalar");
        assert_eq!(Kernel::Simd.name(), "simd");
    }

    #[test]
    fn hist16_backends_identical() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for seg in torture_cases() {
            Kernel::Scalar.hist16(&seg, &mut a);
            Kernel::Simd.hist16(&seg, &mut b);
            assert_eq!(a, b, "hist16 diverged on len {}", seg.len());
            assert_eq!(a.len(), HIST16_BUCKETS);
            assert_eq!(a.iter().map(|&c| c as usize).sum::<usize>(), seg.len());
        }
    }

    #[test]
    fn select_scan_backends_identical() {
        for seg in torture_cases() {
            for (shift, prefix) in shifts_and_prefixes(&seg) {
                let (mut k1, mut p1, mut d1) = (Vec::new(), Vec::new(), Vec::new());
                let (mut k2, mut p2, mut d2) = (Vec::new(), Vec::new(), Vec::new());
                Kernel::Scalar.select_scan(&seg, prefix, shift, &mut k1, &mut p1, &mut d1);
                Kernel::Simd.select_scan(&seg, prefix, shift, &mut k2, &mut p2, &mut d2);
                assert_eq!(k1, k2, "keys diverged (len {}, shift {shift})", seg.len());
                assert_eq!(p1, p2, "pos diverged (len {}, shift {shift})", seg.len());
                assert_eq!(d1, d2, "definite diverged (len {}, shift {shift})", seg.len());
            }
        }
    }

    #[test]
    fn gather_keys_backends_identical() {
        for seg in torture_cases() {
            for (shift, prefix) in shifts_and_prefixes(&seg) {
                let (mut k1, mut k2) = (Vec::new(), Vec::new());
                Kernel::Scalar.gather_keys(&seg, prefix, shift, &mut k1);
                Kernel::Simd.gather_keys(&seg, prefix, shift, &mut k2);
                assert_eq!(k1, k2, "gather diverged (len {}, shift {shift})", seg.len());
            }
        }
    }

    /// Guess keys worth probing on `seg`: the extremes, the NaN band, and
    /// keys drawn from the data (so some elements sit exactly on the bound).
    fn guesses_for(seg: &[f32]) -> Vec<u32> {
        let mut out = vec![0u32, 1, 0x7F80_0000, 0x7F80_0001, 0x7FFF_FFFF, 0x8000_0000, u32::MAX];
        for &v in seg.iter().step_by(seg.len() / 3 + 1) {
            let key = mag_key(v);
            out.extend([key.saturating_sub(1), key, key.saturating_add(1)]);
        }
        out
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn scan_ge_backends_identical_and_exact() {
        for seg in torture_cases() {
            for guess in guesses_for(&seg) {
                for cap in [0usize, 1, 5, usize::MAX] {
                    let (mut p1, mut k1) = (vec![9], vec![9]);
                    let (mut p2, mut k2) = (vec![7, 7], Vec::new());
                    let c1 = Kernel::Scalar.scan_ge(&seg, guess, cap, &mut p1, &mut k1);
                    let c2 = Kernel::Simd.scan_ge(&seg, guess, cap, &mut p2, &mut k2);
                    assert_eq!(
                        (c1, &p1, &k1),
                        (c2, &p2, &k2),
                        "len {} guess {guess:#x}",
                        seg.len()
                    );
                    // Against the definition: every key >= guess, ascending,
                    // the first `cap` of them held.
                    let all: Vec<(u32, u32)> = seg
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (i as u32, mag_key(v)))
                        .filter(|&(_, key)| key >= guess)
                        .collect();
                    assert_eq!(c1, all.len());
                    let held: Vec<(u32, u32)> =
                        p1.iter().copied().zip(k1.iter().copied()).collect();
                    assert_eq!(held, all[..all.len().min(cap)]);
                }
            }
        }
    }

    #[test]
    fn momentum_scan_ge_matches_update_then_scan() {
        for u0 in torture_cases() {
            // Gradient stream: the same mix shifted by one; a lane that is
            // NaN on both sides gets a finite gradient, because which NaN
            // payload an add of two NaNs keeps is unspecified.
            let mut grad = u0.clone();
            grad.rotate_left(u0.len().min(1));
            for (g, u) in grad.iter_mut().zip(&u0) {
                if g.is_nan() && u.is_nan() {
                    *g = 0.5;
                }
            }
            for (momentum, lr) in [(0.7f32, 0.05f32), (0.5, 5.0)] {
                // The unfused form: the update loop, then a plain scan.
                let mut u_ref = u0.clone();
                for (u, &g) in u_ref.iter_mut().zip(&grad) {
                    *u = momentum * *u + lr * g;
                }
                for guess in guesses_for(&u_ref) {
                    let (mut pr, mut kr) = (Vec::new(), Vec::new());
                    let cr = Kernel::Scalar.scan_ge(&u_ref, guess, 6, &mut pr, &mut kr);
                    for kernel in [Kernel::Scalar, Kernel::Simd] {
                        let mut u = u0.clone();
                        let (mut p, mut k) = (vec![3], vec![3]);
                        let c = kernel.momentum_scan_ge(
                            &mut u, &grad, momentum, lr, guess, 6, &mut p, &mut k,
                        );
                        assert_eq!(bits_of(&u), bits_of(&u_ref), "{kernel:?} update bits");
                        assert_eq!((c, &p, &k), (cr, &pr, &kr), "{kernel:?} guess {guess:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn diff_scan_ge_matches_diff_into_then_scan() {
        for m in torture_cases() {
            let mut v = m.clone();
            if !v.is_empty() {
                let r = (v.len() / 3 + 1) % v.len();
                v.rotate_right(r);
            }
            for vv in [v, vec![0.0; m.len()], m.clone()] {
                let mut diff = Vec::new();
                let nnz_ref = Kernel::Scalar.diff_into(&m, &vv, &mut diff);
                for guess in guesses_for(&diff) {
                    let (mut pr, mut kr) = (Vec::new(), Vec::new());
                    let cr = Kernel::Scalar.scan_ge(&diff, guess, 6, &mut pr, &mut kr);
                    for kernel in [Kernel::Scalar, Kernel::Simd] {
                        let (mut p, mut k) = (vec![3], vec![3]);
                        let got = kernel.diff_scan_ge(&m, &vv, guess, 6, &mut p, &mut k);
                        assert_eq!(got, (nnz_ref, cr), "{kernel:?} guess {guess:#x}");
                        assert_eq!((&p, &k), (&pr, &kr), "{kernel:?} guess {guess:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn diff_into_backends_identical() {
        for m in torture_cases() {
            // Pair each case with a shifted copy of itself and with zeros.
            let mut v = m.clone();
            if !v.is_empty() {
                let r = (v.len() / 3 + 1) % v.len();
                v.rotate_right(r);
            }
            for vv in [v, vec![0.0; m.len()], m.clone()] {
                let (mut o1, mut o2) = (Vec::new(), Vec::new());
                let n1 = Kernel::Scalar.diff_into(&m, &vv, &mut o1);
                let n2 = Kernel::Simd.diff_into(&m, &vv, &mut o2);
                assert_eq!(n1, n2, "nnz diverged on len {}", m.len());
                assert_eq!(o1.len(), o2.len());
                for (a, b) in o1.iter().zip(o2.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "diff bits diverged");
                }
                // may_have_diff: false must imply nnz == 0.
                if !Kernel::Simd.may_have_diff(&m, &vv) {
                    assert_eq!(n1, 0);
                }
                assert!(Kernel::Scalar.may_have_diff(&m, &vv));
            }
        }
    }

    #[test]
    fn gather_into_backends_identical() {
        for seg in torture_cases() {
            if seg.is_empty() {
                continue;
            }
            let mut s = 0xDEAD_BEEFu64 ^ seg.len() as u64;
            let idx: Vec<u32> = (0..seg.len() * 2)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s % seg.len() as u64) as u32
                })
                .collect();
            let (mut o1, mut o2) = (Vec::new(), Vec::new());
            Kernel::Scalar.gather_into(&seg, &idx, &mut o1);
            Kernel::Simd.gather_into(&seg, &idx, &mut o2);
            assert_eq!(o1.len(), o2.len());
            for (a, b) in o1.iter().zip(o2.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "gather bits diverged");
            }
        }
    }

    #[test]
    fn gather_into_oob_panics_like_scalar() {
        let seg = [1.0f32, 2.0];
        let idx = [0u32, 5];
        for k in [Kernel::Scalar, Kernel::Simd] {
            let r = std::panic::catch_unwind(|| {
                let mut out = Vec::new();
                k.gather_into(&seg, &idx, &mut out);
            });
            assert!(r.is_err(), "{:?} did not panic on OOB gather", k);
        }
    }

    #[test]
    fn max_abs_backends_identical() {
        for seg in torture_cases() {
            let a = Kernel::Scalar.max_abs(&seg);
            let b = Kernel::Simd.max_abs(&seg);
            assert_eq!(a.to_bits(), b.to_bits(), "max_abs diverged on len {}", seg.len());
        }
        // NaN-only input: f32::max ignores NaN, result stays 0.0.
        let nans = vec![f32::NAN; 9];
        assert_eq!(Kernel::Simd.max_abs(&nans).to_bits(), 0.0f32.to_bits());
        // Infinity dominates.
        let inf = vec![1.0, f32::NEG_INFINITY, 2.0];
        assert_eq!(Kernel::Simd.max_abs(&inf), f32::INFINITY);
    }

    #[test]
    fn sign_expand_backends_identical() {
        let scales = [1.5f32, 0.0, f32::INFINITY, f32::MIN_POSITIVE / 4.0];
        for &scale in &scales {
            for n in [0usize, 1, 7, 8, 9, 16, 31, 64, 129] {
                let signs: Vec<u8> = (0..n.div_ceil(8)).map(|i| (i as u8) ^ 0xA5).collect();
                let (mut o1, mut o2) = (Vec::new(), Vec::new());
                Kernel::Scalar.sign_expand(scale, &signs, n, &mut o1);
                Kernel::Simd.sign_expand(scale, &signs, n, &mut o2);
                assert_eq!(o1.len(), n);
                assert_eq!(o1.len(), o2.len());
                for (a, b) in o1.iter().zip(o2.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "sign_expand bits diverged");
                }
            }
        }
    }

    #[test]
    fn relu_backends_identical() {
        for seg in torture_cases() {
            let mut a = seg.clone();
            let mut b = seg.clone();
            Kernel::Scalar.relu_inplace(&mut a);
            Kernel::Simd.relu_inplace(&mut b);
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "relu diverged at {i} (len {})", seg.len());
            }
            // Contract spot checks: NaN and -0.0 collapse to +0.0.
            if seg.is_empty() {
                continue;
            }
            for v in &a {
                assert!(v.to_bits() == 0 || *v > 0.0, "relu output {v} not in contract");
            }
        }
    }

    #[test]
    fn relu_grad_mask_backends_identical() {
        for seg in torture_cases() {
            // Gradient stream: reuse the torture mix shifted by one.
            let mut grad = seg.clone();
            grad.rotate_left(seg.len().min(1));
            let mut g1 = grad.clone();
            let mut g2 = grad.clone();
            Kernel::Scalar.relu_grad_mask(&seg, &mut g1);
            Kernel::Simd.relu_grad_mask(&seg, &mut g2);
            for (i, (x, y)) in g1.iter().zip(g2.iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "relu grad diverged at {i} (len {})", seg.len());
            }
            // NaN x passes gradient through (NaN <= 0.0 is false).
            for (i, &xi) in seg.iter().enumerate() {
                if xi.is_nan() {
                    assert_eq!(g1[i].to_bits(), grad[i].to_bits());
                }
            }
        }
    }

    /// Even-sided torture planes for the pooling kernels, spanning widths
    /// around the 8-output-lane SIMD boundary (w/2 in {1..=8, 9, 17, 20}).
    fn torture_planes() -> Vec<(usize, usize, Vec<f32>)> {
        let mut planes = Vec::new();
        for &(h, w) in &[
            (2usize, 2usize),
            (2, 4),
            (4, 6),
            (2, 16),
            (4, 18),
            (6, 32),
            (2, 34),
            (4, 40),
            (8, 8),
        ] {
            let mut s = 0xC0FF_EE00_D15E_A5E5u64 ^ ((h * 131 + w) as u64);
            let mut v = Vec::with_capacity(h * w);
            for _ in 0..h * w {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let x = match s % 9 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    5 => 1.0,
                    6 => 1.0 + f32::EPSILON, // one-ulp plateau ties
                    _ => f32::from_bits((s >> 32) as u32),
                };
                v.push(x);
            }
            planes.push((h, w, v));
        }
        // All-NaN plane: argmax must stay at the init index 0.
        planes.push((2, 18, vec![f32::NAN; 36]));
        // Flat plateau: every window ties, first cell must win.
        planes.push((4, 20, vec![3.25; 80]));
        planes
    }

    #[test]
    fn maxpool2_backends_identical() {
        for (h, w, x) in torture_planes() {
            let base = 1000u32;
            let (mut y1, mut a1) = (Vec::new(), Vec::new());
            let (mut y2, mut a2) = (Vec::new(), Vec::new());
            Kernel::Scalar.maxpool2_plane(&x, h, w, base, &mut y1, &mut a1);
            Kernel::Simd.maxpool2_plane(&x, h, w, base, &mut y2, &mut a2);
            assert_eq!(y1.len(), h / 2 * (w / 2));
            assert_eq!(a1, a2, "argmax diverged on {h}x{w}");
            for (i, (p, q)) in y1.iter().zip(y2.iter()).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "maxpool diverged at {i} on {h}x{w}");
            }
        }
        // All-NaN window pins argmax to absolute index 0, not base.
        let (mut y, mut a) = (Vec::new(), Vec::new());
        Kernel::Simd.maxpool2_plane(&[f32::NAN; 4], 2, 2, 77, &mut y, &mut a);
        assert_eq!(a, vec![0]);
        assert_eq!(y[0], f32::NEG_INFINITY);
    }

    #[test]
    fn le_bytes_roundtrip_when_offered() {
        let xs = [0u32, 1, 0xDEAD_BEEF, u32::MAX];
        if let Some(b) = Kernel::Simd.u32s_le(&xs) {
            assert_eq!(b.len(), 16);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(&b[4 * i..4 * i + 4], &x.to_le_bytes());
            }
        }
        assert!(Kernel::Scalar.u32s_le(&xs).is_none());
        let fs = [1.5f32, -0.0, f32::NAN];
        if let Some(b) = Kernel::Simd.f32s_le(&fs) {
            for (i, &x) in fs.iter().enumerate() {
                assert_eq!(&b[4 * i..4 * i + 4], &x.to_le_bytes());
            }
        }
        assert!(Kernel::Scalar.f32s_le(&fs).is_none());
    }
}
