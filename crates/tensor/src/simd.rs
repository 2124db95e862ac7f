//! Explicit AVX2 implementations of the [`crate::kernel::Kernel`] ops.
//!
//! Every function here is a drop-in twin of a scalar kernel in
//! `crate::kernel::scalar` and must produce **bitwise identical** output
//! on every input (see the kernel module docs for the contract). The
//! wrappers re-check AVX2 at runtime and delegate to the scalar twin when
//! the CPU lacks it, so a hand-constructed `Kernel::Simd` can never hit
//! an illegal instruction.
//!
//! Unsafe policy (dgs-audit `unsafe-budget` rule): this module lives in
//! the tensor crate's unsafe allowlist; every `unsafe` token — including
//! the calls into `#[target_feature]` functions — carries a `// SAFETY:`
//! comment within the three preceding lines. The vector bodies only use
//! `unsafe` for unaligned loads/stores and the gather read; all lane
//! arithmetic uses the intrinsics' safe-in-target-feature form.
//!
//! Equivalence notes relied on throughout (each pinned by tests):
//! - `vsubps` has the same rounding and NaN propagation as scalar `-`.
//! - Comparing sign-stripped keys as unsigned integers orders magnitudes
//!   exactly like `f32::total_cmp` (NaN above +Inf above finite).
//! - Negation (`-x` / sign-bit XOR) is bitwise total, even for NaN/Inf.
//! - `_CMP_NEQ_UQ` matches scalar `d != 0.0` (true for NaN, false for
//!   `-0.0` vs `0.0`).

#[cfg(target_arch = "x86_64")]
use crate::kernel::scalar;

/// Whether the CPU supports the AVX2 backend (always `false` off x86-64).
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The little-endian wire bytes of a `u32` slice, borrowed in place.
/// `None` on big-endian targets, where a bulk copy would not match the
/// per-element `put_u32_le` encoding.
pub fn u32s_as_le_bytes(xs: &[u32]) -> Option<&[u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: `u32` has no padding and `size_of_val` is the exact
        // byte length of the allocation behind `xs`; reinterpreting it
        // as bytes borrows the same memory at the same lifetime.
        Some(unsafe {
            std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs))
        })
    } else {
        None
    }
}

/// [`u32s_as_le_bytes`] for `f32` payloads (`put_f32_le` encodes the
/// IEEE bits little-endian, which is exactly the in-memory layout here).
pub fn f32s_as_le_bytes(xs: &[f32]) -> Option<&[u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: `f32` has no padding and `size_of_val` is the exact
        // byte length of the allocation behind `xs`; reinterpreting it
        // as bytes borrows the same memory at the same lifetime.
        Some(unsafe {
            std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs))
        })
    } else {
        None
    }
}

pub(crate) fn hist16(seg: &[f32], counts: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        unsafe { avx2::hist16(seg, counts) };
        return;
    }
    crate::kernel::scalar::hist16(seg, counts);
}

pub(crate) fn select_scan(
    seg: &[f32],
    prefix: u32,
    shift: u32,
    keys: &mut Vec<u32>,
    pos: &mut Vec<u32>,
    definite: &mut Vec<u32>,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        unsafe { avx2::select_scan(seg, prefix, shift, keys, pos, definite) };
        return;
    }
    crate::kernel::scalar::select_scan(seg, prefix, shift, keys, pos, definite);
}

pub(crate) fn gather_keys(seg: &[f32], prefix: u32, shift: u32, keys: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        unsafe { avx2::gather_keys(seg, prefix, shift, keys) };
        return;
    }
    crate::kernel::scalar::gather_keys(seg, prefix, shift, keys);
}

pub(crate) fn scan_ge(
    seg: &[f32],
    guess: u32,
    cap: usize,
    pos: &mut Vec<u32>,
    keys: &mut Vec<u32>,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        return unsafe { avx2::scan_ge(seg, guess, cap, pos, keys) };
    }
    crate::kernel::scalar::scan_ge(seg, guess, cap, pos, keys)
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
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        return unsafe { avx2::momentum_scan_ge(u, grad, momentum, lr, guess, cap, pos, keys) };
    }
    crate::kernel::scalar::momentum_scan_ge(u, grad, momentum, lr, guess, cap, pos, keys)
}

pub(crate) fn diff_scan_ge(
    m: &[f32],
    v: &[f32],
    guess: u32,
    cap: usize,
    pos: &mut Vec<u32>,
    keys: &mut Vec<u32>,
) -> (usize, usize) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        return unsafe { avx2::diff_scan_ge(m, v, guess, cap, pos, keys) };
    }
    crate::kernel::scalar::diff_scan_ge(m, v, guess, cap, pos, keys)
}

pub(crate) fn diff_into(m: &[f32], v: &[f32], out: &mut Vec<f32>) -> usize {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        return unsafe { avx2::diff_into(m, v, out) };
    }
    crate::kernel::scalar::diff_into(m, v, out)
}

pub(crate) fn may_have_diff(m: &[f32], v: &[f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        return unsafe { avx2::may_have_diff(m, v) };
    }
    // Without a vector unit the conservative answer costs nothing extra.
    let _ = (m, v);
    true
}

pub(crate) fn gather_into(seg: &[f32], idx: &[u32], out: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        unsafe { avx2::gather_into(seg, idx, out) };
        return;
    }
    crate::kernel::scalar::gather_into(seg, idx, out);
}

pub(crate) fn max_abs(vals: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        return unsafe { avx2::max_abs(vals) };
    }
    crate::kernel::scalar::max_abs(vals)
}

pub(crate) fn sign_expand(scale: f32, signs: &[u8], n: usize, out: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        unsafe { avx2::sign_expand(scale, signs, n, out) };
        return;
    }
    crate::kernel::scalar::sign_expand(scale, signs, n, out);
}

pub(crate) fn relu_inplace(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        unsafe { avx2::relu_inplace(xs) };
        return;
    }
    crate::kernel::scalar::relu_inplace(xs);
}

pub(crate) fn relu_grad_mask(x: &[f32], d: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        unsafe { avx2::relu_grad_mask(x, d) };
        return;
    }
    crate::kernel::scalar::relu_grad_mask(x, d);
}

pub(crate) fn maxpool2_plane(x: &[f32], h: usize, w: usize, base: u32, y: &mut Vec<f32>, argmax: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was just verified; the target-feature
        // function is otherwise safe Rust.
        unsafe { avx2::maxpool2_plane(x, h, w, base, y, argmax) };
        return;
    }
    crate::kernel::scalar::maxpool2_plane(x, h, w, base, y, argmax);
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::scalar;
    use crate::kernel::{mag_key, HIST16_BUCKETS, MAG_MASK};
    use core::arch::x86_64::*;

    /// IEEE bits of +Inf; any sign-stripped key above this is a NaN.
    const INF_BITS: i32 = 0x7F80_0000;

    #[target_feature(enable = "avx2")]
    pub(super) fn hist16(seg: &[f32], counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(4 * HIST16_BUCKETS, 0);
        // Four partial histograms so same-bucket increments (the common
        // case on gradient-shaped data, which clusters into a few
        // exponent buckets) land on four independent store-forward
        // chains instead of one.
        let (h0, rest) = counts.split_at_mut(HIST16_BUCKETS);
        let (h1, rest) = rest.split_at_mut(HIST16_BUCKETS);
        let (h2, h3) = rest.split_at_mut(HIST16_BUCKETS);
        let mask = _mm256_set1_epi32(MAG_MASK as i32);
        let mut buck = [0u32; 16];
        let mut chunks = seg.chunks_exact(16);
        for c in &mut chunks {
            // SAFETY: `c` is exactly sixteen f32s; two unaligned loads.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_si256(c.as_ptr().cast()),
                    _mm256_loadu_si256(c.as_ptr().add(8).cast()),
                )
            };
            let ka = _mm256_srli_epi32::<16>(_mm256_and_si256(va, mask));
            let kb = _mm256_srli_epi32::<16>(_mm256_and_si256(vb, mask));
            // Homogeneous-chunk fast path: gradient segments cluster so
            // hard (exponent plateaus, decaying tails, the one-ulp-band
            // torture case) that whole chunks often share one bucket —
            // fold those into a single `+= 16` instead of sixteen
            // serial read-modify-writes. The check costs ~4 vector ops,
            // a ~20% toll when it never hits; clustered fills run 4-6x
            // faster.
            let first = _mm256_broadcastd_epi32(_mm256_castsi256_si128(ka));
            let eq =
                _mm256_and_si256(_mm256_cmpeq_epi32(ka, first), _mm256_cmpeq_epi32(kb, first));
            if _mm256_movemask_epi8(eq) == -1 {
                h0[_mm_cvtsi128_si32(_mm256_castsi256_si128(ka)) as u32 as usize] += 16;
                continue;
            }
            // SAFETY: `buck` is exactly sixteen u32s; two unaligned stores.
            unsafe {
                _mm256_storeu_si256(buck.as_mut_ptr().cast(), ka);
                _mm256_storeu_si256(buck.as_mut_ptr().add(8).cast(), kb);
            }
            h0[buck[0] as usize] += 1;
            h1[buck[1] as usize] += 1;
            h2[buck[2] as usize] += 1;
            h3[buck[3] as usize] += 1;
            h0[buck[4] as usize] += 1;
            h1[buck[5] as usize] += 1;
            h2[buck[6] as usize] += 1;
            h3[buck[7] as usize] += 1;
            h0[buck[8] as usize] += 1;
            h1[buck[9] as usize] += 1;
            h2[buck[10] as usize] += 1;
            h3[buck[11] as usize] += 1;
            h0[buck[12] as usize] += 1;
            h1[buck[13] as usize] += 1;
            h2[buck[14] as usize] += 1;
            h3[buck[15] as usize] += 1;
        }
        for &x in chunks.remainder() {
            h0[(mag_key(x) >> 16) as usize] += 1;
        }
        for (((a, &b), &c), &d) in h0.iter_mut().zip(h1.iter()).zip(h2.iter()).zip(h3.iter()) {
            *a += b + c + d;
        }
        counts.truncate(HIST16_BUCKETS);
    }

    /// A 32-element window of keys compared against one lower bound:
    /// the unit all the scan kernels below share. One branch per window
    /// decides whether anything in it emits; the set bits of the mask are
    /// then walked with `trailing_zeros`, so emission visits exactly the
    /// admitted lanes, in ascending position — the order the scalar
    /// twins emit in.
    struct Window {
        /// The sign-stripped keys, eight lanes per vector, in order.
        keys: [__m256i; 4],
        /// Bit `j` set iff element `j` of the window is `>=` the bound.
        hits: u32,
    }

    impl Window {
        /// Lower bound `lo` prepared for [`Window::of_bits`]: biased by the
        /// sign bit so a signed lane compare orders keys as unsigned.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn bound(lo: u32) -> __m256i {
            _mm256_xor_si256(_mm256_set1_epi32(lo as i32), _mm256_set1_epi32(i32::MIN))
        }

        /// The window over four vectors of raw f32 bits.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn of_bits(bits: [__m256i; 4], lo_x: __m256i) -> Window {
            let mask = _mm256_set1_epi32(MAG_MASK as i32);
            let sgn = _mm256_set1_epi32(i32::MIN);
            let mut keys = bits;
            let mut below = 0u32;
            for (ci, k) in keys.iter_mut().enumerate() {
                *k = _mm256_and_si256(*k, mask);
                let lt = _mm256_cmpgt_epi32(lo_x, _mm256_xor_si256(*k, sgn));
                below |= (_mm256_movemask_ps(_mm256_castsi256_ps(lt)) as u32) << (8 * ci);
            }
            Window { keys, hits: !below }
        }

        /// [`Window::of_bits`] over 32 floats in memory.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn of_floats(w: &[f32], lo_x: __m256i) -> Window {
            assert_eq!(w.len(), 32);
            // SAFETY: `w` is exactly 32 f32s (asserted); four unaligned
            // loads of eight lanes each.
            let bits = unsafe {
                [
                    _mm256_loadu_si256(w.as_ptr().cast()),
                    _mm256_loadu_si256(w.as_ptr().add(8).cast()),
                    _mm256_loadu_si256(w.as_ptr().add(16).cast()),
                    _mm256_loadu_si256(w.as_ptr().add(24).cast()),
                ]
            };
            Window::of_bits(bits, lo_x)
        }

        /// Calls `emit(j, key)` for every admitted element `j`, ascending.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn for_each_hit(&self, mut emit: impl FnMut(usize, u32)) {
            let mut lanes = [0u32; 32];
            for (ci, k) in self.keys.iter().enumerate() {
                // SAFETY: `lanes` is 32 u32s and `ci < 4`, so the eight
                // lanes stored at `8 * ci` stay inside it; unaligned store.
                unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().add(8 * ci).cast(), *k) };
            }
            let mut bits = self.hits;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                emit(j, lanes[j]);
                bits &= bits - 1;
            }
        }

        /// The `*_scan_ge` emit step: counts the window's admitted
        /// elements and records them while fewer than `cap` are held.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn admit(&self, base: usize, cap: usize, pos: &mut Vec<u32>, keys: &mut Vec<u32>) -> usize {
            if self.hits != 0 && pos.len() < cap {
                self.for_each_hit(|j, key| {
                    if pos.len() < cap {
                        pos.push((base + j) as u32);
                        keys.push(key);
                    }
                });
            }
            self.hits.count_ones() as usize
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn select_scan(
        seg: &[f32],
        prefix: u32,
        shift: u32,
        keys: &mut Vec<u32>,
        pos: &mut Vec<u32>,
        definite: &mut Vec<u32>,
    ) {
        // Both emit conditions imply `key >= prefix << shift`, and in the
        // radix cascade ~1% of elements meet it: one branch per 32-element
        // window skips the rest, and a hit window emits only its set lanes.
        let lo_x = Window::bound(prefix << shift);
        let mut base = 0usize;
        let mut windows = seg.chunks_exact(32);
        for w in &mut windows {
            let win = Window::of_floats(w, lo_x);
            if win.hits != 0 {
                win.for_each_hit(|j, key| {
                    if key >> shift == prefix {
                        keys.push(key);
                        pos.push((base + j) as u32);
                    } else {
                        definite.push((base + j) as u32);
                    }
                });
            }
            base += 32;
        }
        for &x in windows.remainder() {
            let key = mag_key(x);
            let b = key >> shift;
            if b == prefix {
                keys.push(key);
                pos.push(base as u32);
            } else if b > prefix {
                definite.push(base as u32);
            }
            base += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gather_keys(seg: &[f32], prefix: u32, shift: u32, keys: &mut Vec<u32>) {
        let lo_x = Window::bound(prefix << shift);
        let mut windows = seg.chunks_exact(32);
        for w in &mut windows {
            let win = Window::of_floats(w, lo_x);
            if win.hits != 0 {
                win.for_each_hit(|_, key| {
                    if key >> shift == prefix {
                        keys.push(key);
                    }
                });
            }
        }
        for &x in windows.remainder() {
            let key = mag_key(x);
            if key >> shift == prefix {
                keys.push(key);
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn scan_ge(
        seg: &[f32],
        guess: u32,
        cap: usize,
        pos: &mut Vec<u32>,
        keys: &mut Vec<u32>,
    ) -> usize {
        pos.clear();
        keys.clear();
        let lo_x = Window::bound(guess);
        let (mut admitted, mut base) = (0usize, 0usize);
        let mut windows = seg.chunks_exact(32);
        for w in &mut windows {
            admitted += Window::of_floats(w, lo_x).admit(base, cap, pos, keys);
            base += 32;
        }
        for &x in windows.remainder() {
            admitted += scalar::admit(base, mag_key(x), guess, cap, pos, keys);
            base += 1;
        }
        admitted
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn momentum_scan_ge(
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
        let lo_x = Window::bound(guess);
        let (mv, lrv) = (_mm256_set1_ps(momentum), _mm256_set1_ps(lr));
        let (mut admitted, mut base) = (0usize, 0usize);
        let mut uw = u.chunks_exact_mut(32);
        let mut gw = grad.chunks_exact(32);
        for (uc, gc) in (&mut uw).zip(&mut gw) {
            let mut bits = [_mm256_setzero_si256(); 4];
            for (ci, b) in bits.iter_mut().enumerate() {
                // SAFETY: `uc` and `gc` are exactly 32 f32s and `ci < 4`,
                // so lanes `8 * ci .. 8 * ci + 8` are in bounds of both;
                // unaligned loads and store.
                let un = unsafe {
                    // vmulps/vmulps/vaddps, each rounding like its scalar
                    // operator: AVX2 without FMA cannot contract them.
                    let un = _mm256_add_ps(
                        _mm256_mul_ps(mv, _mm256_loadu_ps(uc.as_ptr().add(8 * ci))),
                        _mm256_mul_ps(lrv, _mm256_loadu_ps(gc.as_ptr().add(8 * ci))),
                    );
                    _mm256_storeu_ps(uc.as_mut_ptr().add(8 * ci), un);
                    un
                };
                *b = _mm256_castps_si256(un);
            }
            admitted += Window::of_bits(bits, lo_x).admit(base, cap, pos, keys);
            base += 32;
        }
        for (ui, &g) in uw.into_remainder().iter_mut().zip(gw.remainder()) {
            *ui = momentum * *ui + lr * g;
            admitted += scalar::admit(base, mag_key(*ui), guess, cap, pos, keys);
            base += 1;
        }
        admitted
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn diff_scan_ge(
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
        let lo_x = Window::bound(guess);
        let zero = _mm256_setzero_ps();
        let (mut nnz, mut admitted, mut base) = (0usize, 0usize, 0usize);
        let mut mw = m.chunks_exact(32);
        let mut vw = v.chunks_exact(32);
        for (mc, vc) in (&mut mw).zip(&mut vw) {
            let mut bits = [_mm256_setzero_si256(); 4];
            let mut nonzero = 0u32;
            for (ci, b) in bits.iter_mut().enumerate() {
                // SAFETY: `mc` and `vc` are exactly 32 f32s and `ci < 4`,
                // so lanes `8 * ci .. 8 * ci + 8` are in bounds of both;
                // unaligned loads.
                let d = unsafe {
                    _mm256_sub_ps(
                        _mm256_loadu_ps(mc.as_ptr().add(8 * ci)),
                        _mm256_loadu_ps(vc.as_ptr().add(8 * ci)),
                    )
                };
                // Same subtract and nonzero rule as `diff_into`.
                let ne = _mm256_cmp_ps::<_CMP_NEQ_UQ>(d, zero);
                nonzero |= (_mm256_movemask_ps(ne) as u32) << (8 * ci);
                *b = _mm256_castps_si256(d);
            }
            nnz += nonzero.count_ones() as usize;
            admitted += Window::of_bits(bits, lo_x).admit(base, cap, pos, keys);
            base += 32;
        }
        for (&mi, &vi) in mw.remainder().iter().zip(vw.remainder()) {
            let d = mi - vi;
            nnz += (d != 0.0) as usize;
            admitted += scalar::admit(base, mag_key(d), guess, cap, pos, keys);
            base += 1;
        }
        (nnz, admitted)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn diff_into(m: &[f32], v: &[f32], out: &mut Vec<f32>) -> usize {
        assert_eq!(m.len(), v.len());
        let n = m.len();
        out.clear();
        out.reserve(n);
        let dst = out.spare_capacity_mut().as_mut_ptr().cast::<f32>();
        let zero = _mm256_setzero_ps();
        let mut nnz = 0usize;
        let full = n / 8 * 8;
        let mut i = 0usize;
        while i < full {
            // SAFETY: `i + 8 <= n` elements remain in both slices;
            // unaligned loads.
            let d = unsafe {
                _mm256_sub_ps(
                    _mm256_loadu_ps(m.as_ptr().add(i)),
                    _mm256_loadu_ps(v.as_ptr().add(i)),
                )
            };
            // SAFETY: `reserve(n)` above guarantees `dst..dst+n` is
            // allocated spare capacity; unaligned store of 8 lanes.
            unsafe { _mm256_storeu_ps(dst.add(i), d) };
            // vsubps matches scalar subtraction bit for bit; NEQ_UQ
            // matches `d != 0.0` (true for NaN, false for -0.0).
            let ne = _mm256_cmp_ps::<_CMP_NEQ_UQ>(d, zero);
            nnz += _mm256_movemask_ps(ne).count_ones() as usize;
            i += 8;
        }
        while i < n {
            let d = m[i] - v[i];
            nnz += (d != 0.0) as usize;
            // SAFETY: `i < n` and `dst..dst+n` is allocated spare
            // capacity reserved above (f32 has no drop glue, so plain
            // assignment into uninitialized memory is a raw store).
            unsafe { *dst.add(i) = d };
            i += 1;
        }
        // SAFETY: all `n` elements were initialized above and the vec
        // was cleared first, so the new length is fully initialized.
        unsafe { out.set_len(n) };
        nnz
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn may_have_diff(m: &[f32], v: &[f32]) -> bool {
        let n = m.len().min(v.len());
        let zero = _mm256_setzero_ps();
        let full = n / 8 * 8;
        let mut i = 0usize;
        while i < full {
            // SAFETY: `i + 8 <= n` elements remain in both slices;
            // unaligned loads.
            let d = unsafe {
                _mm256_sub_ps(
                    _mm256_loadu_ps(m.as_ptr().add(i)),
                    _mm256_loadu_ps(v.as_ptr().add(i)),
                )
            };
            if _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(d, zero)) != 0 {
                return true;
            }
            i += 8;
        }
        while i < n {
            if m[i] - v[i] != 0.0 {
                return true;
            }
            i += 1;
        }
        false
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gather_into(seg: &[f32], idx: &[u32], out: &mut Vec<f32>) {
        // vpgatherdd interprets indices as signed i32: delegate any
        // geometry it cannot express (or any out-of-bounds index) to the
        // scalar twin so the panic site and message stay identical.
        if idx.len() < 8 || seg.len() > i32::MAX as usize {
            scalar::gather_into(seg, idx, out);
            return;
        }
        let mut maxv = _mm256_setzero_si256();
        let mut chunks = idx.chunks_exact(8);
        for c in &mut chunks {
            // SAFETY: `c` is exactly eight u32s; unaligned load.
            let iv = unsafe { _mm256_loadu_si256(c.as_ptr().cast()) };
            maxv = _mm256_max_epu32(maxv, iv);
        }
        let h = _mm_max_epu32(
            _mm256_castsi256_si128(maxv),
            _mm256_extracti128_si256::<1>(maxv),
        );
        let h = _mm_max_epu32(h, _mm_shuffle_epi32::<0b01_00_11_10>(h));
        let h = _mm_max_epu32(h, _mm_shuffle_epi32::<0b00_00_00_01>(h));
        let mut max_idx = _mm_cvtsi128_si32(h) as u32;
        for &i in chunks.remainder() {
            max_idx = max_idx.max(i);
        }
        if max_idx as usize >= seg.len() {
            // Will panic with the standard slice-index message, exactly
            // like the scalar backend.
            scalar::gather_into(seg, idx, out);
            return;
        }
        let old_len = out.len();
        out.reserve(idx.len());
        let dst = out.spare_capacity_mut().as_mut_ptr().cast::<f32>();
        let full = idx.len() / 8 * 8;
        // Software-prefetch the index stream this far ahead: top-k gathers
        // touch scattered cache lines, and on a cold source the
        // out-of-order window alone cannot keep enough misses in flight.
        // Warm sources are unaffected (hits are dropped by the L1).
        const PREFETCH_DIST: usize = 32;
        let mut i = 0usize;
        while i < full {
            if i + PREFETCH_DIST + 8 <= idx.len() {
                for j in 0..8 {
                    // Every index was bounds-proven `< seg.len()`, so the
                    // prefetch address is inside `seg` (and prefetch
                    // cannot fault regardless).
                    // SAFETY: `i + PREFETCH_DIST + j < idx.len()` by the
                    // guard above, so `get_unchecked` stays in bounds.
                    unsafe {
                        _mm_prefetch::<_MM_HINT_T0>(
                            seg.as_ptr().add(*idx.get_unchecked(i + PREFETCH_DIST + j) as usize)
                                .cast(),
                        );
                    }
                }
            }
            // SAFETY: eight u32 indices remain at `idx[i..]`; unaligned
            // load.
            let iv = unsafe { _mm256_loadu_si256(idx.as_ptr().add(i).cast()) };
            // SAFETY: every index was proven `< seg.len() <= i32::MAX`
            // above, so each lane reads in-bounds from `seg`.
            let g = unsafe { _mm256_i32gather_ps::<4>(seg.as_ptr(), iv) };
            // SAFETY: `reserve(idx.len())` guarantees the spare capacity
            // behind `dst`; unaligned store of 8 lanes.
            unsafe { _mm256_storeu_ps(dst.add(i), g) };
            i += 8;
        }
        while i < idx.len() {
            // SAFETY: `i < idx.len()` and the spare capacity was
            // reserved above; the index was bounds-proven.
            unsafe { *dst.add(i) = seg[idx[i] as usize] };
            i += 1;
        }
        // SAFETY: `idx.len()` new elements were initialized above,
        // directly after the `old_len` existing ones.
        unsafe { out.set_len(old_len + idx.len()) };
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn max_abs(vals: &[f32]) -> f32 {
        let mask = _mm256_set1_epi32(MAG_MASK as i32);
        let inf = _mm256_set1_epi32(INF_BITS);
        let mut acc = _mm256_setzero_si256();
        let mut chunks = vals.chunks_exact(8);
        for c in &mut chunks {
            // SAFETY: `c` is exactly eight f32s; unaligned load.
            let v = unsafe { _mm256_loadu_si256(c.as_ptr().cast()) };
            let k = _mm256_and_si256(v, mask);
            // Keys and INF_BITS are both non-negative, so the signed
            // compare is exact: above +Inf means NaN — zero those lanes,
            // matching f32::max's NaN-ignoring fold.
            let nan = _mm256_cmpgt_epi32(k, inf);
            acc = _mm256_max_epu32(acc, _mm256_andnot_si256(nan, k));
        }
        let h = _mm_max_epu32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256::<1>(acc),
        );
        let h = _mm_max_epu32(h, _mm_shuffle_epi32::<0b01_00_11_10>(h));
        let h = _mm_max_epu32(h, _mm_shuffle_epi32::<0b00_00_00_01>(h));
        let mut best = _mm_cvtsi128_si32(h) as u32;
        for &x in chunks.remainder() {
            let k = mag_key(x);
            if k <= INF_BITS as u32 {
                best = best.max(k);
            }
        }
        // The u32 maximum of sign-stripped non-NaN keys is the bit
        // pattern of the float maximum of the absolute values (IEEE
        // order is monotone in the bits for non-negative floats).
        f32::from_bits(best)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn sign_expand(scale: f32, signs: &[u8], n: usize, out: &mut Vec<f32>) {
        assert!(signs.len() * 8 >= n);
        let old_len = out.len();
        out.reserve(n);
        let dst = out.spare_capacity_mut().as_mut_ptr().cast::<f32>();
        let pos_v = _mm256_set1_ps(scale);
        // -scale is a sign-bit flip — bitwise total, even for Inf/0.
        let neg_v = _mm256_xor_ps(pos_v, _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN)));
        let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let full_bytes = n / 8;
        for (byte_i, &b) in signs.iter().take(full_bytes).enumerate() {
            let bv = _mm256_set1_epi32(b as i32);
            // Lane j = all-ones iff bit j of the byte is set (positive).
            let on = _mm256_cmpeq_epi32(_mm256_and_si256(bv, bits), bits);
            let vals = _mm256_blendv_ps(neg_v, pos_v, _mm256_castsi256_ps(on));
            // SAFETY: `byte_i < n / 8`, so these eight slots lie inside
            // the `n` spare elements reserved above; unaligned store.
            unsafe { _mm256_storeu_ps(dst.add(byte_i * 8), vals) };
        }
        for bit in full_bytes * 8..n {
            let positive = signs[bit / 8] & (1 << (bit % 8)) != 0;
            // SAFETY: `bit < n` indexes the spare capacity reserved
            // above.
            unsafe { *dst.add(bit) = if positive { scale } else { -scale } };
        }
        // SAFETY: `n` new elements were initialized above, directly
        // after the `old_len` existing ones.
        unsafe { out.set_len(old_len + n) };
    }

    // ----- compute tier (relu / pooling; GEMM lives in crate::gemm) -----

    #[target_feature(enable = "avx2")]
    pub(super) fn relu_inplace(xs: &mut [f32]) {
        let zero = _mm256_setzero_ps();
        let mut chunks = xs.chunks_exact_mut(8);
        for c in &mut chunks {
            // SAFETY: `c` is exactly eight f32s; unaligned load/store.
            unsafe {
                let v = _mm256_loadu_ps(c.as_ptr());
                // vmaxps(x, 0): returns the SECOND operand when x is NaN
                // and on the -0.0/+0.0 tie — exactly the scalar twin's
                // `if x > 0.0 { x } else { 0.0 }`.
                _mm256_storeu_ps(c.as_mut_ptr(), _mm256_max_ps(v, zero));
            }
        }
        scalar::relu_inplace(chunks.into_remainder());
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn relu_grad_mask(x: &[f32], d: &mut [f32]) {
        assert_eq!(x.len(), d.len());
        let zero = _mm256_setzero_ps();
        let full = x.len() / 8 * 8;
        let mut i = 0usize;
        while i < full {
            // SAFETY: `i + 8 <= len` of both slices; unaligned loads and
            // store.
            unsafe {
                let xv = _mm256_loadu_ps(x.as_ptr().add(i));
                let dv = _mm256_loadu_ps(d.as_ptr().add(i));
                // NLE_UQ = !(x <= 0): true for x > 0 AND for NaN x, so a
                // NaN activation passes its gradient through exactly like
                // the scalar `if xi <= 0.0 { 0 }` gate (NaN <= 0 is
                // false). GT_OQ would wrongly zero the NaN lanes.
                let keep = _mm256_cmp_ps::<_CMP_NLE_UQ>(xv, zero);
                _mm256_storeu_ps(d.as_mut_ptr().add(i), _mm256_and_ps(dv, keep));
            }
            i += 8;
        }
        scalar::relu_grad_mask(&x[full..], &mut d[full..]);
    }

    /// Deinterleave 16 consecutive floats at `p` into (even, odd) lanes:
    /// even = elements 0,2,..,14 and odd = 1,3,..,15, each in source order.
    ///
    /// # Safety
    ///
    /// Caller must guarantee at least 16 readable f32s at `p`.
    // SAFETY: callers verify AVX2 before taking this path and guarantee
    // 16 readable f32s at `p`; those are the only obligations.
    #[target_feature(enable = "avx2")]
    unsafe fn deinterleave16(p: *const f32) -> (__m256, __m256) {
        // SAFETY: caller guarantees 16 readable floats; unaligned loads.
        let (l0, l1) = unsafe { (_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8))) };
        // shuffle picks (0,2) of each source per 128-bit half; the 64-bit
        // permute (0,2,1,3) then stitches the halves into source order.
        let ev = _mm256_shuffle_ps::<0b10_00_10_00>(l0, l1);
        let od = _mm256_shuffle_ps::<0b11_01_11_01>(l0, l1);
        let ev = _mm256_castsi256_ps(_mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_castps_si256(ev)));
        let od = _mm256_castsi256_ps(_mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_castps_si256(od)));
        (ev, od)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn maxpool2_plane(x: &[f32], h: usize, w: usize, base: u32, y: &mut Vec<f32>, argmax: &mut Vec<u32>) {
        assert!(h % 2 == 0 && w % 2 == 0 && x.len() == h * w);
        let (oh, ow) = (h / 2, w / 2);
        y.reserve(oh * ow);
        argmax.reserve(oh * ow);
        // Lane l covers output column ox0 + l, whose window starts at
        // input column 2*(ox0 + l): index offsets step by 2 per lane.
        let lane2 = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
        let full = ow / 8 * 8;
        for oy in 0..oh {
            let (iy0, iy1) = (oy * 2, oy * 2 + 1);
            let mut ox0 = 0usize;
            while ox0 < full {
                // SAFETY: rows iy0/iy1 are in-plane and the window spans
                // input columns 2*ox0 .. 2*ox0+16 <= w, so 16 floats are
                // readable at each row offset.
                let ((v00, v01), (v10, v11)) = unsafe {
                    (
                        deinterleave16(x.as_ptr().add(iy0 * w + 2 * ox0)),
                        deinterleave16(x.as_ptr().add(iy1 * w + 2 * ox0)),
                    )
                };
                // Running best per lane, visiting the four window cells in
                // the scalar scan order (ky, kx) with strict-greater
                // updates: first max wins, NaN candidates never win
                // (GT_OQ is false on NaN), all-NaN lanes keep index 0.
                let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
                let mut bidx = _mm256_setzero_si256();
                for (v, iy, kx) in [(v00, iy0, 0u32), (v01, iy0, 1), (v10, iy1, 0), (v11, iy1, 1)] {
                    let start = base + (iy * w) as u32 + 2 * ox0 as u32 + kx;
                    let idxv = _mm256_add_epi32(_mm256_set1_epi32(start as i32), lane2);
                    let win = _mm256_cmp_ps::<_CMP_GT_OQ>(v, best);
                    best = _mm256_blendv_ps(best, v, win);
                    bidx = _mm256_blendv_epi8(bidx, idxv, _mm256_castps_si256(win));
                }
                let mut vals = [0.0f32; 8];
                let mut idxs = [0u32; 8];
                // SAFETY: `vals`/`idxs` are exactly eight elements;
                // unaligned stores.
                unsafe {
                    _mm256_storeu_ps(vals.as_mut_ptr(), best);
                    _mm256_storeu_si256(idxs.as_mut_ptr().cast(), bidx);
                }
                y.extend_from_slice(&vals);
                argmax.extend_from_slice(&idxs);
                ox0 += 8;
            }
            scalar::maxpool2_row(x, w, base, oy, full, ow, y, argmax);
        }
    }
}
