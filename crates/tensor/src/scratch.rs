//! Per-network compute scratch: a [`Kernel`] choice plus buffer shelves
//! for the per-batch buffers the nn layers need (activation outputs,
//! gradients, pooling argmax maps, norm statistics).
//!
//! `crates/nn` threads one [`ComputeScratch`] through every layer's
//! forward/backward, so after a warm-up step the training loop runs
//! allocation-free: outputs are carved from shelved `Vec`s and consumed
//! inputs are recycled back with [`ComputeScratch::put_tensor`]. The
//! [`ComputeScratch::misses`] counter makes that property testable — it
//! increments exactly when an acquire had to allocate, so a steady-state
//! training step asserts `misses()` stops moving.
//!
//! # What a shelf retains
//!
//! A shelf is bounded by bytes, and the bound is measured, not set: it is
//! the total capacity the shelf itself had to allocate on misses — i.e.
//! the step's working set as the step demonstrated it. A miss allocates a
//! buffer of exactly the requested size and leaves shelved buffers alone
//! (growing an arbitrary small one in place turned every shelved buffer
//! into a copy of the largest request over time). A returned buffer that
//! would take the shelf past its bound is dropped if a buffer of the same
//! capacity is already shelved, and otherwise shelved at the expense of
//! the buffers that have sat unused the longest. Tensors the shelf never
//! handed out (each step's input batch, the loss gradient) therefore
//! trade places with equal capacity instead of accumulating, and a warm
//! step neither misses nor grows.
//!
//! Carrying the [`Kernel`] here (instead of calling [`Kernel::runtime`] at
//! every site) also makes the backend an explicit, swappable property of a
//! network: the differential suites train sibling models under `Scalar`
//! and `Simd` in one process, which the `OnceLock`-cached runtime choice
//! could not express.

use crate::kernel::Kernel;
use crate::tensor::Tensor;

/// Reusable `Vec<T>`s, oldest-returned first, bounded by the bytes the
/// shelf itself allocated (see the module docs).
#[derive(Debug)]
struct Shelf<T> {
    free: Vec<Vec<T>>,
    retained_bytes: usize,
    made_bytes: usize,
}

impl<T> Shelf<T> {
    fn new() -> Self {
        Shelf { free: Vec::new(), retained_bytes: 0, made_bytes: 0 }
    }

    fn bytes(buf: &Vec<T>) -> usize {
        buf.capacity() * std::mem::size_of::<T>()
    }

    /// Best fit: the shelved buffer with the smallest capacity that still
    /// holds `cap` elements (the stalest among equals), so mixed request
    /// sizes each keep their own steady-state buffer. On a miss, a fresh
    /// buffer of exactly `cap`, counted into `misses` and into the bound.
    /// Length and contents are whatever the last user left.
    fn take(&mut self, cap: usize, misses: &mut u64) -> Vec<T> {
        if cap == 0 {
            return Vec::new();
        }
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.free.iter().enumerate() {
            let c = b.capacity();
            if c >= cap && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((i, c));
            }
        }
        match best {
            Some((i, _)) => {
                let buf = self.free.remove(i);
                self.retained_bytes -= Self::bytes(&buf);
                buf
            }
            None => {
                *misses += 1;
                let buf = Vec::with_capacity(cap);
                self.made_bytes += Self::bytes(&buf);
                buf
            }
        }
    }

    fn put(&mut self, buf: Vec<T>) {
        let bytes = Self::bytes(&buf);
        if bytes == 0 || bytes > self.made_bytes {
            return;
        }
        let over = self.retained_bytes + bytes > self.made_bytes;
        if over && self.free.iter().any(|b| b.capacity() == buf.capacity()) {
            // A twin is already shelved: keeping this one instead would
            // change nothing the next step can use.
            return;
        }
        self.free.push(buf);
        self.retained_bytes += bytes;
        while self.retained_bytes > self.made_bytes {
            self.retained_bytes -= Self::bytes(&self.free.remove(0));
        }
    }
}

/// Kernel choice + buffer shelves for allocation-free layer compute.
#[derive(Debug)]
pub struct ComputeScratch {
    kernel: Kernel,
    f32s: Shelf<f32>,
    u32s: Shelf<u32>,
    misses: u64,
}

impl Default for ComputeScratch {
    /// Scratch bound to the process-wide [`Kernel::runtime`] backend.
    fn default() -> Self {
        ComputeScratch::new(Kernel::runtime())
    }
}

impl ComputeScratch {
    /// Scratch bound to an explicit backend.
    pub fn new(kernel: Kernel) -> Self {
        ComputeScratch { kernel, f32s: Shelf::new(), u32s: Shelf::new(), misses: 0 }
    }

    /// The backend every consumer of this scratch must dispatch through.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Rebind to a different backend (shelves are kept — backend choice
    /// never changes buffer shapes).
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.kernel = kernel;
    }

    /// An empty `f32` buffer with at least `cap` capacity, best-fit from
    /// the shelf; counts a miss only when nothing shelved was big enough
    /// and one had to be allocated.
    pub fn take(&mut self, cap: usize) -> Vec<f32> {
        let mut v = self.f32s.take(cap, &mut self.misses);
        v.clear();
        v
    }

    /// A zero-filled `f32` buffer of exactly `len` elements — for
    /// accumulators. A buffer the caller overwrites wants
    /// [`ComputeScratch::take_dirty`].
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.take(len);
        v.resize(len, 0.0);
        v
    }

    /// An `f32` buffer of exactly `len` elements holding whatever its last
    /// user left (zeros where it was never written): for outputs every
    /// element of which is written before it is read, so the O(len)
    /// zero-fill of [`ComputeScratch::take_zeroed`] would be wasted.
    pub fn take_dirty(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.f32s.take(len, &mut self.misses);
        if v.len() < len {
            v.resize(len, 0.0);
        } else {
            v.truncate(len);
        }
        v
    }

    /// Returns an `f32` buffer to the shelf.
    pub fn put(&mut self, buf: Vec<f32>) {
        self.f32s.put(buf);
    }

    /// Recycles a consumed tensor's storage.
    pub fn put_tensor(&mut self, t: Tensor) {
        self.f32s.put(t.into_vec());
    }

    /// An empty `u32` buffer with at least `cap` capacity (argmax maps).
    /// Best-fit, same policy as [`ComputeScratch::take`].
    pub fn take_u32(&mut self, cap: usize) -> Vec<u32> {
        let mut v = self.u32s.take(cap, &mut self.misses);
        v.clear();
        v
    }

    /// Returns a `u32` buffer to the shelf.
    pub fn put_u32(&mut self, buf: Vec<u32>) {
        self.u32s.put(buf);
    }

    /// Total acquires that had to allocate. Stops increasing once the
    /// shelves hold the step's working set — the "training loop is
    /// allocation-free" assertion.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Bytes of heap capacity parked across both shelves. Never exceeds
    /// what the shelves allocated on misses.
    pub fn retained_bytes(&self) -> usize {
        self.f32s.retained_bytes + self.u32s.retained_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip_is_miss_free_once_warm() {
        let mut s = ComputeScratch::new(Kernel::Scalar);
        assert_eq!(s.kernel(), Kernel::Scalar);
        let b = s.take(100);
        assert!(b.capacity() >= 100);
        assert_eq!(s.misses(), 1, "cold acquire grows");
        s.put(b);
        let b = s.take(100);
        assert_eq!(s.misses(), 1, "warm acquire reuses");
        assert!(b.is_empty());
        s.put(b);
        // A bigger request grows again.
        let b = s.take(200);
        assert_eq!(s.misses(), 2);
        s.put(b);
        let b = s.take(150);
        assert_eq!(s.misses(), 2, "smaller request served by the grown buffer");
        s.put(b);
    }

    #[test]
    fn take_zeroed_is_zero_even_after_dirty_reuse() {
        let mut s = ComputeScratch::default();
        let mut b = s.take(8);
        b.extend_from_slice(&[f32::NAN; 8]);
        s.put(b);
        let z = s.take_zeroed(8);
        assert_eq!(z.len(), 8);
        assert!(z.iter().all(|v| v.to_bits() == 0));
        s.put(z);
    }

    #[test]
    fn tensor_storage_recycles() {
        let mut s = ComputeScratch::default();
        let t = Tensor::from_vec([4, 4], s.take_zeroed(16)).unwrap();
        s.put_tensor(t);
        let b = s.take(16);
        assert_eq!(s.misses(), 1, "tensor storage served the second acquire");
        s.put(b);
        let u = s.take_u32(32);
        assert_eq!(s.misses(), 2);
        s.put_u32(u);
        assert_eq!(s.retained_bytes(), 16 * 4 + 32 * 4);
    }

    #[test]
    fn take_dirty_skips_the_zero_fill_but_not_the_length() {
        let mut s = ComputeScratch::default();
        let mut b = s.take_dirty(8);
        assert_eq!(b, vec![0.0; 8], "a fresh buffer reads as zeros");
        b.fill(7.0);
        s.put(b);
        let b = s.take_dirty(6);
        assert_eq!(b, vec![7.0; 6], "stale contents, requested length");
        s.put(b);
        let b = s.take_dirty(8);
        assert_eq!(b.len(), 8);
        assert_eq!(&b[..6], &[7.0; 6]);
        assert_eq!(s.misses(), 1);
        s.put(b);
        assert!(s.take(8).is_empty(), "take still hands out an empty buffer");
    }

    #[test]
    fn a_miss_allocates_exactly_and_leaves_small_buffers_small() {
        let mut s = ComputeScratch::default();
        let small = s.take(10);
        s.put(small);
        let big = s.take(1000);
        assert_eq!(s.misses(), 2);
        assert_eq!(big.capacity(), 1000);
        s.put(big);
        assert_eq!(s.retained_bytes(), 1010 * 4, "the small buffer was not grown");
        assert_eq!(s.take(10).capacity(), 10);
    }

    #[test]
    fn foreign_buffers_displace_stale_capacity_instead_of_accumulating() {
        let mut s = ComputeScratch::default();
        // Nothing allocated yet: nothing is kept.
        s.put(vec![0.0; 64]);
        assert_eq!(s.retained_bytes(), 0);
        // The step's working set: two 64-element buffers.
        let (a, b) = (s.take(64), s.take(64));
        s.put(a);
        s.put(b);
        let bound = s.retained_bytes();
        assert_eq!(bound, 2 * 64 * 4);
        for _ in 0..10 {
            // Each step recycles one tensor the shelf never handed out.
            let (a, b) = (s.take(64), s.take(64));
            s.put(vec![1.0; 64]);
            s.put(a);
            s.put(b);
            assert_eq!(s.retained_bytes(), bound);
        }
        assert_eq!(s.misses(), 2, "the exchange costs no miss");
        // Too big for the bound: dropped outright.
        s.put(vec![0.0; 1024]);
        assert_eq!(s.retained_bytes(), bound);
        // A stranger without a twin is shelved at the expense of the
        // stalest buffer, and goes the same way once it is the stalest.
        let a = s.take(64);
        s.put(vec![0.0; 100]);
        assert_eq!(s.retained_bytes(), 100 * 4);
        s.put(a);
        assert_eq!(s.retained_bytes(), 64 * 4);
    }

    #[test]
    fn set_kernel_rebinds() {
        let mut s = ComputeScratch::default();
        s.set_kernel(Kernel::Simd);
        assert_eq!(s.kernel(), Kernel::Simd);
    }
}
