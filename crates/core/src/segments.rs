//! The per-segment driver both sparsification ways run on.
//!
//! The paper sparsifies twice with the same loop — per layer, pick the
//! Top-R % by magnitude, gather, adjust what stays behind — once on the
//! worker (Alg. 1/3) and once on the server (Alg. 2 lines 5-11).
//! [`SegmentDriver::run`] is that loop's skeleton, written once: split a
//! flat model-sized buffer into its per-segment slices, hand each job
//! pooled radix-select scratch, run the jobs in order or across rayon,
//! collect the per-segment outputs in segment order, and take the scratch
//! back. What a job *does* is its caller's closure.

use crate::PAR_THRESHOLD;
use dgs_sparsify::{Segment, SelectScratch};
use dgs_tensor::{BufferPool, Kernel};
use rayon::prelude::*;

/// Splits a flat model-sized buffer into its per-segment slices, in segment
/// order (a [`dgs_sparsify::Partition`] is ordered and gap-free, so a
/// `split_at_mut` chain covers it exactly).
pub(crate) fn split_segments<'a>(
    segments: &'a [Segment],
    mut buf: &'a mut [f32],
) -> impl Iterator<Item = &'a mut [f32]> {
    segments.iter().map(move |seg| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(seg.len);
        buf = tail;
        head
    })
}

/// Scratch, compute backend and fan-out policy of one owner's per-segment
/// passes (a compressor, or a server).
#[derive(Debug)]
pub(crate) struct SegmentDriver {
    /// Recycled `u32` buffers: three per [`SelectScratch`] in flight. The
    /// server also draws its candidate and dirty-set lists from here.
    pub(crate) pool: BufferPool<u32>,
    /// Backend the selection and merge kernels run on. Backends are bitwise
    /// identical, so this changes cost only.
    pub(crate) kernel: Kernel,
    /// May [`Self::run`] fan segments out to rayon? The sharded server
    /// turns this off per shard: there the shard is the unit of
    /// parallelism, and a thread holding a shard lock must never reach a
    /// rayon join point (work-stealing could hand it a sibling task that
    /// blocks on the same lock). Cost only, never the output.
    pub(crate) par: bool,
}

impl SegmentDriver {
    /// Runtime kernel, fan-out allowed, pool sized for the steady state of
    /// one scratch per segment in flight at once.
    pub(crate) fn new() -> Self {
        SegmentDriver { pool: BufferPool::new(64), kernel: Kernel::runtime(), par: true }
    }

    fn lease(&mut self) -> SelectScratch {
        SelectScratch::from_buffers(self.pool.acquire(), self.pool.acquire(), self.pool.acquire())
            .with_kernel(self.kernel)
    }

    fn give_back(&mut self, sel: SelectScratch) {
        let (keys, spare, pos) = sel.into_buffers();
        self.pool.release(keys);
        self.pool.release(spare);
        self.pool.release(pos);
    }

    /// Runs `job` once per segment of `buf` and returns the outputs in
    /// segment order. A job gets its segment, that segment's slice of
    /// `buf`, the caller's per-segment input (`inputs` yields one item per
    /// segment) and radix-select scratch carrying [`Self::kernel`].
    ///
    /// Jobs fan out to rayon when there are several of them and `work` —
    /// the element count the pass is about to touch — reaches
    /// `PAR_THRESHOLD`; the decision reads lengths only, so the output is
    /// the same either way.
    pub(crate) fn run<X, O, F>(
        &mut self,
        segments: &[Segment],
        buf: &mut [f32],
        work: usize,
        inputs: impl IntoIterator<Item = X>,
        job: F,
    ) -> Vec<O>
    where
        X: Send,
        O: Send,
        F: Fn(&Segment, &mut [f32], X, &mut SelectScratch) -> O + Sync,
    {
        let jobs = segments.iter().zip(split_segments(segments, buf)).zip(inputs);
        if self.par && work >= PAR_THRESHOLD && segments.len() > 1 {
            let jobs: Vec<_> =
                jobs.map(|((seg, slice), x)| (seg, slice, x, self.lease())).collect();
            let done: Vec<(O, SelectScratch)> = jobs
                .into_par_iter()
                .map(|(seg, slice, x, mut sel)| (job(seg, slice, x, &mut sel), sel))
                .collect();
            done.into_iter()
                .map(|(out, sel)| {
                    self.give_back(sel);
                    out
                })
                .collect()
        } else {
            let mut sel = self.lease();
            let out = jobs.map(|((seg, slice), x)| job(seg, slice, x, &mut sel)).collect();
            self.give_back(sel);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_sparsify::{k_for_ratio, radix_topk_indices, Partition};
    use std::iter::repeat;

    /// A selecting, mutating job: Top-1 % of the slice, negated in place.
    fn job(
        seg: &Segment,
        slice: &mut [f32],
        scale: f32,
        sel: &mut SelectScratch,
    ) -> (usize, Vec<u32>) {
        let idx = radix_topk_indices(slice, k_for_ratio(slice.len(), 0.01), sel);
        for &i in &idx {
            slice[i as usize] *= -scale;
        }
        (seg.offset, idx)
    }

    fn model(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.25).collect()
    }

    #[test]
    fn sequential_and_fan_out_agree_and_scratch_returns() {
        let seg = PAR_THRESHOLD / 2;
        let part = Partition::from_layer_sizes([("a", seg), ("b", seg + 7), ("c", 3), ("d", seg)]);
        let dim = part.total_len();
        let scales = [1.0f32, 2.0, 0.5, 3.0];
        let mut outs = Vec::new();
        for par in [false, true] {
            let mut driver = SegmentDriver::new();
            driver.par = par;
            let mut buf = model(dim);
            let first = driver.run(part.segments(), &mut buf, dim, scales, job);
            // Warm-up: the pool is LIFO, so buffers trade roles between calls
            // until each has grown to the largest role it serves.
            for _ in 0..4 {
                driver.run(part.segments(), &mut model(dim), dim, scales, job);
            }
            // Warm: every later call finds its buffers in the pool and
            // leaves it as it found it.
            let (idle, bytes) = (driver.pool.idle(), driver.pool.retained_bytes());
            assert_eq!(idle, if par { 3 * part.num_segments() } else { 3 });
            for _ in 0..32 {
                let mut again = model(dim);
                assert_eq!(driver.run(part.segments(), &mut again, dim, scales, job), first);
                assert_eq!(again, buf);
                assert_eq!((driver.pool.idle(), driver.pool.retained_bytes()), (idle, bytes));
            }
            outs.push((first, buf));
        }
        assert_eq!(outs[0], outs[1], "fan-out changed the chunks or the buffer");
        let offsets: Vec<usize> = outs[0].0.iter().map(|(off, _)| *off).collect();
        assert_eq!(offsets, part.segments().iter().map(|s| s.offset).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_segment_partitions() {
        let mut driver = SegmentDriver::new();
        let none: Vec<(usize, Vec<u32>)> = driver.run(&[], &mut [], 0, repeat(1.0), job);
        assert!(none.is_empty());
        // One segment never fans out, however large.
        let dim = 2 * PAR_THRESHOLD;
        let part = Partition::single(dim);
        let mut buf = model(dim);
        let out = driver.run(part.segments(), &mut buf, dim, repeat(1.0), job);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.len(), k_for_ratio(dim, 0.01));
        assert_eq!(driver.pool.idle(), 3);
    }
}
