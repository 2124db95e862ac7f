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
//!
//! What makes the next round's selection cheap — one [`Guess`] per segment —
//! belongs to the owner, which passes it in with the job's other inputs
//! ([`carried`]). Guesses change cost only: every selection is exact for any
//! guess.

use crate::PAR_THRESHOLD;
use dgs_sparsify::{Guess, Segment, SelectScratch};
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

/// One owner's carried guesses as per-segment job inputs: `guesses` itself
/// when it has one per segment, otherwise reset to "no guess" at that length
/// first (an owner's first run).
pub(crate) fn carried<'a>(
    guesses: &'a mut Vec<Guess>,
    segments: &[Segment],
) -> std::slice::IterMut<'a, Guess> {
    if guesses.len() != segments.len() {
        guesses.clear();
        guesses.resize(segments.len(), Guess::default());
    }
    guesses.iter_mut()
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
    /// Guess-eligible selections (wide segment, sparse `k`) that one scan
    /// settled, and those that ran the two-pass engine instead. In-crate
    /// telemetry for the tests that keep the one-pass path from decaying
    /// into always-fallback.
    pub(crate) one_pass: u64,
    pub(crate) fallbacks: u64,
}

impl SegmentDriver {
    /// Runtime kernel, fan-out allowed, pool sized for the steady state of
    /// one scratch per segment in flight at once.
    pub(crate) fn new() -> Self {
        SegmentDriver {
            pool: BufferPool::new(64),
            kernel: Kernel::runtime(),
            par: true,
            one_pass: 0,
            fallbacks: 0,
        }
    }

    fn lease(&mut self) -> SelectScratch {
        SelectScratch::from_buffers(self.pool.acquire(), self.pool.acquire(), self.pool.acquire())
            .with_kernel(self.kernel)
    }

    fn give_back(&mut self, sel: SelectScratch) {
        let (one_pass, fallbacks) = sel.tally();
        self.one_pass += one_pass;
        self.fallbacks += fallbacks;
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

    /// The one-pass path must carry the load, or the gain it exists for
    /// has silently decayed into "always fall back": four DGS workers and
    /// their server over 24 rounds of real gradients on a model with two
    /// wide layers. From each owner's third round on, at least nine in ten
    /// guess-eligible selections settle in one pass; one round at ×100 the
    /// learning rate costs each compressor exactly one fallback per wide
    /// layer, and the round after it is one-pass again.
    #[test]
    fn carried_guesses_settle_nine_selections_in_ten() {
        use crate::compress::{Compressor, SaMomentumCompressor, StepCtx};
        use crate::protocol::{DownMsg, UpMsg};
        use crate::server::{Downlink, MdtServer};
        use dgs_nn::data::{Dataset, GaussianBlobs};
        use dgs_nn::loader::BatchLoader;
        use dgs_nn::models::mlp;
        use std::sync::Arc;

        const WORKERS: usize = 4;
        const ROUNDS: usize = 24;
        const JUMP: usize = 20;
        let build = || mlp(256, &[160, 256], 10, 5);
        let mut nets: Vec<_> = (0..WORKERS).map(|_| build()).collect();
        let part = nets[0].params().partition().clone();
        let wide = part.segments().iter().filter(|seg| seg.len >= 1 << 15).count() as u64;
        assert!(wide >= 2, "the model needs two wide layers, has {wide}");
        let dim = part.total_len();
        let train: Arc<dyn Dataset> = Arc::new(GaussianBlobs::new(256, 256, 10, 0.5, 3));
        let mut loaders: Vec<_> =
            (0..WORKERS).map(|w| BatchLoader::new(Arc::clone(&train), 4, 40 + w as u64)).collect();
        let mut comps: Vec<_> = (0..WORKERS).map(|_| SaMomentumCompressor::new(dim, 0.7)).collect();
        let downlink = Downlink::ModelDifference { secondary_ratio: Some(0.01) };
        let mut server =
            MdtServer::new(nets[0].params().data().to_vec(), part.clone(), WORKERS, downlink);
        // Every reply a dense scan: the path that carries the server's guesses.
        server.set_log_capacity(1);

        let tallies = |comps: &[SaMomentumCompressor], server: &MdtServer| {
            let mut t: Vec<(u64, u64)> = comps.iter().map(|c| c.select_tally()).collect();
            t.push(server.select_tally());
            t
        };
        let mut warm = Vec::new();
        for round in 0..ROUNDS {
            if round == 2 {
                warm = tallies(&comps, &server);
            }
            let before = tallies(&comps, &server);
            let lr = if round == JUMP { 5.0 } else { 0.05 };
            for w in 0..WORKERS {
                let (x, labels) = loaders[w].next_batch();
                let (train_loss, _) = nets[w].train_step(x, &labels);
                let ctx = StepCtx { lr, ratio: 0.01 };
                let payload = comps[w].compress(nets[w].params().grad(), &part, ctx);
                match server.handle_update(w, &UpMsg { payload, train_loss }) {
                    DownMsg::SparseDiff(diff) => {
                        diff.apply_add(nets[w].params_mut().data_mut(), &part, 1.0)
                    }
                    other => panic!("expected a sparse diff, got {other:?}"),
                }
            }
            let after = tallies(&comps, &server);
            if round == JUMP - 1 {
                for (owner, (now, then)) in after.iter().zip(&warm).enumerate() {
                    let (hit, miss) = (now.0 - then.0, now.1 - then.1);
                    assert!(
                        hit + miss >= wide * (JUMP as u64 - 2),
                        "owner {owner} selected {hit}+{miss} times"
                    );
                    assert!(
                        hit * 10 >= (hit + miss) * 9,
                        "owner {owner}: {hit} one-pass, {miss} fallbacks"
                    );
                }
            }
            if round == JUMP || round == JUMP + 1 {
                for w in 0..WORKERS {
                    let (hit, miss) = (after[w].0 - before[w].0, after[w].1 - before[w].1);
                    let want = if round == JUMP { (0, wide) } else { (wide, 0) };
                    assert_eq!((hit, miss), want, "worker {w}, round {round}");
                }
            }
        }
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
