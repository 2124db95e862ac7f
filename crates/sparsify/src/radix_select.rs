//! Bit-level Top-k selection engine: exact, deterministic O(n) radix select.
//!
//! Every Top-R% selection in the workspace ranks coordinates under the
//! single total order [`crate::merge::mag_idx_order`]: magnitude descending
//! (NaN above +∞ via [`f32::total_cmp`]), ties broken toward lower indices.
//! The comparator engines in [`crate::topk`] / [`crate::merge`] realise that
//! order through `select_nth_unstable_by` over an index vector — an O(n)
//! *average* algorithm whose constant is dominated by comparator calls and
//! the dim-sized index permutation it drags through cache. At the paper's
//! operating point (dim = 1M, R = 1%) that selection is the per-step hot
//! spot on **both** sparsification ways: the worker uplink (Alg. 1/3) and
//! the server's secondary compression (Alg. 2) — the round ledger's
//! `sparsify.topk_replay_us` and `server.handle_us` rows.
//!
//! This module replaces the comparator with bit arithmetic:
//!
//! 1. **Key mapping.** `key(v) = v.to_bits() & 0x7FFF_FFFF` — the IEEE-754
//!    bit pattern of `|v|`. For sign-cleared f32 bit patterns, unsigned
//!    integer order coincides with `total_cmp` order: finite magnitudes
//!    ascend with their bits, `+∞` (`0x7F80_0000`) sits above every finite
//!    value, and every NaN payload (`> 0x7F80_0000`) sits above `+∞` —
//!    exactly the order [`crate::merge::mag_idx_order`] imposes on
//!    magnitudes. The map is total: ±0, denormals, and all NaN payloads
//!    rank deterministically.
//! 2. **Histogram select.** A 65,536-bucket histogram over the top *two*
//!    key bytes locates the bucket holding the k-th largest key. A single
//!    byte would be the textbook radix, but an f32's top key byte is just
//!    the sign-cleared exponent's high bits — gradient-shaped data piles
//!    ~25% of a segment into one bucket. Sixteen bits split every exponent
//!    across 256 mantissa sub-buckets, keeping the expected boundary
//!    bucket near n/65536. A second, fused scan emits every position whose
//!    top two bytes rank strictly above that bucket (already in ascending
//!    order) and gathers the boundary bucket's keys and positions into
//!    pooled scratch. Byte-wise refinement over the candidates alone then
//!    pins the exact k-th key (`thr_key`) and the count strictly above it
//!    — no comparator calls, no dim-sized index vector.
//! 3. **Tie-aware merge.** The selected boundary candidates — everything
//!    with `key > thr_key` plus the first `k − above` positions with
//!    `key == thr_key` — merge into the definite positions, both streams
//!    ascending. Walking candidates in ascending position order makes the
//!    tie-break "lower index wins" by construction — the same resolution
//!    the comparator engines produce — so indices, values, and thresholds
//!    are bitwise identical to the comparator path on every input,
//!    NaN/±∞/denormal/tie torture included (proved by
//!    `tests/select_equivalence.rs`).
//!
//! 4. **Carried guess.** The histogram pass exists only to locate the
//!    boundary, and an owner's boundary on a segment moves little from one
//!    of its rounds to the next. Each owner therefore carries a [`Guess`]
//!    per segment — last round's key at rank `2k` — and
//!    [`radix_topk_indices_guessed`] (and the fused
//!    [`momentum_topk_indices`] / dense-diff forms, which compute the
//!    values they select on in the same pass) scans once for every element
//!    at or above it, then pins the exact k-th key among those candidates:
//!    a small histogram of their distance above the guess finds the
//!    boundary bucket, the same byte-wise refinement settles it. Fewer
//!    than `k` candidates, or more than `8k`, and steps 2-3 run instead
//!    and reseed the guess. The candidates are a superset of the Top-k
//!    whenever there are at least `k` of them, so the output is the
//!    two-pass engine's for *any* guess.
//!
//! Cost: two streaming passes over the segment plus refinement over the
//! boundary bucket (expected n/65536). A one-ulp plateau — the whole
//! segment inside one two-byte prefix — is detected when the boundary
//! bucket exceeds n/8 and handled by a third, filtered histogram pass
//! that narrows the prefix to 24 bits before gathering; the engine stays
//! exact and still beats the comparator (≈1.3–1.5× when it was last
//! timed against it, vs ≈3.7× on gradient-shaped data). Segments below
//! `WIDE_HIST_MIN` (32 Ki) skip the wide histogram entirely for a 256-bucket
//! stack-resident byte cascade, so small layers never pay the 256 KiB
//! histogram reset. Scratch is the 65,536-entry histogram plus the
//! boundary bucket's keys and positions. A carried guess that holds
//! replaces both streaming passes with one.
//!
//! The wide path's three hot loops — histogram fill, chunk-skipping fused
//! scan, and threshold-only gather — run through the
//! [`dgs_tensor::Kernel`] backend seam carried by [`SelectScratch`]
//! (runtime-detected by default, overridable per scratch or via
//! `DGS_KERNEL`). Both backends are bitwise identical on every input, so
//! the selection result never depends on the backend; the narrow
//! (< `WIDE_HIST_MIN`) cascade and the candidate refinement stay scalar —
//! they touch at most a few hundred elements. Standalone differential
//! harnesses can still compile this module directly together with the
//! tensor crate's `kernel.rs`/`simd.rs` (see
//! `.claude/skills/verify/SKILL.md`).

use dgs_tensor::Kernel;

/// Clears the f32 sign bit: `mag_key(v) == (|v|).to_bits()`.
const MAG_MASK: u32 = 0x7FFF_FFFF;

/// The magnitude key. Monotone with `|a|.total_cmp(&|b|)`: comparing keys
/// as `u32` is exactly comparing magnitudes under the workspace total
/// order, including NaN (all payloads) above `+∞` above every finite.
#[inline(always)]
pub fn mag_key(v: f32) -> u32 {
    v.to_bits() & MAG_MASK
}

/// Reusable scratch for the radix select: three `u32` buffers holding the
/// candidate keys (`keys`) and positions (`pos`) — the boundary bucket's,
/// or a one-pass scan's — plus `spare`, which holds the 65,536-entry top
/// histogram on the two-pass path, and a one-pass selection's candidate
/// histogram and then its boundary bucket. Grown once and
/// reusable across calls; pair it with `dgs_tensor::BufferPool<u32>` on
/// hot paths to keep the steady state allocation-free.
///
/// The scratch also carries the [`Kernel`] compute backend its selections
/// run on (the runtime-detected one unless overridden with
/// [`SelectScratch::with_kernel`]) — backends are bitwise identical, so
/// this only ever changes cost, never a result.
#[derive(Debug, Default)]
pub struct SelectScratch {
    keys: Vec<u32>,
    spare: Vec<u32>,
    pos: Vec<u32>,
    kernel: Kernel,
    /// Guess-eligible selections through this scratch that finished in one
    /// pass, and those that ran the two-pass engine.
    one_pass: u64,
    fallbacks: u64,
}

impl SelectScratch {
    /// A fresh scratch (no capacity until first use, runtime kernel).
    pub fn new() -> Self {
        SelectScratch::default()
    }

    /// Wraps three recycled buffers (e.g. from a `BufferPool<u32>`); they
    /// are cleared before use, capacity retained. Runtime kernel.
    pub fn from_buffers(mut keys: Vec<u32>, mut spare: Vec<u32>, mut pos: Vec<u32>) -> Self {
        keys.clear();
        spare.clear();
        pos.clear();
        SelectScratch { keys, spare, pos, ..SelectScratch::default() }
    }

    /// Returns the three buffers for release back to their pool.
    pub fn into_buffers(self) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        (self.keys, self.spare, self.pos)
    }

    /// Overrides the compute backend (builder style).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The compute backend selections through this scratch run on.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// `(one_pass, fallbacks)`: how many guess-eligible selections (see
    /// [`Guess`]) through this scratch were settled by the one-pass scan,
    /// and how many ran the two-pass engine instead — a first selection, or
    /// a guess that admitted too few or too many. Cost telemetry only.
    pub fn tally(&self) -> (u64, u64) {
        (self.one_pass, self.fallbacks)
    }
}

/// The one-pass scan holds at most this many candidates per selected
/// element; a guess that admits more is treated like one that admits too
/// few. Bounds the candidate buffers at `8·k` entries and keeps the
/// one-pass path to selections sparse enough (`k ≤ n/8`) that scanning for
/// candidates beats histogramming the segment.
const CAND_CAP: usize = 8;

/// Next round's guess is this round's key at rank `GUESS_RANK·k`, to
/// bucket resolution.
const GUESS_RANK: usize = 2;

/// When fewer than `GUESS_RANK·k` candidates were admitted the rank key is
/// unknown; the guess then drops by this much in key space — an eighth of
/// an octave, about −8 % in magnitude.
const GUESS_STEP: u32 = 1 << 20;

/// One-pass candidates are histogrammed by `(key − guess) >> PICK_SHIFT`,
/// clamped to the last of `PICK_BUCKETS` buckets: 1/1024-octave buckets
/// over the two octaves above the guess, where the cut lies unless the
/// guess was far too low; everything larger shares the top bucket. 8 KiB of
/// counts, so the fill stays in L1.
const PICK_SHIFT: u32 = 13;
const PICK_BUCKETS: usize = 2048;

/// One owner's carried selection boundary for one segment: the magnitude
/// key that ranked about twice as deep as the k-th at that owner's last
/// selection on the segment, or nothing yet.
///
/// Top-R% thresholds move little between an owner's consecutive rounds, so
/// the key is a *guess* at where this round's boundary lies:
/// [`radix_topk_indices_guessed`] and its fused siblings scan once for
/// every element at or above it and settle the exact k-th key among those
/// candidates alone. The result never depends on the guess — too high or
/// too low, and the two-pass histogram engine runs instead and reseeds it —
/// so a guess is cost state only: never serialised, and safe to drop
/// (`Guess::default()`) whenever its owner's buffer is rewritten wholesale.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Guess(u32);

impl Guess {
    /// A guess at `key` (a [`mag_key`]); `0` is "no guess".
    pub fn from_key(key: u32) -> Self {
        Guess(key)
    }
}

/// Is a Top-`k` of `n` served by the one-pass scan at all: a wide segment
/// and a selection sparse enough for [`CAND_CAP`] (which also makes
/// `GUESS_RANK·k ≤ n`).
fn guessable(n: usize, k: usize) -> bool {
    n >= WIDE_HIST_MIN && k >= 1 && k * CAND_CAP <= n
}

/// The resolved selection boundary: the exact k-th largest key and how many
/// keys rank strictly above it (`k − above` ties at `thr_key` are taken,
/// lowest indices first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cut {
    thr_key: u32,
    above: usize,
}

/// Segments below this length use a 256-bucket byte histogram on the
/// stack; at or above it, the 65,536-bucket two-byte histogram (whose
/// fixed setup cost — zeroing 512 KB of counts and walking 64 Ki buckets —
/// only pays for itself on large segments). Both paths are exact and
/// bitwise identical; the cutoff is pure cost tuning.
const WIDE_HIST_MIN: usize = 1 << 15;

/// 256-bucket histogram of the top key byte, for small segments.
fn hist_narrow(seg: &[f32]) -> [usize; 256] {
    let mut hist = [0usize; 256];
    for &v in seg {
        hist[(mag_key(v) >> 24) as usize] += 1;
    }
    hist
}

/// 256-bucket histogram of key bits `shift-8..shift`, restricted to keys
/// whose bits above `shift` equal `prefix`. Narrows a degenerate boundary
/// bucket (a plateau of magnitudes inside one two-byte prefix) with one
/// extra streaming pass instead of gathering the whole bucket.
fn hist_filtered(seg: &[f32], prefix: u32, shift: u32) -> [usize; 256] {
    let sub = shift - 8;
    let mut h0 = [0usize; 256];
    let mut h1 = [0usize; 256];
    let mut chunks = seg.chunks_exact(2);
    for c in &mut chunks {
        let k0 = mag_key(c[0]);
        let k1 = mag_key(c[1]);
        if k0 >> shift == prefix {
            h0[((k0 >> sub) & 0xFF) as usize] += 1;
        }
        if k1 >> shift == prefix {
            h1[((k1 >> sub) & 0xFF) as usize] += 1;
        }
    }
    for &v in chunks.remainder() {
        let key = mag_key(v);
        if key >> shift == prefix {
            h0[((key >> sub) & 0xFF) as usize] += 1;
        }
    }
    for b in 0..256 {
        h0[b] += h1[b];
    }
    h0
}

/// 256-bucket histogram of `(key >> shift) & 0xFF` over candidate keys,
/// with the same 4-way dependency break as [`hist_top`].
fn hist_byte(keys: &[u32], shift: u32) -> [usize; 256] {
    let mut h0 = [0usize; 256];
    let mut h1 = [0usize; 256];
    let mut h2 = [0usize; 256];
    let mut h3 = [0usize; 256];
    let mut chunks = keys.chunks_exact(4);
    for c in &mut chunks {
        h0[((c[0] >> shift) & 0xFF) as usize] += 1;
        h1[((c[1] >> shift) & 0xFF) as usize] += 1;
        h2[((c[2] >> shift) & 0xFF) as usize] += 1;
        h3[((c[3] >> shift) & 0xFF) as usize] += 1;
    }
    for &key in chunks.remainder() {
        h0[((key >> shift) & 0xFF) as usize] += 1;
    }
    for b in 0..256 {
        h0[b] += h1[b] + h2[b] + h3[b];
    }
    h0
}

/// Walks a byte histogram from the top bucket down until the cumulative
/// count reaches `need`; returns `(bucket, above)` where `above` is the
/// mass in strictly higher buckets. `need` must not exceed the mass.
fn walk_desc(hist: &[usize; 256], need: usize) -> (usize, usize) {
    debug_assert!(need >= 1);
    let mut above = 0usize;
    for b in (0..256).rev() {
        if above + hist[b] >= need {
            return (b, above);
        }
        above += hist[b];
    }
    unreachable!("need exceeds histogram mass");
}

/// [`walk_desc`] over the 65,536-bucket top histogram.
fn walk_desc_top(hist: &[u32], need: usize) -> (usize, usize) {
    debug_assert!(need >= 1);
    let mut above = 0usize;
    for b in (0..hist.len()).rev() {
        if above + hist[b] as usize >= need {
            return (b, above);
        }
        above += hist[b] as usize;
    }
    unreachable!("need exceeds histogram mass");
}

/// Refines the candidate key set (all sharing the key prefix above the
/// first entry of `shifts`) down to the exact `need`-th largest key.
/// Consumes `keys` (compacted in place level by level); returns the
/// threshold key and how many *candidates* rank strictly above it.
fn refine(keys: &mut Vec<u32>, mut need: usize, mut prefix: u32, shifts: &[u32]) -> Cut {
    debug_assert!(need >= 1 && need <= keys.len(), "refine bounds");
    let mut above = 0usize;
    for &shift in shifts {
        if keys.len() == need {
            // Every remaining candidate is selected: the threshold is their
            // minimum, and only its duplicates count as ties.
            let min = keys.iter().copied().min().unwrap_or(prefix);
            let ties = keys.iter().filter(|&&key| key == min).count();
            return Cut { thr_key: min, above: above + need - ties };
        }
        let h = hist_byte(keys, shift);
        let (bucket, above_level) = walk_desc(&h, need);
        above += above_level;
        need -= above_level;
        let byte = bucket as u32;
        prefix |= byte << shift;
        keys.retain(|&key| (key >> shift) & 0xFF == byte);
    }
    // All key bytes pinned: the survivors are exact copies of thr_key.
    debug_assert!(keys.iter().all(|&key| key == prefix));
    debug_assert!(need >= 1 && need <= keys.len());
    Cut { thr_key: prefix, above }
}

/// Locates the k-th largest magnitude key of `seg` (`1 <= k <= seg.len()`)
/// via the histogram cascade. Used by the threshold-only path; the
/// index/pair emitters inline a fused variant that also captures candidate
/// positions.
fn find_cut(seg: &[f32], k: usize, scratch: &mut SelectScratch) -> Cut {
    debug_assert!(k >= 1 && k <= seg.len(), "find_cut bounds");
    let kernel = scratch.kernel;
    let SelectScratch { keys, spare, .. } = scratch;
    if seg.len() < WIDE_HIST_MIN {
        let hist = hist_narrow(seg);
        let (top, above_def) = walk_desc(&hist, k);
        keys.clear();
        keys.reserve(hist[top]);
        let top_byte = top as u32;
        for &v in seg {
            let key = mag_key(v);
            if key >> 24 == top_byte {
                keys.push(key);
            }
        }
        debug_assert_eq!(keys.len(), hist[top]);
        let cut = refine(keys, k - above_def, top_byte << 24, &[16, 8, 0]);
        Cut { thr_key: cut.thr_key, above: above_def + cut.above }
    } else {
        let (prefix, shift, above_def, need, cand) = wide_window(seg, k, spare, kernel);
        keys.clear();
        keys.reserve(cand);
        let lo = prefix << shift;
        // Chunk-skip gather through the backend seam: one merged `any key
        // >= lo` test per chunk dives into the emit path only for the
        // rare chunks holding boundary-or-above keys.
        kernel.gather_keys(seg, prefix, shift, keys);
        debug_assert_eq!(keys.len(), cand);
        let cut = refine(keys, need, lo, wide_refine_shifts(shift));
        Cut { thr_key: cut.thr_key, above: above_def + cut.above }
    }
}

/// Resolves the wide path's candidate window: the two-byte boundary bucket
/// from [`Kernel::hist16`], narrowed by one [`hist_filtered`] pass when the
/// bucket holds more than an eighth of the segment (a magnitude plateau —
/// the extra streaming pass is cheaper than gathering and refining the
/// whole bucket). Returns `(prefix, shift, above_def, need, cand)`: the
/// candidates are the `cand` keys with `key >> shift == prefix`,
/// `above_def` keys rank strictly above them, and the `need`-th largest
/// candidate is the overall k-th.
fn wide_window(
    seg: &[f32],
    k: usize,
    spare: &mut Vec<u32>,
    kernel: Kernel,
) -> (u32, u32, usize, usize, usize) {
    kernel.hist16(seg, spare);
    let (top, mut above_def) = walk_desc_top(spare, k);
    let mut need = k - above_def;
    let mut cand = spare[top] as usize;
    let mut prefix = top as u32;
    let mut shift = 16u32;
    if cand > seg.len() / 8 {
        let sub = hist_filtered(seg, prefix, shift);
        let (b, above_level) = walk_desc(&sub, need);
        above_def += above_level;
        need -= above_level;
        cand = sub[b];
        prefix = (prefix << 8) | b as u32;
        shift = 8;
    }
    (prefix, shift, above_def, need, cand)
}

/// The refinement byte shifts still open below a wide-path window.
fn wide_refine_shifts(shift: u32) -> &'static [u32] {
    if shift == 16 {
        &[8, 0]
    } else {
        &[0]
    }
}

/// Radix Top-k index selection — bitwise identical to
/// [`crate::topk::topk_indices`] (indices of the `k` largest-magnitude
/// values, ascending, ties toward lower indices), in O(n) with no
/// comparator calls and no dim-sized index vector.
pub fn radix_topk_indices(seg: &[f32], k: usize, scratch: &mut SelectScratch) -> Vec<u32> {
    let n = seg.len();
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    if k == n {
        return (0..n as u32).collect();
    }
    let (definite, cut, ties) = fused_select(seg, k, scratch);
    // Merge the definite positions with the selected boundary candidates,
    // both ascending, into one ascending index list.
    let mut out = Vec::with_capacity(k);
    let mut d = 0usize;
    let mut ties = ties;
    for &p in scratch.pos.iter() {
        let key = mag_key(seg[p as usize]);
        let take = if key > cut.thr_key {
            true
        } else if key == cut.thr_key && ties > 0 {
            ties -= 1;
            true
        } else {
            false
        };
        if take {
            while d < definite.len() && definite[d] < p {
                out.push(definite[d]);
                d += 1;
            }
            out.push(p);
        }
    }
    out.extend_from_slice(&definite[d..]);
    debug_assert_eq!(out.len(), k);
    out
}

/// The shared fused pass behind the index/pair emitters: one histogram pass
/// over `seg`, then one scan that simultaneously emits the positions whose
/// top two bytes rank strictly above the boundary bucket (`definite`,
/// already ascending) and gathers the boundary bucket's keys + positions
/// into scratch. The exact threshold is then pinned by refining only the
/// candidates. Returns `(definite, cut, ties)` where `ties` is the number
/// of `== thr_key` candidates to take (lowest positions first); candidate
/// positions stay in `scratch.pos`.
fn fused_select(seg: &[f32], k: usize, scratch: &mut SelectScratch) -> (Vec<u32>, Cut, usize) {
    if seg.len() < WIDE_HIST_MIN {
        fused_select_narrow(seg, k, scratch)
    } else {
        fused_select_wide(seg, k, scratch)
    }
}

/// [`fused_select`] for small segments: 256-bucket byte histogram.
fn fused_select_narrow(
    seg: &[f32],
    k: usize,
    scratch: &mut SelectScratch,
) -> (Vec<u32>, Cut, usize) {
    let hist = hist_narrow(seg);
    let (top, above_def) = walk_desc(&hist, k);
    let need = k - above_def;
    let SelectScratch { keys, pos, .. } = scratch;
    keys.clear();
    pos.clear();
    keys.reserve(hist[top]);
    pos.reserve(hist[top]);
    let mut definite = Vec::with_capacity(above_def);
    let top_byte = top as u32;
    for (i, &v) in seg.iter().enumerate() {
        let key = mag_key(v);
        let b = key >> 24;
        if b == top_byte {
            keys.push(key);
            pos.push(i as u32);
        } else if b > top_byte {
            definite.push(i as u32);
        }
    }
    debug_assert_eq!(definite.len(), above_def);
    let cut = refine(keys, need, top_byte << 24, &[16, 8, 0]);
    (definite, cut, need - cut.above)
}

/// [`fused_select`] for large segments: 65,536-bucket two-byte histogram
/// plus a chunk-skipping fused scan — one merged `any key >= bucket lower
/// bound` test per chunk, diving into the emit path only for the rare
/// chunks holding boundary-or-above keys. Histogram and scan both run on
/// the scratch's [`Kernel`] backend.
fn fused_select_wide(seg: &[f32], k: usize, scratch: &mut SelectScratch) -> (Vec<u32>, Cut, usize) {
    let kernel = scratch.kernel;
    let SelectScratch { keys, spare, pos, .. } = scratch;
    let (prefix, shift, above_def, need, cand) = wide_window(seg, k, spare, kernel);
    keys.clear();
    pos.clear();
    keys.reserve(cand);
    pos.reserve(cand);
    let mut definite = Vec::with_capacity(above_def);
    let lo = prefix << shift;
    kernel.select_scan(seg, prefix, shift, keys, pos, &mut definite);
    debug_assert_eq!(definite.len(), above_def);
    debug_assert_eq!(keys.len(), cand);
    let cut = refine(keys, need, lo, wide_refine_shifts(shift));
    (definite, cut, need - cut.above)
}

impl SelectScratch {
    /// Settles a one-pass selection from the candidates a `*_scan_ge`
    /// kernel left in `pos`/`keys` (every element with key `>= floor`,
    /// ascending position, `admitted` of them in all): the exact Top-`k`
    /// positions, or `None` when the guess admitted fewer than `k` or more
    /// than the scan holds.
    ///
    /// Exact for any guess that gets this far: the `k` largest keys are all
    /// candidates (a non-candidate ranks below every candidate), so the
    /// `k`-th largest candidate key is the segment's, as is the count above
    /// it, and ties at it resolve by ascending position — the cut and the
    /// tie-break of the two-pass engine. The cut is located with one
    /// [`PICK_BUCKETS`]-bucket histogram of the candidates' distance above
    /// the floor (a monotone map, so bucket order is key order) and pinned
    /// by refining the boundary bucket alone. The same histogram moves
    /// `guess` to the floor of the bucket holding rank `GUESS_RANK·k`, or
    /// steps it down when that rank was not admitted.
    fn pick(
        &mut self,
        floor: u32,
        k: usize,
        admitted: usize,
        guess: &mut Guess,
    ) -> Option<Vec<u32>> {
        if admitted < k || admitted > k * CAND_CAP {
            return None;
        }
        let SelectScratch { keys, spare, pos, one_pass, .. } = self;
        debug_assert_eq!(keys.len(), admitted);
        let bucket = |key: u32| (((key - floor) >> PICK_SHIFT) as usize).min(PICK_BUCKETS - 1);
        spare.clear();
        spare.resize(PICK_BUCKETS, 0);
        for &key in keys.iter() {
            spare[bucket(key)] += 1;
        }
        let (boundary, above_def) = walk_desc_top(spare, k);
        let deep = GUESS_RANK * k;
        let next = if admitted >= deep {
            floor + ((walk_desc_top(spare, deep).0 as u32) << PICK_SHIFT)
        } else {
            floor.saturating_sub(GUESS_STEP)
        };
        // Never back to 0 ("no guess"): key 1 admits every nonzero.
        *guess = Guess(next.max(1));
        spare.clear();
        spare.extend(keys.iter().copied().filter(|&key| bucket(key) == boundary));
        let cut = refine(spare, k - above_def, 0, &[24, 16, 8, 0]);
        // Branch-free compaction — about every second candidate is taken,
        // which no predictor learns. Slot `k` absorbs the stores made after
        // the `k`-th take.
        let mut ties = k - above_def - cut.above;
        let mut out = vec![0u32; k + 1];
        let mut taken = 0usize;
        for (&p, &key) in pos.iter().zip(keys.iter()) {
            let tie = key == cut.thr_key && ties > 0;
            ties -= tie as usize;
            out[taken] = p;
            taken += (key > cut.thr_key || tie) as usize;
        }
        debug_assert_eq!(taken, k);
        out.truncate(k);
        *one_pass += 1;
        Some(out)
    }
}

/// The two-pass engine behind a guess: [`radix_topk_indices`], after which
/// a guess-eligible selection reseeds `guess` with the floor of the
/// histogram bucket holding rank `GUESS_RANK·k` (the first pass's
/// 65,536-bucket histogram is still in the scratch — refinement compacts
/// its candidates in place) and counts as a fallback.
pub(crate) fn select_reseed(
    seg: &[f32],
    k: usize,
    scratch: &mut SelectScratch,
    guess: &mut Guess,
) -> Vec<u32> {
    let idx = radix_topk_indices(seg, k, scratch);
    if guessable(seg.len(), k) {
        debug_assert_eq!(scratch.spare.len(), dgs_tensor::kernel::HIST16_BUCKETS);
        let (bucket, _) = walk_desc_top(&scratch.spare, GUESS_RANK * k);
        *guess = Guess(((bucket as u32) << 16).max(1));
        scratch.fallbacks += 1;
    }
    idx
}

/// The one-pass attempt every guessed entry point makes: with a guess
/// carried and a guess-eligible Top-`k` of `n`, run `scan` — a `*_scan_ge`
/// kernel call given the backend, the key to scan for, the candidate cap
/// and the `pos`/`keys` buffers, returning the admitted count — and settle
/// it with [`SelectScratch::pick`]. `None` when no scan ran or the guess
/// missed; `guess` is then untouched and the caller owes the two-pass
/// engine ([`select_reseed`]).
fn one_pass(
    n: usize,
    k: usize,
    scratch: &mut SelectScratch,
    guess: &mut Guess,
    scan: impl FnOnce(Kernel, u32, usize, &mut Vec<u32>, &mut Vec<u32>) -> usize,
) -> Option<Vec<u32>> {
    if guess.0 == 0 || !guessable(n, k) {
        return None;
    }
    let (key, cap) = (guess.0, k * CAND_CAP);
    let admitted = scan(scratch.kernel, key, cap, &mut scratch.pos, &mut scratch.keys);
    scratch.pick(key, k, admitted, guess)
}

/// [`radix_topk_indices`] with a carried [`Guess`]: on a wide segment with
/// a sparse `k`, one [`Kernel::scan_ge`] pass for the candidates at or
/// above the guess, the exact cut settled among them; otherwise, or when
/// the guess misses, the two-pass engine (which reseeds the guess).
/// Bitwise identical to [`radix_topk_indices`] for every guess.
pub fn radix_topk_indices_guessed(
    seg: &[f32],
    k: usize,
    scratch: &mut SelectScratch,
    guess: &mut Guess,
) -> Vec<u32> {
    one_pass(seg.len(), k, scratch, guess, |kernel, key, cap, pos, keys| {
        kernel.scan_ge(seg, key, cap, pos, keys)
    })
    .unwrap_or_else(|| select_reseed(seg, k, scratch, guess))
}

/// SAMomentum's update fused into its selection (paper Alg. 3 l.5-8):
/// `u ← momentum·u + lr·grad`, then the Top-`k` of `|u|` — one pass over
/// `u` and `grad` when the guess holds ([`Kernel::momentum_scan_ge`]).
/// `u` and the returned indices are what the update loop followed by
/// [`radix_topk_indices`] leaves, for every guess and on either backend —
/// bit for bit, except that where `u[i]` and `grad[i]` are both NaN the
/// result is a NaN whose payload (and so whose rank among NaNs) is
/// unspecified, as it already is between two builds of the plain loop.
pub fn momentum_topk_indices(
    u: &mut [f32],
    grad: &[f32],
    momentum: f32,
    lr: f32,
    k: usize,
    scratch: &mut SelectScratch,
    guess: &mut Guess,
) -> Vec<u32> {
    assert_eq!(u.len(), grad.len(), "gradient size mismatch");
    let mut updated = false;
    let hit = one_pass(u.len(), k, scratch, guess, |kernel, key, cap, pos, keys| {
        updated = true;
        kernel.momentum_scan_ge(u, grad, momentum, lr, key, cap, pos, keys)
    });
    if let Some(idx) = hit {
        return idx;
    }
    if !updated {
        for (ui, &g) in u.iter_mut().zip(grad.iter()) {
            *ui = momentum * *ui + lr * g;
        }
    }
    select_reseed(u, k, scratch, guess)
}

/// The Top-`k` positions of `m − v` in one pass that never materialises the
/// difference ([`Kernel::diff_scan_ge`]), with the difference's nonzero
/// count. `None` — no guess, not guess-eligible, or a guess that missed —
/// leaves the caller to materialise the difference and run
/// [`select_reseed`] on it; a miss has then cost one walk of `m` and `v` on
/// top of the two-pass form's five.
pub(crate) fn diff_topk_indices(
    m: &[f32],
    v: &[f32],
    k: usize,
    scratch: &mut SelectScratch,
    guess: &mut Guess,
) -> Option<(Vec<u32>, usize)> {
    let mut nonzero = 0;
    let pos = one_pass(m.len(), k, scratch, guess, |kernel, key, cap, pos, keys| {
        let (nz, admitted) = kernel.diff_scan_ge(m, v, key, cap, pos, keys);
        nonzero = nz;
        admitted
    })?;
    Some((pos, nonzero))
}

/// Radix k-th magnitude — bitwise identical to
/// [`crate::topk::topk_threshold`] (`seg` non-empty, `1 <= k <= seg.len()`).
pub fn radix_threshold(seg: &[f32], k: usize, scratch: &mut SelectScratch) -> f32 {
    assert!(!seg.is_empty() && k >= 1 && k <= seg.len(), "radix_threshold bounds");
    f32::from_bits(find_cut(seg, k, scratch).thr_key)
}

/// Radix Top-k over (index, value) pairs — bitwise identical to
/// [`crate::merge::topk_pairs`] *for ascending `idx`* (the shape every
/// diff-pair producer in the workspace emits): magnitude descending, ties
/// toward the lower index, output in ascending index order. With ascending
/// input, position order equals index order, so the ascending emit pass
/// resolves ties exactly as the comparator does.
pub fn radix_topk_pairs(
    idx: &[u32],
    val: &[f32],
    k: usize,
    scratch: &mut SelectScratch,
) -> (Vec<u32>, Vec<f32>) {
    debug_assert_eq!(idx.len(), val.len());
    debug_assert!(idx.windows(2).all(|w| w[0] < w[1]), "radix_topk_pairs needs ascending idx");
    let n = idx.len();
    let k = k.min(n);
    if k == 0 {
        return (Vec::new(), Vec::new());
    }
    if k == n {
        return (idx.to_vec(), val.to_vec());
    }
    let (definite, cut, mut ties) = fused_select(val, k, scratch);
    let mut out_idx = Vec::with_capacity(k);
    let mut out_val = Vec::with_capacity(k);
    let mut d = 0usize;
    for &p in scratch.pos.iter() {
        let v = val[p as usize];
        let key = mag_key(v);
        let take = if key > cut.thr_key {
            true
        } else if key == cut.thr_key && ties > 0 {
            ties -= 1;
            true
        } else {
            false
        };
        if take {
            while d < definite.len() && definite[d] < p {
                out_idx.push(idx[definite[d] as usize]);
                out_val.push(val[definite[d] as usize]);
                d += 1;
            }
            out_idx.push(idx[p as usize]);
            out_val.push(v);
        }
    }
    for &p in &definite[d..] {
        out_idx.push(idx[p as usize]);
        out_val.push(val[p as usize]);
    }
    debug_assert_eq!(out_idx.len(), k);
    (out_idx, out_val)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn key_order_matches_total_cmp_on_magnitudes() {
        let samples = [
            0.0f32,
            -0.0,
            1.0e-42, // denormal
            f32::MIN_POSITIVE,
            0.5,
            -0.5,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7F80_0001), // smallest NaN payload
            f32::from_bits(0x7FFF_FFFF), // largest NaN payload
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    mag_key(a).cmp(&mag_key(b)),
                    a.abs().total_cmp(&b.abs()),
                    "key order diverges for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn radix_matches_comparator_basic() {
        let seg = [0.1f32, -5.0, 2.0, 0.0, -3.0, 4.0];
        let mut s = SelectScratch::new();
        for k in 0..=seg.len() {
            assert_eq!(
                radix_topk_indices(&seg, k, &mut s),
                crate::topk::topk_indices(&seg, k),
                "k = {k}"
            );
        }
        assert_eq!(radix_topk_indices(&seg, 3, &mut s), vec![1, 4, 5]);
    }

    #[test]
    fn radix_edge_cases() {
        let mut s = SelectScratch::new();
        assert!(radix_topk_indices(&[], 3, &mut s).is_empty());
        assert!(radix_topk_indices(&[1.0, 2.0], 0, &mut s).is_empty());
        assert_eq!(radix_topk_indices(&[1.0, 2.0], 5, &mut s), vec![0, 1]);
        assert_eq!(radix_topk_indices(&[7.0], 1, &mut s), vec![0]);
    }

    #[test]
    fn radix_ties_break_toward_lower_index() {
        let mut s = SelectScratch::new();
        let seg = [2.0f32, -2.0, 1.0, 2.0, -2.0];
        assert_eq!(radix_topk_indices(&seg, 2, &mut s), vec![0, 1]);
        assert_eq!(radix_topk_indices(&seg, 3, &mut s), vec![0, 1, 3]);
        let equal = [1.0f32; 10];
        assert_eq!(radix_topk_indices(&equal, 4, &mut s), vec![0, 1, 2, 3]);
    }

    #[test]
    fn radix_nan_inf_denormal_torture() {
        let mut s = SelectScratch::new();
        let seg = [
            1.0f32,
            f32::NAN,
            3.0,
            f32::INFINITY,
            -f32::NAN,
            2.0,
            f32::NEG_INFINITY,
            1.0e-42,
            -0.0,
            f32::from_bits(0x7F80_0001),
        ];
        for k in 0..=seg.len() {
            assert_eq!(
                radix_topk_indices(&seg, k, &mut s),
                crate::topk::topk_indices(&seg, k),
                "k = {k}"
            );
        }
        for k in 1..=seg.len() {
            assert_eq!(
                radix_threshold(&seg, k, &mut s).to_bits(),
                crate::topk::topk_threshold(&seg, k).to_bits(),
                "threshold k = {k}"
            );
        }
    }

    #[test]
    fn radix_threshold_matches_comparator_bitwise() {
        let mut s = SelectScratch::new();
        let seg: Vec<f32> =
            (0..500).map(|i| ((i * 37 % 100) as f32 - 50.0) * 1.25e-3_f32.powi(i % 5)).collect();
        for k in [1usize, 2, 5, 50, 499, 500] {
            assert_eq!(
                radix_threshold(&seg, k, &mut s).to_bits(),
                crate::topk::topk_threshold(&seg, k).to_bits(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn radix_pairs_match_comparator() {
        let mut s = SelectScratch::new();
        let idx: Vec<u32> = (0..40).map(|i| i * 3 + 1).collect();
        let val: Vec<f32> = (0..40)
            .map(|i| match i % 7 {
                0 => 0.5,
                1 => -0.5,
                2 => f32::NAN,
                3 => (i as f32) * 0.1,
                4 => -(i as f32),
                5 => f32::INFINITY,
                _ => 1.0e-40,
            })
            .collect();
        for k in [0usize, 1, 3, 11, 39, 40, 64] {
            let (ri, rv) = radix_topk_pairs(&idx, &val, k, &mut s);
            let (ci, cv) = crate::merge::topk_pairs(&idx, &val, k);
            assert_eq!(ri, ci, "k = {k}");
            assert_eq!(bits(&rv), bits(&cv), "k = {k}");
        }
    }

    /// The one-pass settle step on its own, below the wide cutoff where
    /// the public entry points never reach it: for every floor drawn from
    /// the data (and one ulp either side), every `k` the floor admits
    /// enough candidates for must come out as the comparator's Top-k.
    #[test]
    fn pick_is_exact_for_every_floor_that_admits_k() {
        let mut s = SelectScratch::new();
        let mut seg = vec![
            0.0f32,
            -0.0,
            1.0e-42,
            f32::MIN_POSITIVE,
            0.5,
            -0.5,
            0.5,
            1.0,
            1.0 + f32::EPSILON,
            -1.0,
            3.0e4, // far above small floors: lands in the clamped top bucket
            -3.0e4,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7F80_0001),
        ];
        seg.extend((0..200).map(|i| (i as f32 * 0.37).sin() * 0.9));
        let mut floors: Vec<u32> = seg.iter().map(|&v| mag_key(v)).collect();
        floors.extend(floors.clone().iter().flat_map(|&f| [f.saturating_sub(1), f + 1]));
        let mut settled = 0;
        for floor in floors {
            if floor == 0 {
                continue;
            }
            let admitted = s.kernel.scan_ge(&seg, floor, usize::MAX, &mut s.pos, &mut s.keys);
            for k in 1..=admitted {
                // `pick` consumes neither `pos` nor `keys`, so one scan
                // serves every k; k·CAND_CAP < admitted must refuse.
                let mut guess = Guess(floor);
                match s.pick(floor, k, admitted, &mut guess) {
                    Some(idx) => {
                        assert_eq!(
                            idx,
                            crate::topk::topk_indices(&seg, k),
                            "floor {floor:#x} k {k}"
                        );
                        assert!(guess.0 >= 1);
                        settled += 1;
                    }
                    None => assert!(admitted > k * CAND_CAP, "floor {floor:#x} k {k} refused"),
                }
            }
            assert_eq!(s.pick(floor, admitted + 1, admitted, &mut Guess(floor)), None);
        }
        assert!(settled > 10_000, "only {settled} selections settled");
    }

    #[test]
    fn scratch_buffers_roundtrip() {
        let mut keys = Vec::with_capacity(64);
        keys.push(9);
        let spare = Vec::with_capacity(32);
        let pos = Vec::with_capacity(16);
        let mut s = SelectScratch::from_buffers(keys, spare, pos);
        let seg: Vec<f32> = (0..100).map(|i| (i as f32 * 0.7).sin()).collect();
        let idx = radix_topk_indices(&seg, 10, &mut s);
        assert_eq!(idx, crate::topk::topk_indices(&seg, 10));
        let (a, b, c) = s.into_buffers();
        assert!(
            a.capacity() >= 64 || b.capacity() >= 32 || c.capacity() >= 16,
            "capacity survives"
        );
    }

    /// The scalar and SIMD kernel backends must be interchangeable:
    /// identical indices and bitwise-identical thresholds on wide-path
    /// segments (≥ `WIDE_HIST_MIN`, so the backend loops actually run),
    /// torture values included. On CPUs without AVX2 the SIMD backend
    /// falls back to scalar, so this test is trivially green there.
    #[test]
    fn kernel_backends_bitwise_identical_selection() {
        let mut sc = SelectScratch::new().with_kernel(Kernel::Scalar);
        let mut si = SelectScratch::new().with_kernel(Kernel::Simd);
        assert_eq!(sc.kernel(), Kernel::Scalar);
        assert_eq!(si.kernel(), Kernel::Simd);
        let n = WIDE_HIST_MIN + 1234;
        let mut s = 0x1234_5678_9ABC_DEF0u64;
        let seg: Vec<f32> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match s % 13 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    5 => 1.0,                                   // plateau mass
                    6 => 1.0 + f32::EPSILON,                    // one ulp above
                    7 => f32::from_bits((s >> 40) as u32 & 0x7F_FFFF), // denormal
                    _ => f32::from_bits((s >> 32) as u32),
                }
            })
            .collect();
        for k in [1usize, 7, 500, n / 100, n / 8, n - 1] {
            assert_eq!(
                radix_topk_indices(&seg, k, &mut sc),
                radix_topk_indices(&seg, k, &mut si),
                "indices diverged at k = {k}"
            );
            assert_eq!(
                radix_threshold(&seg, k, &mut sc).to_bits(),
                radix_threshold(&seg, k, &mut si).to_bits(),
                "threshold diverged at k = {k}"
            );
        }
        // An all-equal plateau forces the filtered-histogram narrow path;
        // both backends must agree there too.
        let plateau = vec![2.5f32; WIDE_HIST_MIN * 2];
        for k in [1usize, WIDE_HIST_MIN, plateau.len() - 1] {
            assert_eq!(
                radix_topk_indices(&plateau, k, &mut sc),
                radix_topk_indices(&plateau, k, &mut si),
                "plateau indices diverged at k = {k}"
            );
        }
    }

    /// Dense tie plateaus spanning bucket boundaries: the histogram cascade
    /// must pin the exact key even when every level is saturated with ties.
    #[test]
    fn radix_tie_plateaus_across_buckets() {
        let mut s = SelectScratch::new();
        let mut seg = Vec::new();
        for i in 0..600 {
            seg.push(match i % 3 {
                0 => 1.0f32,
                1 => -1.0,
                _ => 1.0 + f32::EPSILON, // one ulp above: adjacent keys
            });
        }
        for k in [1usize, 199, 200, 201, 400, 599] {
            assert_eq!(
                radix_topk_indices(&seg, k, &mut s),
                crate::topk::topk_indices(&seg, k),
                "k = {k}"
            );
            assert_eq!(
                radix_threshold(&seg, k, &mut s).to_bits(),
                crate::topk::topk_threshold(&seg, k).to_bits(),
                "thr k = {k}"
            );
        }
    }
}
