//! 2-D convolution as patch lowering + GEMM, behind the [`Kernel`] seam.
//!
//! Layout is NCHW. Conceptually the forward pass lowers each image to a
//! `(C·KH·KW) × (OH·OW)` column matrix and multiplies by the
//! `OC × (C·KH·KW)` weight matrix, and the backward pass reverses both
//! steps; the column matrix itself is never built. Each pass writes the
//! patches once, directly in the packed form the tile kernel of
//! [`crate::gemm`] reads:
//!
//! * **forward** — [`lower_cols`] writes `NR`-column k-major `B` panels
//!   (`y = W · cols`), so there is no `pack_b` pass; the weight bank is
//!   packed once per layer call and shared by every image;
//! * **backward, `dW`** — [`lower_rows`] writes the transposed panels
//!   (`dW_i = dY_i · colsᵀ` reduces over output pixels, so its `B` wants
//!   pixel-major rows of `NR` patch elements) — again the only write of
//!   the patches;
//! * **backward, `dX`** — `dcols = Wᵀ · dY_i` lands in a per-task buffer
//!   the GEMM overwrites (never zero-filled) and [`col2im`] adds it back
//!   as whole output rows.
//!
//! Both lowerings are one routine, [`lower`]: a patch element is
//! `planes[tap_base + pixel_offset]`, so either panel form is a 16-lane
//! gather with one of the two terms fixed per row and the other per lane.
//! It and `col2im` go through a zero-padded copy of the image planes
//! (`(H+2P)×(W+2P)` per channel, L1-sized) when the geometry pads: with the
//! border materialised every kernel tap of every output pixel is in
//! bounds, so the inner loops carry no edge cases at a cost of about an
//! eighth of the lowered bytes. Unpadded geometries (the 1×1 projections)
//! read and write the image directly.
//!
//! Copies per operand, input tensor → tile kernel, before → after (PR 17):
//!
//! | operand            | before                                        | after                              |
//! |--------------------|-----------------------------------------------|------------------------------------|
//! | patches, forward   | `cols` matrix, then `pack_b` (2 × K·L)        | padded plane (≈ K·L/8), panels (1) |
//! | patches, backward  | `cols` matrix, then strided `pack_b` (2)      | padded plane, transposed panels (1)|
//! | weights            | packed per row block **per image**            | packed once per layer call         |
//! | `y`, `dcols`, `dW_i` | zero-fill, then copy-out (2)                | copy-out (1)                       |
//! | `dx`               | zero-fill, scalar scatter                     | padded plane of row-run adds, copied out once |
//! | pooled buffers     | 1 (`y`) / 4·batch + 3 per call                | 1 (`y`) / 4 per call               |
//!
//! The `_with` entry points are the hot path: they thread a
//! [`ComputeScratch`] for the outputs and run on its explicit [`Kernel`];
//! per-task working sets come from the GEMM's thread-local panel pool
//! ([`crate::gemm`]). The original signatures remain as convenience
//! wrappers over a throwaway scratch at [`Kernel::runtime`].
//!
//! # Order of additions (part of the bitwise contract)
//!
//! Every GEMM element is one ascending-k chain (see [`crate::gemm`]). Each
//! `dx` element receives its taps in `(ch, ky, kx, oy, ox)` order. The
//! batch fans out over images, but per-image weight-gradient partials are
//! always summed in image order: a chunk of [`IMAGES_PER_CHUNK`] images
//! runs as parallel tasks, each writing its own partial, and the chunk's
//! partials are folded into `dW` sequentially before the next chunk
//! starts. So the result is independent of the thread count.
//!
//! [`conv2d_forward_direct`] keeps the original quadruple-loop
//! convolution as a *differential oracle*. It is approximate, not
//! bitwise, against the GEMM path: the direct loop skips padding taps and
//! seeds the accumulator with the bias, so its per-output chain is a
//! different (shorter) sum. The bitwise contract holds *across backends
//! of the GEMM path*, which all share one chain; the unit tests pin it
//! against an in-test im2col + scalar-chain + scatter reference.

use crate::gemm::{
    gemm_packed, pack_a, pack_b, packed_a_len, packed_b_len, with_workspace, Layout, Store,
    IMAGES_PER_CHUNK, NR,
};
use crate::{ComputeScratch, Tensor};
use rayon::prelude::*;

/// Convolution geometry (square kernels, symmetric stride/padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height/width.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding on every side.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an `h×w` input. Panics if the geometry
    /// produces a non-positive output extent.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding)
            .checked_sub(self.kernel)
            .expect("kernel larger than padded input")
            / self.stride
            + 1;
        let ow = (w + 2 * self.padding)
            .checked_sub(self.kernel)
            .expect("kernel larger than padded input")
            / self.stride
            + 1;
        (oh, ow)
    }

    /// Number of weight parameters (`OC·C·KH·KW`).
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// Multiply-accumulate count for one forward pass over a batch of `n`
    /// `h×w` images; used by the DES compute-time model.
    pub fn flops(&self, n: usize, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.out_hw(h, w);
        2 * (n * self.out_channels * oh * ow * self.in_channels * self.kernel * self.kernel) as u64
    }
}

/// One image's geometry, resolved once per layer call.
#[derive(Clone, Copy)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    k: usize,
    s: usize,
    pad: usize,
    /// Padded plane height/width (`h + 2·pad`, `w + 2·pad`).
    ph: usize,
    pw: usize,
}

impl Geom {
    fn new(c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Geom {
        let (oh, ow) = spec.out_hw(h, w);
        let pad = spec.padding;
        Geom { c, h, w, oh, ow, k: spec.kernel, s: spec.stride, pad, ph: h + 2 * pad, pw: w + 2 * pad }
    }

    /// Rows of the conceptual column matrix (`C·K·K`).
    fn taps(&self) -> usize {
        self.c * self.k * self.k
    }

    /// Columns of the conceptual column matrix (`OH·OW`).
    fn pixels(&self) -> usize {
        self.oh * self.ow
    }

    /// Staging needed for the padded planes of one image (none unpadded).
    fn plane_len(&self) -> usize {
        if self.pad == 0 {
            0
        } else {
            self.c * self.ph * self.pw
        }
    }

    /// Offset of tap `(ch, ky, kx)`'s first input element in the planes.
    fn tap_base(&self, r: usize) -> usize {
        let (ch, ky, kx) = (r / (self.k * self.k), r / self.k % self.k, r % self.k);
        (ch * self.ph + ky) * self.pw + kx
    }

    /// [`Geom::tap_base`] of every tap in `(ch, ky, kx)` order, stepped
    /// rather than divided out.
    fn tap_bases(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.c * self.k).flat_map(move |row| {
            let at = (row / self.k * self.ph + row % self.k) * self.pw;
            at..at + self.k
        })
    }

    /// [`Geom::pixel_offset`] of every output pixel in `(oy, ox)` order.
    fn pixel_offsets(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.oh).flat_map(move |oy| (0..self.ow).map(move |ox| (oy * self.pw + ox) * self.s))
    }

    /// Offset of output pixel `l`'s receptive-field origin in a plane; a
    /// patch element is `planes[tap_base(r) + pixel_offset(l)]`.
    fn pixel_offset(&self, l: usize) -> usize {
        (l / self.ow * self.pw + l % self.ow) * self.s
    }

    /// The image with its zero border materialised in `buf`, or the image
    /// itself when the geometry does not pad.
    fn padded<'a>(&self, img: &'a [f32], buf: &'a mut [f32]) -> &'a [f32] {
        if self.pad == 0 {
            return img;
        }
        let (w, pw, pad) = (self.w, self.pw, self.pad);
        let planes = buf.chunks_exact_mut(self.ph * pw).zip(img.chunks_exact(self.h * w));
        for (plane, img_ch) in planes {
            let mut at = pad * pw + pad;
            plane[..at].fill(0.0);
            for row in img_ch.chunks_exact(w) {
                plane[at..at + w].copy_from_slice(row);
                // This row's right border and the next row's left one.
                plane[at + w..at + w + 2 * pad].fill(0.0);
                at += pw;
            }
            plane[at..].fill(0.0);
        }
        buf
    }
}

/// Splits a working set into consecutive regions of the given lengths.
fn carve<const N: usize>(mut ws: &mut [f32], lens: [usize; N]) -> [&mut [f32]; N] {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut ws).split_at_mut(len);
        ws = tail;
        head
    })
}

/// Packs `rows × lanes` patch elements `planes[row_term + lane_term]` into
/// k-major `NR`-lane panels (`pb[p·rows·NR + r·NR + j]` holds row `r`, lane
/// `p·NR + j`): [`pack_b`] of a matrix that is never built. Lanes past the
/// last repeat the panel's first lane (their tile columns are never copied
/// out). Writes every element of `pb[..packed_b_len(rows, lanes)]`.
fn lower(
    planes: &[f32],
    pb: &mut [f32],
    (rows, row_terms): (usize, impl Iterator<Item = usize> + Clone),
    (lanes, lane_term): (usize, impl Fn(usize) -> usize),
) {
    for (p, panel) in pb[..packed_b_len(rows, lanes)].chunks_exact_mut(rows * NR).enumerate() {
        let mut offs = [lane_term(p * NR); NR];
        for (j, o) in offs.iter_mut().enumerate().take(lanes - p * NR) {
            *o = lane_term(p * NR + j);
        }
        for (row, at) in panel.chunks_exact_mut(NR).zip(row_terms.clone()) {
            let src = &planes[at..];
            for (d, &o) in row.iter_mut().zip(&offs) {
                *d = src[o];
            }
        }
    }
}

/// Lowers one image's planes straight into the forward GEMM's `B` panels:
/// rows are taps, lanes are output pixels (`y = W · cols` reduces over
/// taps).
fn lower_cols(planes: &[f32], pb: &mut [f32], g: &Geom) {
    lower(planes, pb, (g.taps(), g.tap_bases()), (g.pixels(), |l| g.pixel_offset(l)));
}

/// Lowers one image's planes into the weight-gradient GEMM's `B` panels —
/// the transpose of [`lower_cols`]'s: rows are output pixels, lanes are
/// taps, because `dW = dY · colsᵀ` reduces over pixels.
fn lower_rows(planes: &[f32], pb: &mut [f32], g: &Geom) {
    lower(planes, pb, (g.pixels(), g.pixel_offsets()), (g.taps(), |r| g.tap_base(r)));
}

/// Adds a `(C·K·K) × (OH·OW)` column-gradient matrix back onto the planes
/// (the adjoint of the lowering): one run of `ow` adds per tap per output
/// row, taps in `(ch, ky, kx)` order so every plane element receives its
/// contributions in the contract's `(ch, ky, kx, oy, ox)` order.
fn col2im(dcols: &[f32], planes: &mut [f32], g: &Geom) {
    for (tap_rows, base) in dcols.chunks_exact(g.pixels()).zip(g.tap_bases()) {
        for (oy, src) in tap_rows.chunks_exact(g.ow).enumerate() {
            let at = base + oy * g.s * g.pw;
            if g.s == 1 {
                for (d, &v) in planes[at..at + g.ow].iter_mut().zip(src) {
                    *d += v;
                }
            } else {
                for (d, &v) in planes[at..].iter_mut().step_by(g.s).zip(src) {
                    *d += v;
                }
            }
        }
    }
}

/// Copies the interior of padded gradient planes out to the image
/// gradient (every element of `dx_img` is written).
fn crop(planes: &[f32], dx_img: &mut [f32], g: &Geom) {
    let rows = planes
        .chunks_exact(g.ph * g.pw)
        .flat_map(|plane| plane[g.pad * g.pw..].chunks_exact(g.pw).take(g.h));
    for (dst, src) in dx_img.chunks_exact_mut(g.w).zip(rows) {
        dst.copy_from_slice(&src[g.pad..g.pad + g.w]);
    }
}

/// Convolution forward.
///
/// * `x`: `N×C×H×W` input.
/// * `weight`: flat `OC×(C·K·K)` kernel bank.
/// * `bias`: `OC` biases (may be empty for no bias).
///
/// Returns the `N×OC×OH×OW` output. It comes from `scratch` (never
/// zero-filled — the GEMM overwrites it), the weights are packed once, and
/// the batch fans out over rayon, one image per task (images are disjoint,
/// so the split cannot reorder any accumulation).
pub fn conv2d_forward_with(
    scratch: &mut ComputeScratch,
    x: &Tensor,
    weight: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
) -> Tensor {
    let (n, c, h, w) = x.shape().as_nchw();
    assert_eq!(c, spec.in_channels, "conv2d input channels");
    assert_eq!(weight.len(), spec.weight_len(), "conv2d weight length");
    let g = Geom::new(c, h, w, spec);
    let (oc, taps, pixels) = (spec.out_channels, g.taps(), g.pixels());
    let in_img = c * h * w;
    let out_img = oc * pixels;
    let kernel = scratch.kernel();
    let x_data = x.data();
    let mut y = scratch.take_dirty(n * out_img);
    with_workspace(packed_a_len(oc, taps), |pa| {
        pack_a(Layout::Nn, weight, pa, oc, taps);
        let pa: &[f32] = pa;
        y.par_chunks_mut(out_img.max(1)).enumerate().for_each(|(i, y_img)| {
            with_workspace(g.plane_len() + packed_b_len(taps, pixels), |ws| {
                let [plane_buf, pb] = carve(ws, [g.plane_len(), packed_b_len(taps, pixels)]);
                let planes = g.padded(&x_data[i * in_img..(i + 1) * in_img], plane_buf);
                lower_cols(planes, pb, &g);
                gemm_packed(kernel, Store::Set, pa, pb, y_img, oc, taps, pixels);
            });
            if !bias.is_empty() {
                for (y_ch, &b) in y_img.chunks_exact_mut(pixels).zip(bias) {
                    for v in y_ch {
                        *v += b;
                    }
                }
            }
        });
    });
    Tensor::from_vec([n, oc, g.oh, g.ow], y).expect("conv2d output size")
}

/// Direct (septuple-loop) convolution — the seed implementation, kept as
/// the differential oracle for the im2col + GEMM path. Approximate, not
/// bitwise: it skips padding taps and seeds each accumulator with the
/// bias, so its summation chain differs (see the module docs).
pub fn conv2d_forward_direct(x: &Tensor, w: &[f32], b: &[f32], sp: &Conv2dSpec) -> Tensor {
    let (n, c, h, ww) = x.shape().as_nchw();
    assert_eq!(c, sp.in_channels, "conv2d input channels");
    assert_eq!(w.len(), sp.weight_len(), "conv2d weight length");
    let (oh, ow) = sp.out_hw(h, ww);
    let mut y = Tensor::zeros([n, sp.out_channels, oh, ow]);
    for i in 0..n {
        for oc in 0..sp.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = if b.is_empty() { 0.0 } else { b[oc] };
                    for ch in 0..c {
                        for ky in 0..sp.kernel {
                            for kx in 0..sp.kernel {
                                let iy = (oy * sp.stride + ky) as isize - sp.padding as isize;
                                let ix = (ox * sp.stride + kx) as isize - sp.padding as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= ww as isize {
                                    continue;
                                }
                                let xv = x.at(&[i, ch, iy as usize, ix as usize]);
                                let wv = w[oc * c * sp.kernel * sp.kernel
                                    + ch * sp.kernel * sp.kernel
                                    + ky * sp.kernel
                                    + kx];
                                acc += xv * wv;
                            }
                        }
                    }
                    *y.at_mut(&[i, oc, oy, ox]) = acc;
                }
            }
        }
    }
    y
}

/// Gradients produced by [`conv2d_backward_with`].
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `N×C×H×W`.
    pub dx: Tensor,
    /// Gradient w.r.t. the flat weight bank.
    pub dweight: Vec<f32>,
    /// Gradient w.r.t. the biases (empty if no bias was used).
    pub dbias: Vec<f32>,
}

/// Convolution backward: given `dy` (`N×OC×OH×OW`), the forward input and
/// weights, produces input/weight/bias gradients (pooled outputs, explicit
/// kernel, rayon over the images of a chunk). Per-image partial weight
/// grads are folded sequentially after each chunk so the summation order
/// (and thus the result) is the image order regardless of the rayon
/// schedule.
pub fn conv2d_backward_with(
    scratch: &mut ComputeScratch,
    x: &Tensor,
    weight: &[f32],
    dy: &Tensor,
    spec: &Conv2dSpec,
    with_bias: bool,
) -> Conv2dGrads {
    let (n, c, h, w) = x.shape().as_nchw();
    let (n2, oc, oh, ow) = dy.shape().as_nchw();
    assert_eq!(n, n2, "conv2d_backward batch");
    assert_eq!(oc, spec.out_channels, "conv2d_backward channels");
    let g = Geom::new(c, h, w, spec);
    assert_eq!((oh, ow), (g.oh, g.ow), "conv2d_backward output extent");
    let (taps, pixels) = (g.taps(), g.pixels());
    let in_img = c * h * w;
    let out_img = oc * pixels;
    let weight_len = spec.weight_len();
    // One image's partials: its dW, then its dbias.
    let part_len = weight_len + if with_bias { oc } else { 0 };
    let kernel = scratch.kernel();
    let x_data = x.data();
    let dy_data = dy.data();

    // Per-task working set, in order: input planes, gradient planes, the
    // transposed patch panels, dcols, and dY packed as `A` (for dW) and as
    // `B` (for dcols).
    let ws_cuts = [
        g.plane_len(),
        g.plane_len(),
        packed_b_len(pixels, taps),
        taps * pixels,
        packed_a_len(oc, pixels),
        packed_b_len(oc, pixels),
    ];
    let ws_len: usize = ws_cuts.iter().sum();

    let mut dxd = scratch.take_dirty(x.numel());
    let mut dweight = scratch.take_zeroed(weight_len);
    let mut dbias = scratch.take_zeroed(part_len - weight_len);
    let mut parts = scratch.take_dirty(IMAGES_PER_CHUNK.min(n) * part_len);
    with_workspace(packed_a_len(taps, oc), |pa_wt| {
        // `weight` is OC×K row-major, i.e. Wᵀ (K×OC) stored k×m.
        pack_a(Layout::Tn, weight, pa_wt, taps, oc);
        let pa_wt: &[f32] = pa_wt;
        for (chunk, dx_chunk) in dxd.chunks_mut((IMAGES_PER_CHUNK * in_img).max(1)).enumerate() {
            let images = dx_chunk.len() / in_img.max(1);
            let tasks = dx_chunk.par_chunks_mut(in_img.max(1)).zip(parts.par_chunks_mut(part_len));
            tasks.enumerate().for_each(|(j, (dx_img, part))| {
                let i = chunk * IMAGES_PER_CHUNK + j;
                let dy_img = &dy_data[i * out_img..(i + 1) * out_img];
                let (dw, db) = part.split_at_mut(weight_len);
                with_workspace(ws_len, |ws| {
                    let [x_planes, dx_planes, pb_rows, dcols, pa_dy, pb_dy] = carve(ws, ws_cuts);

                    // dW_i (OC×K) = dY_i (OC×L) · colsᵀ (L×K)
                    let planes = g.padded(&x_data[i * in_img..(i + 1) * in_img], x_planes);
                    lower_rows(planes, pb_rows, &g);
                    pack_a(Layout::Nn, dy_img, pa_dy, oc, pixels);
                    gemm_packed(kernel, Store::Set, pa_dy, pb_rows, dw, oc, pixels, taps);
                    // dcols (K×L) = Wᵀ (K×OC) · dY_i (OC×L)
                    pack_b(Layout::Nn, dy_img, pb_dy, oc, pixels);
                    gemm_packed(kernel, Store::Set, pa_wt, pb_dy, dcols, taps, oc, pixels);
                    if g.pad == 0 {
                        dx_img.fill(0.0);
                        col2im(dcols, dx_img, &g);
                    } else {
                        dx_planes.fill(0.0);
                        col2im(dcols, dx_planes, &g);
                        crop(dx_planes, dx_img, &g);
                    }
                });
                for (d, dy_ch) in db.iter_mut().zip(dy_img.chunks_exact(pixels)) {
                    *d = dy_ch.iter().sum::<f32>();
                }
            });
            for part in parts.chunks_exact(part_len).take(images) {
                let (dw, db) = part.split_at(weight_len);
                for (a, &b) in dweight.iter_mut().zip(dw) {
                    *a += b;
                }
                for (a, &b) in dbias.iter_mut().zip(db) {
                    *a += b;
                }
            }
        }
    });
    scratch.put(parts);

    let dx = Tensor::from_vec(x.shape().clone(), dxd).expect("conv2d dx size");
    Conv2dGrads { dx, dweight, dbias }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_slice_approx_eq, Kernel};


    fn spec(cin: usize, cout: usize, k: usize, s: usize, p: usize) -> Conv2dSpec {
        Conv2dSpec { in_channels: cin, out_channels: cout, kernel: k, stride: s, padding: p }
    }

    #[test]
    fn out_hw_geometry() {
        assert_eq!(spec(3, 8, 3, 1, 1).out_hw(32, 32), (32, 32));
        assert_eq!(spec(3, 8, 3, 2, 1).out_hw(32, 32), (16, 16));
        assert_eq!(spec(3, 8, 1, 1, 0).out_hw(7, 5), (7, 5));
    }

    #[test]
    fn forward_matches_direct_oracle() {
        for &(cin, cout, k, s, p, h, w) in &[
            (1, 1, 1, 1, 0, 4, 4),
            (2, 3, 3, 1, 1, 6, 5),
            (3, 4, 3, 2, 1, 8, 8),
            (2, 2, 5, 1, 2, 7, 7),
            (1, 2, 3, 2, 2, 5, 9), // padding wider than the kernel reach
        ] {
            let sp = spec(cin, cout, k, s, p);
            let x = Tensor::randn([2, cin, h, w], 1.0, 42);
            let wt = Tensor::randn([sp.weight_len()], 0.5, 43).into_vec();
            let b = Tensor::randn([cout], 0.1, 44).into_vec();
            let y = conv2d_forward_with(&mut ComputeScratch::default(), &x, &wt, &b, &sp);
            let y_ref = conv2d_forward_direct(&x, &wt, &b, &sp);
            assert_slice_approx_eq(y.data(), y_ref.data(), 1e-4);
        }
    }

    #[test]
    fn forward_no_bias() {
        let sp = spec(1, 2, 3, 1, 1);
        let x = Tensor::randn([1, 1, 5, 5], 1.0, 7);
        let wt = Tensor::randn([sp.weight_len()], 0.5, 8).into_vec();
        let y = conv2d_forward_with(&mut ComputeScratch::default(), &x, &wt, &[], &sp);
        let y_ref = conv2d_forward_direct(&x, &wt, &[], &sp);
        assert_slice_approx_eq(y.data(), y_ref.data(), 1e-4);
    }

    #[test]
    fn forward_backends_bitwise_identical() {
        // The GEMM path's cross-backend contract, at the conv level.
        for &(cin, cout, k, s, p, h, w) in
            &[(2, 3, 3, 1, 1, 6, 5), (3, 4, 3, 2, 1, 8, 8), (2, 5, 1, 1, 0, 7, 7)]
        {
            let sp = spec(cin, cout, k, s, p);
            let x = Tensor::randn([2, cin, h, w], 1.0, 52);
            let wt = Tensor::randn([sp.weight_len()], 0.5, 53).into_vec();
            let b = Tensor::randn([cout], 0.1, 54).into_vec();
            let mut ss = ComputeScratch::new(Kernel::Scalar);
            let mut sv = ComputeScratch::new(Kernel::Simd);
            let ys = conv2d_forward_with(&mut ss, &x, &wt, &b, &sp);
            let yv = conv2d_forward_with(&mut sv, &x, &wt, &b, &sp);
            for (a, bb) in ys.data().iter().zip(yv.data().iter()) {
                assert_eq!(a.to_bits(), bb.to_bits(), "conv forward diverged");
            }
            let dy = Tensor::randn(ys.shape().clone(), 1.0, 55);
            let gs = conv2d_backward_with(&mut ss, &x, &wt, &dy, &sp, true);
            let gv = conv2d_backward_with(&mut sv, &x, &wt, &dy, &sp, true);
            for (a, bb) in gs.dx.data().iter().zip(gv.dx.data().iter()) {
                assert_eq!(a.to_bits(), bb.to_bits(), "conv dx diverged");
            }
            for (a, bb) in gs.dweight.iter().zip(gv.dweight.iter()) {
                assert_eq!(a.to_bits(), bb.to_bits(), "conv dweight diverged");
            }
            for (a, bb) in gs.dbias.iter().zip(gv.dbias.iter()) {
                assert_eq!(a.to_bits(), bb.to_bits(), "conv dbias diverged");
            }
        }
    }

    // --- in-test reference: plain im2col matrix, one scalar ascending-k
    // chain per GEMM element, scatter col2im. Everything the product path
    // no longer builds, kept here as the oracle it must match bit for bit.

    fn im2col_ref(img: &[f32], c: usize, h: usize, w: usize, sp: &Conv2dSpec) -> Vec<f32> {
        let (oh, ow) = sp.out_hw(h, w);
        let (k, s, pad) = (sp.kernel as isize, sp.stride as isize, sp.padding as isize);
        let mut cols = Vec::with_capacity(c * sp.kernel * sp.kernel * oh * ow);
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    for oy in 0..oh as isize {
                        for ox in 0..ow as isize {
                            let (iy, ix) = (oy * s + ky - pad, ox * s + kx - pad);
                            let inside = iy >= 0 && ix >= 0 && iy < h as isize && ix < w as isize;
                            cols.push(if inside { img[(ch * h + iy as usize) * w + ix as usize] } else { 0.0 });
                        }
                    }
                }
            }
        }
        cols
    }

    fn col2im_ref(cols: &[f32], c: usize, h: usize, w: usize, sp: &Conv2dSpec) -> Vec<f32> {
        let (oh, ow) = sp.out_hw(h, w);
        let (k, s, pad) = (sp.kernel as isize, sp.stride as isize, sp.padding as isize);
        let mut img = vec![0.0f32; c * h * w];
        let mut next = cols.iter();
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    for oy in 0..oh as isize {
                        for ox in 0..ow as isize {
                            let v = *next.next().unwrap();
                            let (iy, ix) = (oy * s + ky - pad, ox * s + kx - pad);
                            if iy >= 0 && ix >= 0 && iy < h as isize && ix < w as isize {
                                img[(ch * h + iy as usize) * w + ix as usize] += v;
                            }
                        }
                    }
                }
            }
        }
        img
    }

    /// `Σ_p a(p)·b(p)` as the contract's chain: from `0.0`, ascending `p`,
    /// multiply then add.
    fn chain(k: usize, term: impl Fn(usize) -> (f32, f32)) -> f32 {
        (0..k).fold(0.0f32, |acc, p| {
            let (a, b) = term(p);
            acc + a * b
        })
    }

    fn forward_ref(x: &Tensor, wt: &[f32], bias: &[f32], sp: &Conv2dSpec) -> Vec<f32> {
        let (n, c, h, w) = x.shape().as_nchw();
        let (oh, ow) = sp.out_hw(h, w);
        let (oc, taps, pixels) = (sp.out_channels, c * sp.kernel * sp.kernel, oh * ow);
        let mut y = Vec::with_capacity(n * oc * pixels);
        for img in x.data().chunks_exact(c * h * w) {
            let cols = im2col_ref(img, c, h, w, sp);
            for o in 0..oc {
                for l in 0..pixels {
                    let v = chain(taps, |r| (wt[o * taps + r], cols[r * pixels + l]));
                    y.push(if bias.is_empty() { v } else { v + bias[o] });
                }
            }
        }
        y
    }

    fn backward_ref(x: &Tensor, wt: &[f32], dy: &Tensor, sp: &Conv2dSpec, with_bias: bool) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (_, c, h, w) = x.shape().as_nchw();
        let (oh, ow) = sp.out_hw(h, w);
        let (oc, taps, pixels) = (sp.out_channels, c * sp.kernel * sp.kernel, oh * ow);
        let mut dx = Vec::with_capacity(x.numel());
        let mut dweight = vec![0.0f32; oc * taps];
        let mut dbias = vec![0.0f32; if with_bias { oc } else { 0 }];
        for (img, dy_img) in x.data().chunks_exact(c * h * w).zip(dy.data().chunks_exact(oc * pixels)) {
            let cols = im2col_ref(img, c, h, w, sp);
            // Each image's partial is a finished chain; partials are summed
            // in image order.
            for o in 0..oc {
                for r in 0..taps {
                    dweight[o * taps + r] += chain(pixels, |l| (dy_img[o * pixels + l], cols[r * pixels + l]));
                }
            }
            let mut dcols = Vec::with_capacity(taps * pixels);
            for r in 0..taps {
                for l in 0..pixels {
                    dcols.push(chain(oc, |o| (wt[o * taps + r], dy_img[o * pixels + l])));
                }
            }
            dx.extend(col2im_ref(&dcols, c, h, w, sp));
            for (o, d) in dbias.iter_mut().enumerate() {
                *d += dy_img[o * pixels..(o + 1) * pixels].iter().sum::<f32>();
            }
        }
        (dx, dweight, dbias)
    }

    /// Bitwise equality; both-NaN pairs compare equal whatever the payload
    /// (see the contract in `crate::gemm`).
    fn assert_bits_eq(a: &[f32], b: &[f32], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            if x.is_nan() && y.is_nan() {
                continue;
            }
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: bits diverged at {i}: {x} vs {y}");
        }
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// The torture palette: NaN payloads, ±Inf, ±0, denormals, ordinary.
    fn torture_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
        (0..n)
            .map(|_| match xorshift(&mut s) % 13 {
                0 => f32::NAN,
                1 => f32::from_bits(0x7FC0_5A5A),
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => 0.0,
                5 => -0.0,
                6 => f32::from_bits((s >> 40) as u32 & 0x007F_FFFF),
                7 => -f32::MIN_POSITIVE / 2.0,
                _ => ((s >> 20) % 2001) as f32 / 500.0 - 2.0,
            })
            .collect()
    }

    /// `(cin, cout, kernel, stride, pad, h, w)`: the nine geometries
    /// `resnet_lite(3, 16, 10, 16)` runs, then the odd ones — kernel 5,
    /// padding wider than the reach, non-square inputs, output widths that
    /// straddle panels, a tap count that is no multiple of `NR` unpadded.
    const GEOMETRIES: [(usize, usize, usize, usize, usize, usize, usize); 15] = [
        (3, 16, 3, 1, 1, 16, 16),
        (16, 16, 3, 1, 1, 16, 16),
        (32, 32, 3, 1, 1, 8, 8),
        (64, 64, 3, 1, 1, 4, 4),
        (16, 32, 3, 2, 1, 16, 16),
        (32, 64, 3, 2, 1, 8, 8),
        (16, 32, 1, 2, 0, 16, 16),
        (32, 64, 1, 2, 0, 8, 8),
        (2, 3, 5, 1, 2, 7, 7),
        (1, 2, 3, 2, 2, 5, 9),
        (2, 5, 3, 1, 1, 6, 11),
        (3, 4, 3, 1, 0, 9, 20),
        (3, 7, 1, 1, 0, 5, 6),
        (2, 2, 3, 3, 1, 10, 7),
        (1, 1, 1, 1, 0, 1, 1),
    ];

    fn check_against_reference(x: &Tensor, wt: &[f32], bias: &[f32], dy_seed: u64, sp: &Conv2dSpec, torture: bool, ctx: &str) {
        let y_ref = forward_ref(x, wt, bias, sp);
        let (n, _, h, w) = x.shape().as_nchw();
        let (oh, ow) = sp.out_hw(h, w);
        let dy_shape = [n, sp.out_channels, oh, ow];
        let dy = if torture {
            Tensor::from_vec(dy_shape, torture_vec(y_ref.len(), dy_seed)).unwrap()
        } else {
            Tensor::randn(dy_shape, 1.0, dy_seed)
        };
        let (dx_ref, dw_ref, db_ref) = backward_ref(x, wt, &dy, sp, !bias.is_empty());
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let ctx = format!("{ctx} {}", kernel.name());
            let mut s = ComputeScratch::new(kernel);
            // Twice through one scratch: the second pass runs on dirty
            // pooled buffers and a dirty working set.
            for pass in 0..2 {
                let y = conv2d_forward_with(&mut s, x, wt, bias, sp);
                assert_bits_eq(y.data(), &y_ref, &format!("{ctx} y pass {pass}"));
                let g = conv2d_backward_with(&mut s, x, wt, &dy, sp, !bias.is_empty());
                assert_bits_eq(g.dx.data(), &dx_ref, &format!("{ctx} dx pass {pass}"));
                assert_bits_eq(&g.dweight, &dw_ref, &format!("{ctx} dweight pass {pass}"));
                assert_bits_eq(&g.dbias, &db_ref, &format!("{ctx} dbias pass {pass}"));
                s.put_tensor(y);
                s.put_tensor(g.dx);
                s.put(g.dweight);
                s.put(g.dbias);
            }
        }
    }

    #[test]
    fn matches_reference_bitwise_on_every_geometry() {
        // Batches of 1, 3, 5 and 9: none divides into whole image chunks.
        for (gi, &(cin, cout, k, s, p, h, w)) in GEOMETRIES.iter().enumerate() {
            let sp = spec(cin, cout, k, s, p);
            let n = [1, 3, 5, 9][gi % 4];
            assert_ne!(n % IMAGES_PER_CHUNK, 0);
            let x = Tensor::randn([n, cin, h, w], 1.0, 300 + gi as u64);
            let wt = Tensor::randn([sp.weight_len()], 0.5, 400 + gi as u64).into_vec();
            let bias = if gi % 2 == 0 { vec![] } else { Tensor::randn([cout], 0.1, 500).into_vec() };
            check_against_reference(&x, &wt, &bias, 600 + gi as u64, &sp, false, &format!("geometry {gi}"));
        }
    }

    #[test]
    fn matches_reference_bitwise_on_the_torture_palette() {
        for (gi, &(cin, cout, k, s, p, h, w)) in GEOMETRIES.iter().enumerate() {
            let sp = spec(cin, cout, k, s, p);
            let n = [2, 5][gi % 2];
            let x = Tensor::from_vec([n, cin, h, w], torture_vec(n * cin * h * w, 700 + gi as u64)).unwrap();
            let wt = torture_vec(sp.weight_len(), 800 + gi as u64);
            let bias = torture_vec(cout, 900 + gi as u64);
            check_against_reference(&x, &wt, &bias, 1000 + gi as u64, &sp, true, &format!("torture {gi}"));
        }
    }

    /// The forward panels un-packed back into the `K × L` column matrix.
    fn lowered_cols(img: &[f32], g: &Geom) -> Vec<f32> {
        let (taps, pixels) = (g.taps(), g.pixels());
        let mut plane_buf = vec![f32::NAN; g.plane_len()];
        let mut pb = vec![f32::NAN; packed_b_len(taps, pixels)];
        lower_cols(g.padded(img, &mut plane_buf), &mut pb, g);
        let mut cols = Vec::with_capacity(taps * pixels);
        for r in 0..taps {
            for l in 0..pixels {
                cols.push(pb[l / NR * taps * NR + r * NR + l % NR]);
            }
        }
        cols
    }

    #[test]
    fn lowerings_are_the_column_matrix_in_panel_form() {
        // Data movement: exact bits, payloads included.
        for (gi, &(cin, _, k, s, p, h, w)) in GEOMETRIES.iter().enumerate() {
            let sp = spec(cin, 1, k, s, p);
            let g = Geom::new(cin, h, w, &sp);
            let img = torture_vec(cin * h * w, 1100 + gi as u64);
            let want = im2col_ref(&img, cin, h, w, &sp);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&lowered_cols(&img, &g)), bits(&want), "lower_cols, geometry {gi}");

            let (taps, pixels) = (g.taps(), g.pixels());
            let mut plane_buf = vec![f32::NAN; g.plane_len()];
            let mut pb = vec![f32::NAN; packed_b_len(pixels, taps)];
            lower_rows(g.padded(&img, &mut plane_buf), &mut pb, &g);
            let mut cols = Vec::with_capacity(taps * pixels);
            for r in 0..taps {
                for l in 0..pixels {
                    cols.push(pb[r / NR * pixels * NR + l * NR + r % NR]);
                }
            }
            assert_eq!(bits(&cols), bits(&want), "lower_rows, geometry {gi}");
        }
    }

    #[test]
    fn col2im_is_the_adjoint_of_the_lowering() {
        // <im2col(x), y> = <x, col2im(y)> on random geometries and values;
        // a failure prints the seed that reproduces it.
        for seed in 1..=64u64 {
            let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let mut pick = |lo: u64, hi: u64| (lo + xorshift(&mut s) % (hi - lo + 1)) as usize;
            let (cin, k, stride, pad) = (pick(1, 4), pick(1, 5), pick(1, 3), pick(0, 3));
            let (h, w) = (pick(k as u64, 12), pick(k as u64, 19));
            let sp = spec(cin, 1, k, stride, pad);
            let g = Geom::new(cin, h, w, &sp);
            let x = Tensor::randn([cin * h * w], 1.0, seed).into_vec();
            let y = Tensor::randn([g.taps() * g.pixels()], 1.0, seed ^ 0xABCD).into_vec();

            let cols = lowered_cols(&x, &g);
            let lhs: f64 = cols.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
            let mut dx = vec![f32::NAN; cin * h * w];
            if g.pad == 0 {
                dx.fill(0.0);
                col2im(&y, &mut dx, &g);
            } else {
                let mut planes = vec![0.0f32; g.plane_len()];
                col2im(&y, &mut planes, &g);
                crop(&planes, &mut dx, &g);
            }
            let rhs: f64 = x.iter().zip(&dx).map(|(&a, &b)| a as f64 * b as f64).sum();
            let scale = lhs.abs().max(rhs.abs()).max(1.0);
            assert!(
                (lhs - rhs).abs() <= 1e-4 * scale,
                "seed {seed}: c{cin} k{k} s{stride} p{pad} {h}x{w}: {lhs} vs {rhs}"
            );
            assert_bits_eq(&dx, &col2im_ref(&y, cin, h, w, &sp), &format!("seed {seed}: col2im order"));
        }
    }

    #[test]
    fn warm_scratch_runs_allocation_free() {
        let sp = spec(2, 4, 3, 1, 1);
        let x = Tensor::randn([3, 2, 8, 8], 1.0, 71);
        let wt = Tensor::randn([sp.weight_len()], 0.5, 72).into_vec();
        let b = Tensor::randn([4], 0.1, 73).into_vec();
        let mut s = ComputeScratch::default();
        for _ in 0..2 {
            let y = conv2d_forward_with(&mut s, &x, &wt, &b, &sp);
            let dy = Tensor::full(y.shape().clone(), 1.0);
            let g = conv2d_backward_with(&mut s, &x, &wt, &dy, &sp, true);
            s.put_tensor(y);
            s.put_tensor(g.dx);
            s.put(g.dweight);
            s.put(g.dbias);
        }
        let warm = s.misses();
        let y = conv2d_forward_with(&mut s, &x, &wt, &b, &sp);
        let dy = Tensor::full(y.shape().clone(), 1.0);
        let g = conv2d_backward_with(&mut s, &x, &wt, &dy, &sp, true);
        s.put_tensor(y);
        s.put_tensor(g.dx);
        s.put(g.dweight);
        s.put(g.dbias);
        assert_eq!(s.misses(), warm, "warm conv step must not grow buffers");
    }

    /// Numerical gradient check of the full backward pass.
    #[test]
    fn backward_matches_numerical_gradient() {
        let sp = spec(2, 3, 3, 1, 1);
        let x = Tensor::randn([2, 2, 5, 5], 1.0, 100);
        let wt = Tensor::randn([sp.weight_len()], 0.5, 101).into_vec();
        let b = Tensor::randn([3], 0.1, 102).into_vec();
        // Loss = sum(conv(x)) so dy = ones.
        let y = conv2d_forward_with(&mut ComputeScratch::default(), &x, &wt, &b, &sp);
        let dy = Tensor::full(y.shape().clone(), 1.0);
        let grads = conv2d_backward_with(&mut ComputeScratch::default(), &x, &wt, &dy, &sp, true);

        let eps = 1e-2f32;
        let loss = |x: &Tensor, wt: &[f32], b: &[f32]| -> f64 {
            conv2d_forward_with(&mut ComputeScratch::default(), x, wt, b, &sp).sum()
        };
        // Check a sample of weight coordinates.
        for &wi in &[0usize, 5, 17, sp.weight_len() - 1] {
            let mut wp = wt.clone();
            wp[wi] += eps;
            let mut wm = wt.clone();
            wm[wi] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps as f64);
            assert!(
                (num - grads.dweight[wi] as f64).abs() < 2e-2 * num.abs().max(1.0),
                "dweight[{wi}]: numerical {num} vs analytic {}",
                grads.dweight[wi]
            );
        }
        // Check a sample of input coordinates.
        for &xi in &[0usize, 13, 49, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let num = (loss(&xp, &wt, &b) - loss(&xm, &wt, &b)) / (2.0 * eps as f64);
            assert!(
                (num - grads.dx.data()[xi] as f64).abs() < 2e-2 * num.abs().max(1.0),
                "dx[{xi}]: numerical {num} vs analytic {}",
                grads.dx.data()[xi]
            );
        }
        // Bias gradient of sum-loss is the number of output pixels per channel.
        let (oh, ow) = sp.out_hw(5, 5);
        for &g in &grads.dbias {
            assert!((g - (2 * oh * ow) as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_strided() {
        let sp = spec(1, 2, 3, 2, 1);
        let x = Tensor::randn([1, 1, 8, 8], 1.0, 200);
        let wt = Tensor::randn([sp.weight_len()], 0.5, 201).into_vec();
        let y = conv2d_forward_with(&mut ComputeScratch::default(), &x, &wt, &[], &sp);
        let dy = Tensor::full(y.shape().clone(), 1.0);
        let grads = conv2d_backward_with(&mut ComputeScratch::default(), &x, &wt, &dy, &sp, false);
        assert!(grads.dbias.is_empty());
        let eps = 1e-2f32;
        for &xi in &[0usize, 31, 63] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let num = (conv2d_forward_with(&mut ComputeScratch::default(), &xp, &wt, &[], &sp).sum()
                - conv2d_forward_with(&mut ComputeScratch::default(), &xm, &wt, &[], &sp).sum())
                / (2.0 * eps as f64);
            assert!(
                (num - grads.dx.data()[xi] as f64).abs() < 2e-2 * num.abs().max(1.0),
                "dx[{xi}]"
            );
        }
    }

    #[test]
    fn flops_positive_and_scales_with_batch() {
        let sp = spec(3, 8, 3, 1, 1);
        let f1 = sp.flops(1, 16, 16);
        let f4 = sp.flops(4, 16, 16);
        assert!(f1 > 0);
        assert_eq!(f4, 4 * f1);
    }
}
