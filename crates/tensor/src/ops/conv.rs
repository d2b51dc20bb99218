//! 2-D convolution: every geometry is lowered per image to an im2col
//! column matrix and the register-tiled `gist-simd` GEMM family, forward and
//! backward. A pointwise convolution's column matrix is its image, read in
//! place.
//!
//! The convolution backward pass needs its stashed *input* feature map to
//! compute weight gradients (Figure 4(d) in the paper) — which is why
//! Binarize cannot apply to ReLU→Conv pairs and SSDC exists. It reads that
//! map through a [`ColumnSource`], one channel plane at a time, so an
//! encoded stash is lowered to columns without a dense copy of the map.

use crate::{ScratchPool, Shape, Tensor, TensorError};
use gist_par::{parallel_chunks_mut, parallel_reduce, SendPtr};
use gist_simd::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
use std::cell::Cell;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvParams {
    /// Kernel height/width (square kernels).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

impl ConvParams {
    /// Creates convolution parameters.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        ConvParams { kernel, stride, pad }
    }

    /// Whether this geometry yields an output on an `h × w` input: kernel
    /// and stride non-zero, kernel within the padded input. Everything that
    /// takes a `ConvParams` from outside checks this before calling
    /// [`ConvParams::out_hw`], which divides by the stride.
    pub fn fits(&self, h: usize, w: usize) -> bool {
        self.kernel != 0
            && self.stride != 0
            && h + 2 * self.pad >= self.kernel
            && w + 2 * self.pad >= self.kernel
    }

    /// Output spatial size for input `(h, w)`; requires [`ConvParams::fits`].
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Output shape for an NCHW input with `out_channels` filters.
    pub fn out_shape(&self, x: Shape, out_channels: usize) -> Shape {
        let (oh, ow) = self.out_hw(x.h(), x.w());
        Shape::nchw(x.n(), out_channels, oh, ow)
    }
}

/// Rejects degenerate geometry before any output-shape arithmetic, then a
/// weight that is not `[K, C, R, R]` for `x`'s `C` channels and `p`'s kernel
/// `R`. Both entry points run it before they touch an output.
fn check_shapes(s: Shape, ws: Shape, p: ConvParams) -> Result<(), TensorError> {
    if !p.fits(s.h(), s.w()) {
        return Err(TensorError::UnsupportedShape(format!(
            "conv kernel {} stride {} pad {} on {s}",
            p.kernel, p.stride, p.pad
        )));
    }
    if ws.c() != s.c() || ws.h() != p.kernel || ws.w() != p.kernel {
        return Err(TensorError::UnsupportedShape(format!(
            "weight {ws} incompatible with input {s} kernel {}",
            p.kernel
        )));
    }
    Ok(())
}

/// A feature map conv lowers to im2col columns: a dense tensor, or a stash
/// held in an encoded form. Conv reads it one `H × W` channel plane at a
/// time — borrowed where the map is held dense, decoded into per-thread
/// scratch otherwise — so no image- or batch-sized dense copy exists.
pub trait ColumnSource: Sync {
    /// NCHW shape of the map.
    fn shape(&self) -> Shape;

    /// Elements `start..start + scratch.len()` of the flattened map:
    /// borrowed from the map where it is held dense, decoded into `scratch`
    /// otherwise — bit-equal to the same slice of its dense form either way.
    fn plane<'a>(&'a self, start: usize, scratch: &'a mut [f32]) -> &'a [f32];
}

impl ColumnSource for Tensor {
    fn shape(&self) -> Shape {
        Tensor::shape(self)
    }

    fn plane<'a>(&'a self, start: usize, scratch: &'a mut [f32]) -> &'a [f32] {
        &self.data()[start..start + scratch.len()]
    }
}

thread_local! {
    /// This thread's column matrix, forward and backward: grown to the
    /// largest image it has lowered and never shrunk, so a steady-state step
    /// allocates none. `take`/`set` rather than a held borrow, as for
    /// gist-simd's pack buffer (a separate slot: the dW matmul packs while
    /// the columns are live).
    static COLS_BUF: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// This thread's channel-plane scratch, which an encoded source decodes
    /// into ([`ColumnSource::plane`]), grown the same way.
    static PLANE_BUF: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on this thread's buffer in `slot` at `len` elements. The
/// contents are whatever the last use left there: every caller overwrites
/// every cell.
fn with_buf<R>(
    slot: &'static std::thread::LocalKey<Cell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    slot.with(|slot| {
        let mut buf = slot.take();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        let r = f(&mut buf[..len]);
        slot.set(buf);
        r
    })
}

/// Output columns `[lo, hi)` whose tap `kw` reads inside a `w`-wide input
/// row; the rest of each output row is padding.
fn tap_cols(p: ConvParams, kw: usize, w: usize, ow: usize) -> (usize, usize) {
    let lo = p.pad.saturating_sub(kw).div_ceil(p.stride).min(ow);
    let hi = (w + p.pad).saturating_sub(kw).div_ceil(p.stride).clamp(lo, ow);
    (lo, hi)
}

/// Lowers image `n` of `x` into the im2col matrix `[C*K*K, OH*OW]`
/// (row-major), one channel plane at a time. Every cell of `cols` is
/// written, padding cells with `0.0`, so the buffer may hold anything on
/// entry.
fn im2col_into<S: ColumnSource + ?Sized>(
    x: &S,
    n: usize,
    p: ConvParams,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    let s = x.shape();
    let (c, hw, k) = (s.c(), s.h() * s.w(), p.kernel);
    debug_assert_eq!(cols.len(), c * k * k * oh * ow);
    with_buf(&PLANE_BUF, hw, |scratch| {
        for (ci, rows) in cols.chunks_exact_mut(k * k * oh * ow).enumerate() {
            let plane = x.plane((n * c + ci) * hw, scratch);
            plane_into_rows(plane, s, p, oh, ow, rows);
        }
    })
}

/// Runs `f` on image `n`'s im2col matrix `[C*K*K, OH*OW]`. A pointwise
/// convolution (kernel 1, stride 1, pad 0) lowers to the image itself, so its
/// matrix is one [`ColumnSource::plane`] read: the image borrowed in place
/// when the map is held dense, decoded straight into the column buffer
/// otherwise. Every other geometry runs [`im2col_into`].
fn with_cols<S: ColumnSource + ?Sized, R>(
    x: &S,
    n: usize,
    p: ConvParams,
    oh: usize,
    ow: usize,
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    let len = x.shape().c() * p.kernel * p.kernel * oh * ow;
    with_buf(&COLS_BUF, len, |cols| {
        if p == ConvParams::new(1, 1, 0) {
            return f(x.plane(n * len, cols));
        }
        im2col_into(x, n, p, oh, ow, cols);
        f(cols)
    })
}

/// The `K*K` im2col rows of one `h × w` input plane (`s` gives `h`, `w`).
fn plane_into_rows(plane: &[f32], s: Shape, p: ConvParams, oh: usize, ow: usize, rows: &mut [f32]) {
    let (h, w, k) = (s.h(), s.w(), p.kernel);
    for (row, plane_cols) in rows.chunks_exact_mut(oh * ow).enumerate() {
        let (kh, kw) = (row / k, row % k);
        let (lo, hi) = tap_cols(p, kw, w, ow);
        if lo == hi {
            plane_cols.fill(0.0);
            continue;
        }
        for (ohi, dst) in plane_cols.chunks_exact_mut(ow).enumerate() {
            let ih = ohi * p.stride + kh;
            if ih < p.pad || ih >= h + p.pad {
                dst.fill(0.0);
                continue;
            }
            dst[..lo].fill(0.0);
            dst[hi..].fill(0.0);
            let src = &plane[(ih - p.pad) * w + lo * p.stride + kw - p.pad..];
            if p.stride == 1 {
                dst[lo..hi].copy_from_slice(&src[..hi - lo]);
            } else {
                for (d, v) in dst[lo..hi].iter_mut().zip(src.iter().step_by(p.stride)) {
                    *d = *v;
                }
            }
        }
    }
}

/// Scatters an im2col matrix back into one image's `dx` slice (transpose
/// of [`im2col_into`]: the same rows and the same `[lo, hi)` columns, so
/// every destination accumulates in `(ci, kh, kw, ohi, owi)` order).
fn col2im_slice(cols: &[f32], dst: &mut [f32], s: Shape, p: ConvParams, oh: usize, ow: usize) {
    let (h, w, k) = (s.h(), s.w(), p.kernel);
    for (row, plane) in cols.chunks_exact(oh * ow).enumerate() {
        let (ci, kh, kw) = (row / (k * k), row / k % k, row % k);
        let (lo, hi) = tap_cols(p, kw, w, ow);
        if lo == hi {
            continue;
        }
        for (ohi, src) in plane.chunks_exact(ow).enumerate() {
            let ih = ohi * p.stride + kh;
            if ih < p.pad || ih >= h + p.pad {
                continue;
            }
            let drow = &mut dst[(ci * h + ih - p.pad) * w + lo * p.stride + kw - p.pad..];
            if p.stride == 1 {
                for (d, v) in drow.iter_mut().zip(&src[lo..hi]) {
                    *d += v;
                }
            } else {
                for (d, v) in drow.iter_mut().step_by(p.stride).zip(&src[lo..hi]) {
                    *d += v;
                }
            }
        }
    }
}

/// Channels whose bias-gradient chains [`add_channel_sums`] interleaves.
const CHAINS: usize = 8;

/// `db[k] += Σ_p dy[k·hw + p]` for every channel `k`. Each channel's sum
/// runs from `0.0` over ascending `p`, exactly the serial loop's chain, but
/// [`CHAINS`] channels' chains run side by side, one per lane (DESIGN.md
/// §11: lanes hold independent outputs), so no add waits on its neighbour.
/// A whole group reads an 8-position block of each of its planes at a time;
/// a short last group and the positions past the last block go one
/// position at a time.
fn add_channel_sums(dy: &[f32], hw: usize, db: &mut [f32]) {
    for (db, dy) in db.chunks_mut(CHAINS).zip(dy.chunks(CHAINS * hw)) {
        let mut acc = [0.0f32; CHAINS];
        let blocked = if db.len() == CHAINS { hw - hw % 8 } else { 0 };
        for p0 in (0..blocked).step_by(8) {
            let block: [&[f32; 8]; CHAINS] =
                std::array::from_fn(|l| dy[l * hw + p0..][..8].try_into().expect("8 positions"));
            for q in 0..8 {
                for (a, row) in acc.iter_mut().zip(&block) {
                    *a += row[q];
                }
            }
        }
        for p in blocked..hw {
            for (a, plane) in acc.iter_mut().zip(dy.chunks_exact(hw)) {
                *a += plane[p];
            }
        }
        for (d, a) in db.iter_mut().zip(acc) {
            *d += a;
        }
    }
}

/// Convolution forward pass, writing into a preallocated output (e.g. an
/// arena view). Every element of `y` is overwritten.
///
/// `x` is `[N, C, H, W]`, `weight` is `[K, C, R, R]` (K filters), `bias` is
/// `[K]` or `None`.
///
/// # Errors
///
/// Returns an error if channel counts or kernel geometry are inconsistent
/// (checked before any output-shape arithmetic), or on a shape mismatch on
/// `y`.
pub fn forward_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: ConvParams,
    y: &mut Tensor,
) -> Result<(), TensorError> {
    let s = x.shape();
    let ws = weight.shape();
    check_shapes(s, ws, p)?;
    let out_c = ws.n();
    if let Some(b) = bias {
        if b.numel() != out_c {
            return Err(TensorError::ShapeMismatch {
                left: b.shape(),
                right: Shape::vector(out_c),
            });
        }
    }
    let out = p.out_shape(s, out_c);
    if y.shape() != out {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: out });
    }
    let (oh, ow) = (out.h(), out.w());
    let ckk = s.c() * p.kernel * p.kernel;
    let per_image = out_c * oh * ow;
    // Images are independent; fan the minibatch out over the gist-par pool.
    // (Nested matmul dispatch degrades to serial inside each image task.)
    parallel_chunks_mut(y.data_mut(), per_image, |n, dst| {
        // weight viewed as [out_c, ckk] * cols [ckk, oh*ow]
        with_cols(x, n, p, oh, ow, |cols| {
            matmul_into(weight.data(), cols, out_c, ckk, oh * ow, dst)
        });
        if let Some(b) = bias {
            for (plane, bk) in dst.chunks_exact_mut(oh * ow).zip(b.data()) {
                for v in plane {
                    *v += bk;
                }
            }
        }
    });
    Ok(())
}

/// Convolution backward pass from the stashed input `x` — the dependency
/// that motivates SSDC — read in place through its [`ColumnSource`]: the
/// columns are bit-identical whether `x` is a dense tensor or an encoded
/// stash of it, so dW and dX are too. Its per-image scratch (the dW/dX matmul
/// temporaries and the per-task reduction partials) is leased from a
/// caller-owned [`ScratchPool`] instead of heap-allocated per call; `dx`
/// lands in a preallocated buffer (e.g. a planned arena side region), and
/// `dw` (the weight's shape) and `db` (one element per output channel) in
/// the caller's — a gradient set kept across steps. Every element of all
/// three is overwritten — `dx` is zero-filled first, then accumulated into
/// by the col2im scatter — so poisoned buffers are fine. Bit-identical at
/// every thread count and however the pool is reused: the accumulators
/// lease zero-filled, every other lease is fully overwritten, and the
/// merge tree is fixed.
///
/// # Errors
///
/// Returns an error, before any output is touched, if the kernel geometry
/// or the weight's channels and kernel do not fit `x` (as [`forward_into`]
/// checks), if `dy`'s shape is inconsistent with `x`/`weight`/`p`, or on a
/// shape mismatch on an output.
#[allow(clippy::too_many_arguments)]
pub fn backward_into<S: ColumnSource + ?Sized>(
    x: &S,
    weight: &Tensor,
    dy: &Tensor,
    p: ConvParams,
    scratch: &ScratchPool,
    dx: &mut Tensor,
    dw: &mut Tensor,
    db: &mut Tensor,
) -> Result<(), TensorError> {
    let s = x.shape();
    let ws = weight.shape();
    check_shapes(s, ws, p)?;
    let out_c = ws.n();
    let expected = p.out_shape(s, out_c);
    if dy.shape() != expected {
        return Err(TensorError::ShapeMismatch { left: dy.shape(), right: expected });
    }
    if dx.shape() != s {
        return Err(TensorError::ShapeMismatch { left: dx.shape(), right: s });
    }
    if dw.shape() != ws {
        return Err(TensorError::ShapeMismatch { left: dw.shape(), right: ws });
    }
    if db.shape() != Shape::vector(out_c) {
        return Err(TensorError::ShapeMismatch { left: db.shape(), right: Shape::vector(out_c) });
    }
    let (oh, ow) = (expected.h(), expected.w());
    let ckk = s.c() * p.kernel * p.kernel;
    let dw_transposed = dw_transposed(out_c, ckk);
    dx.data_mut().fill(0.0);
    let per_dx = s.c() * s.h() * s.w();
    let dx_base = SendPtr::new(dx.data_mut().as_mut_ptr());
    // Images are disjoint in dX, so each task writes its slice directly.
    // Per-image dW/db partials are merged along gist-par's fixed pairwise
    // tree over image indices: the accumulation order depends only on the
    // minibatch size, never on thread count or completion order. (The old
    // scoped-thread version merged per-worker partials in spawn-bucket
    // order, which varied with the core count.)
    let merged = parallel_reduce(
        s.n(),
        1,
        move |range| {
            let dx_ptr = dx_base.get();
            let mut dw_part = scratch.lease(ws.numel());
            let mut db_part = scratch.lease(out_c);
            for n in range {
                let dy_n = &dy.data()[n * out_c * oh * ow..(n + 1) * out_c * oh * ow];
                let mut dwn = scratch.lease(out_c * ckk);
                with_cols(x, n, p, oh, ow, |cols| {
                    if dw_transposed {
                        matmul_a_bt_into(cols, dy_n, ckk, oh * ow, out_c, &mut dwn)
                    } else {
                        matmul_a_bt_into(dy_n, cols, out_c, oh * ow, ckk, &mut dwn)
                    }
                });
                // dW[k][j] is dwn[k·ckk + j], or dwn[j·out_c + k] transposed.
                let (k_step, j_step) = if dw_transposed { (1, out_c) } else { (ckk, 1) };
                for (k, row) in dw_part.chunks_exact_mut(ckk).enumerate() {
                    for (j, a) in row.iter_mut().enumerate() {
                        *a += dwn[k * k_step + j * j_step];
                    }
                }
                let mut dcols = scratch.lease(ckk * oh * ow);
                matmul_at_b_into(weight.data(), dy_n, ckk, out_c, oh * ow, &mut dcols);
                // SAFETY: image slices of dx are disjoint; dx outlives the
                // dispatch (parallel_reduce blocks until completion).
                let dst = unsafe { std::slice::from_raw_parts_mut(dx_ptr.add(n * per_dx), per_dx) };
                col2im_slice(&dcols, dst, s, p, oh, ow);
                add_channel_sums(dy_n, oh * ow, &mut db_part);
            }
            (dw_part, db_part)
        },
        |(mut dw_a, mut db_a), (dw_b, db_b)| {
            for (a, b) in dw_a.iter_mut().zip(dw_b.iter()) {
                *a += b;
            }
            for (a, b) in db_a.iter_mut().zip(db_b.iter()) {
                *a += b;
            }
            // Dropping the right-hand partials here returns their buffers
            // to the pool for the next wave of tasks.
            (dw_a, db_a)
        },
    );
    match merged {
        Some((dw_sum, db_sum)) => {
            dw.data_mut().copy_from_slice(&dw_sum);
            db.data_mut().copy_from_slice(&db_sum);
        }
        None => {
            dw.data_mut().fill(0.0);
            db.data_mut().fill(0.0);
        }
    }
    Ok(())
}

/// Whether `backward_into` computes dW transposed. dW = dy_n · colsᵀ puts
/// its `ckk` output columns on the vector lanes and packs `cols`; dWᵀ =
/// cols · dy_nᵀ puts `out_c` there and packs `dy_n`. The rule is a pure
/// function of shape: fewer scalar-tail columns first (every level's
/// vector tiles cover whole multiples of 8), then the smaller packed
/// operand. Both orientations sum each cell's terms in ascending order
/// from `0.0` and products commute, so bits agree at every level.
fn dw_transposed(out_c: usize, ckk: usize) -> bool {
    (out_c % 8, out_c) < (ckk % 8, ckk)
}

/// [`backward_into`] returning freshly allocated `(dw, db)`. Kept for
/// `benchmark/`'s per-layer replay; a later `benchmark` change moves it to
/// [`backward_into`] and deletes this.
///
/// # Errors
///
/// As for [`backward_into`].
pub fn backward_with_into<S: ColumnSource + ?Sized>(
    x: &S,
    weight: &Tensor,
    dy: &Tensor,
    p: ConvParams,
    scratch: &ScratchPool,
    dx: &mut Tensor,
) -> Result<(Tensor, Tensor), TensorError> {
    let mut dw = Tensor::zeros(weight.shape());
    let mut db = Tensor::zeros(Shape::vector(weight.shape().n()));
    backward_into(x, weight, dy, p, scratch, dx, &mut dw, &mut db)?;
    Ok((dw, db))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel with weight 1.0 is identity.
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = Tensor::from_vec(Shape::nchw(1, 1, 1, 1), vec![1.0]).unwrap();
        let mut y = Tensor::full(x.shape(), f32::NAN);
        forward_into(&x, &w, None, ConvParams::new(1, 1, 0), &mut y).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // 3x3 input, 3x3 sum kernel, no pad -> single output = sum of input.
        let x =
            Tensor::from_vec(Shape::nchw(1, 1, 3, 3), (1..=9).map(|v| v as f32).collect()).unwrap();
        let w = Tensor::full(Shape::nchw(1, 1, 3, 3), 1.0);
        let mut y = Tensor::full(Shape::nchw(1, 1, 1, 1), f32::NAN);
        forward_into(&x, &w, None, ConvParams::new(3, 1, 0), &mut y).unwrap();
        assert_eq!(y.data(), &[45.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let x = Tensor::full(Shape::nchw(1, 1, 2, 2), 0.0);
        let w = Tensor::full(Shape::nchw(2, 1, 1, 1), 1.0);
        let b = Tensor::from_vec(Shape::vector(2), vec![0.5, -1.5]).unwrap();
        let mut y = Tensor::full(Shape::nchw(1, 2, 2, 2), f32::NAN);
        forward_into(&x, &w, Some(&b), ConvParams::new(1, 1, 0), &mut y).unwrap();
        assert_eq!(&y.data()[..4], &[0.5; 4]);
        assert_eq!(&y.data()[4..], &[-1.5; 4]);
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let x = Tensor::full(Shape::nchw(2, 3, 8, 8), 1.0);
        let w = Tensor::full(Shape::nchw(4, 3, 3, 3), 0.1);
        let mut y = Tensor::zeros(Shape::nchw(2, 4, 8, 8));
        forward_into(&x, &w, None, ConvParams::new(3, 1, 1), &mut y).unwrap();
        assert!(forward_into(&x, &w, None, ConvParams::new(3, 1, 0), &mut y).is_err());
    }

    /// Numerical gradient check: perturb each input/weight element and compare
    /// against the analytic backward pass.
    #[test]
    fn gradient_check_small_conv() {
        let p = ConvParams::new(3, 1, 1);
        let x = crate::init::uniform(Shape::nchw(1, 2, 4, 4), -1.0, 1.0, 11);
        let w = crate::init::uniform(Shape::nchw(3, 2, 3, 3), -0.5, 0.5, 13);
        let mut y = Tensor::zeros(p.out_shape(x.shape(), 3));
        forward_into(&x, &w, None, p, &mut y).unwrap();
        // loss = sum(y^2)/2, dy = y
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        let (dw, _) = backward_with_into(&x, &w, &y, p, &ScratchPool::new(), &mut dx).unwrap();
        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            let mut y = Tensor::zeros(p.out_shape(x.shape(), 3));
            forward_into(x, w, None, p, &mut y).unwrap();
            y.data().iter().map(|&v| (v as f64) * (v as f64) / 2.0).sum()
        };
        let eps = 1e-3f32;
        for idx in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps as f64);
            let ana = dx.data()[idx] as f64;
            assert!((num - ana).abs() < 1e-2, "dx[{idx}]: num {num} vs ana {ana}");
        }
        for idx in [0usize, 9, 26, 53] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64);
            let ana = dw.data()[idx] as f64;
            assert!((num - ana).abs() < 1e-2, "dw[{idx}]: num {num} vs ana {ana}");
        }
    }

    #[test]
    fn bias_gradient_sums_dy() {
        let p = ConvParams::new(1, 1, 0);
        let x = Tensor::full(Shape::nchw(2, 1, 2, 2), 1.0);
        let w = Tensor::full(Shape::nchw(1, 1, 1, 1), 1.0);
        let dy = Tensor::full(Shape::nchw(2, 1, 2, 2), 0.5);
        let mut dx = Tensor::zeros(x.shape());
        let (_, db) = backward_with_into(&x, &w, &dy, p, &ScratchPool::new(), &mut dx).unwrap();
        assert_eq!(db.data(), &[4.0]); // 8 positions * 0.5
    }

    /// Pins the dW merge order to gist-par's fixed pairwise tree. With
    /// per-image contributions [1e8, 1.0, -1e8] the tree computes
    /// ((1e8 + 1.0) + -1e8) = 0.0 in f32 (the 1.0 is absorbed), while any
    /// reordering — e.g. the old spawn-bucket merge, which on 2 workers
    /// produced (1e8 + -1e8) + 1.0 = 1.0 — yields a different bit pattern.
    #[test]
    fn backward_merge_order_is_fixed_tree() {
        let p = ConvParams::new(1, 1, 0);
        let x = Tensor::full(Shape::nchw(3, 1, 1, 1), 1.0);
        let w = Tensor::full(Shape::nchw(1, 1, 1, 1), 1.0);
        let dy = Tensor::from_vec(Shape::nchw(3, 1, 1, 1), vec![1e8, 1.0, -1e8]).unwrap();
        let scratch = ScratchPool::new();
        let grads = || {
            let mut dx = Tensor::zeros(x.shape());
            backward_with_into(&x, &w, &dy, p, &scratch, &mut dx).unwrap()
        };
        let (dw_ref, db_ref) = grads();
        assert_eq!(dw_ref.data(), &[0.0], "dw must follow the fixed pairwise tree");
        for threads in [1usize, 2, 3, 4] {
            let (dw, db) = gist_par::with_threads(threads, grads);
            assert_eq!(
                dw.data()[0].to_bits(),
                dw_ref.data()[0].to_bits(),
                "dw reduction order changed at {threads} threads"
            );
            assert_eq!(db.data()[0].to_bits(), db_ref.data()[0].to_bits());
        }
    }

    /// dW in both orientations against a per-element serial sum over the
    /// textbook columns, at every level: one image (no merge tree), terms
    /// in ascending position order from `0.0`, magnitudes mixed so any
    /// reordered sum would round differently.
    #[test]
    fn dw_bits_match_a_serial_reference_in_both_orientations() {
        // (in_c, out_c, kernel): ckk = 27 against out_c = 8 is transposed;
        // ckk = 8 against out_c = 12 is not.
        for (in_c, out_c, kernel, transposed) in [(3, 8, 3, true), (8, 12, 1, false)] {
            let (h, w) = (6, 7);
            let ckk = in_c * kernel * kernel;
            assert_eq!(dw_transposed(out_c, ckk), transposed, "{out_c} x {ckk}");
            let p = ConvParams::new(kernel, 1, kernel / 2);
            let mut x = crate::init::uniform(Shape::nchw(1, in_c, h, w), -1.0, 1.0, 21);
            let wt = crate::init::uniform(Shape::nchw(out_c, in_c, kernel, kernel), -1.0, 1.0, 22);
            let mut dy = crate::init::uniform(p.out_shape(x.shape(), out_c), -1.0, 1.0, 23);
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                *v *= [1.0, 1e6, 1e-6][i % 3];
            }
            for (i, v) in dy.data_mut().iter_mut().enumerate() {
                *v *= [1e-5, 1.0, 1e5, -3.0][i % 4];
            }
            let (oh, ow) = p.out_hw(h, w);
            let mut want = vec![0u32; out_c * ckk];
            for (cell, want) in want.iter_mut().enumerate() {
                let (k, j) = (cell / ckk, cell % ckk);
                let (ci, kh, kw) = (j / (kernel * kernel), j / kernel % kernel, j % kernel);
                let mut acc = 0.0f32;
                for (ohi, owi) in (0..oh * ow).map(|q| (q / ow, q % ow)) {
                    let ih = (ohi + kh) as isize - p.pad as isize;
                    let iw = (owi + kw) as isize - p.pad as isize;
                    let col = if ih >= 0 && ih < h as isize && iw >= 0 && iw < w as isize {
                        x.data()[(ci * h + ih as usize) * w + iw as usize]
                    } else {
                        0.0
                    };
                    acc += dy.data()[(k * oh + ohi) * ow + owi] * col;
                }
                *want = acc.to_bits();
            }
            for lvl in gist_simd::available_levels() {
                let mut dx = Tensor::zeros(x.shape());
                let mut dw = Tensor::full(wt.shape(), f32::NAN);
                let mut db = Tensor::zeros(Shape::vector(out_c));
                gist_simd::with_level(lvl, || {
                    backward_into(&x, &wt, &dy, p, &ScratchPool::new(), &mut dx, &mut dw, &mut db)
                })
                .unwrap();
                let got: Vec<u32> = dw.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{lvl}: dW of {out_c} x {ckk}");
            }
        }
    }

    /// `im2col_into` and `col2im_slice` move whole row slices; the
    /// references below visit one element at a time with signed bounds
    /// tests, in the same `(ci, kh, kw, ohi, owi)` order, so every cell of
    /// the column matrix and every accumulated `dx` sum must agree bit for
    /// bit — magnitudes are mixed so a reordered sum would round differently.
    #[test]
    fn im2col_and_col2im_match_per_element_reference() {
        for (kernel, stride, pad) in
            (0..27).map(|i| ([1, 3, 5][i / 9], [1, 2, 3][i / 3 % 3], [0, 1, 2][i % 3]))
        {
            let p = ConvParams::new(kernel, stride, pad);
            for (h, w) in [(5, 9), (8, 6), (7, 7)] {
                if !p.fits(h, w) {
                    continue;
                }
                let s = Shape::nchw(2, 3, h, w);
                let (oh, ow) = p.out_hw(h, w);
                let (c, len) = (s.c(), s.c() * kernel * kernel * oh * ow);
                let mut x =
                    crate::init::uniform(s, -1.0, 1.0, (kernel * 100 + stride * 10 + pad) as u64);
                for (i, v) in x.data_mut().iter_mut().enumerate() {
                    *v *= [1.0, 1e8, 1e-8, -3.0][i % 4];
                }
                let at = |ohi: usize, owi: usize, kh: usize, kw: usize| {
                    let ih = (ohi * stride + kh) as isize - pad as isize;
                    let iw = (owi * stride + kw) as isize - pad as isize;
                    let inside = ih >= 0 && ih < h as isize && iw >= 0 && iw < w as isize;
                    inside.then(|| ih as usize * w + iw as usize)
                };
                for n in 0..s.n() {
                    let xn = &x.data()[n * c * h * w..(n + 1) * c * h * w];
                    let mut cols = vec![f32::NAN; len];
                    im2col_into(&x, n, p, oh, ow, &mut cols);
                    let mut want_cols = vec![0.0f32; len];
                    let mut want_dx = vec![0.0f32; c * h * w];
                    for (i, want) in want_cols.iter_mut().enumerate() {
                        let (row, ohi, owi) = (i / (oh * ow), i / ow % oh, i % ow);
                        let (ci, kh, kw) =
                            (row / (kernel * kernel), row / kernel % kernel, row % kernel);
                        if let Some(idx) = at(ohi, owi, kh, kw) {
                            *want = xn[ci * h * w + idx];
                            // Scatter the lowered image straight back.
                            want_dx[ci * h * w + idx] += *want;
                        }
                    }
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&cols), bits(&want_cols), "im2col {p:?} on {h}x{w}");
                    let mut dx = vec![0.0f32; c * h * w];
                    col2im_slice(&cols, &mut dx, s, p, oh, ow);
                    assert_eq!(bits(&dx), bits(&want_dx), "col2im {p:?} on {h}x{w}");
                }
            }
        }
    }

    #[test]
    fn rejects_channel_mismatch() {
        let x = Tensor::zeros(Shape::nchw(1, 3, 4, 4));
        let w = Tensor::zeros(Shape::nchw(2, 4, 3, 3));
        let mut y = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        assert!(forward_into(&x, &w, None, ConvParams::new(3, 1, 1), &mut y).is_err());
    }

    /// Backward checks the weight against `x` and `p` as forward does, and
    /// before it touches `dx`: a weight with the wrong channel count, and
    /// one with the right element count but the wrong kernel.
    #[test]
    fn backward_rejects_a_weight_that_does_not_fit_x_and_p() {
        let p = ConvParams::new(3, 1, 1);
        let x = Tensor::full(Shape::nchw(1, 2, 4, 4), 1.0);
        for ws in [Shape::nchw(3, 1, 3, 3), Shape::nchw(3, 18, 1, 1)] {
            let w = Tensor::full(ws, 1.0);
            let mut y = Tensor::zeros(p.out_shape(x.shape(), 3));
            let err = forward_into(&x, &w, None, p, &mut y).unwrap_err();
            assert!(matches!(err, TensorError::UnsupportedShape(_)), "forward {ws}: {err:?}");
            let dy = Tensor::full(y.shape(), 1.0);
            let mut dx = Tensor::full(x.shape(), 7.0);
            let err = backward_with_into(&x, &w, &dy, p, &ScratchPool::new(), &mut dx).unwrap_err();
            assert!(matches!(err, TensorError::UnsupportedShape(_)), "backward {ws}: {err:?}");
            assert!(dx.data().iter().all(|&v| v == 7.0), "backward {ws} touched dx");
        }
    }

    #[test]
    fn conv_params_out_shape() {
        // AlexNet conv1: 224x224, k=11, s=4, pad=2 -> 55x55
        assert_eq!(ConvParams::new(11, 4, 2).out_hw(224, 224), (55, 55));
        // VGG conv: 3x3 s1 p1 preserves
        assert_eq!(ConvParams::new(3, 1, 1).out_hw(112, 112), (112, 112));
    }
}
