//! Max and average pooling.
//!
//! The max-pool forward pass records, for every output element, the *window
//! index* (0..window_area) of the input element that won the max. This is the
//! paper's `Y→X map` (Section IV-A): with it, the backward pass needs neither
//! the stashed input `X` nor output `Y`, and each entry fits in 4 bits for
//! windows up to 3x3 (the map is held one `u8` per entry, so windows up to
//! [`MAX_MAP_WINDOW`]).
//!
//! Pooling is pure data movement, so the kernels are written as plane
//! sweeps: one `(n, c)` plane at a time, slices hoisted out of the loops.
//! Planes run serially: the pass is memory-bound, and dispatching them
//! across threads read no faster in-step on two cores.
//! Max-pool backward finds a map entry's cell through a window table built
//! once per call instead of dividing by the window per element, routing
//! windows that lie wholly inside the input with no padding tests (only
//! `pad > 0` leaves border windows, which keep the checked path), and the
//! 2×2 stride-2 forward of VGG-style nets has its four compares written out.
//! Every other window — the generic max forward, both average kernels — is
//! scanned cell by cell with the padding test. Every
//! output is the textbook loop's, bit for bit: each
//! window is scanned in ascending `(kh, kw)` order with a strict `>` (the
//! first max wins, NaN is never selected, an all-NaN or all-padding window
//! gives `-inf` with entry 0), and a backward plane is zero-filled, then
//! accumulated into in ascending `(oh, ow)` order.

use crate::{Shape, Tensor, TensorError};
use std::ops::Range;

/// Largest max-pool window whose window indices all fit a `u8` map entry:
/// 16 × 16 = 256 indices, `0..=255`.
pub const MAX_MAP_WINDOW: usize = 16;

/// Geometry of a pooling operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolParams {
    /// Window height and width.
    pub window: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

impl PoolParams {
    /// Creates pooling parameters.
    pub fn new(window: usize, stride: usize, pad: usize) -> Self {
        PoolParams { window, stride, pad }
    }

    /// Whether this geometry yields an output on an `h × w` input: window
    /// and stride non-zero, window within the padded input. Everything that
    /// takes a `PoolParams` from outside checks this before calling
    /// [`PoolParams::out_hw`], which divides by the stride.
    pub fn fits(&self, h: usize, w: usize) -> bool {
        self.window != 0
            && self.stride != 0
            && h + 2 * self.pad >= self.window
            && w + 2 * self.pad >= self.window
    }

    /// Output spatial size for an input of `(h, w)`; requires
    /// [`PoolParams::fits`].
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.window) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.window) / self.stride + 1;
        (oh, ow)
    }

    /// Whether every window index fits one `u8` map entry: a max-pool
    /// window of at most [`MAX_MAP_WINDOW`]. Average pooling keeps no map
    /// and takes any window.
    pub fn map_fits(&self) -> bool {
        self.window <= MAX_MAP_WINDOW
    }

    /// Output shape for an NCHW input shape.
    pub fn out_shape(&self, x: Shape) -> Shape {
        let (oh, ow) = self.out_hw(x.h(), x.w());
        Shape::nchw(x.n(), x.c(), oh, ow)
    }
}

/// Rejects degenerate pooling geometry before any output-shape arithmetic.
fn check_geometry(kind: &str, s: Shape, p: PoolParams) -> Result<(), TensorError> {
    if !p.fits(s.h(), s.w()) {
        return Err(TensorError::UnsupportedShape(format!(
            "{kind} window {}x{} stride {} pad {} on {s}",
            p.window, p.window, p.stride, p.pad
        )));
    }
    Ok(())
}

/// [`check_geometry`] for max pooling, which also needs every window index
/// to fit a `u8` map entry.
fn check_max_geometry(s: Shape, p: PoolParams) -> Result<(), TensorError> {
    check_geometry("maxpool", s, p)?;
    if !p.map_fits() {
        return Err(TensorError::UnsupportedShape(format!(
            "maxpool window {}x{} on {s}: the Y→X map holds windows up to {MAX_MAP_WINDOW}x{MAX_MAP_WINDOW}",
            p.window, p.window
        )));
    }
    Ok(())
}

/// One pooling geometry laid over one `h × w` plane. Output rows
/// `inner_rows.0..inner_rows.1` and columns `inner_cols.0..inner_cols.1`
/// are the interior: their windows lie wholly inside the input (every
/// output, when `pad == 0`), so max-pool backward routes them unchecked.
#[derive(Clone, Copy)]
struct Plane {
    p: PoolParams,
    h: usize,
    w: usize,
    out_w: usize,
    inner_rows: (usize, usize),
    inner_cols: (usize, usize),
}

impl Plane {
    /// Requires [`PoolParams::fits`].
    fn new(s: Shape, p: PoolParams) -> Self {
        let (oh, ow) = p.out_hw(s.h(), s.w());
        // Window `o` starts at input `o·stride − pad`; it is interior iff
        // that is `>= 0` and the window ends by `len`.
        let interior = |len: usize, out: usize| {
            let lo = p.pad.div_ceil(p.stride).min(out);
            let hi =
                if len + p.pad >= p.window { (len + p.pad - p.window) / p.stride + 1 } else { 0 };
            (lo, hi.clamp(lo, out))
        };
        Plane {
            p,
            h: s.h(),
            w: s.w(),
            out_w: ow,
            inner_rows: interior(s.h(), oh),
            inner_cols: interior(s.w(), ow),
        }
    }

    /// Output row `oh`'s columns as three ascending runs — left border,
    /// interior, right border — each with whether it is interior. A row
    /// outside the interior rows is one border run.
    fn runs(&self, oh: usize) -> [(Range<usize>, bool); 3] {
        let inside = (self.inner_rows.0..self.inner_rows.1).contains(&oh);
        let (lo, hi) = if inside { self.inner_cols } else { (self.out_w, self.out_w) };
        [(0..lo, false), (lo..hi, true), (hi..self.out_w, false)]
    }

    /// Plane offset of the top-left cell of the interior window `(oh, ow)`.
    fn origin(&self, oh: usize, ow: usize) -> usize {
        (oh * self.p.stride - self.p.pad) * self.w + ow * self.p.stride - self.p.pad
    }

    /// Plane offset of cell `(kh, kw)` of window `(oh, ow)`, or `None` where
    /// it is padding.
    fn cell(&self, oh: usize, ow: usize, kh: usize, kw: usize) -> Option<usize> {
        let (ih, iw) = (oh * self.p.stride + kh, ow * self.p.stride + kw);
        let pad = self.p.pad;
        ((pad..self.h + pad).contains(&ih) && (pad..self.w + pad).contains(&iw))
            .then(|| (ih - pad) * self.w + iw - pad)
    }

    /// Calls `f(window_index, plane_offset)` for every non-padding cell of
    /// window `(oh, ow)` in ascending `(kh, kw)` order.
    fn for_cells(&self, oh: usize, ow: usize, mut f: impl FnMut(usize, usize)) {
        let k = self.p.window;
        for kh in 0..k {
            for kw in 0..k {
                if let Some(at) = self.cell(oh, ow, kh, kw) {
                    f(kh * k + kw, at);
                }
            }
        }
    }

    /// Max-pools one plane `x` into `y` and its map.
    fn max_forward(&self, x: &[f32], y: &mut [f32], map: &mut [u8]) {
        if self.p == PoolParams::new(2, 2, 0) {
            return max_forward_2x2s2(x, self.w, y, map);
        }
        let rows = y.chunks_exact_mut(self.out_w).zip(map.chunks_exact_mut(self.out_w));
        for (oh, (yr, mr)) in rows.enumerate() {
            for (ow, (yv, mv)) in yr.iter_mut().zip(mr.iter_mut()).enumerate() {
                let (mut best, mut widx) = (f32::NEG_INFINITY, 0);
                self.for_cells(oh, ow, |i, at| {
                    if x[at] > best {
                        best = x[at];
                        widx = i;
                    }
                });
                *yv = best;
                // `map_fits`: every window index is < 256.
                *mv = widx as u8;
            }
        }
    }

    /// Routes one plane's `dy` into `dx` through its map, `taps[e]` being
    /// entry `e`'s `(kh, kw, kh·w + kw)`.
    fn max_backward(&self, map: &[u8], dy: &[f32], taps: &[Tap; 256], dx: &mut [f32]) {
        dx.fill(0.0);
        let rows = map.chunks_exact(self.out_w).zip(dy.chunks_exact(self.out_w));
        for (oh, (mr, dr)) in rows.enumerate() {
            for (run, interior) in self.runs(oh) {
                // An empty interior run has no origin to compute.
                if interior && !run.is_empty() {
                    let mut o = self.origin(oh, run.start);
                    for (&e, &d) in mr[run.clone()].iter().zip(&dr[run]) {
                        dx[o + taps[usize::from(e)].2] += d;
                        o += self.p.stride;
                    }
                } else {
                    for ow in run {
                        let (kh, kw, _) = taps[usize::from(mr[ow])];
                        if let Some(at) = self.cell(oh, ow, kh, kw) {
                            dx[at] += dr[ow];
                        }
                    }
                }
            }
        }
    }
}

/// A max-pool window index's `(kh, kw)` and its plane offset `kh·w + kw`
/// from the window's origin.
type Tap = (usize, usize, usize);

/// The 2×2 stride-2 max-pool forward with its four compares written out,
/// in the generic scan's order and with its strict `>`.
fn max_forward_2x2s2(x: &[f32], w: usize, y: &mut [f32], map: &mut [u8]) {
    let out_w = w / 2;
    let rows = y.chunks_exact_mut(out_w).zip(map.chunks_exact_mut(out_w));
    for ((yr, mr), pair) in rows.zip(x.chunks_exact(2 * w)) {
        let (top, bottom) = pair.split_at(w);
        let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
        for ((yv, mv), (t, b)) in yr.iter_mut().zip(mr.iter_mut()).zip(windows) {
            let (mut best, mut widx) = (f32::NEG_INFINITY, 0);
            for (i, v) in [t[0], t[1], b[0], b[1]].into_iter().enumerate() {
                if v > best {
                    best = v;
                    widx = i as u8;
                }
            }
            *yv = best;
            *mv = widx;
        }
    }
}

/// The element ranges of `count` consecutive planes of `len` elements each.
fn planes(count: usize, len: usize) -> impl Iterator<Item = Range<usize>> {
    (0..count).map(move |i| i * len..(i + 1) * len)
}

/// Max-pool forward pass writing into a preallocated output (e.g. an arena
/// view), returning the Y→X window-index map: for each output element, the
/// linear index within its pooling window (`row * window + col`) of the
/// selected input element — `< window * window`, so 4 bits for windows up
/// to 3x3. Every element of `y` is overwritten.
///
/// Padding positions are treated as `-inf`: a window whose cells are all
/// padding, `-inf` or NaN yields `-inf` with index 0.
///
/// # Errors
///
/// Returns [`TensorError::UnsupportedShape`] if the window does not fit or
/// is wider than [`MAX_MAP_WINDOW`], or [`TensorError::ShapeMismatch`] if
/// `y` has the wrong shape.
pub fn maxpool_forward_into(
    x: &Tensor,
    p: PoolParams,
    y: &mut Tensor,
) -> Result<Vec<u8>, TensorError> {
    let s = x.shape();
    check_max_geometry(s, p)?;
    let out = p.out_shape(s);
    if y.shape() != out {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: out });
    }
    let g = Plane::new(s, p);
    let mut argmax = vec![0u8; out.numel()];
    let (x, y) = (x.data(), y.data_mut());
    let count = s.n() * s.c();
    for (xi, yi) in planes(count, s.h() * s.w()).zip(planes(count, out.h() * out.w())) {
        g.max_forward(&x[xi], &mut y[yi.clone()], &mut argmax[yi]);
    }
    Ok(argmax)
}

/// Max-pool backward pass using only the Y→X map (no stashed `X` or `Y`),
/// landing `dx` in a preallocated buffer (e.g. a planned arena side
/// region). Routes each `dY` element to the input position its window
/// index recorded; overlapping windows accumulate. Every element of `dx` is
/// overwritten — each plane is zero-filled, then the scatter accumulates in
/// ascending `(oh, ow)` order — so a poisoned view is fine. An entry naming
/// a padding cell of a border window is dropped.
///
/// # Errors
///
/// Returns [`TensorError::UnsupportedShape`] if the window does not fit or
/// is wider than [`MAX_MAP_WINDOW`], [`TensorError::ShapeMismatch`] if `dy`
/// does not match the output shape implied by `x_shape` and `p` or `dx`
/// does not match `x_shape`, [`TensorError::LengthMismatch`] if `argmax`
/// holds other than one entry per output element, and
/// [`TensorError::IndexOutOfRange`] if an entry is not below
/// `window * window` — each leaving `dx` untouched.
pub fn maxpool_backward_into(
    x_shape: Shape,
    argmax: &[u8],
    dy: &Tensor,
    p: PoolParams,
    dx: &mut Tensor,
) -> Result<(), TensorError> {
    check_max_geometry(x_shape, p)?;
    let out = p.out_shape(x_shape);
    if dy.shape() != out {
        return Err(TensorError::ShapeMismatch { left: dy.shape(), right: out });
    }
    if dx.shape() != x_shape {
        return Err(TensorError::ShapeMismatch { left: dx.shape(), right: x_shape });
    }
    if argmax.len() != out.numel() {
        return Err(TensorError::LengthMismatch { expected: out.numel(), actual: argmax.len() });
    }
    let area = p.window * p.window;
    // A fold, not `Iterator::max`, so the scan vectorises: it runs on
    // every call.
    if usize::from(argmax.iter().fold(0, |m, &e| m.max(e))) >= area {
        let at = argmax.iter().position(|&e| usize::from(e) >= area).unwrap_or_default();
        return Err(TensorError::IndexOutOfRange { at, index: argmax[at].into(), bound: area });
    }
    let g = Plane::new(x_shape, p);
    // Window index → its (row, col) in the window and its plane offset from
    // the window's origin, so no entry is divided.
    let mut taps: [Tap; 256] = [(0, 0, 0); MAX_MAP_WINDOW * MAX_MAP_WINDOW];
    for (i, tap) in taps[..area].iter_mut().enumerate() {
        let (kh, kw) = (i / p.window, i % p.window);
        *tap = (kh, kw, kh * x_shape.w() + kw);
    }
    let (dy, dx) = (dy.data(), dx.data_mut());
    let count = x_shape.n() * x_shape.c();
    for (xi, yi) in planes(count, x_shape.h() * x_shape.w()).zip(planes(count, out.h() * out.w())) {
        g.max_backward(&argmax[yi.clone()], &dy[yi], &taps, &mut dx[xi]);
    }
    Ok(())
}

/// Average-pool forward pass (used by Inception and ResNet heads), writing
/// into a preallocated output (e.g. an arena view). Every element of `y`
/// is overwritten: each window's non-padding cells are summed from `0.0`
/// in ascending `(kh, kw)` order and divided by the full window area.
///
/// # Errors
///
/// Returns [`TensorError::UnsupportedShape`] if the window does not fit, or
/// a shape mismatch on `y`.
pub fn avgpool_forward_into(x: &Tensor, p: PoolParams, y: &mut Tensor) -> Result<(), TensorError> {
    let s = x.shape();
    check_geometry("avgpool", s, p)?;
    let out = p.out_shape(s);
    if y.shape() != out {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: out });
    }
    let g = Plane::new(s, p);
    let area = (p.window * p.window) as f32;
    let (x, y) = (x.data(), y.data_mut());
    let count = s.n() * s.c();
    for (xi, yi) in planes(count, s.h() * s.w()).zip(planes(count, out.h() * out.w())) {
        let xp = &x[xi];
        for (oh, yr) in y[yi].chunks_exact_mut(g.out_w).enumerate() {
            for (ow, yv) in yr.iter_mut().enumerate() {
                let mut acc = 0.0;
                g.for_cells(oh, ow, |_, at| acc += xp[at]);
                *yv = acc / area;
            }
        }
    }
    Ok(())
}

/// Average-pool backward pass, distributing `dY / area` over each window,
/// landing `dx` in a preallocated buffer (e.g. a planned arena side
/// region). Every element of `dx` is overwritten — each plane is
/// zero-filled, then the spread accumulates in ascending `(oh, ow, kh, kw)`
/// order — so a poisoned view is fine.
///
/// # Errors
///
/// Returns [`TensorError::UnsupportedShape`] if the window does not fit, or
/// [`TensorError::ShapeMismatch`] if `dy` does not match the implied output
/// shape or `dx` does not match `x_shape`.
pub fn avgpool_backward_into(
    x_shape: Shape,
    dy: &Tensor,
    p: PoolParams,
    dx: &mut Tensor,
) -> Result<(), TensorError> {
    check_geometry("avgpool", x_shape, p)?;
    let out = p.out_shape(x_shape);
    if dy.shape() != out {
        return Err(TensorError::ShapeMismatch { left: dy.shape(), right: out });
    }
    if dx.shape() != x_shape {
        return Err(TensorError::ShapeMismatch { left: dx.shape(), right: x_shape });
    }
    let g = Plane::new(x_shape, p);
    let area = (p.window * p.window) as f32;
    let (dy, dx) = (dy.data(), dx.data_mut());
    let count = x_shape.n() * x_shape.c();
    for (xi, yi) in planes(count, x_shape.h() * x_shape.w()).zip(planes(count, out.h() * out.w())) {
        let dxp = &mut dx[xi];
        dxp.fill(0.0);
        for (oh, dr) in dy[yi].chunks_exact(g.out_w).enumerate() {
            for (ow, &d) in dr.iter().enumerate() {
                let share = d / area;
                g.for_cells(oh, ow, |_, at| dxp[at] += share);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t4(h: usize, w: usize, v: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::nchw(1, 1, h, w), v).unwrap()
    }

    #[test]
    fn maxpool_2x2_stride2() {
        let x = t4(4, 4, (0..16).map(|i| i as f32).collect());
        let mut y = Tensor::full(Shape::nchw(1, 1, 2, 2), f32::NAN);
        let argmax = maxpool_forward_into(&x, PoolParams::new(2, 2, 0), &mut y).unwrap();
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        // max is always bottom-right of the window: index 3
        assert_eq!(argmax, vec![3, 3, 3, 3]);
    }

    #[test]
    fn maxpool_backward_routes_by_argmax() {
        let x = t4(2, 2, vec![1.0, 9.0, 3.0, 2.0]);
        let p = PoolParams::new(2, 2, 0);
        let mut y = Tensor::full(Shape::nchw(1, 1, 1, 1), f32::NAN);
        let argmax = maxpool_forward_into(&x, p, &mut y).unwrap();
        assert_eq!(y.data(), &[9.0]);
        assert_eq!(argmax, vec![1]); // top-right
        let dy = t4(1, 1, vec![5.0]);
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        maxpool_backward_into(x.shape(), &argmax, &dy, p, &mut dx).unwrap();
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_overlapping_windows_accumulate() {
        // 3x3 input, window 2, stride 1 -> 2x2 output; the centre-ish max is
        // shared by multiple windows.
        let x = t4(3, 3, vec![0.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0]);
        let p = PoolParams::new(2, 1, 0);
        let mut y = Tensor::full(Shape::nchw(1, 1, 2, 2), f32::NAN);
        let argmax = maxpool_forward_into(&x, p, &mut y).unwrap();
        assert_eq!(y.data(), &[9.0, 9.0, 9.0, 9.0]);
        let dy = t4(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        maxpool_backward_into(x.shape(), &argmax, &dy, p, &mut dx).unwrap();
        assert_eq!(dx.at(0, 0, 1, 1), 4.0);
        assert_eq!(dx.data().iter().sum::<f32>(), 4.0);
    }

    /// A map with other than one entry per output element is a typed error
    /// that leaves `dx` untouched — never an out-of-bounds index.
    #[test]
    fn maxpool_backward_rejects_wrong_length_maps() {
        let p = PoolParams::new(2, 2, 0);
        let x_shape = Shape::nchw(1, 2, 4, 4);
        let dy = Tensor::full(p.out_shape(x_shape), 1.0);
        for len in [0, 7, 9] {
            let mut dx = Tensor::full(x_shape, 7.5);
            let r = maxpool_backward_into(x_shape, &vec![0; len], &dy, p, &mut dx);
            assert_eq!(r, Err(TensorError::LengthMismatch { expected: 8, actual: len }));
            assert!(dx.data().iter().all(|&v| v == 7.5), "len {len}: dx was written");
        }
    }

    /// An entry at or past `window²` names no cell of its window: a typed
    /// error that leaves `dx` untouched, never a cell of the next window.
    #[test]
    fn maxpool_backward_rejects_out_of_window_entries() {
        let p = PoolParams::new(2, 2, 0);
        let x_shape = Shape::nchw(1, 1, 4, 4);
        let dy = Tensor::full(p.out_shape(x_shape), 1.0);
        for bad in [4u8, 255] {
            let mut dx = Tensor::full(x_shape, 7.5);
            let r = maxpool_backward_into(x_shape, &[0, 3, bad, 1], &dy, p, &mut dx);
            assert_eq!(r, Err(TensorError::IndexOutOfRange { at: 2, index: bad.into(), bound: 4 }));
            assert!(dx.data().iter().all(|&v| v == 7.5), "entry {bad}: dx was written");
        }
    }

    /// Window 16 is the widest whose indices fit a `u8` (its last is 255);
    /// at 17 the max at (15, 1) would be index 256 and wrap to 0, so both
    /// max-pool kernels reject it. Average pooling keeps no map.
    #[test]
    fn maxpool_window_is_bounded_by_the_u8_map() {
        let s = Shape::nchw(1, 1, 17, 17);
        let mut x = Tensor::full(s, -1.0);
        x.set(0, 0, 15, 1, 5.0);
        let p16 = PoolParams::new(MAX_MAP_WINDOW, 1, 0);
        let mut y = Tensor::full(p16.out_shape(s), f32::NAN);
        let map = maxpool_forward_into(&x, p16, &mut y).unwrap();
        assert_eq!(map[0], (15 * 16 + 1) as u8);
        let mut dx = Tensor::full(s, f32::NAN);
        maxpool_backward_into(s, &map, &Tensor::full(y.shape(), 1.0), p16, &mut dx).unwrap();
        assert_eq!(dx.at(0, 0, 15, 1), 4.0, "every window's max is the one cell");

        let p17 = PoolParams::new(17, 1, 0);
        let mut y = Tensor::full(p17.out_shape(s), f32::NAN);
        let unsupported = |r: Result<(), TensorError>| {
            assert!(matches!(r, Err(TensorError::UnsupportedShape(_))), "{r:?}");
        };
        unsupported(maxpool_forward_into(&x, p17, &mut y).map(drop));
        let mut dx = Tensor::full(s, 7.5);
        unsupported(maxpool_backward_into(s, &[0], &y, p17, &mut dx));
        assert!(dx.data().iter().all(|&v| v == 7.5));
        avgpool_forward_into(&x, p17, &mut y).unwrap();
        avgpool_backward_into(s, &y, p17, &mut dx).unwrap();
    }

    #[test]
    fn argmax_fits_in_4_bits_for_3x3_windows() {
        let x = crate::init::uniform(Shape::nchw(2, 3, 9, 9), -1.0, 1.0, 3);
        let p = PoolParams::new(3, 2, 0);
        let mut y = Tensor::zeros(p.out_shape(x.shape()));
        let argmax = maxpool_forward_into(&x, p, &mut y).unwrap();
        assert!(argmax.iter().all(|&a| a < 9), "3x3 window indices < 9 < 16");
    }

    #[test]
    fn maxpool_with_padding() {
        let x = t4(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        // window 3 pad 1 stride 2 -> 1x1 output covering everything
        let mut y = Tensor::full(Shape::nchw(1, 1, 1, 1), f32::NAN);
        maxpool_forward_into(&x, PoolParams::new(3, 2, 1), &mut y).unwrap();
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn avgpool_roundtrip() {
        let x = t4(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let p = PoolParams::new(2, 2, 0);
        let mut y = Tensor::full(Shape::nchw(1, 1, 1, 1), f32::NAN);
        avgpool_forward_into(&x, p, &mut y).unwrap();
        assert_eq!(y.data(), &[2.5]);
        let dy = t4(1, 1, vec![4.0]);
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        avgpool_backward_into(x.shape(), &dy, p, &mut dx).unwrap();
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let x = t4(2, 2, vec![0.0; 4]);
        let mut y = Tensor::zeros(x.shape());
        assert!(maxpool_forward_into(&x, PoolParams::new(5, 2, 0), &mut y).is_err());
        assert!(avgpool_forward_into(&x, PoolParams::new(0, 1, 0), &mut y).is_err());
    }

    #[test]
    fn out_shape_math() {
        let p = PoolParams::new(3, 2, 0);
        assert_eq!(p.out_hw(224, 224), (111, 111));
        let p2 = PoolParams::new(2, 2, 0);
        assert_eq!(p2.out_hw(224, 224), (112, 112));
    }
}
