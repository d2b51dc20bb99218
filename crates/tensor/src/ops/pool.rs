//! Max and average pooling.
//!
//! The max-pool forward pass records, for every output element, the *window
//! index* (0..window_area) of the input element that won the max. This is the
//! paper's `Y→X map` (Section IV-A): with it, the backward pass needs neither
//! the stashed input `X` nor output `Y`, and each entry fits in 4 bits for
//! windows up to 3x3.

use crate::{Shape, Tensor, TensorError};

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

/// Max-pool forward pass writing into a preallocated output (e.g. an arena
/// view), returning the Y→X window-index map: for each output element, the
/// linear index within its pooling window (`row * window + col`) of the
/// selected input element — `< window * window`, so 4 bits for windows up
/// to 3x3. Every element of `y` is overwritten.
///
/// Padding positions are treated as `-inf` (never selected unless the whole
/// window is padding, which valid geometries do not produce).
///
/// # Errors
///
/// Returns [`TensorError::UnsupportedShape`] if the window does not fit, or
/// [`TensorError::ShapeMismatch`] if `y` has the wrong shape.
pub fn maxpool_forward_into(
    x: &Tensor,
    p: PoolParams,
    y: &mut Tensor,
) -> Result<Vec<u8>, TensorError> {
    let s = x.shape();
    check_geometry("maxpool", s, p)?;
    let out = p.out_shape(s);
    if y.shape() != out {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: out });
    }
    let mut argmax = vec![0u8; out.numel()];
    let mut oi = 0usize;
    for n in 0..s.n() {
        for c in 0..s.c() {
            for oh in 0..out.h() {
                for ow in 0..out.w() {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_widx = 0u8;
                    for kh in 0..p.window {
                        for kw in 0..p.window {
                            let ih = (oh * p.stride + kh) as isize - p.pad as isize;
                            let iw = (ow * p.stride + kw) as isize - p.pad as isize;
                            if ih < 0 || iw < 0 || ih >= s.h() as isize || iw >= s.w() as isize {
                                continue;
                            }
                            let v = x.at(n, c, ih as usize, iw as usize);
                            if v > best {
                                best = v;
                                best_widx = (kh * p.window + kw) as u8;
                            }
                        }
                    }
                    y.data_mut()[oi] = best;
                    argmax[oi] = best_widx;
                    oi += 1;
                }
            }
        }
    }
    Ok(argmax)
}

/// Max-pool backward pass using only the Y→X map (no stashed `X` or `Y`),
/// landing `dx` in a preallocated buffer (e.g. a planned arena side
/// region). Routes each `dY` element to the input position its window
/// index recorded; overlapping windows accumulate. Every element of `dx` is
/// overwritten — the buffer is zero-filled, then the scatter accumulates —
/// so a poisoned view is fine.
///
/// # Errors
///
/// Returns [`TensorError::UnsupportedShape`] if the window does not fit,
/// [`TensorError::ShapeMismatch`] if `dy` does not match the output shape
/// implied by `x_shape` and `p` or `dx` does not match `x_shape`, and
/// [`TensorError::LengthMismatch`] if `argmax` holds other than one entry
/// per output element — each leaving `dx` untouched.
pub fn maxpool_backward_into(
    x_shape: Shape,
    argmax: &[u8],
    dy: &Tensor,
    p: PoolParams,
    dx: &mut Tensor,
) -> Result<(), TensorError> {
    check_geometry("maxpool", x_shape, p)?;
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
    dx.data_mut().fill(0.0);
    let mut oi = 0usize;
    for n in 0..x_shape.n() {
        for c in 0..x_shape.c() {
            for oh in 0..out.h() {
                for ow in 0..out.w() {
                    let widx = argmax[oi] as usize;
                    let kh = widx / p.window;
                    let kw = widx % p.window;
                    let ih = (oh * p.stride + kh) as isize - p.pad as isize;
                    let iw = (ow * p.stride + kw) as isize - p.pad as isize;
                    if ih >= 0
                        && iw >= 0
                        && (ih as usize) < x_shape.h()
                        && (iw as usize) < x_shape.w()
                    {
                        let idx = x_shape.index(n, c, ih as usize, iw as usize);
                        dx.data_mut()[idx] += dy.data()[oi];
                    }
                    oi += 1;
                }
            }
        }
    }
    Ok(())
}

/// Average-pool forward pass (used by Inception and ResNet heads), writing
/// into a preallocated output (e.g. an arena view). Every element of `y`
/// is overwritten.
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
    let area = (p.window * p.window) as f32;
    let mut oi = 0usize;
    for n in 0..s.n() {
        for c in 0..s.c() {
            for oh in 0..out.h() {
                for ow in 0..out.w() {
                    let mut acc = 0.0;
                    for kh in 0..p.window {
                        for kw in 0..p.window {
                            let ih = (oh * p.stride + kh) as isize - p.pad as isize;
                            let iw = (ow * p.stride + kw) as isize - p.pad as isize;
                            if ih < 0 || iw < 0 || ih >= s.h() as isize || iw >= s.w() as isize {
                                continue;
                            }
                            acc += x.at(n, c, ih as usize, iw as usize);
                        }
                    }
                    y.data_mut()[oi] = acc / area;
                    oi += 1;
                }
            }
        }
    }
    Ok(())
}

/// Average-pool backward pass, distributing `dY / area` over each window,
/// landing `dx` in a preallocated buffer (e.g. a planned arena side
/// region). Every element of `dx` is overwritten — the buffer is
/// zero-filled, then the spread accumulates — so a poisoned view is fine.
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
    dx.data_mut().fill(0.0);
    let area = (p.window * p.window) as f32;
    let mut oi = 0usize;
    for n in 0..x_shape.n() {
        for c in 0..x_shape.c() {
            for oh in 0..out.h() {
                for ow in 0..out.w() {
                    let g = dy.data()[oi] / area;
                    for kh in 0..p.window {
                        for kw in 0..p.window {
                            let ih = (oh * p.stride + kh) as isize - p.pad as isize;
                            let iw = (ow * p.stride + kw) as isize - p.pad as isize;
                            if ih >= 0
                                && iw >= 0
                                && (ih as usize) < x_shape.h()
                                && (iw as usize) < x_shape.w()
                            {
                                let idx = x_shape.index(n, c, ih as usize, iw as usize);
                                dx.data_mut()[idx] += g;
                            }
                        }
                    }
                    oi += 1;
                }
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
