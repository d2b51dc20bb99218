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

/// Result of a max-pool forward pass: the output and the Y→X window-index map.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPoolOutput {
    /// Pooled output `Y`.
    pub y: Tensor,
    /// For each output element, the linear index within its pooling window
    /// (`row * window + col`) of the selected input element. One entry per
    /// output element; values are `< window * window` so they fit in 4 bits
    /// for windows up to 3x3.
    pub argmax: Vec<u8>,
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

/// Max-pool forward pass.
///
/// Padding positions are treated as `-inf` (never selected unless the whole
/// window is padding, which valid geometries do not produce).
///
/// # Errors
///
/// Returns [`TensorError::UnsupportedShape`] if the window does not fit.
pub fn maxpool_forward(x: &Tensor, p: PoolParams) -> Result<MaxPoolOutput, TensorError> {
    check_geometry("maxpool", x.shape(), p)?;
    let mut y = Tensor::zeros(p.out_shape(x.shape()));
    let argmax = maxpool_forward_into(x, p, &mut y)?;
    Ok(MaxPoolOutput { y, argmax })
}

/// Max-pool forward pass writing into a preallocated output (e.g. an arena
/// view), returning the Y→X window-index map. Every element of `y` is
/// overwritten; bit-exact with [`maxpool_forward`].
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

/// Max-pool backward pass using only the Y→X map (no stashed `X` or `Y`).
///
/// Routes each `dY` element to the input position its window index recorded.
/// Overlapping windows accumulate.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `dy` does not match the output
/// shape implied by `x_shape` and `p`.
pub fn maxpool_backward(
    x_shape: Shape,
    argmax: &[u8],
    dy: &Tensor,
    p: PoolParams,
) -> Result<Tensor, TensorError> {
    let mut dx = Tensor::zeros(x_shape);
    maxpool_backward_into(x_shape, argmax, dy, p, &mut dx)?;
    Ok(dx)
}

/// [`maxpool_backward`] landing `dx` in a preallocated buffer (e.g. a
/// planned arena side region). Every element of `dx` is overwritten — the
/// buffer is zero-filled, then the scatter accumulates — so a poisoned
/// view is fine. Bit-exact with [`maxpool_backward`].
///
/// # Errors
///
/// As for [`maxpool_backward`], plus a shape mismatch on `dx`.
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

/// Average-pool forward pass (used by Inception and ResNet heads).
///
/// # Errors
///
/// Returns [`TensorError::UnsupportedShape`] if the window does not fit.
pub fn avgpool_forward(x: &Tensor, p: PoolParams) -> Result<Tensor, TensorError> {
    check_geometry("avgpool", x.shape(), p)?;
    let mut y = Tensor::zeros(p.out_shape(x.shape()));
    avgpool_forward_into(x, p, &mut y)?;
    Ok(y)
}

/// Average-pool forward pass writing into a preallocated output (e.g. an
/// arena view). Every element of `y` is overwritten; bit-exact with
/// [`avgpool_forward`].
///
/// # Errors
///
/// As for [`avgpool_forward`], plus a shape mismatch on `y`.
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

/// Average-pool backward pass: distributes `dY / area` over each window.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `dy` does not match the implied
/// output shape.
pub fn avgpool_backward(x_shape: Shape, dy: &Tensor, p: PoolParams) -> Result<Tensor, TensorError> {
    let mut dx = Tensor::zeros(x_shape);
    avgpool_backward_into(x_shape, dy, p, &mut dx)?;
    Ok(dx)
}

/// [`avgpool_backward`] landing `dx` in a preallocated buffer (e.g. a
/// planned arena side region). Every element of `dx` is overwritten — the
/// buffer is zero-filled, then the spread accumulates — so a poisoned view
/// is fine. Bit-exact with [`avgpool_backward`].
///
/// # Errors
///
/// As for [`avgpool_backward`], plus a shape mismatch on `dx`.
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
        let out = maxpool_forward(&x, PoolParams::new(2, 2, 0)).unwrap();
        assert_eq!(out.y.data(), &[5.0, 7.0, 13.0, 15.0]);
        // max is always bottom-right of the window: index 3
        assert_eq!(out.argmax, vec![3, 3, 3, 3]);
    }

    #[test]
    fn maxpool_backward_routes_by_argmax() {
        let x = t4(2, 2, vec![1.0, 9.0, 3.0, 2.0]);
        let p = PoolParams::new(2, 2, 0);
        let out = maxpool_forward(&x, p).unwrap();
        assert_eq!(out.y.data(), &[9.0]);
        assert_eq!(out.argmax, vec![1]); // top-right
        let dy = t4(1, 1, vec![5.0]);
        let dx = maxpool_backward(x.shape(), &out.argmax, &dy, p).unwrap();
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_overlapping_windows_accumulate() {
        // 3x3 input, window 2, stride 1 -> 2x2 output; the centre-ish max is
        // shared by multiple windows.
        let x = t4(3, 3, vec![0.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0]);
        let p = PoolParams::new(2, 1, 0);
        let out = maxpool_forward(&x, p).unwrap();
        assert_eq!(out.y.data(), &[9.0, 9.0, 9.0, 9.0]);
        let dy = t4(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let dx = maxpool_backward(x.shape(), &out.argmax, &dy, p).unwrap();
        assert_eq!(dx.at(0, 0, 1, 1), 4.0);
        assert_eq!(dx.data().iter().sum::<f32>(), 4.0);
    }

    #[test]
    fn argmax_fits_in_4_bits_for_3x3_windows() {
        let x = crate::init::uniform(Shape::nchw(2, 3, 9, 9), -1.0, 1.0, 3);
        let out = maxpool_forward(&x, PoolParams::new(3, 2, 0)).unwrap();
        assert!(out.argmax.iter().all(|&a| a < 9), "3x3 window indices < 9 < 16");
    }

    #[test]
    fn maxpool_with_padding() {
        let x = t4(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        // window 3 pad 1 stride 2 -> 1x1 output covering everything
        let out = maxpool_forward(&x, PoolParams::new(3, 2, 1)).unwrap();
        assert_eq!(out.y.data(), &[4.0]);
    }

    #[test]
    fn avgpool_roundtrip() {
        let x = t4(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let p = PoolParams::new(2, 2, 0);
        let y = avgpool_forward(&x, p).unwrap();
        assert_eq!(y.data(), &[2.5]);
        let dy = t4(1, 1, vec![4.0]);
        let dx = avgpool_backward(x.shape(), &dy, p).unwrap();
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let x = t4(2, 2, vec![0.0; 4]);
        assert!(maxpool_forward(&x, PoolParams::new(5, 2, 0)).is_err());
        assert!(avgpool_forward(&x, PoolParams::new(0, 1, 0)).is_err());
    }

    #[test]
    fn out_shape_math() {
        let p = PoolParams::new(3, 2, 0);
        assert_eq!(p.out_hw(224, 224), (111, 111));
        let p2 = PoolParams::new(2, 2, 0);
        assert_eq!(p2.out_hw(224, 224), (112, 112));
    }
}
