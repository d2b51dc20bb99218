//! Local Response Normalization (cross-channel), as used by the original
//! AlexNet and NiN.
//!
//! `y[c] = x[c] / (k + alpha/size * sum_{c' in win(c)} x[c']^2)^beta` with a
//! channel window of `size` centred on `c`.

use crate::{Tensor, TensorError};
use gist_par::parallel_chunks_mut;

/// LRN hyperparameters (AlexNet defaults: size 5, alpha 1e-4, beta 0.75,
/// k 2.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrnParams {
    /// Cross-channel window size.
    pub size: usize,
    /// Scale of the squared-sum term.
    pub alpha: f32,
    /// Exponent.
    pub beta: f32,
    /// Additive constant.
    pub k: f32,
}

impl LrnParams {
    /// AlexNet's published constants.
    pub fn alexnet() -> Self {
        LrnParams { size: 5, alpha: 1e-4, beta: 0.75, k: 2.0 }
    }
}

fn window(c: usize, channels: usize, size: usize) -> (usize, usize) {
    let half = size / 2;
    let lo = c.saturating_sub(half);
    let hi = (c + half).min(channels - 1);
    (lo, hi)
}

/// Per-position squared-sum denominators `s[c] = k + alpha/size * sum x^2`.
fn denominators(x: &Tensor, p: LrnParams) -> Vec<f32> {
    let s = x.shape();
    let mut den = vec![0.0f32; x.numel()];
    let per = s.c() * s.h() * s.w();
    // Each position's window sum is independent; images are contiguous NCHW
    // slices, so fan the minibatch out over the pool with disjoint writes.
    parallel_chunks_mut(&mut den, per, |n, img| {
        for h in 0..s.h() {
            for w in 0..s.w() {
                for c in 0..s.c() {
                    let (lo, hi) = window(c, s.c(), p.size);
                    let mut acc = 0.0;
                    for cc in lo..=hi {
                        let v = x.at(n, cc, h, w);
                        acc += v * v;
                    }
                    img[(c * s.h() + h) * s.w() + w] = p.k + p.alpha / p.size as f32 * acc;
                }
            }
        }
    });
    den
}

/// Forward pass writing into a preallocated output (e.g. an arena view).
/// Every element of `y` is overwritten.
///
/// # Errors
///
/// Returns an error if `size` is zero or the input has no channels, or on
/// a shape mismatch on `y`.
pub fn forward_into(x: &Tensor, p: LrnParams, y: &mut Tensor) -> Result<(), TensorError> {
    if p.size == 0 || x.shape().c() == 0 {
        return Err(TensorError::UnsupportedShape(format!("lrn size {} on {}", p.size, x.shape())));
    }
    if y.shape() != x.shape() {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: x.shape() });
    }
    let den = denominators(x, p);
    parallel_chunks_mut(y.data_mut(), 1 << 14, |ci, chunk| {
        let off = ci * (1 << 14);
        for (j, v) in chunk.iter_mut().enumerate() {
            *v = x.data()[off + j] / den[off + j].powf(p.beta);
        }
    });
    Ok(())
}

/// Backward pass from the stashed input, landing `dx` in a preallocated
/// buffer (e.g. a planned arena side region). Every element of `dx` is
/// overwritten.
///
/// `dx[i] = dy[i]*s[i]^-beta - (2*alpha*beta/size) * x[i] *
///          sum_{c in win(i)} dy[c]*y[c]/s[c]`
///
/// # Errors
///
/// Returns an error on shape mismatch, `dx`'s included.
pub fn backward_into(
    x: &Tensor,
    dy: &Tensor,
    p: LrnParams,
    dx: &mut Tensor,
) -> Result<(), TensorError> {
    let s = x.shape();
    if dy.shape() != s {
        return Err(TensorError::ShapeMismatch { left: dy.shape(), right: s });
    }
    if dx.shape() != s {
        return Err(TensorError::ShapeMismatch { left: dx.shape(), right: s });
    }
    let den = denominators(x, p);
    // ratio[c] = dy[c]*y[c]/s[c] = dy[c]*x[c]*s[c]^(-beta-1)
    let mut ratio = vec![0.0f32; x.numel()];
    parallel_chunks_mut(&mut ratio, 1 << 14, |ci, chunk| {
        let off = ci * (1 << 14);
        for (j, v) in chunk.iter_mut().enumerate() {
            let i = off + j;
            *v = dy.data()[i] * x.data()[i] * den[i].powf(-p.beta - 1.0);
        }
    });
    let scale = 2.0 * p.alpha * p.beta / p.size as f32;
    let per = s.c() * s.h() * s.w();
    parallel_chunks_mut(dx.data_mut(), per, |n, img| {
        for h in 0..s.h() {
            for w in 0..s.w() {
                for c in 0..s.c() {
                    let i = s.index(n, c, h, w);
                    let (lo, hi) = window(c, s.c(), p.size);
                    let mut acc = 0.0;
                    for cc in lo..=hi {
                        acc += ratio[s.index(n, cc, h, w)];
                    }
                    img[(c * s.h() + h) * s.w() + w] =
                        dy.data()[i] * den[i].powf(-p.beta) - scale * x.data()[i] * acc;
                }
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn forward_normalizes_toward_smaller_magnitudes() {
        let x = Tensor::full(Shape::nchw(1, 8, 2, 2), 10.0);
        let mut y = Tensor::full(x.shape(), f32::NAN);
        forward_into(&x, LrnParams::alexnet(), &mut y).unwrap();
        assert!(y.data().iter().all(|&v| v > 0.0 && v < 10.0));
    }

    #[test]
    fn small_inputs_pass_nearly_unchanged() {
        // With tiny activations the denominator is ~k^beta, a constant.
        let x = Tensor::full(Shape::nchw(1, 4, 1, 1), 1e-3);
        let p = LrnParams::alexnet();
        let mut y = Tensor::full(x.shape(), f32::NAN);
        forward_into(&x, p, &mut y).unwrap();
        let expected = 1e-3 / p.k.powf(p.beta);
        for &v in y.data() {
            assert!((v - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn gradient_check() {
        let p = LrnParams { size: 3, alpha: 0.1, beta: 0.75, k: 1.0 };
        let x = crate::init::uniform(Shape::nchw(1, 5, 2, 2), 0.2, 1.5, 77);
        let mut y = Tensor::zeros(x.shape());
        forward_into(&x, p, &mut y).unwrap();
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        backward_into(&x, &y, p, &mut dx).unwrap(); // loss = sum(y^2)/2
        let loss = |x: &Tensor| -> f64 {
            let mut y = Tensor::zeros(x.shape());
            forward_into(x, p, &mut y).unwrap();
            y.data().iter().map(|&v| (v as f64).powi(2) / 2.0).sum()
        };
        let eps = 1e-3f32;
        for idx in [0usize, 4, 9, 13, 19] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps as f64);
            let ana = dx.data()[idx] as f64;
            assert!((num - ana).abs() < 2e-3, "dx[{idx}]: {num} vs {ana}");
        }
    }

    #[test]
    fn window_clamps_at_channel_edges() {
        assert_eq!(window(0, 8, 5), (0, 2));
        assert_eq!(window(4, 8, 5), (2, 6));
        assert_eq!(window(7, 8, 5), (5, 7));
    }

    #[test]
    fn rejects_zero_window() {
        let x = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
        let p = LrnParams { size: 0, alpha: 1.0, beta: 1.0, k: 1.0 };
        assert!(forward_into(&x, p, &mut x.clone()).is_err());
    }
}
