//! Spatial batch normalization (per-channel over N×H×W).
//!
//! ResNet interleaves batch-norm between convolutions and ReLUs. The paper
//! notes that recomputation (prior work) remains applicable to cheap layers
//! like batch normalization and composes with Gist; here we implement the
//! standard stash-based backward pass.

use crate::{Shape, Tensor, TensorError};
use gist_par::{parallel_chunks_mut, parallel_map};

/// Saved statistics from the forward pass needed by the backward pass.
#[derive(Debug, Clone)]
pub struct BatchNormCache {
    /// Per-channel batch mean.
    pub mean: Vec<f32>,
    /// Per-channel inverse standard deviation.
    pub inv_std: Vec<f32>,
}

/// Forward pass with learned per-channel scale (`gamma`) and shift
/// (`beta`), writing into a preallocated output (e.g. an arena view) and
/// returning the saved statistics. Every element of `y` is overwritten.
///
/// # Errors
///
/// Returns an error if `gamma`/`beta` length differs from the channel
/// count, or on a shape mismatch on `y`.
pub fn forward_into(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    y: &mut Tensor,
) -> Result<BatchNormCache, TensorError> {
    let s = x.shape();
    let c = s.c();
    if gamma.numel() != c || beta.numel() != c {
        return Err(TensorError::ShapeMismatch { left: gamma.shape(), right: Shape::vector(c) });
    }
    if y.shape() != s {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: s });
    }
    let per = s.n() * s.h() * s.w();
    let (sn, sh, sw) = (s.n(), s.h(), s.w());
    // Channels are independent statistics; each channel accumulates over
    // (n, h, w) in the same ascending order as a serial sweep, so the sums
    // are bit-identical at every thread count.
    let mut mean: Vec<f32> = parallel_map(c, 1, |ci| {
        let mut m = 0.0f32;
        for n in 0..sn {
            for h in 0..sh {
                for w in 0..sw {
                    m += x.at(n, ci, h, w);
                }
            }
        }
        m
    });
    for m in &mut mean {
        *m /= per as f32;
    }
    let var: Vec<f32> = parallel_map(c, 1, |ci| {
        let mut v = 0.0f32;
        for n in 0..sn {
            for h in 0..sh {
                for w in 0..sw {
                    let d = x.at(n, ci, h, w) - mean[ci];
                    v += d * d;
                }
            }
        }
        v
    });
    let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v / per as f32 + eps).sqrt()).collect();
    // Images are contiguous NCHW slices of y — disjoint elementwise writes.
    parallel_chunks_mut(y.data_mut(), c * sh * sw, |n, img| {
        for ci in 0..c {
            let (g, b, m, is) = (gamma.data()[ci], beta.data()[ci], mean[ci], inv_std[ci]);
            let plane = &mut img[ci * sh * sw..(ci + 1) * sh * sw];
            for h in 0..sh {
                for w in 0..sw {
                    plane[h * sw + w] = g * (x.at(n, ci, h, w) - m) * is + b;
                }
            }
        }
    });
    Ok(BatchNormCache { mean, inv_std })
}

/// Backward pass using the stashed input and forward statistics, landing
/// `dx` in a preallocated buffer (e.g. a planned arena side region) and
/// `dgamma`/`dbeta` (one element per channel) in the caller's — a gradient
/// set kept across steps. Every element of all three is overwritten.
///
/// # Errors
///
/// Returns an error on shape mismatch, the outputs' included.
pub fn backward_into(
    x: &Tensor,
    gamma: &Tensor,
    cache: &BatchNormCache,
    dy: &Tensor,
    dx: &mut Tensor,
    dgamma: &mut Tensor,
    dbeta: &mut Tensor,
) -> Result<(), TensorError> {
    let s = x.shape();
    if dy.shape() != s {
        return Err(TensorError::ShapeMismatch { left: dy.shape(), right: s });
    }
    if dx.shape() != s {
        return Err(TensorError::ShapeMismatch { left: dx.shape(), right: s });
    }
    let c = s.c();
    for out in [&*dgamma, &*dbeta] {
        if out.shape() != Shape::vector(c) {
            return Err(TensorError::ShapeMismatch { left: out.shape(), right: Shape::vector(c) });
        }
    }
    let (sn, sh, sw) = (s.n(), s.h(), s.w());
    let per = (sn * sh * sw) as f32;
    // Per-channel gradient statistics, each accumulated in serial (n, h, w)
    // order — see the determinism note in `forward_into`.
    let stats: Vec<(f32, f32, f32)> = parallel_map(c, 1, |ci| {
        let mut dgamma = 0.0f32;
        let mut dbeta = 0.0f32;
        let mut sum_dy_xhat = 0.0f32;
        for n in 0..sn {
            for h in 0..sh {
                for w in 0..sw {
                    let xhat = (x.at(n, ci, h, w) - cache.mean[ci]) * cache.inv_std[ci];
                    let d = dy.at(n, ci, h, w);
                    dgamma += d * xhat;
                    dbeta += d;
                    sum_dy_xhat += d * xhat;
                }
            }
        }
        (dgamma, dbeta, sum_dy_xhat)
    });
    for ((g, b), s) in dgamma.data_mut().iter_mut().zip(dbeta.data_mut()).zip(&stats) {
        (*g, *b) = (s.0, s.1);
    }
    parallel_chunks_mut(dx.data_mut(), c * sh * sw, |n, img| {
        for ci in 0..c {
            let (g, m, is) = (gamma.data()[ci], cache.mean[ci], cache.inv_std[ci]);
            let (_, sum_dy, sum_dy_xhat) = stats[ci];
            let plane = &mut img[ci * sh * sw..(ci + 1) * sh * sw];
            for h in 0..sh {
                for w in 0..sw {
                    let xhat = (x.at(n, ci, h, w) - m) * is;
                    let d = dy.at(n, ci, h, w);
                    plane[h * sw + w] = g * is / per * (per * d - sum_dy - xhat * sum_dy_xhat);
                }
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_normalized() {
        let x = crate::init::uniform(Shape::nchw(4, 2, 3, 3), -5.0, 5.0, 21);
        let gamma = Tensor::full(Shape::vector(2), 1.0);
        let beta = Tensor::zeros(Shape::vector(2));
        let mut y = Tensor::full(x.shape(), f32::NAN);
        forward_into(&x, &gamma, &beta, 1e-5, &mut y).unwrap();
        // Per-channel mean ~0, var ~1.
        let s = y.shape();
        for ci in 0..2 {
            let mut m = 0.0;
            let mut v = 0.0;
            let per = (s.n() * s.h() * s.w()) as f32;
            for n in 0..s.n() {
                for h in 0..s.h() {
                    for w in 0..s.w() {
                        m += y.at(n, ci, h, w);
                    }
                }
            }
            m /= per;
            for n in 0..s.n() {
                for h in 0..s.h() {
                    for w in 0..s.w() {
                        v += (y.at(n, ci, h, w) - m).powi(2);
                    }
                }
            }
            v /= per;
            assert!(m.abs() < 1e-4, "mean {m}");
            assert!((v - 1.0).abs() < 1e-2, "var {v}");
        }
    }

    #[test]
    fn gamma_beta_scale_shift() {
        let x = crate::init::uniform(Shape::nchw(2, 1, 2, 2), -1.0, 1.0, 3);
        let gamma = Tensor::full(Shape::vector(1), 2.0);
        let beta = Tensor::full(Shape::vector(1), 10.0);
        let mut y = Tensor::full(x.shape(), f32::NAN);
        forward_into(&x, &gamma, &beta, 1e-5, &mut y).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / y.numel() as f32;
        assert!((mean - 10.0).abs() < 1e-4);
    }

    #[test]
    fn gradient_check_dx() {
        let x = crate::init::uniform(Shape::nchw(2, 2, 2, 2), -1.0, 1.0, 17);
        let gamma = Tensor::from_vec(Shape::vector(2), vec![1.5, 0.5]).unwrap();
        let beta = Tensor::from_vec(Shape::vector(2), vec![0.1, -0.2]).unwrap();
        let eps_bn = 1e-5;
        let loss = |x: &Tensor| -> f64 {
            let mut y = Tensor::zeros(x.shape());
            forward_into(x, &gamma, &beta, eps_bn, &mut y).unwrap();
            y.data().iter().map(|&v| (v as f64).powi(2) / 2.0).sum()
        };
        let mut y = Tensor::zeros(x.shape());
        let cache = forward_into(&x, &gamma, &beta, eps_bn, &mut y).unwrap();
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        let (mut dgamma, mut dbeta) = (Tensor::zeros(gamma.shape()), Tensor::zeros(beta.shape()));
        backward_into(&x, &gamma, &cache, &y, &mut dx, &mut dgamma, &mut dbeta).unwrap();
        let eps = 1e-3f32;
        for idx in [0usize, 3, 7, 12, 15] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps as f64);
            let ana = dx.data()[idx] as f64;
            assert!((num - ana).abs() < 2e-2, "dx[{idx}]: {num} vs {ana}");
        }
    }

    #[test]
    fn rejects_bad_param_length() {
        let x = Tensor::zeros(Shape::nchw(1, 3, 2, 2));
        let bad = Tensor::zeros(Shape::vector(2));
        let good = Tensor::zeros(Shape::vector(3));
        let mut y = Tensor::zeros(x.shape());
        assert!(forward_into(&x, &bad, &good, 1e-5, &mut y).is_err());
    }
}
