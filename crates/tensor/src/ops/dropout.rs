//! Inverted dropout with a deterministic, seed-derived keep mask.
//!
//! The mask is a pure function of `(seed, element index)` so that training
//! runs are reproducible across executor modes — a requirement for the
//! bit-exactness tests of Gist's lossless encodings.

use crate::{Tensor, TensorError};

/// Generates the keep mask for `len` elements at keep probability
/// `1 - drop_p`, deterministically from `seed`.
///
/// Uses SplitMix64 per element — cheap, stateless, and identical across
/// runs regardless of iteration order.
pub fn keep_mask(len: usize, drop_p: f32, seed: u64) -> Vec<bool> {
    let threshold = ((1.0 - f64::from(drop_p)) * (u64::MAX as f64)) as u64;
    (0..len)
        .map(|i| {
            let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            z <= threshold
        })
        .collect()
}

/// Forward pass `y[i] = mask[i] ? x[i] / (1 - p) : 0` (inverted dropout,
/// so inference needs no rescaling), writing into a preallocated output
/// (e.g. an arena view). Every element of `y` is overwritten.
///
/// # Errors
///
/// Returns an error if the mask length differs from the tensor, `p` is
/// outside `[0, 1)`, or `y`'s shape differs from `x`'s.
pub fn forward_into(
    x: &Tensor,
    mask: &[bool],
    drop_p: f32,
    y: &mut Tensor,
) -> Result<(), TensorError> {
    if !(0.0..1.0).contains(&drop_p) {
        return Err(TensorError::UnsupportedShape(format!("dropout p {drop_p} outside [0,1)")));
    }
    if mask.len() != x.numel() {
        return Err(TensorError::LengthMismatch { expected: x.numel(), actual: mask.len() });
    }
    if y.shape() != x.shape() {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: x.shape() });
    }
    let scale = 1.0 / (1.0 - drop_p);
    let src = x.data();
    for (i, out) in y.data_mut().iter_mut().enumerate() {
        *out = if mask[i] { src[i] * scale } else { 0.0 };
    }
    Ok(())
}

/// Backward pass: the same mask and scale applied to `dy`, landing `dx` in
/// a preallocated buffer (e.g. a planned arena side region). Every element
/// of `dx` is overwritten.
///
/// # Errors
///
/// As for [`forward_into`], with `dy` and `dx` in place of `x` and `y`.
pub fn backward_into(
    dy: &Tensor,
    mask: &[bool],
    drop_p: f32,
    dx: &mut Tensor,
) -> Result<(), TensorError> {
    forward_into(dy, mask, drop_p, dx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn mask_is_deterministic_and_seed_sensitive() {
        let a = keep_mask(1000, 0.5, 7);
        let b = keep_mask(1000, 0.5, 7);
        let c = keep_mask(1000, 0.5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn keep_rate_approximates_one_minus_p() {
        for p in [0.1f32, 0.5, 0.9] {
            let mask = keep_mask(20_000, p, 3);
            let kept = mask.iter().filter(|&&k| k).count() as f64 / 20_000.0;
            assert!((kept - (1.0 - p as f64)).abs() < 0.02, "p={p}: kept {kept:.3}");
        }
    }

    #[test]
    fn forward_scales_kept_elements() {
        let x = Tensor::full(Shape::vector(4), 2.0);
        let mask = [true, false, true, false];
        let mut y = Tensor::full(x.shape(), f32::NAN);
        forward_into(&x, &mask, 0.5, &mut y).unwrap();
        assert_eq!(y.data(), &[4.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn backward_uses_same_mask() {
        let dy = Tensor::full(Shape::vector(3), 1.0);
        let mask = [false, true, false];
        let mut dx = Tensor::full(dy.shape(), f32::NAN);
        backward_into(&dy, &mask, 0.2, &mut dx).unwrap();
        assert_eq!(dx.data()[0], 0.0);
        assert!((dx.data()[1] - 1.25).abs() < 1e-6);
    }

    #[test]
    fn expectation_is_preserved() {
        // Inverted dropout: E[y] == x.
        let x = Tensor::full(Shape::vector(50_000), 1.0);
        let mask = keep_mask(x.numel(), 0.3, 11);
        let mut y = Tensor::zeros(x.shape());
        forward_into(&x, &mask, 0.3, &mut y).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / y.numel() as f32;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let x = Tensor::zeros(Shape::vector(4));
        let mut y = x.clone();
        assert!(forward_into(&x, &[true; 3], 0.5, &mut y).is_err());
        assert!(forward_into(&x, &[true; 4], 1.0, &mut y).is_err());
        assert!(forward_into(&x, &[true; 4], -0.1, &mut y).is_err());
        assert!(forward_into(&x, &[true; 4], 0.5, &mut Tensor::zeros(Shape::vector(5))).is_err());
    }
}
