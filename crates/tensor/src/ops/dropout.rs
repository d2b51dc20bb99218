//! Inverted dropout whose keep bits are re-derived, never stored.
//!
//! Element `i`'s keep bit is a pure function of `(seed, i)`, so the
//! backward pass (and a recompute replay of the forward pass) regenerates
//! exactly the bits the forward pass used — no mask outlives a kernel, and
//! training runs are reproducible across executor modes, as the
//! bit-exactness tests of Gist's lossless encodings require.

use crate::{Tensor, TensorError};

/// Whether element `i` is kept under `seed`: SplitMix64 of the element's
/// counter, compared against `threshold` — cheap, stateless, and identical
/// regardless of iteration order.
fn keeps(seed: u64, i: usize, threshold: u64) -> bool {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    z <= threshold
}

/// Forward pass `y[i] = keep(seed, i) ? x[i] / (1 - p) : 0` (inverted
/// dropout, so inference needs no rescaling), writing into a preallocated
/// output (e.g. an arena view). Every element of `y` is overwritten.
///
/// # Errors
///
/// Returns an error if `p` is outside `[0, 1)` or `y`'s shape differs from
/// `x`'s.
pub fn forward_into(x: &Tensor, drop_p: f32, seed: u64, y: &mut Tensor) -> Result<(), TensorError> {
    if !(0.0..1.0).contains(&drop_p) {
        return Err(TensorError::UnsupportedShape(format!("dropout p {drop_p} outside [0,1)")));
    }
    if y.shape() != x.shape() {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: x.shape() });
    }
    let threshold = ((1.0 - f64::from(drop_p)) * (u64::MAX as f64)) as u64;
    let scale = 1.0 / (1.0 - drop_p);
    for (i, (out, &v)) in y.data_mut().iter_mut().zip(x.data()).enumerate() {
        *out = if keeps(seed, i, threshold) { v * scale } else { 0.0 };
    }
    Ok(())
}

/// Backward pass: the forward pass's keep bits, re-derived from the same
/// `seed`, and scale applied to `dy`, landing `dx` in a preallocated buffer
/// (e.g. a planned arena side region). Every element of `dx` is
/// overwritten.
///
/// # Errors
///
/// As for [`forward_into`], with `dy` and `dx` in place of `x` and `y`.
pub fn backward_into(
    dy: &Tensor,
    drop_p: f32,
    seed: u64,
    dx: &mut Tensor,
) -> Result<(), TensorError> {
    forward_into(dy, drop_p, seed, dx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    /// The whole keep mask, materialized by a loop of its own: the
    /// reference the kernels' re-derived bits must equal element for
    /// element.
    fn keep_mask(len: usize, drop_p: f32, seed: u64) -> Vec<bool> {
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

    /// Which elements `kernel` kept, read off an all-ones input.
    fn kept(len: usize, kernel: impl Fn(&Tensor, &mut Tensor)) -> Vec<bool> {
        let x = Tensor::full(Shape::vector(len), 1.0);
        let mut y = Tensor::full(x.shape(), f32::NAN);
        kernel(&x, &mut y);
        y.data().iter().map(|&v| v != 0.0).collect()
    }

    #[test]
    fn re_derived_bits_equal_the_materialized_mask_in_both_passes() {
        let len = 4099;
        for p in [0.0f32, 0.25, 0.5, 0.9] {
            for seed in [0, 7, u64::MAX - 3] {
                let mask = keep_mask(len, p, seed);
                let fwd = kept(len, |x, y| forward_into(x, p, seed, y).unwrap());
                let bwd = kept(len, |x, y| backward_into(x, p, seed, y).unwrap());
                assert_eq!(fwd, mask, "forward p={p} seed={seed}");
                assert_eq!(bwd, mask, "backward p={p} seed={seed}");
                // Kept values carry exactly the inverted-dropout scale.
                let x = Tensor::from_vec(
                    Shape::vector(len),
                    (0..len).map(|i| i as f32 * 0.5 - 7.0).collect(),
                )
                .unwrap();
                let mut y = Tensor::zeros(x.shape());
                forward_into(&x, p, seed, &mut y).unwrap();
                let scale = 1.0 / (1.0 - p);
                for ((&v, &out), &keep) in x.data().iter().zip(y.data()).zip(&mask) {
                    let want = if keep { v * scale } else { 0.0 };
                    assert_eq!(out.to_bits(), want.to_bits(), "p={p} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn bits_are_deterministic_and_seed_sensitive() {
        let run = |seed| kept(1000, |x, y| forward_into(x, 0.5, seed, y).unwrap());
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn keep_rate_approximates_one_minus_p() {
        for p in [0.1f32, 0.5, 0.9] {
            let mask = kept(20_000, |x, y| forward_into(x, p, 3, y).unwrap());
            let kept = mask.iter().filter(|&&k| k).count() as f64 / 20_000.0;
            assert!((kept - (1.0 - p as f64)).abs() < 0.02, "p={p}: kept {kept:.3}");
        }
    }

    #[test]
    fn expectation_is_preserved() {
        // Inverted dropout: E[y] == x.
        let x = Tensor::full(Shape::vector(50_000), 1.0);
        let mut y = Tensor::zeros(x.shape());
        forward_into(&x, 0.3, 11, &mut y).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / y.numel() as f32;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let x = Tensor::zeros(Shape::vector(4));
        let mut y = x.clone();
        assert!(forward_into(&x, 1.0, 0, &mut y).is_err());
        assert!(forward_into(&x, -0.1, 0, &mut y).is_err());
        assert!(forward_into(&x, 0.5, 0, &mut Tensor::zeros(Shape::vector(5))).is_err());
    }
}
