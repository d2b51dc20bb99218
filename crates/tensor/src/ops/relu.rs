//! ReLU forward and backward.
//!
//! The backward kernel is the heart of the paper's Binarize insight
//! (Figure 4(b)): `dX[i] = dY[i] if Y[i] > 0 else 0`. Only the *sign* of the
//! stashed output is needed, so a 1-bit representation suffices when the
//! consumer layer (Pool) does not need the actual values.

use crate::Tensor;

/// Forward pass `Y = max(X, 0)`, writing into a preallocated output (e.g.
/// an arena view). Every element of `y` is overwritten: `-0.0` inputs map
/// to `+0.0`, unlike [`forward_inplace`] which preserves them.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn forward_into(x: &Tensor, y: &mut Tensor) {
    assert_eq!(x.shape(), y.shape(), "relu forward shapes");
    for (out, &v) in y.data_mut().iter_mut().zip(x.data()) {
        *out = if v > 0.0 { v } else { 0.0 };
    }
}

/// In-place forward pass, reusing the input buffer.
///
/// This models the paper's *inplace computation* optimization (Section III-C):
/// ReLU has a read-once/write-once property per element, so the convolution
/// output buffer can be overwritten, removing one immediately-consumed
/// data structure.
///
/// Written as an unconditional select-and-store so the sweep vectorises and
/// carries no data-dependent branch (a conditional store mispredicts on
/// every other element at ReLU's ~50% sparsity). Only values `< 0.0` change:
/// `-0.0` and NaN are kept bit-for-bit.
pub fn forward_inplace(x: &mut Tensor) {
    for v in x.data_mut() {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// Backward pass from the stashed output, `dX = dY ⊙ [Y > 0]`, writing
/// into a preallocated buffer (e.g. a planned arena side region). Every
/// element of `dx` is overwritten.
///
/// # Panics
///
/// Panics if the shapes differ or `dx.numel() != dy.numel()`.
pub fn backward_into(y: &Tensor, dy: &Tensor, dx: &mut Tensor) {
    assert_eq!(y.shape(), dy.shape(), "relu backward shapes");
    assert_eq!(dx.numel(), dy.numel(), "relu backward output size");
    for (out, (&yv, &dv)) in dx.data_mut().iter_mut().zip(y.data().iter().zip(dy.data())) {
        *out = if yv > 0.0 { dv } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn forward_clamps_negatives() {
        let x = Tensor::from_vec(Shape::vector(4), vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        let mut y = Tensor::zeros(x.shape());
        forward_into(&x, &mut y);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn forward_into_overwrites_poisoned_output() {
        let x = Tensor::from_vec(Shape::vector(4), vec![-1.0, -0.0, 2.0, f32::MIN]).unwrap();
        let mut y = Tensor::full(Shape::vector(4), f32::NAN);
        forward_into(&x, &mut y);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        // -0.0 normalizes to +0.0.
        assert!(y.data()[1].is_sign_positive());
    }

    #[test]
    fn forward_inplace_matches_forward_into() {
        let x = Tensor::from_vec(Shape::vector(5), vec![-1.0, 3.0, 0.0, -7.0, 0.25]).unwrap();
        let mut y = Tensor::zeros(x.shape());
        forward_into(&x, &mut y);
        let mut xi = x;
        forward_inplace(&mut xi);
        assert_eq!(xi, y);
    }

    #[test]
    fn forward_inplace_changes_only_negative_values() {
        // The select form's contract, bit for bit: everything `< 0.0` goes
        // to +0.0 (denormals and -inf included); -0.0, NaN (either sign,
        // payload kept), +0.0 and every positive value are left untouched.
        let nan = f32::from_bits(0x7FC0_1234);
        let neg_nan = f32::from_bits(0xFFC0_1234);
        let cases = [
            (-0.0f32, -0.0f32),
            (nan, nan),
            (neg_nan, neg_nan),
            (-1e-45, 0.0),
            (-1e-40, 0.0),
            (f32::NEG_INFINITY, 0.0),
            (f32::MIN, 0.0),
            (-2.5, 0.0),
            (0.0, 0.0),
            (1e-45, 1e-45),
            (f32::INFINITY, f32::INFINITY),
            (f32::MAX, f32::MAX),
        ];
        // Tiled past any vector width so every lane position sees each case.
        let input: Vec<f32> = cases.iter().cycle().take(cases.len() * 7 + 3).map(|c| c.0).collect();
        let mut x = Tensor::from_vec(Shape::vector(input.len()), input).unwrap();
        forward_inplace(&mut x);
        for (i, (got, want)) in x.data().iter().zip(cases.iter().cycle()).enumerate() {
            assert_eq!(got.to_bits(), want.1.to_bits(), "element {i}: input {:?}", want.0);
        }
    }

    #[test]
    fn backward_masks_by_positive_output() {
        let y = Tensor::from_vec(Shape::vector(4), vec![0.0, 1.0, 0.0, 3.0]).unwrap();
        let dy = Tensor::from_vec(Shape::vector(4), vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let mut dx = Tensor::full(dy.shape(), f32::NAN);
        backward_into(&y, &dy, &mut dx);
        assert_eq!(dx.data(), &[0.0, 6.0, 0.0, 8.0]);
    }
}
