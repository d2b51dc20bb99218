//! Structural ops: residual addition (ResNet) and channel concatenation
//! (Inception).

use crate::{Shape, Tensor, TensorError};

/// Residual addition forward, `Y = A + B`, writing into a preallocated
/// output (e.g. an arena view). Every element of `y` is overwritten.
///
/// # Errors
///
/// Returns an error on shape mismatch.
pub fn add_forward_into(a: &Tensor, b: &Tensor, y: &mut Tensor) -> Result<(), TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch { left: a.shape(), right: b.shape() });
    }
    if y.shape() != a.shape() {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: a.shape() });
    }
    let (av, bv) = (a.data(), b.data());
    for (i, out) in y.data_mut().iter_mut().enumerate() {
        *out = av[i] + bv[i];
    }
    Ok(())
}

/// Residual addition backward for one input: the gradient flows unchanged
/// to both, so this copies `dy` into a preallocated buffer (e.g. a planned
/// arena side region). Every element of `dx` is overwritten.
///
/// # Panics
///
/// Panics if `dx.numel() != dy.numel()`.
pub fn add_backward_into(dy: &Tensor, dx: &mut Tensor) {
    assert_eq!(dx.numel(), dy.numel(), "add backward output size");
    dx.data_mut().copy_from_slice(dy.data());
}

/// Concatenation of tensors along the channel dimension, writing into a
/// preallocated output (e.g. an arena view). Every element of `y` is
/// overwritten.
///
/// # Errors
///
/// Returns an error if inputs disagree on N/H/W, the list is empty, or `y`
/// has the wrong shape.
pub fn concat_forward_into(inputs: &[&Tensor], y: &mut Tensor) -> Result<(), TensorError> {
    let first = inputs
        .first()
        .ok_or_else(|| TensorError::UnsupportedShape("concat of zero tensors".into()))?;
    let s0 = first.shape();
    let mut total_c = 0;
    for t in inputs {
        let s = t.shape();
        if s.n() != s0.n() || s.h() != s0.h() || s.w() != s0.w() {
            return Err(TensorError::ShapeMismatch { left: s, right: s0 });
        }
        total_c += s.c();
    }
    let out_shape = Shape::nchw(s0.n(), total_c, s0.h(), s0.w());
    if y.shape() != out_shape {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: out_shape });
    }
    let plane = s0.h() * s0.w();
    for n in 0..s0.n() {
        let mut c_off = 0;
        for t in inputs {
            let c = t.shape().c();
            let src = &t.data()[n * c * plane..(n + 1) * c * plane];
            let dst_start = (n * total_c + c_off) * plane;
            y.data_mut()[dst_start..dst_start + c * plane].copy_from_slice(src);
            c_off += c;
        }
    }
    Ok(())
}

/// Concatenation backward: splits `dy` back into per-input gradients, each
/// written into a preallocated buffer (e.g. planned arena side regions).
/// Every element of every output is overwritten.
///
/// # Errors
///
/// Returns an error if the channel sum of `input_shapes` differs from `dy`,
/// or if any output's element count differs from its input shape.
pub fn concat_backward_into(
    dy: &Tensor,
    input_shapes: &[Shape],
    outs: &mut [&mut Tensor],
) -> Result<(), TensorError> {
    let s = dy.shape();
    let total_c: usize = input_shapes.iter().map(|sh| sh.c()).sum();
    if total_c != s.c() || outs.len() != input_shapes.len() {
        return Err(TensorError::UnsupportedShape(format!(
            "concat backward: channel sum {total_c} != dy channels {} or {} outputs for {} shapes",
            s.c(),
            outs.len(),
            input_shapes.len()
        )));
    }
    for (g, sh) in outs.iter().zip(input_shapes) {
        if g.numel() != sh.numel() {
            return Err(TensorError::ShapeMismatch { left: g.shape(), right: *sh });
        }
    }
    let plane = s.h() * s.w();
    for n in 0..s.n() {
        let mut c_off = 0;
        for (g, sh) in outs.iter_mut().zip(input_shapes) {
            let c = sh.c();
            let src_start = (n * total_c + c_off) * plane;
            let dst_start = n * c * plane;
            g.data_mut()[dst_start..dst_start + c * plane]
                .copy_from_slice(&dy.data()[src_start..src_start + c * plane]);
            c_off += c;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_roundtrip() {
        let a = Tensor::full(Shape::nchw(1, 1, 2, 2), 1.0);
        let b = Tensor::full(Shape::nchw(1, 1, 2, 2), 2.0);
        let mut y = Tensor::full(a.shape(), f32::NAN);
        add_forward_into(&a, &b, &mut y).unwrap();
        assert_eq!(y.data(), &[3.0; 4]);
        let mut da = Tensor::full(a.shape(), f32::NAN);
        add_backward_into(&y, &mut da);
        assert_eq!(da, y);
    }

    #[test]
    fn concat_then_split_is_identity() {
        let a = crate::init::uniform(Shape::nchw(2, 3, 4, 4), -1.0, 1.0, 1);
        let b = crate::init::uniform(Shape::nchw(2, 5, 4, 4), -1.0, 1.0, 2);
        let mut y = Tensor::full(Shape::nchw(2, 8, 4, 4), f32::NAN);
        concat_forward_into(&[&a, &b], &mut y).unwrap();
        let (mut da, mut db) = (Tensor::full(a.shape(), f32::NAN), Tensor::full(b.shape(), 0.5));
        concat_backward_into(&y, &[a.shape(), b.shape()], &mut [&mut da, &mut db]).unwrap();
        assert_eq!(da, a);
        assert_eq!(db, b);
    }

    #[test]
    fn concat_preserves_channel_order() {
        let a = Tensor::full(Shape::nchw(1, 1, 1, 2), 1.0);
        let b = Tensor::full(Shape::nchw(1, 2, 1, 2), 2.0);
        let mut y = Tensor::full(Shape::nchw(1, 3, 1, 2), f32::NAN);
        concat_forward_into(&[&a, &b], &mut y).unwrap();
        assert_eq!(y.data(), &[1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn concat_rejects_spatial_mismatch_and_empty() {
        let a = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let b = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        let mut y = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
        assert!(concat_forward_into(&[&a, &b], &mut y).is_err());
        assert!(concat_forward_into(&[], &mut y).is_err());
    }

    #[test]
    fn concat_backward_validates_channels() {
        let dy = Tensor::zeros(Shape::nchw(1, 4, 2, 2));
        let mut dx = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        assert!(concat_backward_into(&dy, &[dx.shape()], &mut [&mut dx]).is_err());
    }
}
