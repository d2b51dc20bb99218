//! Fully-connected (inner-product) layer.
//!
//! Activations are `[N, F]` matrices (stored as degenerate NCHW); weights are
//! `[F_out, F_in]`. Like convolution, the backward pass needs the stashed
//! input to form weight gradients, so FC inputs fall in the paper's "Others"
//! stash category (DPR-eligible).

use crate::{ScratchPool, Shape, Tensor, TensorError};
use gist_par::{parallel_chunks_mut, parallel_reduce};
use gist_simd::{matmul_a_bt_into, matmul_at_b_into, matmul_into};

/// Batch rows per parallel chunk — a pure function of the layer shape.
fn batch_grain(n: usize, f: usize) -> usize {
    ((1 << 12) / f.max(1)).clamp(1, n.max(1))
}

/// Forward pass `Y[N, F_out] = X[N, F_in] * W^T + b`, writing into a
/// preallocated output (e.g. an arena view). Every element of `y` is
/// overwritten.
///
/// # Errors
///
/// Returns an error if `x`'s flattened feature count differs from `F_in`,
/// the bias length differs from `F_out`, or `y` does not flatten to
/// `[N, F_out]`.
pub fn forward_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    y: &mut Tensor,
) -> Result<(), TensorError> {
    let (n, f_in) = x.shape().as_matrix();
    let (f_out, wf_in) = weight.shape().as_matrix();
    if wf_in != f_in {
        return Err(TensorError::ShapeMismatch { left: x.shape(), right: weight.shape() });
    }
    if let Some(b) = bias {
        if b.numel() != f_out {
            return Err(TensorError::ShapeMismatch {
                left: b.shape(),
                right: Shape::vector(f_out),
            });
        }
    }
    if y.shape().as_matrix() != (n, f_out) {
        return Err(TensorError::ShapeMismatch { left: y.shape(), right: Shape::matrix(n, f_out) });
    }
    matmul_a_bt_into(x.data(), weight.data(), n, f_in, f_out, y.data_mut());
    if let Some(b) = bias {
        let grain = batch_grain(n, f_out);
        parallel_chunks_mut(y.data_mut(), grain * f_out, |_, rows| {
            for row in rows.chunks_mut(f_out) {
                for (v, bv) in row.iter_mut().zip(b.data()) {
                    *v += bv;
                }
            }
        });
    }
    Ok(())
}

/// Backward pass from the stashed input `x` and `dy` (`[N, F_out]`), with
/// the per-task bias-reduction partials leased from a caller-owned
/// [`ScratchPool`] instead of heap-allocated per call. `dx` may carry any
/// shape that flattens to `[N, F_in]` (the producer's NCHW shape included)
/// and lands in a preallocated buffer (e.g. a planned arena side region);
/// `dw` (the weight's shape) and `db` (`F_out` elements) are the caller's
/// too — a gradient set kept across steps. Every element of all three is
/// overwritten. Bit-identical at every thread count.
///
/// # Errors
///
/// Returns an error on dimension mismatch, the outputs' included.
pub fn backward_into(
    x: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    scratch: &ScratchPool,
    dx: &mut Tensor,
    dw: &mut Tensor,
    db: &mut Tensor,
) -> Result<(), TensorError> {
    let (n, f_in) = x.shape().as_matrix();
    let (f_out, wf_in) = weight.shape().as_matrix();
    let (dn, df) = dy.shape().as_matrix();
    if wf_in != f_in || dn != n || df != f_out {
        return Err(TensorError::ShapeMismatch { left: dy.shape(), right: weight.shape() });
    }
    if dx.shape().as_matrix() != (n, f_in) {
        return Err(TensorError::ShapeMismatch { left: dx.shape(), right: Shape::matrix(n, f_in) });
    }
    if dw.shape() != weight.shape() {
        return Err(TensorError::ShapeMismatch { left: dw.shape(), right: weight.shape() });
    }
    if db.shape() != Shape::vector(f_out) {
        return Err(TensorError::ShapeMismatch { left: db.shape(), right: Shape::vector(f_out) });
    }
    // dX[N, F_in] = dY[N, F_out] * W[F_out, F_in]
    matmul_into(dy.data(), weight.data(), n, f_out, f_in, dx.data_mut());
    // dW[F_out, F_in] = dY^T[F_out, N] * X[N, F_in]
    matmul_at_b_into(dy.data(), x.data(), f_out, n, f_in, dw.data_mut());
    // db[j] = sum over batch rows of dy[n][j], combined along gist-par's
    // fixed pairwise tree so the result is thread-count invariant.
    let grain = batch_grain(n, f_out);
    let sum = parallel_reduce(
        n,
        grain,
        |range| {
            let mut part = scratch.lease(f_out);
            for row in range {
                for (d, v) in part.iter_mut().zip(&dy.data()[row * f_out..(row + 1) * f_out]) {
                    *d += v;
                }
            }
            part
        },
        |mut a, b| {
            for (d, v) in a.iter_mut().zip(b.iter()) {
                *d += v;
            }
            a
        },
    );
    match sum {
        Some(part) => db.data_mut().copy_from_slice(&part),
        None => db.data_mut().fill(0.0),
    }
    Ok(())
}

/// [`backward_into`] returning freshly allocated `(dw, db)`. Kept for
/// `benchmark/`'s per-layer replay; a later `benchmark` change moves it to
/// [`backward_into`] and deletes this.
///
/// # Errors
///
/// As for [`backward_into`].
pub fn backward_with_into(
    x: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    scratch: &ScratchPool,
    dx: &mut Tensor,
) -> Result<(Tensor, Tensor), TensorError> {
    let mut dw = Tensor::zeros(weight.shape());
    let mut db = Tensor::zeros(Shape::vector(weight.shape().as_matrix().0));
    backward_into(x, weight, dy, scratch, dx, &mut dw, &mut db)?;
    Ok((dw, db))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        // X = [1 2], W = [[1 0],[0 1],[1 1]], b = [0.5, 0.5, 0.5]
        let x = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 2.0]).unwrap();
        let w = Tensor::from_vec(Shape::matrix(3, 2), vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let b = Tensor::from_vec(Shape::vector(3), vec![0.5; 3]).unwrap();
        let mut y = Tensor::full(Shape::matrix(1, 3), f32::NAN);
        forward_into(&x, &w, Some(&b), &mut y).unwrap();
        assert_eq!(y.data(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn forward_accepts_nchw_input() {
        // Conv output [1, 2, 1, 1] flattens to 2 features.
        let x = Tensor::from_vec(Shape::nchw(1, 2, 1, 1), vec![3.0, 4.0]).unwrap();
        let w = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 1.0]).unwrap();
        let mut y = Tensor::full(Shape::matrix(1, 1), f32::NAN);
        forward_into(&x, &w, None, &mut y).unwrap();
        assert_eq!(y.data(), &[7.0]);
    }

    #[test]
    fn gradient_check() {
        let x = crate::init::uniform(Shape::matrix(3, 4), -1.0, 1.0, 5);
        let w = crate::init::uniform(Shape::matrix(2, 4), -1.0, 1.0, 6);
        let mut y = Tensor::zeros(Shape::matrix(3, 2));
        forward_into(&x, &w, None, &mut y).unwrap();
        // loss = sum(y^2)/2, so dy = y
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        let (dw, _) = backward_with_into(&x, &w, &y, &ScratchPool::new(), &mut dx).unwrap();
        let loss = |x: &Tensor, w: &Tensor| -> f64 {
            let mut y = Tensor::zeros(Shape::matrix(3, 2));
            forward_into(x, w, None, &mut y).unwrap();
            y.data().iter().map(|&v| (v as f64).powi(2) / 2.0).sum()
        };
        let eps = 1e-3f32;
        for idx in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps as f64);
            assert!((num - dx.data()[idx] as f64).abs() < 1e-2);
        }
        for idx in 0..w.numel() {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps as f64);
            assert!((num - dw.data()[idx] as f64).abs() < 1e-2);
        }
    }

    #[test]
    fn db_sums_over_batch() {
        let x = Tensor::full(Shape::matrix(4, 2), 1.0);
        let w = Tensor::full(Shape::matrix(3, 2), 1.0);
        let dy = Tensor::full(Shape::matrix(4, 3), 1.0);
        let mut dx = Tensor::zeros(x.shape());
        let (_, db) = backward_with_into(&x, &w, &dy, &ScratchPool::new(), &mut dx).unwrap();
        assert_eq!(db.data(), &[4.0, 4.0, 4.0]);
    }

    #[test]
    fn rejects_feature_mismatch() {
        let x = Tensor::zeros(Shape::matrix(1, 3));
        let w = Tensor::zeros(Shape::matrix(2, 4));
        let mut out = Tensor::zeros(Shape::matrix(1, 2));
        assert!(forward_into(&x, &w, None, &mut out).is_err());
        let dy = Tensor::zeros(Shape::matrix(1, 2));
        let mut dx = Tensor::zeros(x.shape());
        assert!(backward_with_into(&x, &w, &dy, &ScratchPool::new(), &mut dx).is_err());
    }
}
