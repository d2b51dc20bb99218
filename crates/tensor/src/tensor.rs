//! The dense `f32` tensor container: an owned buffer or a view over
//! shared [`Storage`].

use crate::{Shape, Storage, TensorError};
use std::sync::Arc;

/// Backing buffer of a [`Tensor`]: either a private heap vector or a view
/// into shared [`Storage`] at a fixed element offset.
enum Buf {
    Owned(Vec<f32>),
    View { storage: Arc<Storage>, offset: usize },
}

/// A dense, row-major NCHW tensor of `f32` values.
///
/// This is the "full fidelity" representation the paper's forward pass always
/// operates on; Gist's encodings replace it only during the temporal gap
/// between a feature map's forward and backward uses.
///
/// A tensor is either *owned* (its elements live in a private `Vec<f32>`)
/// or a *view* (`Shape` + offset over a shared [`Storage`] slab placed by
/// the `gist-memory` offset planner). All kernels operate on both through
/// [`Tensor::data`]/[`Tensor::data_mut`]; views make the planned arena
/// executable. Cloning a view deep-copies it into an owned tensor, so
/// `clone()` always yields an independent buffer.
///
/// ```
/// use gist_tensor::{Shape, Tensor};
/// let t = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
/// assert_eq!(t.numel(), 8);
/// assert!(t.data().iter().all(|&v| v == 0.0));
/// ```
pub struct Tensor {
    shape: Shape,
    buf: Buf,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        Tensor { shape, buf: Buf::Owned(vec![0.0; shape.numel()]) }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: Shape, value: f32) -> Self {
        Tensor { shape, buf: Buf::Owned(vec![value; shape.numel()]) }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != shape.numel()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, buf: Buf::Owned(data) })
    }

    /// Creates a view of `shape.numel()` elements of `storage` starting at
    /// element `offset`. The caller (in practice the arena executor) is
    /// responsible for ensuring concurrently-live views are disjoint — see
    /// the [`Storage`] aliasing discipline.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the range does not fit in
    /// the storage.
    pub fn view(storage: Arc<Storage>, offset: usize, shape: Shape) -> Result<Self, TensorError> {
        let needed = offset + shape.numel();
        if needed > storage.len() {
            return Err(TensorError::LengthMismatch { expected: needed, actual: storage.len() });
        }
        Ok(Tensor { shape, buf: Buf::View { storage, offset } })
    }

    /// Whether this tensor is a view over shared storage (as opposed to
    /// owning a private buffer).
    pub fn is_view(&self) -> bool {
        matches!(self.buf, Buf::View { .. })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Read-only view of the underlying buffer.
    pub fn data(&self) -> &[f32] {
        match &self.buf {
            Buf::Owned(v) => v,
            // SAFETY: the view's range was bounds-checked at construction;
            // exclusive access for the `&self` lifetime follows from the
            // arena discipline (plan-verified disjointness of live views).
            Buf::View { storage, offset } => unsafe { storage.slice(*offset, self.shape.numel()) },
        }
    }

    /// Mutable view of the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        match &mut self.buf {
            Buf::Owned(v) => v,
            // SAFETY: as in `data`, plus `&mut self` rules out aliasing
            // through *this* tensor; other views are disjoint by plan.
            Buf::View { storage, offset } => unsafe {
                storage.slice_mut(*offset, self.shape.numel())
            },
        }
    }

    /// Copies all elements from `src` (same element count; shapes may
    /// differ, e.g. a flattened view of a 4-D map).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn copy_from(&mut self, src: &Tensor) {
        assert_eq!(
            self.shape.numel(),
            src.shape.numel(),
            "copy_from requires equal element counts"
        );
        self.data_mut().copy_from_slice(src.data());
    }

    /// Element at NCHW coordinates.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data()[self.shape.index(n, c, h, w)]
    }

    /// Sets the element at NCHW coordinates.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.shape.index(n, c, h, w);
        self.data_mut()[i] = v;
    }

    /// Reinterprets the tensor under a new shape with the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(mut self, shape: Shape) -> Result<Self, TensorError> {
        if shape.numel() != self.shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: self.shape.numel(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Fraction of elements that are exactly zero.
    ///
    /// ReLU-induced sparsity of stashed feature maps is the enabling
    /// observation behind the paper's SSDC encoding (Section III-A).
    pub fn sparsity(&self) -> f64 {
        let data = self.data();
        if data.is_empty() {
            return 0.0;
        }
        let zeros = data.iter().filter(|&&v| v == 0.0).count();
        zeros as f64 / data.len() as f64
    }

    /// Elementwise sum of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch { left: self.shape, right: other.shape });
        }
        let data = self.data().iter().zip(other.data()).map(|(a, b)| a + b).collect();
        Ok(Tensor { shape: self.shape, buf: Buf::Owned(data) })
    }

    /// In-place `self += scale * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch { left: self.shape, right: other.shape });
        }
        let src = other.data();
        for (a, b) in self.data_mut().iter_mut().zip(src) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Maximum absolute elementwise difference between two tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff requires equal shapes");
        self.data().iter().zip(other.data()).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

impl Clone for Tensor {
    /// Deep copy: cloning a view detaches it into an owned tensor so the
    /// clone survives the underlying arena region's reuse.
    fn clone(&self) -> Self {
        Tensor { shape: self.shape, buf: Buf::Owned(self.data().to_vec()) }
    }
}

impl PartialEq for Tensor {
    /// Value equality: same shape and identical elements (bitwise f32 `==`),
    /// regardless of owned-vs-view backing.
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field("view", &self.is_view())
            .field("data", &self.data())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let err = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0]).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { expected: 4, actual: 1 });
    }

    #[test]
    fn at_and_set_roundtrip() {
        let mut t = Tensor::zeros(Shape::nchw(2, 3, 4, 5));
        t.set(1, 2, 3, 4, 7.5);
        assert_eq!(t.at(1, 2, 3, 4), 7.5);
        assert_eq!(t.at(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn sparsity_counts_exact_zeros() {
        let t = Tensor::from_vec(Shape::vector(4), vec![0.0, 1.0, 0.0, -2.0]).unwrap();
        assert_eq!(t.sparsity(), 0.5);
        assert_eq!(Tensor::zeros(Shape::vector(3)).sparsity(), 1.0);
    }

    #[test]
    fn add_and_add_scaled() {
        let a = Tensor::from_vec(Shape::vector(3), vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(Shape::vector(3), vec![10.0, 20.0, 30.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0, 33.0]);
        let mut c = a.clone();
        c.add_scaled(&b, -0.1).unwrap();
        assert_eq!(c.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = Tensor::zeros(Shape::vector(3));
        let b = Tensor::zeros(Shape::vector(4));
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let m = t.reshape(Shape::matrix(2, 2)).unwrap();
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(Tensor::zeros(Shape::vector(4)).reshape(Shape::vector(5)).is_err());
    }

    #[test]
    fn views_share_storage_and_clone_detaches() {
        let s = Storage::new(8);
        let mut v = Tensor::view(Arc::clone(&s), 2, Shape::vector(4)).unwrap();
        assert!(v.is_view());
        v.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        // A second view of the same region reads the same elements.
        let v2 = Tensor::view(Arc::clone(&s), 2, Shape::vector(4)).unwrap();
        assert_eq!(v2.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v, v2);
        // Clone detaches: later writes through the view don't affect it.
        let c = v2.clone();
        assert!(!c.is_view());
        v.set(0, 0, 0, 0, 99.0);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v2.data(), &[99.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn view_rejects_out_of_range() {
        let s = Storage::new(4);
        let err = Tensor::view(s, 2, Shape::vector(4)).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { expected: 6, actual: 4 });
    }

    #[test]
    fn view_copy_from() {
        let s = Storage::new(4);
        let src = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let mut v = Tensor::view(Arc::clone(&s), 0, Shape::vector(4)).unwrap();
        // Equal numel, different shape: allowed by design.
        v.copy_from(&src);
        assert_eq!(v.data(), &[5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn view_reshape_keeps_backing() {
        let s = Storage::new(6);
        let v = Tensor::view(Arc::clone(&s), 0, Shape::vector(6)).unwrap();
        let m = v.reshape(Shape::matrix(2, 3)).unwrap();
        assert!(m.is_view());
        assert_eq!(m.shape(), Shape::matrix(2, 3));
    }
}
