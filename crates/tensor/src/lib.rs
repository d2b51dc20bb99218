#![warn(missing_docs)]

//! # gist-tensor
//!
//! A small, self-contained CPU tensor library used as the numerical substrate
//! for the Gist reproduction. It provides an NCHW [`Tensor`] of `f32` values,
//! a [`Shape`] type, deterministic random initialization, and the forward and
//! backward kernels needed by convolutional image-classification networks:
//! convolution, max/average pooling, ReLU, fully-connected layers, batch
//! normalization, softmax with cross-entropy, and the elementwise/structural
//! ops (residual add, concatenation) required by Inception and ResNet.
//!
//! The kernels are written for clarity and testability rather than peak
//! throughput: the paper's performance results are reproduced through the
//! analytic model in `gist-perf`, while this crate establishes *value-level*
//! correctness (e.g., that Gist's lossless encodings are bit-exact and that
//! delayed precision reduction does not perturb the forward pass).
//!
//! Every kernel writes into a caller-provided output (`_into`), the buffer
//! a planned arena region or a heap tensor alike:
//!
//! ```
//! use gist_tensor::{Tensor, Shape};
//!
//! let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, -2.0, 3.0, -4.0]).unwrap();
//! let mut y = Tensor::zeros(x.shape());
//! gist_tensor::ops::relu::forward_into(&x, &mut y);
//! assert_eq!(y.data(), &[1.0, 0.0, 3.0, 0.0]);
//! ```

pub mod init;
pub mod ops;
pub mod scratch;
pub mod shape;
pub mod storage;
pub mod tensor;

pub use scratch::{ScratchLease, ScratchPool};
pub use shape::Shape;
pub use storage::Storage;
pub use tensor::Tensor;

/// Errors produced by tensor construction and kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided data length does not match the number of elements implied
    /// by the shape.
    LengthMismatch {
        /// Elements implied by the shape.
        expected: usize,
        /// Elements actually provided.
        actual: usize,
    },
    /// Two tensors that must agree in shape do not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: Shape,
        /// Shape of the right-hand operand.
        right: Shape,
    },
    /// A kernel was invoked with a shape it does not support.
    UnsupportedShape(String),
    /// An index read from an input (e.g. a max-pool Y→X map entry) is not
    /// below the bound it must respect.
    IndexOutOfRange {
        /// Position of the offending entry in its input.
        at: usize,
        /// The entry's value.
        index: usize,
        /// Exclusive bound on every entry.
        bound: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(f, "data length {actual} does not match shape volume {expected}")
            }
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left} vs {right}")
            }
            TensorError::UnsupportedShape(msg) => write!(f, "unsupported shape: {msg}"),
            TensorError::IndexOutOfRange { at, index, bound } => {
                write!(f, "entry {at} is {index}, not below {bound}")
            }
        }
    }
}

impl std::error::Error for TensorError {}
