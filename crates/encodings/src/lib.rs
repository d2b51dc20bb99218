#![warn(missing_docs)]

//! # gist-encodings
//!
//! The three Gist encodings from the paper, plus their packing substrates:
//!
//! * **Binarize** (lossless, Section IV-A): ReLU outputs feeding a max-pool
//!   layer are stashed as a 1-bit positivity mask (32x), and the pool layer
//!   stashes a 4-bit-per-element Y→X window-index map (8x) instead of its
//!   input and output feature maps.
//! * **SSDC** — Sparse Storage and Dense Compute (lossless): ReLU/Pool
//!   outputs feeding a convolution are stashed in CSR form with the paper's
//!   *Narrow Value Optimization* (matrix reshaped to ≤256 columns so column
//!   indices fit in one byte), and decoded back to dense FP32 just before
//!   the backward-pass computation.
//! * **DPR** — Delayed Precision Reduction (lossy): any remaining stashed
//!   feature map — and the value array of SSDC — is reduced to FP16/FP10/FP8
//!   *after* its forward-pass use, keeping the forward pass error-free.
//!
//! All encoders return self-describing containers that know their encoded
//! byte size and can decode themselves. [`stash`] is the one seam the
//! planner (`gist-core`), the lowering and the executor (`gist-runtime`)
//! and the offload planner reach them through: a [`StashCodec`] sizes and
//! encodes a stashed feature map, a [`Stash`] decodes or gates with it.

pub mod binarize;
pub mod bitpack;
mod bytes;
pub mod csr;
pub mod dpr;
pub mod stash;
pub mod transfer;

pub use binarize::{BitMask, PoolIndexMap};
pub use bytes::Reader;
pub use csr::{CsrMatrix, SsdcConfig};
pub use dpr::{DprFormat, RoundingMode};
pub use stash::{Stash, StashCodec};
pub use transfer::{
    auto_codec, max_wire_bytes, CodecPolicy, TransferCodec, Wire, WireError, WireInflow, WireRef,
    WireStream,
};

/// Errors from encoding/decoding operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodingError {
    /// Input length inconsistent with the container's recorded length.
    LengthMismatch {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        actual: usize,
    },
    /// A pool index exceeded the 4-bit range supported by the Y→X map.
    IndexOutOfRange(u8),
}

impl std::fmt::Display for EncodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodingError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            EncodingError::IndexOutOfRange(i) => {
                write!(f, "pool window index {i} does not fit in 4 bits")
            }
        }
    }
}

impl std::error::Error for EncodingError {}
