//! The stash seam: one type for a stashed feature map's whole lifecycle
//! (the Schedule Builder's contract, Figure 5) — how many bytes to reserve
//! for it before any value exists, how it is encoded after its last
//! forward use, and how the backward pass reads it: decoded into a dense
//! buffer, lowered to conv columns a plane at a time ([`ColumnSource`]), or,
//! for a ReLU output, consumed directly as the gate.
//!
//! A [`StashCodec`] is a policy decision realized (`gist-core` maps its
//! `Encoding` onto one); a [`Stash`] is one encoded map. The lowering sizes
//! buffers from [`StashCodec::bound`] and the executor holds what
//! [`StashCodec::encode`] returns, so reservation and payload come from the
//! same place — a new stash format is one arm in each `match` below.

use crate::csr::{self, CsrMatrix, SsdcConfig};
use crate::dpr::{DprBuffer, DprFormat, RoundingMode};
use crate::{BitMask, EncodingError};
use gist_tensor::ops::conv::ColumnSource;
use gist_tensor::{Shape, Tensor};

/// How a stashed feature map is held between its forward and backward use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StashCodec {
    /// Full-fidelity FP32 (baseline, or no encoding applies).
    Dense,
    /// 1-bit positivity mask; only a ReLU's own backward can consume it.
    Binarize,
    /// CSR sparse storage under the given layout.
    Ssdc(SsdcConfig),
    /// Reduced-precision packing.
    Dpr(DprFormat, RoundingMode),
}

impl StashCodec {
    /// Bytes that hold any stash of `ne` elements under this codec: the
    /// encoded size itself where that is a function of the shape alone
    /// ([`Self::is_exact`]); for SSDC the zero-sparsity worst case, but
    /// never more than dense — a map CSR would grow is stored dense.
    pub fn bound(&self, ne: usize) -> usize {
        match self {
            StashCodec::Dense => ne * 4,
            StashCodec::Binarize => BitMask::bytes_for(ne),
            StashCodec::Ssdc(config) => csr::max_encoded_bytes(ne, *config).min(ne * 4),
            StashCodec::Dpr(format, _) => format.packed_bytes(ne),
        }
    }

    /// Whether every stash of `ne` elements encodes to exactly
    /// [`Self::bound`] bytes; otherwise the size depends on the values and
    /// is known only once they are encoded.
    pub fn is_exact(&self) -> bool {
        !matches!(self, StashCodec::Ssdc(_))
    }

    /// Whether a backward reader of a stash under this codec needs a dense
    /// decode buffer ([`Stash::decode_into`]): only one that reads the map
    /// whole (`whole_map` — linear, batch-norm, LRN, the loss), and only of
    /// an SSDC or DPR stash. A dense stash is borrowed in place; a binarized
    /// one has no dense form at all; conv reads the stash a plane at a time
    /// ([`ColumnSource`]).
    pub fn decodes(&self, whole_map: bool) -> bool {
        whole_map && matches!(self, StashCodec::Ssdc(_) | StashCodec::Dpr(..))
    }

    /// Codec name in trace events and inventories; `None` for dense.
    pub fn label(&self) -> Option<&'static str> {
        match self {
            StashCodec::Dense => None,
            StashCodec::Binarize => Some("binarize"),
            StashCodec::Ssdc(_) => Some("ssdc"),
            StashCodec::Dpr(..) => Some("dpr"),
        }
    }

    /// Encodes the feature map `y`. A dense stash is a copy of `y` — into
    /// `dense_region` (a planned arena view of `y`'s shape, which a caller
    /// can give where the reservation holds a dense map) when one is given,
    /// a fresh tensor otherwise; encoded payloads live in their codec
    /// containers and ignore it. An SSDC map whose CSR form would be larger
    /// than dense takes the dense escape: it is held dense, as the CSR
    /// decode would rebuild it, so every reader borrows it in place.
    pub fn encode(&self, y: &Tensor, dense_region: Option<Tensor>) -> Stash {
        let payload = match self {
            StashCodec::Dense => Payload::Dense(match dense_region {
                Some(mut region) => {
                    region.copy_from(y);
                    region
                }
                None => y.clone(),
            }),
            StashCodec::Binarize => Payload::Bits(BitMask::encode(y.data())),
            StashCodec::Ssdc(config) => {
                let csr = CsrMatrix::encode(y.data(), *config);
                if csr.encoded_bytes() <= y.numel() * 4 {
                    Payload::Sparse(csr)
                } else {
                    let mut dense = dense_region.unwrap_or_else(|| Tensor::zeros(y.shape()));
                    csr.decode_into(dense.data_mut());
                    Payload::Dense(dense)
                }
            }
            StashCodec::Dpr(format, rounding) => {
                Payload::Reduced(DprBuffer::encode_with(*format, y.data(), *rounding))
            }
        };
        Stash { codec: *self, shape: y.shape(), payload }
    }
}

#[derive(Debug, Clone)]
enum Payload {
    Dense(Tensor),
    Bits(BitMask),
    Sparse(CsrMatrix),
    Reduced(DprBuffer),
}

/// One stashed feature map in whatever form its [`StashCodec`] selected.
#[derive(Debug, Clone)]
pub struct Stash {
    codec: StashCodec,
    shape: Shape,
    payload: Payload,
}

impl Stash {
    /// A dense stash that *is* `t` (no copy): a swapped-in or recomputed
    /// map, or a second view of the region a kernel just wrote.
    pub fn dense(t: Tensor) -> Stash {
        Stash { codec: StashCodec::Dense, shape: t.shape(), payload: Payload::Dense(t) }
    }

    /// The codec this stash was encoded under.
    pub fn codec(&self) -> StashCodec {
        self.codec
    }

    /// Shape of the stashed feature map.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Dense FP32 size of the stashed map.
    pub fn dense_bytes(&self) -> usize {
        self.shape.numel() * 4
    }

    /// Bytes the stash actually holds; at most `codec().bound(numel)`, and
    /// dense for an SSDC stash that took the dense escape.
    pub fn encoded_bytes(&self) -> usize {
        match &self.payload {
            Payload::Dense(_) => self.dense_bytes(),
            Payload::Bits(m) => m.encoded_bytes(),
            Payload::Sparse(c) => c.encoded_bytes(),
            Payload::Reduced(b) => b.encoded_bytes(),
        }
    }

    /// The map itself when it is held dense (under [`StashCodec::Dense`] or
    /// the SSDC dense escape) — read in place, no decode.
    pub fn as_dense(&self) -> Option<&Tensor> {
        match &self.payload {
            Payload::Dense(t) => Some(t),
            _ => None,
        }
    }

    /// Whether the map's values are held encoded (SSDC or DPR, not the
    /// dense escape), so that reading them decodes — what a trace shows as
    /// a `Decode`, whichever backward reader consumes the stash.
    pub fn holds_encoded_values(&self) -> bool {
        matches!(self.payload, Payload::Sparse(_) | Payload::Reduced(_))
    }

    fn check_len(&self, actual: usize) -> Result<(), EncodingError> {
        let expected = self.shape.numel();
        if actual == expected {
            Ok(())
        } else {
            Err(EncodingError::LengthMismatch { expected, actual })
        }
    }

    /// Rebuilds the dense map in `dst`, overwriting every element;
    /// bit-equal to the container's own decode.
    ///
    /// # Errors
    ///
    /// [`EncodingError::LengthMismatch`] if `dst` is not the stashed
    /// element count; `dst` is untouched.
    ///
    /// # Panics
    ///
    /// On a binarized stash — it has no dense form, and the lowering plans
    /// a decode only where [`StashCodec::decodes`].
    pub fn decode_into(&self, dst: &mut [f32]) -> Result<(), EncodingError> {
        self.check_len(dst.len())?;
        match &self.payload {
            Payload::Dense(t) => dst.copy_from_slice(t.data()),
            Payload::Bits(_) => unreachable!("a binarized stash is consumed by relu backward"),
            Payload::Sparse(c) => c.decode_into(dst),
            Payload::Reduced(b) => b.decode_into(dst),
        }
        Ok(())
    }

    /// ReLU backward with the stashed map `y` as the gate:
    /// `dx = dy ⊙ [y > 0]`, every element of `dx` overwritten, bit-equal to
    /// the dense kernel over the decoded map. Binarize reads its mask and
    /// SSDC its stored elements; DPR decodes the map a fixed stack chunk at
    /// a time, so no call allocates or holds a dense copy.
    ///
    /// # Errors
    ///
    /// [`EncodingError::LengthMismatch`] if `dy` or `dx` is not the
    /// stashed element count; `dx` is untouched.
    pub fn relu_backward_into(&self, dy: &[f32], dx: &mut [f32]) -> Result<(), EncodingError> {
        self.check_len(dy.len())?;
        self.check_len(dx.len())?;
        let gate = |y: &[f32], dy: &[f32], dx: &mut [f32]| {
            for (out, (&yv, &dv)) in dx.iter_mut().zip(y.iter().zip(dy)) {
                *out = if yv > 0.0 { dv } else { 0.0 };
            }
        };
        match &self.payload {
            Payload::Dense(y) => gate(y.data(), dy, dx),
            Payload::Bits(mask) => mask.relu_backward_into(dy, dx)?,
            Payload::Sparse(csr) => csr.relu_backward_into(dy, dx),
            Payload::Reduced(dpr) => {
                const CHUNK: usize = 1024;
                let mut y = [0.0f32; CHUNK];
                for (k, (dy, dx)) in dy.chunks(CHUNK).zip(dx.chunks_mut(CHUNK)).enumerate() {
                    let y = &mut y[..dx.len()];
                    dpr.decode_range(k * CHUNK, y);
                    gate(y, dy, dx);
                }
            }
        }
        Ok(())
    }
}

/// Conv backward reads a stash in place: a dense one (or one that took the
/// dense escape) is borrowed, an SSDC or DPR one is range-decoded a plane
/// at a time into the kernel's per-thread scratch.
///
/// # Panics
///
/// A binarized stash, which has no dense form (the policy never binarizes a
/// map a conv reads).
impl ColumnSource for Stash {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn plane<'a>(&'a self, start: usize, scratch: &'a mut [f32]) -> &'a [f32] {
        match &self.payload {
            Payload::Dense(t) => return &t.data()[start..start + scratch.len()],
            Payload::Bits(_) => unreachable!("a binarized stash is consumed by relu backward"),
            Payload::Sparse(c) => c.decode_range(start, scratch),
            Payload::Reduced(b) => b.decode_range(start, scratch),
        }
        scratch
    }
}
