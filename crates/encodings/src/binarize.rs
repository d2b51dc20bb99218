//! The Binarize encoding for ReLU→Pool pairs (Section IV-A).
//!
//! ReLU's backward pass only asks "was the stashed output positive?", and a
//! max-pool backward pass rewritten around a Y→X window-index map needs
//! neither its input nor its output feature map. Together these replace a
//! 32-bit ReLU output with 1 bit per element (32x) and the pool's two
//! stashes with 4 bits per pool-output element (8x vs one 32-bit copy).

use crate::bitpack;
use crate::EncodingError;
use gist_par::parallel_chunks_mut;

/// A 1-bit-per-element positivity mask — the Binarize stash for a ReLU
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u32>,
    len: usize,
}

impl BitMask {
    /// Encodes a ReLU output: bit `i` records `y[i] > 0`.
    ///
    /// Packs straight from `f32` to words (no intermediate flag vector)
    /// via `gist_simd` (a compare + movemask per word at vector levels);
    /// each output word depends only on its own 32 inputs, so the encoding
    /// is identical at every thread count and every `GIST_SIMD` level
    /// (`NaN > 0.0` is false in both the scalar comparison and the ordered
    /// vector predicate).
    pub fn encode(y: &[f32]) -> Self {
        let mut words = vec![0u32; Self::bytes_for(y.len()) / 4];
        const GRAIN: usize = 1 << 11;
        parallel_chunks_mut(&mut words, GRAIN, |ci, chunk| {
            gist_simd::pack_gt_zero_words(y, ci * GRAIN, chunk);
        });
        BitMask { words, len: y.len() }
    }

    /// Encoded size in bytes of a mask over `len` elements: one bit each,
    /// in whole 32-bit words.
    pub fn bytes_for(len: usize) -> usize {
        len.div_ceil(32) * 4
    }

    /// Number of encoded elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size in bytes (the stash the memory planner sees).
    pub fn encoded_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Bit `i` of the mask.
    pub fn get(&self, i: usize) -> bool {
        bitpack::get_bit(&self.words, i)
    }

    /// ReLU backward pass directly on the encoded mask,
    /// `dx[i] = dy[i] if mask[i] else 0`, writing into a preallocated
    /// buffer (e.g. a planned arena side region). Every element of `dx` is
    /// overwritten. Bit-exact with the FP32 kernel at every `GIST_SIMD`
    /// level — passing lanes copy `dy`'s bits untouched (NaN payloads
    /// included), masked lanes produce `+0.0`.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::LengthMismatch`] if `dy.len()` or
    /// `dx.len()` differs from `self.len()`.
    pub fn relu_backward_into(&self, dy: &[f32], dx: &mut [f32]) -> Result<(), EncodingError> {
        if dy.len() != self.len {
            return Err(EncodingError::LengthMismatch { expected: self.len, actual: dy.len() });
        }
        if dx.len() != self.len {
            return Err(EncodingError::LengthMismatch { expected: self.len, actual: dx.len() });
        }
        // Grain is a multiple of 32, so every chunk starts on a word
        // boundary (select_by_mask's contract).
        const GRAIN: usize = 1 << 14;
        parallel_chunks_mut(dx, GRAIN, |ci, chunk| {
            gist_simd::select_by_mask(&self.words, dy, ci * GRAIN, chunk);
        });
        Ok(())
    }
}

/// The pool layer's Y→X map: for every pool output element, the 4-bit index
/// of the winning input position within its pooling window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolIndexMap {
    nibbles: Vec<u8>,
    len: usize,
    window: usize,
}

impl PoolIndexMap {
    /// Encodes a max-pool argmax array (one window index per output
    /// element, as produced by `gist_tensor::ops::pool::maxpool_forward_into`).
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::IndexOutOfRange`] if any index is ≥ 16
    /// (windows larger than 4x4 are outside the paper's application suite).
    pub fn encode(argmax: &[u8], window: usize) -> Result<Self, EncodingError> {
        if let Some(&bad) = argmax.iter().find(|&&v| v >= 16) {
            return Err(EncodingError::IndexOutOfRange(bad));
        }
        Ok(PoolIndexMap { nibbles: bitpack::pack_nibbles(argmax), len: argmax.len(), window })
    }

    /// Number of encoded pool-output elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pooling window size this map was recorded for.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Encoded size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.nibbles.len()
    }

    /// Decodes back to one index per output element.
    pub fn decode(&self) -> Vec<u8> {
        bitpack::unpack_nibbles(&self.nibbles, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_roundtrip_and_32x_compression() {
        let y: Vec<f32> = (0..1000).map(|i| if i % 2 == 0 { i as f32 } else { -1.0 }).collect();
        let m = BitMask::encode(&y);
        assert_eq!(m.len(), 1000);
        // 1000 f32 = 4000 bytes; mask = ceil(1000/32)*4 = 128 bytes (31.25x,
        // exactly 32x modulo word rounding).
        assert_eq!(m.encoded_bytes(), 128);
        for (i, &v) in y.iter().enumerate() {
            assert_eq!(m.get(i), v > 0.0);
        }
    }

    #[test]
    fn zero_is_not_positive() {
        let m = BitMask::encode(&[0.0, -0.0, 1e-30, -1e-30]);
        assert!(!m.get(0));
        assert!(!m.get(1));
        assert!(m.get(2));
        assert!(!m.get(3));
    }

    #[test]
    fn relu_backward_on_mask_matches_fp32_reference() {
        let y: Vec<f32> = vec![0.0, 2.0, -3.0, 4.0, 0.5, 0.0];
        let dy: Vec<f32> = vec![1.0, -1.0, 2.0, -2.0, 3.0, -3.0];
        let m = BitMask::encode(&y);
        let mut dx = vec![f32::NAN; y.len()];
        m.relu_backward_into(&dy, &mut dx).unwrap();
        let reference: Vec<f32> =
            y.iter().zip(&dy).map(|(&yv, &dv)| if yv > 0.0 { dv } else { 0.0 }).collect();
        assert_eq!(dx, reference);
    }

    #[test]
    fn relu_backward_length_checked() {
        let m = BitMask::encode(&[1.0, 2.0]);
        assert!(m.relu_backward_into(&[1.0], &mut [0.0; 2]).is_err());
        assert!(m.relu_backward_into(&[1.0; 2], &mut [0.0; 3]).is_err());
    }

    #[test]
    fn pool_map_roundtrip_and_8x_compression() {
        // 3x3 window indices 0..9
        let argmax: Vec<u8> = (0..2048).map(|i| (i % 9) as u8).collect();
        let m = PoolIndexMap::encode(&argmax, 3).unwrap();
        assert_eq!(m.decode(), argmax);
        // 2048 f32 pool outputs = 8192 bytes; map = 1024 bytes -> 8x.
        assert_eq!(m.encoded_bytes(), 1024);
        assert_eq!(m.window(), 3);
    }

    #[test]
    fn pool_map_rejects_wide_windows() {
        assert_eq!(PoolIndexMap::encode(&[16], 5).unwrap_err(), EncodingError::IndexOutOfRange(16));
    }
}
