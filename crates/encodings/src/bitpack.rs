//! Low-level bit packing: 1-bit flags and 4-bit nibbles.
//!
//! Packing is parallelized per output word/byte on the `gist-par` pool:
//! each word is a pure function of its own 32 flags (or 2 nibbles), so the
//! packed bytes are identical at every thread count. Flag packing runs
//! through `gist_simd` (movemask at vector levels) — bit packing is pure
//! integer work, so every `GIST_SIMD` level produces identical bytes.

use gist_par::{parallel_chunks_mut, parallel_map};

/// Output words/bytes per parallel chunk for the packing loops.
const PACK_GRAIN: usize = 1 << 11;

/// Packs a slice of booleans into `u32` words, LSB-first.
pub fn pack_bits(flags: &[bool]) -> Vec<u32> {
    let mut words = vec![0u32; crate::BitMask::bytes_for(flags.len()) / 4];
    parallel_chunks_mut(&mut words, PACK_GRAIN, |ci, chunk| {
        gist_simd::pack_bools_into_words(flags, ci * PACK_GRAIN, chunk);
    });
    words
}

/// Reads bit `i` from packed words.
#[inline]
pub fn get_bit(words: &[u32], i: usize) -> bool {
    (words[i / 32] >> (i % 32)) & 1 == 1
}

/// Unpacks the first `len` bits into booleans.
pub fn unpack_bits(words: &[u32], len: usize) -> Vec<bool> {
    parallel_map(len, PACK_GRAIN * 32, |i| get_bit(words, i))
}

/// Packs 4-bit values (must each be `< 16`) two per byte, low nibble first.
///
/// # Panics
///
/// Panics in debug builds if any value needs more than 4 bits; callers
/// validate first (the largest pooling window in the paper's suite is 3x3,
/// so indices are at most 8).
pub fn pack_nibbles(values: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0u8; values.len().div_ceil(2)];
    parallel_chunks_mut(&mut bytes, PACK_GRAIN, |ci, chunk| {
        for (j, byte) in chunk.iter_mut().enumerate() {
            let base = (ci * PACK_GRAIN + j) * 2;
            let mut b = 0u8;
            for (k, &v) in values[base..(base + 2).min(values.len())].iter().enumerate() {
                debug_assert!(v < 16, "nibble overflow: {v}");
                b |= (v & 0x0F) << (k * 4);
            }
            *byte = b;
        }
    });
    bytes
}

/// Reads nibble `i` from packed bytes.
#[inline]
pub fn get_nibble(bytes: &[u8], i: usize) -> u8 {
    (bytes[i / 2] >> ((i % 2) * 4)) & 0x0F
}

/// Unpacks the first `len` nibbles.
pub fn unpack_nibbles(bytes: &[u8], len: usize) -> Vec<u8> {
    parallel_map(len, PACK_GRAIN * 2, |i| get_nibble(bytes, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let flags: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let packed = pack_bits(&flags);
        assert_eq!(packed.len(), 4); // ceil(100/32)
        assert_eq!(unpack_bits(&packed, 100), flags);
    }

    #[test]
    fn bits_storage_is_one_bit_per_element() {
        let flags = vec![true; 1024];
        assert_eq!(pack_bits(&flags).len() * 4, 128); // 1024 bits = 128 bytes
    }

    #[test]
    fn empty_inputs() {
        assert!(pack_bits(&[]).is_empty());
        assert!(pack_nibbles(&[]).is_empty());
        assert!(unpack_bits(&[], 0).is_empty());
    }

    #[test]
    fn nibbles_roundtrip() {
        let vals: Vec<u8> = (0..33).map(|i| (i % 16) as u8).collect();
        let packed = pack_nibbles(&vals);
        assert_eq!(packed.len(), 17);
        assert_eq!(unpack_nibbles(&packed, 33), vals);
    }

    #[test]
    fn nibble_order_low_first() {
        let packed = pack_nibbles(&[0x3, 0xA]);
        assert_eq!(packed, vec![0xA3]);
        assert_eq!(get_nibble(&packed, 0), 3);
        assert_eq!(get_nibble(&packed, 1), 10);
    }
}
