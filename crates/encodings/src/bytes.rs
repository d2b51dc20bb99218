//! Little-endian byte cursor shared by the wire serializers
//! (`transfer::Wire` and the payload containers it carries).
//!
//! Reading is total: every primitive checks the remaining length first and
//! returns [`WireError::Truncated`] instead of slicing out of bounds, and
//! vector reads size their allocation *after* the bounds check so a
//! corrupt count field can never trigger a huge allocation.

use crate::dpr::DprFormat;
use crate::transfer::WireError;
use std::io::Write;

/// Appends a `u32` in little-endian order.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends 4-byte values in little-endian order, a block at a time: each
/// block is converted on the stack and lands in `out` as one
/// `extend_from_slice`, so the destination is written exactly once.
fn put_words<T: Copy>(out: &mut Vec<u8>, vs: &[T], le: impl Fn(T) -> [u8; 4]) {
    const BLOCK: usize = 1024;
    let mut block = [0u8; BLOCK * 4];
    for chunk in vs.chunks(BLOCK) {
        let bytes = &mut block[..chunk.len() * 4];
        for (dst, &v) in bytes.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&le(v));
        }
        out.extend_from_slice(bytes);
    }
}

/// Appends `u32`s in little-endian order.
pub(crate) fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_words(out, vs, u32::to_le_bytes);
}

/// Appends `f32`s bit-exactly (NaN payloads included).
pub(crate) fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    put_words(out, vs, f32::to_le_bytes);
}

/// Writes 4-byte values to a stream in the order [`put_words`] appends
/// them: on a little-endian host the slice already is those bytes and goes
/// out in one `write_all`; elsewhere a stack block at a time.
macro_rules! write_words {
    ($name:ident, $t:ty) => {
        #[doc = concat!("Writes `", stringify!($t), "`s to `w` in little-endian order.")]
        pub(crate) fn $name(w: &mut dyn Write, vs: &[$t]) -> std::io::Result<()> {
            if cfg!(target_endian = "little") {
                // SAFETY: a 4-byte plain value with no padding and no
                // invalid bit patterns; the byte view covers exactly the
                // slice's memory and lives no longer than the borrow.
                let bytes = unsafe {
                    std::slice::from_raw_parts(vs.as_ptr().cast::<u8>(), std::mem::size_of_val(vs))
                };
                return w.write_all(bytes);
            }
            const BLOCK: usize = 1024;
            let mut block = [0u8; BLOCK * 4];
            for chunk in vs.chunks(BLOCK) {
                let bytes = &mut block[..chunk.len() * 4];
                for (dst, &v) in bytes.chunks_exact_mut(4).zip(chunk) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
                w.write_all(bytes)?;
            }
            Ok(())
        }
    };
}
write_words!(write_f32s, f32);
write_words!(write_u32s, u32);

/// The little-endian `u32`s of `b` (a whole number of words), in order.
pub(crate) fn le_u32s(b: &[u8]) -> impl Iterator<Item = u32> + '_ {
    b.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// Wire tag for a DPR format (`1` FP16, `2` FP10, `3` FP8; `0` is reserved
/// for "raw f32" where a value-format field allows it).
pub(crate) fn format_tag(f: DprFormat) -> u8 {
    match f {
        DprFormat::Fp16 => 1,
        DprFormat::Fp10 => 2,
        DprFormat::Fp8 => 3,
    }
}

/// Inverse of [`format_tag`].
pub(crate) fn tag_format(t: u8) -> Option<DprFormat> {
    match t {
        1 => Some(DprFormat::Fp16),
        2 => Some(DprFormat::Fp10),
        3 => Some(DprFormat::Fp8),
        _ => None,
    }
}

/// A bounds-checked little-endian read cursor. Public for containers that
/// frame wires in a buffer of their own (`gist-runtime`'s `Snapshot`).
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, borrowed; [`WireError::Truncated`] if fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Exactly `n` raw bytes.
    pub(crate) fn bytes(&mut self, n: usize) -> Result<Vec<u8>, WireError> {
        Ok(self.take(n)?.to_vec())
    }

    /// The bytes of exactly `n` 4-byte words, borrowed.
    pub(crate) fn words(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n.checked_mul(4).ok_or(WireError::Corrupt("element count overflows"))?)
    }

    /// Exactly `n` little-endian `u32`s.
    pub(crate) fn u32s(&mut self, n: usize) -> Result<Vec<u32>, WireError> {
        Ok(le_u32s(self.words(n)?).collect())
    }

    /// Exactly `n` `f32`s, bit-exact.
    pub(crate) fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        Ok(le_u32s(self.words(n)?).map(f32::from_bits).collect())
    }
}
