//! Vectorized codec primitives: Binarize bitpack, SSDC/CSR non-zero
//! counting, masked ReLU-backward select, and DPR quantize/dequantize.
//!
//! Each function is the single implementation `gist-encodings` calls at
//! every level; the scalar arms reproduce the original codec loops
//! verbatim, and the vector arms compute the identical per-element result
//! (bit-compares enforced by `tests/simd_equivalence.rs`). There are no
//! float reductions here at all — packing, counting and selecting are
//! integer/bitwise per element — so the only discipline needed is exact
//! per-element semantics: `> 0.0` is an *ordered* compare (false for NaN),
//! `!= 0.0` is *unordered* (true for NaN), masked select must preserve
//! NaN payloads bit-for-bit, and the DPR vector encode implements the
//! same round-to-nearest-even bit algorithm as the scalar reference.
//!
//! There are no 512-bit codec kernels: the AVX-512 level runs every AVX2
//! body here (detection requires AVX2 alongside AVX-512F).
//!
//! DPR vector paths are AVX2-only (the integer blend/shift mix is not
//! worth an SSE2 port); SSE2 falls back to the caller's scalar closure,
//! which is a performance choice, not a correctness one. They move whole
//! vectors: encode converts 8 lanes at a time and packs each 8-word group
//! with one 256-bit store — FP8's 32 codes narrow through two saturating
//! packs and a lane permute, FP16's 16 through one pack and a quadword
//! permute, FP10's 24 pack three to a word as integers — and decode widens
//! 8 bytes or 8 half-words straight into lanes (FP10 gathers each lane's
//! word and shifts its slot down). Each slice runs its lane loop inside
//! one `#[target_feature(enable = "avx2")]` function whose 8-lane helpers
//! are `#[inline]`: the same helpers called once per 8 values from
//! dispatch code do not inline, and that cost more than the staging they
//! remove.

use crate::Level;

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------

/// Packs positivity bits: output word `word0 + j` records `y[i] > 0.0`
/// (ordered: NaN is not positive) for its 32 elements `i`, LSB-first.
/// The final ragged word, if any, is packed scalar in element order.
pub fn pack_gt_zero_words(y: &[f32], word0: usize, words: &mut [u32]) {
    let lvl = crate::level();
    for (j, word) in words.iter_mut().enumerate() {
        let base = (word0 + j) * 32;
        *word = if base + 32 <= y.len() {
            match lvl {
                Level::Scalar => gt_zero_word_scalar(&y[base..base + 32]),
                #[cfg(target_arch = "x86_64")]
                Level::Sse2 => {
                    debug_assert!(base + 32 <= y.len());
                    // SAFETY: SSE2 is the x86_64 baseline; elements
                    // `base..base + 32` are inside `y`.
                    unsafe { x86::gt_zero_word_sse2(y.as_ptr().add(base)) }
                }
                #[cfg(target_arch = "x86_64")]
                Level::Avx2 | Level::Avx512 => {
                    debug_assert!(lvl <= crate::detected_level() && base + 32 <= y.len());
                    // SAFETY: AVX2 is detected wherever these levels are
                    // dispatched; elements `base..base + 32` are inside `y`.
                    unsafe { x86::gt_zero_word_avx2(y.as_ptr().add(base)) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("vector codec path requires x86_64"),
            }
        } else {
            gt_zero_word_scalar(&y[base.min(y.len())..])
        };
    }
}

fn gt_zero_word_scalar(y: &[f32]) -> u32 {
    let mut w = 0u32;
    for (b, &v) in y.iter().enumerate() {
        if v > 0.0 {
            w |= 1 << b;
        }
    }
    w
}

/// Packs booleans into words, LSB-first: word `word0 + j` holds
/// `flags[(word0 + j) * 32 ..][..32]`.
pub fn pack_bools_into_words(flags: &[bool], word0: usize, words: &mut [u32]) {
    let lvl = crate::level();
    for (j, word) in words.iter_mut().enumerate() {
        let base = (word0 + j) * 32;
        *word = if base + 32 <= flags.len() {
            match lvl {
                Level::Scalar => bools_word_scalar(&flags[base..base + 32]),
                #[cfg(target_arch = "x86_64")]
                Level::Sse2 => {
                    debug_assert!(base + 32 <= flags.len());
                    // SAFETY: SSE2 is the x86_64 baseline; `bool` is
                    // guaranteed 0x00/0x01, and 32 bytes from `base` are in
                    // range.
                    unsafe { x86::bools_word_sse2(flags.as_ptr().add(base).cast()) }
                }
                #[cfg(target_arch = "x86_64")]
                Level::Avx2 | Level::Avx512 => {
                    debug_assert!(lvl <= crate::detected_level() && base + 32 <= flags.len());
                    // SAFETY: AVX2 is detected wherever these levels are
                    // dispatched; `bool` is guaranteed 0x00/0x01, and 32
                    // bytes from `base` are in range.
                    unsafe { x86::bools_word_avx2(flags.as_ptr().add(base).cast()) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("vector codec path requires x86_64"),
            }
        } else {
            bools_word_scalar(&flags[base.min(flags.len())..])
        };
    }
}

fn bools_word_scalar(flags: &[bool]) -> u32 {
    let mut w = 0u32;
    for (b, &f) in flags.iter().enumerate() {
        if f {
            w |= 1 << b;
        }
    }
    w
}

// ---------------------------------------------------------------------------
// Masked select (ReLU backward on the encoded mask)
// ---------------------------------------------------------------------------

/// `out[j] = dy[elem0 + j]` where mask bit `elem0 + j` is set, else `0.0`.
/// Gradients pass through with their exact bits (NaN payloads included);
/// masked-off lanes become `+0.0`, as in the scalar reference.
///
/// # Panics
///
/// Panics if `elem0` is not 32-aligned (callers chunk on word boundaries),
/// or `words` or `dy` do not cover elements `elem0..elem0 + out.len()`.
pub fn select_by_mask(words: &[u32], dy: &[f32], elem0: usize, out: &mut [f32]) {
    assert_eq!(elem0 % 32, 0, "select_by_mask chunk must start on a word boundary");
    let end = elem0 + out.len();
    assert!(
        end <= dy.len() && end.div_ceil(32) <= words.len(),
        "select_by_mask: {} gradients / {} words do not cover elements {elem0}..{end}",
        dy.len(),
        words.len()
    );
    let lvl = crate::level();
    let full = match lvl {
        Level::Scalar => 0,
        _ => out.len() / 32 * 32,
    };
    let mut g = 0;
    while g < full {
        let word = words[(elem0 + g) / 32];
        debug_assert!(g + 32 <= out.len() && elem0 + g + 32 <= dy.len());
        match lvl {
            #[cfg(target_arch = "x86_64")]
            Level::Sse2 => {
                debug_assert!(lvl <= crate::detected_level());
                // SAFETY: `g + 32 <= full <= out.len()`, and the entry
                // assert puts `elem0 + out.len() <= dy.len()`: 32 elements
                // of both `dy` (at elem0 + g) and `out` (at g) are in
                // range; SSE2 is the x86_64 baseline.
                unsafe {
                    x86::select32_sse2(word, dy.as_ptr().add(elem0 + g), out.as_mut_ptr().add(g))
                };
            }
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 | Level::Avx512 => {
                debug_assert!(lvl <= crate::detected_level());
                // SAFETY: as the SSE2 arm for the ranges; AVX2 is detected
                // wherever these levels are dispatched.
                unsafe {
                    x86::select32_avx2(word, dy.as_ptr().add(elem0 + g), out.as_mut_ptr().add(g))
                };
            }
            _ => unreachable!("full-word groups only run at vector levels"),
        }
        g += 32;
    }
    for (j, o) in out.iter_mut().enumerate().skip(full) {
        let i = elem0 + j;
        *o = if (words[i / 32] >> (i % 32)) & 1 == 1 { dy[i] } else { 0.0 };
    }
}

// ---------------------------------------------------------------------------
// Non-zero counting (CSR phase 1)
// ---------------------------------------------------------------------------

/// Counts values `!= 0.0` (unordered: NaN counts, both zeros do not) —
/// the per-row CSR population pass.
pub fn count_nonzero(values: &[f32]) -> usize {
    let lvl = crate::level();
    let full = match lvl {
        Level::Scalar => 0,
        Level::Sse2 => values.len() / 4 * 4,
        Level::Avx2 | Level::Avx512 => values.len() / 8 * 8,
    };
    let mut count = 0usize;
    match lvl {
        Level::Scalar => {}
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => {
            debug_assert!(full.is_multiple_of(4) && full <= values.len());
            // SAFETY: SSE2 is the x86_64 baseline; `full` is a multiple of
            // 4 within bounds.
            count = unsafe { x86::count_nonzero_sse2(values.as_ptr(), full) };
        }
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx512 => {
            debug_assert!(
                lvl <= crate::detected_level() && full.is_multiple_of(8) && full <= values.len()
            );
            // SAFETY: AVX2 is detected wherever these levels are
            // dispatched; `full` is a multiple of 8 within bounds.
            count = unsafe { x86::count_nonzero_avx2(values.as_ptr(), full) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("vector codec path requires x86_64"),
    }
    count + values[full..].iter().filter(|&&v| v != 0.0).count()
}

// ---------------------------------------------------------------------------
// DPR quantize / dequantize
// ---------------------------------------------------------------------------

/// The format geometry the DPR kernels need (mirrors
/// `gist_encodings::DprFormat` without a crate cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DprSpec {
    /// Exponent field width.
    pub e_bits: u32,
    /// Mantissa field width.
    pub m_bits: u32,
    /// Total bits per encoded value (`1 + e + m`).
    pub bits: u32,
    /// Values packed per `u32` word.
    pub per_word: usize,
}

/// How the AVX2 level packs a format's codes, one 8-word (256-bit) group
/// at a time; a geometry with no arm runs the scalar reference only.
#[derive(Debug, Clone, Copy)]
enum Packing {
    /// 8-bit codes, four per word: 32 values narrow into one store.
    Bytes,
    /// 16-bit codes, two per word: 16 values narrow into one store.
    Halves,
    /// 10-bit codes, three per word (2 bits idle): 24 values, packed as
    /// integers after the 8-lane conversion.
    Tens,
}

impl DprSpec {
    /// Exponent bias (`2^(e-1) - 1`).
    pub fn bias(&self) -> i32 {
        (1 << (self.e_bits - 1)) - 1
    }

    /// Asserts the geometry every kernel relies on: the fields add up to
    /// `bits`, and `per_word` codes fit one word.
    fn check(&self) {
        assert_eq!(self.bits, 1 + self.e_bits + self.m_bits, "DprSpec: bits must be 1 + e + m");
        assert!(
            self.per_word >= 1 && self.bits as usize * self.per_word <= 32,
            "DprSpec: {} codes of {} bits do not fit a word",
            self.per_word,
            self.bits
        );
    }

    fn packing(&self) -> Option<Packing> {
        match (self.bits, self.per_word) {
            (8, 4) => Some(Packing::Bytes),
            (16, 2) => Some(Packing::Halves),
            (10, 3) => Some(Packing::Tens),
            _ => None,
        }
    }
}

/// Round-to-nearest-even encode of `values` into packed words: word `j`
/// holds values `j * per_word ..` LSB-first, the last word ragged.
///
/// `scalar` is the caller's reference encoder (`DprFormat::encode_one`);
/// it handles the scalar level, the SSE2 level (no integer DPR port), and
/// every word past the last whole 8-word group. The AVX2 arm converts 8
/// lanes with the same bit algorithm and packs whole vectors (see the
/// module docs); it is differentially tested against `scalar`.
///
/// # Panics
///
/// Panics if `words.len() != values.len().div_ceil(spec.per_word)`, or
/// `spec` is inconsistent.
pub fn dpr_encode_words(
    spec: DprSpec,
    values: &[f32],
    words: &mut [u32],
    scalar: impl Fn(f32) -> u16,
) {
    spec.check();
    let per = spec.per_word;
    assert_eq!(
        words.len(),
        values.len().div_ceil(per),
        "dpr_encode_words: one word per {per} values"
    );
    let groups = match (crate::level(), spec.packing()) {
        (Level::Avx2 | Level::Avx512, Some(_)) => values.len() / (8 * per),
        _ => 0,
    };
    #[cfg(target_arch = "x86_64")]
    if groups > 0 {
        debug_assert!(crate::level() <= crate::detected_level() && spec.packing().is_some());
        debug_assert!(groups * 8 * per <= values.len() && groups * 8 <= words.len());
        // SAFETY: AVX2 is detected and `spec` has a packing; the `groups`
        // whole groups read `groups * 8 * per <= values.len()` values and
        // write `groups * 8 <= words.len()` words.
        unsafe { x86::dpr_encode_avx2(spec, values.as_ptr(), words.as_mut_ptr(), groups) };
    }
    let bits = spec.bits;
    let (words, values) = (&mut words[groups * 8..], &values[groups * 8 * per..]);
    for (word, vals) in words.iter_mut().zip(values.chunks(per)) {
        *word = vals
            .iter()
            .enumerate()
            .fold(0, |w, (k, &v)| w | (scalar(v) as u32) << (k as u32 * bits));
    }
}

/// Decodes packed DPR words into `out`, where `out[j]` is overall element
/// `elem0 + j`. `scalar` is the caller's reference decoder
/// (`DprFormat::decode_one`), used for the scalar/SSE2 levels and tails;
/// the AVX2 arm loads each 8-lane group of codes straight into lanes —
/// a byte or half-word widen for 8-/16-bit codes, a word gather and
/// variable shift for 10-bit codes — before the integer decode.
///
/// # Panics
///
/// Panics if `words` does not hold elements `elem0..elem0 + out.len()`,
/// or `spec` is inconsistent.
pub fn dpr_decode_into(
    spec: DprSpec,
    words: &[u32],
    elem0: usize,
    out: &mut [f32],
    scalar: impl Fn(u16) -> f32,
) {
    spec.check();
    let (bits, per) = (spec.bits, spec.per_word);
    let end = elem0 + out.len();
    assert!(
        end.div_ceil(per) <= words.len(),
        "dpr_decode_into: {} words do not hold elements {elem0}..{end}",
        words.len()
    );
    let full = match (crate::level(), spec.packing()) {
        (Level::Avx2 | Level::Avx512, Some(_)) => out.len() / 8 * 8,
        _ => 0,
    };
    #[cfg(target_arch = "x86_64")]
    if full > 0 {
        debug_assert!(crate::level() <= crate::detected_level() && spec.packing().is_some());
        debug_assert!(full <= out.len() && (elem0 + full).div_ceil(per) <= words.len());
        // SAFETY: AVX2 is detected and `spec` has a packing; `full <=
        // out.len()` outputs are written, and every load reads only words
        // holding elements `elem0..elem0 + full`, which the assert above
        // puts inside `words`.
        unsafe { x86::dpr_decode_avx2(spec, words.as_ptr(), elem0, out.as_mut_ptr(), full) };
    }
    // The rest walks a word index and a slot counter: one division per
    // call, none per element.
    let mask = u32::MAX >> (32 - bits);
    let i = elem0 + full;
    let (mut w, mut k) = (i / per, i % per);
    for o in &mut out[full..] {
        *o = scalar(((words[w] >> (k as u32 * bits)) & mask) as u16);
        k += 1;
        if k == per {
            (w, k) = (w + 1, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// x86 arms
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{DprSpec, Packing};
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// AVX2 available; `y` valid for 32 reads.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gt_zero_word_avx2(y: *const f32) -> u32 {
        let zero = _mm256_setzero_ps();
        let mut w = 0u32;
        for q in 0..4 {
            let v = _mm256_loadu_ps(y.add(q * 8));
            // Ordered greater-than: false for NaN, exactly `v > 0.0`.
            let m = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(v, zero)) as u32;
            w |= m << (q * 8);
        }
        w
    }

    /// # Safety
    ///
    /// `y` valid for 32 reads (SSE2 is the `x86_64` baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn gt_zero_word_sse2(y: *const f32) -> u32 {
        let zero = _mm_setzero_ps();
        let mut w = 0u32;
        for q in 0..8 {
            let v = _mm_loadu_ps(y.add(q * 4));
            let m = _mm_movemask_ps(_mm_cmpgt_ps(v, zero)) as u32;
            w |= m << (q * 4);
        }
        w
    }

    /// # Safety
    ///
    /// AVX2 available; `flags` valid for 32 byte reads of 0x00/0x01 bytes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn bools_word_avx2(flags: *const u8) -> u32 {
        let v = _mm256_loadu_si256(flags.cast());
        let m = _mm256_cmpgt_epi8(v, _mm256_setzero_si256());
        _mm256_movemask_epi8(m) as u32
    }

    /// # Safety
    ///
    /// `flags` valid for 32 byte reads of 0x00/0x01 bytes.
    #[target_feature(enable = "sse2")]
    pub unsafe fn bools_word_sse2(flags: *const u8) -> u32 {
        let zero = _mm_setzero_si128();
        let lo = _mm_movemask_epi8(_mm_cmpgt_epi8(_mm_loadu_si128(flags.cast()), zero)) as u32;
        let hi =
            _mm_movemask_epi8(_mm_cmpgt_epi8(_mm_loadu_si128(flags.add(16).cast()), zero)) as u32;
        lo | (hi << 16)
    }

    /// Expands mask word `bits` over 32 gradients: kept lanes pass their
    /// exact bits (AND with all-ones), dropped lanes become `+0.0`.
    ///
    /// # Safety
    ///
    /// AVX2 available; `dy`/`out` valid for 32 reads/writes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn select32_avx2(bits: u32, dy: *const f32, out: *mut f32) {
        let lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        for q in 0..4 {
            let m8 = _mm256_set1_epi32(((bits >> (q * 8)) & 0xFF) as i32);
            let keep = _mm256_cmpeq_epi32(_mm256_and_si256(m8, lane_bits), lane_bits);
            let v = _mm256_and_ps(_mm256_loadu_ps(dy.add(q * 8)), _mm256_castsi256_ps(keep));
            _mm256_storeu_ps(out.add(q * 8), v);
        }
    }

    /// # Safety
    ///
    /// `dy`/`out` valid for 32 reads/writes.
    #[target_feature(enable = "sse2")]
    pub unsafe fn select32_sse2(bits: u32, dy: *const f32, out: *mut f32) {
        let lane_bits = _mm_setr_epi32(1, 2, 4, 8);
        for q in 0..8 {
            let m4 = _mm_set1_epi32(((bits >> (q * 4)) & 0xF) as i32);
            let keep = _mm_cmpeq_epi32(_mm_and_si128(m4, lane_bits), lane_bits);
            let v = _mm_and_ps(_mm_loadu_ps(dy.add(q * 4)), _mm_castsi128_ps(keep));
            _mm_storeu_ps(out.add(q * 4), v);
        }
    }

    /// # Safety
    ///
    /// AVX2 available; `v` valid for `full` reads, `full % 8 == 0`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_nonzero_avx2(v: *const f32, full: usize) -> usize {
        let zero = _mm256_setzero_ps();
        let mut count = 0usize;
        let mut i = 0;
        while i < full {
            // Unordered not-equal: true for NaN, false for ±0.0.
            let m = _mm256_cmp_ps::<_CMP_NEQ_UQ>(_mm256_loadu_ps(v.add(i)), zero);
            count += (_mm256_movemask_ps(m) as u32).count_ones() as usize;
            i += 8;
        }
        count
    }

    /// # Safety
    ///
    /// `v` valid for `full` reads, `full % 4 == 0`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn count_nonzero_sse2(v: *const f32, full: usize) -> usize {
        let zero = _mm_setzero_ps();
        let mut count = 0usize;
        let mut i = 0;
        while i < full {
            let m = _mm_cmpneq_ps(_mm_loadu_ps(v.add(i)), zero);
            count += (_mm_movemask_ps(m) as u32).count_ones() as usize;
            i += 4;
        }
        count
    }

    /// Encodes `groups` whole 8-word groups: `8 * per_word` values each.
    /// The lane loop lives here, inside one AVX2 function, so the 8-lane
    /// helpers inline into it; called once per 8 values, the same kernels
    /// ran slower than the scalar-staged code they replace.
    ///
    /// # Safety
    ///
    /// AVX2 available; `spec.packing()` is `Some`; `values` valid for
    /// `groups * 8 * per_word` reads and `words` for `groups * 8` writes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dpr_encode_avx2(
        spec: DprSpec,
        values: *const f32,
        words: *mut u32,
        groups: usize,
    ) {
        let per = spec.per_word;
        match spec.packing().expect("DPR geometry with an AVX2 packing") {
            Packing::Bytes => {
                // Two saturating narrows leave each 128-bit half holding
                // dwords [a b c d] of its four source vectors' lanes; the
                // permute puts each vector's two halves back in order.
                let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
                for g in 0..groups {
                    let v = values.add(g * 8 * per);
                    let ab = _mm256_packus_epi32(encode8(spec, v), encode8(spec, v.add(8)));
                    let cd =
                        _mm256_packus_epi32(encode8(spec, v.add(16)), encode8(spec, v.add(24)));
                    let bytes = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(ab, cd), order);
                    _mm256_storeu_si256(words.add(g * 8).cast(), bytes);
                }
            }
            Packing::Halves => {
                for g in 0..groups {
                    let v = values.add(g * 8 * per);
                    let halves = _mm256_packus_epi32(encode8(spec, v), encode8(spec, v.add(8)));
                    // Quadwords [a0 b0 a1 b1] -> [a0 a1 b0 b1].
                    let halves = _mm256_permute4x64_epi64::<0b11_01_10_00>(halves);
                    _mm256_storeu_si256(words.add(g * 8).cast(), halves);
                }
            }
            Packing::Tens => {
                let mut codes = [0u32; 24];
                for g in 0..groups {
                    let v = values.add(g * 8 * per);
                    for q in 0..3 {
                        let code = encode8(spec, v.add(q * 8));
                        _mm256_storeu_si256(codes.as_mut_ptr().add(q * 8).cast(), code);
                    }
                    for (j, c) in codes.chunks_exact(3).enumerate() {
                        *words.add(g * 8 + j) = c[0] | c[1] << 10 | c[2] << 20;
                    }
                }
            }
        }
    }

    /// Decodes `full` (a multiple of 8) elements starting at `elem0`.
    ///
    /// # Safety
    ///
    /// AVX2 available; `spec.packing()` is `Some`; `words` valid for reads
    /// of every word holding elements `elem0..elem0 + full`, and `out`
    /// for `full` writes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dpr_decode_avx2(
        spec: DprSpec,
        words: *const u32,
        elem0: usize,
        out: *mut f32,
        full: usize,
    ) {
        // 8- and 16-bit codes fill their words exactly, so the words are a
        // little-endian code stream: element `i` starts at byte
        // `i * bits / 8` whatever its word.
        let bytes = words.cast::<u8>();
        match spec.packing().expect("DPR geometry with an AVX2 packing") {
            Packing::Bytes => {
                for j in (0..full).step_by(8) {
                    let code = _mm256_cvtepu8_epi32(_mm_loadl_epi64(bytes.add(elem0 + j).cast()));
                    _mm256_storeu_si256(out.add(j).cast(), decode8(spec, code));
                }
            }
            Packing::Halves => {
                let halves = bytes.add(2 * elem0);
                for j in (0..full).step_by(8) {
                    let code = _mm256_cvtepu16_epi32(_mm_loadu_si128(halves.add(2 * j).cast()));
                    _mm256_storeu_si256(out.add(j).cast(), decode8(spec, code));
                }
            }
            Packing::Tens => {
                // Lane `t` of a group starting in slot `k` of word `w`
                // reads word `w + (k + t) / 3`, shifted by `(k + t) % 3`
                // slots of 10 bits.
                const WORD: [[i32; 8]; 3] =
                    [[0, 0, 0, 1, 1, 1, 2, 2], [0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 1, 1, 2, 2, 2, 3]];
                const SHIFT: [[i32; 8]; 3] = [
                    [0, 10, 20, 0, 10, 20, 0, 10],
                    [10, 20, 0, 10, 20, 0, 10, 20],
                    [20, 0, 10, 20, 0, 10, 20, 0],
                ];
                let mask = _mm256_set1_epi32(0x3FF);
                let (mut w, mut k) = (elem0 / 3, elem0 % 3);
                for j in (0..full).step_by(8) {
                    let at = _mm256_loadu_si256(WORD[k].as_ptr().cast());
                    let shift = _mm256_loadu_si256(SHIFT[k].as_ptr().cast());
                    let gathered = _mm256_i32gather_epi32::<4>(words.add(w).cast(), at);
                    let code = _mm256_and_si256(_mm256_srlv_epi32(gathered, shift), mask);
                    _mm256_storeu_si256(out.add(j).cast(), decode8(spec, code));
                    // Eight elements on: two words and two slots.
                    (w, k) = if k == 0 { (w + 2, 2) } else { (w + 3, k - 1) };
                }
            }
        }
    }

    /// 8-lane integer round-to-nearest-even DPR encode, implementing the
    /// exact branch structure of `DprFormat::encode_one`: NaN → 0,
    /// ±Inf → sign|max, zero/denormal/underflow (tested on the
    /// **pre-carry** target exponent, as the scalar does) → 0, overflow
    /// (tested post-carry) → sign|max. Returns one code per `i32` lane.
    ///
    /// # Safety
    ///
    /// AVX2 available; `values` valid for 8 reads.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn encode8(spec: DprSpec, values: *const f32) -> __m256i {
        let (e, m) = (spec.e_bits, spec.m_bits);
        let shift = 23 - m;
        let sh = |n: u32| _mm_cvtsi32_si128(n as i32);
        let ones = _mm256_set1_epi32(1);

        let bits = _mm256_castps_si256(_mm256_loadu_ps(values));
        let sign = _mm256_sll_epi32(_mm256_srl_epi32(bits, sh(31)), sh(e + m));
        let expf = _mm256_and_si256(_mm256_srl_epi32(bits, sh(23)), _mm256_set1_epi32(0xFF));
        let mant = _mm256_and_si256(bits, _mm256_set1_epi32(0x007F_FFFF));

        // Pre-carry target exponent: exp - 127 + bias (signed lanes).
        let target0 = _mm256_add_epi32(expf, _mm256_set1_epi32(spec.bias() - 127));

        // Round the 23-bit mantissa to m bits, ties to even.
        let mant_r = _mm256_srl_epi32(mant, sh(shift));
        let rem = _mm256_and_si256(mant, _mm256_set1_epi32(((1u32 << shift) - 1) as i32));
        let half = _mm256_set1_epi32((1u32 << (shift - 1)) as i32);
        let odd = _mm256_cmpeq_epi32(_mm256_and_si256(mant_r, ones), ones);
        let round_up = _mm256_or_si256(
            _mm256_cmpgt_epi32(rem, half),
            _mm256_and_si256(_mm256_cmpeq_epi32(rem, half), odd),
        );
        // `round_up` lanes are -1: subtracting adds 1.
        let mant_r = _mm256_sub_epi32(mant_r, round_up);
        // Mantissa carry: 1.11..1 rounded up to 10.0..0 bumps the exponent.
        let carry = _mm256_cmpeq_epi32(mant_r, _mm256_set1_epi32(1 << m));
        let mant_r = _mm256_andnot_si256(carry, mant_r);
        let target = _mm256_sub_epi32(target0, carry);

        let max_field = (1i32 << e) - 1;
        let overflow = _mm256_cmpgt_epi32(target, _mm256_set1_epi32(max_field - 1));
        let underflow = _mm256_cmpgt_epi32(ones, target0);
        let inf_or_nan = _mm256_cmpeq_epi32(expf, _mm256_set1_epi32(0xFF));
        let is_nan =
            _mm256_andnot_si256(_mm256_cmpeq_epi32(mant, _mm256_setzero_si256()), inf_or_nan);

        let max_code = _mm256_or_si256(
            sign,
            _mm256_set1_epi32((((1u32 << e) - 2) << m | ((1u32 << m) - 1)) as i32),
        );
        let normal =
            _mm256_or_si256(sign, _mm256_or_si256(_mm256_sll_epi32(target, sh(m)), mant_r));

        let zero = _mm256_setzero_si256();
        let mut code = _mm256_blendv_epi8(normal, max_code, overflow);
        code = _mm256_blendv_epi8(code, zero, underflow);
        code = _mm256_blendv_epi8(code, max_code, inf_or_nan);
        _mm256_blendv_epi8(code, zero, is_nan)
    }

    /// 8-lane DPR decode of one code per `i32` lane: zero exponent field →
    /// ±0.0, otherwise rebase the exponent and left-align the mantissa —
    /// the exact scalar bit recipe. Returns the `f32` bits.
    ///
    /// # Safety
    ///
    /// AVX2 available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn decode8(spec: DprSpec, code: __m256i) -> __m256i {
        let (e, m) = (spec.e_bits, spec.m_bits);
        let sh = |n: u32| _mm_cvtsi32_si128(n as i32);
        let sign31 = _mm256_sll_epi32(_mm256_srl_epi32(code, sh(e + m)), sh(31));
        let expf = _mm256_and_si256(_mm256_srl_epi32(code, sh(m)), _mm256_set1_epi32((1 << e) - 1));
        let mant = _mm256_and_si256(code, _mm256_set1_epi32((1 << m) - 1));
        let is_zero = _mm256_cmpeq_epi32(expf, _mm256_setzero_si256());
        let f32_exp = _mm256_add_epi32(expf, _mm256_set1_epi32(127 - spec.bias()));
        let normal = _mm256_or_si256(
            sign31,
            _mm256_or_si256(_mm256_sll_epi32(f32_exp, sh(23)), _mm256_sll_epi32(mant, sh(23 - m))),
        );
        _mm256_blendv_epi8(normal, sign31, is_zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{available_levels, with_level};

    const HOSTILE: [f32; 12] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1e-40,
        -1e-45,
        f32::MAX,
        f32::MIN,
        1.5,
        -2.5,
        65504.0,
    ];

    #[test]
    fn gt_zero_levels_agree() {
        for len in [0usize, 1, 31, 32, 33, 100, 256] {
            let y: Vec<f32> = (0..len).map(|i| HOSTILE[i % HOSTILE.len()]).collect();
            let nwords = len.div_ceil(32);
            let reference = with_level(Level::Scalar, || {
                let mut w = vec![0u32; nwords];
                pack_gt_zero_words(&y, 0, &mut w);
                w
            });
            for lvl in available_levels() {
                let mut w = vec![0xDEAD_BEEFu32; nwords];
                with_level(lvl, || pack_gt_zero_words(&y, 0, &mut w));
                assert_eq!(w, reference, "{lvl} len={len}");
            }
        }
    }

    #[test]
    fn select_preserves_nan_payload_bits() {
        let n = 64usize;
        let dy: Vec<f32> = (0..n).map(|i| f32::from_bits(0x7FC0_0000 | i as u32)).collect();
        let words = vec![0xAAAA_AAAAu32, 0x5555_5555];
        for lvl in available_levels() {
            let mut out = vec![0.0f32; n];
            with_level(lvl, || select_by_mask(&words, &dy, 0, &mut out));
            for (i, &o) in out.iter().enumerate() {
                let kept = (words[i / 32] >> (i % 32)) & 1 == 1;
                if kept {
                    assert_eq!(o.to_bits(), dy[i].to_bits(), "{lvl} lane {i} payload");
                } else {
                    assert_eq!(o.to_bits(), 0, "{lvl} lane {i} must be +0.0");
                }
            }
        }
    }

    /// Runs `f` at every available level, asserting that each run panics,
    /// then once more at the default level for the test's `should_panic`.
    fn panics_at_every_level(f: impl Fn() + std::panic::RefUnwindSafe) {
        for lvl in available_levels() {
            let run = std::panic::catch_unwind(|| with_level(lvl, &f));
            assert!(run.is_err(), "{lvl}: a short slice was accepted");
        }
        f();
    }

    const FP8: DprSpec = DprSpec { e_bits: 4, m_bits: 3, bits: 8, per_word: 4 };
    const FP10: DprSpec = DprSpec { e_bits: 5, m_bits: 4, bits: 10, per_word: 3 };
    const FP16: DprSpec = DprSpec { e_bits: 5, m_bits: 10, bits: 16, per_word: 2 };

    #[test]
    #[should_panic(expected = "do not hold elements")]
    fn dpr_decode_rejects_words_short_of_the_range() {
        panics_at_every_level(|| {
            for spec in [FP8, FP10, FP16] {
                // One word short of elements 1..65: a vector load would
                // run past the slice.
                let words = vec![0u32; 65usize.div_ceil(spec.per_word) - 1];
                let mut out = [0.0f32; 64];
                dpr_decode_into(spec, &words, 1, &mut out, |_| 0.0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "one word per")]
    fn dpr_encode_rejects_a_short_word_slice() {
        panics_at_every_level(|| {
            let mut words = [0u32; 15];
            dpr_encode_words(FP8, &[1.0; 64], &mut words, |_| 0);
        });
    }

    #[test]
    #[should_panic(expected = "DprSpec: 5 codes of 8 bits do not fit a word")]
    fn dpr_kernels_reject_more_codes_than_a_word_holds() {
        panics_at_every_level(|| {
            let mut out = [0.0f32; 8];
            dpr_decode_into(DprSpec { per_word: 5, ..FP8 }, &[0; 8], 0, &mut out, |_| 0.0);
        });
    }

    #[test]
    #[should_panic(expected = "DprSpec: bits must be 1 + e + m")]
    fn dpr_kernels_reject_fields_that_miss_the_width() {
        panics_at_every_level(|| {
            dpr_encode_words(DprSpec { bits: 9, ..FP8 }, &[0.0; 8], &mut [0; 2], |_| 0);
        });
    }

    #[test]
    #[should_panic(expected = "do not cover elements")]
    fn select_rejects_gradients_short_of_the_range() {
        panics_at_every_level(|| {
            let mut out = [0.0f32; 64];
            select_by_mask(&[u32::MAX; 2], &[1.0; 63], 0, &mut out);
        });
    }

    #[test]
    #[should_panic(expected = "do not cover elements")]
    fn select_rejects_words_short_of_the_range() {
        panics_at_every_level(|| {
            let mut out = [0.0f32; 64];
            select_by_mask(&[u32::MAX; 2], &[1.0; 96], 32, &mut out);
        });
    }

    #[test]
    fn count_nonzero_levels_agree() {
        for len in [0usize, 1, 7, 8, 9, 255, 1000] {
            let v: Vec<f32> = (0..len).map(|i| HOSTILE[(i * 7) % HOSTILE.len()]).collect();
            let expect = v.iter().filter(|&&x| x != 0.0).count();
            for lvl in available_levels() {
                assert_eq!(with_level(lvl, || count_nonzero(&v)), expect, "{lvl} len={len}");
            }
        }
    }
}
