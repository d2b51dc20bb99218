//! Delayed Precision Reduction formats (Section IV-A, "Lossy Encoding").
//!
//! Three reduced floating-point formats, each packing whole values into
//! 4-byte words exactly as the paper describes:
//!
//! | format | layout (sign/exp/mantissa) | values per u32 |
//! |--------|----------------------------|----------------|
//! | FP16   | 1/5/10 (IEEE half)         | 2              |
//! | FP10   | 1/5/4                      | 3 (2 bits idle)|
//! | FP8    | 1/4/3                      | 4              |
//!
//! Conversions use round-to-nearest(-even), clamp values outside the target
//! range to the maximum/minimum representable, and flush denormals to zero
//! ("we ignore denormalized numbers as they have negligible effect on CNN
//! accuracy").

/// A DPR target format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DprFormat {
    /// IEEE half precision: 1 sign, 5 exponent, 10 mantissa bits.
    Fp16,
    /// 1 sign, 5 exponent, 4 mantissa bits; three values per 4 bytes.
    Fp10,
    /// 1 sign, 4 exponent, 3 mantissa bits; four values per 4 bytes.
    Fp8,
}

impl DprFormat {
    /// Exponent field width.
    pub fn exp_bits(&self) -> u32 {
        match self {
            DprFormat::Fp16 | DprFormat::Fp10 => 5,
            DprFormat::Fp8 => 4,
        }
    }

    /// Mantissa field width.
    pub fn mant_bits(&self) -> u32 {
        match self {
            DprFormat::Fp16 => 10,
            DprFormat::Fp10 => 4,
            DprFormat::Fp8 => 3,
        }
    }

    /// Total bits per encoded value.
    pub fn bits(&self) -> u32 {
        1 + self.exp_bits() + self.mant_bits()
    }

    /// How many values share one 4-byte word.
    pub fn values_per_word(&self) -> usize {
        match self {
            DprFormat::Fp16 => 2,
            DprFormat::Fp10 => 3,
            DprFormat::Fp8 => 4,
        }
    }

    /// Packed size in bytes of `len` values: whole 4-byte words of
    /// [`Self::values_per_word`] values each.
    pub fn packed_bytes(&self, len: usize) -> usize {
        len.div_ceil(self.values_per_word()) * 4
    }

    /// Exponent bias.
    pub fn bias(&self) -> i32 {
        (1 << (self.exp_bits() - 1)) - 1
    }

    /// Largest finite representable magnitude. The all-ones exponent field
    /// is reserved (IEEE-style), so the maximum normal exponent is
    /// `2^E - 2 - bias`.
    pub fn max_value(&self) -> f32 {
        let max_exp = ((1 << self.exp_bits()) - 2) - self.bias();
        let mant = 2.0 - (2.0f64).powi(-(self.mant_bits() as i32));
        (mant * (2.0f64).powi(max_exp)) as f32
    }

    /// Smallest positive normal magnitude; anything below flushes to zero.
    pub fn min_normal(&self) -> f32 {
        (2.0f64).powi(1 - self.bias()) as f32
    }

    /// Paper-facing label.
    pub fn label(&self) -> &'static str {
        match self {
            DprFormat::Fp16 => "FP16",
            DprFormat::Fp10 => "FP10",
            DprFormat::Fp8 => "FP8",
        }
    }

    /// Encodes one `f32` into the format's raw bits (right-aligned).
    ///
    /// NaN inputs flush to zero (CNN feature maps are finite by
    /// construction; this keeps the format total).
    ///
    /// This is the fast bit-manipulation path; [`Self::encode_one_reference`]
    /// is the arithmetic specification it is property-tested against.
    pub fn encode_one(&self, v: f32) -> u16 {
        let (e_bits, m_bits) = (self.exp_bits(), self.mant_bits());
        let bias = self.bias();
        let bits = v.to_bits();
        let sign = ((bits >> 31) as u16) << (e_bits + m_bits);
        let exp_f32 = ((bits >> 23) & 0xFF) as i32;
        let mant_f32 = bits & 0x007F_FFFF;
        if exp_f32 == 0xFF {
            if mant_f32 != 0 {
                return 0; // NaN flushes to zero
            }
            // Infinity clamps to the largest finite value.
            return sign | Self::max_bits(e_bits, m_bits);
        }
        if exp_f32 == 0 {
            // f32 zero or denormal: far below every format's min normal.
            return 0;
        }
        let mut target_exp = exp_f32 - 127 + bias;
        if target_exp <= 0 {
            return 0; // below the format's min normal: denormal flush
        }
        let max_field = (1i32 << e_bits) - 1;
        if target_exp >= max_field {
            return sign | Self::max_bits(e_bits, m_bits);
        }
        // Round the 23-bit mantissa to m_bits, ties to even.
        let shift = 23 - m_bits;
        let mut mant = mant_f32 >> shift;
        let rem = mant_f32 & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rem > half || (rem == half && mant & 1 == 1) {
            mant += 1;
        }
        if mant == 1 << m_bits {
            mant = 0;
            target_exp += 1;
            if target_exp >= max_field {
                return sign | Self::max_bits(e_bits, m_bits);
            }
        }
        sign | ((target_exp as u16) << m_bits) | mant as u16
    }

    /// Bits of the largest finite value (sign excluded).
    fn max_bits(e_bits: u32, m_bits: u32) -> u16 {
        ((((1u32 << e_bits) - 2) << m_bits) | ((1u32 << m_bits) - 1)) as u16
    }

    /// The arithmetic (f64) reference implementation of [`Self::encode_one`],
    /// kept as the executable specification for property testing.
    pub fn encode_one_reference(&self, v: f32) -> u16 {
        let (e_bits, m_bits) = (self.exp_bits(), self.mant_bits());
        let bias = self.bias();
        if v.is_nan() || v == 0.0 {
            return 0;
        }
        let sign: u16 = if v.is_sign_negative() { 1 << (e_bits + m_bits) } else { 0 };
        let a = v.abs() as f64;
        let max = self.max_value() as f64;
        if a >= max {
            // Clamp to largest finite value.
            let exp_field = (1u16 << e_bits) - 2;
            let mant_field = (1u16 << m_bits) - 1;
            return sign | (exp_field << m_bits) | mant_field;
        }
        if a < self.min_normal() as f64 {
            // Denormal flush. Values in [min_normal/2, min_normal) would
            // round up to min_normal under RNE, but the paper flushes all
            // sub-normal-range inputs.
            return 0;
        }
        // Normalize: a = (1 + frac) * 2^e with frac in [0, 1).
        let mut e = a.log2().floor() as i32;
        // log2 can land one off at powers of two; correct by comparison.
        if a < (2.0f64).powi(e) {
            e -= 1;
        } else if a >= (2.0f64).powi(e + 1) {
            e += 1;
        }
        let frac = a / (2.0f64).powi(e) - 1.0;
        let scaled = frac * (1u64 << m_bits) as f64;
        let floor = scaled.floor();
        let rem = scaled - floor;
        let mut mant = floor as u64;
        // Round to nearest, ties to even.
        if rem > 0.5 || (rem == 0.5 && mant % 2 == 1) {
            mant += 1;
        }
        if mant == (1u64 << m_bits) {
            mant = 0;
            e += 1;
        }
        let exp_field = e + bias;
        if exp_field >= (1 << e_bits) - 1 {
            // Rounded past the top: clamp.
            let exp_field = (1u16 << e_bits) - 2;
            let mant_field = (1u16 << m_bits) - 1;
            return sign | (exp_field << m_bits) | mant_field;
        }
        debug_assert!(exp_field >= 1);
        sign | ((exp_field as u16) << m_bits) | mant as u16
    }

    /// Decodes raw bits back to `f32` (exact: every format value is an f32).
    pub fn decode_one(&self, bits: u16) -> f32 {
        let (e_bits, m_bits) = (self.exp_bits(), self.mant_bits());
        let sign = ((bits as u32) >> (e_bits + m_bits)) & 1;
        let exp_field = ((bits >> m_bits) & ((1 << e_bits) - 1)) as i32;
        let mant = (bits & ((1 << m_bits) - 1)) as u32;
        if exp_field == 0 {
            // Zero (denormals flushed at encode time).
            return if sign == 1 { -0.0 } else { 0.0 };
        }
        let f32_exp = (exp_field - self.bias() + 127) as u32;
        let f32_bits = (sign << 31) | (f32_exp << 23) | (mant << (23 - m_bits));
        f32::from_bits(f32_bits)
    }

    /// Round-trips one value through the format: the exact error DPR
    /// injects into the backward pass.
    pub fn quantize(&self, v: f32) -> f32 {
        self.decode_one(self.encode_one(v))
    }

    /// The format geometry handed to `gist_simd`'s DPR kernels (which take
    /// [`Self::encode_one`]/[`Self::decode_one`] as the scalar reference,
    /// so the bit algorithm lives only here).
    pub(crate) fn spec(&self) -> gist_simd::DprSpec {
        gist_simd::DprSpec {
            e_bits: self.exp_bits(),
            m_bits: self.mant_bits(),
            bits: self.bits(),
            per_word: self.values_per_word(),
        }
    }
}

/// How conversion rounds values that fall between representable points.
///
/// The paper uses round-to-nearest; its low-precision-training references
/// (\[16\], \[8\]) use *stochastic* rounding, which is unbiased in expectation.
/// Provided as an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundingMode {
    /// IEEE-style round to nearest, ties to even (the paper's choice).
    Nearest,
    /// Round up with probability equal to the fractional position between
    /// the two neighbours, derived deterministically from the seed and the
    /// value's bits.
    Stochastic {
        /// Seed mixed into each per-value rounding decision.
        seed: u64,
    },
}

impl DprFormat {
    /// Encodes one `f32` with an explicit rounding mode. `encode_one` is
    /// the `RoundingMode::Nearest` special case.
    pub fn encode_one_with(&self, v: f32, mode: RoundingMode) -> u16 {
        match mode {
            RoundingMode::Nearest => self.encode_one(v),
            RoundingMode::Stochastic { seed } => {
                let (e_bits, m_bits) = (self.exp_bits(), self.mant_bits());
                let bias = self.bias();
                if v.is_nan() || v == 0.0 {
                    return 0;
                }
                let sign: u16 = if v.is_sign_negative() { 1 << (e_bits + m_bits) } else { 0 };
                let a = v.abs() as f64;
                if a >= self.max_value() as f64 {
                    let exp_field = (1u16 << e_bits) - 2;
                    let mant_field = (1u16 << m_bits) - 1;
                    return sign | (exp_field << m_bits) | mant_field;
                }
                if a < self.min_normal() as f64 {
                    return 0;
                }
                let mut e = a.log2().floor() as i32;
                if a < (2.0f64).powi(e) {
                    e -= 1;
                } else if a >= (2.0f64).powi(e + 1) {
                    e += 1;
                }
                let frac = a / (2.0f64).powi(e) - 1.0;
                let scaled = frac * (1u64 << m_bits) as f64;
                let floor = scaled.floor();
                let rem = scaled - floor;
                // SplitMix64 over (seed, value bits) -> uniform in [0, 1).
                let mut z = seed ^ (v.to_bits() as u64).wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                let mut mant = floor as u64;
                if u < rem {
                    mant += 1;
                }
                if mant == (1u64 << m_bits) {
                    mant = 0;
                    e += 1;
                }
                let exp_field = e + bias;
                if exp_field >= (1 << e_bits) - 1 {
                    let exp_field = (1u16 << e_bits) - 2;
                    let mant_field = (1u16 << m_bits) - 1;
                    return sign | (exp_field << m_bits) | mant_field;
                }
                sign | ((exp_field as u16) << m_bits) | mant as u16
            }
        }
    }
}

/// A packed buffer of DPR-encoded values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DprBuffer {
    format: DprFormat,
    words: Vec<u32>,
    len: usize,
}

impl DprBuffer {
    /// Encodes a slice, packing 2/3/4 values per 4-byte word.
    pub fn encode(format: DprFormat, values: &[f32]) -> Self {
        Self::encode_with(format, values, RoundingMode::Nearest)
    }

    /// Encodes with an explicit rounding mode (the stochastic ablation).
    ///
    /// Parallelized per output word on the `gist-par` pool: each word packs
    /// only its own 2/3/4 values and every per-value conversion is pure
    /// (stochastic rounding derives its decision from the seed and value
    /// bits), so the buffer is byte-identical at every thread count.
    /// Nearest-mode conversion runs through `gist_simd::dpr_encode_words`,
    /// one call per chunk (whole packed vectors at the AVX2 level,
    /// `encode_one` elsewhere — byte-identical either way); stochastic
    /// rounding stays scalar at every level.
    pub fn encode_with(format: DprFormat, values: &[f32], mode: RoundingMode) -> Self {
        let (per, bits, spec) = (format.values_per_word(), format.bits(), format.spec());
        let mut words = vec![0u32; format.packed_bytes(values.len()) / 4];
        const GRAIN: usize = 1 << 12;
        gist_par::parallel_chunks_mut(&mut words, GRAIN, |ci, chunk| {
            let base = ci * GRAIN * per;
            let values = &values[base..(base + chunk.len() * per).min(values.len())];
            if mode == RoundingMode::Nearest {
                gist_simd::dpr_encode_words(spec, values, chunk, |v| format.encode_one(v));
                return;
            }
            for (word, vals) in chunk.iter_mut().zip(values.chunks(per)) {
                *word = vals.iter().enumerate().fold(0, |w, (k, &v)| {
                    w | (format.encode_one_with(v, mode) as u32) << (k as u32 * bits)
                });
            }
        });
        DprBuffer { format, words, len: values.len() }
    }

    /// The target format.
    pub fn format(&self) -> DprFormat {
        self.format
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Serializes just the packed words (format and length travel in the
    /// caller's header) for `transfer::Wire::to_bytes`.
    pub(crate) fn write_words(&self, out: &mut Vec<u8>) {
        crate::bytes::put_u32s(out, &self.words);
    }

    /// Reads the packed words for `len` values of `format` back out of a
    /// byte cursor. The word count is fully determined by `(format, len)`,
    /// so the only failure mode is truncation.
    pub(crate) fn read_words(
        format: DprFormat,
        len: usize,
        r: &mut crate::bytes::Reader,
    ) -> Result<DprBuffer, crate::transfer::WireError> {
        let words = r.u32s(format.packed_bytes(len) / 4)?;
        Ok(DprBuffer { format, words, len })
    }

    /// Decodes the buffer back to `f32` values.
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        self.decode_into(&mut out);
        out
    }

    /// Decodes into a preallocated buffer (e.g. an arena view). Every
    /// element of `out` is overwritten; bit-exact with [`decode`] (each
    /// element is a pure function of its packed word). Runs through
    /// `gist_simd::dpr_decode_into` — the decode is exact in every format,
    /// so vectorization cannot change a single bit.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "decode_into length");
        let spec = self.format.spec();
        gist_par::parallel_chunks_mut(out, 1 << 14, |ci, chunk| {
            gist_simd::dpr_decode_into(spec, &self.words, ci * (1 << 14), chunk, |b| {
                self.format.decode_one(b)
            });
        });
    }

    /// Decodes values `start..start + out.len()` into `out`, serially;
    /// bit-exact with the same slice of [`decode`] (each value is a pure
    /// function of its packed word).
    ///
    /// [`decode`]: Self::decode
    ///
    /// # Panics
    ///
    /// Panics if the range runs past `self.len()`.
    pub fn decode_range(&self, start: usize, out: &mut [f32]) {
        let end = start + out.len();
        assert!(end <= self.len, "decode_range {start}..{end} of {}", self.len);
        gist_simd::dpr_decode_into(self.format.spec(), &self.words, start, out, |b| {
            self.format.decode_one(b)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_matches_known_ieee_half_encodings() {
        let f = DprFormat::Fp16;
        assert_eq!(f.encode_one(1.0), 0x3C00);
        assert_eq!(f.encode_one(-2.0), 0xC000);
        assert_eq!(f.encode_one(0.5), 0x3800);
        assert_eq!(f.encode_one(65504.0), 0x7BFF); // max half
        assert_eq!(f.decode_one(0x3C00), 1.0);
        assert_eq!(f.decode_one(0x7BFF), 65504.0);
        assert_eq!(f.max_value(), 65504.0);
    }

    #[test]
    fn format_geometry_matches_paper_table() {
        assert_eq!(DprFormat::Fp16.bits(), 16);
        assert_eq!(DprFormat::Fp10.bits(), 10);
        assert_eq!(DprFormat::Fp8.bits(), 8);
        assert_eq!(DprFormat::Fp16.values_per_word(), 2);
        assert_eq!(DprFormat::Fp10.values_per_word(), 3);
        assert_eq!(DprFormat::Fp8.values_per_word(), 4);
        // FP8: 1 sign, 4 exp, 3 mantissa
        assert_eq!(DprFormat::Fp8.exp_bits(), 4);
        assert_eq!(DprFormat::Fp8.mant_bits(), 3);
        // FP10: 1 sign, 5 exp, 4 mantissa
        assert_eq!(DprFormat::Fp10.exp_bits(), 5);
        assert_eq!(DprFormat::Fp10.mant_bits(), 4);
    }

    #[test]
    fn exactly_representable_values_roundtrip() {
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            for v in [0.0f32, 1.0, -1.0, 2.0, 0.5, -0.25, 4.0, 1.5] {
                assert_eq!(f.quantize(v), v, "{} should be exact in {}", v, f.label());
            }
        }
    }

    #[test]
    fn quantization_error_is_bounded_by_half_ulp() {
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let m = f.mant_bits();
            let mut x = 0.11f32;
            for _ in 0..100 {
                x = x * 1.07 + 0.013; // wander through [0.1, ~large)
                if x.abs() >= f.max_value() {
                    break;
                }
                let q = f.quantize(x);
                let rel = ((q - x) / x).abs();
                // Half ULP relative error bound: 2^-(M+1).
                let bound = (2.0f32).powi(-(m as i32 + 1)) * 1.0001;
                assert!(rel <= bound, "{}: x={x} q={q} rel={rel}", f.label());
            }
        }
    }

    #[test]
    fn clamping_at_range_edges() {
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let max = f.max_value();
            assert_eq!(f.quantize(max * 4.0), max);
            assert_eq!(f.quantize(-max * 4.0), -max);
            assert_eq!(f.quantize(f32::INFINITY), max);
        }
    }

    #[test]
    fn denormals_flush_to_zero() {
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let tiny = f.min_normal() * 0.5;
            assert_eq!(f.quantize(tiny), 0.0);
            assert_eq!(f.quantize(-tiny), -0.0);
            // Smallest normal survives.
            assert_eq!(f.quantize(f.min_normal()), f.min_normal());
        }
    }

    #[test]
    fn nan_flushes_to_zero() {
        assert_eq!(DprFormat::Fp16.quantize(f32::NAN), 0.0);
    }

    #[test]
    fn quantize_is_idempotent() {
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let mut x = -3.7f32;
            for _ in 0..50 {
                x += 0.37;
                let q = f.quantize(x);
                assert_eq!(f.quantize(q), q, "{}: {x}", f.label());
            }
        }
    }

    #[test]
    fn buffer_packing_density_matches_paper() {
        let values = vec![1.0f32; 120];
        // FP16: 2 per word -> 60 words -> 240 bytes (2x).
        assert_eq!(DprBuffer::encode(DprFormat::Fp16, &values).encoded_bytes(), 240);
        // FP10: 3 per word -> 40 words -> 160 bytes (3x).
        assert_eq!(DprBuffer::encode(DprFormat::Fp10, &values).encoded_bytes(), 160);
        // FP8: 4 per word -> 30 words -> 120 bytes (4x).
        assert_eq!(DprBuffer::encode(DprFormat::Fp8, &values).encoded_bytes(), 120);
    }

    #[test]
    fn buffer_roundtrip_equals_per_value_quantize() {
        let values: Vec<f32> = (0..97).map(|i| (i as f32 - 48.0) * 0.37).collect();
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let buf = DprBuffer::encode(f, &values);
            assert_eq!(buf.len(), 97);
            let dec = buf.decode();
            let expect: Vec<f32> = values.iter().map(|&v| f.quantize(v)).collect();
            assert_eq!(dec, expect, "{}", f.label());
        }
    }

    #[test]
    fn stochastic_rounding_is_unbiased_in_expectation() {
        // A value exactly 30% of the way between two FP8 neighbours should
        // round up ~30% of the time across seeds.
        let f = DprFormat::Fp8; // neighbours 1.0 and 1.125
        let v = 1.0 + 0.3 * 0.125;
        let mut ups = 0usize;
        let trials = 20_000;
        for seed in 0..trials {
            let q =
                f.decode_one(f.encode_one_with(v, RoundingMode::Stochastic { seed: seed as u64 }));
            assert!(q == 1.0 || q == 1.125, "unexpected neighbour {q}");
            if q == 1.125 {
                ups += 1;
            }
        }
        let rate = ups as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "up-rate {rate:.3}, expected ~0.30");
    }

    #[test]
    fn stochastic_rounding_is_deterministic_per_seed() {
        let f = DprFormat::Fp10;
        let mode = RoundingMode::Stochastic { seed: 99 };
        for v in [0.123f32, -4.56, 1000.0, 3e-4] {
            assert_eq!(f.encode_one_with(v, mode), f.encode_one_with(v, mode));
        }
    }

    #[test]
    fn stochastic_matches_nearest_on_exact_values() {
        // Exactly representable values have rem == 0: both modes agree.
        let f = DprFormat::Fp16;
        let mode = RoundingMode::Stochastic { seed: 5 };
        for v in [1.0f32, -2.0, 0.5, 0.25, 1.5, 65504.0, 0.0] {
            assert_eq!(f.encode_one_with(v, mode), f.encode_one(v), "{v}");
        }
    }

    #[test]
    fn fast_path_matches_reference_exhaustively_sampled() {
        // Dense sweep across magnitudes, signs and rounding positions; the
        // integration property test covers random values, this covers the
        // structured edge cases.
        for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let mut probes: Vec<f32> = vec![
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE,
                f.min_normal(),
                f.min_normal() * 0.999,
                f.min_normal() * 0.5,
                f.max_value(),
                f.max_value() * 0.999,
                f.max_value() * 1.001,
                1e-30,
                -1e-30,
                1e30,
                -1e30,
            ];
            let mut x = 1.0e-6f32;
            while x < 1.0e6 {
                probes.push(x);
                probes.push(-x);
                probes.push(x * 1.0000001);
                x *= 1.37;
            }
            for &v in &probes {
                assert_eq!(f.encode_one(v), f.encode_one_reference(v), "{}: v={v:e}", f.label());
            }
        }
    }

    #[test]
    fn rounds_to_nearest() {
        let f = DprFormat::Fp8; // 3 mantissa bits: representable 1.0, 1.125, ...
        assert_eq!(f.quantize(1.051), 1.0);
        assert_eq!(f.quantize(1.074), 1.125); // above midpoint 1.0625
                                              // Tie rounds to even mantissa: 1.0625 is midway between 1.0 (mant 0,
                                              // even) and 1.125 (mant 1, odd) -> 1.0.
        assert_eq!(f.quantize(1.0625), 1.0);
        // Midway between 1.125 (odd) and 1.25 (mant 2, even) -> 1.25.
        assert_eq!(f.quantize(1.1875), 1.25);
    }
}
