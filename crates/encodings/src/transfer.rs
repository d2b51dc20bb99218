//! Codec-on-transfer: encode a dense `f32` buffer before it crosses a
//! (virtual) link, decode it bit-exactly on arrival.
//!
//! Two consumers share this seam ("build once, use twice" per ROADMAP):
//! the distributed gradient all-reduce in `gist-dist`, where every
//! reduction-tree edge ships its partial through the chosen codec, and the
//! executed cDMA swap path in `gist-runtime`, where a swapped-out stash is
//! SSDC-encoded on its way to the host store and decoded back on swap-in.
//!
//! The SSDC payload alone is *not* bitwise lossless: CSR's `v != 0.0`
//! predicate drops `-0.0`, which decodes to `+0.0`. A [`Wire`] therefore
//! records the indices of negative-zero elements as fixups (there is
//! nothing else to fix: every other bit pattern, NaN payloads included,
//! rides through CSR raw) and rewrites them after the scatter, making
//! `TransferCodec::Ssdc` exactly round-trip every input. DPR stays lossy
//! by design — it is the paper's precision-reduction ablation — but its
//! loss is a pure per-element function, so it is still deterministic.

use crate::bytes::{
    format_tag, le_u32s, put_f32s, put_u32, put_u32s, tag_format, write_f32s, write_u32s, Reader,
};
use crate::csr::{self, CsrMatrix, SsdcConfig};
use crate::dpr::{DprBuffer, DprFormat};
use std::io::Write;

/// A malformed wire byte stream. Every variant is a *rejection*: the
/// decoder's contract is that any byte slice — truncated, bit-flipped, or
/// outright garbage — produces an `Err`, never a panic, and that any
/// [`Wire`] it does accept can [`Wire::decode`] without panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a field it promised.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The leading magic was not `GWR1`.
    BadMagic([u8; 4]),
    /// A tag field held an unassigned value.
    BadTag {
        /// Which field.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// Fields were individually readable but mutually inconsistent.
    Corrupt(&'static str),
    /// Well-formed wire followed by extra bytes.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated wire: needed {needed} bytes, {available} available")
            }
            WireError::BadMagic(m) => write!(f, "bad wire magic {m:02x?}"),
            WireError::BadTag { field, value } => write!(f, "bad {field} tag {value}"),
            WireError::Corrupt(why) => write!(f, "corrupt wire: {why}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after wire"),
        }
    }
}

impl std::error::Error for WireError {}

/// Leading magic of a serialized [`Wire`] ("Gist WiRe v1").
const MAGIC: [u8; 4] = *b"GWR1";

/// Which codec a transfer rides through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferCodec {
    /// Raw dense `f32` — 4 bytes per element on the wire.
    None,
    /// Lossless SSDC (narrow CSR) plus negative-zero fixups.
    Ssdc,
    /// Lossy delayed-precision reduction at the given format.
    Dpr(DprFormat),
}

impl TransferCodec {
    /// Parses the CLI/bench spelling: `none`, `ssdc`, `dpr:16|10|8`.
    pub fn parse(s: &str) -> Option<TransferCodec> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" => Some(TransferCodec::None),
            "ssdc" => Some(TransferCodec::Ssdc),
            "dpr:16" | "dpr16" => Some(TransferCodec::Dpr(DprFormat::Fp16)),
            "dpr:10" | "dpr10" => Some(TransferCodec::Dpr(DprFormat::Fp10)),
            "dpr:8" | "dpr8" => Some(TransferCodec::Dpr(DprFormat::Fp8)),
            _ => None,
        }
    }

    /// Display / JSON-meta label.
    pub fn label(&self) -> &'static str {
        match self {
            TransferCodec::None => "none",
            TransferCodec::Ssdc => "ssdc",
            TransferCodec::Dpr(DprFormat::Fp16) => "dpr:16",
            TransferCodec::Dpr(DprFormat::Fp10) => "dpr:10",
            TransferCodec::Dpr(DprFormat::Fp8) => "dpr:8",
        }
    }

    /// Whether decode(encode(x)) is bitwise `x` for every finite and
    /// non-finite input.
    pub fn is_lossless(&self) -> bool {
        !matches!(self, TransferCodec::Dpr(_))
    }

    /// Stable numeric id for JSON meta columns (`0` none, `1` ssdc,
    /// `2xx` = DPR with `xx` bits).
    pub fn meta_id(&self) -> u64 {
        match self {
            TransferCodec::None => 0,
            TransferCodec::Ssdc => 1,
            TransferCodec::Dpr(f) => 200 + f.bits() as u64,
        }
    }
}

impl std::fmt::Display for TransferCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the sender of a transfer picks its [`TransferCodec`].
///
/// Gist's SSDC wins on sparse payloads and *loses* on dense ones (the
/// column-index and row-pointer metadata costs ~1.16x on dense gradients —
/// see EXPERIMENTS.md), so a fixed fleet-wide codec leaves bytes on the
/// wire. `Auto` prices both encodings from the payload's observed non-zero
/// density — pure arithmetic over the values, no encode performed — and
/// ships whichever is smaller. The choice is a function of the payload
/// alone, so it is deterministic and placement-independent: the same tree
/// edge carries the same bytes no matter which replica or process computed
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecPolicy {
    /// Always use this codec.
    Fixed(TransferCodec),
    /// Per-payload density decision between [`TransferCodec::Ssdc`] and
    /// [`TransferCodec::None`] (lossless either way).
    Auto,
}

impl CodecPolicy {
    /// Parses the CLI/bench spelling: everything [`TransferCodec::parse`]
    /// accepts, plus `auto`.
    pub fn parse(s: &str) -> Option<CodecPolicy> {
        if s.trim().eq_ignore_ascii_case("auto") {
            return Some(CodecPolicy::Auto);
        }
        TransferCodec::parse(s).map(CodecPolicy::Fixed)
    }

    /// Display / JSON-meta label.
    pub fn label(&self) -> &'static str {
        match self {
            CodecPolicy::Fixed(c) => c.label(),
            CodecPolicy::Auto => "auto",
        }
    }

    /// Whether every codec this policy can pick round-trips bitwise.
    pub fn is_lossless(&self) -> bool {
        match self {
            CodecPolicy::Fixed(c) => c.is_lossless(),
            CodecPolicy::Auto => true,
        }
    }

    /// Stable numeric id for JSON meta columns (`100` = auto, otherwise
    /// the fixed codec's [`TransferCodec::meta_id`]).
    pub fn meta_id(&self) -> u64 {
        match self {
            CodecPolicy::Fixed(c) => c.meta_id(),
            CodecPolicy::Auto => 100,
        }
    }

    /// The codec this payload ships under.
    pub fn choose(&self, data: &[f32]) -> TransferCodec {
        match self {
            CodecPolicy::Fixed(c) => *c,
            CodecPolicy::Auto => auto_codec(data),
        }
    }
}

impl From<TransferCodec> for CodecPolicy {
    fn from(codec: TransferCodec) -> Self {
        CodecPolicy::Fixed(codec)
    }
}

impl std::fmt::Display for CodecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The density decision [`CodecPolicy::Auto`] makes: SSDC when its exact
/// wire size (CSR payload priced from the counted non-zeros via
/// [`csr::encoded_bytes_for`], plus 4 bytes per `-0.0` fixup) undercuts
/// the dense `4 * len` payload, raw otherwise. Ties go to raw — equal
/// bytes buy no win and the dense path skips the scatter on decode.
pub fn auto_codec(data: &[f32]) -> TransferCodec {
    if ssdc_wire_bytes(data) < data.len() * 4 {
        TransferCodec::Ssdc
    } else {
        TransferCodec::None
    }
}

/// Same value as `Wire::encode(codec, data).wire_bytes()`, priced without
/// encoding.
fn wire_bytes_of(codec: TransferCodec, data: &[f32]) -> u64 {
    match codec {
        TransferCodec::Ssdc => ssdc_wire_bytes(data) as u64,
        _ => max_wire_bytes(data.len(), codec),
    }
}

/// The SSDC wire size of `data`, priced from its counted non-zeros and
/// `-0.0` fixups: exactly what `Wire::encode(TransferCodec::Ssdc,
/// data).wire_bytes()` realizes.
fn ssdc_wire_bytes(data: &[f32]) -> usize {
    let mut nnz = 0usize;
    let mut fixups = 0usize;
    for v in data {
        if v.to_bits() == 0x8000_0000 {
            fixups += 1;
        } else if *v != 0.0 {
            nnz += 1;
        }
    }
    csr::encoded_bytes_for(data.len(), nnz, SsdcConfig::default()) + fixups * 4
}

/// The encoded payload variants.
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    Dense(Vec<f32>),
    Ssdc(CsrMatrix),
    Dpr(DprBuffer),
}

/// One buffer as it travels a link: the encoded payload plus the fixup
/// index list that restores bitwise exactness for the lossless codecs.
#[derive(Debug, Clone, PartialEq)]
pub struct Wire {
    payload: Payload,
    /// Indices whose source element was `-0.0` (SSDC only; the CSR
    /// predicate drops them and the scatter leaves `+0.0` behind).
    fixups: Vec<u32>,
    len: usize,
}

impl Wire {
    /// Encodes `data` for transfer under `codec`.
    pub fn encode(codec: TransferCodec, data: &[f32]) -> Wire {
        match codec {
            TransferCodec::None => {
                Wire { payload: Payload::Dense(data.to_vec()), fixups: Vec::new(), len: data.len() }
            }
            TransferCodec::Ssdc => {
                let fixups = data
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.to_bits() == 0x8000_0000)
                    .map(|(i, _)| i as u32)
                    .collect();
                Wire {
                    payload: Payload::Ssdc(CsrMatrix::encode(data, SsdcConfig::default())),
                    fixups,
                    len: data.len(),
                }
            }
            TransferCodec::Dpr(format) => Wire {
                payload: Payload::Dpr(DprBuffer::encode(format, data)),
                fixups: Vec::new(),
                len: data.len(),
            },
        }
    }

    /// Element count of the dense buffer this wire carries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wire carries zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The codec this wire was encoded with.
    pub fn codec(&self) -> TransferCodec {
        match &self.payload {
            Payload::Dense(_) => TransferCodec::None,
            Payload::Ssdc(_) => TransferCodec::Ssdc,
            Payload::Dpr(b) => TransferCodec::Dpr(b.format()),
        }
    }

    /// Bytes this wire occupies on the link: the encoded payload plus 4
    /// bytes per fixup index (the fixups travel too).
    pub fn wire_bytes(&self) -> u64 {
        let payload = match &self.payload {
            Payload::Dense(v) => v.len() * 4,
            Payload::Ssdc(c) => c.encoded_bytes(),
            Payload::Dpr(b) => b.encoded_bytes(),
        };
        (payload + self.fixups.len() * 4) as u64
    }

    /// Decodes into a preallocated buffer (e.g. an arena view), applying
    /// the negative-zero fixups after the payload decode.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "wire decode length");
        match &self.payload {
            Payload::Dense(v) => out.copy_from_slice(v),
            Payload::Ssdc(c) => c.decode_into(out),
            Payload::Dpr(b) => b.decode_into(out),
        }
        for &i in &self.fixups {
            out[i as usize] = -0.0;
        }
    }

    /// Decodes into a fresh buffer. Bit-exact with [`Self::decode_into`].
    pub fn decode(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        self.decode_into(&mut out);
        out
    }

    /// Serializes to a self-describing little-endian byte buffer:
    /// magic `GWR1`, codec tag, element count, codec payload, fixup list.
    /// [`Self::from_bytes`] round-trips it exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_bytes(&mut out);
        out
    }

    /// Appends the [`Self::to_bytes`] serialization to `out` — for
    /// containers that frame several wires in one buffer.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        begin(out, self.codec(), self.len, self.wire_bytes());
        match &self.payload {
            Payload::Dense(v) => put_f32s(out, v),
            Payload::Ssdc(c) => c.write_bytes(out),
            Payload::Dpr(b) => b.write_words(out),
        }
        put_u32(out, self.fixups.len() as u32);
        put_u32s(out, &self.fixups);
    }

    /// Appends the bytes of `Wire::encode(codec, data).to_bytes()` to `out`
    /// and returns that wire's [`Self::wire_bytes`]. The dense codec is
    /// written straight from `data`: the serialized buffer is the only
    /// copy made.
    pub fn encode_to(codec: TransferCodec, data: &[f32], out: &mut Vec<u8>) -> u64 {
        if codec != TransferCodec::None {
            let wire = Wire::encode(codec, data);
            wire.write_bytes(out);
            return wire.wire_bytes();
        }
        let priced = data.len() as u64 * 4;
        begin(out, codec, data.len(), priced);
        put_f32s(out, data);
        put_u32(out, 0);
        priced
    }

    /// `acc[i] += Wire::encode(codec, src).decode()[i]`, in serial element
    /// order, without materializing the wire: a lossless codec decodes to
    /// `src` itself, DPR is packed and unpacked a stack chunk of words at a
    /// time. Returns the wire's [`Self::wire_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn accumulate_round_trip(codec: TransferCodec, src: &[f32], acc: &mut [f32]) -> u64 {
        assert_eq!(acc.len(), src.len(), "round trip length");
        let TransferCodec::Dpr(format) = codec else {
            acc.iter_mut().zip(src).for_each(|(a, v)| *a += v);
            return wire_bytes_of(codec, src);
        };
        // Whole words a chunk, 2048 of them: at most 8 Ki values (FP8).
        const WORDS: usize = 2048;
        let per = WORDS * format.values_per_word();
        let (mut words, mut vals) = ([0u32; WORDS], [0.0f32; WORDS * 4]);
        for (src, acc) in src.chunks(per).zip(acc.chunks_mut(per)) {
            let words = pack(format, src, &mut words);
            let vals = &mut vals[..src.len()];
            gist_simd::dpr_decode_into(format.spec(), words, 0, vals, |c| format.decode_one(c));
            acc.iter_mut().zip(&*vals).for_each(|(a, v)| *a += v);
        }
        wire_bytes_of(codec, src)
    }

    /// Replaces `data` with `Wire::encode(codec, data).decode()` in place,
    /// without materializing the wire: a lossless codec leaves it as it
    /// is, DPR rounds a stack chunk of words at a time. Returns the wire's
    /// [`Self::wire_bytes`].
    pub fn round_trip_in_place(codec: TransferCodec, data: &mut [f32]) -> u64 {
        let priced = wire_bytes_of(codec, data);
        if let TransferCodec::Dpr(format) = codec {
            let mut words = [0u32; STREAM_WORDS];
            for chunk in data.chunks_mut(STREAM_WORDS * format.values_per_word()) {
                let words = pack(format, chunk, &mut words);
                gist_simd::dpr_decode_into(format.spec(), words, 0, chunk, |c| {
                    format.decode_one(c)
                });
            }
        }
        priced
    }

    /// Deserializes a [`Self::to_bytes`] buffer: [`WireRef::parse`], made
    /// owned.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any truncation, unknown tag, or inconsistency —
    /// malformed input never panics.
    pub fn from_bytes(buf: &[u8]) -> Result<Wire, WireError> {
        Ok(WireRef::parse(buf)?.to_wire())
    }
}

/// Starts one serialized wire in `out`: room for all of it (`wire_bytes`
/// of payload and fixups under at most 32 bytes of header fields), then
/// its [`head`].
fn begin(out: &mut Vec<u8>, codec: TransferCodec, len: usize, wire_bytes: u64) {
    out.reserve(wire_bytes as usize + 32);
    out.extend_from_slice(&head(codec, len));
}

/// Bytes of a serialized wire before its payload: magic, codec tag and
/// element count.
const HEAD: usize = 9;

/// The fixup count that closes every serialized wire.
const TAIL: usize = 4;

/// The [`HEAD`] bytes of a wire of `len` elements under `codec`.
fn head(codec: TransferCodec, len: usize) -> [u8; HEAD] {
    assert!(len <= u32::MAX as usize, "wire length exceeds the u32 format field");
    let tag = match codec {
        TransferCodec::None => 0,
        TransferCodec::Ssdc => 1,
        TransferCodec::Dpr(f) => 1 + format_tag(f),
    };
    let mut out = [0u8; HEAD];
    out[..4].copy_from_slice(&MAGIC);
    out[4] = tag;
    out[5..].copy_from_slice(&(len as u32).to_le_bytes());
    out
}

/// Words of DPR values a streamed wire packs at a time: 16 KB of them.
const STREAM_WORDS: usize = 4096;

/// Payload bytes a streamed wire lands at a time: whole 4-byte words, so
/// every chunk starts on a value of every format.
const STREAM_BYTES: usize = 1 << 16;

/// One wire serialized as it is sent, for a sender that frames the bytes
/// straight off the buffer they describe: raw values go out from the slice
/// itself, DPR values are packed a stack chunk of whole words at a time
/// (the vector pack [`DprBuffer::encode`] runs), and only SSDC — whose
/// length depends on the values — is serialized whole, into a buffer the
/// caller reuses. The bytes are exactly `Wire::encode(codec,
/// data).to_bytes()`.
#[derive(Debug)]
pub struct WireStream<'s> {
    codec: TransferCodec,
    len: usize,
    wire_bytes: u64,
    /// The whole serialization of an SSDC wire; empty for the flat codecs.
    staged: &'s [u8],
}

impl<'s> WireStream<'s> {
    /// The wire of `data` under `codec`. An SSDC wire is serialized into
    /// `stage` here (its previous contents dropped); the flat codecs leave
    /// it untouched.
    pub fn new(codec: TransferCodec, data: &[f32], stage: &'s mut Vec<u8>) -> Self {
        let mut wire_bytes = max_wire_bytes(data.len(), codec);
        let staged: &'s [u8] = if codec == TransferCodec::Ssdc {
            stage.clear();
            wire_bytes = Wire::encode_to(codec, data, stage);
            stage
        } else {
            &[]
        };
        WireStream { codec, len: data.len(), wire_bytes, staged }
    }

    /// Same value as the encoded wire's [`Wire::wire_bytes`].
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Bytes of the serialization — `Wire::to_bytes().len()`.
    pub fn serialized_len(&self) -> usize {
        if self.codec == TransferCodec::Ssdc {
            return self.staged.len();
        }
        HEAD + self.wire_bytes as usize + TAIL
    }

    /// Writes the serialization of `data` — the slice [`Self::new`] saw —
    /// to `w`.
    ///
    /// # Errors
    ///
    /// The stream's.
    ///
    /// # Panics
    ///
    /// Panics if `data` has another length than the slice `new` saw.
    pub fn write_to(&self, data: &[f32], w: &mut dyn Write) -> std::io::Result<()> {
        assert_eq!(data.len(), self.len, "wire stream length");
        let TransferCodec::Dpr(format) = self.codec else { return self.write_flat(data, w) };
        w.write_all(&head(self.codec, self.len))?;
        let mut words = [0u32; STREAM_WORDS];
        for chunk in data.chunks(STREAM_WORDS * format.values_per_word()) {
            let words = pack(format, chunk, &mut words);
            write_u32s(w, words)?;
        }
        w.write_all(&[0; TAIL])
    }

    /// [`Self::write_to`], leaving in `data` the values a receiver decodes
    /// off the bytes: a lossy codec rounds each chunk in place once it is
    /// written, a lossless one leaves `data` as it was.
    ///
    /// # Errors
    ///
    /// The stream's; `data` is then rounded up to the failed chunk.
    ///
    /// # Panics
    ///
    /// As for [`Self::write_to`].
    pub fn write_landing(&self, data: &mut [f32], w: &mut dyn Write) -> std::io::Result<()> {
        assert_eq!(data.len(), self.len, "wire stream length");
        let TransferCodec::Dpr(format) = self.codec else { return self.write_flat(data, w) };
        w.write_all(&head(self.codec, self.len))?;
        let mut words = [0u32; STREAM_WORDS];
        for chunk in data.chunks_mut(STREAM_WORDS * format.values_per_word()) {
            let words = pack(format, chunk, &mut words);
            write_u32s(w, words)?;
            gist_simd::dpr_decode_into(format.spec(), words, 0, chunk, |c| format.decode_one(c));
        }
        w.write_all(&[0; TAIL])
    }

    /// The codecs that need no packing: raw straight from `data`, SSDC
    /// from its staged serialization.
    fn write_flat(&self, data: &[f32], w: &mut dyn Write) -> std::io::Result<()> {
        if self.codec == TransferCodec::Ssdc {
            return w.write_all(self.staged);
        }
        w.write_all(&head(self.codec, self.len))?;
        write_f32s(w, data)?;
        w.write_all(&[0; TAIL])
    }
}

/// Packs `values` (at most [`STREAM_WORDS`] words of them) into the front
/// of `words`, returning the packed words — byte-identical to the same
/// words of [`DprBuffer::encode`].
fn pack<'w>(format: DprFormat, values: &[f32], words: &'w mut [u32]) -> &'w [u32] {
    let words = &mut words[..values.len().div_ceil(format.values_per_word())];
    gist_simd::dpr_encode_words(format.spec(), values, words, |v| format.encode_one(v));
    words
}

/// One serialized wire read in pieces, for a receiver that lands the values
/// straight in the buffer they belong to: [`Self::begin`] reads and checks
/// the head — so the element count is known before any payload byte is
/// taken — then the payload is landed a stack chunk at a time (raw and
/// DPR) or staged whole in a buffer the caller reuses (SSDC, whose length
/// depends on the values). Landing runs exactly the per-element operations
/// of [`WireRef::accumulate_into`] / [`WireRef::decode_into`], in the same
/// order, so the bits are the whole-buffer path's.
#[derive(Debug)]
pub struct WireInflow {
    codec: TransferCodec,
    len: usize,
    /// Bytes of the whole serialization, head included.
    total: usize,
}

impl WireInflow {
    /// Reads the head of a `total`-byte serialization through `fill`, which
    /// hands out the serialization's next bytes.
    ///
    /// # Errors
    ///
    /// `fill`'s errors, and [`WireError`]s — a short serialization, bad
    /// magic, an unknown codec tag, or a raw/DPR element count whose
    /// payload disagrees with `total` — converted into `E`.
    pub fn begin<E: From<WireError>>(
        total: usize,
        fill: &mut impl FnMut(&mut [u8]) -> Result<(), E>,
    ) -> Result<Self, E> {
        if total < HEAD {
            return Err(WireError::Truncated { needed: HEAD, available: total }.into());
        }
        let mut head = [0u8; HEAD];
        fill(&mut head)?;
        if head[..4] != MAGIC {
            return Err(WireError::BadMagic([head[0], head[1], head[2], head[3]]).into());
        }
        let codec = match head[4] {
            0 => TransferCodec::None,
            1 => TransferCodec::Ssdc,
            t => match tag_format(t - 1) {
                Some(f) => TransferCodec::Dpr(f),
                None => return Err(WireError::BadTag { field: "codec", value: t }.into()),
            },
        };
        let len = u32::from_le_bytes([head[5], head[6], head[7], head[8]]) as usize;
        let flat = (HEAD + TAIL) as u64 + max_wire_bytes(len, codec);
        if codec != TransferCodec::Ssdc && flat != total as u64 {
            return Err(WireError::Corrupt("wire length disagrees with its element count").into());
        }
        Ok(WireInflow { codec, len, total })
    }

    /// Element count the wire carries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wire carries zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the rest of the wire through `fill`, `acc[i] += decode()[i]`.
    /// Returns the wire's priced bytes ([`WireRef::wire_bytes`]).
    ///
    /// # Errors
    ///
    /// `fill`'s, and a malformed payload's [`WireError`] — `acc` may then
    /// hold part of the sum.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != self.len()`.
    pub fn accumulate_into<E: From<WireError>>(
        self,
        acc: &mut [f32],
        stage: &mut Vec<u8>,
        fill: &mut impl FnMut(&mut [u8]) -> Result<(), E>,
    ) -> Result<u64, E> {
        self.land(acc, stage, fill, |a, v| *a += v)
    }

    /// Reads the rest of the wire through `fill`, `acc[i] = (acc[i] +
    /// decode()[i]) * scale`: a sum's last term and its mean-scale in one
    /// pass — the same two roundings, in the same order, as
    /// [`Self::accumulate_into`] followed by a scaling pass. Returns the
    /// wire's priced bytes.
    ///
    /// # Errors
    ///
    /// As for [`Self::accumulate_into`].
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != self.len()`.
    pub fn accumulate_scaled_into<E: From<WireError>>(
        self,
        acc: &mut [f32],
        scale: f32,
        stage: &mut Vec<u8>,
        fill: &mut impl FnMut(&mut [u8]) -> Result<(), E>,
    ) -> Result<u64, E> {
        self.land(acc, stage, fill, |a, v| *a = (*a + v) * scale)
    }

    /// Reads the rest of the wire through `fill`, `out[i] = decode()[i]`:
    /// on a little-endian host a raw payload is read straight into `out`.
    /// Returns the wire's priced bytes.
    ///
    /// # Errors
    ///
    /// As for [`Self::accumulate_into`]; `out` may then be part-written.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into<E: From<WireError>>(
        self,
        out: &mut [f32],
        stage: &mut Vec<u8>,
        fill: &mut impl FnMut(&mut [u8]) -> Result<(), E>,
    ) -> Result<u64, E> {
        if self.codec != TransferCodec::None || cfg!(target_endian = "big") {
            return self.land(out, stage, fill, |o, v| *o = v);
        }
        assert_eq!(out.len(), self.len, "wire landing length");
        // SAFETY: every bit pattern is a valid `f32`, the byte view covers
        // exactly `out`'s memory, and on a little-endian host the wire's
        // bytes are the values' own.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(
                out.as_mut_ptr().cast::<u8>(),
                std::mem::size_of_val(out),
            )
        };
        fill(bytes)?;
        close(fill)?;
        Ok(bytes.len() as u64)
    }

    fn land<E: From<WireError>>(
        self,
        out: &mut [f32],
        stage: &mut Vec<u8>,
        fill: &mut impl FnMut(&mut [u8]) -> Result<(), E>,
        f: impl Fn(&mut f32, f32),
    ) -> Result<u64, E> {
        assert_eq!(out.len(), self.len, "wire landing length");
        if self.codec == TransferCodec::Ssdc {
            stage.clear();
            stage.extend_from_slice(&head(self.codec, self.len));
            stage.resize(self.total, 0);
            fill(&mut stage[HEAD..])?;
            let wire = WireRef::parse(stage)?;
            wire.zip_into(out, f);
            return Ok(wire.wire_bytes());
        }
        let mut chunk = [0u8; STREAM_BYTES];
        let per_word = match self.codec {
            TransferCodec::Dpr(format) => format.values_per_word(),
            _ => 1,
        };
        let payload = self.total - HEAD - TAIL;
        let mut rest = out;
        for at in (0..payload).step_by(STREAM_BYTES) {
            let bytes = &mut chunk[..(payload - at).min(STREAM_BYTES)];
            fill(bytes)?;
            let values = (bytes.len() / 4 * per_word).min(rest.len());
            let (now, later) = std::mem::take(&mut rest).split_at_mut(values);
            match self.codec {
                TransferCodec::Dpr(format) => zip_dpr(format, bytes, now, &f),
                _ => zip_dense(bytes, now, &f),
            }
            rest = later;
        }
        close(fill)?;
        Ok(payload as u64)
    }
}

/// Reads the fixup count that closes a raw or DPR wire: it must be zero.
fn close<E: From<WireError>>(fill: &mut impl FnMut(&mut [u8]) -> Result<(), E>) -> Result<(), E> {
    let mut fixups = [0u8; TAIL];
    fill(&mut fixups)?;
    if fixups != [0; TAIL] {
        return Err(WireError::Corrupt("fixups on a non-ssdc wire").into());
    }
    Ok(())
}

/// The payload of a [`WireRef`]: the flat codecs stay little-endian bytes
/// of the parsed buffer; SSDC is parsed into its (sparse) container.
#[derive(Debug)]
enum PayloadRef<'a> {
    Dense(&'a [u8]),
    Ssdc(CsrMatrix),
    Dpr(DprFormat, &'a [u8]),
}

/// A validated view of one serialized [`Wire`], borrowing the buffer it
/// was parsed from: a receiver decodes or accumulates straight off the
/// received bytes, never materializing an owned dense payload.
#[derive(Debug)]
pub struct WireRef<'a> {
    payload: PayloadRef<'a>,
    fixups: Vec<u32>,
    len: usize,
}

impl<'a> WireRef<'a> {
    /// Parses a [`Wire::to_bytes`] buffer, validating every structural
    /// invariant the decode kernels rely on (row-pointer monotonicity,
    /// column indices inside their row, packed-word counts, fixup ordering)
    /// so that a successfully parsed wire can always decode without
    /// panicking.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any truncation, unknown tag, or inconsistency —
    /// malformed input never panics.
    pub fn parse(buf: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(WireError::BadMagic([magic[0], magic[1], magic[2], magic[3]]));
        }
        let tag = r.u8()?;
        let len = r.u32()? as usize;
        let payload = match tag {
            0 => PayloadRef::Dense(r.words(len)?),
            1 => {
                let c = CsrMatrix::read_bytes(&mut r)?;
                if c.dense_len() != len {
                    return Err(WireError::Corrupt("csr dense length disagrees with wire header"));
                }
                PayloadRef::Ssdc(c)
            }
            t => match tag_format(t - 1) {
                Some(f) => PayloadRef::Dpr(f, r.take(f.packed_bytes(len))?),
                None => return Err(WireError::BadTag { field: "codec", value: t }),
            },
        };
        let n_fixups = r.u32()? as usize;
        if n_fixups > 0 && tag != 1 {
            return Err(WireError::Corrupt("fixups on a non-ssdc wire"));
        }
        let fixups = r.u32s(n_fixups)?;
        let mut prev: Option<u32> = None;
        for &i in &fixups {
            if prev.is_some_and(|p| i <= p) {
                return Err(WireError::Corrupt("fixup indices not strictly increasing"));
            }
            if i as usize >= len {
                return Err(WireError::Corrupt("fixup index out of range"));
            }
            prev = Some(i);
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(WireRef { payload, fixups, len })
    }

    /// The owned [`Wire`] these bytes serialize.
    pub fn to_wire(self) -> Wire {
        let payload = match self.payload {
            PayloadRef::Dense(b) => Payload::Dense(le_u32s(b).map(f32::from_bits).collect()),
            PayloadRef::Ssdc(c) => Payload::Ssdc(c),
            PayloadRef::Dpr(f, b) => Payload::Dpr(
                DprBuffer::read_words(f, self.len, &mut Reader::new(b))
                    .expect("parse took exactly this wire's words"),
            ),
        };
        Wire { payload, fixups: self.fixups, len: self.len }
    }

    /// Element count of the dense buffer this wire carries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wire carries zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Same value as the owned wire's [`Wire::wire_bytes`].
    pub fn wire_bytes(&self) -> u64 {
        let payload = match &self.payload {
            PayloadRef::Dense(b) | PayloadRef::Dpr(_, b) => b.len(),
            PayloadRef::Ssdc(c) => c.encoded_bytes(),
        };
        (payload + self.fixups.len() * 4) as u64
    }

    /// `out[i] = decode()[i]`, bit-exact with [`Wire::decode_into`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn decode_into(&self, out: &mut [f32]) {
        self.zip_into(out, |o, v| *o = v);
    }

    /// `acc[i] += decode()[i]`: the receiving half of a reduction edge in
    /// one pass over `acc`.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != self.len()`.
    pub fn accumulate_into(&self, acc: &mut [f32]) {
        self.zip_into(acc, |a, v| *a += v);
    }

    /// Feeds `f` every element of `out` with its decoded value. Dense
    /// values are read off the payload bytes, DPR words are decoded a
    /// stack chunk at a time ([`zip_dpr`]).
    fn zip_into(&self, out: &mut [f32], f: impl Fn(&mut f32, f32)) {
        assert_eq!(out.len(), self.len, "wire decode length");
        match &self.payload {
            PayloadRef::Dense(b) => zip_dense(b, out, &f),
            PayloadRef::Ssdc(c) => {
                let mut dense = c.decode();
                for &i in &self.fixups {
                    dense[i as usize] = -0.0;
                }
                out.iter_mut().zip(dense).for_each(|(o, v)| f(o, v));
            }
            PayloadRef::Dpr(format, b) => zip_dpr(*format, b, out, &f),
        }
    }
}

/// Feeds `f` each element of `out` with the raw value the little-endian
/// bytes `b` hold for it.
fn zip_dense(b: &[u8], out: &mut [f32], f: &impl Fn(&mut f32, f32)) {
    out.iter_mut().zip(le_u32s(b)).for_each(|(o, w)| f(o, f32::from_bits(w)));
}

/// Feeds `f` each element of `out` with its value decoded off the packed
/// DPR words `b` (which start on a word of `out[0]`), a stack chunk — 4 KB
/// of words, at most 16 KB of values — at a time.
fn zip_dpr(format: DprFormat, b: &[u8], out: &mut [f32], f: &impl Fn(&mut f32, f32)) {
    const WORDS: usize = 1024;
    let per = format.values_per_word();
    let (mut words, mut vals) = ([0u32; WORDS], [0.0f32; WORDS * 4]);
    for (b, out) in b.chunks(WORDS * 4).zip(out.chunks_mut(WORDS * per)) {
        let (words, vals) = (&mut words[..b.len() / 4], &mut vals[..out.len()]);
        words.iter_mut().zip(le_u32s(b)).for_each(|(w, le)| *w = le);
        gist_simd::dpr_decode_into(format.spec(), words, 0, vals, |code| format.decode_one(code));
        out.iter_mut().zip(&*vals).for_each(|(o, &v)| f(o, v));
    }
}

/// Worst-case wire size (bytes) for `len` elements under `codec` — every
/// element non-zero for SSDC plus every element a `-0.0` fixup is
/// impossible simultaneously, so the bound is the dense-CSR worst case
/// (fixups exist only for elements CSR dropped, and each dropped element
/// saves 5 encoded bytes while costing 4).
pub fn max_wire_bytes(len: usize, codec: TransferCodec) -> u64 {
    match codec {
        TransferCodec::None => len as u64 * 4,
        TransferCodec::Ssdc => csr::max_encoded_bytes(len, SsdcConfig::default()) as u64,
        TransferCodec::Dpr(format) => format.packed_bytes(len) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn hostile(len: usize) -> Vec<f32> {
        (0..len).map(|i| HOSTILE[(i * 7) % HOSTILE.len()]).collect()
    }

    #[test]
    fn lossless_codecs_roundtrip_hostile_bits_exactly() {
        for codec in [TransferCodec::None, TransferCodec::Ssdc] {
            assert!(codec.is_lossless());
            for len in [0usize, 1, 255, 256, 257, 1000] {
                let data = hostile(len);
                let wire = Wire::encode(codec, &data);
                assert_eq!(wire.codec(), codec);
                let back = wire.decode();
                let want: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{codec} len={len}");
            }
        }
    }

    #[test]
    fn negative_zero_survives_ssdc_via_fixups() {
        let data = vec![-0.0f32, 0.0, -0.0, 1.0, -0.0];
        let wire = Wire::encode(TransferCodec::Ssdc, &data);
        assert_eq!(wire.fixups, vec![0, 2, 4]);
        let back = wire.decode();
        for (i, (&a, &b)) in data.iter().zip(&back).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "elem {i}");
        }
    }

    #[test]
    fn dpr_wire_matches_per_element_quantize() {
        for format in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let data: Vec<f32> = (0..301).map(|i| (i as f32 - 150.0) * 0.37).collect();
            let wire = Wire::encode(TransferCodec::Dpr(format), &data);
            assert!(!wire.codec().is_lossless());
            let want: Vec<f32> = data.iter().map(|&v| format.quantize(v)).collect();
            assert_eq!(wire.decode(), want, "{}", format.label());
        }
    }

    #[test]
    fn wire_bytes_track_payloads_and_respect_the_bound() {
        for codec in [
            TransferCodec::None,
            TransferCodec::Ssdc,
            TransferCodec::Dpr(DprFormat::Fp16),
            TransferCodec::Dpr(DprFormat::Fp8),
        ] {
            for len in [0usize, 64, 256, 1000] {
                let sparse: Vec<f32> =
                    (0..len).map(|i| if i % 4 == 0 { i as f32 + 1.0 } else { 0.0 }).collect();
                let wire = Wire::encode(codec, &sparse);
                assert!(
                    wire.wire_bytes() <= max_wire_bytes(len, codec),
                    "{codec} len={len}: {} > {}",
                    wire.wire_bytes(),
                    max_wire_bytes(len, codec)
                );
            }
        }
        // Sparse SSDC genuinely shrinks the wire.
        let sparse: Vec<f32> = (0..4096).map(|i| if i % 8 == 0 { 1.5 } else { 0.0 }).collect();
        let wire = Wire::encode(TransferCodec::Ssdc, &sparse);
        assert!(wire.wire_bytes() < 4096 * 4 / 2, "87.5% sparsity should beat 2x");
    }

    #[test]
    fn parse_and_label_roundtrip() {
        for codec in [
            TransferCodec::None,
            TransferCodec::Ssdc,
            TransferCodec::Dpr(DprFormat::Fp16),
            TransferCodec::Dpr(DprFormat::Fp10),
            TransferCodec::Dpr(DprFormat::Fp8),
        ] {
            assert_eq!(TransferCodec::parse(codec.label()), Some(codec));
        }
        assert_eq!(TransferCodec::parse("DPR:8"), Some(TransferCodec::Dpr(DprFormat::Fp8)));
        assert_eq!(TransferCodec::parse("zstd"), None);
        assert_eq!(TransferCodec::parse("dpr:7"), None);
    }

    #[test]
    fn byte_roundtrip_is_exact_for_every_codec() {
        for codec in [
            TransferCodec::None,
            TransferCodec::Ssdc,
            TransferCodec::Dpr(DprFormat::Fp16),
            TransferCodec::Dpr(DprFormat::Fp10),
            TransferCodec::Dpr(DprFormat::Fp8),
        ] {
            for len in [0usize, 1, 255, 256, 257, 700] {
                let wire = Wire::encode(codec, &hostile(len));
                let bytes = wire.to_bytes();
                let back = Wire::from_bytes(&bytes).expect("roundtrip parses");
                // NaN payloads defeat PartialEq; re-serialization equality
                // is the stronger bit-level statement anyway.
                assert_eq!(back.to_bytes(), bytes, "{codec} len={len}");
                assert_eq!((back.codec(), back.len()), (codec, len));
                // The reconstructed wire decodes to the same bits.
                let a: Vec<u32> = wire.decode().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = back.decode().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "{codec} len={len}");
            }
        }
    }

    #[test]
    fn serialization_fits_its_one_reservation() {
        // `begin` reserves `wire_bytes + 32` up front for every codec, so
        // no serializer climbs a reallocation ladder.
        let codecs = [
            TransferCodec::None,
            TransferCodec::Ssdc,
            TransferCodec::Dpr(DprFormat::Fp10),
            TransferCodec::Dpr(DprFormat::Fp8),
        ];
        for codec in codecs {
            for len in [0usize, 1, 257, 5000] {
                let wire = Wire::encode(codec, &hostile(len));
                let room = wire.wire_bytes() as usize + 32;
                assert!(wire.to_bytes().len() <= room, "{codec} len={len}");
                let mut direct = Vec::new();
                Wire::encode_to(codec, &hostile(len), &mut direct);
                assert_eq!(direct, wire.to_bytes(), "{codec} len={len}");
                assert!(
                    direct.capacity() <= room.max(8),
                    "{codec} len={len}: grew past the reserve"
                );
            }
        }
    }

    #[test]
    fn every_truncation_errs_instead_of_panicking() {
        let wire = Wire::encode(TransferCodec::Ssdc, &hostile(300));
        let bytes = wire.to_bytes();
        for cut in 0..bytes.len() {
            let err = Wire::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let wire = Wire::encode(TransferCodec::Ssdc, &hostile(300));
        let good = wire.to_bytes();
        // Bad magic.
        let mut b = good.clone();
        b[0] ^= 0xff;
        assert!(matches!(Wire::from_bytes(&b), Err(WireError::BadMagic(_))));
        // Unassigned codec tag.
        let mut b = good.clone();
        b[4] = 9;
        assert!(matches!(Wire::from_bytes(&b), Err(WireError::BadTag { .. })));
        // Trailing garbage.
        let mut b = good.clone();
        b.push(0);
        assert!(matches!(Wire::from_bytes(&b), Err(WireError::TrailingBytes(1))));
        let control = Wire::from_bytes(&good).expect("control stays valid");
        assert_eq!(control.to_bytes(), good);
    }

    #[test]
    fn auto_codec_prices_the_wire_it_would_ship() {
        // At every density the auto choice encodes to no more bytes than
        // either fixed alternative actually realizes.
        let len = 1024usize;
        for permille in [0usize, 50, 200, 500, 790, 800, 810, 900, 1000] {
            let data: Vec<f32> = (0..len)
                .map(|i| if (i * 997) % 1000 < permille { (i as f32) * 0.13 + 1.0 } else { 0.0 })
                .collect();
            let chosen = auto_codec(&data);
            let auto_bytes = Wire::encode(chosen, &data).wire_bytes();
            let raw = Wire::encode(TransferCodec::None, &data).wire_bytes();
            let ssdc = Wire::encode(TransferCodec::Ssdc, &data).wire_bytes();
            assert_eq!(auto_bytes, raw.min(ssdc), "density {permille}/1000 chose {chosen}");
        }
    }

    #[test]
    fn auto_codec_threshold_is_pinned() {
        // len = 1024 (4 narrow rows): ssdc payload = 5*nnz + 5*4 row
        // pointers. 5*nnz + 20 < 4096 ⟺ nnz <= 815 — the committed
        // break-even of the density policy. A drifted pin means the SSDC
        // byte layout (and every EXPERIMENTS.md wire table) moved.
        let dense = |nnz: usize| -> Vec<f32> {
            (0..1024).map(|i| if i < nnz { 1.0 } else { 0.0 }).collect()
        };
        assert_eq!(auto_codec(&dense(815)), TransferCodec::Ssdc);
        assert_eq!(auto_codec(&dense(816)), TransferCodec::None);
        // Fully dense gradients (the EXPERIMENTS.md 1.16x loss case) ship
        // raw; fully sparse ships SSDC; an empty payload ties to raw.
        assert_eq!(auto_codec(&dense(1024)), TransferCodec::None);
        assert_eq!(auto_codec(&dense(0)), TransferCodec::Ssdc);
        assert_eq!(auto_codec(&[]), TransferCodec::None);
        // -0.0 is priced as a fixup (4 bytes), not a non-zero.
        let with_neg_zero = vec![-0.0f32; 1024];
        assert_eq!(auto_codec(&with_neg_zero), TransferCodec::None);
    }

    #[test]
    fn codec_policy_parses_labels_and_stays_lossless() {
        assert_eq!(CodecPolicy::parse("auto"), Some(CodecPolicy::Auto));
        assert_eq!(CodecPolicy::parse("AUTO"), Some(CodecPolicy::Auto));
        assert_eq!(CodecPolicy::parse("ssdc"), Some(CodecPolicy::Fixed(TransferCodec::Ssdc)));
        assert_eq!(CodecPolicy::parse("warp"), None);
        assert_eq!(CodecPolicy::Auto.label(), "auto");
        assert_eq!(CodecPolicy::Auto.meta_id(), 100);
        assert!(CodecPolicy::Auto.is_lossless());
        assert!(!CodecPolicy::Fixed(TransferCodec::Dpr(DprFormat::Fp8)).is_lossless());
        // Auto's chosen wire round-trips hostile bits exactly.
        for len in [0usize, 7, 256, 1000] {
            let data = hostile(len);
            let wire = Wire::encode(CodecPolicy::Auto.choose(&data), &data);
            let got: Vec<u32> = wire.decode().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "len={len}");
        }
    }

    /// `fill` over one in-memory serialization, as a stream hands it out.
    fn filler(bytes: &[u8]) -> impl FnMut(&mut [u8]) -> Result<(), WireError> + '_ {
        let mut at = 0;
        move |buf: &mut [u8]| {
            let end = at + buf.len();
            if end > bytes.len() {
                return Err(WireError::Truncated {
                    needed: buf.len(),
                    available: bytes.len() - at,
                });
            }
            buf.copy_from_slice(&bytes[at..end]);
            at = end;
            Ok(())
        }
    }

    #[test]
    fn streamed_wires_are_the_serialized_bytes_and_land_the_same_bits() {
        let codecs = [
            TransferCodec::None,
            TransferCodec::Ssdc,
            TransferCodec::Dpr(DprFormat::Fp16),
            TransferCodec::Dpr(DprFormat::Fp10),
            TransferCodec::Dpr(DprFormat::Fp8),
        ];
        // Past one landing chunk (16 Ki raw values) and one packing chunk
        // (12 Ki FP10 values), and off every word boundary.
        for codec in codecs {
            for len in [0usize, 1, 5, 257, 12_289, 16_385, 40_001] {
                let data = hostile(len);
                let want = Wire::encode(codec, &data);
                let mut stage = Vec::new();
                let stream = WireStream::new(codec, &data, &mut stage);
                let mut bytes = Vec::new();
                stream.write_to(&data, &mut bytes).unwrap();
                assert_eq!(bytes, want.to_bytes(), "{codec} len={len}");
                assert_eq!(stream.serialized_len(), bytes.len(), "{codec} len={len}");
                assert_eq!(stream.wire_bytes(), want.wire_bytes(), "{codec} len={len}");
                let mut landed = data.clone();
                let mut again = Vec::new();
                stream.write_landing(&mut landed, &mut again).unwrap();
                assert_eq!(again, bytes, "{codec} len={len}");
                assert_eq!(bits(&landed), bits(&want.decode()), "{codec} len={len}");

                let parsed = WireRef::parse(&bytes).unwrap();
                let start: Vec<f32> = (0..len).map(|i| i as f32 * 0.25 - 7.0).collect();
                let (mut acc, mut want_acc) = (start.clone(), start);
                parsed.accumulate_into(&mut want_acc);
                let mut fill = filler(&bytes);
                let inflow = WireInflow::begin(bytes.len(), &mut fill).unwrap();
                assert_eq!(inflow.len(), len);
                let priced = inflow.accumulate_into(&mut acc, &mut stage, &mut fill).unwrap();
                assert_eq!(priced, want.wire_bytes(), "{codec} len={len}");
                assert_eq!(bits(&acc), bits(&want_acc), "{codec} len={len}");
                let mut out = vec![f32::NAN; len];
                let mut fill = filler(&bytes);
                let inflow = WireInflow::begin(bytes.len(), &mut fill).unwrap();
                inflow.decode_into(&mut out, &mut stage, &mut fill).unwrap();
                assert_eq!(bits(&out), bits(&want.decode()), "{codec} len={len}");
            }
        }
    }

    #[test]
    fn an_inflow_rejects_a_head_that_disagrees_with_its_length() {
        let bytes = Wire::encode(TransferCodec::None, &hostile(10)).to_bytes();
        let begin = |total: usize, bytes: &[u8]| {
            WireInflow::begin(total, &mut filler(bytes)).map(|w| w.len())
        };
        assert_eq!(begin(bytes.len(), &bytes), Ok(10));
        assert!(matches!(begin(bytes.len() - 1, &bytes), Err(WireError::Corrupt(_))));
        assert!(matches!(begin(bytes.len() + 4, &bytes), Err(WireError::Corrupt(_))));
        assert_eq!(begin(8, &bytes), Err(WireError::Truncated { needed: 9, available: 8 }));
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(matches!(begin(bad.len(), &bad), Err(WireError::BadMagic(_))));
        bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(begin(bad.len(), &bad), Err(WireError::BadTag { .. })));
        // A raw wire claiming fixups is corrupt after its payload lands.
        bad = bytes.clone();
        let n = bad.len();
        bad[n - 4] = 1;
        let mut fill = filler(&bad);
        let inflow = WireInflow::begin(bad.len(), &mut fill).unwrap();
        let mut out = vec![0.0; 10];
        let err = inflow.decode_into(&mut out, &mut Vec::new(), &mut fill);
        assert_eq!(err, Err(WireError::Corrupt("fixups on a non-ssdc wire")));
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn decode_into_overwrites_garbage() {
        let data = hostile(500);
        for codec in [TransferCodec::None, TransferCodec::Ssdc, TransferCodec::Dpr(DprFormat::Fp16)]
        {
            let wire = Wire::encode(codec, &data);
            let mut out = vec![f32::NAN; 500];
            wire.decode_into(&mut out);
            let fresh = wire.decode();
            let a: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = fresh.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "{codec}");
        }
    }
}
