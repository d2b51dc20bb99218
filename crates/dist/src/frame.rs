//! The framed, versioned message layer between ranks ("GNT1").
//!
//! Every message that crosses a process boundary travels as one frame:
//!
//! ```text
//! | u32 body_len | "GNT1" | u8 version | u8 kind | kind fields ... |
//! |  (LE, excl.  |  magic |    = 1     |         |                 |
//! |  this field) |        |            |         |                 |
//! ```
//!
//! Kind `0` is [`Msg::Hello`] (rendezvous validation: rank, world, shard
//! count, codec-policy id), kind `1` is [`Msg::Grad`] (an epoch/step/
//! tensor-id header followed by a serialized [`gist_encodings::Wire`]
//! payload), kind `2` is [`Msg::Stats`] (the per-shard statistics table).
//!
//! The decoding contract mirrors the `Wire` byte layer underneath it:
//! **any** byte sequence — truncated at any offset, bit-flipped magic or
//! version or length, garbage kinds, oversized length fields — produces a
//! typed [`NetError`], never a panic and never an allocation larger than
//! [`MAX_FRAME_BYTES`].
//!
//! Frames stream. A sender writes a [`Msg::Grad`]'s fixed fields and then
//! its wire payload straight off the buffer it describes; the one frame
//! reader, [`read_frame_with`], reads and checks the fixed fields first and
//! hands a well-formed `Grad`'s payload to the caller as it comes off the
//! stream ([`Payload`]), so a receiver lands the values where they belong
//! without holding the frame. [`read_frame`] is that reader with a sink
//! that keeps the payload.

use gist_encodings::{Reader, WireError};
use std::io::{Read, Write};

/// Leading magic of a frame ("Gist NeT v1").
pub const MAGIC: [u8; 4] = *b"GNT1";

/// Protocol version carried in every frame; bumped on any layout change.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on one frame body. A corrupted length field is rejected
/// against this cap *before* any allocation, so garbage on the socket can
/// cost at most one bounded read.
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// Fixed framing overhead of a [`Msg::Grad`]: observed socket bytes are
/// exactly `serialized Wire buffer + GRAD_FRAME_OVERHEAD` (length prefix
/// 4, magic 4, version 1, kind 1, epoch/step/tensor 12, wire length 4).
/// Note the serialized buffer (`Wire::to_bytes`) itself carries a header
/// over the *priced* `Wire::wire_bytes` — for the dense codec that header
/// is exactly 13 bytes, the relation `tests/net_equivalence.rs` pins.
pub const GRAD_FRAME_OVERHEAD: u64 = 26;

/// A transport or protocol failure. Every variant is a rejection: malformed
/// bytes, a dead peer, or a rendezvous that ran out its budget — never a
/// panic, and (at the trainer layer) never a partially applied gradient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A frame body ended before a field it promised.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The leading magic was not `GNT1`.
    BadMagic([u8; 4]),
    /// The version byte named a protocol this build does not speak.
    BadVersion(u8),
    /// The kind byte held an unassigned value.
    BadKind(u8),
    /// The length prefix promised more than [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// Promised body length.
        len: usize,
        /// The cap it violated.
        max: usize,
    },
    /// The embedded `Wire` payload failed to parse.
    Wire(WireError),
    /// Frames were individually well-formed but violated the exchange
    /// protocol (wrong kind, mismatched step/tensor header, wrong Hello).
    Protocol(String),
    /// Invalid trainer/transport configuration.
    Config(String),
    /// Rendezvous exhausted its retry budget waiting for a peer.
    Rendezvous {
        /// The rank that never showed up.
        missing_rank: u32,
        /// Connect attempts made before giving up.
        attempts: u32,
        /// Last underlying failure.
        detail: String,
    },
    /// The peer closed its end mid-stream.
    Disconnected {
        /// The peer rank whose stream died.
        peer: u32,
    },
    /// A socket operation failed or timed out.
    Io {
        /// The peer rank involved.
        peer: u32,
        /// Which operation (`read`, `write`, `bind`, ...).
        op: &'static str,
        /// The underlying error text.
        detail: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, {available} available")
            }
            NetError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            NetError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})")
            }
            NetError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            NetError::Wire(e) => write!(f, "bad wire payload: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Config(msg) => write!(f, "net config error: {msg}"),
            NetError::Rendezvous { missing_rank, attempts, detail } => write!(
                f,
                "rendezvous failed: rank {missing_rank} unreachable after {attempts} \
                 attempt(s) ({detail})"
            ),
            NetError::Disconnected { peer } => write!(f, "peer rank {peer} disconnected"),
            NetError::Io { peer, op, detail } => {
                write!(f, "socket {op} to/from rank {peer} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// The fixed fields of a [`Msg::Grad`]: everything but its wire payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradHead {
    /// Training epoch of the sending step.
    pub epoch: u32,
    /// Global step index.
    pub step: u32,
    /// Tensor sequence number within the step.
    pub tensor: u32,
}

/// The first [`GRAD_FRAME_OVERHEAD`] bytes of a [`Msg::Grad`] frame whose
/// wire payload is `wire_len` bytes: length prefix, magic, version, kind,
/// `head`'s fields and the payload length.
pub(crate) fn grad_frame_head(head: GradHead, wire_len: usize) -> [u8; 26] {
    let mut out = [0u8; 26];
    out[4..8].copy_from_slice(&MAGIC);
    (out[8], out[9]) = (PROTOCOL_VERSION, 1);
    let body = (GRAD_FRAME_OVERHEAD as usize - 4 + wire_len) as u32;
    let fields = [body, head.epoch, head.step, head.tensor, wire_len as u32];
    for (at, v) in [0, 10, 14, 18, 22].into_iter().zip(fields) {
        out[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// One rank-to-rank message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Rendezvous handshake: both sides validate every field against their
    /// own configuration so a misassembled fleet fails fast and by name.
    Hello {
        /// Sender's rank.
        rank: u32,
        /// Sender's world size.
        world: u32,
        /// Sender's shard count.
        shards: u32,
        /// Sender's codec-policy meta id ([`gist_encodings::CodecPolicy::meta_id`]).
        policy_id: u32,
    },
    /// One gradient payload: a reduction-tree edge or a broadcast leg.
    Grad {
        /// Training epoch of the sending step.
        epoch: u32,
        /// Global step index.
        step: u32,
        /// Tensor sequence number within the step (main and secondary
        /// gradients each get their own id, in node order).
        tensor: u32,
        /// A serialized [`gist_encodings::Wire`] (`Wire::to_bytes`).
        wire: Vec<u8>,
    },
    /// The per-shard statistics exchange (loss bits, correct, batch per
    /// shard), gathered to rank 0 and broadcast back as a full table so
    /// every rank computes the identical global loss.
    Stats {
        /// Global step index.
        step: u32,
        /// Flat `u32` payload; layout is the trainer's contract.
        words: Vec<u32>,
    },
}

/// A short read of the frame itself: the shared cursor's truncation is the
/// frame's, field for field.
fn short(e: WireError) -> NetError {
    match e {
        WireError::Truncated { needed, available } => NetError::Truncated { needed, available },
        other => NetError::Wire(other),
    }
}

/// The next little-endian `u32` of a frame.
fn u32_at(r: &mut Reader) -> Result<u32, NetError> {
    r.u32().map_err(short)
}

/// The next `n` bytes of a frame, borrowed.
fn take<'a>(r: &mut Reader<'a>, n: usize) -> Result<&'a [u8], NetError> {
    r.take(n).map_err(short)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl Msg {
    fn kind(&self) -> u8 {
        match self {
            Msg::Hello { .. } => 0,
            Msg::Grad { .. } => 1,
            Msg::Stats { .. } => 2,
        }
    }

    /// The frame up to a [`Msg::Grad`]'s payload — all of the frame for the
    /// other kinds — in an allocation with room for `spare` more bytes.
    fn head(&self, spare: usize) -> Vec<u8> {
        let len = self.frame_len();
        let mut out = Vec::with_capacity(len - self.payload().len() + spare);
        if let Msg::Grad { epoch, step, tensor, wire } = self {
            let head = GradHead { epoch: *epoch, step: *step, tensor: *tensor };
            out.extend_from_slice(&grad_frame_head(head, wire.len()));
            return out;
        }
        put_u32(&mut out, (len - 4) as u32);
        out.extend_from_slice(&MAGIC);
        out.push(PROTOCOL_VERSION);
        out.push(self.kind());
        match self {
            Msg::Hello { rank, world, shards, policy_id } => {
                for v in [rank, world, shards, policy_id] {
                    put_u32(&mut out, *v);
                }
            }
            Msg::Grad { .. } => unreachable!("written by grad_frame_head above"),
            Msg::Stats { step, words } => {
                put_u32(&mut out, *step);
                put_u32(&mut out, words.len() as u32);
                for w in words {
                    put_u32(&mut out, *w);
                }
            }
        }
        out
    }

    /// The payload that follows [`Self::head`] in the frame.
    fn payload(&self) -> &[u8] {
        match self {
            Msg::Grad { wire, .. } => wire,
            _ => &[],
        }
    }

    /// Serializes to one complete frame, length prefix included, in a
    /// single exact-capacity allocation.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut out = self.head(self.payload().len());
        out.extend_from_slice(self.payload());
        out
    }

    /// Bytes of [`Self::to_frame`], length prefix included.
    pub fn frame_len(&self) -> usize {
        let fields = match self {
            Msg::Hello { .. } | Msg::Grad { .. } => 16,
            Msg::Stats { words, .. } => 8 + 4 * words.len(),
        };
        10 + fields + self.payload().len()
    }

    /// Writes the bytes of [`Self::to_frame`] to `w`: the fixed fields,
    /// then a [`Msg::Grad`]'s payload from the buffer the message owns.
    ///
    /// # Errors
    ///
    /// The stream's.
    pub fn write_to(&self, w: &mut dyn Write) -> std::io::Result<()> {
        w.write_all(&self.head(0))?;
        w.write_all(self.payload())
    }

    /// Parses one frame body (the bytes after the length prefix).
    ///
    /// # Errors
    ///
    /// A typed [`NetError`] on any truncation, bad magic/version/kind, or
    /// internal length inconsistency — malformed input never panics.
    pub fn from_body(body: &[u8]) -> Result<Msg, NetError> {
        let (mut msg, payload) = Self::parse(body)?;
        if let Msg::Grad { wire, .. } = &mut msg {
            *wire = payload.to_vec();
        }
        Ok(msg)
    }

    /// The one body parser. A [`Msg::Grad`] comes back with `wire` empty
    /// and its payload borrowed beside it: the caller decides where those
    /// bytes live.
    fn parse(body: &[u8]) -> Result<(Msg, &[u8]), NetError> {
        let r = &mut Reader::new(body);
        let mut payload: &[u8] = &[];
        let magic = take(r, 4)?;
        if magic != MAGIC {
            return Err(NetError::BadMagic([magic[0], magic[1], magic[2], magic[3]]));
        }
        let version = take(r, 1)?[0];
        if version != PROTOCOL_VERSION {
            return Err(NetError::BadVersion(version));
        }
        let kind = take(r, 1)?[0];
        let msg = match kind {
            0 => Msg::Hello {
                rank: u32_at(r)?,
                world: u32_at(r)?,
                shards: u32_at(r)?,
                policy_id: u32_at(r)?,
            },
            1 => {
                let epoch = u32_at(r)?;
                let step = u32_at(r)?;
                let tensor = u32_at(r)?;
                let n = u32_at(r)? as usize;
                payload = take(r, n)?;
                Msg::Grad { epoch, step, tensor, wire: Vec::new() }
            }
            2 => {
                let step = u32_at(r)?;
                let n = u32_at(r)? as usize;
                // Bound before allocating: the body can hold at most
                // remaining/4 words, so a corrupt count is a truncation.
                let bytes = take(r, n.saturating_mul(4))?;
                let words = bytes
                    .chunks_exact(4)
                    .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
                    .collect();
                Msg::Stats { step, words }
            }
            k => return Err(NetError::BadKind(k)),
        };
        if r.remaining() != 0 {
            return Err(NetError::Protocol(format!(
                "{} trailing bytes after frame body",
                r.remaining()
            )));
        }
        Ok((msg, payload))
    }

    /// Parses one complete frame (length prefix included), rejecting
    /// prefix/body length disagreements and trailing bytes.
    ///
    /// # Errors
    ///
    /// A typed [`NetError`]; see [`Msg::from_body`].
    pub fn from_frame(frame: &[u8]) -> Result<Msg, NetError> {
        Msg::from_body(Self::body(frame)?)
    }

    /// [`Self::from_frame`] of a frame the caller owns: a [`Msg::Grad`]
    /// keeps its payload in the frame's allocation, cut free of the fixed
    /// fields in place.
    ///
    /// # Errors
    ///
    /// A typed [`NetError`]; see [`Msg::from_body`].
    pub fn from_owned_frame(mut frame: Vec<u8>) -> Result<Msg, NetError> {
        let (mut msg, _) = Self::parse(Self::body(&frame)?)?;
        if let Msg::Grad { wire, .. } = &mut msg {
            frame.drain(..GRAD_FRAME_OVERHEAD as usize);
            *wire = frame;
        }
        Ok(msg)
    }

    /// The body of one complete frame, its length prefix checked.
    fn body(frame: &[u8]) -> Result<&[u8], NetError> {
        let r = &mut Reader::new(frame);
        let len = u32_at(r)? as usize;
        if len > MAX_FRAME_BYTES {
            return Err(NetError::FrameTooLarge { len, max: MAX_FRAME_BYTES });
        }
        let available = r.remaining();
        if available != len {
            if available < len {
                return Err(NetError::Truncated { needed: len, available });
            }
            return Err(NetError::Protocol(format!(
                "{} trailing bytes after frame",
                available - len
            )));
        }
        take(r, len)
    }
}

/// Maps one socket-level failure to a typed [`NetError`].
pub(crate) fn io_err(peer: u32, op: &'static str, e: &std::io::Error) -> NetError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::BrokenPipe
        | ErrorKind::ConnectionAborted => NetError::Disconnected { peer },
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            NetError::Io { peer, op, detail: "timed out".into() }
        }
        _ => NetError::Io { peer, op, detail: e.to_string() },
    }
}

/// Writes one framed message to a stream: the fixed fields, then a
/// [`Msg::Grad`]'s payload from the buffer the message owns. Returns the
/// observed bytes that hit the stream (body plus the 4-byte length prefix).
///
/// # Errors
///
/// [`NetError::Disconnected`] when the peer is gone, [`NetError::Io`] on
/// timeouts and other socket failures.
pub fn write_frame(w: &mut impl Write, peer: u32, msg: &Msg) -> Result<u64, NetError> {
    msg.write_to(w).and_then(|()| w.flush()).map_err(|e| io_err(peer, "write", &e))?;
    Ok(msg.frame_len() as u64)
}

/// The wire payload of one [`Msg::Grad`] frame as it comes off the stream:
/// exactly [`Self::remaining`] bytes, taken in pieces.
pub struct Payload<'r> {
    r: &'r mut dyn Read,
    left: usize,
    peer: u32,
}

impl Payload<'_> {
    /// Payload bytes not yet taken.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Fills `buf` with the payload's next bytes.
    ///
    /// # Errors
    ///
    /// [`NetError::Truncated`] when `buf` asks for more than remains
    /// (nothing is read); [`NetError::Disconnected`] on mid-payload EOF,
    /// [`NetError::Io`] on timeouts.
    pub fn fill(&mut self, buf: &mut [u8]) -> Result<(), NetError> {
        if buf.len() > self.left {
            return Err(NetError::Truncated { needed: buf.len(), available: self.left });
        }
        self.r.read_exact(buf).map_err(|e| io_err(self.peer, "read", &e))?;
        self.left -= buf.len();
        Ok(())
    }

    /// Takes the rest of the payload into `out`, replacing its contents.
    ///
    /// # Errors
    ///
    /// As for [`Self::fill`].
    pub fn read_to_vec(&mut self, out: &mut Vec<u8>) -> Result<(), NetError> {
        out.clear();
        out.resize(self.left, 0);
        self.fill(out)
    }
}

/// What a [`Msg::Grad`]'s payload is handed to: its fixed fields, then the
/// payload itself, every byte of which the sink must take.
pub type PayloadSink<'a> = dyn FnMut(GradHead, &mut Payload<'_>) -> Result<(), NetError> + 'a;

/// The one frame reader. Reads one framed message from a stream and
/// returns it plus the observed bytes consumed (body plus the 4-byte
/// length prefix).
///
/// The length prefix and a [`Msg::Grad`]'s fixed fields are read first. A
/// `Grad` whose fixed fields are consistent with the prefix has its wire
/// payload handed to `payload` as it comes off the stream, and comes back
/// with `wire` empty; every other frame — the other kinds, and any frame
/// whose fields disagree — is read whole (bounded by [`MAX_FRAME_BYTES`])
/// and parsed by [`Msg::from_body`].
///
/// # Errors
///
/// [`NetError::Disconnected`] on mid-frame EOF, [`NetError::Io`] on
/// timeouts, the [`Msg::from_body`] errors on malformed bodies, the sink's
/// own errors, and [`NetError::Protocol`] when the sink leaves payload
/// bytes untaken.
pub fn read_frame_with(
    r: &mut dyn Read,
    peer: u32,
    payload: &mut PayloadSink<'_>,
) -> Result<(Msg, u64), NetError> {
    let mut fill = |buf: &mut [u8]| r.read_exact(buf).map_err(|e| io_err(peer, "read", &e));
    let mut prefix = [0u8; 4];
    fill(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(NetError::FrameTooLarge { len, max: MAX_FRAME_BYTES });
    }
    // What a Grad body holds before its payload: magic, version, kind (1),
    // epoch, step, tensor, payload length.
    const FIXED: usize = GRAD_FRAME_OVERHEAD as usize - 4;
    let mut fixed = [0u8; FIXED];
    let fixed = &mut fixed[..len.min(FIXED)];
    fill(fixed)?;
    let field = |at: usize| u32::from_le_bytes(fixed[at..at + 4].try_into().expect("4 bytes"));
    if fixed.len() == FIXED
        && fixed[..4] == MAGIC
        && fixed[4..6] == [PROTOCOL_VERSION, 1]
        && field(18) as usize == len - FIXED
    {
        let head = GradHead { epoch: field(6), step: field(10), tensor: field(14) };
        let mut body = Payload { r, left: len - FIXED, peer };
        payload(head, &mut body)?;
        if body.left != 0 {
            return Err(NetError::Protocol(format!("{} payload bytes left untaken", body.left)));
        }
        let msg =
            Msg::Grad { epoch: head.epoch, step: head.step, tensor: head.tensor, wire: vec![] };
        return Ok((msg, 4 + len as u64));
    }
    let mut body = vec![0u8; len];
    body[..fixed.len()].copy_from_slice(fixed);
    fill(&mut body[fixed.len()..])?;
    Ok((Msg::from_body(&body)?, 4 + len as u64))
}

/// Reads one framed message from a stream: [`read_frame_with`], a
/// [`Msg::Grad`] keeping its payload. Returns the message plus the
/// observed bytes consumed (body plus the 4-byte length prefix).
///
/// # Errors
///
/// As for [`read_frame_with`].
pub fn read_frame(r: &mut impl Read, peer: u32) -> Result<(Msg, u64), NetError> {
    keeping_payload(|sink| read_frame_with(r, peer, sink))
}

/// Runs a frame read whose [`Msg::Grad`] keeps its payload in the message.
pub(crate) fn keeping_payload(
    read: impl FnOnce(&mut PayloadSink<'_>) -> Result<(Msg, u64), NetError>,
) -> Result<(Msg, u64), NetError> {
    let mut kept = Vec::new();
    let (mut msg, n) = read(&mut |_, payload| payload.read_to_vec(&mut kept))?;
    if let Msg::Grad { wire, .. } = &mut msg {
        *wire = kept;
    }
    Ok((msg, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_encodings::{TransferCodec, Wire};

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Hello { rank: 3, world: 4, shards: 8, policy_id: 100 },
            Msg::Grad {
                epoch: 0,
                step: 17,
                tensor: 5,
                wire: Wire::encode(TransferCodec::Ssdc, &[0.0, -0.0, 1.5, f32::NAN]).to_bytes(),
            },
            Msg::Grad { epoch: 1, step: 0, tensor: 0, wire: Vec::new() },
            Msg::Stats { step: 2, words: vec![0x3f80_0000, 3, 4, 0, 0, 0] },
            Msg::Stats { step: 0, words: Vec::new() },
        ]
    }

    #[test]
    fn frames_round_trip_exactly() {
        for msg in samples() {
            let frame = msg.to_frame();
            assert_eq!(Msg::from_frame(&frame).unwrap(), msg);
            assert_eq!(Msg::from_body(&frame[4..]).unwrap(), msg);
        }
    }

    #[test]
    fn stream_read_write_round_trips_and_counts_observed_bytes() {
        let mut buf = Vec::new();
        let mut total = 0u64;
        for msg in samples() {
            total += write_frame(&mut buf, 1, &msg).unwrap();
        }
        assert_eq!(total, buf.len() as u64);
        let mut r = &buf[..];
        let mut seen = 0u64;
        for msg in samples() {
            let (got, n) = read_frame(&mut r, 1).unwrap();
            assert_eq!(got, msg);
            seen += n;
        }
        assert_eq!(seen, total);
        assert!(r.is_empty());
    }

    #[test]
    fn every_truncation_of_every_frame_is_a_typed_error() {
        for msg in samples() {
            let frame = msg.to_frame();
            for cut in 0..frame.len() {
                let err = Msg::from_frame(&frame[..cut])
                    .expect_err(&format!("cut at {cut}/{} parsed", frame.len()));
                assert!(matches!(err, NetError::Truncated { .. }), "cut {cut}: {err:?}");
                // The streaming reader rejects the same cut as a typed
                // error too (EOF mid-frame = disconnect).
                let mut r = &frame[..cut];
                let err = read_frame(&mut r, 2).expect_err("stream cut parsed");
                assert!(
                    matches!(err, NetError::Disconnected { .. } | NetError::Truncated { .. }),
                    "stream cut {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn corrupted_magic_version_and_kind_are_rejected_by_name() {
        let frame = samples()[0].to_frame();
        let mut bad = frame.clone();
        bad[4] = b'X';
        assert!(matches!(Msg::from_frame(&bad), Err(NetError::BadMagic(_))));
        let mut bad = frame.clone();
        bad[8] = PROTOCOL_VERSION + 1;
        assert_eq!(Msg::from_frame(&bad), Err(NetError::BadVersion(PROTOCOL_VERSION + 1)));
        let mut bad = frame.clone();
        bad[9] = 7;
        assert_eq!(Msg::from_frame(&bad), Err(NetError::BadKind(7)));
    }

    #[test]
    fn corrupted_length_fields_never_allocate_unbounded() {
        // Oversized length prefix: rejected against the cap, body unread.
        let mut frame = samples()[1].to_frame();
        frame[..4].copy_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(Msg::from_frame(&frame), Err(NetError::FrameTooLarge { .. })));
        let mut r = &frame[..];
        assert!(matches!(read_frame(&mut r, 0), Err(NetError::FrameTooLarge { .. })));
        // Oversized interior count (Stats word count): a truncation, not
        // an allocation.
        let msg = Msg::Stats { step: 1, words: vec![1, 2, 3] };
        let mut frame = msg.to_frame();
        let count_at = frame.len() - 3 * 4 - 4;
        frame[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Msg::from_frame(&frame), Err(NetError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_and_prefix_mismatch_are_rejected() {
        let mut frame = samples()[0].to_frame();
        frame.push(0);
        assert!(matches!(Msg::from_frame(&frame), Err(NetError::Protocol(_))));
        let frame = samples()[3].to_frame();
        // Shrink the prefix so the body carries trailing bytes.
        let mut short = frame.clone();
        let body_len = u32::from_le_bytes(frame[..4].try_into().unwrap());
        short[..4].copy_from_slice(&(body_len - 4).to_le_bytes());
        assert!(Msg::from_frame(&short).is_err());
    }

    #[test]
    fn random_garbage_never_panics() {
        // A cheap deterministic LCG fuzz over the whole parse surface.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for len in 0..200usize {
            let buf: Vec<u8> = (0..len).map(|_| next()).collect();
            let _ = Msg::from_frame(&buf);
            let _ = Msg::from_body(&buf);
            let mut r = &buf[..];
            let _ = read_frame(&mut r, 0);
        }
        // Garbage that *starts* like a real frame but decays into noise.
        for msg in samples() {
            let mut frame = msg.to_frame();
            for i in 4..frame.len() {
                let orig = frame[i];
                frame[i] ^= 0xa5;
                let _ = Msg::from_frame(&frame);
                frame[i] = orig;
            }
        }
    }

    #[test]
    fn write_frame_puts_the_bytes_of_to_frame_on_the_stream() {
        let big = Msg::Grad {
            epoch: 2,
            step: 3,
            tensor: 4,
            wire: (0..70_000u32).map(|i| i as u8).collect(),
        };
        for msg in samples().into_iter().chain([big]) {
            let frame = msg.to_frame();
            assert_eq!(frame.capacity(), frame.len(), "to_frame sizes its one allocation exactly");
            let mut stream = Vec::new();
            assert_eq!(write_frame(&mut stream, 1, &msg).unwrap(), frame.len() as u64);
            assert_eq!(stream, frame);
            let (back, n) = read_frame(&mut &stream[..], 1).unwrap();
            assert_eq!((back, n), (msg.clone(), frame.len() as u64));
            assert_eq!(Msg::from_owned_frame(stream).unwrap(), msg);
        }
    }

    #[test]
    fn every_cut_of_a_grad_frame_is_a_disconnect_on_the_stream() {
        let msg = Msg::Grad { epoch: 0, step: 1, tensor: 2, wire: vec![0x5a; 100] };
        let frame = msg.to_frame();
        for cut in 0..frame.len() {
            // Inside the prefix, the fixed fields or the payload alike.
            let err = read_frame(&mut &frame[..cut], 2).expect_err("cut frame parsed");
            assert_eq!(err, NetError::Disconnected { peer: 2 }, "cut {cut}");
            let err = Msg::from_owned_frame(frame[..cut].to_vec()).expect_err("cut frame parsed");
            assert_eq!(Some(err), Msg::from_frame(&frame[..cut]).err(), "cut {cut}");
        }
    }

    #[test]
    fn inconsistent_grad_headers_fail_as_the_body_parser_fails_them() {
        let frame = Msg::Grad { epoch: 0, step: 1, tensor: 2, wire: vec![7; 40] }.to_frame();
        let inner_at = GRAD_FRAME_OVERHEAD as usize - 4;
        let patched = |at: usize, bytes: &[u8]| {
            let mut bad = frame.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        let cases = [
            // The payload length field disagrees with the prefix, both ways.
            (
                patched(inner_at, &41u32.to_le_bytes()),
                NetError::Truncated { needed: 41, available: 40 },
            ),
            (
                patched(inner_at, &39u32.to_le_bytes()),
                NetError::Protocol("1 trailing bytes after frame body".into()),
            ),
            (
                patched(inner_at, &u32::MAX.to_le_bytes()),
                NetError::Truncated { needed: u32::MAX as usize, available: 40 },
            ),
            (patched(4, b"GNT2"), NetError::BadMagic(*b"GNT2")),
            (patched(8, &[PROTOCOL_VERSION + 1]), NetError::BadVersion(PROTOCOL_VERSION + 1)),
            (patched(9, &[3]), NetError::BadKind(3)),
        ];
        for (bad, want) in cases {
            assert_eq!(Msg::from_frame(&bad), Err(want.clone()));
            assert_eq!(Msg::from_owned_frame(bad.clone()), Err(want.clone()));
            assert_eq!(read_frame(&mut &bad[..], 0).map(|(msg, _)| msg), Err(want));
        }
    }

    #[test]
    fn grad_frame_overhead_is_the_documented_constant() {
        for wire_len in [0usize, 1, 33, 4096] {
            let msg = Msg::Grad { epoch: 9, step: 8, tensor: 7, wire: vec![0xab; wire_len] };
            assert_eq!(
                msg.to_frame().len() as u64,
                wire_len as u64 + GRAD_FRAME_OVERHEAD,
                "wire_len={wire_len}"
            );
        }
    }

    #[test]
    fn grad_wire_payload_survives_framing_bit_exactly() {
        let data = [1.0f32, -0.0, 0.0, f32::INFINITY, -2.5e-40];
        for codec in [TransferCodec::None, TransferCodec::Ssdc] {
            let wire = Wire::encode(codec, &data);
            let msg = Msg::Grad { epoch: 0, step: 0, tensor: 1, wire: wire.to_bytes() };
            let Msg::Grad { wire: back, .. } = Msg::from_frame(&msg.to_frame()).unwrap() else {
                panic!("wrong kind");
            };
            let got = Wire::from_bytes(&back).unwrap().decode();
            let want: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
        }
    }
}
