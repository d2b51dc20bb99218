//! The one written-down form of train state: a [`Snapshot`] of every
//! parameter tensor as a [`Wire`] plus the step epoch, captured and
//! restored by [`Executor::snapshot`] / [`Executor::restore`]. A checkpoint
//! is a snapshot under `TransferCodec::None`; a parked serve job is one
//! under `TransferCodec::Ssdc`.
//!
//! Byte layout (little-endian): magic `GSNP`, version `u32`, step epoch
//! `u64`, tensor count `u32`, then per tensor a `u32` byte length and that
//! many [`Wire::to_bytes`] bytes, in [`ParamSet::tensors`] order. The graph
//! carries the structure, the snapshot only values.
//!
//! [`Executor::snapshot`]: crate::Executor::snapshot
//! [`Executor::restore`]: crate::Executor::restore
//! [`ParamSet::tensors`]: crate::params::ParamSet::tensors

use gist_encodings::{Reader, Wire, WireError};

const MAGIC: [u8; 4] = *b"GSNP";
const VERSION: u32 = 1;

/// Everything that crosses from one training step to the next.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Steps executed when the snapshot was taken; it salts the per-step
    /// dropout masks, so it is restored too.
    pub steps_executed: u64,
    /// One wire per parameter tensor, in walk order.
    pub wires: Vec<Wire>,
}

impl Snapshot {
    /// Encoded bytes the wires occupy (what a parked job holds on the host).
    pub fn wire_bytes(&self) -> u64 {
        self.wires.iter().map(Wire::wire_bytes).sum()
    }

    /// Serializes to the layout in the module docs.
    ///
    /// # Panics
    ///
    /// Panics if a count or length does not fit its `u32` field.
    pub fn to_bytes(&self) -> Vec<u8> {
        let u32_le = |v: usize| u32::try_from(v).expect("snapshot field fits u32").to_le_bytes();
        let mut out = Vec::with_capacity(self.wire_bytes() as usize + 32 * (self.wires.len() + 1));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.steps_executed.to_le_bytes());
        out.extend_from_slice(&u32_le(self.wires.len()));
        for wire in &self.wires {
            let at = out.len();
            out.extend_from_slice(&[0; 4]);
            wire.write_bytes(&mut out);
            let len = u32_le(out.len() - at - 4);
            out[at..at + 4].copy_from_slice(&len);
        }
        out
    }

    /// Parses [`Self::to_bytes`] output with the wire decoder's own
    /// bounds-checked cursor; every wire goes through the hardened
    /// [`Wire::from_bytes`], so an accepted snapshot always decodes
    /// without panicking.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any truncation, header inconsistency, malformed
    /// wire or trailing byte — never a panic, and no allocation sized by
    /// an unchecked length.
    pub fn from_bytes(buf: &[u8]) -> Result<Snapshot, WireError> {
        let mut r = Reader::new(buf);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(WireError::BadMagic([magic[0], magic[1], magic[2], magic[3]]));
        }
        if r.u32()? != VERSION {
            return Err(WireError::Corrupt("unsupported snapshot version"));
        }
        let steps_executed = u64::from(r.u32()?) | u64::from(r.u32()?) << 32;
        let count = r.u32()? as usize;
        // Every wire has at least its length prefix, which bounds the
        // allocation by the bytes actually present.
        let mut wires = Vec::with_capacity(count.min(r.remaining() / 4));
        for _ in 0..count {
            let len = r.u32()? as usize;
            wires.push(Wire::from_bytes(r.take(len)?)?);
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(Snapshot { steps_executed, wires })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticImages;
    use crate::spec::ExecMode;
    use crate::Executor;
    use gist_encodings::TransferCodec;

    /// A few steps in, so parameters and epoch both differ from a fresh
    /// executor's.
    fn trained(seed: u64) -> Executor {
        let g = gist_models::tiny_convnet(4, 3);
        let mut e = Executor::new(g, ExecMode::Baseline, seed).unwrap();
        let mut ds = SyntheticImages::new(3, 16, 0.3, 1);
        for _ in 0..3 {
            let (x, y) = ds.minibatch(4);
            e.step(&x, &y, 0.05).unwrap();
        }
        e
    }

    fn state(e: &Executor) -> (Vec<u32>, u64) {
        (e.params.bits().collect(), e.steps_executed())
    }

    #[test]
    fn roundtrip_restores_training_state_exactly() {
        let a = trained(7);
        for codec in [TransferCodec::None, TransferCodec::Ssdc] {
            let snap = a.snapshot(codec);
            let bytes = snap.to_bytes();
            assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
            // Different seed, different weights, epoch 0 — until restored.
            let g = gist_models::tiny_convnet(4, 3);
            let mut b = Executor::new(g, ExecMode::Baseline, 99).unwrap();
            assert_ne!(state(&b), state(&a));
            b.restore(&Snapshot::from_bytes(&bytes).unwrap()).unwrap();
            assert_eq!(state(&b), state(&a), "{codec}");
        }
    }

    #[test]
    fn batchnorm_and_biasless_params_roundtrip_too() {
        let g = gist_models::resnet_cifar(1, 2);
        let e = Executor::new(g.clone(), ExecMode::Baseline, 7).unwrap();
        let bytes = e.snapshot(TransferCodec::None).to_bytes();
        let mut f = Executor::new(g, ExecMode::Baseline, 31).unwrap();
        f.restore(&Snapshot::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(state(&f), state(&e));
    }

    /// Hostile bytes and foreign snapshots: always `Err`, never a panic,
    /// and the target executor keeps every parameter bit and its epoch.
    #[test]
    fn malformed_or_foreign_snapshots_are_rejected_without_partial_state() {
        let source = trained(7);
        let snap = source.snapshot(TransferCodec::None);
        let bytes = snap.to_bytes();
        let mut target = trained(11);
        let before = state(&target);
        let mut reject = |what: &str, bytes: &[u8]| {
            let restored = Snapshot::from_bytes(bytes).map(|s| target.restore(&s));
            assert!(!matches!(restored, Ok(Ok(()))), "{what} was accepted");
            assert_eq!(state(&target), before, "{what} left partial state");
        };

        for cut in 0..bytes.len() {
            reject(&format!("truncation to {cut} bytes"), &bytes[..cut]);
        }
        // Structural fields: magic and version, the tensor count, and every
        // wire's length prefix. (The epoch and dense payload words are
        // data: any value is a valid snapshot.)
        let mut fields: Vec<usize> = (0..8).chain(16..20).collect();
        let mut at = 20;
        for wire in &snap.wires {
            fields.extend(at..at + 4);
            at += 4 + wire.to_bytes().len();
        }
        assert_eq!(at, bytes.len(), "the test knows the layout");
        for &pos in &fields {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[pos] ^= flip;
                reject(&format!("byte {pos} ^ {flip:#04x}"), &bad);
            }
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        reject("a trailing byte", &trailing);
        // A length field large enough to overflow `pos + len` on 32-bit.
        let mut huge = bytes.clone();
        huge[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        reject("a 4 GiB wire length", &huge);

        // Well-formed bytes that are not this executor's state.
        let mut fewer = snap.clone();
        fewer.wires.pop();
        reject("a dropped tensor", &fewer.to_bytes());
        let mut more = snap.clone();
        more.wires.push(Wire::encode(TransferCodec::None, &[1.0]));
        reject("an extra tensor", &more.to_bytes());
        let mut swapped = snap.clone();
        swapped.wires.swap(0, 1);
        reject("two tensors swapped", &swapped.to_bytes());
        let vgg = Executor::new(gist_models::small_vgg(2, 3), ExecMode::Baseline, 7).unwrap();
        reject("another architecture", &vgg.snapshot(TransferCodec::Ssdc).to_bytes());

        // The untouched bytes still restore.
        target.restore(&Snapshot::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(state(&target), state(&source));
    }
}
