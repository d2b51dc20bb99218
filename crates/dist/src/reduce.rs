//! The fixed-reduction-tree all-reduce: the schedule, the combine, and the
//! one walk over them that every trainer placement runs.
//!
//! Determinism across replica counts hinges on two decisions made here:
//!
//! 1. The reduction tree is fixed over *shard slots*, not over replicas.
//!    A global step always produces the same `S` shard gradients no matter
//!    how many replicas computed them, and the tree always combines slot
//!    `i+g` into slot `i` in the same gap order `g = 1, 2, 4, ...` — so the
//!    floating-point accumulation order is a function of `S` alone.
//! 2. The transfer codec is applied on **every** tree edge, whether or not
//!    the two slots happen to live on the same replica. A lossy codec
//!    (`Dpr`) therefore perturbs each partial identically for N = 1 and
//!    N = 8; placement changes which edges cross a physical link (and thus
//!    the wire bytes and simulated stall), never the merged values.
//!
//! Placement enters through one predicate only. Slot `s` lives on rank
//! `s % world`, and a [`Placement`] says which ranks one side *owns*. An
//! edge with both endpoints owned is [`combine_into`], the codec round trip
//! run in place; an edge with one owned endpoint streams the bytes of
//! `Wire::encode(policy.choose(payload))` straight off the payload's slot
//! ([`WireStream`]) through the [`Transport`], and the receiver lands them
//! straight into its slot as they arrive ([`WireInflow`]) — the same
//! per-element accumulation in the same order; an edge with none belongs
//! to someone else. Which branch an edge takes never moves a bit of the
//! sum.
//!
//! The slots are the trainer's own gradient buffers, moved into a
//! [`GradReduceTree`] as borrows: nothing the walk does allocates a
//! gradient-sized buffer. A step reduces every tensor before it broadcasts
//! any, the root fusing the mean-scale into its last landing where that
//! edge crosses; the broadcast then lands the decoded mean in slot 0 on
//! the root and in the slot each other rank sent last.

use crate::frame::{
    grad_frame_head, GradHead, Msg, NetError, GRAD_FRAME_OVERHEAD, MAX_FRAME_BYTES,
};
use crate::trainer::DistError;
use crate::transport::{NoPeers, Transport};
use gist_encodings::{CodecPolicy, TransferCodec, Wire, WireInflow, WireStream};
use gist_obs::Event;
use std::ops::Range;
use std::time::Instant;

/// One combine edge: `slots[dst] += decode(encode(slots[src]))`.
pub type Edge = (usize, usize);

/// The fixed adjacent-pair reduction schedule over `n` shard slots.
///
/// Round with gap `g` holds edges `(i, i + g)` for every `i` with
/// `i % (2 g) == 0` and `i + g < n`; gaps double each round until slot 0
/// has absorbed everything. For `n = 8`:
///
/// ```text
/// g=1:  (0,1) (2,3) (4,5) (6,7)
/// g=2:  (0,2) (4,6)
/// g=4:  (0,4)
/// ```
///
/// The schedule depends only on `n`, never on replica count or arrival
/// order — it *is* the determinism contract, so it is public and tested.
#[must_use]
pub fn reduction_rounds(n: usize) -> Vec<Vec<Edge>> {
    let mut rounds = Vec::new();
    let mut g = 1;
    while g < n {
        let round: Vec<Edge> =
            (0..n).step_by(2 * g).filter(|i| i + g < n).map(|i| (i, i + g)).collect();
        if !round.is_empty() {
            rounds.push(round);
        }
        g *= 2;
    }
    rounds
}

/// Accumulates `src` into `acc` through one codec round-trip, in serial
/// element order: `acc[i] += decode(encode(src))[i]`.
///
/// Returns the wire bytes the encoded `src` would occupy on a link. The
/// round-trip runs even when both endpoints share a device, so lossy
/// codecs perturb partials placement-independently; it materializes no
/// wire ([`Wire::accumulate_round_trip`]).
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn combine_into(acc: &mut [f32], src: &[f32], codec: TransferCodec) -> u64 {
    assert_eq!(acc.len(), src.len(), "combine_into: shard gradient length mismatch");
    Wire::accumulate_round_trip(codec, src, acc)
}

/// The shard slots of one gradient tensor, filled in any arrival order.
///
/// Shard gradients are [`ingest`](Self::ingest)ed into their slot whenever
/// their replica finishes; the walk then runs the fixed schedule, so the
/// merged bits depend only on the shard *values*, never on which replica
/// delivered them first. A slot is any buffer of `f32`s: a trainer moves
/// in borrows of the gradient sets it keeps (`&mut [f32]`), so the walk
/// combines, sends and lands in place and the buffers are the trainer's
/// again when the tree is spent; [`finish`](Self::finish) is the same walk
/// for a caller that holds every shard (`Vec<f32>` by default).
#[derive(Debug)]
pub struct GradReduceTree<S = Vec<f32>> {
    slots: Vec<Option<S>>,
    policy: CodecPolicy,
}

impl<S: AsRef<[f32]> + AsMut<[f32]>> GradReduceTree<S> {
    /// A tree over `shards` slots whose per-edge codec is chosen by
    /// `policy` from each edge's payload (a fixed [`TransferCodec`], or
    /// [`CodecPolicy::Auto`] picking SSDC vs raw from observed density).
    /// The choice is a pure function of the payload values, so
    /// arrival-order and placement independence hold for every policy.
    #[must_use]
    pub fn new(shards: usize, policy: impl Into<CodecPolicy>) -> Self {
        assert!(shards > 0, "GradReduceTree needs at least one shard");
        Self { slots: (0..shards).map(|_| None).collect(), policy: policy.into() }
    }

    /// Delivers shard `shard`'s gradient. Order across shards is free.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range slot, a double delivery, or a length that
    /// disagrees with an already-delivered shard.
    pub fn ingest(&mut self, shard: usize, grad: S) {
        assert!(shard < self.slots.len(), "shard {shard} out of range");
        if let Some(prev) = self.slots.iter().flatten().next() {
            let (prev, grad) = (prev.as_ref().len(), grad.as_ref().len());
            assert_eq!(prev, grad, "shard {shard} gradient length mismatch");
        }
        assert!(self.slots[shard].is_none(), "shard {shard} delivered twice");
        self.slots[shard] = Some(grad);
    }

    /// Runs the fixed schedule over a fully delivered tree and returns
    /// `(merged_sum, wire_bytes)`: slot 0, holding the sum.
    ///
    /// The merged buffer holds the tree-ordered **sum** over shards
    /// (callers scale by `1 / shards` themselves); `wire_bytes` is the
    /// total encoded size of every edge payload.
    ///
    /// # Panics
    ///
    /// Panics if any shard was never delivered.
    #[must_use]
    pub fn finish(mut self) -> (S, u64) {
        let n = self.slots.len();
        for (i, s) in self.slots.iter().enumerate() {
            assert!(s.is_some(), "shard {i} never delivered (have {n} slots)");
        }
        let rounds = reduction_rounds(n);
        let mut everything = Placement::from(1);
        let mut all_mine = Exchange::new(&rounds, &mut everything, 0, Instant::now());
        all_mine.reduce(&mut self, 0, 1.0).expect("no edge crosses when every slot is owned");
        (self.slots[0].take().expect("root slot"), all_mine.edge_bytes.iter().flatten().sum())
    }
}

/// Which ranks of a world one side owns, and the route to the rest.
/// Slot `s` of every tree lives on rank `s % world`. Built from a replica
/// count (own them all) or from a connected [`Transport`] (own the rank
/// it speaks for).
#[derive(Debug)]
pub struct Placement<T> {
    pub(crate) owned: Range<usize>,
    pub(crate) world: usize,
    /// Reaches every rank outside `owned`; `None` when there is none.
    transport: Option<T>,
    /// Where a crossing SSDC wire — whose length depends on its values —
    /// is serialized or received whole, kept from one transfer to the
    /// next. Raw and DPR wires stream and never touch it.
    stage: Vec<u8>,
}

impl From<usize> for Placement<NoPeers> {
    fn from(replicas: usize) -> Self {
        Placement { owned: 0..replicas, world: replicas, transport: None, stage: Vec::new() }
    }
}

impl<T: Transport> From<T> for Placement<T> {
    fn from(transport: T) -> Self {
        let rank = transport.rank();
        Placement {
            owned: rank..rank + 1,
            world: transport.world(),
            transport: Some(transport),
            stage: Vec::new(),
        }
    }
}

impl<T> Placement<T> {
    fn owns(&self, slot: usize) -> bool {
        self.owned.contains(&(slot % self.world))
    }

    /// Whether any rank of the world lies across the transport.
    pub(crate) fn crosses(&self) -> bool {
        self.owned.len() < self.world
    }

    /// The ranks on the far side of the transport, ascending.
    fn unowned(&self) -> impl Iterator<Item = usize> {
        let owned = self.owned.clone();
        (0..self.world).filter(move |rank| !owned.contains(rank))
    }

    /// The transport and the staging buffer, borrowed apart.
    fn route(&mut self) -> (&mut T, &mut Vec<u8>) {
        let peers = self.transport.as_mut().expect("a rank outside `owned` implies a transport");
        (peers, &mut self.stage)
    }
}

/// Every run is one epoch today; the field rides the [`Msg::Grad`] header
/// so a receiver can reject a frame from another pass over the data.
const EPOCH: u32 = 0;

/// One global step's exchange state: this side's placement plus the
/// byte and trace accounts each transfer of the step adds to.
pub(crate) struct Exchange<'a, T> {
    rounds: &'a [Vec<Edge>],
    at: &'a mut Placement<T>,
    step: u32,
    /// Priced bytes per edge this side touched, `[round][edge]`.
    pub(crate) edge_bytes: Vec<Vec<u64>>,
    /// Priced bytes of one broadcast copy, summed over tensors.
    pub(crate) broadcast_bytes: u64,
    /// What crossed the transport.
    pub(crate) ledger: Ledger,
}

/// The observed side of a step's exchange: its bytes and trace events.
pub(crate) struct Ledger {
    t0: Instant,
    rank: u32,
    world: usize,
    /// Bytes that actually crossed the transport, framing included.
    pub(crate) observed: u64,
    /// One [`Event::NetTransfer`] per crossing edge and broadcast leg.
    pub(crate) events: Vec<Event>,
}

impl Ledger {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Books one gradient transfer that began at `ts`: its observed bytes
    /// and its trace event.
    fn record(&mut self, leg: Leg, peer: usize, sent: bool, priced: u64, observed: u64, ts: u64) {
        self.observed += observed;
        let (world, tensor) = (self.world, leg.tensor);
        let name = match leg.at {
            At::Edge(ri, ei) => format!("allreduce.n{world}.t{tensor}.r{ri}e{ei}"),
            At::Broadcast(rank) => format!("allreduce.n{world}.t{tensor}.bcast{rank}"),
        };
        self.events.push(Event::NetTransfer {
            name,
            rank: self.rank,
            peer: peer as u32,
            sent,
            priced_bytes: priced,
            observed_bytes: observed,
            ts_ns: ts,
            dur_ns: self.now_ns() - ts,
        });
    }
}

/// Which transfer of which tensor a frame carries, for its trace name.
#[derive(Clone, Copy)]
struct Leg {
    tensor: u32,
    at: At,
}

/// One tensor's reduced slot on this side, waiting for the broadcast: the
/// root's mean, or the buffer of the partial a non-root sent last.
pub(crate) struct Reduced<S> {
    tensor: u32,
    shard: usize,
    slot: S,
    policy: CodecPolicy,
}

/// What a received wire does to the slot it lands in.
#[derive(Clone, Copy)]
enum Landing {
    /// `slot += wire`: a tree edge.
    Sum,
    /// `slot = (slot + wire) * scale`: the last edge into the root's slot,
    /// fused with the mean-scale.
    Mean(f32),
    /// `slot = wire`: the broadcast.
    Decode,
}

#[derive(Clone, Copy)]
enum At {
    /// Tree edge `ei` of round `ri`.
    Edge(usize, usize),
    /// The broadcast copy to (or received by) this rank.
    Broadcast(usize),
}

impl<'a, T: Transport> Exchange<'a, T> {
    /// `t0` is when the step began: transfer events are stamped from it.
    pub(crate) fn new(
        rounds: &'a [Vec<Edge>],
        at: &'a mut Placement<T>,
        step: u32,
        t0: Instant,
    ) -> Self {
        let ledger = Ledger {
            t0,
            rank: at.owned.start as u32,
            world: at.world,
            observed: 0,
            events: vec![],
        };
        Exchange {
            rounds,
            at,
            step,
            edge_bytes: rounds.iter().map(|r| vec![0; r.len()]).collect(),
            broadcast_bytes: 0,
            ledger,
        }
    }

    /// The first half of one tensor's all-reduce: the tree walk into slot
    /// 0, which the side owning it mean-scales. A step reduces every tensor
    /// before it broadcasts any, so each link carries one direction at a
    /// time and no rank waits on a broadcast between two partials.
    pub(crate) fn reduce_tensor<S: AsRef<[f32]> + AsMut<[f32]>>(
        &mut self,
        mut tree: GradReduceTree<S>,
        tensor: u32,
    ) -> Result<Reduced<S>, DistError> {
        let inv = 1.0f32 / tree.slots.len() as f32;
        let (sent, scaled) = self.reduce(&mut tree, tensor, inv)?;
        let GradReduceTree { mut slots, policy } = tree;
        if !self.at.owns(0) {
            // The partial this rank sent up the tree has done its work;
            // the mean will be decoded into its buffer.
            let (shard, slot) = sent.expect("a rank without slot 0 sends its partial towards it");
            return Ok(Reduced { tensor, shard, slot, policy });
        }
        let mut slot = slots[0].take().expect("root slot");
        if !scaled {
            for v in slot.as_mut() {
                *v *= inv;
            }
        }
        Ok(Reduced { tensor, shard: 0, slot, policy })
    }

    /// The second half: rank 0 encodes the mean once, and every rank — the
    /// root's own side included — lands on the values of that one wire, so
    /// a lossy codec perturbs identically everywhere. Returns the shard
    /// whose slot holds the mean.
    pub(crate) fn broadcast<S: AsRef<[f32]> + AsMut<[f32]>>(
        &mut self,
        reduced: Reduced<S>,
    ) -> Result<usize, DistError> {
        let Reduced { tensor, shard, mut slot, policy } = reduced;
        if !self.at.owns(0) {
            let leg = Leg { tensor, at: At::Broadcast(self.at.owned.start) };
            self.broadcast_bytes += self.recv_grad(0, leg, slot.as_mut(), Landing::Decode)?;
            return Ok(shard);
        }
        let mean = slot.as_mut();
        let codec = policy.choose(mean);
        let Some(last) = self.at.unowned().last() else {
            self.broadcast_bytes += Wire::round_trip_in_place(codec, mean);
            return Ok(shard);
        };
        // One wire serves every peer, streamed off the mean to each; the
        // last leg also lands the root's own copy on the values the peers
        // decode (nothing moves under a lossless codec).
        let (world, owned) = (self.at.world, self.at.owned.clone());
        let (peers, stage) = self.at.route();
        let wire = WireStream::new(codec, mean, stage);
        for peer in (0..world).filter(|rank| !owned.contains(rank)) {
            let leg = Leg { tensor, at: At::Broadcast(peer) };
            let start = self.ledger.now_ns();
            let observed = send(peers, peer, self.step, tensor, &wire, mean, peer == last)?;
            self.ledger.record(leg, peer, true, wire.wire_bytes(), observed, start);
        }
        self.broadcast_bytes += wire.wire_bytes();
        Ok(shard)
    }

    /// The one walk over [`reduction_rounds`] that combines gradients,
    /// leaving the sum in slot 0 on the side that owns it. When the last
    /// edge into slot 0 crosses to this side, its landing also scales the
    /// sum by `inv` — reported as `true`. Returns that flag and the shard
    /// and spent buffer of the partial this side sent last, if it sent
    /// any.
    #[allow(clippy::type_complexity)]
    fn reduce<S: AsRef<[f32]> + AsMut<[f32]>>(
        &mut self,
        tree: &mut GradReduceTree<S>,
        tensor: u32,
        inv: f32,
    ) -> Result<(Option<(usize, S)>, bool), DistError> {
        let GradReduceTree { slots, policy } = tree;
        let (rounds, world) = (self.rounds, self.at.world);
        let (mut sent, mut scaled) = (None, false);
        for (ri, round) in rounds.iter().enumerate() {
            for (ei, &(dst, src)) in round.iter().enumerate() {
                let leg = Leg { tensor, at: At::Edge(ri, ei) };
                let priced = match (self.at.owns(dst), self.at.owns(src)) {
                    (false, false) => continue,
                    (true, true) => {
                        let incoming = slots[src].take().expect("source slot");
                        let acc = slots[dst].as_mut().expect("destination slot");
                        let incoming = incoming.as_ref();
                        combine_into(acc.as_mut(), incoming, policy.choose(incoming))
                    }
                    (false, true) => {
                        let mut payload = slots[src].take().expect("source slot");
                        let codec = policy.choose(payload.as_ref());
                        let (peers, stage) = self.at.route();
                        let wire = WireStream::new(codec, payload.as_ref(), stage);
                        let start = self.ledger.now_ns();
                        let data = payload.as_mut();
                        let observed =
                            send(peers, dst % world, self.step, tensor, &wire, data, false)?;
                        let priced = wire.wire_bytes();
                        self.ledger.record(leg, dst % world, true, priced, observed, start);
                        sent = Some((src, payload));
                        priced
                    }
                    (true, false) => {
                        // The last round is the one edge `(0, g)`.
                        let last = ri + 1 == rounds.len();
                        scaled |= last;
                        let landing = if last { Landing::Mean(inv) } else { Landing::Sum };
                        let acc = slots[dst].as_mut().expect("destination slot");
                        self.recv_grad(src % world, leg, acc.as_mut(), landing)?
                    }
                };
                self.edge_bytes[ri][ei] += priced;
            }
        }
        Ok((sent, scaled))
    }

    /// Receives `peer`'s frame for this step's `leg` and lands its wire in
    /// `out` as it arrives, after checking the frame's header and the
    /// wire's element count against `out`. Returns the wire's priced bytes.
    fn recv_grad(
        &mut self,
        peer: usize,
        leg: Leg,
        out: &mut [f32],
        landing: Landing,
    ) -> Result<u64, DistError> {
        let start = self.ledger.now_ns();
        let want = GradHead { epoch: EPOCH, step: self.step, tensor: leg.tensor };
        let (peers, stage) = self.at.route();
        let mut priced = None;
        let (_, observed) = peers.recv_frame(peer, &mut |got, payload| {
            if got != want {
                return Err(NetError::Protocol(format!(
                    "header mismatch: got epoch {} step {} tensor {}, \
                     expected epoch {EPOCH} step {} tensor {}",
                    got.epoch, got.step, got.tensor, want.step, want.tensor
                )));
            }
            let total = payload.remaining();
            let mut fill = |buf: &mut [u8]| payload.fill(buf);
            let wire = WireInflow::begin(total, &mut fill)?;
            if wire.len() != out.len() {
                return Err(NetError::Protocol(format!(
                    "tensor {}: peer sent {} elements, expected {}",
                    want.tensor,
                    wire.len(),
                    out.len()
                )));
            }
            priced = Some(match landing {
                Landing::Sum => wire.accumulate_into(out, stage, &mut fill)?,
                Landing::Mean(inv) => wire.accumulate_scaled_into(out, inv, stage, &mut fill)?,
                Landing::Decode => wire.decode_into(out, stage, &mut fill)?,
            });
            Ok(())
        })?;
        let priced = priced
            .ok_or_else(|| protocol(format!("expected a Grad frame for tensor {}", leg.tensor)))?;
        self.ledger.record(leg, peer, false, priced, observed, start);
        Ok(priced)
    }

    /// Completes the per-shard `[loss bits, correct, batch]` table: the
    /// side owning rank 0 gathers the rows of every un-owned rank and
    /// sends the full table back, so every rank sums the losses in
    /// shard-id order — the identical `f32` operation sequence.
    pub(crate) fn share_stats(
        &mut self,
        mut table: Vec<Option<[u32; 3]>>,
    ) -> Result<Vec<[u32; 3]>, DistError> {
        let shards = table.len();
        if self.at.owns(0) {
            for peer in self.at.unowned() {
                let words = self.recv_stats(peer)?;
                if words.len() % 4 != 0 {
                    return Err(protocol("malformed stats gather".into()));
                }
                for row in words.chunks_exact(4) {
                    let shard = row[0] as usize;
                    if shard >= shards || shard % self.at.world != peer || table[shard].is_some() {
                        return Err(protocol(format!(
                            "stats for shard {shard} from rank {peer} violate ownership"
                        )));
                    }
                    table[shard] = Some([row[1], row[2], row[3]]);
                }
            }
            let full: Vec<[u32; 3]> = table
                .into_iter()
                .enumerate()
                .map(|(i, row)| {
                    row.ok_or_else(|| protocol(format!("shard {i} never reported stats")))
                })
                .collect::<Result<_, _>>()?;
            for peer in self.at.unowned() {
                self.send_stats(peer, full.iter().flatten().copied().collect())?;
            }
            Ok(full)
        } else {
            let mine = table
                .iter()
                .enumerate()
                .filter_map(|(shard, row)| row.map(|[l, c, b]| [shard as u32, l, c, b]));
            self.send_stats(0, mine.flatten().collect())?;
            let words = self.recv_stats(0)?;
            if words.len() != shards * 3 {
                return Err(protocol("malformed stats broadcast".into()));
            }
            Ok(words.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect())
        }
    }

    fn send_stats(&mut self, peer: usize, words: Vec<u32>) -> Result<(), DistError> {
        let msg = Msg::Stats { step: self.step, words };
        self.ledger.observed += self.at.route().0.send(peer, &msg)?;
        Ok(())
    }

    fn recv_stats(&mut self, peer: usize) -> Result<Vec<u32>, DistError> {
        let (msg, got) = self.at.route().0.recv(peer)?;
        self.ledger.observed += got;
        match msg {
            Msg::Stats { step, words } if step == self.step => Ok(words),
            _ => {
                Err(protocol(format!("expected step {}'s Stats frame from rank {peer}", self.step)))
            }
        }
    }
}

/// Frames `wire` — the serialization of `data` — to `peer` as `step`'s
/// gradient for `tensor`, straight off `data`; with `land`, `data` is left
/// holding the values the peer decodes. Returns the observed bytes.
fn send<T: Transport>(
    peers: &mut T,
    peer: usize,
    step: u32,
    tensor: u32,
    wire: &WireStream<'_>,
    data: &mut [f32],
    land: bool,
) -> Result<u64, NetError> {
    let len = GRAD_FRAME_OVERHEAD as usize + wire.serialized_len();
    if len - 4 > MAX_FRAME_BYTES {
        return Err(NetError::FrameTooLarge { len: len - 4, max: MAX_FRAME_BYTES });
    }
    let head = grad_frame_head(GradHead { epoch: EPOCH, step, tensor }, wire.serialized_len());
    peers.send_frame(peer, len, &mut |w| {
        w.write_all(&head)?;
        if land {
            wire.write_landing(data, w)
        } else {
            wire.write_to(data, w)
        }
    })
}

fn protocol(msg: String) -> DistError {
    DistError::Net(NetError::Protocol(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_encodings::DprFormat;

    #[test]
    fn rounds_cover_every_slot_exactly_once_as_source() {
        for n in 1..=16 {
            let rounds = reduction_rounds(n);
            let mut consumed = vec![false; n];
            for (dst, src) in rounds.iter().flatten() {
                assert!(!consumed[*src], "slot {src} consumed twice (n={n})");
                assert!(!consumed[*dst], "edge targets consumed slot {dst} (n={n})");
                consumed[*src] = true;
            }
            assert!(!consumed[0], "root consumed (n={n})");
            let total: usize = consumed.iter().filter(|&&c| c).count();
            assert_eq!(total, n - 1, "n={n}: every non-root slot feeds exactly one edge");
        }
    }

    #[test]
    fn eight_shard_schedule_is_the_documented_one() {
        assert_eq!(
            reduction_rounds(8),
            vec![vec![(0, 1), (2, 3), (4, 5), (6, 7)], vec![(0, 2), (4, 6)], vec![(0, 4)]]
        );
    }

    #[test]
    fn tree_matches_manual_fixed_order_sum() {
        let shards: Vec<Vec<f32>> =
            (0..8).map(|s| (0..5).map(|i| (s * 5 + i) as f32 * 0.37 - 3.0).collect()).collect();
        let mut tree = GradReduceTree::new(8, TransferCodec::None);
        for (s, g) in shards.iter().enumerate() {
            tree.ingest(s, g.clone());
        }
        let (merged, bytes) = tree.finish();
        // Manual replay of the documented schedule.
        let mut slots = shards;
        for (dst, src) in [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)] {
            let src_v = slots[src].clone();
            for i in 0..5 {
                slots[dst][i] += src_v[i];
            }
        }
        assert_eq!(
            merged.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            slots[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // 7 edges x 5 f32 dense payload.
        assert_eq!(bytes, 7 * 5 * 4);
    }

    #[test]
    fn finish_is_ingest_order_independent_even_for_lossy_codecs() {
        for codec in [TransferCodec::None, TransferCodec::Ssdc, TransferCodec::Dpr(DprFormat::Fp8)]
        {
            let shards: Vec<Vec<f32>> = (0..8u32)
                .map(|s| {
                    (0..7u32).map(|i| f32::from_bits(0x3f00_0000 ^ (s * 131 + i * 7))).collect()
                })
                .collect();
            let mut fwd = GradReduceTree::new(8, codec);
            for (s, g) in shards.iter().enumerate() {
                fwd.ingest(s, g.clone());
            }
            let mut rev = GradReduceTree::new(8, codec);
            for (s, g) in shards.iter().enumerate().rev() {
                rev.ingest(s, g.clone());
            }
            let (a, ab) = fwd.finish();
            let (b, bb) = rev.finish();
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "codec {codec}"
            );
            assert_eq!(ab, bb, "codec {codec}");
        }
    }

    /// Shard `s`'s gradient for a tensor of `len` elements, one in `keep`
    /// of them non-zero: ordinary values with a few hostile bit patterns,
    /// sparse enough at `keep = 8` that `auto` ships SSDC.
    fn shard_grad(s: usize, len: usize, keep: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match (i * 31 + s * 7) % (97 * keep) {
                0 => f32::NAN,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => -1e-42,
                k if k % keep == 0 => (k as f32 - 40.0) * 0.013 * (s + 1) as f32,
                _ => 0.0,
            })
            .collect()
    }

    /// All-reduces two tensors (one long and dense, one short and sparse)
    /// over 8 shards on `at`, which brings the shards of the ranks it
    /// owns. Returns the means' bits, the edge table and the broadcast
    /// bytes.
    fn allreduce_on<T: Transport>(
        mut at: Placement<T>,
        policy: CodecPolicy,
    ) -> (Vec<Vec<u32>>, Vec<Vec<u64>>, u64) {
        let rounds = reduction_rounds(8);
        let mut ex = Exchange::new(&rounds, &mut at, 0, Instant::now());
        let means = [(5000, 1), (600, 8)]
            .iter()
            .enumerate()
            .map(|(tensor, &(len, keep))| {
                let mut grads: Vec<Vec<f32>> = (0..8)
                    .map(
                        |shard| {
                            if ex.at.owns(shard) {
                                shard_grad(shard, len, keep)
                            } else {
                                vec![]
                            }
                        },
                    )
                    .collect();
                let mut tree = GradReduceTree::new(8, policy);
                for (shard, grad) in grads.iter_mut().enumerate().filter(|(_, g)| !g.is_empty()) {
                    tree.ingest(shard, &mut grad[..]);
                }
                let reduced = ex.reduce_tensor(tree, tensor as u32).expect("reduce");
                let at = ex.broadcast(reduced).expect("broadcast");
                grads[at].iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        (means, ex.edge_bytes, ex.broadcast_bytes)
    }

    #[test]
    fn four_rank_mesh_merges_to_the_bits_of_one_owner() {
        // Slot `s` lives on rank `s % 4`: ranks 1 and 3 send two partials
        // each, rank 2 receives two and sends two, the root combines its
        // own (0, 4) edge in place.
        for policy in [
            CodecPolicy::Fixed(TransferCodec::None),
            CodecPolicy::Fixed(TransferCodec::Ssdc),
            CodecPolicy::Fixed(TransferCodec::Dpr(DprFormat::Fp8)),
            CodecPolicy::Auto,
        ] {
            let (want, want_edges, want_bcast) = allreduce_on(Placement::from(4), policy);
            let ranks: Vec<_> = crate::InProcess::mesh(4)
                .into_iter()
                .map(|tp| std::thread::spawn(move || allreduce_on(Placement::from(tp), policy)))
                .collect();
            let mut edges_seen = vec![vec![0u64; 4]; 3];
            for (rank, h) in ranks.into_iter().enumerate() {
                let (got, edges, bcast) = h.join().expect("rank thread");
                assert_eq!(got, want, "{policy}: rank {rank} merged other bits");
                assert_eq!(bcast, want_bcast, "{policy}: rank {rank} broadcast bytes");
                for (ri, round) in edges.iter().enumerate() {
                    for (ei, &bytes) in round.iter().enumerate() {
                        // Both endpoints of a crossing edge price it alike.
                        assert!(bytes == 0 || bytes == want_edges[ri][ei], "{policy}: r{ri}e{ei}");
                        edges_seen[ri][ei] = edges_seen[ri][ei].max(bytes);
                    }
                }
            }
            for (seen, want) in edges_seen.iter().zip(&want_edges) {
                assert_eq!(seen[..want.len()], want[..], "{policy}: edge table");
            }
        }
    }

    #[test]
    #[should_panic(expected = "delivered twice")]
    fn double_delivery_panics() {
        let mut t = GradReduceTree::new(2, TransferCodec::None);
        t.ingest(0, vec![1.0]);
        t.ingest(0, vec![2.0]);
    }

    #[test]
    fn single_shard_tree_is_identity_with_zero_wire_bytes() {
        let mut t = GradReduceTree::new(1, TransferCodec::Ssdc);
        t.ingest(0, vec![1.5, -0.0, f32::NAN]);
        let (m, b) = t.finish();
        assert_eq!(b, 0);
        assert_eq!(m[0].to_bits(), 1.5f32.to_bits());
        assert_eq!(m[1].to_bits(), (-0.0f32).to_bits());
        assert!(m[2].is_nan());
    }
}
