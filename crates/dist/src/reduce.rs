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
//! edge with both endpoints owned is [`combine_into`]; an edge with one
//! owned endpoint serializes the same `Wire::encode(policy.choose(payload))`
//! bytes once ([`Wire::encode_to`]), frames them through the [`Transport`],
//! and the receiver runs the same accumulation straight off the received
//! bytes ([`WireRef::accumulate_into`]); an edge with none belongs to
//! someone else. `Wire::to_bytes`/`from_bytes` round-trips exactly, so
//! which branch an edge takes never moves a bit of the sum.

use crate::frame::{Msg, NetError};
use crate::trainer::DistError;
use crate::transport::{NoPeers, Transport};
use gist_encodings::{CodecPolicy, TransferCodec, Wire, WireRef};
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
/// round-trip runs even for [`TransferCodec::None`] and even when both
/// endpoints share a device, so lossy codecs perturb partials
/// placement-independently.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn combine_into(acc: &mut [f32], src: &[f32], codec: TransferCodec) -> u64 {
    assert_eq!(acc.len(), src.len(), "combine_into: shard gradient length mismatch");
    accumulate(acc, &Wire::encode(codec, src))
}

/// The receiving half of every edge, owned or crossing: `acc[i] +=
/// decode(wire)[i]` in serial element order. Returns the priced bytes.
fn accumulate(acc: &mut [f32], wire: &Wire) -> u64 {
    for (a, d) in acc.iter_mut().zip(&wire.decode()) {
        *a += *d;
    }
    wire.wire_bytes()
}

/// The shard slots of one gradient tensor, filled in any arrival order.
///
/// Shard gradients are [`ingest`](Self::ingest)ed into their slot whenever
/// their replica finishes; the walk then runs the fixed schedule, so the
/// merged bits depend only on the shard *values*, never on which replica
/// delivered them first. A trainer ingests the shards of the ranks it owns
/// and hands the tree to its step's exchange; [`finish`](Self::finish) is
/// the same walk for a caller that holds every shard.
#[derive(Debug)]
pub struct GradReduceTree {
    slots: Vec<Option<Vec<f32>>>,
    policy: CodecPolicy,
}

impl GradReduceTree {
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
    pub fn ingest(&mut self, shard: usize, grad: Vec<f32>) {
        assert!(shard < self.slots.len(), "shard {shard} out of range");
        if let Some(prev) = self.slots.iter().flatten().next() {
            assert_eq!(prev.len(), grad.len(), "shard {shard} gradient length mismatch");
        }
        assert!(self.slots[shard].is_none(), "shard {shard} delivered twice");
        self.slots[shard] = Some(grad);
    }

    /// Runs the fixed schedule over a fully delivered tree and returns
    /// `(merged_sum, wire_bytes)`.
    ///
    /// The merged vector is the tree-ordered **sum** over shards (callers
    /// scale by `1 / shards` themselves); `wire_bytes` is the total encoded
    /// size of every edge payload.
    ///
    /// # Panics
    ///
    /// Panics if any shard was never delivered.
    #[must_use]
    pub fn finish(mut self) -> (Vec<f32>, u64) {
        let n = self.slots.len();
        for (i, s) in self.slots.iter().enumerate() {
            assert!(s.is_some(), "shard {i} never delivered (have {n} slots)");
        }
        let rounds = reduction_rounds(n);
        let mut everything = Placement::from(1);
        let mut all_mine = Exchange::new(&rounds, &mut everything, 0, Instant::now());
        all_mine.reduce(&mut self, 0).expect("no edge crosses when every slot is owned");
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
}

impl From<usize> for Placement<NoPeers> {
    fn from(replicas: usize) -> Self {
        Placement { owned: 0..replicas, world: replicas, transport: None }
    }
}

impl<T: Transport> From<T> for Placement<T> {
    fn from(transport: T) -> Self {
        let rank = transport.rank();
        Placement { owned: rank..rank + 1, world: transport.world(), transport: Some(transport) }
    }
}

impl<T> Placement<T> {
    fn owns(&self, slot: usize) -> bool {
        self.owned.contains(&(slot % self.world))
    }

    /// The ranks on the far side of the transport, ascending.
    fn unowned(&self) -> impl Iterator<Item = usize> {
        let owned = self.owned.clone();
        (0..self.world).filter(move |rank| !owned.contains(rank))
    }

    fn peers(&mut self) -> &mut T {
        self.transport.as_mut().expect("a rank outside `owned` implies a transport")
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
    t0: Instant,
    /// Priced bytes per edge this side touched, `[round][edge]`.
    pub(crate) edge_bytes: Vec<Vec<u64>>,
    /// Priced bytes of one broadcast copy, summed over tensors.
    pub(crate) broadcast_bytes: u64,
    /// Bytes that actually crossed the transport, framing included.
    pub(crate) observed: u64,
    /// One [`Event::NetTransfer`] per crossing edge and broadcast leg.
    pub(crate) events: Vec<Event>,
}

impl<'a, T: Transport> Exchange<'a, T> {
    /// `t0` is when the step began: transfer events are stamped from it.
    pub(crate) fn new(
        rounds: &'a [Vec<Edge>],
        at: &'a mut Placement<T>,
        step: u32,
        t0: Instant,
    ) -> Self {
        Exchange {
            rounds,
            at,
            step,
            t0,
            edge_bytes: rounds.iter().map(|r| vec![0; r.len()]).collect(),
            broadcast_bytes: 0,
            observed: 0,
            events: Vec::new(),
        }
    }

    /// All-reduces one gradient tensor: the tree walk into slot 0, then
    /// the mean-scale and broadcast. Returns the broadcast-decoded mean —
    /// the same bits on every rank of the world.
    pub(crate) fn allreduce(
        &mut self,
        mut tree: GradReduceTree,
        tensor: u32,
    ) -> Result<Vec<f32>, DistError> {
        let sent = self.reduce(&mut tree, tensor)?;
        let GradReduceTree { mut slots, policy } = tree;
        // Rank 0 owns slot 0: it mean-scales *before* the broadcast
        // encode, and every rank — the root's own side included — decodes
        // that one wire, so a lossy codec perturbs identically everywhere.
        if !self.at.owns(0) {
            // The partial this rank sent up the tree has done its work;
            // the mean is decoded into its buffer.
            let mut mean = sent.expect("a rank without slot 0 sends its partial towards it");
            let me = self.at.owned.start;
            self.broadcast_bytes += self.recv_grad(0, tensor, format_args!("bcast{me}"), |w| {
                // A broadcast of another length stays `Tensor::from_vec`'s
                // shape error downstream, as it was when this allocated.
                mean.resize(w.len(), 0.0);
                w.decode_into(&mut mean);
                Ok(())
            })?;
            return Ok(mean);
        }
        let inv = 1.0f32 / slots.len() as f32;
        let mut mean = slots[0].take().expect("root slot");
        for v in mean.iter_mut() {
            *v *= inv;
        }
        let codec = policy.choose(&mean);
        if self.at.unowned().next().is_none() {
            let wire = Wire::encode(codec, &mean);
            self.broadcast_bytes += wire.wire_bytes();
            return Ok(wire.decode());
        }
        // One serialization serves every peer, and a lossless codec would
        // only decode the root's own copy back to the bits it already holds.
        let mut bytes = Vec::new();
        let priced = Wire::encode_to(codec, &mean, &mut bytes);
        for peer in self.at.unowned() {
            bytes = self.send_grad(peer, tensor, bytes, priced, format_args!("bcast{peer}"))?;
        }
        if !codec.is_lossless() {
            WireRef::parse(&bytes).expect("own serialization parses").decode_into(&mut mean);
        }
        self.broadcast_bytes += priced;
        Ok(mean)
    }

    /// The one walk over [`reduction_rounds`] that combines gradients,
    /// leaving the sum in slot 0 on the side that owns it. Returns the
    /// spent buffer of the partial this side sent last, if it sent any.
    fn reduce(
        &mut self,
        tree: &mut GradReduceTree,
        tensor: u32,
    ) -> Result<Option<Vec<f32>>, DistError> {
        let GradReduceTree { slots, policy } = tree;
        let (rounds, world) = (self.rounds, self.at.world);
        let mut sent = None;
        for (ri, round) in rounds.iter().enumerate() {
            for (ei, &(dst, src)) in round.iter().enumerate() {
                let priced = match (self.at.owns(dst), self.at.owns(src)) {
                    (false, false) => continue,
                    (true, true) => {
                        let incoming = slots[src].take().expect("source slot");
                        let acc = slots[dst].as_mut().expect("destination slot");
                        combine_into(acc, &incoming, policy.choose(&incoming))
                    }
                    (false, true) => {
                        let payload = slots[src].take().expect("source slot");
                        let mut bytes = Vec::new();
                        let priced = Wire::encode_to(policy.choose(&payload), &payload, &mut bytes);
                        let leg = format_args!("r{ri}e{ei}");
                        self.send_grad(dst % world, tensor, bytes, priced, leg)?;
                        sent = Some(payload);
                        priced
                    }
                    (true, false) => {
                        let acc = slots[dst].as_mut().expect("destination slot");
                        self.recv_grad(src % world, tensor, format_args!("r{ri}e{ei}"), |wire| {
                            if wire.len() != acc.len() {
                                return Err(protocol(format!(
                                    "tensor {tensor}: peer sent {} elements, expected {}",
                                    wire.len(),
                                    acc.len()
                                )));
                            }
                            wire.accumulate_into(acc);
                            Ok(())
                        })?
                    }
                };
                self.edge_bytes[ri][ei] += priced;
            }
        }
        Ok(sent)
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

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Frames the serialized wire `bytes` (pricing `priced`) to `peer` as
    /// this step's gradient for `tensor`, and hands the buffer back for
    /// the next leg.
    fn send_grad(
        &mut self,
        peer: usize,
        tensor: u32,
        bytes: Vec<u8>,
        priced: u64,
        leg: std::fmt::Arguments<'_>,
    ) -> Result<Vec<u8>, DistError> {
        let msg = Msg::Grad { epoch: EPOCH, step: self.step, tensor, wire: bytes };
        let start = self.now_ns();
        let sent = self.at.peers().send(peer, &msg)?;
        let name = format!("allreduce.n{}.t{tensor}.{leg}", self.at.world);
        self.record(name, peer, true, priced, sent, start);
        let Msg::Grad { wire, .. } = msg else { unreachable!("built as a Grad above") };
        Ok(wire)
    }

    /// Receives and validates `peer`'s frame as this step's gradient for
    /// `tensor`, parses its wire payload in place and hands the view to
    /// `sink`. Returns the wire's priced bytes.
    fn recv_grad(
        &mut self,
        peer: usize,
        tensor: u32,
        leg: std::fmt::Arguments<'_>,
        sink: impl FnOnce(&WireRef<'_>) -> Result<(), DistError>,
    ) -> Result<u64, DistError> {
        let start = self.now_ns();
        let (msg, got) = self.at.peers().recv(peer)?;
        let Msg::Grad { epoch, step, tensor: sent_tensor, wire } = msg else {
            return Err(protocol(format!("expected a Grad frame for tensor {tensor}")));
        };
        if (epoch, step, sent_tensor) != (EPOCH, self.step, tensor) {
            return Err(protocol(format!(
                "header mismatch: got epoch {epoch} step {step} tensor {sent_tensor}, \
                 expected epoch {EPOCH} step {} tensor {tensor}",
                self.step
            )));
        }
        let wire = WireRef::parse(&wire).map_err(NetError::from)?;
        let name = format!("allreduce.n{}.t{tensor}.{leg}", self.at.world);
        self.record(name, peer, false, wire.wire_bytes(), got, start);
        sink(&wire)?;
        Ok(wire.wire_bytes())
    }

    /// Books one gradient transfer: its observed bytes and its trace event.
    fn record(
        &mut self,
        name: String,
        peer: usize,
        sent: bool,
        priced: u64,
        observed: u64,
        ts: u64,
    ) {
        self.observed += observed;
        let event = Event::NetTransfer {
            name,
            rank: self.at.peers().rank() as u32,
            peer: peer as u32,
            sent,
            priced_bytes: priced,
            observed_bytes: observed,
            ts_ns: ts,
            dur_ns: self.now_ns() - ts,
        };
        self.events.push(event);
    }

    fn send_stats(&mut self, peer: usize, words: Vec<u32>) -> Result<(), DistError> {
        let msg = Msg::Stats { step: self.step, words };
        self.observed += self.at.peers().send(peer, &msg)?;
        Ok(())
    }

    fn recv_stats(&mut self, peer: usize) -> Result<Vec<u32>, DistError> {
        let (msg, got) = self.at.peers().recv(peer)?;
        self.observed += got;
        match msg {
            Msg::Stats { step, words } if step == self.step => Ok(words),
            _ => {
                Err(protocol(format!("expected step {}'s Stats frame from rank {peer}", self.step)))
            }
        }
    }
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
                let mut tree = GradReduceTree::new(8, policy);
                for shard in (0..8).filter(|&shard| ex.at.owns(shard)) {
                    tree.ingest(shard, shard_grad(shard, len, keep));
                }
                let mean = ex.allreduce(tree, tensor as u32).expect("allreduce");
                mean.iter().map(|v| v.to_bits()).collect()
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
