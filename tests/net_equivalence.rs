//! Headline gate for placement independence: the data-parallel step is
//! *invisible* arithmetic wherever its ranks live.
//!
//! There is one trainer and one reduction walk; this suite runs it under
//! both ownerships and demands the same bits. `NetTrainer` (owns one rank
//! of `N`, the rest behind a transport) must produce bit-identical merged
//! gradients, losses, byte prices and final parameters to `DistTrainer`
//! (owns every rank, nothing framed) — across worlds {1, 2, 4}, codecs
//! {none, ssdc, dpr:8} and the auto policy, over both transports: the
//! channel-mesh `InProcess` (frames still encoded/decoded) and real
//! loopback `Tcp` sockets. On top of the numeric identity, every
//! `NetTransfer` trace event must satisfy the observed-vs-priced frame
//! relation `observed == priced + GRAD_FRAME_OVERHEAD` exactly, and a
//! trainer that owns its whole world frames nothing at all.

use gist::dist::DistTrainer;
use gist::encodings::{CodecPolicy, DprFormat, TransferCodec};
use gist::net::{InProcess, NetConfig, NetTrainer, Tcp, Transport, GRAD_FRAME_OVERHEAD};
use gist::obs::Event;
use gist::runtime::params::ParamGrads;
use gist::runtime::{ExecMode, Executor, SyntheticImages};
use gist::tensor::Tensor;
use std::net::TcpListener;
use std::thread;

const SHARDS: usize = 8;
const SHARD_BATCH: usize = 2;
const STEPS: usize = 2;
const LR: f32 = 0.05;

fn shard_data() -> (Vec<Tensor>, Vec<Vec<usize>>) {
    let mut ds = SyntheticImages::new(4, 16, 0.3, 1234);
    let mut images = Vec::with_capacity(SHARDS);
    let mut labels = Vec::with_capacity(SHARDS);
    for _ in 0..SHARDS {
        let (x, y) = ds.minibatch(SHARD_BATCH);
        images.push(x);
        labels.push(y);
    }
    (images, labels)
}

fn build_exec() -> Result<Executor, gist::runtime::RuntimeError> {
    Executor::new(gist::models::tiny_convnet(SHARD_BATCH, 4), ExecMode::Baseline, 7)
}

fn param_bits(exec: &Executor) -> Vec<u32> {
    exec.params.bits().collect()
}

/// One step's transport-comparable snapshot: loss bits, the merged
/// gradient bits, and the rank-invariant priced byte counters (split into
/// u32 words so they ride the same fingerprint vector). Per-rank
/// `edge_bytes`/`reduce_bytes` are compared separately by overlay.
fn step_fp(
    loss: f32,
    merged: &[Option<ParamGrads>],
    broadcast_bytes: u64,
    dense_grad_bytes: u64,
) -> Vec<u32> {
    let mut fp = vec![loss.to_bits()];
    for g in merged.iter().flatten() {
        fp.extend(g.main.data().iter().map(|v| v.to_bits()));
        if let Some(sec) = &g.secondary {
            fp.extend(sec.data().iter().map(|v| v.to_bits()));
        }
    }
    for bytes in [broadcast_bytes, dense_grad_bytes] {
        fp.push(bytes as u32);
        fp.push((bytes >> 32) as u32);
    }
    fp
}

/// Per-step `[round][edge]` priced-byte tables.
type EdgeTables = Vec<Vec<Vec<u64>>>;

/// The own-every-rank reference trajectory for a codec policy.
fn dist_fingerprint(replicas: usize, policy: CodecPolicy) -> (Vec<u32>, EdgeTables) {
    let (images, labels) = shard_data();
    let mut trainer = DistTrainer::new(replicas, SHARDS, policy, build_exec).expect("dist trainer");
    let mut fp = Vec::new();
    let mut edges = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        let rep = trainer.step(&images, &labels, LR).expect("dist step");
        // Nothing crosses, so nothing is framed.
        assert_eq!(rep.observed_wire_bytes, 0, "own-all trainer observed wire bytes");
        assert!(trainer.take_events().is_empty(), "own-all trainer recorded a transfer");
        fp.extend(step_fp(rep.loss, &rep.merged, rep.broadcast_bytes, rep.dense_grad_bytes));
        edges.push(rep.edge_bytes);
    }
    fp.extend(param_bits(trainer.replica(0)));
    (fp, edges)
}

/// Serialized `Wire::to_bytes` header over the priced `wire_bytes()` for
/// the dense codec: magic 4 + tag 1 + len 4 + fixup count 4.
const DENSE_WIRE_HEADER: u64 = 13;

/// Runs one rank to completion on an already-connected transport and
/// returns its fingerprint, its per-step partial edge tables, and the
/// `NetTransfer` events drained after every step (the trainer keeps only
/// the latest step's).
fn run_rank<T: Transport>(transport: T, policy: CodecPolicy) -> (Vec<u32>, EdgeTables, Vec<Event>) {
    let (images, labels) = shard_data();
    let mut trainer = NetTrainer::new(transport, SHARDS, policy, build_exec).expect("net trainer");
    let mut fp = Vec::new();
    let mut edges = Vec::with_capacity(STEPS);
    let mut events = Vec::new();
    for _ in 0..STEPS {
        let rep = trainer.step(&images, &labels, LR).expect("net step");
        assert_eq!(rep.batch, SHARDS * SHARD_BATCH);
        assert_eq!(rep.reduce_bytes, rep.edge_bytes.iter().flatten().sum::<u64>());
        let step_events = trainer.take_events();
        if trainer.world() == 1 {
            // A world of one owns everything: the transport is never used.
            assert_eq!(rep.observed_wire_bytes, 0, "world-1 rank observed wire bytes");
            assert!(step_events.is_empty(), "world-1 rank recorded a transfer");
        }
        events.extend(step_events);
        fp.extend(step_fp(rep.loss, &rep.merged, rep.broadcast_bytes, rep.dense_grad_bytes));
        edges.push(rep.edge_bytes);
    }
    fp.extend(param_bits(trainer.replica(0)));
    (fp, edges, events)
}

/// Cross-rank event audit: every crossing edge / broadcast leg must be
/// observed by exactly one sender and one receiver per step, with the
/// identical observed-vs-priced byte pair on both sides; with the dense
/// codec the observed bytes equal
/// `priced + DENSE_WIRE_HEADER + GRAD_FRAME_OVERHEAD` exactly.
fn audit_events(all_events: &[Vec<Event>], policy: CodecPolicy, transport: &str) {
    use std::collections::BTreeMap;
    // name -> (sent side, received side) lists of (priced, observed).
    type BytePairs = Vec<(u64, u64)>;
    let mut edges: BTreeMap<String, (BytePairs, BytePairs)> = BTreeMap::new();
    for events in all_events {
        for ev in events {
            let Event::NetTransfer { name, sent, priced_bytes, observed_bytes, .. } = ev else {
                panic!("{transport}: unexpected event kind");
            };
            if policy == CodecPolicy::Fixed(TransferCodec::None) {
                assert_eq!(
                    *observed_bytes,
                    *priced_bytes + DENSE_WIRE_HEADER + GRAD_FRAME_OVERHEAD,
                    "{transport}: {name} broke the dense observed-vs-priced relation"
                );
            }
            let entry = edges.entry(name.clone()).or_default();
            if *sent { &mut entry.0 } else { &mut entry.1 }.push((*priced_bytes, *observed_bytes));
        }
    }
    for (name, (mut sent, mut recv)) in edges {
        assert_eq!(sent.len(), STEPS, "{transport}: {name} sender count");
        assert_eq!(recv.len(), STEPS, "{transport}: {name} receiver count");
        sent.sort_unstable();
        recv.sort_unstable();
        assert_eq!(sent, recv, "{transport}: {name} sender and receiver disagree on bytes");
    }
}

/// All ranks of an `InProcess` mesh, one thread each; every rank's
/// fingerprint must agree. Returns the shared fingerprint plus the
/// overlaid full edge tables.
fn net_fingerprint_mesh(world: usize, policy: CodecPolicy) -> (Vec<u32>, EdgeTables) {
    let handles: Vec<_> = InProcess::mesh(world)
        .into_iter()
        .map(|tp| {
            thread::spawn(move || {
                let rank = tp.rank();
                (rank, run_rank(tp, policy))
            })
        })
        .collect();
    collect_ranks(handles, world, policy, "in-process")
}

/// All ranks over real loopback TCP sockets, one thread each (the process
/// split itself is exercised by the CLI `--spawn-local` smoke).
fn net_fingerprint_tcp(world: usize, policy: CodecPolicy) -> (Vec<u32>, EdgeTables) {
    let peers: Vec<String> = (0..world)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind :0");
            format!("127.0.0.1:{}", l.local_addr().expect("addr").port())
        })
        .collect();
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let peers = peers.clone();
            thread::spawn(move || {
                let config = NetConfig::default();
                let tcp = Tcp::rendezvous(rank, &peers, SHARDS, policy.meta_id() as u32, &config)
                    .expect("rendezvous");
                (rank, run_rank(tcp, policy))
            })
        })
        .collect();
    collect_ranks(handles, world, policy, "tcp")
}

type RankResult = (Vec<u32>, EdgeTables, Vec<Event>);

fn collect_ranks(
    handles: Vec<thread::JoinHandle<(usize, RankResult)>>,
    world: usize,
    policy: CodecPolicy,
    transport: &str,
) -> (Vec<u32>, EdgeTables) {
    let mut per_rank: Vec<Option<Vec<u32>>> = (0..world).map(|_| None).collect();
    let mut all_edges: Vec<EdgeTables> = Vec::with_capacity(world);
    let mut all_events: Vec<Vec<Event>> = Vec::with_capacity(world);
    for h in handles {
        let (rank, (fp, edges, events)) = h.join().expect("rank thread panicked");
        per_rank[rank] = Some(fp);
        all_edges.push(edges);
        all_events.push(events);
    }
    audit_events(&all_events, policy, transport);
    let fp0 = per_rank[0].take().expect("rank 0 fingerprint");
    for (rank, fp) in per_rank.iter().enumerate().skip(1) {
        assert_eq!(
            fp.as_ref().expect("rank fingerprint"),
            &fp0,
            "{transport} {}: rank {rank} of {world} diverged from rank 0",
            policy.label()
        );
    }
    (fp0, overlay_edges(&all_edges, transport))
}

/// Overlays every rank's partial `[step][round][edge]` tables into the
/// full tree pricing: each edge must be priced by at least one rank, and
/// every rank that priced it (both endpoints of a crossing edge) must
/// agree on the value.
fn overlay_edges(all_edges: &[EdgeTables], transport: &str) -> EdgeTables {
    let mut merged = all_edges[0].clone();
    for tables in &all_edges[1..] {
        for (step, table) in tables.iter().enumerate() {
            for (round, row) in table.iter().enumerate() {
                for (edge, &bytes) in row.iter().enumerate() {
                    let slot = &mut merged[step][round][edge];
                    if bytes == 0 {
                        continue;
                    }
                    assert!(
                        *slot == 0 || *slot == bytes,
                        "{transport}: step {step} round {round} edge {edge} priced \
                         {slot} on one endpoint, {bytes} on the other"
                    );
                    *slot = bytes;
                }
            }
        }
    }
    for (step, table) in merged.iter().enumerate() {
        for (round, row) in table.iter().enumerate() {
            for (edge, &bytes) in row.iter().enumerate() {
                assert!(
                    bytes > 0,
                    "{transport}: step {step} round {round} edge {edge} priced by no rank"
                );
            }
        }
    }
    merged
}

fn headline_policies() -> Vec<CodecPolicy> {
    vec![
        CodecPolicy::Fixed(TransferCodec::None),
        CodecPolicy::Fixed(TransferCodec::Ssdc),
        CodecPolicy::Fixed(TransferCodec::Dpr(DprFormat::Fp8)),
    ]
}

// ---------------------------------------------------------------------------
// Headline: own-one == own-all, bit for bit
// ---------------------------------------------------------------------------

#[test]
fn inprocess_mesh_matches_dist_for_every_world_and_codec() {
    for policy in headline_policies() {
        // The in-process reference is replica-count invariant (pinned in
        // dist_equivalence.rs), so one reference run per codec suffices.
        let (reference, ref_edges) = dist_fingerprint(2, policy);
        assert!(!reference.is_empty());
        for world in [1, 2, 4] {
            let (fp, edges) = net_fingerprint_mesh(world, policy);
            assert_eq!(
                fp,
                reference,
                "{}: mesh world {world} diverged from in-process gist-dist",
                policy.label()
            );
            assert_eq!(
                edges,
                ref_edges,
                "{}: mesh world {world} priced the tree differently",
                policy.label()
            );
        }
    }
}

#[test]
fn tcp_loopback_matches_dist_for_every_world_and_codec() {
    for policy in headline_policies() {
        let (reference, ref_edges) = dist_fingerprint(2, policy);
        for world in [2, 4] {
            let (fp, edges) = net_fingerprint_tcp(world, policy);
            assert_eq!(
                fp,
                reference,
                "{}: TCP world {world} diverged from in-process gist-dist",
                policy.label()
            );
            assert_eq!(
                edges,
                ref_edges,
                "{}: TCP world {world} priced the tree differently",
                policy.label()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Auto policy: density-driven codec choice is lossless and placement-free
// ---------------------------------------------------------------------------

#[test]
fn auto_policy_is_lossless_and_transport_invariant() {
    // Auto picks SSDC or raw per payload; either way the wire round-trips
    // bitwise, so every transport must reproduce the in-process auto
    // trajectory exactly — byte counters and edge pricing included.
    let (reference, ref_edges) = dist_fingerprint(2, CodecPolicy::Auto);
    for world in [1, 2] {
        let (fp, edges) = net_fingerprint_mesh(world, CodecPolicy::Auto);
        assert_eq!(fp, reference, "auto: mesh world {world} diverged");
        assert_eq!(edges, ref_edges, "auto: mesh world {world} priced the tree differently");
    }
    let (fp, edges) = net_fingerprint_tcp(2, CodecPolicy::Auto);
    assert_eq!(fp, reference, "auto: TCP world 2 diverged");
    assert_eq!(edges, ref_edges, "auto: TCP world 2 priced the tree differently");
    // And auto really is lossless: the numeric trajectory (params only —
    // byte counters legitimately differ from fixed-raw) matches raw.
    let params_of = |fp: &[u32]| fp[fp.len() - param_len()..].to_vec();
    let (raw, _) = dist_fingerprint(1, CodecPolicy::Fixed(TransferCodec::None));
    assert_eq!(
        params_of(&reference),
        params_of(&raw),
        "auto policy changed the trained parameters vs raw"
    );
}

/// Parameter-word count of the model (tail length of every fingerprint).
fn param_len() -> usize {
    param_bits(&build_exec().expect("exec")).len()
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

#[test]
fn world_must_divide_shards() {
    let mut mesh3 = InProcess::mesh(3);
    let t = mesh3.remove(0);
    let err = NetTrainer::new(t, SHARDS, CodecPolicy::Fixed(TransferCodec::None), build_exec)
        .expect_err("3 does not divide 8");
    let msg = err.to_string();
    assert!(msg.contains("world") && msg.contains('3'), "unhelpful error: {msg}");
}
