//! Differential suite for `gist-dist`: the replica-determinism gate.
//!
//! The distributed subsystem promises that data parallelism is *invisible*
//! to the model: one global step over the fixed `S = 8` micro-batch shards
//! produces byte-identical merged gradients and parameter updates whether
//! 1, 2, 4 or 8 replicas computed the shards — at every thread count,
//! under both allocation policies, at every `GIST_SIMD` level, and with
//! every `GradCodec` on the wire (SSDC bitwise-lossless, DPR lossy but
//! placement-independent and pinned). Those train-step crosses are views of
//! the equivalence matrix (`tests/matrix/mod.rs`). The executed cDMA swap
//! path is held to the acceptance criterion directly: the encoded bytes the
//! executor *observes* on each swap transfer must be priced by the
//! virtual-clock engine exactly, bit-for-bit in the `f64` transfer records.

mod matrix;

use gist::dist::{reduction_rounds, simulate_allreduce, GradCodec, GradReduceTree};
use gist::encodings::DprFormat;
use gist::offload::{simulate_observed, OffloadMode, SwapStrategy};
use gist::perf::GpuModel;
use gist::runtime::{ExecMode, ExecSpec, Executor, SyntheticImages};
use gist_testkit::prop::{boxed, just, one_of, vec_of, Strategy};
use gist_testkit::Runner;

const SHARDS: usize = 8;

/// FNV-1a over the fingerprint words — the committed regression pin.
fn fnv64(fp: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in fp {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Replica-count / thread / alloc / SIMD invariance, codecs on every edge
// ---------------------------------------------------------------------------

matrix::views! {
    merged_update_is_replica_count_invariant: ["replicas=1|2|4|8"],
    merged_update_is_thread_count_invariant: ["replicas=2 threads=*"],
    merged_update_is_alloc_policy_invariant: ["replicas=1|4 alloc=*"],
    merged_update_is_simd_level_invariant: ["replicas=2 alloc=arena simd=*"],
    ssdc_grad_codec_is_bitwise_lossless: ["replicas=1|2 codec=ssdc"],
}

#[test]
fn dpr_grad_codec_is_replica_count_invariant_and_pinned() {
    // Lossy wire formats still may not care about placement: the codec
    // runs on every tree edge whether or not it crosses a link.
    matrix::run_view(&["replicas=1|4|8 codec=dpr:8"]);
    let fp8 = matrix::values_of("replicas=1 codec=dpr:8");
    let fp16 = matrix::values_of("replicas=2 codec=dpr:16");
    // Committed regression pins: these exact training trajectories were
    // recorded from the run that landed the subsystem. The executor, the
    // synthetic dataset, the tree schedule and the DPR tables are all
    // deterministic by contract, so a changed hash here means the lossy
    // wire semantics moved — update EXPERIMENTS.md if it's intentional.
    assert_eq!(fnv64(&fp8), PIN_DPR_FP8, "DPR fp8 trajectory drifted");
    assert_eq!(fnv64(&fp16), PIN_DPR_FP16, "DPR fp16 trajectory drifted");
    // And the lossy formats genuinely differ from lossless training.
    let raw = matrix::values_of("replicas=1");
    assert_ne!(fnv64(&raw), fnv64(&fp8));
}

const PIN_DPR_FP8: u64 = 0xe93a_8b67_0d0a_3d6e;
const PIN_DPR_FP16: u64 = 0xfac0_1088_52c1_de24;

// ---------------------------------------------------------------------------
// Executed cDMA: observed bytes == virtual-clock priced bytes, exactly
// ---------------------------------------------------------------------------

#[test]
fn executed_cdma_observed_bytes_price_the_virtual_clock_exactly() {
    let graph = gist::models::small_vgg(4, 4);
    let offload = OffloadMode::Swap(SwapStrategy::Cdma { compression: 2.0 });
    let spec = ExecSpec { offload, ..ExecSpec::from(ExecMode::Baseline).arena() };
    let mut exec = Executor::new(graph, spec, 7).expect("executor");
    let mut ds = SyntheticImages::new(4, 16, 0.3, 42);
    let (x, y) = ds.minibatch(4);
    let stats = exec.step(&x, &y, 0.05).expect("step");
    assert!(!stats.swap_transfers.is_empty(), "cDMA plan swapped nothing");

    // Observed wire bytes per node, from the executed step. Swap-out and
    // swap-in must agree per node (the same encoded wire moves both ways).
    let mut observed = vec![0u64; exec.graph().len()];
    for (name, to_host, bytes) in &stats.swap_transfers {
        let node = exec
            .graph()
            .nodes()
            .iter()
            .position(|n| &n.name == name)
            .unwrap_or_else(|| panic!("unknown swap layer {name}"));
        assert!(*bytes > 0, "{name}: zero-byte transfer");
        if *to_host {
            observed[node] = *bytes;
        } else {
            assert_eq!(observed[node], *bytes, "{name}: swap-in bytes != swap-out bytes");
        }
    }

    // The virtual clock must price every transfer from those observed
    // bytes, bit-exactly in the f64 records.
    let plan = exec.offload_plan().expect("swap plan").clone();
    let report = simulate_observed(exec.graph(), &plan, &GpuModel::titan_x(), &observed)
        .expect("simulate_observed");
    assert!(!report.transfers.is_empty());
    for t in &report.transfers {
        assert!(observed[t.node] > 0, "clock priced node {} the executor never swapped", t.node);
        assert_eq!(
            t.bytes.to_bits(),
            (observed[t.node] as f64).to_bits(),
            "node {}: modeled {} bytes vs observed {}",
            t.node,
            t.bytes,
            observed[t.node]
        );
    }
    // And the executor really did move encoded wires, not dense copies:
    // SSDC wire bytes differ from numel * 4 for at least one stash.
    let dense: Vec<u64> = report
        .transfers
        .iter()
        .filter(|t| t.to_host)
        .map(|t| plan.numel[t.node] as u64 * 4)
        .collect();
    let wired: Vec<u64> =
        report.transfers.iter().filter(|t| t.to_host).map(|t| t.bytes as u64).collect();
    assert_ne!(dense, wired, "every cDMA wire coincided with its dense size");
}

// ---------------------------------------------------------------------------
// Property: fixed tree is arrival-order independent (64 hostile cases)
// ---------------------------------------------------------------------------

fn hostile_f32() -> impl Strategy<Value = f32> {
    one_of(vec![
        boxed(-2.0f32..2.0),
        boxed(-1e6f32..1e6),
        boxed(just(0.0f32)),
        boxed(just(-0.0f32)),
        boxed(just(f32::NAN)),
        boxed(just(f32::INFINITY)),
        boxed(just(f32::NEG_INFINITY)),
        boxed(just(f32::MIN_POSITIVE)),
        boxed(just(f32::MIN_POSITIVE / 2.0)),
        boxed(just(-1e-45f32)),
        boxed(just(f32::MAX)),
        boxed(just(f32::MIN)),
    ])
}

#[test]
fn reduction_tree_is_arrival_order_independent() {
    Runner::new("reduction_tree_is_arrival_order_independent")
        .cases(64)
        .regressions_file("tests/dist_equivalence.testkit-regressions")
        .run(
            // Shard length straddles vector-lane boundaries (the pool and
            // SSDC wire both chunk by 8); arrival keys drive a permutation.
            &(vec_of(hostile_f32(), 8..257), vec_of(0u64..u64::MAX, SHARDS..SHARDS + 1)),
            |(pool, keys)| {
                let chunk = (pool.len() / SHARDS).max(1);
                let shards: Vec<Vec<f32>> = (0..SHARDS)
                    .map(|s| pool.iter().copied().cycle().skip(s * chunk).take(chunk).collect())
                    .collect();
                let mut order: Vec<usize> = (0..SHARDS).collect();
                order.sort_by_key(|&i| keys[i]);
                for codec in [GradCodec::None, GradCodec::Ssdc, GradCodec::Dpr(DprFormat::Fp8)] {
                    let mut in_order = GradReduceTree::new(SHARDS, codec);
                    for (s, g) in shards.iter().enumerate() {
                        in_order.ingest(s, g.clone());
                    }
                    let mut permuted = GradReduceTree::new(SHARDS, codec);
                    for &s in &order {
                        permuted.ingest(s, shards[s].clone());
                    }
                    let (a, ab) = in_order.finish();
                    let (b, bb) = permuted.finish();
                    assert_eq!(
                        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{codec}: arrival order {order:?} changed the merged bits"
                    );
                    assert_eq!(ab, bb, "{codec}: arrival order changed wire bytes");
                }
            },
        );
}

// ---------------------------------------------------------------------------
// Property: the link engine is causal on random reduction topologies
// ---------------------------------------------------------------------------

#[test]
fn link_engine_is_causal_on_random_reduction_topologies() {
    Runner::new("link_engine_is_causal_on_random_reduction_topologies")
        .cases(64)
        .regressions_file("tests/dist_equivalence.testkit-regressions")
        .run(
            &(2usize..13, vec_of(0u64..u64::MAX, 64..65), 1usize..9, 0u64..4_000_000),
            |(slots, keys, replicas, bcast)| {
                let (slots, replicas, bcast) = (*slots, *replicas, *bcast);
                // Random reduction topology: repeatedly shuffle the alive
                // slots by the next keys and merge adjacent pairs — this
                // generalizes the fixed `reduction_rounds` shape (also
                // exercised below) to arbitrary trees.
                let mut k = keys.iter().copied().cycle();
                let mut alive: Vec<usize> = (0..slots).collect();
                let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
                let mut edge_bytes: Vec<Vec<u64>> = Vec::new();
                while alive.len() > 1 {
                    let mut keyed: Vec<(u64, usize)> =
                        alive.iter().map(|&s| (k.next().unwrap(), s)).collect();
                    keyed.sort_unstable();
                    let mut round = Vec::new();
                    let mut bytes = Vec::new();
                    let mut next = Vec::new();
                    let mut it = keyed.iter().map(|&(_, s)| s);
                    while let Some(a) = it.next() {
                        if let Some(b) = it.next() {
                            round.push((a, b));
                            bytes.push(k.next().unwrap() % 1_000_000 + 1);
                            next.push(a);
                        } else {
                            next.push(a);
                        }
                    }
                    rounds.push(round);
                    edge_bytes.push(bytes);
                    alive = next;
                }
                let gpu = GpuModel::titan_x();
                for (rounds, edge_bytes) in [
                    (&rounds, &edge_bytes),
                    // The canonical fixed tree rides the same checks.
                    (
                        &reduction_rounds(slots),
                        &reduction_rounds(slots)
                            .iter()
                            .map(|r| vec![4096u64; r.len()])
                            .collect::<Vec<_>>(),
                    ),
                ] {
                    let rep = simulate_allreduce(rounds, edge_bytes, replicas, bcast, &gpu);
                    // Re-simulation is bit-identical.
                    let again = simulate_allreduce(rounds, edge_bytes, replicas, bcast, &gpu);
                    assert_eq!(rep, again);
                    for (a, b) in rep.transfers.iter().zip(&again.transfers) {
                        assert_eq!(a.start_s.to_bits(), b.start_s.to_bits());
                        assert_eq!(a.end_s.to_bits(), b.end_s.to_bits());
                    }
                    // Causality, replayed independently from the records:
                    // no transfer starts before either endpoint's partial
                    // exists, crossing transfers never overlap on the one
                    // link, and the totals are consistent.
                    let n = slots.max(replicas);
                    let mut ready = vec![0.0f64; n];
                    let mut link_busy_until = 0.0f64;
                    let mut wire = 0u64;
                    for t in &rep.transfers {
                        assert!(
                            t.start_s >= ready[t.src],
                            "transfer {t:?} started before its source was ready"
                        );
                        assert!(
                            t.start_s >= ready[t.dst],
                            "transfer {t:?} started before its destination was ready"
                        );
                        assert!(t.end_s >= t.start_s);
                        if t.crossed {
                            assert!(
                                t.start_s >= link_busy_until,
                                "transfer {t:?} overlapped the serial link"
                            );
                            link_busy_until = t.end_s;
                            wire += t.bytes;
                        } else {
                            assert_eq!(t.bytes, 0, "local combine priced bytes");
                        }
                        ready[t.dst] = ready[t.dst].max(t.end_s);
                    }
                    assert_eq!(wire, rep.bytes_on_wire);
                    let max_end = rep.transfers.iter().map(|t| t.end_s).fold(0.0f64, f64::max);
                    assert_eq!(rep.total_s.to_bits(), max_end.to_bits());
                }
            },
        );
}

// ---------------------------------------------------------------------------
// Wire byte-level hardening: malformed bytes are errors, never panics
// ---------------------------------------------------------------------------

/// A hostile payload: denormals, NaN, ±Inf, ±0, and a run of zeros long
/// enough that SSDC emits fixups and a multi-row CSR.
fn hostile_payload() -> Vec<f32> {
    let mut v = vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        f32::MIN_POSITIVE / 2.0,
        1.5e-39,
        -7.25,
    ];
    v.extend(std::iter::repeat_n(0.0, 300));
    v.extend((0..200).map(|i| (i as f32 - 100.0) * 0.37));
    v
}

fn wire_codecs() -> Vec<gist::encodings::TransferCodec> {
    use gist::encodings::TransferCodec;
    vec![
        TransferCodec::None,
        TransferCodec::Ssdc,
        TransferCodec::Dpr(DprFormat::Fp16),
        TransferCodec::Dpr(DprFormat::Fp10),
        TransferCodec::Dpr(DprFormat::Fp8),
    ]
}

/// Round-trip: `to_bytes → from_bytes` reproduces the wire bit-for-bit
/// (compared through re-serialization, which is NaN-proof) and decodes to
/// the same values for every codec.
#[test]
fn wire_bytes_roundtrip_for_every_codec() {
    use gist::encodings::Wire;
    let data = hostile_payload();
    for codec in wire_codecs() {
        let wire = Wire::encode(codec, &data);
        let bytes = wire.to_bytes();
        let back = Wire::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{codec:?}: self-produced bytes rejected: {e}"));
        assert_eq!(back.to_bytes(), bytes, "{codec:?}: re-serialization drifted");
        let mut got = vec![0.0f32; data.len()];
        back.decode_into(&mut got);
        let mut want = vec![0.0f32; data.len()];
        wire.decode_into(&mut want);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{codec:?}: decode changed bits");
    }
}

/// Every strict prefix of a valid wire is a clean `Err` — the decoder
/// never panics, never over-reads, never returns a half-parsed `Ok`.
#[test]
fn truncated_wire_bytes_err_instead_of_panicking() {
    use gist::encodings::Wire;
    let data = hostile_payload();
    for codec in wire_codecs() {
        let bytes = Wire::encode(codec, &data).to_bytes();
        for cut in 0..bytes.len() {
            match Wire::from_bytes(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("{codec:?}: prefix of {cut}/{} bytes parsed", bytes.len()),
            }
        }
    }
}

/// Single-byte corruption across the whole buffer either fails cleanly or
/// yields a wire that still decodes without panicking — no input reaches
/// an unchecked index or allocation.
#[test]
fn corrupt_wire_headers_are_rejected_not_trusted() {
    use gist::encodings::Wire;
    let data = hostile_payload();
    for codec in wire_codecs() {
        let bytes = Wire::encode(codec, &data).to_bytes();
        // Flip every byte in the header region and a sample of the rest.
        let positions: Vec<usize> =
            (0..bytes.len().min(64)).chain((64..bytes.len()).step_by(97)).collect();
        for pos in positions {
            for flip in [0xffu8, 0x01, 0x80] {
                let mut bad = bytes.clone();
                bad[pos] ^= flip;
                if let Ok(wire) = Wire::from_bytes(&bad) {
                    // Validation passed (e.g. a corrupted length that is
                    // still internally consistent): decoding into the
                    // wire's own claimed length must still be safe.
                    let mut out = vec![0.0f32; wire.len()];
                    wire.decode_into(&mut out);
                }
            }
        }
        // Wrong magic and an undefined codec tag are specific errors.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Wire::from_bytes(&bad).is_err(), "{codec:?}: bad magic accepted");
        let mut bad = bytes.clone();
        bad[4] = 0x7f;
        assert!(Wire::from_bytes(&bad).is_err(), "{codec:?}: tag 0x7f accepted");
        // Trailing garbage is not silently ignored.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(Wire::from_bytes(&bad).is_err(), "{codec:?}: trailing byte accepted");
    }
}
