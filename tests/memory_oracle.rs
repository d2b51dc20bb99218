//! The memory oracle, as a library-level invariant: for every zoo model x
//! stash policy, the peak footprint the runtime accountant *observes* while
//! folding a traced training step equals the footprint *folded* from the
//! executor's lowered program (`exec.program()`), and the offset packer
//! finds a layout in which no two concurrently-live buffers overlap. The
//! executor interprets that same program, so a divergence here means the
//! interpreter skipped, repeated or reordered an op the lowering gave it;
//! that it also stays *inside* the lowered lifetimes is held by the debug
//! live-set guard and by `tests/arena_equivalence.rs` (heap-vs-arena bits
//! under NaN poison). The same invariant is
//! enforced as a release gate by `gist-bench`'s `extra_runtime_validation`
//! binary; this test keeps it under plain `cargo test`.

use gist::memory::{check_no_overlap, check_regions, observed_peak};
use gist::obs::{Event, MemoryAccountant, TraceSink};
use gist::par::with_threads;
use gist::prelude::*;
use gist::runtime::{ssdc_stash_sizes, AllocPolicy};
use std::collections::HashMap;

const BATCH: usize = 8;
const CLASSES: usize = 4;

fn zoo() -> Vec<(&'static str, Graph)> {
    vec![
        ("tiny_convnet", gist::models::tiny_convnet(BATCH, CLASSES)),
        ("small_vgg", gist::models::small_vgg(BATCH, CLASSES)),
        ("tiny_classic", gist::models::tiny_classic(BATCH, CLASSES)),
    ]
}

fn policies() -> Vec<(&'static str, ExecMode)> {
    vec![
        ("baseline", ExecMode::Baseline),
        ("lossless", ExecMode::Gist(GistConfig::lossless())),
        ("lossy_fp16", ExecMode::Gist(GistConfig::lossy(DprFormat::Fp16))),
        ("lossy_fp8", ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8))),
    ]
}

/// Runs one traced step and returns the executor (for its program), the
/// full trace and the executor's own meter peak.
fn traced_step(graph: &Graph, spec: impl Into<ExecSpec>) -> (Executor, Vec<Event>, usize) {
    let mut exec = Executor::new(graph.clone(), spec, 7).expect("executor");
    let mut ds = SyntheticImages::new(CLASSES, 16, 0.4, 11);
    let (x, y) = ds.minibatch(BATCH);
    let sink = TraceSink::new();
    let stats = exec.step_traced(&x, &y, 0.05, &sink).expect("step");
    (exec, sink.take(), stats.peak_live_bytes)
}

/// Observed peak == predicted footprint, for every zoo model x policy.
#[test]
fn observed_peak_equals_predicted_footprint() {
    for (net, graph) in zoo() {
        for (policy, mode) in policies() {
            let (exec, trace, meter_peak) = traced_step(&graph, mode);
            let mut acc = MemoryAccountant::new();
            acc.fold_all(&trace).unwrap_or_else(|e| panic!("{net}/{policy}: bad stream: {e}"));
            assert_eq!(
                acc.peak_bytes(),
                meter_peak as u64,
                "{net}/{policy}: accountant vs executor meter"
            );
            let predicted = exec
                .program()
                .peak_bytes(&ssdc_stash_sizes(&trace))
                .unwrap_or_else(|e| panic!("{net}/{policy}: predictor: {e}"));
            assert_eq!(
                acc.peak_bytes(),
                predicted,
                "{net}/{policy}: observed peak != predicted footprint"
            );
        }
    }
}

/// The predicted stream matches the observed memory substream event for
/// event — a much stronger statement than equal peaks.
#[test]
fn predicted_stream_matches_observed_event_for_event() {
    for (net, graph) in zoo() {
        for (policy, mode) in policies() {
            let (exec, trace, _) = traced_step(&graph, mode);
            let predicted = exec
                .program()
                .events(&ssdc_stash_sizes(&trace))
                .unwrap_or_else(|e| panic!("{net}/{policy}: predictor: {e}"));
            let observed: Vec<Event> = trace.into_iter().filter(|ev| ev.is_memory()).collect();
            assert_eq!(observed, predicted, "{net}/{policy}: stream divergence");
        }
    }
}

/// No two concurrently-live buffers overlap in the packed offset layout,
/// and the planner's dynamic simulator reproduces the accountant's peak.
#[test]
fn no_concurrently_live_buffers_overlap() {
    for (net, graph) in zoo() {
        for (policy, mode) in policies() {
            let (_, trace, _) = traced_step(&graph, mode);
            let mut acc = MemoryAccountant::new();
            acc.fold_all(&trace).unwrap_or_else(|e| panic!("{net}/{policy}: bad stream: {e}"));
            assert_eq!(
                observed_peak(&acc),
                acc.peak_bytes() as usize,
                "{net}/{policy}: peak_dynamic over observed lifetimes"
            );
            if let Err((a, b)) = check_no_overlap(&acc) {
                panic!("{net}/{policy}: buffers {a} and {b} overlap while both live");
            }
        }
    }
}

/// Runs one traced arena step of `spec` and holds the arena oracle: the
/// observed memory stream matches the lowered program's event for event;
/// three independently-derived peaks agree — the one the accountant
/// observes while folding the live trace, the one the static predictor
/// computes from the graph alone, and (as an upper bound) the capacity of
/// the slab the executor actually ran out of; and every observed buffer
/// life resolves to its planned region with no two concurrently-live
/// regions overlapping byte-for-byte (`check_regions`, tick-exact), so the
/// layout is proven against execution, not just against the planner's own
/// arithmetic.
fn assert_arena_oracle(what: &str, graph: &Graph, spec: ExecSpec) {
    let (exec, trace, meter_peak) = traced_step(graph, spec);

    // Observed == predicted, event for event (the arena stream is fully
    // static — no observed SSDC sizes needed).
    let predicted =
        exec.program().events(&HashMap::new()).unwrap_or_else(|e| panic!("{what}: predictor: {e}"));
    let observed: Vec<Event> = trace.iter().filter(|ev| ev.is_memory()).cloned().collect();
    assert_eq!(observed, predicted, "{what}: arena stream divergence");

    // Peaks agree across all three derivations.
    let mut acc = MemoryAccountant::new();
    acc.fold_all(&trace).unwrap_or_else(|e| panic!("{what}: bad stream: {e}"));
    assert_eq!(acc.peak_bytes(), meter_peak as u64);
    let predicted_peak = exec.program().peak_bytes(&HashMap::new()).unwrap();
    assert_eq!(acc.peak_bytes(), predicted_peak, "{what}: peak mismatch");

    // Every life fits its planned region; concurrently-live regions are
    // disjoint; the whole step fits the slab.
    let arena = exec.arena().expect("arena policy implies an arena");
    check_regions(&acc, |name| arena.region(name))
        .unwrap_or_else(|e| panic!("{what}: layout violates trace: {e}"));
    assert!(
        acc.peak_bytes() as usize <= arena.capacity_bytes(),
        "{what}: observed peak exceeds slab capacity"
    );
    assert_eq!(
        arena.capacity_bytes(),
        arena.plan().total_bytes,
        "{what}: slab capacity != planned bytes"
    );
}

/// The arena oracle (see [`assert_arena_oracle`]) for every zoo model x
/// stash policy: under `AllocPolicy::Arena` the step executes out of one
/// pre-planned slab that its observed trace fits exactly.
#[test]
fn arena_step_runs_inside_the_planned_slab() {
    for (net, graph) in zoo() {
        for (policy, mode) in policies() {
            assert_arena_oracle(&format!("{net}/{policy}"), &graph, ExecSpec::from(mode).arena());
        }
    }
}

/// The arena oracle across the zoo x stash policy x offload mechanism:
/// recomputed and swapped stashes change which buffers the step allocates
/// and when, and the planned slab must still hold the observed trace.
#[test]
fn arena_oracle_over_zoo_and_offload_modes() {
    for (net, graph) in zoo() {
        for (policy, mode) in policies() {
            for (oname, offload) in [
                ("recompute", OffloadMode::Recompute),
                ("swap", OffloadMode::Swap(SwapStrategy::Vdnn)),
            ] {
                let spec = ExecSpec { offload, ..ExecSpec::from(mode.clone()).arena() };
                assert_arena_oracle(&format!("{net}/{policy}/{oname}"), &graph, spec);
            }
        }
    }
}

/// Arena and heap execution are observationally equivalent where it
/// matters: same loss, same accuracy, bit-for-bit — only the allocation
/// discipline differs.
#[test]
fn arena_and_heap_steps_agree_bitwise() {
    let graph = gist::models::tiny_convnet(BATCH, CLASSES);
    for (policy, mode) in policies() {
        let run = |alloc: AllocPolicy| {
            let spec = ExecSpec { alloc, ..mode.clone().into() };
            let mut exec = Executor::new(graph.clone(), spec, 7)
                .unwrap_or_else(|e| panic!("{policy}: executor: {e}"));
            let mut ds = SyntheticImages::new(CLASSES, 16, 0.4, 11);
            let (x, y) = ds.minibatch(BATCH);
            let stats = exec.step(&x, &y, 0.05).expect("step");
            (stats.loss.to_bits(), stats.correct)
        };
        assert_eq!(
            run(AllocPolicy::Heap),
            run(AllocPolicy::Arena),
            "{policy}: arena step diverged from heap step"
        );
    }
}

/// The negative control that proves the region check has teeth: tick-exact
/// packing hands a dead buffer's bytes to the next one, and the check
/// accepts that sharing — but the same bytes handed to two buffers that are
/// live together must be rejected.
#[test]
fn region_check_rejects_live_buffers_sharing_bytes() {
    let alloc = |name: &str| Event::Alloc { name: name.into(), bytes: 64 };
    let free = |name: &str| Event::Free { name: name.into(), bytes: 64 };
    let events = vec![alloc("a"), free("a"), alloc("b"), free("b")];
    let arena = gist::memory::Arena::from_events(&events).expect("event arena");
    assert_eq!(
        arena.region("a"),
        arena.region("b"),
        "packing should reuse the dead buffer's bytes"
    );
    let mut acc = MemoryAccountant::new();
    acc.fold_all(&events).expect("stream");
    check_regions(&acc, |name| arena.region(name)).expect("back-to-back lives may share bytes");

    // "a" and "b" now live together; the packed slab keeps them apart, the
    // one-region layout does not.
    let events = vec![alloc("a"), alloc("b"), free("a"), free("b")];
    let arena = gist::memory::Arena::from_events(&events).expect("event arena");
    let mut acc = MemoryAccountant::new();
    acc.fold_all(&events).expect("stream");
    check_regions(&acc, |name| arena.region(name)).expect("the packed layout is disjoint");
    let err = check_regions(&acc, |_| Some((0, 64)))
        .expect_err("two live buffers sharing bytes must be rejected");
    assert!(err.contains("overlap"), "{err}");
}

/// The memory substream — and therefore the observed peak — is identical
/// at one thread and several: only span timings may vary with the pool.
#[test]
fn memory_substream_is_thread_invariant() {
    let graph = gist::models::small_vgg(BATCH, CLASSES);
    let mode = ExecMode::Gist(GistConfig::lossless());
    let substream = |threads: usize| {
        with_threads(threads, || {
            let (_, trace, peak) = traced_step(&graph, mode.clone());
            let mem: Vec<Event> = trace.into_iter().filter(|ev| ev.is_memory()).collect();
            (mem, peak)
        })
    };
    let (mem1, peak1) = substream(1);
    for threads in [2, 4] {
        let (memn, peakn) = substream(threads);
        assert_eq!(mem1, memn, "memory substream differs at {threads} threads");
        assert_eq!(peak1, peakn, "peak differs at {threads} threads");
    }
}
