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

use gist::memory::{check_no_overlap, check_no_overlap_waves, observed_peak, observed_peak_waves};
use gist::obs::{Event, MemoryAccountant, TraceSink};
use gist::par::with_threads;
use gist::prelude::*;
use gist::runtime::{ssdc_stash_sizes, AllocPolicy, PlanGranularity, StepProgram};
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

/// The arena oracle: under `AllocPolicy::Arena` the step executes out of
/// one pre-planned slab, and three independently-derived numbers agree —
/// the peak the accountant observes while folding the live trace, the peak
/// the static predictor computes from the graph alone, and (as an upper
/// bound) the capacity of the slab the executor actually ran out of.
/// Stronger still: every observed buffer life resolves to its planned
/// region and no two concurrently-live regions overlap byte-for-byte
/// (`check_no_overlap_waves`, tick-exact), so the layout is proven against execution, not just
/// against the planner's own arithmetic.
#[test]
fn arena_step_runs_inside_the_planned_slab() {
    for (net, graph) in zoo() {
        for (policy, mode) in policies() {
            let (exec, trace, meter_peak) = traced_step(&graph, ExecSpec::from(mode).arena());

            // Observed == predicted, event for event (the arena stream is
            // fully static — no observed SSDC sizes needed).
            let predicted = exec
                .program()
                .events(&HashMap::new())
                .unwrap_or_else(|e| panic!("{net}/{policy}: predictor: {e}"));
            let observed: Vec<Event> = trace.iter().filter(|ev| ev.is_memory()).cloned().collect();
            assert_eq!(observed, predicted, "{net}/{policy}: arena stream divergence");

            // Peaks agree across all three derivations.
            let mut acc = MemoryAccountant::new();
            acc.fold_all(&trace).unwrap_or_else(|e| panic!("{net}/{policy}: bad stream: {e}"));
            assert_eq!(acc.peak_bytes(), meter_peak as u64);
            let predicted_peak = exec.program().peak_bytes(&HashMap::new()).unwrap();
            assert_eq!(acc.peak_bytes(), predicted_peak, "{net}/{policy}: peak mismatch");

            // Every life fits its planned region; concurrently-live regions
            // are disjoint; the whole step fits the slab.
            let arena = exec.arena().expect("arena policy implies an arena");
            check_no_overlap_waves(&acc, &[], |name| arena.region(name))
                .unwrap_or_else(|e| panic!("{net}/{policy}: layout violates trace: {e}"));
            assert!(
                acc.peak_bytes() as usize <= arena.capacity_bytes(),
                "{net}/{policy}: observed peak exceeds slab capacity"
            );
            assert_eq!(
                arena.capacity_bytes(),
                arena.plan().total_bytes,
                "{net}/{policy}: slab capacity != planned bytes"
            );
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

/// The wave-granular arena oracle, across the zoo x stash policy x offload
/// mechanism: the observed memory stream matches the wave-conservative
/// predicted stream event for event; three peak derivations agree; and —
/// the property event granularity cannot even state — every pair of
/// buffers live in the *same wave* occupies byte-disjoint slab regions
/// (`check_no_overlap_waves`), which is what makes it sound to run the
/// wave's kernels concurrently.
#[test]
fn wave_arena_oracle_over_zoo_and_offload_modes() {
    for (net, graph) in zoo() {
        for (policy, mode) in policies() {
            for (oname, offload) in [
                ("resident", OffloadMode::None),
                ("recompute", OffloadMode::Recompute),
                ("swap", OffloadMode::Swap(SwapStrategy::Vdnn)),
            ] {
                let event = ExecSpec { offload, ..ExecSpec::from(mode.clone()).arena() };
                let wave = ExecSpec { plan: PlanGranularity::Wave, ..event.clone() };
                let (exec, trace, meter_peak) = traced_step(&graph, wave);

                let predicted = exec
                    .program()
                    .events(&HashMap::new())
                    .unwrap_or_else(|e| panic!("{net}/{policy}/{oname}: predictor: {e}"));
                let groups = exec.program().wave_groups();
                let observed: Vec<Event> =
                    trace.iter().filter(|ev| ev.is_memory()).cloned().collect();
                assert_eq!(observed, predicted, "{net}/{policy}/{oname}: wave stream divergence");

                let mut acc = MemoryAccountant::new();
                acc.fold_all(&trace)
                    .unwrap_or_else(|e| panic!("{net}/{policy}/{oname}: bad stream: {e}"));
                assert_eq!(acc.peak_bytes(), meter_peak as u64);
                let predicted_peak = exec.program().peak_bytes(&HashMap::new()).unwrap();
                assert_eq!(
                    acc.peak_bytes(),
                    predicted_peak,
                    "{net}/{policy}/{oname}: wave peak mismatch"
                );

                // Same-wave concurrent liveness: no two buffers alive in
                // one wave share a byte of the slab.
                let arena = exec.arena().expect("arena policy implies an arena");
                check_no_overlap_waves(&acc, &groups, |name| arena.region(name)).unwrap_or_else(
                    |e| panic!("{net}/{policy}/{oname}: wave layout violates trace: {e}"),
                );

                // The slab holds the wave-coarsened footprint, which in
                // turn dominates the tick-exact one.
                let wave_peak = observed_peak_waves(&acc, &groups);
                assert!(acc.peak_bytes() as usize <= wave_peak);
                assert!(
                    wave_peak <= arena.capacity_bytes(),
                    "{net}/{policy}/{oname}: wave-coarsened peak exceeds slab"
                );
                assert_eq!(arena.capacity_bytes(), arena.plan().total_bytes);

                // Wave conservatism is monotone: the wave plan never
                // undercuts the event plan's footprint.
                let event_peak = StepProgram::lower(&graph, &event)
                    .and_then(|program| program.peak_bytes(&HashMap::new()))
                    .unwrap();
                assert!(
                    predicted_peak >= event_peak,
                    "{net}/{policy}/{oname}: wave peak {predicted_peak} < event peak {event_peak}"
                );
            }
        }
    }
}

/// The negative control that proves the wave check has teeth: an
/// event-granular layout happily time-multiplexes two buffers of the same
/// wave (the first dies mid-wave, the second inherits its bytes). That
/// layout is tick-exactly sound — the check with no wave groups accepts it — but under
/// wave-coarsened liveness the two buffers are concurrently live, and the
/// same-wave disjointness check must reject the sharing.
#[test]
fn event_plan_fails_wave_disjointness_check() {
    let events = vec![
        Event::Alloc { name: "a".into(), bytes: 64 },
        Event::Free { name: "a".into(), bytes: 64 },
        Event::Alloc { name: "b".into(), bytes: 64 },
        Event::Free { name: "b".into(), bytes: 64 },
    ];
    let arena = gist::memory::Arena::from_events(&events).expect("event arena");
    assert_eq!(
        arena.region("a"),
        arena.region("b"),
        "event-granular packing should reuse the dead buffer's bytes"
    );
    let mut acc = MemoryAccountant::new();
    acc.fold_all(&events).expect("stream");
    check_no_overlap_waves(&acc, &[], |name| arena.region(name))
        .expect("tick-exact liveness accepts the shared region");
    // All four ticks form one wave: "a" and "b" are now concurrently live.
    check_no_overlap_waves(&acc, &[(0, 3)], |name| arena.region(name))
        .expect_err("same-wave liveness must reject the shared region");
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
