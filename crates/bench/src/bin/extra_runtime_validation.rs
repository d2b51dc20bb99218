//! The memory oracle gate: cross-check the live executor, the runtime
//! memory accountant, and the static predictor against each other, and fail
//! (exit 1) on any disagreement. Run by `scripts/verify.sh`.
//!
//! For every small net x stash mode x thread count this checks that:
//!
//! 1. the traced memory-event stream folds cleanly (no double allocs,
//!    mismatched frees, or reuse collisions);
//! 2. the accountant's observed peak equals the executor's own meter
//!    (`StepStats::peak_live_bytes`) exactly;
//! 3. the fold of the executor's lowered program
//!    (`StepProgram::events`) matches the observed memory substream
//!    event-for-event — the interpreter played exactly the ops it lowered;
//! 4. `gist-memory`'s dynamic-allocation simulator over the observed buffer
//!    lifetimes reproduces the accountant's peak, and its offset packer
//!    finds a layout in which no two concurrently-live buffers overlap;
//! 5. the memory substream is byte-identical at every thread count (the
//!    spans carry wall-clock time; the memory discipline must not);
//! 6. under `AllocPolicy::Arena` the step executes out of the pre-planned
//!    slab: the observed stream equals the fully static arena prediction,
//!    every buffer life fits its planned region with no concurrent
//!    overlap (`check_no_overlap_waves`), the observed peak fits the slab whose
//!    capacity equals the planned bytes, and the loss is bit-identical to
//!    the heap run.

use gist_bench::banner;
use gist_core::GistConfig;
use gist_encodings::DprFormat;
use gist_memory::{check_no_overlap, check_no_overlap_waves, observed_peak};
use gist_obs::{Event, MemoryAccountant, TraceSink};
use gist_runtime::{ssdc_stash_sizes, AllocPolicy, ExecMode, ExecSpec, Executor, SyntheticImages};
use std::collections::HashMap;
use std::process::ExitCode;

fn zoo_graph(net: &str) -> gist_graph::Graph {
    let batch = 16;
    match net {
        "TinyConvNet" => gist_models::tiny_convnet(batch, 4),
        "SmallVGG" => gist_models::small_vgg(batch, 4),
        "TinyClassic" => gist_models::tiny_classic(batch, 4),
        _ => unreachable!("unknown net"),
    }
}

fn traced_step(
    net: &str,
    mode: &ExecMode,
    threads: usize,
    policy: AllocPolicy,
) -> (Executor, Vec<Event>, gist_runtime::StepStats) {
    gist_par::with_threads(threads, || {
        let batch = 16;
        let graph = zoo_graph(net);
        let mut ds = SyntheticImages::new(4, 16, 0.4, 3);
        let (x, y) = ds.minibatch(batch);
        let spec = ExecSpec { alloc: policy, ..mode.clone().into() };
        let mut exec = Executor::new(graph, spec, 7).expect("executor");
        let sink = TraceSink::new();
        let stats = exec.step_traced(&x, &y, 0.05, &sink).expect("step");
        let events: Vec<Event> = sink
            .take()
            .into_iter()
            .filter(|e| e.is_memory() || matches!(e, Event::Encode { .. }))
            .collect();
        (exec, events, stats)
    })
}

fn memory_substream(net: &str, mode: &ExecMode, threads: usize) -> (Executor, Vec<Event>, usize) {
    let (exec, events, stats) = traced_step(net, mode, threads, AllocPolicy::Heap);
    (exec, events, stats.peak_live_bytes)
}

fn check(net: &str, mode_name: &str, mode: &ExecMode) -> Result<(), String> {
    let fail = |msg: String| Err(format!("{net}/{mode_name}: {msg}"));
    let (exec, events, meter_peak) = memory_substream(net, mode, 1);

    // (1) the stream folds cleanly.
    let mut acc = MemoryAccountant::new();
    if let Err(e) = acc.fold_all(&events) {
        return fail(format!("malformed memory stream: {e}"));
    }

    // (2) accountant peak == executor meter peak.
    if acc.peak_bytes() != meter_peak as u64 {
        return fail(format!(
            "accountant peak {} != executor meter peak {}",
            acc.peak_bytes(),
            meter_peak
        ));
    }

    // (3) predicted stream == observed memory substream, event for event.
    let ssdc = ssdc_stash_sizes(&events);
    let predicted = match exec.program().events(&ssdc) {
        Ok(p) => p,
        Err(e) => return fail(format!("predictor failed: {e}")),
    };
    let observed: Vec<&Event> = events.iter().filter(|e| e.is_memory()).collect();
    if observed.len() != predicted.len() || observed.iter().zip(&predicted).any(|(a, b)| **a != *b)
    {
        let first = observed
            .iter()
            .zip(&predicted)
            .position(|(a, b)| **a != *b)
            .unwrap_or(observed.len().min(predicted.len()));
        return fail(format!(
            "predicted stream diverges from observed at event {first} \
             (observed {} vs predicted {} events)",
            observed.len(),
            predicted.len()
        ));
    }

    // (4) planner machinery over observed lifetimes agrees.
    if observed_peak(&acc) != acc.peak_bytes() as usize {
        return fail(format!(
            "peak_dynamic over observed lifetimes {} != accountant peak {}",
            observed_peak(&acc),
            acc.peak_bytes()
        ));
    }
    if let Err((a, b)) = check_no_overlap(&acc) {
        return fail(format!("offset layout overlaps live buffers {a} and {b}"));
    }

    // (5) the memory substream is thread-count invariant.
    let (_, events4, peak4) = memory_substream(net, mode, 4);
    if events4 != events || peak4 != meter_peak {
        return fail("memory substream differs between 1 and 4 threads".to_string());
    }

    // (6) the arena-policy step runs inside the planned slab and is
    // observationally identical to the heap step.
    let (heap_exec, _, heap_stats) = traced_step(net, mode, 1, AllocPolicy::Heap);
    drop(heap_exec);
    let (arena_exec, arena_events, arena_stats) = traced_step(net, mode, 1, AllocPolicy::Arena);
    if arena_stats.loss.to_bits() != heap_stats.loss.to_bits() {
        return fail(format!(
            "arena loss {} != heap loss {} (bitwise)",
            arena_stats.loss, heap_stats.loss
        ));
    }
    let arena_predicted = match arena_exec.program().events(&HashMap::new()) {
        Ok(p) => p,
        Err(e) => return fail(format!("arena predictor failed: {e}")),
    };
    let arena_observed: Vec<&Event> = arena_events.iter().filter(|e| e.is_memory()).collect();
    if arena_observed.len() != arena_predicted.len()
        || arena_observed.iter().zip(&arena_predicted).any(|(a, b)| **a != *b)
    {
        return fail("arena stream diverges from its static prediction".to_string());
    }
    let mut arena_acc = MemoryAccountant::new();
    if let Err(e) = arena_acc.fold_all(&arena_events) {
        return fail(format!("malformed arena stream: {e}"));
    }
    if arena_acc.peak_bytes() != arena_stats.peak_live_bytes as u64 {
        return fail("arena accountant peak != executor meter peak".to_string());
    }
    let arena = arena_exec.arena().expect("arena policy implies an arena");
    if let Err(e) = check_no_overlap_waves(&arena_acc, &[], |name| arena.region(name)) {
        return fail(format!("arena layout violates observed trace: {e}"));
    }
    if arena_acc.peak_bytes() as usize > arena.capacity_bytes() {
        return fail(format!(
            "arena observed peak {} exceeds slab capacity {}",
            arena_acc.peak_bytes(),
            arena.capacity_bytes()
        ));
    }
    if arena.capacity_bytes() != arena.plan().total_bytes {
        return fail("slab capacity != planned bytes".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    banner("Oracle", "observed footprint == planner prediction, per net x mode");
    let modes: Vec<(&str, ExecMode)> = vec![
        ("baseline", ExecMode::Baseline),
        ("lossless", ExecMode::Gist(GistConfig::lossless())),
        ("lossy-fp8", ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8))),
    ];
    println!("{:<14} {:<10} {:>12} {:>10}", "net", "mode", "peak(KB)", "verdict");
    let mut failures = 0usize;
    for net in ["TinyConvNet", "SmallVGG", "TinyClassic"] {
        for (mode_name, mode) in &modes {
            let (_, _, peak) = memory_substream(net, mode, 1);
            match check(net, mode_name, mode) {
                Ok(()) => println!(
                    "{:<14} {:<10} {:>11.1} {:>10}",
                    net,
                    mode_name,
                    peak as f64 / 1024.0,
                    "ok"
                ),
                Err(msg) => {
                    failures += 1;
                    println!(
                        "{net:<14} {mode_name:<10} {:>11.1} {:>10}",
                        peak as f64 / 1024.0,
                        "FAIL"
                    );
                    eprintln!("  {msg}");
                }
            }
        }
        println!();
    }
    if failures > 0 {
        eprintln!("{failures} oracle check(s) failed");
        return ExitCode::FAILURE;
    }
    println!("every observed stream matches its static prediction exactly;");
    println!("no two concurrently-live buffers overlap in the packed layout;");
    println!("arena steps run inside their planned slab, bit-identical to heap.");
    ExitCode::SUCCESS
}
