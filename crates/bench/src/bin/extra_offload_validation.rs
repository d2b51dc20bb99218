//! The offload differential gate: prove that recomputation and swapping
//! are *executable* and *audited*, and fail (exit 1) on any disagreement.
//! Run by `scripts/verify.sh`.
//!
//! For every small net x offload mechanism x stash mode this checks that:
//!
//! 1. an arena-policy training step under the offload plan traces a memory
//!    stream that matches the fold of the executor's lowered program
//!    (`StepProgram::events`) event-for-event — the interpreter played the
//!    plan's swap-ins and replays exactly as lowered;
//! 2. the runtime accountant's observed peak equals the executor's own
//!    meter (`StepStats::peak_live_bytes`) exactly;
//! 3. the arena layout honors every observed lifetime (`check_no_overlap_waves`)
//!    and the observed peak fits the planned slab;
//! 4. the offloaded step's loss is bit-identical to fully-resident heap
//!    execution — offload moves bytes, never values;
//! 5. the virtual-clock simulation of the same plan is causally sound
//!    (every swap-in completes before it is consumed).

use gist_bench::banner;
use gist_core::GistConfig;
use gist_obs::{Event, MemoryAccountant, TraceSink};
use gist_offload::{simulate, OffloadMode, SwapStrategy};
use gist_perf::GpuModel;
use gist_runtime::{ExecMode, ExecSpec, Executor, SyntheticImages};
use std::collections::HashMap;
use std::process::ExitCode;

fn nets() -> Vec<(&'static str, gist_graph::Graph, SyntheticImages)> {
    vec![
        ("SmallVGG", gist_models::small_vgg(4, 3), SyntheticImages::new(3, 16, 0.4, 3)),
        ("ResNet-CIFAR", gist_models::resnet_cifar(1, 4), SyntheticImages::rgb(10, 32, 0.4, 3)),
    ]
}

#[allow(clippy::too_many_lines)]
fn check(
    net: &str,
    graph: &gist_graph::Graph,
    ds: &SyntheticImages,
    mode_name: &str,
    mode: &ExecMode,
    off_name: &str,
    offload: OffloadMode,
) -> Result<(u64, u64, f64), String> {
    let fail = |msg: String| Err(format!("{net}/{mode_name}/{off_name}: {msg}"));
    let (x, y) = ds.clone().minibatch(4);

    // Resident heap reference.
    let mut resident = Executor::new(graph.clone(), mode.clone(), 7).map_err(|e| e.to_string())?;
    let resident_stats = resident.step(&x, &y, 0.05).map_err(|e| e.to_string())?;

    // Offloaded arena step, traced.
    let spec = ExecSpec { offload, ..ExecSpec::from(mode.clone()).arena() };
    let mut exec = Executor::new(graph.clone(), spec, 7).map_err(|e| e.to_string())?;
    let sink = TraceSink::new();
    let stats = exec.step_traced(&x, &y, 0.05, &sink).map_err(|e| e.to_string())?;
    let trace = sink.take();

    // (4) bit-identical loss.
    if stats.loss.to_bits() != resident_stats.loss.to_bits() {
        return fail(format!(
            "offloaded loss {} != resident loss {} (bitwise)",
            stats.loss, resident_stats.loss
        ));
    }

    // (1) observed memory substream == offload-aware static prediction.
    let observed: Vec<&Event> = trace.iter().filter(|e| e.is_memory()).collect();
    let predicted = match exec.program().events(&HashMap::new()) {
        Ok(p) => p,
        Err(e) => return fail(format!("offload predictor failed: {e}")),
    };
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

    // (2) accountant peak == executor meter peak.
    let mut acc = MemoryAccountant::new();
    if let Err(e) = acc.fold_all(&trace) {
        return fail(format!("malformed memory stream: {e}"));
    }
    if acc.peak_bytes() != stats.peak_live_bytes as u64 {
        return fail(format!(
            "accountant peak {} != executor meter peak {}",
            acc.peak_bytes(),
            stats.peak_live_bytes
        ));
    }

    // (3) every observed lifetime fits its planned region; peak fits slab.
    let arena = exec.arena().expect("arena policy implies an arena");
    if let Err(e) = gist_memory::check_no_overlap_waves(&acc, &[], |name| arena.region(name)) {
        return fail(format!("arena layout violates observed trace: {e}"));
    }
    if acc.peak_bytes() as usize > arena.capacity_bytes() {
        return fail(format!(
            "observed peak {} exceeds slab capacity {}",
            acc.peak_bytes(),
            arena.capacity_bytes()
        ));
    }

    // (5) the virtual clock over the same plan is causally sound.
    let Some(plan) = exec.offload_plan() else {
        return fail("offload mode produced no plan (nothing offloaded?)".to_string());
    };
    let r = match simulate(graph, plan, &GpuModel::titan_x()) {
        Ok(r) => r,
        Err(e) => return fail(format!("virtual clock failed: {e}")),
    };
    if r.transfers.iter().any(|t| t.consume_s < t.end_s) {
        return fail("simulated stash read before swap-in completed".to_string());
    }

    Ok((acc.peak_bytes(), arena.capacity_bytes() as u64, r.stall_s))
}

fn main() -> ExitCode {
    banner("Offload gate", "executed recompute/swap == resident values, planned footprint");
    let modes: Vec<(&str, ExecMode)> = vec![
        ("baseline", ExecMode::Baseline),
        ("lossless", ExecMode::Gist(GistConfig::lossless())),
    ];
    let offloads: Vec<(&str, OffloadMode)> = vec![
        ("recompute", OffloadMode::Recompute),
        ("swap-vdnn", OffloadMode::Swap(SwapStrategy::Vdnn)),
    ];
    println!(
        "{:<14} {:<10} {:<10} {:>10} {:>10} {:>11} {:>8}",
        "net", "mode", "offload", "peak(KB)", "slab(KB)", "stall(us)", "verdict"
    );
    let mut failures = 0usize;
    for (net, graph, ds) in nets() {
        for (mode_name, mode) in &modes {
            for (off_name, offload) in &offloads {
                match check(net, &graph, &ds, mode_name, mode, off_name, *offload) {
                    Ok((peak, cap, stall)) => println!(
                        "{:<14} {:<10} {:<10} {:>10.1} {:>10.1} {:>11.2} {:>8}",
                        net,
                        mode_name,
                        off_name,
                        peak as f64 / 1024.0,
                        cap as f64 / 1024.0,
                        stall * 1e6,
                        "ok"
                    ),
                    Err(msg) => {
                        failures += 1;
                        println!(
                            "{net:<14} {mode_name:<10} {off_name:<10} {:>10} {:>10} {:>11} {:>8}",
                            "-", "-", "-", "FAIL"
                        );
                        eprintln!("  {msg}");
                    }
                }
            }
        }
        println!();
    }
    if failures > 0 {
        eprintln!("{failures} offload gate check(s) failed");
        return ExitCode::FAILURE;
    }
    println!("recompute and swap train bit-identically to resident execution;");
    println!("every offloaded arena step matches its static prediction event-for-event");
    println!("and runs inside the smaller slab the offload plan promised.");
    ExitCode::SUCCESS
}
