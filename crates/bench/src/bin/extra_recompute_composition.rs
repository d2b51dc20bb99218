//! Extension study: Gist vs sqrt-N layer recomputation (Chen et al., the
//! paper's reference \[4\]) and their composition. The paper: "This work is
//! orthogonal and can achieve additional speedup with Gist encodings" —
//! here checked on the executed path, footprint and time.
//!
//! The first section is the lowering's own prediction at paper scale: the
//! arena peak of the `StepProgram` the runtime would execute, for
//! {baseline, lossless Gist} × {resident, recompute}. The second prices the
//! concrete sqrt-N segment plan `gist-offload` builds on the virtual clock.
//! The third actually runs it: small nets train under
//! `OffloadMode::Recompute` on the arena and the observed peaks are the
//! runtime accountant's, not a model's.

use gist_bench::{banner, gb, PAPER_BATCH};
use gist_core::GistConfig;
use gist_obs::{MemoryAccountant, TraceSink};
use gist_offload::{simulate, OffloadMode, OffloadPlan};
use gist_perf::GpuModel;
use gist_runtime::{ExecMode, ExecSpec, Executor, StepProgram, SyntheticImages};
use std::collections::HashMap;

/// Predicted arena peak of one lowered training step at its data-independent
/// bounds.
fn predicted_peak(graph: &gist_graph::Graph, mode: ExecMode, offload: OffloadMode) -> usize {
    let spec = ExecSpec { offload, ..ExecSpec::from(mode).arena() };
    let program = StepProgram::lower(graph, &spec).expect("lowering");
    program.peak_bytes(&HashMap::new()).expect("well-formed stream") as usize
}

/// Observed arena peak of one traced training step.
fn observed_peak(graph: &gist_graph::Graph, ds: &SyntheticImages, offload: OffloadMode) -> u64 {
    let spec = ExecSpec { offload, ..ExecSpec::from(ExecMode::Baseline).arena() };
    let mut exec = Executor::new(graph.clone(), spec, 7).expect("executor");
    let (x, y) = ds.clone().minibatch(4);
    let sink = TraceSink::new();
    exec.step_traced(&x, &y, 0.05, &sink).expect("step");
    let mut acc = MemoryAccountant::new();
    acc.fold_all(&sink.take()).expect("well-formed stream");
    acc.peak_bytes()
}

fn main() {
    banner("Extra", "Gist vs sqrt-N recomputation vs combined (footprint | time ovh)");
    let gpu = GpuModel::titan_x();
    println!("-- predicted arena peak (the lowered step program, lossless Gist) --");
    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>12}",
        "model", "baseline", "recompute", "gist", "combined"
    );
    // Per network: baseline, recompute, Gist, combined.
    let mut peaks: Vec<[usize; 4]> = Vec::new();
    for graph in gist_models::paper_suite(PAPER_BATCH) {
        // Lossless Gist leaves the "Others" stashes in FP32, which is what
        // recomputation can then drop.
        let gist = || ExecMode::Gist(GistConfig::lossless());
        let row = [
            predicted_peak(&graph, ExecMode::Baseline, OffloadMode::None),
            predicted_peak(&graph, ExecMode::Baseline, OffloadMode::Recompute),
            predicted_peak(&graph, gist(), OffloadMode::None),
            predicted_peak(&graph, gist(), OffloadMode::Recompute),
        ];
        println!(
            "{:<10} {:>9.3}G {:>11.3}G {:>9.3}G {:>11.3}G",
            graph.name(),
            gb(row[0]),
            gb(row[1]),
            gb(row[2]),
            gb(row[3])
        );
        peaks.push(row);
    }

    println!();
    println!("-- executed plan (virtual clock over the runtime's sqrt-N segments) --");
    println!("{:<10} {:>10} {:>12} {:>14}", "model", "segments", "replayed ops", "exec rec ovh%");
    for graph in gist_models::paper_suite(PAPER_BATCH) {
        let enc = vec![gist_encodings::StashCodec::Dense; graph.len()];
        let plan = OffloadPlan::plan(&graph, &enc, OffloadMode::Recompute).expect("plan");
        let replayed: usize = plan.segments.iter().map(|s| s.replay.len()).sum();
        let sim = simulate(&graph, &plan, &gpu).expect("sim");
        println!(
            "{:<10} {:>10} {:>12} {:>13.1}%",
            graph.name(),
            plan.segments.len(),
            replayed,
            sim.overhead_pct()
        );
    }

    println!();
    println!("-- executed step (observed arena peak, resident vs recompute) --");
    println!("{:<14} {:>14} {:>15} {:>9}", "network", "resident(KB)", "recompute(KB)", "saved%");
    let nets: Vec<(gist_graph::Graph, SyntheticImages)> = vec![
        (gist_models::small_vgg(4, 3), SyntheticImages::new(3, 16, 0.4, 3)),
        (gist_models::resnet_cifar(1, 4), SyntheticImages::rgb(10, 32, 0.4, 3)),
    ];
    for (graph, ds) in nets {
        let resident = observed_peak(&graph, &ds, OffloadMode::None);
        let recompute = observed_peak(&graph, &ds, OffloadMode::Recompute);
        println!(
            "{:<14} {:>14.1} {:>15.1} {:>8.1}%",
            graph.name(),
            resident as f64 / 1024.0,
            recompute as f64 / 1024.0,
            100.0 * (resident.saturating_sub(recompute)) as f64 / resident as f64
        );
    }

    let n = peaks.len();
    let count = |holds: fn(&[usize; 4]) -> bool| peaks.iter().filter(|r| holds(r)).count();
    println!();
    println!(
        "predicted peaks: recompute < baseline on {} of {n}; combined < Gist alone on {} of {n};",
        count(|r| r[1] < r[0]),
        count(|r| r[3] < r[2])
    );
    println!("combined < recompute alone on {} of {n}.", count(|r| r[3] < r[1]));
}
