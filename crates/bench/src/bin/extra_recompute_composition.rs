//! Extension study: Gist vs sqrt-N layer recomputation (Chen et al., the
//! paper's reference \[4\]) and their composition. The paper: "This work is
//! orthogonal and can achieve additional speedup with Gist encodings" —
//! here quantified as footprint and modelled time overhead.
//!
//! The second section re-derives the recompute overhead from the *executed*
//! path: `gist-offload` builds the concrete sqrt-N segment plan the runtime
//! trains with and prices every replayed kernel on the virtual clock. The
//! third section actually runs it: small nets train under
//! `OffloadMode::Recompute` on the arena and the observed peaks are the
//! runtime accountant's, not a model's.

use gist_bench::{banner, gb, PAPER_BATCH};
use gist_core::GistConfig;
use gist_obs::{MemoryAccountant, TraceSink};
use gist_offload::{simulate, OffloadMode, OffloadPlan};
use gist_perf::{composition_report, GpuModel};
use gist_runtime::{ExecMode, ExecSpec, Executor, SyntheticImages};

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
    println!("-- modelled composition (gist-perf closed form) --");
    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>12} {:>10} {:>10}",
        "model", "baseline", "recompute", "gist", "combined", "rec ovh%", "comb ovh%"
    );
    for graph in gist_models::paper_suite(PAPER_BATCH) {
        // Lossless Gist leaves the "Others" stashes in FP32, which is what
        // recomputation can then remove — the composition sweet spot.
        let r = composition_report(&graph, &GistConfig::lossless(), &gpu).expect("model");
        println!(
            "{:<10} {:>9.2}G {:>11.2}G {:>9.2}G {:>11.2}G {:>9.1}% {:>9.1}%",
            graph.name(),
            gb(r.baseline_bytes),
            gb(r.recompute_bytes),
            gb(r.gist_bytes),
            gb(r.combined_bytes),
            r.recompute_overhead_pct,
            r.combined_overhead_pct
        );
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

    println!();
    println!("recomputation buys memory with ~a forward pass of extra time (tens of %);");
    println!("Gist buys more memory for single-digit overhead; combining them stacks the");
    println!("savings — the paper's 'orthogonal' claim, quantified. The executed rows");
    println!("price the concrete segment plan (closure replays included, which the");
    println!("closed form ignores) and measure the peak the accountant actually saw.");
}
