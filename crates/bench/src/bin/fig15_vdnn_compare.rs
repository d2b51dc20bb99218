//! Figure 15: performance overhead of naive CPU↔GPU swapping, vDNN-style
//! prefetched swapping, and Gist, all against the CNTK baseline.
//!
//! Paper's claims to check: naive swapping averages ~30% overhead; vDNN
//! ~15% (max 27% on Inception); Gist stays ~4% (max 7%) because it never
//! leaves the GPU.
//!
//! Two sections: the original closed-form analytic model (`gist-perf`),
//! kept for comparison, and the *executed* numbers — `gist-offload` builds
//! the actual per-layer swap plan the runtime executes and drives it
//! through the deterministic virtual-clock transfer engine, so the
//! overheads below come from the same plan the training step runs, not a
//! second copy of the arithmetic.

use gist_bench::banner;
use gist_core::GistConfig;
use gist_encodings::DprFormat;
use gist_offload::{simulate, OffloadMode, OffloadPlan};
use gist_perf::{gist_overhead, swap_overhead, GpuModel, SwapStrategy};

fn swap_plan(graph: &gist_graph::Graph, strategy: SwapStrategy) -> OffloadPlan {
    let enc = vec![gist_encodings::StashCodec::Dense; graph.len()];
    OffloadPlan::plan(graph, &enc, OffloadMode::Swap(strategy)).expect("plan")
}

fn main() {
    banner("Figure 15", "swap-based approaches vs Gist (overhead % vs baseline)");
    let gpu = GpuModel::titan_x();

    println!("-- analytic model (gist-perf closed form) --");
    println!("{:<10} {:>12} {:>12} {:>12}", "model", "naive%", "vDNN%", "Gist%");
    let (mut sn, mut sv, mut sg, mut n) = (0.0, 0.0, 0.0, 0.0);
    for graph in gist_models::paper_suite(64) {
        let naive = swap_overhead(&graph, SwapStrategy::Naive, &gpu).expect("model");
        let vdnn = swap_overhead(&graph, SwapStrategy::Vdnn, &gpu).expect("model");
        let gist = gist_overhead(&graph, &GistConfig::lossy(DprFormat::Fp16), &gpu)
            .expect("model")
            .overhead_pct();
        println!("{:<10} {:>11.1}% {:>11.1}% {:>11.1}%", graph.name(), naive, vdnn, gist);
        sn += naive;
        sv += vdnn;
        sg += gist;
        n += 1.0;
    }
    println!("{:<10} {:>11.1}% {:>11.1}% {:>11.1}%", "average", sn / n, sv / n, sg / n);

    println!();
    println!("-- executed plan (gist-offload virtual clock over the runtime swap plan) --");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>15}",
        "model", "naive%", "vDNN%", "cDMA(2x)%", "vDNN stall(ms)"
    );
    let (mut en, mut ev, mut ec, mut m) = (0.0, 0.0, 0.0, 0.0);
    for graph in gist_models::paper_suite(64) {
        let run = |s: SwapStrategy| simulate(&graph, &swap_plan(&graph, s), &gpu).expect("sim");
        let naive = run(SwapStrategy::Naive).overhead_pct();
        let vdnn_report = run(SwapStrategy::Vdnn);
        let cdma = run(SwapStrategy::Cdma { compression: 2.0 }).overhead_pct();
        println!(
            "{:<10} {:>11.1}% {:>11.1}% {:>11.1}% {:>14.2}",
            graph.name(),
            naive,
            vdnn_report.overhead_pct(),
            cdma,
            vdnn_report.stall_s * 1e3
        );
        en += naive;
        ev += vdnn_report.overhead_pct();
        ec += cdma;
        m += 1.0;
    }
    println!("{:<10} {:>11.1}% {:>11.1}% {:>11.1}%", "average", en / m, ev / m, ec / m);

    println!();
    println!("paper: naive ~30% avg, vDNN ~15% avg (max 27% Inception), Gist ~4% (max 7%).");
    println!("note:  the analytic vDNN row is an *idealized* prefetcher (perfect overlap,");
    println!("       no allocation/synchronization cost), so it lower-bounds the paper's");
    println!("       measured overhead; the executed rows drive the per-layer plan the");
    println!("       runtime actually trains with through a double-buffered PCIe engine,");
    println!("       so their stalls include bus contention the closed form cannot see.");
    println!("       The ordering naive >> vDNN > Gist and the Inception worst case are");
    println!("       the reproduced results.");
}
