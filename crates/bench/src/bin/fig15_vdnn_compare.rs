//! Figure 15: performance overhead of naive CPU↔GPU swapping, vDNN-style
//! prefetched swapping, and Gist, all against the CNTK baseline.
//!
//! Paper's claims to check: naive swapping averages ~30% overhead; vDNN
//! ~15% (max 27% on Inception); Gist stays ~4% (max 7%) because it never
//! leaves the GPU.
//!
//! The swap columns are *executed* numbers: `gist-offload` builds the
//! per-layer swap plan the runtime trains with and drives it through the
//! deterministic virtual-clock transfer engine (double-buffered PCIe, so
//! stalls include the bus serialization a per-pass closed form cannot see).
//! The Gist column is `gist-perf`'s encode/decode overhead model (Figure 9).

use gist_bench::banner;
use gist_core::GistConfig;
use gist_encodings::DprFormat;
use gist_offload::{simulate, OffloadMode, OffloadPlan};
use gist_perf::{gist_overhead, GpuModel, SwapStrategy};

fn swap_plan(graph: &gist_graph::Graph, strategy: SwapStrategy) -> OffloadPlan {
    let enc = vec![gist_encodings::StashCodec::Dense; graph.len()];
    OffloadPlan::plan(graph, &enc, OffloadMode::Swap(strategy)).expect("plan")
}

fn main() {
    banner("Figure 15", "swap-based approaches vs Gist (overhead % vs baseline)");
    let gpu = GpuModel::titan_x();

    println!("-- executed plan (gist-offload virtual clock over the runtime swap plan) --");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>15}",
        "model", "naive%", "vDNN%", "cDMA(2x)%", "Gist%", "vDNN stall(ms)"
    );
    // Per network: naive, vDNN, cDMA, Gist.
    let mut rows: Vec<(String, [f64; 4])> = Vec::new();
    for graph in gist_models::paper_suite(64) {
        let run = |s: SwapStrategy| simulate(&graph, &swap_plan(&graph, s), &gpu).expect("sim");
        let naive = run(SwapStrategy::Naive).overhead_pct();
        let vdnn_report = run(SwapStrategy::Vdnn);
        let cdma = run(SwapStrategy::Cdma { compression: 2.0 }).overhead_pct();
        let gist = gist_overhead(&graph, &GistConfig::lossy(DprFormat::Fp16), &gpu)
            .expect("model")
            .overhead_pct();
        println!(
            "{:<10} {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}% {:>14.2}",
            graph.name(),
            naive,
            vdnn_report.overhead_pct(),
            cdma,
            gist,
            vdnn_report.stall_s * 1e3
        );
        rows.push((graph.name().to_string(), [naive, vdnn_report.overhead_pct(), cdma, gist]));
    }
    let n = rows.len();
    let avg = |col: usize| rows.iter().map(|(_, r)| r[col]).sum::<f64>() / n as f64;
    println!(
        "{:<10} {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}%",
        "average",
        avg(0),
        avg(1),
        avg(2),
        avg(3)
    );

    let count = |holds: fn(&[f64; 4]) -> bool| rows.iter().filter(|(_, r)| holds(r)).count();
    let (worst, worst_row) =
        rows.iter().max_by(|a, b| a.1[1].total_cmp(&b.1[1])).expect("five networks");
    println!();
    println!("paper: naive ~30% avg, vDNN ~15% avg (max 27% Inception), Gist ~4% (max 7%).");
    println!(
        "rows:  naive > vDNN on {} of {n}, naive > Gist on {} of {n}, vDNN > Gist on {} of {n};",
        count(|r| r[0] > r[1]),
        count(|r| r[0] > r[3]),
        count(|r| r[1] > r[3])
    );
    println!("       vDNN worst case {worst} at {:.1}%.", worst_row[1]);
}
