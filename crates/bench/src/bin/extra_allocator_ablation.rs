//! Extension study: how much of the dynamic-allocation headroom (Figure 17)
//! can a software *offset-packing* allocator recover without hardware
//! support? Compares CNTK-style group sharing, address-level offset
//! packing, and ideal dynamic allocation under the same Gist encodings.
//!
//! The second section measures *fragmentation waste* on executed steps:
//! trace a real arena-policy training step, feed the observed lifetimes to
//! both allocators, and report `capacity - observed_peak` for each — the
//! bytes the slab reserves but the step never has live at once.

use gist_bench::{banner, gb, PAPER_BATCH};
use gist_core::{AllocationMode, Gist, GistConfig};
use gist_memory::{
    observed_inventory, plan_offsets_aligned, plan_static, SharingPolicy, ARENA_ALIGN,
};
use gist_obs::{MemoryAccountant, TraceSink};
use gist_runtime::{ExecMode, ExecSpec, Executor, SyntheticImages};

/// Waste rows from one traced arena step: (peak, first-fit cap, group cap).
fn executed_waste(
    graph: &gist_graph::Graph,
    ds: &SyntheticImages,
    mode: &ExecMode,
) -> (u64, u64, u64) {
    let mut exec =
        Executor::new(graph.clone(), ExecSpec::from(mode.clone()).arena(), 7).expect("executor");
    let (x, y) = ds.clone().minibatch(4);
    let sink = TraceSink::new();
    exec.step_traced(&x, &y, 0.05, &sink).expect("step");
    let mut acc = MemoryAccountant::new();
    acc.fold_all(&sink.take()).expect("well-formed stream");
    let items = observed_inventory(&acc);
    let first_fit = plan_offsets_aligned(&items, ARENA_ALIGN).total_bytes as u64;
    let grouped = plan_static(&items, SharingPolicy::Full).total_bytes as u64;
    (acc.peak_bytes(), first_fit, grouped)
}

fn main() {
    banner("Extra", "allocator ablation: group sharing vs offset packing vs dynamic");
    println!(
        "{:<10} {:>11} {:>11} {:>11} {:>14}",
        "model", "static", "offset", "dynamic", "offset gain%"
    );
    for graph in gist_models::paper_suite(PAPER_BATCH) {
        let run = |mode: AllocationMode| {
            let cfg = GistConfig { allocation: mode, ..GistConfig::lossless() };
            Gist::new(cfg).plan(&graph).expect("plan").optimized_bytes
        };
        let stat = run(AllocationMode::Static);
        let off = run(AllocationMode::OffsetPacked);
        let dynamic = run(AllocationMode::Dynamic);
        println!(
            "{:<10} {:>10.2}G {:>10.2}G {:>10.2}G {:>13.1}%",
            graph.name(),
            gb(stat),
            gb(off),
            gb(dynamic),
            100.0 * (stat - off) as f64 / stat as f64
        );
    }
    println!();
    println!("-- executed waste (capacity - observed peak, traced arena steps) --");
    println!(
        "{:<14} {:<10} {:>10} {:>13} {:>13} {:>11} {:>11}",
        "network", "mode", "peak(KB)", "firstfit(KB)", "grouped(KB)", "ff waste%", "grp waste%"
    );
    let nets: Vec<(gist_graph::Graph, SyntheticImages)> = vec![
        (gist_models::small_vgg(4, 3), SyntheticImages::new(3, 16, 0.4, 3)),
        (gist_models::resnet_cifar(1, 4), SyntheticImages::rgb(10, 32, 0.4, 3)),
    ];
    let modes: Vec<(&str, ExecMode)> = vec![
        ("baseline", ExecMode::Baseline),
        ("lossless", ExecMode::Gist(GistConfig::lossless())),
    ];
    for (graph, ds) in &nets {
        for (mode_name, mode) in &modes {
            let (peak, ff, grp) = executed_waste(graph, ds, mode);
            let pct = |cap: u64| 100.0 * cap.saturating_sub(peak) as f64 / cap as f64;
            println!(
                "{:<14} {:<10} {:>10.1} {:>13.1} {:>13.1} {:>10.1}% {:>10.1}%",
                graph.name(),
                mode_name,
                peak as f64 / 1024.0,
                ff as f64 / 1024.0,
                grp as f64 / 1024.0,
                pct(ff),
                pct(grp)
            );
        }
    }

    println!();
    println!("offset packing recovers part of the dynamic-allocation gap in software,");
    println!("at the cost of address-level fragmentation bookkeeping. The executed");
    println!("rows pack real observed lifetimes: first-fit's waste is address-level");
    println!("fragmentation; group sharing's is conservative whole-group reservation.");
}
