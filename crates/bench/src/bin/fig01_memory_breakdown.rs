//! Figure 1: breakdown of training memory footprint across data-structure
//! classes for the five CNNs at minibatch 64.
//!
//! Paper's claims to check: larger networks consume GBs even at minibatch
//! 64; stashed feature maps dominate, followed by immediately consumed data
//! (83% of VGG16, 97% of Inception for the two classes combined); weights
//! are a small fraction — the opposite of inference.

use gist_bench::{banner, gb, PAPER_BATCH};
use gist_graph::class::{baseline_inventory, class_totals};
use gist_graph::DataClass;

fn main() {
    banner("Figure 1", "memory footprint breakdown by data structure (minibatch 64)");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "model", "weights", "wgrads", "stashed", "immed", "gradmaps", "wkspace", "total", "s+i%"
    );
    for graph in gist_models::paper_suite(PAPER_BATCH) {
        let inv = baseline_inventory(&graph).expect("paper models infer shapes");
        let totals = class_totals(&inv);
        let get =
            |c: DataClass| totals.iter().find(|(cc, _)| *cc == c).map(|(_, b)| *b).unwrap_or(0);
        let w = get(DataClass::Weight);
        let wg = get(DataClass::WeightGrad);
        let st = get(DataClass::StashedFmap);
        let im = get(DataClass::ImmediateFmap);
        let gm = get(DataClass::GradientMap);
        let ws = get(DataClass::Workspace);
        let total = w + wg + st + im + gm + ws;
        let si_pct = 100.0 * (st + im + gm) as f64 / total as f64;
        println!(
            "{:<10} {:>8.2}G {:>8.2}G {:>8.2}G {:>8.2}G {:>8.2}G {:>8.2}G {:>8.2}G {:>6.1}%",
            graph.name(),
            gb(w),
            gb(wg),
            gb(st),
            gb(im),
            gb(gm),
            gb(ws),
            gb(total),
            si_pct
        );
    }
    println!();
    println!("paper: stashed fmaps + immediately consumed dominate training footprint");
    println!("       (83% for VGG16, 97% for Inception); weights are minor.");
}
