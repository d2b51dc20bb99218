//! Tooling-surface tests: Graphviz export, Chrome-trace export, and the
//! dynamic planner's peak against the per-step live sum, exercised on real
//! zoo models.

use gist::core::{GistConfig, ScheduleBuilder};
use gist::memory::{peak_dynamic, to_chrome_trace};

#[test]
fn dot_export_covers_every_zoo_model() {
    let mut models = gist::models::paper_suite(2);
    models.push(gist::models::resnet50(1));
    models.push(gist::models::alexnet_classic(2));
    for g in models {
        let dot = gist::graph::dot::to_dot(&g);
        assert!(dot.starts_with(&format!("digraph \"{}\"", g.name())));
        let edges: usize = g.nodes().iter().map(|n| n.inputs.len()).sum();
        assert_eq!(dot.matches(" -> ").count(), edges, "{}", g.name());
        for node in g.nodes() {
            assert!(dot.contains(&format!("\"{}\\n", node.name)), "{} missing", node.name);
        }
    }
}

#[test]
fn chrome_trace_has_one_event_per_structure() {
    let g = gist::models::alexnet(4);
    let t = ScheduleBuilder::new(GistConfig::lossless()).build(&g).unwrap();
    let trace = to_chrome_trace(&t.inventory);
    assert_eq!(trace.matches("\"ph\": \"X\"").count(), t.inventory.len());
    // Track names cover all present classes.
    for label in ["stashed feature maps", "immediately consumed", "gradient maps", "weights"] {
        assert!(trace.contains(label), "missing track {label}");
    }
}

#[test]
fn liveness_table_agrees_with_dynamic_planner() {
    let g = gist::models::overfeat(2);
    let t =
        ScheduleBuilder::new(GistConfig::lossy(gist::encodings::DprFormat::Fp8)).build(&g).unwrap();
    let live_at = |step: usize| -> usize {
        t.inventory.iter().filter(|d| d.interval.contains(step)).map(|d| d.bytes).sum()
    };
    let peak = (0..t.num_steps).map(live_at).max().unwrap_or(0);
    assert!(peak > 0);
    assert_eq!(
        peak_dynamic(&t.inventory, t.num_steps),
        peak,
        "two independent peak computations must agree"
    );
}
