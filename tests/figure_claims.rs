//! The paper's headline quantitative claims, asserted as integration tests
//! (loose bands: our substrate is a simulator, so shapes and orderings are
//! what must hold — see EXPERIMENTS.md for exact measured values).

use gist::core::{Gist, GistConfig};
use gist::encodings::DprFormat;
use gist::graph::Graph;
use gist::offload::{simulate, OffloadMode, OffloadPlan};
use gist::perf::{gist_overhead, GpuModel, SwapStrategy};

fn accuracy_safe_format(model: &str) -> DprFormat {
    match model {
        "VGG16" => DprFormat::Fp16,
        "Inception" => DprFormat::Fp10,
        _ => DprFormat::Fp8,
    }
}

/// Figure 8: average end-to-end MFR ~1.4x lossless, ~1.8x with DPR.
#[test]
fn figure8_average_mfr_bands() {
    let suite = gist::models::paper_suite(16);
    let mut ll = 0.0;
    let mut ly = 0.0;
    for g in &suite {
        ll += Gist::new(GistConfig::lossless()).plan(g).unwrap().mfr();
        ly += Gist::new(GistConfig::lossy(accuracy_safe_format(g.name()))).plan(g).unwrap().mfr();
    }
    let (ll, ly) = (ll / suite.len() as f64, ly / suite.len() as f64);
    assert!((1.2..=1.8).contains(&ll), "lossless avg MFR {ll:.2} (paper 1.4x)");
    assert!((1.5..=2.3).contains(&ly), "lossy avg MFR {ly:.2} (paper 1.8x)");
    assert!(ly > ll);
}

/// Figure 9: Gist's modelled overhead is single-digit percent.
#[test]
fn figure9_overhead_band() {
    let gpu = GpuModel::titan_x();
    for g in gist::models::paper_suite(64) {
        let r = gist_overhead(&g, &GistConfig::lossy(DprFormat::Fp16), &gpu).unwrap();
        assert!(
            r.overhead_pct() < 10.0,
            "{}: overhead {:.1}% (paper max 7%)",
            g.name(),
            r.overhead_pct()
        );
    }
}

/// Overhead (percent) of the swap plan the runtime would execute for
/// `graph`, priced on the virtual clock.
fn executed_swap_pct(graph: &Graph, strategy: SwapStrategy, gpu: &GpuModel) -> f64 {
    let dense = vec![gist::encodings::StashCodec::Dense; graph.len()];
    let plan = OffloadPlan::plan(graph, &dense, OffloadMode::Swap(strategy)).unwrap();
    simulate(graph, &plan, gpu).unwrap().overhead_pct()
}

/// Figure 15: the ordering naive > vDNN and naive > Gist holds for every
/// network, naive swapping costs tens of percent on average, and cDMA's
/// compression helps wherever vDNN stalls.
#[test]
fn figure15_ordering() {
    let gpu = GpuModel::titan_x();
    let suite = gist::models::paper_suite(64);
    let mut naive_sum = 0.0;
    let mut vdnn_sum = 0.0;
    for g in &suite {
        let naive = executed_swap_pct(g, SwapStrategy::Naive, &gpu);
        let vdnn = executed_swap_pct(g, SwapStrategy::Vdnn, &gpu);
        let gist =
            gist_overhead(g, &GistConfig::lossy(DprFormat::Fp16), &gpu).unwrap().overhead_pct();
        assert!(naive > vdnn, "{}: naive {naive:.1} <= vdnn {vdnn:.1}", g.name());
        assert!(naive > gist, "{}: naive {naive:.1} <= gist {gist:.1}", g.name());
        // Compressing by 1.0 is vDNN; compressing by 2.5 never hurts, and
        // helps wherever vDNN stalls (Inception above all: cheap compute
        // per stashed byte).
        let cdma = |c: f64| executed_swap_pct(g, SwapStrategy::Cdma { compression: c }, &gpu);
        assert!((vdnn - cdma(1.0)).abs() < 1e-9, "{}: cdma(1.0) vs vdnn {vdnn}", g.name());
        let cdma = cdma(2.5);
        assert!((0.0..=vdnn).contains(&cdma), "{}: cdma {cdma:.1} vs vdnn {vdnn:.1}", g.name());
        assert!(vdnn < 1.0 || cdma < vdnn, "{}: cdma {cdma:.1} vs vdnn {vdnn:.1}", g.name());
        naive_sum += naive;
        vdnn_sum += vdnn;
    }
    // Paper: naive averages ~30%, vDNN ~15%.
    let n = suite.len() as f64;
    let (naive_avg, vdnn_avg) = (naive_sum / n, vdnn_sum / n);
    assert!(naive_avg > 10.0 && naive_avg < 100.0, "naive average {naive_avg:.1}%");
    assert!(vdnn_avg < naive_avg);
}

/// Figure 16: speedup from larger minibatches grows with ResNet depth.
#[test]
fn figure16_speedup_grows_with_depth() {
    let gpu = GpuModel::titan_x();
    let budget = 2usize << 30; // scaled-down budget for test speed
    let speedup_at = |n: usize| {
        let build = move |b: usize| gist::models::resnet_cifar(n, b);
        gist::perf::resnet_speedup(&build, &GistConfig::lossy(DprFormat::Fp16), budget, 1024, &gpu)
            .unwrap()
    };
    let shallow = speedup_at(8);
    let deep = speedup_at(30);
    assert!(deep.speedup > 1.0, "deep speedup {:.3}", deep.speedup);
    assert!(
        deep.speedup >= shallow.speedup,
        "speedup should grow with depth: {:.3} vs {:.3}",
        deep.speedup,
        shallow.speedup
    );
    assert!(deep.gist_batch > deep.baseline_batch);
}

/// Figure 17: MFR ordering dynamic < +lossless < +lossy <= +optimized-sw.
#[test]
fn figure17_mfr_ordering() {
    let g = gist::models::alexnet(16);
    let dynamic =
        Gist::new(GistConfig::baseline().with_dynamic_allocation()).plan(&g).unwrap().mfr();
    let lossless =
        Gist::new(GistConfig::lossless().with_dynamic_allocation()).plan(&g).unwrap().mfr();
    let lossy = Gist::new(GistConfig::lossy(DprFormat::Fp8).with_dynamic_allocation())
        .plan(&g)
        .unwrap()
        .mfr();
    let optsw = Gist::new(
        GistConfig::lossy(DprFormat::Fp8).with_dynamic_allocation().with_optimized_software(),
    )
    .plan(&g)
    .unwrap()
    .mfr();
    assert!(dynamic >= 1.0);
    assert!(lossless > dynamic, "lossless {lossless:.2} vs dynamic {dynamic:.2}");
    assert!(lossy >= lossless, "lossy {lossy:.2} vs lossless {lossless:.2}");
    assert!(optsw >= lossy, "optsw {optsw:.2} vs lossy {lossy:.2}");
}

/// Runtime-vs-planner cross-validation: the executor's measured peak live
/// bytes (with encodings actually running) must (a) drop under Gist versus
/// the baseline, and (b) agree with the planner's dynamic-allocation
/// estimate within a modest factor — tying the two halves of the
/// reproduction together.
#[test]
fn runtime_peak_memory_matches_planner_estimates() {
    use gist::runtime::{ExecMode, Executor, SyntheticImages};

    let batch = 8;
    let graph = gist::models::small_vgg(batch, 4);
    let mut ds = SyntheticImages::new(4, 16, 0.4, 3);
    let (x, y) = ds.minibatch(batch);

    let measure = |mode: ExecMode| -> usize {
        let mut e = Executor::new(graph.clone(), mode, 7).unwrap();
        e.step(&x, &y, 0.05).unwrap().peak_live_bytes
    };
    let base_peak = measure(ExecMode::Baseline);
    let gist_peak = measure(ExecMode::Gist(GistConfig::lossless()));
    assert!(
        gist_peak < base_peak,
        "gist runtime peak {gist_peak} should undercut baseline {base_peak}"
    );

    // Planner's dynamic estimate for the same graph and config.
    let plan = Gist::new(GistConfig::baseline().with_dynamic_allocation()).plan(&graph).unwrap();
    let predicted = plan.optimized_bytes;
    let ratio = base_peak as f64 / predicted as f64;
    assert!(
        (0.4..=2.5).contains(&ratio),
        "runtime peak {base_peak} vs planner dynamic {predicted} (ratio {ratio:.2})"
    );
}

/// Figure 3: ReLU outputs dominate the stashed footprint of the conv-heavy
/// networks.
#[test]
fn figure3_relu_dominance() {
    for g in [gist::models::vgg16(8), gist::models::alexnet(8), gist::models::nin(8)] {
        let b = gist::core::plan::stash_breakdown(&g).unwrap();
        assert!(b.relu_fraction() > 0.5, "{}: ReLU fraction {:.2}", g.name(), b.relu_fraction());
    }
}

/// Figure 12 headline, on live training: FP8 *delayed* reduction learns the
/// task; FP8 *immediate* reduction does not.
#[test]
fn figure12_delayed_vs_immediate_fp8() {
    use gist::runtime::{train, ExecMode};
    // Same hard-task regime as the fig12 harness: many classes and heavy
    // noise, so gradients are small enough that immediate FP8 quantization
    // (with its denormal flush at |x| < 2^-6) stops training.
    let run = |label: &str, mode: ExecMode| {
        train(gist::models::small_vgg(8, 8), mode, label, 42, 7, 5, 25, 8, 0.02, 1.6).unwrap()
    };
    let fp32 = run("fp32", ExecMode::Baseline);
    let gist_fp8 = run("gist-fp8", ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8)));
    let imm_fp8 = run("imm-fp8", ExecMode::UniformImmediate(DprFormat::Fp8));
    assert!(
        gist_fp8.max_accuracy_deviation(&fp32) < 0.15,
        "Gist-FP8 should track FP32, deviation {:.3}",
        gist_fp8.max_accuracy_deviation(&fp32)
    );
    assert!(
        imm_fp8.final_accuracy() < fp32.final_accuracy() - 0.2,
        "immediate FP8 should badly hurt training: {:.2} vs {:.2}",
        imm_fp8.final_accuracy(),
        fp32.final_accuracy()
    );
}
