//! Integration tests for the analytic performance model, and for the
//! executed offload plans priced on it: the orderings and monotonicities
//! the Figure 9/15/16 results depend on.

use gist::core::GistConfig;
use gist::encodings::{DprFormat, StashCodec};
use gist::offload::{simulate, OffloadMode, OffloadPlan};
use gist::perf::{distributed_overhead, gist_overhead, max_batch_fitting, GpuModel, SwapStrategy};
use gist::runtime::{ExecMode, ExecSpec, StepProgram};
use std::collections::HashMap;

#[test]
fn estimated_time_scales_with_minibatch() {
    let gpu = GpuModel::titan_x();
    let t32 = gist::perf::gpu::estimate_time(&gist::models::alexnet(32), &gpu).unwrap().total_s();
    let t64 = gist::perf::gpu::estimate_time(&gist::models::alexnet(64), &gpu).unwrap().total_s();
    let ratio = t64 / t32;
    assert!((1.6..=2.2).contains(&ratio), "batch doubling should ~double time: {ratio:.2}");
}

#[test]
fn per_image_time_improves_with_batch() {
    let gpu = GpuModel::titan_x();
    let per_image = |b: usize| {
        gist::perf::gpu::estimate_time(&gist::models::resnet_cifar(10, b), &gpu).unwrap().total_s()
            / b as f64
    };
    assert!(per_image(64) < per_image(4), "kernel-launch amortization");
}

#[test]
fn overhead_model_is_internally_consistent() {
    let gpu = GpuModel::titan_x();
    for g in gist::models::paper_suite(32) {
        let r = gist_overhead(&g, &GistConfig::lossy(DprFormat::Fp16), &gpu).unwrap();
        let reconstructed = r.baseline_s + r.encode_s + r.decode_s - r.binarize_saving_s;
        assert!((r.gist_s - reconstructed.max(0.0)).abs() < 1e-12, "{}", g.name());
        assert!(r.encode_s >= 0.0 && r.decode_s >= 0.0 && r.binarize_saving_s >= 0.0);
    }
}

#[test]
fn swap_overheads_scale_with_pcie_bandwidth() {
    // Halving PCIe bandwidth must not make any swap scheme cheaper, and
    // doubles what a fully serialized one costs.
    let fast = GpuModel::titan_x();
    let slow = GpuModel { pcie_bw: fast.pcie_bw / 2.0, ..fast };
    let g = gist::models::vgg16(32);
    let dense = vec![StashCodec::Dense; g.len()];
    for strategy in [SwapStrategy::Naive, SwapStrategy::Vdnn] {
        let plan = OffloadPlan::plan(&g, &dense, OffloadMode::Swap(strategy)).unwrap();
        let f = simulate(&g, &plan, &fast).unwrap().overhead_pct();
        let s = simulate(&g, &plan, &slow).unwrap().overhead_pct();
        assert!(s >= f, "{strategy:?}: slower PCIe gave lower overhead ({s:.1} < {f:.1})");
        if strategy == SwapStrategy::Naive {
            assert!((s / f - 2.0).abs() < 0.01, "naive is pure transfer: {f:.2} -> {s:.2}");
        }
    }
}

#[test]
fn recompute_reduces_footprint_for_a_time_cost() {
    // The step program the runtime would execute, and the sqrt-N plan
    // inside it priced on the virtual clock.
    let g = gist::models::vgg16(8);
    let peak = |offload: OffloadMode| {
        let spec = ExecSpec { offload, ..ExecSpec::from(ExecMode::Baseline).arena() };
        StepProgram::lower(&g, &spec).unwrap().peak_bytes(&HashMap::new()).unwrap()
    };
    let (resident, recompute) = (peak(OffloadMode::None), peak(OffloadMode::Recompute));
    assert!(recompute < resident, "recompute {recompute} vs resident {resident}");
    let dense = vec![StashCodec::Dense; g.len()];
    let plan = OffloadPlan::plan(&g, &dense, OffloadMode::Recompute).unwrap();
    let overhead = simulate(&g, &plan, &GpuModel::titan_x()).unwrap().overhead_pct();
    // Recomputation costs at most about one extra forward pass (~33% of
    // fwd+bwd when bwd ~ 2x fwd).
    assert!(overhead > 0.0 && overhead < 60.0, "{overhead:.1}%");
}

#[test]
fn distributed_overhead_grows_with_link_sharing() {
    let gpu = GpuModel::titan_x();
    let g = gist::models::vgg16(64);
    let w2 = distributed_overhead(&g, Some(SwapStrategy::Vdnn), 2, &gpu).unwrap();
    let w8 = distributed_overhead(&g, Some(SwapStrategy::Vdnn), 8, &gpu).unwrap();
    assert!(w8 >= w2, "more workers per link must not reduce contention");
}

#[test]
fn max_batch_is_monotone_in_budget() {
    let build = |b: usize| gist::models::resnet_cifar(2, b);
    let mut last = 0;
    for budget in [32usize << 20, 64 << 20, 128 << 20, 256 << 20] {
        let b = max_batch_fitting(&build, &GistConfig::baseline(), budget, 1024).unwrap();
        assert!(b >= last, "budget {budget}: batch {b} < previous {last}");
        last = b;
    }
    assert!(last > 0);
}

#[test]
fn utilization_curve_is_monotone_and_bounded() {
    let mut last = 0.0;
    for b in [1usize, 2, 8, 32, 128, 1024] {
        let u = gist::perf::utilization::utilization(b);
        assert!(u > last && u < 1.0, "batch {b}: {u}");
        last = u;
    }
    assert!(gist::perf::utilization::utilization(10_000) > 0.99);
}
