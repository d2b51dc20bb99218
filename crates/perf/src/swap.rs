//! The swap strategies `gist-offload` plans and prices (Figure 15), and the
//! PCIe contention they cause in data-parallel training (Section VI).

use crate::gpu::{estimate_time, GpuModel};
use gist_graph::class::baseline_inventory;
use gist_graph::{DataClass, Graph, GraphError};

/// Which swapping scheme to model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwapStrategy {
    /// Transfer every stashed feature map out after its forward use and back
    /// before its backward use, fully serialized with compute.
    Naive,
    /// vDNN: transfers overlap with compute; the GPU only stalls when the
    /// PCIe transfer of a pass takes longer than that pass's compute.
    Vdnn,
    /// CDMA (the paper's related work \[42\]): vDNN plus compression of the
    /// transferred data, modelled as SSDC-compressible stashes shrinking by
    /// the given factor before crossing PCIe.
    Cdma {
        /// Compression ratio applied to PCIe traffic (e.g. 2.5).
        compression: f64,
    },
}

/// Distributed-training PCIe contention (Section VI): data-parallel
/// workers exchange weight gradients over the same PCIe link that swap
/// schemes use for feature maps. Returns the overhead (percent) of one
/// training step versus a distributed baseline that only pays the
/// all-reduce, modelling PCIe as a single shared serial resource that
/// overlaps with compute.
///
/// Gist keeps stashes on the GPU, so `strategy = None` (Gist/baseline)
/// adds no swap traffic and reproduces the paper's argument that swapping
/// schemes "use a shared resource, PCIe links, that is of critical
/// importance in distributed DNN training".
///
/// # Errors
///
/// Propagates shape-inference failures.
pub fn distributed_overhead(
    graph: &Graph,
    strategy: Option<SwapStrategy>,
    workers_per_link: usize,
    gpu: &GpuModel,
) -> Result<f64, GraphError> {
    let time = estimate_time(graph, gpu)?;
    let inv = baseline_inventory(graph)?;
    let bytes_of = |class: DataClass| -> f64 {
        inv.iter().filter(|d| d.class == class).map(|d| d.bytes as f64).sum()
    };
    // Ring all-reduce moves ~2x the gradient bytes through each link.
    let allreduce = 2.0 * bytes_of(DataClass::WeightGrad);
    let swap_traffic = match strategy {
        None => 0.0,
        Some(SwapStrategy::Naive) | Some(SwapStrategy::Vdnn) => {
            2.0 * bytes_of(DataClass::StashedFmap)
        }
        Some(SwapStrategy::Cdma { compression }) => {
            2.0 * bytes_of(DataClass::StashedFmap) / compression.max(1.0)
        }
    };
    let compute = time.total_s();
    // Multi-GPU hosts share PCIe switches; each worker sees 1/N of the
    // link when all transfer simultaneously (the common 4-GPU-per-switch
    // 2017 topology).
    let share = workers_per_link.max(1) as f64;
    let baseline = compute.max(gpu.pcie_time(allreduce) * share);
    let with_swap = compute.max(gpu.pcie_time(allreduce + swap_traffic) * share);
    Ok((with_swap / baseline - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swapping_contends_with_allreduce_in_distributed_training() {
        let gpu = GpuModel::titan_x();
        for g in gist_models::paper_suite(64) {
            let gist = distributed_overhead(&g, None, 4, &gpu).unwrap();
            let vdnn = distributed_overhead(&g, Some(SwapStrategy::Vdnn), 4, &gpu).unwrap();
            assert_eq!(gist, 0.0, "{}: Gist adds no PCIe traffic", g.name());
            assert!(vdnn >= 0.0, "{}", g.name());
        }
        // On a 4-GPU-per-switch host, VGG16 (large stashes) must suffer.
        let worst =
            distributed_overhead(&gist_models::vgg16(64), Some(SwapStrategy::Vdnn), 4, &gpu)
                .unwrap();
        assert!(worst > 5.0, "VGG16 distributed vDNN overhead {worst:.1}%");
        // CDMA's compression reduces (but does not remove) the contention.
        let cdma = distributed_overhead(
            &gist_models::vgg16(64),
            Some(SwapStrategy::Cdma { compression: 2.5 }),
            4,
            &gpu,
        )
        .unwrap();
        assert!(cdma < worst);
    }
}
