//! The deterministic virtual-clock transfer engine.
//!
//! Simulates one training step under an [`OffloadPlan`]: compute advances a
//! scalar clock by the `gist-perf` per-node kernel times, swap transfers
//! occupy a single serial PCIe engine, and the vDNN/cDMA variants prefetch
//! swap-ins through a double-buffered queue whose order is derived from the
//! backward schedule. Everything is pure `f64` arithmetic over the plan —
//! no wall clocks, no threads — so the simulation is bit-identical across
//! runs and thread counts, and the "never read before arrival" invariant
//! can be property-tested exactly.

use crate::plan::{Action, OffloadMode, OffloadPlan};
use gist_graph::{Graph, GraphError, Schedule};
use gist_perf::gpu::estimate_time;
use gist_perf::{GpuModel, SwapStrategy};

/// One simulated PCIe transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRecord {
    /// Node whose stash moved (as a raw index).
    pub node: usize,
    /// `true` for swap-out (device→host).
    pub to_host: bool,
    /// Bytes on the bus (after cDMA compression, if any).
    pub bytes: f64,
    /// Transfer start on the virtual clock, seconds.
    pub start_s: f64,
    /// Transfer end, seconds.
    pub end_s: f64,
    /// When the backward pass consumed the data (swap-in) or the transfer
    /// completed (swap-out), seconds. Always `>= end_s`.
    pub consume_s: f64,
}

/// Where one simulated training step spent its time.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end step time.
    pub total_s: f64,
    /// Pure kernel time (forward + executed backward items).
    pub compute_s: f64,
    /// Bus occupancy: summed transfer durations.
    pub transfer_s: f64,
    /// Time the compute timeline waited on swap-ins.
    pub stall_s: f64,
    /// Time spent re-executing forward kernels for recompute segments.
    pub recompute_s: f64,
    /// Every transfer, in issue order.
    pub transfers: Vec<TransferRecord>,
}

impl SimReport {
    /// Overhead versus resident execution, percent.
    pub fn overhead_pct(&self) -> f64 {
        if self.compute_s == 0.0 {
            return 0.0;
        }
        (self.total_s / self.compute_s - 1.0) * 100.0
    }
}

/// Simulates one training step of `graph` under `plan` on `gpu`, pricing
/// every transfer from the modeled byte count (`numel * 4 / compression`
/// for cDMA's analytic compression factor).
///
/// # Errors
///
/// Propagates shape-inference failures from the time estimator.
pub fn simulate(
    graph: &Graph,
    plan: &OffloadPlan,
    gpu: &GpuModel,
) -> Result<SimReport, GraphError> {
    simulate_observed(graph, plan, gpu, &[])
}

/// [`simulate`], but with per-node *observed* wire bytes overriding the
/// model: `observed[i]` is the encoded byte count node `i`'s stash
/// actually put on the bus (0 — or an `observed` too short to cover `i` —
/// falls back to the modeled size). This is how the executed cDMA path
/// cross-checks the virtual clock against reality: the executor reports
/// what each swap actually cost after encoding, and the priced transfer
/// records must carry exactly those bytes.
///
/// # Errors
///
/// Propagates shape-inference failures from the time estimator.
pub fn simulate_observed(
    graph: &Graph,
    plan: &OffloadPlan,
    gpu: &GpuModel,
    observed: &[u64],
) -> Result<SimReport, GraphError> {
    let time = estimate_time(graph, gpu)?;
    let (strategy, compression) = match plan.mode {
        OffloadMode::Swap(s) => {
            let c = match s {
                SwapStrategy::Cdma { compression } => compression.max(1.0),
                _ => 1.0,
            };
            (Some(s), c)
        }
        _ => (None, 1.0),
    };

    let priced_bytes = |i: usize| match observed.get(i) {
        Some(&b) if b > 0 => b as f64,
        _ => plan.numel[i] as f64 * 4.0 / compression,
    };

    let mut transfers: Vec<TransferRecord> = Vec::new();
    let mut out_end = vec![0.0f64; graph.len()];
    let mut clock = 0.0f64;
    let mut pcie_free = 0.0f64;
    let mut compute_s = 0.0f64;

    // Forward: compute in schedule order; swapped stashes go out over the
    // bus as soon as they are produced.
    for id in Schedule::of(graph).order() {
        let i = id.index();
        clock += time.per_node[i].0;
        compute_s += time.per_node[i].0;
        if plan.host_slots[i] == 0 {
            continue;
        }
        let bytes = priced_bytes(i);
        let t = gpu.pcie_time(bytes);
        let start = match strategy {
            // Naive swapping serializes the copy with compute.
            Some(SwapStrategy::Naive) => clock,
            // vDNN/cDMA overlap: the copy queues on the bus.
            _ => pcie_free.max(clock),
        };
        let end = start + t;
        pcie_free = end;
        if matches!(strategy, Some(SwapStrategy::Naive)) {
            clock = end;
        }
        out_end[i] = end;
        transfers.push(TransferRecord {
            node: i,
            to_host: true,
            bytes,
            start_s: start,
            end_s: end,
            consume_s: end,
        });
    }
    // Overlapped writes may lag the last kernel; backward starts when both
    // compute and the bus are done.
    clock = clock.max(pcie_free);
    let backward_start = clock;
    pcie_free = backward_start;

    // Backward: the prefetch queue is the swap-in triggers in backward
    // order (schedule-derived, thread-count-invariant). Double buffering:
    // prefetch k waits for the consumption of prefetch k-2, for its own
    // swap-out to finish, and for the bus.
    let mut stall_s = 0.0f64;
    let mut recompute_s = 0.0f64;
    let mut consume_times: Vec<f64> = Vec::new();
    for &id in &plan.backward_order {
        let i = id.index();
        for action in &plan.triggers[i] {
            match action {
                Action::SwapIn(v) => {
                    let vi = v.index();
                    let bytes = priced_bytes(vi);
                    let t = gpu.pcie_time(bytes);
                    let j = consume_times.len();
                    let start = match strategy {
                        // Naive fetches on demand, serialized with compute.
                        Some(SwapStrategy::Naive) => clock.max(out_end[vi]),
                        _ => {
                            let gate = if j >= 2 { consume_times[j - 2] } else { backward_start };
                            pcie_free.max(gate).max(out_end[vi])
                        }
                    };
                    let end = start + t;
                    pcie_free = end;
                    if end > clock {
                        stall_s += end - clock;
                        clock = end;
                    }
                    consume_times.push(clock);
                    transfers.push(TransferRecord {
                        node: vi,
                        to_host: false,
                        bytes,
                        start_s: start,
                        end_s: end,
                        consume_s: clock,
                    });
                }
                Action::Replay(s) => {
                    let dt: f64 = plan.segments[*s]
                        .replay
                        .iter()
                        .map(|step| time.per_node[step.node.index()].0)
                        .sum();
                    recompute_s += dt;
                    clock += dt;
                }
            }
        }
        clock += time.per_node[i].1;
        compute_s += time.per_node[i].1;
    }

    let transfer_s = transfers.iter().map(|t| t.end_s - t.start_s).sum();
    Ok(SimReport { total_s: clock, compute_s, transfer_s, stall_s, recompute_s, transfers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::OffloadPlan;
    use gist_encodings::StashCodec;

    fn plan_for(graph: &Graph, mode: OffloadMode) -> OffloadPlan {
        let enc = vec![StashCodec::Dense; graph.len()];
        OffloadPlan::plan(graph, &enc, mode).unwrap()
    }

    #[test]
    fn resident_plan_has_no_transfer_time() {
        let g = gist_models::small_vgg(4, 3);
        let gpu = GpuModel::titan_x();
        let r = simulate(&g, &plan_for(&g, OffloadMode::None), &gpu).unwrap();
        assert!(r.transfers.is_empty());
        assert_eq!(r.stall_s, 0.0);
        assert_eq!(r.recompute_s, 0.0);
        assert_eq!(r.total_s, r.compute_s);
    }

    #[test]
    fn naive_swapping_is_slowest() {
        let g = gist_models::small_vgg(4, 3);
        let gpu = GpuModel::titan_x();
        let naive =
            simulate(&g, &plan_for(&g, OffloadMode::Swap(SwapStrategy::Naive)), &gpu).unwrap();
        let vdnn =
            simulate(&g, &plan_for(&g, OffloadMode::Swap(SwapStrategy::Vdnn)), &gpu).unwrap();
        let resident = simulate(&g, &plan_for(&g, OffloadMode::None), &gpu).unwrap();
        assert!(naive.total_s >= vdnn.total_s);
        assert!(vdnn.total_s >= resident.total_s);
        assert!(naive.overhead_pct() > 0.0);
    }

    #[test]
    fn unit_compression_cdma_equals_vdnn() {
        let g = gist_models::small_vgg(4, 3);
        let gpu = GpuModel::titan_x();
        let vdnn =
            simulate(&g, &plan_for(&g, OffloadMode::Swap(SwapStrategy::Vdnn)), &gpu).unwrap();
        let cdma = simulate(
            &g,
            &plan_for(&g, OffloadMode::Swap(SwapStrategy::Cdma { compression: 1.0 })),
            &gpu,
        )
        .unwrap();
        assert_eq!(vdnn.total_s.to_bits(), cdma.total_s.to_bits());
        let fast = simulate(
            &g,
            &plan_for(&g, OffloadMode::Swap(SwapStrategy::Cdma { compression: 2.5 })),
            &gpu,
        )
        .unwrap();
        assert!(fast.total_s <= vdnn.total_s);
    }

    #[test]
    fn recompute_pays_kernel_time_not_bus_time() {
        let g = gist_models::small_vgg(4, 3);
        let gpu = GpuModel::titan_x();
        let r = simulate(&g, &plan_for(&g, OffloadMode::Recompute), &gpu).unwrap();
        assert!(r.transfers.is_empty());
        assert!(r.recompute_s > 0.0);
        let expect = r.compute_s + r.recompute_s;
        assert!((r.total_s - expect).abs() < 1e-12 * expect.max(1.0));
    }

    #[test]
    fn swap_ins_never_consumed_before_arrival() {
        let gpu = GpuModel::titan_x();
        for strategy in
            [SwapStrategy::Naive, SwapStrategy::Vdnn, SwapStrategy::Cdma { compression: 2.5 }]
        {
            for g in [gist_models::small_vgg(4, 3), gist_models::resnet_cifar(1, 4)] {
                let r = simulate(&g, &plan_for(&g, OffloadMode::Swap(strategy)), &gpu).unwrap();
                let mut saw_in = false;
                for t in &r.transfers {
                    assert!(t.end_s >= t.start_s);
                    assert!(t.consume_s >= t.end_s, "read before swap-in completed");
                    if !t.to_host {
                        saw_in = true;
                        let out = r
                            .transfers
                            .iter()
                            .find(|o| o.to_host && o.node == t.node)
                            .expect("swap-in without swap-out");
                        assert!(t.start_s >= out.end_s, "fetched before stash left device");
                    }
                }
                assert!(saw_in, "{}: no swap-ins simulated", g.name());
            }
        }
    }

    #[test]
    fn observed_bytes_flow_into_transfer_records_exactly() {
        let g = gist_models::small_vgg(4, 3);
        let gpu = GpuModel::titan_x();
        let plan = plan_for(&g, OffloadMode::Swap(SwapStrategy::Cdma { compression: 2.5 }));
        // Pretend every swapped node's encode produced a distinctive size.
        let mut observed = vec![0u64; g.len()];
        for (i, &slot) in plan.host_slots.iter().enumerate() {
            if slot > 0 {
                observed[i] = (i as u64 + 1) * 1013;
            }
        }
        let r = simulate_observed(&g, &plan, &gpu, &observed).unwrap();
        assert!(!r.transfers.is_empty());
        for t in &r.transfers {
            assert_eq!(t.bytes.to_bits(), (observed[t.node] as f64).to_bits(), "node {}", t.node);
        }
        // Zero entries (and an empty slice) fall back to the model.
        let fallback = simulate_observed(&g, &plan, &gpu, &[]).unwrap();
        let modeled = simulate(&g, &plan, &gpu).unwrap();
        assert_eq!(fallback.total_s.to_bits(), modeled.total_s.to_bits());
        assert_eq!(fallback.transfers, modeled.transfers);
    }

    #[test]
    fn simulation_is_deterministic() {
        let g = gist_models::resnet_cifar(1, 4);
        let gpu = GpuModel::titan_x();
        let plan = plan_for(&g, OffloadMode::Swap(SwapStrategy::Vdnn));
        let a = simulate(&g, &plan, &gpu).unwrap();
        let b = simulate(&g, &plan, &gpu).unwrap();
        assert_eq!(a.total_s.to_bits(), b.total_s.to_bits());
        assert_eq!(a.transfers, b.transfers);
    }
}
