//! The Schedule Builder: rewrites the training data-structure inventory
//! around the chosen encodings.

use crate::config::{AllocationMode, GistConfig};
use crate::policy::{assign, Assignment, Encoding};
use gist_encodings::csr::predicted_bytes;
use gist_encodings::StashCodec;
use gist_graph::class::baseline_inventory;
use gist_graph::{
    DataClass, DataStructure, Graph, GraphError, Interval, NodeId, OpKind, Schedule, TensorRole,
};
use std::collections::HashSet;

/// The Schedule Builder (Figure 5): consumes the original execution graph
/// and produces the rewritten data-structure inventory with encode/decode
/// stashes inserted and lifetimes split.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder {
    config: GistConfig,
}

/// Output of the Schedule Builder: the transformed inventory plus the
/// encoding assignments that produced it.
#[derive(Debug, Clone)]
pub struct TransformedGraph {
    /// Every data structure of one training minibatch after rewriting.
    pub inventory: Vec<DataStructure>,
    /// Per-stash encoding decisions.
    pub assignments: Vec<Assignment>,
    /// Total schedule steps (for dynamic-allocation simulation).
    pub num_steps: usize,
}

impl ScheduleBuilder {
    /// Creates a builder for a configuration.
    pub fn new(config: GistConfig) -> Self {
        ScheduleBuilder { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &GistConfig {
        &self.config
    }

    /// Rewrites the baseline inventory of `graph` ([`baseline_inventory`]):
    /// only feature maps change, and encode/decode stashes and pool maps
    /// are inserted right after the map they belong to.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures.
    pub fn build(&self, graph: &Graph) -> Result<TransformedGraph, GraphError> {
        let baseline = baseline_inventory(graph)?;
        let sched = Schedule::of(graph);
        let assignments = assign(graph, &self.config);
        let encoding_of = |id: NodeId| -> Encoding {
            assignments.iter().find(|a| a.node == id).map(|a| a.encoding).unwrap_or(Encoding::None)
        };

        // Max-pool layers that receive a Y→X index map: the pool consumers
        // of every Binarize-encoded ReLU. With the map, the pool backward
        // pass needs neither its input nor its output feature map.
        let pool_has_map: HashSet<NodeId> = assignments
            .iter()
            .filter(|a| a.encoding == Encoding::Binarize)
            .flat_map(|a| graph.consumers(a.node))
            .filter(|&c| matches!(graph.node(c).op, OpKind::MaxPool(_)))
            .collect();

        // Backward-pass steps at which node `id`'s stashed output is read,
        // accounting for pools that now use index maps.
        let stash_users = |id: NodeId| -> Vec<usize> {
            let node = graph.node(id);
            let mut users = Vec::new();
            if node.op.needs_output_in_backward() && !pool_has_map.contains(&id) {
                users.push(sched.backward_step(id));
            }
            for c in graph.consumers(id) {
                if graph.node(c).op.needs_input_in_backward() && !pool_has_map.contains(&c) {
                    users.push(sched.backward_step(c));
                }
            }
            users
        };

        let mut inventory: Vec<DataStructure> = Vec::with_capacity(baseline.len());
        // Feature-map structure index per node, for the inplace pass.
        let mut fmap_index: Vec<Option<usize>> = vec![None; graph.len()];

        for y in baseline {
            // Gradient maps, weights, weight gradients, workspace and
            // dropout masks are the baseline's, passed through: the rewrite
            // only touches feature maps.
            let TensorRole::FeatureMap(id) = y.role else {
                inventory.push(y);
                continue;
            };
            let node = graph.node(id);
            let fwd = y.interval.start;
            let last_fwd_use =
                graph.consumers(id).iter().map(|&c| sched.forward_step(c)).max().unwrap_or(fwd);
            let users = stash_users(id);
            let fp32_bytes = y.bytes;
            let numel = fp32_bytes / std::mem::size_of::<f32>();
            fmap_index[id.index()] = Some(inventory.len());

            match (users.iter().min().zip(users.iter().max()), encoding_of(id)) {
                (None, _) => {
                    // Plain immediately-consumed feature map — either never
                    // stashed, or its backward need disappeared because a
                    // pool Y→X map replaced it (in which case any encoding
                    // the policy assigned is moot: there is nothing left to
                    // stash).
                    inventory.push(DataStructure {
                        class: DataClass::ImmediateFmap,
                        interval: Interval::new(fwd, last_fwd_use),
                        ..y
                    });
                }
                (Some((_, &death)), Encoding::None) => {
                    // Unencoded stash (baseline behaviour), alive until the
                    // last backward reader the pool maps left it.
                    inventory.push(DataStructure {
                        class: DataClass::StashedFmap,
                        interval: Interval::new(fwd, death.max(fwd)),
                        ..y
                    });
                }
                (Some((&first, &last)), enc) => {
                    // Encoded stash: FP32 lives only for the forward use...
                    inventory.push(DataStructure {
                        class: DataClass::ImmediateFmap,
                        interval: Interval::new(fwd, last_fwd_use),
                        ..y
                    });
                    let first_bwd = first.max(last_fwd_use);
                    let last_bwd = last.max(last_fwd_use);
                    let codec = enc.codec(&self.config);
                    let tag = codec.label().expect("dense stashes are handled above");
                    // A shape-only size is the codec's bound; SSDC is
                    // planned at its assumed sparsity, not its worst case.
                    let enc_bytes = match (enc, codec) {
                        (Encoding::Ssdc { assumed_sparsity }, StashCodec::Ssdc(layout)) => {
                            predicted_bytes(numel, assumed_sparsity, layout)
                        }
                        _ => codec.bound(numel),
                    };
                    // The paper's model: every backward reader takes the
                    // whole map, unless optimized software reads it encoded.
                    let decode = codec.decodes(true) && !self.config.optimized_software;
                    // ...the encoded form spans the temporal gap...
                    let enc_end = if decode { first_bwd } else { last_bwd };
                    inventory.push(DataStructure {
                        name: format!("{}.enc.{tag}", node.name),
                        role: TensorRole::Encoded { node: id, encoding: tag },
                        class: DataClass::StashedFmap,
                        bytes: enc_bytes,
                        interval: Interval::new(last_fwd_use, enc_end),
                    });
                    // ...and an FP32 decode buffer serves the backward uses.
                    if decode {
                        inventory.push(DataStructure {
                            name: format!("{}.dec", node.name),
                            role: TensorRole::Decoded(id),
                            class: DataClass::ImmediateFmap,
                            bytes: fp32_bytes,
                            interval: Interval::new(first_bwd, last_bwd),
                        });
                    }
                }
            }

            // Pool Y→X index map: 4 bits per pool-output element. (A pool
            // is never a dropout, so no `.mask` sits between the two.)
            if pool_has_map.contains(&id) {
                inventory.push(DataStructure {
                    name: format!("{}.enc.poolmap", node.name),
                    role: TensorRole::Encoded { node: id, encoding: "poolmap" },
                    class: DataClass::StashedFmap,
                    bytes: numel.div_ceil(2),
                    interval: Interval::new(fwd, sched.backward_step(id)),
                });
            }
        }

        // Inplace optimization (Section III-C): a ReLU with a read-once/
        // write-once input overwrites its producer's buffer, removing one
        // immediately-consumed structure.
        if self.config.inplace {
            let mut remove: Vec<usize> = Vec::new();
            for node in graph.nodes() {
                if !matches!(node.op, OpKind::Relu) {
                    continue;
                }
                let producer = node.inputs[0];
                if matches!(graph.node(producer).op, OpKind::Input(_)) {
                    continue;
                }
                if graph.consumers(producer).len() != 1 {
                    continue;
                }
                if let Some(pi) = fmap_index[producer.index()] {
                    if inventory[pi].class == DataClass::ImmediateFmap {
                        remove.push(pi);
                    }
                }
            }
            remove.sort_unstable();
            remove.dedup();
            for (removed, pi) in remove.into_iter().enumerate() {
                inventory.remove(pi - removed);
            }
        }

        Ok(TransformedGraph { inventory, assignments, num_steps: sched.num_steps() })
    }
}

/// Data-structure classes that count toward the paper's footprint baselines
/// (stashed feature maps + immediately consumed data; weights, weight
/// gradients and workspace are excluded, in line with Section V-A).
pub fn in_mfr_scope(d: &DataStructure) -> bool {
    matches!(d.class, DataClass::StashedFmap | DataClass::ImmediateFmap | DataClass::GradientMap)
}

/// Footprint of an inventory under the configured allocation mode,
/// restricted to the MFR scope.
pub fn footprint_bytes(
    inventory: &[DataStructure],
    num_steps: usize,
    allocation: AllocationMode,
    policy: gist_memory::SharingPolicy,
) -> usize {
    let scoped: Vec<DataStructure> =
        inventory.iter().filter(|d| in_mfr_scope(d)).cloned().collect();
    match allocation {
        AllocationMode::Static => gist_memory::plan_static(&scoped, policy).total_bytes,
        AllocationMode::Dynamic => gist_memory::peak_dynamic(&scoped, num_steps),
        // First-fit offset packing can fragment and lose to grouping on
        // some lifetime patterns; a production planner runs both and keeps
        // the smaller arena.
        AllocationMode::OffsetPacked => gist_memory::plan_offsets(&scoped)
            .total_bytes
            .min(gist_memory::plan_static(&scoped, policy).total_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_memory::SharingPolicy;

    fn find<'a>(inv: &'a [DataStructure], name: &str) -> &'a DataStructure {
        inv.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("missing {name}"))
    }

    #[test]
    fn binarize_splits_relu_lifetime() {
        let g = gist_models::alexnet(2);
        let cfg =
            GistConfig { binarize: true, ssdc: false, inplace: false, ..GistConfig::baseline() };
        let t = ScheduleBuilder::new(cfg).build(&g).unwrap();
        // conv1_relu got binarize: fp32 map is immediate now.
        let y = find(&t.inventory, "conv1_relu.y");
        assert_eq!(y.class, DataClass::ImmediateFmap);
        let enc = find(&t.inventory, "conv1_relu.enc.binarize");
        assert_eq!(enc.class, DataClass::StashedFmap);
        // 32x smaller than fp32 (modulo word rounding).
        assert!(enc.bytes * 31 <= y.bytes && y.bytes <= enc.bytes * 33);
        // Encoded stash begins where the fp32 forward use ends.
        assert_eq!(enc.interval.start, y.interval.end);
        // No decode buffer for binarize.
        assert!(t.inventory.iter().all(|d| d.name != "conv1_relu.dec"));
        // The pool got its 4-bit index map.
        let pm = find(&t.inventory, "pool1.enc.poolmap");
        let pool_y = find(&t.inventory, "pool1.y");
        assert_eq!(pm.bytes, pool_y.bytes / 8); // 4 bits vs 32 bits
    }

    #[test]
    fn ssdc_and_dpr_create_decode_buffers() {
        let g = gist_models::alexnet(2);
        let t = ScheduleBuilder::new(GistConfig::lossy(gist_encodings::DprFormat::Fp16))
            .build(&g)
            .unwrap();
        let enc = find(&t.inventory, "conv3_relu.enc.ssdc");
        let dec = find(&t.inventory, "conv3_relu.dec");
        assert_eq!(dec.class, DataClass::ImmediateFmap);
        assert!(enc.interval.end <= dec.interval.start + 1);
        // DPR on the fc side.
        let fc_enc = find(&t.inventory, "fc6_relu.enc.dpr");
        let fc_y = find(&t.inventory, "fc6_relu.y");
        assert_eq!(fc_enc.bytes, fc_y.bytes / 2); // FP16 halves the stash
    }

    #[test]
    fn optimized_software_removes_decode_buffers() {
        let g = gist_models::alexnet(2);
        let cfg = GistConfig::lossy(gist_encodings::DprFormat::Fp16).with_optimized_software();
        let t = ScheduleBuilder::new(cfg).build(&g).unwrap();
        assert!(t.inventory.iter().all(|d| !matches!(d.role, TensorRole::Decoded(_))));
        // The encoded stash must then live through the LAST backward use.
        let enc = find(&t.inventory, "conv3_relu.enc.ssdc");
        let plain = ScheduleBuilder::new(GistConfig::lossy(gist_encodings::DprFormat::Fp16))
            .build(&g)
            .unwrap();
        let enc_plain = find(&plain.inventory, "conv3_relu.enc.ssdc");
        assert!(enc.interval.end >= enc_plain.interval.end);
    }

    #[test]
    fn inplace_removes_conv_outputs_feeding_relu() {
        let g = gist_models::vgg16(2);
        let without = ScheduleBuilder::new(GistConfig::baseline()).build(&g).unwrap();
        let cfg = GistConfig { inplace: true, ..GistConfig::baseline() };
        let with = ScheduleBuilder::new(cfg).build(&g).unwrap();
        assert!(without.inventory.iter().any(|d| d.name == "conv1_1.y"));
        assert!(with.inventory.iter().all(|d| d.name != "conv1_1.y"));
        // Stashed maps untouched.
        let stashed = |inv: &[DataStructure]| -> usize {
            inv.iter().filter(|d| d.class == DataClass::StashedFmap).map(|d| d.bytes).sum()
        };
        assert_eq!(stashed(&without.inventory), stashed(&with.inventory));
    }

    #[test]
    fn lossless_reduces_static_footprint_on_every_paper_model() {
        for g in gist_models::paper_suite(4) {
            let base = ScheduleBuilder::new(GistConfig::baseline()).build(&g).unwrap();
            let gist = ScheduleBuilder::new(GistConfig::lossless()).build(&g).unwrap();
            let fb = footprint_bytes(
                &base.inventory,
                base.num_steps,
                AllocationMode::Static,
                SharingPolicy::Full,
            );
            let fg = footprint_bytes(
                &gist.inventory,
                gist.num_steps,
                AllocationMode::Static,
                SharingPolicy::Full,
            );
            assert!(fg < fb, "{}: lossless should shrink footprint ({fg} vs {fb})", g.name());
        }
    }

    #[test]
    fn allocation_mode_ordering_dynamic_le_offset_le_static() {
        for g in [gist_models::alexnet(4), gist_models::nin(4)] {
            let t = ScheduleBuilder::new(GistConfig::lossless()).build(&g).unwrap();
            let f = |mode: AllocationMode| {
                footprint_bytes(&t.inventory, t.num_steps, mode, SharingPolicy::Full)
            };
            let stat = f(AllocationMode::Static);
            let off = f(AllocationMode::OffsetPacked);
            let dynamic = f(AllocationMode::Dynamic);
            assert!(off <= stat, "{}: offset {off} > static {stat}", g.name());
            assert!(dynamic <= off, "{}: dynamic {dynamic} > offset {off}", g.name());
        }
    }

    #[test]
    fn dynamic_footprint_never_exceeds_static() {
        let g = gist_models::overfeat(4);
        let t = ScheduleBuilder::new(GistConfig::lossless()).build(&g).unwrap();
        let stat =
            footprint_bytes(&t.inventory, t.num_steps, AllocationMode::Static, SharingPolicy::Full);
        let dyn_ = footprint_bytes(
            &t.inventory,
            t.num_steps,
            AllocationMode::Dynamic,
            SharingPolicy::Full,
        );
        assert!(dyn_ <= stat);
    }

    #[test]
    fn pool_output_becomes_immediate_when_map_applied_and_no_conv_consumer() {
        // AlexNet pool5 feeds fc6 (linear needs input) so it stays stashed;
        // but in a net where the pool feeds only avgpool, the map frees it.
        let mut g = Graph::new("t");
        let x = g.input(gist_tensor::Shape::nchw(1, 4, 8, 8));
        let c = g.conv(x, 4, gist_tensor::ops::conv::ConvParams::new(3, 1, 1), true, "c");
        let r = g.relu(c, "r");
        let p = g.max_pool(r, gist_tensor::ops::pool::PoolParams::new(2, 2, 0), "p");
        let a = g.avg_pool(p, gist_tensor::ops::pool::PoolParams::new(2, 2, 0), "ap");
        g.softmax_loss(a, "loss");
        let base = ScheduleBuilder::new(GistConfig::baseline()).build(&g).unwrap();
        assert_eq!(find(&base.inventory, "p.y").class, DataClass::StashedFmap);
        let cfg =
            GistConfig { binarize: true, ssdc: false, inplace: false, ..GistConfig::baseline() };
        let t = ScheduleBuilder::new(cfg).build(&g).unwrap();
        assert_eq!(find(&t.inventory, "p.y").class, DataClass::ImmediateFmap);
        assert!(t.inventory.iter().any(|d| d.name == "p.enc.poolmap"));
    }
}
