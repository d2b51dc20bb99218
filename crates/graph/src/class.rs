//! Classification of every training data structure.
//!
//! Reproduces the paper's Section II-A breakdown: weights, weight gradients,
//! **stashed feature maps** (generated in forward, used again in backward),
//! **immediately consumed** feature maps (generated and consumed within the
//! forward pass), gradient maps (generated and consumed within the backward
//! pass), and cuDNN-style workspace.

use crate::ir::{Graph, GraphError, NodeId, OpKind};
use crate::liveness::Interval;
use crate::sched::Schedule;
use gist_tensor::Shape;

/// The paper's data-structure taxonomy (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// Learned parameters.
    Weight,
    /// Parameter gradients accumulated in the backward pass.
    WeightGrad,
    /// Feature maps stashed in the forward pass for backward use.
    StashedFmap,
    /// Feature maps consumed entirely within the forward pass.
    ImmediateFmap,
    /// Backward-pass gradients w.r.t. feature maps, consumed immediately.
    GradientMap,
    /// Per-layer scratch memory (cuDNN workspace analogue).
    Workspace,
}

impl DataClass {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            DataClass::Weight => "weights",
            DataClass::WeightGrad => "weight gradients",
            DataClass::StashedFmap => "stashed feature maps",
            DataClass::ImmediateFmap => "immediately consumed",
            DataClass::GradientMap => "gradient maps",
            DataClass::Workspace => "workspace",
        }
    }
}

/// What a data structure is, relative to the graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TensorRole {
    /// The output feature map of a node.
    FeatureMap(NodeId),
    /// Learned parameters of a node (weights + bias together).
    Weight(NodeId),
    /// Gradient of the parameters of a node.
    WeightGrad(NodeId),
    /// Gradient w.r.t. the output feature map of a node.
    GradientMap(NodeId),
    /// Scratch space for a node's forward (`backward == false`) or backward
    /// pass.
    Workspace {
        /// Owning node.
        node: NodeId,
        /// Whether this is the backward-pass scratch.
        backward: bool,
    },
    /// A Gist-encoded stash (created by the Schedule Builder in `gist-core`).
    Encoded {
        /// Node whose feature map was encoded.
        node: NodeId,
        /// Encoding tag, e.g. `binarize`, `ssdc`, `dpr16`, `poolmap`.
        encoding: &'static str,
    },
    /// A decode buffer holding the FP32 reconstruction for backward use.
    Decoded(NodeId),
}

/// One allocatable training data structure with its size and lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct DataStructure {
    /// Human-readable name, e.g. `conv1.y` or `relu3.enc.binarize`.
    pub name: String,
    /// What the structure is.
    pub role: TensorRole,
    /// Which footprint class it belongs to.
    pub class: DataClass,
    /// Size in bytes.
    pub bytes: usize,
    /// Lifetime over the schedule.
    pub interval: Interval,
}

/// Scratch a convolution needs: one output row of the im2col matrix
/// (tiled implicit GEMM) — cuDNN's *memory-optimal* configuration, which
/// the paper uses as its baseline.
fn conv_workspace_bytes(in_shape: Shape, out_shape: Shape, kernel: usize) -> usize {
    in_shape.c() * kernel * kernel * out_shape.w() * 4
}

/// Whether the output feature map of `id` must be stashed for the backward
/// pass under baseline (no Gist) semantics.
pub fn is_stashed(graph: &Graph, id: NodeId) -> bool {
    let node = graph.node(id);
    if node.op.needs_output_in_backward() {
        return true;
    }
    graph.consumers(id).iter().any(|&c| graph.node(c).op.needs_input_in_backward())
}

/// Builds the complete baseline inventory of data structures for one
/// minibatch of training.
///
/// # Errors
///
/// Propagates shape-inference failures.
pub fn baseline_inventory(graph: &Graph) -> Result<Vec<DataStructure>, GraphError> {
    let shapes = graph.infer_shapes()?;
    let sched = Schedule::of(graph);
    let mut out = Vec::new();

    for node in graph.nodes() {
        let id = node.id;
        let shape = shapes[id.index()];
        let fwd = sched.forward_step(id);
        let consumers = graph.consumers(id);

        // --- Output feature map ---
        let stashed = is_stashed(graph, id);
        let interval = if stashed {
            let mut death = fwd;
            if node.op.needs_output_in_backward() {
                death = death.max(sched.backward_step(id));
            }
            for &c in &consumers {
                if graph.node(c).op.needs_input_in_backward() {
                    death = death.max(sched.backward_step(c));
                }
            }
            Interval::new(fwd, death)
        } else {
            let last_use = consumers.iter().map(|&c| sched.forward_step(c)).max().unwrap_or(fwd);
            Interval::new(fwd, last_use)
        };
        out.push(DataStructure {
            name: format!("{}.y", node.name),
            role: TensorRole::FeatureMap(id),
            class: if stashed { DataClass::StashedFmap } else { DataClass::ImmediateFmap },
            bytes: shape.bytes_fp32(),
            interval,
        });

        // --- Dropout keep mask (bit-packed auxiliary stash) ---
        if matches!(node.op, OpKind::Dropout { .. }) {
            out.push(DataStructure {
                name: format!("{}.mask", node.name),
                role: TensorRole::Encoded { node: id, encoding: "dropmask" },
                class: DataClass::StashedFmap,
                bytes: shape.numel().div_ceil(8),
                interval: Interval::new(fwd, sched.backward_step(id)),
            });
        }

        // --- Gradient map (dY) ---
        // Input images receive no gradient; every other node's dY is written
        // by its consumers' backward passes (or by the node itself for the
        // loss head) and read by the node's own backward pass.
        if !matches!(node.op, OpKind::Input(_)) {
            let own_bwd = sched.backward_step(id);
            let birth = consumers.iter().map(|&c| sched.backward_step(c)).min().unwrap_or(own_bwd);
            out.push(DataStructure {
                name: format!("{}.dy", node.name),
                role: TensorRole::GradientMap(id),
                class: DataClass::GradientMap,
                bytes: shape.bytes_fp32(),
                interval: Interval::new(birth.min(own_bwd), own_bwd),
            });
        }

        // --- Weights and weight gradients ---
        if let Some(ws) = graph.weight_shape(id, &shapes) {
            let bias_bytes = match &node.op {
                OpKind::Conv { out_channels, bias: true, .. } => out_channels * 4,
                OpKind::Linear { out_features, bias: true, .. } => out_features * 4,
                _ => 0,
            };
            let bytes = ws.bytes_fp32() + bias_bytes;
            out.push(DataStructure {
                name: format!("{}.w", node.name),
                role: TensorRole::Weight(id),
                class: DataClass::Weight,
                bytes,
                interval: Interval::new(0, sched.num_steps() - 1),
            });
            out.push(DataStructure {
                name: format!("{}.dw", node.name),
                role: TensorRole::WeightGrad(id),
                class: DataClass::WeightGrad,
                bytes,
                interval: Interval::new(sched.backward_step(id), sched.num_steps() - 1),
            });
        }

        // --- Workspace ---
        if let OpKind::Conv { params, .. } = &node.op {
            let in_shape = shapes[node.inputs[0].index()];
            let bytes = conv_workspace_bytes(in_shape, shape, params.kernel);
            out.push(DataStructure {
                name: format!("{}.ws.fwd", node.name),
                role: TensorRole::Workspace { node: id, backward: false },
                class: DataClass::Workspace,
                bytes,
                interval: Interval::new(fwd, fwd),
            });
            let b = sched.backward_step(id);
            out.push(DataStructure {
                name: format!("{}.ws.bwd", node.name),
                role: TensorRole::Workspace { node: id, backward: true },
                class: DataClass::Workspace,
                bytes,
                interval: Interval::new(b, b),
            });
        }
    }
    Ok(out)
}

/// Sums bytes per class over an inventory.
pub fn class_totals(inventory: &[DataStructure]) -> Vec<(DataClass, usize)> {
    let classes = [
        DataClass::Weight,
        DataClass::WeightGrad,
        DataClass::StashedFmap,
        DataClass::ImmediateFmap,
        DataClass::GradientMap,
        DataClass::Workspace,
    ];
    classes
        .iter()
        .map(|&c| (c, inventory.iter().filter(|d| d.class == c).map(|d| d.bytes).sum()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_tensor::ops::{conv::ConvParams, pool::PoolParams};

    fn tiny() -> Graph {
        let mut g = Graph::new("t");
        let x = g.input(Shape::nchw(2, 3, 8, 8));
        let c = g.conv(x, 4, ConvParams::new(3, 1, 1), true, "c1");
        let r = g.relu(c, "r1");
        let p = g.max_pool(r, PoolParams::new(2, 2, 0), "p1");
        let f = g.linear(p, 10, true, "fc");
        g.softmax_loss(f, "loss");
        g
    }

    fn find<'a>(inv: &'a [DataStructure], name: &str) -> &'a DataStructure {
        inv.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("missing {name}"))
    }

    #[test]
    fn relu_output_is_stashed_conv_output_is_not() {
        let g = tiny();
        let inv = baseline_inventory(&g).unwrap();
        // conv output feeds relu; relu does not need its input -> immediate...
        // except baseline maxpool stashes its own input, and relu's OUTPUT is
        // the pool's input. conv output itself is consumed by relu only.
        assert_eq!(find(&inv, "c1.y").class, DataClass::ImmediateFmap);
        assert_eq!(find(&inv, "r1.y").class, DataClass::StashedFmap);
        // input images are stashed: conv1 backward needs them for dW.
        assert_eq!(find(&inv, "input.y").class, DataClass::StashedFmap);
        // pool output feeds fc which needs its input.
        assert_eq!(find(&inv, "p1.y").class, DataClass::StashedFmap);
    }

    #[test]
    fn stashed_lifetime_spans_to_backward_use() {
        let g = tiny();
        let sched = Schedule::of(&g);
        let inv = baseline_inventory(&g).unwrap();
        let relu_id = g.nodes()[2].id;
        let pool_id = g.nodes()[3].id;
        let r = find(&inv, "r1.y");
        // relu output lives until max(relu's own backward, pool's backward);
        // relu backward is later (relu is earlier in the graph).
        assert_eq!(r.interval.start, sched.forward_step(relu_id));
        assert_eq!(r.interval.end, sched.backward_step(relu_id));
        assert!(sched.backward_step(relu_id) > sched.backward_step(pool_id));
    }

    #[test]
    fn immediate_fmap_dies_after_forward_consumer() {
        let g = tiny();
        let inv = baseline_inventory(&g).unwrap();
        let c = find(&inv, "c1.y");
        assert_eq!(c.interval, Interval::new(1, 2)); // born at conv, dies at relu
    }

    #[test]
    fn gradient_maps_live_within_backward() {
        let g = tiny();
        let sched = Schedule::of(&g);
        let inv = baseline_inventory(&g).unwrap();
        let dy = find(&inv, "r1.dy");
        let relu_id = g.nodes()[2].id;
        let pool_id = g.nodes()[3].id;
        // born when pool's backward writes it, dies when relu's backward reads it
        assert_eq!(
            dy.interval,
            Interval::new(sched.backward_step(pool_id), sched.backward_step(relu_id))
        );
    }

    #[test]
    fn weights_live_forever_grads_from_backward() {
        let g = tiny();
        let sched = Schedule::of(&g);
        let inv = baseline_inventory(&g).unwrap();
        let w = find(&inv, "c1.w");
        assert_eq!(w.interval, Interval::new(0, sched.num_steps() - 1));
        // conv weight: 4*3*3*3 floats + 4 bias floats
        assert_eq!(w.bytes, (4 * 3 * 3 * 3 + 4) * 4);
        let dw = find(&inv, "c1.dw");
        assert_eq!(dw.interval.start, sched.backward_step(g.nodes()[1].id));
    }

    #[test]
    fn class_totals_cover_all_structures() {
        let g = tiny();
        let inv = baseline_inventory(&g).unwrap();
        let totals = class_totals(&inv);
        let sum: usize = totals.iter().map(|(_, b)| b).sum();
        assert_eq!(sum, inv.iter().map(|d| d.bytes).sum::<usize>());
        let stashed = totals.iter().find(|(c, _)| *c == DataClass::StashedFmap).unwrap().1;
        assert!(stashed > 0);
    }

    #[test]
    fn avgpool_output_not_stashed_when_feeding_loss_free_ops() {
        // avgpool -> add path: neither needs input in backward, avgpool
        // doesn't need its own output.
        let mut g = Graph::new("a");
        let x = g.input(Shape::nchw(1, 2, 4, 4));
        let r = g.relu(x, "r");
        let p = g.avg_pool(r, PoolParams::new(2, 2, 0), "ap");
        let p2 = g.avg_pool(r, PoolParams::new(2, 2, 0), "ap2");
        g.add(p, p2, "sum");
        let inv = baseline_inventory(&g).unwrap();
        assert_eq!(find(&inv, "ap.y").class, DataClass::ImmediateFmap);
        // relu output: avgpool consumers don't need it, relu needs own output
        assert_eq!(find(&inv, "r.y").class, DataClass::StashedFmap);
    }
}
