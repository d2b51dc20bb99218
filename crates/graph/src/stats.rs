//! Per-node compute and memory-traffic statistics.
//!
//! These feed the analytic GPU performance model in `gist-perf` (Figures 9,
//! 15, 16): each layer's execution time is estimated roofline-style from its
//! floating-point operations and bytes moved.

use crate::ir::{Graph, GraphError, NodeId, OpKind};
use gist_tensor::Shape;

/// Compute/traffic statistics for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStats {
    /// Node these stats describe.
    pub id: NodeId,
    /// Forward-pass floating-point operations.
    pub fwd_flops: f64,
    /// Backward-pass floating-point operations.
    pub bwd_flops: f64,
    /// Forward-pass bytes read + written (activations and weights).
    pub fwd_bytes: f64,
    /// Backward-pass bytes read + written.
    pub bwd_bytes: f64,
}

/// Computes statistics for every node.
///
/// # Errors
///
/// Propagates shape-inference failures.
pub fn node_stats(graph: &Graph) -> Result<Vec<NodeStats>, GraphError> {
    let shapes = graph.infer_shapes()?;
    let mut out = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        let y: Shape = shapes[node.id.index()];
        let x: Option<Shape> = node.inputs.first().map(|&i| shapes[i.index()]);
        let in_bytes: f64 =
            node.inputs.iter().map(|&i| shapes[i.index()].bytes_fp32() as f64).sum();
        let out_bytes = y.bytes_fp32() as f64;
        let (fwd_flops, bwd_flops) = match &node.op {
            OpKind::Input(_) => (0.0, 0.0),
            OpKind::Conv { out_channels, params, .. } => {
                let x = x.expect("conv has input");
                let macs = (*out_channels as f64)
                    * (x.c() * params.kernel * params.kernel) as f64
                    * (y.h() * y.w() * y.n()) as f64;
                // backward: dX and dW each cost about one forward conv.
                (2.0 * macs, 4.0 * macs)
            }
            OpKind::Linear { out_features, .. } => {
                let x = x.expect("linear has input");
                let (n, f_in) = x.as_matrix();
                let macs = (n * f_in * out_features) as f64;
                (2.0 * macs, 4.0 * macs)
            }
            OpKind::Relu => (y.numel() as f64, y.numel() as f64),
            OpKind::MaxPool(p) | OpKind::AvgPool(p) => {
                let cmp = (p.window * p.window) as f64 * y.numel() as f64;
                (cmp, y.numel() as f64)
            }
            OpKind::BatchNorm => (6.0 * y.numel() as f64, 10.0 * y.numel() as f64),
            OpKind::Lrn(p) => {
                let win = p.size as f64;
                (3.0 * win * y.numel() as f64, 4.0 * win * y.numel() as f64)
            }
            OpKind::Dropout { .. } => (y.numel() as f64, y.numel() as f64),
            OpKind::Add => (y.numel() as f64, 0.0),
            OpKind::Concat => (0.0, 0.0),
            OpKind::SoftmaxLoss => (5.0 * y.numel() as f64, 2.0 * y.numel() as f64),
        };
        let weight_bytes =
            graph.weight_shape(node.id, &shapes).map(|w| w.bytes_fp32() as f64).unwrap_or(0.0);
        let fwd_bytes = in_bytes + out_bytes + weight_bytes;
        // backward reads stashes + dY, writes dX (+dW).
        let bwd_bytes = in_bytes + 2.0 * out_bytes + 2.0 * weight_bytes;
        out.push(NodeStats { id: node.id, fwd_flops, bwd_flops, fwd_bytes, bwd_bytes });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_tensor::ops::{conv::ConvParams, pool::PoolParams};

    #[test]
    fn conv_flops_formula() {
        let mut g = Graph::new("f");
        let x = g.input(Shape::nchw(1, 3, 8, 8));
        g.conv(x, 16, ConvParams::new(3, 1, 1), false, "c");
        let st = node_stats(&g).unwrap();
        // 2 * K*C*R*R*OH*OW*N = 2 * 16*3*9 * 64
        assert_eq!(st[1].fwd_flops, 2.0 * 16.0 * 27.0 * 64.0);
        assert_eq!(st[1].bwd_flops, 2.0 * st[1].fwd_flops);
    }

    #[test]
    fn linear_flops_formula() {
        let mut g = Graph::new("f");
        let x = g.input(Shape::nchw(4, 1, 1, 100));
        g.linear(x, 10, false, "fc");
        let st = node_stats(&g).unwrap();
        assert_eq!(st[1].fwd_flops, 2.0 * 4.0 * 100.0 * 10.0);
    }

    #[test]
    fn conv_layers_dominate_flops() {
        let mut g = Graph::new("d");
        let x = g.input(Shape::nchw(8, 3, 32, 32));
        let c = g.conv(x, 64, ConvParams::new(3, 1, 1), true, "c");
        let r = g.relu(c, "r");
        g.max_pool(r, PoolParams::new(2, 2, 0), "p");
        let st = node_stats(&g).unwrap();
        assert!(st[1].fwd_flops > 10.0 * st[2].fwd_flops);
    }

    #[test]
    fn bytes_are_positive_for_compute_nodes() {
        let mut g = Graph::new("b");
        let x = g.input(Shape::nchw(1, 3, 8, 8));
        let c = g.conv(x, 4, ConvParams::new(3, 1, 1), true, "c");
        g.relu(c, "r");
        for s in node_stats(&g).unwrap().iter().skip(1) {
            assert!(s.fwd_bytes > 0.0 && s.bwd_bytes > 0.0);
        }
    }
}
