//! Learned-parameter storage and SGD updates.

use gist_graph::{Graph, GraphError, OpKind};
use gist_tensor::{init, Shape, Tensor};

/// Parameters of one node.
#[derive(Debug, Clone)]
pub enum NodeParams {
    /// Convolution weights `[K, C, R, R]` and optional bias `[K]`.
    Conv {
        /// Filter weights.
        weight: Tensor,
        /// Per-filter bias.
        bias: Option<Tensor>,
    },
    /// Fully-connected weights `[F_out, F_in]` and optional bias.
    Linear {
        /// Weight matrix.
        weight: Tensor,
        /// Bias vector.
        bias: Option<Tensor>,
    },
    /// Batch-norm scale and shift, each `[C]`.
    BatchNorm {
        /// Per-channel scale.
        gamma: Tensor,
        /// Per-channel shift.
        beta: Tensor,
    },
}

/// All parameters of a graph, indexed by node id.
#[derive(Debug, Clone)]
pub struct ParamSet {
    params: Vec<Option<NodeParams>>,
}

/// Shapes of every node's learned-parameter tensors, indexed by node id:
/// weight-or-gamma first, then bias-or-beta if the node has one (empty for
/// parameterless nodes). The one derivation [`ParamSet::init`] fills and
/// the park-side bounds (`param_tensor_numels`) size from, so they cannot
/// disagree on layout.
///
/// # Errors
///
/// Propagates shape-inference failures.
pub(crate) fn param_shapes(graph: &Graph) -> Result<Vec<Vec<Shape>>, GraphError> {
    let shapes = graph.infer_shapes()?;
    let with_bias = |main: Shape, bias: bool, len: usize| {
        std::iter::once(main).chain(bias.then(|| Shape::vector(len))).collect()
    };
    Ok(graph
        .nodes()
        .iter()
        .map(|node| {
            let x = node.inputs.first().map(|p| shapes[p.index()]);
            match (&node.op, x) {
                (OpKind::Conv { out_channels: k, params: cp, bias }, Some(x)) => {
                    with_bias(Shape::nchw(*k, x.c(), cp.kernel, cp.kernel), *bias, *k)
                }
                (OpKind::Linear { out_features: f, bias }, Some(x)) => {
                    with_bias(Shape::matrix(*f, x.as_matrix().1), *bias, *f)
                }
                (OpKind::BatchNorm, Some(x)) => with_bias(Shape::vector(x.c()), true, x.c()),
                _ => Vec::new(),
            }
        })
        .collect())
}

impl ParamSet {
    /// Initializes parameters for every parameterized node, deterministically
    /// from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures.
    pub fn init(graph: &Graph, seed: u64) -> Result<Self, GraphError> {
        let params = graph
            .nodes()
            .iter()
            .zip(param_shapes(graph)?)
            .map(|(node, shapes)| {
                let (&main, rest) = shapes.split_first()?;
                let seed = seed ^ node.id.index() as u64;
                let bias = rest.first().map(|&shape| Tensor::zeros(shape));
                Some(match &node.op {
                    OpKind::Conv { .. } => {
                        let fan_in = main.c() * main.h() * main.w();
                        NodeParams::Conv { weight: init::kaiming_uniform(main, fan_in, seed), bias }
                    }
                    OpKind::Linear { .. } => {
                        let (f_out, f_in) = main.as_matrix();
                        let weight = init::xavier_uniform(main, f_in, f_out, seed);
                        NodeParams::Linear { weight, bias }
                    }
                    _ => NodeParams::BatchNorm {
                        gamma: Tensor::full(main, 1.0),
                        beta: bias.expect("batch-norm has a shift"),
                    },
                })
            })
            .collect();
        Ok(ParamSet { params })
    }

    /// Parameters of a node, if any.
    pub fn get(&self, index: usize) -> Option<&NodeParams> {
        self.params.get(index).and_then(|p| p.as_ref())
    }

    /// Mutable parameters of a node.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut NodeParams> {
        self.params.get_mut(index).and_then(|p| p.as_mut())
    }

    /// Number of parameterized nodes.
    pub fn num_parameterized(&self) -> usize {
        self.params.iter().filter(|p| p.is_some()).count()
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.params
            .iter()
            .flatten()
            .map(|p| match p {
                NodeParams::Conv { weight, bias } => {
                    weight.numel() + bias.as_ref().map_or(0, Tensor::numel)
                }
                NodeParams::Linear { weight, bias } => {
                    weight.numel() + bias.as_ref().map_or(0, Tensor::numel)
                }
                NodeParams::BatchNorm { gamma, beta } => gamma.numel() + beta.numel(),
            })
            .sum()
    }
}

/// Gradients of one node's parameters (same layout as [`NodeParams`]).
#[derive(Debug, Clone)]
pub struct ParamGrads {
    /// Gradient tensors: `(weight-or-gamma, bias-or-beta)`.
    pub main: Tensor,
    /// Secondary gradient (bias / beta), if the node has one.
    pub secondary: Option<Tensor>,
}

/// Applies one SGD step: `p -= lr * g` for every parameterized node.
pub fn sgd_update(params: &mut ParamSet, grads: &[Option<ParamGrads>], lr: f32) {
    for (p, g) in params.params.iter_mut().zip(grads) {
        let (Some(p), Some(g)) = (p, g) else { continue };
        match p {
            NodeParams::Conv { weight, bias } | NodeParams::Linear { weight, bias } => {
                weight.add_scaled(&g.main, -lr).expect("weight grad shape");
                if let (Some(b), Some(db)) = (bias, &g.secondary) {
                    b.add_scaled(db, -lr).expect("bias grad shape");
                }
            }
            NodeParams::BatchNorm { gamma, beta } => {
                gamma.add_scaled(&g.main, -lr).expect("gamma grad shape");
                if let Some(db) = &g.secondary {
                    beta.add_scaled(db, -lr).expect("beta grad shape");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_covers_all_parameterized_nodes() {
        let g = gist_models::tiny_convnet(2, 3);
        let p = ParamSet::init(&g, 7).unwrap();
        // conv1, conv2, fc
        assert_eq!(p.num_parameterized(), 3);
        assert!(p.num_scalars() > 0);
    }

    #[test]
    fn init_is_deterministic() {
        let g = gist_models::tiny_convnet(2, 3);
        let a = ParamSet::init(&g, 7).unwrap();
        let b = ParamSet::init(&g, 7).unwrap();
        for i in 0..g.len() {
            match (a.get(i), b.get(i)) {
                (
                    Some(NodeParams::Conv { weight: wa, .. }),
                    Some(NodeParams::Conv { weight: wb, .. }),
                ) => {
                    assert_eq!(wa, wb)
                }
                (None, None) => {}
                _ => {}
            }
        }
    }

    #[test]
    fn resnet_gets_batchnorm_params() {
        let g = gist_models::resnet_cifar(1, 2);
        let p = ParamSet::init(&g, 1).unwrap();
        let bn_count = g.nodes().iter().filter(|n| matches!(n.op, OpKind::BatchNorm)).count();
        assert!(bn_count > 0);
        let has_bn_params = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, OpKind::BatchNorm))
            .all(|n| matches!(p.get(n.id.index()), Some(NodeParams::BatchNorm { .. })));
        assert!(has_bn_params);
    }

    #[test]
    fn sgd_moves_weights_against_gradient() {
        let g = gist_models::tiny_convnet(2, 3);
        let mut p = ParamSet::init(&g, 7).unwrap();
        let conv_idx = g.nodes().iter().position(|n| n.name == "conv1").unwrap();
        let before = match p.get(conv_idx).unwrap() {
            NodeParams::Conv { weight, .. } => weight.clone(),
            _ => unreachable!(),
        };
        let mut grads: Vec<Option<ParamGrads>> = vec![None; g.len()];
        grads[conv_idx] =
            Some(ParamGrads { main: Tensor::full(before.shape(), 1.0), secondary: None });
        sgd_update(&mut p, &grads, 0.5);
        let after = match p.get(conv_idx).unwrap() {
            NodeParams::Conv { weight, .. } => weight.clone(),
            _ => unreachable!(),
        };
        for (b, a) in before.data().iter().zip(after.data()) {
            assert!((b - a - 0.5).abs() < 1e-6);
        }
    }
}
