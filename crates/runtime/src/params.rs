//! Learned-parameter storage, its one canonical tensor walk, and SGD.

use gist_graph::{Graph, GraphError, OpKind};
use gist_tensor::{init, Shape, Tensor};

/// Parameters of one node. Which op they belong to is the graph's `OpKind`,
/// not restated here.
#[derive(Debug, Clone)]
pub struct NodeParams {
    /// Conv/linear weight, or batch-norm scale.
    pub main: Tensor,
    /// Bias, or batch-norm shift, if the node has one.
    pub secondary: Option<Tensor>,
}

/// Gradients of one node's parameters: the same two tensors.
pub type ParamGrads = NodeParams;

/// The one body of the canonical order within a node — main, then
/// secondary — shared by the borrowing and the mutable walk.
macro_rules! walk {
    ($node:expr $(, $m:tt)?) => {
        std::iter::once(&$($m)? $node.main).chain(&$($m)? $node.secondary)
    };
}

impl NodeParams {
    /// This node's tensors: main, then secondary if present.
    pub fn tensors(&self) -> impl Iterator<Item = &Tensor> {
        walk!(self)
    }

    /// [`Self::tensors`], mutably.
    pub fn tensors_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        walk!(self, mut)
    }
}

/// The canonical walk over a per-node slot list — node ascending, main then
/// secondary — a [`ParamSet`]'s own or a gradient list as
/// `Executor::forward_backward` returns it. A gradient list skips nodes no
/// gradient reached and carries a bias gradient even for a bias-less layer,
/// so it pairs with parameters per node ([`sgd_update`]), not per position.
pub fn tensors(slots: &[Option<NodeParams>]) -> impl Iterator<Item = &Tensor> {
    slots.iter().flatten().flat_map(|p| p.tensors())
}

/// All parameters of a graph, indexed by node id.
#[derive(Debug, Clone)]
pub struct ParamSet {
    slots: Vec<Option<NodeParams>>,
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
        let slots = graph
            .nodes()
            .iter()
            .zip(param_shapes(graph)?)
            .map(|(node, shapes)| {
                let (&shape, rest) = shapes.split_first()?;
                let seed = seed ^ node.id.index() as u64;
                let main = match &node.op {
                    OpKind::Conv { .. } => {
                        init::kaiming_uniform(shape, shape.c() * shape.h() * shape.w(), seed)
                    }
                    OpKind::Linear { .. } => {
                        let (f_out, f_in) = shape.as_matrix();
                        init::xavier_uniform(shape, f_in, f_out, seed)
                    }
                    _ => Tensor::full(shape, 1.0),
                };
                Some(NodeParams { main, secondary: rest.first().map(|&s| Tensor::zeros(s)) })
            })
            .collect();
        Ok(ParamSet { slots })
    }

    /// Parameters of a node, if any.
    pub fn get(&self, index: usize) -> Option<&NodeParams> {
        self.slots.get(index).and_then(|p| p.as_ref())
    }

    /// Mutable parameters of a node.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut NodeParams> {
        self.slots.get_mut(index).and_then(|p| p.as_mut())
    }

    /// Every parameter tensor in canonical order ([`tensors`]). Snapshots
    /// and fingerprints iterate this and nothing else.
    pub fn tensors(&self) -> impl Iterator<Item = &Tensor> {
        tensors(&self.slots)
    }

    /// [`Self::tensors`], mutably.
    pub fn tensors_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        self.slots.iter_mut().flatten().flat_map(|p| p.tensors_mut())
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.tensors().map(Tensor::numel).sum()
    }

    /// Every parameter scalar's bit pattern, in walk order.
    pub fn bits(&self) -> impl Iterator<Item = u32> + '_ {
        self.tensors().flat_map(|t| t.data().iter().map(|v| v.to_bits()))
    }

    /// FNV-1a-style hash of `loss_bits` then [`Self::bits`], each word as
    /// little-endian bytes: the train fingerprint the CLI prints and the
    /// serve reports compare. The multiplier has one zero digit more than
    /// the standard 64-bit FNV prime; it stays because every committed
    /// fingerprint was hashed with it.
    pub fn fingerprint(&self, loss_bits: &[u32]) -> u64 {
        let words = loss_bits.iter().copied().chain(self.bits());
        words.flat_map(u32::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3)
        })
    }
}

/// Applies one SGD step: `p -= lr * g` for every parameter tensor of every
/// node that has a gradient.
pub fn sgd_update(params: &mut ParamSet, grads: &[Option<ParamGrads>], lr: f32) {
    for (p, g) in params.slots.iter_mut().zip(grads) {
        let (Some(p), Some(g)) = (p, g) else { continue };
        for (p, g) in p.tensors_mut().zip(g.tensors()) {
            p.add_scaled(g, -lr).expect("gradient shape");
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
        assert_eq!((0..g.len()).filter(|&i| p.get(i).is_some()).count(), 3);
        assert!(p.num_scalars() > 0);
    }

    #[test]
    fn init_is_deterministic() {
        let g = gist_models::tiny_convnet(2, 3);
        let a = ParamSet::init(&g, 7).unwrap();
        let b = ParamSet::init(&g, 7).unwrap();
        assert!(a.bits().eq(b.bits()));
        assert_eq!(a.fingerprint(&[1, 2]), b.fingerprint(&[1, 2]));
        assert_ne!(a.fingerprint(&[1, 2]), a.fingerprint(&[2, 1]));
    }

    #[test]
    fn walk_is_node_ascending_main_then_secondary() {
        let g = gist_models::resnet_cifar(1, 2);
        let p = ParamSet::init(&g, 1).unwrap();
        let mut by_hand = Vec::new();
        for i in 0..g.len() {
            if let Some(n) = p.get(i) {
                by_hand.push(n.main.shape());
                by_hand.extend(n.secondary.as_ref().map(Tensor::shape));
            }
        }
        assert_eq!(p.tensors().map(Tensor::shape).collect::<Vec<_>>(), by_hand);
    }

    #[test]
    fn resnet_gets_batchnorm_params() {
        let g = gist_models::resnet_cifar(1, 2);
        let p = ParamSet::init(&g, 1).unwrap();
        let mut seen = [false; 2];
        for n in g.nodes() {
            let i = n.id.index();
            match n.op {
                OpKind::BatchNorm => {
                    assert!(p.get(i).is_some_and(|n| n.secondary.is_some()));
                    seen[0] = true;
                }
                OpKind::Conv { .. } | OpKind::Linear { .. } => {
                    assert!(p.get(i).is_some());
                    seen[1] = true;
                }
                _ => assert!(p.get(i).is_none()),
            }
        }
        assert_eq!(seen, [true; 2]);
    }

    #[test]
    fn sgd_moves_weights_against_gradient_pairing_per_node() {
        // ResNet: bias-less convs, whose gradients still carry a `db`, and
        // every other parameterized node left without a gradient at all.
        let g = gist_models::resnet_cifar(1, 2);
        let mut p = ParamSet::init(&g, 7).unwrap();
        let before = p.clone();
        let ones = |shape| Tensor::full(shape, 1.0);
        let mut skip = false;
        let grads: Vec<Option<ParamGrads>> = (0..g.len())
            .map(|i| {
                let n = p.get(i)?;
                skip = !skip;
                let db = ones(Shape::vector(n.main.shape().n()));
                (!skip).then(|| NodeParams { main: ones(n.main.shape()), secondary: Some(db) })
            })
            .collect();
        sgd_update(&mut p, &grads, 0.5);
        let mut seen = [0, 0];
        for (i, grad) in grads.iter().enumerate() {
            let (Some(b), Some(a)) = (before.get(i), p.get(i)) else { continue };
            let step = if grad.is_some() { 0.5 } else { 0.0 };
            seen[usize::from(grad.is_some())] += 1;
            assert_eq!(b.secondary.is_some(), a.secondary.is_some());
            for (b, a) in b.tensors().zip(a.tensors()) {
                assert!(b.data().iter().zip(a.data()).all(|(b, a)| (b - a - step).abs() < 1e-6));
            }
        }
        assert!(seen[0] > 0 && seen[1] > 0, "nodes with and without a gradient: {seen:?}");
    }
}
