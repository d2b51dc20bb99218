//! Graph intermediate representation and builder.

use gist_tensor::ops::conv::ConvParams;
use gist_tensor::ops::lrn::LrnParams;
use gist_tensor::ops::pool::{PoolParams, MAX_MAP_WINDOW};
use gist_tensor::Shape;
use std::fmt;

/// Identifier of a node in a [`Graph`]. Node ids double as the id of the
/// feature map the node produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Creates a node id from a raw index. Only meaningful for ids obtained
    /// from (or about to be validated against) a specific [`Graph`].
    pub fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The underlying index into [`Graph::nodes`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The operation a node performs.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Network input (images); carries its full NCHW shape.
    Input(Shape),
    /// 2-D convolution with `out_channels` filters.
    Conv {
        /// Number of output channels (filters).
        out_channels: usize,
        /// Kernel/stride/pad geometry.
        params: ConvParams,
        /// Whether a bias vector is learned.
        bias: bool,
    },
    /// Rectified linear activation.
    Relu,
    /// Max pooling.
    MaxPool(PoolParams),
    /// Average pooling.
    AvgPool(PoolParams),
    /// Fully-connected layer producing `out_features` per image.
    Linear {
        /// Output feature count.
        out_features: usize,
        /// Whether a bias vector is learned.
        bias: bool,
    },
    /// Spatial batch normalization (per-channel scale and shift).
    BatchNorm,
    /// Cross-channel Local Response Normalization (original AlexNet/NiN).
    Lrn(LrnParams),
    /// Inverted dropout with the given drop probability; the keep mask is
    /// stashed (bit-packed) for the backward pass.
    Dropout {
        /// Probability of dropping each element.
        p: f32,
    },
    /// Elementwise residual addition of exactly two inputs.
    Add,
    /// Channel-wise concatenation of two or more inputs.
    Concat,
    /// Softmax + cross-entropy loss against labels supplied at runtime.
    SoftmaxLoss,
}

impl OpKind {
    /// Whether this op's backward pass reads the op's stashed *input*
    /// feature map (the `X` of Figure 4 in the paper).
    pub fn needs_input_in_backward(&self) -> bool {
        matches!(
            self,
            OpKind::Conv { .. }
                | OpKind::Linear { .. }
                | OpKind::BatchNorm
                | OpKind::Lrn(_)
                // Baseline CNTK max-pool stashes both X and Y to locate the
                // window maxima (Section IV-A).
                | OpKind::MaxPool(_)
                | OpKind::SoftmaxLoss
        )
    }

    /// Whether this op's backward kernel decodes the stash of `inputs[0]`
    /// at runtime. Narrower than [`Self::needs_input_in_backward`]: MaxPool
    /// recovers its routing from the stashed argmax, so its input's stash
    /// is metadata only and never read back.
    pub fn reads_input_stash(&self) -> bool {
        self.needs_input_in_backward() && !matches!(self, OpKind::MaxPool(_))
    }

    /// Whether this op's backward kernel reads the stash of `inputs[0]` as
    /// one whole dense map (linear, batch-norm, LRN, the loss). Narrower
    /// than [`Self::reads_input_stash`]: conv lowers its input to columns
    /// one channel plane at a time.
    pub fn reads_whole_input_stash(&self) -> bool {
        self.reads_input_stash() && !matches!(self, OpKind::Conv { .. })
    }

    /// Whether this op's backward pass reads the op's stashed *output*
    /// feature map (the `Y` of Figure 4).
    pub fn needs_output_in_backward(&self) -> bool {
        matches!(self, OpKind::Relu | OpKind::MaxPool(_))
    }

    /// Short lowercase tag used in display output.
    pub fn tag(&self) -> &'static str {
        match self {
            OpKind::Input(_) => "input",
            OpKind::Conv { .. } => "conv",
            OpKind::Relu => "relu",
            OpKind::MaxPool(_) => "maxpool",
            OpKind::AvgPool(_) => "avgpool",
            OpKind::Linear { .. } => "linear",
            OpKind::BatchNorm => "batchnorm",
            OpKind::Lrn(_) => "lrn",
            OpKind::Dropout { .. } => "dropout",
            OpKind::Add => "add",
            OpKind::Concat => "concat",
            OpKind::SoftmaxLoss => "softmaxloss",
        }
    }
}

/// A single operation in the execution graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Human-readable layer name (e.g., `conv1_1`).
    pub name: String,
    /// The operation performed.
    pub op: OpKind,
    /// Producer nodes whose outputs this node consumes.
    pub inputs: Vec<NodeId>,
}

impl Node {
    /// The producers this node's backward pass contributes a gradient to,
    /// in the order the backward kernels emit them.
    pub fn backward_targets(&self) -> &[NodeId] {
        match &self.op {
            OpKind::Input(_) => &[],
            OpKind::Add | OpKind::Concat => &self.inputs,
            _ => &self.inputs[..1],
        }
    }
}

/// Errors from graph construction and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node references an input id that does not exist (or is not older
    /// than itself).
    InvalidInput {
        /// Offending node.
        node: String,
        /// The bad reference.
        input: usize,
    },
    /// Shape inference failed at a node.
    ShapeInference {
        /// Node where inference failed.
        node: String,
        /// Explanation.
        reason: String,
    },
    /// The graph has no nodes.
    Empty,
    /// A node has the wrong number of inputs for its op.
    Arity {
        /// Offending node name.
        node: String,
        /// Inputs the op requires (described).
        expected: &'static str,
        /// Inputs actually wired.
        actual: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidInput { node, input } => {
                write!(f, "node {node} references invalid input n{input}")
            }
            GraphError::ShapeInference { node, reason } => {
                write!(f, "shape inference failed at {node}: {reason}")
            }
            GraphError::Empty => write!(f, "graph is empty"),
            GraphError::Arity { node, expected, actual } => {
                write!(f, "node {node} expects {expected} inputs, has {actual}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A CNTK-style static execution graph.
///
/// Nodes are appended in topological order by construction: every builder
/// method only accepts ids of already-existing nodes, so `nodes[i].inputs`
/// always reference indices `< i`.
#[derive(Debug, Clone)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph with a model name.
    pub fn new(name: impl Into<String>) -> Self {
        Graph { name: name.into(), nodes: Vec::new() }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Ids of the nodes that consume `id`'s output.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.inputs.contains(&id)).map(|n| n.id).collect()
    }

    fn push(&mut self, op: OpKind, inputs: Vec<NodeId>, name: impl Into<String>) -> NodeId {
        for &i in &inputs {
            assert!(i.0 < self.nodes.len(), "input {i} must already exist");
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { id, name: name.into(), op, inputs });
        id
    }

    /// Adds a network input of the given NCHW shape.
    pub fn input(&mut self, shape: Shape) -> NodeId {
        self.push(OpKind::Input(shape), vec![], "input")
    }

    /// Adds a convolution layer.
    pub fn conv(
        &mut self,
        x: NodeId,
        out_channels: usize,
        params: ConvParams,
        bias: bool,
        name: impl Into<String>,
    ) -> NodeId {
        self.push(OpKind::Conv { out_channels, params, bias }, vec![x], name)
    }

    /// Adds a ReLU activation.
    pub fn relu(&mut self, x: NodeId, name: impl Into<String>) -> NodeId {
        self.push(OpKind::Relu, vec![x], name)
    }

    /// Adds a max-pool layer.
    pub fn max_pool(&mut self, x: NodeId, params: PoolParams, name: impl Into<String>) -> NodeId {
        self.push(OpKind::MaxPool(params), vec![x], name)
    }

    /// Adds an average-pool layer.
    pub fn avg_pool(&mut self, x: NodeId, params: PoolParams, name: impl Into<String>) -> NodeId {
        self.push(OpKind::AvgPool(params), vec![x], name)
    }

    /// Adds a fully-connected layer.
    pub fn linear(
        &mut self,
        x: NodeId,
        out_features: usize,
        bias: bool,
        name: impl Into<String>,
    ) -> NodeId {
        self.push(OpKind::Linear { out_features, bias }, vec![x], name)
    }

    /// Adds a batch-normalization layer.
    pub fn batch_norm(&mut self, x: NodeId, name: impl Into<String>) -> NodeId {
        self.push(OpKind::BatchNorm, vec![x], name)
    }

    /// Adds a cross-channel LRN layer.
    pub fn lrn(&mut self, x: NodeId, params: LrnParams, name: impl Into<String>) -> NodeId {
        self.push(OpKind::Lrn(params), vec![x], name)
    }

    /// Adds an inverted-dropout layer with drop probability `p`.
    pub fn dropout(&mut self, x: NodeId, p: f32, name: impl Into<String>) -> NodeId {
        self.push(OpKind::Dropout { p }, vec![x], name)
    }

    /// Adds a residual addition of two equal-shaped inputs.
    pub fn add(&mut self, a: NodeId, b: NodeId, name: impl Into<String>) -> NodeId {
        self.push(OpKind::Add, vec![a, b], name)
    }

    /// Adds a channel concatenation.
    pub fn concat(&mut self, inputs: &[NodeId], name: impl Into<String>) -> NodeId {
        self.push(OpKind::Concat, inputs.to_vec(), name)
    }

    /// Adds the softmax + cross-entropy loss head.
    pub fn softmax_loss(&mut self, x: NodeId, name: impl Into<String>) -> NodeId {
        self.push(OpKind::SoftmaxLoss, vec![x], name)
    }

    /// Structural validation: every op has the arity it requires, and the
    /// graph has at least one input node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] or [`GraphError::Arity`] on the first
    /// violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let arity_err = |node: &Node, expected: &'static str| GraphError::Arity {
            node: node.name.clone(),
            expected,
            actual: node.inputs.len(),
        };
        for node in &self.nodes {
            let n = node.inputs.len();
            match &node.op {
                OpKind::Input(_) => {
                    if n != 0 {
                        return Err(arity_err(node, "zero"));
                    }
                }
                OpKind::Add => {
                    if n != 2 {
                        return Err(arity_err(node, "exactly two"));
                    }
                }
                OpKind::Concat => {
                    if n < 2 {
                        return Err(arity_err(node, "two or more"));
                    }
                }
                _ => {
                    if n != 1 {
                        return Err(arity_err(node, "exactly one"));
                    }
                }
            }
        }
        if !self.nodes.iter().any(|nd| matches!(nd.op, OpKind::Input(_))) {
            return Err(GraphError::Empty);
        }
        Ok(())
    }

    /// Infers the output shape of every node, indexed by node id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ShapeInference`] if any node's inputs are
    /// incompatible with its op, or [`GraphError::Empty`] for an empty graph.
    pub fn infer_shapes(&self) -> Result<Vec<Shape>, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut shapes: Vec<Shape> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let err =
                |reason: String| GraphError::ShapeInference { node: node.name.clone(), reason };
            let input_shape = |i: usize| -> Shape { shapes[node.inputs[i].0] };
            let s = match &node.op {
                OpKind::Input(s) => *s,
                OpKind::Conv { out_channels, params, .. } => {
                    let x = input_shape(0);
                    if !params.fits(x.h(), x.w()) {
                        return Err(err(format!(
                            "kernel {} stride {} pad {} does not fit {x}",
                            params.kernel, params.stride, params.pad
                        )));
                    }
                    params.out_shape(x, *out_channels)
                }
                OpKind::Relu | OpKind::BatchNorm | OpKind::Lrn(_) | OpKind::Dropout { .. } => {
                    input_shape(0)
                }
                OpKind::MaxPool(p) | OpKind::AvgPool(p) => {
                    let x = input_shape(0);
                    if !p.fits(x.h(), x.w()) {
                        return Err(err(format!(
                            "window {} stride {} pad {} does not fit {x}",
                            p.window, p.stride, p.pad
                        )));
                    }
                    if matches!(node.op, OpKind::MaxPool(_)) && !p.map_fits() {
                        return Err(err(format!(
                            "max-pool window {} exceeds the Y→X map's {MAX_MAP_WINDOW}",
                            p.window
                        )));
                    }
                    p.out_shape(x)
                }
                OpKind::Linear { out_features, .. } => {
                    let (n, _) = input_shape(0).as_matrix();
                    Shape::matrix(n, *out_features)
                }
                OpKind::Add => {
                    let (a, b) = (input_shape(0), input_shape(1));
                    if a != b {
                        return Err(err(format!("add of {a} and {b}")));
                    }
                    a
                }
                OpKind::Concat => {
                    let first = input_shape(0);
                    let mut c = 0;
                    for (i, _) in node.inputs.iter().enumerate() {
                        let s = input_shape(i);
                        if (s.n(), s.h(), s.w()) != (first.n(), first.h(), first.w()) {
                            return Err(err(format!("concat of {s} with {first}")));
                        }
                        c += s.c();
                    }
                    Shape::nchw(first.n(), c, first.h(), first.w())
                }
                OpKind::SoftmaxLoss => {
                    let (n, k) = input_shape(0).as_matrix();
                    Shape::matrix(n, k)
                }
            };
            shapes.push(s);
        }
        Ok(shapes)
    }

    /// Shape of the learned weight tensor of a node, if it has one.
    ///
    /// For conv: `[K, C, R, R]`; linear: `[F_out, F_in]`; batch-norm: the
    /// gamma/beta pair reported as `[2, C]`.
    pub fn weight_shape(&self, id: NodeId, shapes: &[Shape]) -> Option<Shape> {
        let node = &self.nodes[id.0];
        match &node.op {
            OpKind::Conv { out_channels, params, .. } => {
                let x = shapes[node.inputs[0].0];
                Some(Shape::nchw(*out_channels, x.c(), params.kernel, params.kernel))
            }
            OpKind::Linear { out_features, .. } => {
                let (_, f_in) = shapes[node.inputs[0].0].as_matrix();
                Some(Shape::matrix(*out_features, f_in))
            }
            OpKind::BatchNorm => {
                let x = shapes[node.inputs[0].0];
                Some(Shape::matrix(2, x.c()))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn builder_creates_topological_order() {
        let g = tiny();
        assert_eq!(g.len(), 6);
        for n in g.nodes() {
            for i in &n.inputs {
                assert!(i.index() < n.id.index());
            }
        }
    }

    #[test]
    fn shape_inference_through_the_stack() {
        let g = tiny();
        let s = g.infer_shapes().unwrap();
        assert_eq!(s[1], Shape::nchw(2, 4, 8, 8)); // conv
        assert_eq!(s[2], Shape::nchw(2, 4, 8, 8)); // relu
        assert_eq!(s[3], Shape::nchw(2, 4, 4, 4)); // pool
        assert_eq!(s[4], Shape::matrix(2, 10)); // fc
    }

    #[test]
    fn consumers_finds_forward_edges() {
        let g = tiny();
        assert_eq!(g.consumers(NodeId(2)), vec![NodeId(3)]);
        assert!(g.consumers(NodeId(5)).is_empty());
    }

    #[test]
    fn weight_shapes() {
        let g = tiny();
        let s = g.infer_shapes().unwrap();
        assert_eq!(g.weight_shape(NodeId(1), &s), Some(Shape::nchw(4, 3, 3, 3)));
        assert_eq!(g.weight_shape(NodeId(4), &s), Some(Shape::matrix(10, 4 * 4 * 4)));
        assert_eq!(g.weight_shape(NodeId(2), &s), None);
    }

    #[test]
    fn add_requires_equal_shapes() {
        let mut g = Graph::new("bad");
        let x = g.input(Shape::nchw(1, 2, 4, 4));
        let y = g.input(Shape::nchw(1, 3, 4, 4));
        g.add(x, y, "sum");
        assert!(matches!(g.infer_shapes(), Err(GraphError::ShapeInference { .. })));
    }

    /// Zero stride, zero kernel/window and a kernel wider than the padded
    /// input are typed errors at every entry that takes the geometry from
    /// outside — none may reach `out_hw`'s division.
    #[test]
    fn degenerate_geometry_is_a_typed_error_everywhere() {
        use gist_tensor::ops::{conv, pool};
        use gist_tensor::{ScratchPool, Tensor, TensorError};
        // (kernel/window, stride, pad, input h = w)
        for (k, stride, pad, hw) in [(3, 0, 1, 8), (0, 1, 0, 8), (0, 0, 0, 8), (5, 1, 0, 4)] {
            let case = format!("k={k} stride={stride} pad={pad} hw={hw}");
            let unsupported = |r: Result<(), TensorError>| {
                assert!(matches!(r, Err(TensorError::UnsupportedShape(_))), "{case}: {r:?}");
            };
            let x = Tensor::zeros(Shape::nchw(1, 2, hw, hw));
            let mut out = Tensor::zeros(x.shape());
            let (cp, pp) = (ConvParams::new(k, stride, pad), PoolParams::new(k, stride, pad));

            let w = Tensor::zeros(Shape::nchw(3, 2, k, k));
            unsupported(conv::forward_into(&x, &w, None, cp, &mut out));
            let scratch = ScratchPool::new();
            unsupported(conv::backward_with_into(&x, &w, &x, cp, &scratch, &mut out).map(drop));
            unsupported(pool::maxpool_forward_into(&x, pp, &mut out).map(drop));
            unsupported(pool::avgpool_forward_into(&x, pp, &mut out));
            unsupported(pool::maxpool_backward_into(x.shape(), &[], &x, pp, &mut out));
            unsupported(pool::avgpool_backward_into(x.shape(), &x, pp, &mut out));

            for pooled in [false, true] {
                let mut g = Graph::new("bad");
                let i = g.input(x.shape());
                if pooled {
                    g.max_pool(i, pp, "p");
                } else {
                    g.conv(i, 3, cp, false, "c");
                }
                let r = g.infer_shapes();
                assert!(matches!(r, Err(GraphError::ShapeInference { .. })), "{case}: {r:?}");
            }
        }
    }

    /// A max-pool window wider than 16 would wrap its `u8` map entries, so
    /// shape inference rejects it; average pooling keeps no map and takes it.
    #[test]
    fn max_pool_window_is_bounded_by_its_map() {
        for (window, max_ok) in [(16, true), (17, false)] {
            for max in [true, false] {
                let mut g = Graph::new("wide");
                let x = g.input(Shape::nchw(1, 2, 17, 17));
                let p = PoolParams::new(window, 1, 0);
                if max {
                    g.max_pool(x, p, "p");
                } else {
                    g.avg_pool(x, p, "p");
                }
                let r = g.infer_shapes();
                if max && !max_ok {
                    assert!(matches!(r, Err(GraphError::ShapeInference { .. })), "{r:?}");
                } else {
                    let (oh, ow) = p.out_hw(17, 17);
                    assert_eq!(r.unwrap()[1], Shape::nchw(1, 2, oh, ow), "window {window}");
                }
            }
        }
    }

    #[test]
    fn concat_sums_channels() {
        let mut g = Graph::new("cc");
        let a = g.input(Shape::nchw(1, 2, 4, 4));
        let b = g.input(Shape::nchw(1, 5, 4, 4));
        let c = g.concat(&[a, b], "cat");
        let s = g.infer_shapes().unwrap();
        assert_eq!(s[c.index()], Shape::nchw(1, 7, 4, 4));
    }

    #[test]
    fn backward_needs_match_the_paper_figure4() {
        // Figure 4: conv needs X; relu needs Y; baseline maxpool needs both.
        let conv = OpKind::Conv { out_channels: 1, params: ConvParams::new(1, 1, 0), bias: false };
        assert!(conv.needs_input_in_backward());
        assert!(conv.reads_input_stash() && !conv.reads_whole_input_stash());
        assert!(!OpKind::Relu.needs_input_in_backward());
        assert!(OpKind::BatchNorm.reads_input_stash() && !OpKind::Relu.reads_input_stash());
        assert!(OpKind::BatchNorm.reads_whole_input_stash());
        assert!(OpKind::Relu.needs_output_in_backward());
        let mp = OpKind::MaxPool(PoolParams::new(2, 2, 0));
        assert!(mp.needs_input_in_backward() && mp.needs_output_in_backward());
        let ap = OpKind::AvgPool(PoolParams::new(2, 2, 0));
        assert!(!ap.needs_input_in_backward() && !ap.needs_output_in_backward());
    }

    #[test]
    fn empty_graph_is_an_error() {
        assert_eq!(Graph::new("e").infer_shapes().unwrap_err(), GraphError::Empty);
        assert_eq!(Graph::new("e").validate().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn validate_accepts_wellformed_and_rejects_bad_arity() {
        assert!(tiny().validate().is_ok());
        // Concat with a single input is malformed.
        let mut g = Graph::new("bad");
        let x = g.input(Shape::nchw(1, 1, 2, 2));
        g.concat(&[x], "cat1");
        assert!(matches!(g.validate(), Err(GraphError::Arity { .. })));
    }
}
