#![warn(missing_docs)]

//! # gist-graph
//!
//! The execution-graph substrate: a CNTK-like directed graph of layer
//! operations with static shape inference, a forward+backward schedule,
//! classification of every training data structure (weights, weight
//! gradients, **stashed feature maps**, **immediately consumed** feature
//! maps, gradient maps, workspace), liveness analysis over the schedule, and
//! detection of the layer pairs Gist's encodings target (ReLU→Pool,
//! ReLU→Conv, Pool→Conv).
//!
//! The paper's memory results are all functions of (shapes × lifetimes ×
//! allocator policy); this crate computes the first two exactly.
//!
//! ```
//! use gist_graph::Graph;
//! use gist_tensor::Shape;
//! use gist_tensor::ops::{conv::ConvParams, pool::PoolParams};
//!
//! let mut g = Graph::new("tiny");
//! let x = g.input(Shape::nchw(64, 3, 32, 32));
//! let c = g.conv(x, 16, ConvParams::new(3, 1, 1), true, "conv1");
//! let r = g.relu(c, "relu1");
//! let p = g.max_pool(r, PoolParams::new(2, 2, 0), "pool1");
//! let f = g.linear(p, 10, true, "fc");
//! let _loss = g.softmax_loss(f, "loss");
//! let shapes = g.infer_shapes().unwrap();
//! assert_eq!(shapes[p.index()].c(), 16);
//! ```

pub mod class;
pub mod dot;
pub mod ir;
pub mod liveness;
pub mod patterns;
pub mod sched;
pub mod stats;

pub use class::{DataClass, DataStructure, TensorRole};
pub use ir::{Graph, GraphError, Node, NodeId, OpKind};
pub use liveness::Interval;
pub use patterns::{LayerPair, PairKind};
pub use sched::Schedule;
