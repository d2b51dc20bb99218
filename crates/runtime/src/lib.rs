#![warn(missing_docs)]

//! # gist-runtime
//!
//! The training executor: interprets one lowered [`StepProgram`] per step —
//! the only forward and backward walk — with Gist's encodings applied *at
//! runtime*, stashing encoded feature maps between the two uses and decoding
//! them for the backward pass. Plus one update rule (plain SGD), one epoch
//! loop ([`train`]) and deterministic synthetic datasets.
//!
//! This is where the paper's value-level claims are checked:
//!
//! * Binarize and SSDC are **bit-exact lossless**: gradients match the FP32
//!   baseline to the last bit (verified in tests and `tests/` integration).
//! * DPR perturbs only the *backward* use; the forward pass is untouched
//!   (unlike the All-FP16-immediate strawman of Figure 12, which quantizes
//!   every value as soon as it is produced and diverges).
//! * ReLU sparsity ramps up over the first few hundred minibatches, which
//!   is what makes SSDC effective (Figure 14).

pub mod autotune;
pub mod checkpoint;
pub mod data;
pub mod exec;
pub mod params;
pub mod predict;
pub mod program;
pub mod spec;
pub mod trainer;

pub use autotune::{select_dpr_format, AutotuneConfig, AutotuneResult};
pub use checkpoint::Snapshot;
pub use data::SyntheticImages;
pub use exec::{Executor, StepStats};
pub use gist_memory::PlanGranularity;
pub use gist_offload::{OffloadMode, SwapStrategy};
pub use params::ParamSet;
pub use predict::{
    param_tensor_numels, predict_step_events_granular, predicted_param_wire_bytes,
    predicted_peak_bytes_granular, ssdc_stash_sizes,
};
pub use program::StepProgram;
pub use spec::{offload_label, parse_offload, AllocPolicy, ExecMode, ExecSpec};
pub use trainer::{train, EpochStats, TrainReport};

/// Errors from runtime execution.
#[derive(Debug)]
pub enum RuntimeError {
    /// The graph failed shape inference or referenced unsupported ops.
    Graph(gist_graph::GraphError),
    /// A tensor kernel rejected its inputs.
    Tensor(gist_tensor::TensorError),
    /// An encoding container rejected its inputs.
    Encoding(gist_encodings::EncodingError),
    /// The minibatch fed to `step` does not match the graph's input shape.
    BatchMismatch(String),
    /// A trace/prediction inconsistency (missing observed size, malformed
    /// predicted event stream).
    Trace(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Graph(e) => write!(f, "graph error: {e}"),
            RuntimeError::Tensor(e) => write!(f, "tensor error: {e}"),
            RuntimeError::Encoding(e) => write!(f, "encoding error: {e}"),
            RuntimeError::BatchMismatch(msg) => write!(f, "batch mismatch: {msg}"),
            RuntimeError::Trace(msg) => write!(f, "trace error: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<gist_graph::GraphError> for RuntimeError {
    fn from(e: gist_graph::GraphError) -> Self {
        RuntimeError::Graph(e)
    }
}

impl From<gist_tensor::TensorError> for RuntimeError {
    fn from(e: gist_tensor::TensorError) -> Self {
        RuntimeError::Tensor(e)
    }
}

impl From<gist_encodings::EncodingError> for RuntimeError {
    fn from(e: gist_encodings::EncodingError) -> Self {
        RuntimeError::Encoding(e)
    }
}
