#![warn(missing_docs)]

//! # gist
//!
//! Facade crate for the Gist reproduction workspace. Re-exports every
//! subsystem so downstream users (and the `examples/` and `tests/` in this
//! repository) can depend on a single crate.
//!
//! ```
//! use gist::tensor::{Shape, Tensor};
//! let t = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
//! assert_eq!(t.numel(), 192);
//! ```

/// The types most programs need, importable in one line:
/// `use gist::prelude::*;`
pub mod prelude {
    pub use gist_core::{Gist, GistConfig, GistPlan, ScheduleBuilder};
    pub use gist_dist::{
        DistTrainer, GradCodec, GradCodecPolicy, InProcess, NetTrainer, Tcp, Transport,
    };
    pub use gist_encodings::DprFormat;
    pub use gist_graph::{Graph, NodeId, OpKind};
    pub use gist_memory::{plan_static, SharingPolicy};
    pub use gist_obs::{MemoryAccountant, NullRecorder, Recorder, TraceSink};
    pub use gist_offload::OffloadMode;
    pub use gist_perf::SwapStrategy;
    pub use gist_runtime::{train, ExecMode, ExecSpec, Executor, SyntheticImages};
    pub use gist_serve::{JobSpec, ServeConfig, Server};
    pub use gist_tensor::{Shape, Tensor};
}

pub use gist_core as core;
pub use gist_dist as dist;
/// The transport side of [`dist`] (frames, rendezvous, [`net::NetTrainer`])
/// under its own name: one crate since the in-process and multi-process
/// trainers became one step.
pub use gist_dist as net;
pub use gist_encodings as encodings;
pub use gist_graph as graph;
pub use gist_memory as memory;
pub use gist_models as models;
pub use gist_obs as obs;
pub use gist_offload as offload;
pub use gist_par as par;
pub use gist_perf as perf;
pub use gist_runtime as runtime;
pub use gist_serve as serve;
pub use gist_simd as simd;
pub use gist_tensor as tensor;
