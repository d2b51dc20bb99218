#![warn(missing_docs)]

//! # gist-dist
//!
//! Deterministic data-parallel training with Gist's encodings on the wire.
//!
//! The paper's cDMA/compressed-transfer argument (§V-D, Figure 16) says
//! encoded feature maps shrink the *bus traffic*, not just the device
//! footprint. This crate makes the same argument for gradients: `N` model
//! replicas step disjoint micro-batch shards, and every gradient tensor
//! crosses the link through a [`GradCodec`] — raw, SSDC, or
//! delayed-precision — before landing in a **fixed reduction tree** whose
//! accumulation order depends only on the shard count, never on the
//! replica count, arrival order or placement. The merged update is
//! therefore byte-identical for `N ∈ {1, 2, 4, 8}` whether the replicas
//! share a process or sit behind sockets, which turns "data parallelism
//! didn't change the model" from a hope into a fingerprint test.
//!
//! Five modules:
//!
//! - [`reduce`]: the fixed-tree schedule, the codec-on-every-edge combine,
//!   the arrival-order-independent [`GradReduceTree`], and the one walk
//!   that combines owned edges in place and streams crossing ones.
//! - [`trainer`]: [`Trainer`] — one global step over the ranks it owns.
//!   [`DistTrainer`] owns them all (nothing is ever framed);
//!   [`NetTrainer`] owns the rank its [`Transport`] speaks for, and keeps
//!   its shard gradients from step to step in the buffers its frames
//!   stream out of and land in ([`Trainer::merged`] reads the mean).
//! - [`frame`]: the length-prefixed, magic+version-checked message layer
//!   and its one streaming reader ([`read_frame_with`]). Every truncation
//!   or corruption is a typed [`NetError`].
//! - [`transport`]: the [`Transport`] seam — frames written and read in
//!   pieces — with [`InProcess`] (a channel mesh that still rides the
//!   frame byte path), [`Tcp`] (deterministic rendezvous with bounded
//!   [`backoff_ms`] retries and [`Msg::Hello`] validation both ways) and
//!   the uninhabited [`NoPeers`].
//! - [`link`]: a virtual-clock serial-link engine that prices every
//!   crossing edge from its **observed** encoded bytes.
//!
//! Every crossing edge and broadcast leg records a
//! [`gist_obs::Event::NetTransfer`] (observed wall-clock, observed vs
//! priced bytes), so a trace shows where the link model and the real
//! socket diverge.

pub mod frame;
pub mod link;
pub mod reduce;
pub mod trainer;
pub mod transport;

pub use frame::{
    read_frame, read_frame_with, write_frame, GradHead, Msg, NetError, Payload, PayloadSink,
    GRAD_FRAME_OVERHEAD, MAGIC, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use gist_encodings::CodecPolicy as GradCodecPolicy;
pub use gist_encodings::TransferCodec as GradCodec;
pub use link::{simulate_allreduce, AllReduceReport, LinkTransfer};
pub use reduce::{combine_into, reduction_rounds, Edge, GradReduceTree, Placement};
pub use trainer::{DistError, DistTrainer, NetTrainer, StepReport, Trainer, DEFAULT_SHARDS};
pub use transport::{backoff_ms, InProcess, NetConfig, NoPeers, Tcp, Transport};
