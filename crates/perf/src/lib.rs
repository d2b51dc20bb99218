#![warn(missing_docs)]

//! # gist-perf
//!
//! An analytic performance model standing in for the paper's Maxwell GTX
//! Titan X testbed. Layer execution times are estimated roofline-style from
//! each node's FLOPs and bytes (computed exactly by `gist-graph`), encode/
//! decode costs are modelled as memory-bound passes over the affected
//! feature maps, and PCIe is a bandwidth budget ([`GpuModel::pcie_time`]).
//!
//! Absolute times are estimates; what the model reproduces is the paper's
//! *comparative* results — Gist's encode/decode overhead is a few percent
//! (Figure 9), Binarize slightly accelerates the ReLU backward pass
//! (Figure 11), and larger Gist-enabled minibatches speed up very deep
//! ResNets (Figure 16).
//!
//! Swapping (Figure 15) and sqrt-N recomputation have no closed form here:
//! `gist-offload` plans what the runtime executes and prices that plan on
//! a virtual clock driven by this crate's [`GpuModel`]. What remains in
//! [`swap`] is the [`SwapStrategy`] vocabulary both crates share and the
//! Section VI link-contention estimate.

pub mod gpu;
pub mod overhead;
pub mod swap;
pub mod utilization;

pub use gpu::{GpuModel, TimeEstimate};
pub use overhead::{gist_overhead, OverheadReport};
pub use swap::{distributed_overhead, SwapStrategy};
pub use utilization::{max_batch_fitting, resnet_speedup, SpeedupReport};
