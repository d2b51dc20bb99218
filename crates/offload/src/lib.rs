#![warn(missing_docs)]

//! # gist-offload
//!
//! Executable recomputation and swapping: the subsystem that turns the
//! Figure 15/16 *baselines* of the paper — vDNN-style feature-map swapping
//! and sqrt-N checkpoint recomputation — from analytic cost models
//! (`gist-perf`) into real runtime plan modes the executor can run and the
//! memory oracle can audit.
//!
//! Three pieces:
//!
//! - [`OffloadPlan`]: a segment planner that inspects the graph's stash
//!   inventory, picks sqrt-N checkpoints (recompute) or swap victims
//!   (swapping), and rewrites buffer lifetimes into an explicit, named plan
//!   that `gist-runtime` lowers into its step program — the plan is the
//!   single source of truth for every `Alloc`/`Free` the offloaded stashes
//!   cause.
//! - [`clock`]: a deterministic virtual-clock transfer engine that
//!   simulates PCIe swap-out/swap-in (naive, vDNN-prefetch, cDMA-compressed)
//!   over the `gist-perf` GPU/PCIe latency model, with a double-buffered
//!   prefetch queue whose order is derived from the backward schedule — the
//!   simulation is pure arithmetic over the plan and is bit-identical at
//!   every thread count.
//! - [`HostStore`]: host-side "pinned" regions sized at plan time, so
//!   swapped-out stashes genuinely leave the device slab and come back
//!   bit-exact.
//!
//! The plan deliberately knows nothing about tensors or the executor: it
//! deals in node ids, buffer *names*, and event ordering. The runtime crate
//! wires it into the training step.

pub mod clock;
pub mod host;
pub mod plan;

pub use clock::{simulate, simulate_observed, SimReport, TransferRecord};
pub use gist_perf::SwapStrategy;
pub use host::HostStore;
pub use plan::{Action, OffloadMode, OffloadPlan, ReplayStep, Segment, StashDisposition};
