#![warn(missing_docs)]

//! # gist-memory
//!
//! The memory-allocation substrate: a reimplementation of the CNTK static
//! memory allocator described in Section IV-C of the paper, plus the
//! dynamic-allocation simulator used in its Section V-H discussion.
//!
//! The static allocator performs *memory sharing*: it takes the lifetimes and
//! sizes of all data structures, sorts them by size, and greedily groups
//! structures whose lifetimes do not overlap; each group occupies a single
//! region sized by its largest member. Gist's encodings shorten the FP32
//! lifetime of stashed feature maps, which opens up more sharing
//! opportunities — that interaction (the paper's Figure 7 example) is what
//! turns smaller *encoded* stashes into a smaller *total* footprint.
//!
//! ```
//! use gist_graph::{DataClass, DataStructure, Interval, TensorRole, NodeId};
//! use gist_memory::{plan_static, SharingPolicy};
//!
//! // Two 10-byte structures with disjoint lifetimes share one region.
//! let items = vec![
//!     DataStructure { name: "a".into(), role: TensorRole::GradientMap(NodeId::new(0)),
//!         class: DataClass::GradientMap, bytes: 10, interval: Interval::new(0, 1) },
//!     DataStructure { name: "b".into(), role: TensorRole::GradientMap(NodeId::new(1)),
//!         class: DataClass::GradientMap, bytes: 10, interval: Interval::new(2, 3) },
//! ];
//! let plan = plan_static(&items, SharingPolicy::Full);
//! assert_eq!(plan.total_bytes, 10);
//! ```

pub mod arena;
pub mod layout;
pub mod observed;
pub mod planner;
pub mod report;
pub mod trace;

pub use arena::{align_arena, Arena, ArenaError, PlanGranularity, ARENA_ALIGN};
pub use layout::{plan_offsets, plan_offsets_aligned, LayoutViolation, OffsetPlan, Placement};
pub use observed::{check_no_overlap, check_regions, observed_inventory, observed_peak};
pub use planner::{peak_dynamic, plan_static, MemoryGroup, SharingPolicy, StaticPlan};
pub use report::{mfr, FootprintReport};
pub use trace::to_chrome_trace;
