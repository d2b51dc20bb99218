//! The executable arena: one planned slab a whole training step runs in.
//!
//! [`Arena::from_events`] lifts a (predicted or observed) memory-event
//! stream into a concrete, backed address space: the stream is folded
//! through the runtime accountant, the resulting lifetimes are packed by
//! [`crate::plan_offsets_aligned`] at [`ARENA_ALIGN`]-byte placements, the
//! layout is verified, and a [`Storage`] slab of exactly the plan's
//! `total_bytes` is allocated. The executor then resolves every buffer
//! name to its planned offset via [`Arena::view`] instead of heap-allocating
//! per op — which is what turns the planner's footprint numbers from
//! accounting into a measured property of execution.

use crate::layout::{plan_offsets_aligned, LayoutViolation, OffsetPlan};
use crate::observed_inventory;
use gist_graph::DataStructure;
use gist_obs::{Event, MemoryAccountant};
use gist_tensor::{Shape, Storage, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// Byte alignment of every arena placement (one x86 cache line / the widest
/// vector unit — also what real allocators hand out for tensor data).
pub const ARENA_ALIGN: usize = 64;

/// Rounds a byte size up to the next [`ARENA_ALIGN`] boundary — the
/// reservation size the arena-mode executor records for each buffer.
pub fn align_arena(bytes: u64) -> u64 {
    bytes.div_ceil(ARENA_ALIGN as u64) * ARENA_ALIGN as u64
}

/// Why an event stream could not be lifted into an executable arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaError {
    /// The event stream itself is malformed (accountant fold failed).
    Stream(String),
    /// The packed layout failed verification — overlap or misalignment.
    Layout(String),
    /// The same buffer name was allocated twice with different placements;
    /// the arena's name-addressed handle table requires unique names.
    DuplicateName(String),
    /// A name lookup missed the handle table.
    UnknownRegion(String),
    /// A view request did not fit its region.
    ViewTooLarge {
        /// Requested buffer name.
        name: String,
        /// Bytes the view needs.
        needed: usize,
        /// Bytes the region holds.
        available: usize,
    },
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaError::Stream(e) => write!(f, "malformed event stream: {e}"),
            ArenaError::Layout(e) => write!(f, "arena layout invalid: {e}"),
            ArenaError::DuplicateName(n) => {
                write!(f, "buffer name {n} allocated twice; arena handles must be unique")
            }
            ArenaError::UnknownRegion(n) => write!(f, "no arena region named {n}"),
            ArenaError::ViewTooLarge { name, needed, available } => {
                write!(f, "view of {name} needs {needed} bytes but region holds {available}")
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// The one arena lifetime granularity: tick-exact. Kept for `benchmark/`;
/// a later `benchmark` PR deletes this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanGranularity {
    /// Tick-exact lifetimes.
    #[default]
    Event,
}

/// A planned, backed, name-addressed slab (see the module docs).
#[derive(Debug)]
pub struct Arena {
    storage: Arc<Storage>,
    plan: OffsetPlan,
    items: Vec<DataStructure>,
    /// Handle table: buffer name -> (byte offset, region bytes). Contains
    /// both final and pre-rename names for inplace-reused buffers.
    regions: HashMap<String, (usize, usize)>,
}

impl Arena {
    /// Builds an arena for a step whose memory behavior is described by
    /// `events` (typically the *predicted* stream for the planned mode, so
    /// the slab exists before the first kernel runs). Lifetimes are packed
    /// tick-exact; the slab is sound because the executor runs the items
    /// of an arena block one after another.
    ///
    /// # Errors
    ///
    /// See [`ArenaError`].
    pub fn from_events(events: &[Event]) -> Result<Self, ArenaError> {
        let mut acc = MemoryAccountant::new();
        acc.fold_all(events).map_err(|e| ArenaError::Stream(e.to_string()))?;
        let items = observed_inventory(&acc);
        let plan = plan_offsets_aligned(&items, ARENA_ALIGN);
        plan.verify_aligned(&items, ARENA_ALIGN).map_err(|v| match v {
            LayoutViolation::Overlap(a, b) => ArenaError::Layout(format!(
                "{} and {} overlap while both live",
                items[a].name, items[b].name
            )),
            LayoutViolation::Misaligned { item, offset } => ArenaError::Layout(format!(
                "{} placed at unaligned offset {offset}",
                items[item].name
            )),
        })?;
        // Lifetimes carry the buffer's FINAL name (after inplace renames);
        // the handle table needs both, so the executor can resolve the
        // producer's name when it allocates and the consumer's afterwards.
        let mut regions: HashMap<String, (usize, usize)> = HashMap::new();
        for (d, p) in items.iter().zip(&plan.placements) {
            debug_assert_eq!(
                p.item,
                regions.len(),
                "plan_offsets returns placements in item order"
            );
            if regions.insert(d.name.clone(), (p.offset, d.bytes)).is_some() {
                return Err(ArenaError::DuplicateName(d.name.clone()));
            }
        }
        let mut rename: HashMap<&str, &str> = HashMap::new();
        for ev in events {
            if let Event::Reuse { from, into } = ev {
                rename.insert(from, into);
            }
        }
        for &from in rename.keys() {
            let mut cur = from;
            while let Some(&next) = rename.get(cur) {
                cur = next;
            }
            let region =
                *regions.get(cur).ok_or_else(|| ArenaError::UnknownRegion(cur.to_string()))?;
            if regions.insert(from.to_string(), region).is_some() {
                return Err(ArenaError::DuplicateName(from.to_string()));
            }
        }
        let storage = Storage::new(plan.total_bytes.div_ceil(4));
        Ok(Arena { storage, plan, items, regions })
    }

    /// [`Arena::from_events`]; the granularity and groups decide nothing.
    /// Kept for `benchmark/`; a later `benchmark` PR deletes this.
    ///
    /// # Errors
    ///
    /// See [`ArenaError`].
    pub fn from_events_granular(
        events: &[Event],
        _granularity: PlanGranularity,
        _groups: &[(usize, usize)],
    ) -> Result<Self, ArenaError> {
        Self::from_events(events)
    }

    /// Total slab size in bytes — the packed plan's footprint.
    pub fn capacity_bytes(&self) -> usize {
        self.plan.total_bytes
    }

    /// The placed `(byte_offset, bytes)` range of a buffer, if any. This is
    /// the lookup [`crate::check_regions`] consumes.
    pub fn region(&self, name: &str) -> Option<(usize, usize)> {
        self.regions.get(name).copied()
    }

    /// A tensor view of `name`'s region under `shape`. The region may be
    /// larger than the view (worst-case stash reservations).
    ///
    /// # Errors
    ///
    /// [`ArenaError::UnknownRegion`] or [`ArenaError::ViewTooLarge`].
    pub fn view(&self, name: &str, shape: Shape) -> Result<Tensor, ArenaError> {
        let (offset, bytes) = self
            .regions
            .get(name)
            .copied()
            .ok_or_else(|| ArenaError::UnknownRegion(name.to_string()))?;
        let needed = shape.numel() * 4;
        if needed > bytes {
            return Err(ArenaError::ViewTooLarge {
                name: name.to_string(),
                needed,
                available: bytes,
            });
        }
        // Cannot fail: verify_aligned proved offset + bytes <= total_bytes,
        // the slab holds total_bytes.div_ceil(4) floats, and offset is
        // 64-aligned so offset / 4 is exact.
        Tensor::view(Arc::clone(&self.storage), offset / 4, shape)
            .map_err(|e| ArenaError::Layout(format!("slab/plan disagree for {name}: {e}")))
    }

    /// Fills a dead buffer's region with NaN so use-after-free reads are
    /// loud (debug builds of the arena executor call this after each Free).
    ///
    /// # Safety
    ///
    /// No live [`Tensor`] view overlapping the region may be read or
    /// written for the duration of the call — the caller must only poison
    /// regions whose buffer's lifetime has ended and whose views are
    /// dropped.
    ///
    /// # Errors
    ///
    /// [`ArenaError::UnknownRegion`] if the name is not placed.
    pub unsafe fn poison(&self, name: &str) -> Result<(), ArenaError> {
        let (offset, bytes) = self
            .regions
            .get(name)
            .copied()
            .ok_or_else(|| ArenaError::UnknownRegion(name.to_string()))?;
        // SAFETY: forwarded caller contract (region is dead, no live views).
        unsafe {
            self.storage.fill(offset / 4, bytes / 4, f32::NAN);
        }
        Ok(())
    }

    /// The packed offset plan backing this arena.
    pub fn plan(&self) -> &OffsetPlan {
        &self.plan
    }

    /// The lifetime inventory the plan was packed against (one entry per
    /// buffer, final names).
    pub fn items(&self) -> &[DataStructure] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(name: &str, bytes: u64) -> Event {
        Event::Alloc { name: name.into(), bytes: align_arena(bytes) }
    }

    fn free(name: &str, bytes: u64) -> Event {
        Event::Free { name: name.into(), bytes: align_arena(bytes) }
    }

    #[test]
    fn arena_places_disjoint_lifetimes_in_shared_regions() {
        let events = vec![
            alloc("a.y", 100),
            alloc("b.y", 50),
            free("a.y", 100),
            alloc("c.y", 100),
            free("b.y", 50),
            free("c.y", 100),
        ];
        let arena = Arena::from_events(&events).unwrap();
        // a.y and c.y never overlap in time -> they share a region; peak is
        // 128 (a) + 64 (b) aligned.
        assert_eq!(arena.capacity_bytes(), 192);
        assert_eq!(arena.region("a.y"), arena.region("c.y"));
        let (b_off, b_sz) = arena.region("b.y").unwrap();
        assert_eq!(b_off % ARENA_ALIGN, 0);
        assert_eq!(b_sz, 64);
        assert!(arena.region("ghost").is_none());
    }

    #[test]
    fn views_are_disjoint_and_writable() {
        let events = vec![alloc("x.y", 64), alloc("y.y", 64)];
        let arena = Arena::from_events(&events).unwrap();
        let mut vx = arena.view("x.y", Shape::vector(16)).unwrap();
        let mut vy = arena.view("y.y", Shape::vector(16)).unwrap();
        vx.data_mut().fill(1.0);
        vy.data_mut().fill(2.0);
        assert!(vx.data().iter().all(|&v| v == 1.0));
        assert!(vy.data().iter().all(|&v| v == 2.0));
        // Smaller views of a big region are allowed; larger are not.
        assert!(arena.view("x.y", Shape::vector(4)).is_ok());
        assert!(matches!(
            arena.view("x.y", Shape::vector(17)),
            Err(ArenaError::ViewTooLarge { .. })
        ));
        assert!(matches!(arena.view("nope", Shape::vector(1)), Err(ArenaError::UnknownRegion(_))));
    }

    #[test]
    fn reuse_renames_share_one_region_under_both_names() {
        let events = vec![
            alloc("conv.y", 256),
            Event::Reuse { from: "conv.y".into(), into: "relu.y".into() },
            free("relu.y", 256),
        ];
        let arena = Arena::from_events(&events).unwrap();
        assert_eq!(arena.region("conv.y"), arena.region("relu.y"));
        assert_eq!(arena.capacity_bytes(), 256);
    }

    #[test]
    fn poison_fills_dead_region_with_nan() {
        let events = vec![alloc("x.y", 64)];
        let arena = Arena::from_events(&events).unwrap();
        {
            let mut v = arena.view("x.y", Shape::vector(16)).unwrap();
            v.data_mut().fill(3.0);
        }
        // SAFETY: the only view was dropped above.
        unsafe { arena.poison("x.y").unwrap() };
        let v = arena.view("x.y", Shape::vector(16)).unwrap();
        assert!(v.data().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let err = Arena::from_events(&[free("ghost", 4)]).unwrap_err();
        assert!(matches!(err, ArenaError::Stream(_)));
        // Same name allocated twice (free then re-alloc) is ambiguous for a
        // name-addressed handle table.
        let err = Arena::from_events(&[alloc("x", 4), free("x", 4), alloc("x", 4)]).unwrap_err();
        assert!(matches!(err, ArenaError::DuplicateName(_)));
    }

    #[test]
    fn transients_get_regions_too() {
        let events = vec![
            alloc("a.y", 64),
            Event::Transient { name: "b.dec".into(), bytes: align_arena(100) },
            free("a.y", 64),
        ];
        let arena = Arena::from_events(&events).unwrap();
        let (off, sz) = arena.region("b.dec").unwrap();
        assert_eq!(off % ARENA_ALIGN, 0);
        assert_eq!(sz, 128);
        // The transient is live alongside a.y, so regions are disjoint.
        let (a_off, a_sz) = arena.region("a.y").unwrap();
        assert!(off >= a_off + a_sz || a_off >= off + sz);
    }
}
