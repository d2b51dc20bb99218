//! Observed-footprint analysis: lifts the runtime memory accountant's
//! buffer lifetimes into the planner's [`DataStructure`] inventory, so the
//! same machinery that sizes *predicted* schedules ([`crate::peak_dynamic`],
//! [`crate::plan_offsets`]) runs over what the executor *actually did*.
//!
//! The accountant's tick timeline maps directly onto the planner's step
//! axis: a buffer allocated at tick `a` and freed at tick `f` is live over
//! the closed interval `[a, f - 1]`, and peak candidates occur only at
//! alloc/transient ticks, so `peak_dynamic` over the lifted inventory
//! reproduces the accountant's running peak exactly — that identity is
//! asserted in tests here and exercised end-to-end by the memory oracle.

use crate::granularity::{coarsen_lifetimes, PlanGranularity};
use crate::{peak_dynamic, plan_offsets, OffsetPlan, Placement};
use gist_graph::{DataClass, DataStructure, Interval, NodeId, TensorRole};
use gist_obs::MemoryAccountant;

/// Classifies an observed buffer by the executor's naming convention
/// (`<node>.y`, `<node>.stash`, `<node>.dy`, `<node>.dec`).
fn class_of(name: &str, transient: bool) -> DataClass {
    if transient || name.ends_with(".dec") {
        return DataClass::Workspace;
    }
    if name.ends_with(".stash") {
        DataClass::StashedFmap
    } else if name.ends_with(".dy") {
        DataClass::GradientMap
    } else {
        DataClass::ImmediateFmap
    }
}

/// Converts accountant lifetimes into planner data structures.
///
/// Buffers never freed (e.g. the input stash) are treated as live through
/// the final tick. The `role` node-ids are positional placeholders (the
/// accountant sees names, not graph ids); only `name`, `class`, `bytes` and
/// `interval` are meaningful downstream.
pub fn observed_inventory(acc: &MemoryAccountant) -> Vec<DataStructure> {
    let last_tick = acc.num_ticks().saturating_sub(1);
    acc.lives()
        .iter()
        .enumerate()
        .map(|(i, life)| {
            let class = class_of(&life.name, life.transient);
            let role = match class {
                DataClass::StashedFmap => {
                    TensorRole::Encoded { node: NodeId::new(i), encoding: "observed" }
                }
                DataClass::GradientMap => TensorRole::GradientMap(NodeId::new(i)),
                DataClass::Workspace => {
                    TensorRole::Workspace { node: NodeId::new(i), backward: true }
                }
                _ => TensorRole::FeatureMap(NodeId::new(i)),
            };
            DataStructure {
                name: life.name.clone(),
                role,
                class,
                bytes: life.bytes as usize,
                interval: Interval::new(life.start, life.end_or(last_tick)),
            }
        })
        .collect()
}

/// Observed peak footprint computed the planner's way: `peak_dynamic` over
/// the lifted inventory. Equals [`MemoryAccountant::peak_bytes`] on any
/// well-formed trace.
pub fn observed_peak(acc: &MemoryAccountant) -> usize {
    peak_dynamic(&observed_inventory(acc), acc.num_ticks())
}

/// Packs the observed inventory into a concrete address-space layout and
/// verifies it: no two concurrently-live buffers may overlap.
///
/// # Errors
///
/// Returns the names of the offending buffer pair if the layout verifier
/// finds temporally-overlapping structures sharing addresses — which would
/// mean the lifted intervals (and therefore the accountant) are broken,
/// since `plan_offsets` packs against exactly those intervals.
pub fn check_no_overlap(acc: &MemoryAccountant) -> Result<OffsetPlan, (String, String)> {
    let items = observed_inventory(acc);
    let plan = plan_offsets(&items);
    plan.verify(&items).map_err(|(a, b)| (items[a].name.clone(), items[b].name.clone()))?;
    Ok(plan)
}

/// The runtime end of the memory oracle: verifies an *executed* address
/// assignment against the observed lifetimes, where the planner's
/// [`OffsetPlan::verify`] checks a plan against *predicted* ones. `region`
/// maps each buffer name to its placed `(byte_offset, bytes)` range (e.g.
/// an arena's handle table); a region may be larger than the observed
/// buffer (a worst-case stash reservation) but never smaller, and any two
/// buffers live together must occupy disjoint ranges.
///
/// Liveness is **coarsened to the wave `groups`** (sorted, disjoint,
/// inclusive tick ranges; empty means tick-exact): any two buffers live in
/// the same wave count as live together, even if their event-time
/// lifetimes were back-to-back. An event-granular plan run against a
/// genuinely multi-node wave fails here; that failure is precisely the
/// race the wave plan exists to exclude. The sweep is
/// [`OffsetPlan::verify`]'s, over the placed regions.
///
/// # Errors
///
/// A human-readable description of the first violation: an unplaced
/// buffer, a region smaller than its buffer, or two buffers live together
/// with overlapping ranges.
pub fn check_no_overlap_waves(
    acc: &MemoryAccountant,
    groups: &[(usize, usize)],
    region: impl Fn(&str) -> Option<(usize, usize)>,
) -> Result<(), String> {
    let mut items = coarsen_lifetimes(&observed_inventory(acc), PlanGranularity::Wave, groups);
    let mut placements = Vec::with_capacity(items.len());
    for (item, d) in items.iter_mut().enumerate() {
        let (offset, bytes) =
            region(&d.name).ok_or_else(|| format!("buffer {} has no placed region", d.name))?;
        if bytes < d.bytes {
            return Err(format!(
                "buffer {}: region holds {bytes} bytes but {} were observed",
                d.name, d.bytes
            ));
        }
        // The whole placed region is what must stay disjoint.
        d.bytes = bytes;
        placements.push(Placement { item, offset });
    }
    // `verify` reads only the placements.
    let plan = OffsetPlan { placements, total_bytes: 0 };
    plan.verify(&items).map_err(|(a, b)| {
        let at = |i: usize| {
            let (d, off) = (&items[i], plan.placements[i].offset);
            format!("{} [{off}, {})", d.name, off + d.bytes)
        };
        format!("{} and {} overlap while both live", at(a), at(b))
    })
}

/// Observed peak under wave-coarsened lifetimes: what the slab must hold
/// once all buffers of a wave count as concurrently live. Always `>=`
/// [`observed_peak`]; the delta is the measured capacity cost of running
/// waves on the thread pool.
pub fn observed_peak_waves(acc: &MemoryAccountant, groups: &[(usize, usize)]) -> usize {
    let items = coarsen_lifetimes(&observed_inventory(acc), PlanGranularity::Wave, groups);
    peak_dynamic(&items, acc.num_ticks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_obs::Event;

    fn folded(events: &[Event]) -> MemoryAccountant {
        let mut acc = MemoryAccountant::new();
        acc.fold_all(events).unwrap();
        acc
    }

    fn alloc(name: &str, bytes: u64) -> Event {
        Event::Alloc { name: name.into(), bytes }
    }

    fn free(name: &str, bytes: u64) -> Event {
        Event::Free { name: name.into(), bytes }
    }

    #[test]
    fn lifted_inventory_carries_classes_and_intervals() {
        let acc = folded(&[
            alloc("conv1.y", 64),
            alloc("conv1.stash", 16),
            free("conv1.y", 64),
            alloc("conv1.dy", 64),
            Event::Transient { name: "fc.dec".into(), bytes: 32 },
            free("conv1.stash", 16),
        ]);
        let items = observed_inventory(&acc);
        assert_eq!(items.len(), 4);
        let by_name = |n: &str| items.iter().find(|d| d.name == n).unwrap();
        assert_eq!(by_name("conv1.y").class, DataClass::ImmediateFmap);
        assert_eq!(by_name("conv1.stash").class, DataClass::StashedFmap);
        assert_eq!(by_name("conv1.dy").class, DataClass::GradientMap);
        assert_eq!(by_name("fc.dec").class, DataClass::Workspace);
        // conv1.y: alloc tick 0, free tick 2 -> [0, 1].
        assert_eq!(by_name("conv1.y").interval, Interval::new(0, 1));
        // conv1.stash: alloc tick 1, free tick 5 -> [1, 4].
        assert_eq!(by_name("conv1.stash").interval, Interval::new(1, 4));
        // conv1.dy never freed -> live through the last tick.
        assert_eq!(by_name("conv1.dy").interval, Interval::new(3, 5));
    }

    #[test]
    fn observed_peak_equals_accountant_peak() {
        let acc = folded(&[
            alloc("a.y", 100),
            alloc("b.y", 50),
            free("a.y", 100),
            Event::Transient { name: "c.dec".into(), bytes: 200 },
            alloc("d.dy", 10),
        ]);
        assert_eq!(observed_peak(&acc), acc.peak_bytes() as usize);
        assert_eq!(acc.peak_bytes(), 250);
    }

    #[test]
    fn overlap_check_accepts_well_formed_traces() {
        let acc = folded(&[
            alloc("a.y", 100),
            alloc("b.y", 50),
            free("a.y", 100),
            alloc("c.y", 100),
            free("b.y", 50),
            free("c.y", 100),
        ]);
        let plan = check_no_overlap(&acc).unwrap();
        // a.y and c.y have disjoint lifetimes: first-fit reuses the region.
        assert!(plan.total_bytes <= 150, "packing should share: {}", plan.total_bytes);
    }

    #[test]
    fn executed_offsets_accept_disjoint_and_time_shared_layouts() {
        // x and y live together; z reuses x's region after x is freed.
        let acc = folded(&[alloc("x", 8), alloc("y", 4), free("x", 8), alloc("z", 8)]);
        let layout = |name: &str| match name {
            "x" | "z" => Some((0usize, 8usize)),
            "y" => Some((64, 4)),
            _ => None,
        };
        check_no_overlap_waves(&acc, &[], layout).unwrap();
    }

    #[test]
    fn executed_offsets_reject_overlap_small_region_and_missing_placement() {
        let acc = folded(&[alloc("x", 8), alloc("y", 4)]);
        let check = |layout: &dyn Fn(&str) -> Option<(usize, usize)>| {
            check_no_overlap_waves(&acc, &[], layout).unwrap_err()
        };
        let err = check(&|n| if n == "x" { Some((0, 8)) } else { Some((4, 4)) });
        assert!(err.contains("overlap"), "{err}");
        let err = check(&|n| if n == "x" { Some((0, 2)) } else { Some((64, 4)) });
        assert!(err.contains("region holds"), "{err}");
        let err = check(&|n| if n == "x" { Some((0, 8)) } else { None });
        assert!(err.contains("no placed region"), "{err}");
    }

    #[test]
    fn executed_offsets_allow_oversized_regions_and_transients() {
        let acc = folded(&[
            alloc("x", 10),
            Event::Transient { name: "d".into(), bytes: 7 },
            free("x", 10),
        ]);
        // Stash-style worst-case reservation: region larger than observed.
        let layout = |n: &str| match n {
            "x" => Some((0, 64)),
            "d" => Some((64, 64)),
            _ => None,
        };
        check_no_overlap_waves(&acc, &[], layout).unwrap();
        // The transient is live during x's lifetime, so sharing x's region
        // is a violation.
        let err = check_no_overlap_waves(&acc, &[], |_| Some((0, 64))).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn wave_check_catches_same_wave_region_sharing() {
        // x freed at tick 1, z allocated at tick 2: event-disjoint, so the
        // shared region passes the tick-exact check — but ticks 0..=3 are
        // one wave, so under wave liveness the same layout is a race.
        let acc = folded(&[alloc("x", 8), free("x", 8), alloc("z", 8), free("z", 8)]);
        let shared = |_: &str| Some((0usize, 8usize));
        check_no_overlap_waves(&acc, &[], shared).unwrap();
        let err = check_no_overlap_waves(&acc, &[(0, 3)], shared).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
        // Disjoint placements satisfy the wave check.
        let disjoint = |n: &str| if n == "x" { Some((0, 8)) } else { Some((64, 8)) };
        check_no_overlap_waves(&acc, &[(0, 3)], disjoint).unwrap();
        // A group that covers only one of the lifetimes changes nothing.
        check_no_overlap_waves(&acc, &[(0, 1)], shared).unwrap();
    }
}
