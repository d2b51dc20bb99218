//! The segment planner: which stashes stay resident, which are dropped and
//! recomputed, which are swapped to host — and at which backward step each
//! swap-in and replay fires.
//!
//! The plan is consumed once: `gist_runtime::StepProgram::lower` turns its
//! dispositions, segments and triggers into the step program's swap-in and
//! replay-step items, which the executor interprets and the predictor
//! folds. The plan speaks in node ids only; the lowering names every
//! buffer those items introduce.

use gist_encodings::StashCodec;
use gist_graph::class::is_stashed;
use gist_graph::{Graph, GraphError, NodeId, OpKind, Schedule};
use gist_perf::SwapStrategy;

/// Which offload mechanism (if any) a training step runs under. Composes
/// with `ExecMode` (baseline vs Gist encodings) and the allocation policy:
/// only stashes the encodings left *dense* are offloaded — encoded stashes
/// are already small and stay resident, exactly the paper's argument for
/// encoding over offloading.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OffloadMode {
    /// Everything resident (the existing behavior).
    #[default]
    None,
    /// sqrt-N checkpointing: dense stashes between checkpoints are dropped
    /// in the forward pass and rebuilt by re-running forward kernels when
    /// the backward pass first needs them.
    Recompute,
    /// vDNN-style swapping: dense stashes are copied to host pinned memory
    /// in the forward pass and fetched back just before their backward use,
    /// under the given transfer strategy (which only affects the simulated
    /// clock, never the values).
    Swap(SwapStrategy),
}

/// What happens to one node's stash under the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StashDisposition {
    /// Kept in device memory for the whole forward→backward interval (the
    /// existing discipline). Encoded stashes are always resident.
    Resident,
    /// Not kept: either rebuilt by a recompute segment before its backward
    /// use, or — if nothing in the backward pass ever reads it — simply
    /// never materialized.
    Dropped,
    /// Copied to host pinned memory at the forward stash site and (if read)
    /// fetched back into an arena swap slot before its first backward use.
    Swapped,
}

/// One forward kernel re-executed inside a recompute segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayStep {
    /// The node whose forward op is re-run.
    pub node: NodeId,
    /// Whether the output becomes the node's stash (a dropped member of
    /// this segment) rather than a replay-internal intermediate.
    pub is_stash: bool,
    /// Intermediates whose last replay use is this step, freed immediately
    /// after it runs.
    pub frees_after: Vec<NodeId>,
}

/// One recompute segment: a set of dropped stashes plus the minimal closure
/// of forward kernels that rebuilds them from still-available data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The lowest-position resident stash the segment re-executes from.
    pub checkpoint: NodeId,
    /// Nodes whose outputs the replay reads without recomputing: network
    /// inputs and resident dense stashes.
    pub externals: Vec<NodeId>,
    /// Forward kernels to re-run, in ascending schedule position.
    pub replay: Vec<ReplayStep>,
}

/// Work fired just before one backward item runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fetch this swapped-out stash back from host into its swap slot.
    SwapIn(NodeId),
    /// Execute this recompute segment (index into [`OffloadPlan::segments`]).
    Replay(usize),
}

/// The complete offload plan for one graph under one encoding assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadPlan {
    /// The mode the plan was built for.
    pub mode: OffloadMode,
    /// Per-node stash disposition (Resident for unstashed nodes).
    pub disposition: Vec<StashDisposition>,
    /// Recompute segments (empty under swap).
    pub segments: Vec<Segment>,
    /// Per-node actions fired just before that node's backward item runs.
    pub triggers: Vec<Vec<Action>>,
    /// Host pinned-slot sizes in elements (non-zero only for swapped
    /// stashes); indexes [`crate::HostStore`] slots.
    pub host_slots: Vec<usize>,
    /// Per-node element counts (dense FP32 stash size is `numel * 4`).
    pub numel: Vec<usize>,
    /// Nodes that execute a backward item, in backward execution order
    /// (descending forward schedule position) — the virtual clock's
    /// timeline and the prefetch queue's ordering both derive from this.
    pub backward_order: Vec<NodeId>,
}

impl OffloadPlan {
    /// Plans offload for `graph` under the given per-node stash codecs
    /// ([`StashCodec::Dense`] everywhere for baseline).
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures.
    pub fn plan(
        graph: &Graph,
        codecs: &[StashCodec],
        mode: OffloadMode,
    ) -> Result<OffloadPlan, GraphError> {
        let n = graph.len();
        let shapes = graph.infer_shapes()?;
        let numel: Vec<usize> = shapes.iter().map(|s| s.numel()).collect();
        let schedule = Schedule::of(graph);

        let pos = schedule.positions();

        // Which nodes execute a backward item, and in what order: the
        // schedule's gradient-liveness walk, flattened.
        let backward_order: Vec<NodeId> =
            schedule.backward_waves(graph).into_iter().rev().flatten().collect();
        let mut runs_backward = vec![false; n];
        for id in &backward_order {
            runs_backward[id.index()] = true;
        }

        // Runtime readers of each node's stash: consumers whose backward
        // actually decodes it, plus ReLU reading its own output stash.
        // Readers that never run backward don't count.
        let mut readers: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for node in graph.nodes() {
            if node.op.reads_input_stash() && runs_backward[node.id.index()] {
                readers[node.inputs[0].index()].push(node.id);
            }
            if matches!(node.op, OpKind::Relu) && runs_backward[node.id.index()] {
                readers[node.id.index()].push(node.id);
            }
        }

        // Only stashes the encodings left dense are offload candidates.
        let dense_stashed: Vec<bool> = (0..n)
            .map(|i| is_stashed(graph, NodeId::new(i)) && codecs[i] == StashCodec::Dense)
            .collect();

        let mut plan = OffloadPlan {
            mode,
            disposition: vec![StashDisposition::Resident; n],
            segments: Vec::new(),
            triggers: vec![Vec::new(); n],
            host_slots: vec![0; n],
            numel,
            backward_order,
        };

        match mode {
            OffloadMode::None => {}
            OffloadMode::Swap(_) => plan.plan_swap(graph, &dense_stashed, &readers, &pos),
            OffloadMode::Recompute => plan.plan_recompute(graph, &dense_stashed, &readers, &pos),
        }
        Ok(plan)
    }

    fn plan_swap(
        &mut self,
        graph: &Graph,
        dense_stashed: &[bool],
        readers: &[Vec<NodeId>],
        pos: &[usize],
    ) {
        for i in 0..graph.len() {
            if !dense_stashed[i] {
                continue;
            }
            self.disposition[i] = StashDisposition::Swapped;
            self.host_slots[i] = self.numel[i];
            if let Some(&trigger) = readers[i].iter().max_by_key(|r| pos[r.index()]) {
                // First backward reader = the one latest in the forward
                // schedule; the fetch lands just before it runs.
                self.triggers[trigger.index()].push(Action::SwapIn(NodeId::new(i)));
            }
            // Unread victims swap out and never come back: no device buffer,
            // no trigger.
        }
        self.sort_triggers(pos);
    }

    fn plan_recompute(
        &mut self,
        graph: &Graph,
        dense_stashed: &[bool],
        readers: &[Vec<NodeId>],
        pos: &[usize],
    ) {
        // Dense stashes nothing ever reads back are simply never kept.
        for i in 0..graph.len() {
            if dense_stashed[i] && readers[i].is_empty() {
                self.disposition[i] = StashDisposition::Dropped;
            }
        }

        // sqrt-N over the *read* dense stashes, in schedule order. The
        // network input (always the lowest-position candidate) heads the
        // first group, so it is always a checkpoint.
        let mut candidates: Vec<usize> =
            (0..graph.len()).filter(|&i| dense_stashed[i] && !readers[i].is_empty()).collect();
        candidates.sort_by_key(|&i| pos[i]);
        let m = candidates.len();
        if m <= 2 {
            // ceil(sqrt(m)) >= m: every candidate would be its own
            // checkpoint, so there is nothing to drop (and m = 0 has no k).
            return;
        }
        let k = (m as f64).sqrt().ceil() as usize;
        let chunk = m.div_ceil(k);
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new(); // (checkpoint, dropped members)
        for group in candidates.chunks(chunk) {
            groups.push((group[0], group[1..].to_vec()));
        }
        for (_, members) in &groups {
            for &d in members {
                self.disposition[d] = StashDisposition::Dropped;
            }
        }

        // Replay closure per segment, now that every disposition is final.
        for (checkpoint, members) in groups {
            if members.is_empty() {
                continue;
            }
            let mut in_replay: Vec<bool> = vec![false; graph.len()];
            let mut externals: Vec<usize> = Vec::new();
            let mut queue: Vec<usize> = members.clone();
            for &d in &members {
                in_replay[d] = true;
            }
            while let Some(q) = queue.pop() {
                for &p in &graph.node(NodeId::new(q)).inputs {
                    let pi = p.index();
                    let available = matches!(graph.node(p).op, OpKind::Input(_))
                        || (dense_stashed[pi]
                            && self.disposition[pi] == StashDisposition::Resident);
                    if available {
                        if !externals.contains(&pi) {
                            externals.push(pi);
                        }
                    } else if !in_replay[pi] {
                        // Not rebuildable from a live buffer (encoded stash,
                        // unstashed intermediate, or dropped elsewhere):
                        // recompute it inside this segment too.
                        in_replay[pi] = true;
                        queue.push(pi);
                    }
                }
            }

            let mut steps: Vec<usize> = (0..graph.len()).filter(|&i| in_replay[i]).collect();
            steps.sort_by_key(|&i| pos[i]);
            let mut replay: Vec<ReplayStep> = steps
                .iter()
                .map(|&i| ReplayStep {
                    node: NodeId::new(i),
                    is_stash: members.contains(&i),
                    frees_after: Vec::new(),
                })
                .collect();
            // Free each intermediate right after its last replay reader.
            for si in 0..replay.len() {
                if replay[si].is_stash {
                    continue;
                }
                let i = replay[si].node.index();
                let last = replay
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| graph.node(r.node).inputs.iter().any(|p| p.index() == i))
                    .map(|(ri, _)| ri)
                    .max()
                    .expect("replay intermediate always has an in-replay reader");
                replay[last].frees_after.push(NodeId::new(i));
            }
            for step in &mut replay {
                step.frees_after.sort_by_key(|id| pos[id.index()]);
            }

            // The segment fires just before the earliest backward reader of
            // any of its members — the reader latest in the forward order.
            let trigger = members
                .iter()
                .flat_map(|&d| readers[d].iter())
                .max_by_key(|r| pos[r.index()])
                .copied()
                .expect("segment members have running readers");
            self.triggers[trigger.index()].push(Action::Replay(self.segments.len()));
            externals.sort_by_key(|&e| pos[e]);
            self.segments.push(Segment {
                checkpoint: NodeId::new(checkpoint),
                externals: externals.into_iter().map(NodeId::new).collect(),
                replay,
            });
        }
        self.sort_triggers(pos);
    }

    /// Deterministic order for multiple actions at one trigger: ascending
    /// schedule position of the victim / segment checkpoint.
    fn sort_triggers(&mut self, pos: &[usize]) {
        let key = |a: &Action| match a {
            Action::SwapIn(v) => pos[v.index()],
            Action::Replay(s) => pos[self.segments[*s].checkpoint.index()],
        };
        for actions in &mut self.triggers {
            actions.sort_by_key(key);
        }
    }

    /// Whether the plan changes anything relative to fully-resident
    /// execution.
    pub fn has_offload_work(&self) -> bool {
        self.disposition.iter().any(|d| *d != StashDisposition::Resident)
    }

    /// Total host pinned bytes the plan requires (FP32 slots for every
    /// swapped stash).
    pub fn pinned_bytes(&self) -> u64 {
        self.host_slots.iter().map(|&ne| ne as u64 * 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline_encodings(graph: &Graph) -> Vec<StashCodec> {
        vec![StashCodec::Dense; graph.len()]
    }

    #[test]
    fn none_mode_is_trivial() {
        let g = gist_models::small_vgg(4, 3);
        let plan = OffloadPlan::plan(&g, &baseline_encodings(&g), OffloadMode::None).unwrap();
        assert!(!plan.has_offload_work());
        assert!(plan.segments.is_empty());
        assert!(plan.triggers.iter().all(|t| t.is_empty()));
    }

    #[test]
    fn swap_offloads_every_read_dense_stash() {
        let g = gist_models::small_vgg(4, 3);
        let plan =
            OffloadPlan::plan(&g, &baseline_encodings(&g), OffloadMode::Swap(SwapStrategy::Vdnn))
                .unwrap();
        assert!(plan.has_offload_work());
        let swapped = plan.disposition.iter().filter(|d| **d == StashDisposition::Swapped).count();
        assert!(swapped > 0, "small_vgg has dense stashes under baseline");
        // Every swapped stash has a host slot; each is fetched back by at
        // most one trigger.
        let triggered: usize = plan.triggers.iter().map(|t| t.len()).sum();
        assert!(triggered > 0 && triggered <= swapped);
        for (i, d) in plan.disposition.iter().enumerate() {
            assert_eq!(*d == StashDisposition::Swapped, plan.host_slots[i] > 0);
        }
        assert!(plan.pinned_bytes() > 0);
    }

    #[test]
    fn recompute_picks_sqrt_n_checkpoints() {
        let g = gist_models::small_vgg(4, 3);
        let plan = OffloadPlan::plan(&g, &baseline_encodings(&g), OffloadMode::Recompute).unwrap();
        assert!(plan.has_offload_work());
        assert!(!plan.segments.is_empty());
        for seg in &plan.segments {
            // Checkpoints stay resident; members are dropped.
            assert_eq!(plan.disposition[seg.checkpoint.index()], StashDisposition::Resident);
            assert!(!seg.replay.is_empty());
            // Replay is in ascending schedule order and rebuilds at least
            // one stash.
            assert!(seg.replay.iter().any(|s| s.is_stash));
            // Externals are inputs or resident stashes only.
            for e in &seg.externals {
                assert_ne!(plan.disposition[e.index()], StashDisposition::Dropped);
            }
        }
        // Each intermediate allocated in a replay is freed in the same
        // replay.
        for seg in &plan.segments {
            let allocs: Vec<NodeId> =
                seg.replay.iter().filter(|s| !s.is_stash).map(|s| s.node).collect();
            let frees: Vec<NodeId> =
                seg.replay.iter().flat_map(|s| s.frees_after.iter().copied()).collect();
            assert_eq!(allocs.len(), frees.len(), "replay leaks intermediates");
            for a in allocs {
                assert!(frees.contains(&a));
            }
        }
    }

    #[test]
    fn tiny_graphs_pass_through() {
        // With <= 2 read dense stashes sqrt-N has nothing to split: the
        // plan must keep every stash resident and replay nothing.
        let mut g = Graph::new("two");
        let x = g.input(gist_tensor::Shape::nchw(2, 1, 4, 4));
        let f = g.linear(x, 3, true, "fc");
        let _ = g.softmax_loss(f, "loss");
        let plan = OffloadPlan::plan(&g, &baseline_encodings(&g), OffloadMode::Recompute).unwrap();
        assert!(plan.segments.is_empty());
    }

    #[test]
    fn triggers_precede_member_backward_items() {
        // A segment's trigger must come no later in the backward order than
        // any member's own backward item (the stash must exist when its
        // producer's backward frees it).
        let g = gist_models::resnet_cifar(1, 4);
        let plan = OffloadPlan::plan(&g, &baseline_encodings(&g), OffloadMode::Recompute).unwrap();
        let bpos: std::collections::HashMap<usize, usize> =
            plan.backward_order.iter().enumerate().map(|(i, id)| (id.index(), i)).collect();
        for (node, actions) in plan.triggers.iter().enumerate() {
            for a in actions {
                if let Action::Replay(s) = a {
                    for step in &plan.segments[*s].replay {
                        if step.is_stash {
                            if let Some(member_bpos) = bpos.get(&step.node.index()) {
                                assert!(
                                    bpos[&node] <= *member_bpos,
                                    "segment {s} triggers after member backward"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
