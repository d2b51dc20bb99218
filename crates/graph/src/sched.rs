//! The forward+backward execution timeline.
//!
//! A minibatch executes every node once forward (steps `0..n`) and once
//! backward in reverse order (steps `n..2n`). Node `i` (topological position
//! `t`) runs forward at step `t` and backward at step `2n - 1 - t` — the
//! temporal structure behind Figure 2 of the paper: the deeper a layer, the
//! longer the gap between its feature map's two uses.

use crate::ir::{Graph, NodeId, OpKind};

/// The static schedule of one minibatch.
#[derive(Debug, Clone)]
pub struct Schedule {
    num_nodes: usize,
    waves: Vec<Vec<NodeId>>,
}

impl Schedule {
    /// Builds the schedule for a graph.
    pub fn of(graph: &Graph) -> Self {
        // Wavefront levels: level(n) = 1 + max(level of n's inputs), with
        // sources at level 0. Two nodes in the same wave can never depend
        // on each other (any dependency path strictly increases the level),
        // so a wave's nodes may execute concurrently. Within a wave, ids
        // are ascending — the deterministic merge order the executor uses.
        let mut level = vec![0usize; graph.len()];
        let mut waves: Vec<Vec<NodeId>> = Vec::new();
        for node in graph.nodes() {
            let l = node.inputs.iter().map(|i| level[i.index()] + 1).max().unwrap_or(0);
            level[node.id.index()] = l;
            if waves.len() <= l {
                waves.resize(l + 1, Vec::new());
            }
            waves[l].push(node.id);
        }
        Schedule { num_nodes: graph.len(), waves }
    }

    /// The forward wavefronts: each wave lists mutually-independent node
    /// ids in ascending order. Executing waves in order (and the nodes of
    /// a wave in any order) respects every data dependency. The backward
    /// pass walks the same waves in reverse.
    pub fn waves(&self) -> &[Vec<NodeId>] {
        &self.waves
    }

    /// Every node in forward execution order: the waves, flattened.
    pub fn order(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.waves.iter().flatten().copied()
    }

    /// Forward execution position of every node, indexed by node id — the
    /// exact order the executor computes and stashes them in.
    pub fn positions(&self) -> Vec<usize> {
        let mut pos = vec![0; self.num_nodes];
        for (p, id) in self.order().enumerate() {
            pos[id.index()] = p;
        }
        pos
    }

    /// The backward pass, indexed like [`Self::waves`]: per wave, the nodes
    /// that execute a backward item, in execution (descending-id) order.
    /// Waves run in reverse; a node runs iff it is the loss head or a
    /// consumer's backward item — always in a later wave — contributed a
    /// gradient to it ([`crate::Node::backward_targets`]). Inputs never do.
    pub fn backward_waves(&self, graph: &Graph) -> Vec<Vec<NodeId>> {
        let mut reached = vec![false; self.num_nodes];
        let mut per_wave = vec![Vec::new(); self.waves.len()];
        for (wave, runs) in self.waves.iter().zip(&mut per_wave).rev() {
            for &id in wave.iter().rev() {
                let node = graph.node(id);
                let runs_backward = match node.op {
                    OpKind::Input(_) => false,
                    OpKind::SoftmaxLoss => true,
                    _ => reached[id.index()],
                };
                if runs_backward {
                    runs.push(id);
                    for t in node.backward_targets() {
                        reached[t.index()] = true;
                    }
                }
            }
        }
        per_wave
    }

    /// Number of nodes scheduled.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of steps (forward + backward).
    pub fn num_steps(&self) -> usize {
        2 * self.num_nodes
    }

    /// Step at which a node's forward pass runs.
    pub fn forward_step(&self, id: NodeId) -> usize {
        id.index()
    }

    /// Step at which a node's backward pass runs.
    pub fn backward_step(&self, id: NodeId) -> usize {
        2 * self.num_nodes - 1 - id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_tensor::Shape;

    #[test]
    fn forward_then_mirrored_backward() {
        let mut g = Graph::new("s");
        let a = g.input(Shape::vector(1));
        let b = g.relu(a, "r");
        let c = g.relu(b, "r2");
        let s = Schedule::of(&g);
        assert_eq!(s.num_steps(), 6);
        assert_eq!(s.forward_step(a), 0);
        assert_eq!(s.forward_step(c), 2);
        assert_eq!(s.backward_step(c), 3);
        assert_eq!(s.backward_step(a), 5);
    }

    #[test]
    fn waves_respect_dependencies_and_group_independent_nodes() {
        // Diamond: input -> (r1, r2) -> add; r1 and r2 share a wave.
        let mut g = Graph::new("d");
        let a = g.input(Shape::nchw(1, 1, 2, 2));
        let r1 = g.relu(a, "r1");
        let r2 = g.relu(a, "r2");
        let add = g.add(r1, r2, "add");
        let s = Schedule::of(&g);
        assert_eq!(s.waves(), &[vec![a], vec![r1, r2], vec![add]]);
    }

    #[test]
    fn positions_follow_waves_and_backward_skips_unreached_branches() {
        // input -> r1 -> loss, plus a dead-end branch r2 no gradient reaches.
        let mut g = Graph::new("b");
        let a = g.input(Shape::nchw(2, 1, 2, 2));
        let r1 = g.relu(a, "r1");
        let r2 = g.relu(a, "r2");
        let dead = g.relu(r2, "dead");
        let fc = g.linear(r1, 2, true, "fc");
        let loss = g.softmax_loss(fc, "loss");
        let s = Schedule::of(&g);
        assert_eq!(s.waves(), &[vec![a], vec![r1, r2], vec![dead, fc], vec![loss]]);
        assert_eq!(s.order().collect::<Vec<_>>(), [a, r1, r2, dead, fc, loss]);
        let pos = s.positions();
        assert_eq!((pos[dead.index()], pos[fc.index()]), (3, 4));
        // The input has no backward item although a gradient reaches it.
        assert_eq!(s.backward_waves(&g), [vec![], vec![r1], vec![fc], vec![loss]]);
    }

    #[test]
    fn chain_waves_are_singletons() {
        let mut g = Graph::new("c");
        let mut prev = g.input(Shape::vector(4));
        for i in 0..5 {
            prev = g.relu(prev, format!("r{i}"));
        }
        let s = Schedule::of(&g);
        assert_eq!(s.waves().len(), 6);
        assert!(s.waves().iter().all(|w| w.len() == 1));
    }
}
