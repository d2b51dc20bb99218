//! The step program: one lowering of `Graph × ExecSpec` that both the
//! executor and the static predictor consume.
//!
//! [`StepProgram::lower`] is the only place that names a training step's
//! buffers and knows their lifetimes — wave order, last forward use, the
//! inplace-ReLU reuse rule, which producers a backward item contributes to
//! (and which of those contributions write the producer's gradient map
//! directly), which backward items decode a stash, and where an offload
//! plan's swap-ins and replays land (the plan itself speaks in node ids:
//! the lowering spells `{node}.sin`, `{node}.rstash` and `{node}.ry{seg}`).
//! Its output is a flat list of `Block`s over interned buffers:
//!
//! * a block plays its `entry` memory ops, runs its work `Item`s and
//!   merges them sequentially in program order (each item's `pre` ops, its
//!   value-level merge, its `post` ops);
//! * `concurrent` says the items' computes may overlap, so the executor may
//!   run them on the `gist-par` pool. Heap blocks are concurrent (buffers
//!   are independent allocations); arena blocks carry the *same* ops with
//!   `concurrent` off, so each item's ops play around its own compute and
//!   the tick-exact packing's event-time disjointness is real-time
//!   disjointness. Offload prologues (swap-ins, replay steps) and the
//!   end-of-step close-out are sequential blocks of their own under every
//!   policy.
//!
//! The executor *interprets* the program for values ([`crate::Executor`]);
//! the predictor *folds* it for bytes ([`StepProgram::events`],
//! [`StepProgram::peak_bytes`]), and `gist_memory::Arena::from_events`
//! packs the slab from that fold. Sizes are resolved at lowering time — a
//! stash is its codec's [`StashCodec::bound`], [`align_arena`]-rounded
//! under the arena policy — with one exception: a heap-policy stash whose codec is not
//! [`StashCodec::is_exact`] (SSDC) is as large as the values make it, so it
//! lowers to a `Bytes::Observed` placeholder the executor fills from the
//! encoded stash and the predictor from observed sizes
//! ([`crate::ssdc_stash_sizes`]).

use crate::spec::{AllocPolicy, ExecMode, ExecSpec};
use crate::RuntimeError;
use gist_encodings::StashCodec;
use gist_graph::class::is_stashed;
use gist_graph::{Graph, Node, NodeId, OpKind, Schedule};
use gist_memory::align_arena;
use gist_obs::{Event, MemoryAccountant};
use gist_offload::{Action, OffloadMode, OffloadPlan, StashDisposition};
use gist_tensor::Shape;
use std::collections::HashMap;

/// Index into [`StepProgram::bufs`].
pub(crate) type BufId = usize;

/// A buffer's event/meter size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bytes {
    Fixed(u64),
    /// The encoded size of this node's heap-policy stash under a codec
    /// whose size depends on the values, known only once they are encoded.
    Observed(NodeId),
}

/// The per-step slot holding a buffer's tensor — what the executor drops
/// when the buffer is freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A node's dense forward output.
    Fmap(NodeId),
    /// A node's stash (resident, swapped back in, or rebuilt by replay).
    Stash(NodeId),
    /// A node's upstream gradient map.
    Grad(NodeId),
    /// A replay-internal intermediate.
    Replay(NodeId),
    /// Compute-internal scratch (`.dx{k}` side regions of accumulating
    /// contributions, `.dec` decode buffers of whole-map readers): nothing
    /// outlives the item that wrote it.
    Scratch,
}

/// One interned step buffer.
#[derive(Debug, Clone)]
pub(crate) struct Buf {
    /// Event / arena-region name, e.g. `conv1.y`, `relu2.stash`, `fc.dx0`.
    pub name: String,
    pub bytes: Bytes,
    pub slot: Slot,
}

/// One memory operation, mirroring `gist_obs::Event`'s memory variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemOp {
    Alloc(BufId),
    Free(BufId),
    /// `from`'s storage continues as `into` (inplace ReLU).
    Reuse {
        from: BufId,
        into: BufId,
    },
    /// A buffer live only inside the item's compute (bounds the peak, has
    /// no alloc/free pair).
    Transient(BufId),
}

/// What a forward item does with its output's stash.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StashSite {
    /// Not stashed, or dropped by the offload plan.
    None,
    /// Stashed on the device in this buffer.
    Resident(BufId),
    /// Copied out to the host store.
    Swap,
}

/// One producer a backward item contributes a gradient to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Target {
    pub node: NodeId,
    /// The item's side region for this contribution, present only when it
    /// accumulates into a gradient map an earlier item made live (in the
    /// program's memory ops under the arena policy only; heap contributions
    /// are owned, unmetered tensors). A first contribution has none: the
    /// kernel writes it straight into `dy`.
    pub dx: Option<BufId>,
    /// The producer's gradient map.
    pub dy: BufId,
}

impl Target {
    /// The buffer the backward kernel writes this contribution through.
    pub fn write(&self) -> BufId {
        self.dx.unwrap_or(self.dy)
    }
}

/// What one work item runs.
#[derive(Debug, Clone)]
pub(crate) enum Work {
    /// A node's forward kernel writing `y`.
    Forward { node: NodeId, y: BufId, stash: StashSite },
    /// Inplace ReLU (Section III-C): the sole and final reader of its
    /// producer's buffer overwrites it instead of allocating an output.
    /// Only ever lowered as the single item of its block — overwriting a
    /// shared buffer next to sibling readers would be unsound, and keeping
    /// the rule wave-structural keeps the meter thread-count-independent.
    ReluInplace { node: NodeId, stash: StashSite },
    /// A node's backward kernel: `dec` is where it decodes an encoded
    /// producer stash (if it does), `targets` the producers it contributes
    /// to, in kernel output order.
    Backward { node: NodeId, dec: Option<BufId>, targets: Vec<Target> },
    /// Fetch a swapped-out stash from the host store into its `{node}.sin`
    /// slot.
    SwapIn { node: NodeId, slot: BufId },
    /// Re-run forward kernel `step` of recompute segment `seg` (indices
    /// into `OffloadPlan::segments` and that segment's `replay`) into `buf`.
    Replay { seg: usize, step: usize, buf: BufId },
}

/// One unit of work with the memory ops played around its sequential merge.
#[derive(Debug, Clone)]
pub(crate) struct Item {
    pub work: Work,
    /// Ops played after the item's span/decode events, before its
    /// value-level merge.
    pub pre: Vec<MemOp>,
    /// Ops played after its value-level merge.
    pub post: Vec<MemOp>,
}

/// See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Schedule wave the block belongs to (span events carry it).
    pub wave: u32,
    /// Whether the items' computes may overlap.
    pub concurrent: bool,
    /// Ops played before any item runs.
    pub entry: Vec<MemOp>,
    /// The work, in merge order.
    pub items: Vec<Item>,
}

impl Block {
    fn new(wave: usize, concurrent: bool) -> Block {
        Block { wave: wave as u32, concurrent, entry: Vec::new(), items: Vec::new() }
    }

    /// The block's memory ops in the order an interpreter plays them.
    fn ops(&self) -> impl Iterator<Item = MemOp> + '_ {
        let items = self.items.iter().flat_map(|it| it.pre.iter().chain(&it.post));
        self.entry.iter().chain(items).copied()
    }
}

/// One training step of a graph under an [`ExecSpec`], lowered. Fold it
/// with [`Self::events`] / [`Self::peak_bytes`];
/// [`crate::Executor`] interprets it.
#[derive(Debug, Clone)]
pub struct StepProgram {
    pub(crate) bufs: Vec<Buf>,
    /// Forward blocks, backward blocks (from `backward_start`), then the
    /// close-out block.
    pub(crate) blocks: Vec<Block>,
    pub(crate) backward_start: usize,
    /// Inferred output shape of every node.
    pub(crate) shapes: Vec<Shape>,
    /// Stash codec of every node (`Dense` outside `ExecMode::Gist`).
    pub(crate) codecs: Vec<StashCodec>,
    /// The offload plan, present only when it changes something relative
    /// to fully-resident execution.
    pub(crate) oplan: Option<OffloadPlan>,
    /// The graph's input node.
    pub(crate) input: NodeId,
}

/// Buffer interning and sizing during a lowering.
struct Lowering<'a> {
    graph: &'a Graph,
    spec: &'a ExecSpec,
    shapes: &'a [Shape],
    codecs: &'a [StashCodec],
    plan: Option<&'a OffloadPlan>,
    bufs: Vec<Buf>,
    index: HashMap<String, BufId>,
}

impl Lowering<'_> {
    fn arena(&self) -> bool {
        self.spec.alloc == AllocPolicy::Arena
    }

    fn intern(&mut self, name: String, bytes: Bytes, slot: Slot) -> BufId {
        if let Some(&id) = self.index.get(&name) {
            return id;
        }
        self.index.insert(name.clone(), self.bufs.len());
        self.bufs.push(Buf { name, bytes, slot });
        self.bufs.len() - 1
    }

    /// A dense FP32 buffer the size of `of`'s output: exact on the heap,
    /// the aligned reservation under the arena policy.
    fn dense(&mut self, name: String, of: NodeId, slot: Slot) -> BufId {
        let bytes = self.shapes[of.index()].numel() as u64 * 4;
        let bytes = if self.arena() { align_arena(bytes) } else { bytes };
        self.intern(name, Bytes::Fixed(bytes), slot)
    }

    fn name(&self, id: NodeId) -> &str {
        &self.graph.node(id).name
    }

    fn y(&mut self, id: NodeId) -> BufId {
        self.dense(format!("{}.y", self.name(id)), id, Slot::Fmap(id))
    }

    fn dy(&mut self, id: NodeId) -> BufId {
        self.dense(format!("{}.dy", self.name(id)), id, Slot::Grad(id))
    }

    /// What the offload plan does with `id`'s stash (resident without one).
    fn disposition(&self, id: NodeId) -> StashDisposition {
        self.plan.map_or(StashDisposition::Resident, |p| p.disposition[id.index()])
    }

    /// What a forward item does with `id`'s stash.
    fn stash_site(&mut self, id: NodeId) -> StashSite {
        if !is_stashed(self.graph, id) {
            return StashSite::None;
        }
        match self.disposition(id) {
            // Recompute rebuilds it in the backward pass (or nothing ever
            // reads it): no device bytes, no events.
            StashDisposition::Dropped => StashSite::None,
            StashDisposition::Swapped => StashSite::Swap,
            StashDisposition::Resident => {
                // The arena reserves the codec's data-independent bound,
                // so a step can never outgrow its planned region.
                let codec = self.codecs[id.index()];
                let bound = codec.bound(self.shapes[id.index()].numel()) as u64;
                let bytes = if self.arena() {
                    Bytes::Fixed(align_arena(bound))
                } else if codec.is_exact() {
                    Bytes::Fixed(bound)
                } else {
                    Bytes::Observed(id)
                };
                let name = format!("{}.stash", self.name(id));
                StashSite::Resident(self.intern(name, bytes, Slot::Stash(id)))
            }
        }
    }

    /// The swap slot `{node}.sin` a swapped-out stash is fetched back into.
    fn swap_slot(&mut self, id: NodeId) -> BufId {
        self.dense(format!("{}.sin", self.name(id)), id, Slot::Stash(id))
    }

    /// The stash `{node}.rstash` a recompute segment rebuilds.
    fn rebuilt_stash(&mut self, id: NodeId) -> BufId {
        self.dense(format!("{}.rstash", self.name(id)), id, Slot::Stash(id))
    }

    /// A replay-internal intermediate `{node}.ry{seg}` of segment `seg`.
    fn replay_map(&mut self, id: NodeId, seg: usize) -> BufId {
        self.dense(format!("{}.ry{seg}", self.name(id)), id, Slot::Replay(id))
    }

    /// The buffer `id`'s stash is held in when its backward item releases
    /// it, by disposition: the swap slot of a swapped stash, the rebuilt
    /// stash of a dropped one (only replay members are ever held), the
    /// forward `{node}.stash` of a resident one.
    fn held_stash(&mut self, id: NodeId) -> BufId {
        match self.disposition(id) {
            StashDisposition::Swapped => self.swap_slot(id),
            StashDisposition::Dropped => self.rebuilt_stash(id),
            StashDisposition::Resident => match self.stash_site(id) {
                StashSite::Resident(buf) => buf,
                _ => unreachable!("a resident held stash has a stash buffer"),
            },
        }
    }

    /// The backward item of `node`: its targets and decode buffer.
    /// `grad_live` says which gradient maps earlier items made live; a
    /// target whose map is not live yet takes this contribution directly,
    /// and is live from here on.
    fn backward(&mut self, node: &Node, grad_live: &mut [bool]) -> (Option<BufId>, Vec<Target>) {
        let targets = node
            .backward_targets()
            .iter()
            .enumerate()
            .map(|(k, &t)| {
                let accumulates = std::mem::replace(&mut grad_live[t.index()], true);
                let dx = accumulates
                    .then(|| self.dense(format!("{}.dx{k}", node.name), t, Slot::Scratch));
                Target { node: t, dx, dy: self.dy(t) }
            })
            .collect();
        // Ops whose backward decodes an *encoded* producer stash into a
        // dense buffer, as the stash seam decides for the reader; dense
        // stashes are borrowed in place and leave no trace. (ReLU reads its
        // *own* stash through `Stash::relu_backward_into`, which needs no
        // planned buffer.)
        let decodes = node.op.reads_input_stash()
            && self.codecs[node.inputs[0].index()].decodes(node.op.reads_whole_input_stash());
        let dec = decodes
            .then(|| self.dense(format!("{}.dec", node.name), node.inputs[0], Slot::Scratch));
        (dec, targets)
    }
}

/// The first node whose op satisfies `pred` — how the lowering (and the
/// dataset built for a graph) find the input node and the loss head.
pub(crate) fn find_node<'g>(
    graph: &'g Graph,
    what: &str,
    pred: fn(&OpKind) -> bool,
) -> Result<&'g Node, RuntimeError> {
    graph
        .nodes()
        .iter()
        .find(|nd| pred(&nd.op))
        .ok_or_else(|| RuntimeError::Trace(format!("graph {} has no {what}", graph.name())))
}

impl StepProgram {
    /// Lowers one training step of `graph` under `spec`.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph fails shape inference.
    #[allow(clippy::too_many_lines)]
    pub fn lower(graph: &Graph, spec: &ExecSpec) -> Result<StepProgram, RuntimeError> {
        let n = graph.len();
        let shapes = graph.infer_shapes()?;
        let mut codecs = vec![StashCodec::Dense; n];
        if let ExecMode::Gist(cfg) = &spec.mode {
            for a in gist_core::policy::assign(graph, cfg) {
                codecs[a.node.index()] = a.encoding.codec(cfg);
            }
        }
        let oplan = match spec.offload {
            OffloadMode::None => None,
            mode => {
                Some(OffloadPlan::plan(graph, &codecs, mode)?).filter(OffloadPlan::has_offload_work)
            }
        };
        let input = find_node(graph, "input node", |op| matches!(op, OpKind::Input(_)))?.id;
        // A graph without a loss head has no backward pass to lower.
        find_node(graph, "loss head", |op| matches!(op, OpKind::SoftmaxLoss))?;

        let arena = spec.alloc == AllocPolicy::Arena;
        // Heap buffers are independent allocations, so same-wave items may
        // overlap; arena items share one tick-exact packing and run in turn.
        let concurrent = !arena;
        let inplace = matches!(&spec.mode, ExecMode::Gist(cfg) if cfg.inplace);
        let mut lo = Lowering {
            graph,
            spec,
            shapes: &shapes,
            codecs: &codecs,
            plan: oplan.as_ref(),
            bufs: Vec::new(),
            index: HashMap::new(),
        };

        // Wavefront schedule: each wave holds mutually-independent nodes.
        // All cross-node state is touched in one fixed sequential order
        // (ascending position forward, descending id within reversed waves
        // backward), so results are byte-identical at every thread count.
        let sched = Schedule::of(graph);
        let pos = sched.positions();
        // Last execution position at which each node's dense output is
        // read; the buffer is relinquished right after (the paper's "the
        // full-fidelity feature maps are used in the forward pass and
        // relinquished immediately").
        let mut last_use = pos.clone();
        for node in graph.nodes() {
            for &inp in &node.inputs {
                last_use[inp.index()] = last_use[inp.index()].max(pos[node.id.index()]);
            }
        }

        let mut blocks: Vec<Block> = Vec::new();
        // Whether each node's output / stash / gradient map is live at the
        // current point of the lowering.
        let mut live_fmap = vec![false; n];
        let mut stashed = vec![false; n];
        let mut grad_live = vec![false; n];

        // ---- Forward pass ----
        let mut cursor = 0usize;
        for (wv, wave) in sched.waves().iter().enumerate() {
            let mut block = Block::new(wv, concurrent);
            let head = graph.node(wave[0]);
            if inplace && wave.len() == 1 && matches!(head.op, OpKind::Relu) {
                let (id, producer) = (head.id, head.inputs[0]);
                let sole_reader = last_use[producer.index()] == pos[id.index()]
                    && graph.consumers(producer).len() == 1
                    && !matches!(graph.node(producer).op, OpKind::Input(_));
                if sole_reader {
                    // The buffer is reused, not freed-and-reallocated: no
                    // meter traffic for the producer's release.
                    let (from, into) = (lo.y(producer), lo.y(id));
                    let stash = lo.stash_site(id);
                    let mut post = Vec::new();
                    if let StashSite::Resident(buf) = stash {
                        stashed[id.index()] = true;
                        post.push(MemOp::Alloc(buf));
                    }
                    // Release this node's own buffer if nothing reads it.
                    live_fmap[producer.index()] = false;
                    if last_use[id.index()] != pos[id.index()] {
                        live_fmap[id.index()] = true;
                    } else {
                        post.push(MemOp::Free(into));
                    }
                    block.items.push(Item {
                        work: Work::ReluInplace { node: id, stash },
                        pre: vec![MemOp::Reuse { from, into }],
                        post,
                    });
                    blocks.push(block);
                    cursor += 1;
                    continue;
                }
            }
            for &id in wave {
                let (y, stash) = (lo.y(id), lo.stash_site(id));
                let mut ops = Vec::new();
                if let StashSite::Resident(buf) = stash {
                    stashed[id.index()] = true;
                    ops.push(MemOp::Alloc(buf));
                }
                ops.push(MemOp::Alloc(y));
                live_fmap[id.index()] = true;
                // Relinquish every dense buffer whose last forward use was
                // this position (including this node's own output if
                // nothing reads it).
                for j in (0..n).filter(|&j| last_use[j] == cursor) {
                    if std::mem::take(&mut live_fmap[j]) {
                        ops.push(MemOp::Free(lo.y(NodeId::new(j))));
                    }
                }
                cursor += 1;
                block.items.push(Item {
                    work: Work::Forward { node: id, y, stash },
                    pre: Vec::new(),
                    post: ops,
                });
            }
            blocks.push(block);
        }
        let backward_start = blocks.len();

        // ---- Backward pass ----
        // Waves in reverse. A node's upstream gradient is complete once
        // every consumer's backward has run — all consumers live in later
        // waves, so the wave invariant holds backward too. Items merge in
        // descending-id order so shared producers always accumulate
        // contributions in one fixed order.
        for (wv, wave) in sched.backward_waves(graph).iter().enumerate().rev() {
            // `(node, has an upstream gradient)`; the loss head synthesizes
            // its own, and a node no gradient reaches is not in the wave.
            let work: Vec<(&Node, bool)> = wave
                .iter()
                .map(|&id| graph.node(id))
                .map(|node| (node, !matches!(node.op, OpKind::SoftmaxLoss)))
                .collect();
            // Materialization prologue: before any of the wave's backward
            // items run, every offload trigger attached to them fires — in
            // work order, sequentially — so swapped stashes are fetched
            // and dropped stashes rebuilt before a (possibly concurrent)
            // backward compute reads them.
            let mut prologue = Block::new(wv, false);
            let plan = lo.plan;
            for action in work
                .iter()
                .flat_map(|(node, _)| plan.map_or(&[][..], |p| &p.triggers[node.id.index()]))
            {
                let plan = plan.expect("triggers come from a plan");
                match *action {
                    Action::SwapIn(v) => {
                        let slot = lo.swap_slot(v);
                        stashed[v.index()] = true;
                        prologue.items.push(Item {
                            work: Work::SwapIn { node: v, slot },
                            pre: vec![MemOp::Alloc(slot)],
                            post: Vec::new(),
                        });
                    }
                    Action::Replay(seg) => {
                        for (step, rs) in plan.segments[seg].replay.iter().enumerate() {
                            let buf = if rs.is_stash {
                                stashed[rs.node.index()] = true;
                                lo.rebuilt_stash(rs.node)
                            } else {
                                lo.replay_map(rs.node, seg)
                            };
                            let mut post = vec![MemOp::Alloc(buf)];
                            for &freed in &rs.frees_after {
                                post.push(MemOp::Free(lo.replay_map(freed, seg)));
                            }
                            prologue.items.push(Item {
                                work: Work::Replay { seg, step, buf },
                                pre: Vec::new(),
                                post,
                            });
                        }
                    }
                }
            }
            if !prologue.items.is_empty() {
                blocks.push(prologue);
            }

            let mut block = Block::new(wv, concurrent);
            for &(node, has_dy) in &work {
                let id = node.id;
                if has_dy {
                    debug_assert!(grad_live[id.index()], "{} runs backward unreached", node.name);
                    grad_live[id.index()] = false;
                }
                let (dec, targets) = lo.backward(node, &mut grad_live);
                let (mut pre, mut post) = (Vec::new(), Vec::new());
                // Every region the backward compute writes — a target's
                // gradient map for a first contribution, a side region for
                // an accumulating one — is allocated before it and, under
                // the arena, before the upstream gradient it reads is
                // released, so the two cannot share bytes. Side regions are
                // held across the merge; the upstream gradient is released
                // only at merge time, after this node's backward compute
                // has read it for the last time; the node's own stash goes
                // last — its backward was the final reader (consumers'
                // backward items all ran earlier).
                if arena {
                    pre.extend(targets.iter().map(|t| MemOp::Alloc(t.write())));
                }
                pre.extend(dec.map(MemOp::Transient));
                if has_dy {
                    pre.push(MemOp::Free(lo.dy(id)));
                }
                if arena {
                    post.extend(targets.iter().filter_map(|t| t.dx).map(MemOp::Free));
                } else {
                    // Heap maps are independent allocations: a first
                    // contribution's map comes to life at merge time.
                    let first = targets.iter().filter(|t| t.dx.is_none());
                    pre.extend(first.map(|t| MemOp::Alloc(t.dy)));
                }
                if std::mem::take(&mut stashed[id.index()]) {
                    post.push(MemOp::Free(lo.held_stash(id)));
                }
                block.items.push(Item {
                    work: Work::Backward { node: id, dec, targets },
                    pre,
                    post,
                });
            }
            if !block.items.is_empty() {
                blocks.push(block);
            }
        }

        // Close-out: every buffer still live (the input's stash and
        // gradient, plus anything off the gradient path) is released when
        // the step returns, so a traced step always folds back to zero
        // live bytes and consecutive steps share one well-formed trace.
        let mut close = Block::new(0, false);
        for id in (0..n).map(NodeId::new) {
            if stashed[id.index()] {
                close.entry.push(MemOp::Free(lo.held_stash(id)));
            }
        }
        for id in (0..n).map(NodeId::new) {
            if grad_live[id.index()] {
                close.entry.push(MemOp::Free(lo.dy(id)));
            }
        }
        blocks.push(close);

        let bufs = lo.bufs;
        Ok(StepProgram { bufs, blocks, backward_start, shapes, codecs, oplan, input })
    }

    /// The memory event `op` stands for. `ssdc` maps node names to observed
    /// SSDC stash sizes; it is only consulted for [`Bytes::Observed`] buffers.
    fn event(&self, op: MemOp, ssdc: &HashMap<String, u64>) -> Result<Event, RuntimeError> {
        let name = |b: BufId| self.bufs[b].name.clone();
        let bytes = |b: BufId| match self.bufs[b].bytes {
            Bytes::Fixed(bytes) => Ok(bytes),
            // The placeholder only ever sizes a `{node}.stash` buffer.
            Bytes::Observed(_) => {
                let node = self.bufs[b].name.strip_suffix(".stash").unwrap_or_default();
                ssdc.get(node).copied().ok_or_else(|| {
                    RuntimeError::Trace(format!("no observed SSDC stash size for node {node}"))
                })
            }
        };
        Ok(match op {
            MemOp::Alloc(b) => Event::Alloc { name: name(b), bytes: bytes(b)? },
            MemOp::Free(b) => Event::Free { name: name(b), bytes: bytes(b)? },
            MemOp::Transient(b) => Event::Transient { name: name(b), bytes: bytes(b)? },
            MemOp::Reuse { from, into } => Event::Reuse { from: name(from), into: name(into) },
        })
    }

    /// The memory-event substream of one traced step of this program — by
    /// construction exactly what the executor emits. `ssdc` supplies the
    /// observed sizes of heap-policy SSDC stashes (see
    /// [`crate::ssdc_stash_sizes`]); arena programs and modes without SSDC
    /// need none.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Trace`] if an SSDC stash has no observed size.
    pub fn events(&self, ssdc: &HashMap<String, u64>) -> Result<Vec<Event>, RuntimeError> {
        self.blocks.iter().flat_map(Block::ops).map(|op| self.event(op, ssdc)).collect()
    }

    /// Peak footprint in bytes: [`Self::events`] folded through the memory
    /// accountant.
    ///
    /// # Errors
    ///
    /// As for [`Self::events`]; a malformed stream is a lowering bug and is
    /// reported as [`RuntimeError::Trace`].
    pub fn peak_bytes(&self, ssdc: &HashMap<String, u64>) -> Result<u64, RuntimeError> {
        let mut acc = MemoryAccountant::new();
        acc.fold_all(&self.events(ssdc)?)
            .map_err(|e| RuntimeError::Trace(format!("lowered stream malformed: {e}")))?;
        Ok(acc.peak_bytes())
    }
}
