//! The graph executor: interprets a lowered [`StepProgram`] for values —
//! forward/backward with runtime encode/decode, every buffer's life played
//! from the program's memory ops.

use crate::checkpoint::Snapshot;
use crate::params::{sgd_update, NodeParams, ParamGrads, ParamSet};
use crate::program::{
    Block, BufId, Bytes, Item, MemOp, Slot, StashSite, StepProgram, Target, Work,
};
use crate::spec::{AllocPolicy, ExecMode, ExecSpec};
use crate::RuntimeError;
use gist_encodings::{EncodingError, Stash, TransferCodec, Wire};
use gist_graph::{Graph, Node, NodeId, OpKind};
use gist_memory::{Arena, PlanGranularity};
use gist_obs::{Event, NullRecorder, Phase, Recorder};
use gist_offload::{HostStore, OffloadMode, OffloadPlan, SwapStrategy};
use gist_par::parallel_map;
use gist_tensor::ops::batchnorm::BatchNormCache;
use gist_tensor::ops::{batchnorm, conv, dropout, elementwise, linear, lrn, pool, relu, softmax};
use gist_tensor::{Shape, Tensor};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// The [`BwdOut::decodes`] entry for a backward read of stash `s` of
/// `node`: `None` when nothing is decoded — the map is held dense (borrowed
/// in place) or is a mask (consumed as the ReLU gate).
fn consumed(node: NodeId, s: &Stash) -> Option<(NodeId, &'static str, u64, u64)> {
    s.holds_encoded_values().then(|| {
        let codec = s.codec().label().expect("an encoded stash has a codec");
        (node, codec, s.dense_bytes() as u64, s.encoded_bytes() as u64)
    })
}

/// The two tensors of a gradient slot [`Executor::grad_slot`] built.
fn split(slot: &mut Option<ParamGrads>) -> (&mut Tensor, &mut Tensor) {
    let g = slot.as_mut().expect("grad_slot builds the slot");
    (&mut g.main, g.secondary.as_mut().expect("a gradient slot carries its secondary"))
}

/// Nanoseconds since the step's epoch, as recorded in span events.
fn elapsed_ns(epoch: &Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Tracks live bytes during a step to measure the actual peak footprint
/// the executor needed — the runtime counterpart of the planner's
/// dynamic-allocation estimate.
#[derive(Debug, Default, Clone, Copy)]
struct MemMeter {
    live: usize,
    peak: usize,
}

impl MemMeter {
    fn alloc(&mut self, bytes: usize) {
        self.live += bytes;
        self.peak = self.peak.max(self.live);
    }

    /// Releases `bytes`. A free of more than is live — a double free, or
    /// a free of something never allocated — is a program bug, not a
    /// floor at zero.
    fn free(&mut self, bytes: usize) {
        debug_assert!(self.live >= bytes, "freed {bytes} B with {} B live", self.live);
        self.live -= bytes;
    }

    /// A short-lived buffer (e.g. a decode target) that exists only inside
    /// one backward computation.
    fn transient(&mut self, bytes: usize) {
        self.peak = self.peak.max(self.live + bytes);
    }
}

/// The raw output of one node's forward compute, before the sequential
/// post-processing (quantization, stashing, metering, stats) that keeps the
/// executor deterministic under wavefront parallelism.
struct NodeOut {
    y: Tensor,
    argmax: Option<Vec<u8>>,
    bn: Option<BatchNormCache>,
    loss: Option<(f32, usize)>,
    /// Compute start, nanoseconds since the step epoch.
    t0_ns: u64,
    /// Compute duration in nanoseconds.
    dur_ns: u64,
}

/// One node's backward contribution. Computed (possibly concurrently) per
/// block, then merged sequentially in program order so gradient
/// accumulation has one fixed order at every thread count. A node's
/// parameter gradients are no part of it: the compute writes them straight
/// into the node's slot of the caller's gradient set.
struct BwdOut {
    /// One gradient per backward target, in target order.
    contrib: Vec<Tensor>,
    /// Compute start, nanoseconds since the step epoch.
    t0_ns: u64,
    /// Compute duration in nanoseconds.
    dur_ns: u64,
    /// `(stashed node, codec, raw bytes, encoded bytes)` per codec decode,
    /// populated only when the caller is recording a trace.
    decodes: Vec<(NodeId, &'static str, u64, u64)>,
}

/// What an item's compute phase hands to its merge.
enum Out {
    Forward(NodeOut),
    Backward(BwdOut),
    /// The item's work mutates step state, so it runs inside its merge.
    Deferred,
}

/// The minibatch and clock of one step — everything a (possibly pooled)
/// compute reads besides the step state.
struct Batch<'a> {
    images: &'a Tensor,
    labels: &'a [usize],
    epoch: Instant,
    /// The recorder's `enabled()` answer, hoisted: an untraced step never
    /// builds an event or notes a codec decode.
    traced: bool,
}

/// A step's batch plus its recorder — what the sequential merges see.
struct Step<'a> {
    batch: Batch<'a>,
    rec: &'a dyn Recorder,
}

impl Step<'_> {
    fn emit(&self, event: impl FnOnce() -> Event) {
        if self.batch.traced {
            self.rec.record(event());
        }
    }

    fn span(&self, name: &str, phase: Phase, wave: u32, lane: usize, ts_ns: u64, dur_ns: u64) {
        let name = || name.to_string();
        self.emit(|| Event::Span { name: name(), phase, wave, lane: lane as u32, ts_ns, dur_ns });
    }
}

/// All per-step mutable state.
struct StepState {
    fmaps: Vec<Option<Tensor>>,
    stashes: Vec<Option<Stash>>,
    argmaxes: Vec<Option<Vec<u8>>>,
    bn_caches: Vec<Option<BatchNormCache>>,
    loss: f32,
    correct: usize,
    relu_sparsity: Vec<(String, f64)>,
    meter: MemMeter,
    grads: Vec<Option<Tensor>>,
    /// The caller's gradient set, moved in for the step: each slot is
    /// written by its node's backward compute alone, which may run beside
    /// its block siblings', so each sits behind its own (uncontended) lock.
    pgrads: Vec<Mutex<Option<ParamGrads>>>,
    swap_transfers: Vec<(String, bool, u64)>,
    /// Feature maps local to the recompute segment being replayed (empty
    /// outside one).
    rmaps: Vec<Option<Tensor>>,
    /// Debug builds only (empty otherwise): which buffers are inside their
    /// program lifetime — between the `Alloc` and the `Free`/`Transient`
    /// the interpreter plays for them. Every arena view and every poison
    /// asserts against it, so an interpreter that strays outside the
    /// lowered lifetimes fails even though `observed == predicted` holds
    /// by construction.
    live: Vec<bool>,
}

/// Per-minibatch statistics.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Correct top-1 predictions in the minibatch.
    pub correct: usize,
    /// Minibatch size.
    pub batch: usize,
    /// `(layer name, sparsity)` for every ReLU output.
    pub relu_sparsity: Vec<(String, f64)>,
    /// `(layer name, compression ratio)` for every SSDC stash this step.
    pub ssdc_compression: Vec<(String, f64)>,
    /// Total bytes of all stashes held between the passes this step (the
    /// runtime-measured counterpart of the planner's stash accounting).
    pub stash_bytes: usize,
    /// Peak bytes of simultaneously-live feature maps, stashes, gradient
    /// maps, accumulating gradient side regions and the decode buffers of
    /// whole-map readers during the step — the executor's measured dynamic
    /// footprint (conv reads its stash in place and a first gradient
    /// contribution is written into its map, so neither adds a buffer).
    /// Under [`AllocPolicy::Arena`] this counts planned (aligned,
    /// worst-case) reservations, matching the packed slab.
    pub peak_live_bytes: usize,
    /// `(layer name, to_host, bytes)` for every swap transfer this step, in
    /// issue order — the *observed* bus traffic. Dense swap modes report
    /// `numel * 4`; the executed cDMA path reports the encoded wire size,
    /// which the virtual-clock engine's `simulate_observed` prices exactly.
    pub swap_transfers: Vec<(String, bool, u64)>,
}

impl StepStats {
    /// Minibatch top-1 accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.batch == 0 {
            return 0.0;
        }
        self.correct as f64 / self.batch as f64
    }
}

/// Executes training steps over a graph under an [`ExecSpec`].
#[derive(Debug)]
pub struct Executor {
    graph: Graph,
    spec: ExecSpec,
    /// The lowered step: every buffer lifetime, the wave order, the
    /// offload plan and the inferred shapes live here and nowhere else.
    program: StepProgram,
    seed: u64,
    /// Minibatches executed so far; also salts the per-step dropout bits.
    step_counter: u64,
    /// The slab every step executes out of (arena policy only), packed
    /// from the program's own event fold before the first kernel runs.
    arena: Option<Arena>,
    /// Host "pinned" slots for swapped-out stashes (swap modes only).
    /// Behind a mutex because forward merges store into it while `&self`
    /// is shared with worker threads.
    host: Option<Mutex<HostStore>>,
    /// Reusable backward scratch (im2col columns and matmul temporaries),
    /// so steady-state steps stop heap-allocating per-image scratch.
    scratch: gist_tensor::ScratchPool,
    /// The gradient set [`Executor::step`] and [`Executor::forward_backward`]
    /// write into, built on the first of them and reused by every later one.
    grads: Vec<Option<ParamGrads>>,
    /// Learned parameters (public so callers can inspect or checkpoint).
    pub params: ParamSet,
}

impl Executor {
    /// Builds an executor for `graph` under `spec`, initializing parameters
    /// deterministically. An [`ExecMode`] converts into the all-default
    /// spec (heap policy, resident), so `Executor::new(graph, mode, seed)`
    /// is the plain reference executor.
    ///
    /// Under [`AllocPolicy::Arena`] the lowered program's event stream is
    /// packed into offsets and backed by one slab — the whole training loop
    /// then runs inside that pre-planned arena, serialized per wave under
    /// [`PlanGranularity::Event`] and on the `gist-par` pool under
    /// [`PlanGranularity::Wave`] (which trades slab bytes for wall-clock).
    /// Offload composes with every mode and both policies: recompute drops
    /// dense stashes and rebuilds them by re-running forward kernels at
    /// their first backward use; swap copies them to host pinned memory and
    /// fetches them back just before that use. Every combination trains
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph fails shape inference, or
    /// [`RuntimeError::Trace`] if the program's stream cannot be lifted
    /// into an arena.
    pub fn new(graph: Graph, spec: impl Into<ExecSpec>, seed: u64) -> Result<Self, RuntimeError> {
        let spec = spec.into();
        let program = StepProgram::lower(&graph, &spec)?;
        let params = ParamSet::init(&graph, seed)?;
        let host = match (&program.oplan, spec.offload) {
            (Some(plan), OffloadMode::Swap(_)) => {
                Some(Mutex::new(HostStore::new(&plan.host_slots)))
            }
            _ => None,
        };
        let arena = match spec.alloc {
            AllocPolicy::Heap => None,
            AllocPolicy::Arena => Some(
                Arena::from_events_granular(
                    &program.events(&HashMap::new())?,
                    spec.plan,
                    &program.wave_groups(),
                )
                .map_err(|e| RuntimeError::Trace(format!("arena build: {e}")))?,
            ),
        };
        Ok(Executor {
            graph,
            spec,
            program,
            seed,
            step_counter: 0,
            arena,
            host,
            scratch: gist_tensor::ScratchPool::new(),
            grads: Vec::new(),
            params,
        })
    }

    /// [`Executor::new`] with the spec spelled as four positional axes.
    /// Kept for `benchmark/`; a later `benchmark` PR moves it to
    /// [`ExecSpec`] and deletes this.
    ///
    /// # Errors
    ///
    /// As for [`Executor::new`].
    pub fn new_with_granularity(
        graph: Graph,
        mode: ExecMode,
        seed: u64,
        policy: AllocPolicy,
        offload: OffloadMode,
        granularity: PlanGranularity,
    ) -> Result<Self, RuntimeError> {
        Self::new(graph, ExecSpec { mode, alloc: policy, plan: granularity, offload }, seed)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The configuration this executor runs under.
    pub fn spec(&self) -> &ExecSpec {
        &self.spec
    }

    /// The lowered step this executor interprets; folding it
    /// ([`StepProgram::events`]) predicts the memory events of a traced
    /// step exactly.
    pub fn program(&self) -> &StepProgram {
        &self.program
    }

    /// Number of minibatches executed so far.
    pub fn steps_executed(&self) -> u64 {
        self.step_counter
    }

    /// Sets the step epoch that salts the next pass's dropout bits. A
    /// data-parallel trainer sets it per shard, so a shard's bits do not
    /// depend on which replica runs it.
    pub fn set_steps_executed(&mut self, steps: u64) {
        self.step_counter = steps;
    }

    /// Captures the cross-step train state: every parameter tensor encoded
    /// under `codec`, and the step epoch. Restored into an executor of the
    /// same graph **and seed** (the seed salts the dropout bits too),
    /// training continues bit-identically when `codec` is lossless.
    pub fn snapshot(&self, codec: TransferCodec) -> Snapshot {
        Snapshot {
            steps_executed: self.step_counter,
            wires: self.params.tensors().map(|t| Wire::encode(codec, t.data())).collect(),
        }
    }

    /// Overwrites this executor's parameters and step epoch with
    /// `snapshot`'s. All or nothing: the tensor count and every element
    /// count are checked before the first write, so a failed restore —
    /// e.g. of another architecture's snapshot — leaves no partial state.
    ///
    /// # Errors
    ///
    /// [`EncodingError::LengthMismatch`] (tensors, then elements of the
    /// first tensor that disagrees); the executor is unchanged.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), RuntimeError> {
        let mismatch = |expected, actual| EncodingError::LengthMismatch { expected, actual };
        let (want, got) = (self.params.tensors().count(), snapshot.wires.len());
        if want != got {
            return Err(mismatch(want, got).into());
        }
        for (t, wire) in self.params.tensors().zip(&snapshot.wires) {
            if t.numel() != wire.len() {
                return Err(mismatch(t.numel(), wire.len()).into());
            }
        }
        for (t, wire) in self.params.tensors_mut().zip(&snapshot.wires) {
            wire.decode_into(t.data_mut());
        }
        self.step_counter = snapshot.steps_executed;
        Ok(())
    }

    /// The packed slab steps execute out of (arena policy only).
    pub fn arena(&self) -> Option<&Arena> {
        self.arena.as_ref()
    }

    /// Total bytes of the packed slab (arena policy only).
    pub fn arena_capacity_bytes(&self) -> Option<usize> {
        self.arena.as_ref().map(Arena::capacity_bytes)
    }

    /// The offload plan, when the mode actually offloads anything.
    pub fn offload_plan(&self) -> Option<&OffloadPlan> {
        self.program.oplan.as_ref()
    }

    /// Host pinned bytes held for swapped-out stashes (swap modes only).
    pub fn host_pinned_bytes(&self) -> u64 {
        self.host.as_ref().map_or(0, |h| h.lock().expect("host store lock").pinned_bytes())
    }

    /// The codec swapped stashes ride through on the (virtual) bus. `None`
    /// for dense swap strategies; the executed cDMA path SSDC-encodes each
    /// stash on its way to the host store and decodes it — bit-exactly —
    /// on swap-in, so the traffic the trace reports is the traffic a
    /// compressing DMA engine would actually move.
    fn swap_codec(&self) -> Option<TransferCodec> {
        let cdma = matches!(self.spec.offload, OffloadMode::Swap(SwapStrategy::Cdma { .. }));
        cdma.then_some(TransferCodec::Ssdc)
    }

    fn shape(&self, id: NodeId) -> Shape {
        self.program.shapes[id.index()]
    }

    /// `buf`'s planned region as a tensor of `shape` (arena policy), or
    /// `None` on the heap. In debug builds, asserts `buf` is inside its
    /// program lifetime — the precondition that makes handing out an
    /// aliasing view of the shared slab sound.
    fn view(
        &self,
        st: &StepState,
        buf: BufId,
        shape: Shape,
    ) -> Result<Option<Tensor>, RuntimeError> {
        let Some(arena) = &self.arena else {
            return Ok(None);
        };
        let name = &self.program.bufs[buf].name;
        debug_assert!(st.live[buf], "view of {name} outside its program lifetime");
        arena.view(name, shape).map(Some).map_err(|e| RuntimeError::Trace(format!("arena: {e}")))
    }

    /// The tensor a kernel writes `buf` through: its planned region under
    /// the arena policy (which may hold poison or a previous step's bytes —
    /// every `_into` kernel fully overwrites), a fresh zeroed allocation on
    /// the heap.
    fn buffer(&self, st: &StepState, buf: BufId, shape: Shape) -> Result<Tensor, RuntimeError> {
        Ok(self.view(st, buf, shape)?.unwrap_or_else(|| Tensor::zeros(shape)))
    }

    fn quantize_immediate(&self, t: &mut Tensor) {
        if let ExecMode::UniformImmediate(f) = &self.spec.mode {
            for v in t.data_mut() {
                *v = f.quantize(*v);
            }
        }
    }

    /// Materializes a stashed producer for a whole-map backward read.
    /// Dense stashes are borrowed in place (zero copy, no decode buffer);
    /// encoded stashes decode into the consuming item's `dec` buffer.
    fn decode_stash<'s>(
        &self,
        st: &'s StepState,
        s: &'s Stash,
        dec: Option<BufId>,
    ) -> Result<Cow<'s, Tensor>, RuntimeError> {
        if let Some(t) = s.as_dense() {
            return Ok(Cow::Borrowed(t));
        }
        let dec = dec.expect("lowering plans a decode buffer for every encoded read");
        let mut t = self.buffer(st, dec, s.shape())?;
        s.decode_into(t.data_mut())?;
        Ok(Cow::Owned(t))
    }

    /// The forward stash site: materialize the stash in its buffer for
    /// resident dispositions, or copy it out to the host store (a
    /// [`Event::Transfer`], not a memory event — the bytes leave the
    /// device) for swapped ones. The stash's `Alloc` is the program's.
    fn stash_forward(
        &self,
        st: &mut StepState,
        id: NodeId,
        site: StashSite,
        y: &Tensor,
        cx: &Step,
    ) -> Result<(), RuntimeError> {
        let name = &self.graph.node(id).name;
        match site {
            StashSite::None => {}
            StashSite::Resident(buf) => {
                // Only a map held dense lives in its planned region (a view
                // of it under the arena policy, offered wherever the
                // reservation is dense-sized). Encoded payloads stay in
                // their codec containers; the arena still reserves their
                // region, so the accounting covers them either way.
                let codec = self.program.codecs[id.index()];
                let dense_sized = codec.bound(y.numel()) >= y.numel() * 4;
                let region = if dense_sized { self.view(st, buf, y.shape())? } else { None };
                let stash = codec.encode(y, region);
                if let Some(codec) = codec.label() {
                    cx.emit(|| Event::Encode {
                        name: name.clone(),
                        codec: codec.to_string(),
                        raw_bytes: (y.numel() * 4) as u64,
                        encoded_bytes: stash.encoded_bytes() as u64,
                    });
                }
                st.stashes[id.index()] = Some(stash);
            }
            StashSite::Swap => {
                let ts_ns = elapsed_ns(&cx.batch.epoch);
                let mut host = self
                    .host
                    .as_ref()
                    .expect("swap plan has a host store")
                    .lock()
                    .expect("host store lock");
                let bytes = match self.swap_codec() {
                    Some(codec) => {
                        let wire = Wire::encode(codec, y.data());
                        let bytes = wire.wire_bytes();
                        host.store_wire(id.index(), wire);
                        bytes
                    }
                    None => {
                        host.store(id.index(), y.data());
                        (y.numel() * 4) as u64
                    }
                };
                drop(host);
                st.swap_transfers.push((name.clone(), true, bytes));
                cx.emit(|| Event::Transfer {
                    name: name.clone(),
                    to_host: true,
                    bytes,
                    ts_ns,
                    dur_ns: elapsed_ns(&cx.batch.epoch).saturating_sub(ts_ns),
                });
            }
        }
        Ok(())
    }

    /// Computes one node's forward output from already-materialized inputs
    /// into `y` (see [`Executor::buffer`]).
    ///
    /// Pure with respect to the executor: nodes of one block never read
    /// each other's outputs (the wave invariant), so a concurrent block's
    /// items may run against a shared `fmaps` view.
    fn compute_forward(
        &self,
        node: &Node,
        fmaps: &[Option<Tensor>],
        step: &Batch,
        mut y: Tensor,
    ) -> Result<NodeOut, RuntimeError> {
        let t0_ns = elapsed_ns(&step.epoch);
        let id = node.id;
        let input = |i: usize| -> &Tensor {
            fmaps[node.inputs[i].index()].as_ref().expect("producer already executed")
        };
        let mut argmax = None;
        let mut bn = None;
        let mut loss = None;
        match &node.op {
            OpKind::Input(_) => y.copy_from(step.images),
            OpKind::Conv { params: cp, .. } => {
                let p = self.node_params(id);
                conv::forward_into(input(0), &p.main, p.secondary.as_ref(), *cp, &mut y)?;
            }
            OpKind::Relu => relu::forward_into(input(0), &mut y),
            OpKind::MaxPool(p) => argmax = Some(pool::maxpool_forward_into(input(0), *p, &mut y)?),
            OpKind::AvgPool(p) => pool::avgpool_forward_into(input(0), *p, &mut y)?,
            OpKind::Linear { .. } => {
                let p = self.node_params(id);
                linear::forward_into(input(0), &p.main, p.secondary.as_ref(), &mut y)?;
            }
            OpKind::BatchNorm => {
                let p = self.node_params(id);
                let beta = p.secondary.as_ref().expect("batch-norm has a shift");
                bn = Some(batchnorm::forward_into(input(0), &p.main, beta, 1e-5, &mut y)?);
            }
            OpKind::Lrn(p) => lrn::forward_into(input(0), *p, &mut y)?,
            OpKind::Dropout { p } => {
                dropout::forward_into(input(0), *p, self.dropout_seed(id), &mut y)?
            }
            OpKind::Add => elementwise::add_forward_into(input(0), input(1), &mut y)?,
            OpKind::Concat => {
                let ins: Vec<&Tensor> = (0..node.inputs.len()).map(input).collect();
                elementwise::concat_forward_into(&ins, &mut y)?;
            }
            OpKind::SoftmaxLoss => {
                // The forward "use" is the loss value itself; the gradient
                // is recomputed in backward from the stashed (possibly
                // encoded) logits.
                let out = softmax::cross_entropy(input(0), step.labels)?;
                loss = Some((out.loss, out.correct));
                y.copy_from(input(0));
            }
        }
        let dur_ns = elapsed_ns(&step.epoch).saturating_sub(t0_ns);
        Ok(NodeOut { y, argmax, bn, loss, t0_ns, dur_ns })
    }

    /// Parameters of a conv, linear or batch-norm node.
    fn node_params(&self, id: NodeId) -> &NodeParams {
        self.params.get(id.index()).expect("parameterized op has parameters")
    }

    /// The seed of `id`'s dropout bits this step: both passes (and a
    /// recompute replay, which runs before the step counter advances)
    /// derive the identical bits from it.
    fn dropout_seed(&self, id: NodeId) -> u64 {
        self.seed
            .wrapping_add((id.index() as u64).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95))
            .wrapping_add(self.step_counter)
    }

    /// Computes one node's backward contributions without touching shared
    /// state — the caller merges them in program order. Each contribution
    /// is written through [`Target::write`] (see [`Executor::buffer`]): the
    /// target's gradient map itself for a first contribution, the item's
    /// side region for an accumulating one; the node's upstream gradient is
    /// read in place from `st.grads` (absent only for the loss head, which
    /// synthesizes its own from the stashed logits).
    fn backward_node(
        &self,
        st: &StepState,
        node: &Node,
        dec: Option<BufId>,
        targets: &[Target],
        step: &Batch,
    ) -> Result<BwdOut, RuntimeError> {
        let t0_ns = elapsed_ns(&step.epoch);
        let id = node.id;
        let mut decodes = Vec::new();
        let mut contrib = Vec::with_capacity(targets.len());
        for t in targets {
            contrib.push(self.buffer(st, t.write(), self.shape(t.node))?);
        }
        // The producer's stash, noted as consumed when the step is traced.
        let mut input_stash = || {
            let pid = node.inputs[0];
            let s = st.stashes[pid.index()].as_ref().expect("stash present for backward");
            decodes.extend(consumed(pid, s).filter(|_| step.traced));
            s
        };
        let mut stashed_input = || self.decode_stash(st, input_stash(), dec);
        let upstream = st.grads[id.index()].as_ref();
        let dy = || upstream.expect("non-loss nodes reach backward with a gradient");
        match &node.op {
            OpKind::SoftmaxLoss => {
                softmax::cross_entropy_into(&*stashed_input()?, step.labels, &mut contrib[0])?;
                self.quantize_immediate(&mut contrib[0]);
            }
            OpKind::Conv { params: cp, .. } => {
                let p = self.node_params(id);
                let mut g = self.grad_slot(st, id);
                let (dw, db) = split(&mut g);
                conv::backward_into(
                    input_stash(),
                    &p.main,
                    dy(),
                    *cp,
                    &self.scratch,
                    &mut contrib[0],
                    dw,
                    db,
                )?;
            }
            OpKind::Linear { .. } => {
                let p = self.node_params(id);
                let x = stashed_input()?;
                let (rows, cols) = self.shape(id).as_matrix();
                let dy2 = dy().clone().reshape(Shape::matrix(rows, cols))?;
                // The output carries the producer's (possibly NCHW) shape;
                // backward_into matrix-checks it, so no reshape.
                let mut g = self.grad_slot(st, id);
                let (dw, db) = split(&mut g);
                linear::backward_into(&x, &p.main, &dy2, &self.scratch, &mut contrib[0], dw, db)?;
            }
            OpKind::Relu => {
                // The node's own stash is the gate, in whatever form it is
                // held. Where another reader would decode it, the trace
                // shows it consumed at the sizes that decode reports.
                let s = st.stashes[id.index()].as_ref().expect("relu output is always stashed");
                decodes.extend(consumed(id, s).filter(|_| step.traced));
                s.relu_backward_into(dy().data(), contrib[0].data_mut())?;
            }
            OpKind::MaxPool(p) => {
                let argmax = st.argmaxes[id.index()].as_ref().expect("maxpool ran forward");
                let x_shape = self.shape(node.inputs[0]);
                pool::maxpool_backward_into(x_shape, argmax, dy(), *p, &mut contrib[0])?;
            }
            OpKind::AvgPool(p) => {
                pool::avgpool_backward_into(self.shape(node.inputs[0]), dy(), *p, &mut contrib[0])?;
            }
            OpKind::BatchNorm => {
                let gamma = &self.node_params(id).main;
                let x = stashed_input()?;
                let cache = st.bn_caches[id.index()].as_ref().expect("bn ran forward");
                let mut g = self.grad_slot(st, id);
                let (dgamma, dbeta) = split(&mut g);
                batchnorm::backward_into(&x, gamma, cache, dy(), &mut contrib[0], dgamma, dbeta)?;
            }
            OpKind::Lrn(p) => lrn::backward_into(&*stashed_input()?, dy(), *p, &mut contrib[0])?,
            OpKind::Dropout { p } => {
                dropout::backward_into(dy(), *p, self.dropout_seed(id), &mut contrib[0])?;
            }
            OpKind::Add => {
                for dx in &mut contrib {
                    elementwise::add_backward_into(dy(), dx);
                }
            }
            OpKind::Concat => {
                let shapes: Vec<Shape> = targets.iter().map(|t| self.shape(t.node)).collect();
                let mut outs: Vec<&mut Tensor> = contrib.iter_mut().collect();
                elementwise::concat_backward_into(dy(), &shapes, &mut outs)?;
            }
            OpKind::Input(_) => unreachable!("inputs have no backward item"),
        }
        let dur_ns = elapsed_ns(&step.epoch).saturating_sub(t0_ns);
        Ok(BwdOut { contrib, t0_ns, dur_ns, decodes })
    }

    /// `id`'s slot of the step's gradient set, locked for its backward
    /// compute. A slot the set does not hold yet — or holds at another
    /// shape — is built here, once: the parameter's shape, then one element
    /// per output channel (a bias gradient even for a bias-less layer).
    fn grad_slot<'s>(&self, st: &'s StepState, id: NodeId) -> MutexGuard<'s, Option<ParamGrads>> {
        let mut slot = st.pgrads[id.index()].lock().expect("no compute panicked holding a slot");
        let shape = self.node_params(id).main.shape();
        if slot.as_ref().is_none_or(|g| g.main.shape() != shape) {
            let secondary = Some(Tensor::zeros(Shape::vector(shape.n())));
            *slot = Some(ParamGrads { main: Tensor::zeros(shape), secondary });
        }
        slot
    }

    /// Checks a minibatch against the graph's input node; returns its size.
    fn check_images(&self, images: &Tensor) -> Result<usize, RuntimeError> {
        let expected = self.shape(self.program.input);
        if images.shape() != expected {
            return Err(RuntimeError::BatchMismatch(format!(
                "images {} vs input {expected}",
                images.shape()
            )));
        }
        Ok(expected.n())
    }

    /// Runs one forward+backward pass and applies an SGD update.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BatchMismatch`] if `images`/`labels` disagree
    /// with the graph's input shape, or propagates kernel errors.
    pub fn step(
        &mut self,
        images: &Tensor,
        labels: &[usize],
        lr: f32,
    ) -> Result<StepStats, RuntimeError> {
        self.step_traced(images, labels, lr, &NullRecorder)
    }

    /// [`Executor::step`] with execution tracing: op spans, buffer
    /// alloc/free/reuse, and codec encode/decode events are recorded into
    /// `rec`. With a disabled recorder this is exactly `step` — the untraced
    /// entry points delegate here, so the no-op path is the common path.
    ///
    /// # Errors
    ///
    /// As for [`Executor::step`].
    pub fn step_traced(
        &mut self,
        images: &Tensor,
        labels: &[usize],
        lr: f32,
        rec: &dyn Recorder,
    ) -> Result<StepStats, RuntimeError> {
        let stats = self.forward_backward_traced(images, labels, rec)?.0;
        sgd_update(&mut self.params, &self.grads, lr);
        Ok(stats)
    }

    /// Runs one forward+backward pass and returns the parameter gradients
    /// without updating — used by equivalence tests and ablations. The
    /// gradients live in the executor's own set, overwritten by its next
    /// pass.
    ///
    /// # Errors
    ///
    /// As for [`Executor::step`].
    pub fn forward_backward(
        &mut self,
        images: &Tensor,
        labels: &[usize],
    ) -> Result<(StepStats, &[Option<ParamGrads>]), RuntimeError> {
        self.forward_backward_traced(images, labels, &NullRecorder)
    }

    /// [`Executor::forward_backward`] with execution tracing.
    ///
    /// # Errors
    ///
    /// As for [`Executor::step`].
    pub fn forward_backward_traced(
        &mut self,
        images: &Tensor,
        labels: &[usize],
        rec: &dyn Recorder,
    ) -> Result<(StepStats, &[Option<ParamGrads>]), RuntimeError> {
        let mut grads = std::mem::take(&mut self.grads);
        let stats = self.pass(images, labels, &mut grads, rec);
        self.grads = grads;
        Ok((stats?, &self.grads))
    }

    /// Runs one forward+backward pass, writing every parameter gradient
    /// into `grads` — per node ascending, the walk
    /// [`crate::params::tensors`] takes — without updating. Every slot the
    /// pass reaches is overwritten in place; a slot `grads` does not hold
    /// yet is built on the way, so a set kept across steps is built by its
    /// first pass and allocated by no later one. Slots no gradient reaches
    /// stay as they were: a set belongs to one graph.
    ///
    /// # Errors
    ///
    /// As for [`Executor::step`]. A failed pass leaves `grads` holding
    /// partial values, but every slot it held still in place.
    pub fn forward_backward_into(
        &mut self,
        images: &Tensor,
        labels: &[usize],
        grads: &mut Vec<Option<ParamGrads>>,
    ) -> Result<StepStats, RuntimeError> {
        self.pass(images, labels, grads, &NullRecorder)
    }

    /// The one backward entry: [`Executor::forward_backward_into`] with
    /// execution tracing.
    ///
    /// The step is the lowered program, interpreted: one loop over the
    /// forward blocks, one over the backward blocks and the close-out.
    /// Every memory event, meter update, arena view and debug poison comes
    /// from playing the program's memory ops (`Executor::play`), so the
    /// memory substream of the trace *is* [`StepProgram::events`] and
    /// folding it through `gist_obs::MemoryAccountant` reproduces
    /// `StepStats::peak_live_bytes` exactly. Memory and codec events are
    /// emitted from the sequential merges, so their order is identical at
    /// every thread count; span events carry wall-clock timing and are the
    /// only thread-count-dependent payload.
    fn pass(
        &mut self,
        images: &Tensor,
        labels: &[usize],
        grads: &mut Vec<Option<ParamGrads>>,
        rec: &dyn Recorder,
    ) -> Result<StepStats, RuntimeError> {
        let batch = self.check_images(images)?;
        if labels.len() != batch {
            return Err(RuntimeError::BatchMismatch(format!(
                "{} labels for minibatch {batch}",
                labels.len()
            )));
        }
        let epoch = Instant::now();
        let cx = Step { batch: Batch { images, labels, epoch, traced: rec.enabled() }, rec };
        let n = self.graph.len();
        let debug_bufs = if cfg!(debug_assertions) { self.program.bufs.len() } else { 0 };
        grads.resize_with(n, || None);
        let mut st = StepState {
            fmaps: vec![None; n],
            stashes: vec![None; n],
            argmaxes: vec![None; n],
            bn_caches: vec![None; n],
            loss: 0.0,
            correct: 0,
            relu_sparsity: Vec::new(),
            meter: MemMeter::default(),
            grads: vec![None; n],
            pgrads: grads.drain(..).map(Mutex::new).collect(),
            swap_transfers: Vec::new(),
            rmaps: Vec::new(),
            live: vec![false; debug_bufs],
        };
        let ran = self.run_blocks(&mut st, &cx);
        // The set goes back whole, whether or not the pass completed.
        let slots = st.pgrads.drain(..);
        grads.extend(slots.map(|slot| slot.into_inner().expect("no compute panicked holding it")));
        let (stash_bytes, ssdc_compression) = ran?;

        self.step_counter += 1;
        Ok(StepStats {
            loss: st.loss,
            correct: st.correct,
            batch,
            relu_sparsity: st.relu_sparsity,
            ssdc_compression,
            stash_bytes,
            peak_live_bytes: st.meter.peak,
            swap_transfers: st.swap_transfers,
        })
    }

    /// The forward blocks, then the backward blocks. Returns the stash
    /// bytes held between the passes and each lossy stash's compression.
    fn run_blocks(
        &self,
        st: &mut StepState,
        cx: &Step,
    ) -> Result<(usize, Vec<(String, f64)>), RuntimeError> {
        let (forward, backward) = self.program.blocks.split_at(self.program.backward_start);
        for block in forward {
            self.run_block(st, block, cx)?;
        }
        let stash_bytes: usize = st.stashes.iter().flatten().map(Stash::encoded_bytes).sum();
        let ssdc_compression: Vec<(String, f64)> = self
            .graph
            .nodes()
            .iter()
            .filter_map(|nd| {
                let s = st.stashes[nd.id.index()].as_ref().filter(|s| !s.codec().is_exact())?;
                Some((nd.name.clone(), s.dense_bytes() as f64 / s.encoded_bytes() as f64))
            })
            .collect();
        for block in backward {
            self.run_block(st, block, cx)?;
        }
        Ok((stash_bytes, ssdc_compression))
    }

    /// Interprets one block: `entry` ops, the items' computes — on the
    /// `gist-par` pool iff the block is concurrent and has siblings,
    /// otherwise each immediately followed by its merge — the sequential
    /// merges in program order, then `exit` ops.
    fn run_block(&self, st: &mut StepState, block: &Block, cx: &Step) -> Result<(), RuntimeError> {
        self.play_all(st, &block.entry, cx);
        if block.concurrent && block.items.len() > 1 {
            for item in &block.items {
                self.prepare(st, item);
            }
            let outs = {
                let shared = &*st;
                let batch = &cx.batch;
                parallel_map(block.items.len(), 1, |i| self.compute(shared, &block.items[i], batch))
            };
            for (lane, (item, out)) in block.items.iter().zip(outs).enumerate() {
                self.merge(st, block.wave, lane, item, out?, cx)?;
            }
        } else {
            // Serialized (and singleton) blocks skip the result vector, so
            // the steady-state loop stays off the heap outside the kernels.
            for (lane, item) in block.items.iter().enumerate() {
                self.prepare(st, item);
                let out = self.compute(st, item, &cx.batch)?;
                self.merge(st, block.wave, lane, item, out, cx)?;
            }
        }
        self.play_all(st, &block.exit, cx);
        Ok(())
    }

    /// The sequential step before an item's compute. Its allocations come
    /// to life here as far as the debug live-set is concerned: the compute
    /// writes them, and the merge that plays their `Alloc` follows with no
    /// other memory op in between, so the planned tick is the same.
    fn prepare(&self, st: &mut StepState, item: &Item) {
        if cfg!(debug_assertions) {
            for op in item.pre.iter().chain(&item.post) {
                if let MemOp::Alloc(b) | MemOp::Transient(b) = *op {
                    st.live[b] = true;
                }
            }
        }
        if let Work::Backward { node, .. } = &item.work {
            if let Some(dy) = &mut st.grads[node.index()] {
                self.quantize_immediate(dy);
            }
        }
    }

    /// An item's compute phase: reads step state, writes only the item's
    /// own buffers.
    fn compute(&self, st: &StepState, item: &Item, step: &Batch) -> Result<Out, RuntimeError> {
        Ok(match &item.work {
            Work::Forward { node, y, .. } => {
                let y = self.buffer(st, *y, self.shape(*node))?;
                Out::Forward(self.compute_forward(self.graph.node(*node), &st.fmaps, step, y)?)
            }
            Work::Backward { node, dec, targets } => Out::Backward(self.backward_node(
                st,
                self.graph.node(*node),
                *dec,
                targets,
                step,
            )?),
            Work::ReluInplace { .. } | Work::SwapIn { .. } | Work::Replay { .. } => Out::Deferred,
        })
    }

    /// An item's sequential merge: its span (and decode) events, its `pre`
    /// ops, its value-level effects on the step state, its `post` ops.
    fn merge(
        &self,
        st: &mut StepState,
        wave: u32,
        lane: usize,
        item: &Item,
        out: Out,
        cx: &Step,
    ) -> Result<(), RuntimeError> {
        match (&item.work, out) {
            (Work::Forward { node, stash, .. }, Out::Forward(out)) => {
                let name = &self.graph.node(*node).name;
                cx.span(name, Phase::Forward, wave, lane, out.t0_ns, out.dur_ns);
                self.play_all(st, &item.pre, cx);
                self.absorb_forward(st, *node, *stash, out, cx)?;
            }
            (Work::ReluInplace { node, stash }, _) => {
                let node = self.graph.node(*node);
                let mut y = st.fmaps[node.inputs[0].index()].take().expect("producer executed");
                let t0_ns = elapsed_ns(&cx.batch.epoch);
                relu::forward_inplace(&mut y);
                let dur_ns = elapsed_ns(&cx.batch.epoch).saturating_sub(t0_ns);
                cx.span(&node.name, Phase::Forward, wave, lane, t0_ns, dur_ns);
                self.play_all(st, &item.pre, cx);
                let out = NodeOut { y, argmax: None, bn: None, loss: None, t0_ns, dur_ns };
                self.absorb_forward(st, node.id, *stash, out, cx)?;
            }
            (Work::Backward { node, targets, .. }, Out::Backward(out)) => {
                let name = &self.graph.node(*node).name;
                cx.span(name, Phase::Backward, wave, lane, out.t0_ns, out.dur_ns);
                for (pid, codec, raw_bytes, encoded_bytes) in out.decodes {
                    cx.emit(|| Event::Decode {
                        name: self.graph.node(pid).name.clone(),
                        codec: codec.to_string(),
                        raw_bytes,
                        encoded_bytes,
                    });
                }
                self.play_all(st, &item.pre, cx);
                for (t, g) in targets.iter().zip(out.contrib) {
                    let grad = &mut st.grads[t.node.index()];
                    debug_assert_eq!(grad.is_some(), t.dx.is_some(), "accumulation planned");
                    match grad {
                        Some(existing) => {
                            existing.add_scaled(&g, 1.0).expect("gradient shapes agree")
                        }
                        // A first contribution already is the gradient map.
                        None => *grad = Some(g),
                    }
                }
            }
            (Work::SwapIn { node, slot }, _) => {
                self.play_all(st, &item.pre, cx);
                self.swap_in(st, *node, *slot, cx)?;
            }
            (Work::Replay { seg, step, buf }, _) => {
                self.play_all(st, &item.pre, cx);
                self.replay_step(st, wave, *seg, *step, *buf, cx)?;
            }
            _ => unreachable!("compute returns each work kind's own output"),
        }
        self.play_all(st, &item.post, cx);
        Ok(())
    }

    /// Sequential forward post-processing of one node's output:
    /// quantization, stats, stashing, and handing the output to its slot.
    fn absorb_forward(
        &self,
        st: &mut StepState,
        id: NodeId,
        stash: StashSite,
        out: NodeOut,
        cx: &Step,
    ) -> Result<(), RuntimeError> {
        let node = self.graph.node(id);
        let NodeOut { mut y, argmax, bn, loss, .. } = out;
        self.quantize_immediate(&mut y);
        if matches!(node.op, OpKind::Relu) {
            st.relu_sparsity.push((node.name.clone(), y.sparsity()));
        }
        if argmax.is_some() {
            st.argmaxes[id.index()] = argmax;
        }
        if bn.is_some() {
            st.bn_caches[id.index()] = bn;
        }
        if let Some((l, c)) = loss {
            st.loss = l;
            st.correct = c;
        }
        self.stash_forward(st, id, stash, &y, cx)?;
        st.fmaps[id.index()] = Some(y);
        Ok(())
    }

    /// Fetches one swapped-out stash from the host store into its swap
    /// slot, making it readable exactly like a resident dense stash.
    fn swap_in(
        &self,
        st: &mut StepState,
        v: NodeId,
        slot: BufId,
        cx: &Step,
    ) -> Result<(), RuntimeError> {
        let vi = v.index();
        let ts_ns = elapsed_ns(&cx.batch.epoch);
        let mut t = self.buffer(st, slot, self.shape(v))?;
        let host = self.host.as_ref().expect("swap plan has a host store");
        let host = host.lock().expect("host store lock");
        let bytes = match self.swap_codec() {
            Some(_) => {
                let wire = host.load_wire(vi);
                wire.decode_into(t.data_mut());
                wire.wire_bytes()
            }
            None => {
                t.data_mut().copy_from_slice(host.load(vi));
                (t.numel() * 4) as u64
            }
        };
        drop(host);
        let name = &self.graph.node(v).name;
        st.swap_transfers.push((name.clone(), false, bytes));
        cx.emit(|| Event::Transfer {
            name: name.clone(),
            to_host: false,
            bytes,
            ts_ns,
            dur_ns: elapsed_ns(&cx.batch.epoch).saturating_sub(ts_ns),
        });
        st.stashes[vi] = Some(Stash::dense(t));
        Ok(())
    }

    /// Re-executes one forward kernel of a recompute segment into `buf`: a
    /// rebuilt stash (`{node}.rstash`) or a replay-internal intermediate
    /// (`{node}.ry{segment}`) the program frees at its last replay use.
    fn replay_step(
        &self,
        st: &mut StepState,
        wave: u32,
        seg: usize,
        index: usize,
        buf: BufId,
        cx: &Step,
    ) -> Result<(), RuntimeError> {
        let plan = self.program.oplan.as_ref().expect("replay items come from a plan");
        let seg = &plan.segments[seg];
        if index == 0 {
            // Replay-local feature maps, seeded from data that is still
            // live: resident dense stashes and the minibatch images.
            // (Cloning a view deep-copies; like backward decode scratch,
            // these short-lived reads are compute-internal and unmetered.)
            st.rmaps = vec![None; self.graph.len()];
            for &e in &seg.externals {
                st.rmaps[e.index()] = Some(match &st.stashes[e.index()] {
                    Some(s) => s.as_dense().expect("replay externals are dense stashes").clone(),
                    None => {
                        debug_assert!(matches!(self.graph.node(e).op, OpKind::Input(_)));
                        cx.batch.images.clone()
                    }
                });
            }
        }
        let rs = &seg.replay[index];
        let node = self.graph.node(rs.node);
        let out = self.buffer(st, buf, self.shape(rs.node))?;
        // The step counter has not advanced, so replayed dropout bits are
        // identical to the forward pass's; argmax/BN side outputs are
        // likewise identical to the retained originals and are ignored
        // (stats were already collected in the forward pass).
        let NodeOut { mut y, t0_ns, dur_ns, .. } =
            self.compute_forward(node, &st.rmaps, &cx.batch, out)?;
        self.quantize_immediate(&mut y);
        cx.span(&node.name, Phase::Recompute, wave, index, t0_ns, dur_ns);
        if rs.is_stash {
            // Under the arena policy, a second view of the planned region
            // the kernel just wrote — reads only from here on.
            let stash = self.view(st, buf, y.shape())?.unwrap_or_else(|| y.clone());
            st.stashes[rs.node.index()] = Some(Stash::dense(stash));
        }
        st.rmaps[rs.node.index()] = Some(y);
        if index + 1 == seg.replay.len() {
            st.rmaps = Vec::new();
        }
        Ok(())
    }

    fn play_all(&self, st: &mut StepState, ops: &[MemOp], cx: &Step) {
        for &op in ops {
            self.play(st, op, cx);
        }
    }

    /// Plays one memory op — the single place a buffer's life touches the
    /// meter, the trace, the step state's slots and (debug builds) the
    /// live-set and the arena poison.
    fn play(&self, st: &mut StepState, op: MemOp, cx: &Step) {
        let bufs = &self.program.bufs;
        let bytes_of = |st: &StepState, b: BufId| match bufs[b].bytes {
            Bytes::Fixed(bytes) => bytes,
            Bytes::Observed(node) => {
                let stash = st.stashes[node.index()].as_ref();
                stash.expect("a stash is held while its buffer is live").encoded_bytes() as u64
            }
        };
        match op {
            MemOp::Alloc(b) => {
                let bytes = bytes_of(st, b);
                st.meter.alloc(bytes as usize);
                cx.emit(|| Event::Alloc { name: bufs[b].name.clone(), bytes });
                if cfg!(debug_assertions) {
                    st.live[b] = true;
                }
            }
            MemOp::Free(b) => {
                let bytes = bytes_of(st, b);
                st.meter.free(bytes as usize);
                cx.emit(|| Event::Free { name: bufs[b].name.clone(), bytes });
                match bufs[b].slot {
                    Slot::Fmap(n) => st.fmaps[n.index()] = None,
                    Slot::Stash(n) => st.stashes[n.index()] = None,
                    Slot::Grad(n) => st.grads[n.index()] = None,
                    Slot::Replay(n) => {
                        if let Some(slot) = st.rmaps.get_mut(n.index()) {
                            *slot = None;
                        }
                    }
                    Slot::Scratch => {}
                }
                self.retire(st, b);
            }
            MemOp::Transient(b) => {
                let bytes = bytes_of(st, b);
                st.meter.transient(bytes as usize);
                cx.emit(|| Event::Transient { name: bufs[b].name.clone(), bytes });
                // The decode scratch died with the item's backward compute.
                self.retire(st, b);
            }
            MemOp::Reuse { from, into } => {
                cx.emit(|| Event::Reuse {
                    from: bufs[from].name.clone(),
                    into: bufs[into].name.clone(),
                });
                if cfg!(debug_assertions) {
                    assert!(st.live[from], "{} reused outside its lifetime", bufs[from].name);
                    st.live[from] = false;
                    st.live[into] = true;
                }
            }
        }
    }

    /// Debug builds: ends `buf`'s program lifetime — asserts it was inside
    /// one, then NaN-poisons its arena region so any stale read downstream
    /// fails loudly instead of silently consuming reused bytes. No-op in
    /// release builds.
    fn retire(&self, st: &mut StepState, buf: BufId) {
        if !cfg!(debug_assertions) {
            return;
        }
        let name = &self.program.bufs[buf].name;
        assert!(std::mem::take(&mut st.live[buf]), "{name} released outside its program lifetime");
        if let Some(arena) = &self.arena {
            // SAFETY: the op that retires a buffer has just dropped the
            // slot holding its tensor (or it was compute-internal scratch
            // that died with the compute) — no live view of it remains,
            // and every later writer of an overlapping region fully
            // overwrites it.
            unsafe { arena.poison(name).expect("retired buffer has a planned region") }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticImages;
    use gist_core::GistConfig;
    use gist_encodings::DprFormat;

    fn minibatch(batch: usize) -> (Tensor, Vec<usize>) {
        let mut ds = SyntheticImages::new(3, 16, 0.3, 42);
        ds.minibatch(batch)
    }

    fn weights_of(e: &Executor) -> Vec<f32> {
        e.params.tensors().flat_map(|t| t.data().iter().copied()).collect()
    }

    #[test]
    fn baseline_step_reduces_loss_over_time() {
        let g = gist_models::tiny_convnet(8, 3);
        let mut e = Executor::new(g, ExecMode::Baseline, 1).unwrap();
        let mut ds = SyntheticImages::new(3, 16, 0.3, 7);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let (x, y) = ds.minibatch(8);
            let s = e.step(&x, &y, 0.05).unwrap();
            first.get_or_insert(s.loss);
            last = s.loss;
        }
        assert!(last < first.unwrap(), "loss should decrease: {first:?} -> {last}");
    }

    #[test]
    fn lossless_gist_is_bit_exact_with_baseline() {
        // Binarize + SSDC must produce IDENTICAL weights after training
        // steps — they are lossless encodings.
        let (x, y) = minibatch(4);
        let g = gist_models::small_vgg(4, 3);
        let mut base = Executor::new(g.clone(), ExecMode::Baseline, 5).unwrap();
        let mut gist = Executor::new(g, ExecMode::Gist(GistConfig::lossless()), 5).unwrap();
        for _ in 0..3 {
            base.step(&x, &y, 0.05).unwrap();
            gist.step(&x, &y, 0.05).unwrap();
        }
        assert_eq!(weights_of(&base), weights_of(&gist));
    }

    #[test]
    fn dpr_perturbs_backward_but_not_forward() {
        let (x, y) = minibatch(4);
        let g = gist_models::tiny_convnet(4, 3);
        let mut base = Executor::new(g.clone(), ExecMode::Baseline, 5).unwrap();
        let mut dpr =
            Executor::new(g, ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8)), 5).unwrap();
        // First forward pass identical (same init, forward untouched by DPR):
        let (sb, _) = base.forward_backward(&x, &y).unwrap();
        let (sd, _) = dpr.forward_backward(&x, &y).unwrap();
        assert_eq!(sb.loss, sd.loss, "DPR must not change the forward pass");
        // ...but gradients (and therefore weights after a step) differ.
        base.step(&x, &y, 0.05).unwrap();
        dpr.step(&x, &y, 0.05).unwrap();
        assert_ne!(weights_of(&base), weights_of(&dpr));
    }

    #[test]
    fn uniform_immediate_changes_forward_loss() {
        let (x, y) = minibatch(4);
        let g = gist_models::tiny_convnet(4, 3);
        let mut base = Executor::new(g.clone(), ExecMode::Baseline, 5).unwrap();
        let mut uni = Executor::new(g, ExecMode::UniformImmediate(DprFormat::Fp8), 5).unwrap();
        let (sb, _) = base.forward_backward(&x, &y).unwrap();
        let (su, _) = uni.forward_backward(&x, &y).unwrap();
        assert_ne!(sb.loss, su.loss, "immediate quantization must inject forward error");
    }

    #[test]
    fn resnet_trains_a_step() {
        let g = gist_models::resnet_cifar(1, 2);
        let mut e = Executor::new(g, ExecMode::Gist(GistConfig::lossless()), 3).unwrap();
        let mut ds = SyntheticImages::rgb(4, 32, 0.2, 11);
        let (x, y) = ds.minibatch(2);
        let s = e.step(&x, &y, 0.01).unwrap();
        assert!(s.loss.is_finite());
    }

    #[test]
    fn stats_report_relu_sparsity_and_ssdc() {
        let (x, y) = minibatch(4);
        let g = gist_models::small_vgg(4, 3);
        let mut e = Executor::new(g, ExecMode::Gist(GistConfig::lossless()), 5).unwrap();
        let s = e.step(&x, &y, 0.05).unwrap();
        assert!(!s.relu_sparsity.is_empty());
        assert!(s.relu_sparsity.iter().all(|(_, sp)| (0.0..=1.0).contains(sp)));
        assert!(!s.ssdc_compression.is_empty(), "small_vgg has relu-conv pairs");
    }

    #[test]
    fn an_enabled_recorder_changes_no_value() {
        // tiny_classic runs dropout and LRN; lossless adds encode/decode
        // events. Every step traced into a live sink must return the
        // untraced step's stats and leave the same weight bits.
        let (x, y) = minibatch(4);
        let g = gist_models::tiny_classic(4, 3);
        let mode = ExecMode::Gist(GistConfig::lossless());
        let mut plain = Executor::new(g.clone(), mode.clone(), 5).unwrap();
        let mut traced = Executor::new(g, mode, 5).unwrap();
        let sink = gist_obs::TraceSink::new();
        let bits = |e: &Executor| e.params.bits().collect::<Vec<u32>>();
        for step in 0..3 {
            let a = plain.step(&x, &y, 0.05).unwrap();
            let b = traced.step_traced(&x, &y, 0.05, &sink).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "stats at step {step}");
            assert_eq!(bits(&plain), bits(&traced), "weights after step {step}");
        }
        let grad_bits = |grads: &[Option<ParamGrads>]| {
            crate::params::tensors(grads)
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect::<Vec<u32>>()
        };
        let (_, ga) = plain.forward_backward(&x, &y).unwrap();
        let (_, gb) = traced.forward_backward_traced(&x, &y, &sink).unwrap();
        assert_eq!(grad_bits(ga), grad_bits(gb));
        let events = sink.take();
        let spans = events.iter().filter(|e| matches!(e, Event::Span { .. })).count();
        assert!(spans > 0 && spans % 4 == 0, "span count {spans} should cover 4 passes");
        assert!(events.iter().any(|e| matches!(e, Event::Encode { .. })));
    }

    #[test]
    fn inplace_relu_lowers_peak_memory_without_changing_values() {
        let (x, y) = minibatch(4);
        let g = gist_models::small_vgg(4, 3);
        let with_inplace = GistConfig::lossless();
        let without = GistConfig { inplace: false, ..GistConfig::lossless() };
        let mut a = Executor::new(g.clone(), ExecMode::Gist(with_inplace), 5).unwrap();
        let mut b = Executor::new(g, ExecMode::Gist(without), 5).unwrap();
        let (sa, _) = a.forward_backward(&x, &y).unwrap();
        let (sb, _) = b.forward_backward(&x, &y).unwrap();
        assert_eq!(sa.loss, sb.loss, "inplace must not change values");
        assert!(
            sa.peak_live_bytes < sb.peak_live_bytes,
            "inplace should lower peak: {} vs {}",
            sa.peak_live_bytes,
            sb.peak_live_bytes
        );
    }

    /// Two parallel conv branches off one input: waves with sibling nodes in
    /// both directions, plus a shared producer whose gradient accumulates
    /// contributions from two nodes of the same wave.
    fn branchy_graph(batch: usize) -> Graph {
        let mut g = Graph::new("branchy");
        let x = g.input(Shape::nchw(batch, 3, 8, 8));
        let p = gist_tensor::ops::conv::ConvParams::new(3, 1, 1);
        let a = g.conv(x, 4, p, true, "conv_a");
        let b = g.conv(x, 4, p, true, "conv_b");
        let ra = g.relu(a, "relu_a");
        let rb = g.relu(b, "relu_b");
        let s = g.add(ra, rb, "add");
        let fc = g.linear(s, 3, true, "fc");
        g.softmax_loss(fc, "loss");
        g
    }

    #[test]
    fn multi_node_waves_are_thread_count_invariant() {
        let probe = Executor::new(branchy_graph(2), ExecMode::Baseline, 3).unwrap();
        assert!(
            probe.program().blocks.iter().any(|b| b.concurrent && b.items.len() > 1),
            "test graph must exercise sibling waves"
        );
        let mut ds = SyntheticImages::rgb(3, 8, 0.3, 9);
        let (x, y) = ds.minibatch(2);
        let run = |threads: usize| {
            gist_par::with_threads(threads, || {
                let mut e = Executor::new(branchy_graph(2), ExecMode::Baseline, 3).unwrap();
                let (stats, grads) = e.forward_backward(&x, &y).unwrap();
                let mut bits: Vec<u32> = vec![stats.loss.to_bits()];
                for g in grads.iter().flatten() {
                    bits.extend(g.main.data().iter().map(|v| v.to_bits()));
                    if let Some(s) = &g.secondary {
                        bits.extend(s.data().iter().map(|v| v.to_bits()));
                    }
                }
                (bits, stats.peak_live_bytes)
            })
        };
        let base = run(1);
        assert!(base.0.len() > 1, "gradients flowed");
        for t in [2, 4] {
            assert_eq!(run(t), base, "threads={t} must be byte-identical to serial");
        }
    }

    #[test]
    fn arena_steps_are_byte_identical_to_heap_steps() {
        let (x, y) = minibatch(4);
        for mode in [
            ExecMode::Baseline,
            ExecMode::Gist(GistConfig::lossless()),
            ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8)),
            ExecMode::UniformImmediate(DprFormat::Fp8),
        ] {
            let g = gist_models::small_vgg(4, 3);
            let mut heap = Executor::new(g.clone(), mode.clone(), 5).unwrap();
            let mut arena = Executor::new(g, ExecSpec::from(mode.clone()).arena(), 5).unwrap();
            assert_eq!(arena.spec().alloc, AllocPolicy::Arena);
            assert!(arena.arena_capacity_bytes().unwrap() > 0);
            for step in 0..2 {
                let sh = heap.step(&x, &y, 0.05).unwrap();
                let sa = arena.step(&x, &y, 0.05).unwrap();
                assert_eq!(
                    sh.loss.to_bits(),
                    sa.loss.to_bits(),
                    "loss diverged at step {step} for {mode:?}"
                );
            }
            assert_eq!(
                weights_of(&heap).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                weights_of(&arena).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "weights diverged for {mode:?}"
            );
        }
    }

    #[test]
    fn arena_branchy_graph_matches_heap() {
        let mut ds = SyntheticImages::rgb(3, 8, 0.3, 9);
        let (x, y) = ds.minibatch(2);
        let mut heap = Executor::new(branchy_graph(2), ExecMode::Baseline, 3).unwrap();
        let spec = ExecSpec::from(ExecMode::Baseline).arena();
        let mut arena = Executor::new(branchy_graph(2), spec, 3).unwrap();
        let (sh, gh) = heap.forward_backward(&x, &y).unwrap();
        let (sa, ga) = arena.forward_backward(&x, &y).unwrap();
        assert_eq!(sh.loss.to_bits(), sa.loss.to_bits());
        for (h, a) in gh.iter().zip(ga) {
            match (h, a) {
                (None, None) => {}
                (Some(h), Some(a)) => {
                    assert_eq!(h.main.data(), a.main.data());
                    assert_eq!(
                        h.secondary.as_ref().map(|t| t.data().to_vec()),
                        a.secondary.as_ref().map(|t| t.data().to_vec())
                    );
                }
                _ => panic!("gradient presence diverged"),
            }
        }
    }

    #[test]
    fn batch_mismatch_is_rejected() {
        let g = gist_models::tiny_convnet(4, 3);
        let mut e = Executor::new(g, ExecMode::Baseline, 1).unwrap();
        let (x, y) = minibatch(4);
        assert!(matches!(e.step(&x, &y[..2], 0.1), Err(RuntimeError::BatchMismatch(_))));
        let bad = Tensor::zeros(Shape::nchw(4, 3, 16, 16));
        assert!(matches!(e.step(&bad, &y, 0.1), Err(RuntimeError::BatchMismatch(_))));
    }

    /// The oracle that can still fail now that `observed == predicted`
    /// holds by construction: an interpreter touching a buffer outside the
    /// lifetime the program gives it trips the debug live-set. Here the
    /// lifetime of the gradient map the loss head writes directly is
    /// shortened — its `Alloc` moved from the block's entry to its exit —
    /// while the backward kernel still writes it in between.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside its program lifetime")]
    fn shortened_buffer_lifetime_trips_the_live_set_guard() {
        let g = gist_models::tiny_convnet(4, 3);
        let spec = ExecSpec { plan: PlanGranularity::Wave, ..ExecSpec::from(ExecMode::Baseline) };
        let mut e = Executor::new(g, spec.arena(), 1).unwrap();
        let backward_start = e.program.backward_start;
        let written = match &e.program.blocks[backward_start].items[0].work {
            Work::Backward { targets, .. } => targets[0].write(),
            other => panic!("first backward item is the loss head, got {other:?}"),
        };
        let block = &mut e.program.blocks[backward_start];
        block.entry.retain(|op| *op != MemOp::Alloc(written));
        block.exit.push(MemOp::Alloc(written));
        let (x, y) = minibatch(4);
        let _ = e.step(&x, &y, 0.05);
    }

    /// The meter's guard: a buffer freed twice fires in debug builds
    /// instead of silently reading as zero live bytes. The close-out's last
    /// `Free` brings the step back to zero live bytes, so playing it again
    /// frees more than is live.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "B live")]
    fn a_double_free_fires_the_meter_guard() {
        let g = gist_models::tiny_convnet(4, 3);
        let mut e = Executor::new(g, ExecMode::Baseline, 1).unwrap();
        let close = e.program.blocks.last_mut().expect("a close-out block");
        let last = *close.entry.last().expect("the close-out frees what is still live");
        assert!(matches!(last, MemOp::Free(_)), "close-out ends on {last:?}");
        close.entry.push(last);
        let (x, y) = minibatch(4);
        let _ = e.step(&x, &y, 0.05);
    }
}
