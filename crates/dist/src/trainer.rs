//! The data-parallel trainer: one global step, wherever its ranks live.
//!
//! Every global step runs the same `S` shards no matter how the world of
//! `N` ranks is placed: rank `r` computes shards `r, r + N, r + 2N, ...`,
//! the shard gradients drain into the fixed reduction tree of
//! [`crate::reduce`], rank 0 mean-scales the sum and broadcasts one
//! encoded copy that every rank decodes, and the identical SGD update
//! lands on every replica. Each owned shard's gradients land in a set of
//! the trainer's ([`Executor::forward_backward_into`]), the tree reduces
//! over those same buffers, and the merged mean is left in one of them
//! ([`Trainer::merged`]). A trainer whose world crosses a transport keeps
//! its sets from step to step — its frames stream straight out of and
//! into them — so its steady-state step allocates no gradient-sized
//! buffer; one that owns its whole world builds them per step (the
//! in-process reduction, ROADMAP). A [`Trainer`] *owns* some of those ranks (their
//! executors and sub-pools) and holds a [`Transport`] to the rest:
//! [`DistTrainer`] owns them all, so nothing is ever serialized, framed or
//! sent; [`NetTrainer<T>`] owns the one rank its transport speaks for.
//! Ownership only decides, edge by edge, whether a partial is combined in
//! place or carried — the merged update is byte-identical for every `N`
//! and every placement (`tests/{dist,net}_equivalence.rs`).
//!
//! **No partial application:** every merged tensor for a step is computed
//! (and every exchange completed) before any parameter moves. A typed
//! [`DistError`] aborts the step with parameters untouched.

use crate::frame::NetError;
use crate::link::{simulate_allreduce, AllReduceReport};
use crate::reduce::{reduction_rounds, Exchange, GradReduceTree, Placement};
use crate::transport::{NoPeers, Transport};
use gist_encodings::CodecPolicy;
use gist_obs::Event;
use gist_par as par;
use gist_par::ThreadPool;
use gist_perf::GpuModel;
use gist_runtime::params::{sgd_update, ParamGrads};
use gist_runtime::{Executor, RuntimeError, StepStats};
use gist_tensor::Tensor;
use std::time::Instant;

/// Micro-batch shards per global step, fixed regardless of replica count
/// so the reduction order (and thus the merged bits) never moves.
pub const DEFAULT_SHARDS: usize = 8;

/// Errors from trainer construction or stepping.
#[derive(Debug)]
pub enum DistError {
    /// Invalid world/shard configuration or malformed step inputs.
    Config(String),
    /// A replica's executor failed to build or to step.
    Runtime(RuntimeError),
    /// The transport failed or a peer broke the exchange protocol.
    Net(NetError),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Config(msg) => write!(f, "dist config error: {msg}"),
            DistError::Runtime(e) => write!(f, "dist runtime error: {e}"),
            DistError::Net(e) => write!(f, "dist transport error: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<RuntimeError> for DistError {
    fn from(e: RuntimeError) -> Self {
        DistError::Runtime(e)
    }
}

impl From<NetError> for DistError {
    fn from(e: NetError) -> Self {
        DistError::Net(e)
    }
}

/// What one global step produced. The global loss/correct/batch and
/// `broadcast_bytes` — like the merged gradient the trainer keeps,
/// [`Trainer::merged`] — are identical on every trainer of a world by
/// construction.
#[derive(Debug)]
pub struct StepReport {
    /// Mean of the shard mean losses (summed in shard-id order — the
    /// identical `f32` operation sequence on every rank).
    pub loss: f32,
    /// Correct top-1 predictions summed over all shards.
    pub correct: usize,
    /// Total examples over all shards.
    pub batch: usize,
    /// Step statistics of the shards this trainer's ranks computed, in
    /// ascending shard id (every shard for a [`DistTrainer`]).
    pub shard_stats: Vec<StepStats>,
    /// Priced encoded bytes per tree edge, `[round][edge]` matching
    /// [`reduction_rounds`], summed over gradient tensors — restricted to
    /// the edges **this trainer touches** (combined in place, sent or
    /// received). A crossing edge is priced identically on both endpoints,
    /// so overlaying every trainer's table reconstructs the full tree.
    pub edge_bytes: Vec<Vec<u64>>,
    /// Priced encoded bytes of one broadcast copy of the merged gradient
    /// (the link engine multiplies by `world - 1`).
    pub broadcast_bytes: u64,
    /// Total priced bytes over this trainer's reduction-tree edges.
    pub reduce_bytes: u64,
    /// Dense baseline bytes for one gradient copy (`scalars * 4`).
    pub dense_grad_bytes: u64,
    /// Bytes that actually crossed this trainer's transport this step,
    /// framing included — the measured side of the observed-vs-priced
    /// pair. `0` when nothing crossed.
    pub observed_wire_bytes: u64,
}

/// A shard's forward/backward statistics, tagged with its shard id.
type ShardOut = (usize, StepStats);

/// One shard's parameter gradients, node-indexed.
type GradSet = Vec<Option<ParamGrads>>;

/// Data-parallel trainer over the ranks it owns: lockstep replicas, the
/// fixed-tree all-reduce with a codec on every transfer, and `T` carrying
/// whatever leaves those ranks.
#[derive(Debug)]
pub struct Trainer<T> {
    /// One executor per owned rank, in rank order.
    execs: Vec<Executor>,
    pools: Vec<ThreadPool>,
    placement: Placement<T>,
    policy: CodecPolicy,
    shards: usize,
    step_no: u32,
    events: Vec<Event>,
    /// One gradient set per shard, by shard id: an owned shard's is written
    /// in place by every step — built by the first where the world crosses
    /// a transport, by each where it does not — and an unowned shard's
    /// stays empty.
    sets: Vec<GradSet>,
    /// The shard whose set holds the last step's merged gradient.
    merged: usize,
}

/// The trainer that owns every rank of its world: `DistTrainer::new(replicas, ..)`.
pub type DistTrainer = Trainer<NoPeers>;

/// The trainer that owns one rank of a world connected by `T`:
/// `NetTrainer::new(transport, ..)`.
pub type NetTrainer<T> = Trainer<T>;

impl<T: Transport> Trainer<T> {
    /// Builds one executor per owned rank by calling `build` (same graph,
    /// same seed on every rank of the world → identical initial
    /// parameters, the other half of the lockstep invariant). A trainer
    /// owning several ranks carves the ambient thread budget into one
    /// sub-pool per rank (`max(1, current_threads / ranks)` threads each).
    ///
    /// `placement` is a replica count or a connected [`Transport`];
    /// `policy` a fixed codec or a [`CodecPolicy`], applied on every tree
    /// edge and the broadcast regardless of placement.
    ///
    /// # Errors
    ///
    /// [`DistError::Config`] unless `1 <= world <= shards` and `world`
    /// divides `shards`; builder failures are [`DistError::Runtime`].
    pub fn new(
        placement: impl Into<Placement<T>>,
        shards: usize,
        policy: impl Into<CodecPolicy>,
        mut build: impl FnMut() -> Result<Executor, RuntimeError>,
    ) -> Result<Self, DistError> {
        let placement = placement.into();
        let world = placement.world;
        if world == 0 || shards == 0 {
            return Err(DistError::Config("world and shards must be positive".into()));
        }
        if world > shards || !shards.is_multiple_of(world) {
            return Err(DistError::Config(format!(
                "world ({world}) must divide shards ({shards})"
            )));
        }
        let execs: Vec<Executor> =
            placement.owned.clone().map(|_| build()).collect::<Result<_, _>>()?;
        // Sub-pools only matter when there are both threads to split and
        // replicas to run side by side; otherwise replicas step
        // sequentially on the caller's ambient pool.
        let pools = if execs.len() > 1 && par::current_threads() > 1 {
            let per = (par::current_threads() / execs.len()).max(1);
            execs.iter().map(|_| ThreadPool::new(per)).collect()
        } else {
            Vec::new()
        };
        let policy = policy.into();
        let sets = (0..shards).map(|_| Vec::new()).collect();
        let events = Vec::new();
        Ok(Self { execs, pools, placement, policy, shards, step_no: 0, events, sets, merged: 0 })
    }

    /// Replicas this trainer owns.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.execs.len()
    }

    /// Total rank count of the world.
    #[must_use]
    pub fn world(&self) -> usize {
        self.placement.world
    }

    /// The `r`-th owned replica's executor (every replica of the world
    /// holds identical parameters after every step — tests fingerprint
    /// replica 0).
    #[must_use]
    pub fn replica(&self, r: usize) -> &Executor {
        &self.execs[r]
    }

    /// Mutable access to the `r`-th owned executor. The serve layer
    /// restores parked parameters through this; a caller that mutates one
    /// replica's parameters must mutate **every** replica identically, or
    /// the all-replicas-agree invariant [`Self::replica`] documents breaks.
    pub fn replica_mut(&mut self, r: usize) -> &mut Executor {
        &mut self.execs[r]
    }

    /// The merged (mean, broadcast-decoded) gradient the last step applied
    /// to every replica — what the equivalence tests fingerprint. Node-
    /// indexed like [`Executor::forward_backward`]'s set, and the same bits
    /// on every trainer of a world. It lives in a buffer the next step
    /// writes again: empty before the first step, unspecified after a
    /// failed one.
    #[must_use]
    pub fn merged(&self) -> &[Option<ParamGrads>] {
        &self.sets[self.merged]
    }

    /// Drains the most recent step's [`Event::NetTransfer`] trace events:
    /// observed wall-clock and observed-vs-priced bytes per crossing edge
    /// and broadcast leg. Each `step` starts the list afresh, so a caller
    /// that never drains holds one step's worth; empty when nothing
    /// crossed.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Runs one global step: forward/backward of every owned rank's
    /// shards, the fixed-tree all-reduce (owned edges combined in place,
    /// crossing edges framed over the transport), rank 0's mean-scale +
    /// broadcast, the per-shard stats exchange, and — only after every
    /// exchange succeeded — the identical SGD update on every owned
    /// replica.
    ///
    /// `images`/`labels` must hold **all** `shards()` shard minibatches on
    /// every trainer of the world (each computes only its own, but indexes
    /// the shared table).
    ///
    /// # Errors
    ///
    /// [`DistError::Config`] unless there is exactly one equally shaped
    /// entry per shard; executor failures are [`DistError::Runtime`],
    /// transport and protocol failures [`DistError::Net`]. Parameters and
    /// step epochs are untouched on every error.
    pub fn step(
        &mut self,
        images: &[Tensor],
        labels: &[Vec<usize>],
        lr: f32,
    ) -> Result<StepReport, DistError> {
        let s = self.shards;
        if images.len() != s || labels.len() != s {
            return Err(DistError::Config(format!(
                "expected {s} shard minibatches, got {} images / {} labels",
                images.len(),
                labels.len()
            )));
        }
        if images.windows(2).any(|w| w[0].shape() != w[1].shape()) {
            return Err(DistError::Config("shard minibatch shapes differ".into()));
        }
        // Shard `i` draws its dropout masks at epoch `epoch + i` — what one
        // replica running every shard in order would use — whichever rank
        // runs it; every replica then moves on to `epoch + S` together.
        let epoch = self.execs[0].steps_executed();
        let stepped = self.step_at(epoch, images, labels, lr);
        let next = if stepped.is_ok() { epoch + s as u64 } else { epoch };
        self.execs.iter_mut().for_each(|exec| exec.set_steps_executed(next));
        stepped
    }

    /// [`Self::step`] after its input checks, with shard `i`'s dropout
    /// epoch at `epoch + i`.
    fn step_at(
        &mut self,
        epoch: u64,
        images: &[Tensor],
        labels: &[Vec<usize>],
        lr: f32,
    ) -> Result<StepReport, DistError> {
        let s = self.shards;
        self.events.clear();
        let t0 = Instant::now();

        // Phase 1: every owned rank's shards, in rank-major arrival order
        // (for several ranks NOT shard order — the tree does not care),
        // each into its own set: kept from the last step where a transport
        // streams it, built afresh where nothing crosses (the in-process
        // reduction, ROADMAP).
        if !self.placement.crosses() {
            self.sets.iter_mut().for_each(Vec::clear);
        }
        let mut outs = self.run_owned(epoch, images, labels)?;

        // Phase 2: per-tensor fixed-tree reduce and mean-scale, then the
        // broadcasts, over the owned sets in place. Tensor ids are
        // positions in the canonical walk of a gradient set on every rank,
        // so frame headers line up without negotiation.
        let rounds = reduction_rounds(s);
        let (world, owned) = (self.placement.world, self.placement.owned.clone());
        let mut ex = Exchange::new(&rounds, &mut self.placement, self.step_no, t0);
        let mut walks: Vec<_> = self
            .sets
            .iter_mut()
            .enumerate()
            .filter(|(shard, _)| owned.contains(&(shard % world)))
            .map(|(shard, set)| (shard, set.iter_mut().flatten().flat_map(|g| g.tensors_mut())))
            .collect();
        let mut reduced = Vec::new();
        loop {
            let mut tree = GradReduceTree::new(s, self.policy);
            let mut ended = 0;
            for (shard, walk) in &mut walks {
                match walk.next() {
                    Some(grad) => tree.ingest(*shard, grad.data_mut()),
                    None => ended += 1,
                }
            }
            if ended == walks.len() {
                break;
            }
            assert_eq!(ended, 0, "shard grad structure mismatch");
            reduced.push(ex.reduce_tensor(tree, reduced.len() as u32)?);
        }
        let mut merged = 0;
        for tensor in reduced {
            merged = ex.broadcast(tensor)?;
        }
        drop(walks);
        let mut dense_grad_bytes = 0u64;
        for grad in self.sets[merged].iter().flatten().flat_map(ParamGrads::tensors) {
            dense_grad_bytes += grad.numel() as u64 * 4;
        }

        // Phase 3: the per-shard stats table, completed across the world.
        let mut table = vec![None; s];
        for (shard, stats) in &outs {
            table[*shard] = Some([stats.loss.to_bits(), stats.correct as u32, stats.batch as u32]);
        }
        let table = ex.share_stats(table)?;
        let loss =
            table.iter().map(|row| f32::from_bits(row[0])).sum::<f32>() * (1.0f32 / s as f32);

        // Phase 4: every exchange succeeded — only now touch parameters.
        for exec in &mut self.execs {
            sgd_update(&mut exec.params, &self.sets[merged], lr);
        }
        let Exchange { edge_bytes, broadcast_bytes, ledger, .. } = ex;
        self.events = ledger.events;
        self.merged = merged;
        self.step_no += 1;

        outs.sort_by_key(|(shard, _)| *shard);
        Ok(StepReport {
            loss,
            correct: table.iter().map(|row| row[1] as usize).sum(),
            batch: table.iter().map(|row| row[2] as usize).sum(),
            shard_stats: outs.into_iter().map(|(_, stats)| stats).collect(),
            reduce_bytes: edge_bytes.iter().flatten().sum(),
            edge_bytes,
            broadcast_bytes,
            dense_grad_bytes,
            observed_wire_bytes: ledger.observed,
        })
    }

    /// Prices the report's wire bytes on the virtual-clock link engine for
    /// this trainer's world (the whole all-reduce for a [`DistTrainer`],
    /// whose report covers every edge).
    #[must_use]
    pub fn price(&self, report: &StepReport, gpu: &GpuModel) -> AllReduceReport {
        simulate_allreduce(
            &reduction_rounds(self.shards),
            &report.edge_bytes,
            self.placement.world,
            report.broadcast_bytes,
            gpu,
        )
    }

    /// Phase 1: owned rank `r` steps shards `r, r + N, ...` on its own
    /// executor, each shard's gradients landing in that shard's kept set.
    /// With sub-pools, ranks run side by side on scoped OS threads, each
    /// re-installing the parent's ambient word (spawned threads start with
    /// ambient 0, which would drop the caller's `GIST_SIMD` override) and
    /// its own sub-pool; otherwise they step sequentially inline —
    /// bit-identical either way, because each shard's computation is
    /// independent and the executor is thread-count-invariant.
    fn run_owned(
        &mut self,
        epoch: u64,
        images: &[Tensor],
        labels: &[Vec<usize>],
    ) -> Result<Vec<ShardOut>, RuntimeError> {
        let (world, owned) = (self.placement.world, self.placement.owned.clone());
        let mut per_rank: Vec<Vec<(usize, &mut GradSet)>> = owned.clone().map(|_| vec![]).collect();
        for (shard, set) in self.sets.iter_mut().enumerate() {
            if owned.contains(&(shard % world)) {
                per_rank[shard % world - owned.start].push((shard, set));
            }
        }
        let run = |exec: &mut Executor, sets: Vec<(usize, &mut GradSet)>| {
            sets.into_iter()
                .map(|(shard, grads)| {
                    exec.set_steps_executed(epoch + shard as u64);
                    let stats =
                        exec.forward_backward_into(&images[shard], &labels[shard], grads)?;
                    Ok((shard, stats))
                })
                .collect::<Result<Vec<ShardOut>, RuntimeError>>()
        };
        let ranked = self.execs.iter_mut().zip(per_rank);
        let per_rank: Result<Vec<Vec<ShardOut>>, RuntimeError> = if self.pools.is_empty() {
            ranked.map(|(exec, sets)| run(exec, sets)).collect()
        } else {
            let ambient = par::ambient();
            let run = &run;
            std::thread::scope(|scope| {
                let handles: Vec<_> = ranked
                    .zip(&self.pools)
                    .map(|((exec, sets), pool)| {
                        scope.spawn(move || {
                            par::with_ambient(ambient, || par::with_pool(pool, || run(exec, sets)))
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("replica thread panicked")).collect()
            })
        };
        Ok(per_rank?.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcess;
    use gist_encodings::TransferCodec;
    use gist_runtime::params::tensors;
    use gist_runtime::ExecMode;

    fn build_exec() -> Result<Executor, RuntimeError> {
        let g = gist_models::tiny_convnet(2, 4);
        Executor::new(g, ExecMode::Baseline, 42)
    }

    fn shard_data(shards: usize, batch: usize) -> (Vec<Tensor>, Vec<Vec<usize>>) {
        let mut data = gist_runtime::SyntheticImages::new(4, 16, 0.1, 1234);
        (0..shards).map(|_| data.minibatch(batch)).unzip()
    }

    fn fingerprint(exec: &Executor) -> Vec<u32> {
        exec.params.bits().collect()
    }

    #[test]
    fn replica_counts_agree_bitwise() {
        let (images, labels) = shard_data(8, 2);
        let mut fps = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let mut t = DistTrainer::new(n, 8, TransferCodec::None, build_exec).unwrap();
            for _ in 0..2 {
                t.step(&images, &labels, 0.05).unwrap();
            }
            fps.push(fingerprint(t.replica(0)));
            // Every replica stays in lockstep with replica 0.
            for r in 1..n {
                assert_eq!(fingerprint(t.replica(r)), *fps.last().unwrap(), "replica {r} of {n}");
            }
        }
        for fp in &fps[1..] {
            assert_eq!(*fp, fps[0]);
        }
    }

    /// Dropout masks follow the shard, not the replica that runs it: shard
    /// `i` draws them at the epoch one replica running every shard in order
    /// would use, and every replica moves on by `S` together.
    #[test]
    fn dropout_nets_merge_the_same_gradients_at_every_replica_count() {
        let graph = gist_models::tiny_classic(2, 4);
        let mut data = gist_runtime::SyntheticImages::for_graph(&graph, 0.1, 1234).unwrap();
        let (images, labels): (Vec<Tensor>, Vec<Vec<usize>>) =
            (0..8).map(|_| data.minibatch(2)).unzip();
        let build = || Executor::new(graph.clone(), ExecMode::Baseline, 42);
        let mut merged = Vec::new();
        for n in [1usize, 2, 4] {
            let mut t = DistTrainer::new(n, 8, TransferCodec::None, build).unwrap();
            let mut bits = Vec::new();
            for step in 1..=2 {
                t.step(&images, &labels, 0.05).unwrap();
                bits.extend(tensors(t.merged()).flat_map(|g| g.data().iter().map(|v| v.to_bits())));
                for r in 0..n {
                    assert_eq!(t.replica(r).steps_executed(), 8 * step, "replica {r} of {n}");
                }
            }
            merged.push(bits);
        }
        assert_eq!(merged[1], merged[0], "2 replicas merged other gradients than 1");
        assert_eq!(merged[2], merged[0], "4 replicas merged other gradients than 1");
    }

    /// A step that fails — in a shard's pass or in the exchange — leaves
    /// every replica's step epoch where it was.
    #[test]
    fn a_failed_step_leaves_every_step_epoch_unchanged() {
        let (images, labels) = shard_data(8, 2);
        let mut short_labels = labels.clone();
        short_labels[5].pop();
        let mut all = DistTrainer::new(4, 8, TransferCodec::None, build_exec).unwrap();
        all.step(&images, &labels, 0.05).unwrap();
        all.step(&images, &short_labels, 0.05).expect_err("shard 5 is one label short");
        for r in 0..4 {
            assert_eq!(all.replica(r).steps_executed(), 8, "replica {r}");
        }

        let mut mesh = InProcess::mesh(2);
        drop(mesh.pop()); // rank 1 never joins
        let rank0 = mesh.pop().expect("rank 0");
        let mut t = NetTrainer::new(rank0, 8, TransferCodec::None, build_exec).unwrap();
        let err = t.step(&images, &labels, 0.05).expect_err("stepped without its peer");
        assert!(matches!(err, DistError::Net(_)), "{err:?}");
        assert_eq!(t.replica(0).steps_executed(), 0);
    }

    #[test]
    fn ssdc_codec_is_bitwise_lossless_on_the_wire() {
        let (images, labels) = shard_data(8, 2);
        let mut a = DistTrainer::new(2, 8, TransferCodec::None, build_exec).unwrap();
        let mut b = DistTrainer::new(2, 8, TransferCodec::Ssdc, build_exec).unwrap();
        let ra = a.step(&images, &labels, 0.05).unwrap();
        let rb = b.step(&images, &labels, 0.05).unwrap();
        assert_eq!(fingerprint(a.replica(0)), fingerprint(b.replica(0)));
        assert_eq!(ra.loss.to_bits(), rb.loss.to_bits());
        // Gradients are dense, so SSDC pays the column-index overhead and
        // still reports honest wire bytes.
        assert!(rb.reduce_bytes > 0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for replicas in [0, 3, 16] {
            let built = DistTrainer::new(replicas, 8, TransferCodec::None, build_exec);
            assert!(
                matches!(built, Err(DistError::Config(_))),
                "{replicas} replicas over 8 shards"
            );
        }
    }

    #[test]
    fn report_prices_on_the_link_engine() {
        let (images, labels) = shard_data(8, 2);
        let mut t = DistTrainer::new(4, 8, TransferCodec::None, build_exec).unwrap();
        let rep = t.step(&images, &labels, 0.05).unwrap();
        let priced = t.price(&rep, &GpuModel::titan_x());
        // 4 replicas over 8 slots: gap-1 and gap-2 edges cross, gap-4 is
        // local; 3 broadcast legs.
        assert!(priced.total_s > 0.0);
        let crossed_reduce: u64 = priced
            .transfers
            .iter()
            .filter(|tr| tr.crossed && tr.round < 3)
            .map(|tr| tr.bytes)
            .sum();
        let expected: u64 =
            rep.edge_bytes[0].iter().sum::<u64>() + rep.edge_bytes[1].iter().sum::<u64>();
        assert_eq!(crossed_reduce, expected);
        assert_eq!(priced.bytes_on_wire, crossed_reduce + 3 * rep.broadcast_bytes);
    }

    /// Bad step inputs, run through a trainer of either ownership: the
    /// same typed variant, and parameters untouched.
    fn rejects_bad_inputs<T: Transport>(mut t: Trainer<T>, owns: &str) {
        let (images, labels) = shard_data(8, 2);
        let (wide, wide_labels) = shard_data(1, 3);
        let before = fingerprint(t.replica(0));
        type Case = (&'static str, Vec<Tensor>, Vec<Vec<usize>>, fn(&DistError) -> bool);
        let mut ragged = (images.clone(), labels.clone());
        ragged.0[3] = wide[0].clone();
        ragged.1[3] = wide_labels[0].clone();
        let mut short_labels = labels.clone();
        short_labels[5].pop();
        let cases: Vec<Case> = vec![
            ("wrong shard count", images[..7].to_vec(), labels[..7].to_vec(), |e| {
                matches!(e, DistError::Config(_))
            }),
            ("ragged shapes", ragged.0, ragged.1, |e| matches!(e, DistError::Config(_))),
            ("label/batch mismatch", images.clone(), short_labels, |e| {
                matches!(e, DistError::Runtime(RuntimeError::BatchMismatch(_)))
            }),
        ];
        for (what, x, y, expected) in cases {
            let err = t.step(&x, &y, 0.05).expect_err(what);
            assert!(expected(&err), "{owns}, {what}: got {err:?}");
            assert_eq!(fingerprint(t.replica(0)), before, "{owns}, {what}: parameters moved");
        }
        // The trainer is still usable after every rejection.
        t.step(&images, &labels, 0.05).expect("good inputs after bad ones");
        assert_ne!(fingerprint(t.replica(0)), before);
    }

    #[test]
    fn both_ownerships_reject_the_same_bad_inputs_the_same_way() {
        let all = DistTrainer::new(2, 8, TransferCodec::None, build_exec).unwrap();
        rejects_bad_inputs(all, "owns every rank");
        let solo = InProcess::mesh(1).pop().expect("rank 0");
        let one = NetTrainer::new(solo, 8, TransferCodec::None, build_exec).unwrap();
        rejects_bad_inputs(one, "owns one rank");
    }

    #[test]
    fn a_peer_with_another_element_count_is_a_protocol_error_and_no_rank_moves() {
        let ranks: Vec<_> = InProcess::mesh(2)
            .into_iter()
            .enumerate()
            .map(|(rank, tp)| {
                std::thread::spawn(move || {
                    let (images, labels) = shard_data(8, 2);
                    // Rank 1 trains a wider classifier: its `fc` gradients
                    // hold 5/4 the elements rank 0's slots expect.
                    let build = || {
                        let g = gist_models::tiny_convnet(2, 4 + rank);
                        Executor::new(g, ExecMode::Baseline, 42)
                    };
                    let mut t = NetTrainer::new(tp, 8, TransferCodec::None, build).unwrap();
                    let before = fingerprint(t.replica(0));
                    let err = t.step(&images, &labels, 0.05).expect_err("mismatched ranks stepped");
                    assert_eq!(fingerprint(t.replica(0)), before, "rank {rank} moved parameters");
                    err
                })
            })
            .collect();
        let errs: Vec<DistError> = ranks.into_iter().map(|h| h.join().expect("rank")).collect();
        assert!(
            matches!(&errs[0], DistError::Net(NetError::Protocol(m)) if m.contains("peer sent")),
            "rank 0: {:?}",
            errs[0]
        );
        // Rank 0 aborted its step, so rank 1's next receive finds it gone.
        assert!(
            matches!(errs[1], DistError::Net(NetError::Disconnected { peer: 0 })),
            "{:?}",
            errs[1]
        );
    }

    #[test]
    fn undrained_trainer_holds_one_step_of_transfer_events() {
        let ranks: Vec<_> = InProcess::mesh(2)
            .into_iter()
            .map(|tp| {
                std::thread::spawn(move || {
                    let (images, labels) = shard_data(8, 2);
                    let mut t = NetTrainer::new(tp, 8, TransferCodec::None, build_exec).unwrap();
                    t.step(&images, &labels, 0.05).unwrap();
                    let one_step = t.take_events().len();
                    for _ in 0..3 {
                        t.step(&images, &labels, 0.05).unwrap();
                    }
                    (one_step, t.take_events().len())
                })
            })
            .collect();
        for (rank, h) in ranks.into_iter().enumerate() {
            let (one_step, after_three) = h.join().expect("rank thread");
            assert!(one_step > 0, "rank {rank} crossed nothing");
            assert_eq!(after_three, one_step, "rank {rank} kept more than the last step");
        }
    }
}
