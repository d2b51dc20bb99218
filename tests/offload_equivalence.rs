//! Differential offload suite.
//!
//! Recomputation and swapping change *where bytes live*, never *what values
//! flow*: a training run under `OffloadMode::Recompute` or
//! `OffloadMode::Swap(_)` must produce bit-for-bit the losses and updated
//! weights of fully-resident execution, across every execution mode,
//! allocation policy, and thread count. Views of the equivalence matrix
//! (`tests/matrix/mod.rs`) check that promise the only way that counts —
//! raw bits; the properties below attack the virtual-clock transfer
//! engine's core invariant on randomly generated architectures: no swap-in
//! is ever consumed before it has fully arrived, and no stash is fetched
//! before it finished leaving the device.

mod matrix;

use gist::graph::Graph;
use gist::perf::GpuModel;
use gist::prelude::*;
use gist::tensor::ops::conv::ConvParams;
use gist::tensor::ops::pool::PoolParams;
use gist_testkit::prop::{boxed, just, map, one_of, vec_of, Strategy};
use gist_testkit::Runner;

matrix::views! {
    offloaded_training_is_bitwise_identical_to_resident: [
        "model=small_vgg mode=baseline|lossless|fp16 offload=recompute|swap:naive|swap:vdnn \
         threads=1|2 alloc=*",
    ],
    branchy_graphs_match_resident_under_offload: [
        "model=resnet_cifar|densenet_cifar mode=baseline|lossless offload=recompute|swap:vdnn \
         alloc=* batch=4",
    ],
}

// ---------------------------------------------------------------------------
// Virtual-clock properties on random architectures
// ---------------------------------------------------------------------------

/// One randomly chosen layer in a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LayerChoice {
    Conv { channels: usize },
    Relu,
    MaxPool,
    BatchNorm,
}

fn layer_strategy() -> impl Strategy<Value = LayerChoice> {
    one_of(vec![
        boxed(map(1usize..8, |channels| LayerChoice::Conv { channels })),
        boxed(just(LayerChoice::Relu)),
        boxed(just(LayerChoice::MaxPool)),
        boxed(just(LayerChoice::BatchNorm)),
    ])
}

fn build_chain(choices: &[LayerChoice]) -> Graph {
    let mut g = Graph::new("offload-random-chain");
    let mut x = g.input(gist::tensor::Shape::nchw(2, 3, 16, 16));
    let mut hw = 16usize;
    for (i, &c) in choices.iter().enumerate() {
        x = match c {
            LayerChoice::Conv { channels } => {
                g.conv(x, channels, ConvParams::new(3, 1, 1), true, format!("conv{i}"))
            }
            LayerChoice::Relu => g.relu(x, format!("relu{i}")),
            LayerChoice::MaxPool if hw >= 4 => {
                hw /= 2;
                g.max_pool(x, PoolParams::new(2, 2, 0), format!("maxpool{i}"))
            }
            LayerChoice::MaxPool => g.relu(x, format!("relu{i}")),
            LayerChoice::BatchNorm => g.batch_norm(x, format!("bn{i}")),
        };
    }
    let fc = g.linear(x, 3, true, "fc");
    g.softmax_loss(fc, "loss");
    g
}

fn plan_for(graph: &Graph, mode: OffloadMode) -> gist::offload::OffloadPlan {
    let enc = vec![gist::encodings::StashCodec::Dense; graph.len()];
    gist::offload::OffloadPlan::plan(graph, &enc, mode).expect("plan")
}

/// The prefetch queue never violates causality, for any chain and any
/// transfer strategy: a swap-in starts only after its swap-out finished,
/// completes before it is consumed, and the double-buffered queue holds at
/// most two undelivered prefetches at any virtual instant.
#[test]
fn swap_schedule_never_reads_a_stash_before_swap_in_completes() {
    let gpu = GpuModel::titan_x();
    let strategies =
        [SwapStrategy::Naive, SwapStrategy::Vdnn, SwapStrategy::Cdma { compression: 2.0 }];
    Runner::new("swap_schedule_never_reads_a_stash_before_swap_in_completes").cases(48).run(
        &vec_of(layer_strategy(), 0..14),
        |choices| {
            let g = build_chain(choices);
            for strategy in strategies {
                let plan = plan_for(&g, OffloadMode::Swap(strategy));
                let r = gist::offload::simulate(&g, &plan, &gpu).expect("simulate");
                for t in &r.transfers {
                    assert!(t.end_s >= t.start_s, "negative transfer duration");
                    assert!(t.consume_s >= t.end_s, "stash read before swap-in completed");
                    if !t.to_host {
                        let out = r
                            .transfers
                            .iter()
                            .find(|o| o.to_host && o.node == t.node)
                            .expect("swap-in without a matching swap-out");
                        assert!(t.start_s >= out.end_s, "fetch began before swap-out finished");
                    }
                }
                // Double buffering: when the k-th prefetch starts, at most
                // the two most recent predecessors are still undelivered.
                if !matches!(strategy, SwapStrategy::Naive) {
                    let ins: Vec<_> = r.transfers.iter().filter(|t| !t.to_host).collect();
                    for (k, t) in ins.iter().enumerate() {
                        if k >= 2 {
                            assert!(
                                t.start_s >= ins[k - 2].consume_s,
                                "prefetch {k} overtook the double buffer"
                            );
                        }
                    }
                }
                // Pure arithmetic: re-simulation is bit-identical.
                let again = gist::offload::simulate(&g, &plan, &gpu).expect("simulate");
                assert_eq!(r.total_s.to_bits(), again.total_s.to_bits());
                assert_eq!(r.transfers, again.transfers);
            }
        },
    );
}

/// Recompute plans on random chains always replay a segment before the
/// backward item that needs it, and every dropped-but-read stash is rebuilt
/// by exactly one segment.
#[test]
fn recompute_plans_rebuild_every_read_stash_exactly_once() {
    Runner::new("recompute_plans_rebuild_every_read_stash_exactly_once").cases(48).run(
        &vec_of(layer_strategy(), 0..14),
        |choices| {
            let g = build_chain(choices);
            let plan = plan_for(&g, OffloadMode::Recompute);
            let mut rebuilt = vec![0usize; g.len()];
            for seg in &plan.segments {
                for step in &seg.replay {
                    if step.is_stash {
                        rebuilt[step.node.index()] += 1;
                    }
                }
            }
            let dropped_and_rebuilt: Vec<usize> =
                (0..g.len()).filter(|&i| rebuilt[i] > 0).collect();
            for i in dropped_and_rebuilt {
                assert_eq!(
                    plan.disposition[i],
                    gist::offload::StashDisposition::Dropped,
                    "rebuilt a stash the plan says is {:?}",
                    plan.disposition[i]
                );
                assert_eq!(rebuilt[i], 1, "stash rebuilt by more than one segment");
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Park/resume through the host store (the serve layer's offload path)
// ---------------------------------------------------------------------------

/// Parking a job mid-run — its SSDC snapshot held on the host, executor
/// torn down — and resuming into a freshly built executor is bitwise
/// invisible, on randomly generated chains. `ParkedParams::resume_into`
/// restores both halves of the cross-step state, every parameter bit and
/// the dropout-mask epoch; losing either must fail this property, so it
/// is the offload-side guarantee the serve scheduler's equivalence gate
/// stands on.
#[test]
fn park_and_resume_into_a_fresh_executor_is_bitwise_invisible() {
    use gist::serve::ParkedParams;
    Runner::new("park_and_resume_into_a_fresh_executor_is_bitwise_invisible").cases(32).run(
        &vec_of(layer_strategy(), 1..6),
        |choices: &Vec<LayerChoice>| {
            let g = build_chain(choices);
            let seed = 9 + choices.len() as u64;
            let total_steps = 4usize;
            let park_after = 1 + choices.len() % 3; // 1..=3 of 4 steps

            // Reference: one uninterrupted run. The chain input is
            // batch 2 of 3-channel 16x16 images.
            let chain_batch = 2;
            let mut ds = SyntheticImages::rgb(3, 16, 0.35, 23);
            let mut exec = Executor::new(g.clone(), ExecMode::Baseline, seed).expect("executor");
            let mut want = Vec::new();
            for _ in 0..total_steps {
                let (x, y) = ds.minibatch(chain_batch);
                want.push(exec.step(&x, &y, 0.05).expect("step").loss.to_bits());
            }

            // Interrupted run: same data stream, park at the boundary.
            let mut ds = SyntheticImages::rgb(3, 16, 0.35, 23);
            let mut exec = Executor::new(g.clone(), ExecMode::Baseline, seed).expect("executor");
            let mut got = Vec::new();
            for _ in 0..park_after {
                let (x, y) = ds.minibatch(chain_batch);
                got.push(exec.step(&x, &y, 0.05).expect("step").loss.to_bits());
            }
            let parked = ParkedParams::park(&exec);
            assert!(parked.wire_bytes() > 0);
            drop(exec);

            // A fresh executor starts from init params at step epoch 0;
            // the resume must overwrite both.
            let mut exec = Executor::new(g.clone(), ExecMode::Baseline, seed).expect("executor");
            parked.resume_into(&mut exec);
            assert_eq!(exec.steps_executed(), park_after as u64);
            for _ in park_after..total_steps {
                let (x, y) = ds.minibatch(chain_batch);
                got.push(exec.step(&x, &y, 0.05).expect("step").loss.to_bits());
            }
            assert_eq!(got, want, "park@{park_after} changed the trajectory");
        },
    );
}

// ---------------------------------------------------------------------------
// Offload buffer names
// ---------------------------------------------------------------------------

/// The lowering names every buffer an offload plan introduces: a swap slot
/// `{node}.sin`, a rebuilt stash `{node}.rstash`, a replay intermediate
/// `{node}.ry{segment}`. `observed == predicted` holds whatever those names
/// are, so it cannot catch a rename; this pins them, in stream order, for
/// small_vgg under vDNN swapping and under recompute.
#[test]
fn offload_buffer_names_are_pinned() {
    use gist::obs::Event;
    use gist::runtime::StepProgram;
    let g = gist::models::small_vgg(4, 3);
    let offload_bufs = |offload| {
        let spec = ExecSpec { offload, ..ExecSpec::from(ExecMode::Baseline) };
        let events = StepProgram::lower(&g, &spec).expect("lower").events(&Default::default());
        let names: Vec<String> = events
            .expect("events")
            .into_iter()
            .filter_map(|e| match e {
                Event::Alloc { name, .. } => Some(format!("+{name}")),
                Event::Free { name, .. } => Some(format!("-{name}")),
                _ => None,
            })
            .filter(|n| n.ends_with(".sin") || n.ends_with(".rstash") || n.contains(".ry"))
            .collect();
        names.join(" ")
    };
    assert_eq!(
        offload_bufs(OffloadMode::Swap(SwapStrategy::Vdnn)),
        "+fc.sin +pool2.sin -fc.sin -pool2.sin +conv2_2_relu.sin -conv2_2_relu.sin \
         +conv2_1_relu.sin -conv2_1_relu.sin +pool1.sin -pool1.sin +conv1_2_relu.sin \
         -conv1_2_relu.sin +conv1_1_relu.sin -conv1_1_relu.sin +input.sin -input.sin"
    );
    assert_eq!(
        offload_bufs(OffloadMode::Recompute),
        "+fc.rstash -fc.rstash +conv2_1.ry1 +conv2_1_relu.rstash -conv2_1.ry1 +conv2_2.ry1 \
         +conv2_2_relu.rstash -conv2_2.ry1 -conv2_2_relu.rstash -conv2_1_relu.rstash \
         +conv1_1.ry0 +conv1_1_relu.rstash -conv1_1.ry0 +conv1_2.ry0 +conv1_2_relu.rstash \
         -conv1_2.ry0 -conv1_2_relu.rstash -conv1_1_relu.rstash"
    );
}
