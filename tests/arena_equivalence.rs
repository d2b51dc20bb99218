//! Differential arena-vs-heap suite.
//!
//! `AllocPolicy::Arena` promises that executing out of the pre-planned slab
//! is **observationally invisible**: every loss, every gradient, every
//! updated weight is bit-for-bit the value the heap executor produces, at
//! every thread count, for every execution mode, on straight-line and
//! branchy graphs alike. These tests check that promise the only way that
//! counts — raw bits.
//!
//! The second half attacks the mechanism underneath: `_into` kernels
//! writing into NaN-poisoned storage views (exactly what a debug-mode arena
//! hands them) must fully overwrite the region and match their owned-output
//! twins bit-for-bit even on hostile inputs. That full-overwrite property
//! is what makes the arena's poison-then-reuse discipline sound.

use gist::par::with_threads;
use gist::prelude::*;
use gist::runtime::{AllocPolicy, PlanGranularity};
use gist::tensor::ops::conv::ConvParams;
use gist::tensor::ops::lrn::LrnParams;
use gist::tensor::ops::pool::PoolParams;
use gist::tensor::ops::{batchnorm, conv, dropout, elementwise, linear, lrn, pool, relu};
use gist::tensor::Storage;
use gist_testkit::prop::{boxed, just, one_of, vec_of, Strategy};
use gist_testkit::Runner;

const BATCH: usize = 4;
const CLASSES: usize = 3;
const STEPS: usize = 3;

fn modes() -> Vec<(&'static str, ExecMode)> {
    vec![
        ("baseline", ExecMode::Baseline),
        ("lossless", ExecMode::Gist(GistConfig::lossless())),
        ("lossy_fp16", ExecMode::Gist(GistConfig::lossy(DprFormat::Fp16))),
        ("lossy_fp8", ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8))),
    ]
}

/// Every trainable scalar plus the per-step loss, as raw bit patterns: the
/// only fingerprint that catches a single flipped rounding anywhere in the
/// step.
fn train_fingerprint(graph: &Graph, mode: &ExecMode, policy: AllocPolicy) -> Vec<u32> {
    train_fingerprint_on(graph, mode, policy, SyntheticImages::new(CLASSES, 16, 0.35, 23))
}

fn train_fingerprint_on(
    graph: &Graph,
    mode: &ExecMode,
    policy: AllocPolicy,
    ds: SyntheticImages,
) -> Vec<u32> {
    train_fingerprint_gran(graph, mode, policy, PlanGranularity::Event, ds)
}

fn train_fingerprint_gran(
    graph: &Graph,
    mode: &ExecMode,
    policy: AllocPolicy,
    granularity: PlanGranularity,
    mut ds: SyntheticImages,
) -> Vec<u32> {
    let spec = ExecSpec { alloc: policy, plan: granularity, ..mode.clone().into() };
    let mut exec = Executor::new(graph.clone(), spec, 9).expect("executor");
    let mut fp = Vec::new();
    for _ in 0..STEPS {
        let (x, y) = ds.minibatch(BATCH);
        let stats = exec.step(&x, &y, 0.05).expect("step");
        fp.push(stats.loss.to_bits());
    }
    fp.extend(exec.params.bits());
    fp
}

/// The tentpole differential: train-step fingerprints are byte-identical
/// across `AllocPolicy x thread count x ExecMode`. The heap single-thread
/// run is the reference; every other cell of the matrix must match it.
#[test]
fn train_fingerprints_match_across_policy_threads_and_modes() {
    let graph = gist::models::tiny_convnet(BATCH, CLASSES);
    let max_threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    for (name, mode) in modes() {
        let reference = with_threads(1, || train_fingerprint(&graph, &mode, AllocPolicy::Heap));
        for threads in [1, 2, max_threads] {
            for policy in [AllocPolicy::Heap, AllocPolicy::Arena] {
                let fp = with_threads(threads, || train_fingerprint(&graph, &mode, policy));
                assert_eq!(
                    fp, reference,
                    "{name}: {policy:?} at {threads} threads diverged from heap/1"
                );
            }
        }
    }
}

/// The PR 9 headline gate: train-step fingerprints are byte-identical
/// across plan granularity x thread count x alloc policy x SIMD level.
/// `PlanGranularity::Wave` lets the arena executor run multi-node waves on
/// the thread pool (buffers of a wave are planned concurrently live), so
/// this matrix is the proof that wave-granular plans change *where* results
/// are computed — never *what* is computed.
#[test]
fn train_fingerprints_match_across_granularity_threads_policies_and_simd() {
    use gist::simd::{available_levels, with_level, Level};
    let graph = gist::models::tiny_convnet(BATCH, CLASSES);
    let mode = ExecMode::Gist(GistConfig::lossless());
    let ds = || SyntheticImages::new(CLASSES, 16, 0.35, 23);
    let max_threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let reference = with_level(Level::Scalar, || {
        with_threads(1, || {
            train_fingerprint_gran(&graph, &mode, AllocPolicy::Heap, PlanGranularity::Event, ds())
        })
    });
    assert!(reference.len() > 100, "fingerprint covers real state");
    for granularity in [PlanGranularity::Event, PlanGranularity::Wave] {
        for lvl in available_levels() {
            for threads in [1, 2, max_threads] {
                for policy in [AllocPolicy::Heap, AllocPolicy::Arena] {
                    let fp = with_level(lvl, || {
                        with_threads(threads, || {
                            train_fingerprint_gran(&graph, &mode, policy, granularity, ds())
                        })
                    });
                    assert_eq!(
                        fp, reference,
                        "plan={granularity:?} policy={policy:?} threads={threads} \
                         GIST_SIMD={lvl}: diverged from heap/event/scalar/1"
                    );
                }
            }
        }
    }
}

/// Wave-granular planning on branchy graphs: `Add`/`Concat` fan-in means
/// several same-wave nodes contribute to one upstream gradient map, whose
/// single wave-lifetime alloc and fixed-order serial merge are exactly the
/// machinery this PR added. Both granularities must reproduce the heap
/// fingerprint bit-for-bit.
#[test]
fn branchy_graphs_match_across_granularities() {
    let nets: Vec<(&str, Graph)> = vec![
        ("resnet_cifar", gist::models::resnet_cifar(1, BATCH)),
        ("densenet_cifar", gist::models::densenet_cifar(1, 4, BATCH)),
    ];
    let mode = ExecMode::Gist(GistConfig::lossless());
    for (net, graph) in nets {
        let ds = || SyntheticImages::rgb(10, 32, 0.35, 23);
        let heap = train_fingerprint_on(&graph, &mode, AllocPolicy::Heap, ds());
        for granularity in [PlanGranularity::Event, PlanGranularity::Wave] {
            let fp = train_fingerprint_gran(&graph, &mode, AllocPolicy::Arena, granularity, ds());
            assert_eq!(fp, heap, "{net}: arena/{granularity:?} diverged from heap");
        }
    }
}

/// Branchy graphs stress the arena paths a chain never reaches: `Add`
/// fan-in (residual blocks) and `Concat` fan-in (dense blocks) allocate one
/// upstream gradient per target and merge contributions into arena views.
#[test]
fn branchy_graphs_match_across_policies() {
    let nets: Vec<(&str, Graph)> = vec![
        ("resnet_cifar", gist::models::resnet_cifar(1, BATCH)),
        ("densenet_cifar", gist::models::densenet_cifar(1, 4, BATCH)),
    ];
    for (net, graph) in nets {
        for (name, mode) in modes() {
            // CIFAR-shaped nets: 10 classes, 3x32x32 images.
            let ds = || SyntheticImages::rgb(10, 32, 0.35, 23);
            let heap = train_fingerprint_on(&graph, &mode, AllocPolicy::Heap, ds());
            let arena = train_fingerprint_on(&graph, &mode, AllocPolicy::Arena, ds());
            assert_eq!(heap, arena, "{net}/{name}: arena diverged from heap");
        }
    }
}

// ---------------------------------------------------------------------------
// `_into` kernels vs their owned twins, into poisoned views
// ---------------------------------------------------------------------------

/// f32 values including adversarial bit patterns: NaN, both infinities,
/// both zeros, subnormals, and extreme normals.
fn hostile_f32() -> impl Strategy<Value = f32> {
    one_of(vec![
        boxed(-2.0f32..2.0),
        boxed(-1e6f32..1e6),
        boxed(just(0.0f32)),
        boxed(just(-0.0f32)),
        boxed(just(f32::NAN)),
        boxed(just(f32::INFINITY)),
        boxed(just(f32::NEG_INFINITY)),
        boxed(just(f32::MIN_POSITIVE)),
        boxed(just(f32::MIN_POSITIVE / 2.0)),
        boxed(just(f32::MAX)),
        boxed(just(f32::MIN)),
    ])
}

fn tile(base: &[f32], len: usize) -> Vec<f32> {
    base.iter().copied().cycle().take(len).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A NaN-poisoned view over fresh storage, shaped like an arena region in
/// debug mode: if a kernel skips even one output cell, the poison survives
/// and the bit comparison against the owned twin fails.
fn poisoned_view(shape: Shape) -> Tensor {
    let storage = Storage::new(shape.numel());
    let mut view = Tensor::view(storage, 0, shape).expect("view");
    view.data_mut().fill(f32::NAN);
    view
}

#[test]
fn into_kernels_fully_overwrite_poisoned_views() {
    Runner::new("into_kernels_fully_overwrite_poisoned_views").cases(48).run(
        &((1usize..4, 1usize..4, 4usize..9), vec_of(hostile_f32(), 16..129)),
        |((n, c, hw), base)| {
            let (n, c, hw) = (*n, *c, *hw);
            let shape = Shape::nchw(n, c, hw, hw);
            let x = Tensor::from_vec(shape, tile(base, shape.numel())).unwrap();

            // ReLU: `-0.0` and NaN handling must match the owned kernel.
            let owned = relu::forward(&x);
            let mut v = poisoned_view(shape);
            relu::forward_into(&x, &mut v);
            assert_eq!(bits(owned.data()), bits(v.data()), "relu");

            // Elementwise add (residual merge).
            let b = Tensor::from_vec(shape, tile(base, shape.numel()).into_iter().rev().collect())
                .unwrap();
            let owned = x.add(&b).unwrap();
            let mut v = poisoned_view(shape);
            elementwise::add_forward_into(&x, &b, &mut v).unwrap();
            assert_eq!(bits(owned.data()), bits(v.data()), "add");

            // Concat along channels (dense-block merge).
            let owned = elementwise::concat_forward(&[&x, &b]).unwrap();
            let mut v = poisoned_view(owned.shape());
            elementwise::concat_forward_into(&[&x, &b], &mut v).unwrap();
            assert_eq!(bits(owned.data()), bits(v.data()), "concat");

            // Dropout with a fixed mask.
            let mask: Vec<bool> = (0..shape.numel()).map(|i| i % 3 != 0).collect();
            let owned = dropout::forward(&x, &mask, 0.5).unwrap();
            let mut v = poisoned_view(shape);
            dropout::forward_into(&x, &mask, 0.5, &mut v).unwrap();
            assert_eq!(bits(owned.data()), bits(v.data()), "dropout");

            // Max and average pooling.
            let p = PoolParams::new(2, 2, 0);
            if hw >= 2 {
                let owned = pool::maxpool_forward(&x, p).unwrap();
                let mut v = poisoned_view(owned.y.shape());
                let argmax = pool::maxpool_forward_into(&x, p, &mut v).unwrap();
                assert_eq!(bits(owned.y.data()), bits(v.data()), "maxpool y");
                assert_eq!(owned.argmax, argmax, "maxpool argmax");

                let owned = pool::avgpool_forward(&x, p).unwrap();
                let mut v = poisoned_view(owned.shape());
                pool::avgpool_forward_into(&x, p, &mut v).unwrap();
                assert_eq!(bits(owned.data()), bits(v.data()), "avgpool");
            }

            // LRN.
            let lp = LrnParams { size: 5, alpha: 1e-4, beta: 0.75, k: 2.0 };
            let owned = lrn::forward(&x, lp).unwrap();
            let mut v = poisoned_view(shape);
            lrn::forward_into(&x, lp, &mut v).unwrap();
            assert_eq!(bits(owned.data()), bits(v.data()), "lrn");

            // BatchNorm (cache must agree too — backward reads it).
            let gamma = Tensor::from_vec(Shape::vector(c), tile(base, c)).unwrap();
            let beta = Tensor::from_vec(Shape::vector(c), tile(base, c)).unwrap();
            let (owned, oc) = batchnorm::forward(&x, &gamma, &beta, 1e-5).unwrap();
            let mut v = poisoned_view(shape);
            let vc = batchnorm::forward_into(&x, &gamma, &beta, 1e-5, &mut v).unwrap();
            assert_eq!(bits(owned.data()), bits(v.data()), "batchnorm y");
            assert_eq!(bits(&oc.inv_std), bits(&vc.inv_std), "batchnorm cache");

            // Conv.
            let kp = ConvParams::new(3, 1, 1);
            let w = Tensor::from_vec(Shape::nchw(2, c, 3, 3), tile(base, 2 * c * 9)).unwrap();
            let cb = Tensor::from_vec(Shape::vector(2), tile(base, 2)).unwrap();
            let owned = conv::forward(&x, &w, Some(&cb), kp).unwrap();
            let mut v = poisoned_view(owned.shape());
            conv::forward_into(&x, &w, Some(&cb), kp, &mut v).unwrap();
            assert_eq!(bits(owned.data()), bits(v.data()), "conv");

            // Linear (flattened input).
            let xm = x.clone().reshape(Shape::matrix(n, c * hw * hw)).unwrap();
            let lw = Tensor::from_vec(Shape::matrix(5, c * hw * hw), tile(base, 5 * c * hw * hw))
                .unwrap();
            let lb = Tensor::from_vec(Shape::vector(5), tile(base, 5)).unwrap();
            let owned = linear::forward(&xm, &lw, Some(&lb)).unwrap();
            let mut v = poisoned_view(owned.shape());
            linear::forward_into(&xm, &lw, Some(&lb), &mut v).unwrap();
            assert_eq!(bits(owned.data()), bits(v.data()), "linear");
        },
    );
}
