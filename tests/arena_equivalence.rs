//! Differential arena-vs-heap suite.
//!
//! `AllocPolicy::Arena` promises that executing out of the pre-planned slab
//! is **observationally invisible**: every loss, every gradient, every
//! updated weight is bit-for-bit the value the heap executor produces, at
//! every thread count, plan granularity and execution mode, on
//! straight-line and branchy graphs alike. Those train-step crosses are
//! views of the equivalence matrix (`tests/matrix/mod.rs`).
//!
//! The rest attacks the mechanism underneath: `_into` kernels writing into
//! NaN-poisoned storage views (exactly what a debug-mode arena hands them)
//! must fully overwrite the region and match the same kernel run into a
//! zeroed tensor (what the heap policy hands them) bit-for-bit even on
//! hostile inputs. That full-overwrite property is what makes the arena's
//! poison-then-reuse discipline sound.

mod matrix;

use gist::prelude::*;
use gist::tensor::ops::conv::ConvParams;
use gist::tensor::ops::lrn::LrnParams;
use gist::tensor::ops::pool::PoolParams;
use gist::tensor::ops::{batchnorm, conv, dropout, elementwise, linear, lrn, pool, relu};
use gist::tensor::Storage;
use gist_testkit::prop::{boxed, just, one_of, vec_of, Strategy};
use gist_testkit::Runner;

matrix::views! {
    train_fingerprints_match_across_policy_threads_and_modes: ["mode=* alloc=* threads=* steps=3"],
    train_fingerprints_match_across_granularity_threads_policies_and_simd: [
        "mode=lossless plan=* simd=* threads=* alloc=* steps=3",
    ],
    branchy_graphs_match_across_granularities: [
        "model=resnet_cifar|densenet_cifar mode=lossless alloc=arena plan=* steps=3 batch=4",
    ],
    branchy_graphs_match_across_policies: [
        "model=resnet_cifar|densenet_cifar mode=* alloc=* steps=3 batch=4",
    ],
}

// ---------------------------------------------------------------------------
// `_into` kernels into poisoned views vs into zeroed tensors
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
/// and the bit comparison against the zeroed run fails.
fn poisoned_view(shape: Shape) -> Tensor {
    let storage = Storage::new(shape.numel());
    let mut view = Tensor::view(storage, 0, shape).expect("view");
    view.data_mut().fill(f32::NAN);
    view
}

/// Runs `kernel` into a zeroed tensor and into a poisoned view of `shape`:
/// the outputs must agree bit for bit, and so must what the kernel returns
/// besides (an argmax map, batch statistics).
fn assert_overwrites<R: PartialEq + std::fmt::Debug>(
    shape: Shape,
    what: &str,
    kernel: impl Fn(&mut Tensor) -> R,
) {
    let mut zeroed = Tensor::zeros(shape);
    let want = kernel(&mut zeroed);
    let mut v = poisoned_view(shape);
    assert_eq!(kernel(&mut v), want, "{what}: returned");
    assert_eq!(bits(zeroed.data()), bits(v.data()), "{what}");
}

#[test]
fn into_kernels_fully_overwrite_poisoned_views() {
    Runner::new("into_kernels_fully_overwrite_poisoned_views").cases(48).run(
        &((1usize..4, 1usize..4, 4usize..9), vec_of(hostile_f32(), 16..129)),
        |((n, c, hw), base)| {
            let (n, c, hw) = (*n, *c, *hw);
            let shape = Shape::nchw(n, c, hw, hw);
            let x = Tensor::from_vec(shape, tile(base, shape.numel())).unwrap();

            // ReLU: `-0.0` and NaN handling must not depend on the output.
            assert_overwrites(shape, "relu", |y| relu::forward_into(&x, y));

            // Elementwise add (residual merge).
            let b = Tensor::from_vec(shape, tile(base, shape.numel()).into_iter().rev().collect())
                .unwrap();
            let owned = x.add(&b).unwrap();
            let mut v = poisoned_view(shape);
            elementwise::add_forward_into(&x, &b, &mut v).unwrap();
            assert_eq!(bits(owned.data()), bits(v.data()), "add");

            // Concat along channels (dense-block merge).
            let cat = Shape::nchw(n, 2 * c, hw, hw);
            assert_overwrites(cat, "concat", |y| {
                elementwise::concat_forward_into(&[&x, &b], y).unwrap()
            });

            // Dropout with a fixed seed.
            assert_overwrites(shape, "dropout", |y| dropout::forward_into(&x, 0.5, 7, y).unwrap());

            // Max and average pooling (the argmax map must agree too).
            let p = PoolParams::new(2, 2, 0);
            if hw >= 2 {
                let out = p.out_shape(shape);
                assert_overwrites(out, "maxpool", |y| {
                    pool::maxpool_forward_into(&x, p, y).unwrap()
                });
                assert_overwrites(out, "avgpool", |y| {
                    pool::avgpool_forward_into(&x, p, y).unwrap()
                });
            }

            // LRN.
            let lp = LrnParams { size: 5, alpha: 1e-4, beta: 0.75, k: 2.0 };
            assert_overwrites(shape, "lrn", |y| lrn::forward_into(&x, lp, y).unwrap());

            // BatchNorm (cache must agree too — backward reads it).
            let gamma = Tensor::from_vec(Shape::vector(c), tile(base, c)).unwrap();
            let beta = Tensor::from_vec(Shape::vector(c), tile(base, c)).unwrap();
            assert_overwrites(shape, "batchnorm", |y| {
                bits(&batchnorm::forward_into(&x, &gamma, &beta, 1e-5, y).unwrap().inv_std)
            });

            // Conv.
            let kp = ConvParams::new(3, 1, 1);
            let w = Tensor::from_vec(Shape::nchw(2, c, 3, 3), tile(base, 2 * c * 9)).unwrap();
            let cb = Tensor::from_vec(Shape::vector(2), tile(base, 2)).unwrap();
            assert_overwrites(kp.out_shape(shape, 2), "conv", |y| {
                conv::forward_into(&x, &w, Some(&cb), kp, y).unwrap()
            });

            // Linear (flattened input).
            let xm = x.clone().reshape(Shape::matrix(n, c * hw * hw)).unwrap();
            let lw = Tensor::from_vec(Shape::matrix(5, c * hw * hw), tile(base, 5 * c * hw * hw))
                .unwrap();
            let lb = Tensor::from_vec(Shape::vector(5), tile(base, 5)).unwrap();
            assert_overwrites(Shape::matrix(n, 5), "linear", |y| {
                linear::forward_into(&xm, &lw, Some(&lb), y).unwrap()
            });
        },
    );
}
