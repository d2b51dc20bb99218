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
//! must fully overwrite the region and match their owned-output twins
//! bit-for-bit even on hostile inputs. That full-overwrite property is what
//! makes the arena's poison-then-reuse discipline sound.

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
