//! Finite-difference gradient checks for the backward kernels that consume
//! stashed feature maps — conv, linear, batch-norm and LRN — the four ops
//! whose stash traffic Gist targets. Each check builds the scalar loss
//! `L = sum(forward(x) * r)` for a fixed random projection `r`, so the
//! analytic gradient is just `backward(..., dy = r)`, and compares it
//! element-wise against central differences accumulated in f64.
//!
//! The kernels run as the executor runs them: every output lands in a
//! caller-provided buffer (NaN-poisoned where the kernel promises to
//! overwrite it), and the conv/linear backward passes lease their scratch
//! from one `ScratchPool` shared by every case.
//!
//! A second group feeds hostile f32 values (NaN, infinities, subnormals,
//! extreme normals) through the same forward/backward pairs: finite
//! differences are meaningless there, but the kernels must still return
//! shape-correct tensors without panicking.

use gist_tensor::ops::conv::{self, ConvParams};
use gist_tensor::ops::lrn::{self, LrnParams};
use gist_tensor::ops::{batchnorm, linear};
use gist_tensor::{ScratchPool, Shape, Tensor};
use gist_testkit::prop::{boxed, just, map, one_of, vec_of, Strategy};
use gist_testkit::Runner;

/// Property cases per op. Finite differences cost two forwards per
/// parameter, so this stays modest; seeds still vary every case.
const CASES: u32 = 8;
const EPS: f32 = 1e-2;
const TOL: f64 = 2e-2;

fn tame_tensor(shape: Shape, lo: f32, hi: f32) -> impl Strategy<Value = Tensor> {
    let n = shape.numel();
    map(vec_of(lo..hi, n..n + 1), move |v| Tensor::from_vec(shape, v).unwrap())
}

/// `L = sum(y * r)`, accumulated in f64 so the loss itself adds no f32
/// cancellation noise on top of the kernels'.
fn loss(y: &Tensor, r: &Tensor) -> f64 {
    y.data().iter().zip(r.data()).map(|(a, b)| f64::from(*a) * f64::from(*b)).sum()
}

/// Central-difference gradient of `L = sum(y * r)` w.r.t. every element of
/// `param`, where `forward` writes `y` for a perturbed parameter into one
/// output buffer reused across perturbations.
fn fd_grad(param: &Tensor, r: &Tensor, forward: impl Fn(&Tensor, &mut Tensor)) -> Vec<f64> {
    let mut y = Tensor::full(r.shape(), f32::NAN);
    let mut loss_at = |p: &Tensor| {
        forward(p, &mut y);
        loss(&y, r)
    };
    (0..param.numel())
        .map(|i| {
            let mut p = param.clone();
            p.data_mut()[i] += EPS;
            let lp = loss_at(&p);
            p.data_mut()[i] -= 2.0 * EPS;
            let lm = loss_at(&p);
            (lp - lm) / (2.0 * f64::from(EPS))
        })
        .collect()
}

fn assert_grads_close(analytic: &Tensor, fd: &[f64], what: &str) {
    assert_eq!(analytic.numel(), fd.len(), "{what}: gradient length");
    for (i, (a, f)) in analytic.data().iter().zip(fd).enumerate() {
        let a = f64::from(*a);
        let denom = a.abs().max(f.abs()).max(0.1);
        assert!(
            (a - f).abs() / denom < TOL,
            "{what}[{i}]: analytic {a:.6} vs finite-difference {f:.6}"
        );
    }
}

#[test]
fn conv_backward_matches_finite_differences() {
    let p = ConvParams::new(3, 1, 1);
    let xs = tame_tensor(Shape::nchw(1, 2, 5, 5), -1.5, 1.5);
    let ws = tame_tensor(Shape::nchw(2, 2, 3, 3), -0.8, 0.8);
    let bs = tame_tensor(Shape::vector(2), -0.5, 0.5);
    let scratch = ScratchPool::new();
    Runner::new("conv_backward_fd").cases(CASES).run(&(xs, ws, bs), |(x, w, b)| {
        let r = gist_tensor::init::uniform(p.out_shape(x.shape(), 2), -1.0, 1.0, 9);
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        let (dw, db) = conv::backward_with_into(x, w, &r, p, &scratch, &mut dx).unwrap();
        let fwd = |x: &Tensor, w: &Tensor, b: &Tensor, y: &mut Tensor| {
            conv::forward_into(x, w, Some(b), p, y).unwrap();
        };
        assert_grads_close(&dx, &fd_grad(x, &r, |xp, y| fwd(xp, w, b, y)), "conv dx");
        assert_grads_close(&dw, &fd_grad(w, &r, |wp, y| fwd(x, wp, b, y)), "conv dw");
        assert_grads_close(&db, &fd_grad(b, &r, |bp, y| fwd(x, w, bp, y)), "conv db");
    });
}

#[test]
fn linear_backward_matches_finite_differences() {
    let xs = tame_tensor(Shape::matrix(3, 6), -1.5, 1.5);
    let ws = tame_tensor(Shape::matrix(4, 6), -0.8, 0.8);
    let scratch = ScratchPool::new();
    Runner::new("linear_backward_fd").cases(CASES).run(&(xs, ws), |(x, w)| {
        let r = gist_tensor::init::uniform(Shape::matrix(3, 4), -1.0, 1.0, 9);
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        let (dw, db) = linear::backward_with_into(x, w, &r, &scratch, &mut dx).unwrap();
        let fwd = |x: &Tensor, w: &Tensor, b: Option<&Tensor>, y: &mut Tensor| {
            linear::forward_into(x, w, b, y).unwrap();
        };
        assert_grads_close(&dx, &fd_grad(x, &r, |xp, y| fwd(xp, w, None, y)), "linear dx");
        assert_grads_close(&dw, &fd_grad(w, &r, |wp, y| fwd(x, wp, None, y)), "linear dw");
        // db = column sums of dy, independent of x and w; differentiate the
        // biased forward w.r.t. a zero bias instead.
        let b = Tensor::zeros(Shape::vector(4));
        assert_grads_close(&db, &fd_grad(&b, &r, |bp, y| fwd(x, w, Some(bp), y)), "linear db");
    });
}

#[test]
fn batchnorm_backward_matches_finite_differences() {
    let eps = 1e-5;
    let xs = tame_tensor(Shape::nchw(2, 2, 3, 3), -2.0, 2.0);
    let gs = tame_tensor(Shape::vector(2), 0.5, 1.5);
    let bs = tame_tensor(Shape::vector(2), -0.5, 0.5);
    Runner::new("batchnorm_backward_fd").cases(CASES).run(&(xs, gs, bs), |(x, g, b)| {
        let r = gist_tensor::init::uniform(x.shape(), -1.0, 1.0, 9);
        let mut y = Tensor::full(x.shape(), f32::NAN);
        let cache = batchnorm::forward_into(x, g, b, eps, &mut y).unwrap();
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        let (mut dgamma, mut dbeta) = (Tensor::zeros(g.shape()), Tensor::zeros(b.shape()));
        batchnorm::backward_into(x, g, &cache, &r, &mut dx, &mut dgamma, &mut dbeta).unwrap();
        // dx flows through the batch statistics too: the finite-difference
        // loss recomputes mean and variance for every perturbation.
        let fwd = |x: &Tensor, g: &Tensor, b: &Tensor, y: &mut Tensor| {
            batchnorm::forward_into(x, g, b, eps, y).unwrap();
        };
        assert_grads_close(&dx, &fd_grad(x, &r, |xp, y| fwd(xp, g, b, y)), "batchnorm dx");
        assert_grads_close(&dgamma, &fd_grad(g, &r, |gp, y| fwd(x, gp, b, y)), "batchnorm dgamma");
        assert_grads_close(&dbeta, &fd_grad(b, &r, |bp, y| fwd(x, g, bp, y)), "batchnorm dbeta");
    });
}

#[test]
fn lrn_backward_matches_finite_differences() {
    // AlexNet's alpha (1e-4) makes the cross-channel term numerically
    // invisible to finite differences; a large alpha exercises it for real.
    let p = LrnParams { size: 3, alpha: 0.5, beta: 0.75, k: 2.0 };
    let xs = tame_tensor(Shape::nchw(1, 4, 3, 3), -1.5, 1.5);
    Runner::new("lrn_backward_fd").cases(CASES).run(&xs, |x| {
        let r = gist_tensor::init::uniform(x.shape(), -1.0, 1.0, 9);
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        lrn::backward_into(x, &r, p, &mut dx).unwrap();
        let fd = fd_grad(x, &r, |xp, y| lrn::forward_into(xp, p, y).unwrap());
        assert_grads_close(&dx, &fd, "lrn dx");
    });
}

// ---- Hostile-input robustness ----------------------------------------

/// f32 values including adversarial bit patterns: NaN, both infinities,
/// both zeros, subnormals, and extreme normals.
fn hostile_f32() -> impl Strategy<Value = f32> {
    one_of(vec![
        boxed(-2.0f32..2.0),
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

fn hostile_tensor(shape: Shape) -> impl Strategy<Value = Tensor> {
    let n = shape.numel();
    map(vec_of(hostile_f32(), n..n + 1), move |v| Tensor::from_vec(shape, v).unwrap())
}

/// Backward kernels on hostile inputs never panic and always produce
/// gradients of the right shapes. (Values may be NaN/Inf — finite
/// differences cannot judge them — but the kernels must stay total.)
#[test]
fn backward_kernels_survive_hostile_inputs() {
    let p = ConvParams::new(3, 1, 1);
    let lp = LrnParams::alexnet();
    let xs = hostile_tensor(Shape::nchw(1, 2, 5, 5));
    let ws = hostile_tensor(Shape::nchw(2, 2, 3, 3));
    let scratch = ScratchPool::new();
    Runner::new("backward_hostile").cases(64).run(&(xs, ws), |(x, w)| {
        // One dx buffer for every op over `x`, as an arena side region is
        // reused: each kernel must overwrite what the last one left.
        let mut dx = Tensor::full(x.shape(), f32::NAN);
        let dy = gist_tensor::init::uniform(p.out_shape(x.shape(), 2), -1.0, 1.0, 3);
        let (dw, db) = conv::backward_with_into(x, w, &dy, p, &scratch, &mut dx).unwrap();
        assert_eq!(dw.shape(), w.shape());
        assert_eq!(db.numel(), 2);

        let flat = Tensor::from_vec(Shape::matrix(5, 10), x.data().to_vec()).unwrap();
        let wm = Tensor::from_vec(Shape::matrix(2, 10), w.data()[..20].to_vec()).unwrap();
        let dym = gist_tensor::init::uniform(Shape::matrix(5, 2), -1.0, 1.0, 3);
        let mut flat_dx = Tensor::full(flat.shape(), f32::NAN);
        let (lw, _) = linear::backward_with_into(&flat, &wm, &dym, &scratch, &mut flat_dx).unwrap();
        assert_eq!(lw.shape(), wm.shape());

        let gamma = Tensor::from_vec(Shape::vector(2), vec![1.0, 1.0]).unwrap();
        let beta = Tensor::zeros(Shape::vector(2));
        let dyx = gist_tensor::init::uniform(x.shape(), -1.0, 1.0, 3);
        let mut y = Tensor::full(x.shape(), f32::NAN);
        let cache = batchnorm::forward_into(x, &gamma, &beta, 1e-5, &mut y).unwrap();
        let (mut dgamma, mut dbeta) = (Tensor::zeros(gamma.shape()), Tensor::zeros(beta.shape()));
        batchnorm::backward_into(x, &gamma, &cache, &dyx, &mut dx, &mut dgamma, &mut dbeta)
            .unwrap();
        assert_eq!(dgamma.numel(), 2);
        assert_eq!(dbeta.numel(), 2);

        lrn::backward_into(x, &dyx, lp, &mut dx).unwrap();
    });
}
