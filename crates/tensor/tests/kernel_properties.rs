//! Property-based tests for the tensor kernels: algebraic identities that
//! must hold for arbitrary inputs, independent of the specific values.
//! Each property runs 64 generated cases, matching the proptest-era count.
//! Every kernel writes into a caller-provided output, as the executor runs
//! it.

use gist_tensor::ops::conv::{self, ConvParams};
use gist_tensor::ops::pool::{self, PoolParams};
use gist_tensor::ops::{elementwise, linear, relu, softmax};
use gist_tensor::{ScratchPool, Shape, Tensor};
use gist_testkit::prop::{boxed, just, map, one_of, vec_of, Strategy};
use gist_testkit::Runner;

const CASES: u32 = 64;

fn small_tensor(n: usize, c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor> {
    map(vec_of(-10.0f32..10.0, n * c * h * w..n * c * h * w + 1), move |v| {
        Tensor::from_vec(Shape::nchw(n, c, h, w), v).unwrap()
    })
}

/// ReLU is idempotent and its output non-negative.
#[test]
fn relu_idempotent() {
    Runner::new("relu_idempotent").cases(CASES).run(&small_tensor(1, 2, 4, 4), |x| {
        let [mut y, mut yy] = [(); 2].map(|_| Tensor::full(x.shape(), f32::NAN));
        relu::forward_into(x, &mut y);
        assert!(y.data().iter().all(|&v| v >= 0.0));
        relu::forward_into(&y, &mut yy);
        assert_eq!(yy, y);
    });
}

/// Convolution is linear in its input: conv(a+b) = conv(a) + conv(b).
#[test]
fn conv_is_linear_in_input() {
    Runner::new("conv_is_linear_in_input").cases(CASES).run(
        &(small_tensor(1, 2, 5, 5), small_tensor(1, 2, 5, 5)),
        |(a, b)| {
            let w = gist_tensor::init::uniform(Shape::nchw(3, 2, 3, 3), -1.0, 1.0, 7);
            let p = ConvParams::new(3, 1, 1);
            let out = p.out_shape(a.shape(), 3);
            let [mut ya, mut yb, mut yab] = [(); 3].map(|_| Tensor::full(out, f32::NAN));
            conv::forward_into(a, &w, None, p, &mut ya).unwrap();
            conv::forward_into(b, &w, None, p, &mut yb).unwrap();
            conv::forward_into(&a.add(b).unwrap(), &w, None, p, &mut yab).unwrap();
            let sum = ya.add(&yb).unwrap();
            assert!(yab.max_abs_diff(&sum) < 1e-3);
        },
    );
}

/// The naive direct convolution: seven loops, each output element summing
/// its taps in ascending `(ci, kh, kw)` order from `0.0`, padding taps as
/// `w · 0.0`, bias last — the order the im2col + GEMM lowering promises.
fn conv_reference(x: &Tensor, w: &Tensor, bias: &Tensor, p: ConvParams) -> Tensor {
    let (s, f) = (x.shape(), w.shape().n());
    let mut y = Tensor::zeros(p.out_shape(s, f));
    let out = y.shape();
    for n in 0..s.n() {
        for fi in 0..f {
            for oh in 0..out.h() {
                for ow in 0..out.w() {
                    let mut acc = 0.0f32;
                    for ci in 0..s.c() {
                        for kh in 0..p.kernel {
                            for kw in 0..p.kernel {
                                let (ih, iw) = (oh * p.stride + kh, ow * p.stride + kw);
                                let inside = (p.pad..s.h() + p.pad).contains(&ih)
                                    && (p.pad..s.w() + p.pad).contains(&iw);
                                let xv =
                                    if inside { x.at(n, ci, ih - p.pad, iw - p.pad) } else { 0.0 };
                                acc += w.at(fi, ci, kh, kw) * xv;
                            }
                        }
                    }
                    let at = ((n * f + fi) * out.h() + oh) * out.w() + ow;
                    y.data_mut()[at] = acc + bias.data()[fi];
                }
            }
        }
    }
    y
}

/// The one conv lowering against the naive loop, bit for bit, on dirty
/// buffers: `im2col_into` must write every column cell (padding zeros
/// included) and the GEMM every output cell. Kernels {1,3,5} × strides
/// {1,2} × pads {0,1,2} on 1×1 to 9×9 inputs, so `out_c` and `oh·ow` land on
/// both sides of the 8-lane strip boundary.
#[test]
fn conv_lowering_matches_naive_loop_on_poisoned_buffers() {
    let kernel = || one_of(vec![boxed(just(1usize)), boxed(just(3usize)), boxed(just(5usize))]);
    Runner::new("conv_lowering_matches_naive_loop_on_poisoned_buffers").cases(CASES).run(
        &(
            (kernel(), 1usize..3, 0usize..3),
            (1usize..3, 1usize..4, 1usize..10),
            1usize..12,
            vec_of(-2.0f32..2.0, 64..65),
        ),
        |((k, stride, pad), (n, c, hw), f, base)| {
            let (k, n, c, hw, f) = (*k, *n, *c, *hw, *f);
            let p = ConvParams::new(k, *stride, *pad);
            let tile = |shape: Shape, skip: usize| {
                let v = base.iter().cycle().skip(skip).take(shape.numel()).copied().collect();
                Tensor::from_vec(shape, v).unwrap()
            };
            let x = tile(Shape::nchw(n, c, hw, hw), 0);
            let w = tile(Shape::nchw(f, c, k, k), 7);
            let bias = tile(Shape::vector(f), 13);
            if !p.fits(hw, hw) {
                let mut y = Tensor::zeros(x.shape());
                assert!(conv::forward_into(&x, &w, Some(&bias), p, &mut y).is_err());
                return;
            }
            let expect = conv_reference(&x, &w, &bias, p);
            // One thread, so every image is lowered on this thread's column
            // buffer — poisoned before each pass by a 1×1 conv over an
            // all-NaN input larger than any case's column matrix (3·25·81
            // cells).
            let poison = || {
                let nan = Tensor::full(Shape::nchw(1, 1, 80, 80), f32::NAN);
                let one = Tensor::full(Shape::nchw(1, 1, 1, 1), 1.0);
                let mut y = Tensor::zeros(nan.shape());
                conv::forward_into(&nan, &one, None, ConvParams::new(1, 1, 0), &mut y).unwrap();
            };
            let scratch = ScratchPool::new();
            gist_par::with_threads(1, || {
                for lvl in gist_simd::available_levels() {
                    gist_simd::with_level(lvl, || {
                        poison();
                        let mut y = Tensor::full(expect.shape(), f32::NAN);
                        conv::forward_into(&x, &w, Some(&bias), p, &mut y).unwrap();
                        let bits = |t: &Tensor| -> Vec<u32> {
                            t.data().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(
                            bits(&y),
                            bits(&expect),
                            "GIST_SIMD={lvl} {p:?} on {}",
                            x.shape()
                        );
                        // Backward lowers into the same buffer and its dW
                        // GEMM skips nothing: one unwritten cell would
                        // surface as a NaN.
                        poison();
                        let mut dx = Tensor::full(x.shape(), f32::NAN);
                        let (dw, _) =
                            conv::backward_with_into(&x, &w, &expect, p, &scratch, &mut dx)
                                .unwrap();
                        assert!(dw.data().iter().all(|v| v.is_finite()), "{lvl} {p:?}");
                    });
                }
            });
        },
    );
}

/// Max pooling commutes with adding a constant (max is translation-
/// equivariant) for pad-free geometries.
#[test]
fn maxpool_translation_equivariant() {
    Runner::new("maxpool_translation_equivariant").cases(CASES).run(
        &(small_tensor(1, 1, 6, 6), -5.0f32..5.0),
        |(x, shift)| {
            let p = PoolParams::new(2, 2, 0);
            let mut base = Tensor::full(p.out_shape(x.shape()), f32::NAN);
            pool::maxpool_forward_into(x, p, &mut base).unwrap();
            let mut shifted = x.clone();
            for v in shifted.data_mut() {
                *v += shift;
            }
            let mut shifted_out = Tensor::full(base.shape(), f32::NAN);
            pool::maxpool_forward_into(&shifted, p, &mut shifted_out).unwrap();
            for (a, b) in base.data().iter().zip(shifted_out.data()) {
                assert!((a + shift - b).abs() < 1e-4);
            }
        },
    );
}

/// Max-pool backward conserves gradient mass for non-overlapping
/// windows: every dY element lands on exactly one dX position.
#[test]
fn maxpool_backward_conserves_mass() {
    Runner::new("maxpool_backward_conserves_mass").cases(CASES).run(
        &small_tensor(1, 2, 4, 4),
        |x| {
            let p = PoolParams::new(2, 2, 0);
            let mut y = Tensor::full(p.out_shape(x.shape()), f32::NAN);
            let argmax = pool::maxpool_forward_into(x, p, &mut y).unwrap();
            let dy = gist_tensor::init::uniform(y.shape(), -1.0, 1.0, 3);
            let mut dx = Tensor::full(x.shape(), f32::NAN);
            pool::maxpool_backward_into(x.shape(), &argmax, &dy, p, &mut dx).unwrap();
            let sum_dy: f32 = dy.data().iter().sum();
            let sum_dx: f32 = dx.data().iter().sum();
            assert!((sum_dy - sum_dx).abs() < 1e-3);
        },
    );
}

/// Average-pool backward also conserves gradient mass (pad-free).
#[test]
fn avgpool_backward_conserves_mass() {
    Runner::new("avgpool_backward_conserves_mass").cases(CASES).run(
        &small_tensor(1, 1, 4, 4),
        |x| {
            let p = PoolParams::new(2, 2, 0);
            let dy = gist_tensor::init::uniform(p.out_shape(x.shape()), -1.0, 1.0, 5);
            let mut dx = Tensor::full(x.shape(), f32::NAN);
            pool::avgpool_backward_into(x.shape(), &dy, p, &mut dx).unwrap();
            let sum_dy: f32 = dy.data().iter().sum();
            let sum_dx: f32 = dx.data().iter().sum();
            assert!((sum_dy - sum_dx).abs() < 1e-3);
        },
    );
}

/// Softmax outputs a probability distribution and never NaNs, even for
/// extreme logits.
#[test]
fn softmax_is_a_distribution() {
    Runner::new("softmax_is_a_distribution").cases(CASES).run(
        &vec_of(-100.0f32..100.0, 8..9),
        |v| {
            let t = Tensor::from_vec(Shape::matrix(2, 4), v.clone()).unwrap();
            let p = softmax::softmax(&t);
            assert!(p.data().iter().all(|x| x.is_finite() && *x >= 0.0));
            for row in p.data().chunks(4) {
                let s: f32 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-4);
            }
        },
    );
}

/// Cross-entropy gradient rows sum to ~0 (softmax minus one-hot).
#[test]
fn cross_entropy_gradient_rows_sum_to_zero() {
    Runner::new("cross_entropy_gradient_rows_sum_to_zero").cases(CASES).run(
        &(vec_of(-5.0f32..5.0, 12..13), vec_of(0usize..4, 3..4)),
        |(v, labels)| {
            let t = Tensor::from_vec(Shape::matrix(3, 4), v.clone()).unwrap();
            let out = softmax::cross_entropy(&t, labels).unwrap();
            for row in out.dlogits.data().chunks(4) {
                let s: f32 = row.iter().sum();
                assert!(s.abs() < 1e-5);
            }
        },
    );
}

/// Linear layer respects scalar homogeneity: f(k*x) = k*f(x) (no bias).
#[test]
fn linear_homogeneous() {
    Runner::new("linear_homogeneous").cases(CASES).run(
        &(small_tensor(2, 1, 1, 6), -3.0f32..3.0),
        |(x, k)| {
            let w = gist_tensor::init::uniform(Shape::matrix(4, 6), -1.0, 1.0, 9);
            let [mut y, mut ky] = [(); 2].map(|_| Tensor::full(Shape::matrix(2, 4), f32::NAN));
            linear::forward_into(x, &w, None, &mut y).unwrap();
            let mut kx = x.clone();
            for v in kx.data_mut() {
                *v *= k;
            }
            linear::forward_into(&kx, &w, None, &mut ky).unwrap();
            for (a, b) in y.data().iter().zip(ky.data()) {
                assert!((a * k - b).abs() < 1e-2);
            }
        },
    );
}

/// Concat backward of concat forward recovers each input exactly.
#[test]
fn concat_roundtrip() {
    Runner::new("concat_roundtrip").cases(CASES).run(
        &(small_tensor(1, 2, 3, 3), small_tensor(1, 3, 3, 3), small_tensor(1, 1, 3, 3)),
        |(a, b, c)| {
            let mut y = Tensor::full(Shape::nchw(1, 6, 3, 3), f32::NAN);
            elementwise::concat_forward_into(&[a, b, c], &mut y).unwrap();
            let shapes = [a.shape(), b.shape(), c.shape()];
            let mut parts = shapes.map(|s| Tensor::full(s, f32::NAN));
            let [pa, pb, pc] = &mut parts;
            elementwise::concat_backward_into(&y, &shapes, &mut [pa, pb, pc]).unwrap();
            assert_eq!(&parts[0], a);
            assert_eq!(&parts[1], b);
            assert_eq!(&parts[2], c);
        },
    );
}
