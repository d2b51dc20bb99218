//! Property-based tests for the tensor kernels: algebraic identities that
//! must hold for arbitrary inputs, independent of the specific values.
//! Each property runs 64 generated cases, matching the proptest-era count.
//! Every kernel writes into a caller-provided output, as the executor runs
//! it.

use gist_tensor::ops::conv::{self, ConvParams};
use gist_tensor::ops::pool::{self, PoolParams};
use gist_tensor::ops::{elementwise, linear, relu, softmax};
use gist_tensor::{ScratchPool, Shape, Tensor};
use gist_testkit::prop::{bools, boxed, just, map, one_of, vec_of, Strategy};
use gist_testkit::Runner;

const CASES: u32 = 64;

fn small_tensor(n: usize, c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor> {
    map(vec_of(-10.0f32..10.0, n * c * h * w..n * c * h * w + 1), move |v| {
        Tensor::from_vec(Shape::nchw(n, c, h, w), v).unwrap()
    })
}

/// Raw bit patterns: the equality that tells NaN payloads and `±0.0` apart.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// [`bits`] with every NaN as one pattern, for values that sums produce:
/// Rust leaves the sign and payload of a NaN an addition returns
/// unspecified (`NaN + NaN` may yield either operand's), so two compiled
/// copies of one sum may differ there — and only there.
fn sum_bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
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

/// The textbook convolution backward pass, as gradients of
/// [`conv_reference`]'s loops, one image at a time. db: one serial sum per
/// channel from `0.0`. dW: for each `(k, j)`, one serial sum over output
/// positions `p` of `dy[k, p] · col[j, p]`, where `col` is the input tap
/// (`0.0` in padding). Both are then added image by image into zeroed
/// totals — the kernel's fixed merge tree for one or two images. dX: each
/// column cell `Σ_k w[k, j] · dy[k, p]` (a zero weight's term is skipped —
/// the GEMM's semantic skip, since `0 · ∞` is NaN), added into its input
/// cell in `col2im` order, `(ci, kh, kw, oh, ow)`, from zero.
fn conv_backward_reference(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    p: ConvParams,
) -> (Tensor, Tensor, Tensor) {
    let (s, out) = (x.shape(), dy.shape());
    assert!(s.n() <= 2, "the merge tree is a left fold for at most two images");
    let (f, k) = (w.shape().n(), p.kernel);
    let tap = |oh: usize, ow: usize, kh: usize, kw: usize| {
        let (ih, iw) = (oh * p.stride + kh, ow * p.stride + kw);
        let inside = (p.pad..s.h() + p.pad).contains(&ih) && (p.pad..s.w() + p.pad).contains(&iw);
        inside.then(|| (ih - p.pad, iw - p.pad))
    };
    let (mut dx, mut dw, mut db) =
        (Tensor::zeros(s), Tensor::zeros(w.shape()), Tensor::zeros(Shape::vector(f)));
    for n in 0..s.n() {
        for fi in 0..f {
            let mut acc = 0.0f32;
            for oh in 0..out.h() {
                for ow in 0..out.w() {
                    acc += dy.at(n, fi, oh, ow);
                }
            }
            db.data_mut()[fi] += acc;
        }
        for ci in 0..s.c() {
            for kh in 0..k {
                for kw in 0..k {
                    for fi in 0..f {
                        let mut acc = 0.0f32;
                        for oh in 0..out.h() {
                            for ow in 0..out.w() {
                                let col =
                                    tap(oh, ow, kh, kw).map_or(0.0, |(ih, iw)| x.at(n, ci, ih, iw));
                                acc += dy.at(n, fi, oh, ow) * col;
                            }
                        }
                        dw.data_mut()[((fi * s.c() + ci) * k + kh) * k + kw] += acc;
                    }
                    for oh in 0..out.h() {
                        for ow in 0..out.w() {
                            let Some((ih, iw)) = tap(oh, ow, kh, kw) else { continue };
                            let mut acc = 0.0f32;
                            for fi in 0..f {
                                let wv = w.at(fi, ci, kh, kw);
                                if wv != 0.0 {
                                    acc += wv * dy.at(n, fi, oh, ow);
                                }
                            }
                            dx.data_mut()[((n * s.c() + ci) * s.h() + ih) * s.w() + iw] += acc;
                        }
                    }
                }
            }
        }
    }
    (dx, dw, db)
}

/// Conv backward equals [`conv_backward_reference`] bit for bit (a summed
/// NaN as any NaN, see [`sum_bits`]) at every SIMD level, `dx` written into
/// a NaN-poisoned buffer. `ckk = C·K·K` ∈ {1, 3, 8, 9, 27} — pointwise
/// (1×1, stride 1, pad 0) for every `C`, 3×3 at strides 1 and 2 for `C` of
/// 1 and 3 — against `out_c` ∈ {1, 3, 8, 9, 16}, on one or two images whose
/// `oh·ow` is below and above 8: both dW orientations, whole and short db
/// lane groups, and both column reads. Values are [`hostile_f32`] — with
/// `finite`, its finite ones at magnitudes from 1e-8 to 1e8, so a reordered
/// sum rounds differently — and with `zero_planes` every third `dy` plane
/// is all `-0.0`.
#[test]
fn conv_backward_equals_the_textbook_loops_bit_for_bit() {
    let geometries: Vec<(usize, ConvParams)> = [1, 3, 8, 9]
        .map(|c| (c, ConvParams::new(1, 1, 0)))
        .into_iter()
        .chain([1, 3].map(|c| (c, ConvParams::new(3, 1, 1))))
        .chain([1, 3].map(|c| (c, ConvParams::new(3, 2, 1))))
        .collect();
    let scratch = ScratchPool::new();
    Runner::new("conv_backward_equals_the_textbook_loops_bit_for_bit").cases(CASES / 4).run(
        &((bools(), bools()), vec_of(hostile_f32(), 16..97)),
        |((finite, zero_planes), base)| {
            let scale = [1.0, 1e8, 1e-8, -3.0];
            let values: Vec<f32> = if *finite {
                let finite = base.iter().filter(|v| v.is_finite()).chain(&[0.75, -1.25]);
                finite.zip(scale.iter().cycle()).map(|(v, m)| v * m).collect()
            } else {
                base.clone()
            };
            let tile = |shape: Shape, skip: usize| {
                let v = values.iter().cycle().skip(skip).take(shape.numel()).copied().collect();
                Tensor::from_vec(shape, v).unwrap()
            };
            for &(c, p) in &geometries {
                for f in [1, 3, 8, 9, 16] {
                    for (n, h, w) in [(1, 2, 3), (1, 5, 7), (2, 4, 4)] {
                        let x = tile(Shape::nchw(n, c, h, w), 0);
                        let wt = tile(Shape::nchw(f, c, p.kernel, p.kernel), 5);
                        let mut dy = tile(p.out_shape(x.shape(), f), 11);
                        let plane = dy.shape().h() * dy.shape().w();
                        if *zero_planes {
                            for (k, pl) in dy.data_mut().chunks_exact_mut(plane).enumerate() {
                                if k % 3 == 0 {
                                    pl.fill(-0.0);
                                }
                            }
                        }
                        let (dx_ref, dw_ref, db_ref) = conv_backward_reference(&x, &wt, &dy, p);
                        for lvl in gist_simd::available_levels() {
                            let mut dx = Tensor::full(x.shape(), f32::NAN);
                            let (dw, db) = gist_simd::with_level(lvl, || {
                                conv::backward_with_into(&x, &wt, &dy, p, &scratch, &mut dx)
                            })
                            .unwrap();
                            let case = format!("GIST_SIMD={lvl} {p:?} out_c {f} on {}", x.shape());
                            assert_eq!(sum_bits(&db), sum_bits(&db_ref), "db {case}");
                            assert_eq!(sum_bits(&dw), sum_bits(&dw_ref), "dW {case}");
                            assert_eq!(sum_bits(&dx), sum_bits(&dx_ref), "dx {case}");
                        }
                    }
                }
            }
        },
    );
}

/// The textbook max-pool loop: each window scanned in ascending `(kh, kw)`
/// order with a strict `>` from `-inf`, padding cells skipped, the winner's
/// window index recorded. The kernels promise its bits.
fn maxpool_reference(x: &Tensor, p: PoolParams) -> (Tensor, Vec<u8>) {
    let s = x.shape();
    let mut y = Tensor::zeros(p.out_shape(s));
    let out = y.shape();
    let mut argmax = vec![0u8; out.numel()];
    let mut oi = 0usize;
    for n in 0..s.n() {
        for c in 0..s.c() {
            for oh in 0..out.h() {
                for ow in 0..out.w() {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_widx = 0u8;
                    for kh in 0..p.window {
                        for kw in 0..p.window {
                            let ih = (oh * p.stride + kh) as isize - p.pad as isize;
                            let iw = (ow * p.stride + kw) as isize - p.pad as isize;
                            if ih < 0 || iw < 0 || ih >= s.h() as isize || iw >= s.w() as isize {
                                continue;
                            }
                            let v = x.at(n, c, ih as usize, iw as usize);
                            if v > best {
                                best = v;
                                best_widx = (kh * p.window + kw) as u8;
                            }
                        }
                    }
                    y.data_mut()[oi] = best;
                    argmax[oi] = best_widx;
                    oi += 1;
                }
            }
        }
    }
    (y, argmax)
}

/// The textbook max-pool backward loop: zero `dX`, then add each `dY` to
/// the cell its map entry names, in ascending `(n, c, oh, ow)` order,
/// dropping entries that name padding.
fn maxpool_backward_reference(x_shape: Shape, argmax: &[u8], dy: &Tensor, p: PoolParams) -> Tensor {
    let out = p.out_shape(x_shape);
    let mut dx = Tensor::zeros(x_shape);
    let mut oi = 0usize;
    for n in 0..x_shape.n() {
        for c in 0..x_shape.c() {
            for oh in 0..out.h() {
                for ow in 0..out.w() {
                    let widx = argmax[oi] as usize;
                    let kh = widx / p.window;
                    let kw = widx % p.window;
                    let ih = (oh * p.stride + kh) as isize - p.pad as isize;
                    let iw = (ow * p.stride + kw) as isize - p.pad as isize;
                    if ih >= 0
                        && iw >= 0
                        && (ih as usize) < x_shape.h()
                        && (iw as usize) < x_shape.w()
                    {
                        let idx = x_shape.index(n, c, ih as usize, iw as usize);
                        dx.data_mut()[idx] += dy.data()[oi];
                    }
                    oi += 1;
                }
            }
        }
    }
    dx
}

/// The textbook average-pool loop: each window's non-padding cells summed
/// from `0.0` in ascending `(kh, kw)` order, divided by the full area.
fn avgpool_reference(x: &Tensor, p: PoolParams) -> Tensor {
    let s = x.shape();
    let mut y = Tensor::zeros(p.out_shape(s));
    let out = y.shape();
    let area = (p.window * p.window) as f32;
    let mut oi = 0usize;
    for n in 0..s.n() {
        for c in 0..s.c() {
            for oh in 0..out.h() {
                for ow in 0..out.w() {
                    let mut acc = 0.0;
                    for kh in 0..p.window {
                        for kw in 0..p.window {
                            let ih = (oh * p.stride + kh) as isize - p.pad as isize;
                            let iw = (ow * p.stride + kw) as isize - p.pad as isize;
                            if ih < 0 || iw < 0 || ih >= s.h() as isize || iw >= s.w() as isize {
                                continue;
                            }
                            acc += x.at(n, c, ih as usize, iw as usize);
                        }
                    }
                    y.data_mut()[oi] = acc / area;
                    oi += 1;
                }
            }
        }
    }
    y
}

/// The textbook average-pool backward loop: zero `dX`, then spread each
/// `dY / area` over its window's non-padding cells in ascending
/// `(n, c, oh, ow, kh, kw)` order.
fn avgpool_backward_reference(x_shape: Shape, dy: &Tensor, p: PoolParams) -> Tensor {
    let out = p.out_shape(x_shape);
    let mut dx = Tensor::zeros(x_shape);
    let area = (p.window * p.window) as f32;
    let mut oi = 0usize;
    for n in 0..x_shape.n() {
        for c in 0..x_shape.c() {
            for oh in 0..out.h() {
                for ow in 0..out.w() {
                    let g = dy.data()[oi] / area;
                    for kh in 0..p.window {
                        for kw in 0..p.window {
                            let ih = (oh * p.stride + kh) as isize - p.pad as isize;
                            let iw = (ow * p.stride + kw) as isize - p.pad as isize;
                            if ih >= 0
                                && iw >= 0
                                && (ih as usize) < x_shape.h()
                                && (iw as usize) < x_shape.w()
                            {
                                let idx = x_shape.index(n, c, ih as usize, iw as usize);
                                dx.data_mut()[idx] += g;
                            }
                        }
                    }
                    oi += 1;
                }
            }
        }
    }
    dx
}

/// Values that tell a reordered or re-associated pool from the loop: NaN,
/// both infinities, both zeros, subnormals, and a few small integers, so
/// windows tie often.
fn hostile_f32() -> impl Strategy<Value = f32> {
    one_of(vec![
        boxed(-2.0f32..2.0),
        boxed(one_of(vec![boxed(just(-1.0f32)), boxed(just(1.0f32)), boxed(just(2.0f32))])),
        boxed(just(0.0f32)),
        boxed(just(-0.0f32)),
        boxed(just(f32::NAN)),
        boxed(just(f32::INFINITY)),
        boxed(just(f32::NEG_INFINITY)),
        boxed(just(f32::MIN_POSITIVE / 2.0)),
        boxed(just(-1e-45f32)),
    ])
}

/// Pooling geometry: windows 1–4, strides 1–3, pads 0–1 on odd and even
/// inputs, or one of the zoo's (2/2/0, 3/2/0, 3/1/1, 3/2/1, and a global
/// average over the whole map).
fn pool_case() -> impl Strategy<Value = (PoolParams, (usize, usize))> {
    let zoo = |p: PoolParams| boxed(map(5usize..14, move |hw| (p, (hw, hw))));
    one_of(vec![
        boxed(map(
            ((1usize..5, 1usize..4, 0usize..2), (1usize..12, 1usize..12)),
            |((k, s, p), hw)| (PoolParams::new(k, s, p), hw),
        )),
        zoo(PoolParams::new(2, 2, 0)),
        zoo(PoolParams::new(3, 2, 0)),
        zoo(PoolParams::new(3, 1, 1)),
        zoo(PoolParams::new(3, 2, 1)),
        boxed(map(1usize..9, |hw| (PoolParams::new(hw, 1, 0), (hw, hw)))),
    ])
}

/// Every pooling kernel equals its textbook loop bit for bit — outputs,
/// map bytes and gradients (a summed NaN as any NaN, see [`sum_bits`]) —
/// written into NaN-poisoned buffers, over
/// [`pool_case`]'s geometries and [`hostile_f32`] values, on a few planes
/// or on 200–280, where a plane-offset slip shows.
/// With `nan_rim` each plane's outer rows and columns are NaN, so padded
/// border windows see nothing but NaN and padding. Max-pool backward runs
/// on the forward's map and on an arbitrary in-window map, whose border
/// entries may name padding and must be dropped.
#[test]
fn pooling_kernels_equal_the_textbook_loops_bit_for_bit() {
    Runner::new("pooling_kernels_equal_the_textbook_loops_bit_for_bit").cases(CASES * 4).run(
        &(
            (
                pool_case(),
                one_of(vec![boxed((1usize..3, 1usize..4)), boxed((just(2usize), 100usize..140))]),
            ),
            bools(),
            vec_of(hostile_f32(), 16..97),
            vec_of(0usize..256, 16..97),
        ),
        |(((p, (h, w)), (n, c)), nan_rim, base, entries)| {
            let (p, s) = (*p, Shape::nchw(*n, *c, *h, *w));
            let mut poisoned = Tensor::full(s, f32::NAN);
            if !p.fits(*h, *w) {
                assert!(pool::maxpool_forward_into(&poisoned.clone(), p, &mut poisoned).is_err());
                return;
            }
            let mut values: Vec<f32> = base.iter().copied().cycle().take(s.numel()).collect();
            if *nan_rim {
                for (i, v) in values.iter_mut().enumerate() {
                    let (r, col) = (i / w % h, i % w);
                    if r == 0 || r == h - 1 || col == 0 || col == w - 1 {
                        *v = f32::NAN;
                    }
                }
            }
            let x = Tensor::from_vec(s, values).unwrap();
            let out = p.out_shape(s);
            let dy_values = base.iter().rev().copied().cycle().take(out.numel()).collect();
            let dy = Tensor::from_vec(out, dy_values).unwrap();
            let case = format!("{p:?} on {s}");

            let (y_ref, map_ref) = maxpool_reference(&x, p);
            let mut y = Tensor::full(out, f32::NAN);
            let map_got = pool::maxpool_forward_into(&x, p, &mut y).unwrap();
            assert_eq!(bits(&y), bits(&y_ref), "maxpool forward {case}");
            assert_eq!(map_got, map_ref, "maxpool map {case}");
            let area = p.window * p.window;
            let arbitrary: Vec<u8> =
                entries.iter().cycle().take(out.numel()).map(|&e| (e % area) as u8).collect();
            for m in [&map_ref, &arbitrary] {
                let mut dx = poisoned.clone();
                pool::maxpool_backward_into(s, m, &dy, p, &mut dx).unwrap();
                assert_eq!(
                    sum_bits(&dx),
                    sum_bits(&maxpool_backward_reference(s, m, &dy, p)),
                    "maxpool backward {case}"
                );
            }

            let mut y = Tensor::full(out, f32::NAN);
            pool::avgpool_forward_into(&x, p, &mut y).unwrap();
            assert_eq!(sum_bits(&y), sum_bits(&avgpool_reference(&x, p)), "avgpool forward {case}");
            pool::avgpool_backward_into(s, &dy, p, &mut poisoned).unwrap();
            assert_eq!(
                sum_bits(&poisoned),
                sum_bits(&avgpool_backward_reference(s, &dy, p)),
                "avgpool backward {case}"
            );
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
