//! Differential serial-vs-parallel suite.
//!
//! Every kernel and codec that runs on the `gist-par` pool promises
//! **byte-identical** output at every thread count: partitioning is a pure
//! function of the problem shape, per-element accumulation order matches a
//! serial sweep, and true reductions combine partials along a fixed tree.
//! These properties check that promise the only way that counts — running
//! the same inputs under one thread and several, and comparing raw bits.
//!
//! Inputs are adversarial on purpose: NaN (whose payload must survive
//! unchanged), both infinities, both zeros, subnormals, and extreme
//! normals, so any reordering that changes even one rounding or
//! NaN-propagation step fails the bit comparison.

use gist::encodings::bitpack;
use gist::encodings::csr::SsdcConfig;
use gist::encodings::dpr::DprBuffer;
use gist::encodings::{BitMask, CsrMatrix, DprFormat, RoundingMode};
use gist::par::with_threads;
use gist::simd::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
use gist::tensor::ops::conv::ConvParams;
use gist::tensor::ops::lrn::LrnParams;
use gist::tensor::ops::{batchnorm, conv, linear, lrn};
use gist::tensor::{ScratchPool, Shape, Tensor};
use gist_testkit::prop::{boxed, just, one_of, vec_of, Strategy};
use gist_testkit::Runner;

/// Property cases per kernel/codec (each case runs at every thread count).
const CASES: u32 = 64;
/// Multithreaded pool sizes compared against the single-thread run.
const THREADS: [usize; 2] = [2, 4];

/// f32 values including adversarial bit patterns: NaN, both infinities,
/// both zeros, subnormals at both ends of the denormal range, and extreme
/// normals.
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
        boxed(just(-1e-45f32)),
        boxed(just(f32::MAX)),
        boxed(just(f32::MIN)),
    ])
}

/// Repeats a generated hostile base out to `len` values, so tests can reach
/// multi-chunk problem sizes without generating each element individually.
fn tile(base: &[f32], len: usize) -> Vec<f32> {
    base.iter().copied().cycle().take(len).collect()
}

/// Raw bit patterns: the only equality that treats NaN payloads, `-0.0`
/// vs `0.0`, and every rounding honestly.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` on a single-thread pool and on each [`THREADS`] pool and
/// asserts all results are identical.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let serial = with_threads(1, &f);
    for &t in &THREADS {
        let parallel = with_threads(t, &f);
        assert_eq!(parallel, serial, "threads={t} diverged from serial");
    }
}

// ---------------------------------------------------------------------------
// Tensor kernels
// ---------------------------------------------------------------------------

#[test]
fn matmul_kernels_are_thread_invariant() {
    // Dims up to 70 push past the row-grain so several chunks really
    // dispatch, some ending mid-tile; small dims cover the degenerate
    // single-chunk path, and the conv shape (16, 144, 1024) is four
    // four-row chunks where it used to be sixteen one-row ones.
    let dim = || one_of(vec![boxed(1usize..8), boxed(32usize..71)]);
    let k_dim = || one_of(vec![boxed(1usize..8), boxed(32usize..65)]);
    let shape = || one_of(vec![boxed((dim(), k_dim(), dim())), boxed(just((16, 144, 1024)))]);
    Runner::new("matmul_kernels_are_thread_invariant").cases(CASES).run(
        &(shape(), vec_of(hostile_f32(), 16..257)),
        |((m, k, n), base)| {
            let (m, k, n) = (*m, *k, *n);
            let a = tile(base, m * k);
            let b = tile(base, k * n);
            let at = tile(base, k * m);
            let bt = tile(base, n * k);
            // Each layout into a NaN-poisoned buffer: every kernel promises to
            // overwrite all of `c`.
            type Gemm = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);
            let gemm = |f: Gemm, a: &[f32], b: &[f32]| {
                let mut c = vec![f32::NAN; m * n];
                f(a, b, m, k, n, &mut c);
                c
            };
            assert_thread_invariant(|| {
                [
                    bits(&gemm(matmul_into, &a, &b)),
                    bits(&gemm(matmul_at_b_into, &at, &b)),
                    bits(&gemm(matmul_a_bt_into, &a, &bt)),
                ]
            });
        },
    );
}

#[test]
fn conv_forward_backward_is_thread_invariant() {
    // Filters reach 8 and 16, whole vectors of output channels, so the
    // lane-parallel db chains and the transposed dW product (any `ckk` here
    // but 8 leaves a scalar tail) cross thread counts too.
    let filters = || one_of(vec![boxed(1usize..5), boxed(just(8usize)), boxed(just(16usize))]);
    Runner::new("conv_forward_backward_is_thread_invariant").cases(CASES).run(
        &(
            (1usize..5, 1usize..4, 3usize..9),
            (filters(), 1usize..4),
            vec_of(hostile_f32(), 16..257),
        ),
        |((n, c, hw), (f, kernel), base)| {
            let (n, c, hw, f, kernel) = (*n, *c, *hw, *f, *kernel);
            let p = ConvParams::new(kernel, 1, kernel / 2);
            let x =
                Tensor::from_vec(Shape::nchw(n, c, hw, hw), tile(base, n * c * hw * hw)).unwrap();
            let w = Tensor::from_vec(
                Shape::nchw(f, c, kernel, kernel),
                tile(base, f * c * kernel * kernel),
            )
            .unwrap();
            let bias = Tensor::from_vec(Shape::vector(f), tile(base, f)).unwrap();
            let out = p.out_shape(x.shape(), f);
            let dy = Tensor::from_vec(out, tile(base, out.numel())).unwrap();
            let scratch = ScratchPool::new();
            assert_thread_invariant(|| {
                let (mut y, mut dx) =
                    (Tensor::full(out, f32::NAN), Tensor::full(x.shape(), f32::NAN));
                conv::forward_into(&x, &w, Some(&bias), p, &mut y).unwrap();
                let (dw, db) = conv::backward_with_into(&x, &w, &dy, p, &scratch, &mut dx).unwrap();
                [bits(y.data()), bits(dx.data()), bits(dw.data()), bits(db.data())]
            });
        },
    );
}

#[test]
fn linear_forward_backward_is_thread_invariant() {
    // Batch x features large enough that the batch-grain splits the bias
    // add and the db reduction into several chunks.
    Runner::new("linear_forward_backward_is_thread_invariant").cases(CASES).run(
        &((1usize..130, 1usize..6, 48usize..97), vec_of(hostile_f32(), 16..257)),
        |((n, f_in, f_out), base)| {
            let (n, f_in, f_out) = (*n, *f_in, *f_out);
            let x = Tensor::from_vec(Shape::matrix(n, f_in), tile(base, n * f_in)).unwrap();
            let w = Tensor::from_vec(Shape::matrix(f_out, f_in), tile(base, f_out * f_in)).unwrap();
            let bias = Tensor::from_vec(Shape::vector(f_out), tile(base, f_out)).unwrap();
            let dy = Tensor::from_vec(Shape::matrix(n, f_out), tile(base, n * f_out)).unwrap();
            let scratch = ScratchPool::new();
            assert_thread_invariant(|| {
                let mut y = Tensor::full(dy.shape(), f32::NAN);
                let mut dx = Tensor::full(x.shape(), f32::NAN);
                linear::forward_into(&x, &w, Some(&bias), &mut y).unwrap();
                let (dw, db) = linear::backward_with_into(&x, &w, &dy, &scratch, &mut dx).unwrap();
                [bits(y.data()), bits(dx.data()), bits(dw.data()), bits(db.data())]
            });
        },
    );
}

#[test]
fn batchnorm_forward_backward_is_thread_invariant() {
    Runner::new("batchnorm_forward_backward_is_thread_invariant").cases(CASES).run(
        &((1usize..6, 1usize..6, 2usize..8), vec_of(hostile_f32(), 16..257)),
        |((n, c, hw), base)| {
            let (n, c, hw) = (*n, *c, *hw);
            let x =
                Tensor::from_vec(Shape::nchw(n, c, hw, hw), tile(base, n * c * hw * hw)).unwrap();
            let gamma = Tensor::from_vec(Shape::vector(c), tile(base, c)).unwrap();
            let beta = Tensor::from_vec(Shape::vector(c), tile(base, c)).unwrap();
            let dy = Tensor::from_vec(x.shape(), tile(base, x.numel())).unwrap();
            assert_thread_invariant(|| {
                let [mut y, mut dx] = [(); 2].map(|_| Tensor::full(x.shape(), f32::NAN));
                let [mut dg, mut db] = [(); 2].map(|_| Tensor::full(gamma.shape(), f32::NAN));
                let cache = batchnorm::forward_into(&x, &gamma, &beta, 1e-5, &mut y).unwrap();
                batchnorm::backward_into(&x, &gamma, &cache, &dy, &mut dx, &mut dg, &mut db)
                    .unwrap();
                [bits(y.data()), bits(dx.data()), bits(dg.data()), bits(db.data())]
            });
        },
    );
}

#[test]
fn lrn_forward_backward_is_thread_invariant() {
    Runner::new("lrn_forward_backward_is_thread_invariant").cases(CASES).run(
        &((1usize..5, 1usize..8, 2usize..8), vec_of(hostile_f32(), 16..257)),
        |((n, c, hw), base)| {
            let (n, c, hw) = (*n, *c, *hw);
            let p = LrnParams { size: 5, alpha: 1e-4, beta: 0.75, k: 2.0 };
            let x =
                Tensor::from_vec(Shape::nchw(n, c, hw, hw), tile(base, n * c * hw * hw)).unwrap();
            let dy = Tensor::from_vec(x.shape(), tile(base, x.numel())).unwrap();
            assert_thread_invariant(|| {
                let [mut y, mut dx] = [(); 2].map(|_| Tensor::full(x.shape(), f32::NAN));
                lrn::forward_into(&x, p, &mut y).unwrap();
                lrn::backward_into(&x, &dy, p, &mut dx).unwrap();
                [bits(y.data()), bits(dx.data())]
            });
        },
    );
}

// ---------------------------------------------------------------------------
// Encoding codecs
// ---------------------------------------------------------------------------

/// Long enough that the per-word grain of every codec splits into several
/// chunks (`BitMask` packs 2^11 words x 32 values per chunk).
const CODEC_LEN: usize = 1 << 17;

#[test]
fn binarize_codec_is_thread_invariant() {
    Runner::new("binarize_codec_is_thread_invariant").cases(CASES).run(
        &(vec_of(hostile_f32(), 16..257), 1usize..CODEC_LEN),
        |(base, extra)| {
            let y = tile(base, CODEC_LEN + extra);
            let dy: Vec<f32> = y.iter().rev().copied().collect();
            assert_thread_invariant(|| {
                let mask = BitMask::encode(&y);
                let mut dx = vec![f32::NAN; y.len()];
                mask.relu_backward_into(&dy, &mut dx).unwrap();
                bits(&dx)
            });
        },
    );
}

#[test]
fn csr_codec_is_thread_invariant() {
    // Mostly-zero input so the CSR actually exercises sparse row offsets.
    let sparse = one_of(vec![boxed(just(0.0f32)), boxed(just(0.0f32)), boxed(hostile_f32())]);
    Runner::new("csr_codec_is_thread_invariant").cases(CASES).run(
        &(vec_of(sparse, 64..513), 1usize..CODEC_LEN),
        |(base, extra)| {
            let values = tile(base, CODEC_LEN / 2 + extra);
            for narrow in [true, false] {
                assert_thread_invariant(|| {
                    let csr = CsrMatrix::encode(&values, SsdcConfig { narrow, value_format: None });
                    bits(&csr.decode())
                });
            }
        },
    );
}

#[test]
fn csr_relu_backward_is_thread_invariant() {
    // The row-parallel gate straight off the stash (plain and DPR values):
    // rows own disjoint `dx` slices, so any chunking gives the same bits.
    let sparse = one_of(vec![boxed(just(0.0f32)), boxed(just(0.0f32)), boxed(hostile_f32())]);
    Runner::new("csr_relu_backward_is_thread_invariant").cases(CASES).run(
        &(vec_of(sparse, 64..513), 1usize..CODEC_LEN),
        |(base, extra)| {
            let y = tile(base, CODEC_LEN / 2 + extra);
            let dy: Vec<f32> = y.iter().rev().copied().collect();
            for narrow in [true, false] {
                for value_format in [None, Some(DprFormat::Fp8)] {
                    assert_thread_invariant(|| {
                        let csr = CsrMatrix::encode(&y, SsdcConfig { narrow, value_format });
                        let mut dx = vec![f32::NAN; y.len()];
                        csr.relu_backward_into(&dy, &mut dx);
                        bits(&dx)
                    });
                }
            }
        },
    );
}

#[test]
fn dpr_codec_is_thread_invariant() {
    Runner::new("dpr_codec_is_thread_invariant").cases(CASES).run(
        &(vec_of(hostile_f32(), 16..257), 1usize..CODEC_LEN),
        |(base, extra)| {
            let values = tile(base, CODEC_LEN / 2 + extra);
            for format in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
                for mode in [RoundingMode::Nearest, RoundingMode::Stochastic { seed: 0xD5 }] {
                    assert_thread_invariant(|| {
                        let buf = DprBuffer::encode_with(format, &values, mode);
                        bits(&buf.decode())
                    });
                }
            }
        },
    );
}

#[test]
fn bitpack_primitives_are_thread_invariant() {
    Runner::new("bitpack_primitives_are_thread_invariant").cases(CASES).run(
        &(vec_of(hostile_f32(), 16..257), 1usize..CODEC_LEN),
        |(base, extra)| {
            let len = CODEC_LEN + extra;
            let v = tile(base, len);
            let flags: Vec<bool> = v.iter().map(|x| *x > 0.25).collect();
            let nibbles: Vec<u8> = v.iter().map(|x| (x.to_bits() & 0xF) as u8).collect();
            assert_thread_invariant(|| {
                let words = bitpack::pack_bits(&flags);
                let back = bitpack::unpack_bits(&words, len);
                let packed = bitpack::pack_nibbles(&nibbles);
                let nback = bitpack::unpack_nibbles(&packed, len);
                (words, back, packed, nback)
            });
        },
    );
}
