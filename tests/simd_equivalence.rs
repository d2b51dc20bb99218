//! Differential SIMD-level suite: the gate for `gist-simd`.
//!
//! Every kernel and codec that dispatches through `gist_simd` promises the
//! same results at every `GIST_SIMD` level — scalar, SSE2, AVX2 — at every
//! thread count, under both allocation policies. These properties check
//! that promise the only way that counts: running identical inputs under
//! [`gist::simd::with_level`] for each available level and comparing raw
//! bits against the scalar reference.
//!
//! Two comparison keys are used, deliberately:
//!
//! * **Arithmetic kernels** (matmul, conv, linear) compare through
//!   [`gist::simd::canon_bits`]: exact bits for every non-NaN output —
//!   signed zeros, denormals, infinities, every rounding decision — and
//!   element-wise NaN agreement with the payload canonicalised. Generated
//!   NaN payloads are compiler-chosen (LLVM commutes `fadd`/`fmul`; x86
//!   NaN propagation is operand-order dependent), so no implementation can
//!   pin them — the same scalar source already flips them between `-O`
//!   levels.
//! * **Codecs** (Binarize, SSDC/CSR, DPR, bitpack) compare raw bits with
//!   no canonicalisation: they move or classify bits rather than create
//!   NaNs, so even NaN payloads must survive byte-identically.
//!
//! Inputs are adversarial on purpose: NaN, both infinities, both zeros,
//! subnormals, extreme normals, shapes that straddle the 8-lane strip
//! boundary, and empty/one-element tensors. Whole training steps at every
//! level are views of the equivalence matrix (`tests/matrix/mod.rs`).

mod matrix;

use gist::encodings::bitpack;
use gist::encodings::csr::SsdcConfig;
use gist::encodings::dpr::DprBuffer;
use gist::encodings::{BitMask, CsrMatrix, DprFormat, RoundingMode};
use gist::par::{env_threads, with_threads};
use gist::simd::{available_levels, canon_bits, with_level, Level};
use gist::simd::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
use gist::tensor::ops::conv::ConvParams;
use gist::tensor::ops::{conv, linear};
use gist::tensor::{ScratchPool, Shape, Tensor};
use gist_testkit::prop::{boxed, just, one_of, vec_of, Strategy};
use gist_testkit::Runner;

/// Property cases per kernel/codec (each case runs at every SIMD level).
const CASES: u32 = 64;

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

/// Repeats a generated hostile base out to `len` values.
fn tile(base: &[f32], len: usize) -> Vec<f32> {
    base.iter().copied().cycle().take(len).collect()
}

/// Strict raw bits — the codec comparison key (NaN payloads included).
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Canonical bits — the arithmetic-kernel comparison key (NaN payloads
/// collapsed, everything else raw).
fn canon(v: &[f32]) -> Vec<u32> {
    v.iter().map(|&x| canon_bits(x)).collect()
}

/// One of the `gist-simd` GEMM layouts, `C[m × n]` into a preallocated `c`.
type Gemm = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);

/// Runs `gemm` into a NaN-poisoned buffer (every kernel promises to
/// overwrite all of `c`) and returns it.
fn gemm(gemm: Gemm, a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    let mut c = vec![f32::NAN; m * n];
    gemm(a, b, m, k, n, &mut c);
    c
}

/// Runs `f` under the scalar level and under every available level and
/// asserts all results are identical.
fn assert_level_invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let reference = with_level(Level::Scalar, &f);
    for lvl in available_levels() {
        let got = with_level(lvl, &f);
        assert_eq!(got, reference, "GIST_SIMD={lvl} diverged from scalar");
    }
}

/// Thread counts the kernel properties cross with every level.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, env_threads().max(2)];
    counts.dedup();
    counts
}

// ---------------------------------------------------------------------------
// Arithmetic kernels
// ---------------------------------------------------------------------------

#[test]
fn matmul_kernels_match_scalar_at_every_level() {
    // Dims cross both edges of the 4-row × 2-vector register tile: pure-tail
    // shapes (n < 8), exact-vector shapes, tile+vector+tail shapes, and row
    // counts on either side of a multiple of 4; zero-sized m/k cover the
    // degenerate dispatches. The conv shape (16 filters over a 3×3×16 window
    // of a 32×32 map) is the one whose `row_grain` was one row and is four.
    let m_dim = || one_of(vec![boxed(0usize..3), boxed(1usize..9), boxed(16usize..71)]);
    let k_dim = || one_of(vec![boxed(0usize..3), boxed(1usize..9), boxed(16usize..41)]);
    let n_dim = || one_of(vec![boxed(1usize..9), boxed(8usize..9), boxed(15usize..71)]);
    let shape = || one_of(vec![boxed((m_dim(), k_dim(), n_dim())), boxed(just((16, 144, 1024)))]);
    Runner::new("matmul_kernels_match_scalar_at_every_level").cases(CASES).run(
        &(shape(), vec_of(hostile_f32(), 16..257)),
        |((m, k, n), base)| {
            let (m, k, n) = (*m, *k, *n);
            let a = tile(base, m * k);
            let b = tile(base, k * n);
            let at = tile(base, k * m);
            let bt = tile(base, n * k);
            assert_level_invariant(|| {
                [
                    canon(&gemm(matmul_into, &a, &b, (m, k, n))),
                    canon(&gemm(matmul_at_b_into, &at, &b, (m, k, n))),
                    canon(&gemm(matmul_a_bt_into, &a, &bt, (m, k, n))),
                ]
            });
        },
    );
}

#[test]
fn conv_lowering_matches_scalar_at_every_level_and_thread_count() {
    // One lowering for every geometry — im2col + the register-tiled GEMM family,
    // forward and backward — so one property: kernels 1..3 (3×3/stride-1,
    // the VGG/ResNet case, included) × strides 1..2, at every level × every
    // thread count, against scalar on one thread.
    Runner::new("conv_lowering_matches_scalar_at_every_level_and_thread_count").cases(CASES).run(
        &(
            (1usize..4, 1usize..4, 3usize..12),
            (1usize..5, 1usize..4, 1usize..3),
            vec_of(hostile_f32(), 16..257),
        ),
        |((n, c, hw), (f, kernel, stride), base)| {
            let (n, c, hw, f, kernel) = (*n, *c, *hw, *f, *kernel);
            let p = ConvParams::new(kernel, *stride, kernel / 2);
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
            let run = || {
                let (mut y, mut dx) =
                    (Tensor::full(out, f32::NAN), Tensor::full(x.shape(), f32::NAN));
                conv::forward_into(&x, &w, Some(&bias), p, &mut y).unwrap();
                let (dw, db) = conv::backward_with_into(&x, &w, &dy, p, &scratch, &mut dx).unwrap();
                [canon(y.data()), canon(dx.data()), canon(dw.data()), canon(db.data())]
            };
            let reference = with_level(Level::Scalar, || with_threads(1, run));
            for lvl in available_levels() {
                for t in thread_counts() {
                    let got = with_level(lvl, || with_threads(t, run));
                    assert_eq!(got, reference, "GIST_SIMD={lvl} threads={t} diverged");
                }
            }
        },
    );
}

#[test]
fn linear_layers_match_scalar_at_every_level() {
    Runner::new("linear_layers_match_scalar_at_every_level").cases(CASES).run(
        &((1usize..66, 1usize..6, 1usize..49), vec_of(hostile_f32(), 16..257)),
        |((n, f_in, f_out), base)| {
            let (n, f_in, f_out) = (*n, *f_in, *f_out);
            let x = Tensor::from_vec(Shape::matrix(n, f_in), tile(base, n * f_in)).unwrap();
            let w = Tensor::from_vec(Shape::matrix(f_out, f_in), tile(base, f_out * f_in)).unwrap();
            let bias = Tensor::from_vec(Shape::vector(f_out), tile(base, f_out)).unwrap();
            let dy = Tensor::from_vec(Shape::matrix(n, f_out), tile(base, n * f_out)).unwrap();
            let scratch = ScratchPool::new();
            assert_level_invariant(|| {
                let mut y = Tensor::full(dy.shape(), f32::NAN);
                let mut dx = Tensor::full(x.shape(), f32::NAN);
                linear::forward_into(&x, &w, Some(&bias), &mut y).unwrap();
                let (dw, db) = linear::backward_with_into(&x, &w, &dy, &scratch, &mut dx).unwrap();
                [canon(y.data()), canon(dx.data()), canon(dw.data()), canon(db.data())]
            });
        },
    );
}

// ---------------------------------------------------------------------------
// Codecs — strict bit comparison, NaN payloads included
// ---------------------------------------------------------------------------

/// Long enough that every codec's parallel grain splits into several
/// chunks and the vector kernels see both full groups and ragged tails.
const CODEC_LEN: usize = 1 << 16;

#[test]
fn binarize_codec_matches_scalar_at_every_level() {
    Runner::new("binarize_codec_matches_scalar_at_every_level").cases(CASES).run(
        &(vec_of(hostile_f32(), 16..257), 1usize..CODEC_LEN),
        |(base, extra)| {
            let y = tile(base, CODEC_LEN + extra);
            let dy: Vec<f32> = y.iter().rev().copied().collect();
            assert_level_invariant(|| {
                let mask = BitMask::encode(&y);
                // Words via get() (strict), select via relu_backward_into
                // (strict — passing lanes must preserve dy's NaN payloads).
                let first_bits: Vec<bool> = (0..64.min(mask.len())).map(|i| mask.get(i)).collect();
                let mut dx = vec![f32::NAN; y.len()];
                mask.relu_backward_into(&dy, &mut dx).unwrap();
                (first_bits, bits(&dx))
            });
        },
    );
}

#[test]
fn csr_codec_matches_scalar_at_every_level() {
    let sparse = one_of(vec![boxed(just(0.0f32)), boxed(just(0.0f32)), boxed(hostile_f32())]);
    Runner::new("csr_codec_matches_scalar_at_every_level").cases(CASES).run(
        &(vec_of(sparse, 64..513), 1usize..CODEC_LEN),
        |(base, extra)| {
            let values = tile(base, CODEC_LEN / 2 + extra);
            for narrow in [true, false] {
                assert_level_invariant(|| {
                    let csr = CsrMatrix::encode(&values, SsdcConfig { narrow, value_format: None });
                    (csr.nnz(), csr.encoded_bytes(), bits(&csr.decode()))
                });
            }
        },
    );
}

#[test]
fn csr_relu_backward_matches_scalar_at_every_level() {
    // The gate reads arrays the vector pack kernel filled (and, under DPR,
    // the vector dequantizer decoded), so it is level-sensitive end to end.
    let sparse = one_of(vec![boxed(just(0.0f32)), boxed(just(0.0f32)), boxed(hostile_f32())]);
    Runner::new("csr_relu_backward_matches_scalar_at_every_level").cases(CASES).run(
        &(vec_of(sparse, 64..513), 1usize..CODEC_LEN),
        |(base, extra)| {
            let y = tile(base, CODEC_LEN / 2 + extra);
            let dy: Vec<f32> = y.iter().rev().copied().collect();
            for narrow in [true, false] {
                for value_format in [None, Some(DprFormat::Fp8)] {
                    assert_level_invariant(|| {
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
fn csr_row_kernels_match_scalar_at_every_level() {
    use gist::simd::{csr_pack_row_u32, csr_pack_row_u8, csr_scatter_row_u32, csr_scatter_row_u8};
    let sparse = one_of(vec![boxed(just(0.0f32)), boxed(just(0.0f32)), boxed(hostile_f32())]);
    Runner::new("csr_row_kernels_match_scalar_at_every_level").cases(CASES).run(
        // Row lengths straddle the 8-lane group boundary in both
        // directions; u8 column indices require rows <= 256 wide.
        &vec_of(sparse, 0..256),
        |row| {
            assert_level_invariant(|| {
                // Exact-sized outputs: any overstore panics right here.
                let nnz = row.iter().filter(|v| **v != 0.0).count();
                let mut vals8 = vec![0.0f32; nnz];
                let mut cols8 = vec![0u8; nnz];
                let n8 = csr_pack_row_u8(row, &mut vals8, &mut cols8);
                let mut vals32 = vec![0.0f32; nnz];
                let mut cols32 = vec![0u32; nnz];
                let n32 = csr_pack_row_u32(row, &mut vals32, &mut cols32);
                assert_eq!((n8, n32), (nnz, nnz));
                // Scatter back over poisoned zeros: the round-trip must
                // reproduce the row with -0.0 collapsed to +0.0 (the
                // `v != 0.0` predicate drops it) and NaN payloads intact.
                let mut back8 = vec![0.0f32; row.len()];
                csr_scatter_row_u8(&cols8, &vals8, &mut back8);
                let mut back32 = vec![0.0f32; row.len()];
                csr_scatter_row_u32(&cols32, &vals32, &mut back32);
                (bits(&vals8), cols8, bits(&back8), bits(&vals32), cols32, bits(&back32))
            });
        },
    );
}

#[test]
fn dpr_codec_matches_scalar_at_every_level() {
    Runner::new("dpr_codec_matches_scalar_at_every_level").cases(CASES).run(
        &(vec_of(hostile_f32(), 16..257), 1usize..CODEC_LEN),
        |(base, extra)| {
            let values = tile(base, CODEC_LEN / 2 + extra);
            for format in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
                assert_level_invariant(|| {
                    // Buffer equality covers the packed words themselves
                    // (DprBuffer derives PartialEq), decode covers the
                    // unpack path.
                    let buf = DprBuffer::encode(format, &values);
                    let decoded = bits(&buf.decode());
                    (buf, decoded)
                });
                // The stochastic ablation stays scalar at every level but
                // must still be level-*invariant*.
                assert_level_invariant(|| {
                    DprBuffer::encode_with(format, &values, RoundingMode::Stochastic { seed: 0xD5 })
                });
            }
        },
    );
}

#[test]
fn bitpack_flags_match_scalar_at_every_level() {
    Runner::new("bitpack_flags_match_scalar_at_every_level").cases(CASES).run(
        &(vec_of(hostile_f32(), 16..257), 1usize..CODEC_LEN),
        |(base, extra)| {
            let len = CODEC_LEN + extra;
            let v = tile(base, len);
            let flags: Vec<bool> = v.iter().map(|x| *x > 0.25).collect();
            assert_level_invariant(|| {
                let words = bitpack::pack_bits(&flags);
                let back = bitpack::unpack_bits(&words, len);
                (words, back)
            });
        },
    );
}

// ---------------------------------------------------------------------------
// Degenerate shapes
// ---------------------------------------------------------------------------

#[test]
fn empty_and_one_element_inputs_at_every_level() {
    for lvl in available_levels() {
        with_level(lvl, || {
            // Kernels.
            assert!(gemm(matmul_into, &[], &[], (0, 0, 1)).is_empty(), "{lvl}");
            assert_eq!(gemm(matmul_into, &[], &[], (1, 0, 5)), vec![0.0; 5], "{lvl}");
            assert_eq!(gemm(matmul_into, &[2.0], &[3.0], (1, 1, 1)), vec![6.0], "{lvl}");
            assert_eq!(gemm(matmul_a_bt_into, &[2.0], &[4.0], (1, 1, 1)), vec![8.0], "{lvl}");
            // Codecs.
            let m = BitMask::encode(&[]);
            assert_eq!(m.len(), 0, "{lvl}");
            assert_eq!(m.relu_backward_into(&[], &mut []), Ok(()), "{lvl}");
            let one = BitMask::encode(&[f32::NAN]);
            assert!(!one.get(0), "{lvl}: NaN is not positive");
            for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
                assert!(DprBuffer::encode(f, &[]).decode().is_empty(), "{lvl}");
                let single = DprBuffer::encode(f, &[1.0]);
                assert_eq!(single.decode(), vec![1.0], "{lvl}");
            }
            let csr = CsrMatrix::encode(&[], SsdcConfig::default());
            assert_eq!(csr.nnz(), 0, "{lvl}");
            assert!(csr.decode().is_empty(), "{lvl}");
            assert!(bitpack::pack_bits(&[]).is_empty(), "{lvl}");
            assert_eq!(bitpack::pack_bits(&[true]), vec![1u32], "{lvl}");
        });
    }
}

// ---------------------------------------------------------------------------
// Whole-training-step fingerprints: views of the equivalence matrix
// ---------------------------------------------------------------------------

matrix::views! {
    training_steps_are_byte_identical_across_levels_threads_and_policies: [
        "model=resnet_cifar mode=lossless simd=* threads=* alloc=*",
    ],
    training_steps_are_byte_identical_across_levels_modes_and_offloads: [
        "model=resnet_cifar alloc=arena mode=baseline|lossless offload=none|recompute|swap:vdnn \
         simd=*",
    ],
}
