//! The paper's central lossless claim, checked on live training: Binarize
//! and SSDC must leave training *bit-exactly* unchanged — same losses, same
//! gradients, same weights — on every architecture family. The
//! per-architecture crosses are views of the equivalence matrix
//! (`tests/matrix/mod.rs`); what stays here is not a cross — a longer
//! horizon, lossy formats held to *closeness*, dropout masks, a hand-built
//! concat graph and adversarial codec inputs.

mod matrix;

use gist::core::GistConfig;
use gist::encodings::DprFormat;
use gist::runtime::{ExecMode, Executor, SyntheticImages};
use gist::tensor::Tensor;

/// Per-step losses of `steps` SGD steps on the 3-class 16×16 task.
fn train_losses(graph: gist::graph::Graph, mode: ExecMode, steps: usize) -> Vec<f32> {
    let mut exec = Executor::new(graph, mode, 11).unwrap();
    let mut ds = SyntheticImages::new(3, 16, 0.4, 99);
    (0..steps)
        .map(|_| {
            let (x, y) = ds.minibatch(4);
            exec.step(&x, &y, 0.03).unwrap().loss
        })
        .collect()
}

matrix::views! {
    lossless_bit_exact_on_vgg_style_net: ["model=small_vgg mode=lossless steps=6"],
    lossless_bit_exact_on_resnet_with_batchnorm: [
        "model=resnet_cifar mode=lossless steps=3 batch=4",
    ],
    lossless_bit_exact_with_lrn_and_dropout: ["model=tiny_classic mode=lossless steps=8"],
    gradients_match_bitwise_between_baseline_and_lossless: [
        "model=small_vgg mode=lossless steps=1",
    ],
    deterministic_across_identical_runs: ["mode=fp8 steps=5"],
}

/// A longer horizon than the views train.
#[test]
fn lossless_bit_exact_on_tiny_convnet_many_steps() {
    let base = train_losses(gist::models::tiny_convnet(4, 3), ExecMode::Baseline, 25);
    let lossless = ExecMode::Gist(GistConfig::lossless());
    let gist = train_losses(gist::models::tiny_convnet(4, 3), lossless, 25);
    assert_eq!(base, gist);
}

#[test]
fn dropout_masks_differ_across_steps() {
    // The per-step mask salt must actually change the mask, or dropout
    // degenerates into a fixed sub-network.
    use gist::graph::OpKind;
    let g = gist::models::tiny_classic(4, 3);
    let mut exec = Executor::new(g, ExecMode::Baseline, 11).unwrap();
    let mut ds = SyntheticImages::new(3, 16, 0.0, 99);
    let (x, y) = ds.minibatch(4);
    // Same data, zero noise, but different steps -> different dropout masks
    // -> different losses after the first step's update is undone by lr=0.
    let l1 = exec.step(&x, &y, 0.0).unwrap().loss;
    let l2 = exec.step(&x, &y, 0.0).unwrap().loss;
    let has_dropout = exec.graph().nodes().iter().any(|n| matches!(n.op, OpKind::Dropout { .. }));
    assert!(has_dropout);
    assert_ne!(l1, l2, "identical masks across steps");
}

#[test]
fn dpr_fp16_stays_close_but_not_identical() {
    let base = train_losses(gist::models::tiny_convnet(4, 3), ExecMode::Baseline, 10);
    let fp16 = ExecMode::Gist(GistConfig::lossy(DprFormat::Fp16));
    let dpr = train_losses(gist::models::tiny_convnet(4, 3), fp16, 10);
    assert_ne!(base, dpr, "FP16 DPR is lossy; losses should eventually diverge");
    for (b, d) in base.iter().zip(&dpr) {
        assert!((b - d).abs() < 0.1, "DPR drift too large: {b} vs {d}");
    }
}

#[test]
fn stochastic_rounding_dpr_also_tracks_fp32() {
    // The rounding-mode ablation: unbiased stochastic rounding at FP8 must
    // also learn the task (and produce different weights than
    // round-to-nearest, proving the mode is actually active).
    use gist::runtime::train;
    let nearest = train(
        gist::models::tiny_convnet(8, 3),
        ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8)),
        "nearest",
        42,
        7,
        3,
        15,
        8,
        0.05,
        0.3,
    )
    .unwrap();
    let stochastic = train(
        gist::models::tiny_convnet(8, 3),
        ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8).with_stochastic_rounding(13)),
        "stochastic",
        42,
        7,
        3,
        15,
        8,
        0.05,
        0.3,
    )
    .unwrap();
    assert!(stochastic.final_accuracy() > 0.8, "{:.2}", stochastic.final_accuracy());
    // Different rounding decisions -> different loss trajectories.
    let same =
        nearest.epochs.iter().zip(&stochastic.epochs).all(|(a, b)| a.mean_loss == b.mean_loss);
    assert!(!same, "stochastic rounding should perturb the trajectory");
}

#[test]
fn first_step_forward_loss_is_identical_under_dpr() {
    // DPR's defining property: the forward pass is untouched, so the very
    // first minibatch's loss matches FP32 exactly (weights identical, no
    // backward has run yet).
    for fmt in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
        let g = gist::models::small_vgg(4, 3);
        let mut base = Executor::new(g.clone(), ExecMode::Baseline, 5).unwrap();
        let mut dpr = Executor::new(g, ExecMode::Gist(GistConfig::lossy(fmt)), 5).unwrap();
        let mut ds = SyntheticImages::new(3, 16, 0.4, 1);
        let (x, y) = ds.minibatch(4);
        let (lb, _) = base.forward_backward(&x, &y).unwrap();
        let (ld, _) = dpr.forward_backward(&x, &y).unwrap();
        assert_eq!(lb.loss, ld.loss, "{}", fmt.label());
    }
}

#[test]
fn executor_handles_inception_style_concat() {
    // Concat + parallel branches through the full fwd/bwd path.
    use gist::graph::Graph;
    use gist::tensor::ops::conv::ConvParams;
    use gist::tensor::Shape;
    let mut g = Graph::new("mini-inception");
    let x = g.input(Shape::nchw(2, 3, 8, 8));
    let b1c = g.conv(x, 4, ConvParams::new(1, 1, 0), true, "b1");
    let b1 = g.relu(b1c, "b1_relu");
    let b2c = g.conv(x, 4, ConvParams::new(3, 1, 1), true, "b2");
    let b2 = g.relu(b2c, "b2_relu");
    let cat = g.concat(&[b1, b2], "cat");
    let fc = g.linear(cat, 3, true, "fc");
    g.softmax_loss(fc, "loss");

    let mut exec = Executor::new(g, ExecMode::Gist(GistConfig::lossless()), 3).unwrap();
    let x = gist::tensor::init::uniform(Shape::nchw(2, 3, 8, 8), -1.0, 1.0, 8);
    let s = exec.step(&x, &[0, 2], 0.05).unwrap();
    assert!(s.loss.is_finite());
}

/// Adversarial floating-point values for the encoding round-trip tests:
/// NaN, both infinities, both zeros, subnormals at both ends of the
/// denormal range, and extreme normals.
fn adversarial_values() -> Vec<f32> {
    vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,        // smallest positive normal
        f32::MIN_POSITIVE / 2.0,  // subnormal
        -f32::MIN_POSITIVE / 2.0, // negative subnormal
        1e-45,                    // smallest positive subnormal
        f32::MAX,
        f32::MIN,
        -1.5,
        2.75,
    ]
}

#[test]
fn adversarial_ssdc_roundtrip_is_bitwise_for_nonzeros() {
    use gist::encodings::csr::SsdcConfig;
    use gist::encodings::CsrMatrix;
    for narrow in [true, false] {
        let values = adversarial_values();
        let csr = CsrMatrix::encode(&values, SsdcConfig { narrow, value_format: None });
        let decoded = csr.decode();
        assert_eq!(decoded.len(), values.len());
        for (i, (&orig, &dec)) in values.iter().zip(&decoded).enumerate() {
            if orig == 0.0 {
                // Both zeros are "zero" to CSR; decode restores +0.0. The
                // sign of zero is the one thing SSDC does not preserve,
                // and nothing downstream distinguishes it.
                assert_eq!(dec.to_bits(), 0.0f32.to_bits(), "slot {i}");
            } else {
                // NaN and everything else must survive bit-for-bit, so
                // compare representations rather than values.
                assert_eq!(dec.to_bits(), orig.to_bits(), "slot {i}: {orig} vs {dec}");
            }
        }
    }
}

#[test]
fn adversarial_binarize_mask_matches_fp32_relu_backward() {
    use gist::encodings::BitMask;
    let y = adversarial_values();
    let dy: Vec<f32> = (0..y.len()).map(|i| i as f32 - 4.0).collect();
    let mask = BitMask::encode(&y);
    for (i, &v) in y.iter().enumerate() {
        // `v > 0.0` is false for NaN, -inf, both zeros and negatives —
        // exactly the FP32 ReLU-backward predicate.
        assert_eq!(mask.get(i), v > 0.0, "slot {i}: {v}");
    }
    let mut from_mask = vec![f32::NAN; y.len()];
    mask.relu_backward_into(&dy, &mut from_mask).unwrap();
    let reference: Vec<f32> =
        y.iter().zip(&dy).map(|(&yv, &dv)| if yv > 0.0 { dv } else { 0.0 }).collect();
    assert_eq!(from_mask, reference);
}

#[test]
fn adversarial_dpr_quantization_semantics() {
    // DPR's documented non-finite handling: NaN flushes to zero,
    // infinities clamp to the largest finite value, subnormals (of the
    // *target* format, which includes every f32 subnormal) flush to zero,
    // and quantization stays idempotent on every adversarial input.
    for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
        assert_eq!(f.quantize(f32::NAN).to_bits(), 0, "{}: NaN", f.label());
        assert_eq!(f.quantize(f32::INFINITY), f.max_value(), "{}", f.label());
        assert_eq!(f.quantize(f32::NEG_INFINITY), -f.max_value(), "{}", f.label());
        assert_eq!(f.quantize(f32::MIN_POSITIVE / 2.0), 0.0, "{}", f.label());
        assert_eq!(f.quantize(1e-45), 0.0, "{}", f.label());
        assert_eq!(f.quantize(-0.0).to_bits(), 0, "{}: -0.0 flushes to +0.0", f.label());
        for v in adversarial_values() {
            let q = f.quantize(v);
            assert!(q.is_finite(), "{}: {v} -> {q}", f.label());
            assert_eq!(f.quantize(q).to_bits(), q.to_bits(), "{}: idempotence at {v}", f.label());
        }
        // The buffer path must agree with the scalar path on all of them.
        use gist::encodings::dpr::DprBuffer;
        let values = adversarial_values();
        let buf = DprBuffer::encode(f, &values);
        let expected: Vec<f32> = values.iter().map(|&v| f.quantize(v)).collect();
        let decoded = buf.decode();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&decoded), bits(&expected), "{}", f.label());
    }
}

#[test]
fn adversarial_all_zero_and_fully_dense_tensors() {
    use gist::encodings::csr::SsdcConfig;
    use gist::encodings::{BitMask, CsrMatrix};
    // All-zero (maximum sparsity): empty CSR, empty mask semantics.
    let zeros = vec![0.0f32; 4096];
    let csr = CsrMatrix::encode(&zeros, SsdcConfig::default());
    assert_eq!(csr.nnz(), 0);
    assert_eq!(csr.decode(), zeros);
    let mask = BitMask::encode(&zeros);
    assert!((0..zeros.len()).all(|i| !mask.get(i)));
    // Fully dense (zero sparsity): CSR must still round-trip exactly even
    // though it compresses nothing.
    let dense: Vec<f32> = (0..4096).map(|i| (i + 1) as f32 * 0.5).collect();
    let csr = CsrMatrix::encode(&dense, SsdcConfig::default());
    assert_eq!(csr.nnz(), dense.len());
    assert_eq!(csr.decode(), dense);
}

#[test]
fn zero_input_edge_case() {
    // An all-zero minibatch: ReLU outputs all zero, SSDC encodes an empty
    // CSR, Binarize an all-zero mask; nothing should panic or NaN.
    let g = gist::models::small_vgg(2, 3);
    let mut exec = Executor::new(g, ExecMode::Gist(GistConfig::lossless()), 3).unwrap();
    let x = Tensor::zeros(gist::tensor::Shape::nchw(2, 1, 16, 16));
    let s = exec.step(&x, &[0, 1], 0.05).unwrap();
    assert!(s.loss.is_finite());
    assert!(s.relu_sparsity.iter().all(|(_, sp)| *sp >= 0.99 || *sp >= 0.0));
}
