//! Paired scalar-vs-vector microbenchmarks for every kernel that dispatches
//! through `gist-simd` — the before/after evidence for the SIMD rewiring.
//!
//! Each group runs the *same* workload once per available `GIST_SIMD` level
//! (forced via `gist_simd::with_level`, so one process covers the whole
//! ladder); the `scalar_*` entries are the exact pre-SIMD code path and the
//! `sse2_*`/`avx2_*`/`avx512_*` entries are the vector kernels that
//! replaced it (the `avx512_*` codec rows run the AVX2 codec bodies). The
//! equivalence suite (`tests/simd_equivalence.rs`) proves all entries in a
//! group compute bit-identical results, so any median gap is pure kernel
//! speed. The `simd` meta column records the *ambient* level the process
//! would use by default (0 = scalar, 1 = SSE2, 2 = AVX2, 3 = AVX-512).
//!
//! Run with `cargo run --release -p gist-bench --bin bench_simd_kernels`;
//! medians land in `results/bench_simd_{matmul,codecs}.json`, each
//! recording the pool size it ran on in its `threads` meta. The `relu` group
//! (`results/bench_relu.json`) is the odd one out: ReLU forward is safe
//! auto-vectorised Rust with no level dispatch, so it compares the two
//! forward forms a step runs — the baseline's `forward_into` and every Gist
//! arm's `forward_inplace` — on sign-mixed and all-positive maps.

use gist_encodings::csr::SsdcConfig;
use gist_encodings::dpr::DprBuffer;
use gist_encodings::{BitMask, CsrMatrix, DprFormat};
use gist_simd::{available_levels, matmul_a_bt_into, matmul_at_b_into, matmul_into, with_level};
use gist_tensor::ops::relu;
use gist_tensor::{Shape, Tensor};
use gist_testkit::BenchGroup;
use std::hint::black_box;

/// Deterministic pseudo-random f32s (no rand dependency): a splitmix-style
/// walk mapped into [-1, 1).
fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        })
        .collect()
}

fn bench_matmul() {
    let mut g = BenchGroup::new("simd_matmul");
    g.meta("threads", gist_par::current_threads() as u64);
    g.meta("simd", gist_simd::level() as u64);
    // One representative GEMM per kernel: the shapes a small_vgg linear /
    // im2col-lowered conv actually produces.
    let (m, k, n) = (64, 256, 256);
    g.throughput_bytes(((m * k + k * n + m * n) * 4) as u64); // operand + result bytes
    let a = filled(m * k, 1);
    let b = filled(k * n, 2);
    let at = filled(k * m, 3);
    let bt = filled(n * k, 4);
    let mut c = vec![0.0f32; m * n];
    for lvl in available_levels() {
        with_level(lvl, || {
            g.bench(&format!("{lvl}_matmul_{m}x{k}x{n}"), || {
                matmul_into(black_box(&a), black_box(&b), m, k, n, black_box(&mut c))
            });
            g.bench(&format!("{lvl}_at_b_{m}x{k}x{n}"), || {
                matmul_at_b_into(black_box(&at), black_box(&b), m, k, n, black_box(&mut c))
            });
            g.bench(&format!("{lvl}_a_bt_{m}x{k}x{n}"), || {
                matmul_a_bt_into(black_box(&a), black_box(&bt), m, k, n, black_box(&mut c))
            });
        });
    }
    g.finish();
}

fn bench_codecs() {
    let mut g = BenchGroup::new("simd_codecs");
    g.meta("threads", gist_par::current_threads() as u64);
    g.meta("simd", gist_simd::level() as u64);
    const N: usize = 1 << 20; // 1M elements = 4 MB FP32, same as bench_encodings
    g.throughput_bytes((N * 4) as u64);
    // ~67% zeros: a realistic post-ReLU activation profile for SSDC.
    let y: Vec<f32> = filled(N, 8).iter().map(|&v| if v > -0.33 { 0.0 } else { v }).collect();
    let dy = filled(N, 9);
    for lvl in available_levels() {
        with_level(lvl, || {
            g.bench(&format!("{lvl}_binarize_encode"), || BitMask::encode(black_box(&y)));
            let mask = BitMask::encode(&y);
            let mut dx = vec![0.0f32; N];
            g.bench(&format!("{lvl}_binarize_select"), || {
                mask.relu_backward_into(black_box(&dy), black_box(&mut dx)).unwrap()
            });
            g.bench(&format!("{lvl}_csr_encode"), || {
                CsrMatrix::encode(black_box(&y), SsdcConfig::default())
            });
            let csr = CsrMatrix::encode(&y, SsdcConfig::default());
            g.bench(&format!("{lvl}_csr_decode"), || csr.decode());
            g.bench(&format!("{lvl}_csr_relu_backward"), || {
                csr.relu_backward_into(black_box(&dy), black_box(&mut dx))
            });
            g.bench(&format!("{lvl}_dpr_encode_fp8"), || {
                DprBuffer::encode(DprFormat::Fp8, black_box(&dy))
            });
            let buf = DprBuffer::encode(DprFormat::Fp8, &dy);
            g.bench(&format!("{lvl}_dpr_decode_fp8"), || buf.decode());
        });
    }
    g.finish();
}

fn bench_relu() {
    let mut g = BenchGroup::new("relu");
    g.meta("threads", gist_par::current_threads() as u64);
    const N: usize = 1 << 18; // 1 MB FP32: one `train_stash` feature map
    g.throughput_bytes((N * 4) as u64);
    let shape = Shape::vector(N);
    // A conv output before ReLU (~50% negative, signs uncorrelated) and an
    // all-positive control on which a data-dependent store never fires.
    for (label, data) in [
        ("sparse50", filled(N, 10)),
        ("positive", filled(N, 10).iter().map(|v| v.abs() + 0.5).collect()),
    ] {
        let x = Tensor::from_vec(shape, data).expect("N elements");
        let mut y = Tensor::zeros(shape);
        g.bench(&format!("forward_into_{label}"), || {
            relu::forward_into(black_box(&x), black_box(&mut y))
        });
        // In-place ReLU consumes its input's signs, so each sample first
        // restores them; `restore_` alone is the cost to subtract.
        g.bench(&format!("restore_{label}"), || y.copy_from(black_box(&x)));
        g.bench(&format!("restore_then_inplace_{label}"), || {
            y.copy_from(black_box(&x));
            relu::forward_inplace(black_box(&mut y))
        });
    }
    g.finish();
}

fn main() {
    bench_matmul();
    bench_codecs();
    bench_relu();
}
