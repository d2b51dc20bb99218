//! Microbenchmarks for the Gist encoding kernels (testkit harness).
//!
//! These are the measured counterpart to the analytic overhead model of
//! Figure 9/11: encode and decode are streaming passes, and the Binarize
//! ReLU backward touches ~3.7x fewer bytes than its FP32 counterpart.
//! Also includes the CSR-vs-bitmap ablation called out in DESIGN.md.
//!
//! Run with `cargo run --release -p gist-bench --bin bench_encodings`;
//! medians land in `results/bench_*.json`.

use gist_encodings::csr::SsdcConfig;
use gist_encodings::dpr::DprBuffer;
use gist_encodings::{BitMask, CsrMatrix, DprFormat};
use gist_testkit::BenchGroup;
use std::hint::black_box;

const N: usize = 1 << 20; // 1M elements = 4 MB FP32

fn relu_output(sparsity_mod: usize) -> Vec<f32> {
    (0..N).map(|i| if i % sparsity_mod == 0 { (i % 97) as f32 * 0.1 + 0.1 } else { 0.0 }).collect()
}

fn bench_binarize() {
    let mut g = BenchGroup::new("binarize");
    g.meta("threads", gist_par::current_threads() as u64);
    g.meta("simd", gist_simd::level() as u64);
    g.throughput_bytes((N * 4) as u64);
    let y = relu_output(3);
    let dy: Vec<f32> = (0..N).map(|i| i as f32 * 0.001).collect();
    g.bench("encode", || BitMask::encode(black_box(&y)));
    let mask = BitMask::encode(&y);
    let mut dx = vec![0.0f32; N];
    g.bench("relu_backward_mask", || {
        mask.relu_backward_into(black_box(&dy), black_box(&mut dx)).unwrap()
    });
    let shape = gist_tensor::Shape::vector(N);
    let yt = gist_tensor::Tensor::from_vec(shape, y.clone()).unwrap();
    let dyt = gist_tensor::Tensor::from_vec(shape, dy).unwrap();
    let mut dxt = gist_tensor::Tensor::zeros(shape);
    g.bench("relu_backward_fp32", || {
        gist_tensor::ops::relu::backward_into(black_box(&yt), black_box(&dyt), black_box(&mut dxt))
    });
    g.finish();
}

fn bench_ssdc() {
    let mut g = BenchGroup::new("ssdc");
    g.meta("threads", gist_par::current_threads() as u64);
    g.meta("simd", gist_simd::level() as u64);
    g.throughput_bytes((N * 4) as u64);
    for (label, m) in [("sparsity50", 2usize), ("sparsity80", 5), ("sparsity95", 20)] {
        let y = relu_output(m);
        g.bench(&format!("encode_narrow_{label}"), || {
            CsrMatrix::encode(black_box(&y), SsdcConfig::default())
        });
        let csr = CsrMatrix::encode(&y, SsdcConfig::default());
        g.bench(&format!("decode_narrow_{label}"), || csr.decode());
    }
    // Ablation: narrow (1-byte) vs wide (4-byte cuSPARSE-style) indices.
    let y = relu_output(5);
    g.bench("encode_wide_sparsity80", || {
        CsrMatrix::encode(black_box(&y), SsdcConfig { narrow: false, value_format: None })
    });
    g.finish();
}

fn bench_dpr() {
    let mut g = BenchGroup::new("dpr");
    g.meta("threads", gist_par::current_threads() as u64);
    g.meta("simd", gist_simd::level() as u64);
    g.throughput_bytes((N * 4) as u64);
    let y: Vec<f32> = (0..N).map(|i| (i as f32 - N as f32 / 2.0) * 1e-3).collect();
    for f in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
        g.bench(&format!("encode_{}", f.label()), || DprBuffer::encode(f, black_box(&y)));
        let buf = DprBuffer::encode(f, &y);
        g.bench(&format!("decode_{}", f.label()), || buf.decode());
    }
    g.finish();
}

fn bench_maxpool_map() {
    let mut g = BenchGroup::new("poolmap");
    let argmax: Vec<u8> = (0..N / 4).map(|i| (i % 9) as u8).collect();
    g.bench("encode_4bit", || gist_encodings::PoolIndexMap::encode(black_box(&argmax), 3).unwrap());
    g.finish();
}

fn main() {
    bench_binarize();
    bench_ssdc();
    bench_dpr();
    bench_maxpool_map();
}
