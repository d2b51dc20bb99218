//! The paper's sparse-format bake-off (Section IV-A): CSR vs ELL vs Hybrid
//! (plus a bitmap format as an extra ablation point). The paper picked CSR
//! for "lowest format-conversion latency"; this bench measures exactly
//! that — encode and decode latency per format at ReLU-typical sparsity —
//! and prints the encoded sizes alongside.
//!
//! Run with `cargo run --release -p gist-bench --bin bench_sparse_formats`.

use gist_bench::altfmt::{BitmapMatrix, EllMatrix, HybMatrix};
use gist_encodings::csr::SsdcConfig;
use gist_encodings::CsrMatrix;
use gist_testkit::BenchGroup;
use std::hint::black_box;

const N: usize = 1 << 20;

fn relu_like(sparsity_mod: usize) -> Vec<f32> {
    // Mildly irregular row densities, like real ReLU outputs.
    (0..N)
        .map(|i| {
            let burst = (i / 256) % 7 == 0;
            if i % sparsity_mod == 0 || (burst && i % 3 == 0) {
                (i % 89) as f32 * 0.1 + 0.1
            } else {
                0.0
            }
        })
        .collect()
}

fn main() {
    let mut g = BenchGroup::new("sparse_format_conversion");
    g.throughput_bytes((N * 4) as u64);
    let data = relu_like(5);

    // Print the size comparison once, outside the timing loops.
    let csr = CsrMatrix::encode(&data, SsdcConfig::default());
    let ell = EllMatrix::encode(&data);
    let hyb = HybMatrix::encode(&data);
    let bmp = BitmapMatrix::encode(&data);
    eprintln!(
        "encoded sizes @ {:.1}% sparsity: dense {} | csr {} | ell {} | hyb {} | bitmap {}",
        100.0 * data.iter().filter(|&&v| v == 0.0).count() as f64 / N as f64,
        N * 4,
        csr.encoded_bytes(),
        ell.encoded_bytes(),
        hyb.encoded_bytes(),
        bmp.encoded_bytes()
    );

    g.bench("csr_encode", || CsrMatrix::encode(black_box(&data), SsdcConfig::default()));
    g.bench("ell_encode", || EllMatrix::encode(black_box(&data)));
    g.bench("hyb_encode", || HybMatrix::encode(black_box(&data)));
    g.bench("bitmap_encode", || BitmapMatrix::encode(black_box(&data)));

    g.bench("csr_decode", || csr.decode());
    g.bench("ell_decode", || ell.decode());
    g.bench("hyb_decode", || hyb.decode());
    g.bench("bitmap_decode", || bmp.decode());
    g.finish();
}
