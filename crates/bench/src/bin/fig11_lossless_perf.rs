//! Figure 11: performance effect of the lossless encodings in isolation,
//! including Binarize's small *speedup* of the memory-bandwidth-bound ReLU
//! backward pass.
//!
//! The modelled numbers here are complemented by real measured CPU kernel
//! timings in `cargo bench -p gist-bench` (bench target `encodings`), which
//! show the same effect: ReLU backward from a 1-bit mask touches ~33% less
//! memory than from the FP32 stash.

use gist_bench::banner;
use gist_core::GistConfig;
use gist_perf::{gist_overhead, GpuModel};
use std::time::Instant;

fn measured_relu_backward_ratio() -> f64 {
    // A quick real measurement on this host: FP32 relu backward vs
    // mask-based backward over the same data.
    let n = 1 << 24; // 64 MB per array: larger than LLC, bandwidth-bound
    let y: Vec<f32> = (0..n).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
    let dy: Vec<f32> = (0..n).map(|i| i as f32 * 0.001).collect();
    let yt = gist_tensor::Tensor::from_vec(gist_tensor::Shape::vector(n), y.clone()).unwrap();
    let dyt = gist_tensor::Tensor::from_vec(gist_tensor::Shape::vector(n), dy.clone()).unwrap();
    let mask = gist_encodings::BitMask::encode(&y);
    // Outputs allocated (and first touched) outside both timed loops.
    let mut dxt = gist_tensor::Tensor::full(yt.shape(), 1.0);
    let mut dx = vec![1.0f32; n];

    let t0 = Instant::now();
    let mut sink = 0.0f32;
    for _ in 0..8 {
        gist_tensor::ops::relu::backward_into(&yt, &dyt, &mut dxt);
        sink += dxt.data()[0];
    }
    let fp32_time = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    for _ in 0..8 {
        mask.relu_backward_into(&dy, &mut dx).unwrap();
        sink += dx[0];
    }
    let mask_time = t1.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    mask_time / fp32_time
}

fn main() {
    banner("Figure 11", "lossless encoding performance detail");
    let gpu = GpuModel::titan_x();
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>10}",
        "model", "encode(ms)", "decode(ms)", "binsave(ms)", "net ovh%"
    );
    for graph in gist_models::paper_suite(64) {
        let r = gist_overhead(&graph, &GistConfig::lossless(), &gpu).expect("model");
        println!(
            "{:<10} {:>11.2} {:>11.2} {:>13.2} {:>9.1}%",
            graph.name(),
            r.encode_s * 1e3,
            r.decode_s * 1e3,
            r.binarize_saving_s * 1e3,
            r.overhead_pct()
        );
    }
    println!();
    let ratio = measured_relu_backward_ratio();
    println!("measured on this host: mask-based ReLU backward takes {ratio:.2}x the time of");
    println!("the FP32-stash version (paper observes a small improvement from Binarize).");
}
