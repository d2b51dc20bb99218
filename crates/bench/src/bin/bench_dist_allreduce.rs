//! Benchmark for the distributed fixed-tree all-reduce: bytes on the wire
//! raw vs SSDC vs DPR, and the virtual-clock stall each strategy pays on
//! the serial link — the gradient-traffic counterpart of the paper's
//! Section VI PCIe-contention argument. Gradients are dense, so SSDC's
//! honest accounting (values + column indices) *costs* wire bytes while
//! DPR's narrower formats save them; the JSON records both so the
//! trade-off is a committed artifact.
//!
//! Two paired groups land under `results/`: `dist_allreduce` (the
//! in-process trainer, `transport` meta = 0) and `dist_allreduce_tcp`
//! (a real 2-rank loopback-TCP world, `transport` meta = 1), the latter
//! recording rank 0's **observed** socket bytes next to its **priced**
//! edge bytes per codec so the trace-level observed-vs-priced pairing has
//! a committed artifact too.
//!
//! Run with `cargo run --release -p gist-bench --bin bench_dist_allreduce`.

use gist_dist::{
    DistTrainer, GradCodec, GradCodecPolicy, NetConfig, NetTrainer, Tcp, DEFAULT_SHARDS,
};
use gist_encodings::DprFormat;
use gist_perf::GpuModel;
use gist_runtime::{ExecMode, Executor, SyntheticImages};
use gist_tensor::Tensor;
use gist_testkit::BenchGroup;

fn shard_tables(batch: usize) -> (Vec<Tensor>, Vec<Vec<usize>>) {
    let mut ds = SyntheticImages::new(4, 16, 0.3, 42);
    let mut images = Vec::with_capacity(DEFAULT_SHARDS);
    let mut labels = Vec::with_capacity(DEFAULT_SHARDS);
    for _ in 0..DEFAULT_SHARDS {
        let (x, y) = ds.minibatch(batch);
        images.push(x);
        labels.push(y);
    }
    (images, labels)
}

fn codecs() -> Vec<(&'static str, GradCodec)> {
    vec![
        ("raw", GradCodec::None),
        ("ssdc", GradCodec::Ssdc),
        ("dpr_fp16", GradCodec::Dpr(DprFormat::Fp16)),
        ("dpr_fp8", GradCodec::Dpr(DprFormat::Fp8)),
    ]
}

fn bench_inprocess(replicas: usize, batch: usize) {
    let mut g = BenchGroup::new("dist_allreduce").samples(10);
    g.meta("threads", gist_par::current_threads() as u64);
    g.meta("simd", gist_simd::level() as u64);
    g.meta("transport", 0);
    g.meta("replicas", replicas as u64);
    g.meta("shards", DEFAULT_SHARDS as u64);
    g.meta("shard_batch", batch as u64);

    let gpu = GpuModel::titan_x();
    for (label, codec) in codecs() {
        let (images, labels) = shard_tables(batch);
        let mut trainer = DistTrainer::new(replicas, DEFAULT_SHARDS, codec, || {
            Executor::new(gist_models::tiny_convnet(batch, 4), ExecMode::Baseline, 7)
        })
        .expect("trainer");
        let rep = trainer.step(&images, &labels, 0.01).expect("step");
        let priced = trainer.price(&rep, &gpu);
        g.meta(&format!("{label}_grad_codec"), codec.meta_id());
        g.meta(&format!("{label}_wire_bytes"), priced.bytes_on_wire);
        g.meta(&format!("{label}_reduce_bytes"), rep.reduce_bytes);
        g.meta(&format!("{label}_broadcast_bytes"), rep.broadcast_bytes);
        g.meta(&format!("{label}_dense_grad_bytes"), rep.dense_grad_bytes);
        g.meta(&format!("{label}_stall_ns"), (priced.total_s * 1e9) as u64);
        g.bench(label, || {
            trainer.step(&images, &labels, 0.01).expect("step");
        });
    }
    g.finish();
}

/// One paired step over a real 2-rank loopback-TCP world per codec:
/// rank 1 runs on a helper thread, rank 0 is timed on the bench thread.
fn bench_tcp(batch: usize) {
    let world = 2;
    let mut g = BenchGroup::new("dist_allreduce_tcp").samples(5);
    g.meta("threads", gist_par::current_threads() as u64);
    g.meta("simd", gist_simd::level() as u64);
    g.meta("transport", 1);
    g.meta("replicas", world as u64);
    g.meta("shards", DEFAULT_SHARDS as u64);
    g.meta("shard_batch", batch as u64);

    for (label, codec) in codecs() {
        let policy = GradCodecPolicy::Fixed(codec);
        let mut listeners: Vec<_> = (0..world)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0"))
            .collect();
        let peers: Vec<String> =
            listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
        let (l1, l0) = (listeners.pop().expect("rank 1"), listeners.pop().expect("rank 0"));
        // Rank 1 mirrors every step rank 0 takes (the bench harness picks
        // the count during calibration, so rank 1 just follows until rank
        // 0 hangs up and its next exchange reports Disconnected).
        let helper = {
            let peers = peers.clone();
            std::thread::spawn(move || {
                let tcp = Tcp::rendezvous_on(
                    l1,
                    1,
                    &peers,
                    DEFAULT_SHARDS,
                    codec.meta_id() as u32,
                    &NetConfig::default(),
                )
                .expect("rank 1 rendezvous");
                let mut t = NetTrainer::new(tcp, DEFAULT_SHARDS, policy, || {
                    Executor::new(gist_models::tiny_convnet(batch, 4), ExecMode::Baseline, 7)
                })
                .expect("rank 1 trainer");
                let (images, labels) = shard_tables(batch);
                while t.step(&images, &labels, 0.01).is_ok() {}
            })
        };
        let tcp = Tcp::rendezvous_on(
            l0,
            0,
            &peers,
            DEFAULT_SHARDS,
            codec.meta_id() as u32,
            &NetConfig::default(),
        )
        .expect("rank 0 rendezvous");
        let mut trainer = NetTrainer::new(tcp, DEFAULT_SHARDS, policy, || {
            Executor::new(gist_models::tiny_convnet(batch, 4), ExecMode::Baseline, 7)
        })
        .expect("rank 0 trainer");
        let (images, labels) = shard_tables(batch);
        let rep = trainer.step(&images, &labels, 0.01).expect("step");
        g.meta(&format!("{label}_grad_codec"), codec.meta_id());
        g.meta(&format!("{label}_priced_bytes"), rep.reduce_bytes + rep.broadcast_bytes);
        g.meta(&format!("{label}_observed_wire_bytes"), rep.observed_wire_bytes);
        g.meta(&format!("{label}_dense_grad_bytes"), rep.dense_grad_bytes);
        g.bench(label, || {
            trainer.step(&images, &labels, 0.01).expect("step");
        });
        drop(trainer);
        helper.join().expect("rank 1 thread");
    }
    g.finish();
}

fn main() {
    let replicas = 4;
    let batch = 4;
    bench_inprocess(replicas, batch);
    bench_tcp(batch);
}
