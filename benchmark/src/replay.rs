//! Per-layer attribution from outside: each layer of the stack is driven
//! on its own through its public functions, at the shapes of the
//! workload's own network (the *subject*), and timed here.
//!
//! The program cannot yet say how long a step spends in its codecs, its
//! allocator or its planner — `step_traced` reports kernel spans only. So
//! the benchmark replays: every distinct layer shape through
//! `gist_tensor::ops`, every stash through the codec the policy assigns
//! it, the planners on the subject graph, and the wire/transport path on a
//! buffer the size of the subject's gradient. Replayed times are set
//! against the step wall so the part no replay explains is visible.

use crate::alloc::alloc_calls;
use crate::exchange;
use crate::metrics::Report;
use crate::nets::{self, Batch, SplitMix, PARAM_SEED};
use crate::span::{union_ns, Tracer};
use crate::stats::{median, undisturbed};
use crate::train::{self, modes, new_executor, LR};
use crate::workload::ARMS;
use gist::core::{Encoding, Gist, GistConfig, ScheduleBuilder};
use gist::dist::combine_into;
use gist::encodings::csr::SsdcConfig;
use gist::encodings::dpr::DprBuffer;
use gist::encodings::{BitMask, CsrMatrix, DprFormat, TransferCodec, Wire};
use gist::graph::{Graph, OpKind, Schedule};
use gist::memory::{plan_static, Arena, SharingPolicy};
use gist::net::{InProcess, Msg, NetConfig, Tcp, Transport};
use gist::obs::{Event, NullRecorder, Phase, TraceSink};
use gist::par::ThreadPool;
use gist::runtime::{
    param_tensor_numels, predict_step_events_granular, AllocPolicy, ExecMode, PlanGranularity,
    SyntheticImages,
};
use gist::serve::ParkedParams;
use gist::simd::Level;
use gist::tensor::ops::{conv, linear, pool, relu};
use gist::tensor::{init, ScratchPool, Shape, Tensor};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const GIB: f64 = (1u64 << 30) as f64;
/// Op kinds the step's kernel time is split into.
const KINDS: [&str; 5] = ["conv", "relu", "pool", "linear", "loss"];
/// Timed step pairs (one untraced, one traced) per arm of the profile.
const PROFILE_STEPS: usize = 10;

/// The network a workload's executors run, with the thread count and
/// allocation policy the workload runs it under.
pub struct Subject {
    pub graph: Graph,
    pub batches: Vec<Batch>,
    pub threads: usize,
    pub policy: AllocPolicy,
}

fn subject(workload: &str, seed: u64) -> Subject {
    let of_train = |cfg: train::TrainCfg| Subject {
        graph: (cfg.net)(cfg.batch),
        batches: nets::minibatches(seed, cfg.image, cfg.batch, 4),
        threads: cfg.threads,
        policy: cfg.policy,
    };
    match workload {
        "train_conv" => of_train(train::CONV),
        "train_stash" => of_train(train::STASH),
        // One rank's shard graph.
        "exchange_mlp" => Subject {
            graph: nets::wide_mlp(exchange::SHARD_BATCH),
            batches: nets::minibatches(seed, exchange::IMAGE, exchange::SHARD_BATCH, 4),
            threads: 1,
            policy: AllocPolicy::Heap,
        },
        // The largest job of the mix.
        "serve_churn" => {
            let mut ds = SyntheticImages::new(3, 16, 0.3, seed);
            Subject {
                graph: gist::models::small_vgg(8, 3),
                batches: (0..4).map(|_| ds.minibatch(8)).collect(),
                threads: 1,
                policy: AllocPolicy::Arena,
            }
        }
        other => unreachable!("workload {other} passed validation"),
    }
}

/// Calls `f` for about `budget` (at least three times) and returns the
/// undisturbed wall time of one call (see [`undisturbed`]), in seconds.
fn time_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    undisturbed(&samples)
}

/// `numel` values of which a `sparsity` share is zero and the rest
/// positive — what a ReLU output of that sparsity looks like to a codec.
fn sparse_values(numel: usize, sparsity: f64, rng: &mut SplitMix) -> Vec<f32> {
    (0..numel)
        .map(|_| {
            let r = rng.next_u64();
            let u = (r >> 11) as f64 / (1u64 << 53) as f64;
            if u < sparsity {
                0.0
            } else {
                0.05 + (r & 0xffff) as f32 / 65536.0
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// gist-runtime: the subject executor, one arm at a time
// ---------------------------------------------------------------------------

/// What the program's own span events say about one traced step.
#[derive(Debug, Default, Clone)]
struct StepFold {
    fwd_ns: u64,
    bwd_ns: u64,
    kind_ns: [u64; 5],
    /// Union of all span intervals.
    cover_ns: u64,
    events: usize,
}

fn kind_of(op: &OpKind) -> Option<usize> {
    match op {
        OpKind::Conv { .. } => Some(0),
        OpKind::Relu => Some(1),
        OpKind::MaxPool(_) | OpKind::AvgPool(_) => Some(2),
        OpKind::Linear { .. } => Some(3),
        OpKind::SoftmaxLoss => Some(4),
        _ => None,
    }
}

fn fold_step(events: &[Event], kinds: &HashMap<String, usize>) -> StepFold {
    let mut f = StepFold { events: events.len(), ..StepFold::default() };
    let mut intervals = Vec::new();
    for ev in events {
        if let Event::Span { name, phase, ts_ns, dur_ns, .. } = ev {
            match phase {
                Phase::Forward => f.fwd_ns += dur_ns,
                Phase::Backward | Phase::Recompute => f.bwd_ns += dur_ns,
            }
            if let Some(&k) = kinds.get(name) {
                f.kind_ns[k] += dur_ns;
            }
            intervals.push((*ts_ns, ts_ns + dur_ns));
        }
    }
    f.cover_ns = union_ns(intervals, 0);
    f
}

/// The measured profile of the subject under one execution mode.
#[derive(Debug, Default, Clone)]
struct ArmProfile {
    step_ms: f64,
    fwd_ms: f64,
    bwd_ms: f64,
    span_cover: f64,
    kind_ms: [f64; 5],
    new_ms: f64,
    allocs_per_step: f64,
    pred_over_obs: f64,
    stash_bytes: f64,
    slab_bytes: f64,
    slab_over_peak: f64,
    events_per_step: f64,
    ssdc_ratio: f64,
    relu_sparsity: Vec<(String, f64)>,
}

fn profile_arm(s: &Subject, mode: &ExecMode) -> ArmProfile {
    let build = |policy| new_executor(s.graph.clone(), mode.clone(), PARAM_SEED, policy);
    let new_ms = 1e3 * time_call(Duration::ZERO, || drop(black_box(build(s.policy))));
    let kinds: HashMap<String, usize> = s
        .graph
        .nodes()
        .iter()
        .filter_map(|n| kind_of(&n.op).map(|k| (n.name.clone(), k)))
        .collect();

    let mut exec = build(s.policy);
    let batch = |i: usize| &s.batches[i % s.batches.len()];
    for i in 0..2 {
        exec.step(&batch(i).0, &batch(i).1, LR).expect("warm-up step");
    }
    let (mut step_ms, mut allocs, mut folds, mut walls) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for i in 0..PROFILE_STEPS {
        let (x, y) = batch(i);
        let t0 = Instant::now();
        allocs.push(alloc_calls(|| {
            exec.step(x, y, LR).expect("profile step");
        }) as f64);
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let sink = TraceSink::new();
        let t0 = Instant::now();
        let stats = exec.step_traced(x, y, LR, &sink).expect("traced profile step");
        walls.push(t0.elapsed().as_nanos() as f64);
        let events = sink.take();
        folds.push(fold_step(&events, &kinds));
        last = Some((stats, events));
    }
    let (stats, events) = last.expect("at least one profile step");
    let med = |f: &dyn Fn(&StepFold) -> f64| median(&folds.iter().map(f).collect::<Vec<_>>());
    let predicted = train::predicted_peak(s.policy, &s.graph, mode, &events);

    // The arena slab against the heap policy's observed peak: what the
    // worst-case SSDC reservation and alignment cost.
    let (slab, heap_peak) = match s.policy {
        AllocPolicy::Arena => {
            let mut heap = build(AllocPolicy::Heap);
            let peak = heap.step(&batch(0).0, &batch(0).1, LR).expect("heap step").peak_live_bytes;
            (exec.arena_capacity_bytes().expect("arena executor has a slab"), peak)
        }
        AllocPolicy::Heap => {
            let arena = build(AllocPolicy::Arena);
            (
                arena.arena_capacity_bytes().expect("arena executor has a slab"),
                stats.peak_live_bytes,
            )
        }
    };
    let covers: Vec<f64> = folds.iter().zip(&walls).map(|(f, w)| f.cover_ns as f64 / w).collect();
    let ssdc: Vec<f64> = stats.ssdc_compression.iter().map(|(_, r)| *r).collect();
    ArmProfile {
        step_ms: undisturbed(&step_ms),
        fwd_ms: med(&|f| f.fwd_ns as f64 / 1e6),
        bwd_ms: med(&|f| f.bwd_ns as f64 / 1e6),
        span_cover: median(&covers),
        kind_ms: [0, 1, 2, 3, 4].map(|k| med(&|f| f.kind_ns[k] as f64 / 1e6)),
        new_ms,
        allocs_per_step: median(&allocs),
        pred_over_obs: predicted as f64 / stats.peak_live_bytes as f64,
        stash_bytes: stats.stash_bytes as f64,
        slab_bytes: slab as f64,
        slab_over_peak: slab as f64 / heap_peak as f64,
        events_per_step: med(&|f| f.events as f64),
        ssdc_ratio: if ssdc.is_empty() {
            0.0
        } else {
            ssdc.iter().sum::<f64>() / ssdc.len() as f64
        },
        relu_sparsity: stats.relu_sparsity,
    }
}

/// A disabled recorder must not add heap allocations: one step through
/// `step`, one through `step_traced(&NullRecorder)`, on identically seeded
/// fresh executors. On one thread: with two, which worker leases which
/// scratch buffer moves the count by one from step to step.
fn null_recorder_extra_allocs(s: &Subject) -> f64 {
    let fresh = || new_executor(s.graph.clone(), ExecMode::Baseline, PARAM_SEED, s.policy);
    let (x, y) = &s.batches[0];
    gist::par::with_threads(1, || {
        let (mut plain, mut traced) = (fresh(), fresh());
        let a = alloc_calls(|| {
            plain.step(x, y, LR).expect("plain step");
        });
        let b = alloc_calls(|| {
            traced.step_traced(x, y, LR, &NullRecorder).expect("null-traced step");
        });
        a.abs_diff(b) as f64
    })
}

// ---------------------------------------------------------------------------
// gist-tensor: every layer shape of the subject through the kernels
// ---------------------------------------------------------------------------

/// Replayed forward+backward of every instance of one op kind: total time
/// per step and the FLOPs or bytes computed from the shapes.
#[derive(Debug, Default, Clone, Copy)]
struct KernelTotals {
    fwd_s: f64,
    bwd_s: f64,
    fwd_work: f64,
    bwd_work: f64,
}

#[derive(Default)]
struct TensorReplay {
    conv: KernelTotals,
    linear: KernelTotals,
    relu: KernelTotals,
    pool: KernelTotals,
    /// The conv and linear layers with the most FLOPs, for the SIMD pairs.
    biggest_conv: Option<(Shape, Shape, conv::ConvParams)>,
    biggest_linear: Option<(Shape, Shape)>,
}

impl KernelTotals {
    fn add(&mut self, (fwd_s, bwd_s): (f64, f64), fwd_work: f64, bwd_work: f64) {
        self.fwd_s += fwd_s;
        self.bwd_s += bwd_s;
        self.fwd_work += fwd_work;
        self.bwd_work += bwd_work;
    }

    fn rate(&self, unit: f64) -> f64 {
        rate(self.fwd_work + self.bwd_work, self.fwd_s + self.bwd_s, unit)
    }
}

/// Work per second in `unit`s; 0 when nothing of the kind was replayed.
fn rate(work: f64, seconds: f64, unit: f64) -> f64 {
    if seconds == 0.0 {
        0.0
    } else {
        work / seconds / unit
    }
}

/// Undisturbed forward and backward seconds of one layer, called through
/// `gist_tensor::ops` on random inputs of the layer's shapes; `None` for
/// op kinds the replay does not cover.
fn time_layer(
    s: &Subject,
    node: &gist::graph::Node,
    shapes: &[Shape],
    seed: u64,
    slice: Duration,
) -> Option<(f64, f64)> {
    let (xs, ys) = (shapes[node.inputs.first()?.index()], shapes[node.id.index()]);
    let x = init::uniform(xs, -1.0, 1.0, seed);
    let dy = init::uniform(ys, -1.0, 1.0, seed + 1);
    let (mut y, mut dx) = (Tensor::zeros(ys), Tensor::zeros(xs));
    let scratch = ScratchPool::new();
    let weights = || {
        let ws = s.graph.weight_shape(node.id, shapes).expect("layer has weights");
        (init::uniform(ws, -0.1, 0.1, seed + 2), Tensor::zeros(Shape::vector(ws.n())))
    };
    Some(match &node.op {
        OpKind::Conv { params, .. } => {
            let (w, b) = weights();
            (
                time_call(slice, || {
                    conv::forward_into(&x, &w, Some(&b), *params, &mut y).expect("conv")
                }),
                time_call(slice, || {
                    black_box(
                        conv::backward_with_into(&x, &w, &dy, *params, &scratch, &mut dx)
                            .expect("conv backward"),
                    );
                }),
            )
        }
        OpKind::Linear { .. } => {
            let (w, b) = weights();
            (
                time_call(slice, || {
                    linear::forward_into(&x, &w, Some(&b), &mut y).expect("linear")
                }),
                time_call(slice, || {
                    black_box(
                        linear::backward_with_into(&x, &w, &dy, &scratch, &mut dx)
                            .expect("linear backward"),
                    );
                }),
            )
        }
        OpKind::Relu => (
            time_call(slice, || relu::forward_into(&x, &mut y)),
            time_call(slice, || relu::backward_into(&x, &dy, &mut dx)),
        ),
        OpKind::MaxPool(p) => {
            let argmax = pool::maxpool_forward_into(&x, *p, &mut y).expect("maxpool");
            (
                time_call(slice, || {
                    black_box(pool::maxpool_forward_into(&x, *p, &mut y).expect("maxpool"));
                }),
                time_call(slice, || {
                    pool::maxpool_backward_into(xs, &argmax, &dy, *p, &mut dx)
                        .expect("maxpool backward")
                }),
            )
        }
        _ => return None,
    })
}

fn replay_tensor(s: &Subject, seed: u64, slice: Duration, tracer: &mut Tracer) -> TensorReplay {
    let shapes = s.graph.infer_shapes().expect("subject shapes");
    let mut out = TensorReplay::default();
    // Layers of equal op and input shape are replayed once and counted.
    let mut seen: HashMap<String, Option<(f64, f64)>> = HashMap::new();
    let (mut conv_flops, mut linear_flops) = (0.0, 0.0);
    for node in s.graph.nodes() {
        let Some(&input) = node.inputs.first() else { continue };
        let (xs, ys) = (shapes[input.index()], shapes[node.id.index()]);
        let timed = *seen.entry(format!("{:?} on {xs}", node.op)).or_insert_with(|| {
            let span = tracer.begin(format!("{} {xs}", node.op.tag()), "replay");
            let t = time_layer(s, node, &shapes, seed, slice);
            tracer.end(span);
            t
        });
        let Some(t) = timed else { continue };
        match &node.op {
            OpKind::Conv { params, .. } => {
                let flops = 2.0 * (ys.numel() * xs.c() * params.kernel * params.kernel) as f64;
                out.conv.add(t, flops, 2.0 * flops);
                if flops > conv_flops {
                    conv_flops = flops;
                    let ws = s.graph.weight_shape(node.id, &shapes).expect("conv weight");
                    out.biggest_conv = Some((xs, ws, *params));
                }
            }
            OpKind::Linear { out_features, .. } => {
                let (n, f_in) = xs.as_matrix();
                let flops = 2.0 * (n * f_in * out_features) as f64;
                out.linear.add(t, flops, 2.0 * flops);
                if flops > linear_flops {
                    linear_flops = flops;
                    let ws = s.graph.weight_shape(node.id, &shapes).expect("linear weight");
                    out.biggest_linear = Some((xs, ws));
                }
            }
            // Forward reads x and writes y; backward reads y and dy and
            // writes dx.
            OpKind::Relu => out.relu.add(t, 8.0 * xs.numel() as f64, 12.0 * xs.numel() as f64),
            // Forward reads x, writes y and one index byte per output;
            // backward reads dy and the indices and writes dx.
            OpKind::MaxPool(_) => {
                let bytes = (4 * xs.numel() + 5 * ys.numel()) as f64;
                out.pool.add(t, bytes, bytes);
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// gist-encodings: every stash through the codec the policy assigns it
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
struct CodecTotals {
    encode_s: f64,
    decode_s: f64,
    bytes: f64,
}

impl CodecTotals {
    fn rates(&self) -> (f64, f64) {
        (rate(self.bytes, self.encode_s, GIB), rate(self.bytes, self.decode_s, GIB))
    }
}

#[derive(Debug, Default)]
struct CodecReplay {
    binarize: CodecTotals,
    ssdc: CodecTotals,
    dpr: CodecTotals,
    /// Encode plus decode seconds per step, by arm (`ref` has no codec).
    per_step_s: [f64; 3],
    /// The largest SSDC stash (values) and the largest stash of any
    /// encoding, for the SIMD pairs.
    biggest_sparse: Vec<f32>,
}

/// Replays each stash of the Gist arms at its shape, with synthetic data of
/// the sparsity the profile observed at that ReLU (a pool output takes its
/// producer's sparsity to the fourth power: a 2x2 window is zero only when
/// all four inputs are).
fn replay_codecs(
    s: &Subject,
    profiles: &[ArmProfile; 3],
    slice: Duration,
    tracer: &mut Tracer,
) -> CodecReplay {
    let shapes = s.graph.infer_shapes().expect("subject shapes");
    let mut out = CodecReplay::default();
    let mut rng = SplitMix(17);
    for (arm, mode) in modes().iter().enumerate() {
        let ExecMode::Gist(cfg) = mode else { continue };
        let sparsity: HashMap<&str, f64> =
            profiles[arm].relu_sparsity.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        for a in gist::core::policy::assign(&s.graph, cfg) {
            let node = s.graph.node(a.node);
            let numel = shapes[a.node.index()].numel();
            let sp = match &node.op {
                OpKind::Relu => sparsity.get(node.name.as_str()).copied().unwrap_or(0.5),
                OpKind::MaxPool(_) => {
                    let producer = s.graph.node(node.inputs[0]);
                    sparsity.get(producer.name.as_str()).copied().unwrap_or(0.5).powi(4)
                }
                _ => 0.0,
            };
            let data = sparse_values(numel, sp, &mut rng);
            let dy = vec![1.0f32; numel];
            let mut dense = vec![0.0f32; numel];
            let span = tracer
                .begin(format!("{} {} {}", ARMS[arm], a.encoding.label(), node.name), "replay");
            let (totals, enc, dec) = match a.encoding {
                Encoding::Binarize => {
                    let mask = BitMask::encode(&data);
                    let e = time_call(slice, || drop(black_box(BitMask::encode(&data))));
                    let d = time_call(slice, || {
                        mask.relu_backward_into(&dy, &mut dense).expect("mask length")
                    });
                    (Some(&mut out.binarize), e, d)
                }
                Encoding::Ssdc { .. } => {
                    let config = SsdcConfig { narrow: true, value_format: cfg.dpr };
                    let csr = CsrMatrix::encode(&data, config);
                    let e = time_call(slice, || drop(black_box(CsrMatrix::encode(&data, config))));
                    let d = time_call(slice, || csr.decode_into(&mut dense));
                    if data.len() > out.biggest_sparse.len() {
                        out.biggest_sparse.clone_from(&data);
                    }
                    // Rates are reported for the lossless form only.
                    ((arm == 1).then_some(&mut out.ssdc), e, d)
                }
                Encoding::Dpr(f) => {
                    let buf = DprBuffer::encode_with(f, &data, cfg.rounding);
                    let e = time_call(slice, || {
                        drop(black_box(DprBuffer::encode_with(f, &data, cfg.rounding)))
                    });
                    let d = time_call(slice, || buf.decode_into(&mut dense));
                    (Some(&mut out.dpr), e, d)
                }
                Encoding::None => (None, 0.0, 0.0),
            };
            tracer.end(span);
            out.per_step_s[arm] += enc + dec;
            if let Some(t) = totals {
                t.encode_s += enc;
                t.decode_s += dec;
                t.bytes += 4.0 * numel as f64;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// gist-simd: forced scalar against the dispatched level
// ---------------------------------------------------------------------------

/// Scalar time over dispatched time for `f`.
fn simd_speedup(slice: Duration, mut f: impl FnMut()) -> f64 {
    let scalar = gist::simd::with_level(Level::Scalar, || time_call(slice, &mut f));
    let dispatched = time_call(slice, &mut f);
    scalar / dispatched
}

fn replay_simd(
    tensor: &TensorReplay,
    codecs: &CodecReplay,
    seed: u64,
    slice: Duration,
    report: &mut Report,
) {
    report.set("simd.lanes", gist::simd::level().lanes() as f64);
    let conv = tensor.biggest_conv.map_or(0.0, |(xs, ws, p)| {
        let x = init::uniform(xs, -1.0, 1.0, seed);
        let w = init::uniform(ws, -0.1, 0.1, seed + 2);
        let mut y = Tensor::zeros(p.out_shape(xs, ws.n()));
        simd_speedup(slice, || conv::forward_into(&x, &w, None, p, &mut y).expect("conv"))
    });
    report.set("simd.conv_speedup", conv);
    let matmul = tensor.biggest_linear.map_or(0.0, |(xs, ws)| {
        let x = init::uniform(xs, -1.0, 1.0, seed);
        let w = init::uniform(ws, -0.1, 0.1, seed + 2);
        let mut y = Tensor::zeros(Shape::matrix(xs.as_matrix().0, ws.as_matrix().0));
        simd_speedup(slice, || linear::forward_into(&x, &w, None, &mut y).expect("linear"))
    });
    report.set("simd.matmul_speedup", matmul);
    // The codec pairs run on the largest SSDC stash of the subject, or on
    // a ReLU-like buffer of the largest feature map when it has none.
    let data = &codecs.biggest_sparse;
    let config = SsdcConfig::default();
    report.set(
        "simd.csr_encode_speedup",
        simd_speedup(slice, || drop(black_box(CsrMatrix::encode(data, config)))),
    );
    report.set(
        "simd.dpr8_encode_speedup",
        simd_speedup(slice, || drop(black_box(DprBuffer::encode(DprFormat::Fp8, data)))),
    );
}

// ---------------------------------------------------------------------------
// gist-graph, gist-core, gist-memory: the planners on the subject graph
// ---------------------------------------------------------------------------

fn replay_planners(s: &Subject, slice: Duration, report: &mut Report) {
    let us = |f: &mut dyn FnMut()| 1e6 * time_call(slice, f);
    report.set("graph.schedule_us", us(&mut || drop(black_box(Schedule::of(&s.graph)))));
    let lossless = GistConfig::lossless();
    report.set(
        "core.gist_plan_us",
        us(&mut || drop(black_box(Gist::new(lossless).plan(&s.graph).expect("plan")))),
    );
    let transformed = ScheduleBuilder::new(lossless).build(&s.graph).expect("schedule builder");
    report.set(
        "memory.plan_static_us",
        us(&mut || drop(black_box(plan_static(&transformed.inventory, SharingPolicy::Full)))),
    );
    let mode = ExecMode::Gist(lossless);
    report.set(
        "memory.arena_plan_us",
        us(&mut || {
            let (events, groups) = predict_step_events_granular(
                &s.graph,
                &mode,
                AllocPolicy::Arena,
                &HashMap::new(),
                None,
                PlanGranularity::Event,
            )
            .expect("arena event stream");
            black_box(
                Arena::from_events_granular(&events, PlanGranularity::Event, &groups)
                    .expect("arena plan"),
            );
        }),
    );
}

// ---------------------------------------------------------------------------
// gist-par
// ---------------------------------------------------------------------------

fn replay_par(s: &Subject, report: &mut Report) {
    let pool = ThreadPool::new(2);
    let dispatch = time_call(Duration::from_millis(20), || {
        pool.run(2, |i| {
            black_box(i);
        })
    });
    report.set("par.dispatch_us", dispatch * 1e6);
    let step_ms = |threads: usize| {
        gist::par::with_threads(threads, || {
            let mut exec = new_executor(s.graph.clone(), ExecMode::Baseline, PARAM_SEED, s.policy);
            let ms: Vec<f64> = (0..10)
                .map(|i| {
                    let (x, y) = &s.batches[i % s.batches.len()];
                    let t0 = Instant::now();
                    exec.step(x, y, LR).expect("step");
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            undisturbed(&ms[2..])
        })
    };
    let (t1, t2) = (step_ms(1), step_ms(2));
    report.set("par.speedup_t2", t1 / t2);
    report.note("par.speedup_t2", format!("baseline step {t1:.3} ms at 1 thread, {t2:.3} ms at 2"));
}

// ---------------------------------------------------------------------------
// gist-dist, gist-net, encodings::transfer: a gradient-sized buffer on the wire
// ---------------------------------------------------------------------------

/// Seconds to move one `Msg::Grad` from rank 0 to rank 1 and get a
/// one-word acknowledgement back, on any transport pair.
fn round_trip<T: Transport + Send + 'static>(
    mut a: T,
    mut b: T,
    msg: &Msg,
    slice: Duration,
) -> (f64, u64) {
    let echo = std::thread::spawn(move || {
        while b.recv(0).is_ok() {
            if b.send(0, &Msg::Stats { step: 0, words: vec![1] }).is_err() {
                break;
            }
        }
    });
    let mut sent = 0;
    let s = time_call(slice, || {
        sent = a.send(1, msg).expect("send gradient");
        a.recv(1).expect("acknowledgement");
    });
    drop(a);
    echo.join().expect("echo thread");
    (s, sent)
}

fn tcp_pair() -> (Tcp, Tcp, f64) {
    let peers: Vec<String> = (0..2)
        .map(|_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a free port");
            format!("127.0.0.1:{}", l.local_addr().expect("bound address").port())
        })
        .collect();
    let config = NetConfig { timeout: Duration::from_secs(120) };
    let t0 = Instant::now();
    let other = {
        let peers = peers.clone();
        std::thread::spawn(move || Tcp::rendezvous(1, &peers, 2, 0, &config).expect("rank 1"))
    };
    let a = Tcp::rendezvous(0, &peers, 2, 0, &config).expect("rank 0");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (a, other.join().expect("rank 1 thread"), ms)
}

fn replay_wire(s: &Subject, slice: Duration, tracer: &mut Tracer, report: &mut Report) {
    let scalars: usize = param_tensor_numels(&s.graph).expect("subject parameters").iter().sum();
    let grad = sparse_values(scalars, 0.0, &mut SplitMix(23));
    let bytes = 4.0 * scalars as f64;
    let span = tracer.begin(format!("wire {scalars} scalars"), "replay");

    let mut acc = vec![0.0f32; scalars];
    let combine = time_call(slice, || {
        combine_into(&mut acc, &grad, TransferCodec::None);
    });
    report.set("dist.combine_gibs", bytes / combine / GIB);

    let dpr8 = TransferCodec::Dpr(DprFormat::Fp8);
    for (name, codec) in [("raw", TransferCodec::None), ("dpr8", dpr8)] {
        let enc = time_call(slice, || drop(black_box(Wire::encode(codec, &grad).to_bytes())));
        report.set(&format!("encodings.wire_encode_gibs_{name}"), bytes / enc / GIB);
    }
    let wire_bytes = Wire::encode(dpr8, &grad).to_bytes();
    let dec = time_call(slice, || {
        drop(black_box(Wire::from_bytes(&wire_bytes).expect("own wire parses").decode()))
    });
    report.set("encodings.wire_decode_gibs_dpr8", bytes / dec / GIB);

    let payload = Wire::encode(TransferCodec::None, &grad).to_bytes();
    let payload_len = payload.len() as u64;
    let msg = Msg::Grad { epoch: 0, step: 0, tensor: 0, wire: payload };
    let mut mesh = InProcess::mesh(2);
    let (b, a) = (mesh.pop().expect("rank 1"), mesh.pop().expect("rank 0"));
    let (inproc_s, _) = round_trip(a, b, &msg, slice);
    report.set("net.inprocess_gibs", bytes / inproc_s / GIB);

    let mut rendezvous = Vec::new();
    for _ in 0..2 {
        let (a, b, ms) = tcp_pair();
        rendezvous.push(ms);
        drop((a, b));
    }
    let (a, b, ms) = tcp_pair();
    rendezvous.push(ms);
    report.set("net.rendezvous_ms", median(&rendezvous));
    let (tcp_s, sent) = round_trip(a, b, &msg, slice);
    report.set("net.loopback_gibs", bytes / tcp_s / GIB);
    report.set("net.frame_overhead_bytes", (sent - payload_len) as f64);
    tracer.end(span);
}

// ---------------------------------------------------------------------------

/// Runs every replay on the workload's subject and sets the per-layer
/// metrics that do not come from the workload's own loop.
pub fn run(workload: &str, seed: u64, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
    let s = subject(workload, seed);
    // About fifty timed kernels and codecs share the replay's time.
    let slice = Duration::from_secs_f64(seconds / 100.0);
    let pool = ThreadPool::new(s.threads);
    let top = tracer.begin(format!("replay {}", s.graph.name()), "replay");

    let profiles: [ArmProfile; 3] = gist::par::with_pool(&pool, || {
        let span = tracer.begin("profile", "replay");
        let p = modes().map(|mode| profile_arm(&s, &mode));
        tracer.end(span);
        p
    });
    for (name, p) in ARMS.iter().zip(&profiles) {
        report.set(&format!("runtime.step_ms_{name}"), p.step_ms);
        report.set(&format!("runtime.fwd_ms_{name}"), p.fwd_ms);
        report.set(&format!("runtime.bwd_ms_{name}"), p.bwd_ms);
        report.set(&format!("runtime.span_cover_{name}"), p.span_cover);
        report.set(&format!("runtime.executor_new_ms_{name}"), p.new_ms);
        report.set(&format!("runtime.allocs_per_step_{name}"), p.allocs_per_step);
        report.set(&format!("runtime.pred_over_obs_peak_{name}"), p.pred_over_obs);
        report.set(&format!("encodings.stash_bytes_{name}"), p.stash_bytes);
        report.set(&format!("memory.arena_slab_bytes_{name}"), p.slab_bytes);
        report.set(&format!("memory.slab_over_peak_{name}"), p.slab_over_peak);
    }
    let spans: f64 = profiles[0].kind_ms.iter().sum();
    for (k, kind) in KINDS.iter().enumerate() {
        report.set(&format!("runtime.op_share.{kind}"), profiles[0].kind_ms[k] / spans);
    }
    report.set("obs.events_per_step", profiles[0].events_per_step);
    report.set("encodings.ssdc_ratio", profiles[1].ssdc_ratio);
    let (extra, local, park, resume) = gist::par::with_pool(&pool, || {
        let mut exec = new_executor(s.graph.clone(), ExecMode::Baseline, PARAM_SEED, s.policy);
        let (x, y) = &s.batches[0];
        let local = time_call(slice, || {
            black_box(exec.forward_backward(x, y).expect("forward_backward"));
        });
        let parked = ParkedParams::park(&exec);
        let park = time_call(slice, || drop(black_box(ParkedParams::park(&exec))));
        let resume = time_call(slice, || parked.resume_into(&mut exec));
        (null_recorder_extra_allocs(&s), local, park, resume)
    });
    report.set("obs.null_recorder_extra_allocs", extra);
    report.set("dist.local_compute_ms", local * 1e3);
    report.set("serve.park_ms", park * 1e3);
    report.set("serve.resume_ms", resume * 1e3);

    let (tensor, mut codecs) = gist::par::with_pool(&pool, || {
        let t = replay_tensor(&s, seed, slice, tracer);
        let c = replay_codecs(&s, &profiles, slice, tracer);
        (t, c)
    });
    report.set("tensor.conv_fwd_gflops", rate(tensor.conv.fwd_work, tensor.conv.fwd_s, 1e9));
    report.set("tensor.conv_bwd_gflops", rate(tensor.conv.bwd_work, tensor.conv.bwd_s, 1e9));
    report.set("tensor.linear_gflops", tensor.linear.rate(1e9));
    report.set("tensor.relu_gibs", tensor.relu.rate(GIB));
    report.set("tensor.pool_gibs", tensor.pool.rate(GIB));
    let (e, d) = codecs.binarize.rates();
    report.set("encodings.binarize_encode_gibs", e);
    report.set("encodings.binarize_backward_gibs", d);
    let (e, d) = codecs.ssdc.rates();
    report.set("encodings.ssdc_encode_gibs", e);
    report.set("encodings.ssdc_decode_gibs", d);
    let (e, d) = codecs.dpr.rates();
    report.set("encodings.dpr8_encode_gibs", e);
    report.set("encodings.dpr8_decode_gibs", d);
    for arm in 1..3 {
        let name = ARMS[arm];
        let codec_ms = codecs.per_step_s[arm] * 1e3;
        let delta_ms = profiles[arm].step_ms - profiles[0].step_ms;
        report.set(&format!("encodings.codec_share_{name}"), codec_ms / profiles[arm].step_ms);
        // A mode that assigns the subject no encoding adds no step time.
        let explained = if delta_ms.abs() < 1e-6 { 0.0 } else { codec_ms / delta_ms };
        report.set(&format!("encodings.delta_explained_{name}"), explained);
        report.note(
            &format!("encodings.delta_explained_{name}"),
            format!("codecs {codec_ms:.3} ms of a {delta_ms:.3} ms step delta over ref"),
        );
    }
    if codecs.biggest_sparse.is_empty() {
        let shapes = s.graph.infer_shapes().expect("subject shapes");
        let numel = shapes.iter().skip(1).map(Shape::numel).max().expect("non-empty graph");
        codecs.biggest_sparse = sparse_values(numel, 0.5, &mut SplitMix(19));
    }
    gist::par::with_pool(&pool, || {
        replay_simd(&tensor, &codecs, seed, slice, report);
        replay_planners(&s, slice, report);
    });
    replay_par(&s, report);
    replay_wire(&s, slice, tracer, report);
    tracer.end(top);

    // Where a step's wall time goes, arm by arm: the program's own kernel
    // spans, the replayed kernels and codecs, and what neither explains.
    let kernels_ms = 1e3
        * [tensor.conv, tensor.linear, tensor.relu, tensor.pool]
            .iter()
            .map(|k| k.fwd_s + k.bwd_s)
            .sum::<f64>();
    println!("step wall accounted, per arm of the subject {} (ms):", s.graph.name());
    for (arm, (name, p)) in ARMS.iter().zip(&profiles).enumerate() {
        let spans = p.span_cover * p.step_ms;
        let codec_ms = codecs.per_step_s[arm] * 1e3;
        println!(
            "  {name:<9} step {:.3} = kernel spans {spans:.3} + remainder {:.3} (codec + \
             allocator + merge + update); replayed kernels {kernels_ms:.3}, replayed codecs \
             {codec_ms:.3}, unexplained {:.3}",
            p.step_ms,
            p.step_ms - spans,
            p.step_ms - spans - codec_ms,
        );
    }
}
