//! The copy budget of a crossing gradient, counted at the allocator.
//!
//! One raw tensor crossing one edge used to be materialized ten to eleven
//! times per rank (clone, serialize, frame body, frame, receive buffer,
//! payload, words, values, decode ...). It is now serialized once, framed
//! where it lies and accumulated straight off the received bytes; this
//! test pins that at the only place a copy cannot hide — every copy of a
//! gradient-sized tensor needs a gradient-sized allocation.
//!
//! The same armed allocator also counts requests of any size, for the two
//! per-step guarantees of the executor itself: a disabled recorder adds no
//! allocation to a step, and the arena policy's steady state allocates less
//! per step than the heap policy's. The arming flag and the counters are
//! process-wide, so the cases take turns on `SERIAL`; the any-size count is
//! additionally confined to the thread that armed it, so the test harness
//! reporting on its own thread cannot leak into an exact comparison.

use gist::core::GistConfig;
use gist::encodings::{DprFormat, RoundingMode, SsdcConfig, StashCodec, TransferCodec};
use gist::graph::Graph;
use gist::net::{InProcess, NetConfig, NetTrainer, Tcp, Transport};
use gist::obs::NullRecorder;
use gist::runtime::{ExecMode, ExecSpec, Executor, SyntheticImages};
use gist::tensor::{Shape, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// `fc1`'s weight: 256 inputs x 1024 outputs, exactly 1 MiB of `f32`.
const WEIGHT_BYTES: usize = 256 * 1024 * 4;

static SERIAL: Mutex<()> = Mutex::new(());
static COUNTING: AtomicBool = AtomicBool::new(false);
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ALL_ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this is the thread that armed the counters (const-initialized
    /// and without a destructor, so reading it inside the allocator is safe).
    static ARMED_HERE: Cell<bool> = const { Cell::new(false) };
}

/// Counts, while armed, every request for at least half the weight's bytes
/// — and every request of any size the arming thread itself makes.
struct CountBig;

fn note(size: usize) {
    if COUNTING.load(Ordering::SeqCst) {
        if ARMED_HERE.try_with(Cell::get).unwrap_or(false) {
            ALL_ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        if size >= WEIGHT_BYTES / 2 {
            BIG_ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; `note` only touches atomics.
unsafe impl GlobalAlloc for CountBig {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountBig = CountBig;

fn wide_net(batch: usize) -> Graph {
    let mut g = Graph::new("WideFc");
    let x = g.input(Shape::nchw(batch, 1, 16, 16));
    let f1 = g.linear(x, 1024, true, "fc1");
    let r1 = g.relu(f1, "fc1_relu");
    let out = g.linear(r1, 4, true, "fc2");
    g.softmax_loss(out, "loss");
    g
}

/// Allocations made while `f` runs: `(any size, on this thread; big, on any
/// thread)`.
fn count(f: impl FnOnce()) -> (usize, usize) {
    BIG_ALLOCS.store(0, Ordering::SeqCst);
    ALL_ALLOCS.store(0, Ordering::SeqCst);
    ARMED_HERE.set(true);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ARMED_HERE.set(false);
    (ALL_ALLOCS.load(Ordering::SeqCst), BIG_ALLOCS.load(Ordering::SeqCst))
}

/// Big allocations made while `f` runs, on any thread.
fn count_big(f: impl FnOnce()) -> usize {
    count(f).1
}

type Batch = (gist::tensor::Tensor, Vec<usize>);

/// Allocations of any size made by the small-VGG step `run` drives, the
/// executor's second: the first grows kernel-internal thread-local scratch
/// and the encoded containers to their steady state. On a one-thread pool —
/// with workers, which task pops which recycled scratch buffer depends on
/// interleaving, and the counts differ by that noise.
fn step_allocs(spec: ExecSpec, run: impl Fn(&mut Executor, &Batch)) -> usize {
    let mut ds = SyntheticImages::new(4, 16, 0.3, 42);
    let batch = ds.minibatch(8);
    gist::par::with_threads(1, || {
        let mut exec = Executor::new(gist::models::small_vgg(8, 4), spec, 7).expect("executor");
        exec.step(&batch.0, &batch.1, 0.01).expect("warm-up");
        count(|| run(&mut exec, &batch)).0
    })
}

fn plain_step(exec: &mut Executor, (x, y): &Batch) {
    exec.step(x, y, 0.01).expect("step");
}

#[test]
fn a_disabled_recorder_adds_no_allocation_to_a_step() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Identically seeded executors: execution is deterministic, so the
    // counts differ only if the traced entry point allocates where the
    // plain one does not.
    let plain = step_allocs(ExecMode::Baseline.into(), plain_step);
    let traced = step_allocs(ExecMode::Baseline.into(), |exec, (x, y)| {
        exec.step_traced(x, y, 0.01, &NullRecorder).expect("step");
    });
    assert!(plain > 0, "the armed allocator saw the step");
    assert_eq!(traced, plain, "step_traced under a disabled recorder vs step");
}

#[test]
fn arena_steady_state_allocates_less_per_step_than_heap() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for mode in [
        ExecMode::Baseline,
        ExecMode::Gist(GistConfig::lossless()),
        ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8)),
    ] {
        let heap = step_allocs(mode.clone().into(), plain_step);
        let arena = step_allocs(ExecSpec::from(mode.clone()).arena(), plain_step);
        assert!(
            arena < heap,
            "{mode:?}: arena steady state must allocate less than heap ({arena} vs {heap})"
        );
    }
}

/// The DPR ReLU gate runs through a fixed stack chunk: no call allocates
/// (it used to decode the whole map into a heap `Vec` per use), and the
/// gate is bit-equal to the dense kernel over the decoded map. The same
/// holds for an SSDC stash with DPR values, whose gate and decode read each
/// row's values through a stack chunk too. Counted on a one-thread pool: a
/// dispatch to pool workers allocates its job, whatever the kernel does.
#[test]
fn the_dpr_relu_gate_allocates_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ne = 70_000;
    let y: Vec<f32> = (0..ne).map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.37).collect();
    let dy: Vec<f32> = (0..ne).map(|i| i as f32 * 0.5 - 3.0).collect();
    let t = Tensor::from_vec(Shape::vector(ne), y).expect("tensor");
    gist::par::with_threads(1, || {
        for format in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
            let ssdc = SsdcConfig { narrow: true, value_format: Some(format) };
            for codec in [StashCodec::Dpr(format, RoundingMode::Nearest), StashCodec::Ssdc(ssdc)] {
                let stash = codec.encode(&t, None);
                assert!(stash.as_dense().is_none(), "{codec:?}: held encoded");
                let mut want = vec![0.0f32; ne];
                stash.decode_into(&mut want).expect("length");
                let mut decoded = vec![f32::NAN; ne];
                let (allocs, _) = count(|| stash.decode_into(&mut decoded).expect("length"));
                assert_eq!(allocs, 0, "{codec:?}: the decode allocated");
                assert_eq!(bits(&decoded), bits(&want), "{codec:?}");
                let want: Vec<u32> = want
                    .iter()
                    .zip(&dy)
                    .map(|(&yv, &dv)| if yv > 0.0 { dv } else { 0.0 }.to_bits())
                    .collect();
                let mut dx = vec![f32::NAN; ne];
                let (allocs, _) = count(|| stash.relu_backward_into(&dy, &mut dx).expect("length"));
                assert_eq!(allocs, 0, "{codec:?}: the gate allocated");
                assert_eq!(bits(&dx), want, "{codec:?}");
            }
        }
    });
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Big allocations, on any thread, made by one steady-state step of a
/// 2-rank raw world whose endpoints `mesh` builds — each rank on its own
/// thread, its trainer two steps warm. Only `fc1`'s weight is big, and its
/// one tree edge and one broadcast leg both cross.
fn crossing_step<T: Transport + Send + 'static>(mesh: Vec<T>) -> usize {
    let build = || Executor::new(wide_net(2), ExecMode::Baseline, 5);
    let mut ds = SyntheticImages::new(4, 16, 0.3, 99);
    let data: (Vec<_>, Vec<_>) = (0..RANKS).map(|_| ds.minibatch(2)).unzip();
    let data = Arc::new(data);
    let gate = Arc::new(Barrier::new(RANKS + 1));
    let ranks: Vec<_> = mesh
        .into_iter()
        .map(|tp| {
            let (data, gate) = (Arc::clone(&data), Arc::clone(&gate));
            std::thread::spawn(move || {
                let mut t = NetTrainer::new(tp, RANKS, TransferCodec::None, build).unwrap();
                for _warm_up in 0..2 {
                    t.step(&data.0, &data.1, 0.05).expect("step");
                }
                gate.wait();
                gate.wait();
                t.step(&data.0, &data.1, 0.05).expect("step");
                gate.wait();
            })
        })
        .collect();
    gate.wait();
    let stepped = count_big(|| {
        gate.wait();
        gate.wait();
    });
    for h in ranks {
        h.join().expect("rank thread");
    }
    stepped
}

const RANKS: usize = 2;

#[test]
fn a_crossing_tensor_costs_at_most_three_big_allocations_per_rank() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut ds = SyntheticImages::new(4, 16, 0.3, 99);
    let (x, y) = ds.minibatch(2);

    // What a rank allocates before any exchange: nothing gradient-sized —
    // a warm pass writes its weight gradients into the set it is handed.
    let mut alone = Executor::new(wide_net(2), ExecMode::Baseline, 5).expect("executor");
    let mut grads = Vec::new();
    alone.forward_backward_into(&x, &y, &mut grads).expect("warm-up");
    let local = count_big(|| drop(alone.forward_backward_into(&x, &y, &mut grads)));
    assert_eq!(local, 0, "a warm pass into a kept set allocated a gradient-sized buffer");

    // A steady-state raw step of the 2-rank channel mesh. The trainers
    // reduce and broadcast over the sets they keep, frame straight off
    // them and land straight into them: what is left is the one frame the
    // channel carries per message — `fc1`'s tree edge and its broadcast.
    let stepped = crossing_step(InProcess::mesh(RANKS));
    assert!(stepped <= 2, "{stepped} gradient-sized allocations in one step of {RANKS} ranks");
}

/// Over loopback TCP the bytes stream from the kept set to the socket and
/// from the socket into the kept set: a steady-state step allocates
/// nothing gradient-sized on either rank.
#[test]
fn a_tcp_step_makes_no_big_allocation() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let listeners: Vec<TcpListener> =
        (0..RANKS).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0")).collect();
    let peers: Vec<String> =
        listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    let config = NetConfig::default();
    let mesh: Vec<Tcp> = std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, l)| {
                let peers = &peers;
                s.spawn(move || Tcp::rendezvous_on(l, rank, peers, RANKS, 0, &config))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank").expect("rendezvous")).collect()
    });
    assert_eq!(crossing_step(mesh), 0, "a steady-state TCP step allocated a gradient-sized buffer");
}
