//! The copy budget of a crossing gradient, counted at the allocator.
//!
//! One raw tensor crossing one edge used to be materialized ten to eleven
//! times per rank (clone, serialize, frame body, frame, receive buffer,
//! payload, words, values, decode ...). It is now serialized once, framed
//! where it lies and accumulated straight off the received bytes; this
//! test pins that at the only place a copy cannot hide — every copy of a
//! gradient-sized tensor needs a gradient-sized allocation.

use gist::encodings::TransferCodec;
use gist::graph::Graph;
use gist::net::{InProcess, NetTrainer};
use gist::runtime::{ExecMode, Executor, SyntheticImages};
use gist::tensor::Shape;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// `fc1`'s weight: 256 inputs x 1024 outputs, exactly 1 MiB of `f32`.
const WEIGHT_BYTES: usize = 256 * 1024 * 4;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Counts, while armed, every request for at least half the weight's bytes.
struct CountBig;

fn note(size: usize) {
    if size >= WEIGHT_BYTES / 2 && COUNTING.load(Ordering::SeqCst) {
        BIG_ALLOCS.fetch_add(1, Ordering::SeqCst);
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

/// Big allocations made while `f` runs, on any thread.
fn count_big(f: impl FnOnce()) -> usize {
    BIG_ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    BIG_ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn a_crossing_tensor_costs_at_most_three_big_allocations_per_rank() {
    const RANKS: usize = 2;
    let build = || Executor::new(wide_net(2), ExecMode::Baseline, 5);
    let mut ds = SyntheticImages::new(4, 16, 0.3, 99);
    let (images, labels): (Vec<_>, Vec<_>) = (0..RANKS).map(|_| ds.minibatch(2)).unzip();

    // What a rank allocates before any exchange: the weight gradient
    // `forward_backward` returns.
    let mut alone = build().expect("executor");
    alone.forward_backward(&images[0], &labels[0]).expect("warm-up");
    let local = count_big(|| drop(alone.forward_backward(&images[0], &labels[0])));
    assert_eq!(local, 1, "the net holds one gradient-sized tensor");

    // A steady-state raw step of the 2-rank world. Only `fc1`'s weight is
    // big, and its one tree edge and one broadcast leg both cross. Past
    // its own `local` allocations a rank may make three more: the shard
    // gradient handed to the tree, the serialized wire, and the frame the
    // channel carries (received frames are parsed and reused in place).
    let data = Arc::new((images, labels));
    let gate = Arc::new(Barrier::new(RANKS + 1));
    let ranks: Vec<_> = InProcess::mesh(RANKS)
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
    assert!(
        stepped <= RANKS * (local + 3),
        "{stepped} gradient-sized allocations in one step of {RANKS} ranks (budget {})",
        RANKS * (local + 3)
    );
}
