//! Whole-step determinism pin: a full forward+backward on a small ResNet
//! (batchnorm, residual adds, conv/linear/pool — every parallelized kernel
//! in one graph) must be **byte-identical** across thread counts and across
//! repeated runs. This is the end-to-end counterpart of the per-kernel
//! differential suite in `parallel_equivalence.rs`: if any kernel, codec,
//! or the wavefront executor let thread count leak into a single rounding
//! step, two training steps would already diverge in some weight bit. Those
//! crosses are views of the equivalence matrix (`tests/matrix/mod.rs`); a
//! restart from a snapshot is not a cross and stays here.

mod matrix;

use gist::core::GistConfig;
use gist::runtime::{ExecMode, Executor, SyntheticImages};

matrix::views! {
    resnet_steps_are_byte_identical_across_thread_counts_baseline: ["model=resnet_cifar threads=*"],
    resnet_steps_are_byte_identical_across_thread_counts_gist: [
        "model=resnet_cifar mode=lossless threads=*",
    ],
}

/// Same thread count, repeated runs: no hidden per-run state (ambient RNG,
/// time, allocation addresses) may reach a result bit.
#[test]
fn repeated_runs_are_byte_identical() {
    let cell = "model=resnet_cifar threads=max";
    assert_eq!(matrix::values_of(cell), matrix::values_of(cell));
}

/// A run restarted from written-down state is the uninterrupted run.
/// tiny-classic has dropout, whose masks are salted by the step epoch, so
/// this holds only because a snapshot carries the epoch along with the
/// parameters — through the checkpoint bytes (raw wires) and through
/// `ParkedParams` (SSDC wires, what `Server::admit` relies on) alike.
#[test]
fn a_run_restarted_from_a_snapshot_fingerprints_like_an_uninterrupted_one() {
    use gist::encodings::TransferCodec;
    use gist::runtime::Snapshot;
    use gist::serve::ParkedParams;

    let graph = gist::models::by_name("tiny-classic", 4).unwrap();
    let has_dropout =
        graph.nodes().iter().any(|n| matches!(n.op, gist::graph::OpKind::Dropout { .. }));
    assert!(has_dropout, "the epoch only matters with dropout in the graph");
    let mode = || ExecMode::Gist(GistConfig::lossless());
    let fresh = || Executor::new(graph.clone(), mode(), 7).unwrap();
    let dataset = || SyntheticImages::for_graph(&graph, 0.3, 42).unwrap();
    let train = |e: &mut Executor, ds: &mut SyntheticImages, steps: usize| -> Vec<u32> {
        (0..steps)
            .map(|_| {
                let (x, y) = ds.minibatch(4);
                e.step(&x, &y, 0.05).unwrap().loss.to_bits()
            })
            .collect()
    };

    let (mut whole, mut ds) = (fresh(), dataset());
    let want_losses = train(&mut whole, &mut ds, 4);
    let want = whole.params.fingerprint(&want_losses);

    type Restart = fn(&Executor, &mut Executor);
    let restarts: [(&str, Restart); 2] = [
        ("checkpoint bytes", |from, into| {
            let bytes = from.snapshot(TransferCodec::None).to_bytes();
            into.restore(&Snapshot::from_bytes(&bytes).unwrap()).unwrap();
        }),
        ("ParkedParams", |from, into| ParkedParams::park(from).resume_into(into)),
    ];
    for (name, restart) in restarts {
        let (mut first, mut ds) = (fresh(), dataset());
        let mut losses = train(&mut first, &mut ds, 2);
        let mut second = fresh();
        restart(&first, &mut second);
        drop(first);
        assert_eq!(second.steps_executed(), 2, "{name}");
        losses.extend(train(&mut second, &mut ds, 2));
        assert_eq!(losses, want_losses, "{name}: loss bits diverged after the restart");
        assert_eq!(second.params.fingerprint(&losses), want, "{name}");
    }

    // The epoch is load-bearing: parameters alone do not reproduce the run.
    let (mut first, mut ds) = (fresh(), dataset());
    let mut losses = train(&mut first, &mut ds, 2);
    let mut stale = fresh();
    let mut snap = first.snapshot(TransferCodec::None);
    snap.steps_executed = 0;
    stale.restore(&snap).unwrap();
    losses.extend(train(&mut stale, &mut ds, 2));
    assert_ne!(losses, want_losses, "dropout masks ignore the step epoch");
}
