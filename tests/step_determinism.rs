//! Whole-step determinism pin: a full forward+backward on a small ResNet
//! (batchnorm, residual adds, conv/linear/pool — every parallelized kernel
//! in one graph) must be **byte-identical** across thread counts and across
//! repeated runs. This is the end-to-end counterpart of the per-kernel
//! differential suite in `parallel_equivalence.rs`: if any kernel, codec,
//! or the wavefront executor let thread count leak into a single rounding
//! step, two training steps would already diverge in some weight bit.

use gist::core::GistConfig;
use gist::par::{env_threads, with_threads};
use gist::runtime::{ExecMode, Executor, SyntheticImages};

/// Runs two training steps and fingerprints everything the executor
/// produced: per-step losses, the final gradients, and the updated weights.
fn run_fingerprint(mode: ExecMode) -> Vec<u32> {
    let g = gist::models::resnet_cifar(1, 2);
    let mut e = Executor::new(g, mode, 17).unwrap();
    let mut ds = SyntheticImages::rgb(4, 32, 0.2, 23);
    let mut bits = Vec::new();
    for _ in 0..2 {
        let (x, y) = ds.minibatch(2);
        let (stats, grads) = e.forward_backward(&x, &y).unwrap();
        bits.push(stats.loss.to_bits());
        bits.push(stats.peak_live_bytes as u32);
        for g in grads.iter().flatten() {
            bits.extend(g.main.data().iter().map(|v| v.to_bits()));
            if let Some(s) = &g.secondary {
                bits.extend(s.data().iter().map(|v| v.to_bits()));
            }
        }
        e.step(&x, &y, 0.05).unwrap();
    }
    bits.extend(e.params.bits());
    bits
}

fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, env_threads().max(2)];
    counts.dedup();
    counts
}

#[test]
fn resnet_steps_are_byte_identical_across_thread_counts_baseline() {
    let reference = with_threads(1, || run_fingerprint(ExecMode::Baseline));
    assert!(reference.len() > 1000, "fingerprint covers real state");
    for t in thread_counts() {
        let fp = with_threads(t, || run_fingerprint(ExecMode::Baseline));
        assert_eq!(fp, reference, "threads={t} diverged");
    }
}

#[test]
fn resnet_steps_are_byte_identical_across_thread_counts_gist() {
    let reference = with_threads(1, || run_fingerprint(ExecMode::Gist(GistConfig::lossless())));
    for t in thread_counts() {
        let fp = with_threads(t, || run_fingerprint(ExecMode::Gist(GistConfig::lossless())));
        assert_eq!(fp, reference, "threads={t} diverged");
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    // Same thread count, repeated runs: no hidden per-run state (ambient
    // RNG, time, allocation addresses) may reach a result bit.
    let a = with_threads(4, || run_fingerprint(ExecMode::Baseline));
    let b = with_threads(4, || run_fingerprint(ExecMode::Baseline));
    assert_eq!(a, b);
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
