//! Benchmark for full training steps under each stash mode — the measured
//! CPU analogue of Figure 9 (Gist's overhead on real forward+backward
//! execution) — plus two allocator-level guarantees checked with a counting
//! global allocator and recorded in the bench JSON meta:
//!
//! 1. a disabled recorder must add zero heap allocations to the hot path;
//! 2. `AllocPolicy::Arena` must cut steady-state allocations per step well
//!    below the heap policy (feature maps, stash copies, gradient maps and
//!    decode buffers all resolve into the pre-planned slab; what remains is
//!    kernel-internal scratch and encoded-container payloads).
//!
//! Run with `cargo run --release -p gist-bench --bin bench_training_step`.
//! `GIST_PLAN=wave` re-captures the arena group under the wave-granular
//! plan (and `GIST_THREADS=n` under a pinned pool size); overridden runs
//! write suffixed artifacts (`bench_training_step_arena_wave_t2.json`).

use gist_core::GistConfig;
use gist_encodings::DprFormat;
use gist_obs::NullRecorder;
use gist_runtime::{AllocPolicy, ExecMode, ExecSpec, Executor, PlanGranularity, SyntheticImages};
use gist_testkit::BenchGroup;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts allocation calls.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_calls(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

fn main() {
    // `GIST_PLAN=event|wave` selects the arena plan granularity, and an
    // explicit `GIST_THREADS` pins the pool size; either override suffixes
    // the arena artifact (`bench_training_step_arena_wave_t2.json`, …) so
    // the paired captures coexist under `results/` without clobbering the
    // default-configuration JSON.
    let plan = std::env::var("GIST_PLAN")
        .ok()
        .map(|v| PlanGranularity::parse(&v).expect("GIST_PLAN must be event or wave"))
        .unwrap_or(PlanGranularity::Event);
    let mut suffix = String::new();
    if plan == PlanGranularity::Wave {
        suffix.push_str("_wave");
    }
    if let Ok(t) = std::env::var("GIST_THREADS") {
        suffix.push_str(&format!("_t{t}"));
    }
    let batch = 8;
    let mut ds = SyntheticImages::new(4, 16, 0.3, 42);
    let (x, y) = ds.minibatch(batch);

    let modes: Vec<(&str, ExecMode)> = vec![
        ("baseline_fp32", ExecMode::Baseline),
        ("gist_lossless", ExecMode::Gist(GistConfig::lossless())),
        ("gist_lossy_fp8", ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8))),
    ];

    // The heap-policy group and the tracing-overhead gate only run in the
    // default configuration; suffixed runs capture the arena group alone.
    if suffix.is_empty() {
        let mut g = BenchGroup::new("training_step").samples(20);
        g.meta("threads", gist_par::current_threads() as u64);
        g.meta("simd", gist_simd::level() as u64);
        g.meta("replicas", 1);
        g.meta("grad_codec", gist_dist::GradCodec::None.meta_id());

        // Tracing-off overhead: one identically-seeded executor per entry
        // point, one step each — deterministic execution means identical
        // allocation counts unless the traced path allocates where the
        // plain path does not.
        let fresh =
            || Executor::new(gist_models::small_vgg(batch, 4), ExecMode::Baseline, 7).unwrap();
        // Counted on one thread: with pool workers, which task pops which
        // recycled scratch buffer depends on interleaving, and the counts
        // differ by that noise (1–3 on a 2-core host), not by tracing.
        let (plain_allocs, traced_allocs) = gist_par::with_threads(1, || {
            // Warm kernel-internal thread-local scratch (conv columns, the
            // gist-simd matmul pack buffers: grown once per thread) so
            // neither counted step pays one-time growth the other doesn't.
            let mut warm = fresh();
            warm.step(&x, &y, 0.01).unwrap();
            drop(warm);
            let mut plain = fresh();
            let mut traced = fresh();
            let plain_allocs = alloc_calls(|| {
                plain.step(&x, &y, 0.01).unwrap();
            });
            let traced_allocs = alloc_calls(|| {
                traced.step_traced(&x, &y, 0.01, &NullRecorder).unwrap();
            });
            (plain_allocs, traced_allocs)
        });
        let delta = traced_allocs.abs_diff(plain_allocs);
        assert_eq!(
            delta, 0,
            "disabled tracing must not allocate: step {plain_allocs} vs step_traced {traced_allocs}"
        );
        g.meta("trace", 0);
        g.meta("trace_noop_extra_allocs", delta);

        for (label, mode) in &modes {
            let mut exec =
                Executor::new(gist_models::small_vgg(batch, 4), mode.clone(), 7).expect("executor");
            g.bench(label, || exec.step(&x, &y, 0.01).unwrap());
        }
        g.finish();
    }

    // Arena-policy twin of the group above, plus steady-state allocation
    // counts per step for both policies. The first arena step still touches
    // the heap (encoded-container payloads grow to steady state); counts
    // are taken after a warmup step so they reflect the per-step regime.
    let mut g = BenchGroup::new(&format!("training_step_arena{suffix}")).samples(20);
    g.meta("threads", gist_par::current_threads() as u64);
    g.meta("simd", gist_simd::level() as u64);
    g.meta("replicas", 1);
    g.meta("grad_codec", gist_dist::GradCodec::None.meta_id());
    g.meta("plan", if plan == PlanGranularity::Wave { 1 } else { 0 });
    for (label, mode) in &modes {
        let step_allocs = |policy: AllocPolicy| {
            let spec = ExecSpec { alloc: policy, plan, ..mode.clone().into() };
            let mut exec =
                Executor::new(gist_models::small_vgg(batch, 4), spec, 7).expect("executor");
            exec.step(&x, &y, 0.01).unwrap();
            let (leases0, misses0) = exec.scratch_counters();
            let allocs = alloc_calls(|| {
                exec.step(&x, &y, 0.01).unwrap();
            });
            let (leases1, misses1) = exec.scratch_counters();
            (allocs, leases1 - leases0, misses1 - misses0, exec.arena_capacity_bytes())
        };
        let (heap_allocs, leases, misses, _) = step_allocs(AllocPolicy::Heap);
        let (arena_allocs, _, _, slab) = step_allocs(AllocPolicy::Arena);
        assert!(
            arena_allocs < heap_allocs,
            "{label}: arena steady state must allocate less than heap \
             ({arena_allocs} vs {heap_allocs})"
        );
        // Direct gradient-merge regions (backward kernels land dx
        // contributions in planned slab side regions) must keep the arena
        // steady state strictly below the pre-merge heap count of 152
        // measured on this same small-VGG configuration.
        assert!(
            arena_allocs < 152,
            "{label}: arena steady state regressed past the pre-gradient-merge \
             count ({arena_allocs} >= 152)"
        );
        // The backward scratch pool should absorb the vast majority of
        // post-warmup leases (misses are interleaving-dependent: a LIFO pop
        // can hand a task a buffer smaller than its lease).
        assert!(
            misses <= leases / 2,
            "{label}: scratch pool missed {misses}/{leases} leases post-warmup"
        );
        g.meta(&format!("{label}_heap_allocs_per_step"), heap_allocs);
        g.meta(&format!("{label}_arena_allocs_per_step"), arena_allocs);
        g.meta(&format!("{label}_scratch_leases_per_step"), leases);
        g.meta(&format!("{label}_scratch_absorbed_per_step"), leases - misses);
        g.meta(&format!("{label}_arena_slab_bytes"), slab.expect("arena slab") as u64);

        let spec = ExecSpec { plan, ..ExecSpec::from(mode.clone()).arena() };
        let mut exec = Executor::new(gist_models::small_vgg(batch, 4), spec, 7).expect("executor");
        g.bench(label, || exec.step(&x, &y, 0.01).unwrap());
    }
    g.meta("alloc_policy", 1);
    g.finish();
}
