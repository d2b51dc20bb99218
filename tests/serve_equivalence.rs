//! The gist-serve gate: concurrency must be invisible to every job.
//!
//! The scheduler multiplexes jobs over one memory budget — admission
//! queues, interleaved stepping, park/resume round-trips through the SSDC
//! host store — and none of it may touch a job's training trajectory. Each
//! suite here compares a job's fingerprint (every step's loss bits plus the
//! FNV-1a hash of its final parameters) from a *concurrent* run against
//! [`gist::serve::solo_report`], the same job running alone through the
//! same code path, across step interleavings, thread counts and alloc
//! policies. The budget-oracle property then holds 64+ seeded random job
//! mixes to the admission invariants: observed live bytes never exceed the
//! budget, every job completes, and two runs of the same submission
//! sequence produce identical admission logs.

use gist::par::with_threads;
use gist::runtime::AllocPolicy;
use gist::serve::{solo_report, JobReport, JobSpec, ServeConfig, Server, StepOrder};
use gist_testkit::prop::{vec_of, Strategy};
use gist_testkit::{Rng, Runner};

const LR: f32 = 0.05;

/// The part of a [`JobReport`] that must be interleaving-invariant.
fn fingerprint(job: &JobReport) -> (Vec<u32>, u64) {
    (job.loss_bits.clone(), job.param_hash)
}

/// A four-job mix spanning models, modes, alloc policies, replica counts
/// and grad codecs — every axis the scheduler could plausibly leak across.
fn mixed_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::builder("tiny-convnet").name("convnet").steps(3).seed(7).build().unwrap(),
        // tiny-classic has dropout: its mask seed is salted with the step
        // counter, so this job catches a park/resume that forgets to
        // restore the executor's step epoch.
        JobSpec::builder("tiny-classic")
            .name("classic-fp8")
            .steps(2)
            .mode(gist::runtime::ExecMode::parse("fp8").unwrap())
            .seed(11)
            .build()
            .unwrap(),
        JobSpec::builder("small-vgg")
            .name("vgg-heap")
            .steps(2)
            .alloc(AllocPolicy::Heap)
            .mode(gist::runtime::ExecMode::parse("baseline").unwrap())
            .seed(13)
            .build()
            .unwrap(),
        JobSpec::builder("tiny-convnet")
            .name("convnet-dist")
            .steps(2)
            .replicas(2)
            .codec(gist::encodings::TransferCodec::Ssdc)
            .seed(17)
            .build()
            .unwrap(),
    ]
}

fn leases(specs: &[JobSpec]) -> Vec<u64> {
    let mut probe = Server::new(ServeConfig::new(u64::MAX));
    specs
        .iter()
        .map(|s| {
            let id = probe.submit(s.clone()).expect("probe submit");
            probe.lease_bytes(id)
        })
        .collect()
}

fn run_mix(specs: &[JobSpec], budget: u64, order: StepOrder) -> gist::serve::ServeReport {
    let mut config = ServeConfig::new(budget);
    config.order = order;
    config.park_patience = 1;
    config.lr = LR;
    let mut server = Server::new(config);
    for spec in specs {
        server.submit(spec.clone()).expect("submit");
    }
    server.run().expect("serve run")
}

// ---------------------------------------------------------------------------
// Headline: concurrent == solo, bitwise, across interleavings × threads
// ---------------------------------------------------------------------------

#[test]
fn every_job_matches_its_solo_run_across_interleavings_and_threads() {
    let specs = mixed_specs();
    // Solo references, computed single-threaded: the gold trajectories.
    let solo: Vec<(Vec<u32>, u64)> = with_threads(1, || {
        specs.iter().map(|s| fingerprint(&solo_report(s, LR).expect("solo"))).collect()
    });
    let lease = leases(&specs);
    let max = *lease.iter().max().unwrap();
    // Tight enough that jobs queue behind each other, big enough that the
    // largest job is admissible.
    let budget = max + max / 2;
    for order in [StepOrder::Ascending, StepOrder::Descending, StepOrder::Rotating] {
        for threads in [1usize, 2] {
            let report = with_threads(threads, || run_mix(&specs, budget, order));
            assert!(report.all_completed(), "{order:?}/{threads}: {:?}", report.log);
            assert!(report.max_live_bytes <= budget, "{order:?}/{threads}");
            for (job, want) in report.jobs.iter().zip(&solo) {
                assert_eq!(
                    &fingerprint(job),
                    want,
                    "job {} ({}) diverged from its solo run under {order:?} with \
                     GIST_THREADS={threads}",
                    job.job,
                    job.name
                );
            }
        }
    }
}

#[test]
fn forced_park_and_resume_is_bitwise_invisible() {
    // Budget fits ~one job, patience 1: the long job is parked (dropout
    // model included) and every trajectory must still match solo.
    let specs = vec![
        JobSpec::builder("tiny-convnet").name("long").steps(6).seed(3).build().unwrap(),
        JobSpec::builder("tiny-classic").name("drop").steps(4).seed(5).build().unwrap(),
        JobSpec::builder("tiny-convnet").name("tail").steps(2).seed(9).build().unwrap(),
    ];
    let solo: Vec<(Vec<u32>, u64)> =
        specs.iter().map(|s| fingerprint(&solo_report(s, LR).expect("solo"))).collect();
    let lease = leases(&specs);
    let max = *lease.iter().max().unwrap();
    let report = run_mix(&specs, max + max / 8, StepOrder::Ascending);
    assert!(report.all_completed(), "{:?}", report.log);
    assert!(report.parks >= 1, "this mix must force at least one park: {:?}", report.log);
    assert!(report.parked_wire_bytes_peak > 0);
    for (job, want) in report.jobs.iter().zip(&solo) {
        assert_eq!(
            &fingerprint(job),
            want,
            "job {} ({}) changed bits across {} park(s)",
            job.job,
            job.name,
            job.parks
        );
    }
}

// ---------------------------------------------------------------------------
// Budget-oracle property: random mixes, persisted regression seeds
// ---------------------------------------------------------------------------

/// One randomly drawn job for the oracle property.
#[derive(Clone, Debug)]
struct JobDesc {
    model: &'static str,
    steps: usize,
    batch: usize,
    replicas: usize,
    mode: &'static str,
    alloc: &'static str,
    ssdc_codec: bool,
    seed: u64,
}

impl JobDesc {
    fn spec(&self, id: usize) -> JobSpec {
        let mut b = JobSpec::builder(self.model)
            .name(&format!("p{id}"))
            .steps(self.steps)
            .batch(self.batch)
            .replicas(self.replicas)
            .mode(gist::runtime::ExecMode::parse(self.mode).expect("mode table"))
            .alloc(gist::runtime::AllocPolicy::parse(self.alloc).expect("alloc table"))
            .seed(self.seed);
        if self.ssdc_codec {
            b = b.codec(gist::encodings::TransferCodec::Ssdc);
        }
        b.build().expect("drawn spec is always valid")
    }
}

struct JobStrategy;

impl Strategy for JobStrategy {
    type Value = JobDesc;
    fn generate(&self, rng: &mut Rng) -> JobDesc {
        const MODELS: &[&str] = &["tiny-convnet", "tiny-convnet", "tiny-classic", "small-vgg"];
        const MODES: &[&str] = &["lossless", "baseline", "fp8"];
        JobDesc {
            model: MODELS[rng.gen_range(0..MODELS.len())],
            steps: rng.gen_range(1..4usize),
            batch: rng.gen_range(1..3usize),
            replicas: if rng.gen_bool(0.25) { 2 } else { 1 },
            mode: MODES[rng.gen_range(0..MODES.len())],
            alloc: if rng.gen_bool(0.5) { "arena" } else { "heap" },
            ssdc_codec: rng.gen_bool(0.25),
            seed: rng.gen_range(1..1000u64),
        }
    }
}

/// A drawn mix: jobs plus how much headroom the budget gets between the
/// largest single lease (minimum admissible) and the sum of all leases
/// (fully concurrent), plus the interleave order.
#[derive(Clone, Debug)]
struct MixDesc {
    jobs: Vec<JobDesc>,
    budget_pct: u64,
    order_sel: u8,
}

struct MixStrategy;

impl Strategy for MixStrategy {
    type Value = MixDesc;
    fn generate(&self, rng: &mut Rng) -> MixDesc {
        MixDesc {
            jobs: vec_of(JobStrategy, 1..5).generate(rng),
            budget_pct: rng.gen_range(0..101u64),
            order_sel: rng.gen_range(0..3u32) as u8,
        }
    }
    fn shrink(&self, value: &MixDesc) -> Vec<MixDesc> {
        // Drop one job at a time — the canonical mix simplification.
        let mut out = Vec::new();
        if value.jobs.len() > 1 {
            for skip in 0..value.jobs.len() {
                let mut jobs = value.jobs.clone();
                jobs.remove(skip);
                out.push(MixDesc { jobs, ..value.clone() });
            }
        }
        out
    }
}

#[test]
fn budget_oracle_holds_on_random_job_mixes() {
    let runner = Runner::new("serve_budget_oracle")
        .cases(64)
        .regressions_file("tests/serve_equivalence.testkit-regressions");
    runner.run(&MixStrategy, |mix: &MixDesc| {
        let specs: Vec<JobSpec> = mix.jobs.iter().enumerate().map(|(i, j)| j.spec(i)).collect();
        let lease = leases(&specs);
        let (max, sum) = (*lease.iter().max().unwrap(), lease.iter().sum::<u64>());
        // Interpolate between "barely fits the largest job" and "fits all".
        let budget = max + (sum - max) * mix.budget_pct / 100;
        let order = match mix.order_sel {
            0 => StepOrder::Ascending,
            1 => StepOrder::Descending,
            _ => StepOrder::Rotating,
        };
        let r1 = run_mix(&specs, budget, order);
        // Invariant 1: every job completed all its steps.
        assert!(r1.all_completed(), "incomplete jobs under budget {budget}: {:?}", r1.log);
        // Invariant 2: observed live bytes never exceeded the budget.
        assert!(r1.max_live_bytes <= budget, "oracle violated: {} > {}", r1.max_live_bytes, budget);
        // Invariant 3: admission order is deterministic — a second run of
        // the same submission sequence produces the identical log.
        let r2 = run_mix(&specs, budget, order);
        assert_eq!(r1.log, r2.log, "admission log is not deterministic");
        assert_eq!(r1, r2, "full report is not deterministic");
        // Invariant 4: concurrency did not touch any trajectory.
        for (job, spec) in r1.jobs.iter().zip(&specs) {
            let solo = solo_report(spec, LR).expect("solo");
            assert_eq!(
                fingerprint(job),
                fingerprint(&solo),
                "job {} diverged from solo in a drawn mix",
                job.name
            );
        }
    });
}
