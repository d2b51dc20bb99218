//! `serve_churn`: the scheduler as a control plane. A mix of 48 short
//! jobs is submitted and run to completion under a budget barely above the
//! largest lease, over and over. Each job trains one to three steps, so
//! lease pricing, executor construction, arena planning and park/resume
//! are on the hot path instead of amortised away — a change that buys step
//! speed by moving work into construction loses here.
//!
//! Arms: the same mix with every job in baseline, lossless or FP8 mode,
//! under one budget in bytes.

use crate::metrics::Report;
use crate::nets::SplitMix;
use crate::span::{in_span, Tracer};
use crate::stats::undisturbed;
use crate::train::modes;
use crate::workload::{LoopStats, Workload, ARMS};
use gist::dist::DistTrainer;
use gist::encodings::TransferCodec;
use gist::par::ThreadPool;
use gist::runtime::{Executor, OffloadMode, SyntheticImages};
use gist::serve::{solo_report, JobSpec, ServeConfig, ServeReport, Server, StepOrder};
use std::time::Instant;

pub const JOBS: usize = 48;
const MODELS: [&str; 3] = ["small-vgg", "tiny-convnet", "tiny-classic"];

/// The job mix for one arm. Shapes (model, batch, steps, replicas) are a
/// fixed rotation; the seed picks the submission order and each job's own
/// seed.
fn mix(seed: u64, arm: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix(seed);
    let mut jobs: Vec<JobSpec> = (0..JOBS)
        .map(|i| {
            let replicas = if i % 4 == 3 { 2 } else { 1 };
            JobSpec::builder(MODELS[i % 3])
                .name(&format!("job{i}"))
                .batch(if (i / 3) % 2 == 0 { 4 } else { 8 })
                .steps(1 + (i / 2) % 3)
                .replicas(replicas)
                .codec(if replicas == 2 { TransferCodec::Ssdc } else { TransferCodec::None })
                .mode(modes()[arm].clone())
                .seed(i as u64 * 1_000_003 + rng.next_u64() % 1_000_003)
                .build()
                .expect("job specs are in range")
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

fn leases(jobs: &[JobSpec]) -> Vec<u64> {
    let mut probe = Server::new(ServeConfig::new(u64::MAX));
    jobs.iter()
        .map(|spec| {
            let id = probe.submit(spec.clone()).expect("unbounded budget admits every job");
            probe.lease_bytes(id)
        })
        .collect()
}

pub struct Serve {
    mixes: [Vec<JobSpec>; 3],
    lease_sum: [u64; 3],
    budget: u64,
    config: ServeConfig,
    pool: ThreadPool,
    cycles: [u64; 3],
    last: [Option<ServeReport>; 3],
    submit_ms: f64,
    cycle_ms: f64,
    failed_jobs: u64,
    sample: usize,
}

impl Serve {
    pub fn setup(seed: u64) -> Serve {
        let mixes = [0, 1, 2].map(|arm| mix(seed, arm));
        let priced = [0, 1, 2].map(|arm| leases(&mixes[arm]));
        let largest = priced.iter().flatten().copied().max().expect("non-empty mix");
        // One budget for all three arms: an eighth above the largest lease
        // any arm prices, so every job is admissible and little else fits.
        let budget = largest + largest / 8;
        let mut config = ServeConfig::new(budget);
        config.order = StepOrder::Rotating;
        config.park_patience = 1;
        let mut w = Serve {
            mixes,
            lease_sum: priced.map(|l| l.iter().sum()),
            budget,
            config,
            pool: ThreadPool::new(1),
            cycles: [0; 3],
            last: [None, None, None],
            submit_ms: 0.0,
            cycle_ms: 0.0,
            failed_jobs: 0,
            sample: (SplitMix(seed ^ 0x5eed).next_u64() % JOBS as u64) as usize,
        };
        // One warm-up cycle: every cycle builds its executors afresh, so
        // only thread-local kernel scratch carries over between cycles.
        w.cycle(0, None);
        (w.cycles, w.submit_ms, w.cycle_ms) = ([0; 3], 0.0, 0.0);
        w
    }

    /// One submit-all-then-run cycle of `arm`; returns its wall time in ms.
    fn cycle(&mut self, arm: usize, tracer: Option<&mut Tracer>) -> f64 {
        let t0 = Instant::now();
        let name = format!("cycle {}", self.cycles[arm]);
        let outcome = in_span(tracer, name, "step", |mut tracer| {
            gist::par::with_pool(&self.pool, || {
                let mut server = Server::new(self.config);
                in_span(tracer.as_deref_mut(), "submit", "serve", |_| {
                    self.mixes[arm].iter().try_for_each(|spec| {
                        server.submit(spec.clone()).map(drop).map_err(|e| e.to_string())
                    })
                })?;
                let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
                let report = in_span(tracer, "run", "serve", |_| server.run());
                report.map(|r| (r, submit_ms)).map_err(|e| e.to_string())
            })
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.cycles[arm] += 1;
        match outcome {
            Ok((report, submit_ms)) => {
                self.submit_ms += submit_ms;
                self.cycle_ms += ms;
                let unfinished =
                    report.jobs.iter().filter(|j| j.steps != j.loss_bits.len()).count() as u64;
                let non_finite = report
                    .jobs
                    .iter()
                    .filter(|j| j.loss_bits.iter().any(|b| !f32::from_bits(*b).is_finite()))
                    .count() as u64;
                let over = report.max_live_bytes > self.budget;
                self.failed_jobs += unfinished + non_finite + over as u64;
                self.last[arm] = Some(report);
            }
            Err(e) => {
                eprintln!("{} cycle failed: {e}", ARMS[arm]);
                self.failed_jobs += JOBS as u64;
            }
        }
        ms
    }

    /// Every job of `arm` built and stepped on its own, exactly as the
    /// server's admission builds it: `(construction ms, stepping ms)`
    /// summed over the mix, the lesser of three passes each. What a cycle
    /// would cost with no scheduler.
    fn standalone_ms(&self, arm: usize) -> (f64, f64) {
        let passes = [0; 3].map(|_| self.standalone_pass(arm));
        let least = |f: fn(&(f64, f64)) -> f64| passes.iter().map(f).fold(f64::INFINITY, f64::min);
        (least(|p| p.0), least(|p| p.1))
    }

    fn standalone_pass(&self, arm: usize) -> (f64, f64) {
        gist::par::with_pool(&self.pool, || {
            let (mut build, mut step) = (0.0, 0.0);
            for spec in &self.mixes[arm] {
                let graph = spec.graph();
                let input = graph.infer_shapes().expect("zoo graph")[0];
                let mut ds = SyntheticImages::new(3, input.h(), 0.3, spec.seed);
                let t0 = Instant::now();
                let mut trainer =
                    DistTrainer::new(spec.replicas, spec.replicas, spec.codec, || {
                        Executor::new_with_granularity(
                            graph.clone(),
                            spec.mode.clone(),
                            spec.seed,
                            spec.alloc,
                            OffloadMode::None,
                            spec.plan,
                        )
                    })
                    .expect("job trainer");
                build += t0.elapsed().as_secs_f64() * 1e3;
                for _ in 0..spec.steps {
                    let (x, y): (Vec<_>, Vec<_>) =
                        (0..spec.replicas).map(|_| ds.minibatch(spec.batch)).unzip();
                    let t0 = Instant::now();
                    trainer.step(&x, &y, self.config.lr).expect("job step");
                    step += t0.elapsed().as_secs_f64() * 1e3;
                }
            }
            (build, step)
        })
    }
}

impl Workload for Serve {
    fn units_per_iter(&self) -> f64 {
        JOBS as f64
    }

    fn round(&mut self, arm: usize, tracer: Option<&mut Tracer>, iter_ms: &mut Vec<f64>) {
        iter_ms.push(self.cycle(arm, tracer));
    }

    fn finish(&mut self, report: &mut Report) -> [f64; 3] {
        report.attempted += self.cycles.iter().sum::<u64>() * JOBS as u64;
        for _ in 0..self.failed_jobs {
            report.fail("a job did not complete, lost its loss, or the budget was exceeded".into());
        }
        // Outside the timed region: one sampled job per arm must fingerprint
        // exactly as it does when run alone.
        for (arm, name) in ARMS.iter().enumerate() {
            let spec = self.mixes[arm].iter().find(|s| s.name == format!("job{}", self.sample));
            let spec = spec.expect("sampled job is in the mix");
            let solo = gist::par::with_pool(&self.pool, || solo_report(spec, self.config.lr));
            let served =
                self.last[arm].as_ref().and_then(|r| r.jobs.iter().find(|j| j.name == spec.name));
            let same = match (&solo, served) {
                (Ok(solo), Some(j)) => {
                    solo.param_hash == j.param_hash && solo.loss_bits == j.loss_bits
                }
                _ => false,
            };
            println!(
                "check: {name} {} param hash and loss bits equal its solo run: {same}",
                spec.name
            );
            if !same {
                report.fail(format!("{name} {}: fingerprint differs from solo run", spec.name));
            }
        }
        self.lease_sum.map(|b| b as f64)
    }

    fn per_layer(&mut self, stats: &LoopStats, report: &mut Report) {
        for (arm, name) in ARMS.iter().enumerate() {
            let r = self.last[arm].as_ref().expect("every arm ran a cycle");
            report.set(&format!("serve.ticks_{name}"), r.ticks as f64);
            report.set(&format!("serve.admissions_{name}"), r.admissions as f64);
            report.set(&format!("serve.parks_{name}"), r.parks as f64);
            report.set(
                &format!("serve.parked_wire_bytes_peak_{name}"),
                r.parked_wire_bytes_peak as f64,
            );
            let cycle = undisturbed(&stats.iter_ms[arm]);
            let (build, step) = self.standalone_ms(arm);
            report.set(&format!("serve.step_share_{name}"), step / cycle);
            println!(
                "{name}: cycle {cycle:.3} ms = stepping {step:.3} + construction {build:.3} + \
                 remainder {:.3} (pricing, scheduling, park/resume); budget {} B, max live {} B",
                cycle - step - build,
                self.budget,
                r.max_live_bytes,
            );
        }
        report.set("serve.submit_share", self.submit_ms / self.cycle_ms);
    }
}
