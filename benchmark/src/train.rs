//! `train_conv` and `train_stash`: single-node training, one executor per
//! arm stepping identical minibatches. The paper's headline is the delta a
//! Gist mode adds to a step and the footprint it removes; these two
//! workloads measure that delta where kernels dominate (`train_conv`) and
//! where the stash codecs do (`train_stash`).

use crate::metrics::Report;
use crate::nets::{self, Batch, PARAM_SEED};
use crate::span::Tracer;
use crate::workload::{Workload, ARMS};
use gist::core::GistConfig;
use gist::encodings::DprFormat;
use gist::graph::Graph;
use gist::obs::{Event, TraceSink};
use gist::par::ThreadPool;
use gist::runtime::{
    predicted_peak_bytes_granular, ssdc_stash_sizes, AllocPolicy, ExecMode, Executor, OffloadMode,
    PlanGranularity,
};
use std::sync::Arc;
use std::time::Instant;

pub const LR: f32 = 0.01;
/// Distinct minibatches each arm cycles through.
const POOL: usize = 16;
/// The lossy arm's last loss may differ from the baseline's by this much
/// (absolute, in nats): FP8 stashes perturb gradients, not the forward
/// pass, so the two trajectories stay close but not equal.
const FP8_LOSS_TOLERANCE: f32 = 0.5;

/// The three execution modes, in arm order.
pub fn modes() -> [ExecMode; 3] {
    [
        ExecMode::Baseline,
        ExecMode::Gist(GistConfig::lossless()),
        ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8)),
    ]
}

/// What distinguishes the two training workloads.
#[derive(Debug, Clone, Copy)]
pub struct TrainCfg {
    pub net: fn(usize) -> Graph,
    pub image: usize,
    pub batch: usize,
    pub threads: usize,
    pub policy: AllocPolicy,
    pub steps_per_round: usize,
}

pub const CONV: TrainCfg = TrainCfg {
    net: nets::conv_net,
    image: 32,
    batch: 4,
    threads: 2,
    policy: AllocPolicy::Arena,
    steps_per_round: 5,
};

pub const STASH: TrainCfg = TrainCfg {
    net: nets::stash_net,
    image: 64,
    batch: 8,
    threads: 1,
    policy: AllocPolicy::Heap,
    steps_per_round: 20,
};

pub fn new_executor(graph: Graph, mode: ExecMode, seed: u64, policy: AllocPolicy) -> Executor {
    Executor::new_with_granularity(
        graph,
        mode,
        seed,
        policy,
        OffloadMode::None,
        PlanGranularity::Event,
    )
    .expect("benchmark graphs build executors")
}

pub struct Train {
    cfg: TrainCfg,
    pool: Arc<ThreadPool>,
    execs: Vec<Executor>,
    batches: Vec<Batch>,
    steps: [usize; 3],
    loss_bits: [Vec<u32>; 3],
    peak: [usize; 3],
    errors: u64,
}

impl Train {
    pub fn setup(cfg: TrainCfg, seed: u64) -> Train {
        let batches = nets::minibatches(seed, cfg.image, cfg.batch, POOL);
        let execs = modes()
            .into_iter()
            .map(|mode| new_executor((cfg.net)(cfg.batch), mode, PARAM_SEED, cfg.policy))
            .collect();
        let mut w = Train {
            cfg,
            pool: Arc::new(ThreadPool::new(cfg.threads)),
            execs,
            batches,
            steps: [0; 3],
            loss_bits: Default::default(),
            peak: [0; 3],
            errors: 0,
        };
        // Warm-up: thread-local kernel scratch, the executor's scratch
        // pool and the encoded-container payloads grow to steady state.
        let mut discard = Vec::new();
        for arm in 0..3 {
            w.steps_of(arm, 2, None, &mut discard);
        }
        w
    }

    fn steps_of(
        &mut self,
        arm: usize,
        steps: usize,
        mut tracer: Option<&mut Tracer>,
        iter_ms: &mut Vec<f64>,
    ) {
        // `with_pool` is scoped to the calling thread, so it is entered per
        // round; the pool and its worker live as long as the workload.
        let pool = Arc::clone(&self.pool);
        gist::par::with_pool(&pool, || {
            for _ in 0..steps {
                iter_ms.push(self.step(arm, tracer.as_deref_mut()));
            }
        });
    }

    fn step(&mut self, arm: usize, tracer: Option<&mut Tracer>) -> f64 {
        let (x, y) = &self.batches[self.steps[arm] % POOL];
        self.steps[arm] += 1;
        let exec = &mut self.execs[arm];
        let (result, ms) = match tracer {
            None => {
                let t0 = Instant::now();
                let r = exec.step(x, y, LR);
                (r, t0.elapsed().as_secs_f64() * 1e3)
            }
            Some(t) => {
                let sink = TraceSink::new();
                let span = t.begin(format!("step {}", self.steps[arm]), "step");
                let t0 = Instant::now();
                let r = exec.step_traced(x, y, LR, &sink);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                for ev in sink.take() {
                    if let Event::Span { name, phase, ts_ns, dur_ns, .. } = ev {
                        t.child(&format!("{name}.{}", phase.label()), "tensor", ts_ns, dur_ns);
                    }
                }
                t.end(span);
                (r, ms)
            }
        };
        match result {
            Ok(stats) if stats.loss.is_finite() => {
                self.loss_bits[arm].push(stats.loss.to_bits());
                self.peak[arm] = self.peak[arm].max(stats.peak_live_bytes);
            }
            _ => {
                self.loss_bits[arm].push(f32::NAN.to_bits());
                self.errors += 1;
            }
        }
        ms
    }

    /// One traced step per arm: the static predictor's peak (fed the SSDC
    /// stash sizes that step observed, the one data-dependent input under
    /// the heap policy) over the peak the step reported.
    fn predicted_over_observed(&mut self) -> [f64; 3] {
        let pool = Arc::clone(&self.pool);
        gist::par::with_pool(&pool, || {
            let mut out = [0.0; 3];
            for (arm, mode) in modes().iter().enumerate() {
                let (x, y) = &self.batches[self.steps[arm] % POOL];
                let sink = TraceSink::new();
                let stats = self.execs[arm].step_traced(x, y, LR, &sink).expect("traced step");
                out[arm] =
                    predicted_peak(self.cfg.policy, self.execs[arm].graph(), mode, &sink.take())
                        as f64
                        / stats.peak_live_bytes as f64;
            }
            out
        })
    }
}

/// The static predictor's peak for one step of `graph` under `mode`, fed
/// the SSDC stash sizes a traced step observed.
pub fn predicted_peak(
    policy: AllocPolicy,
    graph: &Graph,
    mode: &ExecMode,
    events: &[Event],
) -> u64 {
    predicted_peak_bytes_granular(
        graph,
        mode,
        policy,
        &ssdc_stash_sizes(events),
        None,
        PlanGranularity::Event,
    )
    .expect("predictor accepts the graph")
}

impl Workload for Train {
    fn units_per_iter(&self) -> f64 {
        self.cfg.batch as f64
    }

    fn round(&mut self, arm: usize, tracer: Option<&mut Tracer>, iter_ms: &mut Vec<f64>) {
        self.steps_of(arm, self.cfg.steps_per_round, tracer, iter_ms);
    }

    fn finish(&mut self, report: &mut Report) -> [f64; 3] {
        report.attempted += self.steps.iter().sum::<usize>() as u64;
        for _ in 0..self.errors {
            report.fail("a step errored or produced a non-finite loss".into());
        }
        // Lossless must be bit-exact against the baseline at every step
        // (the arms may be a round apart; compare the steps both took).
        let n = self.loss_bits[0].len().min(self.loss_bits[1].len());
        let diverged = (0..n).filter(|&i| self.loss_bits[0][i] != self.loss_bits[1][i]).count();
        if diverged > 0 {
            report.fail(format!("lossless loss bits differ from baseline at {diverged}/{n} steps"));
        }
        let last = self.loss_bits[0].len().min(self.loss_bits[2].len()) - 1;
        let (base, fp8) =
            (f32::from_bits(self.loss_bits[0][last]), f32::from_bits(self.loss_bits[2][last]));
        if !fp8.is_finite() || (fp8 - base).abs() > FP8_LOSS_TOLERANCE {
            report.fail(format!(
                "fp8 loss {fp8} vs baseline {base} at step {last}: beyond {FP8_LOSS_TOLERANCE}"
            ));
        }
        println!(
            "check: lossless == baseline loss bits over {n} steps ({diverged} differ); fp8 loss \
             {fp8:.6} vs baseline {base:.6} at step {last} (tolerance {FP8_LOSS_TOLERANCE})"
        );
        let ratios = self.predicted_over_observed();
        println!("check: predicted / observed peak per arm = {ratios:?} (must be 1)");
        for (arm, ratio) in ratios.into_iter().enumerate() {
            if ratio != 1.0 {
                report.fail(format!("{}: predicted / observed peak = {ratio}", ARMS[arm]));
            }
        }
        self.peak.map(|p| p as f64)
    }
}
