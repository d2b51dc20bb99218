//! What every workload has in common: three arms run in interleaved
//! rounds by one closed-loop client, and the statistics taken over them.
//!
//! Every workload has the same three arms so that every run can report
//! every metric `BENCHMARK.json` lists:
//!
//! | arm        | train_conv / train_stash | exchange_mlp          | serve_churn      |
//! |------------|--------------------------|-----------------------|------------------|
//! | `ref`      | `ExecMode::Baseline`     | in-process, codec none| all jobs baseline|
//! | `lossless` | `GistConfig::lossless()` | loopback TCP, raw     | all jobs lossless|
//! | `lossy`    | `GistConfig::lossy(Fp8)` | loopback TCP, dpr:8   | all jobs fp8     |
//!
//! Interleaving the arms round by round, with the order rotated, puts
//! slow drift of the host (frequency, a noisy neighbour) into every arm
//! alike, so the ratio of an arm to `ref` is far steadier than either
//! throughput alone.

use crate::alloc::alloc_calls;
use crate::metrics::{MetricSpec, Report};
use crate::span::{in_span, Tracer};
use crate::stats::{median, tail, undisturbed};
use std::time::Instant;

pub const ARMS: [&str; 3] = ["ref", "lossless", "lossy"];

/// A workload after set-up: inputs built from the seed, every arm
/// constructed and warmed up. Building one is what `setup_s` times.
pub trait Workload {
    /// Units of work (samples or jobs) one iteration completes.
    fn units_per_iter(&self) -> f64;

    /// Runs one round of `arm` and appends the wall time of each of its
    /// iterations (steps or serve cycles), in milliseconds, to `iter_ms`.
    /// With a tracer the iterations are traced: one `step` span each, with
    /// whatever spans the program itself reports as children.
    fn round(&mut self, arm: usize, tracer: Option<&mut Tracer>, iter_ms: &mut Vec<f64>);

    /// After the timed region: checks the outputs, counts attempted and
    /// failed operations into `report`, and returns the arm's `bytes_*`
    /// metric (footprint, wire bytes or lease bytes).
    fn finish(&mut self, report: &mut Report) -> [f64; 3];

    /// After a traced run: sets the per-layer metrics only this workload
    /// can measure (the `net.*` byte counts, the `serve.*` tick counts).
    fn per_layer(&mut self, _stats: &LoopStats, _report: &mut Report) {}
}

/// Per-layer metrics that exist on one workload only. On the others the
/// layer is not on the path and the metric reads 0.
const OFF_PATH_ZERO: [&str; 9] = [
    "net.exchange_share_",
    "net.observed_bytes_per_step_",
    "net.priced_bytes_per_step_",
    "serve.step_share_",
    "serve.ticks_",
    "serve.admissions_",
    "serve.parks_",
    "serve.parked_wire_bytes_peak_",
    "serve.submit_share",
];

/// Samples of one run of the interleaved loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Wall time of every untraced iteration, per arm, in milliseconds.
    pub iter_ms: [Vec<f64>; 3],
    /// Wall time of every traced iteration, per arm.
    pub traced_iter_ms: [Vec<f64>; 3],
    /// Heap allocations of every untraced round divided by its iterations.
    pub allocs_per_iter: [Vec<f64>; 3],
}

/// Runs rounds until `seconds` have passed (and at least two, one of each
/// kind in a traced run). In a traced run every other round is traced;
/// the untraced rounds between them give the times the tracing overhead
/// is measured against.
pub fn run_loop(
    w: &mut dyn Workload,
    name: &str,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    in_span(tracer, name, "workload", |mut tracer| {
        let mut round = 0usize;
        while round < 2 || start.elapsed().as_secs_f64() < seconds {
            if tracer.is_some() && round.is_multiple_of(2) {
                in_span(tracer.as_deref_mut(), format!("round {round}"), "round", |mut t| {
                    for k in 0..3 {
                        let arm = (round + k) % 3;
                        let mut iters = Vec::new();
                        in_span(t.as_deref_mut(), ARMS[arm], "arm", |t| {
                            w.round(arm, t, &mut iters)
                        });
                        stats.traced_iter_ms[arm].extend(iters);
                    }
                });
            } else {
                for k in 0..3 {
                    let arm = (round + k) % 3;
                    let mut iters = Vec::new();
                    let allocs = alloc_calls(|| w.round(arm, None, &mut iters));
                    stats.allocs_per_iter[arm].push(allocs as f64 / iters.len().max(1) as f64);
                    stats.iter_ms[arm].extend(iters);
                }
            }
            round += 1;
        }
    });
    stats
}

/// Sets every unset [`OFF_PATH_ZERO`] metric of `specs` to 0.
pub fn zero_off_path(specs: &[MetricSpec], report: &mut Report) {
    for m in specs {
        let off_path = OFF_PATH_ZERO.iter().any(|p| m.name.starts_with(p));
        if off_path && report.get(&m.name).is_none() {
            report.set(&m.name, 0.0);
            report.note(&m.name, "layer not on this workload's path".into());
        }
    }
}

impl LoopStats {
    /// The end-to-end metrics the loop gives: throughput per arm (units of
    /// one iteration over the undisturbed iteration time) and the slowdown
    /// of each Gist arm (its undisturbed iteration time over `ref`'s). See
    /// [`undisturbed`] for why not the median; the median and the tail are
    /// per-layer metrics of the traced run.
    pub fn end_to_end(&self, units_per_iter: f64, report: &mut Report) {
        let fast: Vec<f64> = self.iter_ms.iter().map(|ms| undisturbed(ms)).collect();
        for (arm, name) in ARMS.iter().enumerate() {
            report.set(&format!("work_per_s_{name}"), units_per_iter / (fast[arm] / 1e3));
            report.note(
                &format!("work_per_s_{name}"),
                format!(
                    "{} iterations: p10 {:.3} ms, p50 {:.3} ms",
                    self.iter_ms[arm].len(),
                    fast[arm],
                    median(&self.iter_ms[arm])
                ),
            );
            if arm > 0 {
                report.set(&format!("slowdown_{name}"), fast[arm] / fast[0]);
            }
        }
    }

    /// The loop-level per-layer metrics of a traced run.
    pub fn per_layer(&self, report: &mut Report) {
        let mut overhead = Vec::new();
        for (arm, name) in ARMS.iter().enumerate() {
            let p50 = median(&self.iter_ms[arm]);
            let (pct, value) = tail(&self.iter_ms[arm]);
            report.set(&format!("loop.iter_ms_p50_{name}"), p50);
            report.set(&format!("loop.iter_ms_tail_{name}"), value);
            report.note(
                &format!("loop.iter_ms_tail_{name}"),
                format!("p{pct} of {} iterations", self.iter_ms[arm].len()),
            );
            report.set(&format!("loop.allocs_per_iter_{name}"), median(&self.allocs_per_iter[arm]));
            overhead.push(median(&self.traced_iter_ms[arm]) / p50);
        }
        report.set("loop.trace_overhead", median(&overhead));
    }
}
