//! Multi-epoch SGD training loop with accuracy tracking.

use crate::data::SyntheticImages;
use crate::exec::Executor;
use crate::spec::ExecMode;
use crate::RuntimeError;
use gist_graph::Graph;

/// Learning-rate schedule over epochs.
///
/// The ImageNet training recipes behind the paper's networks step the rate
/// down as training progresses (e.g., AlexNet divides by 10 when the
/// validation error plateaus).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f32),
    /// Multiply by `factor` every `every_epochs` epochs.
    StepDecay {
        /// Rate for epoch 0.
        initial: f32,
        /// Multiplier applied at each step (e.g., 0.1).
        factor: f32,
        /// Epochs between steps.
        every_epochs: usize,
    },
}

impl LrSchedule {
    /// Learning rate for a (0-based) epoch.
    pub fn rate_at(&self, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::StepDecay { initial, factor, every_epochs } => {
                initial * factor.powi((epoch / every_epochs.max(1)) as i32)
            }
        }
    }
}

/// Aggregated statistics for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean minibatch loss over the epoch.
    pub mean_loss: f64,
    /// Top-1 training accuracy over the epoch.
    pub accuracy: f64,
}

impl EpochStats {
    /// Training accuracy *loss* in percent — the y-axis of Figure 12
    /// (100% at the start of training, falling as the network learns).
    pub fn accuracy_loss_pct(&self) -> f64 {
        100.0 * (1.0 - self.accuracy)
    }
}

/// Full training trajectory.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Label of the configuration trained (e.g., `Baseline-FP32`).
    pub label: String,
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
}

impl TrainReport {
    /// Final-epoch accuracy.
    pub fn final_accuracy(&self) -> f64 {
        self.epochs.last().map(|e| e.accuracy).unwrap_or(0.0)
    }

    /// Maximum absolute per-epoch accuracy deviation from another run —
    /// how far two training curves are from overlapping in Figure 12.
    pub fn max_accuracy_deviation(&self, other: &TrainReport) -> f64 {
        self.epochs
            .iter()
            .zip(&other.epochs)
            .map(|(a, b)| (a.accuracy - b.accuracy).abs())
            .fold(0.0, f64::max)
    }
}

/// Trains `graph` for `epochs` epochs of `batches_per_epoch` minibatches of
/// size `batch` on a fresh copy of the dataset (re-seeded identically so
/// every mode sees the same sample stream). `noise` sets the dataset's
/// per-pixel noise amplitude — higher values make the task harder and the
/// accuracy curves more gradual.
///
/// # Errors
///
/// Propagates executor failures.
#[allow(clippy::too_many_arguments)]
pub fn train(
    graph: Graph,
    mode: ExecMode,
    label: impl Into<String>,
    dataset_seed: u64,
    param_seed: u64,
    epochs: usize,
    batches_per_epoch: usize,
    batch: usize,
    lr: f32,
    noise: f32,
) -> Result<TrainReport, RuntimeError> {
    let mut exec = Executor::new(graph, mode, param_seed)?;
    let mut ds = SyntheticImages::for_graph(exec.graph(), noise, dataset_seed)?;
    train_loop(
        &mut exec,
        &mut ds,
        label,
        epochs,
        batches_per_epoch,
        batch,
        LrSchedule::Constant(lr),
    )
}

/// Like [`train`] but with an explicit learning-rate schedule; `train` is
/// the `LrSchedule::Constant` special case.
///
/// # Errors
///
/// Propagates executor failures.
pub fn train_loop(
    exec: &mut Executor,
    ds: &mut SyntheticImages,
    label: impl Into<String>,
    epochs: usize,
    batches_per_epoch: usize,
    batch: usize,
    schedule: LrSchedule,
) -> Result<TrainReport, RuntimeError> {
    train_loop_traced(
        exec,
        ds,
        label,
        epochs,
        batches_per_epoch,
        batch,
        schedule,
        &gist_obs::NullRecorder,
    )
}

/// [`train_loop`] with execution tracing: every step's events are recorded
/// into `rec` (see [`Executor::step_traced`]). The untraced loop delegates
/// here with a disabled recorder.
///
/// # Errors
///
/// Propagates executor failures.
#[allow(clippy::too_many_arguments)]
pub fn train_loop_traced(
    exec: &mut Executor,
    ds: &mut SyntheticImages,
    label: impl Into<String>,
    epochs: usize,
    batches_per_epoch: usize,
    batch: usize,
    schedule: LrSchedule,
    rec: &dyn gist_obs::Recorder,
) -> Result<TrainReport, RuntimeError> {
    let mut report = TrainReport { label: label.into(), epochs: Vec::with_capacity(epochs) };
    for epoch in 0..epochs {
        let lr = schedule.rate_at(epoch);
        let mut loss_sum = 0.0f64;
        let mut correct = 0usize;
        let mut seen = 0usize;
        for _ in 0..batches_per_epoch {
            let (x, y) = ds.minibatch(batch);
            let stats = exec.step_traced(&x, &y, lr, rec)?;
            loss_sum += stats.loss as f64;
            correct += stats.correct;
            seen += stats.batch;
        }
        report.epochs.push(EpochStats {
            epoch,
            mean_loss: loss_sum / batches_per_epoch as f64,
            accuracy: correct as f64 / seen as f64,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_core::GistConfig;

    #[test]
    fn baseline_learns_the_synthetic_task() {
        let report = train(
            gist_models::tiny_convnet(8, 3),
            ExecMode::Baseline,
            "Baseline-FP32",
            42,
            7,
            4,
            20,
            8,
            0.05,
            0.3,
        )
        .unwrap();
        assert_eq!(report.epochs.len(), 4);
        assert!(
            report.final_accuracy() > 0.8,
            "tiny net should learn synthetic task, got {:.2}",
            report.final_accuracy()
        );
        assert!(report.epochs[0].accuracy < report.final_accuracy() + 1e-9);
    }

    #[test]
    fn lossless_gist_curve_is_identical_to_baseline() {
        let base = train(
            gist_models::tiny_convnet(8, 3),
            ExecMode::Baseline,
            "Baseline-FP32",
            42,
            7,
            2,
            10,
            8,
            0.05,
            0.3,
        )
        .unwrap();
        let gist = train(
            gist_models::tiny_convnet(8, 3),
            ExecMode::Gist(GistConfig::lossless()),
            "Gist-Lossless",
            42,
            7,
            2,
            10,
            8,
            0.05,
            0.3,
        )
        .unwrap();
        assert_eq!(base.max_accuracy_deviation(&gist), 0.0);
        for (a, b) in base.epochs.iter().zip(&gist.epochs) {
            assert_eq!(a.mean_loss, b.mean_loss);
        }
    }

    #[test]
    fn lr_schedule_steps_down() {
        let s = LrSchedule::StepDecay { initial: 0.1, factor: 0.1, every_epochs: 2 };
        assert_eq!(s.rate_at(0), 0.1);
        assert_eq!(s.rate_at(1), 0.1);
        assert!((s.rate_at(2) - 0.01).abs() < 1e-9);
        assert!((s.rate_at(4) - 0.001).abs() < 1e-9);
        assert_eq!(LrSchedule::Constant(0.05).rate_at(7), 0.05);
    }

    #[test]
    fn train_loop_with_decay_still_learns() {
        let mut exec =
            crate::exec::Executor::new(gist_models::tiny_convnet(8, 3), ExecMode::Baseline, 7)
                .unwrap();
        let mut ds = crate::data::SyntheticImages::new(3, 16, 0.3, 42);
        let report = train_loop(
            &mut exec,
            &mut ds,
            "decayed",
            4,
            15,
            8,
            LrSchedule::StepDecay { initial: 0.1, factor: 0.5, every_epochs: 2 },
        )
        .unwrap();
        assert!(report.final_accuracy() > 0.8, "{:.2}", report.final_accuracy());
    }

    #[test]
    fn accuracy_loss_metric() {
        let e = EpochStats { epoch: 0, mean_loss: 1.0, accuracy: 0.78 };
        assert!((e.accuracy_loss_pct() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn traced_loop_records_steps_without_changing_results() {
        let fresh = || {
            crate::exec::Executor::new(gist_models::tiny_convnet(4, 3), ExecMode::Baseline, 7)
                .unwrap()
        };
        let mut a = fresh();
        let mut da = crate::data::SyntheticImages::new(3, 16, 0.3, 42);
        let plain =
            train_loop(&mut a, &mut da, "plain", 1, 3, 4, LrSchedule::Constant(0.05)).unwrap();
        let mut b = fresh();
        let mut db = crate::data::SyntheticImages::new(3, 16, 0.3, 42);
        let sink = gist_obs::TraceSink::new();
        let traced = train_loop_traced(
            &mut b,
            &mut db,
            "traced",
            1,
            3,
            4,
            LrSchedule::Constant(0.05),
            &sink,
        )
        .unwrap();
        assert_eq!(plain.epochs[0].mean_loss, traced.epochs[0].mean_loss);
        let events = sink.take();
        let spans = events.iter().filter(|e| matches!(e, gist_obs::Event::Span { .. })).count();
        // 3 steps x (forward + backward spans for each non-input node).
        assert!(spans > 0 && spans % 3 == 0, "span count {spans} should cover 3 steps");
    }
}
