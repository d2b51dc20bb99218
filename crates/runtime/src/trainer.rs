//! Multi-epoch SGD training loop with accuracy tracking.

use crate::data::SyntheticImages;
use crate::exec::Executor;
use crate::spec::ExecMode;
use crate::RuntimeError;
use gist_graph::Graph;

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
    let mut report = TrainReport { label: label.into(), epochs: Vec::with_capacity(epochs) };
    for epoch in 0..epochs {
        let mut loss_sum = 0.0f64;
        let mut correct = 0usize;
        let mut seen = 0usize;
        for _ in 0..batches_per_epoch {
            let (x, y) = ds.minibatch(batch);
            let stats = exec.step(&x, &y, lr)?;
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
    fn accuracy_loss_metric() {
        let e = EpochStats { epoch: 0, mean_loss: 1.0, accuracy: 0.78 };
        assert!((e.accuracy_loss_pct() - 22.0).abs() < 1e-9);
    }
}
