//! Automatic DPR format selection — the Section V-D1 methodology as an API.
//!
//! The paper chose each network's DPR format by training with FP16, FP10
//! and FP8 and keeping the smallest whose accuracy matched FP32 ("the
//! minimum acceptable precision is network dependent": FP8 for AlexNet and
//! Overfeat, FP10 for Inception, FP16 for VGG16). This module automates
//! that search: short pilot trainings under each candidate, compared
//! against an FP32 pilot on the identical sample stream.

use crate::spec::ExecMode;
use crate::trainer::{train, TrainReport};
use crate::RuntimeError;
use gist_core::GistConfig;
use gist_encodings::DprFormat;
use gist_graph::Graph;

/// Pilot-training budget and acceptance threshold for the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotuneConfig {
    /// Epochs per pilot run.
    pub epochs: usize,
    /// Minibatches per epoch.
    pub batches_per_epoch: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Dataset noise amplitude.
    pub noise: f32,
    /// Maximum tolerated per-epoch accuracy deviation from the FP32 pilot.
    pub max_accuracy_deviation: f64,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            epochs: 4,
            batches_per_epoch: 25,
            batch: 8,
            lr: 0.05,
            noise: 0.5,
            max_accuracy_deviation: 0.1,
        }
    }
}

/// Result of the format search.
#[derive(Debug, Clone)]
pub struct AutotuneResult {
    /// The smallest accepted format, or `None` if even FP16 deviated.
    pub selected: Option<DprFormat>,
    /// `(format, max accuracy deviation, accepted)` per candidate tried.
    pub candidates: Vec<(DprFormat, f64, bool)>,
    /// The FP32 reference pilot.
    pub reference: TrainReport,
}

/// Searches FP16 → FP10 → FP8 and returns the smallest format whose pilot
/// training tracks the FP32 pilot within the configured deviation.
///
/// # Errors
///
/// Propagates training failures.
pub fn select_dpr_format(
    graph: &Graph,
    seeds: (u64, u64),
    config: AutotuneConfig,
) -> Result<AutotuneResult, RuntimeError> {
    let pilot = |mode: ExecMode, label: &str| {
        train(
            graph.clone(),
            mode,
            label,
            seeds.0,
            seeds.1,
            config.epochs,
            config.batches_per_epoch,
            config.batch,
            config.lr,
            config.noise,
        )
    };
    let reference = pilot(ExecMode::Baseline, "fp32-pilot")?;
    let mut candidates = Vec::new();
    let mut selected = None;
    for fmt in [DprFormat::Fp16, DprFormat::Fp10, DprFormat::Fp8] {
        let run = pilot(ExecMode::Gist(GistConfig::lossy(fmt)), fmt.label())?;
        let dev = run.max_accuracy_deviation(&reference);
        let accepted = dev <= config.max_accuracy_deviation;
        candidates.push((fmt, dev, accepted));
        if accepted {
            selected = Some(fmt); // keep going: prefer the smallest accepted
        } else {
            break; // formats only get smaller/noisier from here
        }
    }
    Ok(AutotuneResult { selected, candidates, reference })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_fp8_on_the_easy_synthetic_task() {
        // On the easy task every DPR format tracks FP32, so the search
        // should descend all the way to FP8 — matching the paper's result
        // for AlexNet/Overfeat-class workloads.
        let cfg = AutotuneConfig {
            epochs: 2,
            batches_per_epoch: 10,
            batch: 8,
            lr: 0.05,
            noise: 0.3,
            max_accuracy_deviation: 0.15,
        };
        let r = select_dpr_format(&gist_models::tiny_convnet(8, 3), (42, 7), cfg).unwrap();
        assert_eq!(r.selected, Some(DprFormat::Fp8), "{:?}", r.candidates);
        assert_eq!(r.candidates.len(), 3);
        assert!(r.candidates.iter().all(|(_, _, ok)| *ok));
    }

    #[test]
    fn zero_tolerance_rejects_lossy_formats() {
        // DPR is lossy; with a zero deviation budget nothing (except by
        // rare luck) passes, and the search reports None gracefully.
        let cfg = AutotuneConfig {
            epochs: 2,
            batches_per_epoch: 12,
            batch: 8,
            lr: 0.1,
            noise: 1.2,
            max_accuracy_deviation: 0.0,
        };
        let r = select_dpr_format(&gist_models::small_vgg(8, 8), (42, 7), cfg).unwrap();
        // Either nothing accepted, or — if FP16 happens to be bit-identical
        // on this short pilot — the selection is consistent with candidates.
        match r.selected {
            None => assert!(!r.candidates[0].2),
            Some(f) => assert!(r.candidates.iter().any(|(cf, _, ok)| *cf == f && *ok)),
        }
    }
}
