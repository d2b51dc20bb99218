//! The one configuration value of a training step: [`ExecSpec`], its four
//! independently settable axes, and the one spelling table per axis that
//! every front end (CLI flags, serve job specs, bench harnesses) parses
//! and prints through.

use gist_core::GistConfig;
use gist_encodings::DprFormat;
use gist_memory::PlanGranularity;
use gist_offload::{OffloadMode, SwapStrategy};

/// How the executor stashes feature maps for the backward pass.
#[derive(Debug, Clone)]
pub enum ExecMode {
    /// FP32 stashes everywhere (the CNTK baseline).
    Baseline,
    /// Gist encodings chosen by the Schedule Builder's policy.
    Gist(GistConfig),
    /// The Figure 12 strawman: every feature map and gradient map is
    /// quantized to the given format *immediately* when produced, so
    /// quantization error propagates through the forward pass.
    UniformImmediate(DprFormat),
}

impl ExecMode {
    /// Parses `baseline|lossless|fp16|fp10|fp8` (the `--mode` / `mode=`
    /// spelling) plus `uniform-immediate` for Figure 12's All-FP16 strawman.
    pub fn parse(s: &str) -> Option<ExecMode> {
        Some(match s.trim().to_ascii_lowercase().as_str() {
            "baseline" => ExecMode::Baseline,
            "lossless" => ExecMode::Gist(GistConfig::lossless()),
            "fp16" => ExecMode::Gist(GistConfig::lossy(DprFormat::Fp16)),
            "fp10" => ExecMode::Gist(GistConfig::lossy(DprFormat::Fp10)),
            "fp8" => ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8)),
            "uniform-immediate" => ExecMode::UniformImmediate(DprFormat::Fp16),
            _ => return None,
        })
    }

    /// Display label; [`ExecMode::parse`] accepts every label this prints.
    /// (A mode is labelled by its kind and DPR format alone, so only the
    /// canonical configs `parse` builds round-trip exactly.)
    pub fn label(&self) -> &'static str {
        match self {
            ExecMode::Baseline => "baseline",
            ExecMode::Gist(cfg) => match cfg.dpr {
                None => "lossless",
                Some(DprFormat::Fp16) => "fp16",
                Some(DprFormat::Fp10) => "fp10",
                Some(DprFormat::Fp8) => "fp8",
            },
            ExecMode::UniformImmediate(_) => "uniform-immediate",
        }
    }
}

/// Where the executor's step buffers live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Every buffer is a fresh heap allocation (the original discipline).
    /// A production path — the default, and what the repo benchmark's
    /// `train_stash` workload runs — as well as the differential-testing
    /// reference for the arena.
    #[default]
    Heap,
    /// All step buffers resolve to planned offsets inside one slab packed
    /// by `gist-memory` before the first kernel runs. Sizes are
    /// [`gist_memory::align_arena`]-rounded reservations; SSDC stash regions
    /// reserve the data-independent worst case.
    Arena,
}

impl AllocPolicy {
    /// Parses `heap|arena` (the `--alloc` / `alloc=` spelling).
    pub fn parse(s: &str) -> Option<AllocPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "heap" => Some(AllocPolicy::Heap),
            "arena" => Some(AllocPolicy::Arena),
            _ => None,
        }
    }

    /// Display label (inverse of [`AllocPolicy::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            AllocPolicy::Heap => "heap",
            AllocPolicy::Arena => "arena",
        }
    }
}

/// Parses `none|recompute|swap|swap:naive|swap:vdnn|swap:cdma` (the
/// `--offload` spelling; bare `swap` is vDNN, cDMA assumes the paper's 2x
/// compression for the simulated clock).
pub fn parse_offload(s: &str) -> Option<OffloadMode> {
    Some(match s.trim().to_ascii_lowercase().as_str() {
        "none" => OffloadMode::None,
        "recompute" => OffloadMode::Recompute,
        "swap" | "swap:vdnn" => OffloadMode::Swap(SwapStrategy::Vdnn),
        "swap:naive" => OffloadMode::Swap(SwapStrategy::Naive),
        "swap:cdma" => OffloadMode::Swap(SwapStrategy::Cdma { compression: 2.0 }),
        _ => return None,
    })
}

/// Display label of an offload mechanism; [`parse_offload`] accepts it.
pub fn offload_label(mode: OffloadMode) -> &'static str {
    match mode {
        OffloadMode::None => "none",
        OffloadMode::Recompute => "recompute",
        OffloadMode::Swap(SwapStrategy::Naive) => "swap:naive",
        OffloadMode::Swap(SwapStrategy::Vdnn) => "swap:vdnn",
        OffloadMode::Swap(SwapStrategy::Cdma { .. }) => "swap:cdma",
    }
}

/// Everything that decides what a training step does to memory: the stash
/// mode, where buffers live, how finely the arena resolves lifetimes, and
/// the offload mechanism. [`crate::StepProgram::lower`] turns a graph and
/// one of these into the step both the executor and the predictor consume.
///
/// `ExecMode` converts into the all-default spec (heap, event-granular,
/// resident), so `Executor::new(graph, mode, seed)` keeps reading as it
/// always has.
#[derive(Debug, Clone)]
pub struct ExecSpec {
    /// Stash mode.
    pub mode: ExecMode,
    /// Where step buffers live.
    pub alloc: AllocPolicy,
    /// Arena lifetime granularity: under `Wave` every buffer of a wave is
    /// planned concurrently live and arena waves run on the `gist-par`
    /// pool; under `Event` they are serialized. Ignored by the heap policy.
    pub plan: PlanGranularity,
    /// Offload mechanism for the stashes the encodings left dense.
    pub offload: OffloadMode,
}

impl ExecSpec {
    /// This spec under the arena policy — what an admission controller
    /// prices a lease from whatever policy the job then runs under.
    pub fn arena(mut self) -> ExecSpec {
        self.alloc = AllocPolicy::Arena;
        self
    }
}

impl From<ExecMode> for ExecSpec {
    fn from(mode: ExecMode) -> ExecSpec {
        ExecSpec {
            mode,
            alloc: AllocPolicy::Heap,
            plan: PlanGranularity::Event,
            offload: OffloadMode::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_accepted_spelling_round_trips_through_its_label() {
        for s in ["baseline", "lossless", "fp16", "fp10", "fp8", "uniform-immediate"] {
            assert_eq!(ExecMode::parse(s).unwrap().label(), s);
        }
        assert_eq!(ExecMode::parse(" FP8 ").unwrap().label(), "fp8");
        for s in ["heap", "arena"] {
            assert_eq!(AllocPolicy::parse(s).unwrap().label(), s);
        }
        for s in ["event", "wave"] {
            assert_eq!(PlanGranularity::parse(s).unwrap().label(), s);
        }
        for s in ["none", "recompute", "swap:naive", "swap:vdnn", "swap:cdma"] {
            assert_eq!(offload_label(parse_offload(s).unwrap()), s);
        }
        assert_eq!(offload_label(parse_offload("swap").unwrap()), "swap:vdnn");
        for garbage in ["", "fast", "fp12", "fp", "stack", "swap:dma"] {
            assert!(ExecMode::parse(garbage).is_none(), "{garbage}");
            assert!(AllocPolicy::parse(garbage).is_none(), "{garbage}");
            assert!(parse_offload(garbage).is_none(), "{garbage}");
        }
    }
}
