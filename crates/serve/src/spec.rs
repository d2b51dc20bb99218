//! Training-job specifications: a validated builder plus the CLI spec
//! grammar.
//!
//! The builder validates each field at [`JobSpecBuilder::build`] time and
//! names the offending field in its error, so an invalid spec can never
//! reach the scheduler. The string grammar ([`JobSpec::parse`]) is the
//! CLI-facing spelling: `model[,key=value]*`. Garbage *values* for known
//! keys fall back to the field default with a warning (the workspace-wide
//! [`gist_par::parse_or_warn`] policy, shared with `GIST_THREADS` and
//! `GIST_SIMD`); an unknown *model* is a hard error, because there is no
//! sensible model to fall back to.

use gist_core::GistConfig;
use gist_encodings::TransferCodec;
use gist_graph::Graph;
use gist_par::parse_or_warn;
use gist_runtime::{AllocPolicy, ExecMode, ExecSpec, OffloadMode, PlanGranularity};

/// An invalid job specification, naming what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The model name is not in [`gist_models::MODEL_NAMES`].
    UnknownModel(String),
    /// A field failed validation.
    Invalid {
        /// Which builder field.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownModel(m) => {
                write!(
                    f,
                    "unknown model {m:?}; expected one of {}",
                    gist_models::MODEL_NAMES.join("|")
                )
            }
            SpecError::Invalid { field, reason } => write!(f, "invalid {field}: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One training job as the scheduler sees it. Construct via
/// [`JobSpec::builder`] (typed) or [`JobSpec::parse`] (CLI grammar); both
/// run the same validation, so every `JobSpec` in existence is runnable.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name (defaults to the model name).
    pub name: String,
    /// Canonical zoo model name.
    pub model: String,
    /// Per-shard minibatch size.
    pub batch: usize,
    /// Global training steps to run.
    pub steps: usize,
    /// Lockstep model replicas (= micro-batch shards per step).
    pub replicas: usize,
    /// Allocation policy for every replica executor.
    pub alloc: AllocPolicy,
    /// Plan granularity for every replica's arena (and its lease pricing):
    /// `Event` serializes arena waves, `Wave` leases the wave-conservative
    /// slab and runs them on the pool.
    pub plan: PlanGranularity,
    /// Execution mode (baseline or a Gist config).
    pub mode: ExecMode,
    /// Gradient codec on every all-reduce transfer.
    pub codec: TransferCodec,
    /// Parameter-init and dataset seed.
    pub seed: u64,
}

impl JobSpec {
    /// Starts a builder for `model`.
    pub fn builder(model: &str) -> JobSpecBuilder {
        JobSpecBuilder {
            name: None,
            model: model.to_string(),
            batch: 2,
            steps: 2,
            replicas: 1,
            alloc: AllocPolicy::Arena,
            plan: PlanGranularity::Event,
            mode: ExecMode::Gist(GistConfig::lossless()),
            codec: TransferCodec::None,
            seed: 7,
        }
    }

    /// Builds this job's execution graph at its batch size.
    ///
    /// # Panics
    ///
    /// Never for a spec that passed [`JobSpecBuilder::build`] (the model
    /// name was validated there).
    pub fn graph(&self) -> Graph {
        gist_models::by_name(&self.model, self.batch).expect("model validated at build time")
    }

    /// The execution spec every replica executor of this job is built from
    /// (and, under the arena policy, its lease is priced from). Jobs run
    /// fully resident: the grammar has no offload key.
    pub fn exec_spec(&self) -> ExecSpec {
        ExecSpec {
            mode: self.mode.clone(),
            alloc: self.alloc,
            plan: self.plan,
            offload: OffloadMode::None,
        }
    }

    /// Parses the CLI spec grammar `model[,key=value]*` with keys
    /// `name|batch|steps|replicas|codec|mode|alloc|plan|seed`. Returns the spec
    /// plus any warnings from garbage values that fell back to defaults.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for an unknown model or a field that fails builder
    /// validation — garbage *values* of known keys warn and fall back
    /// instead.
    pub fn parse(s: &str) -> Result<(JobSpec, Vec<String>), SpecError> {
        let mut parts = s.split(',');
        let model = parts.next().unwrap_or("").trim();
        let mut b = JobSpec::builder(model);
        let mut warnings = Vec::new();
        for part in parts {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=').unwrap_or((part, ""));
            let mut warn = |w: Option<String>| warnings.extend(w);
            match key.trim().to_ascii_lowercase().as_str() {
                "name" => b = b.name(value.trim()),
                "batch" => {
                    let (v, w) = parse_or_warn(
                        "gist-serve",
                        "batch",
                        Some(value),
                        "a positive integer",
                        "2",
                        |v| v.trim().parse::<usize>().ok().filter(|&n| n >= 1),
                        || 2,
                    );
                    warn(w);
                    b = b.batch(v);
                }
                "steps" => {
                    let (v, w) = parse_or_warn(
                        "gist-serve",
                        "steps",
                        Some(value),
                        "a positive integer",
                        "2",
                        |v| v.trim().parse::<usize>().ok().filter(|&n| n >= 1),
                        || 2,
                    );
                    warn(w);
                    b = b.steps(v);
                }
                "replicas" => {
                    let (v, w) = parse_or_warn(
                        "gist-serve",
                        "replicas",
                        Some(value),
                        "a positive integer",
                        "1",
                        |v| v.trim().parse::<usize>().ok().filter(|&n| n >= 1),
                        || 1,
                    );
                    warn(w);
                    b = b.replicas(v);
                }
                "codec" => {
                    let (v, w) = parse_or_warn(
                        "gist-serve",
                        "codec",
                        Some(value),
                        "none|ssdc|dpr:16|dpr:10|dpr:8",
                        "none",
                        TransferCodec::parse,
                        || TransferCodec::None,
                    );
                    warn(w);
                    b = b.codec(v);
                }
                "mode" => {
                    let (v, w) = parse_or_warn(
                        "gist-serve",
                        "mode",
                        Some(value),
                        "baseline|lossless|fp16|fp10|fp8",
                        "lossless",
                        ExecMode::parse,
                        || ExecMode::Gist(GistConfig::lossless()),
                    );
                    warn(w);
                    b = b.mode(v);
                }
                "alloc" => {
                    let (v, w) = parse_or_warn(
                        "gist-serve",
                        "alloc",
                        Some(value),
                        "heap|arena",
                        "arena",
                        AllocPolicy::parse,
                        || AllocPolicy::Arena,
                    );
                    warn(w);
                    b = b.alloc(v);
                }
                "plan" => {
                    let (v, w) = parse_or_warn(
                        "gist-serve",
                        "plan",
                        Some(value),
                        "event|wave",
                        "event",
                        PlanGranularity::parse,
                        || PlanGranularity::Event,
                    );
                    warn(w);
                    b = b.plan(v);
                }
                "seed" => {
                    let (v, w) = parse_or_warn(
                        "gist-serve",
                        "seed",
                        Some(value),
                        "an unsigned integer",
                        "7",
                        |v| v.trim().parse::<u64>().ok(),
                        || 7,
                    );
                    warn(w);
                    b = b.seed(v);
                }
                other => {
                    // Same policy, one level up: an unknown key is garbage
                    // spelling, so it warns and contributes nothing.
                    let (_, w) = parse_or_warn(
                        "gist-serve",
                        "job-spec key",
                        Some(other),
                        "name|batch|steps|replicas|codec|mode|alloc|plan|seed",
                        "ignoring it",
                        |_| None::<()>,
                        || (),
                    );
                    warn(w);
                }
            }
        }
        Ok((b.build()?, warnings))
    }
}

/// Builder for [`JobSpec`] with per-field validation at [`Self::build`].
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    name: Option<String>,
    model: String,
    batch: usize,
    steps: usize,
    replicas: usize,
    alloc: AllocPolicy,
    plan: PlanGranularity,
    mode: ExecMode,
    codec: TransferCodec,
    seed: u64,
}

impl JobSpecBuilder {
    /// Display name (defaults to the model name).
    pub fn name(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// Per-shard minibatch size (1..=64).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Global training steps (1..=100_000).
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Lockstep replicas (1..=8; each owns one micro-batch shard per step).
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Allocation policy.
    pub fn alloc(mut self, alloc: AllocPolicy) -> Self {
        self.alloc = alloc;
        self
    }

    /// Plan granularity (arena lifetime coarseness and lease pricing).
    pub fn plan(mut self, plan: PlanGranularity) -> Self {
        self.plan = plan;
        self
    }

    /// Execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Gradient codec for the all-reduce.
    pub fn codec(mut self, codec: TransferCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Parameter-init and dataset seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates every field and produces the spec.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownModel`] or [`SpecError::Invalid`] naming the
    /// first field out of range.
    pub fn build(self) -> Result<JobSpec, SpecError> {
        if gist_models::by_name(&self.model, 1).is_none() {
            return Err(SpecError::UnknownModel(self.model));
        }
        if self.batch == 0 || self.batch > 64 {
            return Err(SpecError::Invalid {
                field: "batch",
                reason: format!("{} not in 1..=64", self.batch),
            });
        }
        if self.steps == 0 || self.steps > 100_000 {
            return Err(SpecError::Invalid {
                field: "steps",
                reason: format!("{} not in 1..=100000", self.steps),
            });
        }
        if self.replicas == 0 || self.replicas > 8 {
            return Err(SpecError::Invalid {
                field: "replicas",
                reason: format!("{} not in 1..=8", self.replicas),
            });
        }
        Ok(JobSpec {
            name: self.name.unwrap_or_else(|| self.model.clone()),
            model: self.model,
            batch: self.batch,
            steps: self.steps,
            replicas: self.replicas,
            alloc: self.alloc,
            plan: self.plan,
            mode: self.mode,
            codec: self.codec,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_each_field_by_name() {
        let ok = JobSpec::builder("tiny-convnet").build().unwrap();
        assert_eq!((ok.name.as_str(), ok.batch, ok.steps, ok.replicas), ("tiny-convnet", 2, 2, 1));
        assert!(matches!(JobSpec::builder("resnet9000").build(), Err(SpecError::UnknownModel(_))));
        for (build, field) in [
            (JobSpec::builder("tiny-convnet").batch(0), "batch"),
            (JobSpec::builder("tiny-convnet").batch(65), "batch"),
            (JobSpec::builder("tiny-convnet").steps(0), "steps"),
            (JobSpec::builder("tiny-convnet").replicas(0), "replicas"),
            (JobSpec::builder("tiny-convnet").replicas(9), "replicas"),
        ] {
            match build.build() {
                Err(SpecError::Invalid { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected invalid {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_accepts_the_full_grammar() {
        let (spec, warnings) = JobSpec::parse(
            "small-vgg, name=svc, batch=4, steps=3, replicas=2, codec=ssdc, mode=baseline, \
             alloc=heap, plan=wave, seed=11",
        )
        .unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(spec.name, "svc");
        assert_eq!(spec.model, "small-vgg");
        assert_eq!((spec.batch, spec.steps, spec.replicas, spec.seed), (4, 3, 2, 11));
        assert_eq!(spec.codec, TransferCodec::Ssdc);
        assert!(matches!(spec.mode, ExecMode::Baseline));
        assert_eq!(spec.alloc, AllocPolicy::Heap);
        assert_eq!(spec.plan, PlanGranularity::Wave);
    }

    #[test]
    fn garbage_values_warn_and_fall_back() {
        let (spec, warnings) =
            JobSpec::parse("tiny-convnet,codec=zip,mode=turbo,steps=lots,bogus=1").unwrap();
        assert_eq!(warnings.len(), 4, "{warnings:?}");
        for w in &warnings {
            assert!(w.contains("gist-serve") && w.contains("invalid"), "{w}");
            assert!(w.contains("falling back"), "{w}");
        }
        // Every garbage field took its default.
        assert_eq!(spec.codec, TransferCodec::None);
        assert!(matches!(spec.mode, ExecMode::Gist(_)));
        assert_eq!(spec.steps, 2);
    }

    #[test]
    fn unknown_model_is_a_hard_error_not_a_fallback() {
        assert!(matches!(JobSpec::parse("warpdrive,steps=1"), Err(SpecError::UnknownModel(_))));
    }

    #[test]
    fn mode_spellings_roundtrip() {
        for s in ["baseline", "lossless", "fp16", "fp10", "fp8", "uniform-immediate"] {
            assert_eq!(ExecMode::parse(s).unwrap().label(), s);
        }
        assert!(ExecMode::parse("fast").is_none());
        assert!(AllocPolicy::parse("stack").is_none());
        // Garbage plan values fall back (with a warning) like every other
        // known key; the default stays event-granular.
        let (spec, warnings) = JobSpec::parse("tiny-convnet,plan=tick").unwrap();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert_eq!(spec.plan, PlanGranularity::Event);
    }
}
