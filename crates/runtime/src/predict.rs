//! Static prediction of the executor's memory behaviour: folds of the one
//! lowered [`StepProgram`] the executor itself interprets, so a predicted
//! stream is the observed stream by construction.
//!
//! - Under [`AllocPolicy::Heap`] sizes are exact, with one data-dependent
//!   input: SSDC stash sizes, which depend on the values being encoded and
//!   are supplied from observed [`gist_obs::Event::Encode`] events
//!   ([`ssdc_stash_sizes`]).
//! - Under [`AllocPolicy::Arena`] every size is the planned reservation, so
//!   the stream is fully static and is exactly what
//!   `gist_memory::Arena::from_events_granular` packs into the slab the
//!   executor then runs out of.
//!
//! Also here: the parameter-side bounds the serve layer prices parks with.

use crate::program::StepProgram;
use crate::spec::{AllocPolicy, ExecMode, ExecSpec};
use crate::RuntimeError;
use gist_graph::Graph;
use gist_memory::PlanGranularity;
use gist_obs::Event;
use gist_offload::{OffloadMode, OffloadPlan};
use std::collections::HashMap;

/// Extracts observed SSDC stash sizes (`node name -> encoded bytes`) from a
/// trace — the only data-dependent sizes a heap-policy fold needs.
pub fn ssdc_stash_sizes(events: &[Event]) -> HashMap<String, u64> {
    let mut sizes = HashMap::new();
    for ev in events {
        if let Event::Encode { name, codec, encoded_bytes, .. } = ev {
            if codec == "ssdc" {
                sizes.insert(name.clone(), *encoded_bytes);
            }
        }
    }
    sizes
}

/// A predicted event stream paired with its wave groups
/// ([`StepProgram::wave_groups`]).
pub type GranularEvents = (Vec<Event>, Vec<(usize, usize)>);

/// The spec the positional-axis shims below stand for.
fn positional_spec(
    mode: &ExecMode,
    policy: AllocPolicy,
    plan: Option<&OffloadPlan>,
    granularity: PlanGranularity,
) -> ExecSpec {
    let offload = plan.map_or(OffloadMode::None, |p| p.mode);
    ExecSpec { mode: mode.clone(), alloc: policy, plan: granularity, offload }
}

/// [`StepProgram::events`] and [`StepProgram::wave_groups`] of the step
/// lowered from four positional axes (the offload mechanism is the given
/// plan's). Kept for `benchmark/`; a later `benchmark` PR moves it to
/// [`ExecSpec`] and deletes this.
///
/// # Errors
///
/// As for [`StepProgram::lower`] and [`StepProgram::events`].
pub fn predict_step_events_granular(
    graph: &Graph,
    mode: &ExecMode,
    policy: AllocPolicy,
    ssdc_bytes: &HashMap<String, u64>,
    plan: Option<&OffloadPlan>,
    granularity: PlanGranularity,
) -> Result<GranularEvents, RuntimeError> {
    StepProgram::lower(graph, &positional_spec(mode, policy, plan, granularity))
        .and_then(|p| Ok((p.events(ssdc_bytes)?, p.wave_groups())))
}

/// [`StepProgram::peak_bytes`] of the step lowered from four positional
/// axes. Kept for `benchmark/`; a later `benchmark` PR moves it to
/// [`ExecSpec`] and deletes this.
///
/// # Errors
///
/// As for [`StepProgram::lower`] and [`StepProgram::peak_bytes`].
pub fn predicted_peak_bytes_granular(
    graph: &Graph,
    mode: &ExecMode,
    policy: AllocPolicy,
    ssdc_bytes: &HashMap<String, u64>,
    plan: Option<&OffloadPlan>,
    granularity: PlanGranularity,
) -> Result<u64, RuntimeError> {
    StepProgram::lower(graph, &positional_spec(mode, policy, plan, granularity))?
        .peak_bytes(ssdc_bytes)
}

/// Element count of every learned-parameter tensor, in
/// [`crate::params::ParamSet::tensors`] order — one entry per wire of a
/// [`crate::Snapshot`]. Shapes only — no parameter is initialized.
///
/// # Errors
///
/// Returns an error if the graph fails shape inference.
pub fn param_tensor_numels(graph: &Graph) -> Result<Vec<usize>, RuntimeError> {
    let shapes = crate::params::param_shapes(graph)?;
    Ok(shapes.iter().flatten().map(|shape| shape.numel()).collect())
}

/// Worst-case wire bytes for parking a job's learned parameters under
/// `codec`: the sum of [`gist_encodings::max_wire_bytes`] over every
/// parameter tensor. A parked job's observed host-store footprint is
/// bounded by this before it runs, so the admission controller can price
/// a park without executing anything.
///
/// # Errors
///
/// As for [`param_tensor_numels`].
pub fn predicted_param_wire_bytes(
    graph: &Graph,
    codec: gist_encodings::TransferCodec,
) -> Result<u64, RuntimeError> {
    Ok(param_tensor_numels(graph)?
        .into_iter()
        .map(|ne| gist_encodings::max_wire_bytes(ne, codec))
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticImages;
    use crate::exec::Executor;
    use gist_core::GistConfig;
    use gist_obs::TraceSink;

    fn observed_and_predicted(mode: ExecMode) -> (Vec<Event>, Vec<Event>) {
        let g = gist_models::small_vgg(4, 3);
        let mut e = Executor::new(g, mode, 5).unwrap();
        let mut ds = SyntheticImages::new(3, 16, 0.3, 42);
        let (x, y) = ds.minibatch(4);
        let sink = TraceSink::new();
        e.step_traced(&x, &y, 0.05, &sink).unwrap();
        let trace = sink.take();
        let ssdc = ssdc_stash_sizes(&trace);
        let predicted = e.program().events(&ssdc).unwrap();
        let observed: Vec<Event> = trace.into_iter().filter(|ev| ev.is_memory()).collect();
        (observed, predicted)
    }

    #[test]
    fn heap_stream_is_predicted_event_for_event() {
        for mode in [ExecMode::Baseline, ExecMode::Gist(GistConfig::lossless())] {
            let (observed, predicted) = observed_and_predicted(mode);
            assert_eq!(observed, predicted);
        }
    }

    #[test]
    fn predicted_peak_matches_executor_meter() {
        let g = gist_models::small_vgg(4, 3);
        let mode = ExecMode::Gist(GistConfig::lossless());
        let mut e = Executor::new(g.clone(), mode.clone(), 5).unwrap();
        let mut ds = SyntheticImages::new(3, 16, 0.3, 42);
        let (x, y) = ds.minibatch(4);
        let sink = TraceSink::new();
        let stats = e.step_traced(&x, &y, 0.05, &sink).unwrap();
        let ssdc = ssdc_stash_sizes(&sink.take());
        // Lowered independently of the executor that ran.
        let peak = StepProgram::lower(&g, &mode.into()).unwrap().peak_bytes(&ssdc).unwrap();
        assert_eq!(peak, stats.peak_live_bytes as u64);
    }

    #[test]
    fn arena_predicted_stream_matches_arena_observed() {
        let g = gist_models::small_vgg(4, 3);
        for mode in [ExecMode::Baseline, ExecMode::Gist(GistConfig::lossless())] {
            let spec = ExecSpec::from(mode.clone()).arena();
            let mut e = Executor::new(g.clone(), spec.clone(), 5).unwrap();
            let mut ds = SyntheticImages::new(3, 16, 0.3, 42);
            let (x, y) = ds.minibatch(4);
            let sink = TraceSink::new();
            let stats = e.step_traced(&x, &y, 0.05, &sink).unwrap();
            let observed: Vec<Event> =
                sink.take().into_iter().filter(|ev| ev.is_memory()).collect();
            // The arena stream is fully static: no observed sizes needed.
            let program = StepProgram::lower(&g, &spec).unwrap();
            let predicted = program.events(&HashMap::new()).unwrap();
            assert_eq!(observed, predicted, "arena stream divergence under {mode:?}");
            let peak = program.peak_bytes(&HashMap::new()).unwrap();
            assert_eq!(peak, stats.peak_live_bytes as u64);
            assert!(
                peak as usize <= e.arena_capacity_bytes().unwrap(),
                "peak cannot exceed the packed slab"
            );
        }
    }

    #[test]
    fn missing_ssdc_size_is_a_trace_error() {
        let g = gist_models::small_vgg(4, 3);
        let mode = ExecMode::Gist(GistConfig::lossless());
        let program = StepProgram::lower(&g, &mode.into()).unwrap();
        let err = program.events(&HashMap::new()).unwrap_err();
        assert!(matches!(err, RuntimeError::Trace(_)));
    }

    #[test]
    fn param_numels_are_shape_only_and_match_an_initialised_param_set() {
        use crate::params::ParamSet;
        use gist_tensor::Tensor;
        for name in gist_models::MODEL_NAMES {
            let g = gist_models::by_name(name, 1).expect("canonical name");
            let params = ParamSet::init(&g, 3).unwrap();
            let expected: Vec<usize> = params.tensors().map(Tensor::numel).collect();
            assert_eq!(param_tensor_numels(&g).unwrap(), expected, "{name}");
            assert_eq!(params.num_scalars(), expected.iter().sum::<usize>(), "{name}");
        }
    }
}
