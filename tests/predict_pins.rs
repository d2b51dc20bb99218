//! Predictor pins: the static numbers the serve layer prices admissions
//! with, held against execution.
//!
//! `gist-serve` trusts the folded peak of a lowered step
//! ([`gist::runtime::StepProgram::peak_bytes`]) enough to *lease device
//! memory on it before a job runs*. This suite
//! pins that trust: for every executable small-zoo model × execution mode
//! × allocation policy, the predicted peak equals the peak the executor's
//! meter observes; the arena prediction equals the capacity of the slab
//! the executor actually packs; the heap peak never exceeds the arena
//! reservation (so one lease number covers both policies); and the replica
//! arithmetic is exactly `per × replicas` for replicas ∈ {1, 2, 4}. For
//! the full-size zoo the predictions are held to the structural invariants
//! alone (no execution — vgg16 at batch 64 is not a unit test).

use gist::encodings::StashCodec;
use gist::graph::TensorRole;
use gist::memory::align_arena;
use gist::obs::{Event, MemoryAccountant, TraceSink};
use gist::prelude::*;
use gist::runtime::{
    predicted_param_wire_bytes, ssdc_stash_sizes, AllocPolicy, PlanGranularity, StepProgram,
};
use std::collections::HashMap;

const BATCH: usize = 4;
const CLASSES: usize = 3;

/// Models small enough to execute a traced step in a unit test: `(serve
/// model name, graph)`.
fn small_zoo() -> Vec<(&'static str, Graph)> {
    vec![
        ("tiny-convnet", gist::models::tiny_convnet(BATCH, CLASSES)),
        ("small-vgg", gist::models::small_vgg(BATCH, CLASSES)),
        ("tiny-classic", gist::models::tiny_classic(BATCH, CLASSES)),
    ]
}

fn modes() -> Vec<(&'static str, ExecMode)> {
    ["baseline", "lossless", "fp8"]
        .into_iter()
        .map(|label| (label, ExecMode::parse(label).expect("mode table")))
        .collect()
}

/// The statically priced peak of `graph` under `spec`: lowered here, from
/// the graph alone, exactly as an admission controller does — never read
/// off the executor that is then held against it.
fn priced(graph: &Graph, spec: &ExecSpec, ssdc: &HashMap<String, u64>) -> u64 {
    let program = StepProgram::lower(graph, spec).expect("lowering");
    program.peak_bytes(ssdc).expect("priced peak")
}

/// One traced step under `spec`; returns (observed peak, arena capacity
/// if the policy has one, observed ssdc stash sizes).
fn observe(graph: &Graph, spec: &ExecSpec) -> (u64, Option<u64>, HashMap<String, u64>) {
    let mut exec = Executor::new(graph.clone(), spec.clone(), 7).expect("executor");
    let mut ds = SyntheticImages::new(CLASSES, 16, 0.3, 11);
    let (x, y) = ds.minibatch(BATCH);
    let sink = TraceSink::new();
    let stats = exec.step_traced(&x, &y, 0.05, &sink).expect("step");
    let trace = sink.take();
    let mut acc = MemoryAccountant::new();
    acc.fold_all(&trace).expect("well-formed stream");
    assert_eq!(acc.peak_bytes(), stats.peak_live_bytes as u64, "meter vs accountant");
    (acc.peak_bytes(), exec.arena_capacity_bytes().map(|c| c as u64), ssdc_stash_sizes(&trace))
}

/// What `gist-serve` leases `replicas` replicas of `model` for.
fn lease(model: &str, mode: &ExecMode, plan: PlanGranularity, replicas: usize) -> u64 {
    let spec = JobSpec::builder(model)
        .batch(BATCH)
        .mode(mode.clone())
        .plan(plan)
        .replicas(replicas)
        .build()
        .expect("job spec");
    let mut server = Server::new(ServeConfig::new(u64::MAX));
    let id = server.submit(spec).expect("unbounded budget admits every job");
    server.lease_bytes(id)
}

#[test]
fn predicted_peak_matches_observed_for_small_zoo_both_policies() {
    for (net, graph) in small_zoo() {
        for (label, mode) in modes() {
            let heap = ExecSpec::from(mode.clone());
            let (heap_peak, none, ssdc) = observe(&graph, &heap);
            assert!(none.is_none(), "{net}: heap policy has no arena");
            assert_eq!(priced(&graph, &heap, &ssdc), heap_peak, "{net}/{label}: heap peak pin");

            let arena = heap.arena();
            let (arena_peak, capacity, _) = observe(&graph, &arena);
            let predicted_arena = priced(&graph, &arena, &HashMap::new());
            assert_eq!(predicted_arena, arena_peak, "{net}/{label}: arena peak pin");
            // The predicted peak fits inside the slab the executor packed
            // (capacity is the packed-plan total, so it may carry padding
            // above the peak, never the other way round).
            let capacity = capacity.unwrap_or_else(|| panic!("{net}/{label}: no arena"));
            assert!(
                predicted_arena <= capacity,
                "{net}/{label}: predicted peak {predicted_arena} exceeds slab {capacity}"
            );
            // One lease covers both policies: a heap job never outgrows
            // the arena reservation its lease was priced from.
            assert!(
                heap_peak <= predicted_arena,
                "{net}/{label}: heap peak {heap_peak} exceeds arena lease {predicted_arena}"
            );
        }
    }
}

/// "Reservation and payload come from the same function", held against
/// the two consumers that used to keep their own size tables: every
/// `.stash` buffer the lowering plans is its codec's `bound` (aligned under
/// the arena; the observed payload, within the bound, where a heap stash's
/// size is data-dependent), and every shape-only `.enc.*` entry of
/// `gist-core`'s static inventory is that same number.
#[test]
fn stash_reservations_and_inventory_sizes_are_the_codec_bound() {
    for (net, graph) in small_zoo() {
        let shapes = graph.infer_shapes().expect("shapes");
        for (label, mode) in modes() {
            let mut codecs = vec![StashCodec::Dense; graph.len()];
            if let ExecMode::Gist(cfg) = &mode {
                for a in gist::core::policy::assign(&graph, cfg) {
                    codecs[a.node.index()] = a.encoding.codec(cfg);
                }
            }
            let bound_of = |id: NodeId| codecs[id.index()].bound(shapes[id.index()].numel()) as u64;

            for arena in [false, true] {
                let heap = ExecSpec::from(mode.clone());
                let spec = if arena { heap.arena() } else { heap };
                let (_, _, observed) = observe(&graph, &spec);
                let program = StepProgram::lower(&graph, &spec).expect("lowering");
                let mut stashes = 0;
                for event in program.events(&observed).expect("events") {
                    let Event::Alloc { name, bytes } = event else { continue };
                    let Some(node) = name.strip_suffix(".stash") else { continue };
                    let id =
                        graph.nodes().iter().find(|n| n.name == node).expect("stash of a node").id;
                    let (codec, bound) = (codecs[id.index()], bound_of(id));
                    let what = format!("{net}/{label}/arena={arena}: {name} under {codec:?}");
                    if arena {
                        assert_eq!(bytes, align_arena(bound), "{what}");
                    } else if codec.is_exact() {
                        assert_eq!(bytes, bound, "{what}");
                    } else {
                        assert!(bytes <= bound, "{what}: {bytes} held, {bound} reservable");
                    }
                    stashes += 1;
                }
                assert!(stashes > 0, "{net}/{label}: no stash planned");
            }

            let ExecMode::Gist(cfg) = &mode else { continue };
            let inventory = ScheduleBuilder::new(*cfg).build(&graph).expect("inventory").inventory;
            let mut exact = 0;
            for d in &inventory {
                let TensorRole::Encoded { node, encoding } = d.role else { continue };
                let codec = codecs[node.index()];
                if codec.label() != Some(encoding) {
                    continue; // dropout masks and pool index maps
                }
                let what = format!("{net}/{label}: {} under {codec:?}", d.name);
                if codec.is_exact() {
                    assert_eq!(d.bytes as u64, bound_of(node), "{what}");
                    exact += 1;
                } else {
                    assert!(d.bytes as u64 <= bound_of(node), "{what}");
                }
            }
            assert!(exact > 0, "{net}/{label}: no shape-only encoded stash in the inventory");
        }
    }
}

/// What the backward lowering no longer plans, over small zoo × mode ×
/// policy × granularity, read off the folded event stream: no conv
/// backward decodes its stash into a `.dec` buffer (it reads it in place);
/// a `.dx{k}` side region is allocated only where the target's gradient map
/// is already live (a first contribution is written straight into the map);
/// and no SSDC stash reserves more than its dense bytes. A residual net
/// joins the zoo (lowered only, under the arena) for its fan-outs, whose
/// second contributions do accumulate.
#[test]
fn backward_plans_no_conv_decode_no_first_side_region_and_no_ssdc_above_dense() {
    let mut accumulating = 0;
    let residual = ("resnet-cifar", gist::models::resnet_cifar(1, BATCH));
    for (net, graph) in small_zoo().into_iter().chain([residual]) {
        let shapes = graph.infer_shapes().expect("shapes");
        let node = |name: &str| graph.nodes().iter().find(|n| n.name == name).expect("a node");
        for (label, mode) in modes() {
            let mut ssdc = Vec::new();
            if let ExecMode::Gist(cfg) = &mode {
                for a in gist::core::policy::assign(&graph, cfg) {
                    let (codec, ne) = (a.encoding.codec(cfg), shapes[a.node.index()].numel());
                    if let StashCodec::Ssdc(_) = codec {
                        assert!(codec.bound(ne) <= ne * 4, "{net}/{label}: {codec:?} above dense");
                        ssdc.push(format!("{}.stash", graph.node(a.node).name));
                    }
                }
            }
            let heap = ExecSpec::from(mode.clone());
            let wave = ExecSpec { plan: PlanGranularity::Wave, ..heap.clone().arena() };
            let mut specs = vec![heap.clone().arena(), wave];
            if net != "resnet-cifar" {
                specs.push(heap);
            }
            for spec in specs {
                let what = format!("{net}/{label}/{:?}/{:?}", spec.alloc, spec.plan);
                // Only a heap SSDC stash's size needs an executed step.
                let observed = match spec.alloc {
                    AllocPolicy::Heap => observe(&graph, &spec).2,
                    AllocPolicy::Arena => HashMap::new(),
                };
                let program = StepProgram::lower(&graph, &spec).expect("lowering");
                let mut live = std::collections::HashSet::new();
                for event in program.events(&observed).expect("events") {
                    let (name, bytes) = match event {
                        Event::Alloc { name, bytes } | Event::Transient { name, bytes } => {
                            (name, bytes)
                        }
                        Event::Free { name, .. } => {
                            live.remove(&name);
                            continue;
                        }
                        _ => continue,
                    };
                    if let Some(reader) = name.strip_suffix(".dec") {
                        let conv = matches!(node(reader).op, OpKind::Conv { .. });
                        assert!(!conv, "{what}: conv backward plans {name}");
                    }
                    if let Some((item, k)) = name.rsplit_once(".dx") {
                        let target = node(item).backward_targets()[k.parse::<usize>().unwrap()];
                        let dy = format!("{}.dy", graph.node(target).name);
                        assert!(live.contains(&dy), "{what}: {name} planned before {dy}");
                        accumulating += 1;
                    }
                    if ssdc.contains(&name) {
                        let dense = shapes[node(&name[..name.len() - 6]).id.index()].numel() * 4;
                        assert!(bytes <= align_arena(dense as u64), "{what}: {name} {bytes}");
                    }
                    live.insert(name);
                }
            }
        }
    }
    assert!(accumulating > 0, "no accumulating contribution was lowered");
}

#[test]
fn replica_slab_bytes_is_per_slab_times_replicas() {
    for (net, graph) in small_zoo() {
        for (label, mode) in modes() {
            let arena = priced(&graph, &ExecSpec::from(mode.clone()).arena(), &HashMap::new());
            for replicas in [1usize, 2, 4] {
                assert_eq!(
                    lease(net, &mode, PlanGranularity::Event, replicas),
                    arena * replicas as u64,
                    "{net}/{label}: lease at {replicas} replicas"
                );
            }
        }
    }
}

/// The `--plan wave` pins: the wave-conservative prediction equals the
/// peak a wave-plan executor's meter observes; the wave lease dominates
/// the event lease (serve can upgrade a job's granularity without
/// re-admission only in the event direction); and the replica lease
/// arithmetic is exact under wave granularity too.
#[test]
fn wave_plan_predicted_peak_matches_observed_and_prices_leases() {
    for (net, graph) in small_zoo() {
        for (label, mode) in modes() {
            let event = ExecSpec::from(mode.clone()).arena();
            let wave = ExecSpec { plan: PlanGranularity::Wave, ..event.clone() };
            let (observed, capacity, _) = observe(&graph, &wave);
            let predicted_wave = priced(&graph, &wave, &HashMap::new());
            assert_eq!(predicted_wave, observed, "{net}/{label}: wave peak pin");
            let capacity = capacity.expect("arena");
            assert!(
                predicted_wave <= capacity,
                "{net}/{label}: predicted wave peak {predicted_wave} exceeds slab {capacity}"
            );

            let predicted_event = priced(&graph, &event, &HashMap::new());
            assert!(
                predicted_wave >= predicted_event,
                "{net}/{label}: wave lease {predicted_wave} below event lease {predicted_event}"
            );

            for replicas in [1usize, 2, 4] {
                assert_eq!(
                    lease(net, &mode, PlanGranularity::Wave, replicas),
                    predicted_wave * replicas as u64,
                    "{net}/{label}: wave lease at {replicas} replicas"
                );
            }
        }
    }
}

/// The full zoo, prediction-only: every canonical model prices without
/// error, deterministically, with sane structure. This is what a serve
/// admission controller runs at submit time for models far too large to
/// train in a test.
#[test]
fn every_canonical_model_prices_admission_statically() {
    for name in gist::models::MODEL_NAMES {
        let graph = gist::models::by_name(name, 2).expect("canonical name");
        let mode = ExecMode::Gist(GistConfig::lossless());
        let spec = ExecSpec::from(mode).arena();
        let per = priced(&graph, &spec, &HashMap::new());
        assert!(per > 0, "{name}: empty slab prediction");
        // Deterministic: pricing twice gives the same lease.
        assert_eq!(
            priced(&graph, &spec, &HashMap::new()),
            per,
            "{name}: prediction is not deterministic"
        );
        // The park-side bound prices too, and a parked job's encoded
        // parameters are never larger than ~9/8 of their dense bytes
        // (SSDC worst case) — sanity, not exactness.
        let wire = predicted_param_wire_bytes(&graph, gist::encodings::TransferCodec::Ssdc)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(wire > 0, "{name}: no parameters to park");
        let dense: u64 =
            gist::runtime::param_tensor_numels(&graph).unwrap().iter().map(|&n| 4 * n as u64).sum();
        assert!(wire >= dense, "{name}: SSDC worst case cannot beat dense ({wire} < {dense})");
        assert!(
            wire <= dense * 2 + 4096,
            "{name}: park bound implausibly large ({wire} vs dense {dense})"
        );
    }
}
