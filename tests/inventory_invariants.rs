//! Structural invariants of the Schedule Builder's rewritten inventories,
//! checked across every model and configuration — the internal consistency
//! the memory results rest on.

use gist::core::{GistConfig, ScheduleBuilder};
use gist::encodings::DprFormat;
use gist::graph::class::baseline_inventory;
use gist::graph::{DataClass, Graph, TensorRole};

fn models() -> Vec<Graph> {
    let mut v = gist::models::paper_suite(4);
    v.push(gist::models::resnet_cifar(2, 4));
    v.push(gist::models::resnet50(2));
    v.push(gist::models::alexnet_classic(4));
    v
}

/// `models()` plus the small and branchy nets the executed tests train.
fn zoo() -> Vec<Graph> {
    let mut v = models();
    v.push(gist::models::densenet_cifar(2, 4, 2));
    v.push(gist::models::small_vgg(4, 3));
    v.push(gist::models::tiny_classic(2, 3));
    v
}

fn configs() -> Vec<GistConfig> {
    vec![
        GistConfig::baseline(),
        GistConfig::lossless(),
        GistConfig::lossy(DprFormat::Fp8),
        GistConfig::lossy(DprFormat::Fp16).with_optimized_software(),
    ]
}

#[test]
fn all_intervals_lie_within_the_schedule() {
    for graph in models() {
        for config in configs() {
            let t = ScheduleBuilder::new(config).build(&graph).unwrap();
            for d in &t.inventory {
                assert!(
                    d.interval.end < t.num_steps,
                    "{} {}: interval {:?} exceeds schedule {}",
                    graph.name(),
                    d.name,
                    d.interval,
                    t.num_steps
                );
                assert!(d.bytes > 0, "{} {}: zero-sized structure", graph.name(), d.name);
            }
        }
    }
}

#[test]
fn encoded_stashes_bridge_forward_and_backward() {
    let half = |steps: usize| steps / 2;
    for graph in models() {
        let t = ScheduleBuilder::new(GistConfig::lossy(DprFormat::Fp8)).build(&graph).unwrap();
        for d in &t.inventory {
            if let TensorRole::Encoded { encoding, .. } = &d.role {
                if *encoding == "dropmask" || *encoding == "poolmap" {
                    continue; // born at their node's forward step instead
                }
                // Encoded stashes start in the forward half and end in the
                // backward half (they span the temporal gap of Figure 2).
                assert!(
                    d.interval.start < half(t.num_steps),
                    "{} {}: encoded stash starts in backward half",
                    graph.name(),
                    d.name
                );
                assert!(
                    d.interval.end >= half(t.num_steps),
                    "{} {}: encoded stash never reaches backward",
                    graph.name(),
                    d.name
                );
            }
        }
    }
}

#[test]
fn decode_buffers_live_only_in_backward() {
    for graph in models() {
        let t = ScheduleBuilder::new(GistConfig::lossy(DprFormat::Fp8)).build(&graph).unwrap();
        for d in &t.inventory {
            if matches!(d.role, TensorRole::Decoded(_)) {
                assert!(
                    d.interval.start >= t.num_steps / 2,
                    "{} {}: decode buffer alive in forward pass",
                    graph.name(),
                    d.name
                );
                assert_eq!(d.class, DataClass::ImmediateFmap);
            }
        }
    }
}

#[test]
fn every_node_has_exactly_one_feature_map_unless_inplace_removed() {
    for graph in models() {
        // Without inplace: one fmap structure per node.
        let cfg = GistConfig { inplace: false, ..GistConfig::lossless() };
        let t = ScheduleBuilder::new(cfg).build(&graph).unwrap();
        let fmap_count =
            t.inventory.iter().filter(|d| matches!(d.role, TensorRole::FeatureMap(_))).count();
        assert_eq!(fmap_count, graph.len(), "{}", graph.name());

        // With inplace: exactly one fewer per eligible Conv/BN→ReLU edge.
        let t2 = ScheduleBuilder::new(GistConfig::lossless()).build(&graph).unwrap();
        let fmap_count2 =
            t2.inventory.iter().filter(|d| matches!(d.role, TensorRole::FeatureMap(_))).count();
        assert!(fmap_count2 <= fmap_count, "{}", graph.name());
    }
}

#[test]
fn raw_stashed_bytes_shrink_monotonically_with_stronger_configs() {
    for graph in models() {
        let stashed = |config: GistConfig| -> usize {
            ScheduleBuilder::new(config)
                .build(&graph)
                .unwrap()
                .inventory
                .iter()
                .filter(|d| d.class == DataClass::StashedFmap)
                .map(|d| d.bytes)
                .sum()
        };
        let base = stashed(GistConfig::baseline());
        let lossless = stashed(GistConfig::lossless());
        let lossy = stashed(GistConfig::lossy(DprFormat::Fp8));
        assert!(lossless < base, "{}: {lossless} !< {base}", graph.name());
        assert!(lossy <= lossless, "{}: {lossy} !<= {lossless}", graph.name());
    }
}

#[test]
fn weights_and_workspace_are_untouched_by_encodings() {
    for graph in models() {
        let sum = |config: GistConfig, class: DataClass| -> usize {
            ScheduleBuilder::new(config)
                .build(&graph)
                .unwrap()
                .inventory
                .iter()
                .filter(|d| d.class == class)
                .map(|d| d.bytes)
                .sum()
        };
        for class in [DataClass::Weight, DataClass::WeightGrad, DataClass::Workspace] {
            assert_eq!(
                sum(GistConfig::baseline(), class),
                sum(GistConfig::lossy(DprFormat::Fp8), class),
                "{}: {class:?} changed",
                graph.name()
            );
        }
    }
}

/// With nothing to encode the Schedule Builder's rewrite changes nothing:
/// its output is the baseline class analysis element for element — name,
/// role, class, bytes, interval and order.
#[test]
fn baseline_rewrite_is_the_identity() {
    for graph in zoo() {
        let built = ScheduleBuilder::new(GistConfig::baseline()).build(&graph).unwrap();
        let base = baseline_inventory(&graph).unwrap();
        assert_eq!(built.inventory, base, "{}", graph.name());
    }
}

/// FNV-1a over `(name, class, bytes, interval)` of every structure, in
/// inventory order, across the zoo. Order is part of the contract:
/// `plan_static` breaks size ties by input order.
fn inventory_hash(config: GistConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for graph in zoo() {
        let t = ScheduleBuilder::new(config).build(&graph).unwrap();
        for d in &t.inventory {
            eat(d.name.as_bytes());
            eat(&[0]);
            eat(d.class.label().as_bytes());
            eat(&[0]);
            for v in [d.bytes, d.interval.start, d.interval.end] {
                eat(&(v as u64).to_le_bytes());
            }
        }
    }
    h
}

/// Every rewritten inventory, pinned. The values were recorded before the
/// builder became a rewrite of `baseline_inventory` and are never edited.
#[test]
fn inventories_are_pinned() {
    let base = GistConfig::baseline();
    let pins = [
        ("baseline", base, 0xe76a_3a46_f89b_1bcbu64),
        ("lossless", GistConfig::lossless(), 0x8169_4cd7_5d31_49d9),
        ("lossy fp8", GistConfig::lossy(DprFormat::Fp8), 0x9797_6fc4_6f4c_4612),
        (
            "lossy fp16 + optimized software",
            GistConfig::lossy(DprFormat::Fp16).with_optimized_software(),
            0xd2cd_f12f_3ce8_a3ae,
        ),
        ("inplace only", GistConfig { inplace: true, ..base }, 0x9783_1dfa_6020_3f48),
        ("binarize only", GistConfig { binarize: true, ..base }, 0x362b_6307_9642_3dd2),
    ];
    let moved: Vec<String> = pins
        .into_iter()
        .map(|(label, config, pin)| (label, inventory_hash(config), pin))
        .filter(|(_, h, pin)| h != pin)
        .map(|(label, h, pin)| format!("{label}: {h:#018x} != pinned {pin:#018x}"))
        .collect();
    assert!(moved.is_empty(), "inventories moved:\n{}", moved.join("\n"));
}
