//! Encoding selection policy — the executable form of the paper's Table I.

use crate::config::GistConfig;
use gist_encodings::{DprFormat, SsdcConfig, StashCodec};
use gist_graph::{Graph, NodeId, PairKind};

/// The encoding chosen for one stashed feature map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Encoding {
    /// 1-bit positivity mask (ReLU output before a pool).
    Binarize,
    /// CSR sparse stash at the given assumed sparsity (the runtime uses
    /// measured sparsity instead).
    Ssdc {
        /// Planner's sparsity assumption for this map.
        assumed_sparsity: f64,
    },
    /// Reduced-precision stash.
    Dpr(DprFormat),
    /// Left in FP32 (no encoding applies or all are disabled).
    None,
}

impl Encoding {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Encoding::Binarize => "binarize",
            Encoding::Ssdc { .. } => "ssdc",
            Encoding::Dpr(_) => "dpr",
            Encoding::None => "fp32",
        }
    }

    /// The stash codec that realizes this decision under `config` — the
    /// one place a policy choice becomes a byte layout. SSDC always takes
    /// the Narrow Value Optimization and, in lossy mode, DPR on its value
    /// array.
    pub fn codec(&self, config: &GistConfig) -> StashCodec {
        match *self {
            Encoding::Binarize => StashCodec::Binarize,
            Encoding::Ssdc { .. } => {
                StashCodec::Ssdc(SsdcConfig { narrow: true, value_format: config.dpr })
            }
            Encoding::Dpr(format) => StashCodec::Dpr(format, config.rounding),
            Encoding::None => StashCodec::Dense,
        }
    }
}

/// One stashed feature map's classification and chosen encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Producer of the stashed feature map.
    pub node: NodeId,
    /// Detected layer-pair kind.
    pub kind: PairKind,
    /// Encoding the policy selected under the active config.
    pub encoding: Encoding,
}

/// Chooses encodings for every stashed feature map in the graph.
///
/// Per Table I: ReLU→Pool gets Binarize, ReLU→Conv (and sparse Pool→Conv)
/// get SSDC, all other stashed maps get DPR when lossy mode is on. Input
/// images are never encoded (they are consumed by the first convolution's
/// backward pass at full fidelity, and lossy-encoding the training data
/// itself would change the learning problem).
pub fn assign(graph: &Graph, config: &GistConfig) -> Vec<Assignment> {
    let pairs = gist_graph::patterns::detect_pairs(graph);
    let n = graph.len().max(1) as f64;
    pairs
        .into_iter()
        .map(|p| {
            let depth_frac = p.producer.index() as f64 / n;
            let is_input = matches!(graph.node(p.producer).op, gist_graph::OpKind::Input(_));
            let encoding = if is_input {
                Encoding::None
            } else {
                match p.kind {
                    PairKind::ReluPool if config.binarize => Encoding::Binarize,
                    // A ReLU-Pool map with Binarize off is still a sparse
                    // ReLU output; SSDC can take it (used by the Figure 10
                    // "SSDC alone" configuration).
                    PairKind::ReluPool if config.ssdc => {
                        Encoding::Ssdc { assumed_sparsity: config.sparsity.sparsity_at(depth_frac) }
                    }
                    PairKind::ReluConv | PairKind::PoolConv if config.ssdc => {
                        Encoding::Ssdc { assumed_sparsity: config.sparsity.sparsity_at(depth_frac) }
                    }
                    _ => match config.dpr {
                        Some(f) => Encoding::Dpr(f),
                        None => Encoding::None,
                    },
                }
            };
            Assignment { node: p.producer, kind: p.kind, encoding }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_graph::OpKind;

    fn assignments_by_tag(g: &Graph, config: &GistConfig) -> Vec<(String, &'static str)> {
        assign(g, config)
            .iter()
            .map(|a| (g.node(a.node).name.clone(), a.encoding.label()))
            .collect()
    }

    #[test]
    fn table1_mapping_on_alexnet() {
        let g = gist_models::alexnet(4);
        let config = GistConfig::lossy(DprFormat::Fp8);
        let by_name: std::collections::HashMap<String, &str> =
            assignments_by_tag(&g, &config).into_iter().collect();
        // ReLU before pool -> binarize.
        assert_eq!(by_name["conv1_relu"], "binarize");
        assert_eq!(by_name["conv2_relu"], "binarize");
        assert_eq!(by_name["conv5_relu"], "binarize");
        // ReLU before conv -> ssdc.
        assert_eq!(by_name["conv3_relu"], "ssdc");
        assert_eq!(by_name["conv4_relu"], "ssdc");
        // Pool after relu feeding conv -> ssdc.
        assert_eq!(by_name["pool1"], "ssdc");
        // FC inputs (pool5 feeds fc6): Others -> dpr.
        assert_eq!(by_name["pool5"], "dpr");
        assert_eq!(by_name["fc6_relu"], "dpr");
        // Input images are stashed but never encoded.
        assert_eq!(by_name["input"], "fp32");
    }

    #[test]
    fn lossless_config_leaves_others_in_fp32() {
        let g = gist_models::alexnet(4);
        let by_name: std::collections::HashMap<String, &str> =
            assignments_by_tag(&g, &GistConfig::lossless()).into_iter().collect();
        assert_eq!(by_name["fc6_relu"], "fp32");
        assert_eq!(by_name["conv1_relu"], "binarize");
    }

    #[test]
    fn baseline_config_encodes_nothing() {
        let g = gist_models::vgg16(2);
        for a in assign(&g, &GistConfig::baseline()) {
            assert_eq!(a.encoding, Encoding::None);
        }
    }

    #[test]
    fn ssdc_only_takes_relu_pool_maps_too() {
        // Figure 10 applies SSDC in isolation; ReLU-Pool maps are sparse
        // ReLU outputs, so SSDC may be applied there when Binarize is off.
        let g = gist_models::alexnet(2);
        let config =
            GistConfig { binarize: false, ssdc: true, inplace: false, ..GistConfig::baseline() };
        let by_name: std::collections::HashMap<String, &str> =
            assignments_by_tag(&g, &config).into_iter().collect();
        assert_eq!(by_name["conv1_relu"], "ssdc");
    }

    #[test]
    fn every_stashed_map_gets_an_assignment() {
        let g = gist_models::inception(2);
        let assignments = assign(&g, &GistConfig::lossy(DprFormat::Fp16));
        let stashed_count =
            g.nodes().iter().filter(|n| gist_graph::class::is_stashed(&g, n.id)).count();
        assert_eq!(assignments.len(), stashed_count);
        // With lossy on, nothing except inputs stays FP32 unless it's
        // genuinely unencodable.
        for a in &assignments {
            if a.encoding == Encoding::None {
                assert!(matches!(g.node(a.node).op, OpKind::Input(_)));
            }
        }
    }

    #[test]
    fn depth_scaled_sparsity_increases_through_vgg() {
        let g = gist_models::vgg16(2);
        let assignments = assign(&g, &GistConfig::lossless());
        let sparsities: Vec<f64> = assignments
            .iter()
            .filter_map(|a| match a.encoding {
                Encoding::Ssdc { assumed_sparsity } => Some(assumed_sparsity),
                _ => None,
            })
            .collect();
        assert!(sparsities.len() > 5);
        assert!(sparsities.windows(2).all(|w| w[1] >= w[0]));
    }
}
