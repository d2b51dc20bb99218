//! Gist configuration.

use gist_encodings::{DprFormat, RoundingMode};

/// How GPU memory is allocated (Section V-H).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationMode {
    /// CNTK-style static allocation with memory sharing (the default for
    /// GPU frameworks, avoids per-minibatch `cudaMalloc`).
    #[default]
    Static,
    /// Ideal dynamic allocation: every region exists only for its lifetime;
    /// footprint is the peak live set. Models hardware-assisted allocation.
    Dynamic,
    /// Address-level offset packing (ablation beyond the paper): like
    /// static allocation, but small concurrent tensors may sit side by
    /// side inside one large region instead of forming whole-region groups.
    OffsetPacked,
}

/// How the planner estimates ReLU-output sparsity for SSDC sizing before
/// real data exists (the runtime measures actual sparsity; see Figure 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparsityModel {
    /// Same sparsity assumed for every SSDC-encoded map.
    Fixed(f64),
    /// Sparsity grows linearly with relative depth in the network, from
    /// `shallow` at the input end to `deep` at the output end — the shape
    /// the paper measures on VGG16 (deeper ReLU outputs are sparser).
    DepthScaled {
        /// Sparsity of the shallowest SSDC-encoded map.
        shallow: f64,
        /// Sparsity of the deepest.
        deep: f64,
    },
}

impl Default for SparsityModel {
    /// The paper reports VGG16 ReLU sparsity "going even over 80%" across
    /// layers; a 50%→90% depth ramp is a conservative fit.
    fn default() -> Self {
        SparsityModel::DepthScaled { shallow: 0.5, deep: 0.9 }
    }
}

impl SparsityModel {
    /// Sparsity estimate for a map at `depth_frac` ∈ [0, 1] through the net.
    pub fn sparsity_at(&self, depth_frac: f64) -> f64 {
        match *self {
            SparsityModel::Fixed(s) => s.clamp(0.0, 1.0),
            SparsityModel::DepthScaled { shallow, deep } => {
                (shallow + (deep - shallow) * depth_frac.clamp(0.0, 1.0)).clamp(0.0, 1.0)
            }
        }
    }
}

/// Full Gist configuration: which optimizations are on and how memory is
/// allocated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GistConfig {
    /// Binarize for ReLU→Pool pairs (lossless).
    pub binarize: bool,
    /// SSDC for ReLU→Conv / Pool→Conv pairs (lossless).
    pub ssdc: bool,
    /// Inplace ReLU computation (removes one immediately-consumed buffer
    /// per Conv→ReLU edge).
    pub inplace: bool,
    /// DPR for remaining stashed maps and SSDC value arrays (lossy);
    /// `None` disables.
    pub dpr: Option<DprFormat>,
    /// Allocation strategy.
    pub allocation: AllocationMode,
    /// "Optimized software" mode (Section V-H): the backward pass consumes
    /// encoded data directly (or decodes tile-by-tile inside the kernel),
    /// removing the FP32 decode buffer.
    pub optimized_software: bool,
    /// Sparsity assumption for SSDC planning.
    pub sparsity: SparsityModel,
    /// Rounding mode for DPR conversions (the paper uses round-to-nearest;
    /// stochastic rounding is provided as an ablation).
    pub rounding: RoundingMode,
}

impl GistConfig {
    /// Everything off — the CNTK baseline.
    pub fn baseline() -> Self {
        GistConfig {
            binarize: false,
            ssdc: false,
            inplace: false,
            dpr: None,
            allocation: AllocationMode::Static,
            optimized_software: false,
            sparsity: SparsityModel::default(),
            rounding: RoundingMode::Nearest,
        }
    }

    /// All lossless optimizations (Binarize + SSDC + inplace), as in the
    /// "Lossless" bars of Figure 8.
    pub fn lossless() -> Self {
        GistConfig { binarize: true, ssdc: true, inplace: true, ..Self::baseline() }
    }

    /// Lossless plus DPR at the given format — the "Lossless + Lossy" bars.
    pub fn lossy(format: DprFormat) -> Self {
        GistConfig { dpr: Some(format), ..Self::lossless() }
    }

    /// Returns a copy with dynamic allocation enabled.
    pub fn with_dynamic_allocation(mut self) -> Self {
        self.allocation = AllocationMode::Dynamic;
        self
    }

    /// Returns a copy with the optimized-software (no decode buffer) mode.
    pub fn with_optimized_software(mut self) -> Self {
        self.optimized_software = true;
        self
    }

    /// Returns a copy with a different sparsity model.
    pub fn with_sparsity(mut self, sparsity: SparsityModel) -> Self {
        self.sparsity = sparsity;
        self
    }

    /// Returns a copy using stochastic rounding for DPR conversions.
    pub fn with_stochastic_rounding(mut self, seed: u64) -> Self {
        self.rounding = RoundingMode::Stochastic { seed };
        self
    }
}

impl Default for GistConfig {
    fn default() -> Self {
        Self::lossless()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_modes() {
        let b = GistConfig::baseline();
        assert!(!b.binarize && !b.ssdc && b.dpr.is_none() && !b.inplace);
        let ll = GistConfig::lossless();
        assert!(ll.binarize && ll.ssdc && ll.inplace && ll.dpr.is_none());
        let ly = GistConfig::lossy(DprFormat::Fp8);
        assert_eq!(ly.dpr, Some(DprFormat::Fp8));
        assert!(ly.binarize);
    }

    #[test]
    fn sparsity_models() {
        assert_eq!(SparsityModel::Fixed(0.7).sparsity_at(0.0), 0.7);
        assert_eq!(SparsityModel::Fixed(2.0).sparsity_at(0.5), 1.0);
        let d = SparsityModel::DepthScaled { shallow: 0.5, deep: 0.9 };
        assert_eq!(d.sparsity_at(0.0), 0.5);
        assert_eq!(d.sparsity_at(1.0), 0.9);
        assert!((d.sparsity_at(0.5) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn builder_style_modifiers() {
        let c = GistConfig::lossless().with_dynamic_allocation().with_optimized_software();
        assert_eq!(c.allocation, AllocationMode::Dynamic);
        assert!(c.optimized_software);
    }
}
