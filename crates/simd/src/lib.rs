//! Runtime-dispatched SIMD kernels for the Gist reproduction.
//!
//! Every kernel dispatches on one level ladder — scalar, SSE2, AVX2,
//! AVX-512 — selected once per process from
//! `GIST_SIMD=scalar|sse2|avx2|avx512` (mirroring `GIST_THREADS`) or by
//! CPU feature detection. Only the GEMM tiles are 512-bit: at the AVX-512
//! level the codecs run their AVX2 bodies (detection asks for AVX-512F and
//! AVX2 together). The contract that makes this crate safe to wire under
//! a bit-deterministic stack: **all levels produce byte-identical output
//! for every element that is not NaN, and agree element-wise on which
//! outputs are NaN**. Vector code only ever
//! computes *independent output elements* in lanes; it never reassociates
//! a floating-point reduction, never uses FMA (fused rounding differs from
//! mul-then-add), and tails run in the same element order as the scalar
//! sweep. So signed zeros, denormals, infinities, and every rounding
//! decision match exactly.
//!
//! The one bit pattern deliberately out of scope is the *payload* of a NaN
//! produced by arithmetic (`∞ − ∞`, `0 × ∞`, or two NaN operands meeting):
//! IEEE 754 leaves it unspecified, LLVM freely commutes `fadd`/`fmul`
//! operands between compilations, and x86 NaN propagation is
//! first-operand-wins — so two correct compilations of the *same scalar
//! source* can already disagree on those bits (verified empirically: `-O`
//! vs `-O0` flip them). Differential tests therefore compare through
//! [`canon_bits`], which collapses NaNs to one canonical pattern and
//! leaves everything else raw. Kernels that only *move* bits (mask select,
//! codec pack/unpack) preserve NaN payloads exactly and are compared raw.
//! `tests/simd_equivalence.rs` enforces all of this differentially.
//!
//! Scoped overrides ([`with_level`]) ride on `gist-par`'s ambient context,
//! so a level forced on the dispatching thread is visible inside pool
//! worker tasks too — exactly like `with_threads`.
#![warn(missing_docs)]

mod codec;
mod csr;
mod matmul;

pub use codec::{
    count_nonzero, dpr_decode_into, dpr_encode_words, pack_bools_into_words, pack_gt_zero_words,
    select_by_mask, DprSpec,
};
pub use csr::{csr_pack_row_u32, csr_pack_row_u8, csr_scatter_row_u32, csr_scatter_row_u8};
pub use matmul::{matmul_a_bt_into, matmul_at_b_into, matmul_into, row_grain};

use std::sync::OnceLock;

/// Comparison key for differential tests: the raw bits of `v`, with every
/// NaN collapsed to the canonical quiet NaN. Non-NaN values — signed
/// zeros, denormals, infinities — compare exactly. NaN payloads produced
/// by arithmetic are compiler-chosen (see the crate docs), so two correct
/// kernels may differ in those bits and nothing else; canonicalising them
/// keeps the differential suite honest about what *is* pinned without
/// failing on bits no implementation controls.
pub fn canon_bits(v: f32) -> u32 {
    if v.is_nan() {
        0x7fc0_0000
    } else {
        v.to_bits()
    }
}

/// A SIMD dispatch level. Ordered by vector width so "unsupported" is a
/// simple comparison against the detected maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Plain scalar loops — the reference implementation, always available.
    Scalar,
    /// 128-bit `std::arch` x86 vectors (baseline on `x86_64`).
    Sse2,
    /// 256-bit `std::arch` x86 vectors (runtime-detected).
    Avx2,
    /// 512-bit `std::arch` x86 vectors (runtime-detected, with AVX2):
    /// the GEMM tiles only; every other kernel runs its AVX2 body.
    Avx512,
}

impl Level {
    /// Lower-case name, matching the accepted `GIST_SIMD` spellings.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Sse2 => "sse2",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }

    /// `f32` lanes per vector at this level (1 for scalar).
    pub fn lanes(self) -> usize {
        match self {
            Level::Scalar => 1,
            Level::Sse2 => 4,
            Level::Avx2 => 8,
            Level::Avx512 => 16,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Widest level this CPU supports (the default when `GIST_SIMD` is unset).
pub fn detected_level() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
            Level::Avx512
        } else if avx2 {
            Level::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline.
            Level::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Level::Scalar
    }
}

/// Every level this CPU can actually run, narrowest first. Differential
/// tests iterate this instead of hard-coding the x86 set.
pub fn available_levels() -> Vec<Level> {
    let best = detected_level();
    [Level::Scalar, Level::Sse2, Level::Avx2, Level::Avx512]
        .into_iter()
        .filter(|&l| l <= best)
        .collect()
}

/// Parses a `GIST_SIMD` spelling. `None` for anything unrecognised.
pub fn parse_level(s: &str) -> Option<Level> {
    match s.trim().to_ascii_lowercase().as_str() {
        "scalar" => Some(Level::Scalar),
        "sse2" => Some(Level::Sse2),
        "avx2" => Some(Level::Avx2),
        "avx512" => Some(Level::Avx512),
        _ => None,
    }
}

/// Resolves a raw `GIST_SIMD` value to the level to install, plus a
/// warning to print when the request could not be honoured. Invalid or
/// unsupported requests fall back to **scalar** — never silently to a
/// different vector width, so a typo can change speed but not which
/// vector ISA a differential run believes it is testing.
pub fn resolve_env(raw: Option<&str>) -> (Level, Option<String>) {
    // Spelling validation goes through the workspace-wide `parse_or_warn`
    // policy (shared with `GIST_THREADS` and the serve job-spec grammar);
    // the unsupported-on-this-CPU check is domain knowledge layered on top.
    let Some(s) = raw else { return (detected_level(), None) };
    let (parsed, warning) = gist_par::parse_or_warn(
        "gist-simd",
        "GIST_SIMD",
        Some(s),
        "scalar|sse2|avx2|avx512",
        "scalar",
        parse_level,
        || Level::Scalar,
    );
    if warning.is_some() {
        return (Level::Scalar, warning);
    }
    if parsed <= detected_level() {
        (parsed, None)
    } else {
        (
            Level::Scalar,
            Some(format!(
                "gist-simd: GIST_SIMD={} not supported on this CPU (detected {}); \
                 falling back to scalar",
                parsed.name(),
                detected_level().name()
            )),
        )
    }
}

/// Process-wide default, resolved once from the environment.
static DEFAULT: OnceLock<Level> = OnceLock::new();

/// The process default level: `GIST_SIMD` if set and valid (with a visible
/// warning and scalar fallback otherwise), else the detected maximum.
/// Resolved once; repeated calls return the same level.
pub fn default_level() -> Level {
    *DEFAULT.get_or_init(|| {
        let raw = std::env::var("GIST_SIMD").ok();
        let (level, warning) = resolve_env(raw.as_deref());
        if let Some(w) = warning {
            eprintln!("{w}");
        }
        level
    })
}

/// Ambient encoding: 0 = no override, otherwise `level as u32 + 1`.
fn encode_ambient(level: Level) -> u32 {
    level as u32 + 1
}

fn decode_ambient(raw: u32) -> Option<Level> {
    match raw {
        1 => Some(Level::Scalar),
        2 => Some(Level::Sse2),
        3 => Some(Level::Avx2),
        4 => Some(Level::Avx512),
        _ => None,
    }
}

/// The level kernels should use **right now**: the innermost
/// [`with_level`] override if one is active (propagated onto pool workers
/// via `gist-par`'s ambient context), else the process default.
pub fn level() -> Level {
    decode_ambient(gist_par::ambient()).unwrap_or_else(default_level)
}

/// Runs `f` with `level` forced, including inside any `gist-par` dispatch
/// `f` performs. This is the in-process differential-testing hook: the
/// equivalence suite runs every kernel under every available level and
/// compares raw bits.
///
/// # Panics
///
/// Panics if `level` is not in [`available_levels`] — forcing an
/// undetected vector ISA would be undefined behaviour, and a test that
/// silently downgraded would claim coverage it does not have.
pub fn with_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
    assert!(
        level <= detected_level(),
        "gist-simd: cannot force {level}: CPU only supports up to {}",
        detected_level()
    );
    gist_par::with_ambient(encode_ambient(level), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_resolves_identically_on_repeated_init() {
        // The OnceLock makes the default stable; the public surface must
        // agree with itself across calls (no per-call re-detection drift).
        let first = default_level();
        for _ in 0..100 {
            assert_eq!(default_level(), first);
            assert_eq!(level(), first);
        }
        // Detection is also stable.
        let det = detected_level();
        for _ in 0..100 {
            assert_eq!(detected_level(), det);
        }
        assert!(available_levels().contains(&first));
    }

    #[test]
    fn invalid_values_fall_back_to_scalar_with_warning() {
        for bad in ["avx1024", "AVX999", "", "8", "fast"] {
            let (level, warning) = resolve_env(Some(bad));
            assert_eq!(level, Level::Scalar, "invalid {bad:?} must resolve to scalar");
            let w = warning.expect("invalid value must warn");
            assert!(w.contains("invalid"), "warning names the problem: {w}");
            assert!(w.contains("scalar"), "warning names the fallback: {w}");
        }
    }

    #[test]
    fn unsupported_levels_fall_back_to_scalar_never_to_another_width() {
        // Simulate a CPU where the request exceeds detection by asking for
        // every level above the detected one (a no-op on machines that
        // support everything — the invalid-value test still covers the
        // warning path there).
        for l in [Level::Sse2, Level::Avx2, Level::Avx512] {
            if l > detected_level() {
                let (got, warning) = resolve_env(Some(l.name()));
                assert_eq!(got, Level::Scalar, "unsupported {l} must not pick another width");
                assert!(warning.expect("must warn").contains("not supported"));
            }
        }
    }

    #[test]
    fn valid_supported_values_resolve_without_warning() {
        for l in available_levels() {
            let (got, warning) = resolve_env(Some(l.name()));
            assert_eq!(got, l);
            assert!(warning.is_none(), "supported {l} must not warn");
        }
        // Case-insensitive, whitespace-tolerant.
        assert_eq!(resolve_env(Some(" Scalar ")).0, Level::Scalar);
    }

    #[test]
    fn unset_env_resolves_to_detected_maximum() {
        let (got, warning) = resolve_env(None);
        assert_eq!(got, detected_level());
        assert!(warning.is_none());
    }

    #[test]
    fn with_level_overrides_and_restores() {
        let outer = level();
        with_level(Level::Scalar, || {
            assert_eq!(level(), Level::Scalar);
            // Nested overrides win innermost-first.
            for l in available_levels() {
                with_level(l, || assert_eq!(level(), l));
            }
            assert_eq!(level(), Level::Scalar);
        });
        assert_eq!(level(), outer);
    }

    #[test]
    fn with_level_reaches_pool_workers() {
        // The whole point of the ambient plumbing: a scoped override must
        // be visible to kernels running inside gist-par worker tasks.
        gist_par::with_threads(4, || {
            with_level(Level::Scalar, || {
                let seen = gist_par::parallel_map(64, 1, |_| level());
                assert!(seen.iter().all(|&l| l == Level::Scalar));
            });
        });
    }

    #[test]
    fn level_ordering_matches_lane_width() {
        assert!(Level::Scalar < Level::Sse2 && Level::Sse2 < Level::Avx2);
        assert!(Level::Avx2 < Level::Avx512);
        assert_eq!(Level::Scalar.lanes(), 1);
        assert_eq!(Level::Sse2.lanes(), 4);
        assert_eq!(Level::Avx2.lanes(), 8);
        assert_eq!(Level::Avx512.lanes(), 16);
        for l in [Level::Scalar, Level::Sse2, Level::Avx2, Level::Avx512] {
            assert_eq!(parse_level(l.name()), Some(l), "name/parse roundtrip");
        }
    }
}
