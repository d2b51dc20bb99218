//! Host fingerprint and calibration: what machine the numbers came from,
//! and the two ceilings (copy bandwidth, FMA rate) the per-layer rates are
//! read against.

use crate::metrics::Report;
use std::hint::black_box;
use std::time::Instant;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the last-level cache in bytes, from sysfs; 32 MiB when the
/// kernel does not say.
fn llc_bytes() -> usize {
    (0..=4)
        .rev()
        .find_map(|i| read(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")))
        .and_then(|s| {
            let s = s.trim();
            let (digits, unit) =
                s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
            let n: usize = digits.parse().ok()?;
            Some(match unit {
                "K" => n << 10,
                "M" => n << 20,
                _ => n,
            })
        })
        .unwrap_or(32 << 20)
}

/// Printed at the top of every run.
pub fn print_fingerprint(seed: u64) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = std::env::var("GIST_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    println!(
        "host: nproc {nproc}, cpu \"{}\", simd {}, llc {} KiB, commit {commit}, seed {seed}",
        cpu_model(),
        gist::simd::detected_level(),
        llc_bytes() >> 10,
    );
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The best rate of five timed calls of `f`, each doing `work` units: a
/// ceiling is what the host reaches when nothing disturbs it.
fn best_rate(work: f64, mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            f();
            work / t0.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// STREAM-style copy: two arrays of four last-level caches each, but at
/// least 64 MiB and at most 128 MiB (a VM reports its host's whole L3),
/// copied whole; the rate counts bytes read plus bytes written.
fn copy_gibs() -> (f64, usize) {
    let bytes = (4 * llc_bytes()).clamp(64 << 20, 128 << 20);
    let src = vec![1.0f32; bytes / 4];
    let mut dst = vec![0.0f32; bytes / 4];
    let rate = best_rate(2.0 * bytes as f64, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    (rate / (1u64 << 30) as f64, bytes)
}

const FMA_ITERS: usize = 2_000_000;

/// Ten independent 8-lane FMA chains: enough to cover the latency of the
/// FMA units, so the loop runs at their issue rate.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2(iters: usize) -> f32 {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let a = _mm256_set1_ps(black_box(0.999_999));
    let b = _mm256_set1_ps(black_box(1e-7));
    let mut acc = [_mm256_set1_ps(1.0); 10];
    for _ in 0..iters {
        for r in &mut acc {
            *r = _mm256_fmadd_ps(*r, a, b);
        }
    }
    let mut out = [0.0f32; 8];
    let mut sum = 0.0;
    for r in acc {
        // SAFETY: `out` is 8 f32s, exactly the 32 bytes the unaligned store writes.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), r) };
        sum += out.iter().sum::<f32>();
    }
    sum
}

/// Portable fallback: 64 independent multiply-add chains the compiler may
/// vectorise at the baseline ISA.
fn fma_chains_portable(iters: usize) -> f32 {
    let (a, b) = (black_box(0.999_999f32), black_box(1e-7f32));
    let mut acc = [1.0f32; 64];
    for _ in 0..iters {
        for r in &mut acc {
            *r = *r * a + b;
        }
    }
    acc.iter().sum()
}

/// Single-core multiply-add peak in GFLOP/s (two FLOPs per lane per FMA).
fn fma_gflops() -> (f64, &'static str) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        let rate = best_rate((FMA_ITERS * 10 * 8 * 2) as f64, || {
            // SAFETY: avx2 and fma were detected on this CPU just above.
            black_box(unsafe { fma_chains_avx2(FMA_ITERS) });
        });
        return (rate / 1e9, "avx2+fma, 10 chains x 8 lanes, one core");
    }
    let rate = best_rate((FMA_ITERS / 4 * 64 * 2) as f64, || {
        black_box(fma_chains_portable(FMA_ITERS / 4));
    });
    (rate / 1e9, "portable mul+add, 64 chains, one core")
}

/// Measures the two host ceilings into `report`.
pub fn calibrate(report: &mut Report) {
    let (gibs, bytes) = copy_gibs();
    report.set("host.copy_gibs", gibs);
    report.note(
        "host.copy_gibs",
        format!("2 arrays of {} MiB, llc {} KiB, read+write bytes", bytes >> 20, llc_bytes() >> 10),
    );
    let (gflops, how) = fma_gflops();
    report.set("host.fma_gflops", gflops);
    report.note("host.fma_gflops", how.into());
}
