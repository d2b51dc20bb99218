//! Folds one sweep of the repo benchmark into a row of the root perf
//! ledger (`BENCH_<pr>.json`, ROADMAP "Finish the perf ledger").
//!
//! `bash benchmark/run.sh sweep --out sweep.jsonl` writes one line per
//! run; this reduces them, per workload and end-to-end metric, to the
//! median, the quartile spread (interquartile distance over the median,
//! quartiles by Python's exclusive method like the benchmark's `compare`)
//! and the run count, under the host fingerprint and the commit — so the
//! file series at the repo root tells a slower host from slower code.
//!
//! `cargo run --release -p gist-bench --bin bench_ledger -- <sweep.jsonl> <commit> > BENCH_<pr>.json`
//!
//! `bench_ledger compare <BENCH_a.json> <BENCH_b.json>` reads two rows of
//! that series (run from the repo root: the bounds come from
//! `BENCHMARK.json`) and gives each workload × metric the verdict the
//! benchmark's own `compare` gives two sweeps — `unresolved` when either
//! row's spread is wider than the metric's bound, `worse` when `b`'s median
//! is beyond the bound, `ok` otherwise — exiting non-zero on any `worse`.
//! Rows recorded on different hosts cannot be `worse`, only `unresolved`.
//! A host is its CPU model, its core count and the SIMD flags the CPU
//! reports in `/proc/cpuinfo` — never the level the code detects, which
//! moves when the code learns a new level on the same machine.

use gist_obs::json::{self, escape, Value};
use std::collections::BTreeMap;

/// `(median, (q3 - q1) / |median|)` of at least one sample.
fn median_and_spread(xs: &mut [f64]) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let median = (xs[(n - 1) / 2] + xs[n / 2]) / 2.0;
    if n < 2 || median == 0.0 {
        return (median, 0.0);
    }
    let quartile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        xs[j - 1] + (xs[j] - xs[j - 1]) * (pos as f64 / 4.0 - j as f64)
    };
    (median, (quartile(3) - quartile(1)) / median.abs())
}

/// Parses a JSON file the ledger wrote (or `BENCHMARK.json`).
fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

/// The CPU's own SIMD feature flags (`sse*`, `ssse*`, `avx*`, `fma`) on the
/// first `flags` line of a `/proc/cpuinfo` text, in the order listed.
fn simd_flags(cpuinfo: &str) -> String {
    let flags = cpuinfo.lines().find(|l| l.starts_with("flags")).and_then(|l| l.split(':').nth(1));
    let simd = |f: &&str| ["sse", "ssse", "avx", "fma"].iter().any(|p| f.starts_with(p));
    flags.map_or_else(Vec::new, |f| f.split_whitespace().filter(simd).collect()).join(" ")
}

/// Whether two ledger `host` objects name one machine: the same `cpu` and
/// `nproc`, and the same `flags` where both rows record them. `simd` (the
/// level the code detected, in rows written before `flags`) is ignored.
fn same_host(a: Option<&Value>, b: Option<&Value>) -> bool {
    let (Some(a), Some(b)) = (a, b) else { return false };
    let flags = match (a.get("flags"), b.get("flags")) {
        (Some(fa), Some(fb)) => fa == fb,
        _ => true,
    };
    a.get("cpu") == b.get("cpu") && a.get("nproc") == b.get("nproc") && flags
}

/// `compare <a> <b>`: one verdict per workload × bounded metric of `b`.
/// Returns whether any row is `worse`.
fn compare(a_path: &str, b_path: &str) -> bool {
    let (a, b, spec) = (read_json(a_path), read_json(b_path), read_json("BENCHMARK.json"));
    let num = |v: Option<&Value>| match v {
        Some(Value::Num(n)) => *n,
        _ => panic!("ledger row without a number"),
    };
    let same_host = same_host(a.get("host"), b.get("host"));
    if !same_host {
        println!("hosts differ ({:?} / {:?}): no row can read worse", a.get("host"), b.get("host"));
    }
    println!("a = {a_path}, b = {b_path}");
    println!(
        "{:<14} {:<22} {:>15} {:>8} {:>15} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median a", "spread", "median b", "spread", "b worse", "bound"
    );
    let mut any_worse = false;
    let Some(Value::Object(workloads)) = b.get("workloads") else {
        panic!("{b_path}: no workloads")
    };
    for (workload, rows) in workloads {
        for m in spec.get("end_to_end").and_then(Value::as_array).expect("BENCHMARK.json metrics") {
            let name = m.get("name").and_then(Value::as_str).expect("metric name");
            let (Some(rb), Some(ra)) =
                (rows.get(name), a.get("workloads").and_then(|w| w.get(workload)?.get(name)))
            else {
                continue;
            };
            let bound = num(m.get("bound"));
            let (ma, mb) = (num(ra.get("median")), num(rb.get("median")));
            let (sa, sb) = (num(ra.get("spread")), num(rb.get("spread")));
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let worse_by = if ma == 0.0 {
                0.0
            } else if higher {
                (ma - mb) / ma.abs()
            } else {
                (mb - ma) / ma.abs()
            };
            let verdict = if sa > bound || sb > bound || (worse_by > bound && !same_host) {
                "unresolved"
            } else if worse_by > bound {
                "worse"
            } else {
                "ok"
            };
            any_worse |= verdict == "worse";
            println!(
                "{workload:<14} {name:<22} {ma:>15.4} {:>7.2}% {mb:>15.4} {:>7.2}% {:>8.2}% {:>5.0}%  {verdict}",
                100.0 * sa,
                100.0 * sb,
                100.0 * worse_by,
                100.0 * bound
            );
        }
    }
    any_worse
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, a, b] = &args[..] {
        if mode == "compare" {
            std::process::exit(i32::from(compare(a, b)));
        }
    }
    let [sweep, commit] = &args[..] else {
        eprintln!(
            "usage: bench_ledger <sweep.jsonl> <commit> | bench_ledger compare <a.json> <b.json>"
        );
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(sweep).expect("readable sweep file");
    // workload -> metric -> (unit, one value per run).
    let mut table: BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let row = json::parse(line).expect("a sweep line is one JSON object");
        let workload = row.get("workload").and_then(Value::as_str).expect("workload name");
        let Some(Value::Object(metrics)) = row.get("result").and_then(|r| r.get("metrics")) else {
            panic!("{workload}: no result.metrics object");
        };
        let rows = table.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let (Some(Value::Num(v)), Some(unit)) =
                (m.get("value"), m.get("unit").and_then(Value::as_str))
            else {
                panic!("{workload}/{name}: no value/unit");
            };
            rows.entry(name.clone()).or_insert_with(|| (unit.to_string(), Vec::new())).1.push(*v);
        }
    }
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |m| m.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("{{");
    println!("  \"commit\": \"{}\",", escape(commit));
    println!("  \"sweep\": \"{}\",", escape(sweep));
    println!(
        "  \"host\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"flags\": \"{}\"}},",
        escape(&cpu),
        escape(&simd_flags(&cpuinfo))
    );
    let workloads: Vec<String> = table
        .iter_mut()
        .map(|(workload, rows)| {
            let metrics: Vec<String> = rows
                .iter_mut()
                .map(|(name, (unit, values))| {
                    let (median, spread) = median_and_spread(values);
                    format!(
                        "      \"{}\": {{\"unit\": \"{}\", \"median\": {median}, \
                         \"spread\": {spread:.4}, \"runs\": {}}}",
                        escape(name),
                        escape(unit),
                        values.len()
                    )
                })
                .collect();
            format!("    \"{}\": {{\n{}\n    }}", escape(workload), metrics.join(",\n"))
        })
        .collect();
    println!("  \"workloads\": {{\n{}\n  }}\n}}", workloads.join(",\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(text: &str) -> Value {
        json::parse(text).unwrap()
    }

    #[test]
    fn hosts_that_differ_only_in_simd_are_one_host() {
        let avx2 = host(r#"{"nproc": 2, "cpu": "Xeon", "simd": "avx2"}"#);
        let avx512 = host(r#"{"nproc": 2, "cpu": "Xeon", "simd": "avx512"}"#);
        assert!(same_host(Some(&avx2), Some(&avx512)));
        // A row with flags is one host with an older row without them.
        let flagged = host(r#"{"nproc": 2, "cpu": "Xeon", "flags": "sse2 avx2"}"#);
        assert!(same_host(Some(&avx2), Some(&flagged)));
    }

    #[test]
    fn cpu_cores_or_flags_tell_hosts_apart() {
        let a = host(r#"{"nproc": 2, "cpu": "Xeon", "flags": "sse2 avx2"}"#);
        for b in [
            r#"{"nproc": 4, "cpu": "Xeon", "flags": "sse2 avx2"}"#,
            r#"{"nproc": 2, "cpu": "EPYC", "flags": "sse2 avx2"}"#,
            r#"{"nproc": 2, "cpu": "Xeon", "flags": "sse2 avx2 avx512f"}"#,
        ] {
            assert!(!same_host(Some(&a), Some(&host(b))), "{b}");
        }
        assert!(!same_host(Some(&a), None));
    }

    #[test]
    fn simd_flags_keep_only_vector_extensions() {
        let cpuinfo = "model name\t: Xeon\nflags\t\t: fpu sse sse2 ssse3 fma avx2 avx512f aes\n\
                       flags\t\t: sse2\n";
        assert_eq!(simd_flags(cpuinfo), "sse sse2 ssse3 fma avx2 avx512f");
        assert_eq!(simd_flags("model name: Xeon"), "");
    }
}
