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

/// `compare <a> <b>`: one verdict per workload × bounded metric of `b`.
/// Returns whether any row is `worse`.
fn compare(a_path: &str, b_path: &str) -> bool {
    let (a, b, spec) = (read_json(a_path), read_json(b_path), read_json("BENCHMARK.json"));
    let num = |v: Option<&Value>| match v {
        Some(Value::Num(n)) => *n,
        _ => panic!("ledger row without a number"),
    };
    let same_host = a.get("host") == b.get("host");
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
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| s.lines().find(|l| l.starts_with("model name")).map(str::to_string))
        .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("{{");
    println!("  \"commit\": \"{}\",", escape(commit));
    println!("  \"sweep\": \"{}\",", escape(sweep));
    println!(
        "  \"host\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"simd\": \"{}\"}},",
        escape(&cpu),
        gist_simd::detected_level()
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
