//! `sweep` runs every workload several times, each run in its own process
//! and with its own seed, into a JSON-lines file; `compare` sets two such
//! files side by side, one row per metric and workload.

use crate::metrics::{MetricSpec, Spec};
use crate::stats::{median, spread};
use gist::obs::json::{self, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode};

fn flag_or<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match crate::flag(args, key)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{key}: bad value {v}")),
    }
}

/// `sweep --out <file> [--runs n] [--seed first] [--seconds s] [--trace 0|1]`
pub fn sweep(args: &[String], spec: &Spec) -> ExitCode {
    let parsed = (|| {
        let out: String = flag_or(args, "--out", String::new())?;
        if out.is_empty() {
            return Err("sweep needs --out <file>".to_string());
        }
        Ok((
            out,
            flag_or(args, "--runs", 10usize)?,
            flag_or(args, "--seed", 1u64)?,
            flag_or(args, "--seconds", spec.run_seconds)?,
            flag_or(args, "--trace", 0u8)?,
        ))
    })();
    let (out, runs, first_seed, seconds, trace) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe().expect("own path");
    let mut file = match std::fs::File::create(&out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot create {out}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0;
    for (workload, _) in &spec.workloads {
        for r in 0..runs as u64 {
            let seed = first_seed + r;
            let run = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", &trace.to_string()])
                .output();
            let line = run.ok().and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                text.lines().last().filter(|l| json::parse(l).is_ok()).map(str::to_string)
            });
            let Some(line) = line else {
                eprintln!("{workload} seed {seed}: no result line");
                bad += 1;
                continue;
            };
            eprintln!("{workload} seed {seed}: done");
            let row = format!(
                "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
                 \"result\": {line}}}\n"
            );
            if let Err(e) = file.write_all(row.as_bytes()) {
                eprintln!("error: writing {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(workload, metric) -> values over runs`, plus failed-run counts.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<(Samples, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    let mut failed = 0;
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| doc.get(k).ok_or(format!("{path}:{}: no {k}", n + 1));
        let workload = field("workload")?.as_str().unwrap_or("?").to_string();
        let result = field("result")?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            failed += 1;
        }
        if let Some(Value::Object(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                if let Some(Value::Num(v)) = m.get("value") {
                    samples.entry((workload.clone(), name.clone())).or_default().push(*v);
                }
            }
        }
    }
    Ok((samples, failed))
}

/// How far `b` is worse than `a`, as a share of `a`, in the metric's own
/// direction (negative when `b` is better).
fn worse_by(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if spec.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

/// `ok`, `worse` (beyond the bound) or `unresolved` (either side's spread
/// is wider than the bound, so the medians cannot settle it).
fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> &'static str {
    let Some(bound) = spec.bound else { return "-" };
    let wide = |xs: &[f64]| xs.len() >= 2 && spread(xs) > bound;
    if wide(a) || wide(b) {
        "unresolved"
    } else if worse_by(spec, median(a), median(b)) > bound {
        "worse"
    } else {
        "ok"
    }
}

/// `compare <a.jsonl> <b.jsonl>`; exits non-zero when any row is `worse`.
pub fn compare(args: &[String], spec: &Spec) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: compare <a.jsonl> <b.jsonl>");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("a = {a_path} ({} incorrect runs), b = {b_path} ({} incorrect runs)", a.1, b.1);
    println!(
        "{:<14} {:<40} {:>15} {:>8} {:>15} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median a", "spread", "median b", "spread", "b worse", "bound"
    );
    let mut any_worse = false;
    for (workload, _) in &spec.workloads {
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let key = (workload.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (a.0.get(&key), b.0.get(&key)) else { continue };
            let sp = |xs: &[f64]| {
                if xs.len() >= 2 {
                    format!("{:.2}%", 100.0 * spread(xs))
                } else {
                    "-".into()
                }
            };
            let v = verdict(m, xa, xb);
            any_worse |= v == "worse";
            println!(
                "{workload:<14} {:<40} {:>15.6} {:>8} {:>15.6} {:>8} {:>8.2}% {:>6}  {v}",
                m.name,
                median(xa),
                sp(xa),
                median(xb),
                sp(xb),
                100.0 * worse_by(m, median(xa), median(xb)),
                m.bound.map_or("-".into(), |b| format!("{:.0}%", 100.0 * b)),
            );
        }
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&lower(0.1), &steady, &steady), "ok");
        assert_eq!(verdict(&lower(0.1), &steady, &slower), "worse");
        assert_eq!(verdict(&lower(0.1), &slower, &steady), "ok");
        assert_eq!(verdict(&lower(0.1), &steady, &noisy), "unresolved");
        let higher = MetricSpec { higher_is_better: true, ..lower(0.1) };
        assert_eq!(verdict(&higher, &steady, &slower), "ok");
        assert_eq!(verdict(&higher, &slower, &steady), "worse");
        let unbounded = MetricSpec { bound: None, ..lower(0.1) };
        assert_eq!(verdict(&unbounded, &steady, &slower), "-");
    }
}
