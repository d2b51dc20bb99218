//! The repo benchmark. See `README.md` beside `Cargo.toml` for the
//! workloads, the metric glossary and how to run it; `BENCHMARK.json` at
//! the repo root lists every metric this binary prints.
//!
//! Everything is measured from outside the program, by timing calls into
//! the public API of the `gist` facade.

mod alloc;
mod compare;
mod exchange;
mod host;
mod metrics;
mod nets;
mod replay;
mod serve;
mod span;
mod stats;
mod train;
mod workload;

use metrics::{Report, Spec};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Workload, ARMS};

#[global_allocator]
static COUNTER: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str = "usage:
  gist-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
  gist-benchmark sweep --out <file.jsonl> [--runs <n>] [--seed <first>] [--seconds <s>] [--trace <0|1>]
  gist-benchmark compare <a.jsonl> <b.jsonl>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parses `--key value` pairs; every key is optional here and checked by
/// the caller.
pub fn flag<'a>(args: &'a [String], key: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => args.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{key} needs a value")),
    }
}

fn parse_run_args(args: &[String], spec: &Spec) -> Result<Args, String> {
    for (i, a) in args.iter().enumerate() {
        let known = ["--workload", "--seed", "--seconds", "--trace"].contains(&a.as_str());
        if i % 2 == 0 && !known {
            return Err(format!("unknown argument {a}"));
        }
    }
    let workload = flag(args, "--workload")?.ok_or("--workload is required")?.to_string();
    if !spec.has_workload(&workload) {
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        return Err(format!("unknown workload {workload}; one of {}", names.join(", ")));
    }
    let seed = flag(args, "--seed")?
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = match flag(args, "--seconds")? {
        None => spec.run_seconds,
        Some(s) => s.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match flag(args, "--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// The knobs the program reads from the environment. The benchmark pins
/// threads, SIMD level, plan granularity and the net timeout explicitly,
/// so a set variable changes nothing — but the person who set it should
/// know that.
fn warn_about_env() {
    for var in ["GIST_THREADS", "GIST_SIMD", "GIST_PLAN", "GIST_NET_TIMEOUT_MS"] {
        if let Ok(v) = std::env::var(var) {
            eprintln!("warning: {var}={v} is set; the benchmark pins this itself and ignores it");
        }
    }
}

/// Builds the workload's inputs from the seed, constructs every arm and
/// runs its warm-up iterations. Timed as `setup_s`.
fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "train_conv" => Box::new(train::Train::setup(train::CONV, seed)),
        "train_stash" => Box::new(train::Train::setup(train::STASH, seed)),
        "exchange_mlp" => Box::new(exchange::Exchange::setup(seed)),
        "serve_churn" => Box::new(serve::Serve::setup(seed)),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn run(args: &Args, spec: &Spec) -> Report {
    let mut report = Report::default();

    // Set up several times and report the median: one set-up is a few
    // hundred milliseconds, too short for a single sample to be steady.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let t0 = Instant::now();
        w = Some(setup(&args.workload, args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");

    if !args.trace {
        let stats = workload::run_loop(w.as_mut(), &args.workload, args.seconds, None);
        stats.end_to_end(w.units_per_iter(), &mut report);
        let bytes = w.finish(&mut report);
        for (arm, b) in ARMS.iter().zip(bytes) {
            report.set(&format!("bytes_{arm}"), b);
        }
        report.set("setup_s", stats::median(&setup_s));
        report.note("setup_s", format!("median of {SETUPS}: {setup_s:?}"));
        report.set("rss_peak_mb", host::rss_peak_mb());
        return report;
    }

    // The traced run: half the time in the workload's own loop with every
    // other round traced, the rest replaying each layer on its own.
    let mut tracer = span::Tracer::new();
    let stats =
        workload::run_loop(w.as_mut(), &args.workload, args.seconds * 0.5, Some(&mut tracer));
    stats.per_layer(&mut report);
    w.finish(&mut report);
    w.per_layer(&stats, &mut report);
    drop(w);
    replay::run(&args.workload, args.seed, args.seconds * 0.5, &mut tracer, &mut report);
    host::calibrate(&mut report);
    workload::zero_off_path(&spec.per_layer, &mut report);
    write_trace(&args.workload, &tracer);
    report
}

/// Writes the spans to `out/<workload>.trace.json` beside this package's
/// `Cargo.toml`. A failure to write is reported, not fatal: the metrics do
/// not depend on the file.
fn write_trace(workload: &str, tracer: &span::Tracer) {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!("{workload}.trace.json"));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_chrome()));
    match written {
        Ok(()) => println!("trace: {} spans written to {}", tracer.spans().len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    println!("self time by layer of the traced loop and replays (ms):");
    for (layer, ns) in tracer.self_ns_by_layer() {
        println!("  {layer:<10} {:>12.3}", ns as f64 / 1e6);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::compare(&args[1..], &spec),
        Some("sweep") => return compare::sweep(&args[1..], &spec),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => {}
    }
    let run_args = match parse_run_args(&args, &spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    warn_about_env();
    host::print_fingerprint(run_args.seed);
    println!(
        "workload {} seed {} seconds {} trace {}",
        run_args.workload, run_args.seed, run_args.seconds, run_args.trace as u8
    );

    // Pin the SIMD level to what the CPU has, whatever GIST_SIMD says; each
    // workload pins its own thread count.
    let level = gist::simd::detected_level();
    let report = gist::simd::with_level(level, || run(&run_args, &spec));

    let specs = if run_args.trace { &spec.per_layer } else { &spec.end_to_end };
    let (extra, missing) = report.mismatch(specs);
    if !extra.is_empty() || !missing.is_empty() {
        eprintln!("error: metrics not in BENCHMARK.json: {extra:?}; listed but unset: {missing:?}");
        return ExitCode::from(3);
    }
    println!("{} metrics:", if run_args.trace { "per-layer" } else { "end-to-end" });
    print!("{}", report.table(specs));
    println!("ops_attempted {}  ops_failed {}", report.attempted, report.failed);
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    println!("{}", report.result_line(specs));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name a run sets is listed in `BENCHMARK.json` and every listed
    /// name is set, in both modes, with no failed check. All four workloads
    /// set the same names, so the cheapest one stands for them.
    #[test]
    fn a_run_sets_exactly_the_listed_metrics() {
        let spec = Spec::load();
        for trace in [false, true] {
            let args = Args { workload: "train_stash".into(), seed: 3, seconds: 0.05, trace };
            let level = gist::simd::detected_level();
            let report = gist::simd::with_level(level, || run(&args, &spec));
            let specs = if trace { &spec.per_layer } else { &spec.end_to_end };
            assert_eq!(report.mismatch(specs), (vec![], vec![]));
            assert_eq!(report.failed, 0, "{:?}", report.failures);
            assert!(report.attempted > 0);
        }
    }
}
