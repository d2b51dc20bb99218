//! `gist-cli` — plan, inspect and export model memory layouts.
//!
//! ```text
//! gist-cli models
//! gist-cli plan vgg16 --batch 64 --mode fp16
//! gist-cli breakdown inception --batch 64
//! gist-cli stashes alexnet
//! gist-cli dot resnet50 > resnet50.dot
//! gist-cli train tiny-convnet --batch 4 --steps 3 --trace out.json
//! gist-cli train small-vgg --batch 4 --alloc arena --offload recompute
//! ```

use gist_core::{plan::stash_breakdown, Gist, GistConfig};
use gist_graph::class::baseline_inventory;
use gist_graph::Graph;
use gist_memory::FootprintReport;
use gist_runtime::{ExecMode, ExecSpec};
use std::process::ExitCode;

// The model table lives in gist-models (`MODEL_NAMES` / `by_name`) so the
// CLI, the serve scheduler and the test suites all agree on spellings.
const MODELS: &[&str] = gist_models::MODEL_NAMES;

fn build_model(name: &str, batch: usize) -> Option<Graph> {
    gist_models::by_name(name, batch)
}

/// The planner-side reading of `--mode`, through the one spelling table
/// (`ExecMode::parse`): the baseline plans as the no-encoding config, and
/// the executor-only Figure 12 strawman has no plan.
fn parse_mode(mode: &str) -> Option<GistConfig> {
    match ExecMode::parse(mode)? {
        ExecMode::Baseline => Some(GistConfig::baseline()),
        ExecMode::Gist(config) => Some(config),
        ExecMode::UniformImmediate(_) => None,
    }
}

struct Args {
    command: String,
    model: Option<String>,
    batch: usize,
    mode: String,
    dynamic: bool,
    optimized_software: bool,
    steps: usize,
    trace: Option<String>,
    alloc: gist_runtime::AllocPolicy,
    offload: gist_runtime::OffloadMode,
    replicas: usize,
    grad_codec: gist_dist::GradCodecPolicy,
    transport: Transport,
    rank: usize,
    peers: Vec<String>,
    spawn_local: usize,
    mem_budget: u64,
    jobs: Vec<String>,
    order: String,
}

impl Args {
    /// The execution spec `train` runs under: `--mode`, `--alloc` and
    /// `--offload` as one value.
    fn exec_spec(&self) -> Result<ExecSpec, String> {
        let mode = ExecMode::parse(&self.mode).ok_or(format!("unknown mode {}", self.mode))?;
        Ok(ExecSpec { mode, alloc: self.alloc, offload: self.offload })
    }
}

/// Which medium carries cross-replica gradient traffic in `train`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transport {
    /// In-process replicas (`gist_dist::DistTrainer`), the default.
    InProcess,
    /// One OS process per rank over framed loopback/remote TCP
    /// (`gist_dist::Tcp`), either as a worker (`--rank`/`--peers`) or as
    /// the `--spawn-local N` launcher.
    Tcp,
}

/// Parses a byte count with an optional `k`/`m` (KiB/MiB) suffix.
fn parse_bytes(v: &str) -> Option<u64> {
    let v = v.trim().to_ascii_lowercase();
    let (num, mult) = match v.strip_suffix(['k', 'm']) {
        Some(num) if v.ends_with('k') => (num, 1024u64),
        Some(num) => (num, 1024 * 1024),
        None => (v.as_str(), 1),
    };
    num.parse::<u64>().ok().filter(|&n| n > 0)?.checked_mul(mult)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: argv.first().cloned().ok_or_else(usage)?,
        model: None,
        batch: 64,
        mode: "lossless".into(),
        dynamic: false,
        optimized_software: false,
        steps: 1,
        trace: None,
        alloc: gist_runtime::AllocPolicy::Heap,
        offload: gist_runtime::OffloadMode::None,
        replicas: 1,
        grad_codec: gist_dist::GradCodecPolicy::Fixed(gist_dist::GradCodec::None),
        transport: Transport::InProcess,
        rank: 0,
        peers: Vec::new(),
        spawn_local: 0,
        mem_budget: 4 * 1024 * 1024,
        jobs: Vec::new(),
        order: "ascending".into(),
    };
    let mut it = argv[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--batch" => {
                let v = it.next().ok_or("--batch needs a value")?;
                args.batch = v.parse().map_err(|_| format!("bad batch size: {v}"))?;
                if args.batch == 0 {
                    return Err("--batch must be at least 1".into());
                }
            }
            "--mode" => {
                args.mode = it.next().ok_or("--mode needs a value")?.clone();
            }
            "--steps" => {
                let v = it.next().ok_or("--steps needs a value")?;
                args.steps = v.parse().map_err(|_| format!("bad step count: {v}"))?;
            }
            "--trace" => {
                args.trace = Some(it.next().ok_or("--trace needs a file path")?.clone());
            }
            "--alloc" => {
                let v = it.next().ok_or("--alloc needs heap or arena")?;
                args.alloc = gist_runtime::AllocPolicy::parse(v)
                    .ok_or(format!("unknown alloc policy: {v}"))?;
            }
            "--offload" => {
                let v = it.next().ok_or("--offload needs a mechanism")?;
                args.offload = gist_runtime::parse_offload(v).ok_or(format!(
                    "unknown offload mechanism: {v} \
                     (try recompute|swap|swap:naive|swap:vdnn|swap:cdma)"
                ))?;
            }
            "--replicas" => {
                let v = it.next().ok_or("--replicas needs a value")?;
                args.replicas = v.parse().map_err(|_| format!("bad replica count: {v}"))?;
                if args.replicas == 0 {
                    return Err("--replicas must be at least 1".into());
                }
            }
            "--grad-codec" => {
                let v = it.next().ok_or("--grad-codec needs a value")?;
                args.grad_codec = gist_dist::GradCodecPolicy::parse(v).ok_or(format!(
                    "unknown grad codec: {v} (try none|ssdc|dpr:16|dpr:10|dpr:8|auto)"
                ))?;
            }
            "--transport" => {
                args.transport = match it.next().ok_or("--transport needs a value")?.as_str() {
                    "inprocess" => Transport::InProcess,
                    "tcp" => Transport::Tcp,
                    other => return Err(format!("unknown transport: {other} (try inprocess|tcp)")),
                };
            }
            "--rank" => {
                let v = it.next().ok_or("--rank needs a value")?;
                args.rank = v.parse().map_err(|_| format!("bad rank: {v}"))?;
            }
            "--peers" => {
                let v = it.next().ok_or("--peers needs host:port,host:port,...")?;
                args.peers = v.split(',').map(|p| p.trim().to_string()).collect();
                if args.peers.iter().any(String::is_empty) {
                    return Err(format!("bad peer list: {v}"));
                }
            }
            "--spawn-local" => {
                let v = it.next().ok_or("--spawn-local needs a worker count")?;
                args.spawn_local = v.parse().map_err(|_| format!("bad worker count: {v}"))?;
                if args.spawn_local < 2 {
                    return Err("--spawn-local needs at least 2 workers".into());
                }
            }
            "--mem-budget" => {
                let v = it.next().ok_or("--mem-budget needs a value like 512k or 4m")?;
                args.mem_budget =
                    parse_bytes(v).ok_or(format!("bad memory budget: {v} (try 512k or 4m)"))?;
            }
            "--job" => {
                args.jobs
                    .push(it.next().ok_or("--job needs a spec like tiny-convnet,steps=2")?.clone());
            }
            "--order" => {
                args.order =
                    it.next().ok_or("--order needs ascending|descending|rotating")?.clone();
            }
            "--dynamic" => args.dynamic = true,
            "--optimized-software" => args.optimized_software = true,
            other if !other.starts_with("--") && args.model.is_none() => {
                args.model = Some(other.to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn usage() -> String {
    "usage: gist-cli <models|plan|breakdown|stashes|report|dot|trace|train|serve> [model] \
     [--batch N] [--mode baseline|lossless|fp16|fp10|fp8] [--dynamic] [--optimized-software] \
     [--steps N] [--trace out.json] [--alloc heap|arena] \
     [--offload recompute|swap|swap:naive|swap:vdnn|swap:cdma] \
     [--replicas N] [--grad-codec none|ssdc|dpr:16|dpr:10|dpr:8|auto] \
     [--transport inprocess|tcp] [--rank R] [--peers host:port,...] [--spawn-local N] \
     [--mem-budget N[k|m]] [--job model,key=value,...]* [--order ascending|descending|rotating]"
        .to_string()
}

fn run(args: Args) -> Result<(), String> {
    if args.command == "models" {
        for m in MODELS {
            println!("{m}");
        }
        return Ok(());
    }
    if args.command == "serve" {
        return run_serve(&args);
    }
    let model_name = args.model.as_deref().ok_or_else(usage)?;
    let graph = build_model(model_name, args.batch)
        .ok_or_else(|| format!("unknown model {model_name}; try `gist-cli models`"))?;
    match args.command.as_str() {
        "plan" => {
            let mut config =
                parse_mode(&args.mode).ok_or_else(|| format!("unknown mode {}", args.mode))?;
            if args.dynamic {
                config = config.with_dynamic_allocation();
            }
            if args.optimized_software {
                config = config.with_optimized_software();
            }
            let plan = Gist::new(config).plan(&graph).map_err(|e| e.to_string())?;
            let gb = |b: usize| b as f64 / (1u64 << 30) as f64;
            println!("{} @ batch {} ({} mode)", plan.model, args.batch, args.mode);
            println!("  baseline : {:8.3} GB", gb(plan.baseline_bytes));
            println!("  optimized: {:8.3} GB", gb(plan.optimized_bytes));
            println!("  MFR      : {:8.2}x", plan.mfr());
            println!("\nencodings:");
            for a in &plan.transformed.assignments {
                println!(
                    "  {:<24} {:<10} -> {}",
                    graph.node(a.node).name,
                    a.kind.label(),
                    a.encoding.label()
                );
            }
        }
        "breakdown" => {
            let inv = baseline_inventory(&graph).map_err(|e| e.to_string())?;
            print!("{}", FootprintReport::from_inventory(graph.name(), &inv).to_table());
        }
        "stashes" => {
            let b = stash_breakdown(&graph).map_err(|e| e.to_string())?;
            let gb = |v: usize| v as f64 / (1u64 << 30) as f64;
            println!("{} stashed feature maps @ batch {}", graph.name(), args.batch);
            println!("  ReLU-Pool (binarize): {:8.3} GB", gb(b.relu_pool));
            println!("  ReLU-Conv (ssdc)    : {:8.3} GB", gb(b.relu_conv));
            println!("  Others    (dpr)     : {:8.3} GB", gb(b.other));
            println!("  ReLU fraction       : {:7.1}%", 100.0 * b.relu_fraction());
        }
        "report" => {
            let config =
                parse_mode(&args.mode).ok_or_else(|| format!("unknown mode {}", args.mode))?;
            let plan = Gist::new(config).plan(&graph).map_err(|e| e.to_string())?;
            println!(
                "{:<24} {:<10} {:<9} {:>10} {:>10} {:>8}",
                "layer", "kind", "encoding", "fp32(KB)", "enc(KB)", "ratio"
            );
            for row in plan.encoding_report(&graph) {
                println!(
                    "{:<24} {:<10} {:<9} {:>10.1} {:>10.1} {:>7.1}x",
                    row.layer,
                    row.kind.label(),
                    row.encoding,
                    row.fp32_bytes as f64 / 1024.0,
                    row.encoded_bytes as f64 / 1024.0,
                    row.compression()
                );
            }
        }
        "dot" => print!("{}", gist_graph::dot::to_dot(&graph)),
        "train" => {
            let spec = args.exec_spec()?;
            if args.transport == Transport::Tcp {
                if args.spawn_local > 0 {
                    run_spawn_local(&args)?;
                } else {
                    run_train_dist(rendezvous_tcp(&args)?, graph, spec, &args)?;
                }
            } else if args.replicas > 1
                || args.grad_codec != gist_dist::GradCodecPolicy::Fixed(gist_dist::GradCodec::None)
            {
                run_train_dist(args.replicas, graph, spec, &args)?;
            } else {
                run_train(graph, spec, &args)?;
            }
        }
        "trace" => {
            let mut config =
                parse_mode(&args.mode).ok_or_else(|| format!("unknown mode {}", args.mode))?;
            if args.dynamic {
                config = config.with_dynamic_allocation();
            }
            let t =
                gist_core::ScheduleBuilder::new(config).build(&graph).map_err(|e| e.to_string())?;
            print!("{}", gist_memory::to_chrome_trace(&t.inventory));
        }
        other => return Err(format!("unknown command {other}\n{}", usage())),
    }
    Ok(())
}

/// The scripted job mix `serve` runs when no `--job` is given: four small
/// jobs spanning modes, alloc policies, replica counts and grad codecs.
const DEFAULT_JOB_MIX: &[&str] = &[
    "tiny-convnet,name=j0,steps=3",
    "tiny-classic,name=j1,steps=2,mode=fp8",
    "small-vgg,name=j2,steps=2,alloc=heap",
    "tiny-convnet,name=j3,steps=2,replicas=2,codec=ssdc",
];

/// Runs a job mix through the gist-serve scheduler under `--mem-budget`,
/// printing per-job outcomes plus the budget-oracle verdict.
fn run_serve(args: &Args) -> Result<(), String> {
    use gist_serve::{JobSpec, ServeConfig, Server, StepOrder};
    // Garbage interleave spellings warn and fall back (workspace policy).
    let (order, warning) = gist_core::parse_or_warn(
        "gist-cli",
        "--order",
        Some(&args.order),
        "ascending|descending|rotating",
        "ascending",
        StepOrder::parse,
        || StepOrder::Ascending,
    );
    if let Some(w) = warning {
        eprintln!("{w}");
    }
    let mut config = ServeConfig::new(args.mem_budget);
    config.order = order;

    let specs: Vec<&str> = if args.jobs.is_empty() {
        DEFAULT_JOB_MIX.to_vec()
    } else {
        args.jobs.iter().map(String::as_str).collect()
    };
    let mut server = Server::new(config);
    for raw in &specs {
        let (spec, warnings) = JobSpec::parse(raw).map_err(|e| e.to_string())?;
        for w in warnings {
            eprintln!("{w}");
        }
        let name = spec.name.clone();
        let id = server.submit(spec).map_err(|e| e.to_string())?;
        println!(
            "job {id}: {name} admitted to queue, slab lease {:.1} KB",
            server.lease_bytes(id) as f64 / 1024.0
        );
    }

    let report = server.run().map_err(|e| e.to_string())?;
    for job in &report.jobs {
        println!(
            "job {}: {} ({}) {} step(s), {} park(s), queued {} tick(s), \
             finished tick {}, final loss {:.4}",
            job.job,
            job.name,
            job.model,
            job.steps,
            job.parks,
            job.queue_ticks,
            job.completed_tick,
            job.loss_bits.last().map_or(f32::NAN, |&b| f32::from_bits(b)),
        );
    }
    let done = report.jobs.iter().filter(|j| j.steps == j.loss_bits.len()).count();
    println!(
        "{done}/{} jobs completed in {} ticks ({} admission(s), {} park(s), \
         mean queue latency {:.1} ticks)",
        report.jobs.len(),
        report.ticks,
        report.admissions,
        report.parks,
        report.mean_queue_ticks()
    );
    if report.parks > 0 {
        println!(
            "parked state peak: {:.1} KB host-side (SSDC wire)",
            report.parked_wire_bytes_peak as f64 / 1024.0
        );
    }
    if !report.all_completed() {
        return Err("some jobs did not complete".into());
    }
    println!(
        "budget oracle ok: max live {} B <= budget {} B",
        report.max_live_bytes, report.budget_bytes
    );
    Ok(())
}

/// The synthetic dataset every `train` path draws from.
const DATA_NOISE: f32 = 0.3;
const DATA_SEED: u64 = 42;

/// Runs `--steps` training steps on synthetic data, optionally recording an
/// execution trace (`--trace out.json`, chrome://tracing format) and
/// printing the aggregate counters report. The printed train fingerprint
/// (`ParamSet::fingerprint` over each step's loss bits) is what
/// `scripts/verify.sh` demands be bitwise-identical across alloc
/// policies and thread counts; it is also the return value.
fn run_train(graph: Graph, spec: ExecSpec, args: &Args) -> Result<u64, String> {
    let mut ds = gist_runtime::SyntheticImages::for_graph(&graph, DATA_NOISE, DATA_SEED)
        .map_err(|e| e.to_string())?;
    let mut exec = gist_runtime::Executor::new(graph, spec, 7).map_err(|e| e.to_string())?;
    if let Some(capacity) = exec.arena_capacity_bytes() {
        println!("arena slab: {:.1} KB pre-planned", capacity as f64 / 1024.0);
    }
    if let Some(plan) = exec.offload_plan() {
        let r = gist_offload::simulate(exec.graph(), plan, &gist_perf::GpuModel::titan_x())
            .map_err(|e| e.to_string())?;
        println!(
            "offload: {} segment(s), {} swap transfer(s), {:.1} KB host-pinned",
            plan.segments.len(),
            r.transfers.len(),
            exec.host_pinned_bytes() as f64 / 1024.0
        );
        println!(
            "simulated step: {:.3} ms total, {:.3} ms stalled, {:.1}% overhead (Titan X clock)",
            r.total_s * 1e3,
            r.stall_s * 1e3,
            r.overhead_pct()
        );
    }
    let sink = gist_obs::TraceSink::new();
    let null = gist_obs::NullRecorder;
    let rec: &dyn gist_obs::Recorder = if args.trace.is_some() { &sink } else { &null };
    let mut loss_bits = Vec::with_capacity(args.steps);
    for step in 0..args.steps {
        let (x, y) = ds.minibatch(args.batch);
        let stats = exec.step_traced(&x, &y, 0.05, rec).map_err(|e| e.to_string())?;
        loss_bits.push(stats.loss.to_bits());
        println!(
            "step {:>3}: loss {:.4}  acc {:5.1}%  peak live {:.1} KB  stash {:.1} KB",
            step,
            stats.loss,
            100.0 * stats.accuracy(),
            stats.peak_live_bytes as f64 / 1024.0,
            stats.stash_bytes as f64 / 1024.0
        );
    }
    let fingerprint = exec.params.fingerprint(&loss_bits);
    println!("train fingerprint: 0x{fingerprint:016x}");
    if let Some(path) = &args.trace {
        let events = sink.take();
        std::fs::write(path, gist_obs::export_chrome(&events)).map_err(|e| e.to_string())?;
        println!("wrote {} trace events to {path}", events.len());
        print!("{}", gist_obs::CountersReport::from_events(&events).to_table());
    }
    Ok(fingerprint)
}

/// Runs `--steps` data-parallel training steps on the ranks `placement`
/// owns — every one of `--replicas` in-process ranks, or the one rank a
/// connected [`gist_dist::Tcp`] speaks for: `gist_dist::DEFAULT_SHARDS`
/// micro-batch shards of `--batch` images each, gradients all-reduced
/// through the fixed tree with `--grad-codec` on every transfer. Each step
/// prints this trainer's edges as the virtual-clock link engine prices
/// them next to the bytes its transport observed (none in-process); the
/// fingerprint is the same for every placement of the same world
/// (`verify.sh` asserts it across the process boundary).
fn run_train_dist<T: gist_dist::Transport>(
    placement: impl Into<gist_dist::Placement<T>>,
    graph: Graph,
    spec: ExecSpec,
    args: &Args,
) -> Result<(), String> {
    let shards = gist_dist::DEFAULT_SHARDS;
    let mut ds = gist_runtime::SyntheticImages::for_graph(&graph, DATA_NOISE, DATA_SEED)
        .map_err(|e| e.to_string())?;
    // Data-parallel replicas run fully resident.
    let spec = ExecSpec { offload: gist_runtime::OffloadMode::None, ..spec };
    let mut trainer = gist_dist::Trainer::new(placement, shards, args.grad_codec, || {
        gist_runtime::Executor::new(graph.clone(), spec.clone(), 7)
    })
    .map_err(|e| e.to_string())?;
    // Every replica runs the same per-shard graph, so each needs an
    // identical pre-planned slab: the arena-policy peak of the lowered step.
    let per = gist_runtime::StepProgram::lower(&graph, &spec.clone().arena())
        .and_then(|program| program.peak_bytes(&std::collections::HashMap::new()))
        .map_err(|e| e.to_string())?;
    let total = per * trainer.replicas() as u64;
    println!(
        "replica slab: {:.1} KB per replica, {:.1} KB across {} replica(s) of {}",
        per as f64 / 1024.0,
        total as f64 / 1024.0,
        trainer.replicas(),
        trainer.world()
    );
    let gpu = gist_perf::GpuModel::titan_x();
    let mut loss_bits = Vec::with_capacity(args.steps);
    let mut events = Vec::new();
    for step in 0..args.steps {
        let (images, labels): (Vec<_>, Vec<_>) =
            (0..shards).map(|_| ds.minibatch(args.batch)).unzip();
        let rep = trainer.step(&images, &labels, 0.05).map_err(|e| e.to_string())?;
        loss_bits.push(rep.loss.to_bits());
        let priced = trainer.price(&rep, &gpu);
        println!(
            "step {:>3}: loss {:.4}  acc {:5.1}%  wire {:.1} KB priced, {:.1} KB observed \
             ({} codec, dense {:.1} KB)  all-reduce {:.3} ms",
            step,
            rep.loss,
            100.0 * (rep.correct as f64 / rep.batch as f64),
            priced.bytes_on_wire as f64 / 1024.0,
            rep.observed_wire_bytes as f64 / 1024.0,
            args.grad_codec.label(),
            rep.dense_grad_bytes as f64 / 1024.0,
            priced.total_s * 1e3
        );
        if args.trace.is_some() {
            events.extend(trainer.take_events());
        }
    }
    println!("train fingerprint: 0x{:016x}", trainer.replica(0).params.fingerprint(&loss_bits));
    if let Some(path) = &args.trace {
        std::fs::write(path, gist_obs::export_chrome(&events)).map_err(|e| e.to_string())?;
        println!("wrote {} net trace events to {path}", events.len());
    }
    Ok(())
}

/// Joins the `--peers` world as `--rank`: the transport of one rank of a
/// multi-process TCP training job.
fn rendezvous_tcp(args: &Args) -> Result<gist_dist::Tcp, String> {
    let shards = gist_dist::DEFAULT_SHARDS;
    let world = args.peers.len();
    if world < 2 {
        return Err("--transport tcp needs --peers with at least two host:port entries \
             (or --spawn-local N to fork a loopback world)"
            .into());
    }
    if args.rank >= world {
        return Err(format!("--rank {} outside the world of {world} peers", args.rank));
    }
    if !shards.is_multiple_of(world) {
        return Err(format!("the peer count must divide {shards} (got {world})"));
    }
    // GIST_NET_TIMEOUT_MS garbage warns and falls back (workspace policy).
    let config = gist_dist::NetConfig::from_env();
    let policy_id = args.grad_codec.meta_id() as u32;
    let tcp = gist_dist::Tcp::rendezvous(args.rank, &args.peers, shards, policy_id, &config)
        .map_err(|e| e.to_string())?;
    println!(
        "rank {}/{world}: rendezvous complete ({} codec, {shards} shards)",
        args.rank,
        args.grad_codec.label()
    );
    Ok(tcp)
}

/// Loopback launcher: forks `--spawn-local N` worker processes of this
/// same binary (one rank each on freshly reserved loopback ports), relays
/// their output with a `[rank r]` prefix, and requires every rank to print
/// the identical train fingerprint before printing it as its own.
fn run_spawn_local(args: &Args) -> Result<(), String> {
    let n = args.spawn_local;
    if args.replicas > 1 && args.replicas != n {
        return Err(format!(
            "--replicas {} conflicts with --spawn-local {n} (the worker count is the \
             replica count in tcp mode)",
            args.replicas
        ));
    }
    let model = args.model.clone().ok_or_else(usage)?;
    let peers: Vec<String> = (0..n)
        .map(|_| {
            std::net::TcpListener::bind("127.0.0.1:0")
                .map_err(|e| format!("reserve loopback port: {e}"))
                .map(|l| format!("127.0.0.1:{}", l.local_addr().expect("local addr").port()))
        })
        .collect::<Result<_, _>>()?;
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let peer_list = peers.join(",");
    let mut children = Vec::with_capacity(n);
    for rank in 0..n {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("train")
            .arg(&model)
            .args(["--batch", &args.batch.to_string()])
            .args(["--steps", &args.steps.to_string()])
            .args(["--mode", &args.mode])
            .args(["--alloc", args.alloc.label()])
            .args(["--grad-codec", args.grad_codec.label()])
            .args(["--transport", "tcp"])
            .args(["--rank", &rank.to_string()])
            .args(["--peers", &peer_list])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped());
        if let Some(path) = &args.trace {
            cmd.args(["--trace", &format!("{path}.rank{rank}")]);
        }
        children.push(cmd.spawn().map_err(|e| format!("spawn rank {rank}: {e}"))?);
    }
    let mut fingerprints = Vec::with_capacity(n);
    let mut failed = false;
    for (rank, child) in children.into_iter().enumerate() {
        let out = child.wait_with_output().map_err(|e| format!("wait for rank {rank}: {e}"))?;
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            println!("[rank {rank}] {line}");
            if let Some(fp) = line.strip_prefix("train fingerprint: ") {
                fingerprints.push(fp.to_string());
            }
        }
        for line in String::from_utf8_lossy(&out.stderr).lines() {
            eprintln!("[rank {rank}] {line}");
        }
        if !out.status.success() {
            eprintln!("[rank {rank}] exited with {}", out.status);
            failed = true;
        }
    }
    if failed {
        return Err("a worker rank failed".into());
    }
    if fingerprints.len() != n {
        return Err(format!("only {} of {n} ranks printed a fingerprint", fingerprints.len()));
    }
    if fingerprints.iter().any(|fp| fp != &fingerprints[0]) {
        return Err(format!("ranks disagree on the train fingerprint: {fingerprints:?}"));
    }
    println!("train fingerprint: {}", fingerprints[0]);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one whitespace-separated command line.
    fn cli(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_full_command_line() {
        let a = cli("plan vgg16 --batch 32 --mode fp8 --dynamic").unwrap();
        assert_eq!(a.command, "plan");
        assert_eq!(a.model.as_deref(), Some("vgg16"));
        assert_eq!(a.batch, 32);
        assert_eq!(a.mode, "fp8");
        assert!(a.dynamic && !a.optimized_software);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(cli("").is_err());
        assert!(cli("plan --batch").is_err());
        assert!(cli("plan --bogus").is_err());
        // A zero batch trains on nothing: every loss would be NaN.
        assert!(cli("plan vgg16 --batch 0").is_err());
        assert!(cli("train tiny-convnet --batch 0 --steps 2").is_err());
        assert!(run(cli("plan nosuchmodel").unwrap()).is_err());
        assert!(run(cli("frobnicate vgg16").unwrap()).is_err());
    }

    #[test]
    fn every_listed_model_builds() {
        for m in MODELS {
            assert!(build_model(m, 2).is_some(), "{m}");
        }
        assert!(build_model("bogus", 2).is_none());
    }

    #[test]
    fn all_commands_run_on_a_small_model() {
        for cmd in ["plan", "breakdown", "stashes", "report", "dot", "trace"] {
            let a = cli(&format!("{cmd} alexnet --batch 2")).unwrap();
            run(a).unwrap_or_else(|e| panic!("{cmd}: {e}"));
        }
    }

    #[test]
    fn train_writes_a_parsable_chrome_trace() {
        let path = std::env::temp_dir().join("gist_cli_train_trace_test.json");
        let path_str = path.to_str().unwrap().to_string();
        let a = cli(&format!("train tiny-convnet --batch 4 --steps 2 --trace {path_str}")).unwrap();
        assert_eq!((a.steps, a.trace.as_deref()), (2, Some(path_str.as_str())));
        run(a).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let events = gist_obs::parse_chrome(&text).unwrap();
        assert!(!events.is_empty());
        // Two traced steps produce a well-formed memory stream.
        let mut acc = gist_obs::MemoryAccountant::new();
        acc.fold_all(&events).unwrap();
        assert!(acc.peak_bytes() > 0);
        let _ = std::fs::remove_file(&path);
    }

    /// What `train small-vgg --batch 4 --steps 3` printed at the last commit
    /// that still had a direct 3×3 convolution kernel beside the im2col
    /// lowering. Small-VGG is all 3×3/stride-1 convs, so this value standing
    /// is the bitwise proof that deleting that kernel changed nothing — do
    /// not edit it. (verify.sh runs it forced-scalar on one thread and on
    /// the detected level with the default pool.)
    #[test]
    fn small_vgg_train_fingerprint_is_pinned() {
        for alloc in ["heap", "arena"] {
            let a = cli(&format!("train small-vgg --batch 4 --steps 3 --alloc {alloc}")).unwrap();
            let graph = build_model(a.model.as_deref().unwrap(), a.batch).unwrap();
            let fingerprint = run_train(graph, a.exec_spec().unwrap(), &a).unwrap();
            assert_eq!(fingerprint, 0xbbea_10f8_6e07_33c0, "--alloc {alloc}");
        }
    }

    #[test]
    fn train_runs_without_tracing() {
        let a = cli("train tiny-classic --batch 2 --mode fp8").unwrap();
        run(a).unwrap();
    }

    #[test]
    fn parses_offload_and_trains_offloaded() {
        use gist_runtime::{OffloadMode, SwapStrategy};
        let a = cli("train tiny-convnet --batch 2 --alloc arena --offload recompute").unwrap();
        assert_eq!(a.offload, OffloadMode::Recompute);
        run(a).unwrap();
        for (flag, want) in [
            ("swap", OffloadMode::Swap(SwapStrategy::Vdnn)),
            ("swap:naive", OffloadMode::Swap(SwapStrategy::Naive)),
            ("swap:vdnn", OffloadMode::Swap(SwapStrategy::Vdnn)),
        ] {
            let a = cli(&format!("train tiny-convnet --batch 2 --offload {flag}")).unwrap();
            assert_eq!(a.offload, want, "{flag}");
            run(a).unwrap();
        }
        assert!(cli("train tiny-convnet --offload teleport").is_err());
        assert!(cli("train tiny-convnet --offload").is_err());
    }

    #[test]
    fn parses_replicas_and_grad_codec_and_trains_distributed() {
        let a = cli("train tiny-convnet --batch 2 --replicas 2 --grad-codec ssdc").unwrap();
        assert_eq!(a.replicas, 2);
        assert_eq!(a.grad_codec, gist_dist::GradCodecPolicy::Fixed(gist_dist::GradCodec::Ssdc));
        run(a).unwrap();
        // A codec alone routes through the distributed path too.
        let a = cli("train tiny-convnet --batch 2 --grad-codec dpr:8 --alloc arena").unwrap();
        assert_eq!(a.replicas, 1);
        run(a).unwrap();
        assert!(cli("train tiny-convnet --replicas 0").is_err());
        assert!(cli("train tiny-convnet --grad-codec zip").is_err());
        // 3 does not divide the 8 fixed shards.
        let a = cli("train tiny-convnet --batch 2 --replicas 3").unwrap();
        assert!(run(a).is_err());
    }

    #[test]
    fn parses_auto_codec_and_trains_through_the_dist_path() {
        let a = cli("train tiny-convnet --batch 2 --replicas 2 --grad-codec auto").unwrap();
        assert_eq!(a.grad_codec, gist_dist::GradCodecPolicy::Auto);
        run(a).unwrap();
        // Auto alone (replicas 1) still routes through the dist path.
        let a = cli("train tiny-convnet --batch 2 --grad-codec auto").unwrap();
        run(a).unwrap();
    }

    #[test]
    fn parses_transport_flags() {
        let a = cli(
            "train tiny-convnet --transport tcp --rank 1 --peers 127.0.0.1:5000,127.0.0.1:5001",
        )
        .unwrap();
        assert_eq!(a.transport, Transport::Tcp);
        assert_eq!(a.rank, 1);
        assert_eq!(a.peers, vec!["127.0.0.1:5000".to_string(), "127.0.0.1:5001".to_string()]);
        let a = cli("train tiny-convnet --spawn-local 2").unwrap();
        assert_eq!(a.spawn_local, 2);
        assert!(cli("train tiny-convnet --transport carrier").is_err());
        assert!(cli("train tiny-convnet --spawn-local 1").is_err());
        assert!(cli("train tiny-convnet --peers a,,b").is_err());
        // A tcp worker without a usable roster or rank fails by name.
        let a = cli("train tiny-convnet --transport tcp").unwrap();
        assert!(run(a).unwrap_err().contains("--peers"));
        let a = cli(
            "train tiny-convnet --transport tcp --rank 5 --peers 127.0.0.1:5000,127.0.0.1:5001",
        )
        .unwrap();
        assert!(run(a).unwrap_err().contains("--rank 5"));
    }

    #[test]
    fn tcp_workers_train_in_lockstep_over_loopback() {
        // Two in-test "processes" (threads running the full CLI path) over
        // real loopback sockets; the per-rank fingerprints are asserted
        // identical by the printed-output contract elsewhere — here both
        // runs completing proves rendezvous + framed lockstep end to end.
        let peers: Vec<String> = (0..2)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                format!("127.0.0.1:{}", l.local_addr().unwrap().port())
            })
            .collect();
        let roster = peers.join(",");
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let roster = roster.clone();
                std::thread::spawn(move || {
                    let a = cli(&format!(
                        "train tiny-convnet --batch 2 --steps 1 --transport tcp \
                         --grad-codec ssdc --rank {rank} --peers {roster}"
                    ))
                    .unwrap();
                    run(a)
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            h.join().unwrap().unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        }
    }

    #[test]
    fn parse_bytes_understands_suffixes() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("512k"), Some(512 * 1024));
        assert_eq!(parse_bytes("4M"), Some(4 * 1024 * 1024));
        for bad in ["", "0", "-1", "4g", "lots", "k"] {
            assert_eq!(parse_bytes(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn serve_runs_the_default_mix_under_the_default_budget() {
        let a = cli("serve").unwrap();
        assert_eq!(a.mem_budget, 4 * 1024 * 1024);
        assert!(a.jobs.is_empty());
        run(a).unwrap();
    }

    #[test]
    fn serve_parses_budget_and_jobs_and_completes_a_tight_mix() {
        let a = cli("serve --mem-budget 768k --order rotating --job tiny-convnet,steps=2 \
                     --job tiny-classic,steps=2,mode=fp8")
        .unwrap();
        assert_eq!(a.mem_budget, 768 * 1024);
        assert_eq!(a.jobs.len(), 2);
        run(a).unwrap();
    }

    #[test]
    fn serve_rejects_bad_budget_and_unknown_job_model() {
        assert!(cli("serve --mem-budget lots").is_err());
        assert!(cli("serve --mem-budget").is_err());
        assert!(cli("serve --job").is_err());
        // Unknown model in a job spec is a hard error at submit time...
        let a = cli("serve --job warpdrive,steps=1").unwrap();
        assert!(run(a).is_err());
        // ...and a job whose lease alone exceeds the budget is rejected.
        let a = cli("serve --mem-budget 1k --job tiny-convnet,steps=1").unwrap();
        assert!(run(a).is_err());
    }

    #[test]
    fn serve_garbage_order_and_values_fall_back_instead_of_failing() {
        // Garbage --order and garbage known-key values warn + fall back, so
        // the run still completes (workspace parse_or_warn policy).
        let a = cli("serve --order sideways --job tiny-convnet,steps=backwards,codec=zip").unwrap();
        run(a).unwrap();
    }

    #[test]
    fn parses_alloc_policy_and_trains_in_arena() {
        let a = cli("train tiny-convnet --batch 2 --alloc arena").unwrap();
        assert_eq!(a.alloc, gist_runtime::AllocPolicy::Arena);
        run(a).unwrap();
        assert!(cli("train tiny-convnet --alloc stack").is_err());
    }
}
