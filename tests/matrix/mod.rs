//! The equivalence matrix: one table-driven harness for every train-step
//! cross of the execution axes.
//!
//! A **cell** picks one value per axis of [`values`] and trains for a
//! number of steps at a batch size. Executor cells (`replicas=exec`) run
//! `Executor::forward_backward` + `sgd_update` — what `Executor::step` does
//! — once per step; trainer cells run one `gist_dist::Trainer` over S = 8
//! shards, either owning every rank or as each rank of a world joined by an
//! in-process mesh or loopback TCP. Every loss a cell computes must be
//! finite, so two diverged runs never match. A cell's fingerprint has three
//! parts:
//!
//! * **values** — per-step loss bits, every gradient bit (for a trainer the
//!   merged gradient and every shard's loss) and the final parameter bits.
//!   They must equal the values of the cell's **reference**: the cell with
//!   the same model, steps and batch and every other axis at its first
//!   value, keeping only the numeric class — of the stash mode (baseline
//!   and lossless share one, fp16 and fp8 have their own) and, for a
//!   trainer, of the gradient codec (none, ssdc and auto share one). A
//!   reference runs once per process.
//! * **peaks** — `peak_live_bytes` per step, compared between the cells of
//!   one model, kind, mode, alloc, plan, offload, steps and batch.
//! * **pricing** (trainers) — broadcast and dense byte counters and the
//!   per-edge tables overlaid from every rank, compared between the cells of
//!   one model, mode class and codec.
//!
//! Transport cells also check the wire itself: one sender and one receiver
//! agree on the bytes of every transfer, a dense frame is observed at
//! exactly `priced + 13 + GRAD_FRAME_OVERHEAD`, and a trainer owning its
//! world frames nothing.
//!
//! **Coverage.** [`RULES`] declares which cells are not run, each with its
//! reason. The pair [`pass`] is a greedy cover of the whole product: every
//! pair of axis values the rules allow is in some cell of it, which
//! `tests/equivalence_matrix.rs` asserts by walking the product; it runs the
//! pass (two steps per cell) and a seeded sample of the product. The
//! per-axis suites keep their train-step tests as [`views!`]: the full
//! cross of the axis values they name, at the steps and batch they train.
//!
//! **Failure report.** A mismatch re-runs the cell with each differing axis
//! reset alone to the value of the cell it was compared with, and prints the
//! axes whose reset restores the match: the minimal differing axis.
//!
//! **Filter.** `GIST_MATRIX="model=tiny_classic alloc=arena"` runs only the
//! cells matching every clause (the clause syntax of [`RULES`], plus
//! `steps=n` and `batch=n`); a cell label as a failure prints it selects
//! exactly that cell.
#![allow(dead_code)] // every suite links the harness; each uses part of it

use gist::dist::{DistError, DistTrainer, NetTrainer, Trainer, GRAD_FRAME_OVERHEAD};
use gist::dist::{InProcess, NetConfig, Tcp, Transport};
use gist::encodings::{CodecPolicy, TransferCodec};
use gist::obs::Event;
use gist::par::with_threads;
use gist::runtime::params::{sgd_update, tensors, ParamGrads};
use gist::runtime::SyntheticImages;
use gist::runtime::{parse_offload, AllocPolicy, ExecMode, ExecSpec, Executor, PlanGranularity};
use gist::simd::{available_levels, parse_level, with_level, Level};
use gist::tensor::Tensor;
use gist_testkit::prop::Strategy;
use gist_testkit::Rng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The axes, in cell order.
pub const AXES: [&str; 10] = [
    "model",
    "mode",
    "alloc",
    "plan",
    "offload",
    "threads",
    "simd",
    "replicas",
    "transport",
    "codec",
];
const MODEL: usize = 0;
const MODE: usize = 1;
const THREADS: usize = 5;
const SIMD: usize = 6;
const REPLICAS: usize = 7;
const TRANSPORT: usize = 8;
const CODEC: usize = 9;

/// One value index per axis, and how long and how wide the cell trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cell {
    axes: [usize; AXES.len()],
    /// SGD steps.
    steps: usize,
    /// Images per step — per shard, for a trainer.
    batch: usize,
}

impl Cell {
    /// The cell of these values as the pair pass trains it: two steps of
    /// four images, or of two for a ResNet executor (cost) and a trainer
    /// shard (the pinned DPR runs). Four images make every per-image
    /// reduction a real tree.
    fn new(axes: [usize; AXES.len()]) -> Self {
        let narrow = axes[REPLICAS] != 0 || values()[MODEL][axes[MODEL]] == "resnet_cifar";
        Cell { axes, steps: STEPS, batch: if narrow { 2 } else { 4 } }
    }
}

impl std::ops::Index<usize> for Cell {
    type Output = usize;

    fn index(&self, axis: usize) -> &usize {
        &self.axes[axis]
    }
}

impl std::ops::IndexMut<usize> for Cell {
    fn index_mut(&mut self, axis: usize) -> &mut usize {
        &mut self.axes[axis]
    }
}

/// A parsed spec: its `axis=v1|v2` and `axis!=v` clauses as a value
/// bitmask per named axis, and the steps and batch its `steps=n` and
/// `batch=n` clauses pin.
#[derive(Default)]
struct Spec {
    masks: Vec<(usize, u32)>,
    steps: Option<usize>,
    batch: Option<usize>,
}

const STEPS: usize = 2;
const CLASSES: usize = 4;
const SHARDS: usize = 8;
const SEED: u64 = 7;
const DATA_SEED: u64 = 1234;
const NOISE: f32 = 0.3;
const LR: f32 = 0.05;
/// `Wire::to_bytes` header over the priced bytes of a dense wire.
const DENSE_WIRE_HEADER: u64 = 13;
/// Relative debug-build cost of one cell per model, for the greedy's ties.
const MODEL_COST: [usize; 6] = [1, 3, 1, 60, 6, 1];

/// Every axis's values, reference first, in the spellings the CLI and the
/// job specs parse (`threads=max` is the host's parallelism, at least 4).
pub fn values() -> &'static [Vec<&'static str>] {
    static VALUES: OnceLock<Vec<Vec<&'static str>>> = OnceLock::new();
    VALUES.get_or_init(|| {
        vec![
            vec![
                "tiny_convnet",
                "small_vgg",
                "tiny_classic",
                "resnet_cifar",
                "densenet_cifar",
                "four_branch",
            ],
            vec!["baseline", "lossless", "fp16", "fp8"],
            vec!["heap", "arena"],
            vec!["event", "wave"],
            vec!["none", "recompute", "swap:naive", "swap:vdnn", "swap:cdma"],
            vec!["1", "2", "max"],
            available_levels().into_iter().map(Level::name).collect(),
            vec!["exec", "1", "2", "4", "8"],
            vec!["own-all", "mesh", "tcp"],
            vec!["none", "ssdc", "dpr:8", "dpr:16", "auto"],
        ]
    })
}

/// Cells the pass does not run: a cell matching `when` must match `then`.
/// `(when, then, why)`.
pub const RULES: &[(&str, &str, &str)] = &[
    ("plan=wave", "alloc=arena", "wave granularity coarsens the arena plan; the heap has none"),
    ("replicas=exec", "transport=own-all codec=none", "a lone executor exchanges nothing"),
    (
        "replicas!=exec",
        "model!=resnet_cifar",
        "cost: a trainer step is S = 8 shard passes, ~0.8 s each for ResNet in a debug build; \
         DenseNet carries the same bias-less convs and batch norm through the exchange",
    ),
];

/// Expands `test: ["spec", …]` entries into `#[test]`s, each running the
/// selected cells of its view: every spec's full cross (see
/// [`view_cells`]).
macro_rules! views {
    ($($test:ident: [$($spec:literal),+ $(,)?]),+ $(,)?) => {$(
        #[test]
        fn $test() {
            $crate::matrix::run_view(&[$($spec),+]);
        }
    )+};
}
pub(crate) use views;

// ---------------------------------------------------------------------------
// The table: clauses, rules, pairs
// ---------------------------------------------------------------------------

fn parse(spec: &str) -> Spec {
    let mut out = Spec::default();
    for clause in spec.split_whitespace() {
        let (lhs, rhs) = clause.split_once('=').unwrap_or_else(|| panic!("clause `{clause}`"));
        let number = || Some(rhs.parse().unwrap_or_else(|_| panic!("`{clause}`: not a number")));
        match lhs {
            "steps" => out.steps = number(),
            "batch" => out.batch = number(),
            _ => {
                let (name, negated) = lhs.strip_suffix('!').map_or((lhs, false), |n| (n, true));
                let axis = AXES.iter().position(|a| *a == name);
                let axis = axis.unwrap_or_else(|| panic!("axis `{name}`"));
                let all = full()[axis];
                let mask = rhs.split('|').fold(0, |mask, v| {
                    mask | match values()[axis].iter().position(|x| *x == v) {
                        Some(i) => 1 << i,
                        None if v == "*" => all,
                        None => panic!("`{v}` is not a value of {name}: {:?}", values()[axis]),
                    }
                });
                out.masks.push((axis, if negated { all & !mask } else { mask }));
            }
        }
    }
    out
}

fn matches(c: &Cell, spec: &Spec) -> bool {
    spec.masks.iter().all(|&(axis, mask)| mask >> c[axis] & 1 == 1)
        && spec.steps.is_none_or(|steps| steps == c.steps)
        && spec.batch.is_none_or(|batch| batch == c.batch)
}

/// Whether [`RULES`] allow the cell.
pub fn allowed(c: &Cell) -> bool {
    static PARSED: OnceLock<Vec<(Spec, Spec)>> = OnceLock::new();
    let rules = PARSED.get_or_init(|| RULES.iter().map(|r| (parse(r.0), parse(r.1))).collect());
    rules.iter().all(|(when, then)| !matches(c, when) || matches(c, then))
}

/// The cell as clauses — what `GIST_MATRIX` accepts.
pub fn label(c: &Cell) -> String {
    let clause = |(a, name): (usize, &str)| format!("{name}={}", values()[a][c[a]]);
    let axes = AXES.into_iter().enumerate().map(clause).collect::<Vec<_>>().join(" ");
    format!("{axes} steps={} batch={}", c.steps, c.batch)
}

fn ones(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |v| mask >> v & 1 == 1)
}

/// Every axis with every value.
fn full() -> [u32; AXES.len()] {
    std::array::from_fn(|a| (1 << values()[a].len()) - 1)
}

fn axis_pairs() -> impl Iterator<Item = (usize, usize)> {
    (0..AXES.len()).flat_map(|a| (a + 1..AXES.len()).map(move |b| (a, b)))
}

/// Index of the pair (axis `a` = `i`, axis `b` = `j`) in a flat table.
fn pair(a: usize, i: usize, b: usize, j: usize) -> usize {
    let (a, i, b, j) = if a < b { (a, i, b, j) } else { (b, j, a, i) };
    ((a * AXES.len() + b) * 32 + i) * 32 + j
}

fn pairs_of(c: &Cell) -> impl Iterator<Item = usize> + '_ {
    axis_pairs().map(|(a, b)| pair(a, c[a], b, c[b]))
}

const PAIRS: usize = AXES.len() * AXES.len() * 32 * 32;

/// Every cell of a domain (a value mask per axis) the rules allow.
fn allowed_cells(domain: &[u32; AXES.len()]) -> Vec<Cell> {
    let mut product = vec![[0; AXES.len()]];
    for (axis, &mask) in domain.iter().enumerate() {
        let extend = |c: [usize; AXES.len()]| {
            ones(mask).map(move |v| std::array::from_fn(|a| if a == axis { v } else { c[a] }))
        };
        product = product.into_iter().flat_map(extend).collect();
    }
    product.into_iter().map(Cell::new).filter(allowed).collect()
}

/// The pairs some allowed cell of the domain holds.
fn allowed_pairs(domain: &[u32; AXES.len()]) -> Vec<bool> {
    let mut ok = vec![false; PAIRS];
    allowed_cells(domain).iter().flat_map(pairs_of).for_each(|p| ok[p] = true);
    ok
}

/// Cells holding every allowed pair of the domain: take the first uncovered
/// pair, then give each other axis the fitting value that covers most new
/// pairs (cheaper model, then lower index, on ties).
fn cover(domain: &[u32; AXES.len()]) -> Vec<Cell> {
    let ok = allowed_pairs(domain);
    let mut done = vec![false; PAIRS];
    let mut out = Vec::new();
    loop {
        let open = axis_pairs().find_map(|(a, b)| {
            let ij = ones(domain[a]).flat_map(|i| ones(domain[b]).map(move |j| (i, j)));
            ij.filter(|&(i, j)| ok[pair(a, i, b, j)] && !done[pair(a, i, b, j)])
                .map(|(i, j)| (a, i, b, j))
                .next()
        });
        let Some((a, i, b, j)) = open else { return out };
        let mut c = [usize::MAX; AXES.len()];
        (c[a], c[b]) = (i, j);
        for k in 0..AXES.len() {
            if c[k] != usize::MAX {
                continue;
            }
            let others: Vec<usize> = (0..AXES.len()).filter(|&x| c[x] != usize::MAX).collect();
            let best = ones(domain[k])
                .filter(|&v| others.iter().all(|&x| ok[pair(k, v, x, c[x])]))
                .min_by_key(|&v| {
                    let gain = others.iter().filter(|&&x| !done[pair(k, v, x, c[x])]).count();
                    (Reverse(gain), if k == MODEL { MODEL_COST[v] } else { 0 }, v)
                });
            c[k] = best.unwrap_or_else(|| panic!("no value of {} fits {:?}", AXES[k], c));
        }
        let c = Cell::new(c);
        assert!(allowed(&c), "the rules are not pairwise: greedy built `{}`", label(&c));
        pairs_of(&c).for_each(|p| done[p] = true);
        out.push(c);
    }
}

/// A view's cells. A spec crosses every value it names of every axis it
/// names — the allowed product, every other axis at its first value — and
/// trains each cell for its `steps=` and `batch=`, where it gives them. A
/// spec's reference is dropped unless that is all it names (it runs anyway,
/// as the reference of the rest).
fn view_cells(specs: &[&str]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for text in specs {
        let spec = parse(text);
        let mut domain = [1u32; AXES.len()];
        spec.masks.iter().for_each(|&(axis, mask)| domain[axis] = mask);
        let mut cross = allowed_cells(&domain);
        for c in &mut cross {
            c.steps = spec.steps.unwrap_or(c.steps);
            c.batch = spec.batch.unwrap_or(c.batch);
        }
        if cross.len() > 1 {
            cross.retain(|c| *c != reference_of(c));
        }
        assert!(!cross.is_empty(), "`{text}` names no allowed cell");
        cells.extend(cross.into_iter().filter(|c| !cells.contains(c)).collect::<Vec<_>>());
    }
    cells
}

/// The pair pass: cells holding every pair of axis values the rules allow.
pub fn pass() -> &'static [Cell] {
    static PASS: OnceLock<Vec<Cell>> = OnceLock::new();
    PASS.get_or_init(|| cover(&full()))
}

/// `(allowed, uncovered)`: the pairs of axis values the rules allow — found
/// by walking the full product, not by trusting the greedy — and those no
/// cell of the pass holds.
pub fn coverage() -> (usize, Vec<String>) {
    let domain = full();
    let ok = allowed_pairs(&domain);
    let mut done = vec![false; PAIRS];
    pass().iter().flat_map(pairs_of).for_each(|p| done[p] = true);
    let name = |a: usize, v: usize| format!("{}={}", AXES[a], values()[a][v]);
    let mut uncovered = Vec::new();
    for (a, b) in axis_pairs() {
        for (i, j) in ones(domain[a]).flat_map(|i| ones(domain[b]).map(move |j| (i, j))) {
            if ok[pair(a, i, b, j)] && !done[pair(a, i, b, j)] {
                uncovered.push(format!("{} {}", name(a, i), name(b, j)));
            }
        }
    }
    (ok.iter().filter(|&&o| o).count(), uncovered)
}

/// Cells drawn uniformly from the allowed product. Nothing to shrink: a
/// failing cell's report already names its minimal differing axis.
pub struct Sampled;

impl Strategy for Sampled {
    type Value = Cell;

    fn generate(&self, rng: &mut Rng) -> Cell {
        loop {
            let c = Cell::new(std::array::from_fn(|a| rng.gen_range(0..values()[a].len())));
            if allowed(&c) {
                return c;
            }
        }
    }
}

/// Whether `GIST_MATRIX` selects the cell (everything, when unset).
pub fn selected(c: &Cell) -> bool {
    static FILTER: OnceLock<Spec> = OnceLock::new();
    let filter = FILTER.get_or_init(|| {
        std::env::var("GIST_MATRIX").map_or_else(|_| Spec::default(), |s| parse(&s))
    });
    matches(c, filter)
}

// ---------------------------------------------------------------------------
// Running and comparing cells
// ---------------------------------------------------------------------------

/// A cell's fingerprint.
#[derive(Debug, Default)]
pub struct Print {
    values: Vec<u32>,
    peaks: Vec<u64>,
    pricing: Vec<u64>,
}

/// The reference whose values the cell must reproduce.
pub fn reference_of(c: &Cell) -> Cell {
    let mut r = Cell { axes: [0; AXES.len()], ..*c };
    r[MODEL] = c[MODEL];
    r[MODE] = if c[MODE] == 1 { 0 } else { c[MODE] }; // lossless is baseline's class
    if c[REPLICAS] != 0 {
        r[REPLICAS] = 1;
        r[CODEC] = if matches!(c[CODEC], 1 | 4) { 0 } else { c[CODEC] }; // ssdc, auto: none's
    }
    r
}

/// The cells whose peaks must agree with this one's share this key.
fn peak_key(c: &Cell) -> Cell {
    let mut k = *c;
    (k[THREADS], k[SIMD], k[TRANSPORT], k[CODEC]) = (0, 0, 0, 0);
    k[REPLICAS] = k[REPLICAS].min(1);
    k
}

/// The cells whose priced bytes must agree with this one's share this key.
fn pricing_key(c: &Cell) -> Cell {
    let mut k = reference_of(c);
    k[CODEC] = c[CODEC];
    k
}

/// Every update under these locks is one insert or one take, so a guard
/// poisoned by another failing test still guards a valid value.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The reference's values, run once per process.
fn reference(r: &Cell) -> Vec<u32> {
    type Refs = HashMap<Cell, Arc<OnceLock<Vec<u32>>>>;
    static REFS: OnceLock<Mutex<Refs>> = OnceLock::new();
    let slot = lock(REFS.get_or_init(Default::default)).entry(*r).or_default().clone();
    let values =
        || run(r).unwrap_or_else(|e| panic!("reference `{}` panicked: {e}", label(r))).values;
    slot.get_or_init(values).clone()
}

fn first_difference<T: PartialEq + std::fmt::Debug>(part: &str, got: &[T], want: &[T]) -> String {
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(i) => format!("{part} differ first at word {i}: {:?} vs {:?}", got[i], want[i]),
        None => format!("{part} have {} words vs {}", got.len(), want.len()),
    }
}

/// The cell's fingerprint, or `Err((why, the cell it was compared with))`
/// unless it runs, its values equal its reference's, and its peaks and
/// pricing equal the first cell of their key.
fn verdict(c: &Cell) -> Result<Print, (String, Cell)> {
    let r = reference_of(c);
    let p = run(c).map_err(|panic| (format!("panicked: {panic}"), r))?;
    let want = reference(&r);
    if p.values != want {
        return Err((first_difference("values", &p.values, &want), r));
    }
    type Seen = HashMap<(&'static str, Cell), (Cell, Vec<u64>)>;
    static SEEN: OnceLock<Mutex<Seen>> = OnceLock::new();
    let mut seen = lock(SEEN.get_or_init(Default::default));
    for (part, key, got) in
        [("peaks", peak_key(c), &p.peaks), ("pricing", pricing_key(c), &p.pricing)]
    {
        let (first, want) = seen.entry((part, key)).or_insert_with(|| (*c, got.clone()));
        if want != got {
            return Err((first_difference(part, got, want), *first));
        }
    }
    Ok(p)
}

/// Runs the cell and compares it; on a mismatch panics with the minimal
/// differing axis. Returns the fingerprint.
pub fn check(c: &Cell) -> Print {
    verdict(c).unwrap_or_else(|(why, against)| {
        let restores = |&a: &usize| {
            let mut probe = *c;
            probe[a] = against[a];
            allowed(&probe) && verdict(&probe).is_ok()
        };
        let axes = (0..AXES.len()).filter(|&a| c[a] != against[a]).filter(restores);
        let name = |a: usize| {
            format!("{} ({} vs {})", AXES[a], values()[a][c[a]], values()[a][against[a]])
        };
        let minimal = axes.map(name).collect::<Vec<_>>();
        panic!(
            "cell `{}` diverged: {why}\n  compared with `{}`\n  minimal differing axis: {}",
            label(c),
            label(&against),
            if minimal.is_empty() {
                "none alone restores the match".into()
            } else {
                minimal.join(", ")
            }
        )
    })
}

/// Runs every selected cell of a view.
pub fn run_view(specs: &[&str]) {
    view_cells(specs).iter().filter(|c| selected(c)).for_each(|c| drop(check(c)));
}

/// The values of the one cell `spec` names, checked against its reference.
pub fn values_of(spec: &str) -> Vec<u32> {
    let cells = view_cells(&[spec]);
    assert_eq!(cells.len(), 1, "`{spec}` names more than one cell");
    check(&cells[0]).values
}

fn scoped<R>(threads: usize, level: Level, f: impl FnOnce() -> R) -> R {
    with_level(level, || with_threads(threads, f))
}

fn grad_bits(grads: &[Option<ParamGrads>]) -> impl Iterator<Item = u32> + '_ {
    tensors(grads).flat_map(|t| t.data().iter().map(|v| v.to_bits()))
}

/// Runs the cell on a fresh thread (and, through `scoped`, a fresh pool), so
/// no thread-local scratch — im2col columns, GEMM packs — carries anything
/// from one cell into the next: a fingerprint is a function of its cell.
/// `Err` holds a panic's message.
fn run(c: &Cell) -> Result<Print, String> {
    std::thread::scope(|s| s.spawn(|| run_fresh(c)).join()).map_err(|panic| {
        let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| panic.downcast_ref::<String>().cloned()).unwrap_or_default()
    })
}

fn run_fresh(c: &Cell) -> Print {
    let v = |a: usize| values()[a][c[a]];
    let world = v(REPLICAS).parse::<usize>().ok();
    let batch = c.batch;
    let graph = match v(MODEL) {
        "tiny_convnet" => gist::models::tiny_convnet(batch, CLASSES),
        "small_vgg" => gist::models::small_vgg(batch, CLASSES),
        "tiny_classic" => gist::models::tiny_classic(batch, CLASSES),
        "resnet_cifar" => gist::models::resnet_cifar(1, batch),
        "densenet_cifar" => gist::models::densenet_cifar(1, 4, batch),
        _ => four_branch(batch),
    };
    let spec = ExecSpec {
        mode: ExecMode::parse(v(MODE)).expect("mode"),
        alloc: AllocPolicy::parse(v(2)).expect("alloc"),
        plan: PlanGranularity::parse(v(3)).expect("plan"),
        offload: parse_offload(v(4)).expect("offload"),
    };
    let threads = v(THREADS)
        .parse()
        .unwrap_or_else(|_| std::thread::available_parallelism().map_or(4, |n| n.get()).max(4));
    let level = parse_level(v(SIMD)).expect("level");
    let mut data = SyntheticImages::for_graph(&graph, NOISE, DATA_SEED).expect("dataset");
    let build = || Executor::new(graph.clone(), spec.clone(), SEED);
    let Some(world) = world else {
        return scoped(threads, level, || {
            let mut exec = build().expect("executor");
            let mut p = Print::default();
            let mut grads = Vec::new();
            for step in 0..c.steps {
                let (x, y) = data.minibatch(batch);
                let stats =
                    exec.forward_backward_into(&x, &y, &mut grads).expect("forward_backward");
                assert!(stats.loss.is_finite(), "step {step}: loss {}", stats.loss);
                p.values.push(stats.loss.to_bits());
                p.values.extend(grad_bits(&grads));
                p.peaks.push(stats.peak_live_bytes as u64);
                sgd_update(&mut exec.params, &grads, LR);
            }
            p.values.extend(exec.params.bits());
            p
        });
    };
    let (images, labels): (Vec<Tensor>, Vec<Vec<usize>>) =
        (0..SHARDS).map(|_| data.minibatch(batch)).unzip();
    let policy = CodecPolicy::parse(v(CODEC)).expect("codec");
    let (shards, build) = (Shards { steps: c.steps, images: &images, labels: &labels }, &build);
    let ranks = match v(TRANSPORT) {
        "own-all" => vec![scoped(threads, level, || {
            drive(0, 1, DistTrainer::new(world, SHARDS, policy, build), shards)
        })],
        "mesh" => {
            let nodes: Vec<_> =
                InProcess::mesh(world).into_iter().map(|t| Mutex::new(Some(t))).collect();
            each_rank(world, |rank| {
                let node = lock(&nodes[rank]).take().expect("one node per rank");
                let trainer = NetTrainer::new(node, SHARDS, policy, build);
                scoped(threads, level, || drive(rank, world, trainer, shards))
            })
        }
        _ => {
            // Every rank's listener is bound before any rank starts, and
            // handed over bound: no port is released and taken again.
            let listeners: Vec<_> = (0..world)
                .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0"))
                .collect();
            let peers: Vec<String> =
                listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
            let listeners: Vec<_> = listeners.into_iter().map(|l| Mutex::new(Some(l))).collect();
            each_rank(world, |rank| {
                let listener = lock(&listeners[rank]).take().expect("one listener per rank");
                let (id, config) = (policy.meta_id() as u32, NetConfig::default());
                let tcp = Tcp::rendezvous_on(listener, rank, &peers, SHARDS, id, &config)
                    .expect("rendezvous");
                let trainer = NetTrainer::new(tcp, SHARDS, policy, build);
                scoped(threads, level, || drive(rank, world, trainer, shards))
            })
        }
    };
    trainer_print(&ranks, policy)
}

/// Four convolution branches off one feature map, joined by a concat
/// (Inception-style). The branches share a wave, so their backward items
/// merge four same-wave contributions into the stem's gradient map — a
/// sum of three or more terms, whose bits depend on the merge order.
fn four_branch(batch: usize) -> gist::graph::Graph {
    use gist::tensor::ops::{conv::ConvParams, pool::PoolParams};
    let mut g = gist::graph::Graph::new("four_branch");
    let x = g.input(gist::tensor::Shape::nchw(batch, 3, 8, 8));
    let stem = g.conv(x, 4, ConvParams::new(3, 1, 1), true, "stem");
    let stem = g.relu(stem, "stem_relu");
    let branches: Vec<_> = (0..4)
        .map(|i| {
            let k = 1 + 2 * (i % 2);
            let conv = g.conv(stem, 2, ConvParams::new(k, 1, k / 2), true, format!("b{i}"));
            g.relu(conv, format!("b{i}_relu"))
        })
        .collect();
    let cat = g.concat(&branches, "cat");
    let pool = g.max_pool(cat, PoolParams::new(2, 2, 0), "pool");
    let fc = g.linear(pool, CLASSES, true, "fc");
    g.softmax_loss(fc, "loss");
    g
}

fn each_rank(world: usize, rank: impl Fn(usize) -> Rank + Sync) -> Vec<Rank> {
    let rank = &rank;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..world).map(|r| s.spawn(move || rank(r))).collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    })
}

/// One trainer's share of a run.
struct Rank {
    shards: Vec<usize>,
    reports: Vec<gist::dist::StepReport>,
    /// Each step's merged gradient bits (`Trainer::merged`).
    merged: Vec<Vec<u32>>,
    events: Vec<Event>,
    params: Vec<u32>,
}

/// The shard minibatches every rank indexes, stepped over every step.
#[derive(Clone, Copy)]
struct Shards<'a> {
    steps: usize,
    images: &'a [Tensor],
    labels: &'a [Vec<usize>],
}

fn drive<T: Transport>(
    rank: usize,
    stride: usize,
    trainer: Result<Trainer<T>, DistError>,
    shards: Shards,
) -> Rank {
    let mut trainer = trainer.expect("trainer");
    let (mut reports, mut events, mut merged) = (Vec::new(), Vec::new(), Vec::new());
    for step in 0..shards.steps {
        let rep = trainer.step(shards.images, shards.labels, LR).expect("trainer step");
        assert!(rep.loss.is_finite(), "step {step}: loss {}", rep.loss);
        assert_eq!(rep.batch, SHARDS * shards.images[0].shape().n());
        assert_eq!(rep.reduce_bytes, rep.edge_bytes.iter().flatten().sum::<u64>());
        let step_events = trainer.take_events();
        if trainer.replicas() == trainer.world() {
            assert_eq!(
                rep.observed_wire_bytes, 0,
                "a trainer owning its world observed wire bytes"
            );
            assert!(step_events.is_empty(), "a trainer owning its world recorded a transfer");
        }
        events.extend(step_events);
        merged.push(grad_bits(trainer.merged()).collect());
        reports.push(rep);
    }
    let params: Vec<u32> = trainer.replica(0).params.bits().collect();
    for r in 1..trainer.replicas() {
        assert!(
            trainer.replica(r).params.bits().eq(params.iter().copied()),
            "replica {r} diverged"
        );
    }
    Rank { shards: (rank..SHARDS).step_by(stride).collect(), reports, merged, events, params }
}

fn trainer_print(ranks: &[Rank], policy: CodecPolicy) -> Print {
    let lead = &ranks[0];
    let mut p = Print::default();
    for (step, rep) in lead.reports.iter().enumerate() {
        let mut losses = [None; SHARDS];
        for rank in ranks {
            let own = &rank.reports[step];
            let head = |r: &gist::dist::StepReport| {
                (r.loss.to_bits(), r.broadcast_bytes, r.dense_grad_bytes)
            };
            assert_eq!(
                head(own),
                head(rep),
                "ranks disagree on loss or byte counters at step {step}"
            );
            assert_eq!(rank.merged[step], lead.merged[step], "ranks merged different gradients");
            for (&shard, stats) in rank.shards.iter().zip(&own.shard_stats) {
                losses[shard] = Some(stats.loss.to_bits());
            }
        }
        p.values.push(rep.loss.to_bits());
        p.values.extend(losses.map(|l| l.expect("every shard has one owner")));
        p.values.extend(&lead.merged[step]);
        p.peaks.push(rep.shard_stats[0].peak_live_bytes as u64);
        p.pricing.extend([rep.broadcast_bytes, rep.dense_grad_bytes]);
        p.pricing.extend(overlay(ranks.iter().map(|r| &r.reports[step].edge_bytes)).concat());
    }
    assert!(ranks.iter().all(|r| r.params == lead.params), "ranks' parameters diverged");
    p.values.extend(&lead.params);
    audit(ranks, policy);
    p
}

/// Every rank's partial `[round][edge]` table overlaid: both endpoints of a
/// crossing edge price it alike, and every edge is priced by some rank.
fn overlay<'a>(mut tables: impl Iterator<Item = &'a Vec<Vec<u64>>>) -> Vec<Vec<u64>> {
    let mut merged = tables.next().expect("a rank").clone();
    for table in tables {
        for (slot, &bytes) in merged.iter_mut().flatten().zip(table.iter().flatten()) {
            if bytes != 0 {
                assert!(
                    *slot == 0 || *slot == bytes,
                    "an edge priced {slot} on one end, {bytes} on the other"
                );
                *slot = bytes;
            }
        }
    }
    assert!(merged.iter().flatten().all(|&b| b > 0), "an edge priced by no rank: {merged:?}");
    merged
}

/// Every transfer has one sender and one receiver per step that agree on
/// its bytes; a dense one is observed at priced + header + frame exactly.
fn audit(ranks: &[Rank], policy: CodecPolicy) {
    let steps = ranks[0].reports.len();
    let mut sides: BTreeMap<&str, [Vec<(u64, u64)>; 2]> = BTreeMap::new();
    for event in ranks.iter().flat_map(|r| &r.events) {
        let Event::NetTransfer { name, sent, priced_bytes, observed_bytes, .. } = event else {
            panic!("unexpected event {event:?}");
        };
        if policy == CodecPolicy::Fixed(TransferCodec::None) {
            let framed = priced_bytes + DENSE_WIRE_HEADER + GRAD_FRAME_OVERHEAD;
            assert_eq!(
                *observed_bytes, framed,
                "{name}: dense observed != priced + header + frame"
            );
        }
        sides.entry(name.as_str()).or_default()[usize::from(*sent)]
            .push((*priced_bytes, *observed_bytes));
    }
    for (name, [mut received, mut sent]) in sides {
        assert_eq!(
            (sent.len(), received.len()),
            (steps, steps),
            "{name}: one sender, one receiver"
        );
        sent.sort_unstable();
        received.sort_unstable();
        assert_eq!(sent, received, "{name}: sender and receiver disagree on bytes");
    }
}
