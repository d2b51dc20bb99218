//! `exchange_mlp`: data-parallel training of a wide MLP whose 7.4 MB
//! gradient makes the exchange, not the local compute, the larger part of
//! a step. Two shards, two ranks, every rank on one thread.
//!
//! Arms: `ref` is `DistTrainer` (the reduction tree without a socket),
//! `lossless` is a 2-rank `NetTrainer<Tcp>` loopback world with raw
//! gradients (bit-equal to `ref`), `lossy` the same world with `dpr:8`
//! on every edge. Compressed bytes only pay when the link is real, so the
//! wire is executed, not priced.

use crate::metrics::Report;
use crate::nets::{self, PARAM_SEED};
use crate::span::Tracer;
use crate::stats::undisturbed;
use crate::train::{new_executor, LR};
use crate::workload::{LoopStats, Workload, ARMS};
use gist::dist::{DistTrainer, GradCodec, GradCodecPolicy};
use gist::encodings::DprFormat;
use gist::net::{NetConfig, NetTrainer, Tcp};
use gist::obs::Event;
use gist::par::ThreadPool;
use gist::runtime::{AllocPolicy, ExecMode, Executor};
use gist::tensor::Tensor;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 2;
pub const SHARD_BATCH: usize = 4;
pub const IMAGE: usize = 16;
const STEPS_PER_ROUND: usize = 5;
/// Distinct global minibatches (one entry per shard each) the arms cycle.
const POOL: usize = 8;
/// An idle arm's helper rank waits in `recv` while the other arms run;
/// the default 10 s read timeout would fire in a long run.
const NET_TIMEOUT: Duration = Duration::from_secs(120);

/// One global minibatch: images and labels per shard.
type Global = (Vec<Tensor>, Vec<Vec<usize>>);

fn globals(seed: u64) -> Vec<Global> {
    let mut flat = nets::minibatches(seed, IMAGE, SHARD_BATCH, POOL * SHARDS).into_iter();
    (0..POOL).map(|_| flat.by_ref().take(SHARDS).unzip()).collect()
}

fn rank_executor() -> Executor {
    new_executor(nets::wide_mlp(SHARD_BATCH), ExecMode::Baseline, PARAM_SEED, AllocPolicy::Heap)
}

/// Rank 0 of a 2-rank loopback world, plus the helper thread running
/// rank 1. The helper steps only when told to, so an idle world computes
/// nothing while another arm is being timed.
struct TcpWorld {
    trainer: NetTrainer<Tcp>,
    /// `(first global minibatch index, steps)`; dropping it stops rank 1.
    go: Option<Sender<(usize, usize)>>,
    done: Receiver<Result<(), String>>,
    helper: Option<JoinHandle<()>>,
}

impl TcpWorld {
    fn new(codec: GradCodec, globals: Arc<Vec<Global>>) -> TcpWorld {
        // Reserve two free loopback ports; each rank binds its own again in
        // the rendezvous.
        let peers: Vec<String> = (0..2)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a free port");
                format!("127.0.0.1:{}", l.local_addr().expect("bound address").port())
            })
            .collect();
        let policy = GradCodecPolicy::Fixed(codec);
        let config = NetConfig { timeout: NET_TIMEOUT };
        let (go, go_rx) = channel::<(usize, usize)>();
        let (done_tx, done) = channel();
        let level = gist::simd::level();
        let helper = {
            let peers = peers.clone();
            std::thread::spawn(move || {
                // A spawned thread starts with no SIMD override and the
                // global pool; pin both like rank 0.
                gist::simd::with_level(level, || {
                    gist::par::with_threads(1, || {
                        let tcp =
                            Tcp::rendezvous(1, &peers, SHARDS, codec.meta_id() as u32, &config)
                                .expect("rank 1 rendezvous");
                        let mut t = NetTrainer::new(tcp, SHARDS, policy, || Ok(rank_executor()))
                            .expect("rank 1 trainer");
                        while let Ok((first, steps)) = go_rx.recv() {
                            let mut result = Ok(());
                            for i in first..first + steps {
                                let (x, y) = &globals[i % POOL];
                                if let Err(e) = t.step(x, y, LR) {
                                    result = Err(e.to_string());
                                    break;
                                }
                                t.take_events();
                            }
                            if done_tx.send(result).is_err() {
                                break;
                            }
                        }
                    })
                })
            })
        };
        let tcp = Tcp::rendezvous(0, &peers, SHARDS, codec.meta_id() as u32, &config)
            .expect("rank 0 rendezvous");
        let trainer =
            NetTrainer::new(tcp, SHARDS, policy, || Ok(rank_executor())).expect("rank 0 trainer");
        TcpWorld { trainer, go: Some(go), done, helper: Some(helper) }
    }
}

impl Drop for TcpWorld {
    fn drop(&mut self) {
        // Closing the channel ends rank 1's loop; its sockets close with it.
        self.go = None;
        if let Some(h) = self.helper.take() {
            if h.join().is_err() {
                eprintln!("warning: rank 1 helper thread panicked");
            }
        }
    }
}

pub struct Exchange {
    globals: Arc<Vec<Global>>,
    inproc: DistTrainer,
    worlds: [TcpWorld; 2],
    /// Two threads for `ref` (one sub-pool thread per replica), one for
    /// rank 0 of the TCP arms.
    pools: [Arc<ThreadPool>; 2],
    steps: [usize; 3],
    loss_bits: [Vec<u32>; 3],
    /// Bytes per step: priced edge + broadcast bytes for `ref`, observed
    /// socket bytes at rank 0 for the TCP arms.
    bytes: [u64; 3],
    priced: [u64; 3],
    errors: u64,
}

impl Exchange {
    pub fn setup(seed: u64) -> Exchange {
        let globals = Arc::new(globals(seed));
        let pools = [Arc::new(ThreadPool::new(2)), Arc::new(ThreadPool::new(1))];
        let inproc = gist::par::with_pool(&pools[0], || {
            DistTrainer::new(SHARDS, SHARDS, GradCodec::None, || Ok(rank_executor()))
                .expect("in-process trainer")
        });
        let worlds = [
            TcpWorld::new(GradCodec::None, Arc::clone(&globals)),
            TcpWorld::new(GradCodec::Dpr(DprFormat::Fp8), Arc::clone(&globals)),
        ];
        let mut w = Exchange {
            globals,
            inproc,
            worlds,
            pools,
            steps: [0; 3],
            loss_bits: Default::default(),
            bytes: [0; 3],
            priced: [0; 3],
            errors: 0,
        };
        let mut discard = Vec::new();
        for arm in 0..3 {
            w.steps_of(arm, 2, None, &mut discard);
        }
        w
    }

    fn steps_of(
        &mut self,
        arm: usize,
        steps: usize,
        mut tracer: Option<&mut Tracer>,
        iter_ms: &mut Vec<f64>,
    ) {
        let pool = Arc::clone(&self.pools[arm.min(1)]);
        if arm > 0 {
            let go = self.worlds[arm - 1].go.as_ref().expect("world is running");
            go.send((self.steps[arm], steps)).expect("rank 1 is listening");
        }
        gist::par::with_pool(&pool, || {
            for _ in 0..steps {
                iter_ms.push(self.step(arm, tracer.as_deref_mut()));
            }
        });
        if arm > 0 {
            // The round is over when every rank has finished it.
            match self.worlds[arm - 1].done.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    eprintln!("rank 1 of {}: {e}", ARMS[arm]);
                    self.errors += 1;
                }
                Err(_) => self.errors += 1,
            }
        }
    }

    fn step(&mut self, arm: usize, tracer: Option<&mut Tracer>) -> f64 {
        let globals = Arc::clone(&self.globals);
        let (x, y) = &globals[self.steps[arm] % POOL];
        self.steps[arm] += 1;
        let span = tracer.map(|t| {
            let s = t.begin(format!("step {}", self.steps[arm]), "step");
            (t, s)
        });
        let t0 = Instant::now();
        // (loss, bytes that crossed, priced bytes, transfer events)
        let outcome = if arm == 0 {
            self.inproc.step(x, y, LR).map_err(|e| e.to_string()).map(|r| {
                let priced = r.reduce_bytes + r.broadcast_bytes;
                (r.loss, priced, priced, Vec::new())
            })
        } else {
            let t = &mut self.worlds[arm - 1].trainer;
            t.step(x, y, LR).map_err(|e| e.to_string()).map(|r| {
                let priced = r.reduce_bytes + r.broadcast_bytes;
                (r.loss, r.observed_wire_bytes, priced, t.take_events())
            })
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let events = match outcome {
            Ok((loss, bytes, priced, events)) if loss.is_finite() => {
                self.loss_bits[arm].push(loss.to_bits());
                self.bytes[arm] = self.bytes[arm].max(bytes);
                self.priced[arm] = self.priced[arm].max(priced);
                events
            }
            other => {
                if let Err(e) = other {
                    eprintln!("{} step failed: {e}", ARMS[arm]);
                }
                self.loss_bits[arm].push(f32::NAN.to_bits());
                self.errors += 1;
                Vec::new()
            }
        };
        if let Some((t, s)) = span {
            for ev in events {
                if let Event::NetTransfer { name, ts_ns, dur_ns, .. } = ev {
                    t.child(&name, "net", ts_ns, dur_ns);
                }
            }
            t.end(s);
        }
        ms
    }

    /// `forward_backward` on one rank's shard alone: what a step would
    /// cost if the exchange were free.
    fn local_compute_ms(&self) -> f64 {
        let mut exec = rank_executor();
        let (x, y) = &self.globals[0];
        gist::par::with_pool(&self.pools[1], || {
            let ms: Vec<f64> = (0..12)
                .map(|_| {
                    let t0 = Instant::now();
                    exec.forward_backward(&x[0], &y[0]).expect("local forward_backward");
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            // The first two calls warm the executor's scratch.
            undisturbed(&ms[2..])
        })
    }
}

impl Workload for Exchange {
    fn units_per_iter(&self) -> f64 {
        (SHARDS * SHARD_BATCH) as f64
    }

    fn round(&mut self, arm: usize, tracer: Option<&mut Tracer>, iter_ms: &mut Vec<f64>) {
        self.steps_of(arm, STEPS_PER_ROUND, tracer, iter_ms);
    }

    fn finish(&mut self, report: &mut Report) -> [f64; 3] {
        report.attempted += self.steps.iter().sum::<usize>() as u64;
        for _ in 0..self.errors {
            report.fail("a step errored or produced a non-finite loss".into());
        }
        let n = self.loss_bits[0].len().min(self.loss_bits[1].len());
        let diverged = (0..n).filter(|&i| self.loss_bits[0][i] != self.loss_bits[1][i]).count();
        if diverged > 0 {
            report
                .fail(format!("tcp raw loss bits differ from in-process at {diverged}/{n} steps"));
        }
        println!(
            "check: tcp raw == in-process loss bits over {n} steps ({diverged} differ); \
             tcp dpr:8 losses all finite: {}",
            self.loss_bits[2].iter().all(|b| f32::from_bits(*b).is_finite())
        );
        self.bytes.map(|b| b as f64)
    }

    fn per_layer(&mut self, stats: &LoopStats, report: &mut Report) {
        let local = self.local_compute_ms();
        println!("local compute (forward_backward on one shard, one thread): {local:.3} ms");
        for (arm, name) in ARMS.iter().enumerate() {
            let step = undisturbed(&stats.iter_ms[arm]);
            report.set(&format!("net.exchange_share_{name}"), 1.0 - local / step);
            let observed = if arm == 0 { 0 } else { self.bytes[arm] };
            report.set(&format!("net.observed_bytes_per_step_{name}"), observed as f64);
            report.set(&format!("net.priced_bytes_per_step_{name}"), self.priced[arm] as f64);
        }
    }
}
