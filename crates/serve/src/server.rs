//! The admission-by-static-plan scheduler.
//!
//! ## Admission invariants
//!
//! 1. **Lease before life.** A job's slab lease is the static predictor's
//!    arena bound — `replicas ×` the peak of its step lowered under the
//!    arena policy (`StepProgram::lower(..).peak_bytes(..)`) — computed at
//!    submit time. A heap-policy job leases the same number —
//!    its observed peak is never above the arena reservation — so one
//!    lease arithmetic covers both policies.
//! 2. **Live ≤ budget, observed.** Every lease/release folds an
//!    `Alloc`/`Free` into a [`MemoryAccountant`]; the server checks
//!    `live_bytes() <= budget` after every fold and the run fails loudly
//!    if the invariant ever breaks. The budget-oracle property test holds
//!    64+ random job mixes to this.
//! 3. **Determinism.** Scheduling consumes no clock, no thread identity
//!    and no hash-map iteration: admission scans the queue in arrival
//!    order (first-fit), victims sort by `(lease desc, id asc)`, and step
//!    order is a pure function of `(tick, StepOrder)`. Two runs of the
//!    same submission sequence produce identical logs.
//! 4. **Progress.** A starving queue head (patience exceeded) parks
//!    resident jobs until it fits, but never a job admitted this tick —
//!    every residency makes at least one training step, so every job
//!    terminates.

use crate::park::ParkedParams;
use crate::spec::JobSpec;
use gist_dist::DistTrainer;
use gist_graph::Graph;
use gist_obs::{Event, MemoryAccountant, NullRecorder, Phase, Recorder};
use gist_runtime::{Executor, StepProgram, SyntheticImages};
use std::collections::HashMap;

/// Order resident jobs step within one scheduler tick — the interleaving
/// axis the equivalence suite sweeps to prove jobs do not contaminate one
/// another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOrder {
    /// Lowest job id first.
    Ascending,
    /// Highest job id first.
    Descending,
    /// Ascending, rotated left by `tick % resident` each tick.
    Rotating,
}

impl StepOrder {
    /// Parses `ascending|descending|rotating`.
    pub fn parse(s: &str) -> Option<StepOrder> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ascending" => Some(StepOrder::Ascending),
            "descending" => Some(StepOrder::Descending),
            "rotating" => Some(StepOrder::Rotating),
            _ => None,
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Device-memory budget every concurrent slab lease packs into.
    pub budget_bytes: u64,
    /// Within-tick step interleaving.
    pub order: StepOrder,
    /// Ticks the queue head may starve before resident jobs get parked.
    pub park_patience: u64,
    /// Learning rate every job trains with.
    pub lr: f32,
}

impl ServeConfig {
    /// Defaults: ascending interleave, patience 2, lr 0.05.
    pub fn new(budget_bytes: u64) -> ServeConfig {
        ServeConfig { budget_bytes, order: StepOrder::Ascending, park_patience: 2, lr: 0.05 }
    }
}

/// A scheduling failure.
#[derive(Debug)]
pub enum ServeError {
    /// The job's lease alone exceeds the budget — it can never run.
    OverBudget {
        /// Job display name.
        job: String,
        /// Its predicted slab lease.
        lease: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The static predictor rejected the job's graph.
    Predict(String),
    /// Building or stepping a replica trainer failed.
    Train(String),
    /// The lease event stream was malformed (a scheduler bug).
    Oracle(gist_obs::AccountantError),
    /// Observed live bytes exceeded the budget (a scheduler bug).
    BudgetExceeded {
        /// Tick at which the invariant broke.
        tick: u64,
        /// Observed live bytes.
        live: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The scheduler stopped making progress (a scheduler bug).
    Stalled {
        /// Tick at which the guard tripped.
        tick: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::OverBudget { job, lease, budget } => {
                write!(f, "job {job}: lease {lease} B exceeds budget {budget} B")
            }
            ServeError::Predict(e) => write!(f, "predictor rejected job: {e}"),
            ServeError::Train(e) => write!(f, "training failed: {e}"),
            ServeError::Oracle(e) => write!(f, "lease accounting broken: {e}"),
            ServeError::BudgetExceeded { tick, live, budget } => {
                write!(f, "tick {tick}: live {live} B exceeded budget {budget} B")
            }
            ServeError::Stalled { tick } => write!(f, "scheduler stalled at tick {tick}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What happened at one scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogAction {
    /// Job's lease was admitted (fresh or resumed from park).
    Admit,
    /// Job was parked and its lease released.
    Park,
    /// Job finished its steps and its lease was released.
    Complete,
}

/// One admission-log record; runs of the same submission sequence produce
/// identical logs (determinism is part of the test gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Scheduler tick.
    pub tick: u64,
    /// What happened.
    pub action: LogAction,
    /// Job id (submission order).
    pub job: usize,
    /// Accountant live bytes after the decision.
    pub live_after: u64,
}

/// Per-job outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job id (submission order).
    pub job: usize,
    /// Display name.
    pub name: String,
    /// Model name.
    pub model: String,
    /// Slab lease the admission controller charged.
    pub lease_bytes: u64,
    /// Steps trained.
    pub steps: usize,
    /// Times this job was parked.
    pub parks: u64,
    /// Tick of first admission.
    pub first_admit_tick: u64,
    /// Tick the job completed.
    pub completed_tick: u64,
    /// Total ticks spent queued (admission latency + re-queue time).
    pub queue_ticks: u64,
    /// Per-step loss bits, in step order.
    pub loss_bits: Vec<u32>,
    /// FNV-1a hash over replica 0's final parameter bits.
    pub param_hash: u64,
}

/// Whole-run outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The configured budget.
    pub budget_bytes: u64,
    /// Ticks the run took.
    pub ticks: u64,
    /// Highest observed live bytes (the oracle: ≤ `budget_bytes`).
    pub max_live_bytes: u64,
    /// Total admissions (first-time + resumed).
    pub admissions: u64,
    /// Total parks.
    pub parks: u64,
    /// Peak host bytes held by parked jobs' encoded wires.
    pub parked_wire_bytes_peak: u64,
    /// Every scheduling decision, in order.
    pub log: Vec<LogEntry>,
    /// Per-job outcomes, by job id.
    pub jobs: Vec<JobReport>,
}

impl ServeReport {
    /// Whether every submitted job trained all its steps.
    pub fn all_completed(&self) -> bool {
        self.jobs.iter().all(|j| j.steps == j.loss_bits.len())
    }

    /// Mean ticks jobs spent queued.
    pub fn mean_queue_ticks(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.queue_ticks as f64).sum::<f64>() / self.jobs.len() as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Queued,
    Running,
    Done,
}

struct Job {
    spec: JobSpec,
    graph: Graph,
    lease: u64,
    wire_bound: u64,
    state: State,
    trainer: Option<DistTrainer>,
    parked: Option<ParkedParams>,
    ds: SyntheticImages,
    steps_done: usize,
    loss_bits: Vec<u32>,
    param_hash: u64,
    parks: u64,
    first_admit_tick: Option<u64>,
    last_admit_tick: u64,
    completed_tick: u64,
    enqueued_tick: u64,
    queue_ticks: u64,
}

/// The multi-job scheduler. Submit jobs, then [`Server::run`] to completion.
pub struct Server {
    config: ServeConfig,
    jobs: Vec<Job>,
}

impl Server {
    /// An empty server with the given configuration.
    pub fn new(config: ServeConfig) -> Server {
        Server { config, jobs: Vec::new() }
    }

    /// Submits a job; its id is its submission index. The job's slab lease
    /// is priced immediately from the static predictor.
    ///
    /// # Errors
    ///
    /// [`ServeError::OverBudget`] if the lease alone exceeds the budget
    /// (the job could never be admitted), or [`ServeError::Predict`] if
    /// the predictor rejects the graph.
    pub fn submit(&mut self, spec: JobSpec) -> Result<usize, ServeError> {
        let graph = spec.graph();
        let lease = lease_bytes(&spec, &graph)?;
        if lease > self.config.budget_bytes {
            return Err(ServeError::OverBudget {
                job: spec.name.clone(),
                lease,
                budget: self.config.budget_bytes,
            });
        }
        let wire_bound =
            gist_runtime::predicted_param_wire_bytes(&graph, gist_encodings::TransferCodec::Ssdc)
                .map_err(|e| ServeError::Predict(e.to_string()))?;
        let ds = SyntheticImages::for_graph(&graph, 0.3, spec.seed.wrapping_add(1234))
            .map_err(|e| ServeError::Predict(e.to_string()))?;
        let id = self.jobs.len();
        self.jobs.push(Job {
            spec,
            graph,
            lease,
            wire_bound,
            state: State::Queued,
            trainer: None,
            parked: None,
            ds,
            steps_done: 0,
            loss_bits: Vec::new(),
            param_hash: 0,
            parks: 0,
            first_admit_tick: None,
            last_admit_tick: 0,
            completed_tick: 0,
            enqueued_tick: 0,
            queue_ticks: 0,
        });
        Ok(id)
    }

    /// A submitted job's slab lease in bytes.
    pub fn lease_bytes(&self, job: usize) -> u64 {
        self.jobs[job].lease
    }

    /// Runs every submitted job to completion. See [`Self::run_traced`].
    ///
    /// # Errors
    ///
    /// As for [`Self::run_traced`].
    pub fn run(&mut self) -> Result<ServeReport, ServeError> {
        self.run_traced(&NullRecorder)
    }

    /// Runs every submitted job to completion, emitting one residency
    /// [`Event::Span`] per admission (lane = job id, wave = admission
    /// ordinal, tick timeline in the `ts`/`dur` fields) plus the lease
    /// `Alloc`/`Free` stream to `rec`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Train`] if a replica step fails; the budget/oracle
    /// variants indicate scheduler bugs and are what the property suite
    /// would catch.
    pub fn run_traced(&mut self, rec: &dyn Recorder) -> Result<ServeReport, ServeError> {
        let budget = self.config.budget_bytes;
        let mut accountant = MemoryAccountant::new();
        let mut log: Vec<LogEntry> = Vec::new();
        let mut max_live = 0u64;
        let mut admissions = 0u64;
        let mut parks = 0u64;
        let mut parked_peak = 0u64;
        let mut tick = 0u64;
        // Progress guard: every tick either steps a resident job or admits
        // the queue head, so this bound is generous.
        let total_steps: u64 = self.jobs.iter().map(|j| j.spec.steps as u64).sum();
        let n_jobs = self.jobs.len() as u64;
        let limit = total_steps * (n_jobs + 2) + n_jobs * (self.config.park_patience + 4) + 16;

        macro_rules! fold {
            ($acct:expr, $ev:expr, $tick:expr) => {{
                let ev = $ev;
                if rec.enabled() {
                    rec.record(ev.clone());
                }
                $acct.fold(&ev).map_err(ServeError::Oracle)?;
                let live = $acct.live_bytes();
                max_live = max_live.max(live);
                if live > budget {
                    return Err(ServeError::BudgetExceeded { tick: $tick, live, budget });
                }
                live
            }};
        }

        while self.jobs.iter().any(|j| j.state != State::Done) {
            if tick > limit {
                return Err(ServeError::Stalled { tick });
            }

            // Phase 1: first-fit admission in submission order.
            for id in 0..self.jobs.len() {
                if self.jobs[id].state != State::Queued {
                    continue;
                }
                if accountant.live_bytes() + self.jobs[id].lease <= budget {
                    let live = fold!(
                        accountant,
                        Event::Alloc {
                            name: lease_name(id, &self.jobs[id]),
                            bytes: self.jobs[id].lease
                        },
                        tick
                    );
                    self.admit(id, tick)?;
                    admissions += 1;
                    log.push(LogEntry {
                        tick,
                        action: LogAction::Admit,
                        job: id,
                        live_after: live,
                    });
                }
            }

            // Phase 2: anti-starvation parking for the queue head.
            if let Some(head) =
                (0..self.jobs.len()).find(|&id| self.jobs[id].state == State::Queued)
            {
                let starving =
                    tick.saturating_sub(self.jobs[head].enqueued_tick) >= self.config.park_patience;
                if starving {
                    while accountant.live_bytes() + self.jobs[head].lease > budget {
                        // Victim: largest lease, lowest id — but never a job
                        // admitted this very tick (it must step once first).
                        let victim = (0..self.jobs.len())
                            .filter(|&id| {
                                self.jobs[id].state == State::Running
                                    && self.jobs[id].last_admit_tick < tick
                            })
                            .max_by_key(|&id| (self.jobs[id].lease, std::cmp::Reverse(id)));
                        let Some(victim) = victim else { break };
                        self.park(victim, tick);
                        parks += 1;
                        // Free under the epoch the lease was allocated with,
                        // *then* bump the job's park epoch.
                        let live = fold!(
                            accountant,
                            Event::Free {
                                name: lease_name(victim, &self.jobs[victim]),
                                bytes: self.jobs[victim].lease
                            },
                            tick
                        );
                        self.jobs[victim].parks += 1;
                        log.push(LogEntry {
                            tick,
                            action: LogAction::Park,
                            job: victim,
                            live_after: live,
                        });
                        let held: u64 = self
                            .jobs
                            .iter()
                            .filter_map(|j| j.parked.as_ref())
                            .map(ParkedParams::wire_bytes)
                            .sum();
                        parked_peak = parked_peak.max(held);
                    }
                    if accountant.live_bytes() + self.jobs[head].lease <= budget {
                        let live = fold!(
                            accountant,
                            Event::Alloc {
                                name: lease_name(head, &self.jobs[head]),
                                bytes: self.jobs[head].lease
                            },
                            tick
                        );
                        self.admit(head, tick)?;
                        admissions += 1;
                        log.push(LogEntry {
                            tick,
                            action: LogAction::Admit,
                            job: head,
                            live_after: live,
                        });
                    }
                }
            }

            // Phase 3: step every resident job once, in interleave order.
            let mut resident: Vec<usize> =
                (0..self.jobs.len()).filter(|&id| self.jobs[id].state == State::Running).collect();
            match self.config.order {
                StepOrder::Ascending => {}
                StepOrder::Descending => resident.reverse(),
                StepOrder::Rotating => {
                    if !resident.is_empty() {
                        let k = (tick as usize) % resident.len();
                        resident.rotate_left(k);
                    }
                }
            }
            for id in resident {
                self.step_job(id)?;
                if self.jobs[id].steps_done == self.jobs[id].spec.steps {
                    self.complete(id, tick, rec);
                    let live = fold!(
                        accountant,
                        Event::Free {
                            name: lease_name(id, &self.jobs[id]),
                            bytes: self.jobs[id].lease
                        },
                        tick
                    );
                    log.push(LogEntry {
                        tick,
                        action: LogAction::Complete,
                        job: id,
                        live_after: live,
                    });
                }
            }

            // Phase 4: queue-latency bookkeeping.
            for job in &mut self.jobs {
                if job.state == State::Queued {
                    job.queue_ticks += 1;
                }
            }
            tick += 1;
        }

        Ok(ServeReport {
            budget_bytes: budget,
            ticks: tick,
            max_live_bytes: max_live,
            admissions,
            parks,
            parked_wire_bytes_peak: parked_peak,
            log,
            jobs: self
                .jobs
                .iter()
                .map(|j| JobReport {
                    job: job_id(&self.jobs, j),
                    name: j.spec.name.clone(),
                    model: j.spec.model.clone(),
                    lease_bytes: j.lease,
                    steps: j.spec.steps,
                    parks: j.parks,
                    first_admit_tick: j.first_admit_tick.unwrap_or(0),
                    completed_tick: j.completed_tick,
                    queue_ticks: j.queue_ticks,
                    loss_bits: j.loss_bits.clone(),
                    param_hash: j.param_hash,
                })
                .collect(),
        })
    }

    /// Builds (or rebuilds) a job's trainer and marks it resident. A
    /// resumed job gets its parameters and dropout-mask epoch restored on
    /// every replica before it steps again.
    fn admit(&mut self, id: usize, tick: u64) -> Result<(), ServeError> {
        let job = &mut self.jobs[id];
        let (graph, spec) = (job.graph.clone(), job.spec.clone());
        let mut trainer = DistTrainer::new(spec.replicas, spec.replicas, spec.codec, || {
            Executor::new(graph.clone(), spec.exec_spec(), spec.seed)
        })
        .map_err(|e| ServeError::Train(e.to_string()))?;
        if let Some(parked) = job.parked.take() {
            for r in 0..trainer.replicas() {
                parked.resume_into(trainer.replica_mut(r));
            }
        }
        job.trainer = Some(trainer);
        job.state = State::Running;
        job.first_admit_tick.get_or_insert(tick);
        job.last_admit_tick = tick;
        Ok(())
    }

    /// Parks a resident job: its snapshot to the host (bounded by the
    /// submit-time wire prediction), trainer dropped, job re-queued.
    fn park(&mut self, id: usize, tick: u64) {
        let job = &mut self.jobs[id];
        let trainer = job.trainer.take().expect("parking a resident job");
        let parked = ParkedParams::park(trainer.replica(0));
        debug_assert!(
            parked.wire_bytes() <= job.wire_bound,
            "observed park bytes above the predictor bound"
        );
        job.parked = Some(parked);
        job.state = State::Queued;
        job.enqueued_tick = tick;
    }

    /// Runs one global step of a resident job's trainer.
    fn step_job(&mut self, id: usize) -> Result<(), ServeError> {
        let job = &mut self.jobs[id];
        let shards = job.spec.replicas;
        let mut images = Vec::with_capacity(shards);
        let mut labels = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (x, y) = job.ds.minibatch(job.spec.batch);
            images.push(x);
            labels.push(y);
        }
        let trainer = job.trainer.as_mut().expect("stepping a resident job");
        let report = trainer
            .step(&images, &labels, self.config.lr)
            .map_err(|e| ServeError::Train(e.to_string()))?;
        job.loss_bits.push(report.loss.to_bits());
        job.steps_done += 1;
        Ok(())
    }

    /// Finalizes a finished job: fingerprint captured, trainer dropped,
    /// residency span emitted.
    fn complete(&mut self, id: usize, tick: u64, rec: &dyn Recorder) {
        let job = &mut self.jobs[id];
        let trainer = job.trainer.take().expect("completing a resident job");
        job.param_hash = trainer.replica(0).params.fingerprint(&[]);
        job.state = State::Done;
        job.completed_tick = tick;
        if rec.enabled() {
            rec.record(Event::Span {
                name: format!("{}.resident", job.spec.name),
                phase: Phase::Forward,
                wave: job.parks as u32,
                lane: id as u32,
                ts_ns: job.last_admit_tick,
                dur_ns: tick.saturating_sub(job.last_admit_tick).max(1),
            });
        }
    }
}

fn lease_name(id: usize, job: &Job) -> String {
    // Id-prefixed because job names need not be unique (two `--job
    // tiny-convnet` specs both default to the model name), and
    // epoch-suffixed so every residency is a distinct buffer life in the
    // accountant (re-allocating a freed name is legal, but distinct names
    // keep the oracle's interval report readable).
    format!("j{}:{}.slab@{}", id, job.spec.name, job.parks)
}

/// A job's slab lease: one arena slab per replica, each the peak of the
/// job's step lowered under the arena policy — whatever policy the job
/// then runs under, since a heap step's observed peak never exceeds the
/// arena reservation.
fn lease_bytes(spec: &JobSpec, graph: &Graph) -> Result<u64, ServeError> {
    let per_replica = StepProgram::lower(graph, &spec.exec_spec().arena())
        .and_then(|program| program.peak_bytes(&HashMap::new()))
        .map_err(|e| ServeError::Predict(e.to_string()))?;
    Ok(per_replica * spec.replicas as u64)
}

fn job_id(jobs: &[Job], job: &Job) -> usize {
    jobs.iter().position(|j| std::ptr::eq(j, job)).expect("job is in its own vec")
}

/// Runs `spec` alone — budget exactly its lease, nothing else submitted —
/// through the same scheduler code path, returning its [`JobReport`]. The
/// equivalence suite compares concurrent fingerprints against this.
///
/// # Errors
///
/// As for [`Server::run`].
pub fn solo_report(spec: &JobSpec, lr: f32) -> Result<JobReport, ServeError> {
    let lease = lease_bytes(spec, &spec.graph())?;
    let mut config = ServeConfig::new(lease);
    config.lr = lr;
    let mut server = Server::new(config);
    server.submit(spec.clone())?;
    let mut report = server.run()?;
    Ok(report.jobs.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str, steps: usize) -> JobSpec {
        JobSpec::builder("tiny-convnet").name(name).batch(2).steps(steps).build().unwrap()
    }

    #[test]
    fn single_job_runs_to_completion_within_budget() {
        let spec = tiny("solo", 2);
        let mut server = Server::new(ServeConfig::new(1 << 20));
        let id = server.submit(spec).unwrap();
        assert_eq!(id, 0);
        let report = server.run().unwrap();
        assert!(report.all_completed());
        assert_eq!(report.jobs[0].loss_bits.len(), 2);
        assert!(report.max_live_bytes <= report.budget_bytes);
        assert_eq!(report.parks, 0);
    }

    #[test]
    fn over_budget_submission_is_rejected_up_front() {
        let mut server = Server::new(ServeConfig::new(1024));
        match server.submit(tiny("big", 1)) {
            Err(ServeError::OverBudget { lease, budget, .. }) => {
                assert!(lease > budget);
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
    }

    #[test]
    fn tight_budget_serializes_jobs_and_still_completes() {
        // Budget fits exactly one job: the second must queue behind the
        // first and be admitted when it completes.
        let lease = {
            let mut probe = Server::new(ServeConfig::new(u64::MAX));
            let id = probe.submit(tiny("probe", 1)).unwrap();
            probe.lease_bytes(id)
        };
        let mut server = Server::new(ServeConfig::new(lease + lease / 2));
        server.submit(tiny("a", 2)).unwrap();
        server.submit(tiny("b", 2)).unwrap();
        let report = server.run().unwrap();
        assert!(report.all_completed());
        assert!(report.max_live_bytes <= report.budget_bytes);
        assert!(report.jobs[1].queue_ticks > 0, "job b must have waited");
        // The log is strictly ordered: b admits only after a frees.
        let a_complete =
            report.log.iter().position(|e| e.action == LogAction::Complete && e.job == 0).unwrap();
        let b_admit =
            report.log.iter().position(|e| e.action == LogAction::Admit && e.job == 1).unwrap();
        assert!(b_admit > a_complete, "{:?}", report.log);
    }

    #[test]
    fn starving_head_parks_a_resident_job_and_both_complete() {
        // Long-running small job + queued second job whose lease doesn't
        // fit alongside: patience forces a park.
        let lease = {
            let mut probe = Server::new(ServeConfig::new(u64::MAX));
            let id = probe.submit(tiny("probe", 1)).unwrap();
            probe.lease_bytes(id)
        };
        let mut config = ServeConfig::new(lease + lease / 2);
        config.park_patience = 1;
        let mut server = Server::new(config);
        server.submit(tiny("long", 6)).unwrap();
        server.submit(tiny("head", 2)).unwrap();
        let report = server.run().unwrap();
        assert!(report.all_completed());
        assert!(report.parks >= 1, "head starvation must trigger a park: {:?}", report.log);
        assert!(report.parked_wire_bytes_peak > 0);
        assert!(report.max_live_bytes <= report.budget_bytes);
        assert_eq!(report.jobs[0].loss_bits.len(), 6);
    }

    #[test]
    fn duplicate_default_job_names_do_not_collide_in_the_lease_ledger() {
        // Two `--job tiny-convnet` specs both default their display name to
        // the model name; the lease ledger must key on job id, not name, or
        // the second Alloc double-books the first. Tight budget + patience 1
        // forces a park so both the Alloc and the Free paths see the clash.
        let lease = {
            let mut probe = Server::new(ServeConfig::new(u64::MAX));
            let id = probe.submit(tiny("probe", 1)).unwrap();
            probe.lease_bytes(id)
        };
        let dup = |steps| JobSpec::builder("tiny-convnet").batch(2).steps(steps).build().unwrap();
        let mut config = ServeConfig::new(lease + lease / 2);
        config.park_patience = 1;
        let mut server = Server::new(config);
        server.submit(dup(4)).unwrap();
        server.submit(dup(2)).unwrap();
        let report = server.run().unwrap();
        assert!(report.all_completed());
        assert!(report.parks >= 1, "tight budget must force a park: {:?}", report.log);
        assert!(report.max_live_bytes <= report.budget_bytes);
        assert_eq!(report.jobs[0].name, report.jobs[1].name);
    }

    #[test]
    fn identical_runs_produce_identical_logs_and_fingerprints() {
        let run = || {
            let mut config = ServeConfig::new(900 * 1024);
            config.park_patience = 1;
            let mut server = Server::new(config);
            server.submit(tiny("a", 2)).unwrap();
            server.submit(tiny("b", 3)).unwrap();
            server
                .submit(JobSpec::builder("small-vgg").batch(2).steps(2).build().unwrap())
                .unwrap();
            server.run().unwrap()
        };
        let (r1, r2) = (run(), run());
        assert_eq!(r1.log, r2.log);
        assert_eq!(r1, r2);
    }
}
