#![warn(missing_docs)]

//! # gist-serve
//!
//! A deterministic multi-job training scheduler built on the static
//! predictor: the missing piece between the single-job runtime and a
//! traffic-serving scenario.
//!
//! The core asset is that `gist-runtime` can size a job's arena slab
//! **before the job runs** (the fold [`gist_runtime::StepProgram::peak_bytes`]
//! of its lowered step is fully static under the arena policy, with SSDC
//! stashes at their data-independent worst case). That turns admission control into
//! arithmetic: a job's slab lease is known at submit time, so the server
//! can bin-pack concurrent jobs into a fixed `--mem-budget`, queue jobs
//! that do not fit, and *prove* — via [`gist_obs::MemoryAccountant`] —
//! that observed live bytes never exceed the budget.
//!
//! When the queue head starves, the server **parks** a resident job: its
//! SSDC-encoded [`gist_runtime::Snapshot`] (through the hardened byte
//! serializer) stays on the host, its slab lease is released, and the job
//! re-queues. Resuming rebuilds the executors and restores the snapshot —
//! parameters plus the dropout-mask epoch — into every replica, so a
//! parked job's training fingerprint is bitwise-identical to an
//! uninterrupted run — `tests/serve_equivalence.rs` holds the scheduler to
//! exactly that across interleavings, thread counts, and alloc policies.
//!
//! ```
//! use gist_serve::{JobSpec, ServeConfig, Server};
//!
//! let spec = JobSpec::builder("tiny-convnet").batch(2).steps(2).build().unwrap();
//! let mut server = Server::new(ServeConfig::new(512 * 1024));
//! server.submit(spec).unwrap();
//! let report = server.run().unwrap();
//! assert!(report.all_completed());
//! assert!(report.max_live_bytes <= report.budget_bytes);
//! ```

pub mod park;
pub mod server;
pub mod spec;

pub use park::ParkedParams;
pub use server::{
    solo_report, JobReport, LogAction, LogEntry, ServeConfig, ServeError, ServeReport, Server,
    StepOrder,
};
pub use spec::{JobSpec, JobSpecBuilder, SpecError};
