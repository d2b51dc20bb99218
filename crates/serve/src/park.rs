//! Parking a job's learned state on the host.
//!
//! Parking frees a job's device slab while preserving everything a
//! bitwise-identical resume needs: the executor's SSDC
//! [`gist_runtime::Snapshot`] — every parameter tensor as an encoded
//! [`gist_encodings::Wire`], plus the dropout-mask epoch — serialized
//! through [`Snapshot::to_bytes`] and re-parsed with
//! [`Snapshot::from_bytes`], so the hardened byte decoder is on the
//! production path, not just in tests.

use gist_encodings::TransferCodec;
use gist_runtime::{Executor, Snapshot};

/// A parked job's train state, SSDC-encoded on the host.
#[derive(Debug)]
pub struct ParkedParams {
    snapshot: Snapshot,
}

impl ParkedParams {
    /// Snapshots `exec` under SSDC, round-tripping it through its byte
    /// serialization.
    pub fn park(exec: &Executor) -> ParkedParams {
        let bytes = exec.snapshot(TransferCodec::Ssdc).to_bytes();
        let snapshot =
            Snapshot::from_bytes(&bytes).expect("self-produced snapshot bytes always parse");
        ParkedParams { snapshot }
    }

    /// Restores the parked parameters and step epoch into `exec` (SSDC is
    /// lossless, fixups included, so the restore is bitwise). Call once
    /// per replica — every replica must receive the identical restore.
    ///
    /// # Panics
    ///
    /// Panics if `exec` was not built from the graph that was parked.
    pub fn resume_into(&self, exec: &mut Executor) {
        exec.restore(&self.snapshot).expect("a job resumes into the graph it parked from");
    }

    /// Observed encoded bytes this parked job holds on the host.
    pub fn wire_bytes(&self) -> u64 {
        self.snapshot.wire_bytes()
    }

    /// The dense bound: bytes the same tensors occupy unencoded.
    pub fn pinned_bytes(&self) -> u64 {
        self.snapshot.wires.iter().map(|w| w.len() as u64 * 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gist_runtime::{ExecMode, SyntheticImages};

    fn param_bits(exec: &Executor) -> Vec<u32> {
        exec.params.bits().collect()
    }

    #[test]
    fn park_then_resume_restores_every_parameter_bit() {
        let g = gist_models::tiny_convnet(2, 3);
        let mut ds = SyntheticImages::new(3, 16, 0.3, 9);
        let mut exec = Executor::new(g, ExecMode::Baseline, 5).unwrap();
        let (x, y) = ds.minibatch(2);
        exec.step(&x, &y, 0.05).unwrap();
        let want = param_bits(&exec);

        let parked = ParkedParams::park(&exec);
        assert!(parked.wire_bytes() > 0);

        // Drift the executor, then restore.
        let (x2, y2) = ds.minibatch(2);
        exec.step(&x2, &y2, 0.05).unwrap();
        assert_ne!(param_bits(&exec), want, "second step must move parameters");
        assert_eq!(exec.steps_executed(), 2);
        parked.resume_into(&mut exec);
        assert_eq!(param_bits(&exec), want, "resume must be bitwise");
        assert_eq!(exec.steps_executed(), 1, "the dropout-mask epoch rides the snapshot");
        assert_eq!(parked.pinned_bytes(), 4 * exec.params.num_scalars() as u64);
    }

    #[test]
    fn park_footprint_is_bounded_by_the_predictor() {
        let g = gist_models::small_vgg(2, 3);
        let exec = Executor::new(g.clone(), ExecMode::Baseline, 5).unwrap();
        let parked = ParkedParams::park(&exec);
        let bound = gist_runtime::predicted_param_wire_bytes(&g, TransferCodec::Ssdc).unwrap();
        assert!(
            parked.wire_bytes() <= bound,
            "{} observed > {} predicted",
            parked.wire_bytes(),
            bound
        );
    }
}
