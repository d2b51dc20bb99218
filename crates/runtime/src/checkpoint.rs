//! Parameter checkpointing: a minimal self-describing binary format (no
//! external serialization dependency) for saving and restoring a
//! [`ParamSet`] mid-training.
//!
//! Layout: magic `GIST` + version u32, then per node: node index u32, kind
//! tag u8, and the raw little-endian f32 payloads with u64 lengths.

use crate::params::{NodeParams, ParamSet};
use gist_tensor::Tensor;

const MAGIC: &[u8; 4] = b"GIST";
const VERSION: u32 = 1;

/// Errors from checkpoint encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Bad magic or version.
    Header(String),
    /// Payload ended early or lengths are inconsistent.
    Truncated,
    /// The checkpoint does not match the target graph's parameters.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Header(m) => write!(f, "bad checkpoint header: {m}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    put_u64(out, t.numel() as u64);
    for v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn floats(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let n = self.u64()? as usize;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Serializes every parameterized node of `params` (over `num_nodes` graph
/// slots) into a byte buffer.
pub fn save(params: &ParamSet, num_nodes: usize) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    for i in 0..num_nodes {
        let Some(p) = params.get(i) else { continue };
        put_u32(&mut out, i as u32);
        match p {
            NodeParams::Conv { weight, bias } | NodeParams::Linear { weight, bias } => {
                out.push(if matches!(p, NodeParams::Conv { .. }) { 0 } else { 1 });
                put_tensor(&mut out, weight);
                match bias {
                    Some(b) => {
                        out.push(1);
                        put_tensor(&mut out, b);
                    }
                    None => out.push(0),
                }
            }
            NodeParams::BatchNorm { gamma, beta } => {
                out.push(2);
                put_tensor(&mut out, gamma);
                out.push(1);
                put_tensor(&mut out, beta);
            }
        }
    }
    out
}

/// Restores parameter values into an existing `params` (shapes must match —
/// the checkpoint carries values, the graph carries structure).
///
/// # Errors
///
/// Returns a [`CheckpointError`] on header mismatch, truncation, or any
/// node/shape inconsistency.
pub fn load(params: &mut ParamSet, num_nodes: usize, bytes: &[u8]) -> Result<(), CheckpointError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CheckpointError::Header("magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::Header(format!("version {version}")));
    }
    while !r.done() {
        let idx = r.u32()? as usize;
        if idx >= num_nodes {
            return Err(CheckpointError::Mismatch(format!("node {idx} out of range")));
        }
        let tag = r.take(1)?[0];
        let main = r.floats()?;
        let has_secondary = r.take(1)?[0] == 1;
        let secondary = if has_secondary { Some(r.floats()?) } else { None };
        let Some(p) = params.get_mut(idx) else {
            return Err(CheckpointError::Mismatch(format!("node {idx} has no params")));
        };
        let write = |t: &mut Tensor, vals: &[f32]| -> Result<(), CheckpointError> {
            if t.numel() != vals.len() {
                return Err(CheckpointError::Mismatch(format!(
                    "node {idx}: {} values for {} slots",
                    vals.len(),
                    t.numel()
                )));
            }
            t.data_mut().copy_from_slice(vals);
            Ok(())
        };
        match (tag, p) {
            (0, NodeParams::Conv { weight, bias }) | (1, NodeParams::Linear { weight, bias }) => {
                write(weight, &main)?;
                match (bias, secondary) {
                    (Some(b), Some(s)) => write(b, &s)?,
                    (None, None) => {}
                    _ => {
                        return Err(CheckpointError::Mismatch(format!("node {idx}: bias presence")))
                    }
                }
            }
            (2, NodeParams::BatchNorm { gamma, beta }) => {
                write(gamma, &main)?;
                let s = secondary.ok_or_else(|| {
                    CheckpointError::Mismatch(format!("node {idx}: missing beta"))
                })?;
                write(beta, &s)?;
            }
            (t, _) => return Err(CheckpointError::Mismatch(format!("node {idx}: kind tag {t}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticImages;
    use crate::exec::Executor;
    use crate::spec::ExecMode;

    #[test]
    fn roundtrip_restores_training_state_exactly() {
        // tiny_convnet has no dropout, so the loss depends only on weights
        // and data (dropout masks would differ across executors' step
        // counters and mask comparison via loss would be unfair).
        let g = gist_models::tiny_convnet(4, 3);
        let mut a = Executor::new(g.clone(), ExecMode::Baseline, 7).unwrap();
        let mut ds = SyntheticImages::new(3, 16, 0.3, 1);
        for _ in 0..5 {
            let (x, y) = ds.minibatch(4);
            a.step(&x, &y, 0.05).unwrap();
        }
        let bytes = save(&a.params, a.graph().len());

        // Fresh executor with different seed -> different weights...
        let mut b = Executor::new(g, ExecMode::Baseline, 99).unwrap();
        let (x, y) = ds.minibatch(4);
        let (la, _) = a.forward_backward(&x, &y).unwrap();
        let (lb, _) = b.forward_backward(&x, &y).unwrap();
        assert_ne!(la.loss, lb.loss);

        // ...until the checkpoint is loaded.
        let n = b.graph().len();
        load(&mut b.params, n, &bytes).unwrap();
        let (la2, _) = a.forward_backward(&x, &y).unwrap();
        let (lb2, _) = b.forward_backward(&x, &y).unwrap();
        assert_eq!(la2.loss, lb2.loss);
    }

    #[test]
    fn batchnorm_params_roundtrip_too() {
        let g = gist_models::resnet_cifar(1, 2);
        let e = Executor::new(g.clone(), ExecMode::Baseline, 7).unwrap();
        let bytes = save(&e.params, e.graph().len());
        let mut f = Executor::new(g, ExecMode::Baseline, 31).unwrap();
        let n = f.graph().len();
        load(&mut f.params, n, &bytes).unwrap();
        // Spot-check a batchnorm gamma matches.
        for i in 0..n {
            if let (
                Some(NodeParams::BatchNorm { gamma: ga, beta: ba }),
                Some(NodeParams::BatchNorm { gamma: gb, beta: bb }),
            ) = (e.params.get(i), f.params.get(i))
            {
                assert_eq!(ga, gb);
                assert_eq!(ba, bb);
            }
        }
    }

    #[test]
    fn corrupt_headers_and_truncation_are_rejected() {
        let g = gist_models::tiny_convnet(2, 3);
        let e = Executor::new(g, ExecMode::Baseline, 7).unwrap();
        let n = e.graph().len();
        let bytes = save(&e.params, n);

        let mut p = e.params.clone();
        assert!(matches!(load(&mut p, n, b"NOPE"), Err(CheckpointError::Header(_))));
        assert!(matches!(
            load(&mut p, n, &bytes[..bytes.len() - 3]),
            Err(CheckpointError::Truncated) | Err(CheckpointError::Mismatch(_))
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert!(matches!(load(&mut p, n, &wrong_version), Err(CheckpointError::Header(_))));
    }

    #[test]
    fn checkpoint_rejects_a_different_architecture() {
        let g1 = gist_models::tiny_convnet(2, 3);
        let e1 = Executor::new(g1, ExecMode::Baseline, 7).unwrap();
        let bytes = save(&e1.params, e1.graph().len());

        let g2 = gist_models::small_vgg(2, 3);
        let e2 = Executor::new(g2, ExecMode::Baseline, 7).unwrap();
        let mut p2 = e2.params.clone();
        assert!(load(&mut p2, e2.graph().len(), &bytes).is_err());
    }
}
