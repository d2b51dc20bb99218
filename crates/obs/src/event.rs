//! The structured trace event model.

/// Which half of the training step an op span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
    /// A forward kernel re-executed during backward to rebuild a dropped
    /// stash (gist-offload recompute segments).
    Recompute,
}

impl Phase {
    /// Lowercase label used in trace output.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Forward => "forward",
            Phase::Backward => "backward",
            Phase::Recompute => "recompute",
        }
    }

    /// Inverse of [`Phase::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "forward" => Some(Phase::Forward),
            "backward" => Some(Phase::Backward),
            "recompute" => Some(Phase::Recompute),
            _ => None,
        }
    }
}

/// One trace event.
///
/// Memory events (`Alloc`/`Free`/`Reuse`/`Transient`) are emitted only from
/// the executor's sequential merge phases, in the same fixed order at every
/// thread count — that determinism is what lets the [`memory
/// accountant`](crate::MemoryAccountant) be cross-checked exactly against
/// the static planner. `Span` timestamps are wall-clock and vary run to
/// run; everything else is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// One op execution (forward or backward compute of one node).
    Span {
        /// Node name, e.g. `conv1_1`.
        name: String,
        /// Forward or backward.
        phase: Phase,
        /// Wavefront index in the schedule.
        wave: u32,
        /// Parallel lane within the wave (maps 1:1 onto pool workers for
        /// waves no wider than the pool).
        lane: u32,
        /// Start time in nanoseconds since the step began.
        ts_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A buffer came to life.
    Alloc {
        /// Buffer name, e.g. `conv1_1.y`, `relu2.stash`, `conv1_1.dy`.
        name: String,
        /// Size in bytes.
        bytes: u64,
    },
    /// A buffer was relinquished.
    Free {
        /// Buffer name (must match a prior `Alloc`).
        name: String,
        /// Size in bytes (must match the `Alloc`).
        bytes: u64,
    },
    /// An existing buffer was taken over in place (inplace ReLU): no
    /// allocator traffic, but the buffer continues under a new name.
    Reuse {
        /// Name the buffer was allocated under.
        from: String,
        /// Name it continues under.
        into: String,
    },
    /// A short-lived buffer (e.g. a decode target inside one backward
    /// step) that bounds the peak but has no alloc/free pair.
    Transient {
        /// Buffer name, e.g. `conv1_1.dec`.
        name: String,
        /// Size in bytes.
        bytes: u64,
    },
    /// A codec encoded a feature map into a stash.
    Encode {
        /// Node whose output was encoded.
        name: String,
        /// Codec label: `binarize`, `ssdc`, `dpr`.
        codec: String,
        /// Dense FP32 size in bytes.
        raw_bytes: u64,
        /// Encoded stash size in bytes.
        encoded_bytes: u64,
    },
    /// A codec decoded a stash back to dense FP32 for a backward use.
    Decode {
        /// Node whose stash was decoded.
        name: String,
        /// Codec label: `dense`, `ssdc`, `dpr`.
        codec: String,
        /// Dense FP32 size in bytes.
        raw_bytes: u64,
        /// Encoded stash size in bytes.
        encoded_bytes: u64,
    },
    /// A gradient payload crossed a **real** transport (gist-dist's
    /// `Transport`): one reduction-tree edge or broadcast leg whose
    /// endpoints are owned by different trainers. Records the observed-vs-priced byte pair —
    /// `priced_bytes` is the encoded `Wire` payload the virtual-clock link
    /// engine prices, `observed_bytes` what actually moved on the socket
    /// (frame header included) — plus observed wall-clock, so a trace shows
    /// where modeled and measured transport diverge. Not a memory event.
    NetTransfer {
        /// Transfer name, e.g. `allreduce.n3.main.r0e1` (round 0, edge 1)
        /// or `allreduce.n3.main.bcast2` (broadcast leg to rank 2).
        name: String,
        /// Local rank that recorded the event.
        rank: u32,
        /// Remote rank on the other end of the socket.
        peer: u32,
        /// `true` when the local rank was the sender.
        sent: bool,
        /// Encoded `Wire` payload bytes — what the link engine prices.
        priced_bytes: u64,
        /// Bytes observed on the socket, framing included.
        observed_bytes: u64,
        /// Observed start, nanoseconds since the step began (wall-clock;
        /// varies run to run like `Span` timestamps).
        ts_ns: u64,
        /// Observed duration in nanoseconds.
        dur_ns: u64,
    },
    /// A stash crossed the (simulated) PCIe bus between the device arena and
    /// host pinned memory (gist-offload swap modes). Not a memory event: the
    /// device-side residency change is carried by the paired `Alloc`/`Free`;
    /// this records the transfer lane for chrome://tracing overlap views.
    Transfer {
        /// Node whose stash moved.
        name: String,
        /// `true` for swap-out (device→host), `false` for swap-in.
        to_host: bool,
        /// Bytes moved over the bus.
        bytes: u64,
        /// Simulated start time in nanoseconds since the step began.
        ts_ns: u64,
        /// Simulated duration in nanoseconds.
        dur_ns: u64,
    },
}

impl Event {
    /// Whether the event participates in the memory accountant's timeline.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Event::Alloc { .. }
                | Event::Free { .. }
                | Event::Reuse { .. }
                | Event::Transient { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_round_trip() {
        for p in [Phase::Forward, Phase::Backward, Phase::Recompute] {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        assert_eq!(Phase::from_label("sideways"), None);
    }

    #[test]
    fn memory_classification() {
        assert!(Event::Alloc { name: "a".into(), bytes: 1 }.is_memory());
        assert!(Event::Free { name: "a".into(), bytes: 1 }.is_memory());
        assert!(Event::Reuse { from: "a".into(), into: "b".into() }.is_memory());
        assert!(Event::Transient { name: "t".into(), bytes: 1 }.is_memory());
        assert!(!Event::Encode {
            name: "a".into(),
            codec: "ssdc".into(),
            raw_bytes: 4,
            encoded_bytes: 2
        }
        .is_memory());
        assert!(!Event::Transfer {
            name: "relu1.stash".into(),
            to_host: true,
            bytes: 4096,
            ts_ns: 0,
            dur_ns: 10
        }
        .is_memory());
        assert!(!Event::NetTransfer {
            name: "allreduce.n3.main.r0e1".into(),
            rank: 1,
            peer: 0,
            sent: true,
            priced_bytes: 1033,
            observed_bytes: 1061,
            ts_ns: 0,
            dur_ns: 10
        }
        .is_memory());
    }
}
