//! Headline gate for placement independence: the data-parallel step is
//! *invisible* arithmetic wherever its ranks live.
//!
//! There is one trainer and one reduction walk; `NetTrainer` (owns one rank
//! of `N`, the rest behind a transport) must produce bit-identical merged
//! gradients, losses, byte prices and final parameters to `DistTrainer`
//! (owns every rank, nothing framed) — across worlds, codecs and the auto
//! policy, over the channel-mesh `InProcess` and real loopback `Tcp`, with
//! every `NetTransfer` paired sender-to-receiver and a dense frame observed
//! at exactly `priced + 13 + GRAD_FRAME_OVERHEAD`. Those crosses are views
//! of the equivalence matrix (`tests/matrix/mod.rs`), whose transport cells
//! make every one of those checks.

mod matrix;

use gist::encodings::{CodecPolicy, TransferCodec, Wire, WireError};
use gist::net::{
    DistError, InProcess, Msg, NetConfig, NetError, NetTrainer, Tcp, Transport, GRAD_FRAME_OVERHEAD,
};
use gist::runtime::{ExecMode, Executor};
use std::net::TcpListener;

matrix::views! {
    inprocess_mesh_matches_dist_for_every_world_and_codec: [
        "transport=mesh replicas=1|2|4 codec=none|ssdc|dpr:8",
    ],
    tcp_loopback_matches_dist_for_every_world_and_codec: [
        "transport=tcp replicas=2|4 codec=none|ssdc|dpr:8",
    ],
    auto_policy_is_lossless_and_transport_invariant: ["codec=auto replicas=1|2 transport=*"],
}

#[test]
fn world_must_divide_shards() {
    let build_exec = || Executor::new(gist::models::tiny_convnet(2, 4), ExecMode::Baseline, 7);
    let mut mesh3 = InProcess::mesh(3);
    let t = mesh3.remove(0);
    let err = NetTrainer::new(t, 8, CodecPolicy::Fixed(TransferCodec::None), build_exec)
        .expect_err("3 does not divide 8");
    let msg = err.to_string();
    assert!(msg.contains("world") && msg.contains('3'), "unhelpful error: {msg}");
}

/// What a hostile peer sends in place of its first gradient frame.
#[derive(Debug, Clone, Copy)]
enum Attack {
    /// A raw frame cut halfway through its payload, then the socket or
    /// channel closed.
    CloseMidPayload,
    /// A frame whose wire header counts one element fewer than its length
    /// carries.
    LengthDisagrees,
    /// A well-formed frame naming another tensor.
    WrongTensor,
}

impl Attack {
    const ALL: [Attack; 3] =
        [Attack::CloseMidPayload, Attack::LengthDisagrees, Attack::WrongTensor];

    /// The bytes sent for tensor 0, whose gradient holds `n` elements.
    fn frame(self, n: usize) -> Vec<u8> {
        let wire = Wire::encode(TransferCodec::None, &vec![0.25f32; n]).to_bytes();
        let tensor = if matches!(self, Attack::WrongTensor) { 3 } else { 0 };
        let mut frame = Msg::Grad { epoch: 0, step: 0, tensor, wire }.to_frame();
        let wire_at = GRAD_FRAME_OVERHEAD as usize;
        match self {
            Attack::CloseMidPayload => frame.truncate(wire_at + 9 + 2 * n),
            Attack::LengthDisagrees => {
                frame[wire_at + 5..wire_at + 9].copy_from_slice(&(n as u32 - 1).to_le_bytes());
            }
            Attack::WrongTensor => {}
        }
        frame
    }

    fn rejected(self, err: &DistError, hostile: usize) -> bool {
        match (self, err) {
            (Attack::CloseMidPayload, DistError::Net(NetError::Disconnected { peer })) => {
                *peer as usize == hostile
            }
            (Attack::LengthDisagrees, DistError::Net(NetError::Wire(WireError::Corrupt(_)))) => {
                true
            }
            (Attack::WrongTensor, DistError::Net(NetError::Protocol(msg))) => {
                msg.contains("header mismatch")
            }
            _ => false,
        }
    }
}

/// Runs one real rank of a 2-rank raw world against a hostile other rank
/// that sends `attack`'s bytes where its first gradient frame belongs — a
/// partial to a real root, the broadcast to a real rank 1 — and closes.
/// The real step must fail with the attack's typed `DistError::Net` and
/// leave its parameters bit-identical.
fn under_attack<T: Transport + Send + 'static>(mut mesh: Vec<T>, real: usize, attack: Attack) {
    let build = || Executor::new(gist::models::tiny_convnet(2, 4), ExecMode::Baseline, 42);
    let mut data = gist::runtime::SyntheticImages::new(4, 16, 0.1, 1234);
    let (images, labels): (Vec<_>, Vec<_>) = (0..2).map(|_| data.minibatch(2)).unzip();
    let hostile = 1 - real;
    let mut peer = mesh.remove(hostile);
    let mut trainer = NetTrainer::new(mesh.remove(0), 2, TransferCodec::None, build).unwrap();
    let params = |t: &NetTrainer<T>| t.replica(0).params.bits().collect::<Vec<u32>>();
    let tensors = trainer.replica(0).params.tensors().count();
    let n = trainer.replica(0).params.tensors().next().expect("a weight").numel();
    let before = params(&trainer);
    let bytes = attack.frame(n);
    let attacker = std::thread::spawn(move || {
        if hostile == 0 {
            // A root takes every partial before it broadcasts.
            for _ in 0..tensors {
                peer.recv(real).expect("partial");
            }
        }
        let _ = peer.send_frame(real, bytes.len(), &mut |w| w.write_all(&bytes));
    });
    let err = trainer.step(&images, &labels, 0.05).expect_err("a hostile frame was accepted");
    attacker.join().expect("attacker");
    assert!(attack.rejected(&err, hostile), "{attack:?} on rank {real}: {err:?}");
    assert_eq!(params(&trainer), before, "{attack:?} on rank {real}: parameters moved");
}

/// Two loopback TCP endpoints, rendezvoused.
fn tcp_pair() -> Vec<Tcp> {
    let listeners: Vec<TcpListener> =
        (0..2).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0")).collect();
    let peers: Vec<String> =
        listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    let config = NetConfig::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, l)| {
                let peers = &peers;
                s.spawn(move || Tcp::rendezvous_on(l, rank, peers, 2, 0, &config))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank").expect("rendezvous")).collect()
    })
}

#[test]
fn hostile_bytes_on_the_streamed_receive_fail_typed_and_move_no_parameter() {
    for attack in Attack::ALL {
        for real in [0, 1] {
            under_attack(InProcess::mesh(2), real, attack);
            under_attack(tcp_pair(), real, attack);
        }
    }
}
