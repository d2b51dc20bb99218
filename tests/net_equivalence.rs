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

use gist::encodings::{CodecPolicy, TransferCodec};
use gist::net::{InProcess, NetTrainer};
use gist::runtime::{ExecMode, Executor};

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
