//! The [`Transport`] seam and its two implementations.
//!
//! A transport moves frames, and frames stream: [`Transport::send_frame`]
//! hands the sender a byte sink to write one frame into in pieces, and
//! [`Transport::recv_frame`] runs the one frame reader
//! ([`read_frame_with`]) over the peer's bytes, handing a gradient's
//! payload to the caller as it arrives. Whole [`Msg`]s are
//! [`Transport::send`] / [`Transport::recv`], thin wrappers over the two.
//!
//! [`InProcess`] is a channel mesh inside one process: every message still
//! rides the full frame encode/decode path, so the byte layer is exercised
//! even when no socket exists — and the equivalence tests can compare it
//! against [`Tcp`] knowing the only difference is the copy mechanism.
//!
//! [`Tcp`] is real `std::net` sockets with a deterministic rendezvous:
//! every rank binds its own address from the shared peer list *first*
//! (or is handed its listener already bound, [`Tcp::rendezvous_on`]),
//! then dials every lower rank with a bounded, deterministic retry/backoff
//! schedule ([`backoff_ms`]) and accepts every higher rank, exchanging
//! [`Msg::Hello`] both ways so a misassembled fleet (wrong world, wrong
//! shard count, mismatched codec policy) fails by name instead of
//! deadlocking. Per-read/-write socket timeouts come from
//! [`NetConfig`] (`GIST_NET_TIMEOUT_MS`).

use crate::frame::{
    io_err, keeping_payload, read_frame, read_frame_with, write_frame, Msg, NetError, PayloadSink,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How messages move between ranks. Implementations must deliver frames
/// per peer pair in FIFO order; the trainer's exchange schedule is
/// deterministic, so FIFO is all the ordering it needs.
pub trait Transport {
    /// This process's rank.
    fn rank(&self) -> usize;
    /// Total rank count.
    fn world(&self) -> usize;
    /// Sends one frame of `len` bytes (length prefix included) to `peer`:
    /// `frame` writes them, in pieces, to the sink it is handed. Returns
    /// the observed bytes that crossed the transport.
    ///
    /// # Errors
    ///
    /// A typed [`NetError`]; the caller must abort the step (no partial
    /// gradient application).
    fn send_frame(
        &mut self,
        peer: usize,
        len: usize,
        frame: &mut dyn FnMut(&mut dyn Write) -> std::io::Result<()>,
    ) -> Result<u64, NetError>;
    /// Receives the next frame from `peer` (blocking, bounded by the
    /// transport's timeout) through [`read_frame_with`], a gradient's
    /// payload handed to `payload` as it arrives. Returns the message and
    /// its observed bytes.
    ///
    /// # Errors
    ///
    /// A typed [`NetError`]; the caller must abort the step.
    fn recv_frame(
        &mut self,
        peer: usize,
        payload: &mut PayloadSink<'_>,
    ) -> Result<(Msg, u64), NetError>;
    /// Sends one message to `peer`. Returns the observed bytes that
    /// crossed the transport (framing included).
    ///
    /// # Errors
    ///
    /// As for [`Self::send_frame`].
    fn send(&mut self, peer: usize, msg: &Msg) -> Result<u64, NetError> {
        self.send_frame(peer, msg.frame_len(), &mut |w| msg.write_to(w))
    }
    /// Receives the next message from `peer`, a [`Msg::Grad`] keeping its
    /// payload. Returns the message and its observed bytes.
    ///
    /// # Errors
    ///
    /// As for [`Self::recv_frame`].
    fn recv(&mut self, peer: usize) -> Result<(Msg, u64), NetError> {
        keeping_payload(|sink| self.recv_frame(peer, sink))
    }
}

/// The transport of a trainer that owns every rank: no value of this type
/// exists, so a peer can never be addressed and every framing branch of
/// the step is statically dead for [`crate::DistTrainer`].
#[derive(Debug)]
pub enum NoPeers {}

impl Transport for NoPeers {
    fn rank(&self) -> usize {
        match *self {}
    }

    fn world(&self) -> usize {
        match *self {}
    }

    fn send_frame(
        &mut self,
        _peer: usize,
        _len: usize,
        _frame: &mut dyn FnMut(&mut dyn Write) -> std::io::Result<()>,
    ) -> Result<u64, NetError> {
        match *self {}
    }

    fn recv_frame(
        &mut self,
        _peer: usize,
        _payload: &mut PayloadSink<'_>,
    ) -> Result<(Msg, u64), NetError> {
        match *self {}
    }
}

// ---------------------------------------------------------------------------
// In-process mesh
// ---------------------------------------------------------------------------

/// One rank's endpoint of an in-process channel mesh.
///
/// Frames are written to bytes on send and read on receive — the same
/// code path TCP uses — so in-process and multi-process runs differ only
/// in who carries the bytes. The channel hands each frame over whole, in
/// one exact-size buffer: a gradient payload is copied once, into the
/// frame, and landed by the receiver straight off it.
#[derive(Debug)]
pub struct InProcess {
    rank: usize,
    world: usize,
    timeout: Duration,
    tx: Vec<Option<Sender<Vec<u8>>>>,
    rx: Vec<Option<Receiver<Vec<u8>>>>,
}

impl InProcess {
    /// Builds a fully connected mesh of `world` endpoints (index = rank).
    /// Endpoints are `Send`, so each can move to its own thread.
    #[must_use]
    pub fn mesh(world: usize) -> Vec<InProcess> {
        let mut nodes: Vec<InProcess> = (0..world)
            .map(|rank| InProcess {
                rank,
                world,
                timeout: Duration::from_secs(30),
                tx: (0..world).map(|_| None).collect(),
                rx: (0..world).map(|_| None).collect(),
            })
            .collect();
        for a in 0..world {
            for b in 0..world {
                if a == b {
                    continue;
                }
                let (tx, rx) = mpsc::channel();
                nodes[a].tx[b] = Some(tx);
                nodes[b].rx[a] = Some(rx);
            }
        }
        nodes
    }

    fn check_peer(&self, peer: usize) -> Result<(), NetError> {
        if peer >= self.world || peer == self.rank {
            return Err(NetError::Protocol(format!(
                "rank {} cannot address peer {peer} (world {})",
                self.rank, self.world
            )));
        }
        Ok(())
    }
}

impl Transport for InProcess {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn send_frame(
        &mut self,
        peer: usize,
        len: usize,
        frame: &mut dyn FnMut(&mut dyn Write) -> std::io::Result<()>,
    ) -> Result<u64, NetError> {
        self.check_peer(peer)?;
        let mut bytes = Vec::with_capacity(len);
        frame(&mut bytes).map_err(|e| io_err(peer as u32, "write", &e))?;
        let n = bytes.len() as u64;
        let tx = self.tx[peer].as_ref().expect("mesh channel");
        tx.send(bytes).map_err(|_| NetError::Disconnected { peer: peer as u32 })?;
        Ok(n)
    }

    fn recv_frame(
        &mut self,
        peer: usize,
        payload: &mut PayloadSink<'_>,
    ) -> Result<(Msg, u64), NetError> {
        self.check_peer(peer)?;
        let rx = self.rx[peer].as_ref().expect("mesh channel");
        let frame = rx.recv_timeout(self.timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => {
                NetError::Io { peer: peer as u32, op: "read", detail: "timed out".into() }
            }
            RecvTimeoutError::Disconnected => NetError::Disconnected { peer: peer as u32 },
        })?;
        let mut rest = &frame[..];
        let got = read_frame_with(&mut rest, peer as u32, payload)?;
        if !rest.is_empty() {
            let trailing = format!("{} trailing bytes after frame", rest.len());
            return Err(NetError::Protocol(trailing));
        }
        Ok(got)
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// Socket-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Budget for the whole rendezvous *and* the per-read/-write socket
    /// timeout once connected.
    pub timeout: Duration,
}

impl NetConfig {
    /// Default `GIST_NET_TIMEOUT_MS` when the variable is unset.
    pub const DEFAULT_TIMEOUT_MS: u64 = 10_000;

    /// Resolves a raw `GIST_NET_TIMEOUT_MS` value through the workspace
    /// [`gist_par::parse_or_warn`] policy: a positive integer is honoured,
    /// anything else falls back to [`Self::DEFAULT_TIMEOUT_MS`] (with a
    /// warning when a value was present but malformed). Split from
    /// [`Self::from_env`] so the policy is testable without touching the
    /// process environment.
    #[must_use]
    pub fn resolve(raw: Option<&str>) -> (Self, Option<String>) {
        let (ms, warning) = gist_par::parse_or_warn(
            "gist-dist",
            "GIST_NET_TIMEOUT_MS",
            raw,
            "a positive integer (milliseconds)",
            "10000",
            |s| s.trim().parse::<u64>().ok().filter(|&n| n >= 1),
            || Self::DEFAULT_TIMEOUT_MS,
        );
        (NetConfig { timeout: Duration::from_millis(ms) }, warning)
    }

    /// Timeout from the environment (`GIST_NET_TIMEOUT_MS`), warning on
    /// stderr when the variable is set but malformed.
    #[must_use]
    pub fn from_env() -> Self {
        let raw = std::env::var("GIST_NET_TIMEOUT_MS").ok();
        let (config, warning) = Self::resolve(raw.as_deref());
        if let Some(w) = warning {
            eprintln!("{w}");
        }
        config
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { timeout: Duration::from_millis(Self::DEFAULT_TIMEOUT_MS) }
    }
}

/// The deterministic rendezvous backoff schedule: sleep this many
/// milliseconds after failed attempt `attempt` (0-based). Pure function of
/// the attempt index — doubling from 5 ms, capped at 200 ms — so retry
/// behaviour is reproducible and testable without clocks.
#[must_use]
pub fn backoff_ms(attempt: u32) -> u64 {
    (5u64 << attempt.min(6)).min(200)
}

/// One rank's endpoint of a TCP mesh over `std::net`.
#[derive(Debug)]
pub struct Tcp {
    rank: usize,
    streams: Vec<Option<TcpStream>>,
}

impl Tcp {
    /// Deterministic rendezvous over a shared peer list (`peers[r]` is the
    /// listen address of rank `r`).
    ///
    /// Every rank binds its own address first, so no connect can win a
    /// race against a listener that does not exist yet; rank `r` then
    /// dials every lower rank (bounded retry with the [`backoff_ms`]
    /// schedule, budgeted by `config.timeout`) and accepts every higher
    /// rank. Both directions exchange [`Msg::Hello`] and validate rank,
    /// world, shard count and codec policy.
    ///
    /// # Errors
    ///
    /// [`NetError::Rendezvous`] naming the missing rank when the budget
    /// runs out; [`NetError::Protocol`] on a Hello mismatch;
    /// [`NetError::Io`]/[`NetError::Config`] on socket/config failures.
    pub fn rendezvous(
        rank: usize,
        peers: &[String],
        shards: usize,
        policy_id: u32,
        config: &NetConfig,
    ) -> Result<Tcp, NetError> {
        let addr = peers.get(rank).ok_or_else(|| outside(rank, peers.len()))?;
        let listener = TcpListener::bind(addr.as_str()).map_err(|e| NetError::Io {
            peer: rank as u32,
            op: "bind",
            detail: format!("{addr} ({e})"),
        })?;
        Self::rendezvous_on(listener, rank, peers, shards, policy_id, config)
    }

    /// [`Self::rendezvous`] on a listener this rank already holds (bound to
    /// `peers[rank]`). A caller that binds every rank's listener before any
    /// rank starts — port 0 on loopback, say — leaves no window in which
    /// another process can take a released port.
    ///
    /// # Errors
    ///
    /// As for [`Self::rendezvous`].
    pub fn rendezvous_on(
        listener: TcpListener,
        rank: usize,
        peers: &[String],
        shards: usize,
        policy_id: u32,
        config: &NetConfig,
    ) -> Result<Tcp, NetError> {
        let world = peers.len();
        if rank >= world {
            return Err(outside(rank, world));
        }
        let hello =
            Msg::Hello { rank: rank as u32, world: world as u32, shards: shards as u32, policy_id };
        listener.set_nonblocking(true).map_err(|e| NetError::Io {
            peer: rank as u32,
            op: "bind",
            detail: e.to_string(),
        })?;
        let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();

        // Dial every lower rank, retrying on the deterministic schedule
        // until the budget runs out.
        for peer in 0..rank {
            let start = Instant::now();
            let mut attempts = 0u32;
            let stream = loop {
                match TcpStream::connect(peers[peer].as_str()) {
                    Ok(s) => break s,
                    Err(e) => {
                        if start.elapsed() >= config.timeout {
                            return Err(NetError::Rendezvous {
                                missing_rank: peer as u32,
                                attempts,
                                detail: format!("{} ({e})", peers[peer]),
                            });
                        }
                        std::thread::sleep(Duration::from_millis(backoff_ms(attempts)));
                        attempts += 1;
                    }
                }
            };
            let mut stream = configure(stream, peer as u32, config)?;
            write_frame(&mut stream, peer as u32, &hello)?;
            let (reply, _) = read_frame(&mut stream, peer as u32)?;
            validate_hello(&reply, peer, world, shards, policy_id)?;
            streams[peer] = Some(stream);
        }

        // Accept every higher rank; Hellos tell us who arrived.
        let start = Instant::now();
        let mut attempts = 0u32;
        while streams.iter().skip(rank + 1).any(Option::is_none) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let mut stream = configure(stream, rank as u32, config)?;
                    let (greeting, _) = read_frame(&mut stream, rank as u32)?;
                    let Msg::Hello { rank: peer, .. } = greeting else {
                        return Err(NetError::Protocol("expected Hello on accept".into()));
                    };
                    let peer = peer as usize;
                    if peer <= rank || peer >= world {
                        return Err(NetError::Protocol(format!(
                            "rank {rank} accepted a connection claiming rank {peer}"
                        )));
                    }
                    validate_hello(&greeting, peer, world, shards, policy_id)?;
                    if streams[peer].is_some() {
                        return Err(NetError::Protocol(format!("rank {peer} connected twice")));
                    }
                    write_frame(&mut stream, peer as u32, &hello)?;
                    streams[peer] = Some(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if start.elapsed() >= config.timeout {
                        let missing = (rank + 1..world)
                            .find(|&p| streams[p].is_none())
                            .expect("loop condition guarantees a missing rank");
                        return Err(NetError::Rendezvous {
                            missing_rank: missing as u32,
                            attempts,
                            detail: "never connected".into(),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(backoff_ms(attempts)));
                    attempts += 1;
                }
                Err(e) => {
                    return Err(NetError::Io {
                        peer: rank as u32,
                        op: "accept",
                        detail: e.to_string(),
                    })
                }
            }
        }
        Ok(Tcp { rank, streams })
    }

    fn stream(&mut self, peer: usize) -> Result<&mut TcpStream, NetError> {
        if peer >= self.streams.len() || peer == self.rank {
            return Err(NetError::Protocol(format!(
                "rank {} cannot address peer {peer} (world {})",
                self.rank,
                self.streams.len()
            )));
        }
        self.streams[peer].as_mut().ok_or(NetError::Disconnected { peer: peer as u32 })
    }
}

/// The configuration error of a rank with no address in the peer list.
fn outside(rank: usize, world: usize) -> NetError {
    NetError::Config(format!("rank {rank} outside world of {world}"))
}

/// Applies the socket options every rank-to-rank stream runs with.
fn configure(stream: TcpStream, peer: u32, config: &NetConfig) -> Result<TcpStream, NetError> {
    let io = |e: std::io::Error| NetError::Io { peer, op: "configure", detail: e.to_string() };
    stream.set_nonblocking(false).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(config.timeout)).map_err(io)?;
    stream.set_write_timeout(Some(config.timeout)).map_err(io)?;
    Ok(stream)
}

/// Checks a peer's Hello against our own configuration.
fn validate_hello(
    msg: &Msg,
    peer: usize,
    world: usize,
    shards: usize,
    policy_id: u32,
) -> Result<(), NetError> {
    let Msg::Hello { rank, world: w, shards: s, policy_id: p } = msg else {
        return Err(NetError::Protocol("expected Hello".into()));
    };
    if *rank as usize != peer {
        return Err(NetError::Protocol(format!("peer {peer} introduced itself as rank {rank}")));
    }
    if *w as usize != world || *s as usize != shards || *p != policy_id {
        return Err(NetError::Protocol(format!(
            "rank {rank} config mismatch: world {w}/{world}, shards {s}/{shards}, \
             policy {p}/{policy_id}"
        )));
    }
    Ok(())
}

impl Transport for Tcp {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.streams.len()
    }

    fn send_frame(
        &mut self,
        peer: usize,
        _len: usize,
        frame: &mut dyn FnMut(&mut dyn Write) -> std::io::Result<()>,
    ) -> Result<u64, NetError> {
        let mut out = Counted { inner: self.stream(peer)?, bytes: 0 };
        frame(&mut out).and_then(|()| out.flush()).map_err(|e| io_err(peer as u32, "write", &e))?;
        Ok(out.bytes)
    }

    fn recv_frame(
        &mut self,
        peer: usize,
        payload: &mut PayloadSink<'_>,
    ) -> Result<(Msg, u64), NetError> {
        read_frame_with(self.stream(peer)?, peer as u32, payload)
    }
}

/// A stream that counts the bytes written through it.
struct Counted<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` loopback listeners on port 0 and the addresses they got. Each
    /// rank is handed its own listener, so no port is released and bound
    /// again in between.
    fn bound(n: usize) -> (Vec<TcpListener>, Vec<String>) {
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0")).collect();
        let addrs = listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
        (listeners, addrs)
    }

    #[test]
    fn backoff_schedule_is_deterministic_doubling_capped() {
        let schedule: Vec<u64> = (0..10).map(backoff_ms).collect();
        assert_eq!(schedule, vec![5, 10, 20, 40, 80, 160, 200, 200, 200, 200]);
        // Pure function: same input, same output, no clock involved.
        assert_eq!(backoff_ms(3), backoff_ms(3));
    }

    #[test]
    fn net_config_resolves_through_the_workspace_policy() {
        let (c, w) = NetConfig::resolve(None);
        assert_eq!(c.timeout, Duration::from_millis(NetConfig::DEFAULT_TIMEOUT_MS));
        assert!(w.is_none());
        let (c, w) = NetConfig::resolve(Some("250"));
        assert_eq!(c.timeout, Duration::from_millis(250));
        assert!(w.is_none());
        for bad in ["0", "-5", "fast", ""] {
            let (c, w) = NetConfig::resolve(Some(bad));
            assert_eq!(c.timeout, Duration::from_millis(NetConfig::DEFAULT_TIMEOUT_MS));
            let w = w.expect("warning");
            assert!(w.contains("GIST_NET_TIMEOUT_MS"), "{w}");
        }
    }

    #[test]
    fn in_process_mesh_delivers_frames_in_order() {
        let mut nodes = InProcess::mesh(3);
        assert_eq!((nodes[1].rank(), nodes[1].world()), (1, 3));
        let msgs = [
            Msg::Stats { step: 0, words: vec![1, 2] },
            Msg::Grad { epoch: 0, step: 0, tensor: 7, wire: vec![] },
        ];
        // 0 -> 2 twice, FIFO.
        for m in &msgs {
            nodes[0].send(2, m).unwrap();
        }
        for m in &msgs {
            let (got, n) = nodes[2].recv(0).unwrap();
            assert_eq!(&got, m);
            assert_eq!(n, m.to_frame().len() as u64);
        }
        // Self- and out-of-range sends are protocol errors.
        assert!(matches!(nodes[0].send(0, &msgs[0]), Err(NetError::Protocol(_))));
        assert!(matches!(nodes[0].send(9, &msgs[0]), Err(NetError::Protocol(_))));
    }

    #[test]
    fn in_process_mesh_reports_dead_peers() {
        let mut nodes = InProcess::mesh(2);
        let n1 = nodes.pop().expect("node 1");
        drop(n1);
        let mut n0 = nodes.pop().expect("node 0");
        assert_eq!(
            n0.send(1, &Msg::Stats { step: 0, words: vec![] }),
            Err(NetError::Disconnected { peer: 1 })
        );
        assert_eq!(n0.recv(1).unwrap_err(), NetError::Disconnected { peer: 1 });
    }

    #[test]
    fn tcp_rendezvous_connects_and_exchanges_both_ways() {
        let (listeners, peers) = bound(3);
        let config = NetConfig::default();
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let peers = peers.clone();
                std::thread::spawn(move || {
                    let mut t = Tcp::rendezvous_on(listener, rank, &peers, 8, 1, &config)
                        .expect("rendezvous");
                    // Ring exchange: send to (rank+1) % 3, recv from
                    // (rank+2) % 3 — exercises both stream directions.
                    let msg = Msg::Stats { step: rank as u32, words: vec![rank as u32] };
                    t.send((rank + 1) % 3, &msg).expect("send");
                    let from = (rank + 2) % 3;
                    let (got, _) = t.recv(from).expect("recv");
                    assert_eq!(got, Msg::Stats { step: from as u32, words: vec![from as u32] });
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread");
        }
    }

    #[test]
    fn missing_peer_trips_the_connect_timeout_naming_the_rank() {
        // Rank 1 dials rank 0, which never listens. The error must name
        // rank 0 and show at least one retry.
        let (mut listeners, peers) = bound(2);
        let l1 = listeners.pop().expect("rank 1 listener");
        drop(listeners);
        let config = NetConfig { timeout: Duration::from_millis(100) };
        let err = Tcp::rendezvous_on(l1, 1, &peers, 8, 0, &config).expect_err("no peer");
        match err {
            NetError::Rendezvous { missing_rank, attempts, .. } => {
                assert_eq!(missing_rank, 0);
                assert!(attempts >= 1, "expected retries, got {attempts}");
            }
            other => panic!("expected Rendezvous, got {other:?}"),
        }
        // Rank 0 waiting on a rank 1 that never dials in: same shape,
        // naming rank 1.
        let (mut listeners, peers) = bound(2);
        let l0 = listeners.remove(0);
        let err = Tcp::rendezvous_on(l0, 0, &peers, 8, 0, &config).expect_err("no dialer");
        assert!(
            matches!(err, NetError::Rendezvous { missing_rank: 1, .. }),
            "expected Rendezvous naming rank 1, got {err:?}"
        );
        // A rank with no address is a configuration error.
        let err = Tcp::rendezvous(2, &peers, 8, 0, &config).expect_err("no address");
        assert!(matches!(err, NetError::Config(_)), "{err:?}");
    }

    #[test]
    fn slow_peer_within_the_retry_budget_converges() {
        let (mut listeners, peers) = bound(2);
        let (l1, l0) = (listeners.pop().expect("rank 1"), listeners.pop().expect("rank 0"));
        let config = NetConfig { timeout: Duration::from_millis(5_000) };
        let p0 = peers.clone();
        let h0 = std::thread::spawn(move || Tcp::rendezvous_on(l0, 0, &p0, 8, 0, &config));
        // Rank 1 shows up late; rank 0's accept loop must keep retrying.
        std::thread::sleep(Duration::from_millis(120));
        let h1 = std::thread::spawn(move || Tcp::rendezvous_on(l1, 1, &peers, 8, 0, &config));
        let t0 = h0.join().expect("rank 0 thread").expect("rank 0 rendezvous");
        let t1 = h1.join().expect("rank 1 thread").expect("rank 1 rendezvous");
        assert_eq!((t0.rank(), t0.world()), (0, 2));
        assert_eq!((t1.rank(), t1.world()), (1, 2));
    }

    #[test]
    fn hello_mismatches_fail_by_name() {
        // Shard-count mismatch: both sides come up, the handshake rejects.
        let (mut listeners, peers) = bound(2);
        let (l1, l0) = (listeners.pop().expect("rank 1"), listeners.pop().expect("rank 0"));
        let config = NetConfig { timeout: Duration::from_millis(2_000) };
        let p0 = peers.clone();
        let h0 = std::thread::spawn(move || Tcp::rendezvous_on(l0, 0, &p0, 8, 0, &config));
        let h1 = std::thread::spawn(move || Tcp::rendezvous_on(l1, 1, &peers, 4, 0, &config));
        let r0 = h0.join().expect("thread 0");
        let r1 = h1.join().expect("thread 1");
        // At least one side must reject with a Protocol error naming the
        // config mismatch (the other may see a disconnect).
        let errs: Vec<NetError> = [r0.err(), r1.err()].into_iter().flatten().collect();
        assert!(
            errs.iter().any(|e| matches!(e, NetError::Protocol(msg) if msg.contains("shards"))),
            "expected a shards mismatch, got {errs:?}"
        );
    }

    #[test]
    fn mid_stream_disconnect_is_a_typed_error_not_a_panic() {
        let (mut listeners, peers) = bound(2);
        let (l1, l0) = (listeners.pop().expect("rank 1"), listeners.pop().expect("rank 0"));
        let config = NetConfig { timeout: Duration::from_millis(2_000) };
        let p1 = peers.clone();
        let h1 = std::thread::spawn(move || {
            let mut t = Tcp::rendezvous_on(l1, 1, &p1, 8, 0, &config).expect("rendezvous");
            // Write a *partial* frame — a length prefix promising more
            // than is ever sent — then drop the socket.
            use std::io::Write as _;
            let s = t.streams[0].as_mut().expect("stream to 0");
            s.write_all(&100u32.to_le_bytes()).expect("partial write");
            s.write_all(b"GNT1").expect("partial write");
        });
        let mut t0 = Tcp::rendezvous_on(l0, 0, &peers, 8, 0, &config).expect("rendezvous");
        h1.join().expect("rank 1 thread");
        let err = t0.recv(1).expect_err("partial frame must not parse");
        assert_eq!(err, NetError::Disconnected { peer: 1 });
        // The transport stays usable as an error reporter, not a panic.
        assert!(t0.recv(1).is_err());
    }

    #[test]
    fn tcp_observed_bytes_match_frame_sizes() {
        let (mut listeners, peers) = bound(2);
        let (l1, l0) = (listeners.pop().expect("rank 1"), listeners.pop().expect("rank 0"));
        let config = NetConfig::default();
        let p1 = peers.clone();
        let h1 = std::thread::spawn(move || {
            let mut t = Tcp::rendezvous_on(l1, 1, &p1, 8, 0, &config).expect("rendezvous");
            let msg = Msg::Grad { epoch: 0, step: 1, tensor: 2, wire: vec![9; 33] };
            let sent = t.send(0, &msg).expect("send");
            (msg, sent)
        });
        let mut t0 = Tcp::rendezvous_on(l0, 0, &peers, 8, 0, &config).expect("rendezvous");
        let (msg, sent) = h1.join().expect("rank 1 thread");
        let (got, observed) = t0.recv(1).expect("recv");
        assert_eq!(got, msg);
        assert_eq!(observed, sent);
        assert_eq!(observed, msg.to_frame().len() as u64);
    }
}
