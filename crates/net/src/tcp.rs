//! Event-driven TCP transport: hundreds of ranks multiplexed per
//! process.
//!
//! The thread-per-rank substrates ([`Cluster`](crate::Cluster),
//! [`SocketCluster`](crate::socket::SocketCluster)) stop scaling near
//! `n ≈ 64` on small hosts: every simulated processor costs an OS
//! thread, and the scheduler thrashes long before the algorithms get
//! interesting. This module rebuilds the data plane around *readiness*
//! instead of threads:
//!
//! * **Topology.** Ranks are grouped into simulated *nodes* of
//!   [`ClusterConfig::node_size`] ranks each. Intra-node traffic rides
//!   the in-process channel path (one [`Mailbox`] per rank, zero
//!   syscalls); inter-node traffic crosses one loopback **TCP stream
//!   per node pair**, shared by every rank on the two nodes.
//! * **Framing.** Messages fragment at
//!   [`FRAG_PAYLOAD`](crate::frame::FRAG_PAYLOAD) into the same frame
//!   header the datagram transport uses (see [`crate::frame`]), wrapped
//!   in an 8-byte `[len, dst]` prefix so the stream demultiplexes by
//!   destination rank.
//! * **Reactor.** All streams run nonblocking and are driven by a
//!   single reactor thread sweeping a readiness loop — the portable
//!   stand-in for `poll(2)`, which `std` does not expose — flushing
//!   per-link outboxes and decoding inbound frames into per-rank
//!   mailboxes. Idle sweeps back off exponentially, so a quiet fabric
//!   costs (almost) no CPU.
//! * **Execution.** [`TcpScaleCluster`] interprets lowered
//!   [`RankProgram`]s — the same programs `bruck-collectives` executes
//!   on the threaded substrate — with a small worker pool: each worker
//!   owns a contiguous slice of ranks and drives their endpoint state
//!   machines from message readiness. OS threads per process are
//!   `O(workers)`, not `O(n)`, so `n = 1024` runs where 1024 threads
//!   would not.
//!
//! The reliability stack is unchanged: sliding-window ARQ, adaptive
//! RTO, the heartbeat watchdog, and deadline clamps
//! ([`crate::reliable`], [`crate::deadline`]) wrap the TCP transport
//! exactly as they wrap channels and datagram sockets, and fault
//! injection ([`crate::fault`]) applies to every transmission.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bruck_model::planner::IndexPlan;
use bruck_model::program::{ProgramOp, RankProgram};
use bruck_model::tuning::DEFAULT_DRAIN_GRACE;

use crate::cluster::ClusterConfig;
use crate::deadline::Deadline;
use crate::error::NetError;
use crate::failure::FailureDetector;
use crate::fault::{FaultPlan, FaultyTransport, RoundClock, SocketFault};
use crate::frame::{decode_frame, encode_frame_into, Assembler, FRAG_PAYLOAD, HEADER};
use crate::mailbox::{MailSender, Mailbox};
use crate::membership::{Membership, RecoveryPolicy};
use crate::message::{payload_checksum, Message, Tag};
use crate::metrics::{FabricStats, RankMetrics, RunMetrics};
use crate::reliable::ReliableTransport;
use crate::transport::Transport;

/// Stream prefix ahead of every frame: `u32` frame length + `u32`
/// destination rank (both little-endian).
const STREAM_PREFIX: usize = 8;

/// Reactor read chunk: one full frame's worth per `read` call.
const READ_CHUNK: usize = HEADER + FRAG_PAYLOAD;

/// Ceiling for the reactor's idle-sweep nap.
const IDLE_NAP_MAX: Duration = Duration::from_micros(500);

/// Default per-outage reconnect budget: attempts before a node pair is
/// declared dead and a node-level eviction is raised.
const DEFAULT_RECONNECT_BUDGET: u32 = 6;

/// Default first-retry backoff; doubles per failed attempt (jittered).
const DEFAULT_BACKOFF_BASE: Duration = Duration::from_micros(200);

/// Default backoff ceiling.
const DEFAULT_BACKOFF_CAP: Duration = Duration::from_millis(20);

/// Default ceiling on one reconnect handshake (connect + pair-id
/// exchange); a peer that cannot complete it in time burns one budget
/// attempt.
const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Default per-stream outbox byte cap: past this, frames are shed (the
/// ARQ layer re-drives them) so a dead peer cannot OOM the reactor.
const DEFAULT_OUTBOX_CAP: usize = 8 << 20;

/// Healing, fault-injection, and lifecycle knobs for a [`TcpFabric`].
///
/// [`Default`] gives the PR 9 fabric: no healing (the first stream
/// error fails the run), no injection, 1s drain grace.
pub struct FabricConfig {
    /// Heal broken streams instead of failing the fabric. Requires an
    /// ARQ layer above (the fabric discards in-flight bytes on
    /// teardown and relies on retransmission for gap repair).
    pub heal: bool,
    /// Reconnect attempts per outage before the pair is declared dead.
    pub reconnect_budget: u32,
    /// First-retry backoff; doubles per failed attempt, jittered.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Budget for one reconnect handshake.
    pub handshake_timeout: Duration,
    /// Per-stream outbox byte cap (backpressure; sheds past it).
    pub outbox_cap: usize,
    /// How long the reactor keeps sweeping after shutdown is requested,
    /// waiting for outboxes to drain (hang backstop only — drained
    /// fabrics exit immediately). See
    /// [`WireTuning::drain_grace`](bruck_model::tuning::WireTuning::drain_grace).
    pub drain_grace: Duration,
    /// Socket-level fault events to inject inside the fabric.
    pub faults: Arc<FaultPlan>,
    /// Round progress used to time round-gated socket events (absent:
    /// events fire immediately).
    pub round_clock: Option<Arc<RoundClock>>,
    /// Failure detector that node-level evictions are published to.
    pub detector: Option<Arc<FailureDetector>>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            heal: false,
            reconnect_budget: DEFAULT_RECONNECT_BUDGET,
            backoff_base: DEFAULT_BACKOFF_BASE,
            backoff_cap: DEFAULT_BACKOFF_CAP,
            handshake_timeout: DEFAULT_HANDSHAKE_TIMEOUT,
            outbox_cap: DEFAULT_OUTBOX_CAP,
            drain_grace: DEFAULT_DRAIN_GRACE,
            faults: Arc::new(FaultPlan::default()),
            round_clock: None,
            detector: None,
        }
    }
}

/// splitmix64 step — the workspace's deterministic RNG idiom, used for
/// backoff jitter.
fn mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Index of the unordered node pair `(a, b)`, `a < b`, among the
/// `nodes·(nodes−1)/2` pairs.
fn pair_index(nodes: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < nodes);
    a * (2 * nodes - a - 1) / 2 + (b - a - 1)
}

/// The [`Pair`] carrying traffic between the nodes of ranks `src` and
/// `dst` (`None` for intra-node or out-of-range ranks).
fn pair_for(
    pairs: &mut [Pair],
    nodes: usize,
    node_size: usize,
    src: usize,
    dst: usize,
) -> Option<&mut Pair> {
    let (sa, sb) = (src / node_size, dst / node_size);
    if sa == sb || sa >= nodes || sb >= nodes {
        return None;
    }
    let (a, b) = if sa < sb { (sa, sb) } else { (sb, sa) };
    pairs.get_mut(pair_index(nodes, a, b))
}

/// Atomic mirror of [`FabricStats`], bumped by the reactor and the
/// senders, snapshotted after the run.
#[derive(Default)]
struct FabricStatsShared {
    link_failures: AtomicU64,
    reconnects: AtomicU64,
    reconnect_failures: AtomicU64,
    pairs_evicted: AtomicU64,
    backoff_ns: AtomicU64,
    injected_resets: AtomicU64,
    injected_stalls: AtomicU64,
    injected_handshake_drops: AtomicU64,
    outbox_shed_bytes: AtomicU64,
}

impl FabricStatsShared {
    fn snapshot(&self) -> FabricStats {
        FabricStats {
            link_failures: self.link_failures.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            reconnect_failures: self.reconnect_failures.load(Ordering::Relaxed),
            pairs_evicted: self.pairs_evicted.load(Ordering::Relaxed),
            backoff_ns: self.backoff_ns.load(Ordering::Relaxed),
            injected_resets: self.injected_resets.load(Ordering::Relaxed),
            injected_stalls: self.injected_stalls.load(Ordering::Relaxed),
            injected_handshake_drops: self.injected_handshake_drops.load(Ordering::Relaxed),
            outbox_shed_bytes: self.outbox_shed_bytes.load(Ordering::Relaxed),
        }
    }
}

/// State shared between the rank transports (producers) and the reactor
/// (consumer): one byte outbox per stream *end*, plus the first fabric
/// error.
struct FabricShared {
    node_size: usize,
    /// `2` outboxes per node pair: `[2p]` is written by the lower node
    /// of pair `p` (the connecting end), `[2p+1]` by the higher (the
    /// accepting end).
    outboxes: Vec<Mutex<Vec<u8>>>,
    /// Cheap has-data flags so the reactor skips locking idle outboxes.
    dirty: Vec<AtomicBool>,
    /// First wire error observed by the reactor (or a sender); fails
    /// every subsequent send so the run aborts instead of hanging.
    error: Mutex<Option<String>>,
    nodes: usize,
    /// Outbox byte cap: senders shed frames past it (the ARQ layer
    /// re-drives them) so a dead peer cannot grow an outbox unboundedly.
    outbox_cap: usize,
    /// Per-pair tombstones: reconnect budget exhausted, sends to the
    /// pair are blackholed and the pair no longer gates shutdown.
    pair_dead: Vec<AtomicBool>,
    /// Nodes evicted at the fabric level (budget-exhausted pairs).
    dead_nodes: Mutex<Vec<usize>>,
    /// Shutdown drain grace, nanoseconds (settable late: the scale
    /// executor caps it with the adaptive-RTO linger hint).
    drain_grace_ns: AtomicU64,
    stats: FabricStatsShared,
}

impl FabricShared {
    /// The outbox a message from `src_node` to `dst_node` is staged in.
    fn outbox_for(&self, src_node: usize, dst_node: usize) -> usize {
        if src_node < dst_node {
            2 * pair_index(self.nodes, src_node, dst_node)
        } else {
            2 * pair_index(self.nodes, dst_node, src_node) + 1
        }
    }

    fn fail(&self, msg: String) {
        let mut slot = self.error.lock().expect("fabric error lock");
        if slot.is_none() {
            *slot = Some(msg);
        }
    }

    fn check(&self) -> Result<(), NetError> {
        match self.error.lock().expect("fabric error lock").as_ref() {
            Some(e) => Err(NetError::App(format!("tcp fabric: {e}"))),
            None => Ok(()),
        }
    }

    fn drain_grace(&self) -> Duration {
        Duration::from_nanos(self.drain_grace_ns.load(Ordering::Relaxed))
    }
}

/// One stream end owned by the reactor.
struct Link {
    stream: TcpStream,
    /// The outbox this end transmits.
    idx: usize,
    /// Bytes being written (drained from the outbox), and the write
    /// offset into them.
    out: Vec<u8>,
    out_at: usize,
    /// Inbound bytes not yet parsed into whole frames.
    rbuf: Vec<u8>,
}

impl Link {
    fn fresh(stream: TcpStream, idx: usize) -> Self {
        Self {
            stream,
            idx,
            out: Vec::new(),
            out_at: 0,
            rbuf: Vec::new(),
        }
    }
}

/// A round-gated socket fault armed on one pair.
enum ArmedKind {
    /// Tear the pair down (TCP RST analogue).
    Reset,
    /// Freeze the pair's I/O for the duration (half-open analogue).
    Stall(Duration),
    /// Tear down now and after each of the next `n` heals.
    Flap(u32),
}

/// Connection state machine for one node pair:
/// connected → reconnecting(backoff) → evicted. Both stream ends live
/// here — the fabric is loopback, so the reactor owns both sides.
struct Pair {
    p: usize,
    lo_node: usize,
    hi_node: usize,
    /// `Some` while connected; `None` while down. Teardown drops both
    /// ends and their partial buffers: the stream restarts at a record
    /// boundary on both sides and the ARQ layer re-drives the gap.
    ends: Option<(Link, Link)>,
    /// When the current outage began (backoff dwell accounting).
    down_since: Option<Instant>,
    /// Reconnect attempts made this outage.
    attempts: u32,
    next_attempt: Instant,
    /// Budget exhausted: blackholed, no longer swept.
    dead: bool,
    /// Injected: fail the next N reconnect handshakes.
    hs_drops_left: u32,
    /// Injected: tear down again after each of the next N heals.
    flaps_left: u32,
    /// Injected: skip all I/O on the pair until this instant.
    stall_until: Option<Instant>,
    /// Round-gated socket events not yet fired: `(round, kind)`.
    armed: Vec<(u64, ArmedKind)>,
}

impl Pair {
    fn new(p: usize, lo_node: usize, hi_node: usize, lo: Link, hi: Link) -> Self {
        Self {
            p,
            lo_node,
            hi_node,
            ends: Some((lo, hi)),
            down_since: None,
            attempts: 0,
            next_attempt: Instant::now(),
            dead: false,
            hs_drops_left: 0,
            flaps_left: 0,
            stall_until: None,
            armed: Vec::new(),
        }
    }
}

/// Why a link sweep stopped early.
enum LinkErr {
    /// Stream-level I/O failure (reset, EOF, write error): healable.
    Io(String),
    /// Protocol violation (bad frame, unknown rank): never healable.
    Fatal(String),
}

/// Write/read/parse one stream end. Returns whether any bytes moved.
fn sweep_link(
    shared: &FabricShared,
    link: &mut Link,
    chunk: &mut [u8],
    asms: &mut [Assembler],
    senders: &[MailSender],
) -> Result<bool, LinkErr> {
    let n = senders.len();
    let mut moved = false;
    // Refill the write cursor from the outbox (allocation swap: the
    // drained buffer goes back as the senders' next arena).
    if link.out_at == link.out.len() && shared.dirty[link.idx].swap(false, Ordering::AcqRel) {
        link.out.clear();
        link.out_at = 0;
        let mut outbox = shared.outboxes[link.idx].lock().expect("outbox lock");
        std::mem::swap(&mut *outbox, &mut link.out);
    }
    while link.out_at < link.out.len() {
        match link.stream.write(&link.out[link.out_at..]) {
            Ok(0) => return Err(LinkErr::Io("stream closed mid-write".into())),
            Ok(k) => {
                link.out_at += k;
                moved = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(LinkErr::Io(format!("write: {e}"))),
        }
    }
    loop {
        match link.stream.read(chunk) {
            Ok(0) => return Err(LinkErr::Io("stream EOF".into())),
            Ok(k) => {
                link.rbuf.extend_from_slice(&chunk[..k]);
                moved = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(LinkErr::Io(format!("read: {e}"))),
        }
    }
    // Parse whole frames off the front of the read buffer.
    let mut at = 0usize;
    while link.rbuf.len().saturating_sub(at) >= STREAM_PREFIX {
        let flen = u32::from_le_bytes(link.rbuf[at..at + 4].try_into().expect("4 bytes")) as usize;
        // No sender stages a frame past one fragment: a larger length is
        // a corrupt prefix, and waiting for it would buffer up to 4 GiB.
        if flen > HEADER + FRAG_PAYLOAD {
            return Err(LinkErr::Fatal(format!(
                "frame length {flen} exceeds the {} byte cap",
                HEADER + FRAG_PAYLOAD
            )));
        }
        if link.rbuf.len() - at < STREAM_PREFIX + flen {
            break;
        }
        let dst =
            u32::from_le_bytes(link.rbuf[at + 4..at + 8].try_into().expect("4 bytes")) as usize;
        let body = &link.rbuf[at + STREAM_PREFIX..at + STREAM_PREFIX + flen];
        match decode_frame(body) {
            Ok(frame) if dst < n => {
                asms[dst].accept(frame);
                while let Some(m) = asms[dst].pending.pop_front() {
                    // A dropped receiver (aborted run) is not an
                    // error: same fire-and-forget semantics as the
                    // channel transport.
                    let _ = senders[dst].send(m);
                }
            }
            Ok(_) => {
                return Err(LinkErr::Fatal(format!(
                    "frame addressed to unknown rank {dst}"
                )))
            }
            Err(e) => return Err(LinkErr::Fatal(format!("decode: {e}"))),
        }
        at += STREAM_PREFIX + flen;
    }
    if at > 0 {
        link.rbuf.copy_within(at.., 0);
        link.rbuf.truncate(link.rbuf.len() - at);
    }
    Ok(moved)
}

/// Everything the reactor thread owns besides the pairs themselves.
struct Reactor {
    shared: Arc<FabricShared>,
    senders: Vec<MailSender>,
    /// Kept for reconnects; `None` disables healing.
    listener: Option<(TcpListener, SocketAddr)>,
    heal: bool,
    budget: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
    handshake_timeout: Duration,
    round_clock: Option<Arc<RoundClock>>,
    detector: Option<Arc<FailureDetector>>,
    /// Backoff-jitter RNG state (deterministic seed).
    rng: u64,
    /// Dead-pair count per node: the eviction victim heuristic.
    node_dead: Vec<u32>,
}

impl Reactor {
    /// Jittered exponential backoff after `attempts` failures this
    /// outage: `base·2^(attempts−1)` capped, plus up to 50% jitter.
    fn backoff(&mut self, attempts: u32) -> Duration {
        let exp = attempts.saturating_sub(1).min(20);
        let slice = self
            .backoff_cap
            .min(self.backoff_base.saturating_mul(1u32 << exp.min(16)));
        let jitter_ns = if slice.as_nanos() == 0 {
            0
        } else {
            mix64(&mut self.rng) % (slice.as_nanos() as u64 / 2 + 1)
        };
        slice + Duration::from_nanos(jitter_ns)
    }

    /// The slowest alive rank's completed-round count — the fabric-wide
    /// round used to time injected socket events. Without a round
    /// clock, events fire immediately.
    fn current_round(&self) -> u64 {
        let Some(clock) = &self.round_clock else {
            return u64::MAX;
        };
        let n = self.senders.len();
        (0..n)
            .filter(|&r| self.detector.as_ref().is_none_or(|d| !d.is_dead(r)))
            .map(|r| clock.completed(r))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Tear a pair down: drop both ends (and their partial buffers) and
    /// enter the reconnecting state. With healing off the caller fails
    /// the fabric instead.
    fn teardown(&mut self, pair: &mut Pair, injected: bool) {
        pair.ends = None;
        pair.down_since = Some(Instant::now());
        pair.attempts = 0;
        pair.next_attempt = Instant::now();
        self.shared
            .stats
            .link_failures
            .fetch_add(1, Ordering::Relaxed);
        if injected {
            self.shared
                .stats
                .injected_resets
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Budget exhausted: kill the pair, pick the victim node (the one
    /// with more dead pairs; ties to the higher id), publish its ranks
    /// to the failure detector, and blackhole every pair touching it.
    fn evict(&mut self, pairs: &mut [Pair], at: usize) {
        let (lo, hi) = (pairs[at].lo_node, pairs[at].hi_node);
        pairs[at].dead = true;
        self.shared.pair_dead[pairs[at].p].store(true, Ordering::Relaxed);
        self.shared
            .stats
            .pairs_evicted
            .fetch_add(1, Ordering::Relaxed);
        self.node_dead[lo] += 1;
        self.node_dead[hi] += 1;
        let victim = if self.node_dead[lo] > self.node_dead[hi] {
            lo
        } else {
            hi
        };
        {
            let mut dead = self.shared.dead_nodes.lock().expect("dead nodes lock");
            if !dead.contains(&victim) {
                dead.push(victim);
            }
        }
        if let Some(detector) = &self.detector {
            let ns = self.shared.node_size;
            for rank in victim * ns..(victim + 1) * ns {
                detector.mark_dead(rank);
            }
        }
        // Remaining traffic to the victim is pointless: blackhole its
        // other pairs so they stop gating drain and stop reconnecting.
        for other in pairs.iter_mut() {
            if !other.dead && (other.lo_node == victim || other.hi_node == victim) {
                other.dead = true;
                other.ends = None;
                self.shared.pair_dead[other.p].store(true, Ordering::Relaxed);
            }
        }
    }

    /// One reconnect attempt for a downed pair: connect, exchange the
    /// pair id, install fresh links. Consumes injected handshake drops
    /// and fires pending flaps.
    fn try_reconnect(&mut self, pairs: &mut [Pair], at: usize) {
        let p = pairs[at].p;
        pairs[at].attempts += 1;
        let outcome = if pairs[at].hs_drops_left > 0 {
            pairs[at].hs_drops_left -= 1;
            self.shared
                .stats
                .injected_handshake_drops
                .fetch_add(1, Ordering::Relaxed);
            Err("injected handshake drop".to_string())
        } else {
            let (listener, addr) = self.listener.as_ref().expect("healing requires listener");
            reconnect_handshake(listener, *addr, p, self.handshake_timeout)
        };
        match outcome {
            Ok((lo, hi)) => {
                let down = pairs[at]
                    .down_since
                    .take()
                    .map_or(0, |t| t.elapsed().as_nanos() as u64);
                self.shared.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .stats
                    .backoff_ns
                    .fetch_add(down, Ordering::Relaxed);
                pairs[at].ends = Some((Link::fresh(lo, 2 * p), Link::fresh(hi, 2 * p + 1)));
                pairs[at].attempts = 0;
                if pairs[at].flaps_left > 0 {
                    // Flapping link: the heal itself triggers the next
                    // injected reset.
                    pairs[at].flaps_left -= 1;
                    self.teardown(&mut pairs[at], true);
                }
            }
            Err(_) => {
                self.shared
                    .stats
                    .reconnect_failures
                    .fetch_add(1, Ordering::Relaxed);
                if pairs[at].attempts >= self.budget {
                    self.evict(pairs, at);
                } else {
                    let wait = self.backoff(pairs[at].attempts);
                    pairs[at].next_attempt = Instant::now() + wait;
                }
            }
        }
    }
}

/// Connect + pair-id exchange for one healing pair, bounded by
/// `timeout`. Stale backlog connections (from abandoned attempts of
/// other pairs) are drained and discarded by the id check.
fn reconnect_handshake(
    listener: &TcpListener,
    addr: SocketAddr,
    p: usize,
    timeout: Duration,
) -> Result<(TcpStream, TcpStream), String> {
    let deadline = Instant::now() + timeout;
    let mut lo = TcpStream::connect(addr).map_err(|e| format!("reconnect connect: {e}"))?;
    lo.write_all(&(p as u32).to_le_bytes())
        .map_err(|e| format!("reconnect handshake send: {e}"))?;
    let hi = loop {
        match listener.accept() {
            Ok((mut cand, _)) => {
                let left = deadline
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1));
                cand.set_read_timeout(Some(left))
                    .map_err(|e| format!("reconnect set_read_timeout: {e}"))?;
                let mut hs = [0u8; 4];
                match cand.read_exact(&mut hs) {
                    Ok(()) if u32::from_le_bytes(hs) as usize == p => break cand,
                    // Wrong id or a dead stale connection: discard it
                    // and keep accepting until our own connect shows up.
                    Ok(()) | Err(_) => {}
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err("reconnect handshake timeout".into());
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(format!("reconnect accept: {e}")),
        }
    };
    for s in [&lo, &hi] {
        s.set_nodelay(true)
            .map_err(|e| format!("reconnect set_nodelay: {e}"))?;
        s.set_nonblocking(true)
            .map_err(|e| format!("reconnect set_nonblocking: {e}"))?;
    }
    Ok((lo, hi))
}

/// The readiness sweep: flush every dirty outbox, drain every readable
/// stream, decode frames, reassemble, deliver to per-rank mailboxes —
/// and, when healing, drive every pair's connection state machine.
fn reactor_loop(mut rx: Reactor, mut pairs: Vec<Pair>, shutdown: &AtomicBool) {
    let n = rx.senders.len();
    let mut asms: Vec<Assembler> = (0..n).map(Assembler::new).collect();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut idle: u32 = 0;
    let mut shutdown_seen: Option<Instant> = None;
    loop {
        let mut moved = false;
        let mut drained = true;
        let has_armed = pairs.iter().any(|p| !p.armed.is_empty());
        let cur_round = if has_armed { rx.current_round() } else { 0 };
        for at in 0..pairs.len() {
            if pairs[at].dead {
                continue; // blackholed: never gates drain
            }
            // Fire round-gated injected socket events.
            if !pairs[at].armed.is_empty() {
                let mut fired_reset = false;
                let pair = &mut pairs[at];
                let mut i = 0;
                while i < pair.armed.len() {
                    if pair.armed[i].0 <= cur_round {
                        match pair.armed.swap_remove(i).1 {
                            ArmedKind::Reset => fired_reset = true,
                            ArmedKind::Flap(flaps) => {
                                fired_reset = true;
                                pair.flaps_left += flaps;
                            }
                            ArmedKind::Stall(d) => {
                                pair.stall_until = Some(Instant::now() + d);
                                rx.shared
                                    .stats
                                    .injected_stalls
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    } else {
                        i += 1;
                    }
                }
                if fired_reset && pairs[at].ends.is_some() {
                    rx.teardown(&mut pairs[at], true);
                }
            }
            // Half-open stall: the link looks alive but moves nothing.
            if let Some(until) = pairs[at].stall_until {
                if Instant::now() < until {
                    let pair = &pairs[at];
                    if let Some((lo, hi)) = &pair.ends {
                        if lo.out_at < lo.out.len()
                            || hi.out_at < hi.out.len()
                            || rx.shared.dirty[lo.idx].load(Ordering::Acquire)
                            || rx.shared.dirty[hi.idx].load(Ordering::Acquire)
                        {
                            drained = false;
                        }
                    }
                    continue;
                }
                pairs[at].stall_until = None;
            }
            if pairs[at].ends.is_none() {
                // Reconnecting: traffic for the pair is parked in its
                // outboxes, so the fabric is not drained.
                if rx.shared.dirty[2 * pairs[at].p].load(Ordering::Acquire)
                    || rx.shared.dirty[2 * pairs[at].p + 1].load(Ordering::Acquire)
                {
                    drained = false;
                }
                if rx.heal && Instant::now() >= pairs[at].next_attempt {
                    rx.try_reconnect(&mut pairs, at);
                    moved = true;
                }
                continue;
            }
            let mut failed: Option<LinkErr> = None;
            {
                let pair = &mut pairs[at];
                let (lo, hi) = pair.ends.as_mut().expect("checked connected");
                for link in [lo, hi] {
                    match sweep_link(&rx.shared, link, &mut chunk, &mut asms, &rx.senders) {
                        Ok(m) => moved |= m,
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
            }
            match failed {
                Some(LinkErr::Fatal(msg)) => {
                    rx.shared.fail(msg);
                    return;
                }
                Some(LinkErr::Io(msg)) => {
                    if rx.heal {
                        rx.teardown(&mut pairs[at], false);
                        drained = false;
                    } else if msg == "stream EOF" {
                        // Healing off: peer end torn down, nothing more
                        // will come on this stream (legacy shutdown
                        // race) — not an error.
                    } else {
                        rx.shared.fail(msg);
                        return;
                    }
                }
                None => {
                    let pair = &pairs[at];
                    let (lo, hi) = pair.ends.as_ref().expect("checked connected");
                    for link in [lo, hi] {
                        if link.out_at < link.out.len()
                            || rx.shared.dirty[link.idx].load(Ordering::Acquire)
                            || !link.rbuf.is_empty()
                        {
                            drained = false;
                        }
                    }
                }
            }
        }
        if shutdown.load(Ordering::Acquire) {
            let seen = *shutdown_seen.get_or_insert_with(Instant::now);
            if drained || seen.elapsed() > rx.shared.drain_grace() {
                return;
            }
        }
        if moved {
            idle = 0;
        } else {
            // Nothing was ready anywhere: back off so a quiet fabric
            // does not spin a core, but stay well under the reliability
            // layer's RTO so a wakeup never looks like loss.
            idle = idle.saturating_add(1);
            if idle < 8 {
                std::thread::yield_now();
            } else {
                let nap = Duration::from_micros(50 << (idle - 8).min(4));
                std::thread::sleep(nap.min(IDLE_NAP_MAX));
            }
        }
    }
}

/// The shared TCP data plane: node-pair loopback streams, per-rank
/// mailboxes, and the reactor thread driving them.
///
/// Dropping the fabric (or calling [`TcpFabric::shutdown`]) flushes
/// outstanding outboxes and joins the reactor.
pub struct TcpFabric {
    shared: Arc<FabricShared>,
    stop: Arc<AtomicBool>,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl TcpFabric {
    /// Build the fabric for `n` ranks grouped into nodes of `node_size`
    /// and return one [`TcpRankTransport`] per rank.
    ///
    /// # Errors
    ///
    /// [`NetError::App`] when `node_size` does not evenly partition the
    /// ranks, and on socket setup failures.
    pub fn new(n: usize, node_size: usize) -> Result<(Self, Vec<TcpRankTransport>), NetError> {
        Self::with_config(n, node_size, FabricConfig::default())
    }

    /// [`new`](Self::new) with explicit healing / fault-injection /
    /// lifecycle knobs.
    ///
    /// # Errors
    ///
    /// See [`new`](Self::new).
    pub fn with_config(
        n: usize,
        node_size: usize,
        config: FabricConfig,
    ) -> Result<(Self, Vec<TcpRankTransport>), NetError> {
        if n == 0 || node_size == 0 || !n.is_multiple_of(node_size) {
            return Err(NetError::App(format!(
                "node_size {node_size} must evenly partition {n} ranks"
            )));
        }
        let nodes = n / node_size;
        let npairs = nodes * (nodes - 1) / 2;
        fn app(stage: &'static str) -> impl Fn(std::io::Error) -> NetError {
            move |e| NetError::App(format!("{stage}: {e}"))
        }

        let mut senders = Vec::with_capacity(n);
        let mut mailboxes = Vec::with_capacity(n);
        for rank in 0..n {
            let (tx, mb) = Mailbox::new(rank);
            senders.push(tx);
            mailboxes.push(mb);
        }

        // One loopback stream per node pair. Setup is sequential —
        // connect, then accept — with a pair-id handshake so an
        // accepted stream is never mismatched.
        let mut pairs = Vec::with_capacity(npairs);
        let mut keep_listener = None;
        if npairs > 0 {
            let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(app("tcp bind"))?;
            let addr = listener.local_addr().map_err(app("tcp local_addr"))?;
            let mut p = 0usize;
            for a in 0..nodes {
                for b in (a + 1)..nodes {
                    let mut lo = TcpStream::connect(addr).map_err(app("tcp connect"))?;
                    lo.write_all(&(p as u32).to_le_bytes())
                        .map_err(app("tcp handshake send"))?;
                    let (mut hi, _) = listener.accept().map_err(app("tcp accept"))?;
                    let mut hs = [0u8; 4];
                    hi.read_exact(&mut hs).map_err(app("tcp handshake recv"))?;
                    if u32::from_le_bytes(hs) as usize != p {
                        return Err(NetError::App("tcp handshake pair mismatch".into()));
                    }
                    for s in [&lo, &hi] {
                        s.set_nodelay(true).map_err(app("tcp set_nodelay"))?;
                        s.set_nonblocking(true)
                            .map_err(app("tcp set_nonblocking"))?;
                    }
                    pairs.push(Pair::new(
                        p,
                        a,
                        b,
                        Link::fresh(lo, 2 * p),
                        Link::fresh(hi, 2 * p + 1),
                    ));
                    p += 1;
                }
            }
            if config.heal {
                // Reconnects re-handshake through the original
                // listener; nonblocking so the reactor's accept polls.
                listener
                    .set_nonblocking(true)
                    .map_err(app("tcp listener set_nonblocking"))?;
                keep_listener = Some((listener, addr));
            }
        }

        // Arm injected socket-level events: rank pairs map to node
        // pairs (intra-node events are meaningless here and ignored).
        for fault in config.faults.socket_faults() {
            let (src, dst, arm) = match *fault {
                SocketFault::Reset { src, dst, round } => {
                    (src, dst, Some((round, ArmedKind::Reset)))
                }
                SocketFault::HalfOpen {
                    src,
                    dst,
                    round,
                    millis,
                } => (
                    src,
                    dst,
                    Some((round, ArmedKind::Stall(Duration::from_millis(millis)))),
                ),
                SocketFault::Flap {
                    src,
                    dst,
                    round,
                    flaps,
                } => (src, dst, Some((round, ArmedKind::Flap(flaps)))),
                SocketFault::HandshakeDrop { src, dst, drops } => {
                    if let Some(pair) = pair_for(&mut pairs, nodes, node_size, src, dst) {
                        pair.hs_drops_left += drops;
                    }
                    (src, dst, None)
                }
            };
            if let Some(arm) = arm {
                if let Some(pair) = pair_for(&mut pairs, nodes, node_size, src, dst) {
                    pair.armed.push(arm);
                }
            }
        }

        let shared = Arc::new(FabricShared {
            node_size,
            outboxes: (0..2 * npairs).map(|_| Mutex::new(Vec::new())).collect(),
            dirty: (0..2 * npairs).map(|_| AtomicBool::new(false)).collect(),
            error: Mutex::new(None),
            nodes,
            outbox_cap: config.outbox_cap,
            pair_dead: (0..npairs).map(|_| AtomicBool::new(false)).collect(),
            dead_nodes: Mutex::new(Vec::new()),
            drain_grace_ns: AtomicU64::new(config.drain_grace.as_nanos() as u64),
            stats: FabricStatsShared::default(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let reactor = if npairs > 0 {
            let rx = Reactor {
                shared: Arc::clone(&shared),
                senders: senders.clone(),
                listener: keep_listener,
                heal: config.heal,
                budget: config.reconnect_budget.max(1),
                backoff_base: config.backoff_base,
                backoff_cap: config.backoff_cap,
                handshake_timeout: config.handshake_timeout,
                round_clock: config.round_clock,
                detector: config.detector,
                rng: 0x1ceb_00da ^ (n as u64) << 16 ^ nodes as u64,
                node_dead: vec![0; nodes],
            };
            let stop2 = Arc::clone(&stop);
            Some(
                std::thread::Builder::new()
                    .name("bruck-tcp-reactor".into())
                    .spawn(move || reactor_loop(rx, pairs, &stop2))
                    .map_err(|e| NetError::App(format!("spawn reactor: {e}")))?,
            )
        } else {
            None
        };

        let transports = mailboxes
            .into_iter()
            .enumerate()
            .map(|(rank, mailbox)| TcpRankTransport {
                rank,
                node: rank / node_size,
                peers: senders.clone(),
                mailbox,
                shared: Arc::clone(&shared),
                next_msg_id: 0,
                send_buf: Vec::new(),
            })
            .collect();
        Ok((
            Self {
                shared,
                stop,
                reactor,
            },
            transports,
        ))
    }

    /// OS threads the fabric itself owns (the reactor; `0` for a
    /// single-node fabric with no TCP streams).
    #[must_use]
    pub fn threads(&self) -> usize {
        usize::from(self.reactor.is_some())
    }

    /// First wire error, if the reactor or a sender hit one.
    #[must_use]
    pub fn error(&self) -> Option<String> {
        self.shared.error.lock().expect("fabric error lock").clone()
    }

    /// Connection-lifecycle counters so far (healing, backoff,
    /// injection). Keeps counting until the reactor joins.
    #[must_use]
    pub fn stats(&self) -> FabricStats {
        self.shared.stats.snapshot()
    }

    /// Ranks evicted at the fabric level: every rank of every node
    /// whose pair exhausted its reconnect budget.
    #[must_use]
    pub fn dead_ranks(&self) -> Vec<usize> {
        let nodes = self.shared.dead_nodes.lock().expect("dead nodes lock");
        let ns = self.shared.node_size;
        let mut ranks: Vec<usize> = nodes
            .iter()
            .flat_map(|&node| node * ns..(node + 1) * ns)
            .collect();
        ranks.sort_unstable();
        ranks
    }

    /// Cap the shutdown drain grace (e.g. with the reliability layer's
    /// adaptive-RTO linger hint) before calling
    /// [`shutdown`](Self::shutdown).
    pub fn set_drain_grace(&self, grace: Duration) {
        self.shared
            .drain_grace_ns
            .store(grace.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Flush outstanding traffic (bounded by a short grace period) and
    /// join the reactor. Called by `Drop`; explicit form for callers
    /// that want the error.
    pub fn shutdown(mut self) -> Option<String> {
        self.stop_and_join();
        self.error()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A rank's connection to the TCP fabric: intra-node sends go straight
/// to the destination mailbox, inter-node sends are framed into the
/// node-pair stream's outbox for the reactor to flush.
pub struct TcpRankTransport {
    rank: usize,
    node: usize,
    peers: Vec<MailSender>,
    mailbox: Mailbox,
    shared: Arc<FabricShared>,
    next_msg_id: u64,
    /// Reusable outbound frame buffer: one allocation serves every send.
    send_buf: Vec<u8>,
}

impl TcpRankTransport {
    /// The rank this transport serves.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This rank's simulated node id.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }
}

impl Transport for TcpRankTransport {
    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        self.shared.check()?;
        let dst_node = msg.dst / self.shared.node_size;
        if dst_node == self.node {
            // Intra-node fast path: no serialization, no syscalls.
            let _ = self.peers[msg.dst].send(msg);
            return Ok(());
        }
        let outbox_idx = self.shared.outbox_for(self.node, dst_node);
        if self.shared.pair_dead[outbox_idx / 2].load(Ordering::Relaxed) {
            // Evicted pair: blackhole. The failure detector already
            // carries the node-level verdict; senders must not wedge.
            return Ok(());
        }
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let count = if msg.payload.is_empty() {
            1
        } else {
            msg.payload.len().div_ceil(FRAG_PAYLOAD)
        } as u32;
        let mut shed: u64 = 0;
        let mut appended = false;
        let mut outbox = self.shared.outboxes[outbox_idx]
            .lock()
            .expect("outbox lock");
        for idx in 0..count {
            let chunk = if msg.payload.is_empty() {
                &[][..]
            } else {
                let at = idx as usize * FRAG_PAYLOAD;
                &msg.payload[at..msg.payload.len().min(at + FRAG_PAYLOAD)]
            };
            let mut frame = std::mem::take(&mut self.send_buf);
            encode_frame_into(
                &mut frame,
                msg.src,
                msg.tag,
                msg_id,
                idx,
                count,
                msg.arrival,
                msg.seq,
                msg.ack,
                msg.checksum,
                chunk,
            );
            let record = STREAM_PREFIX + frame.len();
            if outbox.len() + record > self.shared.outbox_cap {
                // Backpressure: past the cap the frame is shed, which
                // the ARQ layer above sees as loss and re-drives. A
                // reconnecting (or dead-and-undetected) peer therefore
                // bounds memory instead of growing the outbox forever.
                shed += record as u64;
            } else {
                outbox.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                outbox.extend_from_slice(&(msg.dst as u32).to_le_bytes());
                outbox.extend_from_slice(&frame);
                appended = true;
            }
            self.send_buf = frame;
        }
        drop(outbox);
        if appended {
            self.shared.dirty[outbox_idx].store(true, Ordering::Release);
        }
        if shed > 0 {
            self.shared
                .stats
                .outbox_shed_bytes
                .fetch_add(shed, Ordering::Relaxed);
        }
        Ok(())
    }

    fn recv_match(
        &mut self,
        from: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Message, NetError> {
        self.mailbox.recv_match(from, tag, timeout)
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<Option<Message>, NetError> {
        Ok(self.mailbox.recv_any(timeout))
    }

    fn wait_any(&mut self, timeout: Duration) -> Result<(), NetError> {
        self.mailbox.wait_any(timeout);
        Ok(())
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn purge(&mut self) -> usize {
        self.mailbox.purge()
    }
}

/// What a [`TcpScaleCluster`] run produces.
#[derive(Debug)]
pub struct ScaleOutput {
    /// Per-rank output buffers, indexed by rank.
    pub results: Vec<Vec<u8>>,
    /// Folded communication metrics (per-rank counters + wire stats).
    pub metrics: RunMetrics,
    /// Worker threads the executor used.
    pub workers: usize,
    /// Total OS threads the run held (workers + reactor) — the scaling
    /// claim: `O(workers)`, not `O(n)`.
    pub threads: usize,
    /// Communication rounds each rank executed.
    pub rounds: usize,
}

/// What [`TcpScaleCluster::run_resilient`] produces: the successful
/// attempt's output plus the membership history that got there —
/// the scale-path mirror of
/// [`ResilientOutput`](crate::cluster::ResilientOutput).
#[derive(Debug)]
pub struct ScaleResilientOutput {
    /// Output of the successful attempt; `results[i]` belongs to
    /// original rank `survivors[i]` and is dense over the survivors.
    pub output: ScaleOutput,
    /// Original ranks that participated in the successful attempt,
    /// ascending.
    pub survivors: Vec<usize>,
    /// Attempts used, including the successful one.
    pub attempts: usize,
    /// Ranks that were evicted and later readmitted.
    pub rejoined: Vec<usize>,
    /// Membership view the successful attempt ran under.
    pub view_id: u64,
}

/// Per-rank execution state owned by exactly one worker.
struct RankCtx {
    rank: usize,
    program: RankProgram,
    transport: Box<dyn Transport>,
    work: Vec<u8>,
    scratch: Vec<u8>,
    metrics: RankMetrics,
}

/// Cross-worker coordination for one scale run.
struct ScaleShared {
    abort: AtomicBool,
    error: Mutex<Option<NetError>>,
    finished: AtomicUsize,
}

impl ScaleShared {
    fn fail(&self, e: NetError) {
        let mut slot = self.error.lock().expect("scale error lock");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.abort.store(true, Ordering::SeqCst);
    }
}

/// What one scale attempt produced: the run result, the dense ranks
/// the failure detector declared dead (the resilient driver's eviction
/// input), and the fabric's lifecycle counters — available even when
/// the attempt failed, so resilient runs fold healing work from every
/// attempt.
struct Attempt {
    result: Result<ScaleOutput, NetError>,
    failed: Vec<usize>,
    stats: FabricStats,
}

impl Attempt {
    /// An attempt that died before the fabric existed.
    fn abort(e: NetError) -> Self {
        Self {
            result: Err(e),
            failed: Vec::new(),
            stats: FabricStats::default(),
        }
    }
}

/// The event-driven executor: interprets lowered [`RankProgram`]s over
/// the TCP fabric with a bounded worker pool instead of a thread per
/// rank.
#[derive(Debug)]
pub struct TcpScaleCluster;

impl TcpScaleCluster {
    /// Run the index plan as an all-to-all over `cfg.n` ranks grouped
    /// by [`ClusterConfig::node_size`], with `inputs[rank]` the `n·b`
    /// send buffer of each rank. Honors `cfg.ports` (lowering width),
    /// `cfg.timeout` (per-round patience), `cfg.deadline` (whole-run
    /// budget), `cfg.reliability` (ARQ + watchdog; the window is
    /// clamped up to the round count so the lockstep executor can never
    /// wedge on its own backpressure), and `cfg.faults` (wire fault
    /// injection).
    ///
    /// # Errors
    ///
    /// [`NetError::App`] on shape mismatches or unlowerable plans;
    /// transport, timeout, deadline, and failure-detector verdicts
    /// propagate.
    pub fn run(
        cfg: &ClusterConfig,
        plan: &IndexPlan,
        block: usize,
        inputs: &[Vec<u8>],
    ) -> Result<ScaleOutput, NetError> {
        Self::run_with_workers(cfg, plan, block, inputs, None)
    }

    /// [`run`](Self::run) with an explicit worker count (defaults to
    /// the host's available parallelism, capped at 8).
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Propagates worker-thread panics.
    pub fn run_with_workers(
        cfg: &ClusterConfig,
        plan: &IndexPlan,
        block: usize,
        inputs: &[Vec<u8>],
        workers: Option<usize>,
    ) -> Result<ScaleOutput, NetError> {
        Self::run_attempt(cfg, plan, block, inputs, workers).result
    }

    /// One full execution over a fresh fabric. Besides the run result,
    /// returns the dense ranks the failure detector declared dead —
    /// the resilient driver's eviction input. When any rank died, the
    /// verdict is always [`NetError::RanksFailed`] over that set, so
    /// every caller (and every seed of a chaos soak) sees the same
    /// cluster-consistent failure, never a rank-local `Timeout`.
    fn run_attempt(
        cfg: &ClusterConfig,
        plan: &IndexPlan,
        block: usize,
        inputs: &[Vec<u8>],
        workers: Option<usize>,
    ) -> Attempt {
        let n = cfg.n;
        if inputs.len() != n {
            return Attempt::abort(NetError::App(format!(
                "{} input buffers for {n} ranks",
                inputs.len()
            )));
        }
        for (rank, input) in inputs.iter().enumerate() {
            if input.len() != n * block {
                return Attempt::abort(NetError::App(format!(
                    "rank {rank}: input is {} bytes, want n·b = {}",
                    input.len(),
                    n * block
                )));
            }
        }
        if n == 1 {
            return Attempt {
                result: Ok(ScaleOutput {
                    results: vec![inputs[0].clone()],
                    metrics: RunMetrics {
                        per_rank: vec![RankMetrics::default()],
                        ..RunMetrics::default()
                    },
                    workers: 0,
                    threads: 0,
                    rounds: 0,
                }),
                failed: Vec::new(),
                stats: FabricStats::default(),
            };
        }

        let programs: Result<Vec<RankProgram>, NetError> = (0..n)
            .map(|rank| RankProgram::lower(plan, n, rank, block, cfg.ports).map_err(NetError::App))
            .collect();
        let programs = match programs {
            Ok(p) => p,
            Err(e) => return Attempt::abort(e),
        };
        // The lowering is SPMD: every rank must agree on the op
        // schedule's shape, or the lockstep interpretation is undefined.
        let ops_len = programs[0].ops.len();
        for p in &programs[1..] {
            let aligned = p.ops.len() == ops_len
                && p.ops.iter().zip(&programs[0].ops).all(|(a, b)| {
                    matches!(
                        (a, b),
                        (ProgramOp::Permute(_), ProgramOp::Permute(_))
                            | (ProgramOp::Round(_), ProgramOp::Round(_))
                    )
                });
            if !aligned {
                return Attempt::abort(NetError::App(format!(
                    "plan {} lowered to misaligned per-rank programs",
                    plan.label()
                )));
            }
        }
        let rounds = programs[0].rounds();

        let node_size = cfg.node_size.unwrap_or(n);
        let detector = Arc::new(FailureDetector::new(n));
        let round_clock = Arc::new(RoundClock::new(n));
        // Healing needs an ARQ layer to re-drive the bytes a teardown
        // discards; injected socket faults need healing to be
        // observable at all, so either turns it on.
        let fab_cfg = FabricConfig {
            heal: cfg
                .healing
                .unwrap_or(cfg.reliability.is_some() || cfg.faults.has_socket_faults()),
            drain_grace: cfg
                .reliability
                .map_or(DEFAULT_DRAIN_GRACE, |rel| rel.wire.drain_grace),
            faults: Arc::clone(&cfg.faults),
            round_clock: Some(Arc::clone(&round_clock)),
            detector: Some(Arc::clone(&detector)),
            ..FabricConfig::default()
        };
        let (fabric, raw_transports) = match TcpFabric::with_config(n, node_size, fab_cfg) {
            Ok(pair) => pair,
            Err(e) => return Attempt::abort(e),
        };
        let fab_shared = Arc::clone(&fabric.shared);
        let wire_layer = cfg.faults.needs_wire_layer();
        let shared_expiry = cfg.deadline.map(|budget| (Instant::now() + budget, budget));
        let transports: Vec<Box<dyn Transport>> = raw_transports
            .into_iter()
            .enumerate()
            .map(|(rank, t)| {
                let mut t: Box<dyn Transport> = Box::new(t);
                if wire_layer {
                    t = Box::new(FaultyTransport::new(
                        t,
                        Arc::clone(&cfg.faults),
                        Arc::clone(&round_clock),
                    ));
                }
                if let Some(rel) = cfg.reliability {
                    let mut rel = rel;
                    // The executor posts at most one frame per (src,
                    // dst) link per round and pumps acks while it waits,
                    // but a window smaller than the lag between workers
                    // could fill and block a send against a receiver the
                    // same worker owns — a self-deadlock. One frame per
                    // round bounds in-flight by the round count, so this
                    // clamp makes backpressure unreachable without
                    // changing the protocol.
                    rel.wire = rel.wire.with_window(rel.wire.window.max(rounds + 2));
                    let deadline = Deadline::new();
                    if let Some((at, budget)) = shared_expiry {
                        deadline.arm_at(at, budget);
                    }
                    t = Box::new(
                        ReliableTransport::new(t, rank, n, rel, Arc::clone(&detector))
                            .with_deadline(deadline),
                    );
                }
                t
            })
            .collect();

        let mut ctxs: Vec<RankCtx> = programs
            .into_iter()
            .zip(transports)
            .enumerate()
            .map(|(rank, (program, transport))| RankCtx {
                rank,
                program,
                transport,
                work: inputs[rank].clone(),
                scratch: vec![0u8; n * block],
                metrics: RankMetrics::default(),
            })
            .collect();

        let want = workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map_or(1, |p| p.get())
                    .min(8)
            })
            .clamp(1, n);
        let per = n.div_ceil(want);
        let mut chunks: Vec<Vec<RankCtx>> = Vec::new();
        while !ctxs.is_empty() {
            let rest = ctxs.split_off(per.min(ctxs.len()));
            chunks.push(std::mem::replace(&mut ctxs, rest));
        }
        let w = chunks.len();

        let shared = ScaleShared {
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
            finished: AtomicUsize::new(0),
        };
        let shared_ref = &shared;
        let round_clock_ref = &round_clock;
        let collected: Vec<ChunkOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        run_chunk(
                            chunk,
                            block,
                            cfg.timeout,
                            shared_expiry,
                            wire_layer,
                            shared_ref,
                            w,
                            round_clock_ref,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scale worker panicked"))
                .collect()
        });

        // Scale the shutdown drain grace with the adaptive-RTO linger
        // hint, exactly as the thread-per-rank linger does: the
        // configured grace is the ceiling, a confident (small) RTO
        // shrinks it.
        let linger = collected.iter().filter_map(|(_, hint)| *hint).max();
        if let Some(hint) = linger {
            fabric.set_drain_grace(hint.min(fab_shared.drain_grace()));
        }
        let reactor_threads = fabric.threads();
        if let Some(wire) = fabric.shutdown() {
            if let Ok(mut slot) = shared.error.lock() {
                if slot.is_none() {
                    *slot = Some(NetError::App(format!("tcp fabric: {wire}")));
                }
            }
        }
        let fabric_stats = fab_shared.stats.snapshot();
        let failed = detector.snapshot();
        if !failed.is_empty() {
            // Cluster-consistent verdict: any detector death (ARQ retry
            // exhaustion or fabric-level eviction) outranks whichever
            // rank-local error happened to land first.
            return Attempt {
                result: Err(NetError::RanksFailed {
                    ranks: failed.clone(),
                }),
                failed,
                stats: fabric_stats,
            };
        }
        if let Some(e) = shared.error.into_inner().expect("scale error lock") {
            return Attempt {
                result: Err(e),
                failed,
                stats: fabric_stats,
            };
        }

        let mut results = vec![Vec::new(); n];
        let mut per_rank = vec![RankMetrics::default(); n];
        for (rank, out, metrics) in collected.into_iter().flat_map(|(ranks, _)| ranks) {
            results[rank] = out;
            per_rank[rank] = metrics;
        }
        Attempt {
            result: Ok(ScaleOutput {
                results,
                metrics: RunMetrics {
                    per_rank,
                    fabric: fabric_stats,
                    ..RunMetrics::default()
                },
                workers: w,
                threads: w + reactor_threads,
                rounds,
            }),
            failed: Vec::new(),
            stats: fabric_stats,
        }
    }

    /// [`run`](Self::run) with the full PR 7 recovery lifecycle:
    /// membership views, node-level eviction, flap-damped quarantine,
    /// and [`RecoveryPolicy`] steering — over the TCP fabric.
    ///
    /// A failed attempt evicts *whole nodes*: the failure domain of
    /// the shared data plane is the node-pair stream, so every rank of
    /// a node whose ranks died leaves together. That keeps the
    /// survivor count divisible by the node size, so hierarchical
    /// plans re-lower onto the survivor set unchanged; when the
    /// divisibility is ever lost the plan falls back to a single-level
    /// Bruck radix.
    ///
    /// `inputs[rank]` stays indexed by *original* rank; each retry
    /// slices the dense survivor sub-matrix out of it. On success,
    /// `output.results[i]` is survivor `survivors[i]`'s dense result.
    ///
    /// # Errors
    ///
    /// Non-rank failures (timeouts, protocol errors) propagate
    /// immediately; rank failures propagate when attempts are
    /// exhausted, no survivors remain, or
    /// [`RecoveryPolicy::FailFast`] trips its quorum.
    pub fn run_resilient(
        cfg: &ClusterConfig,
        plan: &IndexPlan,
        block: usize,
        inputs: &[Vec<u8>],
        max_attempts: usize,
    ) -> Result<ScaleResilientOutput, NetError> {
        Self::run_resilient_with_workers(cfg, plan, block, inputs, max_attempts, None)
    }

    /// [`run_resilient`](Self::run_resilient) with an explicit worker
    /// count.
    ///
    /// # Errors
    ///
    /// See [`run_resilient`](Self::run_resilient).
    pub fn run_resilient_with_workers(
        cfg: &ClusterConfig,
        plan: &IndexPlan,
        block: usize,
        inputs: &[Vec<u8>],
        max_attempts: usize,
        workers: Option<usize>,
    ) -> Result<ScaleResilientOutput, NetError> {
        let n0 = cfg.n;
        if max_attempts == 0 {
            return Err(NetError::App("max_attempts must be at least 1".into()));
        }
        if inputs.len() != n0 {
            return Err(NetError::App(format!(
                "{} input buffers for {n0} ranks",
                inputs.len()
            )));
        }
        for (rank, input) in inputs.iter().enumerate() {
            if input.len() != n0 * block {
                return Err(NetError::App(format!(
                    "rank {rank}: input is {} bytes, want n·b = {}",
                    input.len(),
                    n0 * block
                )));
            }
        }
        let node_size0 = cfg.node_size.unwrap_or(n0);
        let membership = Membership::new(n0).with_base_quarantine(cfg.quarantine);
        let mut fabric_acc = FabricStats::default();
        for attempt in 0..max_attempts {
            let members = membership.members();
            if members.is_empty() {
                return Err(NetError::RanksFailed {
                    ranks: membership.evicted_ranks(),
                });
            }
            let n = members.len();
            let node_size = fit_node_size(n, node_size0);
            let plan_fit = fit_plan(plan, n, node_size);
            let mut acfg = cfg.clone();
            acfg.n = n;
            acfg.node_size = Some(node_size);
            let base = if attempt == 0 {
                (*cfg.faults).clone()
            } else {
                cfg.faults.survivor_plan()
            };
            acfg.faults = Arc::new(base.bind_recurring(&members));
            // Dense survivor inputs: row r of the original all-to-all
            // matrix, restricted to survivor columns.
            let dense_inputs: Vec<Vec<u8>> = members
                .iter()
                .map(|&r| {
                    let mut buf = Vec::with_capacity(n * block);
                    for &c in &members {
                        buf.extend_from_slice(&inputs[r][c * block..(c + 1) * block]);
                    }
                    buf
                })
                .collect();
            let attempt_out = Self::run_attempt(&acfg, &plan_fit, block, &dense_inputs, workers);
            let failed = attempt_out.failed;
            fabric_acc = fabric_acc.merged(&attempt_out.stats);
            match attempt_out.result {
                Ok(mut out) => {
                    out.metrics.fabric = fabric_acc;
                    out.metrics.membership = membership.stats();
                    return Ok(ScaleResilientOutput {
                        output: out,
                        survivors: members,
                        attempts: attempt + 1,
                        rejoined: membership.rejoined_ranks(),
                        view_id: membership.view_id(),
                    });
                }
                Err(cause) => {
                    if !cause.is_rank_failure() || attempt + 1 == max_attempts || failed.is_empty()
                    {
                        return Err(cause);
                    }
                    // Whole-node eviction: expand every failed dense
                    // rank to its full (attempt-local) node, then map
                    // back to original ranks.
                    let mut evicted = BTreeSet::new();
                    for &dense in &failed {
                        if dense >= n {
                            continue;
                        }
                        let node = dense / node_size;
                        evicted.extend(&members[node * node_size..(node + 1) * node_size]);
                    }
                    for &orig in &evicted {
                        membership.evict(orig);
                    }
                    match cfg.recovery {
                        RecoveryPolicy::ShrinkOnly => {}
                        RecoveryPolicy::FailFast { min_quorum } => {
                            if membership.members().len() < min_quorum {
                                return Err(NetError::RanksFailed {
                                    ranks: membership.evicted_ranks(),
                                });
                            }
                        }
                        RecoveryPolicy::WaitForRejoin { budget } => {
                            let _ = membership.wait_for_rejoin(budget);
                        }
                    }
                }
            }
        }
        unreachable!("loop returns on the last attempt")
    }
}

/// The node size a survivor cluster of `n` ranks actually supports:
/// `want` when it still divides `n` (whole-node eviction keeps it so),
/// else the largest divisor of `n` not exceeding `want`.
fn fit_node_size(n: usize, want: usize) -> usize {
    let want = want.clamp(1, n.max(1));
    if n.is_multiple_of(want) {
        return want;
    }
    (1..=want).rev().find(|&d| n.is_multiple_of(d)).unwrap_or(1)
}

/// Re-fit a plan to a survivor cluster: hierarchical plans survive as
/// long as their node size still tiles the cluster with at least two
/// nodes; otherwise fall back to a single-level Bruck radix built from
/// the plan's remote radix.
fn fit_plan(plan: &IndexPlan, n: usize, node_size: usize) -> IndexPlan {
    match plan {
        IndexPlan::Hierarchical {
            node_size: m,
            radix_remote,
            ..
        } => {
            let still_fits = *m == node_size && n.is_multiple_of(*m) && n / *m >= 2;
            if still_fits {
                plan.clone()
            } else {
                IndexPlan::Radix((*radix_remote).max(2))
            }
        }
        other => other.clone(),
    }
}

/// A chunk's yield: each rank's `(rank, output bytes, metrics)` plus
/// the largest reliability-layer linger hint observed across the
/// slice, which caps the fabric's shutdown drain grace.
type ChunkOutput = (Vec<(usize, Vec<u8>, RankMetrics)>, Option<Duration>);

/// One worker's lockstep interpretation of its rank slice. Ranks whose
/// round receives are complete keep pumping their protocol (acks,
/// retransmissions, probes) until the whole slice finishes the round,
/// so a straggling peer is never starved of the frames it needs.
#[allow(clippy::too_many_arguments)] // internal; mirrors the run state
fn run_chunk(
    mut ctxs: Vec<RankCtx>,
    block: usize,
    timeout: Duration,
    expiry: Option<(Instant, Duration)>,
    checksums: bool,
    shared: &ScaleShared,
    workers: usize,
    round_clock: &RoundClock,
) -> ChunkOutput {
    let ops_len = ctxs.first().map_or(0, |c| c.program.ops.len());
    let n = ctxs.first().map_or(0, |c| c.program.n);
    'ops: for op_idx in 0..ops_len {
        if shared.abort.load(Ordering::SeqCst) {
            break;
        }
        let is_permute = matches!(ctxs[0].program.ops[op_idx], ProgramOp::Permute(_));
        if is_permute {
            for ctx in &mut ctxs {
                let RankCtx {
                    program,
                    work,
                    scratch,
                    metrics,
                    ..
                } = ctx;
                let ProgramOp::Permute(perm) = &program.ops[op_idx] else {
                    unreachable!("op shape validated before spawn");
                };
                for (i, &src) in perm.iter().enumerate() {
                    scratch[i * block..(i + 1) * block]
                        .copy_from_slice(&work[src * block..(src + 1) * block]);
                }
                std::mem::swap(work, scratch);
                metrics.bytes_copied += (n * block) as u64;
            }
            continue;
        }
        // Round: post every rank's sends, then complete receives by
        // readiness — polling, never blocking, so every endpoint state
        // machine this worker owns keeps making progress.
        let mut sent_sizes: Vec<Vec<u64>> = Vec::with_capacity(ctxs.len());
        for ctx in &mut ctxs {
            let t0 = Instant::now();
            let RankCtx {
                rank,
                program,
                transport,
                work,
                metrics,
                ..
            } = ctx;
            let ProgramOp::Round(round) = &program.ops[op_idx] else {
                unreachable!("op shape validated before spawn");
            };
            let mut sizes = Vec::with_capacity(round.sends.len());
            for s in &round.sends {
                let mut payload = Vec::with_capacity(s.slots.len() * block);
                for &slot in &s.slots {
                    payload.extend_from_slice(&work[slot * block..(slot + 1) * block]);
                }
                sizes.push(payload.len() as u64);
                let msg = Message {
                    src: *rank,
                    dst: s.peer,
                    tag: s.tag,
                    checksum: checksums.then(|| payload_checksum(&payload)),
                    payload,
                    arrival: 0.0,
                    seq: 0,
                    ack: 0,
                };
                if let Err(e) = transport.send(msg) {
                    shared.fail(e);
                    break 'ops;
                }
            }
            metrics.wall_send_ns += t0.elapsed().as_nanos() as u64;
            sent_sizes.push(sizes);
        }
        let recv_started = Instant::now();
        let op_deadline = recv_started + timeout;
        let mut pending: Vec<Vec<usize>> = ctxs
            .iter()
            .map(|ctx| {
                let ProgramOp::Round(round) = &ctx.program.ops[op_idx] else {
                    unreachable!("op shape validated before spawn");
                };
                (0..round.recvs.len()).collect()
            })
            .collect();
        let mut left: usize = pending.iter().map(Vec::len).sum();
        let mut idle: u32 = 0;
        while left > 0 {
            if shared.abort.load(Ordering::SeqCst) {
                break 'ops;
            }
            let mut progressed = false;
            for (ci, ctx) in ctxs.iter_mut().enumerate() {
                let RankCtx {
                    program,
                    transport,
                    work,
                    metrics,
                    ..
                } = ctx;
                let ProgramOp::Round(round) = &program.ops[op_idx] else {
                    unreachable!("op shape validated before spawn");
                };
                if pending[ci].is_empty() {
                    // Done rank: one zero-timeout pump keeps acks,
                    // retransmissions, and probe replies flowing.
                    if let Err(e) = transport.wait_any(Duration::ZERO) {
                        shared.fail(e);
                        break 'ops;
                    }
                    continue;
                }
                let mut i = 0;
                while i < pending[ci].len() {
                    let r = &round.recvs[pending[ci][i]];
                    match transport.try_match(r.peer, r.tag) {
                        Ok(Some(msg)) => {
                            if msg.payload.len() != r.slots.len() * block {
                                shared.fail(NetError::App(format!(
                                    "rank {} tag {}: {} payload bytes for {} slots",
                                    program.rank,
                                    r.tag,
                                    msg.payload.len(),
                                    r.slots.len()
                                )));
                                break 'ops;
                            }
                            for (j, &slot) in r.slots.iter().enumerate() {
                                work[slot * block..(slot + 1) * block]
                                    .copy_from_slice(&msg.payload[j * block..(j + 1) * block]);
                            }
                            metrics.bytes_copied += msg.payload.len() as u64;
                            pending[ci].swap_remove(i);
                            left -= 1;
                            progressed = true;
                        }
                        Ok(None) => i += 1,
                        Err(e) => {
                            shared.fail(e);
                            break 'ops;
                        }
                    }
                }
            }
            if left == 0 {
                break;
            }
            if progressed {
                idle = 0;
                continue;
            }
            idle = idle.saturating_add(1);
            let now = Instant::now();
            if let Some((at, budget)) = expiry {
                if now >= at {
                    let rank = first_pending_rank(&ctxs, &pending);
                    shared.fail(NetError::DeadlineExceeded { rank, budget });
                    break 'ops;
                }
            }
            if now >= op_deadline {
                let (ci, ri) = pending
                    .iter()
                    .enumerate()
                    .find_map(|(ci, p)| p.first().map(|&ri| (ci, ri)))
                    .expect("left > 0 implies a pending receive");
                let ProgramOp::Round(round) = &ctxs[ci].program.ops[op_idx] else {
                    unreachable!("op shape validated before spawn");
                };
                shared.fail(NetError::Timeout {
                    rank: ctxs[ci].rank,
                    from: round.recvs[ri].peer,
                    tag: round.recvs[ri].tag,
                    waited: timeout,
                });
                break 'ops;
            }
            // Nothing arrived for anyone: let the reactor (and on a
            // shared core, the other workers) run.
            if idle < 16 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let recv_wall = recv_started.elapsed().as_nanos() as u64;
        for (ci, ctx) in ctxs.iter_mut().enumerate() {
            let ProgramOp::Round(round) = &ctx.program.ops[op_idx] else {
                unreachable!("op shape validated before spawn");
            };
            ctx.metrics.wall_recv_ns += recv_wall;
            ctx.metrics.record_round(&sent_sizes[ci], round.recvs.len());
            round_clock.advance(ctx.rank);
        }
    }

    if !shared.abort.load(Ordering::SeqCst) {
        // Ack drain: interleave short flushes so ranks in this slice
        // answer each other's unacked tails, then linger pumping until
        // every worker is done (a peer elsewhere may still need acks).
        for _ in 0..4 {
            for ctx in &mut ctxs {
                let _ = ctx
                    .transport
                    .flush(Instant::now() + Duration::from_millis(2));
            }
        }
        shared.finished.fetch_add(1, Ordering::SeqCst);
        let linger_deadline = Instant::now() + timeout.min(Duration::from_secs(1));
        while shared.finished.load(Ordering::SeqCst) < workers
            && !shared.abort.load(Ordering::SeqCst)
            && Instant::now() < linger_deadline
        {
            for ctx in &mut ctxs {
                let _ = ctx.transport.wait_any(Duration::ZERO);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    // The largest linger hint among this chunk's endpoints caps how
    // long the fabric's shutdown drain needs to be.
    let linger = ctxs.iter().filter_map(|c| c.transport.linger_hint()).max();
    let ranks = ctxs
        .into_iter()
        .map(|mut ctx| {
            ctx.metrics.link = ctx.transport.link_stats();
            (ctx.rank, ctx.work, ctx.metrics)
        })
        .collect();
    (ranks, linger)
}

/// The lowest rank in this chunk that still has an unmatched receive.
fn first_pending_rank(ctxs: &[RankCtx], pending: &[Vec<usize>]) -> usize {
    pending
        .iter()
        .position(|p| !p.is_empty())
        .map_or(0, |ci| ctxs[ci].rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical per-rank all-to-all input: block `j` of rank `i`
    /// is a deterministic function of `(i, j)`.
    fn index_input(rank: usize, n: usize, block: usize) -> Vec<u8> {
        (0..n * block)
            .map(|at| {
                let (j, i) = (at / block, at % block);
                (rank.wrapping_mul(31) ^ j.wrapping_mul(7) ^ i) as u8
            })
            .collect()
    }

    /// After the index operation rank `r` holds block `B[j, r]` at slot
    /// `j` for every `j`.
    fn index_expected(rank: usize, n: usize, block: usize) -> Vec<u8> {
        (0..n * block)
            .map(|at| {
                let (j, i) = (at / block, at % block);
                (j.wrapping_mul(31) ^ rank.wrapping_mul(7) ^ i) as u8
            })
            .collect()
    }

    #[test]
    fn pair_index_is_a_dense_enumeration() {
        let nodes = 5;
        let mut seen = vec![false; nodes * (nodes - 1) / 2];
        for a in 0..nodes {
            for b in (a + 1)..nodes {
                let p = pair_index(nodes, a, b);
                assert!(!seen[p], "pair ({a},{b}) collided at {p}");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fabric_routes_intra_and_inter_node() {
        let (fabric, mut ts) = TcpFabric::new(4, 2).unwrap();
        let msg = |src: usize, dst: usize, tag: Tag, payload: Vec<u8>| Message {
            src,
            dst,
            tag,
            payload,
            arrival: 0.0,
            seq: 0,
            ack: 0,
            checksum: None,
        };
        // Intra-node (0 → 1): channel path.
        ts[0].send(msg(0, 1, 7, vec![1, 2, 3])).unwrap();
        let m = ts[1].recv_match(0, 7, Duration::from_secs(2)).unwrap();
        assert_eq!(m.payload, vec![1, 2, 3]);
        // Inter-node (0 → 2 and 3 → 1): both stream directions.
        ts[0].send(msg(0, 2, 9, vec![4; 10])).unwrap();
        ts[3].send(msg(3, 1, 11, vec![5; 10])).unwrap();
        let m = ts[2].recv_match(0, 9, Duration::from_secs(2)).unwrap();
        assert_eq!(m.payload, vec![4; 10]);
        let m = ts[1].recv_match(3, 11, Duration::from_secs(2)).unwrap();
        assert_eq!(m.payload, vec![5; 10]);
        drop(ts);
        assert_eq!(fabric.shutdown(), None);
    }

    #[test]
    fn fabric_fragments_and_reassembles_large_inter_node_messages() {
        let (fabric, mut ts) = TcpFabric::new(2, 1).unwrap();
        let bytes = 3 * FRAG_PAYLOAD + 123;
        let payload: Vec<u8> = (0..bytes).map(|i| (i * 13) as u8).collect();
        ts[0]
            .send(Message {
                src: 0,
                dst: 1,
                tag: 5,
                payload: payload.clone(),
                arrival: 0.25,
                seq: 3,
                ack: 1,
                checksum: None,
            })
            .unwrap();
        let m = ts[1].recv_match(0, 5, Duration::from_secs(5)).unwrap();
        assert_eq!(m.payload, payload);
        assert_eq!((m.arrival, m.seq, m.ack), (0.25, 3, 1));
        drop(ts);
        assert_eq!(fabric.shutdown(), None);
    }

    #[test]
    fn oversized_frame_length_tears_the_fabric_down() {
        let (fabric, ts) = TcpFabric::new(2, 1).unwrap();
        // Stage a record whose prefix claims a u32::MAX-byte frame on
        // the lower node's outbox: the reading end must fail the fabric
        // instead of buffering while it waits for the rest.
        let mut record = u32::MAX.to_le_bytes().to_vec();
        record.extend_from_slice(&1u32.to_le_bytes());
        record.extend_from_slice(&[0u8; 64]);
        fabric.shared.outboxes[0]
            .lock()
            .unwrap()
            .extend_from_slice(&record);
        fabric.shared.dirty[0].store(true, Ordering::Release);
        let t0 = Instant::now();
        while fabric.shared.error.lock().unwrap().is_none() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "corrupt prefix did not tear the link down"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(ts);
        let err = fabric.shutdown().expect("fabric reports the violation");
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn fabric_rejects_non_dividing_node_size() {
        assert!(TcpFabric::new(6, 4).is_err());
    }

    #[test]
    fn scale_cluster_matches_the_oracle_across_plans() {
        let block = 3;
        let n = 16;
        let cfg = ClusterConfig::new(n)
            .with_node_size(4)
            .with_reliability(crate::reliable::Reliability::default())
            .with_timeout(Duration::from_secs(20));
        let inputs: Vec<Vec<u8>> = (0..n).map(|r| index_input(r, n, block)).collect();
        for plan in [
            IndexPlan::Radix(2),
            IndexPlan::Radix(4),
            IndexPlan::Direct,
            IndexPlan::Hierarchical {
                node_size: 4,
                radix_local: 2,
                radix_remote: 2,
            },
        ] {
            let out = TcpScaleCluster::run_with_workers(&cfg, &plan, block, &inputs, Some(3))
                .unwrap_or_else(|e| panic!("{}: {e}", plan.label()));
            for (rank, got) in out.results.iter().enumerate() {
                assert_eq!(
                    got,
                    &index_expected(rank, n, block),
                    "{} rank {rank}",
                    plan.label()
                );
            }
            assert_eq!(out.workers, 3);
            assert!(out.threads <= 4, "O(workers) threads, got {}", out.threads);
            assert_eq!(out.metrics.per_rank.len(), n);
            assert!(out.rounds > 0);
            assert_eq!(
                out.metrics.global_complexity().map(|c| c.c1),
                Some(out.rounds as u64),
                "{}: per-rank round accounting must agree",
                plan.label()
            );
        }
    }

    #[test]
    fn scale_cluster_without_reliability_is_still_bit_correct() {
        let block = 2;
        let n = 12;
        let cfg = ClusterConfig::new(n).with_node_size(3);
        let inputs: Vec<Vec<u8>> = (0..n).map(|r| index_input(r, n, block)).collect();
        let out = TcpScaleCluster::run(&cfg, &IndexPlan::Radix(3), block, &inputs).unwrap();
        for (rank, got) in out.results.iter().enumerate() {
            assert_eq!(got, &index_expected(rank, n, block), "rank {rank}");
        }
    }

    #[test]
    fn scale_cluster_rejects_shape_mismatches() {
        let cfg = ClusterConfig::new(4);
        let err = TcpScaleCluster::run(&cfg, &IndexPlan::Radix(2), 2, &[vec![0u8; 8]]).unwrap_err();
        assert!(matches!(err, NetError::App(_)), "{err}");
        let bad = vec![vec![0u8; 7]; 4];
        let err = TcpScaleCluster::run(&cfg, &IndexPlan::Radix(2), 2, &bad).unwrap_err();
        assert!(matches!(err, NetError::App(_)), "{err}");
    }

    #[test]
    fn unlowerable_plan_is_a_clean_error() {
        let cfg = ClusterConfig::new(4);
        let inputs = vec![vec![0u8; 8]; 4];
        let err =
            TcpScaleCluster::run(&cfg, &IndexPlan::Mixed(vec![2, 2]), 2, &inputs).unwrap_err();
        assert!(matches!(err, NetError::App(_)), "{err}");
    }

    #[test]
    fn single_rank_short_circuits() {
        let cfg = ClusterConfig::new(1);
        let out = TcpScaleCluster::run(&cfg, &IndexPlan::Direct, 4, &[vec![9u8; 4]]).unwrap();
        assert_eq!(out.results, vec![vec![9u8; 4]]);
        assert_eq!(out.threads, 0);
    }
}
