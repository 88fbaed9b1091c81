//! The three UDS workloads: one thread per rank, Unix datagram sockets,
//! the ARQ reliability layer on top, collectives through the public
//! `alltoall_into` / `allgather_into` API.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bruck_collectives::api::{allgather_into, alltoall_into, Tuning};
use bruck_collectives::primitives::barrier_dissemination;
use bruck_net::socket::UdsTransport;
use bruck_net::{Cluster, ClusterConfig, Comm, Endpoint, NetError, Reliability, Transport};

use crate::layers::Counters;
use crate::stats::Tally;
use crate::trace::{TimedComm, TimedTransport, TransportCounters, TransportSnapshot};
use crate::workload::{input_pair, Inputs, Op, Workload};

/// Socket files live under the checkout, in a directory named by a
/// relative path so socket paths stay short wherever the checkout is.
pub const SOCKET_ROOT: &str = ".perfbench_tmp";

/// Back-to-back stretches in each cluster's goodput window, each
/// started by a barrier, so a transient stall on a shared machine
/// spoils one stretch instead of the whole window.
const STRETCHES: usize = 4;

fn socket_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    Path::new(SOCKET_ROOT).join(format!(
        "uds-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn config(w: &Workload) -> ClusterConfig {
    ClusterConfig::new(w.n)
        .with_ports(w.ports)
        .with_reliability(Reliability::default())
}

fn collective<C: Comm + ?Sized>(
    c: &mut C,
    w: &Workload,
    tuning: &Tuning,
    send: &[u8],
    out: &mut [u8],
) -> Result<(), NetError> {
    match w.op {
        Op::Index => alltoall_into(c, send, w.block, tuning, out),
        Op::Concat => allgather_into(c, send, tuning, out),
    }
}

/// Run `body` on a fresh UDS cluster whose transports are optionally
/// wrapped in [`TimedTransport`]s; the socket directory is removed
/// afterwards.
fn run_cluster<T, F>(
    w: &Workload,
    counters: Option<&[Arc<TransportCounters>]>,
    body: F,
) -> Result<bruck_net::RunOutput<T>, NetError>
where
    T: Send,
    F: Fn(&mut Endpoint) -> Result<T, NetError> + Sync,
{
    let dir = socket_dir();
    std::fs::create_dir_all(&dir)
        .map_err(|e| NetError::App(format!("mkdir {}: {e}", dir.display())))?;
    let transports: Result<Vec<Box<dyn Transport>>, NetError> = (0..w.n)
        .map(|rank| {
            let t = UdsTransport::bind(&dir, rank, w.n)?;
            Ok(match counters {
                Some(c) => {
                    Box::new(TimedTransport::new(t, Arc::clone(&c[rank]))) as Box<dyn Transport>
                }
                None => Box::new(t) as Box<dyn Transport>,
            })
        })
        .collect();
    let out = transports.and_then(|t| Cluster::run_with_transports(&config(w), t, body));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Set-up: from the start of the workload (input generation) to the
/// first collective every rank has verified, on a fresh cluster.
pub fn setup_once(w: &Workload, seed: u64, tally: &mut Tally) -> Result<Duration, NetError> {
    let t0 = Instant::now();
    let inputs = Inputs::generate(w, seed, 0);
    let tuning = Workload::tuning();
    let failed = AtomicU64::new(0);
    tally.attempted += 1;
    let run = run_cluster(w, None, |ep| {
        let rank = ep.rank();
        let mut out = vec![0u8; w.n * w.block];
        collective(ep, w, &tuning, &inputs.send[rank], &mut out)?;
        if out != inputs.expect[rank] {
            failed.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Instant::now())
    });
    match run {
        Ok(out) => {
            if failed.load(Ordering::Relaxed) > 0 {
                tally.failed += 1;
            }
            let done = out.results.into_iter().max().unwrap_or(t0);
            Ok(done - t0)
        }
        Err(e) => {
            tally.failed += 1;
            Err(e)
        }
    }
}

/// One collective as one rank saw it (traced passes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub wall_ns: u64,
    /// Time inside the round layer (`Comm` round calls).
    pub comm_ns: u64,
    pub transport: TransportSnapshot,
    /// A timed lap (not warm-up, not set-up, not the window).
    pub timed: bool,
}

/// What one or more passes measured.
#[derive(Default)]
pub struct Pass {
    /// Straggler wall time of each timed lap, in ns, in time order.
    pub laps: Vec<f64>,
    /// `(collectives, straggler wall ns)` of each back-to-back stretch
    /// of the goodput window.
    pub stretches: Vec<(usize, f64)>,
    /// Traced passes: every collective of every rank, `samples[rank]`.
    pub samples: Vec<Vec<Sample>>,
    /// The program's counters for the collectives alone (lap barriers
    /// taken out).
    pub counters: Counters,
    /// Lap barrier calls per rank, and the barrier time the traced
    /// wrappers saw (taken out of `counters`).
    pub barriers: BarrierShare,
    pub tally: Tally,
}

impl Pass {
    /// Append a later pass (a fresh cluster) to this one.
    pub fn extend(&mut self, later: Pass) {
        self.laps.extend(later.laps);
        self.stretches.extend(later.stretches);
        if self.samples.is_empty() {
            self.samples = later.samples;
        } else {
            for (mine, theirs) in self.samples.iter_mut().zip(later.samples) {
                mine.extend(theirs);
            }
        }
        self.counters.add(&later.counters);
        self.barriers.add(&later.barriers);
        self.tally.add(later.tally);
    }
}

/// What the lap barriers added to the program's own counters, summed
/// over ranks, so that they can be taken out again.
#[derive(Debug, Clone, Copy, Default)]
pub struct BarrierShare {
    /// Barrier calls per rank.
    pub calls: u64,
    /// Rounds per barrier call.
    pub rounds: u64,
    /// Empty messages each rank sends per barrier call.
    pub msgs: u64,
    /// Traced passes: time inside the barrier's round calls, summed
    /// over ranks (ns).
    pub comm_ns: u64,
    /// The part of `comm_ns` spent in transport sends (ns).
    pub send_ns: u64,
}

impl BarrierShare {
    fn add(&mut self, o: &Self) {
        self.calls += o.calls;
        self.rounds = o.rounds;
        self.msgs = o.msgs;
        self.comm_ns += o.comm_ns;
        self.send_ns += o.send_ns;
    }
}

/// Rounds and per-rank messages of one `barrier_dissemination` call:
/// round `i` sends to the offsets `j·(k+1)^i < n`, `j ∈ [1, k]`.
fn barrier_shape(n: usize, k: usize) -> (u64, u64) {
    let (mut base, mut rounds, mut msgs) = (1usize, 0u64, 0u64);
    while base < n {
        msgs += (1..=k).filter(|j| j * base < n).count() as u64;
        rounds += 1;
        base *= k + 1;
    }
    (rounds, msgs)
}

/// State the ranks share: inputs and the lap record, whose slots
/// every rank raises to its own lap time, so each ends as the
/// straggler's.
struct Shared<'a> {
    w: &'a Workload,
    tuning: Tuning,
    inputs: [Inputs; 2],
    counters: Option<Vec<Arc<TransportCounters>>>,
    lap_max: Vec<AtomicU64>,
    stretch_max: Vec<AtomicU64>,
    attempted: AtomicU64,
    bad: Mutex<BTreeSet<u64>>,
}

/// One rank's view of a pass.
struct Rank {
    seq: u64,
    out: Vec<u8>,
    samples: Vec<Sample>,
    barrier_calls: u64,
    barrier_comm_ns: u64,
    barrier_send_ns: u64,
}

impl Shared<'_> {
    fn traced(&self) -> bool {
        self.counters.is_some()
    }

    /// Run and verify one collective; returns its rank-local wall time.
    fn one(&self, ep: &mut Endpoint, me: &mut Rank, timed: bool) -> Result<u64, NetError> {
        let rank = ep.rank();
        let inputs = &self.inputs[(me.seq % 2) as usize];
        if rank == 0 {
            self.attempted.fetch_add(1, Ordering::Relaxed);
        }
        let before = self.counters.as_ref().map(|c| c[rank].snapshot());
        let t0 = Instant::now();
        let comm_ns = if self.traced() {
            let mut timed_comm = TimedComm::new(ep);
            collective(
                &mut timed_comm,
                self.w,
                &self.tuning,
                &inputs.send[rank],
                &mut me.out,
            )?;
            timed_comm.comm_ns
        } else {
            collective(ep, self.w, &self.tuning, &inputs.send[rank], &mut me.out)?;
            0
        };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        if let (Some(before), Some(c)) = (before, &self.counters) {
            me.samples.push(Sample {
                wall_ns,
                comm_ns,
                transport: c[rank].snapshot().since(&before),
                timed,
            });
        }
        if me.out != inputs.expect[rank] {
            self.bad.lock().expect("failure set lock").insert(me.seq);
        }
        me.seq += 1;
        Ok(wall_ns)
    }

    /// One lap barrier; in a traced pass its round time is recorded so
    /// it can be taken out of the program's counters. It runs over the
    /// round layer, so ranks waiting in it keep driving their
    /// reliability layer.
    fn barrier(&self, ep: &mut Endpoint, me: &mut Rank) -> Result<(), NetError> {
        me.barrier_calls += 1;
        let Some(counters) = &self.counters else {
            return barrier_dissemination(ep);
        };
        let before = counters[ep.rank()].snapshot();
        let mut timed_comm = TimedComm::new(ep);
        let out = barrier_dissemination(&mut timed_comm);
        me.barrier_comm_ns += timed_comm.comm_ns;
        me.barrier_send_ns += counters[ep.rank()].snapshot().since(&before).send_ns;
        out
    }

    /// `count` barrier-aligned laps; timed ones go to the lap record.
    fn laps(
        &self,
        ep: &mut Endpoint,
        me: &mut Rank,
        count: usize,
        timed: bool,
    ) -> Result<(), NetError> {
        for i in 0..count {
            self.barrier(ep, me)?;
            let wall = self.one(ep, me, timed)?;
            if timed {
                self.lap_max[i].fetch_max(wall, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// The goodput window: [`STRETCHES`] runs of the workload's stretch
    /// of collectives with no barrier between them.
    fn window(&self, ep: &mut Endpoint, me: &mut Rank) -> Result<(), NetError> {
        for stretch in &self.stretch_max {
            self.barrier(ep, me)?;
            let t0 = Instant::now();
            for _ in 0..self.w.stretch {
                self.one(ep, me, false)?;
            }
            stretch.fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// One pass on a fresh cluster, of a fixed amount of work whatever the
/// program's speed (so its memory use does not depend on the speed
/// either): a first collective, the workload's warm-up laps and timed
/// laps, then, with `window`, the goodput stretches. With `traced`, the
/// `Comm` and `Transport` wrappers time every collective.
pub fn pass(
    w: &Workload,
    seed: u64,
    window: bool,
    traced: bool,
) -> Result<Pass, (NetError, Tally)> {
    let shared = Shared {
        w,
        tuning: Workload::tuning(),
        inputs: input_pair(w, seed),
        counters: traced.then(|| {
            (0..w.n)
                .map(|_| Arc::new(TransportCounters::default()))
                .collect()
        }),
        lap_max: (0..w.laps).map(|_| AtomicU64::new(0)).collect(),
        stretch_max: (0..if window { STRETCHES } else { 0 })
            .map(|_| AtomicU64::new(0))
            .collect(),
        attempted: AtomicU64::new(0),
        bad: Mutex::new(BTreeSet::new()),
    };
    let run = run_cluster(w, shared.counters.as_deref(), |ep| {
        let mut me = Rank {
            seq: 0,
            out: vec![0u8; w.n * w.block],
            samples: Vec::new(),
            barrier_calls: 0,
            barrier_comm_ns: 0,
            barrier_send_ns: 0,
        };
        shared.one(ep, &mut me, false)?;
        shared.laps(ep, &mut me, w.warm, false)?;
        shared.laps(ep, &mut me, w.laps, true)?;
        shared.window(ep, &mut me)?;
        Ok(me)
    });
    let bad = shared.bad.lock().expect("failure set lock").len() as u64;
    let mut tally = Tally {
        attempted: shared.attempted.load(Ordering::Relaxed),
        failed: bad,
    };
    match run {
        Ok(out) => {
            let first = &out.results[0];
            let (rounds, msgs) = barrier_shape(w.n, w.ports);
            let barriers = BarrierShare {
                calls: first.barrier_calls,
                rounds,
                msgs,
                comm_ns: out.results.iter().map(|r| r.barrier_comm_ns).sum(),
                send_ns: out.results.iter().map(|r| r.barrier_send_ns).sum(),
            };
            let mut counters = Counters::of(&out.metrics, first.seq);
            counters.without_barriers(&barriers);
            Ok(Pass {
                laps: shared
                    .lap_max
                    .iter()
                    .map(|a| a.load(Ordering::Relaxed) as f64)
                    .collect(),
                stretches: shared
                    .stretch_max
                    .iter()
                    .map(|a| (w.stretch, a.load(Ordering::Relaxed) as f64))
                    .collect(),
                samples: out.results.into_iter().map(|r| r.samples).collect(),
                counters,
                barriers,
                tally,
            })
        }
        Err(e) => {
            // The collective in flight when the cluster failed.
            tally.failed += 1;
            tally.attempted = tally.attempted.max(tally.failed);
            Err((e, tally))
        }
    }
}
