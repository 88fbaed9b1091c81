//! Per-layer numbers that come from counters or from timing one layer's
//! public functions standalone, at the workload's shape.

use std::hint::black_box;
use std::time::Instant;

use bruck_collectives::blocks::{
    gather_spans, pack_into, phase3_place_into, rotate_up_into, unpack_spans,
};
use bruck_collectives::concat::ConcatAlgorithm;
use bruck_model::planner::IndexPlan;
use bruck_model::program::RankProgram;
use bruck_model::radix::RadixDecomposition;
use bruck_net::{RunMetrics, TcpFabric};

use crate::stats::median;
use crate::uds::BarrierShare;
use crate::workload::{Op, Workload};

/// Cluster-wide counters of some number of collectives, folded out of
/// [`RunMetrics`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub collectives: u64,
    pub ranks: u64,
    pub c1: u64,
    pub c2: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub copied: u64,
    pub gathered: u64,
    pub wall_send_ns: u64,
    pub wall_recv_ns: u64,
    pub retransmits: u64,
    pub probes: u64,
    pub acks: u64,
    pub piggyback_acks: u64,
    pub link_failures: u64,
    pub shed_bytes: u64,
}

impl Counters {
    /// Counters of a run that executed `collectives` collectives.
    pub fn of(m: &RunMetrics, collectives: u64) -> Self {
        let complexity = m.global_complexity().unwrap_or_default();
        let link = m.link_totals();
        Self {
            collectives,
            ranks: m.per_rank.len() as u64,
            c1: complexity.c1,
            c2: complexity.c2,
            msgs: m.total_msgs(),
            bytes: m.total_bytes(),
            copied: m.total_bytes_copied(),
            gathered: m.total_bytes_gathered(),
            wall_send_ns: m.per_rank.iter().map(|r| r.wall_send_ns).sum(),
            wall_recv_ns: m.per_rank.iter().map(|r| r.wall_recv_ns).sum(),
            retransmits: link.retransmits,
            probes: link.probes_sent,
            acks: link.acks_sent,
            piggyback_acks: link.piggyback_acks,
            link_failures: m.fabric.link_failures,
            shed_bytes: m.fabric.outbox_shed_bytes,
        }
    }

    pub fn add(&mut self, o: &Self) {
        self.collectives += o.collectives;
        self.ranks = self.ranks.max(o.ranks);
        self.c1 += o.c1;
        self.c2 += o.c2;
        self.msgs += o.msgs;
        self.bytes += o.bytes;
        self.copied += o.copied;
        self.gathered += o.gathered;
        self.wall_send_ns += o.wall_send_ns;
        self.wall_recv_ns += o.wall_recv_ns;
        self.retransmits += o.retransmits;
        self.probes += o.probes;
        self.acks += o.acks;
        self.piggyback_acks += o.piggyback_acks;
        self.link_failures += o.link_failures;
        self.shed_bytes += o.shed_bytes;
    }

    /// Take the lap barriers' rounds out, leaving the collectives'
    /// share. Counts are exact (the barrier's shape is known); the
    /// barrier's round time is what the `Comm` wrapper measured around
    /// its round calls, its send part what the transport wrapper saw.
    pub fn without_barriers(&mut self, b: &BarrierShare) {
        let calls_all_ranks = b.calls * self.ranks;
        let msgs = calls_all_ranks * b.msgs;
        // The barrier's messages are empty: they add rounds and
        // messages, never bytes.
        self.c1 = self.c1.saturating_sub(b.calls * b.rounds);
        self.msgs = self.msgs.saturating_sub(msgs);
        self.wall_send_ns = self.wall_send_ns.saturating_sub(b.send_ns);
        self.wall_recv_ns = self
            .wall_recv_ns
            .saturating_sub(b.comm_ns.saturating_sub(b.send_ns));
    }

    /// A cluster-wide count per collective.
    pub fn per_lap(&self, count: u64) -> f64 {
        count as f64 / self.collectives.max(1) as f64
    }

    /// A per-rank wall time per collective, in µs.
    pub fn rank_us_per_lap(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / (self.collectives.max(1) * self.ranks.max(1)) as f64
    }

    pub fn busy_ns(&self) -> u64 {
        self.wall_send_ns + self.wall_recv_ns
    }
}

/// Median over `reps` repetitions of `f`'s wall time, in ns.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// `Tuning::chosen_plan` at the workload's shape, in µs per call.
pub fn plan_us(w: &Workload) -> f64 {
    const BATCH: usize = 50;
    let tuning = Workload::tuning();
    let ns = time_median(41, || {
        for _ in 0..BATCH {
            black_box(tuning.chosen_plan(black_box(w.n), black_box(w.block), w.ports));
        }
    });
    ns / 1e3 / BATCH as f64
}

/// `RankProgram::lower` for all `n` ranks, in ms; 0 for concat, which
/// has no program lowering.
pub fn lower_ms(w: &Workload) -> f64 {
    let Some(plan) = w.index_plan() else {
        return 0.0;
    };
    time_median(7, || {
        for rank in 0..w.n {
            black_box(
                RankProgram::lower(&plan, w.n, rank, w.block, w.ports)
                    .expect("the workload's plan lowers"),
            );
        }
    }) / 1e6
}

/// The local phases of one collective on rank 1, timed standalone with
/// the library's block primitives: `(rotate, pack, unpack)` in µs.
///
/// * radix-`r` index: the phase-1 rotation, one gather per step
///   (`pack_into`), one `unpack_spans` per step plus the phase-3
///   placement;
/// * direct index: no local phases;
/// * concat: one contiguous copy per round of what rank 1 sends (pack)
///   and receives (unpack), and one `n·b` rotation for the final
///   placement.
pub fn local_phases_us(w: &Workload) -> (f64, f64, f64) {
    const RANK: usize = 1;
    let (n, b) = (w.n, w.block);
    let src: Vec<u8> = (0..n * b).map(|i| i as u8).collect();
    let mut dst = vec![0u8; n * b];
    let reps = 51;
    let mut rotate = || {
        time_median(reps, || {
            rotate_up_into(black_box(&src), n, b, RANK, &mut dst)
        })
    };
    match (w.op, w.index_plan()) {
        (Op::Index, Some(IndexPlan::Radix(r))) => {
            let decomp = RadixDecomposition::new(n, r.min(n));
            let steps: Vec<Vec<usize>> = decomp
                .steps()
                .map(|(x, z)| decomp.blocks_for_step(x, z))
                .collect();
            let spans: Vec<Vec<(usize, usize)>> =
                steps.iter().map(|idx| gather_spans(idx, b)).collect();
            let mut msgs: Vec<Vec<u8>> = steps.iter().map(|idx| vec![0u8; idx.len() * b]).collect();
            let rotate = rotate();
            let mut scratch = src.clone();
            let mut dst = vec![0u8; n * b];
            let pack = time_median(reps, || {
                for (idx, msg) in steps.iter().zip(msgs.iter_mut()) {
                    pack_into(black_box(&scratch), b, idx, msg);
                }
            });
            let unpack = time_median(reps, || {
                for (sp, msg) in spans.iter().zip(&msgs) {
                    unpack_spans(&mut scratch, sp, black_box(msg));
                }
                phase3_place_into(black_box(&scratch), n, b, RANK, &mut dst);
            });
            (rotate / 1e3, pack / 1e3, unpack / 1e3)
        }
        (Op::Index, _) => (0.0, 0.0, 0.0),
        (Op::Concat, _) => {
            let schedule = ConcatAlgorithm::Bruck(Default::default()).plan(n, b, w.ports);
            let (sent, received): (Vec<usize>, Vec<usize>) = schedule
                .rounds
                .iter()
                .map(|round| {
                    let by = |f: &dyn Fn(&bruck_sched::Transfer) -> bool| -> usize {
                        round
                            .transfers
                            .iter()
                            .filter(|t| f(t))
                            .map(|t| t.bytes as usize)
                            .sum()
                    };
                    (by(&|t| t.src == RANK), by(&|t| t.dst == RANK))
                })
                .unzip();
            let mut buf = vec![0u8; n * b];
            let copies = |sizes: &[usize], buf: &mut Vec<u8>| {
                time_median(reps, || {
                    for &len in sizes {
                        buf[..len].copy_from_slice(black_box(&src[..len]));
                    }
                })
            };
            let pack = copies(&sent, &mut buf);
            let unpack = copies(&received, &mut buf);
            (rotate() / 1e3, pack / 1e3, unpack / 1e3)
        }
    }
}

/// `TcpFabric::new` plus `shutdown` at the workload's shape, in ms.
pub fn tcp_setup_ms(w: &Workload) -> Result<f64, String> {
    let mut err = None;
    let ms = time_median(5, || match TcpFabric::new(w.n, w.node_size) {
        Ok((fabric, transports)) => {
            drop(transports);
            if let Some(e) = fabric.shutdown() {
                err = Some(e);
            }
        }
        Err(e) => err = Some(e.to_string()),
    }) / 1e6;
    match err {
        Some(e) => Err(e),
        None => Ok(ms),
    }
}
