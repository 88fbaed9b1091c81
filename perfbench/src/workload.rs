//! The four workloads, their seeded inputs, and the oracles that check
//! every collective.

use std::sync::Arc;

use bruck_collectives::api::Tuning;
use bruck_model::cost::LinearModel;
use bruck_model::planner::IndexPlan;

/// Which collective a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `alltoall_into` (the paper's index operation).
    Index,
    /// `allgather_into` (the paper's concatenation operation).
    Concat,
}

/// Which substrate carries the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// One thread per rank, Unix datagram sockets, ARQ on top.
    Uds,
    /// `TcpScaleCluster`: reactor + worker pool over loopback TCP.
    Tcp,
}

/// One benchmark workload: a collective at a fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub op: Op,
    pub substrate: Substrate,
    /// Ranks.
    pub n: usize,
    /// Ports per rank (`k`).
    pub ports: usize,
    /// Block size in bytes (`b`).
    pub block: usize,
    /// Ranks per simulated node (TCP only).
    pub node_size: usize,
    /// Worker threads of the TCP executor (TCP only).
    pub workers: usize,
    /// Work of one UDS cluster, fixed so that memory use does not
    /// depend on speed, and sized to about a second at the baseline:
    /// untimed warm-up laps, timed laps, and collectives per goodput
    /// stretch.
    pub warm: usize,
    pub laps: usize,
    pub stretch: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "index_small",
        op: Op::Index,
        substrate: Substrate::Uds,
        n: 8,
        ports: 2,
        block: 64,
        node_size: 0,
        workers: 0,
        warm: 300,
        laps: 1000,
        stretch: 250,
    },
    Workload {
        name: "index_large",
        op: Op::Index,
        substrate: Substrate::Uds,
        n: 8,
        ports: 2,
        block: 64 * 1024,
        node_size: 0,
        workers: 0,
        warm: 60,
        laps: 300,
        stretch: 60,
    },
    Workload {
        name: "concat_large",
        op: Op::Concat,
        substrate: Substrate::Uds,
        n: 8,
        ports: 2,
        block: 64 * 1024,
        node_size: 0,
        workers: 0,
        warm: 10,
        laps: 100,
        stretch: 15,
    },
    Workload {
        name: "tcp_scale",
        op: Op::Index,
        substrate: Substrate::Tcp,
        n: 128,
        ports: 1,
        block: 64,
        node_size: 32,
        workers: 1,
        warm: 0,
        laps: 0,
        stretch: 0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Useful bytes one collective delivers: every rank receives
    /// `n − 1` foreign blocks, whichever schedule carries them.
    pub fn useful_bytes(&self) -> u64 {
        (self.n * (self.n - 1) * self.block) as u64
    }

    /// Bytes of one rank's send buffer.
    pub fn send_len(&self) -> usize {
        match self.op {
            Op::Index => self.n * self.block,
            Op::Concat => self.block,
        }
    }

    /// The planner every UDS workload runs under: full-family dispatch
    /// with the fixed SP-1 linear model, so the plan cannot flip with a
    /// live calibration.
    pub fn tuning() -> Tuning {
        Tuning::auto(Arc::new(LinearModel::sp1()))
    }

    /// The index plan this workload executes, if it is an index
    /// workload: the planner's choice over UDS, flat radix 2 over TCP.
    pub fn index_plan(&self) -> Option<IndexPlan> {
        match (self.op, self.substrate) {
            (Op::Concat, _) => None,
            (Op::Index, Substrate::Tcp) => Some(IndexPlan::Radix(2)),
            (Op::Index, Substrate::Uds) => Some(
                Self::tuning()
                    .chosen_plan(self.n, self.block, self.ports)
                    .plan,
            ),
        }
    }

    /// Human label of the executed algorithm.
    pub fn plan_label(&self) -> String {
        match self.index_plan() {
            Some(plan) => plan.label(),
            None => bruck_collectives::concat::ConcatAlgorithm::Bruck(Default::default()).name(),
        }
    }
}

/// splitmix64: a keyed, stateless byte source, so the same seed always
/// yields the same payloads.
fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fill(seed: u64, variant: u64, rank: usize, len: usize) -> Vec<u8> {
    let key = splitmix64(seed ^ splitmix64(variant ^ splitmix64(rank as u64)));
    let mut out = Vec::with_capacity(len + 8);
    let mut i = 0u64;
    while out.len() < len {
        out.extend_from_slice(&splitmix64(key.wrapping_add(i)).to_le_bytes());
        i += 1;
    }
    out.truncate(len);
    out
}

/// One set of per-rank inputs and the oracle's expected outputs.
pub struct Inputs {
    /// `send[r]`: rank `r`'s send buffer.
    pub send: Vec<Vec<u8>>,
    /// `expect[r]`: what rank `r` must hold afterwards.
    pub expect: Vec<Vec<u8>>,
}

impl Inputs {
    /// Seeded payloads plus the transpose (index) or concatenation
    /// (concat) oracle, computed here, independently of the program.
    pub fn generate(w: &Workload, seed: u64, variant: u64) -> Self {
        let (n, b) = (w.n, w.block);
        let send: Vec<Vec<u8>> = (0..n)
            .map(|r| fill(seed, variant, r, w.send_len()))
            .collect();
        let expect = match w.op {
            Op::Index => (0..n)
                .map(|r| {
                    let mut v = Vec::with_capacity(n * b);
                    for src in &send {
                        v.extend_from_slice(&src[r * b..(r + 1) * b]);
                    }
                    v
                })
                .collect(),
            Op::Concat => {
                let all: Vec<u8> = send.concat();
                vec![all; n]
            }
        };
        Self { send, expect }
    }
}

/// Two input sets that alternate collective by collective: a collective
/// that leaves the output buffer untouched can never pass the oracle.
pub fn input_pair(w: &Workload, seed: u64) -> [Inputs; 2] {
    [Inputs::generate(w, seed, 0), Inputs::generate(w, seed, 1)]
}
