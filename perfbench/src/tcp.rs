//! The `tcp_scale` workload: `TcpScaleCluster::run_with_workers`, one
//! fresh fabric per collective, one worker thread plus the reactor.

use std::time::{Duration, Instant};

use bruck_model::planner::IndexPlan;
use bruck_net::{ClusterConfig, NetError, Reliability, ScaleOutput, TcpScaleCluster};

use crate::layers::Counters;
use crate::stats::Tally;
use crate::workload::{input_pair, Inputs, Workload};

fn config(w: &Workload) -> ClusterConfig {
    ClusterConfig::new(w.n)
        .with_ports(w.ports)
        .with_node_size(w.node_size)
        .with_reliability(Reliability::default())
        .with_timeout(Duration::from_secs(30))
        .with_deadline(Duration::from_secs(60))
}

/// Run and verify one collective; returns its wall time (without the
/// check) and output. `Err` only when the run failed.
fn one(
    w: &Workload,
    cfg: &ClusterConfig,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<(f64, ScaleOutput), NetError> {
    tally.attempted += 1;
    let t0 = Instant::now();
    let out = TcpScaleCluster::run_with_workers(
        cfg,
        &IndexPlan::Radix(2),
        w.block,
        &inputs.send,
        Some(w.workers),
    );
    let lap = t0.elapsed().as_nanos() as f64;
    match out {
        Ok(out) => {
            if out.results != inputs.expect {
                tally.failed += 1;
            }
            Ok((lap, out))
        }
        Err(e) => {
            tally.failed += 1;
            Err(e)
        }
    }
}

/// Set-up: from input generation to the first verified collective.
pub fn setup_once(w: &Workload, seed: u64, tally: &mut Tally) -> Result<Duration, NetError> {
    let t0 = Instant::now();
    let inputs = Inputs::generate(w, seed, 0);
    one(w, &config(w), &inputs, tally)?;
    Ok(t0.elapsed())
}

/// What a sequence of back-to-back collectives measured.
#[derive(Default)]
pub struct Pass {
    /// Wall time of each timed collective, in ns.
    pub laps: Vec<f64>,
    /// Each timed collective's counters.
    pub counters: Vec<Counters>,
    /// OS threads the executor held (workers + reactor).
    pub threads: usize,
    pub tally: Tally,
}

impl Pass {
    /// The timed collectives' counters, summed.
    pub fn total(&self) -> Counters {
        let mut total = Counters::default();
        self.counters.iter().for_each(|c| total.add(c));
        total
    }
}

/// `warm` untimed collectives, then timed ones until `until` has passed
/// since the call (and at least `min_laps`). Collectives follow each
/// other directly, so the laps are also the goodput window.
pub fn pass(
    w: &Workload,
    seed: u64,
    warm: usize,
    until: Duration,
    min_laps: usize,
) -> Result<Pass, (NetError, Tally)> {
    let start = Instant::now();
    let cfg = config(w);
    let inputs = input_pair(w, seed);
    let mut tally = Tally::default();
    let mut pass = Pass {
        laps: Vec::new(),
        counters: Vec::new(),
        threads: 0,
        tally,
    };
    let mut seq = 0usize;
    let mut step = |tally: &mut Tally| {
        let inputs = &inputs[seq % 2];
        seq += 1;
        one(w, &cfg, inputs, tally)
    };
    for _ in 0..warm {
        step(&mut tally).map_err(|e| (e, tally))?;
    }
    while pass.laps.len() < min_laps || start.elapsed() < until {
        let (lap, out) = step(&mut tally).map_err(|e| (e, tally))?;
        pass.laps.push(lap);
        pass.counters.push(Counters::of(&out.metrics, 1));
        pass.threads = pass.threads.max(out.threads);
    }
    pass.tally = tally;
    Ok(pass)
}
