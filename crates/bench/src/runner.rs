//! The one bench runner behind every `bruckctl bench` mode.
//!
//! A `Cell` is one measured shape. It holds `Leg`s, and each leg
//! produces one row per arm:
//!
//! - an in-run leg is a Unix-socket cluster run whose arms' laps are
//!   interleaved inside it, so arms that share a cluster config sample
//!   the same host-scheduler weather;
//! - a TCP leg is one whole [`TcpScaleCluster`] run per lap, fabric
//!   setup included.
//!
//! Arms that differ in cluster config sit in separate legs of one cell.
//! Every sample runs every leg once, flipping the leg order on odd
//! samples so neither config systematically inherits the warmer machine.
//!
//! In-run legs follow one timing discipline: an untimed warm-up cycle,
//! a dissemination barrier before every timed lap, a rotated start with
//! the cycle direction flipped on odd reps, and the straggler's max
//! across ranks as the lap time. Every lap, warm-ups included, is
//! checked against the transpose/concatenation oracle outside the timed
//! region.
//!
//! Every row carries one schema, rendered by [`Bench::table`] and
//! [`Bench::json`] (hand-rolled; the workspace has no serialization
//! dependency): laps, min/p50/p99/mean, the spread of the per-sample
//! p50 across independent cluster runs, goodput on useful bytes, wire
//! counters and `bit_correct`. Every artifact carries the environment
//! and, when the mode fitted one, the calibration.

use std::time::Instant;

use bruck_collectives::primitives::barrier_dissemination;
use bruck_collectives::verify;
use bruck_model::calibrate::LinearFit;
use bruck_model::planner::IndexPlan;
use bruck_net::{ClusterConfig, Endpoint, NetError, RunMetrics, SocketCluster, TcpScaleCluster};

/// Environment metadata stamped into every tracked `BENCH_*.json` so
/// numbers stay comparable across machines: a 1-core CI runner and an
/// 8-core laptop produce very different walls for the same shape.
#[derive(Debug, Clone)]
pub(crate) struct EnvMeta {
    /// Logical CPUs available to this process.
    pub cpus: usize,
    /// Transport the bench drove (`"uds"` or `"tcp"`).
    pub transport: String,
    /// Short git commit of the tree that produced the numbers
    /// (`"unknown"` outside a git checkout).
    pub git_commit: String,
    /// Wire fragment payload size the transports ran with.
    pub frag_payload: usize,
}

impl EnvMeta {
    /// Capture the current environment for `transport`.
    #[must_use]
    pub fn capture(transport: &str) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let git_commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        Self {
            cpus,
            transport: transport.into(),
            git_commit,
            frag_payload: bruck_net::frame::FRAG_PAYLOAD,
        }
    }

    /// The `"env"` line of a JSON artifact (trailing comma included).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        format!(
            "  \"env\": {{\"cpus\": {}, \"transport\": \"{}\", \"git_commit\": \"{}\", \
             \"frag_payload\": {}}},\n",
            self.cpus, self.transport, self.git_commit, self.frag_payload
        )
    }
}

/// Fit quality below which planner dispatch is a guess, not a
/// prediction: R² = 0.5 means the linear model explains half the
/// measured variance. BENCH_pr4 recorded R² = 0.19 on the live UDS
/// wire, and nothing surfaced it.
const FIT_R2_FLOOR: f64 = 0.5;

/// A human-readable warning when the calibration fit is below
/// `FIT_R2_FLOOR` (0.5), or `None` when the fit is trustworthy.
#[must_use]
pub fn fit_warning(fit: &LinearFit) -> Option<String> {
    (fit.r_squared < FIT_R2_FLOOR).then(|| {
        format!(
            "calibration fit R² = {:.2} is below {FIT_R2_FLOOR}: the linear cost model explains \
             little of the measured variance, so planner dispatch and predicted times are \
             best-effort on this wire",
            fit.r_squared
        )
    })
}

/// One rank's oracle: the bytes it feeds the collective and the bytes
/// it must get back.
#[derive(Debug)]
pub(crate) struct Oracle {
    /// Send buffer.
    pub input: Vec<u8>,
    /// What the collective must leave in the receive buffer.
    pub expected: Vec<u8>,
}

/// Builds a rank's [`Oracle`] once per cluster run, outside the laps.
pub(crate) type OracleFn<'a> = Box<dyn Fn(usize) -> Oracle + Sync + 'a>;

/// One in-run lap: run the collective on `ep` from the rank's input,
/// leaving the result in the output buffer.
pub(crate) type LapFn<'a> =
    Box<dyn Fn(&mut Endpoint, &[u8], &mut Vec<u8>) -> Result<(), NetError> + Sync + 'a>;

/// The per-row identity of one arm.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Arm label (`"pipelined"`, `"fixed-r2"`, `"heal-on"`, …).
    pub label: String,
    /// Label of the plan the arm executes (empty when not applicable).
    pub plan: String,
    /// Mode-specific numeric columns (`predicted_ns`, `s`, …).
    pub extra: Vec<(&'static str, f64)>,
}

impl Arm {
    /// An arm with no extra columns.
    #[must_use]
    pub fn new(label: impl Into<String>, plan: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            plan: plan.into(),
            extra: Vec::new(),
        }
    }
}

/// One cluster-run unit of a [`Cell`].
pub(crate) enum Leg<'a> {
    /// A Unix-socket cluster run per sample, interleaving its arms.
    InRun {
        /// Cluster config every arm of the leg shares.
        config: ClusterConfig,
        /// Drive through [`SocketCluster::run_resilient`] instead of
        /// [`SocketCluster::run`].
        resilient: bool,
        /// The per-rank oracle every arm is checked against.
        oracle: OracleFn<'a>,
        /// The interleaved arms.
        arms: Vec<(Arm, LapFn<'a>)>,
    },
    /// `reps` whole TCP index all-to-all runs per sample; each run is
    /// one lap, fabric setup included.
    Tcp {
        /// The arm this leg measures.
        arm: Arm,
        /// Cluster config (node size, healing, faults).
        config: ClusterConfig,
        /// The index plan every run executes.
        plan: IndexPlan,
        /// Every rank's send buffer.
        inputs: &'a [Vec<u8>],
        /// Worker threads (`None` = the fabric's default).
        workers: Option<usize>,
    },
}

impl Leg<'_> {
    fn arms(&self) -> Vec<&Arm> {
        match self {
            Self::InRun { arms, .. } => arms.iter().map(|(a, _)| a).collect(),
            Self::Tcp { arm, .. } => vec![arm],
        }
    }
}

/// One measured shape: the legs whose arms become its rows.
pub(crate) struct Cell<'a> {
    /// Cell label, shared by its rows (`"alltoall"`, `"b=256"`, `"n=128"`).
    pub name: String,
    /// Cluster size.
    pub n: usize,
    /// Block size in bytes (mean per-pair bytes for v-ops).
    pub block: usize,
    /// Bytes the collective delivers that a rank did not already hold:
    /// `n(n−1)b`, or the off-diagonal sum for v-ops.
    pub useful_bytes: u64,
    /// The legs, run once per sample.
    pub legs: Vec<Leg<'a>>,
}

/// Wire counters and the oracle verdict of one or more cluster runs.
/// The default is the empty tally: zero counters, nothing wrong yet.
#[derive(Debug, Clone)]
pub struct Tally {
    /// Reliability-layer retransmissions.
    pub retransmits: u64,
    /// Watchdog probes sent.
    pub probes: u64,
    /// TCP stream teardowns (0 off TCP).
    pub link_failures: u64,
    /// TCP re-handshakes (0 off TCP).
    pub reconnects: u64,
    /// Every checked lap matched the oracle.
    pub bit_correct: bool,
    /// Mode-specific numeric columns measured by the run (last run wins).
    pub extra: Vec<(&'static str, f64)>,
}

impl Default for Tally {
    fn default() -> Self {
        Self {
            retransmits: 0,
            probes: 0,
            link_failures: 0,
            reconnects: 0,
            bit_correct: true,
            extra: Vec::new(),
        }
    }
}

impl Tally {
    fn of(metrics: &RunMetrics, bit_correct: bool) -> Self {
        let link = metrics.link_totals();
        Self {
            retransmits: link.retransmits,
            probes: link.probes_sent,
            link_failures: metrics.fabric.link_failures,
            reconnects: metrics.fabric.reconnects,
            bit_correct,
            extra: Vec::new(),
        }
    }

    fn absorb(&mut self, other: Self) {
        self.retransmits += other.retransmits;
        self.probes += other.probes;
        self.link_failures += other.link_failures;
        self.reconnects += other.reconnects;
        self.bit_correct &= other.bit_correct;
        self.extra = other.extra;
    }
}

/// One arm's measurements over every sample of its cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Label of the cell the arm ran in.
    pub cell: String,
    /// The arm.
    pub arm: Arm,
    /// Cluster size.
    pub n: usize,
    /// Block size in bytes.
    pub block: usize,
    /// Useful bytes one lap delivers (see `Cell::useful_bytes`).
    pub useful_bytes: u64,
    /// Every straggler lap (ns) of every sample, sorted ascending.
    pub laps: Vec<u64>,
    /// Each sample's median straggler lap (ns): one per independent
    /// cluster run (in-run legs) or batch of runs (TCP legs).
    pub sample_p50s: Vec<u64>,
    /// Counters summed over every run, verdict over every lap.
    pub tally: Tally,
}

/// Nearest-rank percentile of an ascending slice (`0` when empty).
#[must_use]
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * p).div_ceil(100).clamp(1, sorted.len()) - 1]
}

/// Per-rep straggler max: lap `j` of the cluster is the slowest rank's
/// lap `j`.
#[must_use]
fn straggler_max(per_rank: &[&[u64]]) -> Vec<u64> {
    let reps = per_rank.iter().map(|l| l.len()).min().unwrap_or(0);
    (0..reps)
        .map(|j| per_rank.iter().map(|l| l[j]).max().unwrap_or(0))
        .collect()
}

/// The arm timed at cycle position `pos` of rep `rep` among `m` arms:
/// the start rotates every rep and the direction flips on odd reps, so
/// no arm always follows the same predecessor and inherits its
/// transport debt (owed acks, in-flight retransmit state).
#[must_use]
fn cycle_slot(rep: usize, pos: usize, m: usize) -> usize {
    if rep.is_multiple_of(2) {
        (rep + pos) % m
    } else {
        (rep + m - pos) % m
    }
}

impl Row {
    fn new(cell: &Cell<'_>, arm: &Arm) -> Self {
        Self {
            cell: cell.name.clone(),
            arm: arm.clone(),
            n: cell.n,
            block: cell.block,
            useful_bytes: cell.useful_bytes,
            laps: Vec::new(),
            sample_p50s: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn push_sample(&mut self, mut laps: Vec<u64>, tally: Tally) {
        laps.sort_unstable();
        self.sample_p50s.push(percentile(&laps, 50));
        self.laps.extend(laps);
        self.laps.sort_unstable();
        self.tally.absorb(tally);
    }

    /// Fastest lap (ns).
    #[must_use]
    pub fn min_ns(&self) -> u64 {
        self.laps.first().copied().unwrap_or(0)
    }

    /// Median lap (ns).
    #[must_use]
    pub fn p50_ns(&self) -> u64 {
        percentile(&self.laps, 50)
    }

    /// 99th-percentile lap (ns).
    #[must_use]
    pub fn p99_ns(&self) -> u64 {
        percentile(&self.laps, 99)
    }

    /// Mean lap (ns).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.laps.iter().sum::<u64>() / self.laps.len().max(1) as u64
    }

    /// Spread of the per-sample medians relative to the pooled median:
    /// `(max − min) / p50`. `0` with a single sample.
    #[must_use]
    pub fn p50_spread(&self) -> f64 {
        let (Some(lo), Some(hi)) = (self.sample_p50s.iter().min(), self.sample_p50s.iter().max())
        else {
            return 0.0;
        };
        (hi - lo) as f64 / self.p50_ns().max(1) as f64
    }

    /// Goodput on useful bytes at the mean lap, MB/s.
    #[must_use]
    pub fn mbps(&self) -> f64 {
        self.useful_bytes as f64 / (self.mean_ns().max(1) as f64 / 1e9) / 1e6
    }

    /// A mode-specific column, from the arm or the run.
    #[must_use]
    pub fn extra(&self, key: &str) -> Option<f64> {
        self.extras().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn extras(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.arm.extra.iter().chain(&self.tally.extra).copied()
    }
}

/// `p50(a) / p50(b)` for the arms labelled `a` and `b` in `rows`, when
/// both are present. Callers pass one cell's rows.
#[must_use]
pub(crate) fn ratio(rows: &[Row], a: &str, b: &str) -> Option<f64> {
    let p50 = |label: &str| {
        rows.iter()
            .find(|r| r.arm.label == label)
            .map(|r| r.p50_ns() as f64)
    };
    let (a, b) = (p50(a)?, p50(b)?);
    (b > 0.0).then(|| a / b)
}

/// Run every leg of `cell` once per sample and fold the laps into one
/// row per arm, in leg order.
///
/// # Errors
///
/// The first cluster setup or collective failure, as a message.
pub(crate) fn run_cell(cell: &Cell<'_>, reps: usize, samples: usize) -> Result<Vec<Row>, String> {
    let reps = reps.max(1);
    let mut rows: Vec<Vec<Row>> = cell
        .legs
        .iter()
        .map(|leg| leg.arms().into_iter().map(|a| Row::new(cell, a)).collect())
        .collect();
    for s in 0..samples.max(1) {
        let mut order: Vec<usize> = (0..cell.legs.len()).collect();
        if s % 2 == 1 {
            order.reverse();
        }
        for li in order {
            let leg = &cell.legs[li];
            let sample = match leg {
                Leg::InRun {
                    config,
                    resilient,
                    oracle,
                    arms,
                } => run_in_run(config, *resilient, oracle, arms, reps),
                Leg::Tcp {
                    config,
                    plan,
                    inputs,
                    workers,
                    ..
                } => run_tcp(config, plan, cell.block, inputs, *workers, reps),
            }
            .map_err(|e| format!("{} {}: {e}", cell.name, leg.arms()[0].label))?;
            for (row, (laps, tally)) in rows[li].iter_mut().zip(sample) {
                row.push_sample(laps, tally);
            }
        }
    }
    Ok(rows.into_iter().flatten().collect())
}

/// `reps` timed whole TCP runs of one leg, each checked against the
/// oracle outside its lap.
fn run_tcp(
    config: &ClusterConfig,
    plan: &IndexPlan,
    block: usize,
    inputs: &[Vec<u8>],
    workers: Option<usize>,
    reps: usize,
) -> Result<Vec<(Vec<u64>, Tally)>, NetError> {
    let mut laps = Vec::with_capacity(reps);
    let mut tally = Tally::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = TcpScaleCluster::run_with_workers(config, plan, block, inputs, workers)?;
        laps.push(t0.elapsed().as_nanos() as u64);
        let n = inputs.len();
        let ok = (out.results.iter().enumerate())
            .all(|(r, got)| *got == verify::index_expected(r, n, block));
        let mut t = Tally::of(&out.metrics, ok);
        t.extra = vec![
            ("rounds", out.rounds as f64),
            ("workers", out.workers as f64),
            ("threads", out.threads as f64),
        ];
        if let Some(c) = out.metrics.global_complexity() {
            t.extra.push(("c2_bytes", c.c2 as f64));
        }
        tally.absorb(t);
    }
    Ok(vec![(laps, tally)])
}

/// One cluster run of an in-run leg: per arm, the straggler laps and
/// the run's tally (counters are the run's, shared by its arms).
fn run_in_run(
    config: &ClusterConfig,
    resilient: bool,
    oracle: &OracleFn<'_>,
    arms: &[(Arm, LapFn<'_>)],
    reps: usize,
) -> Result<Vec<(Vec<u64>, Tally)>, NetError> {
    let m = arms.len();
    let body = |ep: &mut Endpoint| {
        let Oracle { input, expected } = oracle(ep.rank());
        let mut got = Vec::new();
        let mut ok = vec![true; m];
        for (a, (_, lap)) in arms.iter().enumerate() {
            lap(ep, &input, &mut got)?; // warm-up, untimed
            ok[a] &= got == expected;
        }
        let mut laps = vec![Vec::with_capacity(reps); m];
        for rep in 0..reps {
            for pos in 0..m {
                let a = cycle_slot(rep, pos, m);
                // Re-synchronise before every timed lap, so a straggler
                // in one lap does not skew the start of the next.
                barrier_dissemination(ep)?;
                let t0 = Instant::now();
                arms[a].1(ep, &input, &mut got)?;
                laps[a].push(t0.elapsed().as_nanos() as u64);
                ok[a] &= got == expected;
            }
        }
        Ok((laps, ok))
    };
    let out = if resilient {
        SocketCluster::run_resilient(config, 2, |ep, _view| body(ep))?.output
    } else {
        SocketCluster::run(config, body)?
    };
    Ok((0..m)
        .map(|a| {
            let per_rank: Vec<&[u64]> = out.results.iter().map(|(l, _)| &l[a][..]).collect();
            let ok = out.results.iter().all(|(_, ok)| ok[a]);
            (straggler_max(&per_rank), Tally::of(&out.metrics, ok))
        })
        .collect())
}

/// A criterion's JSON value.
#[must_use]
pub(crate) fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".into()
    }
}

/// One mode's results: rows plus the verdicts the docs quote.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Artifact name (`"pr3-wire-pipelining"`, …).
    pub name: &'static str,
    /// `"uds"` or `"tcp"`.
    pub transport: &'static str,
    /// Calibration the mode planned under or fitted, if any.
    pub fit: Option<LinearFit>,
    /// One row per arm per cell.
    pub rows: Vec<Row>,
    /// Named verdicts as JSON literals; `all_bit_correct` comes last.
    pub criteria: Vec<(&'static str, String)>,
}

impl Bench {
    /// Assemble a bench, appending the `all_bit_correct` criterion.
    #[must_use]
    pub fn new(
        name: &'static str,
        transport: &'static str,
        fit: Option<LinearFit>,
        rows: Vec<Row>,
        mut criteria: Vec<(&'static str, String)>,
    ) -> Self {
        let ok = rows.iter().all(|r| r.tally.bit_correct);
        criteria.push(("all_bit_correct", ok.to_string()));
        Self {
            name,
            transport,
            fit,
            rows,
            criteria,
        }
    }

    /// Every lap of every row matched the oracle.
    #[must_use]
    pub fn all_bit_correct(&self) -> bool {
        self.rows.iter().all(|r| r.tally.bit_correct)
    }

    /// The human table: environment, fit, one line per row, criteria.
    #[must_use]
    pub fn table(&self) -> String {
        let env = EnvMeta::capture(self.transport);
        let mut out = format!(
            "{} ({}, {} cpus, commit {})\n",
            self.name, env.transport, env.cpus, env.git_commit
        );
        if let Some(fit) = &self.fit {
            out.push_str(&format!(
                "calibrated fit: β = {:.2}µs, τ = {:.4}µs/B, R² = {:.3} ({} samples)\n",
                fit.model.startup * 1e6,
                fit.model.per_byte * 1e6,
                fit.r_squared,
                fit.samples,
            ));
        }
        out.push_str(&format!(
            "{:<9} {:<17} {:<20} {:>5} {:>6} {:>4} {:>8} {:>9} {:>9} {:>9} {:>9} {:>6} {:>5} {:>6} {:>5} {:>6} {:>3}\n",
            "cell", "arm", "plan", "n", "block", "laps", "MB/s", "min", "p50", "p99", "mean",
            "spread", "rexmt", "probes", "fails", "reconn", "ok"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<9} {:<17} {:<20} {:>5} {:>6} {:>4} {:>8.1} {:>9} {:>9} {:>9} {:>9} {:>6.3} {:>5} {:>6} {:>5} {:>6} {:>3}",
                r.cell,
                r.arm.label,
                r.arm.plan,
                r.n,
                r.block,
                r.laps.len(),
                r.mbps(),
                fmt_ns(r.min_ns()),
                fmt_ns(r.p50_ns()),
                fmt_ns(r.p99_ns()),
                fmt_ns(r.mean_ns()),
                r.p50_spread(),
                r.tally.retransmits,
                r.tally.probes,
                r.tally.link_failures,
                r.tally.reconnects,
                if r.tally.bit_correct { "yes" } else { "NO" },
            ));
            for (k, v) in r.extras() {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        for (k, v) in &self.criteria {
            out.push_str(&format!("{k}: {v}\n"));
        }
        out
    }

    /// The machine-tracked JSON artifact.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!("{{\n  \"bench\": \"{}\",\n", self.name);
        out.push_str(&EnvMeta::capture(self.transport).to_json_line());
        out.push_str(&format!("  \"transport\": \"{}\",\n", self.transport));
        if let Some(fit) = &self.fit {
            out.push_str(&format!(
                "  \"fit\": {{\"startup_s\": {:.9e}, \"per_byte_s\": {:.9e}, \"r_squared\": {:.4}, \"samples\": {}}},\n",
                fit.model.startup, fit.model.per_byte, fit.r_squared, fit.samples
            ));
        }
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"cell\": \"{}\", \"arm\": \"{}\", \"plan\": \"{}\", \"n\": {}, \"block\": {}, \
                 \"laps\": {}, \"min_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \
                 \"samples\": {}, \"p50_spread\": {:.4}, \"useful_bytes\": {}, \"mbps\": {:.2}, \
                 \"retransmits\": {}, \"probes\": {}, \"link_failures\": {}, \"reconnects\": {}, \
                 \"bit_correct\": {}",
                r.cell,
                r.arm.label,
                r.arm.plan,
                r.n,
                r.block,
                r.laps.len(),
                r.min_ns(),
                r.p50_ns(),
                r.p99_ns(),
                r.mean_ns(),
                r.sample_p50s.len(),
                r.p50_spread(),
                r.useful_bytes,
                r.mbps(),
                r.tally.retransmits,
                r.tally.probes,
                r.tally.link_failures,
                r.tally.reconnects,
                r.tally.bit_correct,
            ));
            for (k, v) in r.extras() {
                out.push_str(&format!(
                    ", \"{k}\": {}",
                    if v.is_finite() {
                        v.to_string()
                    } else {
                        "null".into()
                    }
                ));
            }
            out.push_str(if i + 1 < self.rows.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ],\n  \"criteria\": {");
        let crit: Vec<String> = self
            .criteria
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&crit.join(", "));
        out.push_str("}\n}\n");
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A row with the given pooled samples of laps, for arithmetic and
    /// criteria tests.
    pub(crate) fn row(cell: &str, arm: &str, samples: &[&[u64]]) -> Row {
        let cell = Cell {
            name: cell.into(),
            n: 4,
            block: 1000,
            useful_bytes: 12_000,
            legs: Vec::new(),
        };
        let mut r = Row::new(&cell, &Arm::new(arm, ""));
        for s in samples {
            r.push_sample(s.to_vec(), Tally::default());
        }
        r
    }

    #[test]
    fn percentiles_are_nearest_rank_and_clamp() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[5], 99), 5);
        assert_eq!(percentile(&[5], 0), 5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[1, 2, 3], 50), 2);
        assert_eq!(percentile(&[1, 2], 50), 1);
    }

    #[test]
    fn straggler_max_takes_the_slowest_rank_per_rep() {
        let a = [5u64, 1, 7];
        let b = [3u64, 9, 7];
        assert_eq!(straggler_max(&[&a, &b]), vec![5, 9, 7]);
        // A short rank bounds the rep count; no ranks means no laps.
        assert_eq!(straggler_max(&[&a, &b[..1]]), vec![5]);
        assert!(straggler_max(&[]).is_empty());
    }

    #[test]
    fn cycle_slots_permute_and_flip() {
        for m in 1..6 {
            for rep in 0..6 {
                let mut slots: Vec<usize> = (0..m).map(|p| cycle_slot(rep, p, m)).collect();
                assert_eq!(slots[0], rep % m, "the start rotates");
                slots.sort_unstable();
                assert_eq!(
                    slots,
                    (0..m).collect::<Vec<_>>(),
                    "each rep times every arm once"
                );
            }
        }
        // Odd reps run the cycle backwards.
        assert_eq!(
            (0..3).map(|p| cycle_slot(0, p, 3)).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(
            (0..3).map(|p| cycle_slot(1, p, 3)).collect::<Vec<_>>(),
            [1, 0, 2]
        );
    }

    #[test]
    fn row_stats_and_per_sample_spread() {
        let r = row("c", "a", &[&[30, 10, 20], &[40, 50, 60]]);
        assert_eq!(r.laps, vec![10, 20, 30, 40, 50, 60]);
        assert_eq!(r.sample_p50s, vec![20, 50]);
        assert_eq!(
            (r.min_ns(), r.p50_ns(), r.p99_ns(), r.mean_ns()),
            (10, 30, 60, 35)
        );
        assert!((r.p50_spread() - 1.0).abs() < 1e-12, "(50 − 20) / 30");
        assert_eq!(row("c", "a", &[&[7, 9]]).p50_spread(), 0.0);
        // 12 000 useful bytes per 35 ns mean lap.
        assert!((r.mbps() - 12_000.0 / 35e-9 / 1e6).abs() < 1e-6);
    }

    #[test]
    fn ratio_is_a_over_b_on_p50() {
        let rows = vec![row("c", "on", &[&[103]]), row("c", "off", &[&[100]])];
        assert!((ratio(&rows, "on", "off").unwrap() - 1.03).abs() < 1e-12);
        assert!((ratio(&rows, "off", "on").unwrap() - 100.0 / 103.0).abs() < 1e-12);
        assert!(ratio(&rows, "on", "missing").is_none());
        assert!(ratio(&rows[..1], "on", "off").is_none());
        assert!(ratio(&[row("c", "z", &[&[0]]), row("c", "y", &[&[0]])], "y", "z").is_none());
    }

    #[test]
    fn table_and_json_carry_every_row_and_criterion() {
        let mut rows = vec![row("alltoall", "pipelined", &[&[1_000, 2_000]])];
        rows.push(row("allgather", "pipelined", &[&[3_000]]));
        rows[1].tally.bit_correct = false;
        rows[1].arm.extra.push(("predicted_ns", 2500.0));
        let fit = LinearFit {
            model: bruck_model::cost::LinearModel::new(20e-6, 0.01e-6),
            r_squared: 0.9,
            samples: 6,
        };
        let bench = Bench::new("t", "uds", Some(fit), rows, vec![("ratio_x", num(1.5))]);
        assert!(!bench.all_bit_correct());
        let json = bench.json();
        for key in [
            "\"bench\": \"t\"",
            "\"env\": {",
            "\"r_squared\": 0.9000",
            "\"cell\": \"allgather\"",
            "\"laps\": 2",
            "\"samples\": 1",
            "\"p50_spread\": 0.0000",
            "\"predicted_ns\": 2500",
            "\"bit_correct\": false",
            "\"criteria\": {\"ratio_x\": 1.5000, \"all_bit_correct\": false}",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = bench.table();
        assert!(table.contains("alltoall") && table.contains("allgather"));
        assert!(table.contains("predicted_ns=2500") && table.contains("NO"));
        assert!(table.contains("ratio_x: 1.5000"));
        // Fit-less artifacts stay valid.
        let bare = Bench::new("t", "tcp", None, Vec::new(), Vec::new());
        assert!(!bare.json().contains("\"fit\""));
        assert!(bare
            .json()
            .contains("\"criteria\": {\"all_bit_correct\": true}"));
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn every_lap_is_checked_against_the_oracle() {
        let (n, block) = (2, 8);
        let tuning = bruck_collectives::api::Tuning::default();
        let cell = Cell {
            name: "c".into(),
            n,
            block,
            useful_bytes: 16,
            legs: vec![Leg::InRun {
                config: ClusterConfig::new(n),
                resilient: false,
                oracle: Box::new(move |rank| Oracle {
                    input: verify::index_input(rank, n, block),
                    expected: verify::index_expected(rank, n, block),
                }),
                arms: vec![
                    (
                        Arm::new("right", ""),
                        Box::new(move |ep, input, got| {
                            *got = bruck_collectives::api::alltoall(ep, input, block, &tuning)?;
                            Ok(())
                        }),
                    ),
                    // Hands back its own input: the untransposed blocks.
                    (
                        Arm::new("wrong", ""),
                        Box::new(|_, input, got| {
                            *got = input.to_vec();
                            Ok(())
                        }),
                    ),
                ],
            }],
        };
        let rows = run_cell(&cell, 3, 2).unwrap();
        assert!(rows[0].tally.bit_correct && !rows[1].tally.bit_correct);
        assert!(rows
            .iter()
            .all(|r| r.laps.len() == 6 && r.sample_p50s.len() == 2));
    }

    #[test]
    fn env_meta_is_sane_and_renders() {
        let env = EnvMeta::capture("tcp");
        assert!(env.cpus >= 1);
        assert_eq!(env.frag_payload, bruck_net::frame::FRAG_PAYLOAD);
        let line = env.to_json_line();
        assert!(line.contains("\"env\": {"));
        assert!(line.contains("\"transport\": \"tcp\""));
        assert!(line.ends_with(",\n"));
    }

    #[test]
    fn fit_warning_fires_only_below_floor() {
        let fit = |r2| LinearFit {
            model: bruck_model::cost::LinearModel::new(20e-6, 0.01e-6),
            r_squared: r2,
            samples: 10,
        };
        assert!(fit_warning(&fit(0.19)).unwrap().contains("0.19"));
        assert!(fit_warning(&fit(0.5)).is_none());
        assert!(fit_warning(&fit(0.97)).is_none());
    }
}
