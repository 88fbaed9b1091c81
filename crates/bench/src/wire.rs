//! The `bruckctl bench` modes, each a list of cells fed to the
//! shared [`runner`](crate::runner) plus a criteria map over its rows.
//!
//! | mode | artifact | cells and arms |
//! |---|---|---|
//! | [`pipelining`] | `BENCH_pr3.json` | alltoall, allgather: `pipelined` |
//! | [`autotune`] | `BENCH_pr4.json` | per block: `fixed-r<r>` × radices, `auto` |
//! | [`liveness`] | `BENCH_pr5.json` | `deadline-off`/`-on` paired in-run, `watchdog-off`/`-on` alternating runs |
//! | [`skew`] | `BENCH_pr6.json` | per Zipf `s`: `direct`, `padded`, `twophase`, `auto` |
//! | [`recovery`] | `BENCH_pr7.json` | `recovery-off` (`SocketCluster::run`) / `recovery-on` (`run_resilient`) |
//! | [`scale`] | `BENCH_pr9.json` | per n over TCP: `flat` / `two-level` |
//! | [`tcp_recovery`] | `BENCH_pr10.json` | `heal-off` / `heal-on`, then `mid-run-reconnect` |
//!
//! Every ratio a criterion quotes is one arm's p50 lap over another's,
//! within one cell.

use std::time::Duration;

use bruck_collectives::api::{allgather, alltoall, alltoall_auto, alltoall_deadline, Tuning};
use bruck_collectives::autotune::calibrated_fit;
use bruck_collectives::verify;
use bruck_collectives::vops::{alltoallv_auto_into, alltoallv_into, VLayout, VMethod};
use bruck_model::calibrate::{Calibrator, LinearFit};
use bruck_model::complexity::Complexity;
use bruck_model::cost::CostModel;
use bruck_model::planner::{IndexPlan, Planner, VIndexPlan};
use bruck_net::{ClusterConfig, FaultPlan, RecoveryPolicy, Reliability, SocketCluster};

pub use crate::runner::{fit_warning, Bench, Row};
use crate::runner::{num, ratio, run_cell, Arm, Cell, LapFn, Leg, Oracle, OracleFn};

/// Every knob any mode reads; each mode ignores the rest.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Cluster size.
    pub n: usize,
    /// Ports per round (the paper's `k`).
    pub ports: usize,
    /// Block size in bytes (the mean per-pair bytes under `skew`).
    pub block: usize,
    /// Timed laps per arm per sample.
    pub reps: usize,
    /// Independent cluster runs (or TCP run batches) per leg.
    pub samples: usize,
    /// Per-operation patience.
    pub timeout: Duration,
    /// Force this index radix instead of planner dispatch (`pipelining`).
    pub radix: Option<usize>,
    /// Block sizes `autotune` sweeps.
    pub blocks: Vec<usize>,
    /// Fixed radices `autotune` races the planner against.
    pub radices: Vec<usize>,
    /// Zipf exponents `skew` sweeps.
    pub svals: Vec<f64>,
    /// Zipf workload seed.
    pub seed: u64,
    /// Rank counts `scale` sweeps (each divisible by `node_size`).
    pub ns: Vec<usize>,
    /// Ranks per simulated TCP node.
    pub node_size: usize,
    /// TCP worker threads (`None` = the fabric's default).
    pub workers: Option<usize>,
    /// Whole-run TCP deadline budget (keeps the deadline layer armed).
    pub deadline: Duration,
}

impl Default for BenchConfig {
    /// The tracked shapes: `n = 8`, `k = 2`, 64 KiB blocks on UDS;
    /// n = 128–1024 with 32-rank nodes and 64 B blocks on TCP.
    fn default() -> Self {
        Self {
            n: 8,
            ports: 2,
            block: 64 * 1024,
            reps: 6,
            samples: 3,
            timeout: Duration::from_secs(60),
            radix: None,
            blocks: vec![256, 4096, 65536],
            radices: vec![2, 3, 4, 8],
            svals: vec![0.0, 0.5, 1.0, 1.5],
            seed: 6,
            ns: vec![128, 256, 512, 1024],
            node_size: 32,
            workers: None,
            deadline: Duration::from_secs(600),
        }
    }
}

/// Per-lap budget the `deadline-on` laps arm. Generous: the point is to
/// pay the arm/feasibility/clamped-wait bookkeeping on every lap, not
/// to ever trip it on a healthy wire.
const LIVENESS_LAP_BUDGET: Duration = Duration::from_secs(10);

fn uds_config(cfg: &BenchConfig) -> ClusterConfig {
    ClusterConfig::new(cfg.n)
        .with_ports(cfg.ports)
        .with_timeout(cfg.timeout)
        .with_reliability(Reliability::default())
}

fn index_oracle<'a>(n: usize, block: usize) -> OracleFn<'a> {
    Box::new(move |rank| Oracle {
        input: verify::index_input(rank, n, block),
        expected: verify::index_expected(rank, n, block),
    })
}

fn alltoall_lap<'a>(block: usize, tuning: Tuning) -> LapFn<'a> {
    Box::new(move |ep, input, got| {
        *got = alltoall(ep, input, block, &tuning)?;
        Ok(())
    })
}

fn in_run<'a>(config: ClusterConfig, oracle: OracleFn<'a>, arms: Vec<(Arm, LapFn<'a>)>) -> Leg<'a> {
    Leg::InRun {
        config,
        resilient: false,
        oracle,
        arms,
    }
}

/// A cell of an index-shaped collective: `n(n−1)b` useful bytes.
fn index_cell<'a>(name: impl Into<String>, n: usize, block: usize, legs: Vec<Leg<'a>>) -> Cell<'a> {
    Cell {
        name: name.into(),
        n,
        block,
        useful_bytes: (n * (n - 1) * block) as u64,
        legs,
    }
}

/// The largest of the per-cell ratios `pick` returns.
fn max_over_cells(rows: &[Row], pick: impl Fn(&[Row]) -> Option<f64>) -> f64 {
    rows.chunk_by(|a, b| a.cell == b.cell)
        .filter_map(pick)
        .fold(0.0, f64::max)
}

/// The arms `keep` selects with the lowest and highest p50 in one cell.
fn fastest_slowest(cell: &[Row], keep: impl Fn(&str) -> bool) -> Option<(&Row, &Row)> {
    let mut it = cell.iter().filter(|r| keep(&r.arm.label));
    let first = it.next()?;
    Some(it.fold((first, first), |(lo, hi), r| {
        (
            if r.p50_ns() < lo.p50_ns() { r } else { lo },
            if r.p50_ns() > hi.p50_ns() { r } else { hi },
        )
    }))
}

/// Fractional p50 cost of arm `on` over arm `off` (`0.03` = 3% slower),
/// or `0` when either is missing.
fn overhead(rows: &[Row], on: &str, off: &str) -> f64 {
    ratio(rows, on, off).map_or(0.0, |r| r - 1.0)
}

/// Run each cell, one after the other, and concatenate the rows.
fn run_all(cells: &[Cell<'_>], cfg: &BenchConfig) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for cell in cells {
        rows.extend(run_cell(cell, cfg.reps, cfg.samples)?);
    }
    Ok(rows)
}

/// The data plane's throughput: pipelined alltoall and allgather over
/// Unix sockets (`BENCH_pr3.json`; `--min-mbps` gates the alltoall row).
///
/// # Errors
///
/// The first failing cluster run.
pub fn pipelining(cfg: &BenchConfig) -> Result<Bench, String> {
    let (n, block) = (cfg.n, cfg.block);
    let tuning = match cfg.radix {
        Some(r) => Tuning::builder().radix(r).build(),
        None => Tuning::builder().planner(true).build(),
    };
    let plan = tuning.chosen_plan(n, block, cfg.ports).plan.label();
    let gather = tuning.clone();
    let cells = [
        index_cell(
            "alltoall",
            n,
            block,
            vec![in_run(
                uds_config(cfg),
                index_oracle(n, block),
                vec![(Arm::new("pipelined", plan), alltoall_lap(block, tuning))],
            )],
        ),
        index_cell(
            "allgather",
            n,
            block,
            vec![in_run(
                uds_config(cfg),
                Box::new(move |rank| Oracle {
                    input: verify::concat_input(rank, block),
                    expected: verify::concat_expected(n, block),
                }),
                vec![(
                    Arm::new("pipelined", "bruck-concat"),
                    Box::new(move |ep, input, got| {
                        *got = allgather(ep, input, &gather)?;
                        Ok(())
                    }),
                )],
            )],
        ),
    ];
    let rows = run_all(&cells, cfg)?;
    Ok(Bench::new(
        "pr3-wire-pipelining",
        "uds",
        None,
        rows,
        Vec::new(),
    ))
}

/// Probe the socket transport once; every later cluster run reuses the
/// fit from the process-wide calibration cache.
///
/// # Errors
///
/// Cluster setup or probe failures, as a message.
fn probe_socket_fit(cfg: &BenchConfig) -> Result<LinearFit, String> {
    let out = SocketCluster::run(&uds_config(cfg), calibrated_fit)
        .map_err(|e| format!("calibration probe: {e}"))?;
    Ok(out.results[0])
}

/// Planner dispatch against every fixed radix, per block size, over a
/// live calibrated fit (`BENCH_pr4.json`).
///
/// # Errors
///
/// The first failing probe or cluster run.
pub fn autotune(cfg: &BenchConfig) -> Result<Bench, String> {
    let (n, k) = (cfg.n, cfg.ports);
    let fit = probe_socket_fit(cfg)?;
    let planner = Planner::new(&fit.model);
    let mut rows = Vec::new();
    for &block in &cfg.blocks {
        let arm = |label: String, plan: &IndexPlan| {
            let c = planner.index_complexity(plan, n, k, block);
            Arm {
                label,
                plan: plan.label(),
                extra: vec![
                    ("rounds", c.c1 as f64),
                    ("predicted_ns", (fit.model.estimate(c) * 1e9).round()),
                ],
            }
        };
        let mut arms: Vec<(Arm, LapFn<'_>)> = cfg
            .radices
            .iter()
            .map(|&r| {
                let tuning = Tuning::builder().radix(r).build();
                let plan = tuning.chosen_plan(n, block, k).plan;
                (
                    arm(format!("fixed-r{r}"), &plan),
                    alltoall_lap(block, tuning),
                )
            })
            .collect();
        let model = fit.model;
        arms.push((
            arm("auto".into(), &planner.plan_index(n, k, block).plan),
            Box::new(move |ep, input, got| {
                *got = alltoall_auto(ep, input, block, &model)?.0;
                Ok(())
            }),
        ));
        let legs = vec![in_run(uds_config(cfg), index_oracle(n, block), arms)];
        let cell = index_cell(format!("b={block}"), n, block, legs);
        rows.extend(run_cell(&cell, cfg.reps, cfg.samples)?);
    }
    let criteria = autotune_criteria(&rows);
    Ok(Bench::new("pr4-autotune", "uds", Some(fit), rows, criteria))
}

fn autotune_criteria(rows: &[Row]) -> Vec<(&'static str, String)> {
    let fixed = |l: &str| l.starts_with("fixed-");
    let vs_best = max_over_cells(rows, |c| {
        ratio(c, "auto", &fastest_slowest(c, fixed)?.0.arm.label)
    });
    let worst_vs = max_over_cells(rows, |c| {
        ratio(c, &fastest_slowest(c, fixed)?.1.arm.label, "auto")
    });
    vec![
        ("max_auto_vs_best", num(vs_best)),
        (
            "within_5pct_of_best_everywhere",
            (vs_best <= 1.05).to_string(),
        ),
        ("max_worst_vs_auto", num(worst_vs)),
        (
            "beats_worst_by_1_3x_somewhere",
            (worst_vs >= 1.3).to_string(),
        ),
    ]
}

/// The wall-clock price of the liveness layer (`BENCH_pr5.json`): a
/// per-collective deadline armed vs not, paired lap by lap in one run,
/// and the straggler watchdog on vs off, alternating whole runs.
///
/// # Errors
///
/// The first failing cluster run.
pub fn liveness(cfg: &BenchConfig) -> Result<Bench, String> {
    let (n, block) = (cfg.n, cfg.block);
    let tuning = Tuning::builder().planner(true).build();
    let plan = tuning.chosen_plan(n, block, cfg.ports).plan.label();
    let armed = tuning.clone();
    let no_probes = uds_config(cfg)
        .with_reliability(Reliability::default().with_probing(Duration::from_millis(25), 0));
    let legs = vec![
        in_run(
            uds_config(cfg),
            index_oracle(n, block),
            vec![
                (
                    Arm::new("deadline-off", &plan),
                    alltoall_lap(block, tuning.clone()),
                ),
                (
                    Arm::new("deadline-on", &plan),
                    Box::new(move |ep, input, got| {
                        *got = alltoall_deadline(ep, input, block, &armed, LIVENESS_LAP_BUDGET)?;
                        Ok(())
                    }),
                ),
            ],
        ),
        in_run(
            no_probes,
            index_oracle(n, block),
            vec![(
                Arm::new("watchdog-off", &plan),
                alltoall_lap(block, tuning.clone()),
            )],
        ),
        in_run(
            uds_config(cfg),
            index_oracle(n, block),
            vec![(Arm::new("watchdog-on", &plan), alltoall_lap(block, tuning))],
        ),
    ];
    let cell = index_cell("liveness", n, block, legs);
    let rows = run_cell(&cell, cfg.reps, cfg.samples)?;
    let dl = overhead(&rows, "deadline-on", "deadline-off");
    let wd = overhead(&rows, "watchdog-on", "watchdog-off");
    let criteria = vec![
        ("deadline_overhead", num(dl)),
        ("watchdog_overhead", num(wd)),
        ("under_5pct", (dl < 0.05 && wd < 0.05).to_string()),
    ];
    Ok(Bench::new(
        "pr5-liveness-overhead",
        "uds",
        None,
        rows,
        criteria,
    ))
}

/// The steady-state price of the membership layer (`BENCH_pr7.json`):
/// the same faultless alltoall under [`SocketCluster::run`] vs
/// [`SocketCluster::run_resilient`] with `WaitForRejoin` armed,
/// alternating whole runs.
///
/// # Errors
///
/// The first failing cluster run.
pub fn recovery(cfg: &BenchConfig) -> Result<Bench, String> {
    let (n, block) = (cfg.n, cfg.block);
    let tuning = Tuning::builder().planner(true).build();
    let plan = tuning.chosen_plan(n, block, cfg.ports).plan.label();
    let config = uds_config(cfg).with_recovery(RecoveryPolicy::WaitForRejoin {
        budget: Duration::from_millis(100),
    });
    let leg = |label: &str, resilient: bool| Leg::InRun {
        config: config.clone(),
        resilient,
        oracle: index_oracle(n, block),
        arms: vec![(Arm::new(label, &plan), alltoall_lap(block, tuning.clone()))],
    };
    let legs = vec![leg("recovery-off", false), leg("recovery-on", true)];
    let cell = index_cell("recovery", n, block, legs);
    let rows = run_cell(&cell, cfg.reps, cfg.samples)?;
    let ov = overhead(&rows, "recovery-on", "recovery-off");
    let criteria = vec![
        ("recovery_overhead", num(ov)),
        ("under_5pct", (ov < 0.05).to_string()),
    ];
    Ok(Bench::new(
        "pr7-recovery-overhead",
        "uds",
        None,
        rows,
        criteria,
    ))
}

/// Pick the cheapest padded radix and the cheapest two-phase
/// `(radix, quota)` for a size matrix under a model — the forced
/// schemes the sweep races, so "padded" always means *the best padded
/// member*, not an arbitrary radix.
fn best_family_members(
    n: usize,
    k: usize,
    matrix: &[u64],
    model: &dyn CostModel,
) -> (VIndexPlan, VIndexPlan) {
    let planner = Planner::new(model);
    let pick = |plans: Vec<VIndexPlan>| -> VIndexPlan {
        plans
            .into_iter()
            .min_by(|a, b| {
                let ta = model.estimate(planner.vindex_complexity(a, n, k, matrix));
                let tb = model.estimate(planner.vindex_complexity(b, n, k, matrix));
                ta.partial_cmp(&tb).expect("finite estimates")
            })
            .expect("non-empty candidate list")
    };
    let padded = pick((2..=n).map(|radix| VIndexPlan::Padded { radix }).collect());
    let mut quotas = bruck_model::planner::quota_candidates(n, matrix);
    if quotas.is_empty() {
        // Degenerate (uniform) workload: any quota ≥ max reduces to
        // padded; race that so the scheme still exists in the table.
        quotas.push(usize::MAX);
    }
    let two = pick(
        quotas
            .iter()
            .flat_map(|&quota| (2..=n).map(move |radix| VIndexPlan::TwoPhase { radix, quota }))
            .collect(),
    );
    (padded, two)
}

/// The non-uniform family over seeded Zipf workloads (`BENCH_pr6.json`):
/// forced direct, best padded and best two-phase against
/// `alltoallv_auto`'s dispatch, per exponent `s`.
///
/// # Errors
///
/// The first failing probe or cluster run.
pub fn skew(cfg: &BenchConfig) -> Result<Bench, String> {
    let (n, k) = (cfg.n, cfg.ports);
    let fit = probe_socket_fit(cfg)?;
    let planner = Planner::new(&fit.model);
    let mut rows = Vec::new();
    for &s in &cfg.svals {
        let matrix = crate::skew::zipf_matrix(n, cfg.block, s, cfg.seed);
        let sizes: Vec<u64> = matrix.iter().map(|&c| c as u64).collect();
        let skew_ratio = bruck_model::planner::skew_ratio(n, &sizes);
        let layouts: Vec<VLayout> = (0..n)
            .map(|r| VLayout::from_counts(&matrix[r * n..(r + 1) * n]))
            .collect();
        let (padded, two) = best_family_members(n, k, &sizes, &fit.model);
        let (layouts, matrix) = (&layouts, &matrix);
        let arm = |label: &str, plan: &VIndexPlan| Arm {
            label: label.into(),
            plan: plan.label(),
            extra: vec![
                ("s", s),
                ("skew_ratio", (skew_ratio * 1e3).round() / 1e3),
                (
                    "predicted_ns",
                    (fit.model
                        .estimate(planner.vindex_complexity(plan, n, k, &sizes))
                        * 1e9)
                        .round(),
                ),
            ],
        };
        let forced = |plan: VIndexPlan| -> LapFn<'_> {
            let method = match plan {
                VIndexPlan::Direct => VMethod::Direct,
                VIndexPlan::Padded { radix } => VMethod::Padded { radix },
                VIndexPlan::TwoPhase { radix, quota } => VMethod::TwoPhase {
                    radix,
                    quota: Some(quota),
                },
            };
            let tuning = Tuning::builder().vmethod(method).build();
            Box::new(move |ep, input, got| {
                alltoallv_into(ep, input, &layouts[ep.rank()], &tuning, got)?;
                Ok(())
            })
        };
        let model = fit.model;
        let arms: Vec<(Arm, LapFn<'_>)> = vec![
            (
                arm("direct", &VIndexPlan::Direct),
                forced(VIndexPlan::Direct),
            ),
            (arm("padded", &padded), forced(padded)),
            (arm("twophase", &two), forced(two)),
            (
                arm("auto", &planner.plan_vindex(n, k, &sizes).plan),
                Box::new(move |ep, input, got| {
                    alltoallv_auto_into(ep, input, &layouts[ep.rank()], &model, got)?;
                    Ok(())
                }),
            ),
        ];
        let oracle: OracleFn<'_> = Box::new(move |rank| Oracle {
            input: (0..n)
                .flat_map(|dst| {
                    (0..matrix[rank * n + dst]).map(move |t| verify::content_byte(rank, dst, t))
                })
                .collect(),
            expected: (0..n)
                .flat_map(|src| {
                    (0..matrix[src * n + rank]).map(move |t| verify::content_byte(src, rank, t))
                })
                .collect(),
        });
        let useful_bytes = (0..n * n)
            .filter(|&c| c / n != c % n)
            .map(|c| sizes[c])
            .sum();
        let cell = Cell {
            name: format!("s={s:.2}"),
            n,
            block: cfg.block,
            useful_bytes,
            legs: vec![in_run(uds_config(cfg), oracle, arms)],
        };
        rows.extend(run_cell(&cell, cfg.reps, cfg.samples)?);
    }
    let criteria = skew_criteria(&rows);
    Ok(Bench::new("pr6-skew", "uds", Some(fit), rows, criteria))
}

fn skew_criteria(rows: &[Row]) -> Vec<(&'static str, String)> {
    let forced = |l: &str| l != "auto";
    let family = |l: &str| l == "padded" || l == "twophase";
    let vs_best = max_over_cells(rows, |c| {
        ratio(c, "auto", &fastest_slowest(c, forced)?.0.arm.label)
    });
    let family_wins_low_skew = rows.chunk_by(|a, b| a.cell == b.cell).any(|c| {
        c[0].extra("s").is_some_and(|s| s <= 0.75)
            && fastest_slowest(c, family)
                .and_then(|(best, _)| ratio(c, "direct", &best.arm.label))
                .is_some_and(|r| r > 1.0)
    });
    vec![
        ("max_auto_vs_best", num(vs_best)),
        (
            "within_10pct_of_best_everywhere",
            (vs_best <= 1.10).to_string(),
        ),
        (
            "family_beats_direct_at_low_skew",
            family_wins_low_skew.to_string(),
        ),
    ]
}

fn tcp_config(cfg: &BenchConfig, n: usize) -> Result<ClusterConfig, String> {
    if cfg.node_size == 0 || !n.is_multiple_of(cfg.node_size) {
        return Err(format!(
            "node_size {} must evenly partition n={n}",
            cfg.node_size
        ));
    }
    Ok(ClusterConfig::new(n)
        .with_node_size(cfg.node_size)
        .with_timeout(cfg.timeout)
        .with_deadline(cfg.deadline)
        .with_reliability(Reliability::default()))
}

fn two_level(cfg: &BenchConfig) -> IndexPlan {
    IndexPlan::Hierarchical {
        node_size: cfg.node_size,
        radix_local: 2,
        radix_remote: 2,
    }
}

fn tcp_leg<'a>(
    label: &str,
    config: ClusterConfig,
    plan: IndexPlan,
    inputs: &'a [Vec<u8>],
    cfg: &BenchConfig,
) -> Leg<'a> {
    Leg::Tcp {
        arm: Arm::new(label, plan.label()),
        config,
        plan,
        inputs,
        workers: cfg.workers,
    }
}

fn index_inputs(n: usize, block: usize) -> Vec<Vec<u8>> {
    (0..n).map(|r| verify::index_input(r, n, block)).collect()
}

/// Flat single-level vs two-level hierarchical plans over the
/// event-driven TCP fabric, per n (`BENCH_pr9.json`), plus a TCP-wire
/// cost model fitted to every lap's measured `(C1, C2)`.
///
/// # Errors
///
/// Shape errors and the first failing run.
pub fn scale(cfg: &BenchConfig) -> Result<Bench, String> {
    let mut rows = Vec::new();
    for &n in &cfg.ns {
        let config = tcp_config(cfg, n)?;
        let inputs = index_inputs(n, cfg.block);
        let legs = vec![
            tcp_leg("flat", config.clone(), IndexPlan::Radix(2), &inputs, cfg),
            tcp_leg("two-level", config, two_level(cfg), &inputs, cfg),
        ];
        let cell = index_cell(format!("n={n}"), n, cfg.block, legs);
        rows.extend(run_cell(&cell, cfg.reps, cfg.samples)?);
    }
    let mut cal = Calibrator::new();
    for r in &rows {
        if let (Some(c1), Some(c2)) = (r.extra("rounds"), r.extra("c2_bytes")) {
            for &lap in &r.laps {
                cal.record_run(Complexity::new(c1 as u64, c2 as u64), lap as f64 / 1e9);
            }
        }
    }
    let criteria = scale_criteria(&rows);
    Ok(Bench::new(
        "pr9-tcp-scale",
        "tcp",
        cal.try_fit(),
        rows,
        criteria,
    ))
}

fn scale_criteria(rows: &[Row]) -> Vec<(&'static str, String)> {
    let guards_armed = rows.iter().all(|r| r.tally.probes > 0);
    let threads_bounded = rows.iter().all(|r| {
        let (threads, workers) = (
            r.extra("threads").unwrap_or(0.0),
            r.extra("workers").unwrap_or(0.0),
        );
        threads <= workers + 1.0 && threads < r.n as f64
    });
    let speedups: Vec<f64> = rows
        .chunk_by(|a, b| a.cell == b.cell)
        .filter(|c| c[0].n >= 128)
        .filter_map(|c| ratio(c, "flat", "two-level"))
        .collect();
    let two_level_wins = !speedups.is_empty() && speedups.iter().all(|&s| s > 1.0);
    let mut criteria = vec![
        ("watchdog_armed_everywhere", guards_armed.to_string()),
        ("threads_o_workers_not_o_n", threads_bounded.to_string()),
        (
            "two_level_beats_flat_at_128_plus",
            two_level_wins.to_string(),
        ),
    ];
    if let (Some(lo), Some(hi)) = (
        speedups.iter().copied().reduce(f64::min),
        speedups.iter().copied().reduce(f64::max),
    ) {
        criteria.push(("flat_vs_two_level_min", num(lo)));
        criteria.push(("flat_vs_two_level_max", num(hi)));
    }
    criteria
}

/// The price of the TCP fabric's connection healing (`BENCH_pr10.json`):
/// the same faultless collective with healing off vs armed, alternating
/// whole runs, then one cell that heals through a mid-run connection
/// reset between the first two nodes.
///
/// # Errors
///
/// Shape errors and the first failing run.
pub fn tcp_recovery(cfg: &BenchConfig) -> Result<Bench, String> {
    let n = cfg.n;
    let base = tcp_config(cfg, n)?;
    if n / cfg.node_size < 2 {
        return Err("the reconnect cell needs at least two nodes".into());
    }
    let inputs = index_inputs(n, cfg.block);
    let reset = base
        .clone()
        .with_faults(FaultPlan::new().with_conn_reset(0, cfg.node_size, 1))
        .with_healing(true);
    let leg = |label, config| tcp_leg(label, config, two_level(cfg), &inputs, cfg);
    let cells = [
        index_cell(
            "heal",
            n,
            cfg.block,
            vec![
                leg("heal-off", base.clone().with_healing(false)),
                leg("heal-on", base.with_healing(true)),
            ],
        ),
        index_cell("reset", n, cfg.block, vec![leg("mid-run-reconnect", reset)]),
    ];
    let rows = run_all(&cells, cfg)?;
    let ov = overhead(&rows, "heal-on", "heal-off");
    let healed = rows
        .iter()
        .find(|r| r.arm.label == "mid-run-reconnect")
        .is_some_and(|r| r.tally.bit_correct && r.tally.reconnects > 0);
    let criteria = vec![
        ("healing_overhead", num(ov)),
        ("under_5pct", (ov < 0.05).to_string()),
        ("reconnect_healed_bit_correct", healed.to_string()),
    ];
    Ok(Bench::new("pr10-tcp-recovery", "tcp", None, rows, criteria))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::row;

    fn crit<'c>(criteria: &'c [(&'static str, String)], key: &str) -> &'c str {
        &criteria.iter().find(|(k, _)| *k == key).unwrap().1
    }

    #[test]
    fn overhead_is_on_over_off_minus_one() {
        let rows = vec![row("c", "on", &[&[103]]), row("c", "off", &[&[100]])];
        assert!((overhead(&rows, "on", "off") - 0.03).abs() < 1e-12);
        assert!((overhead(&rows, "off", "on") + 3.0 / 103.0).abs() < 1e-12);
        assert_eq!(overhead(&rows[..1], "on", "off"), 0.0);
    }

    #[test]
    fn autotune_criteria_compare_auto_with_best_and_worst_fixed() {
        let rows = vec![
            row("b=256", "fixed-r2", &[&[3_000]]),
            row("b=256", "fixed-r3", &[&[1_000]]),
            row("b=256", "auto", &[&[1_010]]),
            row("b=4096", "fixed-r2", &[&[2_000]]),
            row("b=4096", "auto", &[&[2_000]]),
        ];
        let c = autotune_criteria(&rows);
        assert_eq!(crit(&c, "max_auto_vs_best"), "1.0100");
        assert_eq!(crit(&c, "within_5pct_of_best_everywhere"), "true");
        assert_eq!(crit(&c, "max_worst_vs_auto"), num(3_000.0 / 1_010.0));
        assert_eq!(crit(&c, "beats_worst_by_1_3x_somewhere"), "true");
    }

    #[test]
    fn skew_criteria_rank_forced_members_per_point() {
        let mut rows = vec![
            row("s=0.50", "direct", &[&[1_200]]),
            row("s=0.50", "padded", &[&[1_000]]),
            row("s=0.50", "twophase", &[&[1_100]]),
            row("s=0.50", "auto", &[&[1_150]]),
        ];
        for r in &mut rows {
            r.arm.extra.push(("s", 0.5));
        }
        let c = skew_criteria(&rows);
        assert_eq!(crit(&c, "max_auto_vs_best"), "1.1500");
        assert_eq!(crit(&c, "within_10pct_of_best_everywhere"), "false");
        assert_eq!(crit(&c, "family_beats_direct_at_low_skew"), "true");
    }

    #[test]
    fn scale_criteria_pair_flat_with_two_level() {
        let mut rows = vec![
            row("n=128", "flat", &[&[3_000]]),
            row("n=128", "two-level", &[&[2_000]]),
            row("n=256", "flat", &[&[9_000]]),
            row("n=256", "two-level", &[&[4_500]]),
        ];
        for r in &mut rows {
            r.n = 128;
            r.tally.probes = 1;
            r.tally.extra = vec![("workers", 1.0), ("threads", 2.0)];
        }
        let c = scale_criteria(&rows);
        assert_eq!(crit(&c, "two_level_beats_flat_at_128_plus"), "true");
        assert_eq!(crit(&c, "watchdog_armed_everywhere"), "true");
        assert_eq!(crit(&c, "threads_o_workers_not_o_n"), "true");
        assert_eq!(crit(&c, "flat_vs_two_level_min"), "1.5000");
        assert_eq!(crit(&c, "flat_vs_two_level_max"), "2.0000");
        rows[3].laps = vec![10_000];
        rows[0].tally.probes = 0;
        let c = scale_criteria(&rows);
        assert_eq!(crit(&c, "two_level_beats_flat_at_128_plus"), "false");
        assert_eq!(crit(&c, "watchdog_armed_everywhere"), "false");
    }

    /// A shape small enough that every mode runs end to end in the suite.
    fn small() -> BenchConfig {
        BenchConfig {
            n: 4,
            ports: 1,
            block: 512,
            reps: 2,
            samples: 1,
            timeout: Duration::from_secs(30),
            blocks: vec![512],
            radices: vec![2, 4],
            svals: vec![0.0, 1.0],
            ns: vec![16],
            node_size: 4,
            workers: Some(2),
            deadline: Duration::from_secs(120),
            ..BenchConfig::default()
        }
    }

    /// Every row of `bench` verified, timed and labelled in mode order.
    fn assert_rows(bench: &Bench, arms: &[&str]) {
        let got: Vec<&str> = bench.rows.iter().map(|r| r.arm.label.as_str()).collect();
        assert_eq!(got, arms, "{}", bench.name);
        assert!(bench.all_bit_correct(), "{}", bench.table());
        for r in &bench.rows {
            assert!(r.laps.len() >= 2 && r.min_ns() > 0, "{}", bench.table());
            assert!(r.p99_ns() >= r.p50_ns() && r.mbps() > 0.0);
        }
        let json = bench.json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"all_bit_correct\": true"));
    }

    #[test]
    fn pipelining_runs_end_to_end() {
        let bench = pipelining(&small()).unwrap();
        assert_rows(&bench, &["pipelined", "pipelined"]);
        assert_eq!(bench.rows[0].cell, "alltoall");
        assert_eq!(bench.rows[0].useful_bytes, 4 * 3 * 512);
    }

    #[test]
    fn autotune_runs_end_to_end() {
        let bench = autotune(&small()).unwrap();
        assert_rows(&bench, &["fixed-r2", "fixed-r4", "auto"]);
        assert!(bench.fit.is_some_and(|f| f.samples > 0));
        assert!(bench.rows.iter().all(|r| r.extra("predicted_ns").is_some()));
        assert!(!bench.rows[2].arm.plan.is_empty());
    }

    #[test]
    fn liveness_runs_end_to_end() {
        let bench = liveness(&small()).unwrap();
        assert_rows(
            &bench,
            &["deadline-off", "deadline-on", "watchdog-off", "watchdog-on"],
        );
        assert!(bench
            .criteria
            .iter()
            .any(|(k, _)| *k == "watchdog_overhead"));
    }

    #[test]
    fn recovery_runs_end_to_end() {
        let bench = recovery(&small()).unwrap();
        assert_rows(&bench, &["recovery-off", "recovery-on"]);
        assert!(bench
            .criteria
            .iter()
            .any(|(k, _)| *k == "recovery_overhead"));
    }

    #[test]
    fn skew_runs_end_to_end() {
        let bench = skew(&small()).unwrap();
        let point = ["direct", "padded", "twophase", "auto"];
        assert_rows(&bench, &[point, point].concat());
        assert_eq!(bench.rows[4].cell, "s=1.00");
        assert!(bench.rows.iter().all(|r| r.extra("skew_ratio").is_some()));
    }

    #[test]
    fn scale_runs_end_to_end() {
        let bench = scale(&small()).unwrap();
        assert_rows(&bench, &["flat", "two-level"]);
        assert!(bench
            .rows
            .iter()
            .all(|r| r.extra("threads").unwrap() <= r.extra("workers").unwrap() + 1.0));
        assert!(scale(&BenchConfig {
            ns: vec![10],
            ..small()
        })
        .is_err());
    }

    #[test]
    fn tcp_recovery_runs_end_to_end() {
        let bench = tcp_recovery(&BenchConfig { n: 16, ..small() }).unwrap();
        assert_rows(&bench, &["heal-off", "heal-on", "mid-run-reconnect"]);
        let reset = &bench.rows[2];
        assert!(reset.tally.reconnects > 0 && reset.tally.link_failures > 0);
        assert!(bench
            .criteria
            .contains(&("reconnect_healed_bit_correct", "true".into())));
    }
}
