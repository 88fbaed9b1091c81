//! The repository benchmark: four collective workloads run through the
//! public API, every collective checked against an oracle, end-to-end
//! metrics from an untraced run and a per-layer split from a separate
//! traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload index_small --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records provenance (machine, source, plan, sample counts).

mod floors;
mod layers;
mod stats;
mod tcp;
mod trace;
mod uds;
mod workload;

use std::time::{Duration, Instant};

use bruck_model::planner::IndexPlan;
use layers::Counters;
use stats::{chunked, chunks, json_number, json_string, mean, median, ratio, tail, Report, Tally};
use workload::{Substrate, Workload, WORKLOADS};

/// Fresh clusters built per run to measure set-up (the median is
/// reported): at least this many, more while set-up has used less
/// than [`SETUP_SHARE`] of the run.
const SETUP_MIN_REPS: usize = 5;

/// Share of the run's seconds that repeated set-ups may fill.
const SETUP_SHARE: f64 = 0.05;

/// Most set-ups per run.
const SETUP_MAX_REPS: usize = 50;

/// Fewest timed TCP laps in the end-to-end run, so the p90 has ten
/// laps beyond it.
const TCP_MIN_LAPS: usize = 100;

/// Fewest timed TCP laps in each half of the traced run.
const TCP_TRACE_MIN_LAPS: usize = 30;

/// Untimed TCP collectives before the timed ones.
const TCP_WARM: usize = 3;

/// How far the traced layer parts may stray from the traced lap wall.
const LAYER_SUM_TOLERANCE_PCT: f64 = 5.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within [1, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let mut r = Report::default();
    stamp_common(&mut r, &args);
    let cpu_before = cpu_times();
    match (w.substrate, args.trace) {
        (Substrate::Uds, false) => uds_end_to_end(&mut r, &args),
        (Substrate::Tcp, false) => tcp_end_to_end(&mut r, &args),
        (Substrate::Uds, true) => uds_traced(&mut r, &args),
        (Substrate::Tcp, true) => tcp_traced(&mut r, &args),
    }
    r.stamp(
        "cpu_steal_pct",
        json_number(100.0 * steal_share(cpu_before, cpu_times())),
    );
    // Every cluster removed its own socket directory already.
    let _ = std::fs::remove_dir(uds::SOCKET_ROOT);
    print(&r, &args);
}

/// Seconds left of the run's budget, counted from `start`.
fn remaining(args: &Args, start: Instant) -> Duration {
    Duration::from_secs_f64(args.seconds).saturating_sub(start.elapsed())
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The end-to-end latency and goodput metrics shared by both
/// substrates. `stretches` holds `(collectives, wall ns)` of each
/// back-to-back stretch; goodput is their median.
fn lap_metrics(r: &mut Report, laps: &[f64], stretches: &[(usize, f64)], w: &Workload) {
    let (p50, p90) = chunked(laps);
    let first = chunks(laps)[0];
    r.metric("lap_p50_ms", ms(p50), "ms");
    r.metric("lap_p90_ms", ms(p90), "ms");
    let goodputs: Vec<f64> = stretches
        .iter()
        .map(|&(count, ns)| ratio(count as f64 * w.useful_bytes() as f64, ns / 1e9) / 1e6)
        .collect();
    r.metric("goodput_mbps", median(&goodputs), "MB/s");
    r.stamp("laps", laps.len());
    r.stamp("lap_chunks", chunks(laps).len());
    r.stamp("laps_per_chunk", first.len());
    r.stamp("lap_p90_percentile", json_number(tail(first).1));
    r.stamp("goodput_stretches", stretches.len());
    r.stamp(
        "goodput_collectives",
        stretches.iter().map(|s| s.0).sum::<usize>(),
    );
}

/// Repeated set-ups of fresh clusters, in seconds.
fn setups(
    r: &mut Report,
    args: &Args,
    start: Instant,
    once: fn(&Workload, u64, &mut Tally) -> Result<Duration, bruck_net::NetError>,
) -> Vec<f64> {
    let budget = Duration::from_secs_f64(args.seconds * SETUP_SHARE);
    let mut out = Vec::new();
    while out.len() < SETUP_MIN_REPS || (start.elapsed() < budget && out.len() < SETUP_MAX_REPS) {
        match once(&args.workload, args.seed, &mut r.tally) {
            Ok(d) => out.push(d.as_secs_f64()),
            Err(e) => {
                r.violations.push(format!("set-up: {e}"));
                break;
            }
        }
    }
    out
}

fn setup_metric(r: &mut Report, setups: &[f64]) {
    r.metric("setup_s", median(setups), "s");
    r.stamp("setup_reps", setups.len());
}

fn fail(r: &mut Report, what: &str, e: impl std::fmt::Display, tally: Tally) {
    r.tally.add(tally);
    r.violations.push(format!("{what}: {e}"));
}

/// Rounds of fresh clusters, one per entry of `kinds` (traced or not)
/// in each round, until another round would overrun the run's seconds;
/// merges what each kind measured. A failed cluster is recorded and
/// ends the series.
fn uds_passes(
    r: &mut Report,
    args: &Args,
    start: Instant,
    kinds: &[bool],
    window: bool,
) -> Vec<uds::Pass> {
    let mut merged: Vec<uds::Pass> = kinds.iter().map(|_| uds::Pass::default()).collect();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rounds = 0;
    'rounds: loop {
        let round_start = Instant::now();
        for (kind, &traced) in kinds.iter().enumerate() {
            match uds::pass(&args.workload, args.seed, window, traced) {
                Ok(p) => merged[kind].extend(p),
                Err((e, tally)) => {
                    fail(r, if traced { "traced pass" } else { "pass" }, e, tally);
                    break 'rounds;
                }
            }
        }
        rounds += 1;
        if start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    for p in &merged {
        r.tally.add(p.tally);
    }
    r.stamp("clusters_per_kind", rounds);
    merged
}

fn uds_end_to_end(r: &mut Report, args: &Args) {
    let start = Instant::now();
    let setups = setups(r, args, start, uds::setup_once);
    let p = uds_passes(r, args, start, &[false], true).remove(0);
    lap_metrics(r, &p.laps, &p.stretches, &args.workload);
    stamp_counters(r, &p.counters);
    r.stamp("barrier_calls", p.barriers.calls);
    setup_metric(r, &setups);
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

fn tcp_end_to_end(r: &mut Report, args: &Args) {
    let w = &args.workload;
    let start = Instant::now();
    let setups = setups(r, args, start, tcp::setup_once);
    let until = remaining(args, start);
    let p = tcp::pass(w, args.seed, TCP_WARM, until, TCP_MIN_LAPS).unwrap_or_else(|(e, tally)| {
        fail(r, "pass", e, tally);
        tcp::Pass::default()
    });
    r.tally.add(p.tally);
    // Collectives follow each other directly: the lap chunks are the
    // back-to-back stretches.
    let stretches: Vec<(usize, f64)> = chunks(&p.laps)
        .into_iter()
        .map(|c| (c.len(), c.iter().sum()))
        .collect();
    lap_metrics(r, &p.laps, &stretches, w);
    stamp_counters(r, &p.total());
    r.stamp("threads", p.threads);
    setup_metric(r, &setups);
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Floors and standalone layer timings, shared by both traced runs.
fn standalone(r: &mut Report, w: &Workload) {
    let (buffer, llc) = floors::memcpy_sizes();
    r.metric("floor.memcpy_gbps", floors::memcpy_gbps(buffer), "GB/s");
    r.stamp("memcpy_buffer_bytes", buffer);
    r.stamp("llc_bytes", llc);
    r.stamp("llc_read", floors::llc_bytes().is_some());
    let blast = Duration::from_millis(300);
    for (name, floor) in [
        ("floor.uds_mbps", floors::uds_mbps(blast)),
        ("floor.tcp_mbps", floors::tcp_mbps(blast)),
    ] {
        let v = floor.unwrap_or_else(|e| {
            r.violations.push(format!("{name}: {e}"));
            0.0
        });
        r.metric(name, v, "MB/s");
    }
    r.metric("model.plan_us", layers::plan_us(w), "us");
    r.metric("model.lower_ms", layers::lower_ms(w), "ms");
    let (rotate, pack, unpack) = layers::local_phases_us(w);
    r.metric("collectives.rotate_us", rotate, "us");
    r.metric("collectives.pack_us", pack, "us");
    r.metric("collectives.unpack_us", unpack, "us");
    let tcp_setup = match w.substrate {
        Substrate::Tcp => layers::tcp_setup_ms(w).unwrap_or_else(|e| {
            r.violations.push(format!("tcp fabric set-up: {e}"));
            0.0
        }),
        Substrate::Uds => 0.0,
    };
    r.metric("tcp.setup_ms", tcp_setup, "ms");
}

/// Per-layer metrics that come from the program's own counters.
fn counter_metrics(r: &mut Report, c: &Counters) {
    r.metric("model.c1_rounds", c.per_lap(c.c1), "count");
    r.metric("model.c2_bytes", c.per_lap(c.c2), "bytes");
    r.metric(
        "collectives.bytes_copied_per_lap",
        c.per_lap(c.copied),
        "bytes",
    );
    r.metric(
        "collectives.bytes_gathered_per_lap",
        c.per_lap(c.gathered),
        "bytes",
    );
    r.metric("round.busy_us", c.rank_us_per_lap(c.busy_ns()), "us");
    r.metric("round.send_us", c.rank_us_per_lap(c.wall_send_ns), "us");
    r.metric(
        "round.recv_wait_us",
        c.rank_us_per_lap(c.wall_recv_ns),
        "us",
    );
    r.metric("round.msgs_per_lap", c.per_lap(c.msgs), "count");
    r.metric(
        "round.bytes_per_msg",
        ratio(c.bytes as f64, c.msgs as f64),
        "bytes",
    );
    r.metric(
        "reliable.retransmits_per_lap",
        c.per_lap(c.retransmits),
        "count",
    );
    r.metric("reliable.probes_per_lap", c.per_lap(c.probes), "count");
    r.metric("reliable.acks_per_lap", c.per_lap(c.acks), "count");
    r.metric(
        "reliable.piggyback_ratio",
        ratio(c.piggyback_acks as f64, (c.piggyback_acks + c.acks) as f64),
        "ratio",
    );
    r.metric(
        "reliable.useful_ratio",
        ratio(c.msgs as f64, (c.msgs + c.retransmits) as f64),
        "ratio",
    );
}

fn overhead(r: &mut Report, untraced: &[f64], traced: &[f64]) {
    let (u, t) = (chunked(untraced).0, chunked(traced).0);
    r.metric("trace.overhead_pct", 100.0 * ratio(t - u, u), "%");
    r.stamp("untraced_lap_p50_ms", json_number(ms(u)));
    r.stamp("traced_lap_p50_ms", json_number(ms(t)));
    r.stamp("untraced_laps", untraced.len());
    r.stamp("traced_laps", traced.len());
}

fn failed_ratio(r: &mut Report) {
    let t = r.tally;
    r.metric(
        "failed_ratio",
        ratio(t.failed as f64, t.attempted as f64),
        "ratio",
    );
}

fn uds_traced(r: &mut Report, args: &Args) {
    let start = Instant::now();
    standalone(r, &args.workload);
    // Untraced and traced clusters alternate, so a slow stretch of the
    // machine falls on both sides of the overhead comparison.
    let mut passes = uds_passes(r, args, start, &[false, true], false);
    let traced = passes.pop().expect("two kinds of pass");
    let untraced = passes.pop().expect("two kinds of pass");
    overhead(r, &untraced.laps, &traced.laps);

    // Every collective of the traced passes, warm-up included, so that
    // the program's run-wide counters cover the same collectives.
    let c = traced.counters;
    counter_metrics(r, &c);
    stamp_counters(r, &c);
    let collectives = traced.samples.first().map_or(0, Vec::len);

    // Per timed lap: the mean over ranks; reported: the median lap.
    let timed: Vec<usize> = (0..collectives)
        .filter(|&i| traced.samples[0][i].timed)
        .collect();
    let per_lap = |f: &dyn Fn(&uds::Sample) -> f64| -> f64 {
        let laps: Vec<f64> = timed
            .iter()
            .map(|&i| mean(&traced.samples.iter().map(|s| f(&s[i])).collect::<Vec<_>>()))
            .collect();
        median(&laps)
    };
    let us = |ns: u64| ns as f64 / 1e3;
    r.metric(
        "collectives.local_us",
        per_lap(&|s| us(s.wall_ns - s.comm_ns.min(s.wall_ns))),
        "us",
    );
    r.metric(
        "transport.send_us",
        per_lap(&|s| us(s.transport.send_ns)),
        "us",
    );
    r.metric(
        "transport.recv_us",
        per_lap(&|s| us(s.transport.recv_ns)),
        "us",
    );
    r.metric(
        "transport.wait_us",
        per_lap(&|s| us(s.transport.wait_ns)),
        "us",
    );
    r.metric(
        "transport.calls_per_lap",
        per_lap(&|s| s.transport.calls as f64),
        "count",
    );
    let (sends, bytes) = traced
        .samples
        .iter()
        .flatten()
        .fold((0u64, 0u64), |acc, s| {
            (acc.0 + s.transport.sends, acc.1 + s.transport.send_bytes)
        });
    r.metric(
        "transport.bytes_per_send",
        ratio(bytes as f64, sends as f64),
        "bytes",
    );

    // The layer split, as means over every collective of every rank:
    // local work (lap minus round calls, timed from outside), the
    // round layer's own send/receive phases (timed by the program)
    // minus the transport calls under it (timed from outside) as the
    // reliability layer's self time, and the transport calls.
    let all: Vec<&uds::Sample> = traced.samples.iter().flatten().collect();
    let avg = |f: &dyn Fn(&uds::Sample) -> u64| {
        mean(&all.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let wall = avg(&|s| s.wall_ns);
    let local = avg(&|s| s.wall_ns - s.comm_ns.min(s.wall_ns));
    let transport = avg(&|s| s.transport.busy_ns());
    let busy = c.busy_ns() as f64 / (c.collectives.max(1) * c.ranks.max(1)) as f64;
    let reliable = busy - transport;
    r.metric("reliable.self_us", reliable / 1e3, "us");
    let sum_pct = 100.0 * ratio(local + reliable + transport, wall);
    let unattributed = (sum_pct - 100.0).abs();
    r.metric("trace.unattributed_pct", unattributed, "%");
    r.stamp("layer_sum_pct", json_number(sum_pct));
    if unattributed > LAYER_SUM_TOLERANCE_PCT {
        r.violations.push(format!(
            "layer parts sum to {sum_pct:.1}% of the traced lap wall (limit ±{LAYER_SUM_TOLERANCE_PCT}%)"
        ));
    }
    for name in [
        "tcp.retransmits_per_lap",
        "tcp.probes_per_lap",
        "tcp.link_failures",
        "tcp.shed_bytes",
        "tcp.threads",
    ] {
        r.metric(
            name,
            0.0,
            if name == "tcp.shed_bytes" {
                "bytes"
            } else {
                "count"
            },
        );
    }
    failed_ratio(r);
}

fn tcp_traced(r: &mut Report, args: &Args) {
    let w = &args.workload;
    let start = Instant::now();
    standalone(r, w);
    // No wrapper reaches into this executor, so both halves run the
    // same code and the overhead reads as the run-to-run difference.
    let half = |r: &mut Report, what: &str| {
        let until = remaining(args, start).mul_f64(if what == "traced pass" { 1.0 } else { 0.5 });
        let p = tcp::pass(w, args.seed, TCP_WARM, until, TCP_TRACE_MIN_LAPS).unwrap_or_else(
            |(e, tally)| {
                fail(r, what, e, tally);
                tcp::Pass::default()
            },
        );
        r.tally.add(p.tally);
        p
    };
    let untraced = half(r, "untraced pass");
    let traced = half(r, "traced pass");
    overhead(r, &untraced.laps, &traced.laps);

    let c = traced.total();
    counter_metrics(r, &c);
    stamp_counters(r, &c);
    // The executor interprets programs on its own worker pool: neither
    // the `Comm` nor the `Transport` boundary is reachable from outside.
    for name in [
        "collectives.local_us",
        "transport.send_us",
        "transport.recv_us",
        "transport.wait_us",
        "transport.calls_per_lap",
        "transport.bytes_per_send",
        "reliable.self_us",
    ] {
        let unit = match name {
            "transport.calls_per_lap" => "count",
            "transport.bytes_per_send" => "bytes",
            _ => "us",
        };
        r.metric(name, 0.0, unit);
    }
    // No part of a lap is attributed to a layer from outside.
    r.metric("trace.unattributed_pct", 100.0, "%");
    r.metric("tcp.retransmits_per_lap", c.per_lap(c.retransmits), "count");
    r.metric("tcp.probes_per_lap", c.per_lap(c.probes), "count");
    r.metric("tcp.link_failures", c.link_failures as f64, "count");
    r.metric("tcp.shed_bytes", c.shed_bytes as f64, "bytes");
    r.metric("tcp.threads", traced.threads as f64, "count");
    failed_ratio(r);
}

/// Provenance every result carries, whatever the workload.
fn stamp_common(r: &mut Report, args: &Args) {
    let w = &args.workload;
    r.stamp_str("workload", w.name);
    r.stamp("seed", args.seed);
    r.stamp("seconds", json_number(args.seconds));
    r.stamp("trace", u8::from(args.trace));
    r.stamp(
        "nproc",
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    r.stamp_str("git_commit", &git_commit());
    r.stamp_str("source_digest", &format!("{:016x}", source_digest()));
    r.stamp("frag_payload", bruck_net::frame::FRAG_PAYLOAD);
    r.stamp("n", w.n);
    r.stamp("ports", w.ports);
    r.stamp("block", w.block);
    if w.substrate == Substrate::Tcp {
        r.stamp("node_size", w.node_size);
        r.stamp("workers", w.workers);
    }
    r.stamp_str("plan", &w.plan_label());
    // The model's C1/C2 for the index plan; concat's executed counts
    // are stamped after the run.
    let planned = match (w.index_plan(), w.substrate) {
        (Some(_), Substrate::Uds) => Some(
            Workload::tuning()
                .chosen_plan(w.n, w.block, w.ports)
                .complexity,
        ),
        (Some(IndexPlan::Radix(radix)), Substrate::Tcp) => Some(
            bruck_model::tuning::index_complexity_kport(w.n, radix, w.block, w.ports),
        ),
        _ => None,
    };
    if let Some(c) = planned {
        r.stamp("planned_c1", c.c1);
        r.stamp("planned_c2", c.c2);
    }
}

/// The executed plan's measured complexity per collective.
fn stamp_counters(r: &mut Report, c: &Counters) {
    r.stamp("executed_c1", json_number(c.per_lap(c.c1)));
    r.stamp("executed_c2", json_number(c.per_lap(c.c2)));
    r.stamp("retransmits_per_lap", json_number(c.per_lap(c.retransmits)));
}

/// The commit, when the benchmark runs inside a git work tree.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none (not a git work tree)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a over the library and benchmark sources (paths and bytes, in
/// sorted order): identifies the code measured where no commit exists.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.push("perfbench/Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The machine-wide CPU time counters (`/proc/stat`, first line).
fn cpu_times() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

/// Share of the machine's CPU time the hypervisor gave to other guests
/// while this one was runnable, between two [`cpu_times`] readings; 0
/// when the counters cannot be read.
fn steal_share(before: Option<Vec<u64>>, after: Option<Vec<u64>>) -> f64 {
    let (Some(before), Some(after)) = (before, after) else {
        return 0.0;
    };
    let d: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    ratio(
        d.get(7).copied().unwrap_or(0) as f64,
        d.iter().sum::<u64>() as f64,
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print(r: &Report, args: &Args) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &r.metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    for v in &r.violations {
        println!("  FAILED: {v}");
    }
    let prov: Vec<String> = r
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", prov.join(", "));
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.tally.attempted,
        r.tally.failed,
        metrics.join(", ")
    );
}
