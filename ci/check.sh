#!/bin/sh
# Lint gate for the workspace: formatting and clippy, both hard-failing.
# POSIX sh — the bench harness spawns it via `sh` (see harness::prerun_check).
#
# Run standalone (`ci/check.sh`) or let the bench harness run it before
# measuring by setting BRUCK_PRERUN_CHECK=1 — benchmarking an unlinted
# tree wastes machine time.
set -eu
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --offline -- -D warnings

# perfbench is a workspace of its own (see BENCHMARK.json), so the
# workspace clippy above never compiles it: build it here so a change to
# the libraries' public API cannot silently break the benchmark.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# Bench runner gate: the runner's arithmetic (straggler max,
# nearest-rank percentiles, ratio, per-sample spread), the renderers,
# every mode's criteria, and one small end-to-end run per
# `bruckctl bench` mode, each lap verified against the oracle.
cargo test -q -p bruck-bench

# Robustness gate: fault injection, the chaos soak, and the
# sliding-window property suite. Every fault plan is seeded
# (FaultPlan::with_seed / the xorshift case generators in tests/chaos.rs
# and tests/window.rs), so failures replay deterministically from the
# seed printed in the assertion message.
cargo test -q --test faults
cargo test -q --test chaos
cargo test -q --test window

# Autotune gate: the planner must match an exhaustive arg-min over the
# radix family, the calibrator must recover (β, τ) with R² ≥ 0.99, and
# planner-dispatched collectives must verify at n ∈ {4, 8, 16},
# k ∈ {1, 2} with a model fitted live against the transport.
cargo test -q --test autotune

# Liveness gate: 200 seeded chaos schedules per shape (n ∈ {4, 8})
# mixing partitions, stalls, ack loss, and kills, plus the dedicated
# deadline/straggler/partition tests. The suite asserts no-hang
# internally; the hard wall-clock `timeout` is the backstop for the one
# failure mode the suite cannot report on itself — the harness hanging.
# 300 s ≈ 10x the observed soak time on a 1-core CI box.
timeout 300 cargo test -q --test liveness

# Rejoin gate: the full recovery lifecycle — kill, shrink, quarantine,
# flap damping, rejoin at the next collective boundary, bit-correct
# full-group result under all three RecoveryPolicy variants — plus a
# 200-seed rejoin soak per shape with per-view verdict consistency.
# Failing soak iterations persist a minimized TSV reproducer under
# target/ replayable with `bruckctl chaos --replay`. Set
# BRUCK_CHAOS_SEED=<s> to narrow either soak to a single seed when
# bisecting. Same hard-timeout backstop rationale as the liveness gate.
timeout 300 cargo test -q --test rejoin

# V-ops gate: the non-uniform property suite (direct/padded/two-phase/
# auto bit-exact on random ragged, zero-riddled, and hot-spot matrices
# across n ∈ {1,2,5,8,16}, k ∈ {1,2}, plus a fault-injected skewed run
# through run_resilient).
cargo test -q --test vops

# Perf smoke: the pipelined data plane must clear a throughput floor on
# the wire microbench, checked against the alltoall row's goodput on
# useful bytes, n(n-1)b per lap. The floor is ~30% under the slowest
# alltoall throughput observed on a 1-core CI box (545 MB/s at this
# shape; the stop-and-wait-era plane measured ~300-360 MB/s, so a data
# plane regressed to that discipline lands under the floor while normal
# machine noise stays above it). BENCH_pr3.json tracks the full-size
# run. Small shape so the gate stays fast.
cargo build -q --release -p bruck-bench
./target/release/bruckctl bench --n 4 --ports 2 --block 16384 --reps 3 \
    --samples 2 --out /tmp/bruck-bench-smoke.json --min-mbps 380

# Zipf smoke: a short skewed sweep at the PR 6 shape (n=8, k=2). Every
# lap is verified bit-exactly by the bench runner, so this gates the
# whole skewed data path (metadata exchange, padded/two-phase executors,
# planner dispatch) end to end through the real uds transport. Small
# reps/samples keep it to a few seconds; BENCH_pr6.json tracks the full
# 16x8 matrix.
./target/release/bruckctl bench --skew 0,0.5,1.0,1.5 --n 8 --ports 2 \
    --block 256 --reps 4 --samples 2 --out /tmp/bruck-skew-smoke.json

# TCP + scale gate: the event-driven fabric's integration suites (fault
# injection over real loopback streams, hierarchical plans at n = 64,
# the n = 128 thread-multiplexing claim), then a one-rep scale sweep —
# flat vs two-level over the TCP fabric with the watchdog and deadline
# armed, every lap verified bit-exactly by the bench runner.
# BRUCK_SCALE_MAX_N caps the sweep (default 128 here so the gate stays
# fast; raise it to 1024 to reproduce the full BENCH_pr9.json matrix).
# Hard wall-clock timeout as the no-hang backstop, same rationale as
# the liveness gate.
timeout 300 cargo test -q --test tcp --test hierarchical
BRUCK_SCALE_MAX_N="${BRUCK_SCALE_MAX_N:-128}" timeout 300 \
    ./target/release/bruckctl bench --scale --reps 1 \
    --out /tmp/bruck-scale-smoke.json

# TCP recovery gate: the connection-healing lifecycle over real
# loopback streams — mid-collective stream kill → reconnect →
# byte-identical to the faultless run, budget-exhausted handshake
# blackhole → consistent node-level eviction, and a 100-seed
# connection-chaos soak with per-view verdict consistency.
# BRUCK_SCALE_MAX_N caps the eviction matrix (128 here skips the n=256
# leg); BRUCK_CHAOS_SEED narrows the soak when bisecting. Failing soak
# iterations persist a minimized TSV reproducer under target/
# replayable with `bruckctl chaos --transport tcp --replay`. Hard
# wall-clock timeout as the no-hang backstop (~20x the observed suite
# time on a 1-core CI box). The bruckctl smoke then drives one
# generated socket-chaos schedule end to end through the CLI path the
# reproducers replay through.
BRUCK_SCALE_MAX_N="${BRUCK_SCALE_MAX_N:-128}" timeout 300 \
    cargo test -q --test tcp_recovery
timeout 120 ./target/release/bruckctl chaos --transport tcp \
    --n 64 --node-size 8 --block 8 --seed 7
