//! Benchmark harness for the Bruck all-to-all reproduction.
//!
//! The [`harness`] module runs collectives on live clusters under the
//! §3.5 SP-1 cost model and reports `(C1, C2)`, predicted time, and the
//! virtual-time measurement — the machinery behind the `figures` binary
//! that regenerates every figure and table of the paper's evaluation.
//! The [`microbench`] module is the self-contained wall-clock harness
//! the `benches/` targets run on (the workspace builds offline, so no
//! external Criterion). The [`runner`] module is the one wall-clock
//! runner behind every `bruckctl bench` mode over real sockets — one
//! timing discipline, one row schema, one renderer — and [`wire`]
//! declares those modes as cell lists plus criteria, writing the
//! tracked `BENCH_pr*.json` artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod microbench;
#[cfg(unix)]
pub mod runner;
pub mod skew;
#[cfg(unix)]
pub mod wire;
