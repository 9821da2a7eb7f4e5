//! # gbc-bench
//!
//! Benchmark harness for *Greedy by Choice* (PODS 1992). The paper's
//! evaluation is its Section 6 complexity analysis; every claimed bound
//! is regenerated by the `experiments` binary, which prints the scaling
//! tables recorded in `EXPERIMENTS.md` — wall-clock medians from the
//! in-tree [`measure::Harness`] (warmup + median-of-k, no external
//! benchmarking crates) side by side with the `gbc-telemetry` operation
//! counters that certify the bounds machine-independently (heap ops per
//! `e log e` for Prim, γ steps, discarded pops, …).
//!
//! This library holds the shared measurement utilities: timed sweeps,
//! scaling-exponent fits, and table rendering.

pub mod measure;
pub mod table;

pub use measure::{fit_exponent, time_once, Harness, Sample, Timing};
pub use table::render_table;
