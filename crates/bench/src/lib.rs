//! Experiment harness for the paper's tables, plus the benches.
//!
//! The binaries in `src/bin/` print the paper's Tables I–III
//! (Lakshminarayana & Yau, DSN 2018), the Section VII-D damage-vs-premium
//! comparison (`discussion_impact`) and a grid-size scaling study
//! (`scaling`); `bench_gate` gates criterion snapshots against committed
//! baselines. The figures are checked-in scenarios run by the `gridmtd`
//! CLI (see `docs/REPRODUCING.md`). The [`report`] module holds the
//! shared text-table printer, and [`paperconfig`] pins the calibrated
//! experiment configuration (noise σ etc.).

pub mod paperconfig;
pub mod report;
