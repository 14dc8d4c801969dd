//! # `tia-suitebench` — the repository benchmark
//!
//! Three workloads drive the simulator through the same public
//! functions the harness binaries call: the paper-scale suite sweep
//! against an empty measurement store (`sweep_cold`) and against a
//! filled one (`sweep_warm`), and the fabric toolchain check
//! (`toolchain`). See `README.md` in this directory for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

#![warn(missing_docs)]

pub mod host;
pub mod inputs;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod toolchain;
