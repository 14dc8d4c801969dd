//! # `tia-bench` — the experiment harness
//!
//! One binary per table and figure of the paper (see `src/bin/`),
//! built on the measurement and formatting helpers in this library.
//! `DESIGN.md` at the repository root maps every paper result to its
//! regenerating binary; `EXPERIMENTS.md` records paper-reported versus
//! measured values.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod jsonout;
pub mod measure;
pub mod table;

pub use jsonout::{json_out_from_args, write_json, JSON_FLAG};
pub use measure::{
    activity_of, bst_activity_source, checked_args, coarse_stack, open_store, run_uarch_workload,
    scale_from_args, scale_label, store_path_from_args, suite_activity_source, suite_context,
    suite_design_points, sweep_through_store, MeasuredRun,
};
pub use table::Table;
