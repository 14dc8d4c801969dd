//! `tia-prof` — hierarchical cycle-stack profiler with cross-PE
//! critical-path analysis.
//!
//! Three layers:
//!
//! * [`stack`] — the attribution taxonomy ([`Leaf`]) and the
//!   hierarchical [`CycleStack`] / [`LeafShares`] containers, with the
//!   `sum(stack) == cycles` invariant checked in debug builds.
//! * [`profiler`] — [`PeProfiler`] (one stand-alone PE, the
//!   `tia-funcsim` surface) and [`SystemProfiler`] (whole fabric),
//!   plus [`profile_run`] which mirrors `System::run` under
//!   observation.
//! * [`critical`] — [`CriticalPathReport`]: PEs ranked by busy share,
//!   channels by backpressure evidence, read ports by traffic, and an
//!   upstream token-dependency walk from the busiest PE.
//!
//! The profiler observes through the read-only
//! [`tia_trace::ProfileSource`] window the simulators implement and
//! never mutates the subject: a profiled run is bit-identical to an
//! unprofiled one by construction, and the observe path allocates
//! nothing (both properties are enforced by tests).

#![warn(missing_docs)]

pub mod critical;
pub mod profiler;
pub mod stack;

pub use critical::{rank_pe_channels, ChannelRank, CriticalPathReport, PathStep, PeRank, PortRank};
pub use profiler::{classify_pe_stall, profile_run, profile_run_with, PeProfiler, SystemProfiler};
pub use stack::{CycleStack, Leaf, LeafShares};
// The observation window the simulators implement, re-exported so
// profiler users need not depend on `tia-trace` directly.
pub use tia_trace::{ChannelPressure, ProfCounters, ProfileSource, StallInsight};
