//! Shared measurement plumbing: run workloads on the cycle-level
//! model and expose activity to the energy model's design-space
//! exploration.

use std::path::{Path, PathBuf};

use tia_core::{UarchConfig, UarchCounters, UarchPe};
use tia_energy::dse::{par_explore, CpiMeasurement, DesignPoint};
use tia_energy::{StoredCpi, SweepContext, SyncCpiSource};
use tia_fabric::FastForwardStats;
use tia_isa::Params;
use tia_prof::{CycleStack, LeafShares};
use tia_workloads::{Scale, WorkloadKind};

/// The outcome of running one workload on one microarchitecture.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredRun {
    /// The workload.
    pub kind: WorkloadKind,
    /// The microarchitecture.
    pub config: UarchConfig,
    /// The designated worker PE's counters.
    pub counters: UarchCounters,
    /// Global system cycles of the run (≥ the worker's own cycles;
    /// the excess is the worker's halted tail).
    pub system_cycles: u64,
    /// Always zero: the fast-forward engine is gone (see
    /// [`FastForwardStats`]). Kept only until the repository benchmark
    /// drops its `fabric.ff_*` metrics.
    pub ff: FastForwardStats,
}

/// Runs one workload to completion on the cycle-level model and
/// returns the worker's counters. Results are verified against the
/// golden model before returning.
///
/// # Panics
///
/// Panics if the workload fails to build, run or verify — these are
/// harness bugs, not user errors.
pub fn run_uarch_workload(kind: WorkloadKind, config: UarchConfig, scale: Scale) -> MeasuredRun {
    let params = Params::default();
    let mut factory = |p: &Params, prog| UarchPe::new(p, config, prog);
    let mut built = kind
        .build(&params, scale, &mut factory)
        .unwrap_or_else(|e| panic!("{kind} on {config}: build failed: {e}"));
    built
        .run_to_completion()
        .unwrap_or_else(|e| panic!("{kind} on {config}: {e}"));
    MeasuredRun {
        kind,
        config,
        counters: *built.system.pe(built.worker).counters(),
        system_cycles: built.system.cycle(),
        ff: built.system.fast_forward_stats(),
    }
}

/// The worker PE's coarse hierarchical cycle stack, derived from its
/// cumulative counters (no per-cycle observation, so the whole
/// not-triggered count lands in `idle`; use `tia_prof::profile_run`
/// for the fine backpressure/memory split). Any cycles the worker's
/// own counter is short of the run's global cycle count — plus any
/// issue slots left unresolved — land in `halted`/`in-flight` so the
/// stack still sums to `system_cycles`.
pub fn coarse_stack(run: &MeasuredRun) -> CycleStack {
    let c = run.counters;
    let mut stack = CycleStack {
        retire: c.retired,
        quash: c.quashed,
        predicate_hazard: c.pred_hazard_cycles,
        data_hazard: c.data_hazard_cycles,
        predictor_recovery: c.forbidden_cycles,
        idle: c.not_triggered_cycles,
        halted: run.system_cycles.max(c.cycles) - c.cycles,
        ..CycleStack::default()
    };
    // §3.3 identity residual: issue slots still in flight at run end.
    stack.in_flight = c.cycles.saturating_sub(stack.total() - stack.halted);
    stack
}

/// A [`tia_energy::dse::CpiSource`] backed by the `bst` workload, as
/// in the paper's methodology: "we extracted gate-level activity
/// factors from a run of the binary search tree program", which "had
/// the most balanced combination of I/O channel use, computation and
/// memory access delay" (§3).
pub fn bst_activity_source(scale: Scale) -> impl Fn(&UarchConfig) -> CpiMeasurement + Sync {
    move |config: &UarchConfig| activity_of(&run_uarch_workload(WorkloadKind::Bst, *config, scale))
}

/// The CPI/activity measurement the DSE consumes, derived from one
/// measured run. Shared so ad-hoc sources (e.g. `dse_bench`'s
/// cycle-counting wrapper) produce exactly what
/// [`bst_activity_source`] would.
pub fn activity_of(run: &MeasuredRun) -> CpiMeasurement {
    let c = run.counters;
    let stack = coarse_stack(run);
    let shares = stack.shares(stack.total());
    CpiMeasurement {
        cpi: c.cpi(),
        issue_rate: (c.retired + c.quashed) as f64 / c.cycles.max(1) as f64,
        stack: shares,
        bottleneck: shares.bottleneck(),
    }
}

/// A [`tia_energy::dse::CpiSource`] averaging CPI and issue rate over
/// the whole ten-workload suite, matching the Figure 5 averages. This
/// is the delay model for the design-space exploration: the paper's
/// Figure 8 instruction latencies imply a suite-level CPI (≈1.6 at
/// TDX1|X2 +Q), not the memory-serial `bst` CPI, while `bst` remains
/// the *power activity* reference (§3).
pub fn suite_activity_source(scale: Scale) -> impl Fn(&UarchConfig) -> CpiMeasurement + Sync {
    move |config: &UarchConfig| {
        let mut cpi_sum = 0.0;
        let mut issue_sum = 0.0;
        let mut stacks = [LeafShares::default(); tia_workloads::ALL_WORKLOADS.len()];
        for (i, kind) in tia_workloads::ALL_WORKLOADS.into_iter().enumerate() {
            let run = run_uarch_workload(kind, *config, scale);
            let c = run.counters;
            cpi_sum += c.cpi();
            issue_sum += (c.retired + c.quashed) as f64 / c.cycles.max(1) as f64;
            let stack = coarse_stack(&run);
            stacks[i] = stack.shares(stack.total());
        }
        let n = tia_workloads::ALL_WORKLOADS.len() as f64;
        let stack = LeafShares::average(&stacks);
        CpiMeasurement {
            cpi: cpi_sum / n,
            issue_rate: issue_sum / n,
            stack,
            bottleneck: stack.bottleneck(),
        }
    }
}

/// The flags every harness binary accepts, and whether each takes a
/// value: the input scale and the measurement store path
/// ([`store_path_from_args`]).
const HARNESS_FLAGS: &[(&str, bool)] = &[("--test-scale", false), ("--store", true)];

/// Checks `args` (without the program name) against
/// [`HARNESS_FLAGS`] plus a binary's own `extras`, so a retired flag
/// or a typo fails instead of being ignored: the error names the first
/// argument that is not accepted, or a value flag given without its
/// value.
fn check_args(args: &[String], extras: &[(&str, bool)]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match HARNESS_FLAGS
            .iter()
            .chain(extras)
            .find(|(flag, _)| flag == arg)
        {
            Some((_, true)) if rest.next().is_none() => {
                return Err(format!("`{arg}` needs a PATH argument"))
            }
            Some(_) => {}
            None => return Err(format!("unrecognised argument `{arg}`")),
        }
    }
    Ok(())
}

/// Checks the process arguments against the shared harness flags
/// (`--test-scale`, `--store PATH`) plus the binary's own `extras`,
/// each paired with whether it takes a value (binaries that write JSON
/// pass [`crate::JSON_FLAG`]). On anything else the process exits with
/// status 2, naming the argument on stderr, before any work is done.
/// Returns the arguments without the program name.
pub fn checked_args(extras: &[(&str, bool)]) -> Vec<String> {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    if let Err(message) = check_args(&args, extras) {
        let name = Path::new(&program).file_name().unwrap_or_default();
        eprintln!("{}: {message}", name.to_string_lossy());
        std::process::exit(2);
    }
    args
}

/// Parses the common harness flags after [`checked_args`]:
/// `--test-scale` selects the small input set, otherwise the
/// paper-scale inputs are used.
pub fn scale_from_args(extras: &[(&str, bool)]) -> Scale {
    if checked_args(extras).iter().any(|a| a == "--test-scale") {
        Scale::Test
    } else {
        Scale::Paper
    }
}

/// The store-key label for an input scale. Part of every measurement
/// key, so test-scale records can never answer a paper-scale sweep.
pub fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
    }
}

/// The sweep context the suite-averaged figure/table sweeps key their
/// measurements under (see [`suite_activity_source`]).
pub fn suite_context(scale: Scale) -> SweepContext {
    SweepContext::new("suite", scale_label(scale))
}

/// Reads the measurement-store path from `--store PATH` or the
/// `TIA_STORE` environment variable (the flag wins). Returns `None`
/// when neither is set — sweeps then simulate everything, as before
/// the store existed.
///
/// # Panics
///
/// Panics on a present-but-useless value — `--store` without a path,
/// an empty/whitespace path, or non-UTF-8 `TIA_STORE` — rather than
/// silently running the sweep uncached.
pub fn store_path_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--store") {
        let path = args
            .get(i + 1)
            .unwrap_or_else(|| panic!("--store needs a PATH argument"));
        assert!(
            !path.trim().is_empty(),
            "--store needs a non-empty PATH argument"
        );
        return Some(PathBuf::from(path));
    }
    match std::env::var("TIA_STORE") {
        Ok(path) => {
            assert!(
                !path.trim().is_empty(),
                "invalid TIA_STORE value: empty; set a store file path or unset it"
            );
            Some(PathBuf::from(path))
        }
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            panic!("invalid TIA_STORE value: not valid UTF-8")
        }
    }
}

/// Wraps `source` over the measurement store at `path`. A stale
/// file at `path` is moved to `<path>.stale` with a loud warning and
/// its measurements are regenerated, never trusted (see
/// [`tia_energy::open_measurement_store`]).
///
/// # Panics
///
/// Panics on a file-system error.
pub fn open_store<S: SyncCpiSource>(source: S, path: &Path, ctx: SweepContext) -> StoredCpi<S> {
    let (stored, reset) = StoredCpi::open(source, path, ctx)
        .unwrap_or_else(|e| panic!("cannot open measurement store {}: {e}", path.display()));
    if let Some(reason) = reset {
        eprintln!(
            "warning: discarding stale measurements at {} ({reason}); \
             the old file was moved to {}.stale and the sweep re-simulates",
            path.display(),
            path.display()
        );
    }
    stored
}

/// Runs the suite-averaged sweep through the measurement store at
/// `path` (see [`open_store`]), returning the design points plus how
/// many were answered from the store vs simulated.
pub fn sweep_through_store(scale: Scale, path: &Path) -> (Vec<DesignPoint>, u64, u64) {
    let source = open_store(suite_activity_source(scale), path, suite_context(scale));
    let points = par_explore(&source);
    eprintln!(
        "measurement store {}: {} point(s) answered from store, {} simulated",
        path.display(),
        source.lookups(),
        source.misses()
    );
    (points, source.lookups(), source.misses())
}

/// The full suite-averaged design-space sweep every figure/table
/// binary consumes. When a store path is configured (see
/// [`store_path_from_args`]) the sweep is keyed through the
/// content-addressed measurement store, so repeated regenerations
/// re-simulate only points whose inputs changed.
pub fn suite_design_points(scale: Scale) -> Vec<DesignPoint> {
    match store_path_from_args() {
        Some(path) => sweep_through_store(scale, &path).0,
        None => par_explore(&suite_activity_source(scale)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_core::Pipeline;

    #[test]
    fn a_measured_run_verifies_and_reports() {
        let run = run_uarch_workload(
            WorkloadKind::Gcd,
            UarchConfig::with_pq(Pipeline::T_DX),
            Scale::Test,
        );
        assert!(run.counters.retired > 30);
        assert!(run.counters.cycles >= run.counters.retired);
    }

    #[test]
    fn activity_carries_a_normalized_stack() {
        let run = run_uarch_workload(
            WorkloadKind::Bst,
            UarchConfig::with_pq(Pipeline::T_D_X1_X2),
            Scale::Test,
        );
        assert!(run.system_cycles >= run.counters.cycles);
        let stack = coarse_stack(&run);
        assert_eq!(stack.total(), run.system_cycles.max(run.counters.cycles));
        let m = activity_of(&run);
        assert!((m.stack.total() - 1.0).abs() < 1e-9, "shares normalize");
        assert_eq!(m.bottleneck, m.stack.bottleneck());
    }

    #[test]
    fn bst_activity_is_sane() {
        let source = bst_activity_source(Scale::Test);
        let m = source(&UarchConfig::base(Pipeline::TDX));
        assert!(m.cpi >= 1.0);
        assert!(m.issue_rate > 0.0 && m.issue_rate <= 1.0);
        // CPI and issue rate are reciprocal for an unpipelined design
        // with no quashing.
        assert!((m.cpi * m.issue_rate - 1.0).abs() < 1e-9);
    }
}
