//! The suite sweep: 10 workloads × 32 microarchitectures measured
//! through the measurement store, explored over the operating grid,
//! reduced to a Pareto frontier and encoded as the `dse_export` JSON.

use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tia_bench::{coarse_stack, MeasuredRun};
use tia_core::{UarchConfig, UarchPe};
use tia_energy::dse::par_explore_stats_with;
use tia_energy::{
    explore, open_measurement_store, pareto_frontier, CpiMeasurement, DesignPoint, StoredCpi,
    SweepContext, SyncCpiSource,
};
use tia_isa::Params;
use tia_prof::LeafShares;
use tia_workloads::{Scale, ALL_WORKLOADS};

use crate::inputs::{self, InputSeed};
use crate::spans::Tracer;

/// Work counted during one sweep. Always on: a relaxed atomic add per
/// cycle-level run costs nothing next to the run itself.
#[derive(Debug, Default)]
pub struct Tally {
    /// Workload builds.
    pub builds: AtomicU64,
    /// Cycle-level runs attempted.
    pub runs: AtomicU64,
    /// Runs that failed to build, complete or pass their golden check.
    pub failed_runs: AtomicU64,
    /// Simulated cycles, all runs.
    pub sim_cycles: AtomicU64,
    /// Instructions retired by the worker PEs, all runs.
    pub retired: AtomicU64,
    /// Simulated cycles per workload, in `ALL_WORKLOADS` order.
    pub cycles_by_workload: [AtomicU64; ALL_WORKLOADS.len()],
    /// Fast-forward idle-horizon probes.
    pub ff_probes: AtomicU64,
    /// Probes that found cycles to skip.
    pub ff_probe_hits: AtomicU64,
    /// Probes suppressed by the probe backoff.
    pub ff_suppressed_probes: AtomicU64,
    /// Cycles skipped instead of stepped.
    pub ff_skipped_cycles: AtomicU64,
}

impl Tally {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// What every sweep of one run shares.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Input scale.
    pub scale: Scale,
    /// Input seed.
    pub seed: InputSeed,
    /// `tia-par` workers for the 32 configuration measurements.
    pub workers: usize,
}

impl SweepSpec {
    /// The store key context: the seed is part of the inputs, so it is
    /// part of every key.
    pub fn context(&self) -> SweepContext {
        SweepContext::new("suite", self.seed.scale_label(self.scale))
    }
}

thread_local! {
    /// The last `suite.measure` interval on this thread, so the store
    /// wrapper can split its own time into lookup and write.
    static SIMULATED: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// The suite-averaged activity source the paper-scale sweep uses: each
/// configuration runs all ten workloads on the cycle-level model,
/// checks each against its golden output, and averages CPI, issue rate
/// and cycle-stack shares exactly as `tia_bench::suite_activity_source`
/// does, but from seeded inputs and with each layer timed.
#[derive(Debug)]
struct SuiteSource<'a> {
    spec: &'a SweepSpec,
    tally: &'a Tally,
    tracer: Tracer<'a>,
}

impl SuiteSource<'_> {
    fn run(&self, kind: tia_workloads::WorkloadKind, config: UarchConfig) -> Option<MeasuredRun> {
        let (tracer, tally) = (self.tracer, self.tally);
        let params = Params::default();
        let mut factory = |p: &Params, prog| UarchPe::new(p, config, prog);
        Tally::add(&tally.runs, 1);
        Tally::add(&tally.builds, 1);
        let built = tracer.span("workloads.build", kind.name(), || {
            inputs::build(kind, self.spec.scale, self.spec.seed, &params, &mut factory)
        });
        let outcome = built.and_then(|mut built| {
            tracer.span("core.sim", kind.name(), || built.run_to_completion())?;
            // A repeated, read-only golden check: run_to_completion
            // already verified, this times the check on its own.
            tracer.span("workloads.golden", kind.name(), || built.verify())?;
            Ok(built)
        });
        let built = match outcome {
            Ok(built) => built,
            Err(e) => {
                Tally::add(&tally.failed_runs, 1);
                eprintln!("check failed: {kind} on {config}: {e}");
                return None;
            }
        };
        let run = MeasuredRun {
            kind,
            config,
            counters: *built.system.pe(built.worker).counters(),
            system_cycles: built.system.cycle(),
            ff: built.system.fast_forward_stats(),
        };
        Tally::add(&tally.sim_cycles, run.system_cycles);
        Tally::add(&tally.retired, run.counters.retired);
        Tally::add(&tally.ff_probes, run.ff.probes);
        Tally::add(&tally.ff_probe_hits, run.ff.probe_hits);
        Tally::add(&tally.ff_suppressed_probes, run.ff.suppressed_probes);
        Tally::add(&tally.ff_skipped_cycles, run.ff.skipped_cycles);
        Some(run)
    }

    fn average(&self, config: &UarchConfig) -> CpiMeasurement {
        let mut cpi_sum = 0.0;
        let mut issue_sum = 0.0;
        let mut stacks = [LeafShares::default(); ALL_WORKLOADS.len()];
        for (i, kind) in ALL_WORKLOADS.into_iter().enumerate() {
            // A failed run is counted and contributes nothing; the
            // export then differs from the reference, failing that
            // check too.
            let Some(run) = self.run(kind, *config) else {
                continue;
            };
            Tally::add(&self.tally.cycles_by_workload[i], run.system_cycles);
            let c = run.counters;
            cpi_sum += c.cpi();
            issue_sum += (c.retired + c.quashed) as f64 / c.cycles.max(1) as f64;
            let stack = coarse_stack(&run);
            stacks[i] = stack.shares(stack.total());
        }
        let n = ALL_WORKLOADS.len() as f64;
        let stack = LeafShares::average(&stacks);
        CpiMeasurement {
            cpi: cpi_sum / n,
            issue_rate: issue_sum / n,
            stack,
            bottleneck: stack.bottleneck(),
        }
    }
}

impl SyncCpiSource for SuiteSource<'_> {
    fn measure(&self, config: &UarchConfig) -> CpiMeasurement {
        let start = self.tracer.now_ns();
        let m = self
            .tracer
            .span("suite.measure", "", || self.average(config));
        if let (Some(start), Some(end)) = (start, self.tracer.now_ns()) {
            SIMULATED.with(|s| s.set(Some((start, end))));
        }
        m
    }
}

/// Wraps the store-backed source to time each configuration and keep
/// its activity for the traced energy-grid replay.
#[derive(Debug)]
struct Timed<'a, S> {
    stored: &'a StoredCpi<S>,
    tracer: Tracer<'a>,
    parent: Option<u64>,
    items: Mutex<Vec<(UarchConfig, CpiMeasurement, f64)>>,
}

impl<S: SyncCpiSource> SyncCpiSource for Timed<'_, S> {
    fn measure(&self, config: &UarchConfig) -> CpiMeasurement {
        let tracer = self.tracer;
        let started = Instant::now();
        let m = tracer.span_under(self.parent, "store.measure", "", || {
            let start = tracer.now_ns();
            SIMULATED.with(|s| s.set(None));
            let m = self.stored.measure(config);
            if let (Some(start), Some(end)) = (start, tracer.now_ns()) {
                // Everything around the simulation is store work: key
                // hashing and lookup before it, the append after it.
                match SIMULATED.with(Cell::take) {
                    Some((sim_start, sim_end)) => {
                        tracer.record("store.get", "", start, sim_start);
                        tracer.record("store.put", "", sim_end, end);
                    }
                    None => tracer.record("store.get", "", start, end),
                }
            }
            m
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.items
            .lock()
            .expect("item list is never poisoned")
            .push((*config, m, ms));
        m
    }
}

/// One finished sweep.
#[derive(Debug)]
pub struct Sweep {
    /// The `dse_export` JSON, byte for byte.
    pub export: String,
    /// Design points explored.
    pub points: usize,
    /// Points on the Pareto frontier.
    pub front_points: usize,
    /// Wall milliseconds of each configuration's measurement.
    pub config_ms: Vec<f64>,
    /// Configurations answered from the store.
    pub lookups: u64,
    /// Configurations simulated.
    pub misses: u64,
    /// Store file size after the sweep.
    pub store_bytes: u64,
    /// `tia-par` scheduler statistics.
    pub par: tia_par::ParStats,
}

/// The `dse_export` document: every point plus the frontier.
#[derive(serde::Serialize)]
struct Export<'a> {
    points: &'a [DesignPoint],
    pareto_frontier: &'a [DesignPoint],
}

/// Runs one complete sweep through the store at `store_path`. Misses
/// are simulated and written back; hits are answered from the store.
///
/// # Errors
///
/// Fails when the store cannot be opened or the export not encoded.
pub fn sweep(
    spec: &SweepSpec,
    store_path: &Path,
    tally: &Tally,
    tracer: Tracer,
) -> Result<Sweep, String> {
    tracer.span("sweep", "", || {
        let (store, reset) = tracer
            .span("store.open", "", || open_measurement_store(store_path))
            .map_err(|e| format!("cannot open store {}: {e}", store_path.display()))?;
        if let Some(reset) = reset {
            return Err(format!("store {} was stale: {reset}", store_path.display()));
        }
        let source = SuiteSource {
            spec,
            tally,
            tracer,
        };
        let stored = StoredCpi::new(source, store, spec.context());
        let (points, par, items) = tracer.span("par.explore", "", || {
            let timed = Timed {
                stored: &stored,
                tracer,
                parent: tracer.current(),
                items: Mutex::new(Vec::new()),
            };
            let (points, par) = par_explore_stats_with(spec.workers, &timed);
            let items = timed
                .items
                .into_inner()
                .expect("item list is never poisoned");
            (points, par, items)
        });
        let front = tracer.span("energy.pareto", "", || pareto_frontier(&points));
        if tracer.0.is_some() {
            // The operating-grid evaluation alone, over activities
            // already measured: inside par.explore it is interleaved
            // with the measurements and cannot be timed apart.
            let grid = tracer.span("energy.grid", "", || {
                explore(&mut |config: &UarchConfig| {
                    items
                        .iter()
                        .find(|(c, _, _)| c == config)
                        .map(|&(_, m, _)| m)
                        .expect("every configuration was measured")
                })
            });
            debug_assert_eq!(grid, points);
        }
        let export = tracer
            .span("export.encode", "", || {
                serde_json::to_string_pretty(&Export {
                    points: &points,
                    pareto_frontier: &front,
                })
            })
            .map_err(|e| format!("cannot encode the export: {e}"))?;
        let store_bytes = std::fs::metadata(store_path).map_or(0, |m| m.len());
        Ok(Sweep {
            export,
            points: points.len(),
            front_points: front.len(),
            config_ms: items.iter().map(|&(_, _, ms)| ms).collect(),
            lookups: stored.lookups(),
            misses: stored.misses(),
            store_bytes,
            par,
        })
    })
}
