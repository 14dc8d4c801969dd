//! One benchmark run: set up, then repeat passes of the workload until
//! the measuring time is spent, checking every output, and reduce the
//! passes to the metric catalogue.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tia_workloads::{Scale, ALL_WORKLOADS};

use crate::host;
use crate::inputs::{self, InputSeed};
use crate::metrics;
use crate::spans::{self, Recorder, Span, Tracer};
use crate::stats::{median, percentile, tail};
use crate::sweep::{self, SweepSpec, Tally};
use crate::toolchain;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The suite sweep against a fresh, empty measurement store.
    SweepCold,
    /// The suite sweep answered from a store that set-up fills.
    SweepWarm,
    /// Lint, model check and functional run of every workload fabric.
    Toolchain,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "sweep_cold" => Some(Workload::SweepCold),
            "sweep_warm" => Some(Workload::SweepWarm),
            "toolchain" => Some(Workload::Toolchain),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::SweepWarm => "sweep_warm",
            Workload::Toolchain => "toolchain",
        }
    }
}

/// The abstract-state bound for the model checker: the one the
/// repository's `verify_gate` test uses. The four fabrics that stay
/// inconclusive explore up to it, so it sets most of a toolchain pass's
/// cost; `udiv`, the largest fabric that is proved, needs 41,245
/// states, so a bound below that turns its verdict inconclusive.
const MAX_STATES: usize = 1 << 16;

/// At most this many `tia-par` workers measure a sweep's 32
/// configurations, fewer on a host with fewer cores, so the figures
/// compare across hosts with at least two.
const MAX_WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median. Building inputs or
/// fabrics takes milliseconds, so it repeats often enough for a steady
/// median; a warm set-up is a whole cold sweep, so it repeats less.
const SETUP_REPEATS: usize = 15;
const WARM_SETUP_REPEATS: usize = 3;

/// Items pooled into one block for the per-item percentiles: one
/// sweep's 32 configurations, or three toolchain passes' 30 fabrics.
/// Three passes fit in a run even on a slow host, and the toolchain's
/// p66 tail is then the middle of one fabric's three samples instead of
/// the edge between two fabrics' times, which host noise moves most.
const BLOCK_ITEMS: usize = 30;

/// The tail percentile keeps at least this many samples beyond it.
const TAIL_BEYOND: usize = 10;

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// The `--seed` argument; 0 keeps the default inputs.
    pub seed: u64,
    /// Measuring time; at least one pass always runs.
    pub seconds: f64,
    /// Alternate traced and untraced passes and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Where temporary stores and the span file go.
    pub out_dir: PathBuf,
    /// The checkout root: the source revision, and the committed
    /// `results/design_space.json` a default-seed paper-scale sweep must
    /// reproduce byte for byte.
    pub root: PathBuf,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// The metrics for this mode, in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Host-side facts about the run.
    pub provenance: Vec<(&'static str, String)>,
    /// Every span of the traced passes.
    pub spans: Vec<Span>,
    /// Per-layer self seconds, median over traced passes, for the
    /// human-readable summary.
    pub layer_self_s: BTreeMap<String, f64>,
}

/// Counts output checks; a failed check is reported and counted, never
/// a panic, so `fail_ratio` means something.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Folds in a sweep's golden-checked cycle-level runs.
    fn runs(&mut self, tally: &Tally) {
        self.attempted += Tally::get(&tally.runs);
        self.failed += Tally::get(&tally.failed_runs);
    }
}

/// One measured pass.
#[derive(Debug)]
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    items_ms: Vec<f64>,
    traced: bool,
    /// Per-layer values; traced passes only.
    layers: BTreeMap<String, f64>,
}

/// What a workload's pass hands back besides its timing.
#[derive(Debug, Default)]
struct PassOut {
    items_ms: Vec<f64>,
    counts: BTreeMap<String, f64>,
}

/// Runs one workload as `opts` describes.
///
/// # Errors
///
/// Fails when set-up cannot complete — a store or fabric that cannot
/// be created — rather than measuring something else.
pub fn run(opts: &Options) -> Result<Report, String> {
    let work = opts.out_dir.join(format!("work-{}", std::process::id()));
    fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let result = run_in(opts, &work);
    let _ = fs::remove_dir_all(&work);
    result
}

fn run_in(opts: &Options, work: &Path) -> Result<Report, String> {
    let seed = InputSeed::from_arg(opts.seed);
    let spec = SweepSpec {
        scale: opts.scale,
        seed,
        workers: host::nproc().min(MAX_WORKERS),
    };
    let reference = (seed == InputSeed::Default && opts.scale == Scale::Paper).then(|| {
        fs::read_to_string(opts.root.join("results/design_space.json")).unwrap_or_default()
    });
    let recorder = Recorder::default();
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut store_totals = (0u64, 0u64);
    let mut next_store = 0;
    let mut fresh_store = || {
        next_store += 1;
        work.join(format!("store-{next_store}.bin"))
    };

    let passes = match opts.workload {
        Workload::SweepCold => {
            for _ in 0..SETUP_REPEATS {
                let started = Instant::now();
                setup_inputs(&spec)?;
                setups.push(started.elapsed().as_secs_f64());
            }
            let mut first: Option<(String, u64)> = None;
            measure(opts, &recorder, |tracer| {
                let tally = Tally::default();
                let out = sweep::sweep(&spec, &fresh_store(), &tally, tracer)?;
                checks.runs(&tally);
                checks.check(out.misses == 32 && out.lookups == 0, || {
                    format!("a fresh store answered {} configurations", out.lookups)
                });
                let cycles = Tally::get(&tally.sim_cycles);
                let (export, first_cycles) =
                    first.get_or_insert_with(|| (out.export.clone(), cycles));
                checks.check(cycles == *first_cycles, || {
                    format!("simulated {cycles} cycles, first sweep {first_cycles}")
                });
                checks.check(out.export == *export, || {
                    "export differs between repeats".into()
                });
                check_reference(&mut checks, reference.as_deref(), &out.export);
                store_totals.0 += out.lookups;
                store_totals.1 += out.misses;
                Ok(sweep_counts(&out, &tally))
            })?
        }
        Workload::SweepWarm => {
            let mut filled = None;
            for _ in 0..WARM_SETUP_REPEATS {
                let path = fresh_store();
                let tally = Tally::default();
                let started = Instant::now();
                let out = sweep::sweep(&spec, &path, &tally, Tracer(None))?;
                setups.push(started.elapsed().as_secs_f64());
                checks.runs(&tally);
                check_reference(&mut checks, reference.as_deref(), &out.export);
                if let Some((_, export)) = &filled {
                    checks.check(out.export == *export, || "set-up exports differ".into());
                }
                filled = Some((path, out.export));
            }
            let (path, cold_export) = filled.expect("at least one set-up");
            measure(opts, &recorder, |tracer| {
                let tally = Tally::default();
                let out = sweep::sweep(&spec, &path, &tally, tracer)?;
                checks.runs(&tally);
                checks.check(out.misses == 0, || {
                    format!("the warm sweep simulated {} configurations", out.misses)
                });
                checks.check(out.export == cold_export, || {
                    "the warm export differs from the cold export".into()
                });
                store_totals.0 += out.lookups;
                store_totals.1 += out.misses;
                Ok(sweep_counts(&out, &tally))
            })?
        }
        Workload::Toolchain => {
            let mut fabrics = Vec::new();
            for _ in 0..SETUP_REPEATS {
                let started = Instant::now();
                fabrics = toolchain::build_fabrics(opts.scale, seed, MAX_STATES)?;
                setups.push(started.elapsed().as_secs_f64());
            }
            measure(opts, &recorder, |tracer| {
                let results = toolchain::pass(&fabrics, opts.scale, seed, tracer);
                for r in &results {
                    checks.check(r.verdict_ok, || {
                        format!("{}: {}", r.kind, r.report.verdict())
                    });
                    checks.check(r.func.is_ok(), || match &r.func {
                        Err(e) => format!("{} on the functional model: {e}", r.kind),
                        Ok(_) => String::new(),
                    });
                }
                Ok(toolchain_counts(&results))
            })?
        }
    };

    let mut metrics = Vec::new();
    let spans = recorder.take();
    let layer_self_s = median_layers(passes.iter().filter(|p| p.traced).map(|p| &p.layers), |k| {
        k.starts_with("self:")
    });
    let (block_samples, p50, (tail_pct, tail_ms)) = item_percentiles(&passes);
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    if opts.trace {
        let mut layers = median_layers(
            passes.iter().filter(|p| p.traced).map(|p| &p.layers),
            |_| true,
        );
        let wall = |traced: bool| {
            median(
                &passes
                    .iter()
                    .filter(|p| p.traced == traced)
                    .map(|p| p.wall_s)
                    .collect::<Vec<_>>(),
            )
        };
        if let (Some(traced), Some(plain)) = (wall(true), wall(false)) {
            layers.insert("trace.overhead_pct".into(), (traced / plain - 1.0) * 100.0);
        }
        layers.insert(
            "fail_ratio".into(),
            checks.failed as f64 / checks.attempted.max(1) as f64,
        );
        layers.insert("config.tail_pct".into(), f64::from(tail_pct));
        layers.insert("config.block_samples".into(), block_samples as f64);
        for def in metrics::per_layer() {
            let value = layers.get(&def.name).copied().unwrap_or(0.0);
            metrics.push((def.name, value, def.unit));
        }
    } else {
        let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
        let cpu: f64 = untraced.iter().map(|p| p.cpu_s).sum::<f64>() / untraced.len() as f64;
        let values = [
            median(&setups).unwrap_or(0.0),
            median(&walls).unwrap_or(0.0),
            p50,
            tail_ms,
            cpu,
            host::peak_rss_mb().unwrap_or(0.0),
        ];
        for (def, value) in metrics::end_to_end().into_iter().zip(values) {
            metrics.push((def.name, value, def.unit));
        }
    }

    let provenance = vec![
        ("workload", opts.workload.name().to_string()),
        ("git_revision", host::git_revision(&opts.root)),
        ("nproc", host::nproc().to_string()),
        ("workers", spec.workers.to_string()),
        ("scale", tia_bench::scale_label(opts.scale).to_string()),
        ("seed", opts.seed.to_string()),
        ("inputs", seed.scale_label(opts.scale)),
        ("TIA_JIT", host::env_value("TIA_JIT")),
        ("TIA_FAST_FORWARD", host::env_value("TIA_FAST_FORWARD")),
        ("max_states", MAX_STATES.to_string()),
        ("store_hits", store_totals.0.to_string()),
        ("store_misses", store_totals.1.to_string()),
        ("passes", passes.len().to_string()),
        (
            "traced_passes",
            passes.iter().filter(|p| p.traced).count().to_string(),
        ),
        (
            "config_tail",
            format!("p{tail_pct} of {block_samples} items per block"),
        ),
    ];
    Ok(Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        provenance,
        spans,
        layer_self_s,
    })
}

/// Cold set-up: generate and assemble every workload's seeded inputs,
/// the work each configuration of the sweep repeats.
fn setup_inputs(spec: &SweepSpec) -> Result<(), String> {
    let params = tia_isa::Params::default();
    let config = tia_core::UarchConfig::all()[0];
    for kind in ALL_WORKLOADS {
        let mut factory = |p: &tia_isa::Params, prog| tia_core::UarchPe::new(p, config, prog);
        inputs::build(kind, spec.scale, spec.seed, &params, &mut factory)
            .map_err(|e| format!("{kind}: build failed: {e}"))?;
    }
    Ok(())
}

fn check_reference(checks: &mut Checks, reference: Option<&str>, export: &str) {
    if let Some(reference) = reference {
        checks.check(export == reference, || {
            "the export differs from the committed results/design_space.json".into()
        });
    }
}

/// Repeats `one_pass` until the measuring time is spent. In a traced
/// run passes alternate untraced and traced, starting untraced, and at
/// least one of each runs, so the per-layer numbers and the tracing
/// overhead come from interleaved passes of the same run.
fn measure(
    opts: &Options,
    recorder: &Recorder,
    mut one_pass: impl FnMut(Tracer) -> Result<PassOut, String>,
) -> Result<Vec<Pass>, String> {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = opts.trace && passes.len() % 2 == 1;
        let spent = started.elapsed().as_secs_f64() >= opts.seconds;
        let missing_mode = opts.trace && passes.len() < 2;
        if !passes.is_empty() && spent && !missing_mode {
            break;
        }
        let pass_id = passes.len() as u64;
        recorder.set_pass(pass_id);
        let tracer = Tracer(traced.then_some(recorder));
        let cpu_before = host::cpu_seconds().unwrap_or(0.0);
        let wall = Instant::now();
        let out = one_pass(tracer)?;
        let wall_s = wall.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds().unwrap_or(0.0) - cpu_before;
        let layers = if traced {
            let spans: Vec<Span> = recorder.pass_spans(pass_id);
            layer_values(&spans, out.counts, wall_s)
        } else {
            BTreeMap::new()
        };
        passes.push(Pass {
            wall_s,
            cpu_s,
            items_ms: out.items_ms,
            traced,
            layers,
        });
    }
    Ok(passes)
}

fn sweep_counts(out: &sweep::Sweep, tally: &Tally) -> PassOut {
    let mut counts = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        counts.insert(name.to_string(), value);
    };
    let get = |c: &std::sync::atomic::AtomicU64| Tally::get(c) as f64;
    put("workloads.builds", get(&tally.builds));
    put("core.sim_cycles", get(&tally.sim_cycles));
    put("core.retired", get(&tally.retired));
    for (kind, cycles) in ALL_WORKLOADS.iter().zip(&tally.cycles_by_workload) {
        put(&format!("core.sim_cycles.{}", kind.name()), get(cycles));
    }
    put("fabric.ff_probes", get(&tally.ff_probes));
    put("fabric.ff_probe_hits", get(&tally.ff_probe_hits));
    put(
        "fabric.ff_suppressed_probes",
        get(&tally.ff_suppressed_probes),
    );
    put("fabric.ff_skipped_cycles", get(&tally.ff_skipped_cycles));
    put("par.workers", out.par.workers as f64);
    put(
        "par.busy_s",
        out.par.busy.iter().map(|b| b.as_secs_f64()).sum(),
    );
    put(
        "par.min_utilization",
        out.par
            .utilization()
            .into_iter()
            .fold(f64::INFINITY, f64::min),
    );
    put("energy.points", out.points as f64);
    put("energy.front_points", out.front_points as f64);
    put("store.lookups", out.lookups as f64);
    put("store.misses", out.misses as f64);
    put("store.file_bytes", out.store_bytes as f64);
    put("export.bytes", out.export.len() as f64);
    PassOut {
        items_ms: out.config_ms.clone(),
        counts,
    }
}

fn toolchain_counts(results: &[toolchain::FabricResult]) -> PassOut {
    let mut counts = BTreeMap::new();
    let sum = |f: &dyn Fn(&toolchain::FabricResult) -> f64| results.iter().map(f).sum::<f64>();
    counts.insert("workloads.builds".into(), results.len() as f64);
    counts.insert("lint.diagnostics".into(), sum(&|r| r.diagnostics as f64));
    counts.insert("verify.states".into(), sum(&|r| r.report.states as f64));
    counts.insert(
        "verify.transitions".into(),
        sum(&|r| r.report.transitions as f64),
    );
    counts.insert(
        "verify.exhaustive".into(),
        sum(&|r| f64::from(u8::from(r.report.exhaustive))),
    );
    counts.insert(
        "sim.func_cycles".into(),
        sum(&|r| *r.func.as_ref().unwrap_or(&0) as f64),
    );
    for r in results {
        counts.insert(
            format!("verify.states.{}", r.kind.name()),
            r.report.states as f64,
        );
    }
    PassOut {
        items_ms: results.iter().map(|r| r.ms).collect(),
        counts,
    }
}

/// The span layers behind each per-layer time metric; `true` also
/// reports it per workload.
const TIMED_LAYERS: &[(&str, &str, bool)] = &[
    ("workloads.build", "workloads.build_s", false),
    ("workloads.golden", "workloads.golden_s", false),
    ("core.sim", "core.sim_s", true),
    ("energy.grid", "energy.grid_s", false),
    ("energy.pareto", "energy.pareto_s", false),
    ("store.open", "store.open_s", false),
    ("store.get", "store.get_s", false),
    ("store.put", "store.put_s", false),
    ("export.encode", "export.encode_s", false),
    ("lint.system", "lint.system_s", false),
    ("verify.check", "verify.check_s", true),
    ("sim.func", "sim.func_s", false),
];

/// One traced pass's per-layer values: span self times (summed over
/// threads) plus the pass's counts, and the ratios derived from both.
/// Every span's self time is also kept under `self:<name>` for the
/// summary.
fn layer_values(
    spans: &[Span],
    counts: BTreeMap<String, f64>,
    wall_s: f64,
) -> BTreeMap<String, f64> {
    let mut values = counts;
    for ((name, detail), seconds) in spans::self_seconds_by_layer(spans) {
        *values.entry(format!("self:{name}")).or_insert(0.0) += seconds;
        if let Some(&(_, metric, per_workload)) = TIMED_LAYERS.iter().find(|l| l.0 == name) {
            *values.entry(metric.to_string()).or_insert(0.0) += seconds;
            if per_workload && !detail.is_empty() {
                *values.entry(format!("{metric}.{detail}")).or_insert(0.0) += seconds;
            }
        }
    }
    let get = |values: &BTreeMap<String, f64>, name: &str| values.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut derived = vec![
        (
            "core.mcycles_per_s".to_string(),
            ratio(get(&values, "core.sim_cycles"), get(&values, "core.sim_s")) / 1e6,
        ),
        (
            "fabric.ff_hit_ratio".into(),
            ratio(
                get(&values, "fabric.ff_probe_hits"),
                get(&values, "fabric.ff_probes"),
            ),
        ),
        (
            "fabric.ff_skip_ratio".into(),
            ratio(
                get(&values, "fabric.ff_skipped_cycles"),
                get(&values, "core.sim_cycles"),
            ),
        ),
        (
            "store.hit_ratio".into(),
            ratio(
                get(&values, "store.lookups"),
                get(&values, "store.lookups") + get(&values, "store.misses"),
            ),
        ),
        (
            "sim.func_mcycles_per_s".into(),
            ratio(get(&values, "sim.func_cycles"), get(&values, "sim.func_s")) / 1e6,
        ),
        (
            "verify_kstates_per_s".into(),
            ratio(
                get(&values, "verify.states"),
                get(&values, "verify.check_s"),
            ) / 1e3,
        ),
        (
            "sim_mcycles_per_s".into(),
            ratio(get(&values, "core.sim_cycles"), wall_s) / 1e6,
        ),
    ];
    if get(&values, "verify.check_s") > 0.0 {
        derived.push(("check_s".into(), wall_s));
    }
    for kind in ALL_WORKLOADS {
        let name = kind.name();
        derived.push((
            format!("core.mcycles_per_s.{name}"),
            ratio(
                get(&values, &format!("core.sim_cycles.{name}")),
                get(&values, &format!("core.sim_s.{name}")),
            ) / 1e6,
        ));
    }
    values.extend(derived);
    values
}

/// The median over passes of each value whose key `keep` selects.
fn median_layers<'a>(
    passes: impl Iterator<Item = &'a BTreeMap<String, f64>>,
    keep: impl Fn(&str) -> bool,
) -> BTreeMap<String, f64> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for layers in passes {
        for (name, &value) in layers.iter().filter(|(k, _)| keep(k)) {
            samples.entry(name.clone()).or_default().push(value);
        }
    }
    samples
        .into_iter()
        .map(|(name, values)| (name, median(&values).unwrap_or(0.0)))
        .collect()
}

/// Per-item timing over the untraced passes: items are pooled in blocks
/// of whole passes holding at least [`BLOCK_ITEMS`], so every block has
/// the same size and supports the same tail percentile whatever the
/// number of passes; a partial last block is dropped unless it is the
/// only one. Returns the block size, and the median over blocks of the
/// block p50 and of the block tail.
fn item_percentiles(passes: &[Pass]) -> (usize, f64, (u32, f64)) {
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new()];
    for pass in passes.iter().filter(|p| !p.traced) {
        let block = blocks.last_mut().expect("one block is always open");
        block.extend(&pass.items_ms);
        if block.len() >= BLOCK_ITEMS {
            blocks.push(Vec::new());
        }
    }
    if blocks.len() > 1 {
        blocks.pop();
    }
    let size = blocks[0].len();
    let p50s: Vec<f64> = blocks.iter().filter_map(|b| percentile(b, 50)).collect();
    let tails: Vec<(u32, f64)> = blocks
        .iter()
        .map(|b| tail(b, TAIL_BEYOND).unwrap_or((100, b.iter().copied().fold(0.0, f64::max))))
        .collect();
    let pct = tails.first().map_or(100, |t| t.0);
    let tail_values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    (
        size,
        median(&p50s).unwrap_or(0.0),
        (pct, median(&tail_values).unwrap_or(0.0)),
    )
}
