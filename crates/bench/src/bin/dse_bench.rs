//! Measures serial vs parallel wall clock for the full `bst`-backed
//! design-space exploration and writes the numbers to `BENCH_dse.json`
//! (or the path given with `-o`), cross-checking that every parallel
//! run returns results bit-identical to the serial sweep. Also
//! reports per-worker scheduler utilization for every parallel run.
//!
//! Finally, A/B-times the content-addressed measurement store
//! (`tia-store`) over the same sweep: a cold sweep that simulates and
//! persists every point versus a warm sweep answered entirely from
//! the store, with the warm results asserted bit-identical.
//!
//! ```text
//! cargo run --release -p tia-bench --bin dse_bench \
//!     [--test-scale] [--assert-store] [-o BENCH_dse.json]
//! ```
//!
//! `--assert-store` gates the measurement store: the warm sweep must
//! simulate nothing, return bit-identical points, and not be slower
//! than the cold sweep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tia_bench::{activity_of, open_store, run_uarch_workload, scale_from_args, scale_label};
use tia_core::UarchConfig;
use tia_energy::dse::{explore, par_explore_stats_with, par_explore_with};
use tia_energy::SweepContext;
use tia_workloads::WorkloadKind;

#[derive(serde::Serialize)]
struct ParallelRun {
    workers: usize,
    seconds: f64,
    speedup_vs_serial: f64,
    cycles_per_second: f64,
    /// Work-stealing claim granularity the scheduler chose.
    chunk: usize,
    /// Items (configurations) each worker executed.
    worker_items: Vec<usize>,
    /// Busy time over wall-clock time, per worker.
    worker_utilization: Vec<f64>,
    /// The least-utilized worker (the balance limiter).
    min_utilization: f64,
}

/// Cold-vs-warm timing of the content-addressed measurement store
/// over the same sweep.
#[derive(serde::Serialize)]
struct StoreRun {
    /// Sweep over an empty store: every point simulated and persisted.
    cold_seconds: f64,
    /// Sweep over the store the cold sweep filled: every point
    /// answered by hash lookup, nothing simulated.
    warm_seconds: f64,
    speedup: f64,
    cold_simulated: u64,
    warm_lookups: u64,
    warm_simulated: u64,
    bit_identical: bool,
}

#[derive(serde::Serialize)]
struct Report {
    host_threads: usize,
    scale: String,
    design_points: usize,
    /// Cycles simulated by one full sweep (identical for every
    /// configuration below — that is what `bit_identical` asserts).
    simulated_cycles: u64,
    serial_seconds: f64,
    cycles_per_second: f64,
    parallel: Vec<ParallelRun>,
    store: StoreRun,
    bit_identical: bool,
    note: String,
}

fn main() {
    let scale = scale_from_args(&[("--assert-store", false), ("-o", true), ("--output", true)]);
    let args: Vec<String> = std::env::args().collect();
    let assert_store = args.iter().any(|a| a == "--assert-store");
    let output = args
        .iter()
        .position(|a| a == "-o" || a == "--output")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_dse.json".to_string());
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // The bst activity source, instrumented to count simulated cycles
    // so the report can state throughput in cycles/s, not just
    // sweeps/s.
    let sim_cycles = AtomicU64::new(0);
    let source = |config: &UarchConfig| {
        let run = run_uarch_workload(WorkloadKind::Bst, *config, scale);
        sim_cycles.fetch_add(run.counters.cycles, Ordering::Relaxed);
        activity_of(&run)
    };

    // Warm caches (page-in, allocator) before timing anything.
    let _ = par_explore_with(1, &source);
    sim_cycles.store(0, Ordering::Relaxed);

    let start = Instant::now();
    let mut measure = |config: &UarchConfig| source(config);
    let serial = explore(&mut measure);
    let serial_seconds = start.elapsed().as_secs_f64();
    // Every sweep below simulates exactly this many cycles (the runs
    // are asserted bit-identical), so count once and reuse.
    let simulated_cycles = sim_cycles.load(Ordering::Relaxed);

    let mut parallel = Vec::new();
    let mut bit_identical = true;
    for workers in [1usize, 2, 4] {
        let start = Instant::now();
        let (points, stats) = par_explore_stats_with(workers, &source);
        let seconds = start.elapsed().as_secs_f64();
        bit_identical &= points == serial;
        let worker_utilization = stats.utilization();
        let min_utilization = worker_utilization.iter().copied().fold(1.0, f64::min);
        parallel.push(ParallelRun {
            workers,
            seconds,
            speedup_vs_serial: serial_seconds / seconds,
            cycles_per_second: simulated_cycles as f64 / seconds,
            chunk: stats.chunk,
            worker_items: stats.items.clone(),
            worker_utilization,
            min_utilization,
        });
        eprintln!(
            "par_explore {workers}w: {seconds:.2}s ({:.2}x vs serial {serial_seconds:.2}s, \
             min worker utilization {min_utilization:.2})",
            serial_seconds / seconds
        );
    }

    // Cold vs warm A/B of the content-addressed measurement store
    // over the same serial sweep: the cold pass simulates and persists
    // every point, the warm pass reopens the file and answers every
    // point by canonical-hash lookup.
    let store_path =
        std::env::temp_dir().join(format!("tia-dse-bench-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let ctx = SweepContext::new("bst", scale_label(scale));
    let cold_src = open_store(&source, &store_path, ctx.clone());
    let start = Instant::now();
    let cold_points = par_explore_with(1, &cold_src);
    let cold_seconds = start.elapsed().as_secs_f64();
    let cold_simulated = cold_src.misses();
    drop(cold_src);
    let warm_src = open_store(&source, &store_path, ctx);
    let start = Instant::now();
    let warm_points = par_explore_with(1, &warm_src);
    let warm_seconds = start.elapsed().as_secs_f64();
    let store = StoreRun {
        cold_seconds,
        warm_seconds,
        speedup: cold_seconds / warm_seconds.max(f64::EPSILON),
        cold_simulated,
        warm_lookups: warm_src.lookups(),
        warm_simulated: warm_src.misses(),
        bit_identical: cold_points == serial && warm_points == serial,
    };
    let _ = std::fs::remove_file(&store_path);
    eprintln!(
        "store cold {cold_seconds:.2}s vs warm {warm_seconds:.4}s \
         ({:.0}x, warm answered {} from store / simulated {}, bit_identical = {})",
        store.speedup, store.warm_lookups, store.warm_simulated, store.bit_identical
    );
    bit_identical &= store.bit_identical;

    let report = Report {
        host_threads,
        scale: format!("{scale:?}"),
        design_points: serial.len(),
        simulated_cycles,
        serial_seconds,
        cycles_per_second: simulated_cycles as f64 / serial_seconds,
        parallel,
        store,
        bit_identical,
        note: "Every figure times the bst workload only, so \
               cycles_per_second is a proxy for simulator speed, not an \
               end-to-end figure: the end-to-end benchmark is suitebench \
               (BENCHMARK.json), whose sweep_cold workload simulates the \
               whole suite. \
               Speedups are bounded by the measuring host's core count \
               (host_threads); on a single-core host all worker counts \
               degenerate to serial throughput and the figures record \
               engine overhead, not scaling (worker_utilization shows \
               the scheduler's balance independently of core count). \
               The store block A/B-times the content-addressed \
               measurement store (tia-store, cold fill vs fully warm \
               lookups) over the identical serial sweep."
            .to_string(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&output, json + "\n").expect("write report");
    eprintln!(
        "wrote {output} ({} design points, bit_identical = {})",
        serial.len(),
        report.bit_identical
    );
    assert!(
        report.bit_identical,
        "parallel or store-backed exploration diverged from serial"
    );
    // The timing gate carries a small absolute slack: at test scale a
    // whole sweep takes tens of milliseconds, where scheduler jitter
    // alone exceeds any bound. The slack is negligible at paper scale.
    const GATE_SLACK_SECONDS: f64 = 0.05;
    if assert_store {
        assert!(
            report.store.bit_identical,
            "store-backed sweeps diverged from the uncached serial sweep"
        );
        assert_eq!(
            report.store.warm_simulated, 0,
            "a warm store still had to simulate points"
        );
        assert!(
            report.store.warm_seconds <= report.store.cold_seconds + GATE_SLACK_SECONDS,
            "warm store sweep is slower than the cold fill \
             ({:.3}s vs {:.3}s)",
            report.store.warm_seconds,
            report.store.cold_seconds,
        );
    }
}
