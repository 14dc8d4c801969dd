//! Exports the full design-space exploration as JSON for external
//! plotting (the Figure 6/7/8 scatter data).
//!
//! ```text
//! cargo run --release -p tia-bench --bin dse_export \
//!     [--test-scale] [-o points.json] [--store store.bin] [--expect-warm]
//! ```
//!
//! With `--store PATH` (or the `TIA_STORE` environment variable),
//! every per-configuration activity measurement is keyed through the
//! content-addressed measurement store at `PATH`: finished points are
//! answered from the store, only points whose canonical input hash is
//! absent are simulated, and a warm re-run produces byte-identical
//! output while simulating nothing (see docs/performance.md). An
//! interrupted run resumes the same way — the store is append-only,
//! so whatever completed before the interrupt is never re-simulated.
//!
//! A stale file found at `PATH` (another schema version, or a
//! pre-store JSON partial file) is moved aside and regenerated, never
//! trusted. Any other argument is an error: the process
//! exits nonzero naming it instead of running a sweep it was not asked
//! for (see [`tia_bench::scale_from_args`]).
//!
//! `--expect-warm` turns the run into a cache-integrity gate: the
//! process exits nonzero if any point had to be simulated (CI runs a
//! sweep twice against one store and asserts the second run is fully
//! warm with byte-identical output).

use std::fs;
use std::process::ExitCode;

use tia_bench::{scale_from_args, store_path_from_args, sweep_through_store};
use tia_energy::pareto::pareto_frontier;

fn main() -> ExitCode {
    let scale = scale_from_args(&[("-o", true), ("--output", true), ("--expect-warm", false)]);
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flags: &[&str]| {
        args.iter()
            .position(|a| flags.contains(&a.as_str()))
            .and_then(|i| args.get(i + 1).cloned())
    };
    let output = flag_value(&["-o", "--output"]);
    let expect_warm = args.iter().any(|a| a == "--expect-warm");
    let store = store_path_from_args();

    let points = match &store {
        Some(path) => {
            let (points, _lookups, simulated) = sweep_through_store(scale, path);
            if expect_warm && simulated > 0 {
                eprintln!(
                    "dse_export: --expect-warm, but {simulated} point(s) were \
                     not in the store at {} and had to be simulated",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
            points
        }
        None => {
            if expect_warm {
                eprintln!("dse_export: --expect-warm needs --store PATH (or TIA_STORE)");
                return ExitCode::FAILURE;
            }
            tia_bench::suite_design_points(scale)
        }
    };
    let frontier = pareto_frontier(&points);

    #[derive(serde::Serialize)]
    struct Export<'a> {
        points: &'a [tia_energy::DesignPoint],
        pareto_frontier: &'a [tia_energy::DesignPoint],
    }
    let json = serde_json::to_string_pretty(&Export {
        points: &points,
        pareto_frontier: &frontier,
    })
    .expect("design points serialize");

    match output {
        Some(path) => {
            fs::write(&path, &json).expect("write output file");
            eprintln!(
                "wrote {} design points ({} Pareto-optimal) to {path}",
                points.len(),
                frontier.len()
            );
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}
