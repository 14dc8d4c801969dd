//! A test-scale pass of all three workloads: every output check passes,
//! and the traced run loads the layer each workload was chosen for.

use std::path::PathBuf;

use suitebench::run::{run, Options, Report, Workload};
use tia_workloads::Scale;

fn options(workload: Workload, trace: bool) -> Options {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload.name());
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    Options {
        workload,
        seed: 0,
        seconds: 0.0,
        trace,
        scale: Scale::Test,
        out_dir,
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
    }
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("{name} is reported"))
        .1
}

fn run_clean(workload: Workload, trace: bool) -> Report {
    let report = run(&options(workload, trace)).expect("the run completes");
    assert!(report.attempted > 0, "{}: no checks ran", workload.name());
    assert_eq!(report.failed, 0, "{}: a check failed", workload.name());
    report
}

#[test]
fn sweep_cold_is_simulation() {
    let plain = run_clean(Workload::SweepCold, false);
    assert!(metric(&plain, "sweep_s") > 0.0);
    assert!(metric(&plain, "config_ms_tail") >= metric(&plain, "config_ms_p50"));
    let traced = run_clean(Workload::SweepCold, true);
    assert_eq!(metric(&traced, "fail_ratio"), 0.0);
    assert_eq!(metric(&traced, "store.misses"), 32.0);
    assert_eq!(metric(&traced, "energy.points"), 4520.0);
    assert_eq!(metric(&traced, "verify.check_s"), 0.0);
    let sim = metric(&traced, "core.sim_s");
    for layer in [
        "workloads.build_s",
        "store.get_s",
        "store.put_s",
        "export.encode_s",
    ] {
        assert!(sim > metric(&traced, layer), "core.sim_s ≤ {layer}");
    }
    assert!(!traced.spans.is_empty());
}

#[test]
fn sweep_warm_is_store_energy_and_export() {
    let plain = run_clean(Workload::SweepWarm, false);
    assert!(metric(&plain, "setup_s") > 0.0);
    let traced = run_clean(Workload::SweepWarm, true);
    assert_eq!(metric(&traced, "core.sim_s"), 0.0);
    assert_eq!(metric(&traced, "store.misses"), 0.0);
    assert_eq!(metric(&traced, "store.hit_ratio"), 1.0);
    assert!(metric(&traced, "store.get_s") > 0.0);
    assert!(metric(&traced, "export.encode_s") > 0.0);
    assert!(metric(&traced, "energy.grid_s") > 0.0);
}

#[test]
fn toolchain_is_lint_verify_and_functional_runs() {
    let plain = run_clean(Workload::Toolchain, false);
    assert!(metric(&plain, "sweep_s") > 0.0);
    let traced = run_clean(Workload::Toolchain, true);
    assert_eq!(metric(&traced, "core.sim_s"), 0.0);
    assert!(metric(&traced, "verify.states") > 0.0);
    assert!(metric(&traced, "verify.check_s") > metric(&traced, "sim.func_s"));
    assert!(metric(&traced, "verify_kstates_per_s") > 0.0);
    assert!(metric(&traced, "sim.func_cycles") > 0.0);
}
