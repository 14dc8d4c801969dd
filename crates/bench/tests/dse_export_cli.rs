//! The harness binaries reject arguments they do not accept instead of
//! silently running a sweep they were not asked for.

use std::path::PathBuf;
use std::process::Command;

/// A per-process temp path that must not exist after a rejected run.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("{name}-{}", std::process::id()))
}

/// Runs `bin` with `args`, asserting it fails before doing any work:
/// exit status 2, nothing on stdout, `flag` named on stderr.
fn assert_rejected(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "accepted {flag}:\n{stderr}");
    assert!(stderr.contains(&format!("`{flag}`")), "unnamed:\n{stderr}");
    assert!(out.stdout.is_empty(), "no sweep ran");
}

#[test]
fn retired_partial_flag_is_rejected() {
    let store = scratch("dse-export-cli.store");
    let store_arg = store.to_str().expect("UTF-8 temp path");
    assert_rejected(
        env!("CARGO_BIN_EXE_dse_export"),
        &["--test-scale", "--partial", store_arg],
        "--partial",
    );
    assert!(!store.exists(), "no store was written");
}

#[test]
fn retired_no_jit_flag_is_rejected() {
    // Each retired engine toggle fails `dse_export` and a figure
    // binary without writing their output files.
    for flag in ["--no-jit", "--no-fast-forward"] {
        let name = flag.trim_start_matches('-');
        let out = scratch(&format!("dse-export-{name}.json"));
        let out_arg = out.to_str().expect("UTF-8 temp path");
        assert_rejected(
            env!("CARGO_BIN_EXE_dse_export"),
            &["--test-scale", flag, "-o", out_arg],
            flag,
        );
        assert!(!out.exists(), "no export was written");

        let json = scratch(&format!("fig5-{name}.json"));
        let json_arg = json.to_str().expect("UTF-8 temp path");
        assert_rejected(
            env!("CARGO_BIN_EXE_fig5_cpi_stacks"),
            &["--test-scale", flag, "--json", json_arg],
            flag,
        );
        assert!(!json.exists(), "no figure data was written");
    }
}

#[test]
fn misspelled_scale_flag_is_rejected() {
    assert_rejected(
        env!("CARGO_BIN_EXE_fig5_cpi_stacks"),
        &["--test-scal"],
        "--test-scal",
    );
}

#[test]
fn binaries_without_a_sweep_reject_unknown_flags() {
    assert_rejected(
        env!("CARGO_BIN_EXE_fig3_breakdown"),
        &["--bogus"],
        "--bogus",
    );
}

#[test]
fn json_is_rejected_where_no_json_is_written() {
    let json = scratch("table3-json.json");
    let json_arg = json.to_str().expect("UTF-8 temp path");
    assert_rejected(
        env!("CARGO_BIN_EXE_table3_workloads"),
        &["--test-scale", "--json", json_arg],
        "--json",
    );
    assert!(!json.exists(), "no JSON was written");
}
