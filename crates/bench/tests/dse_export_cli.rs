//! The harness binaries reject arguments they do not accept instead of
//! silently running a sweep they were not asked for.

use std::path::PathBuf;
use std::process::Command;

/// A per-process temp path that must not exist after a rejected run.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("{name}-{}", std::process::id()))
}

/// Runs `bin` with `args`, asserting it fails before doing any work:
/// nonzero exit, nothing on stdout, `flag` named on stderr.
fn assert_rejected(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "accepted {flag}:\n{stderr}");
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
    let out = scratch("dse-export-no-jit.json");
    let out_arg = out.to_str().expect("UTF-8 temp path");
    assert_rejected(
        env!("CARGO_BIN_EXE_dse_export"),
        &["--test-scale", "--no-jit", "-o", out_arg],
        "--no-jit",
    );
    assert!(!out.exists(), "no export was written");

    let json = scratch("fig5-no-jit.json");
    let json_arg = json.to_str().expect("UTF-8 temp path");
    assert_rejected(
        env!("CARGO_BIN_EXE_fig5_cpi_stacks"),
        &["--test-scale", "--no-jit", "--json", json_arg],
        "--no-jit",
    );
    assert!(!json.exists(), "no figure data was written");
}

#[test]
fn misspelled_scale_flag_is_rejected() {
    assert_rejected(
        env!("CARGO_BIN_EXE_fig5_cpi_stacks"),
        &["--test-scal"],
        "--test-scal",
    );
}
