//! `dse_export` rejects arguments it does not accept instead of
//! silently running an uncached sweep.

use std::process::Command;

#[test]
fn retired_partial_flag_is_rejected() {
    let store = std::env::temp_dir().join(format!("dse-export-cli-{}.store", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_dse_export"))
        .args(["--test-scale", "--partial"])
        .arg(&store)
        .output()
        .expect("dse_export runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "accepted --partial:\n{stderr}");
    assert!(stderr.contains("`--partial`"), "unnamed:\n{stderr}");
    assert!(out.stdout.is_empty(), "no sweep ran");
    assert!(!store.exists(), "no store was written");
}
