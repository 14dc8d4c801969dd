//! Golden-file tests for the `tia-funcsim` observability surface:
//! the `--trace-out` / `--trace-format` / `--metrics-out` /
//! `--cpi-window` flags must produce documents that parse back with
//! `serde_json` and carry the expected event stream, and enabling
//! tracing must not perturb the architectural results. Retired flags
//! fail instead of being ignored.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use serde::Value;

/// A three-slot accumulator: sums tag-0 tokens from `%i0`, and on a
/// tag-1 token emits the sum on `%o0` and halts.
const PROGRAM: &str = "\
when %p == XXXXXXX0 with %i0.0: add %r1, %r1, %i0; deq %i0;
when %p == XXXXXXX0 with %i0.1: mov %o0.0, %r1; deq %i0; set %p = ZZZZZZZ1;
when %p == XXXXXXX1: halt;
";

/// Scratch directory (under the target dir) for one named test.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_program(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("accumulate.tia");
    fs::write(&path, PROGRAM).expect("write program");
    path
}

fn funcsim(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_tia-funcsim"))
        .args(args)
        .output()
        .expect("spawn tia-funcsim");
    assert!(
        out.status.success(),
        "tia-funcsim failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn chrome_trace_round_trips_with_tracks_issues_and_stalls() {
    let dir = scratch("chrome_trace");
    let program = write_program(&dir);
    let trace = dir.join("trace.json");
    // Stream tokens in slowly so the PE genuinely idles between them.
    funcsim(&[
        "--stream",
        "0:5,6,1:0@3",
        "--trace-out",
        trace.to_str().unwrap(),
        program.to_str().unwrap(),
    ]);

    let text = fs::read_to_string(&trace).expect("trace written");
    let doc: Value = serde_json::from_str(&text).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");

    let named = |ph: &str, name: &str| -> usize {
        events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some(ph)
                    && e.get("name").and_then(Value::as_str) == Some(name)
            })
            .count()
    };
    // Per-PE track metadata: a process_name plus the six named tracks
    // (issue, stall, speculation, predictor, queues, profile).
    assert_eq!(named("M", "process_name"), 1);
    assert_eq!(named("M", "thread_name"), 6);
    // At least one issue slice and one (coalesced) stall slice.
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("X")
                && e.get("name")
                    .and_then(Value::as_str)
                    .is_some_and(|n| n.starts_with("issue "))
        }),
        "expected an issue slice"
    );
    assert!(
        named("X", "not_triggered") >= 1,
        "expected a not_triggered stall slice"
    );
    // Queue occupancy appears as a counter track.
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("C")),
        "expected a queue occupancy counter event"
    );
}

#[test]
fn jsonl_trace_parses_line_by_line() {
    let dir = scratch("jsonl_trace");
    let program = write_program(&dir);
    let trace = dir.join("trace.jsonl");
    funcsim(&[
        "--in",
        "0:5,6,1:0",
        "--trace-out",
        trace.to_str().unwrap(),
        "--trace-format",
        "jsonl",
        program.to_str().unwrap(),
    ]);

    let text = fs::read_to_string(&trace).expect("trace written");
    let mut issues = 0usize;
    for line in text.lines() {
        let event: Value = serde_json::from_str(line).expect("each line is valid JSON");
        assert!(event.get("pe").and_then(Value::as_u64).is_some());
        assert!(event.get("cycle").and_then(Value::as_u64).is_some());
        let kind = event.get("kind").expect("kind present");
        if kind.get("Issue").is_some() {
            issues += 1;
        }
    }
    assert_eq!(issues, 4, "four instructions retire in this program");
}

#[test]
fn metrics_document_has_counters_histograms_and_timeline() {
    let dir = scratch("metrics");
    let program = write_program(&dir);
    let metrics = dir.join("metrics.json");
    funcsim(&[
        "--stream",
        "0:5,6,1:0@3",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--cpi-window",
        "4",
        program.to_str().unwrap(),
    ]);

    let text = fs::read_to_string(&metrics).expect("metrics written");
    let doc: Value = serde_json::from_str(&text).expect("metrics is valid JSON");
    let counters = doc.get("counters").expect("counters object");
    assert_eq!(counters.get("retired").and_then(Value::as_u64), Some(4));
    assert_eq!(counters.get("idle").and_then(Value::as_u64), Some(4));
    let histograms = doc.get("histograms").expect("histograms object");
    assert!(histograms.get("queue_occupancy").is_some());
    let timeline = doc.get("cpi_timeline").expect("cpi_timeline object");
    assert_eq!(timeline.get("window").and_then(Value::as_u64), Some(4));
    let windows = timeline
        .get("windows")
        .and_then(Value::as_array)
        .expect("windows array");
    assert!(!windows.is_empty(), "timeline has at least one window");
}

#[test]
fn tracing_does_not_perturb_architectural_results() {
    let dir = scratch("bit_identity");
    let program = write_program(&dir);
    let trace = dir.join("trace.json");
    let untraced = funcsim(&["--in", "0:5,6,1:0", program.to_str().unwrap()]);
    let traced = funcsim(&[
        "--in",
        "0:5,6,1:0",
        "--trace-out",
        trace.to_str().unwrap(),
        program.to_str().unwrap(),
    ]);
    // Registers, predicates, outputs, and every counter printed in the
    // summary must be bit-identical with tracing on.
    assert_eq!(
        String::from_utf8_lossy(&untraced.stdout),
        String::from_utf8_lossy(&traced.stdout)
    );
}

#[test]
fn retired_no_fast_forward_flag_is_rejected() {
    let dir = scratch("no_fast_forward");
    let program = write_program(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_tia-funcsim"))
        .args(["--no-fast-forward", program.to_str().unwrap()])
        .output()
        .expect("spawn tia-funcsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "accepted --no-fast-forward:\n{stderr}"
    );
    assert!(
        stderr.contains("unknown flag --no-fast-forward"),
        "unnamed:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing was simulated");
}
