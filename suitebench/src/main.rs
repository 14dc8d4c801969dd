//! The benchmark command.
//!
//! ```text
//! cargo run --offline --release --manifest-path suitebench/Cargo.toml -- \
//!     --workload sweep_cold|sweep_warm|toolchain --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--seed 0` keeps every workload's
//! default inputs, so a paper-scale sweep must reproduce the committed
//! `results/design_space.json` byte for byte. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics untraced (`--trace 0`), the
//! per-layer metrics traced (`--trace 1`). A traced run also writes its
//! spans to `.suitebench-out/spans-<workload>-seed<N>.json`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use suitebench::run::{run, Options, Report, Workload};
use suitebench::spans::Span;
use tia_workloads::Scale;

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1).collect()) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("suitebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            if opts.trace {
                if let Err(e) = write_spans(&opts, &report) {
                    eprintln!("suitebench: {e}");
                    return ExitCode::FAILURE;
                }
            }
            print_report(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("suitebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: Vec<String>) -> Result<Options, String> {
    let required = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("{flag} is required"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = required("--workload")?;
    let workload = Workload::from_name(workload).ok_or_else(|| {
        format!("unknown workload `{workload}` (sweep_cold, sweep_warm, toolchain)")
    })?;
    let seed = required("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Paper,
        out_dir: PathBuf::from(".suitebench-out"),
        root: PathBuf::from("."),
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit `f64` holds; non-finite values, which
/// JSON cannot carry, read as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn print_report(report: &Report) {
    let provenance: Vec<String> = report
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("provenance {{{}}}", provenance.join(", "));
    if !report.layer_self_s.is_empty() {
        println!("span self time per pass (median over traced passes):");
        let mut layers: Vec<(&String, &f64)> = report.layer_self_s.iter().collect();
        layers.sort_by(|a, b| b.1.total_cmp(a.1));
        for (name, seconds) in layers {
            println!(
                "  {:<24} {seconds:>12.6} s",
                name.trim_start_matches("self:")
            );
        }
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn span_json(span: &Span) -> String {
    format!(
        "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"detail\": {}, \"thread\": {}, \"pass\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
        span.id,
        span.parent.map_or("null".to_string(), |p| p.to_string()),
        json_string(span.name),
        json_string(span.detail),
        span.thread,
        span.pass,
        span.start_ns,
        span.end_ns
    )
}

fn write_spans(opts: &Options, report: &Report) -> Result<(), String> {
    let path = opts.out_dir.join(format!(
        "spans-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    let provenance: Vec<String> = report
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let spans: Vec<String> = report.spans.iter().map(span_json).collect();
    let doc = format!(
        "{{\"provenance\": {{{}}},\n\"spans\": [\n{}\n]}}\n",
        provenance.join(", "),
        spans.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
