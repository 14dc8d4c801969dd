//! The metric catalogue: every name the benchmark prints, its unit and
//! which direction is better. `BENCHMARK.json` lists the same names.

use tia_workloads::ALL_WORKLOADS;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// What a user of the system sees; printed untraced, on every workload.
/// A "pass" is one suite sweep (`sweep_cold`, `sweep_warm`) or one
/// toolchain pass over the ten fabrics (`toolchain`); an "item" is one
/// configuration's measurement or one fabric's check.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::Lower;
    vec![
        def("setup_s", "s", Lower),
        def("sweep_s", "s", Lower),
        def("config_ms_p50", "ms", Lower),
        def("config_ms_tail", "ms", Lower),
        def("cpu_s", "s", Lower),
        def("peak_rss_mb", "MB", Lower),
    ]
}

/// Per-layer metrics, printed from the traced run. Each is a per-pass
/// value (the median over the run's traced passes) unless noted; a
/// layer the workload does not use reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = vec![
        def("sim_mcycles_per_s", "Mcycle/s", Higher),
        def("check_s", "s", Lower),
        def("verify_kstates_per_s", "kstate/s", Higher),
        def("fail_ratio", "ratio", Lower),
        def("trace.overhead_pct", "%", Lower),
        def("config.tail_pct", "pct", Higher),
        def("config.block_samples", "count", Higher),
        def("workloads.build_s", "s", Lower),
        def("workloads.builds", "count", Lower),
        def("workloads.golden_s", "s", Lower),
        def("core.sim_s", "s", Lower),
        def("core.sim_cycles", "count", Lower),
        def("core.retired", "count", Lower),
        def("core.mcycles_per_s", "Mcycle/s", Higher),
    ];
    for (metric, unit, better) in [
        ("core.sim_s", "s", Lower),
        ("core.sim_cycles", "count", Lower),
        ("core.mcycles_per_s", "Mcycle/s", Higher),
    ] {
        defs.extend(
            ALL_WORKLOADS
                .iter()
                .map(|w| def(format!("{metric}.{}", w.name()), unit, better)),
        );
    }
    defs.extend([
        def("fabric.ff_probes", "count", Lower),
        def("fabric.ff_probe_hits", "count", Higher),
        def("fabric.ff_suppressed_probes", "count", Higher),
        def("fabric.ff_skipped_cycles", "count", Higher),
        def("fabric.ff_hit_ratio", "ratio", Higher),
        def("fabric.ff_skip_ratio", "ratio", Higher),
        def("par.workers", "count", Higher),
        def("par.busy_s", "s", Lower),
        def("par.min_utilization", "ratio", Higher),
        def("energy.grid_s", "s", Lower),
        def("energy.points", "count", Higher),
        def("energy.pareto_s", "s", Lower),
        def("energy.front_points", "count", Higher),
        def("store.open_s", "s", Lower),
        def("store.get_s", "s", Lower),
        def("store.put_s", "s", Lower),
        def("store.lookups", "count", Higher),
        def("store.misses", "count", Lower),
        def("store.hit_ratio", "ratio", Higher),
        def("store.file_bytes", "B", Lower),
        def("export.encode_s", "s", Lower),
        def("export.bytes", "B", Lower),
        def("lint.system_s", "s", Lower),
        def("lint.diagnostics", "count", Lower),
        def("verify.check_s", "s", Lower),
        def("verify.states", "count", Lower),
        def("verify.transitions", "count", Lower),
        def("verify.exhaustive", "count", Higher),
    ]);
    for (metric, unit) in [("verify.check_s", "s"), ("verify.states", "count")] {
        defs.extend(
            ALL_WORKLOADS
                .iter()
                .map(|w| def(format!("{metric}.{}", w.name()), unit, Lower)),
        );
    }
    defs.extend([
        def("sim.func_s", "s", Lower),
        def("sim.func_cycles", "count", Lower),
        def("sim.func_mcycles_per_s", "Mcycle/s", Higher),
    ]);
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        match value {
            Value::Object(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key}: not an object"),
        }
    }

    fn text(value: &Value) -> &str {
        match value {
            Value::String(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        let Value::Array(entries) = field(doc, key) else {
            panic!("{key}: not an array");
        };
        entries
            .iter()
            .map(|e| {
                (
                    text(field(e, "name")).to_string(),
                    text(field(e, "unit")).to_string(),
                    text(field(e, "better")).to_string(),
                )
            })
            .collect()
    }

    fn catalogue(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.as_str().to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), catalogue(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), catalogue(per_layer()));
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(per_layer().len() <= 128);
    }
}
