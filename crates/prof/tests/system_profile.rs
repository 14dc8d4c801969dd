//! System-level profiling over real workloads: the attribution
//! invariant holds for every PE, memory-serial workloads show memory
//! latency, the critical-path walk names producers, and a profiled run
//! is bit-identical to an unprofiled one.

use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_fabric::StopReason;
use tia_isa::Params;
use tia_prof::{profile_run, CriticalPathReport, Leaf, SystemProfiler};
use tia_workloads::{Scale, WorkloadKind};

fn build(kind: WorkloadKind, config: UarchConfig) -> tia_workloads::build::Built<UarchPe> {
    let params = Params::default();
    let mut factory = |p: &Params, prog| UarchPe::new(p, config, prog);
    kind.build(&params, Scale::Test, &mut factory)
        .expect("workload builds")
}

#[test]
fn every_pe_stack_sums_to_observed_cycles() {
    for kind in [WorkloadKind::Bst, WorkloadKind::Merge, WorkloadKind::Filter] {
        let config = UarchConfig::with_pq(Pipeline::T_D_X1_X2);
        let mut built = build(kind, config);
        let max = built.max_cycles;
        let (reason, profiler) = profile_run(&mut built.system, max);
        assert_eq!(reason, StopReason::Condition, "{kind:?} halts");
        let observed = profiler.observed_cycles();
        assert_eq!(observed, built.system.cycle());
        for pe in 0..profiler.num_pes() {
            assert_eq!(
                profiler.stack(pe).total(),
                observed,
                "{kind:?} pe {pe}: attribution must cover every cycle"
            );
        }
        let aggregate = profiler.aggregate();
        assert_eq!(aggregate.total(), observed * profiler.num_pes() as u64);
    }
}

#[test]
fn memory_serial_workload_shows_memory_latency() {
    // bst chases pointers through a memory read port: the worker PE
    // must spend attributable cycles waiting on load responses.
    let mut built = build(WorkloadKind::Bst, UarchConfig::base(Pipeline::TDX));
    let max = built.max_cycles;
    let (_, profiler) = profile_run(&mut built.system, max);
    let aggregate = profiler.aggregate();
    assert!(
        aggregate.memory_latency > 0,
        "bst must attribute cycles to memory latency, got {aggregate:?}"
    );
}

#[test]
fn critical_path_walks_upstream_and_serializes() {
    // merge is multi-PE: two sorters feed a merger, so the walk from
    // the busiest PE must cross at least one channel.
    let mut built = build(WorkloadKind::Merge, UarchConfig::with_pq(Pipeline::T_DX));
    let max = built.max_cycles;
    let (_, profiler) = profile_run(&mut built.system, max);
    let report = CriticalPathReport::from_system(&built.system, &profiler);
    assert_eq!(report.ranked_pes.len(), built.system.num_pes());
    assert!(
        report
            .ranked_pes
            .windows(2)
            .all(|w| w[0].busy_share >= w[1].busy_share),
        "PEs must rank by descending busy share"
    );
    assert!(!report.ranked_channels.is_empty());
    assert!(
        report.critical_path.len() >= 2,
        "multi-PE workload must yield a path with producers: {:?}",
        report.critical_path
    );
    let rendered = report.render();
    assert!(rendered.contains("critical path"));
    assert!(rendered.contains("PEs by busy share"));
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(json.contains("ranked_pes"));
}

#[test]
fn profiled_run_is_bit_identical_to_unprofiled() {
    let config = UarchConfig::with_pq(Pipeline::T_D_X1_X2);
    let mut plain = build(WorkloadKind::DotProduct, config);
    let mut profiled = build(WorkloadKind::DotProduct, config);
    let max = plain.max_cycles;

    let plain_reason = plain.system.run(max);
    let (prof_reason, profiler) = profile_run(&mut profiled.system, max);

    assert_eq!(plain_reason, prof_reason);
    assert_eq!(plain.system.cycle(), profiled.system.cycle());
    assert_eq!(
        plain.system.total_retired(),
        profiled.system.total_retired()
    );
    let snap_plain =
        serde_json::to_string_pretty(&plain.system.save_state()).expect("snapshot serializes");
    let snap_prof =
        serde_json::to_string_pretty(&profiled.system.save_state()).expect("snapshot serializes");
    assert_eq!(snap_plain, snap_prof, "profiling must not perturb the run");
    assert!(profiler.aggregate().retire > 0);
}

#[test]
fn bottleneck_labels_are_plausible() {
    let mut built = build(
        WorkloadKind::Stream,
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
    );
    let max = built.max_cycles;
    let (_, profiler) = profile_run(&mut built.system, max);
    let worker = built.worker;
    let stack = profiler.stack(worker);
    let label = stack.bottleneck();
    assert!(
        Leaf::ALL.contains(&label),
        "bottleneck must be a taxonomy leaf"
    );
    // A profile over a finished run has nonzero retire on the worker.
    assert!(stack.retire > 0);
    // Resumable observation: a fresh profiler over the finished
    // system attributes zero new cycles without panicking.
    let mut late = SystemProfiler::new(&built.system);
    late.observe(&built.system);
    assert_eq!(late.observed_cycles(), 0);
    assert_eq!(late.aggregate().total(), 0);
}
