//! Differential profiling harness: for every workload and every
//! pipeline (10 workloads × 8 pipelines at +P+Q, plus the functional
//! model), running under the cycle-stack profiler must be
//! bit-identical to running without it — same stop reason, same cycle
//! count, same retirement totals, and a byte-identical serialized
//! snapshot — while every PE's stack sums exactly to the observed
//! cycle count. A proptest half drives randomly generated linear
//! phase-machine programs under random streamed traffic and asserts
//! the same attribution invariant cycle by cycle.

use proptest::prelude::*;
use tia::core::{Pipeline, UarchConfig, UarchPe};
use tia::fabric::{ProcessingElement, Snapshotable, System, Token};
use tia::isa::{Params, Program};
use tia::prof::{profile_run, PeProfiler, ProfileSource};
use tia::sim::FuncPe;
use tia::workloads::{PeFactory, Scale, WorkloadKind, ALL_WORKLOADS};

/// Cycle budget per differential run: long enough to cross each
/// workload's halt at test scale.
const K: u64 = 1_500;

fn snapshot_json<P: ProcessingElement + Snapshotable>(system: &System<P>) -> String {
    serde_json::to_string_pretty(&system.save_state()).expect("snapshot serializes")
}

/// Runs the profiled-vs-plain differential for one workload over one
/// PE factory: bit-identical outcomes, and the attribution invariant
/// on every PE of the profiled run.
fn assert_differential<P, F>(kind: WorkloadKind, factory: &mut F, label: &str)
where
    P: ProcessingElement + Snapshotable + ProfileSource,
    F: PeFactory<P>,
{
    let params = Params::default();
    let build = |f: &mut F| {
        kind.build(&params, Scale::Test, f)
            .unwrap_or_else(|e| panic!("{kind}/{label}: build failed: {e}"))
    };

    let mut profiled = build(factory);
    let k = K.min(profiled.max_cycles);
    let (reason_profiled, profiler) = profile_run(&mut profiled.system, k);

    let mut plain = build(factory);
    let reason_plain = plain.system.run(k);

    assert_eq!(
        reason_profiled, reason_plain,
        "{kind}/{label}: stop reasons diverged"
    );
    assert_eq!(
        profiled.system.cycle(),
        plain.system.cycle(),
        "{kind}/{label}: cycle counters diverged"
    );
    assert_eq!(
        profiled.system.total_retired(),
        plain.system.total_retired(),
        "{kind}/{label}: retirement counts diverged"
    );
    assert_eq!(
        snapshot_json(&profiled.system),
        snapshot_json(&plain.system),
        "{kind}/{label}: final state diverged"
    );

    let observed = profiler.observed_cycles();
    assert_eq!(observed, profiled.system.cycle(), "{kind}/{label}");
    for pe in 0..profiler.num_pes() {
        assert_eq!(
            profiler.stack(pe).total(),
            observed,
            "{kind}/{label} pe {pe}: cycle-stack attribution leak"
        );
    }
}

#[test]
fn functional_model_profiling_is_bit_identical() {
    for kind in ALL_WORKLOADS {
        let mut factory = |p: &Params, prog| FuncPe::new(p, prog);
        assert_differential(kind, &mut factory, "func");
    }
}

#[test]
fn uarch_sweep_profiling_is_bit_identical() {
    // 10 workloads × 8 pipelines. +P+Q exercises every profiler path:
    // speculation quashes, predictor recovery, and the +Q-visible
    // queue state the stall insight reads.
    for kind in ALL_WORKLOADS {
        for pipeline in Pipeline::ALL {
            let config = UarchConfig::with_pq(pipeline);
            let mut factory = |p: &Params, prog| UarchPe::new(p, config, prog);
            assert_differential(kind, &mut factory, &format!("+P+Q/{pipeline}"));
        }
    }
}

// ---------------------------------------------------------------------
// Property half: random linear phase-machine programs under random
// streamed traffic, stack checked after every cycle.

/// One phase of a generated program: do `op` then advance.
#[derive(Debug, Clone)]
struct Phase {
    op: &'static str,
}

const OPS: &[&str] = &[
    "add %r0, %r0, 1",
    "sub %r1, %r0, 1",
    "and %r2, %r0, %r1",
    "or %r3, %r0, 3",
    "xor %r2, %r2, %r1",
    "umax %r1, %r0, 1",
    "ult %p3, %r1, %r0",
    "mov %r3, %r0",
];

fn arb_phase() -> impl Strategy<Value = Phase> {
    (0..OPS.len()).prop_map(|i| Phase { op: OPS[i] })
}

/// Builds a linear phase machine over predicates %p0..%p1 (4 phases
/// max): each phase runs its op once, the last phase halts. Phase `i`
/// is encoded in two predicate bits.
fn build_program(phases: &[Phase], params: &Params) -> Program {
    let mut text = String::new();
    for (i, phase) in phases.iter().enumerate() {
        let cur = format!("XXXXXX{}{}", (i >> 1) & 1, i & 1);
        let next = i + 1;
        let set = format!("ZZZZZZ{}{}", (next >> 1) & 1, next & 1);
        text.push_str(&format!(
            "when %p == {cur}: {}; set %p = {set};\n",
            phase.op
        ));
    }
    let last = phases.len();
    let cur = format!("XXXXXX{}{}", (last >> 1) & 1, last & 1);
    text.push_str(&format!("when %p == {cur}: halt;\n"));
    tia::asm::assemble(&text, params).expect("generated program assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs, random preloaded input tokens, both models:
    /// after *every* stepped cycle the stack total equals the cycles
    /// observed so far, and the final stacks account for the drain
    /// tail in the `halted` leaf.
    #[test]
    fn random_programs_never_leak_cycles(
        phases in proptest::collection::vec(arb_phase(), 1..=3),
        preload in proptest::collection::vec(0u32..100, 0..4),
        pipeline_idx in 0..Pipeline::ALL.len(),
    ) {
        let params = Params::default();
        let program = build_program(&phases, &params);

        // Functional model.
        let mut pe = FuncPe::new(&params, program.clone()).expect("valid program");
        for &v in &preload {
            let _ = pe.input_queue_mut(0).push(Token::data(v));
        }
        check_stepwise(&mut pe, |p| { p.step_cycle(); }, |p| p.halted());

        // Cycle-level model at +P+Q on a random pipeline.
        let config = UarchConfig::with_pq(Pipeline::ALL[pipeline_idx]);
        let mut pe = UarchPe::new(&params, config, program).expect("valid program");
        for &v in &preload {
            let _ = pe.input_queue_mut(0).push(Token::data(v));
        }
        check_stepwise(&mut pe, |p| p.step_cycle(), |p| p.halted());
    }
}

/// Steps `pe` to halt (bounded), observing after every cycle and
/// asserting the invariant each time, then drains 7 post-halt cycles
/// that must land in the `halted` leaf.
fn check_stepwise<P: ProfileSource>(
    pe: &mut P,
    mut step: impl FnMut(&mut P),
    halted: impl Fn(&P) -> bool,
) {
    let mut prof = PeProfiler::new(pe, 0);
    let mut cycle = 0u64;
    while !halted(pe) && cycle < 400 {
        step(pe);
        cycle += 1;
        prof.observe(pe, cycle);
        assert_eq!(prof.stack().total(), cycle, "attribution leak at {cycle}");
    }
    let halted_before = prof.stack().halted;
    for _ in 0..7 {
        cycle += 1;
        prof.observe(pe, cycle);
    }
    assert_eq!(prof.stack().total(), cycle);
    if halted(pe) {
        assert_eq!(prof.stack().halted, halted_before + 7);
    }
}
