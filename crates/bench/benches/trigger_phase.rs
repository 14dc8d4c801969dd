//! Criterion bench: trigger-stage cost per cycle as the static
//! program grows, in the two steady states a fabric PE lives in:
//!
//! * `idle` — every slot waits on input-queue tokens that never
//!   arrive (the dominant state of a PE awaiting fabric traffic).
//!   Nothing issues and the pipeline stays empty, so after the first
//!   cycle the latched stall (`last_stall`, with an unchanged queue
//!   fingerprint) answers every cycle without evaluating a slot; the
//!   cost should stay flat as slots grow.
//! * `busy` — one slot issues a perpetual counter every cycle while
//!   the rest are rejected on predicates alone. Nothing is latched
//!   with work in flight, so this measures the dispatch table's
//!   narrowing: only the slots whose predicate pattern matches the
//!   current state are evaluated.
//! * `hazard` — slot 0 is a looping datapath predicate writer on a
//!   four-stage pipeline without predicate prediction, so nearly every
//!   cycle scans with a predicate write in flight; the other slots
//!   never match. The scan walks only the slots that could match under
//!   some resolution of the in-flight bit, so the cost should stay
//!   flat as slots grow.

use criterion::{criterion_group, criterion_main, Criterion};
use tia_asm::assemble;
use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_isa::Params;

const CYCLES_PER_ITER: u32 = 1024;

/// Every slot blocks on a tagged token that never arrives.
fn idle_source(slots: usize) -> String {
    let mut s = String::new();
    for i in 0..slots {
        let q = i % 4;
        s.push_str(&format!(
            "when %p == XXXXXXX0 with %i{q}.1: nop; deq %i{q};\n"
        ));
    }
    s
}

/// Slot 0 issues every cycle; the rest never pass the predicate check.
fn busy_source(slots: usize) -> String {
    let mut s = String::from("when %p == XXXXXXX0: add %r0, %r0, 1;\n");
    for _ in 1..slots {
        s.push_str("when %p == XXXXXXX1: nop;\n");
    }
    s
}

/// Slot 0 rewrites `%p1` from the datapath forever; the rest need
/// `%p7`, which nothing sets.
fn hazard_source(slots: usize) -> String {
    let mut s = String::from("when %p == XXXXXXX0: ult %p1, %r0, 9;\n");
    for _ in 1..slots {
        s.push_str("when %p == 1XXXXXXX: nop;\n");
    }
    s
}

fn bench_trigger_phase(c: &mut Criterion) {
    let params = Params::default();
    for (scenario, source_of, config) in [
        (
            "idle",
            idle_source as fn(usize) -> String,
            UarchConfig::with_pq(Pipeline::T_DX),
        ),
        ("busy", busy_source, UarchConfig::with_pq(Pipeline::T_DX)),
        (
            "hazard",
            hazard_source,
            UarchConfig::base(Pipeline::T_D_X1_X2),
        ),
    ] {
        let mut group = c.benchmark_group(format!("trigger_phase_{scenario}"));
        for slots in [1usize, 2, 4, 8, 16] {
            let program = assemble(&source_of(slots), &params).expect("bench program assembles");
            let mut pe = UarchPe::new(&params, config, program).expect("PE builds");
            group.bench_function(format!("{slots}slots"), |b| {
                b.iter(|| {
                    for _ in 0..CYCLES_PER_ITER {
                        pe.step_cycle();
                    }
                    pe.counters().cycles
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_trigger_phase);
criterion_main!(benches);
