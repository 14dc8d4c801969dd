//! Verifies the zero-allocation hot loop: once a `UarchPe` (or
//! `FuncPe`) reaches steady state, stepping it — retiring, stalling
//! or idling — performs no heap allocation at all. A
//! counting global allocator is armed around the measured region;
//! warm-up cycles beforehand let one-time growth (queue backing
//! stores, speculation stack, predictor tables) happen where it
//! belongs: at construction and first use, not per cycle. Arming and
//! counting are per thread, so tests running in parallel never count
//! each other's set-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tia_asm::assemble;
use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_fabric::{ProcessingElement, Token};
use tia_isa::Params;
use tia_sim::FuncPe;

struct CountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_armed() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting armed on this thread and returns
/// how many heap allocations it performed.
fn allocations_during<F: FnOnce()>(f: F) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.with(Cell::get)
}

fn uarch_pe(config: UarchConfig, source: &str) -> UarchPe {
    let params = Params::default();
    let program = assemble(source, &params).expect("test program assembles");
    UarchPe::new(&params, config, program).expect("valid program")
}

#[test]
fn steady_state_retirement_does_not_allocate() {
    for config in [
        UarchConfig::base(Pipeline::TDX),
        UarchConfig::with_p(Pipeline::T_DX),
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
    ] {
        // A self-sustaining compute loop: retires every issue slot,
        // exercises the trigger, decode, execute and commit phases.
        // The decoded slots and dispatch table are built at
        // construction and only read afterwards.
        let mut pe = uarch_pe(
            config,
            "when %p == XXXXXXX0: add %r0, %r0, 1; set %p = ZZZZZZZ1;\n\
             when %p == XXXXXXX1: ult %p2, %r0, 1000; set %p = ZZZZZZZ0;",
        );
        for _ in 0..200 {
            pe.step_cycle();
        }
        let allocations = allocations_during(|| {
            for _ in 0..2_000 {
                pe.step_cycle();
            }
        });
        assert_eq!(
            allocations, 0,
            "{config}: steady-state stepping must not allocate"
        );
        assert!(pe.counters().retired > 1_000, "the loop actually ran");
    }
}

#[test]
fn steady_state_stalls_do_not_allocate() {
    let mut pe = uarch_pe(
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
        "when %p == XXXXXXXX with %i0.0: mov %o0.0, %i0; deq %i0;",
    );
    for _ in 0..100 {
        pe.step_cycle();
    }
    let allocations = allocations_during(|| {
        // Pure stall cycles (served by the latched stall after the
        // first one).
        for _ in 0..1_000 {
            pe.step_cycle();
        }
    });
    assert_eq!(allocations, 0, "stalling must not allocate");
    assert!(pe.counters().cycles > 1_000);
}

#[test]
fn steady_state_queue_traffic_does_not_allocate() {
    let mut pe = uarch_pe(
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
        "when %p == XXXXXXXX with %i0.0: add %o0.0, %i0, 1; deq %i0;",
    );
    for cycle in 0..100u32 {
        let _ = pe.input_queue_mut(0).push(Token::data(cycle));
        pe.step_cycle();
        let _ = pe.output_queue_mut(0).pop();
    }
    let allocations = allocations_during(|| {
        for cycle in 0..2_000u32 {
            let _ = pe.input_queue_mut(0).push(Token::data(cycle));
            pe.step_cycle();
            let _ = pe.output_queue_mut(0).pop();
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state relay traffic must not allocate"
    );
    assert!(pe.counters().retired > 1_000);
}

#[test]
fn functional_model_steady_state_does_not_allocate() {
    let params = Params::default();
    let program = assemble(
        "when %p == XXXXXXXX with %i0.0: add %o0.0, %i0, 1; deq %i0;",
        &params,
    )
    .expect("assembles");
    let mut pe = FuncPe::new(&params, program).expect("valid program");
    for cycle in 0..100u32 {
        let _ = pe.input_queue_mut(0).push(Token::data(cycle));
        pe.step_cycle();
        let _ = pe.output_queue_mut(0).pop();
    }
    let allocations = allocations_during(|| {
        for cycle in 0..2_000u32 {
            let _ = pe.input_queue_mut(0).push(Token::data(cycle));
            pe.step_cycle();
            let _ = pe.output_queue_mut(0).pop();
        }
        // Idle cycles too.
        for _ in 0..100 {
            pe.step_cycle();
        }
        assert!(pe.is_quiescent());
    });
    assert_eq!(
        allocations, 0,
        "functional-model steady state must not allocate"
    );
}
