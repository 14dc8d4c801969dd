//! Property test: the trigger engine's shortcuts are architecturally
//! invisible. Random programs run cycle-for-cycle while external
//! "fabric" traffic lands on the input queues and drains the output
//! queues mid-run.
//!
//! * [`UarchPe`]: two copies of the same PE. The reference copy
//!   snapshots and restores itself before every step; `restore` drops
//!   the stall latch, so that copy never takes the repeat-stall
//!   shortcut and scans the dispatch table's candidates every cycle.
//!   Every architectural observable, the retirement trace, and the
//!   final snapshot bytes must match the copy that runs undisturbed.
//! * [`FuncPe`]: before every step, the interpreted guard match
//!   ([`FuncPe::triggered_slot`]) must name the slot the compiled scan
//!   then fires. A second copy restored before every step (dropping
//!   the idle latch) must stay identical as above.
//!
//! (With debug assertions on, `UarchPe` additionally cross-checks
//! every candidate scan — including the scans narrowed over every
//! resolution of in-flight predicate writes — and every latched-stall
//! return against a full scan of every slot, and checks its per-event
//! in-flight pressure against a refold of the whole pipeline each
//! trigger phase, so a divergence is caught at the exact offending
//! cycle.)

use proptest::prelude::*;
use tia_asm::assemble;
use tia_core::{Pipeline, UarchConfig, UarchPe};
use tia_fabric::{ProcessingElement, Token};
use tia_isa::{Params, Tag};
use tia_sim::FuncPe;

/// SplitMix64 — one seed from the proptest strategy drives the whole
/// program + traffic schedule, so failures reproduce from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// A random but well-formed program over predicate bits p0..p2, all
/// four input queues, both output queues, registers r0..r3 and tags
/// 0/1 — including negated tag checks and multi-queue dequeues, the
/// guards the compiler lowers to masks and check lists.
fn random_program(rng: &mut Rng) -> String {
    let slots = 2 + rng.below(6);
    let mut src = String::new();
    for _ in 0..slots {
        let mut pattern = String::from("XXXXX");
        for _ in 0..3 {
            pattern.push(match rng.below(3) {
                0 => 'X',
                1 => '0',
                _ => '1',
            });
        }

        // Optionally gate on a tagged input token, sometimes negated.
        let queue = if rng.chance(1, 2) {
            Some((rng.below(4), rng.below(2), rng.chance(1, 4)))
        } else {
            None
        };
        let with = match queue {
            Some((q, tag, true)) => format!(" with %i{q}.!{tag}"),
            Some((q, tag, false)) => format!(" with %i{q}.{tag}"),
            None => String::new(),
        };

        let reg_src = format!("%r{}", rng.below(4));
        let source = match queue {
            Some((q, _, _)) if rng.chance(2, 3) => format!("%i{q}"),
            _ => reg_src,
        };
        let op = match rng.below(8) {
            0 => format!("add %r{}, {source}, {};", rng.below(4), rng.below(16)),
            1 => format!("sub %r{}, {source}, {};", rng.below(4), rng.below(16)),
            2 => format!("mov %r{}, {source};", rng.below(4)),
            3 | 4 => format!(
                "add %o{}.{}, {source}, {};",
                rng.below(2),
                rng.below(2),
                rng.below(16)
            ),
            5 | 6 => format!("ult %p{}, {source}, {};", rng.below(3), rng.below(24)),
            _ => "nop;".to_string(),
        };
        let pred_dst: Option<u64> = if op.starts_with("ult") {
            Some(op.as_bytes()["ult %p".len()] as u64 - b'0' as u64)
        } else {
            None
        };

        let set = if rng.chance(2, 3) {
            let mut update = String::from("ZZZZZ");
            for bit in (0..3u64).rev() {
                let free = pred_dst != Some(bit);
                update.push(match rng.below(3) {
                    0 if free => '0',
                    1 if free => '1',
                    _ => 'Z',
                });
            }
            if update.chars().all(|c| c == 'Z') {
                String::new()
            } else {
                format!(" set %p = {update};")
            }
        } else {
            String::new()
        };

        let deq = match queue {
            Some((q, _, _)) if rng.chance(3, 4) => format!(" deq %i{q};"),
            _ => String::new(),
        };

        src.push_str(&format!("when %p == {pattern}{with}: {op}{set}{deq}\n"));
    }
    if rng.chance(1, 4) {
        src.push_str("when %p == XXXXX111: halt;\n");
    }
    src
}

fn configs_under_test() -> Vec<UarchConfig> {
    vec![
        UarchConfig::base(Pipeline::TDX),
        UarchConfig::base(Pipeline::T_DX),
        UarchConfig::with_p(Pipeline::T_DX),
        UarchConfig::with_pq(Pipeline::TD_X1_X2),
        UarchConfig::base(Pipeline::T_D_X1_X2),
        UarchConfig::with_pq(Pipeline::T_D_X1_X2),
    ]
}

/// Steps an undisturbed [`UarchPe`] and a copy restored from its own
/// snapshot before every step (so it never reuses a latched stall)
/// through the same cycle-by-cycle schedule of external queue traffic
/// and compares every architectural observable, the retirement trace,
/// and the final snapshot bytes.
fn run_uarch_differential(
    config: UarchConfig,
    source: &str,
    traffic_seed: u64,
) -> Result<(), TestCaseError> {
    let params = Params::default();
    let program = match assemble(source, &params) {
        Ok(p) => p,
        Err(e) => return Err(TestCaseError::fail(format!("{e}\nprogram:\n{source}"))),
    };
    let mut engine = UarchPe::new(&params, config, program.clone()).expect("PE builds");
    let mut reference = UarchPe::new(&params, config, program).expect("PE builds");
    engine.record_trace(true);
    reference.record_trace(true);

    let mut rng = Rng(traffic_seed);
    for cycle in 0..300u32 {
        if rng.chance(1, 3) {
            let q = rng.below(4) as usize;
            let tag = Tag::new(rng.below(2) as u32, &params).expect("tag in range");
            let token = Token::new(tag, rng.below(100) as u32);
            let a = engine.input_queue_mut(q).push(token);
            let b = reference.input_queue_mut(q).push(token);
            prop_assert_eq!(a, b, "push acceptance diverged at cycle {}", cycle);
        }
        if rng.chance(1, 4) {
            let q = rng.below(2) as usize;
            let a = engine.output_queue_mut(q).pop();
            let b = reference.output_queue_mut(q).pop();
            prop_assert_eq!(a, b, "drained tokens diverged at cycle {}", cycle);
        }

        let state = reference.snapshot();
        reference.restore(&state).expect("own snapshot restores");
        engine.step_cycle();
        reference.step_cycle();

        prop_assert_eq!(
            engine.counters(),
            reference.counters(),
            "counters diverged at cycle {}\nprogram:\n{}",
            cycle,
            source
        );
        prop_assert_eq!(
            engine.predicates().bits(),
            reference.predicates().bits(),
            "predicates diverged at cycle {}",
            cycle
        );
        for r in 0..4 {
            prop_assert_eq!(
                engine.reg(r),
                reference.reg(r),
                "r{} diverged at cycle {}",
                r,
                cycle
            );
        }
        for q in 0..4 {
            prop_assert_eq!(
                engine.input_queue(q),
                reference.input_queue(q),
                "input queue {} diverged at cycle {}",
                q,
                cycle
            );
        }
        for q in 0..2 {
            prop_assert_eq!(
                engine.output_queue(q),
                reference.output_queue(q),
                "output queue {} diverged at cycle {}",
                q,
                cycle
            );
        }
        prop_assert_eq!(
            engine.halted(),
            reference.halted(),
            "halt diverged at cycle {}",
            cycle
        );
        if engine.halted() {
            break;
        }
    }

    prop_assert_eq!(
        engine.trace(),
        reference.trace(),
        "retirement traces diverged\nprogram:\n{}",
        source
    );
    let a = serde_json::to_string(&engine.snapshot()).expect("snapshot serializes");
    let b = serde_json::to_string(&reference.snapshot()).expect("snapshot serializes");
    prop_assert_eq!(a, b, "snapshots are not byte-identical");
    Ok(())
}

/// The functional simulator's compiled scan and idle short-circuit,
/// checked against the interpreter before every step and against a
/// copy restored before every step.
fn run_func_differential(source: &str, traffic_seed: u64) -> Result<(), TestCaseError> {
    let params = Params::default();
    let program = match assemble(source, &params) {
        Ok(p) => p,
        Err(e) => return Err(TestCaseError::fail(format!("{e}\nprogram:\n{source}"))),
    };
    let mut engine = FuncPe::new(&params, program.clone()).expect("PE builds");
    let mut reference = FuncPe::new(&params, program).expect("PE builds");
    engine.record_trace(true);
    reference.record_trace(true);

    let mut rng = Rng(traffic_seed);
    for cycle in 0..300u32 {
        if rng.chance(1, 3) {
            let q = rng.below(4) as usize;
            let tag = Tag::new(rng.below(2) as u32, &params).expect("tag in range");
            let token = Token::new(tag, rng.below(100) as u32);
            let a = engine.input_queue_mut(q).push(token);
            let b = reference.input_queue_mut(q).push(token);
            prop_assert_eq!(a, b, "push acceptance diverged at cycle {}", cycle);
        }
        if rng.chance(1, 4) {
            let q = rng.below(2) as usize;
            let a = engine.output_queue_mut(q).pop();
            let b = reference.output_queue_mut(q).pop();
            prop_assert_eq!(a, b, "drained tokens diverged at cycle {}", cycle);
        }

        let expected = engine.triggered_slot();
        let state = reference.snapshot();
        reference.restore(&state).expect("own snapshot restores");
        let a = engine.step_cycle();
        let b = reference.step_cycle();
        prop_assert_eq!(
            a,
            expected,
            "compiled scan fired a different slot than the interpreter at cycle {}",
            cycle
        );
        prop_assert_eq!(a, b, "fired slots diverged at cycle {}", cycle);

        prop_assert_eq!(
            engine.counters(),
            reference.counters(),
            "counters diverged at cycle {}\nprogram:\n{}",
            cycle,
            source
        );
        prop_assert_eq!(
            engine.predicates().bits(),
            reference.predicates().bits(),
            "predicates diverged at cycle {}",
            cycle
        );
        prop_assert_eq!(
            engine.halted(),
            reference.halted(),
            "halt diverged at cycle {}",
            cycle
        );
        if engine.halted() {
            break;
        }
    }

    prop_assert_eq!(
        engine.trace(),
        reference.trace(),
        "retirement traces diverged\nprogram:\n{}",
        source
    );
    let a = serde_json::to_string(&engine.snapshot()).expect("snapshot serializes");
    let b = serde_json::to_string(&reference.snapshot()).expect("snapshot serializes");
    prop_assert_eq!(a, b, "snapshots are not byte-identical");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn compiled_trigger_engine_matches_the_interpreter(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let source = random_program(&mut rng);
        let traffic_seed = rng.next();
        for config in configs_under_test() {
            run_uarch_differential(config, &source, traffic_seed)?;
        }
        run_func_differential(&source, traffic_seed)?;
    }
}
