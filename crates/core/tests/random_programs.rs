//! Randomized architectural equivalence: property-based generation of
//! terminating triggered programs, executed on the functional model
//! and on every microarchitecture (including the nesting and predictor
//! extensions). Final architectural state must be identical
//! everywhere.

mod support;

use proptest::prelude::*;

use support::{arb_step, build_program};
use tia_core::{Pipeline, PredictorKind, UarchConfig, UarchPe};
use tia_fabric::{ProcessingElement, Token};
use tia_isa::{Params, Program};
use tia_sim::FuncPe;

/// The architectural fingerprint compared across models.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    regs: Vec<u32>,
    preds: u32,
    outputs: Vec<Vec<(u32, u32)>>,
    retired: u64,
}

fn run_functional(program: &Program, params: &Params, feed: &[u32]) -> Fingerprint {
    let mut pe = FuncPe::new(params, program.clone()).expect("valid program");
    preload(&mut pe, params, feed);
    for _ in 0..10_000 {
        if pe.halted() {
            break;
        }
        pe.step_cycle();
    }
    assert!(pe.halted(), "functional model must halt");
    Fingerprint {
        regs: (0..params.num_regs).map(|i| pe.reg(i)).collect(),
        preds: pe.predicates().bits(),
        outputs: (0..params.num_output_queues)
            .map(|q| {
                pe.output_queue(q)
                    .iter()
                    .map(|t| (t.tag.value(), t.data))
                    .collect()
            })
            .collect(),
        retired: pe.counters().retired,
    }
}

fn run_uarch(program: &Program, params: &Params, feed: &[u32], config: UarchConfig) -> Fingerprint {
    let mut pe = UarchPe::new(params, config, program.clone()).expect("valid program");
    preload(&mut pe, params, feed);
    for _ in 0..50_000 {
        if pe.halted() {
            break;
        }
        pe.step_cycle();
    }
    assert!(pe.halted(), "{config} must halt");
    Fingerprint {
        regs: (0..params.num_regs).map(|i| pe.reg(i)).collect(),
        preds: pe.predicates().bits(),
        outputs: (0..params.num_output_queues)
            .map(|q| {
                pe.output_queue(q)
                    .iter()
                    .map(|t| (t.tag.value(), t.data))
                    .collect()
            })
            .collect(),
        retired: pe.counters().retired,
    }
}

fn preload<P: ProcessingElement>(pe: &mut P, params: &Params, feed: &[u32]) {
    // Fill every input queue with a deterministic token stream so
    // input reads always have data.
    for q in 0..params.num_input_queues {
        for (i, &v) in feed.iter().enumerate() {
            let _ = pe
                .input_queue_mut(q)
                .push(Token::data(v.wrapping_add((q * 31 + i) as u32)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn every_microarchitecture_matches_the_functional_model(
        steps in prop::collection::vec(arb_step(), 1..13),
        feed in prop::collection::vec(any::<u32>(), 4..8),
    ) {
        let mut params = Params::default();
        // Deep enough queues that preloaded reads never starve.
        params.queue_capacity = 16;
        let program = build_program(&steps, &params);
        prop_assume!(program.validate(&params).is_ok());
        let golden = run_functional(&program, &params, &feed);

        let mut configs = UarchConfig::all();
        configs.push(UarchConfig::with_nested(Pipeline::T_D_X1_X2, 3));
        configs.push(UarchConfig::with_padding(Pipeline::T_D_X1_X2));
        configs.push(UarchConfig::with_predictor(
            Pipeline::T_D_X,
            PredictorKind::AlwaysTaken,
        ));
        for config in configs {
            let got = run_uarch(&program, &params, &feed, config);
            prop_assert_eq!(
                &got, &golden,
                "{} diverged from the functional model", config
            );
        }
    }
}
