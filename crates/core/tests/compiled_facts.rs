//! The decoded per-slot facts that drive `UarchPe`'s trigger scan
//! (`tia_jit::CompiledSlot`) agree with the `Instruction` helpers they
//! are lowered from — for every slot of the ten workload fabrics, of
//! the shipped assembly examples, and of random programs. Each mask is
//! checked bit by bit against membership in the helper's output, so
//! the check does not share the lowering's folds.

mod support;

use std::path::PathBuf;

use proptest::prelude::*;
use support::{arb_step, build_program};
use tia_asm::assemble;
use tia_isa::{Params, Program};
use tia_jit::CompiledProgram;
use tia_workloads::{ProbePe, Scale, ALL_WORKLOADS};

/// Whether bit `index` of `mask` is set.
fn bit(mask: u64, index: usize) -> bool {
    mask >> index & 1 == 1
}

fn assert_facts_agree(program: &Program, params: &Params, what: &str) {
    let compiled = CompiledProgram::compile(program, params);
    assert_eq!(compiled.slots().len(), program.len(), "{what}: slot count");
    for (slot, (c, i)) in compiled
        .slots()
        .iter()
        .zip(program.instructions())
        .enumerate()
    {
        let at = format!("{what} slot {slot}");
        assert_eq!(c.valid, i.valid, "{at}: valid");
        assert_eq!(
            bit(compiled.valid_slots(), slot),
            i.valid,
            "{at}: valid set"
        );
        for q in 0..params.num_input_queues {
            let operand = i.input_operands().any(|o| o.index() == q);
            let dequeued = i.dequeues.iter().any(|d| d.index() == q);
            assert_eq!(
                bit(c.need_mask.into(), q),
                operand || dequeued,
                "{at}: need_mask bit {q}"
            );
            assert_eq!(
                bit(c.deq_mask.into(), q),
                dequeued,
                "{at}: deq_mask bit {q}"
            );
        }
        assert_eq!(c.need_mask >> params.num_input_queues, 0, "{at}: need_mask");
        assert_eq!(
            c.out_queue.map(usize::from),
            i.enqueues().map(|q| q.index()),
            "{at}: out_queue"
        );
        for r in 0..params.num_regs {
            assert_eq!(
                bit(c.reg_reads, r),
                i.register_reads().any(|read| read.index() == r),
                "{at}: reg_reads bit {r}"
            );
        }
        let beyond = c.reg_reads.checked_shr(params.num_regs as u32).unwrap_or(0);
        assert_eq!(beyond, 0, "{at}: reg_reads");
        assert_eq!(
            c.reg_write.map(usize::from),
            i.register_write().map(|r| r.index()),
            "{at}: reg_write"
        );
        assert_eq!(
            c.pred_dst.map(usize::from),
            i.dst.predicate().map(|p| p.index()),
            "{at}: pred_dst"
        );
        assert_eq!(
            c.touched,
            i.trigger.predicates.read_set() | i.predicate_write_set(),
            "{at}: touched"
        );
        assert_eq!(c.on_set, i.trigger.predicates.on_set(), "{at}: on_set");
        assert_eq!(c.off_set, i.trigger.predicates.off_set(), "{at}: off_set");
        assert_eq!(c.checks.len(), i.trigger.queue_checks.len(), "{at}: checks");
        for (lowered, check) in c.checks.iter().zip(&i.trigger.queue_checks) {
            assert_eq!(usize::from(lowered.queue), check.queue.index(), "{at}");
            assert_eq!(
                (lowered.tag, lowered.negate),
                (check.tag, check.negate),
                "{at}"
            );
        }
    }
}

#[test]
fn workload_programs_decode_faithfully() {
    let params = Params::default();
    for kind in ALL_WORKLOADS {
        let mut factory = |p: &Params, prog| ProbePe::new(p, prog);
        let built = kind
            .build(&params, Scale::Paper, &mut factory)
            .unwrap_or_else(|e| panic!("{kind} builds over probes: {e}"));
        for pe in 0..built.system.num_pes() {
            let what = format!("{kind} pe{pe}");
            assert_facts_agree(built.system.pe(pe).program(), &params, &what);
        }
    }
}

#[test]
fn example_programs_decode_faithfully() {
    let params = Params::default();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/asm");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&dir).expect("examples/asm exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("tia") {
            continue;
        }
        seen += 1;
        let source = std::fs::read_to_string(&path).expect("readable example");
        let program = assemble(&source, &params).expect("example assembles");
        assert_facts_agree(&program, &params, &path.display().to_string());
    }
    assert!(seen >= 3, "only {seen} .tia examples found — moved?");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn random_programs_decode_faithfully(
        steps in prop::collection::vec(arb_step(), 1..13),
    ) {
        let params = Params::default();
        let program = build_program(&steps, &params);
        prop_assume!(program.validate(&params).is_ok());
        assert_facts_agree(&program, &params, "random program");
    }
}
