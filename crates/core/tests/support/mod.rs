//! Shared generators for the randomized integration tests: terminating
//! phase-machine programs built from proptest-generated steps.

use proptest::prelude::*;

use tia_isa::{
    DstOperand, InputId, Instruction, Op, OutputId, Params, PredId, Program, RegId, SrcOperand,
    Tag, Trigger,
};
use tia_workloads::phases::{goto, when};

/// Ops safe for random datapath use (no scratchpad, no halt).
const DATA_OPS: [Op; 20] = [
    Op::Mov,
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Mulhu,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Not,
    Op::Sll,
    Op::Srl,
    Op::Sra,
    Op::Clz,
    Op::Ctz,
    Op::Eq,
    Op::Ult,
    Op::Slt,
    Op::Umin,
    Op::Umax,
    Op::Popc,
];

/// One random datapath step of a phase-machine program.
#[derive(Debug, Clone)]
pub struct Step {
    op: Op,
    dst_kind: u8,   // 0 reg, 1 pred, 2 output
    dst_idx: usize, // modulo the respective bound
    src0_kind: u8,  // 0 reg, 1 input, 2 imm
    src0_idx: usize,
    src1_kind: u8,
    src1_idx: usize,
    imm: u32,
    dequeue: bool,
}

/// Builds a linear phase-machine program from random steps: slot `i`
/// fires in phase `i` and advances to phase `i + 1`; the final slot
/// halts. Every instruction executes exactly once, so the program
/// always terminates, on every microarchitecture.
pub fn build_program(steps: &[Step], params: &Params) -> Program {
    const PH: [usize; 4] = [2, 3, 4, 5];
    let n = params.num_preds;
    // The dequeue budget must stay below the smallest preload so a
    // dequeued queue is never empty when its phase arrives.
    let mut deq_budget = vec![3i32; params.num_input_queues];
    let mut enq_budget = vec![params.queue_capacity as i32; params.num_output_queues];
    let mut instructions = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let pattern = when(n, &PH, i as u32, &[]);
        let update = goto(n, &PH, (i + 1) as u32, &[]);
        // Assemble the instruction structurally (simpler than text).
        let arity = step.op.num_srcs();
        let mut srcs = [SrcOperand::None; 2];
        let mut reads_input: Option<InputId> = None;
        let choices = [
            (step.src0_kind, step.src0_idx),
            (step.src1_kind, step.src1_idx),
        ];
        for (src, (kind, idx)) in srcs.iter_mut().zip(choices.iter()).take(arity) {
            *src = match kind % 3 {
                0 => SrcOperand::Reg(RegId::new(idx % params.num_regs, params).unwrap()),
                1 => {
                    let q = InputId::new(idx % params.num_input_queues, params).unwrap();
                    reads_input = Some(q);
                    SrcOperand::Input(q)
                }
                _ => SrcOperand::Imm,
            };
        }
        let dst = if !step.op.has_result() {
            DstOperand::None
        } else {
            match step.dst_kind % 3 {
                0 => DstOperand::Reg(RegId::new(step.dst_idx % params.num_regs, params).unwrap()),
                1 => DstOperand::Pred(
                    // Keep datapath predicate writes off the phase
                    // bits (p2..p5): use p0 or p1.
                    PredId::new(step.dst_idx % 2, params).unwrap(),
                ),
                _ => {
                    let q = step.dst_idx % params.num_output_queues;
                    if enq_budget[q] > 0 {
                        enq_budget[q] -= 1;
                        DstOperand::Output(OutputId::new(q, params).unwrap())
                    } else {
                        DstOperand::Reg(RegId::new(step.dst_idx % params.num_regs, params).unwrap())
                    }
                }
            }
        };
        let mut dequeues = Vec::new();
        if step.dequeue {
            if let Some(q) = reads_input {
                if deq_budget[q.index()] > 0 {
                    deq_budget[q.index()] -= 1;
                    dequeues.push(q);
                }
            }
        }
        // The phase update must not touch a datapath predicate
        // destination; phases live on p2..p5 and predicates on p0/p1,
        // so they are disjoint by construction.
        let pred_update = update_from_text(&update);
        instructions.push(Instruction {
            valid: true,
            trigger: Trigger {
                predicates: pattern_from_text(&pattern),
                queue_checks: vec![],
            },
            op: step.op,
            srcs,
            dst,
            out_tag: Tag::ZERO,
            dequeues,
            pred_update,
            imm: step.imm,
        });
    }
    // Final halt slot.
    instructions.push(Instruction {
        valid: true,
        trigger: Trigger {
            predicates: pattern_from_text(&when(params.num_preds, &PH, steps.len() as u32, &[])),
            queue_checks: vec![],
        },
        op: Op::Halt,
        ..Instruction::default()
    });
    Program::new(instructions)
}

fn pattern_bits(text: &str, which: char) -> u32 {
    text.chars()
        .rev()
        .enumerate()
        .filter(|(_, c)| *c == which)
        .fold(0, |acc, (i, _)| acc | (1 << i))
}

fn pattern_from_text(text: &str) -> tia_isa::PredPattern {
    tia_isa::PredPattern::new(pattern_bits(text, '1'), pattern_bits(text, '0'))
        .expect("disjoint by construction")
}

fn update_from_text(text: &str) -> tia_isa::PredUpdate {
    tia_isa::PredUpdate::new(pattern_bits(text, '1'), pattern_bits(text, '0'))
        .expect("disjoint by construction")
}

/// The proptest strategy for one [`Step`].
pub fn arb_step() -> impl Strategy<Value = Step> {
    (
        prop::sample::select(DATA_OPS.to_vec()),
        any::<u8>(),
        any::<usize>(),
        any::<u8>(),
        any::<usize>(),
        any::<u8>(),
        any::<usize>(),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(
            |(op, dst_kind, dst_idx, s0k, s0i, s1k, s1i, imm, dequeue)| Step {
                op,
                dst_kind,
                dst_idx,
                src0_kind: s0k,
                src0_idx: s0i,
                src1_kind: s1k,
                src1_idx: s1i,
                imm,
                dequeue,
            },
        )
}
