//! `tia-jit` — ahead-of-time specialization of trigger programs.
//!
//! The paper's PE re-evaluates every trigger's predicate pattern, tag
//! checks and queue guards each cycle; a faithful interpreter does the
//! same, chasing `Instruction` fields (heap-allocated check and
//! dequeue lists, enum-encoded operands) on every slot of every cycle.
//! This crate translates a loaded [`Program`] **once** into a flat
//! [`CompiledProgram`]:
//!
//! * predicate guards become bitmask match/expect pairs
//!   ([`CompiledSlot::on_set`]/[`CompiledSlot::off_set`]) tested with
//!   one `&`/`==` each against the packed predicate state;
//! * per-trigger queue/tag guards are lowered to direct channel-slot
//!   checks over a dense read-set bitmask and a fixed check list;
//! * the facts a pipelined scheduler reads per slot — register reads
//!   and write, datapath predicate destination, the §5.1 hazard
//!   footprint — are lowered to masks and small indices too, so a
//!   trigger scan never walks an [`tia_isa::Instruction`];
//! * the per-cycle trigger scan is replaced by a **dispatch table**
//!   indexed by the packed predicate state: for each of the
//!   `2^num_preds` states, the bitmask of slots whose pattern matches
//!   that state (programs hold at most 64 slots, so one `u64` each). A
//!   scan then touches only the slots that could possibly fire under
//!   the current predicates — usually one or two out of a whole
//!   program — in program order, lowest bit first. While datapath
//!   predicate writes are in flight, the union of the rows over every
//!   resolution of the unknown bits
//!   ([`CompiledProgram::candidates_any`]) narrows the scan just as
//!   exactly: a slot outside it cannot match however the bits resolve.
//!
//! The compiled form is *derived-only* state: simulators rebuild it
//! from the program at construction and snapshots never contain it.
//! Both simulators drive their per-cycle trigger scan from it alone;
//! their interpreted and full-scan references survive only as debug
//! cross-checks and differential tests.

#![warn(missing_docs)]

use tia_isa::{Params, PredState, Program, Tag};

/// Above this many predicate bits a full dispatch table (one entry per
/// predicate state) is too large to precompute; [`CompiledProgram`]
/// then keeps only the compiled guard sets, computes
/// [`CompiledProgram::candidates`] with a pass over the slots per call,
/// and answers [`CompiledProgram::candidates_any`] with every valid
/// slot.
pub const TABLE_PRED_LIMIT: usize = 12;

/// One lowered tag check: queue index, reference tag and polarity,
/// stripped of the `InputId` wrapper so the hot loop indexes channels
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledCheck {
    /// The input queue whose head tag is inspected.
    pub queue: u8,
    /// The reference tag.
    pub tag: Tag,
    /// Pass only when the head tag differs from `tag`.
    pub negate: bool,
}

/// One instruction slot's guards, specialized to flat masks and
/// indices at load time.
#[derive(Debug, Clone)]
pub struct CompiledSlot {
    /// The slot's valid bit. Invalid slots are never candidates and
    /// never in [`CompiledProgram::valid_slots`], so a scan over either
    /// mask never meets one.
    pub valid: bool,
    /// Predicate bits required on: `(preds & on_set) == on_set`.
    pub on_set: u32,
    /// Predicate bits required off: `(preds & off_set) == 0`.
    pub off_set: u32,
    /// Input queues that must be non-empty (operand reads ∪ dequeues),
    /// deduplicated into one bitmask.
    pub need_mask: u32,
    /// Lowered tag checks (at most `MaxCheck`; built once, never
    /// touched on the hot path except to iterate).
    pub checks: Vec<CompiledCheck>,
    /// The output queue needing capacity, if the slot enqueues.
    pub out_queue: Option<u8>,
    /// Input queues dequeued at execution, as a bitmask (exposed for
    /// schedulers that account in-flight dequeues).
    pub deq_mask: u32,
    /// Registers read as operands, as a bitmask (`num_regs` ≤ 64).
    pub reg_reads: u64,
    /// The register written, if any.
    pub reg_write: Option<u8>,
    /// The datapath predicate destination, if any.
    pub pred_dst: Option<u8>,
    /// Every predicate bit the slot reads in its trigger or writes
    /// (trigger-encoded update or datapath destination) — the §5.1
    /// hazard footprint.
    pub touched: u32,
}

impl CompiledSlot {
    /// Whether the predicate guard passes for the packed state `bits`.
    #[inline]
    pub fn pred_matches(&self, bits: u32) -> bool {
        (bits & self.on_set) == self.on_set && (bits & self.off_set) == 0
    }
}

/// The slot indices set in `mask`, lowest first — program order, which
/// is the trigger priority order.
#[inline]
pub fn slot_indices(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            slot
        })
    })
}

/// A trigger program compiled to straight-line guard evaluation.
///
/// Construction is cheap (microseconds at paper scale) and done once
/// per PE at load time; the result is immutable shared data. See the
/// crate docs for the compilation model.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    slots: Vec<CompiledSlot>,
    num_preds: usize,
    /// The valid slots, as a bitmask.
    valid: u64,
    /// The dispatch table: for every packed predicate state, the
    /// bitmask of valid slots whose predicate pattern matches it.
    table: Option<Vec<u64>>,
}

impl CompiledProgram {
    /// Compiles `program` under `params`. Both must already be
    /// validated (simulators compile right after their own
    /// validation).
    pub fn compile(program: &Program, params: &Params) -> Self {
        let slots: Vec<CompiledSlot> = program
            .instructions()
            .iter()
            .map(|i| {
                let mut need_mask = 0u32;
                for q in i.input_operands() {
                    need_mask |= 1 << q.index();
                }
                let mut deq_mask = 0u32;
                for q in &i.dequeues {
                    need_mask |= 1 << q.index();
                    deq_mask |= 1 << q.index();
                }
                CompiledSlot {
                    valid: i.valid,
                    on_set: i.trigger.predicates.on_set(),
                    off_set: i.trigger.predicates.off_set(),
                    need_mask,
                    checks: i
                        .trigger
                        .queue_checks
                        .iter()
                        .map(|c| CompiledCheck {
                            queue: c.queue.index() as u8,
                            tag: c.tag,
                            negate: c.negate,
                        })
                        .collect(),
                    out_queue: i.enqueues().map(|q| q.index() as u8),
                    deq_mask,
                    reg_reads: i.register_reads().fold(0, |m, r| m | 1 << r.index()),
                    reg_write: i.register_write().map(|r| r.index() as u8),
                    pred_dst: i.dst.predicate().map(|p| p.index() as u8),
                    touched: i.trigger.predicates.read_set() | i.predicate_write_set(),
                }
            })
            .collect();

        let valid = slot_mask(&slots, |c| c.valid);
        let table = (params.num_preds <= TABLE_PRED_LIMIT).then(|| {
            (0..1u32 << params.num_preds)
                .map(|state| slot_mask(&slots, |c| c.valid && c.pred_matches(state)))
                .collect()
        });

        CompiledProgram {
            slots,
            num_preds: params.num_preds,
            valid,
            table,
        }
    }

    /// The compiled guard set for one slot.
    #[inline]
    pub fn slot(&self, slot: usize) -> &CompiledSlot {
        &self.slots[slot]
    }

    /// All compiled slots, in program order.
    pub fn slots(&self) -> &[CompiledSlot] {
        &self.slots
    }

    /// Whether a dispatch table was built (it is skipped above
    /// [`TABLE_PRED_LIMIT`] predicate bits).
    pub fn has_table(&self) -> bool {
        self.table.is_some()
    }

    /// The valid slots, as a bitmask (iterate with [`slot_indices`]).
    #[inline]
    pub fn valid_slots(&self) -> u64 {
        self.valid
    }

    /// The candidate slots for predicate state `preds`, as a bitmask:
    /// exactly the valid slots whose pattern matches. One table load
    /// when the table was built, otherwise a pass over the slots.
    #[inline]
    pub fn candidates(&self, preds: PredState) -> u64 {
        match &self.table {
            Some(table) => table[(preds.bits() & ((1u32 << self.num_preds) - 1)) as usize],
            None => slot_mask(&self.slots, |c| c.valid && c.pred_matches(preds.bits())),
        }
    }

    /// The candidate slots when the predicate bits in `free` are not
    /// yet known (in-flight datapath writes): the union of
    /// [`CompiledProgram::candidates`] over every resolution of those
    /// bits, one table load per resolution (`2^popcount(free)`). A slot
    /// outside the result fails its pattern however the bits resolve.
    /// Without a table this is every valid slot.
    pub fn candidates_any(&self, preds: PredState, free: u32) -> u64 {
        let Some(table) = &self.table else {
            return self.valid;
        };
        let state_mask = (1u32 << self.num_preds) - 1;
        let free = free & state_mask;
        let fixed = preds.bits() & state_mask & !free;
        // Walk every subset of `free`, including the empty one.
        let mut resolution = free;
        let mut mask = 0;
        loop {
            mask |= table[(fixed | resolution) as usize];
            if resolution == 0 {
                return mask;
            }
            resolution = (resolution - 1) & free;
        }
    }
}

/// The bitmask of the slots satisfying `keep`.
fn slot_mask(slots: &[CompiledSlot], keep: impl Fn(&CompiledSlot) -> bool) -> u64 {
    slots
        .iter()
        .enumerate()
        .filter(|(_, c)| keep(c))
        .fold(0, |mask, (slot, _)| mask | 1 << slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_asm::assemble;

    fn compile(src: &str) -> (CompiledProgram, Program, Params) {
        let params = Params::default();
        let program = assemble(src, &params).expect("test program assembles");
        (CompiledProgram::compile(&program, &params), program, params)
    }

    #[test]
    fn candidates_match_the_interpreted_predicate_guard() {
        let (compiled, program, params) = compile(
            "when %p == XXXXXXX0: add %r0, %r0, 1; set %p = ZZZZZZZ1;\n\
             when %p == XXXXXXX1: mov %r1, %r0;\n\
             when %p == XXXXXX11: halt;",
        );
        assert!(compiled.has_table());
        for state in 0..1u32 << params.num_preds {
            let preds = PredState::from_bits(state);
            let expected: Vec<usize> = program
                .instructions()
                .iter()
                .enumerate()
                .filter(|(_, i)| i.valid && i.trigger.predicates.matches(preds))
                .map(|(slot, _)| slot)
                .collect();
            let got: Vec<usize> = slot_indices(compiled.candidates(preds)).collect();
            assert_eq!(got, expected, "state {state:#010b}");
        }
    }

    #[test]
    fn guard_masks_mirror_the_instruction() {
        let (compiled, program, _) =
            compile("when %p == XXXXXXXX with %i0.1, %i3.!0: add %o1.2, %i0, %i3; deq %i0, %i3;");
        let c = compiled.slot(0);
        let i = &program.instructions()[0];
        assert!(c.valid);
        assert_eq!(c.on_set, i.trigger.predicates.on_set());
        assert_eq!(c.off_set, i.trigger.predicates.off_set());
        assert_eq!(c.need_mask, 0b1001, "operands and dequeues dedup");
        assert_eq!(c.deq_mask, 0b1001);
        assert_eq!(c.out_queue, Some(1));
        assert_eq!(c.checks.len(), 2);
        assert_eq!(c.checks[0].queue, 0);
        assert!(!c.checks[0].negate);
        assert_eq!(c.checks[1].queue, 3);
        assert!(c.checks[1].negate);
    }

    #[test]
    fn wide_predicate_files_skip_the_table() {
        let mut params = Params::default();
        params.num_preds = TABLE_PRED_LIMIT;
        let program = assemble(
            &format!("when %p == {}: halt;", "X".repeat(TABLE_PRED_LIMIT)),
            &params,
        )
        .unwrap();
        let narrow = CompiledProgram::compile(&program, &params);
        assert!(narrow.has_table(), "the limit itself still fits");
        params.num_preds = 16;
        let program = assemble(&format!("when %p == {}: halt;", "X".repeat(16)), &params).unwrap();
        let wide = CompiledProgram::compile(&program, &params);
        assert!(!wide.has_table(), "2^16 states exceeds the table gate");
        assert_eq!(
            wide.candidates(PredState::new()),
            1,
            "without a table the candidates are computed per call"
        );
    }

    #[test]
    fn candidates_any_unions_every_resolution_of_the_free_bits() {
        let (compiled, program, params) = compile(
            "when %p == XXXXXXX0: ult %p1, %r0, 9; set %p = ZZZZZZZ1;\n\
             when %p == XXXXXX11: add %r0, %r0, 1;\n\
             when %p == XXXXX1X1: mov %r1, %r0;\n\
             when %p == XXXX0X1X: nop;\n\
             when %p == XXXX1XX0: sub %r2, %r2, 1;\n\
             when %p == XXXXXXXX: halt;",
        );
        assert!(compiled.has_table());
        // Brute force: try every assignment of the free bits.
        let matches_some_resolution = |state: u32, free: u32, slot: usize| {
            let i = &program.instructions()[slot];
            (0..1u32 << 4).filter(|r| r & !free == 0).any(|r| {
                let bits = (state & !free) | r;
                i.valid && i.trigger.predicates.matches(PredState::from_bits(bits))
            })
        };
        for free in 0..1u32 << 4 {
            for state in 0..1u32 << params.num_preds {
                let expected = (0..program.len())
                    .filter(|&slot| matches_some_resolution(state, free, slot))
                    .fold(0u64, |mask, slot| mask | 1 << slot);
                let got = compiled.candidates_any(PredState::from_bits(state), free);
                assert_eq!(got, expected, "state {state:#010b}, free {free:#06b}");
            }
        }

        let mut wide = Params::default();
        wide.num_preds = TABLE_PRED_LIMIT + 1;
        let program = assemble(
            &format!(
                "when %p == {}1: halt;\nwhen %p == {}0: nop;",
                "X".repeat(TABLE_PRED_LIMIT),
                "X".repeat(TABLE_PRED_LIMIT)
            ),
            &wide,
        )
        .unwrap();
        let compiled = CompiledProgram::compile(&program, &wide);
        assert!(!compiled.has_table());
        for free in [0, 1, 0b10] {
            assert_eq!(
                compiled.candidates_any(PredState::new(), free),
                compiled.valid_slots(),
                "without a table every valid slot stays a candidate"
            );
        }
    }
}
