//! The abstract fabric model: state layout and the conservative
//! transition relation.
//!
//! One abstract state is the product of every PE's predicate file and
//! halt latch, the tag contents of every channel-endpoint queue, and
//! the occupancy of every memory-port buffer. One abstract transition
//! is one whole [`tia_fabric::System`] cycle in the concrete phase
//! order: PEs fire, links transfer, memory ports act. Data words are
//! abstracted away entirely — trigger eligibility depends only on
//! predicates, queue occupancy, head tags and output capacity, all of
//! which the abstraction tracks exactly — so the only nondeterminism
//! is (a) a datapath predicate destination, whose written bit forks
//! both ways, (b) environment sources, which may inject any
//! protocol-respecting tag or stay silent, and (c) read-port response
//! timing, which covers every load latency ≥ 1.

use tia_fabric::{InputRef, Link, OutputRef};
use tia_isa::{DstOperand, Op, Params, PredState, Program, Tag};
use tia_jit::{slot_indices, CompiledProgram};
use tia_lint::{ReachAnalysis, MAX_EXHAUSTIVE_PREDS};

use crate::VerifyOptions;

/// Hard cap on the nondeterministic branching of a single abstract
/// step; exceeding it aborts exploration as inconclusive rather than
/// enumerating an astronomic choice product.
pub(crate) const MAX_BRANCH: usize = 4096;

/// Where a link's producer endpoint lives in the abstract state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcSlot {
    /// A tracked FIFO (PE output queue or read-port response queue).
    Queue(usize),
    /// A stream source: an unbounded, nondeterministic producer.
    Source,
}

/// Where a link's consumer endpoint lives in the abstract state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DstSlot {
    /// A tracked FIFO (PE input queue or read-port address queue).
    Queue(usize),
    /// A tag-blind occupancy counter (write-port operand queues).
    Counter(usize),
    /// A stream sink: drains completely every cycle, never blocks.
    Sink,
}

/// One fabric channel, resolved to abstract state slots.
#[derive(Debug)]
pub(crate) struct LinkModel {
    pub src: SrcSlot,
    pub dst: DstSlot,
    /// For source links: the tags the environment may inject, already
    /// normalized for the destination's tag sensitivity. Empty means
    /// the consumer accepts nothing, so a protocol-respecting
    /// environment stays silent forever.
    pub alphabet: Vec<u8>,
}

/// What kind of queue a state FIFO models (used for diagnostics and
/// counterexample claims).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueueKind {
    PeIn { pe: usize, queue: usize },
    PeOut { pe: usize, queue: usize },
    PortAddr { port: usize },
    PortPending { port: usize },
    PortResp { port: usize },
}

/// One tracked FIFO of the abstract state.
#[derive(Debug)]
pub(crate) struct QueueModel {
    pub kind: QueueKind,
    pub cap: usize,
    /// Whether stored tags are ever inspected downstream. Insensitive
    /// queues store tag 0 for every token, collapsing states that
    /// differ only in unobservable tags.
    pub tag_sensitive: bool,
    /// Whether any link drains this queue (undrained PE outputs fill
    /// up and wedge their producer — the channel-overflow check).
    pub drained: bool,
}

/// The abstract effect of firing one instruction slot.
#[derive(Debug, Default)]
pub(crate) struct SlotEffect {
    /// Enqueue: destination FIFO and the (normalized) out-tag.
    pub out: Option<(usize, u8)>,
    /// FIFOs popped at execution.
    pub deq: Vec<usize>,
    /// Datapath predicate destination: the written bit is
    /// data-dependent, so the successor forks on its value.
    pub dst_pred: Option<usize>,
    /// Trigger-encoded predicate update.
    pub set_mask: u32,
    pub clear_mask: u32,
    /// Whether the op is `halt`.
    pub halt: bool,
}

/// One PE: compiled guards (successor generation) plus slot effects.
pub(crate) struct PeModel {
    pub compiled: CompiledProgram,
    pub effects: Vec<SlotEffect>,
    /// Local input queue index → state FIFO id.
    pub in_qid: Vec<Option<usize>>,
    /// Local output queue index → state FIFO id.
    pub out_qid: Vec<Option<usize>>,
    /// Per-slot may-fire verdict from per-PE predicate reachability
    /// (`tia-lint`); unreachable slots are excluded from the static
    /// tag-hazard scan.
    pub slot_may_fire: Vec<bool>,
}

/// A read port: three FIFOs (requests, in-flight loads, responses).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadPortModel {
    pub addr: usize,
    pub pending: usize,
    pub resp: usize,
}

/// The complete abstract model of one fabric.
pub(crate) struct Model {
    pub params: Params,
    pub pes: Vec<PeModel>,
    pub queues: Vec<QueueModel>,
    /// Occupancy-counter capacities (write-port operand queues).
    pub counter_caps: Vec<usize>,
    pub links: Vec<LinkModel>,
    pub read_ports: Vec<ReadPortModel>,
    /// Write ports: (addr counter, data counter).
    pub write_ports: Vec<(usize, usize)>,
    /// Sequential write ports: data counter.
    pub seq_ports: Vec<usize>,
}

/// One abstract product state. FIFOs store head-first tag bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AState {
    pub preds: Vec<u32>,
    pub halted: Vec<bool>,
    pub queues: Vec<Vec<u8>>,
    pub counters: Vec<u8>,
}

impl AState {
    /// Total buffered tokens (the watchdog's `queued_tokens` analog).
    pub fn tokens(&self) -> usize {
        self.queues.iter().map(Vec::len).sum::<usize>()
            + self.counters.iter().map(|&c| c as usize).sum::<usize>()
    }
}

/// The resolved nondeterminism of one abstract step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Choice {
    /// Per forking PE: the value written to its datapath predicate.
    pub forks: Vec<(usize, bool)>,
    /// Per acting source link: the injected tag.
    pub injections: Vec<(usize, u8)>,
    /// Per read port: how many in-flight loads retire this cycle.
    pub retires: Vec<(usize, usize)>,
}

/// Deterministic facts about one abstract step from a given state.
pub(crate) struct StepDetail {
    /// The slot each PE fires (independent of every choice).
    pub fired: Vec<Option<usize>>,
    /// No PE fires, no link can move, no port can act, and the
    /// environment cannot inject — the state is frozen forever.
    pub stuck: bool,
}

impl Model {
    /// Builds the model, or explains why the fabric is out of the
    /// checker's reach (e.g. a predicate file too wide to enumerate).
    pub fn build(
        programs: &[Program],
        params: &Params,
        links: &[Link],
        options: &VerifyOptions,
    ) -> Result<Model, String> {
        if params.num_preds > MAX_EXHAUSTIVE_PREDS {
            return Err(format!(
                "predicate file of {} bits exceeds the exhaustive-search limit of {}",
                params.num_preds, MAX_EXHAUSTIVE_PREDS
            ));
        }
        let num_pes = programs.len();
        let cap = params.queue_capacity;

        // Which PE queues need state: referenced by the program, the
        // endpoint of a channel, or holding a seed token.
        let mut in_used = vec![vec![false; params.num_input_queues]; num_pes];
        let mut out_used = vec![vec![false; params.num_output_queues]; num_pes];
        for (pe, program) in programs.iter().enumerate() {
            for i in program.instructions().iter().filter(|i| i.valid) {
                for c in &i.trigger.queue_checks {
                    in_used[pe][c.queue.index()] = true;
                }
                for q in i.input_operands() {
                    in_used[pe][q.index()] = true;
                }
                for q in &i.dequeues {
                    in_used[pe][q.index()] = true;
                }
                if let Some(o) = i.enqueues() {
                    out_used[pe][o.index()] = true;
                }
            }
        }
        let mut num_read_ports = 0usize;
        let mut num_write_ports = 0usize;
        let mut num_seq_ports = 0usize;
        for link in links {
            match link.from {
                OutputRef::Pe { pe, queue } => {
                    if pe >= num_pes || queue >= params.num_output_queues {
                        return Err(format!("link producer {:?} is out of range", link.from));
                    }
                    out_used[pe][queue] = true;
                }
                OutputRef::ReadData { port } => num_read_ports = num_read_ports.max(port + 1),
                OutputRef::Source { .. } => {}
            }
            match link.to {
                InputRef::Pe { pe, queue } => {
                    if pe >= num_pes || queue >= params.num_input_queues {
                        return Err(format!("link consumer {:?} is out of range", link.to));
                    }
                    in_used[pe][queue] = true;
                }
                InputRef::ReadAddr { port } => num_read_ports = num_read_ports.max(port + 1),
                InputRef::WriteAddr { port } | InputRef::WriteData { port } => {
                    num_write_ports = num_write_ports.max(port + 1)
                }
                InputRef::SeqWriteData { port } => num_seq_ports = num_seq_ports.max(port + 1),
                InputRef::Sink { .. } => {}
            }
        }
        for seed in &options.seed_tokens {
            if seed.pe >= num_pes || seed.queue >= params.num_input_queues {
                return Err(format!(
                    "seed token targets pe{} %i{}, which does not exist",
                    seed.pe, seed.queue
                ));
            }
            in_used[seed.pe][seed.queue] = true;
        }

        // Lay out the state FIFOs.
        let mut queues: Vec<QueueModel> = Vec::new();
        let mut in_qid = vec![vec![None; params.num_input_queues]; num_pes];
        let mut out_qid = vec![vec![None; params.num_output_queues]; num_pes];
        for pe in 0..num_pes {
            for q in 0..params.num_input_queues {
                if in_used[pe][q] {
                    in_qid[pe][q] = Some(queues.len());
                    queues.push(QueueModel {
                        kind: QueueKind::PeIn { pe, queue: q },
                        cap,
                        tag_sensitive: false,
                        drained: true,
                    });
                }
            }
            for q in 0..params.num_output_queues {
                if out_used[pe][q] {
                    out_qid[pe][q] = Some(queues.len());
                    queues.push(QueueModel {
                        kind: QueueKind::PeOut { pe, queue: q },
                        cap,
                        tag_sensitive: false,
                        drained: false,
                    });
                }
            }
        }
        let mut read_ports = Vec::new();
        for port in 0..num_read_ports {
            let addr = queues.len();
            queues.push(QueueModel {
                kind: QueueKind::PortAddr { port },
                cap,
                tag_sensitive: false,
                drained: true,
            });
            let pending = queues.len();
            queues.push(QueueModel {
                kind: QueueKind::PortPending { port },
                cap,
                tag_sensitive: false,
                drained: true,
            });
            let resp = queues.len();
            queues.push(QueueModel {
                kind: QueueKind::PortResp { port },
                cap,
                tag_sensitive: false,
                drained: false,
            });
            read_ports.push(ReadPortModel {
                addr,
                pending,
                resp,
            });
        }
        let mut counter_caps = Vec::new();
        let mut write_ports = Vec::new();
        for _ in 0..num_write_ports {
            let addr = counter_caps.len();
            counter_caps.push(cap);
            let data = counter_caps.len();
            counter_caps.push(cap);
            write_ports.push((addr, data));
        }
        let mut seq_ports = Vec::new();
        for _ in 0..num_seq_ports {
            seq_ports.push(counter_caps.len());
            counter_caps.push(cap);
        }

        // Tag sensitivity: a PE input queue is sensitive when its
        // consumer tag-checks it; producer-side queues inherit the
        // sensitivity of whatever their tokens flow into (tags thread
        // through read ports but never through PEs, whose out-tags are
        // per-instruction constants).
        for (pe, program) in programs.iter().enumerate() {
            for i in program.instructions().iter().filter(|i| i.valid) {
                for c in &i.trigger.queue_checks {
                    let qid = in_qid[pe][c.queue.index()].expect("checked queue is tracked");
                    queues[qid].tag_sensitive = true;
                }
            }
        }
        // Resolve link endpoints, then propagate sensitivity backward
        // along the token flow until it stabilizes (chains are at most
        // PE out → port addr → in-flight → port resp → PE in).
        let resolve_src = |r: OutputRef| -> SrcSlot {
            match r {
                OutputRef::Pe { pe, queue } => SrcSlot::Queue(out_qid[pe][queue].expect("tracked")),
                OutputRef::ReadData { port } => SrcSlot::Queue(read_ports[port].resp),
                OutputRef::Source { .. } => SrcSlot::Source,
            }
        };
        let resolve_dst = |r: InputRef| -> DstSlot {
            match r {
                InputRef::Pe { pe, queue } => DstSlot::Queue(in_qid[pe][queue].expect("tracked")),
                InputRef::ReadAddr { port } => DstSlot::Queue(read_ports[port].addr),
                InputRef::WriteAddr { port } => DstSlot::Counter(write_ports[port].0),
                InputRef::WriteData { port } => DstSlot::Counter(write_ports[port].1),
                InputRef::SeqWriteData { port } => DstSlot::Counter(seq_ports[port]),
                InputRef::Sink { .. } => DstSlot::Sink,
            }
        };
        let resolved: Vec<(SrcSlot, DstSlot)> = links
            .iter()
            .map(|l| (resolve_src(l.from), resolve_dst(l.to)))
            .collect();
        loop {
            let mut changed = false;
            for &(src, dst) in &resolved {
                if let (SrcSlot::Queue(sq), DstSlot::Queue(dq)) = (src, dst) {
                    if queues[dq].tag_sensitive && !queues[sq].tag_sensitive {
                        queues[sq].tag_sensitive = true;
                        changed = true;
                    }
                }
            }
            for port in &read_ports {
                if queues[port.resp].tag_sensitive && !queues[port.pending].tag_sensitive {
                    queues[port.pending].tag_sensitive = true;
                    changed = true;
                }
                if queues[port.pending].tag_sensitive && !queues[port.addr].tag_sensitive {
                    queues[port.addr].tag_sensitive = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for &(src, _) in &resolved {
            if let SrcSlot::Queue(sq) = src {
                queues[sq].drained = true;
            }
        }

        // Accepted-tag sets: what a protocol-respecting environment may
        // inject toward each destination. For a PE input queue this is
        // the union of tags some trigger referencing the queue lets
        // through; for a read-port request queue the response tag is
        // threaded, so the set belongs to the response's consumer.
        let accepted_for_pe_in = |pe: usize, queue: usize| -> Vec<u8> {
            let mut accepted = vec![false; params.num_tags() as usize];
            for i in programs[pe].instructions().iter().filter(|i| i.valid) {
                let references = i
                    .trigger
                    .queue_checks
                    .iter()
                    .any(|c| c.queue.index() == queue)
                    || i.input_operands().any(|q| q.index() == queue)
                    || i.dequeues.iter().any(|q| q.index() == queue);
                if !references {
                    continue;
                }
                match i
                    .trigger
                    .queue_checks
                    .iter()
                    .find(|c| c.queue.index() == queue)
                {
                    Some(c) => {
                        for (t, slot) in accepted.iter_mut().enumerate() {
                            if (t as u32 == c.tag.value()) != c.negate {
                                *slot = true;
                            }
                        }
                    }
                    None => accepted.iter_mut().for_each(|t| *t = true),
                }
            }
            accepted
                .iter()
                .enumerate()
                .filter_map(|(t, &ok)| ok.then_some(t as u8))
                .collect()
        };
        let alphabet_for = |dst: DstSlot| -> Vec<u8> {
            let target = match dst {
                DstSlot::Queue(dq) => match queues[dq].kind {
                    QueueKind::PeIn { pe, queue } => Some((dq, accepted_for_pe_in(pe, queue))),
                    QueueKind::PortAddr { port } => {
                        // Thread through the port to the response consumer.
                        let resp = read_ports[port].resp;
                        let consumer = resolved.iter().find_map(|&(src, dst)| match (src, dst) {
                            (SrcSlot::Queue(sq), DstSlot::Queue(d)) if sq == resp => {
                                match queues[d].kind {
                                    QueueKind::PeIn { pe, queue } => Some((pe, queue)),
                                    _ => None,
                                }
                            }
                            _ => None,
                        });
                        match consumer {
                            Some((pe, queue)) => Some((dq, accepted_for_pe_in(pe, queue))),
                            None => Some((dq, vec![0])),
                        }
                    }
                    _ => Some((dq, vec![0])),
                },
                DstSlot::Counter(_) => return vec![0],
                DstSlot::Sink => return Vec::new(),
            };
            match target {
                Some((dq, set)) => {
                    if queues[dq].tag_sensitive {
                        set
                    } else if set.is_empty() {
                        Vec::new()
                    } else {
                        vec![0]
                    }
                }
                None => vec![0],
            }
        };
        let link_models: Vec<LinkModel> = resolved
            .iter()
            .map(|&(src, dst)| LinkModel {
                src,
                dst,
                alphabet: if src == SrcSlot::Source {
                    alphabet_for(dst)
                } else {
                    Vec::new()
                },
            })
            .collect();

        // Per-PE slot effects + compiled guards + per-PE reachability.
        let mut pes = Vec::with_capacity(num_pes);
        for (pe, program) in programs.iter().enumerate() {
            let reach = ReachAnalysis::explore(program, params);
            let slot_may_fire: Vec<bool> = (0..program.len())
                .map(|slot| {
                    if reach.analyzed {
                        !reach.fire_states[slot].is_empty()
                    } else {
                        true
                    }
                })
                .collect();
            let effects: Vec<SlotEffect> = program
                .instructions()
                .iter()
                .map(|i| {
                    if !i.valid {
                        return SlotEffect::default();
                    }
                    let out = i.enqueues().map(|o| {
                        let qid = out_qid[pe][o.index()].expect("tracked");
                        let tag = if queues[qid].tag_sensitive {
                            i.out_tag.value() as u8
                        } else {
                            0
                        };
                        (qid, tag)
                    });
                    SlotEffect {
                        out,
                        deq: i
                            .dequeues
                            .iter()
                            .map(|q| in_qid[pe][q.index()].expect("tracked"))
                            .collect(),
                        dst_pred: match i.dst {
                            DstOperand::Pred(p) => Some(p.index()),
                            _ => None,
                        },
                        set_mask: i.pred_update.set_mask(),
                        clear_mask: i.pred_update.clear_mask(),
                        halt: matches!(i.op, Op::Halt),
                    }
                })
                .collect();
            pes.push(PeModel {
                compiled: CompiledProgram::compile(program, params),
                effects,
                in_qid: in_qid[pe].clone(),
                out_qid: out_qid[pe].clone(),
                slot_may_fire,
            });
        }

        Ok(Model {
            params: params.clone(),
            pes,
            queues,
            counter_caps,
            links: link_models,
            read_ports,
            write_ports,
            seq_ports,
        })
    }

    /// The initial abstract state: reset predicates, empty queues plus
    /// any seed tokens.
    pub fn initial(&self, options: &VerifyOptions) -> Result<AState, String> {
        let mut state = AState {
            preds: vec![0; self.pes.len()],
            halted: vec![false; self.pes.len()],
            queues: self.queues.iter().map(|_| Vec::new()).collect(),
            counters: vec![0; self.counter_caps.len()],
        };
        for seed in &options.seed_tokens {
            let qid = self.pes[seed.pe].in_qid[seed.queue].expect("seed queue is tracked");
            if state.queues[qid].len() >= self.queues[qid].cap {
                return Err(format!(
                    "seed tokens overflow pe{} %i{} (capacity {})",
                    seed.pe, seed.queue, self.queues[qid].cap
                ));
            }
            let tag = if self.queues[qid].tag_sensitive {
                seed.tag.value() as u8
            } else {
                0
            };
            state.queues[qid].push(tag);
        }
        Ok(state)
    }

    /// The slot each PE fires from `state` (its first eligible slot in
    /// program order), mirroring `FuncPe::triggered_slot` exactly.
    pub fn fired_slots(&self, state: &AState) -> Vec<Option<usize>> {
        (0..self.pes.len())
            .map(|pe| {
                if state.halted[pe] {
                    return None;
                }
                let model = &self.pes[pe];
                let preds = PredState::from_bits(state.preds[pe]);
                slot_indices(model.compiled.candidates(preds))
                    .find(|&s| self.queue_ready(pe, s, state))
            })
            .collect()
    }

    /// The queue-side guards of one slot against an abstract state
    /// (mirrors `FuncPe::eligible` minus the predicate pattern).
    fn queue_ready(&self, pe: usize, slot: usize, state: &AState) -> bool {
        let model = &self.pes[pe];
        let c = model.compiled.slot(slot);
        for check in &c.checks {
            let qid = model.in_qid[check.queue as usize].expect("checked queue is tracked");
            match state.queues[qid].first() {
                None => return false,
                Some(&head) => {
                    if (u32::from(head) == check.tag.value()) == check.negate {
                        return false;
                    }
                }
            }
        }
        let mut need = c.need_mask;
        while need != 0 {
            let q = need.trailing_zeros() as usize;
            need &= need - 1;
            let qid = model.in_qid[q].expect("read queue is tracked");
            if state.queues[qid].is_empty() {
                return false;
            }
        }
        if let Some(q) = c.out_queue {
            let qid = model.out_qid[q as usize].expect("written queue is tracked");
            if state.queues[qid].len() >= self.queues[qid].cap {
                return false;
            }
        }
        true
    }

    /// Applies one abstract cycle under fully resolved nondeterminism.
    /// `fired` must come from [`Model::fired_slots`] on `state`.
    pub fn apply(&self, state: &AState, fired: &[Option<usize>], choice: &Choice) -> AState {
        let mut next = state.clone();
        // Phase 1: PEs fire (each touches only its own queues).
        for (pe, slot) in fired.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let eff = &self.pes[pe].effects[*slot];
            for &q in &eff.deq {
                next.queues[q].remove(0);
            }
            if let Some((q, tag)) = eff.out {
                next.queues[q].push(tag);
            }
            let mut bits = (next.preds[pe] & !eff.clear_mask) | eff.set_mask;
            if let Some(p) = eff.dst_pred {
                let value = choice
                    .forks
                    .iter()
                    .find(|(fpe, _)| *fpe == pe)
                    .map(|&(_, v)| v)
                    .unwrap_or(false);
                if value {
                    bits |= 1 << p;
                } else {
                    bits &= !(1 << p);
                }
            }
            next.preds[pe] = bits & self.params.pred_mask();
            if eff.halt {
                next.halted[pe] = true;
            }
        }
        // Phase 2: links transfer one token each, in link order (the
        // endpoints are pairwise disjoint, so the order is cosmetic).
        for (li, link) in self.links.iter().enumerate() {
            match link.src {
                SrcSlot::Queue(sq) => {
                    if next.queues[sq].is_empty() {
                        continue;
                    }
                    match link.dst {
                        DstSlot::Queue(dq) => {
                            if next.queues[dq].len() < self.queues[dq].cap {
                                let tag = next.queues[sq].remove(0);
                                let tag = if self.queues[dq].tag_sensitive {
                                    tag
                                } else {
                                    0
                                };
                                next.queues[dq].push(tag);
                            }
                        }
                        DstSlot::Counter(c) => {
                            if (next.counters[c] as usize) < self.counter_caps[c] {
                                next.queues[sq].remove(0);
                                next.counters[c] += 1;
                            }
                        }
                        DstSlot::Sink => {
                            next.queues[sq].remove(0);
                        }
                    }
                }
                SrcSlot::Source => {
                    let Some(&(_, tag)) = choice.injections.iter().find(|&&(l, _)| l == li) else {
                        continue;
                    };
                    match link.dst {
                        DstSlot::Queue(dq) => {
                            debug_assert!(next.queues[dq].len() < self.queues[dq].cap);
                            let tag = if self.queues[dq].tag_sensitive {
                                tag
                            } else {
                                0
                            };
                            next.queues[dq].push(tag);
                        }
                        DstSlot::Counter(c) => {
                            debug_assert!((next.counters[c] as usize) < self.counter_caps[c]);
                            next.counters[c] += 1;
                        }
                        DstSlot::Sink => {}
                    }
                }
            }
        }
        // Phase 3: memory ports. Read ports retire a chosen number of
        // in-flight loads (covering every latency), then launch one
        // request; write ports commit deterministically.
        for (pi, port) in self.read_ports.iter().enumerate() {
            let k = choice
                .retires
                .iter()
                .find(|&&(p, _)| p == pi)
                .map(|&(_, k)| k)
                .unwrap_or(0);
            for _ in 0..k {
                let tag = next.queues[port.pending].remove(0);
                debug_assert!(next.queues[port.resp].len() < self.queues[port.resp].cap);
                next.queues[port.resp].push(tag);
            }
            if !next.queues[port.addr].is_empty()
                && next.queues[port.pending].len() < self.queues[port.pending].cap
            {
                let tag = next.queues[port.addr].remove(0);
                next.queues[port.pending].push(tag);
            }
        }
        for &(a, d) in &self.write_ports {
            if next.counters[a] > 0 && next.counters[d] > 0 {
                next.counters[a] -= 1;
                next.counters[d] -= 1;
            }
        }
        for &d in &self.seq_ports {
            if next.counters[d] > 0 {
                next.counters[d] -= 1;
            }
        }
        next
    }

    /// Enumerates every successor of `state` together with the choice
    /// that produced it. Errors when the choice product exceeds
    /// [`MAX_BRANCH`].
    pub fn successors(
        &self,
        state: &AState,
    ) -> Result<(StepDetail, Vec<(AState, Choice)>), String> {
        let fired = self.fired_slots(state);
        let stuck = self.is_stuck(state, &fired);
        if stuck {
            return Ok((StepDetail { fired, stuck }, Vec::new()));
        }

        // Fork dimensions: firing slots with a datapath predicate
        // destination.
        let fork_pes: Vec<usize> = fired
            .iter()
            .enumerate()
            .filter_map(|(pe, slot)| {
                slot.and_then(|s| self.pes[pe].effects[s].dst_pred.map(|_| pe))
            })
            .collect();

        // Source-injection dimensions: destination space is judged
        // after the PE phase (the only phase that can free it), which
        // the fork choice cannot influence.
        let after_pe = self.apply_pe_phase_only(state, &fired);
        let mut source_dims: Vec<(usize, Vec<u8>)> = Vec::new();
        for (li, link) in self.links.iter().enumerate() {
            if link.src != SrcSlot::Source || link.alphabet.is_empty() {
                continue;
            }
            let has_space = match link.dst {
                DstSlot::Queue(dq) => after_pe.queues[dq].len() < self.queues[dq].cap,
                DstSlot::Counter(c) => (after_pe.counters[c] as usize) < self.counter_caps[c],
                DstSlot::Sink => false,
            };
            if has_space {
                source_dims.push((li, link.alphabet.clone()));
            }
        }

        // Read-port retirement dimensions, judged after the link phase
        // (which may drain the response queue). Injections never touch
        // pending or response queues, so a choice-free link pass gives
        // the right bounds.
        let after_links = self.apply(state, &fired, &Choice::default());
        let mut retire_dims: Vec<(usize, usize)> = Vec::new();
        for (pi, port) in self.read_ports.iter().enumerate() {
            // `after_links` already launched one request and committed
            // zero retirements; recompute bounds from the pre-port
            // picture instead: pending before the port phase is the
            // PE/link-phase value, i.e. the original state's (links
            // never touch pending).
            let pending = state.queues[port.pending].len();
            let resp_space = self.queues[port.resp].cap - after_links.queues[port.resp].len();
            let max_retire = pending.min(resp_space);
            if max_retire > 0 {
                retire_dims.push((pi, max_retire));
            }
        }

        // Choice product.
        let mut branch = 1usize;
        branch = branch.saturating_mul(1 << fork_pes.len());
        for (_, alpha) in &source_dims {
            branch = branch.saturating_mul(alpha.len() + 1);
        }
        for &(_, max) in &retire_dims {
            branch = branch.saturating_mul(max + 1);
        }
        if branch > MAX_BRANCH {
            return Err(format!(
                "abstract branching of {branch} exceeds the {MAX_BRANCH} cap"
            ));
        }

        let mut out = Vec::with_capacity(branch);
        let mut indices = vec![0usize; fork_pes.len() + source_dims.len() + retire_dims.len()];
        loop {
            let mut choice = Choice::default();
            let mut dim = 0;
            for &pe in &fork_pes {
                choice.forks.push((pe, indices[dim] == 1));
                dim += 1;
            }
            for (li, alpha) in &source_dims {
                let idx = indices[dim];
                dim += 1;
                if idx > 0 {
                    choice.injections.push((*li, alpha[idx - 1]));
                }
            }
            for &(pi, _) in &retire_dims {
                let k = indices[dim];
                dim += 1;
                if k > 0 {
                    choice.retires.push((pi, k));
                }
            }
            out.push((self.apply(state, &fired, &choice), choice));

            // Advance the mixed-radix counter.
            let mut pos = 0;
            loop {
                if pos == indices.len() {
                    return Ok((StepDetail { fired, stuck }, out));
                }
                let radix = if pos < fork_pes.len() {
                    2
                } else if pos < fork_pes.len() + source_dims.len() {
                    source_dims[pos - fork_pes.len()].1.len() + 1
                } else {
                    retire_dims[pos - fork_pes.len() - source_dims.len()].1 + 1
                };
                indices[pos] += 1;
                if indices[pos] < radix {
                    break;
                }
                indices[pos] = 0;
                pos += 1;
            }
        }
    }

    /// Applies only the PE phase (used to judge environment space).
    fn apply_pe_phase_only(&self, state: &AState, fired: &[Option<usize>]) -> AState {
        let mut next = state.clone();
        for (pe, slot) in fired.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let eff = &self.pes[pe].effects[*slot];
            for &q in &eff.deq {
                next.queues[q].remove(0);
            }
            if let Some((q, tag)) = eff.out {
                next.queues[q].push(tag);
            }
        }
        next
    }

    /// Whether `state` is frozen forever: nothing can fire, move,
    /// retire or be injected. Matches the runtime watchdog's notion of
    /// a hang (modulo its finite observation window).
    fn is_stuck(&self, state: &AState, fired: &[Option<usize>]) -> bool {
        if fired.iter().any(Option::is_some) {
            return false;
        }
        if state.halted.iter().all(|&h| h) {
            // Every PE halted is the success fixed point, not a hang.
            return false;
        }
        for link in &self.links {
            let movable = match link.src {
                SrcSlot::Queue(sq) => {
                    !state.queues[sq].is_empty()
                        && match link.dst {
                            DstSlot::Queue(dq) => state.queues[dq].len() < self.queues[dq].cap,
                            DstSlot::Counter(c) => {
                                (state.counters[c] as usize) < self.counter_caps[c]
                            }
                            DstSlot::Sink => true,
                        }
                }
                SrcSlot::Source => {
                    !link.alphabet.is_empty()
                        && match link.dst {
                            DstSlot::Queue(dq) => state.queues[dq].len() < self.queues[dq].cap,
                            DstSlot::Counter(c) => {
                                (state.counters[c] as usize) < self.counter_caps[c]
                            }
                            DstSlot::Sink => false,
                        }
                }
            };
            if movable {
                return false;
            }
        }
        for port in &self.read_ports {
            let pending = state.queues[port.pending].len();
            if pending > 0 && state.queues[port.resp].len() < self.queues[port.resp].cap {
                return false;
            }
            if !state.queues[port.addr].is_empty() && pending < self.queues[port.pending].cap {
                return false;
            }
        }
        for &(a, d) in &self.write_ports {
            if state.counters[a] > 0 && state.counters[d] > 0 {
                return false;
            }
        }
        for &d in &self.seq_ports {
            if state.counters[d] > 0 {
                return false;
            }
        }
        true
    }

    /// Canonical byte encoding for the dedup set.
    pub fn encode(&self, state: &AState) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(
            self.pes.len() * 3 + self.queues.len() * 2 + state.tokens() + self.counter_caps.len(),
        );
        for pe in 0..self.pes.len() {
            bytes.extend_from_slice(&(state.preds[pe] as u16).to_le_bytes());
            bytes.push(u8::from(state.halted[pe]));
        }
        for q in &state.queues {
            bytes.push(q.len() as u8);
            bytes.extend_from_slice(q);
        }
        bytes.extend_from_slice(&state.counters);
        bytes
    }

    /// Decodes [`Model::encode`] output.
    pub fn decode(&self, bytes: &[u8]) -> AState {
        let mut preds = Vec::with_capacity(self.pes.len());
        let mut halted = Vec::with_capacity(self.pes.len());
        let mut at = 0usize;
        for _ in 0..self.pes.len() {
            preds.push(u32::from(u16::from_le_bytes([bytes[at], bytes[at + 1]])));
            halted.push(bytes[at + 2] != 0);
            at += 3;
        }
        let mut queues = Vec::with_capacity(self.queues.len());
        for _ in 0..self.queues.len() {
            let len = bytes[at] as usize;
            at += 1;
            queues.push(bytes[at..at + len].to_vec());
            at += len;
        }
        let counters = bytes[at..].to_vec();
        AState {
            preds,
            halted,
            queues,
            counters,
        }
    }

    /// Emitted-tag / accepted-tag mismatches per PE-consumed channel:
    /// the static cross-PE tag-protocol hazard scan. Returns
    /// `(link index, consumer pe, consumer queue, bad tags)`.
    pub fn tag_hazards(&self, programs: &[Program]) -> Vec<(usize, usize, usize, Vec<u8>)> {
        let mut out = Vec::new();
        for (li, link) in self.links.iter().enumerate() {
            let (SrcSlot::Queue(sq), DstSlot::Queue(dq)) = (link.src, link.dst) else {
                continue;
            };
            let QueueKind::PeIn { pe, queue } = self.queues[dq].kind else {
                continue;
            };
            if !self.queues[dq].tag_sensitive {
                continue;
            }
            // Trace the producer chain: direct PE output, or a read
            // port threading request tags from its own producer.
            let emitted = match self.queues[sq].kind {
                QueueKind::PeOut {
                    pe: src_pe,
                    queue: src_q,
                } => self.emitted_tags(programs, src_pe, src_q),
                QueueKind::PortResp { port } => {
                    let addr = self.read_ports[port].addr;
                    let feeder = self.links.iter().find(|l| l.dst == DstSlot::Queue(addr));
                    match feeder.map(|l| l.src) {
                        Some(SrcSlot::Queue(fq)) => match self.queues[fq].kind {
                            QueueKind::PeOut {
                                pe: src_pe,
                                queue: src_q,
                            } => self.emitted_tags(programs, src_pe, src_q),
                            _ => continue,
                        },
                        // Environment-fed requests are covered by the
                        // protocol assumption.
                        _ => continue,
                    }
                }
                _ => continue,
            };
            let accepted: Vec<u8> = {
                let mut acc = vec![false; self.params.num_tags() as usize];
                for i in programs[pe].instructions().iter().filter(|i| i.valid) {
                    let references = i
                        .trigger
                        .queue_checks
                        .iter()
                        .any(|c| c.queue.index() == queue)
                        || i.input_operands().any(|q| q.index() == queue)
                        || i.dequeues.iter().any(|q| q.index() == queue);
                    if !references {
                        continue;
                    }
                    match i
                        .trigger
                        .queue_checks
                        .iter()
                        .find(|c| c.queue.index() == queue)
                    {
                        Some(c) => {
                            for (t, slot) in acc.iter_mut().enumerate() {
                                if (t as u32 == c.tag.value()) != c.negate {
                                    *slot = true;
                                }
                            }
                        }
                        None => acc.iter_mut().for_each(|t| *t = true),
                    }
                }
                acc.iter()
                    .enumerate()
                    .filter_map(|(t, &ok)| ok.then_some(t as u8))
                    .collect()
            };
            let bad: Vec<u8> = emitted
                .into_iter()
                .filter(|t| !accepted.contains(t))
                .collect();
            if !bad.is_empty() {
                out.push((li, pe, queue, bad));
            }
        }
        out
    }

    /// Out-tags a PE can actually put on one of its output queues,
    /// restricted to slots its per-PE predicate reachability says may
    /// fire.
    fn emitted_tags(&self, programs: &[Program], pe: usize, queue: usize) -> Vec<u8> {
        let mut tags: Vec<u8> = programs[pe]
            .instructions()
            .iter()
            .enumerate()
            .filter(|(slot, i)| {
                i.valid
                    && i.enqueues().map(|o| o.index()) == Some(queue)
                    && self.pes[pe].slot_may_fire[*slot]
            })
            .map(|(_, i)| i.out_tag.value() as u8)
            .collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }
}

/// A seed token placed in a PE input queue before exploration and
/// before any concrete replay (data words are immaterial to control,
/// so only the tag is recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedToken {
    /// Target PE.
    pub pe: usize,
    /// Target input queue.
    pub queue: usize,
    /// The seed's tag.
    pub tag: Tag,
}
