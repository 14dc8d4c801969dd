//! The profilers: external observers that diff [`ProfCounters`]
//! snapshots into hierarchical [`CycleStack`]s.
//!
//! Both profilers work the same way: at construction they snapshot the
//! subject's counters as a baseline; each [`observe`] call diffs the
//! live counters against the previous snapshot and attributes the new
//! cycles to taxonomy leaves. The subject is never mutated, so a
//! profiled run executes bit-identically to an unprofiled one, and the
//! observe path performs no heap allocation (enforced by the
//! `observe_is_allocation_free` test).
//!
//! The not-triggered split consults [`StallInsight`] *at observation
//! time*: cycles a PE spent with nothing eligible are attributed to
//! queue backpressure when a pattern-matched slot is blocked only by a
//! full output, to memory latency when a matched slot is starved by an
//! input channel a busy read port feeds, and to idle otherwise. The
//! split is exact when the PE's blocking state was constant over the
//! span, which holds when observing after every step.
//!
//! [`observe`]: SystemProfiler::observe

use tia_fabric::{InputRef, OutputRef, ProcessingElement, StopReason, System};
use tia_trace::{ProfCounters, ProfileSource};

use crate::stack::{CycleStack, Leaf};

/// Diffs two counter snapshots into per-leaf cycle increments,
/// attributing the not-triggered delta to `stalled_as`.
///
/// `debt` is the number of instructions that were already in flight
/// when the profiler attached and have not yet resolved. Their issue
/// cycles predate the observation window, so the first `debt`
/// retire/quash events are discounted and the in-flight level is
/// reported net of the unresolved remainder (in-order pipelines
/// resolve oldest-first, so a running count is exact). This keeps
/// `sum(stack) == observed cycles` even for profilers attached
/// mid-run (e.g. after a checkpoint restore).
fn apply_delta(
    stack: &mut CycleStack,
    prev: &ProfCounters,
    now: &ProfCounters,
    stalled_as: Leaf,
    debt: &mut u64,
) {
    let d_retired = now.retired - prev.retired;
    let pay_retire = (*debt).min(d_retired);
    stack.retire += d_retired - pay_retire;
    *debt -= pay_retire;
    let d_quashed = now.quashed - prev.quashed;
    let pay_quash = (*debt).min(d_quashed);
    stack.quash += d_quashed - pay_quash;
    *debt -= pay_quash;
    stack.predicate_hazard += now.pred_hazard - prev.pred_hazard;
    stack.data_hazard += now.data_hazard - prev.data_hazard;
    stack.predictor_recovery += now.forbidden - prev.forbidden;
    *stack.get_mut(stalled_as) += now.not_triggered - prev.not_triggered;
    // In-flight is a level, not a flow: the snapshot replaces the
    // previous value so the stack keeps summing to observed cycles.
    stack.in_flight = now.in_flight - *debt;
}

/// A profiler for one stand-alone PE (the `tia-funcsim` surface).
///
/// The driver owns the cycle count: pass the number of cycles it has
/// stepped to [`PeProfiler::observe`] and the difference between that
/// and the PE's own non-halted cycle counter lands in the `halted`
/// leaf (covering post-halt drain cycles).
#[derive(Debug, Clone)]
pub struct PeProfiler {
    prev: ProfCounters,
    stack: CycleStack,
    observed: u64,
    last_cycle: u64,
    debt: u64,
    stride: u64,
    next_sample: u64,
    samples: Vec<(u64, CycleStack)>,
}

impl PeProfiler {
    /// Starts profiling `pe` from its current state, with the driver's
    /// cycle counter currently at `cycle`.
    pub fn new(pe: &impl ProfileSource, cycle: u64) -> Self {
        let prev = pe.prof_counters();
        PeProfiler {
            debt: prev.in_flight,
            prev,
            stack: CycleStack::default(),
            observed: 0,
            last_cycle: cycle,
            stride: 0,
            next_sample: 0,
            samples: Vec::new(),
        }
    }

    /// Records a `(cycle, stack)` sample every `stride` observed
    /// cycles (for counter-track export). Capacity for the expected
    /// sample count is reserved up front so steady-state observation
    /// stays allocation-free.
    pub fn enable_sampling(&mut self, stride: u64, expected_cycles: u64) {
        self.stride = stride.max(1);
        self.next_sample = self.last_cycle;
        self.samples
            .reserve((expected_cycles / self.stride + 2) as usize);
    }

    /// Observes the PE with the driver's cycle counter at `cycle`,
    /// attributing every cycle since the last observation.
    pub fn observe(&mut self, pe: &impl ProfileSource, cycle: u64) {
        let now = pe.prof_counters();
        let stalled_as = if now.not_triggered > self.prev.not_triggered {
            classify_stall(pe, None)
        } else {
            Leaf::Idle
        };
        apply_delta(
            &mut self.stack,
            &self.prev,
            &now,
            stalled_as,
            &mut self.debt,
        );
        self.stack.halted += (cycle - self.last_cycle) - (now.cycles - self.prev.cycles);
        self.observed += cycle - self.last_cycle;
        self.prev = now;
        self.last_cycle = cycle;
        self.stack.assert_total(self.observed);
        if self.stride > 0 && cycle >= self.next_sample {
            self.samples.push((cycle, self.stack));
            self.next_sample = cycle + self.stride;
        }
    }

    /// The cycle stack accumulated so far.
    pub fn stack(&self) -> &CycleStack {
        &self.stack
    }

    /// Total cycles attributed so far.
    pub fn observed_cycles(&self) -> u64 {
        self.observed
    }

    /// The recorded `(cycle, stack)` samples (empty unless
    /// [`PeProfiler::enable_sampling`] was called).
    pub fn samples(&self) -> &[(u64, CycleStack)] {
        &self.samples
    }
}

/// Classifies a PE's current not-triggered state into a taxonomy
/// leaf. `read_port_busy(q)` answers whether input channel `q` is fed
/// by a memory read port that is currently working (`None` when the
/// caller has no port map — stand-alone PEs).
fn classify_stall<S: ProfileSource>(
    pe: &S,
    read_port_busy: Option<&dyn Fn(usize) -> bool>,
) -> Leaf {
    let insight = pe.stall_insight();
    if insight.full_output_mask != 0 {
        return Leaf::Backpressure;
    }
    if let Some(busy) = read_port_busy {
        let mut mask = insight.empty_input_mask;
        while mask != 0 {
            let q = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if busy(q) {
                return Leaf::MemoryLatency;
            }
        }
    }
    Leaf::Idle
}

/// Classifies what a stand-alone PE is waiting on *right now*:
/// [`Leaf::Backpressure`] when a pattern-matched slot is blocked only
/// by a full output queue, [`Leaf::Idle`] otherwise. Without a port
/// map, input starvation cannot be pinned on memory — use
/// [`SystemProfiler::stall_class`] for fabric PEs.
pub fn classify_pe_stall(pe: &impl ProfileSource) -> Leaf {
    classify_stall(pe, None)
}

/// Per-PE profiling state inside a [`SystemProfiler`].
#[derive(Debug, Clone, Default)]
struct PeSlot {
    prev: ProfCounters,
    stack: CycleStack,
    /// Unresolved instructions that predate the profiler (see
    /// [`apply_delta`]).
    debt: u64,
    /// Input queue index → feeding read-port index, from the link map.
    feed_port: Vec<Option<usize>>,
}

/// A profiler for a whole [`System`]: one cycle stack per PE, every
/// stack summing to the globally observed cycle count (halted PEs are
/// padded with the `halted` leaf).
///
/// Construction walks [`System::links`] once to learn which input
/// channels memory read ports feed; observation then classifies
/// starvation on those channels as memory latency whenever the feeding
/// port is still working.
#[derive(Debug, Clone)]
pub struct SystemProfiler {
    pes: Vec<PeSlot>,
    base_cycle: u64,
    last_cycle: u64,
}

impl SystemProfiler {
    /// Starts profiling `system` from its current state.
    pub fn new<P>(system: &System<P>) -> Self
    where
        P: ProcessingElement + ProfileSource,
    {
        let mut pes: Vec<PeSlot> = (0..system.num_pes())
            .map(|i| {
                let pe = system.pe(i);
                let prev = pe.prof_counters();
                PeSlot {
                    debt: prev.in_flight,
                    prev,
                    stack: CycleStack::default(),
                    feed_port: vec![None; pe.profiled_input_channels()],
                }
            })
            .collect();
        for link in system.links() {
            if let (OutputRef::ReadData { port }, InputRef::Pe { pe, queue }) = (link.from, link.to)
            {
                if let Some(slot) = pes.get_mut(pe) {
                    if let Some(feed) = slot.feed_port.get_mut(queue) {
                        *feed = Some(port);
                    }
                }
            }
        }
        SystemProfiler {
            pes,
            base_cycle: system.cycle(),
            last_cycle: system.cycle(),
        }
    }

    /// Attributes every cycle since the last observation (or since
    /// construction). Allocation-free; never mutates the system.
    pub fn observe<P>(&mut self, system: &System<P>)
    where
        P: ProcessingElement + ProfileSource,
    {
        let cycle = system.cycle();
        let d_global = cycle - self.last_cycle;
        let observed = cycle - self.base_cycle;
        for (i, slot) in self.pes.iter_mut().enumerate() {
            let pe = system.pe(i);
            let now = pe.prof_counters();
            let stalled_as = if now.not_triggered > slot.prev.not_triggered {
                let busy = |q: usize| -> bool {
                    slot.feed_port.get(q).copied().flatten().is_some_and(|p| {
                        let port = system.read_port(p);
                        port.in_flight_len() > 0 || !port.addr_in.is_empty()
                    })
                };
                classify_stall(pe, Some(&busy))
            } else {
                Leaf::Idle
            };
            apply_delta(
                &mut slot.stack,
                &slot.prev,
                &now,
                stalled_as,
                &mut slot.debt,
            );
            slot.stack.halted += d_global - (now.cycles - slot.prev.cycles);
            slot.prev = now;
            slot.stack.assert_total(observed);
        }
        self.last_cycle = cycle;
    }

    /// Number of profiled PEs.
    pub fn num_pes(&self) -> usize {
        self.pes.len()
    }

    /// PE `index`'s cycle stack.
    pub fn stack(&self, index: usize) -> &CycleStack {
        &self.pes[index].stack
    }

    /// Total cycles attributed per PE so far.
    pub fn observed_cycles(&self) -> u64 {
        self.last_cycle - self.base_cycle
    }

    /// Classifies what PE `index` is waiting on *right now*, using the
    /// port map built at construction: halted, blocked by a full
    /// output, starved by a busy memory read port, or genuinely idle.
    /// This is the instantaneous label a hang report wants — it does
    /// not depend on any cycles having been observed.
    pub fn stall_class<P>(&self, system: &System<P>, index: usize) -> Leaf
    where
        P: ProcessingElement + ProfileSource,
    {
        let pe = system.pe(index);
        if pe.is_halted() {
            return Leaf::Halted;
        }
        let slot = &self.pes[index];
        let busy = |q: usize| -> bool {
            slot.feed_port.get(q).copied().flatten().is_some_and(|p| {
                let port = system.read_port(p);
                port.in_flight_len() > 0 || !port.addr_in.is_empty()
            })
        };
        classify_stall(pe, Some(&busy))
    }

    /// The element-wise sum of every PE's stack; its total is
    /// `observed_cycles() * num_pes()`.
    pub fn aggregate(&self) -> CycleStack {
        let mut total = CycleStack::default();
        for slot in &self.pes {
            total.merge(&slot.stack);
        }
        total
    }
}

/// Runs `system` until every PE halts or `max_cycles` elapse — exactly
/// like [`System::run`] — while profiling every PE.
///
/// The profiler observes after every cycle. Because observation is
/// read-only, the run is bit-identical to an unprofiled
/// `system.run(max_cycles)`.
pub fn profile_run<P>(system: &mut System<P>, max_cycles: u64) -> (StopReason, SystemProfiler)
where
    P: ProcessingElement + ProfileSource,
{
    let mut profiler = SystemProfiler::new(system);
    let reason = profile_run_with(system, max_cycles, &mut profiler);
    (reason, profiler)
}

/// [`profile_run`] over a caller-owned profiler, letting one profiler
/// span several run segments (e.g. the main run plus a drain loop).
pub fn profile_run_with<P>(
    system: &mut System<P>,
    max_cycles: u64,
    profiler: &mut SystemProfiler,
) -> StopReason
where
    P: ProcessingElement + ProfileSource,
{
    let end = system.cycle().saturating_add(max_cycles);
    while system.cycle() < end {
        system.step();
        profiler.observe(system);
        if system.all_halted() {
            return StopReason::Condition;
        }
    }
    StopReason::CycleLimit
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_trace::{ChannelPressure, StallInsight};

    /// A scripted ProfileSource for unit-testing attribution.
    #[derive(Default)]
    struct Scripted {
        counters: ProfCounters,
        insight: StallInsight,
    }

    impl ProfileSource for Scripted {
        fn prof_counters(&self) -> ProfCounters {
            self.counters
        }
        fn stall_insight(&self) -> StallInsight {
            self.insight
        }
        fn profiled_input_channels(&self) -> usize {
            0
        }
        fn profiled_output_channels(&self) -> usize {
            0
        }
        fn input_channel_pressure(&self, _: usize) -> ChannelPressure {
            ChannelPressure::default()
        }
        fn output_channel_pressure(&self, _: usize) -> ChannelPressure {
            ChannelPressure::default()
        }
    }

    #[test]
    fn pe_profiler_attributes_deltas_and_halt_padding() {
        let mut pe = Scripted::default();
        let mut prof = PeProfiler::new(&pe, 0);
        pe.counters.cycles = 10;
        pe.counters.retired = 6;
        pe.counters.pred_hazard = 3;
        pe.counters.not_triggered = 1;
        prof.observe(&pe, 10);
        // PE halts; driver drains 5 more cycles.
        prof.observe(&pe, 15);
        let s = prof.stack();
        assert_eq!(s.retire, 6);
        assert_eq!(s.predicate_hazard, 3);
        assert_eq!(s.idle, 1);
        assert_eq!(s.halted, 5);
        assert_eq!(prof.observed_cycles(), 15);
        s.assert_total(15);
    }

    #[test]
    fn backpressure_wins_over_idle() {
        let mut pe = Scripted::default();
        let mut prof = PeProfiler::new(&pe, 0);
        pe.counters.cycles = 4;
        pe.counters.not_triggered = 4;
        pe.insight.matched_any = true;
        pe.insight.full_output_mask = 0b10;
        prof.observe(&pe, 4);
        assert_eq!(prof.stack().queue_backpressure, 4);
        assert_eq!(prof.stack().bottleneck(), Leaf::Backpressure);
    }

    #[test]
    fn in_flight_is_a_level_not_a_flow() {
        let mut pe = Scripted::default();
        let mut prof = PeProfiler::new(&pe, 0);
        pe.counters.cycles = 2;
        pe.counters.retired = 1;
        pe.counters.in_flight = 1;
        prof.observe(&pe, 2);
        assert_eq!(prof.stack().in_flight, 1);
        pe.counters.cycles = 4;
        pe.counters.retired = 3;
        pe.counters.in_flight = 1;
        prof.observe(&pe, 4);
        // Still 1 (the level), not 2 (accumulated).
        assert_eq!(prof.stack().in_flight, 1);
        prof.stack().assert_total(4);
    }

    #[test]
    fn sampling_records_at_stride() {
        let mut pe = Scripted::default();
        let mut prof = PeProfiler::new(&pe, 0);
        prof.enable_sampling(10, 100);
        for c in 1..=100u64 {
            pe.counters.cycles = c;
            pe.counters.retired = c;
            prof.observe(&pe, c);
        }
        assert!(!prof.samples().is_empty());
        assert!(prof.samples().len() <= 12);
        let (cycle, stack) = prof.samples()[prof.samples().len() - 1];
        assert_eq!(stack.retire, cycle);
    }
}
