//! The profiling interface the simulators expose to `tia-prof`.
//!
//! The profiler is an *external observer*: it never changes how a PE
//! steps. Instead, each simulator implements [`ProfileSource`] — a
//! read-only window onto its always-maintained performance counters
//! plus a structural explanation of *why* nothing triggered this cycle
//! ([`StallInsight`]) and per-channel pressure statistics
//! ([`ChannelPressure`]). A profiler diffs [`ProfCounters`] between
//! observations, so an unprofiled run executes exactly the same
//! instructions over exactly the same state as a profiled one:
//! bit-identity when profiling is off is true by construction, and the
//! counting-allocator test holds the observe path to zero allocations.
//!
//! The trait lives here (not in `tia-prof`) so both `tia-core` and
//! `tia-sim` can implement it without depending on the profiler crate.

/// A point-in-time snapshot of the cycle-attribution counters every
/// simulated PE already maintains (the §3.3 accounting identity):
///
/// ```text
/// cycles == retired + quashed + in_flight
///         + pred_hazard + data_hazard + forbidden + not_triggered
/// ```
///
/// `in_flight` is a *level* (instructions issued but not yet retired
/// or quashed at the instant of observation), not a cumulative count;
/// every other field is monotone. The functional model reports its
/// idle cycles as `not_triggered` and zero for the pipeline-only
/// fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfCounters {
    /// Cycles stepped while not halted.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Instructions issued then quashed by misspeculation.
    pub quashed: u64,
    /// Cycles stalled on unresolved predicate state.
    pub pred_hazard: u64,
    /// Cycles stalled on the register interlock.
    pub data_hazard: u64,
    /// Cycles a triggered instruction was forbidden from issuing
    /// during speculation (predictor-recovery pressure).
    pub forbidden: u64,
    /// Cycles with nothing eligible to issue.
    pub not_triggered: u64,
    /// Instructions currently in flight (issued, unresolved) — a
    /// level, not a cumulative counter.
    pub in_flight: u64,
}

/// A structural explanation of the current not-triggered state: which
/// trigger conditions are blocking the slots whose predicate patterns
/// match the architectural predicate state *right now*.
///
/// A profiler reads this when a PE accumulated `not_triggered` cycles
/// since the last observation and splits them into queue backpressure
/// (a matched slot blocked only by a full output), memory latency (a
/// matched slot starved by an input channel a busy memory read port
/// feeds), or genuine idleness. The insight describes the current
/// cycle; observing every cycle makes the split exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallInsight {
    /// Whether any valid slot's predicate pattern matches the current
    /// predicate state. When false the PE is control-idle: no amount
    /// of queue traffic can trigger anything until predicates change.
    pub matched_any: bool,
    /// Bit `q` set: some pattern-matched slot is blocked waiting on
    /// input queue `q` (empty operand, dequeue target, or tag check
    /// with no token to inspect).
    pub empty_input_mask: u32,
    /// Bit `q` set: some pattern-matched slot is blocked only by
    /// output queue `q` having no admissible space.
    pub full_output_mask: u32,
}

/// Pressure statistics for one PE channel, lifted from the fabric's
/// always-on per-queue statistics so the critical-path ranking can
/// weigh channels without this crate depending on fabric types.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelPressure {
    /// Tokens currently buffered.
    pub occupancy: usize,
    /// Queue capacity.
    pub capacity: usize,
    /// Successful pushes over the queue's lifetime.
    pub pushes: u64,
    /// Successful pops over the queue's lifetime.
    pub pops: u64,
    /// Rejected pushes (attempted while full) — direct evidence of
    /// backpressure on the producer.
    pub rejected: u64,
    /// Highest occupancy ever observed.
    pub high_water: usize,
}

/// The read-only window a simulated PE exposes to the profiler.
///
/// Implementations must not mutate any architectural or
/// microarchitectural state: calling these methods any number of
/// times, at any point, must leave a run bit-identical to one that
/// never called them.
pub trait ProfileSource {
    /// The current cycle-attribution counters.
    fn prof_counters(&self) -> ProfCounters;

    /// Why nothing is triggering right now (see [`StallInsight`]).
    /// Meaningful whenever the PE is stalled with nothing eligible;
    /// the profiler only consults it after observing fresh
    /// `not_triggered` cycles.
    fn stall_insight(&self) -> StallInsight;

    /// Number of input channels visible to the profiler.
    fn profiled_input_channels(&self) -> usize;

    /// Number of output channels visible to the profiler.
    fn profiled_output_channels(&self) -> usize;

    /// Pressure statistics for input channel `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    fn input_channel_pressure(&self, index: usize) -> ChannelPressure;

    /// Pressure statistics for output channel `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    fn output_channel_pressure(&self, index: usize) -> ChannelPressure;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zeroed() {
        let c = ProfCounters::default();
        assert_eq!(c.cycles, 0);
        assert_eq!(c.in_flight, 0);
        let i = StallInsight::default();
        assert!(!i.matched_any);
        assert_eq!(i.empty_input_mask | i.full_output_mask, 0);
        let p = ChannelPressure::default();
        assert_eq!(p.capacity, 0);
    }
}
