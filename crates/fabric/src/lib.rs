//! # `tia-fabric` — the spatial substrate
//!
//! The interconnect layer of the triggered-PE reproduction: tagged
//! register queues ([`TaggedQueue`]), point-to-point channels, on-chip
//! memory with read/write ports at channel endpoints ([`ReadPort`],
//! [`WritePort`], default 4-cycle load latency as in the paper's test
//! system), and host stream endpoints ([`StreamSource`],
//! [`StreamSink`]).
//!
//! Processing elements — whether the functional model of `tia-sim` or
//! the cycle-level pipelines of `tia-core` — plug into a [`System`]
//! through the [`ProcessingElement`] trait, so the same spatial
//! workload wiring runs on any PE model.
//!
//! # Examples
//!
//! Stream three addresses through a read port and collect the loads:
//!
//! ```
//! use tia_fabric::{
//!     InputRef, Memory, OutputRef, ProcessingElement, ReadPort, StreamSink,
//!     StreamSource, System, TaggedQueue, Token,
//! };
//!
//! // A system can be PE-free; `NullPe` below is never instantiated.
//! #[derive(Debug)]
//! enum NullPe {}
//! impl ProcessingElement for NullPe {
//!     fn step(&mut self) { match *self {} }
//!     fn input_queue_mut(&mut self, _: usize) -> &mut TaggedQueue { match *self {} }
//!     fn output_queue_mut(&mut self, _: usize) -> &mut TaggedQueue { match *self {} }
//!     fn is_halted(&self) -> bool { match *self {} }
//! }
//!
//! let mut sys: System<NullPe> = System::new(Memory::from_words(vec![10, 20, 30]));
//! let port = sys.add_read_port(ReadPort::new(2, 4));
//! let src = sys.add_source(StreamSource::new(2, vec![
//!     Token::data(0), Token::data(1), Token::data(2),
//! ]));
//! let sink = sys.add_sink(StreamSink::new(2));
//! sys.connect(OutputRef::Source { source: src }, InputRef::ReadAddr { port })?;
//! sys.connect(OutputRef::ReadData { port }, InputRef::Sink { sink })?;
//! sys.run_until(|s| s.sink(0).collected().len() == 3, 1_000);
//! assert_eq!(sys.sink(0).words(), vec![10, 20, 30]);
//! # Ok::<(), tia_isa::IsaError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod memory;
pub mod mesh;
pub mod queue;
pub mod stream;
pub mod system;

pub use memory::{
    addr_token, InFlightLoad, Memory, ReadPort, ReadPortState, SeqWritePortState,
    SequentialWritePort, WritePort, WritePortState, DEFAULT_LOAD_LATENCY,
};
pub use mesh::{Coord, Direction, Mesh, MeshBuilder};
pub use queue::{QueueState, QueueStats, RestoreError, TaggedQueue, Token};
pub use stream::{StreamSink, StreamSinkState, StreamSource, StreamSourceState};
pub use system::{
    parse_toggle, toggle_from_env, FastForwardStats, InputRef, Link, OutputRef, ProcessingElement,
    Snapshotable, StopReason, System, SystemState,
};
