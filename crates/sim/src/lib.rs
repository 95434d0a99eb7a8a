//! # contutto-sim
//!
//! Deterministic discrete-event simulation kernel used by every other
//! crate in the ConTutto reproduction.
//!
//! The kernel is deliberately small: a monotonically increasing
//! picosecond clock ([`SimTime`]), typed frequency / cycle arithmetic
//! ([`Frequency`], [`Cycles`]), bounded latency queues for modelling
//! pipelines and wires ([`queue::DelayQueue`]), statistics
//! collectors ([`stats`]) aggregated under hierarchical names by a
//! [`MetricsRegistry`], a frozen-stream deterministic PRNG ([`SimRng`]),
//! and ring-buffered structured protocol tracing ([`trace`]).
//!
//! Everything is single-threaded and fully deterministic: two runs with
//! the same inputs produce bit-identical traces. No wall-clock time or
//! ambient randomness is ever consulted.
//!
//! ## Example
//!
//! ```
//! use contutto_sim::{DelayQueue, SimTime};
//!
//! let mut wire = DelayQueue::with_latency(SimTime::from_ns(4));
//! wire.push(SimTime::from_ns(1), "a").unwrap();
//! wire.push(SimTime::from_ns(2), "b").unwrap();
//! assert_eq!(wire.pop_ready(SimTime::from_ns(4)), None);
//! assert_eq!(wire.pop_ready(SimTime::from_ns(5)), Some("a"));
//! assert_eq!(wire.next_ready_time(), Some(SimTime::from_ns(6)));
//! ```

// The one `unsafe` block in the workspace is the snapshot CRC-32's
// call into its carry-less-multiply fold, allowed where it is.
#![deny(unsafe_code)]

pub mod queue;
pub mod registry;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod time;
pub mod trace;

pub use queue::DelayQueue;
pub use registry::{Metric, MetricsRegistry};
pub use rng::SimRng;
pub use snapshot::{
    crc32, Persist, RestoreError, SnapReader, SnapshotImage, SnapshotWriter, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use stats::{Counter, LatencyStats, LogHistogram};
pub use time::{Cycles, Frequency, SimTime};
pub use trace::{LinkDir, TraceEvent, TraceRecord, Tracer};
