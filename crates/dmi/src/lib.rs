//! # contutto-dmi
//!
//! Simulation of the POWER8 **Differential Memory Interface (DMI)**:
//! the high-speed packetized link between the processor and its memory
//! buffer chips (Centaur, or the ConTutto FPGA), as described in §2 of
//! the ConTutto paper (Sukhwani et al., MICRO-50 2017).
//!
//! The crate models the link at *frame* granularity with functional
//! fidelity: frames carry sequence IDs and embedded ACKs and are
//! replayed from a real replay buffer on error, and every frame that
//! takes a bit error is serialized to real bytes, scrambled with a real
//! LFSR and checked against a real CRC-16 (a clean frame rides the wire
//! as itself; see [`link`]) — exactly the two-level handshake of paper
//! §2.3:
//!
//! * a tight **packet loop** (seq ID + CRC + ACK + replay, with the
//!   Frame Round Trip Latency (FRTL) measured at link init), and
//! * a longer **command loop** (32 tagged commands in flight, paired
//!   read data and done responses).
//!
//! ## Layers
//!
//! | module | paper concept |
//! |---|---|
//! | [`frame`] | downstream/upstream frame formats, packets |
//! | [`crc`] | frame CRC ("strong cyclic redundancy check") |
//! | [`scramble`] | line scrambling/descrambling |
//! | [`command`] | 128 B read/write/RMW commands, 32-entry tag pool |
//! | [`link`] | the physical channel: lanes, serialization delay, bit-error injection |
//! | [`training`] | bit/word/frame alignment + FRTL determination |
//! | [`protocol`] | `LinkEndpoint`: seq/ACK bookkeeping, replay buffer, replay FSM |
//! | [`idle`] | closed-form stepping of a link that carries only idles |
//!
//! ## Example
//!
//! ```
//! use contutto_dmi::LinkSpeed;
//!
//! // An 8 Gb/s link moves one 16-UI frame every 2 ns (paper §3.3).
//! assert_eq!(LinkSpeed::Gbps8.frame_time().as_ps(), 2000);
//! ```

#![deny(unsafe_code)]

pub mod buffer;
pub mod command;
pub mod crc;
pub mod error;
pub mod frame;
pub mod idle;
pub mod link;
pub mod protocol;
pub mod scramble;
pub mod training;

pub use buffer::{DmiBuffer, MediaFaultSpec, PowerRestoreOutcome};
pub use command::{CacheLine, CommandOp, MemCommand, MemResponse, Tag, TagPool, CACHE_LINE_BYTES};
pub use error::DmiError;
pub use frame::{DownstreamFrame, DownstreamPayload, UpstreamFrame, UpstreamPayload};
pub use idle::IdleLink;
pub use link::{BitErrorInjector, LinkSegment, LinkSpeed};
pub use protocol::{LinkEndpoint, LinkEndpointConfig, LinkRole};
pub use training::{LinkTrainer, TrainingOutcome, TrainingState};
