//! # contutto-centaur
//!
//! Model of the POWER8 **Centaur** memory-buffer ASIC: the chip
//! ConTutto replaces. Paper §2.1: each of the eight DMI channels
//! connects to a Centaur, which implements the memory controllers,
//! four DDR ports and a 16 MB cache "to support prefetching and
//! improve system performance".
//!
//! The model implements the [`contutto_dmi::DmiBuffer`] contract:
//! downstream command payloads go in, upstream read-data/done payloads
//! come out, with timing charged through a configurable internal
//! pipeline, an eDRAM cache model and real [`contutto_memdev::Dram`]
//! devices behind its DDR ports.
//!
//! The **latency knobs** of paper §4.1 Table 2 are exposed as
//! [`CentaurConfig`] presets: the same silicon, progressively
//! de-tuned ("adjusting different performance-related knobs available
//! in it"), spanning the paper's 79–249 ns range, plus the
//! "functionality matched to ConTutto" configuration of Table 3
//! (cache and auxiliary functions disabled).

#![deny(unsafe_code)]

pub mod buffer;
pub mod cache;
pub mod config;

pub use buffer::{Centaur, CentaurStats};
pub use cache::EdramCache;
pub use config::CentaurConfig;
