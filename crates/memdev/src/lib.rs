//! # contutto-memdev
//!
//! Functional + timing models of every memory/storage medium the
//! ConTutto paper attaches or compares against:
//!
//! * [`dram`] — DDR3 SDRAM with bank/row state and JEDEC-style timing,
//! * [`mram`] — STT-MRAM (both iMTJ and pMTJ generations, paper §4.2),
//! * [`nvdimm`] — NVDIMM-N: DRAM front + flash save/restore on power
//!   loss, supercap-backed (paper §4.2(iii)),
//! * [`flash`] — raw NAND flash (pages/blocks, erase-before-program,
//!   per-block wear),
//! * [`disk`] — a mechanical HDD (seek + rotation + transfer),
//! * [`array`](mod@array) — the cell array every DIMM technology shares: contents,
//!   ECC access protocol, fault arming, scrub and page retirement,
//! * [`dimm`] — SPD (serial presence detect) contents, which the
//!   ConTutto firmware reads over FSI (paper §3.4),
//! * [`endurance`] — the write-endurance comparison behind Figure 8,
//! * [`ecc`] — SEC-DED over 64-bit words, patrol scrub and page
//!   retirement (the media RAS layer),
//! * [`fault`] — the deterministic, seedable media-fault injector.
//!
//! All devices implement [`MemoryDevice`]: functional byte storage
//! (reads return exactly what was written) plus a per-operation
//! completion time, so the same model serves both correctness tests
//! and latency/bandwidth experiments.

#![deny(unsafe_code)]

pub mod array;
pub mod dimm;
pub mod disk;
pub mod dram;
pub mod ecc;
pub mod endurance;
pub mod fault;
pub mod flash;
pub mod mram;
pub mod nvdimm;
pub mod store;
pub mod traits;

pub use array::MediaArray;
pub use dimm::Spd;
pub use disk::{DiskConfig, HardDiskDrive};
pub use dram::{DdrTimings, Dram};
pub use ecc::{RasCounters, ReadOutcome, ReadResult, ScrubReport};
pub use endurance::{EnduranceClass, Technology};
pub use fault::{FaultConfig, InjectorStats, MediaFaultInjector};
pub use flash::{FlashError, NandFlash};
pub use mram::{MramGeneration, SttMram};
pub use nvdimm::{NvdimmN, RestoreError, SaveSequence, SaveState, SAVE_COST_PER_PAGE_NJ};
pub use store::SparseMemory;
pub use traits::{line_ok, range_ok, MediaKind, MemoryDevice};
