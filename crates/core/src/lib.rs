//! # contutto-core
//!
//! The **ConTutto FPGA memory buffer**: the paper's primary
//! contribution (§3). This crate models the complete FPGA logic stack
//! of Figure 4 plus the card-level support of Figure 3:
//!
//! | module | paper block |
//! |---|---|
//! | [`phy`] | DMI interface: 32:1 mux, CDR receive, clock-crossing choices (§3.3(i)) |
//! | [`mbi`] | Memory Buffer Interface: CRC pipeline depth, replay/freeze (§3.3(ii)) |
//! | [`mbs`] | Memory Buffer Synchronous logic: 2 frame decoders, 32 command engines, shared RMW ALU, unified upstream arbiter (§3.3(iii)) |
//! | [`avalon`] | On-chip Avalon bus with clock-domain crossing (§3.3(iv)) |
//! | [`memctl`] | Soft memory controllers: DDR3, MRAM, NVDIMM + flush (§3.3(v), §4.2) |
//! | [`buffer`] | The assembled [`ConTutto`] buffer (implements `DmiBuffer`) with the latency knob of §4.1 |
//! | [`accel`] | Near-memory acceleration: inline command engines and block accelerators — memcpy, min/max, FFT (§4.3) |
//! | [`access`] | The programmable Access processor: ISA, assembler, multithreaded interpreter, address mapping (§4.3) |
//! | [`tcam`] | the on-card ternary CAM for lookup acceleration (§3.2) |
//! | [`p2p`] | card-to-card PCIe transfers bypassing the memory bus (§3.2) |
//! | [`resources`] | FPGA resource accounting reproducing Table 1 |
//! | [`card`] | Board-level: FSI slave, I²C register access, power sequencing, SPD (§3.2, §3.4) |
//!
//! ## Quick start
//!
//! ```
//! use contutto_core::{ConTutto, ContuttoConfig, MemoryPopulation};
//! use contutto_dmi::DmiBuffer;
//!
//! let card = ConTutto::new(ContuttoConfig::base(), MemoryPopulation::dram_8gb());
//! assert_eq!(card.name(), "contutto-base");
//! // The FPGA is slower through than the Centaur ASIC — that is the
//! // price of flexibility (paper §4.1).
//! assert!(card.frtl_turnaround().as_ns() >= 50);
//! ```

#![deny(unsafe_code)]

pub mod accel;
pub mod access;
pub mod avalon;
pub mod buffer;
pub mod card;
pub mod mbi;
pub mod mbs;
pub mod memctl;
pub mod p2p;
pub mod phy;
pub mod resources;
pub mod tcam;

pub use buffer::{ConTutto, ContuttoConfig, ContuttoStats, MemoryPopulation};
pub use mbi::MbiConfig;
pub use memctl::{MemoryController, MemoryKind};
pub use p2p::P2pLink;
pub use phy::PhyConfig;
pub use resources::{ResourceReport, ResourceUsage};
pub use tcam::{Tcam, TcamEntry};
