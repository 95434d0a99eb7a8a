//! # contutto-storage
//!
//! The storage substrate for the paper's §4.2 experiments: every
//! attach point and driver stack the FIO (Figures 9–10) and GPFS
//! (Table 4) comparisons need.
//!
//! | module | role |
//! |---|---|
//! | [`pcie`] | the PCIe/NVMe path model: doorbells, DMA, interrupts — the overhead the memory-bus attach avoids |
//! | [`blockdev`] | block devices: SAS HDD, SAS SSD, PCIe flash/NVRAM/MRAM cards, and memory-bus pmem block devices |
//! | [`pmem`] | the persistent-memory driver over a live DMI channel (loads/stores + flush, paper's pmem.io stack) |
//! | [`slram`] | the raw slram driver (no persistence guarantees) |
//! | [`writecache`] | the GPFS-style non-volatile write cache aggregating small random writes into sequential disk writes |

#![deny(unsafe_code)]

pub mod blockdev;
pub mod pcie;
pub mod pmem;
pub mod slram;
pub mod writecache;

pub use blockdev::{BlockDevice, PcieCard, SasHdd, SasSsd};
pub use pcie::{NvmePath, PcieConfig};
pub use pmem::PmemDriver;
pub use slram::SlramDriver;
pub use writecache::WriteCache;
