//! The device abstraction shared by all media models.

use std::fmt;

use contutto_sim::snapshot::{self, Persist, SnapReader};
use contutto_sim::SimTime;

use crate::ecc::{ReadResult, ScrubReport, ECC_LINE_BYTES};

/// The memory-cell technology backing a device.
///
/// Paper §4.2: "ConTutto is memory technology agnostic; as long as the
/// interface supports DDR3, the backing memory cell technology could be
/// based on resistive filaments, chalcogenide, magnetic tunnel
/// junctions or capacitive cells".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MediaKind {
    /// Capacitive-cell DRAM.
    Dram,
    /// Spin-transfer-torque magnetic RAM.
    SttMram,
    /// Flash-backed DRAM (NVDIMM-N).
    NvdimmN,
    /// Raw NAND flash.
    NandFlash,
    /// Rotating magnetic disk.
    HardDisk,
}

impl MediaKind {
    /// Whether the *technology class* is marketed as non-volatile.
    ///
    /// This is a static property of the media, not a durability
    /// guarantee: an NVDIMM-N is only as non-volatile as its backup
    /// supply and save-image health. For the state-aware answer, ask
    /// the device — [`crate::nvdimm::NvdimmN::is_durable`].
    pub fn is_nonvolatile(self) -> bool {
        !matches!(self, MediaKind::Dram)
    }
}

impl Persist for MediaKind {
    fn persist(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            MediaKind::Dram => 0,
            MediaKind::SttMram => 1,
            MediaKind::NvdimmN => 2,
            MediaKind::NandFlash => 3,
            MediaKind::HardDisk => 4,
        };
        tag.persist(out);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, snapshot::RestoreError> {
        Ok(match r.u8()? {
            0 => MediaKind::Dram,
            1 => MediaKind::SttMram,
            2 => MediaKind::NvdimmN,
            3 => MediaKind::NandFlash,
            4 => MediaKind::HardDisk,
            _ => {
                return Err(snapshot::RestoreError::Malformed {
                    context: "media kind discriminant",
                })
            }
        })
    }
}

impl fmt::Display for MediaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MediaKind::Dram => "DRAM",
            MediaKind::SttMram => "STT-MRAM",
            MediaKind::NvdimmN => "NVDIMM-N",
            MediaKind::NandFlash => "NAND flash",
            MediaKind::HardDisk => "HDD",
        };
        f.write_str(s)
    }
}

/// A byte-addressable memory/storage device with functional contents
/// and per-operation timing.
///
/// Operations take the current simulation time and return the
/// **completion time** of the access; the device internally tracks any
/// resource contention (busy banks, head position, program/erase
/// state), so back-to-back calls model queuing naturally.
pub trait MemoryDevice {
    /// Total device capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// The backing technology.
    fn kind(&self) -> MediaKind;

    /// Reads `buf.len()` bytes at `addr` into `buf`; returns the time
    /// the data is available plus the ECC verdict for the returned
    /// bytes ([`crate::ecc::ReadOutcome`]). Devices without an ECC
    /// path always report `Clean`.
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds the device capacity.
    fn read(&mut self, now: SimTime, addr: u64, buf: &mut [u8]) -> ReadResult;

    /// Writes `data` at `addr`; returns the time the write is durable
    /// at the device (for DRAM: in the array; for flash: programmed).
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds the device capacity.
    fn write(&mut self, now: SimTime, addr: u64, data: &[u8]) -> SimTime;

    /// Runs one patrol-scrub pass at `now`: walks the array,
    /// corrects latent single-bit errors in place and retires pages
    /// over the correctable-error threshold. Devices without a scrub
    /// engine report an empty pass. Zero simulated time.
    fn scrub_pass(&mut self, _now: SimTime) -> ScrubReport {
        ScrubReport::default()
    }
}

/// Whether `[addr, addr + len)` fits inside `capacity`, with the
/// overflow case answered `false` instead of panicking. Entry points
/// that accept *external* addresses (sideband maintenance paths, fault
/// reproducers) gate on this and surface a typed refusal; only the
/// internal data path, whose addresses the memory map has already
/// validated, goes on to [`check_range`].
pub fn range_ok(capacity: u64, addr: u64, len: usize) -> bool {
    addr.checked_add(len as u64)
        .is_some_and(|end| end <= capacity)
}

/// Whether the 128 B line at `addr` is a valid sideband target: in
/// range of `capacity` and line-aligned. The sideband entry points
/// refuse anything else with a typed answer, since maintenance tools
/// and fault reproducers hand them external addresses.
pub fn line_ok(capacity: u64, addr: u64) -> bool {
    addr.is_multiple_of(ECC_LINE_BYTES as u64) && range_ok(capacity, addr, ECC_LINE_BYTES)
}

/// Validates an access range against a capacity.
///
/// # Panics
///
/// Panics when the access is out of range — out-of-range accesses are
/// always a modelling bug upstream (the memory map must prevent them).
pub fn check_range(capacity: u64, addr: u64, len: usize) {
    assert!(
        range_ok(capacity, addr, len),
        "device access [{addr:#x}, +{len}) exceeds capacity {capacity:#x}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonvolatility_classification() {
        assert!(!MediaKind::Dram.is_nonvolatile());
        assert!(MediaKind::SttMram.is_nonvolatile());
        assert!(MediaKind::NvdimmN.is_nonvolatile());
        assert!(MediaKind::NandFlash.is_nonvolatile());
        assert!(MediaKind::HardDisk.is_nonvolatile());
    }

    #[test]
    fn display_names() {
        assert_eq!(MediaKind::SttMram.to_string(), "STT-MRAM");
        assert_eq!(MediaKind::Dram.to_string(), "DRAM");
    }

    #[test]
    fn range_check_accepts_exact_fit() {
        check_range(1024, 1024 - 128, 128);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn range_check_rejects_overrun() {
        check_range(1024, 1000, 128);
    }

    #[test]
    fn range_ok_answers_instead_of_panicking() {
        assert!(range_ok(1024, 0, 128));
        assert!(range_ok(1024, 1024 - 128, 128));
        assert!(!range_ok(1024, 1000, 128));
        assert!(!range_ok(1024, 1024, 1));
        // Address arithmetic overflow is a refusal, not a panic.
        assert!(!range_ok(u64::MAX, u64::MAX, 128));
        assert!(!range_ok(1024, u64::MAX - 64, 128));
    }

    #[test]
    fn line_ok_requires_range_and_alignment() {
        assert!(line_ok(1024, 0));
        assert!(line_ok(1024, 1024 - 128));
        assert!(!line_ok(1024, 1));
        assert!(!line_ok(1024, 64));
        assert!(!line_ok(1024, 1024));
        assert!(!line_ok(u64::MAX, u64::MAX - 127));
    }
}
