//! SPD (serial presence detect) contents of a DIMM.
//!
//! Paper §3.4: "The final use of the external FSI slave is to directly
//! read the SPD (serial presence detect) on the DIMMs plugged into
//! ConTutto, which is critical for detecting and controlling the
//! NVDIMMs." The firmware model reads these structures to decide
//! memory-map placement and NVDIMM arming.

use crate::mram::MramGeneration;
use crate::traits::MediaKind;

/// Serial-presence-detect contents of a DIMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spd {
    /// Backing technology.
    pub kind: MediaKind,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Module part identifier string.
    pub part_number: String,
    /// Whether the module preserves contents across power loss.
    pub nonvolatile: bool,
    /// Whether the save sequence is vendor-specific (DDR3 NVDIMMs,
    /// paper §4.2(iii)) rather than JEDEC-standardized (DDR4).
    pub vendor_specific_save: bool,
}

impl Spd {
    /// SPD for a stock DDR3 DRAM DIMM.
    pub fn dram(capacity_bytes: u64) -> Self {
        Spd {
            kind: MediaKind::Dram,
            capacity_bytes,
            part_number: format!("DDR3-1600-{}GB", capacity_bytes >> 30),
            nonvolatile: false,
            vendor_specific_save: false,
        }
    }

    /// SPD for a 256 MB STT-MRAM DIMM (the paper's parts).
    pub fn mram(capacity_bytes: u64, gen: MramGeneration) -> Self {
        Spd {
            kind: MediaKind::SttMram,
            capacity_bytes,
            part_number: format!(
                "MRAM-{}-{}MB",
                match gen {
                    MramGeneration::Imtj => "iMTJ",
                    MramGeneration::Pmtj => "pMTJ",
                },
                capacity_bytes >> 20
            ),
            nonvolatile: true,
            vendor_specific_save: false,
        }
    }

    /// SPD for a DDR3 NVDIMM-N.
    pub fn nvdimm(capacity_bytes: u64) -> Self {
        Spd {
            kind: MediaKind::NvdimmN,
            capacity_bytes,
            part_number: format!("NVDIMM-N-DDR3-{}GB", capacity_bytes >> 30),
            nonvolatile: true,
            vendor_specific_save: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mram_spd_describes_a_nonvolatile_part() {
        let spd = Spd::mram(256 << 20, MramGeneration::Pmtj);
        assert_eq!(spd.kind, MediaKind::SttMram);
        assert_eq!(spd.capacity_bytes, 256 << 20);
        assert!(spd.nonvolatile);
    }

    #[test]
    fn nvdimm_spd_flags_vendor_specific_save() {
        let nv = Spd::nvdimm(1 << 30);
        assert!(nv.vendor_specific_save);
        assert!(nv.nonvolatile);
        let dram = Spd::dram(4 << 30);
        assert!(!dram.vendor_specific_save);
        assert!(!dram.nonvolatile);
    }

    #[test]
    fn part_numbers_are_descriptive() {
        assert!(Spd::mram(256 << 20, MramGeneration::Imtj)
            .part_number
            .contains("iMTJ"));
        assert!(Spd::dram(16 << 30).part_number.contains("16GB"));
    }
}
