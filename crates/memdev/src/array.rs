//! The technology-independent cell array under every DIMM.
//!
//! Paper §4.2: "ConTutto is memory technology agnostic; as long as the
//! interface supports DDR3, the backing memory cell technology could be
//! based on resistive filaments, chalcogenide, magnetic tunnel
//! junctions or capacitive cells". DRAM, STT-MRAM and NVDIMM-N differ
//! in timing, wear and what survives a power cut; the functional
//! contents, the SEC-DED check bytes, fault injection, patrol scrub and
//! page retirement are the same for all of them. [`MediaArray`] holds
//! that common part, and it is the only code that runs the ECC access
//! protocol of [`MediaRas`] against the store.

use contutto_sim::SimTime;

use crate::ecc::{MediaRas, RasCounters, ReadOutcome, ScrubReport, ECC_LINE_BYTES};
use crate::endurance::EnduranceClass;
use crate::fault::{FaultConfig, MediaFaultInjector};
use crate::store::SparseMemory;
use crate::traits::check_range;

/// Capacity, functional contents and RAS state of one DIMM's cells.
///
/// Devices embed one and keep only their own timing, bank or wear
/// state. A device's snapshot writes `capacity`, `store` and `ras`
/// itself, each at the position its image layout has always had them.
#[derive(Debug)]
pub struct MediaArray {
    pub(crate) capacity: u64,
    pub(crate) store: SparseMemory,
    pub(crate) ras: MediaRas,
}

impl MediaArray {
    /// An empty array of `capacity` bytes with the default retirement
    /// threshold and no fault injector.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        MediaArray {
            capacity,
            store: SparseMemory::new(),
            ras: MediaRas::new(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The data side of a demand read: fills `buf` with the
    /// ECC-verified (corrected) view of the cells and returns the
    /// verdict. The ECC pipeline is part of the array access, so it
    /// adds no simulated time; the device charges its own.
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds the capacity.
    pub fn read(&mut self, now: SimTime, addr: u64, buf: &mut [u8]) -> ReadOutcome {
        check_range(self.capacity, addr, buf.len());
        self.ras.verify_read(now, addr, buf, &mut self.store)
    }

    /// The data side of a demand write: heals or poisons partially
    /// covered lines, stores `data` and re-encodes the check bytes.
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds the capacity.
    pub fn write(&mut self, now: SimTime, addr: u64, data: &[u8]) {
        check_range(self.capacity, addr, data.len());
        self.ras.pre_write(now, addr, data.len(), &mut self.store);
        self.store.write(addr, data);
        self.ras.record_write(addr, data.len(), &self.store);
    }

    /// Functional read without timing or ECC (a memory-side cache hit,
    /// the accelerator DMA path, an NVDIMM save).
    pub fn peek(&self, addr: u64, buf: &mut [u8]) {
        check_range(self.capacity, addr, buf.len());
        self.store.read(addr, buf);
    }

    /// Functional write without timing (a cache write-back, the
    /// accelerator DMA path, an NVDIMM restore). Check bytes follow the
    /// new contents.
    pub fn poke(&mut self, addr: u64, data: &[u8]) {
        check_range(self.capacity, addr, data.len());
        self.store.write(addr, data);
        self.ras.record_write(addr, data.len(), &self.store);
    }

    /// Maintenance-path read of one line via the service interface
    /// (zero timing, independent of the demand path): the ECC-verified
    /// line and whether it must travel as poison.
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range or not line-aligned; external
    /// addresses are screened with [`crate::line_ok`] first.
    pub fn sideband_read_line(&mut self, now: SimTime, addr: u64) -> ([u8; 128], bool) {
        check_range(self.capacity, addr, ECC_LINE_BYTES);
        self.ras.sideband_read(now, addr, &mut self.store)
    }

    /// Maintenance-path write of one line, optionally depositing it
    /// with its poison marker (evacuation moves rot as rot).
    ///
    /// # Panics
    ///
    /// As [`Self::sideband_read_line`].
    pub fn sideband_write_line(&mut self, addr: u64, data: &[u8; 128], poison: bool) {
        check_range(self.capacity, addr, ECC_LINE_BYTES);
        self.ras.sideband_write(addr, data, poison, &mut self.store);
    }

    /// One patrol-scrub pass at `now` (zero simulated time).
    pub fn scrub_pass(&mut self, now: SimTime) -> ScrubReport {
        self.ras.scrub(now, &mut self.store)
    }

    /// Installs a deterministic media-fault injector whose flip
    /// schedule starts at `now`, replacing any previous one. With
    /// `wear_acceleration` set, wear reported through
    /// [`Self::note_wear`] drives stuck-cell failures through the
    /// Figure 8 endurance band
    /// ([`crate::EnduranceClass::expected_failures`]).
    pub fn attach_media_faults_at(&mut self, now: SimTime, cfg: FaultConfig) {
        self.ras
            .attach_injector(MediaFaultInjector::new_at(cfg, now));
    }

    /// Reports that the 64 B line at `line_addr` has absorbed `writes`
    /// writes, for the injector's wear model.
    pub fn note_wear(&mut self, line_addr: u64, writes: u64, endurance: EnduranceClass) {
        self.ras.note_write(line_addr, writes, endurance);
    }

    /// Correctable errors a page may accumulate before the patrol
    /// scrubber retires it.
    pub fn set_retire_threshold(&mut self, threshold: u32) {
        self.ras.set_retire_threshold(threshold);
    }

    /// Cumulative RAS counters (ECC corrections, scrub activity,
    /// retirements).
    pub fn ras_counters(&self) -> RasCounters {
        self.ras.counters()
    }

    /// Pages retired so far (4 KiB base addresses, ascending).
    pub fn retired_pages(&self) -> Vec<u64> {
        self.ras.retired_pages()
    }

    /// The cells lost power: contents and everything derived from them
    /// are gone. Retirement records and the fault plan (physical
    /// defects) survive. Only volatile technologies call this.
    pub fn power_loss(&mut self) {
        self.store.clear();
        self.ras.on_power_loss();
    }
}
