//! STT-MRAM device model.
//!
//! Paper §4.2(ii): "Our initial technology demonstration of MRAM used
//! iMTJ (inline magnetic tunnel junction); we have since migrated to
//! pMTJ (perpendicular MTJ) which shows improved power/performance
//! characteristics." The devices are 256 MB DDR3-interface MRAM DIMMs.
//!
//! STT-MRAM is byte-addressable, non-volatile, with DRAM-class read
//! latency, somewhat slower writes, and effectively unlimited
//! endurance compared to flash (Figure 8). The model charges flat
//! read/write latencies per 64 B access (MRAM has no row-buffer
//! dynamics) and tracks per-line write counts for endurance studies.

use std::collections::HashMap;

use contutto_sim::snapshot::{persist_sorted_map, restore_map};
use contutto_sim::SimTime;

use crate::array::MediaArray;
use crate::ecc::{ReadResult, ScrubReport};
use crate::endurance::Technology;
use crate::traits::{MediaKind, MemoryDevice};

/// STT-MRAM device generation (paper §4.2(ii)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MramGeneration {
    /// Inline magnetic tunnel junction — the first demonstration.
    Imtj,
    /// Perpendicular MTJ — "improved power/performance".
    Pmtj,
}

impl MramGeneration {
    /// Read latency for a 64 B access.
    pub fn read_latency(self) -> SimTime {
        match self {
            MramGeneration::Imtj => SimTime::from_ps(45_000),
            MramGeneration::Pmtj => SimTime::from_ps(35_000),
        }
    }

    /// Write latency for a 64 B access.
    pub fn write_latency(self) -> SimTime {
        match self {
            MramGeneration::Imtj => SimTime::from_ps(120_000),
            MramGeneration::Pmtj => SimTime::from_ps(80_000),
        }
    }

    /// Write energy per 64 B access, in picojoules (relative figure
    /// used by the power comparison; pMTJ switches with less current).
    pub fn write_energy_pj(self) -> f64 {
        match self {
            MramGeneration::Imtj => 768.0, // 1.5 pJ/bit
            MramGeneration::Pmtj => 256.0, // 0.5 pJ/bit
        }
    }

    /// Nominal write endurance in cycles (Figure 8: STT-MRAM sits at
    /// 10¹²⁺, orders of magnitude above flash).
    pub fn endurance_cycles(self) -> u64 {
        1_000_000_000_000
    }
}

/// A single STT-MRAM device/DIMM.
///
/// # Example
///
/// ```
/// use contutto_memdev::{SttMram, MramGeneration, MemoryDevice};
/// use contutto_sim::SimTime;
///
/// let mut m = SttMram::new(256 << 20, MramGeneration::Pmtj);
/// m.write(SimTime::ZERO, 0, &[1u8; 64]);
/// let mut buf = [0u8; 64];
/// m.read(SimTime::from_us(1), 0, &mut buf);
/// assert_eq!(buf, [1u8; 64]);
/// assert!(m.kind().is_nonvolatile());
/// ```
#[derive(Debug)]
pub struct SttMram {
    array: MediaArray,
    generation: MramGeneration,
    busy_until: SimTime,
    write_counts: HashMap<u64, u64>,
    total_writes: u64,
    total_write_energy_pj: f64,
}

impl SttMram {
    /// Creates an MRAM of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64, generation: MramGeneration) -> Self {
        SttMram {
            array: MediaArray::new(capacity),
            generation,
            busy_until: SimTime::ZERO,
            write_counts: HashMap::new(),
            total_writes: 0,
            total_write_energy_pj: 0.0,
        }
    }

    /// The cell array: contents, ECC, faults, scrub and retirement.
    /// Every write reports its lines' wear to the array's injector.
    pub fn array(&self) -> &MediaArray {
        &self.array
    }

    /// Mutable access to the cell array.
    pub fn array_mut(&mut self) -> &mut MediaArray {
        &mut self.array
    }

    /// The device generation.
    pub fn generation(&self) -> MramGeneration {
        self.generation
    }

    /// How many 64 B writes the hottest line has absorbed.
    pub fn max_line_wear(&self) -> u64 {
        self.write_counts.values().copied().max().unwrap_or(0)
    }

    /// Total 64 B write operations performed.
    pub fn total_writes(&self) -> u64 {
        self.total_writes
    }

    /// Cumulative write energy in picojoules.
    pub fn total_write_energy_pj(&self) -> f64 {
        self.total_write_energy_pj
    }

    /// Whether any line has exceeded nominal endurance (practically
    /// unreachable for MRAM — that is the point of Figure 8).
    pub fn is_worn_out(&self) -> bool {
        self.max_line_wear() >= self.generation.endurance_cycles()
    }

    /// Simulated power loss: contents are retained (non-volatile).
    pub fn power_loss(&mut self) {
        self.busy_until = SimTime::ZERO;
    }

    /// The generation's image code, checked on restore like capacity.
    fn generation_code(&self) -> u8 {
        match self.generation {
            MramGeneration::Imtj => 0,
            MramGeneration::Pmtj => 1,
        }
    }

    contutto_sim::state_fields! {
        /// Serializes all dynamic state (contents, wear counters, RAS
        /// bookkeeping). Capacity and generation are construction
        /// parameters: the image only cross-checks them.
        pub {
            same array.capacity => "mram capacity or generation",
            same_as(Self::generation_code) => "mram capacity or generation",
            array.store,
            busy_until,
            write_counts with (persist_sorted_map, restore_map),
            total_writes,
            total_write_energy_pj,
            array.ras,
        }
    }

    fn spans(addr: u64, len: usize) -> u64 {
        let first = addr / 64;
        let last = (addr + len as u64 - 1) / 64;
        last - first + 1
    }
}

impl MemoryDevice for SttMram {
    fn capacity_bytes(&self) -> u64 {
        self.array.capacity
    }

    fn kind(&self) -> MediaKind {
        MediaKind::SttMram
    }

    fn read(&mut self, now: SimTime, addr: u64, buf: &mut [u8]) -> ReadResult {
        let outcome = self.array.read(now, addr, buf);
        let start = now.max(self.busy_until);
        let done = start + self.generation.read_latency() * Self::spans(addr, buf.len());
        self.busy_until = done;
        ReadResult { done, outcome }
    }

    fn write(&mut self, now: SimTime, addr: u64, data: &[u8]) -> SimTime {
        self.array.write(now, addr, data);
        let lines = Self::spans(addr, data.len());
        let endurance = Technology::SttMram.endurance();
        for i in 0..lines {
            let line = addr / 64 + i;
            let count = self.write_counts.entry(line).or_insert(0);
            *count += 1;
            self.array.note_wear(line * 64, *count, endurance);
        }
        self.total_writes += lines;
        self.total_write_energy_pj += self.generation.write_energy_pj() * lines as f64;
        let start = now.max(self.busy_until);
        let done = start + self.generation.write_latency() * lines;
        self.busy_until = done;
        done
    }

    fn scrub_pass(&mut self, now: SimTime) -> ScrubReport {
        self.array.scrub_pass(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contutto_sim::snapshot::{self, SnapReader};

    #[test]
    fn functional_roundtrip_survives_power_loss() {
        let mut m = SttMram::new(1 << 20, MramGeneration::Imtj);
        m.write(SimTime::ZERO, 128, &[0x5A; 64]);
        m.power_loss();
        let mut buf = [0u8; 64];
        m.read(SimTime::ZERO, 128, &mut buf);
        assert_eq!(buf, [0x5A; 64]);
    }

    #[test]
    fn pmtj_outperforms_imtj() {
        assert!(MramGeneration::Pmtj.read_latency() < MramGeneration::Imtj.read_latency());
        assert!(MramGeneration::Pmtj.write_latency() < MramGeneration::Imtj.write_latency());
        assert!(MramGeneration::Pmtj.write_energy_pj() < MramGeneration::Imtj.write_energy_pj());
    }

    #[test]
    fn write_slower_than_read() {
        let mut m = SttMram::new(1 << 20, MramGeneration::Pmtj);
        let r = m.read(SimTime::ZERO, 0, &mut [0u8; 64]).done;
        let w_start = r;
        let w = m.write(w_start, 0, &[0u8; 64]);
        assert!(w - w_start > r - SimTime::ZERO);
    }

    #[test]
    fn wear_tracking() {
        let mut m = SttMram::new(1 << 20, MramGeneration::Pmtj);
        for _ in 0..10 {
            m.write(SimTime::ZERO, 0, &[1u8; 64]);
        }
        m.write(SimTime::ZERO, 64, &[1u8; 64]);
        assert_eq!(m.max_line_wear(), 10);
        assert_eq!(m.total_writes(), 11);
        assert!(!m.is_worn_out());
        assert!(m.total_write_energy_pj() > 0.0);
    }

    #[test]
    fn multi_line_write_counts_spans() {
        let mut m = SttMram::new(1 << 20, MramGeneration::Pmtj);
        m.write(SimTime::ZERO, 32, &[0u8; 64]); // straddles two 64 B lines
        assert_eq!(m.total_writes(), 2);
    }

    #[test]
    fn snapshot_restore_preserves_wear_and_contents() {
        let mut m = SttMram::new(1 << 20, MramGeneration::Pmtj);
        for _ in 0..7 {
            m.write(SimTime::ZERO, 0, &[0x3C; 64]);
        }
        let mut img = Vec::new();
        m.snapshot_state(&mut img);
        let mut fresh = SttMram::new(1 << 20, MramGeneration::Pmtj);
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();
        assert_eq!(fresh.max_line_wear(), 7);
        assert_eq!(fresh.total_writes(), m.total_writes());
        assert_eq!(fresh.total_write_energy_pj(), m.total_write_energy_pj());
        let mut buf = [0u8; 64];
        fresh.read(SimTime::from_us(1), 0, &mut buf);
        assert_eq!(buf, [0x3C; 64]);
        // A generation mismatch is a topology error, not a silent mix.
        let mut imtj = SttMram::new(1 << 20, MramGeneration::Imtj);
        let err = imtj.restore_state(&mut SnapReader::new(&img)).unwrap_err();
        assert!(
            matches!(err, snapshot::RestoreError::TopologyMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn device_serializes_accesses() {
        let mut m = SttMram::new(1 << 20, MramGeneration::Pmtj);
        let mut buf = [0u8; 64];
        let a = m.read(SimTime::ZERO, 0, &mut buf).done;
        let b = m.read(SimTime::ZERO, 4096, &mut buf).done; // issued at same time
        assert_eq!(b - a, MramGeneration::Pmtj.read_latency());
    }
}
