//! DDR3 SDRAM device model with bank/row state.
//!
//! The model charges JEDEC-style timing: a read hitting an open row
//! costs CL + burst; a closed bank adds tRCD; a row conflict adds tRP
//! first. Periodic refresh steals tRFC every tREFI. Contents, ECC and
//! RAS live in the device's [`MediaArray`].
//!
//! This is the device behind both the Centaur model's DDR ports and
//! ConTutto's soft DDR3 controller (paper §3.3(v): "For DRAM
//! enablement, we use the soft DDR3 memory controller from Altera").

use contutto_sim::persist_fields;
use contutto_sim::SimTime;

use crate::array::MediaArray;
use crate::ecc::{ReadResult, ScrubReport};
use crate::traits::{MediaKind, MemoryDevice};

/// DDR3 timing parameters, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrTimings {
    /// CAS latency (column access).
    pub cl: u64,
    /// RAS-to-CAS delay (row activate).
    pub trcd: u64,
    /// Row precharge.
    pub trp: u64,
    /// Refresh cycle time.
    pub trfc: u64,
    /// Average refresh interval.
    pub trefi: u64,
    /// Time to burst one 64-byte column out of the array.
    pub tburst: u64,
}

impl DdrTimings {
    /// DDR3-1600 CL11 (a stock 2013-era registered DIMM).
    pub fn ddr3_1600() -> Self {
        DdrTimings {
            cl: 13_750,
            trcd: 13_750,
            trp: 13_750,
            trfc: 160_000,
            trefi: 7_800_000,
            tburst: 5_000, // 64 B over an 8-byte DDR-1600 channel
        }
    }
}

impl Default for DdrTimings {
    fn default() -> Self {
        DdrTimings::ddr3_1600()
    }
}

const NUM_BANKS: usize = 8;
const ROW_BYTES: u64 = 8192; // 8 KiB row buffer per bank

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    busy_until: SimTime,
}

persist_fields!(BankState {
    open_row,
    busy_until
});

/// Cumulative DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Row-buffer hits.
    pub hits: u64,
    /// Accesses to idle banks.
    pub misses: u64,
    /// Row conflicts.
    pub conflicts: u64,
    /// Refresh stalls encountered.
    pub refresh_stalls: u64,
}

persist_fields!(DramStats {
    hits,
    misses,
    conflicts,
    refresh_stalls
});

/// A DDR3 DRAM device.
///
/// # Example
///
/// ```
/// use contutto_memdev::{Dram, MemoryDevice};
/// use contutto_sim::SimTime;
///
/// let mut d = Dram::new(1 << 30, Default::default());
/// let t0 = SimTime::ZERO;
/// let done = d.write(t0, 0x1000, &[42u8; 128]);
/// let mut buf = [0u8; 128];
/// let result = d.read(done, 0x1000, &mut buf);
/// assert_eq!(buf, [42u8; 128]);
/// assert!(result.outcome.is_clean());
/// assert!(result.done > done);
/// ```
#[derive(Debug)]
pub struct Dram {
    array: MediaArray,
    timings: DdrTimings,
    banks: [BankState; NUM_BANKS],
    next_refresh: SimTime,
    /// Completion time of the last data-bus transfer (one shared bus
    /// per device; back-to-back bursts stream every tBURST).
    last_data_out: SimTime,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM of `capacity` bytes with the given timing grade.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64, timings: DdrTimings) -> Self {
        Dram {
            array: MediaArray::new(capacity),
            timings,
            banks: [BankState::default(); NUM_BANKS],
            next_refresh: SimTime::from_ps(timings.trefi),
            last_data_out: SimTime::ZERO,
            stats: DramStats::default(),
        }
    }

    /// Access statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The cell array: contents, ECC, faults, scrub and retirement.
    pub fn array(&self) -> &MediaArray {
        &self.array
    }

    /// Mutable access to the cell array.
    pub fn array_mut(&mut self) -> &mut MediaArray {
        &mut self.array
    }

    /// Simulates power loss: DRAM forgets everything.
    pub fn power_loss(&mut self) {
        self.array.power_loss();
        self.banks = [BankState::default(); NUM_BANKS];
    }

    contutto_sim::state_fields! {
        /// Serializes all dynamic state (contents, bank/row state, RAS
        /// bookkeeping, stats). Capacity and timings are construction
        /// parameters: the image only cross-checks them. Restore decodes
        /// the whole payload before it changes anything.
        pub {
            same array.capacity => "dram capacity",
            each banks,
            apply array (MediaArray::persist_data, MediaArray::restore_data => MediaArray::lay_data),
            next_refresh,
            last_data_out,
            stats,
            apply array (MediaArray::persist_ras, MediaArray::restore_ras => MediaArray::lay_ras),
        }
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        // Interleave banks on row-buffer-sized chunks.
        let chunk = addr / ROW_BYTES;
        (
            (chunk % NUM_BANKS as u64) as usize,
            chunk / NUM_BANKS as u64,
        )
    }

    /// Charges timing for one ≤64 B column access; returns completion.
    fn access(&mut self, now: SimTime, addr: u64) -> SimTime {
        let t = self.timings;
        let (bank_idx, row) = self.bank_and_row(addr);

        // Refresh: if a refresh interval elapsed, the whole device
        // stalls for tRFC at the scheduled point.
        let mut start = now;
        if now >= self.next_refresh {
            let refresh_end = self.next_refresh + SimTime::from_ps(t.trfc);
            start = start.max(refresh_end);
            self.next_refresh += SimTime::from_ps(t.trefi);
            self.stats.refresh_stalls += 1;
        }

        let bank = &mut self.banks[bank_idx];
        start = start.max(bank.busy_until);

        // A row hit is a column access; an idle bank activates first; a
        // row conflict precharges before that.
        let (count, array_time) = match bank.open_row {
            Some(open) if open == row => (&mut self.stats.hits, t.cl),
            Some(_) => (&mut self.stats.conflicts, t.trp + t.trcd + t.cl),
            None => (&mut self.stats.misses, t.trcd + t.cl),
        };
        *count += 1;
        bank.open_row = Some(row);
        let service_done = start + SimTime::from_ps(array_time + t.tburst);
        // CAS pipelining: the bank is free again once its activation
        // and burst slots pass (the CAS-latency tail overlaps the next
        // access); the shared data bus streams one burst per tBURST.
        bank.busy_until = service_done.saturating_sub(SimTime::from_ps(t.cl));
        let done = service_done.max(self.last_data_out + SimTime::from_ps(t.tburst));
        self.last_data_out = done;
        done
    }

    /// Charges timing for an arbitrary-length access split into 64 B
    /// column bursts.
    fn access_span(&mut self, now: SimTime, addr: u64, len: usize) -> SimTime {
        let mut done = now;
        let mut cur = addr & !63;
        let end = addr + len as u64;
        let mut t = now;
        while cur < end {
            done = self.access(t, cur);
            // Consecutive bursts pipeline: the next can start as soon
            // as the previous column completes.
            t = done;
            cur += 64;
        }
        done
    }
}

impl MemoryDevice for Dram {
    fn capacity_bytes(&self) -> u64 {
        self.array.capacity
    }

    fn kind(&self) -> MediaKind {
        MediaKind::Dram
    }

    fn read(&mut self, now: SimTime, addr: u64, buf: &mut [u8]) -> ReadResult {
        let outcome = self.array.read(now, addr, buf);
        ReadResult {
            done: self.access_span(now, addr, buf.len()),
            outcome,
        }
    }

    fn write(&mut self, now: SimTime, addr: u64, data: &[u8]) -> SimTime {
        self.array.write(now, addr, data);
        self.access_span(now, addr, data.len())
    }

    fn scrub_pass(&mut self, now: SimTime) -> ScrubReport {
        self.array.scrub_pass(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use contutto_sim::snapshot::SnapReader;

    fn dram() -> Dram {
        Dram::new(1 << 30, DdrTimings::ddr3_1600())
    }

    #[test]
    fn functional_roundtrip() {
        let mut d = dram();
        let data: Vec<u8> = (0..128).collect();
        d.write(SimTime::ZERO, 4096, &data);
        let mut buf = vec![0u8; 128];
        d.read(SimTime::from_us(1), 4096, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut d = dram();
        let mut buf = [0u8; 64];
        let t0 = SimTime::ZERO;
        let first = d.read(t0, 0, &mut buf).done; // miss: tRCD + CL + burst
        let second_start = first;
        let second = d.read(second_start, 64, &mut buf).done; // hit: CL + burst
        let miss_lat = first - t0;
        let hit_lat = second - second_start;
        assert!(hit_lat < miss_lat, "hit {hit_lat} !< miss {miss_lat}");
        assert_eq!(hit_lat.as_ps(), 13_750 + 5_000);
        assert_eq!(miss_lat.as_ps(), 13_750 + 13_750 + 5_000);
    }

    #[test]
    fn row_conflict_is_slowest() {
        let mut d = dram();
        let mut buf = [0u8; 64];
        let t0 = SimTime::ZERO;
        let t1 = d.read(t0, 0, &mut buf).done; // open row 0 of bank 0
                                               // Same bank, different row: banks interleave every 8 KiB, so
                                               // +8 KiB * 8 banks = same bank, next row.
        let t2 = d.read(t1, 8192 * 8, &mut buf).done;
        let conflict_lat = t2 - t1;
        assert_eq!(conflict_lat.as_ps(), 13_750 + 13_750 + 13_750 + 5_000);
        assert_eq!(d.stats().conflicts, 1);
    }

    #[test]
    fn banks_operate_independently() {
        let mut d = dram();
        let mut buf = [0u8; 64];
        let t0 = SimTime::ZERO;
        d.read(t0, 0, &mut buf); // bank 0
                                 // Bank 1 (next 8 KiB chunk) is idle: also a plain miss issued
                                 // at t0 in parallel — only the shared data bus (one burst per
                                 // tBURST) separates the two completions.
        let done = d.read(t0, 8192, &mut buf).done;
        assert_eq!((done - t0).as_ps(), 13_750 + 13_750 + 5_000 + 5_000);
        assert_eq!(d.stats().misses, 2);
    }

    #[test]
    fn busy_bank_queues() {
        let mut d = dram();
        let mut buf = [0u8; 64];
        let t0 = SimTime::ZERO;
        let first_done = d.read(t0, 0, &mut buf).done;
        // Immediately issue a second access to the same bank at t0:
        // CAS-pipelined behind the first, its data streams one burst
        // slot later.
        let second_done = d.read(t0, 64, &mut buf).done;
        assert!(second_done > first_done);
        assert_eq!((second_done - first_done).as_ps(), 5_000);
    }

    #[test]
    fn refresh_stalls_accrue() {
        let mut d = dram();
        let mut buf = [0u8; 64];
        // Access just after the first refresh interval.
        let done = d.read(SimTime::from_ps(7_800_001), 0, &mut buf).done;
        assert_eq!(d.stats().refresh_stalls, 1);
        // The access started only after the refresh completed.
        assert!(done.as_ps() >= 7_800_000 + 160_000);
    }

    #[test]
    fn cache_line_read_takes_two_bursts() {
        let mut d = dram();
        let mut buf = [0u8; 128];
        let t0 = SimTime::ZERO;
        let done = d.read(t0, 0, &mut buf).done;
        // miss (tRCD+CL+burst) then pipelined hit (CL+burst).
        assert_eq!(
            (done - t0).as_ps(),
            (13_750 + 13_750 + 5_000) + (13_750 + 5_000)
        );
    }

    #[test]
    fn power_loss_clears_contents() {
        let mut d = dram();
        d.write(SimTime::ZERO, 0, &[7u8; 64]);
        d.power_loss();
        let mut buf = [1u8; 64];
        d.read(SimTime::from_us(1), 0, &mut buf);
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn injected_transient_is_corrected_never_silent() {
        let mut d = dram();
        d.array_mut().attach_media_faults_at(
            SimTime::ZERO,
            FaultConfig {
                seed: 7,
                transient_flips: 1,
                window: SimTime::from_us(10),
                hot_start: 0,
                hot_len: 128,
                stuck_cells: 0,
                wear_acceleration: 0.0,
            },
        );
        d.write(SimTime::ZERO, 0, &[0x77u8; 128]);
        let mut buf = [0u8; 128];
        let r = d.read(SimTime::from_us(20), 0, &mut buf);
        assert!(!r.outcome.is_uncorrectable());
        assert_eq!(buf, [0x77u8; 128], "returned data always correct");
        // The scrubber heals the array; the next read is clean.
        d.scrub_pass(SimTime::from_us(21));
        let r2 = d.read(SimTime::from_us(22), 0, &mut buf);
        assert!(r2.outcome.is_clean());
        assert_eq!(buf, [0x77u8; 128]);
    }

    #[test]
    fn stuck_cell_drives_page_retirement() {
        let mut d = dram();
        d.array_mut().attach_media_faults_at(
            SimTime::ZERO,
            FaultConfig {
                seed: 3,
                transient_flips: 0,
                window: SimTime::ZERO,
                hot_start: 0,
                hot_len: 64,
                stuck_cells: 1,
                wear_acceleration: 0.0,
            },
        );
        // Data whose bits disagree with the stuck level every other
        // pass; alternate patterns so the cell shows up until its
        // corrections reach the retirement threshold.
        let mut retired = false;
        for pass in 0..64u64 {
            let fill = if pass % 2 == 0 { 0x00 } else { 0xFF };
            d.write(SimTime::from_us(pass), 0, &[fill; 128]);
            let report = d.scrub_pass(SimTime::from_us(pass) + SimTime::from_ns(500));
            if !report.retired_pages.is_empty() {
                retired = true;
                break;
            }
        }
        assert!(retired, "repeated corrections retire the page");
        assert_eq!(d.array().retired_pages(), vec![0]);
        // A retired page goes quiet: the injector is mapped out.
        let mut buf = [0u8; 128];
        let r = d.read(SimTime::from_ms(1), 0, &mut buf);
        assert!(r.outcome.is_clean());
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut d = dram();
        d.array_mut().attach_media_faults_at(
            SimTime::ZERO,
            FaultConfig {
                seed: 11,
                transient_flips: 4,
                window: SimTime::from_us(100),
                hot_start: 0,
                hot_len: 4096,
                stuck_cells: 1,
                wear_acceleration: 0.0,
            },
        );
        let mut buf = [0u8; 128];
        d.write(SimTime::ZERO, 0, &[0x42; 128]);
        d.read(SimTime::from_us(10), 0, &mut buf);
        d.scrub_pass(SimTime::from_us(20));

        let mut img = Vec::new();
        d.snapshot_state(&mut img);
        let mut fresh = dram();
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();

        // Both copies serve the identical timeline from here on.
        let a = d.read(SimTime::from_us(200), 0, &mut buf);
        let data_a = buf;
        let b = fresh.read(SimTime::from_us(200), 0, &mut buf);
        assert_eq!(a, b);
        assert_eq!(buf, data_a);
        assert_eq!(d.stats(), fresh.stats());
        assert_eq!(d.array().ras_counters(), fresh.array().ras_counters());
        let ra = d.scrub_pass(SimTime::from_us(300));
        let rb = fresh.scrub_pass(SimTime::from_us(300));
        assert_eq!(ra.corrected, rb.corrected);
        assert_eq!(ra.retired_pages, rb.retired_pages);
    }

    #[test]
    fn snapshot_restore_rejects_capacity_mismatch() {
        let d = dram();
        let mut img = Vec::new();
        d.snapshot_state(&mut img);
        let mut other = Dram::new(1 << 20, DdrTimings::ddr3_1600());
        let err = other.restore_state(&mut SnapReader::new(&img)).unwrap_err();
        assert!(
            matches!(
                err,
                contutto_sim::snapshot::RestoreError::TopologyMismatch { .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn out_of_range_panics() {
        let mut d = Dram::new(4096, DdrTimings::default());
        let mut buf = [0u8; 128];
        d.read(SimTime::ZERO, 4090, &mut buf);
    }
}
