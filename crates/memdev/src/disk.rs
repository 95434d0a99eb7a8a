//! Mechanical hard-disk model.
//!
//! The Table 4 baseline: a 1.1 TB SAS HDD sustaining ~75 IOPS on small
//! random writes. The model charges seek (distance-dependent),
//! rotational latency and transfer time, and recognizes sequential
//! accesses (no seek, no rotation) — which is exactly the property the
//! GPFS write cache exploits by turning random writes into sequential
//! ones (paper §4.2, Table 4).

use contutto_sim::SimTime;

use crate::ecc::{ReadOutcome, ReadResult};
use crate::store::SparseMemory;
use crate::traits::{check_range, MediaKind, MemoryDevice};

/// HDD mechanical parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskConfig {
    /// Minimum (track-to-track) seek.
    pub seek_min: SimTime,
    /// Full-stroke seek.
    pub seek_max: SimTime,
    /// Spindle speed in RPM (rotational latency averages half a turn).
    pub rpm: u64,
    /// Sustained media transfer rate, bytes/sec.
    pub transfer_rate: f64,
}

impl DiskConfig {
    /// A 7200 RPM enterprise SAS drive.
    pub fn sas_7200rpm() -> Self {
        DiskConfig {
            seek_min: SimTime::from_ms(1),
            seek_max: SimTime::from_ms(22),
            rpm: 7200,
            transfer_rate: 150e6,
        }
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::sas_7200rpm()
    }
}

/// A mechanical hard disk drive.
///
/// # Example
///
/// ```
/// use contutto_memdev::{HardDiskDrive, MemoryDevice};
/// use contutto_sim::SimTime;
///
/// let mut hdd = HardDiskDrive::new(1_100_000_000_000, Default::default());
/// // A random 4 KiB write costs milliseconds.
/// let done = hdd.write(SimTime::ZERO, 500_000_000_000, &[0u8; 4096]);
/// assert!(done.as_us_f64() > 1000.0);
/// ```
#[derive(Debug)]
pub struct HardDiskDrive {
    capacity: u64,
    cfg: DiskConfig,
    store: SparseMemory,
    head_pos: u64,
    busy_until: SimTime,
    seeks: u64,
    sequential_hits: u64,
}

impl HardDiskDrive {
    /// Creates a drive of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64, cfg: DiskConfig) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        HardDiskDrive {
            capacity,
            cfg,
            store: SparseMemory::new(),
            head_pos: 0,
            busy_until: SimTime::ZERO,
            seeks: 0,
            sequential_hits: 0,
        }
    }

    /// Seeks performed so far.
    pub fn seeks(&self) -> u64 {
        self.seeks
    }

    /// Accesses recognized as sequential (no mechanical delay).
    pub fn sequential_hits(&self) -> u64 {
        self.sequential_hits
    }

    fn rotational_half_turn(&self) -> SimTime {
        // Half a revolution on average.
        let secs = 60.0 / self.cfg.rpm as f64 / 2.0;
        SimTime::from_ps((secs * 1e12) as u64)
    }

    fn mechanical_delay(&mut self, addr: u64) -> SimTime {
        if addr == self.head_pos {
            self.sequential_hits += 1;
            return SimTime::ZERO;
        }
        self.seeks += 1;
        let distance = addr.abs_diff(self.head_pos) as f64 / self.capacity as f64;
        let span = self.cfg.seek_max - self.cfg.seek_min;
        let seek = self.cfg.seek_min + SimTime::from_ps((span.as_ps() as f64 * distance) as u64);
        seek + self.rotational_half_turn()
    }

    fn transfer_time(&self, len: usize) -> SimTime {
        let secs = len as f64 / self.cfg.transfer_rate;
        SimTime::from_ps((secs * 1e12) as u64)
    }

    fn access(&mut self, now: SimTime, addr: u64, len: usize) -> SimTime {
        let start = now.max(self.busy_until);
        let mech = self.mechanical_delay(addr);
        let done = start + mech + self.transfer_time(len);
        self.head_pos = addr + len as u64;
        self.busy_until = done;
        done
    }
}

impl MemoryDevice for HardDiskDrive {
    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn kind(&self) -> MediaKind {
        MediaKind::HardDisk
    }

    fn read(&mut self, now: SimTime, addr: u64, buf: &mut [u8]) -> ReadResult {
        check_range(self.capacity, addr, buf.len());
        self.store.read(addr, buf);
        ReadResult {
            done: self.access(now, addr, buf.len()),
            outcome: ReadOutcome::Clean,
        }
    }

    fn write(&mut self, now: SimTime, addr: u64, data: &[u8]) -> SimTime {
        check_range(self.capacity, addr, data.len());
        self.store.write(addr, data);
        self.access(now, addr, data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdd() -> HardDiskDrive {
        HardDiskDrive::new(1_100_000_000_000, DiskConfig::sas_7200rpm())
    }

    #[test]
    fn functional_roundtrip() {
        let mut d = hdd();
        d.write(SimTime::ZERO, 1 << 30, b"gpfs log record");
        let mut buf = [0u8; 15];
        d.read(SimTime::from_secs(1), 1 << 30, &mut buf);
        assert_eq!(&buf, b"gpfs log record");
    }

    #[test]
    fn random_write_costs_milliseconds() {
        let mut d = hdd();
        let t = d.write(SimTime::ZERO, 550_000_000_000, &[0u8; 4096]);
        // Half-stroke seek (~11 ms) + rotation (~4.2 ms) + transfer.
        let ms = t.as_us_f64() / 1000.0;
        assert!((10.0..20.0).contains(&ms), "random write took {ms} ms");
    }

    #[test]
    fn sequential_writes_skip_mechanics() {
        let mut d = hdd();
        let t1 = d.write(SimTime::ZERO, 0, &[0u8; 4096]);
        let t2 = d.write(t1, 4096, &[0u8; 4096]);
        let seq_cost = t2 - t1;
        // Pure transfer: 4096 / 150 MB/s ≈ 27 µs.
        assert!(
            seq_cost < SimTime::from_us(30),
            "sequential cost {seq_cost}"
        );
        // Both writes were sequential: the head parks at LBA 0.
        assert_eq!(d.sequential_hits(), 2);
    }

    #[test]
    fn random_iops_is_about_75() {
        // This is the Table 4 anchor: ~75 IOPS for small random writes.
        let mut d = hdd();
        let mut now = SimTime::ZERO;
        let n = 200u64;
        let mut addr = 7_777u64;
        for _ in 0..n {
            // Deterministic pseudo-random addresses across the platter.
            addr = (addr
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                % (d.capacity_bytes() - 4096);
            now = d.write(now, addr & !511, &[0u8; 4096]);
        }
        let iops = n as f64 / now.as_secs_f64();
        assert!((55.0..95.0).contains(&iops), "measured {iops} IOPS");
    }

    #[test]
    fn longer_seeks_cost_more() {
        let mut d1 = hdd();
        let mut d2 = hdd();
        let near = d1.write(SimTime::ZERO, 10 << 20, &[0u8; 512]);
        let far = d2.write(SimTime::ZERO, 1_000_000_000_000, &[0u8; 512]);
        assert!(far > near);
    }
}
