//! Deterministic media-fault injection.
//!
//! [`MediaFaultInjector`] models the physical failure modes the RAS
//! layer ([`crate::ecc`]) exists to absorb:
//!
//! * **transient flips** — radiation-style latent single-bit upsets,
//!   planted *into the array* on a precomputed, seed-derived schedule.
//!   Demand reads correct them in the returned buffer only; the patrol
//!   scrubber heals the array. Unscrubbed, they accumulate until two
//!   land in one 64-bit word and the line goes uncorrectable.
//! * **stuck-at cells** — bits wired to a fixed level, overlaid on
//!   every read (they cannot be healed). Repeated corrections drive
//!   page retirement.
//! * **wear-out** — writes past the technology's endurance band
//!   ([`EnduranceClass::expected_failures`], Figure 8) convert
//!   heavily-written lines into stuck cells; the MRAM model feeds its
//!   per-line write counters through this.
//!
//! Everything is derived from [`FaultConfig::seed`] via
//! [`SimRng`], so identical configurations replay byte-identically —
//! the property the media campaign's fingerprint tests pin down.

use std::collections::BTreeSet;

use contutto_sim::persist_fields;
use contutto_sim::snapshot::{Persist, RestoreError, SnapReader};
use contutto_sim::{SimRng, SimTime};

use crate::endurance::EnduranceClass;
use crate::store::SparseMemory;

const PAGE_BYTES: u64 = 4096;

/// Configuration of a [`MediaFaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for every random choice the injector makes.
    pub seed: u64,
    /// Transient single-bit flips to schedule.
    pub transient_flips: u32,
    /// The flips are spread uniformly over `[0, window)`.
    pub window: SimTime,
    /// First byte of the faulted ("hot") address range.
    pub hot_start: u64,
    /// Length of the hot range in bytes.
    pub hot_len: u64,
    /// Stuck-at cells planted up front inside the hot range.
    pub stuck_cells: u32,
    /// Multiplier applied to per-line write counts before the
    /// endurance check; 0.0 disables wear-out injection. Lets tests
    /// reach 10¹²-cycle MRAM wear without simulating 10¹² writes.
    pub wear_acceleration: f64,
}

impl FaultConfig {
    /// A quiet injector: nothing ever fails.
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_flips: 0,
            window: SimTime::ZERO,
            hot_start: 0,
            hot_len: 4096,
            stuck_cells: 0,
            wear_acceleration: 0.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StuckCell {
    addr: u64,
    bit: u8,
    level: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TransientFlip {
    due: SimTime,
    addr: u64,
    bit: u8,
}

/// Cumulative injector statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectorStats {
    /// Transient flips planted into the array so far.
    pub planted: u64,
    /// Scheduled flips suppressed because their page was retired.
    pub suppressed: u64,
    /// Stuck cells currently active (configured + wear-induced).
    pub stuck_cells: u64,
    /// Stuck cells created by wear-out.
    pub wear_failures: u64,
}

/// Deterministic, seedable source of media faults for one device.
#[derive(Debug, Clone)]
pub struct MediaFaultInjector {
    schedule: Vec<TransientFlip>,
    cursor: usize,
    stuck: Vec<StuckCell>,
    worn_lines: BTreeSet<u64>,
    wear_acceleration: f64,
    stats: InjectorStats,
}

impl MediaFaultInjector {
    /// Builds the full fault plan from `cfg` (all randomness is
    /// consumed here; injection itself is pure replay). Flips are
    /// scheduled over `[0, window)`.
    pub fn new(cfg: FaultConfig) -> Self {
        Self::new_at(cfg, SimTime::ZERO)
    }

    /// Like [`Self::new`] but scheduled relative to `start`: flips
    /// land over `[start, start + window)`. This is what lets a chaos
    /// plan arm a fault burst on a device mid-run without the burst
    /// retroactively landing in the past. An empty hot range is
    /// clamped to one byte, and a hot range or window running past the
    /// end of the address space or the clock is clamped to end there,
    /// rather than rejected — replayed plan files are external input
    /// and must not abort the process.
    pub fn new_at(cfg: FaultConfig, start: SimTime) -> Self {
        let hot_len = cfg.hot_len.min(u64::MAX - cfg.hot_start).max(1);
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let window_ps = cfg.window.as_ps().min(u64::MAX - start.as_ps()).max(1);
        let mut schedule: Vec<TransientFlip> = (0..cfg.transient_flips)
            .map(|_| TransientFlip {
                due: start + SimTime::from_ps(rng.gen_below(window_ps)),
                addr: cfg.hot_start + rng.gen_below(hot_len),
                bit: rng.gen_below(8) as u8,
            })
            .collect();
        schedule.sort_by_key(|f| (f.due, f.addr, f.bit));
        let stuck: Vec<StuckCell> = (0..cfg.stuck_cells)
            .map(|_| StuckCell {
                addr: cfg.hot_start + rng.gen_below(hot_len),
                bit: rng.gen_below(8) as u8,
                level: rng.gen_bool(0.5),
            })
            .collect();
        let stats = InjectorStats {
            stuck_cells: stuck.len() as u64,
            ..InjectorStats::default()
        };
        MediaFaultInjector {
            schedule,
            cursor: 0,
            stuck,
            worn_lines: BTreeSet::new(),
            wear_acceleration: cfg.wear_acceleration,
            stats,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> InjectorStats {
        self.stats
    }

    /// Plants every scheduled transient flip due by `now` into the
    /// array. Flips landing in retired pages are suppressed — the
    /// page is out of service.
    pub fn plant_due(&mut self, now: SimTime, store: &mut SparseMemory, retired: &BTreeSet<u64>) {
        while let Some(flip) = self.schedule.get(self.cursor) {
            if flip.due > now {
                break;
            }
            let page = flip.addr / PAGE_BYTES * PAGE_BYTES;
            if retired.contains(&page) {
                self.stats.suppressed += 1;
            } else {
                let mut b = [0u8; 1];
                store.read(flip.addr, &mut b);
                store.write(flip.addr, &[b[0] ^ (1 << flip.bit)]);
                self.stats.planted += 1;
            }
            self.cursor += 1;
        }
    }

    /// Overlays stuck-at cells onto a 128-byte line read at `base`.
    /// Cells in retired pages stay silent (the page is mapped out).
    pub fn overlay(&self, base: u64, line: &mut [u8; 128], retired: &BTreeSet<u64>) {
        if retired.contains(&(base / PAGE_BYTES * PAGE_BYTES)) {
            return;
        }
        let end = base + line.len() as u64;
        for cell in &self.stuck {
            if cell.addr >= base && cell.addr < end {
                let byte = &mut line[(cell.addr - base) as usize];
                if cell.level {
                    *byte |= 1 << cell.bit;
                } else {
                    *byte &= !(1 << cell.bit);
                }
            }
        }
    }

    /// Feeds a per-line write count through the endurance model: once
    /// `writes * wear_acceleration` enters the technology's failure
    /// band, the line grows a stuck cell at a seed-deterministic
    /// position. Returns `true` when a new wear failure appeared.
    pub fn note_write(&mut self, line_addr: u64, writes: u64, endurance: EnduranceClass) -> bool {
        if self.wear_acceleration <= 0.0 || self.worn_lines.contains(&line_addr) {
            return false;
        }
        let effective = writes as f64 * self.wear_acceleration;
        if endurance.expected_failures(effective, 1) <= 0.0 {
            return false;
        }
        self.worn_lines.insert(line_addr);
        // Deterministic position: derive from the line address alone so
        // the failure does not depend on unrelated RNG consumption.
        let mix = line_addr
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        self.stuck.push(StuckCell {
            addr: line_addr + (mix % 64),
            bit: ((mix >> 8) % 8) as u8,
            level: mix & 0x1_0000 != 0,
        });
        self.stats.stuck_cells += 1;
        self.stats.wear_failures += 1;
        true
    }
}

impl Persist for StuckCell {
    fn persist(&self, out: &mut Vec<u8>) {
        self.addr.persist(out);
        self.bit.persist(out);
        self.level.persist(out);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let addr = r.u64()?;
        let bit = r.u8()?;
        let level = r.bool()?;
        if bit >= 8 {
            return Err(RestoreError::Malformed {
                context: "stuck-cell bit out of range",
            });
        }
        Ok(StuckCell { addr, bit, level })
    }
}

impl Persist for TransientFlip {
    fn persist(&self, out: &mut Vec<u8>) {
        self.due.persist(out);
        self.addr.persist(out);
        self.bit.persist(out);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let due = SimTime::restore(r)?;
        let addr = r.u64()?;
        let bit = r.u8()?;
        if bit >= 8 {
            return Err(RestoreError::Malformed {
                context: "transient-flip bit out of range",
            });
        }
        Ok(TransientFlip { due, addr, bit })
    }
}

persist_fields!(InjectorStats {
    planted,
    suppressed,
    stuck_cells,
    wear_failures
});

impl Persist for MediaFaultInjector {
    fn persist(&self, out: &mut Vec<u8>) {
        self.schedule.persist(out);
        self.cursor.persist(out);
        self.stuck.persist(out);
        self.worn_lines.persist(out);
        self.wear_acceleration.persist(out);
        self.stats.persist(out);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let schedule = Vec::<TransientFlip>::restore(r)?;
        let cursor = usize::restore(r)?;
        if cursor > schedule.len() {
            return Err(RestoreError::Malformed {
                context: "fault cursor past end of schedule",
            });
        }
        Ok(MediaFaultInjector {
            schedule,
            cursor,
            stuck: Vec::restore(r)?,
            worn_lines: BTreeSet::restore(r)?,
            wear_acceleration: f64::restore(r)?,
            stats: InjectorStats::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FaultConfig {
        FaultConfig {
            seed: 42,
            transient_flips: 20,
            window: SimTime::from_us(100),
            hot_start: 0,
            hot_len: 1024,
            stuck_cells: 2,
            wear_acceleration: 0.0,
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = MediaFaultInjector::new(cfg());
        let b = MediaFaultInjector::new(cfg());
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.stuck, b.stuck);
    }

    #[test]
    fn different_seeds_differ() {
        let a = MediaFaultInjector::new(cfg());
        let b = MediaFaultInjector::new(FaultConfig { seed: 43, ..cfg() });
        assert_ne!(a.schedule, b.schedule);
    }

    #[test]
    fn plant_due_is_monotonic_and_complete() {
        let mut inj = MediaFaultInjector::new(cfg());
        let mut store = SparseMemory::new();
        let retired = BTreeSet::new();
        inj.plant_due(SimTime::from_us(50), &mut store, &retired);
        let mid = inj.stats().planted;
        assert!(mid > 0 && mid < 20, "roughly half due at half window");
        inj.plant_due(SimTime::from_us(100), &mut store, &retired);
        assert_eq!(inj.stats().planted, 20);
        // Replant is a no-op.
        inj.plant_due(SimTime::from_ms(1), &mut store, &retired);
        assert_eq!(inj.stats().planted, 20);
    }

    #[test]
    fn new_at_offsets_the_schedule_without_reordering_it() {
        let base = MediaFaultInjector::new(cfg());
        let start = SimTime::from_us(7);
        let shifted = MediaFaultInjector::new_at(cfg(), start);
        assert_eq!(base.schedule.len(), shifted.schedule.len());
        for (a, b) in base.schedule.iter().zip(&shifted.schedule) {
            assert_eq!(b.due, a.due + start);
            assert_eq!((b.addr, b.bit), (a.addr, a.bit));
        }
        // Nothing is due before the arm time.
        let mut inj = MediaFaultInjector::new_at(cfg(), start);
        let mut store = SparseMemory::new();
        let retired = BTreeSet::new();
        inj.plant_due(start - SimTime::from_ps(1), &mut store, &retired);
        assert_eq!(inj.stats().planted, 0);
    }

    #[test]
    fn empty_hot_range_is_clamped_not_fatal() {
        let inj = MediaFaultInjector::new(FaultConfig {
            hot_len: 0,
            hot_start: 64,
            ..cfg()
        });
        assert!(inj.schedule.iter().all(|f| f.addr == 64));
    }

    #[test]
    fn ranges_past_the_address_space_or_the_clock_are_clamped_not_fatal() {
        let start = SimTime::from_ps(u64::MAX - 8);
        let inj = MediaFaultInjector::new_at(
            FaultConfig {
                hot_start: u64::MAX - 3,
                window: SimTime::MAX,
                ..cfg()
            },
            start,
        );
        assert!(inj.schedule.iter().all(|f| f.addr >= u64::MAX - 3));
        assert!(inj.schedule.iter().all(|f| f.due >= start));
        assert!(inj.stuck.iter().all(|c| c.addr >= u64::MAX - 3));
    }

    #[test]
    fn retired_pages_suppress_flips_and_overlays() {
        let mut inj = MediaFaultInjector::new(cfg());
        let mut store = SparseMemory::new();
        let mut retired = BTreeSet::new();
        retired.insert(0u64); // the whole hot range is page 0
        inj.plant_due(SimTime::from_ms(1), &mut store, &retired);
        assert_eq!(inj.stats().planted, 0);
        assert_eq!(inj.stats().suppressed, 20);
        assert_eq!(store.resident_pages(), 0);

        let mut line = [0u8; 128];
        inj.overlay(0, &mut line, &retired);
        assert_eq!(line, [0u8; 128], "no stuck overlay on a retired page");
    }

    #[test]
    fn stuck_cells_force_their_level() {
        let mut inj = MediaFaultInjector::new(FaultConfig {
            stuck_cells: 8,
            transient_flips: 0,
            ..cfg()
        });
        inj.stuck = vec![StuckCell {
            addr: 5,
            bit: 3,
            level: true,
        }];
        let retired = BTreeSet::new();
        let mut line = [0u8; 128];
        inj.overlay(0, &mut line, &retired);
        assert_eq!(line[5], 0x08);
        let mut line = [0xFFu8; 128];
        inj.stuck[0].level = false;
        inj.overlay(0, &mut line, &retired);
        assert_eq!(line[5], 0xF7);
    }

    #[test]
    fn wear_out_crosses_the_endurance_band_once() {
        let mut inj = MediaFaultInjector::new(FaultConfig {
            wear_acceleration: 1e10,
            transient_flips: 0,
            stuck_cells: 0,
            ..cfg()
        });
        let band = EnduranceClass::new(1e12, 1e15);
        assert!(!inj.note_write(0, 10, band), "1e11 effective: below band");
        assert!(inj.note_write(0, 200, band), "2e12 effective: worn");
        assert!(!inj.note_write(0, 400, band), "already worn: no new cell");
        assert_eq!(inj.stats().wear_failures, 1);
        assert_eq!(inj.stats().stuck_cells, 1);
    }

    #[test]
    fn snapshot_roundtrip_mid_schedule() {
        let mut inj = MediaFaultInjector::new(cfg());
        let mut store = SparseMemory::new();
        let retired = BTreeSet::new();
        inj.plant_due(SimTime::from_us(50), &mut store, &retired);
        let planted_so_far = inj.stats().planted;
        assert!(planted_so_far > 0 && inj.cursor < inj.schedule.len());

        let mut img = Vec::new();
        inj.persist(&mut img);
        let mut restored = MediaFaultInjector::restore(&mut SnapReader::new(&img)).unwrap();
        assert_eq!(restored.cursor, inj.cursor);
        assert_eq!(restored.stats(), inj.stats());

        // The remaining schedule plants identically from both copies.
        let mut store2 = store.clone();
        inj.plant_due(SimTime::from_ms(1), &mut store, &retired);
        restored.plant_due(SimTime::from_ms(1), &mut store2, &retired);
        assert_eq!(restored.stats(), inj.stats());
        assert_eq!(store2.resident_page_addrs(), store.resident_page_addrs());
    }

    #[test]
    fn snapshot_restore_rejects_cursor_past_schedule() {
        let inj = MediaFaultInjector::new(FaultConfig {
            transient_flips: 2,
            ..cfg()
        });
        let mut img = Vec::new();
        inj.persist(&mut img);
        // The cursor field sits right after the 2-entry schedule:
        // 8 (len) + 2 * 17 (due+addr+bit) = offset 42. Overwrite it
        // with a value past the end.
        img[42..50].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = MediaFaultInjector::restore(&mut SnapReader::new(&img)).unwrap_err();
        assert!(matches!(err, RestoreError::Malformed { .. }), "got {err:?}");
    }
}
