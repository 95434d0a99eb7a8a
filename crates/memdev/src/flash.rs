//! Raw NAND flash model.
//!
//! Pages must be programmed into erased blocks; erase is slow and
//! wears the block out (Figure 8: NAND endurance is 10³–10⁵ cycles,
//! the reason STT-MRAM on the memory bus is interesting at all).
//!
//! This is the media model under the SSD / PCIe-flash baselines in the
//! storage crate and the backup store inside NVDIMM-N.

use contutto_sim::persist_fields;
use contutto_sim::snapshot::{self, SnapReader};
use contutto_sim::SimTime;

use crate::ecc::{ReadOutcome, ReadResult};
use crate::store::SparseMemory;
use crate::traits::{check_range, MediaKind, MemoryDevice};

/// Flash geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashConfig {
    /// Page size in bytes (program/read granularity).
    pub page_bytes: u64,
    /// Pages per erase block.
    pub pages_per_block: u64,
    /// Page read latency.
    pub read_page: SimTime,
    /// Page program latency.
    pub program_page: SimTime,
    /// Block erase latency.
    pub erase_block: SimTime,
    /// Program/erase cycles before a block wears out.
    pub endurance_cycles: u64,
}

impl FlashConfig {
    /// A typical MLC NAND die (page 4 KiB, block 256 KiB, 10⁴ cycles).
    pub fn mlc() -> Self {
        FlashConfig {
            page_bytes: 4096,
            pages_per_block: 64,
            read_page: SimTime::from_us(60),
            program_page: SimTime::from_us(300),
            erase_block: SimTime::from_ms(3),
            endurance_cycles: 10_000,
        }
    }

    /// Faster, higher-endurance SLC NAND (10⁵ cycles).
    pub fn slc() -> Self {
        FlashConfig {
            page_bytes: 4096,
            pages_per_block: 64,
            read_page: SimTime::from_us(25),
            program_page: SimTime::from_us(200),
            erase_block: SimTime::from_ms(2),
            endurance_cycles: 100_000,
        }
    }
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig::mlc()
    }
}

/// Per-block bookkeeping.
#[derive(Debug, Clone, Default)]
struct BlockState {
    /// Bitmask-free page-programmed flags (pages_per_block ≤ 64).
    programmed: u64,
    erase_count: u64,
    /// Worn out and retired: writes are dropped (and counted), reads
    /// come back uncorrectable.
    bad: bool,
}

persist_fields!(BlockState {
    programmed,
    erase_count,
    bad
});

impl BlockState {
    /// Still as a boot builds it: nothing programmed, never erased.
    fn is_fresh(&self) -> bool {
        self.programmed == 0 && self.erase_count == 0 && !self.bad
    }
}

/// Image bytes per listed block: index, program bitmap and erase count
/// as `u64`s, plus the bad flag.
const WRITTEN_BLOCK_BYTES: usize = 3 * 8 + 1;

/// Errors from flash operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// Attempt to program an already-programmed page without erase.
    PageNotErased {
        /// The offending page index.
        page: u64,
    },
    /// Block has exceeded its endurance rating.
    BlockWornOut {
        /// The worn block index.
        block: u64,
    },
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::PageNotErased { page } => write!(f, "page {page} not erased"),
            FlashError::BlockWornOut { block } => write!(f, "block {block} worn out"),
        }
    }
}

impl std::error::Error for FlashError {}

/// A raw NAND flash device (no FTL — the storage crate layers one on).
#[derive(Debug)]
pub struct NandFlash {
    capacity: u64,
    cfg: FlashConfig,
    store: SparseMemory,
    blocks: Vec<BlockState>,
    busy_until: SimTime,
    dropped_writes: u64,
}

impl NandFlash {
    /// Creates a flash device of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a multiple of the block size or is
    /// zero.
    pub fn new(capacity: u64, cfg: FlashConfig) -> Self {
        let block_bytes = cfg.page_bytes * cfg.pages_per_block;
        assert!(
            capacity > 0 && capacity.is_multiple_of(block_bytes),
            "capacity must be whole blocks"
        );
        assert!(
            cfg.pages_per_block <= 64,
            "block bitmap limited to 64 pages"
        );
        let blocks = (capacity / block_bytes) as usize;
        NandFlash {
            capacity,
            cfg,
            store: SparseMemory::new(),
            blocks: vec![BlockState::default(); blocks],
            busy_until: SimTime::ZERO,
            dropped_writes: 0,
        }
    }

    /// The device geometry/timing.
    pub fn config(&self) -> FlashConfig {
        self.cfg
    }

    /// Number of erase blocks.
    pub fn block_count(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Erase count of a block.
    pub fn erase_count(&self, block: u64) -> u64 {
        self.blocks[block as usize].erase_count
    }

    /// Blocks retired after wearing out on the write path.
    pub fn bad_blocks(&self) -> u64 {
        self.blocks.iter().filter(|b| b.bad).count() as u64
    }

    /// Whether a block has been retired as bad.
    pub fn is_bad_block(&self, block: u64) -> bool {
        self.blocks[block as usize].bad
    }

    /// Page writes dropped because their block was bad.
    pub fn dropped_writes(&self) -> u64 {
        self.dropped_writes
    }

    /// Fault-injection hook: XORs `mask` into the stored byte at
    /// `addr`, modelling retention loss in the media (no timing).
    pub fn corrupt_byte(&mut self, addr: u64, mask: u8) {
        check_range(self.capacity, addr, 1);
        let mut b = [0u8; 1];
        self.store.read(addr, &mut b);
        b[0] ^= mask;
        self.store.write(addr, &b);
    }

    /// The blocks out of their boot state, as `(block index, state)` in
    /// strictly increasing index order after their count.
    fn persist_written_blocks(&self, out: &mut Vec<u8>) {
        let written = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_fresh());
        snapshot::persist_sparse(written.map(|(idx, b)| (idx, b.clone())), out);
    }

    fn restore_written_blocks(
        &self,
        r: &mut SnapReader<'_>,
    ) -> Result<Vec<(usize, BlockState)>, snapshot::RestoreError> {
        snapshot::restore_sparse(r, self.blocks.len(), WRITTEN_BLOCK_BYTES)
    }

    /// Every block starts over in its boot state and the listed blocks
    /// are laid over it.
    fn lay_written_blocks(
        &mut self,
        written: Vec<(usize, BlockState)>,
    ) -> Result<(), snapshot::RestoreError> {
        self.blocks.fill(BlockState::default());
        for (idx, block) in written {
            self.blocks[idx] = block;
        }
        Ok(())
    }

    contutto_sim::state_fields! {
        /// Serializes all dynamic state (contents, and the wear and
        /// program bitmap of every block that left its boot state).
        /// Geometry is a construction parameter: the image only
        /// cross-checks it.
        ///
        /// A block still as a boot builds it (nothing programmed, never
        /// erased, not bad) is left out, so the table grows with the
        /// blocks written, not with the device's capacity. The rest are
        /// written as `(block index, programmed, erase count, bad)` in
        /// strictly increasing index order after their count, the one
        /// order [`snapshot::restore_sparse`] accepts. The list holds no
        /// nested owner, so a restore error leaves the device untouched.
        pub {
            same capacity => "flash capacity",
            store,
            same_as(Self::block_count) => "flash block count",
            apply (Self::persist_written_blocks, Self::restore_written_blocks => Self::lay_written_blocks),
            busy_until,
            dropped_writes,
        }
    }

    fn page_of(&self, addr: u64) -> u64 {
        addr / self.cfg.page_bytes
    }

    fn block_of_page(&self, page: u64) -> u64 {
        page / self.cfg.pages_per_block
    }

    /// Reads one whole page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or `buf` is not page-sized.
    pub fn read_page(&mut self, now: SimTime, page: u64, buf: &mut [u8]) -> SimTime {
        assert_eq!(
            buf.len() as u64,
            self.cfg.page_bytes,
            "page-sized buffer required"
        );
        let addr = page * self.cfg.page_bytes;
        check_range(self.capacity, addr, buf.len());
        self.store.read(addr, buf);
        let start = now.max(self.busy_until);
        let done = start + self.cfg.read_page;
        self.busy_until = done;
        done
    }

    /// Programs one whole page into an erased slot.
    ///
    /// # Errors
    ///
    /// * [`FlashError::PageNotErased`] if the page already holds data.
    /// * [`FlashError::BlockWornOut`] if the block exceeded endurance.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or `data` is not page-sized.
    pub fn program_page(
        &mut self,
        now: SimTime,
        page: u64,
        data: &[u8],
    ) -> Result<SimTime, FlashError> {
        assert_eq!(
            data.len() as u64,
            self.cfg.page_bytes,
            "page-sized data required"
        );
        let addr = page * self.cfg.page_bytes;
        check_range(self.capacity, addr, data.len());
        let block_idx = self.block_of_page(page);
        let in_block = page % self.cfg.pages_per_block;
        let block = &mut self.blocks[block_idx as usize];
        if block.erase_count >= self.cfg.endurance_cycles {
            return Err(FlashError::BlockWornOut { block: block_idx });
        }
        if block.programmed & (1 << in_block) != 0 {
            return Err(FlashError::PageNotErased { page });
        }
        block.programmed |= 1 << in_block;
        self.store.write(addr, data);
        let start = now.max(self.busy_until);
        let done = start + self.cfg.program_page;
        self.busy_until = done;
        Ok(done)
    }

    /// Erases a block, incrementing its wear counter.
    ///
    /// # Errors
    ///
    /// [`FlashError::BlockWornOut`] once past the endurance rating.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn erase_block(&mut self, now: SimTime, block: u64) -> Result<SimTime, FlashError> {
        let state = &mut self.blocks[block as usize];
        if state.erase_count >= self.cfg.endurance_cycles {
            return Err(FlashError::BlockWornOut { block });
        }
        state.erase_count += 1;
        state.programmed = 0;
        let block_bytes = self.cfg.page_bytes * self.cfg.pages_per_block;
        self.store
            .write(block * block_bytes, &vec![0xFFu8; block_bytes as usize]);
        let start = now.max(self.busy_until);
        let done = start + self.cfg.erase_block;
        self.busy_until = done;
        Ok(done)
    }
}

impl MemoryDevice for NandFlash {
    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn kind(&self) -> MediaKind {
        MediaKind::NandFlash
    }

    /// Byte reads round up to whole pages internally. Reads that touch
    /// a bad (wear-retired) block come back [`ReadOutcome::Uncorrectable`].
    fn read(&mut self, now: SimTime, addr: u64, buf: &mut [u8]) -> ReadResult {
        check_range(self.capacity, addr, buf.len());
        let first = self.page_of(addr);
        let last = self.page_of(addr + buf.len() as u64 - 1);
        self.store.read(addr, buf);
        let mut outcome = ReadOutcome::Clean;
        for page in first..=last {
            if self.blocks[self.block_of_page(page) as usize].bad {
                outcome = ReadOutcome::Uncorrectable;
            }
        }
        let start = now.max(self.busy_until);
        let done = start + self.cfg.read_page * (last - first + 1);
        self.busy_until = done;
        ReadResult { done, outcome }
    }

    /// A `MemoryDevice::write` on raw flash models the FTL-free
    /// "overwrite in place" path used by the NVDIMM save engine: it
    /// erases affected blocks as needed and programs the pages. A
    /// write-path erase that hits the endurance limit retires the
    /// block as bad — its page writes are dropped (and counted in
    /// [`NandFlash::dropped_writes`]) rather than silently served.
    fn write(&mut self, now: SimTime, addr: u64, data: &[u8]) -> SimTime {
        check_range(self.capacity, addr, data.len());
        let first_page = self.page_of(addr);
        let last_page = self.page_of(addr + data.len() as u64 - 1);
        let mut t = now;
        for page in first_page..=last_page {
            let block_idx = self.block_of_page(page);
            let in_block = page % self.cfg.pages_per_block;
            if self.blocks[block_idx as usize].bad {
                continue;
            }
            if self.blocks[block_idx as usize].programmed & (1 << in_block) != 0 {
                match self.erase_block(t, block_idx) {
                    Ok(done) => t = done,
                    // Any erase failure — wear-out today, whatever a
                    // future erase path reports tomorrow — retires the
                    // block; its page writes are then dropped and
                    // counted below instead of aborting the process.
                    Err(_) => {
                        self.blocks[block_idx as usize].bad = true;
                    }
                }
            }
        }
        let mut programmed = 0u64;
        for page in first_page..=last_page {
            let block_idx = self.block_of_page(page);
            let in_block = page % self.cfg.pages_per_block;
            if self.blocks[block_idx as usize].bad {
                self.dropped_writes += 1;
                continue;
            }
            // Clip the caller's span to this page.
            let p_start = page * self.cfg.page_bytes;
            let p_end = p_start + self.cfg.page_bytes;
            let lo = addr.max(p_start);
            let hi = (addr + data.len() as u64).min(p_end);
            let slice = &data[(lo - addr) as usize..(hi - addr) as usize];
            self.store.write(lo, slice);
            self.blocks[block_idx as usize].programmed |= 1 << in_block;
            programmed += 1;
        }
        let start = t.max(self.busy_until);
        let done = start + self.cfg.program_page * programmed;
        self.busy_until = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flash() -> NandFlash {
        NandFlash::new(16 << 20, FlashConfig::mlc())
    }

    #[test]
    fn program_then_read_roundtrip() {
        let mut f = flash();
        let data = vec![0xA7u8; 4096];
        f.program_page(SimTime::ZERO, 3, &data).unwrap();
        let mut buf = vec![0u8; 4096];
        f.read_page(SimTime::from_ms(1), 3, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn double_program_requires_erase() {
        let mut f = flash();
        let data = vec![1u8; 4096];
        f.program_page(SimTime::ZERO, 0, &data).unwrap();
        assert_eq!(
            f.program_page(SimTime::ZERO, 0, &data),
            Err(FlashError::PageNotErased { page: 0 })
        );
        f.erase_block(SimTime::ZERO, 0).unwrap();
        f.program_page(SimTime::ZERO, 0, &data).unwrap();
        assert_eq!(f.erase_count(0), 1);
    }

    #[test]
    fn erase_wears_out_block() {
        let cfg = FlashConfig {
            endurance_cycles: 3,
            ..FlashConfig::mlc()
        };
        let mut f = NandFlash::new(1 << 20, cfg);
        for _ in 0..3 {
            f.erase_block(SimTime::ZERO, 0).unwrap();
        }
        assert_eq!(
            f.erase_block(SimTime::ZERO, 0),
            Err(FlashError::BlockWornOut { block: 0 })
        );
        // Other blocks unaffected.
        f.erase_block(SimTime::ZERO, 1).unwrap();
    }

    #[test]
    fn timing_ordering_read_program_erase() {
        let cfg = FlashConfig::mlc();
        assert!(cfg.read_page < cfg.program_page);
        assert!(cfg.program_page < cfg.erase_block);
        let mut f = flash();
        let t_read = f.read_page(SimTime::ZERO, 0, &mut vec![0u8; 4096]);
        assert_eq!(t_read, SimTime::from_us(60));
    }

    #[test]
    fn device_write_auto_erases() {
        let mut f = flash();
        f.write(SimTime::ZERO, 0, &vec![1u8; 4096]);
        // Overwrite the same page: the device must erase the block.
        let done = f.write(SimTime::from_ms(10), 0, &vec![2u8; 4096]);
        assert_eq!(f.erase_count(0), 1);
        assert!(done >= SimTime::from_ms(13)); // erase (3 ms) + program
        let mut buf = vec![0u8; 4096];
        f.read(done, 0, &mut buf);
        assert_eq!(buf, vec![2u8; 4096]);
    }

    #[test]
    fn worn_block_goes_bad_instead_of_serving_writes() {
        let cfg = FlashConfig {
            endurance_cycles: 1,
            ..FlashConfig::mlc()
        };
        let mut f = NandFlash::new(1 << 20, cfg);
        let block_bytes = (cfg.page_bytes * cfg.pages_per_block) as usize;
        f.write(SimTime::ZERO, 0, &vec![1u8; 4096]); // program
        f.write(SimTime::ZERO, 0, &vec![2u8; 4096]); // erase #1 (last allowed)
        assert_eq!(f.bad_blocks(), 0);
        // The next overwrite needs erase #2: block goes bad, write drops.
        f.write(SimTime::ZERO, 0, &vec![3u8; 4096]);
        assert_eq!(f.bad_blocks(), 1);
        assert!(f.is_bad_block(0));
        assert_eq!(f.dropped_writes(), 1);
        // The old data is stale AND the read says so, loudly.
        let mut buf = vec![0u8; 4096];
        let r = f.read(SimTime::ZERO, 0, &mut buf);
        assert!(r.outcome.is_uncorrectable());
        assert_eq!(buf, vec![2u8; 4096], "stale image, flagged as such");
        // Neighboring blocks still work and read clean.
        f.write(SimTime::ZERO, block_bytes as u64, &vec![7u8; 4096]);
        let r = f.read(SimTime::ZERO, block_bytes as u64, &mut buf);
        assert!(r.outcome.is_clean());
        assert_eq!(buf, vec![7u8; 4096]);
    }

    #[test]
    fn snapshot_restore_preserves_wear_state() {
        let mut f = flash();
        f.write(SimTime::ZERO, 0, &vec![1u8; 4096]);
        f.write(SimTime::ZERO, 0, &vec![2u8; 4096]); // forces an erase
        let mut img = Vec::new();
        f.snapshot_state(&mut img);
        let mut fresh = flash();
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();
        assert_eq!(fresh.erase_count(0), 1);
        assert_eq!(fresh.dropped_writes(), 0);
        let mut buf = vec![0u8; 4096];
        fresh.read(SimTime::from_ms(100), 0, &mut buf);
        assert_eq!(buf, vec![2u8; 4096]);
        // Programming an already-programmed page still demands erase:
        // the bitmap state came back with the image.
        assert_eq!(
            fresh.program_page(SimTime::ZERO, 0, &vec![3u8; 4096]),
            Err(FlashError::PageNotErased { page: 0 })
        );
        // A different geometry refuses the image.
        let mut small = NandFlash::new(1 << 20, FlashConfig::mlc());
        let err = small.restore_state(&mut SnapReader::new(&img)).unwrap_err();
        assert!(
            matches!(err, snapshot::RestoreError::TopologyMismatch { .. }),
            "got {err:?}"
        );
    }

    fn image(f: &NandFlash) -> Vec<u8> {
        let mut img = Vec::new();
        f.snapshot_state(&mut img);
        img
    }

    #[test]
    fn only_blocks_out_of_their_boot_state_reach_the_image() {
        let cold = image(&flash());
        let mut f = flash();
        f.write(SimTime::ZERO, 0, &vec![1u8; 4096]); // block 0
        f.write(SimTime::ZERO, 5 << 18, &vec![1u8; 4096]); // block 5
        let img = image(&f);
        // Two listed blocks, and the two written pages in the store.
        let store_growth = 2 * (8 + 4096);
        assert_eq!(
            img.len(),
            cold.len() + store_growth + 2 * WRITTEN_BLOCK_BYTES
        );
        // Restoring the cold image onto the written device puts every
        // block back in its boot state.
        f.restore_state(&mut SnapReader::new(&cold)).unwrap();
        assert_eq!(image(&f), cold);
        assert!(f.blocks.iter().all(BlockState::is_fresh));
    }

    #[test]
    fn a_hostile_block_list_is_a_typed_error_and_changes_nothing() {
        let mut f = flash();
        f.write(SimTime::ZERO, 0, &vec![1u8; 4096]);
        f.write(SimTime::ZERO, 3 << 18, &vec![1u8; 4096]);
        let img = image(&f);
        // Capacity, the two-page store, the block count; then the
        // listed-block count and the list itself.
        let count_at = 8 + 8 + 2 * (8 + 4096) + 8;
        let first = count_at + 8;
        let second = first + WRITTEN_BLOCK_BYTES;
        let patch = |at: usize, v: u64| {
            let mut bad = img.clone();
            bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
            bad
        };
        let cases = [
            (patch(first, 64), "sparse table index out of range"),
            (
                patch(second, 0),
                "sparse table indices not strictly increasing",
            ),
            (
                patch(first, 4),
                "sparse table indices not strictly increasing",
            ),
        ];
        let mut target = flash();
        let before = image(&target);
        for (bad, context) in cases {
            let err = target
                .restore_state(&mut SnapReader::new(&bad))
                .unwrap_err();
            assert_eq!(err, snapshot::RestoreError::Malformed { context });
        }
        for count in [3u64, u64::MAX >> 1] {
            let err = target
                .restore_state(&mut SnapReader::new(&patch(count_at, count)))
                .unwrap_err();
            assert!(
                matches!(err, snapshot::RestoreError::Truncated { .. }),
                "count {count}: got {err:?}"
            );
        }
        assert_eq!(image(&target), before);
        target.restore_state(&mut SnapReader::new(&img)).unwrap();
        assert_eq!(image(&target), img);
    }

    #[test]
    fn corrupt_byte_flips_stored_data() {
        let mut f = flash();
        f.write(SimTime::ZERO, 0, &vec![0xAAu8; 4096]);
        f.corrupt_byte(10, 0x01);
        let mut buf = vec![0u8; 4096];
        f.read(SimTime::ZERO, 0, &mut buf);
        assert_eq!(buf[10], 0xAB);
        assert_eq!(buf[11], 0xAA);
    }

    #[test]
    fn slc_is_faster_and_tougher_than_mlc() {
        let slc = FlashConfig::slc();
        let mlc = FlashConfig::mlc();
        assert!(slc.read_page < mlc.read_page);
        assert!(slc.endurance_cycles > mlc.endurance_cycles);
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn capacity_must_be_block_aligned() {
        let _ = NandFlash::new(100_000, FlashConfig::mlc());
    }
}
