//! The technology-independent cell array under every DIMM.
//!
//! Paper §4.2: "ConTutto is memory technology agnostic; as long as the
//! interface supports DDR3, the backing memory cell technology could be
//! based on resistive filaments, chalcogenide, magnetic tunnel
//! junctions or capacitive cells". DRAM, STT-MRAM and NVDIMM-N differ
//! in timing, wear and what survives a power cut; the functional
//! contents, the SEC-DED check bytes, fault injection, patrol scrub and
//! page retirement are the same for all of them. [`MediaArray`] holds
//! that common part: one ordered page table whose records keep a page's
//! data with its lines' check bytes, and the [`MediaRas`] state, to
//! which it hands one line and its check bytes at a time.

use std::collections::BTreeMap;

use contutto_sim::snapshot::{self, Persist, RestoreError, SnapReader};
use contutto_sim::SimTime;

use crate::ecc::{
    encode_line, Line, LineCheck, MediaRas, RasCounters, ReadOutcome, ScrubReport, ECC_LINE_BYTES,
    ECC_WORDS_PER_LINE,
};
use crate::endurance::EnduranceClass;
use crate::fault::{FaultConfig, MediaFaultInjector};
use crate::store::spans;
use crate::traits::check_range;

/// Bytes per page of the page table.
pub(crate) const PAGE_BYTES: u64 = 4096;
const LINES_PER_PAGE: usize = PAGE_BYTES as usize / ECC_LINE_BYTES;

/// One 4 KiB page of cells and the check bytes of its 32 lines.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct MediaPage {
    /// Whether the cells hold data: unset only on a page an image gave
    /// check bytes but no data, which reads as zeros.
    resident: bool,
    data: [u8; PAGE_BYTES as usize],
    /// Zero for a line not in `checked`, so a line never written reads
    /// as zeros that verify clean.
    check: [LineCheck; LINES_PER_PAGE],
    /// Bit `i` is set once line `i` has check bytes.
    checked: u32,
}

impl MediaPage {
    fn blank() -> Box<Self> {
        Box::new(MediaPage {
            resident: false,
            data: [0; PAGE_BYTES as usize],
            check: [[0; ECC_WORDS_PER_LINE]; LINES_PER_PAGE],
            checked: 0,
        })
    }
}

/// The array's pages by page index, each allocated on first write.
pub(crate) type PageTable = BTreeMap<u64, Box<MediaPage>>;

/// A decoded RAS section: the checked lines, then the RAS state.
pub(crate) type RasSection = (Vec<(usize, LineCheck)>, MediaRas);

/// The resident page holding `addr`, allocated zeroed if new, and the
/// offset of `addr` in it.
fn cells(pages: &mut PageTable, addr: u64) -> (&mut MediaPage, usize) {
    let page = pages.entry(addr / PAGE_BYTES);
    let page = page.or_insert_with(MediaPage::blank);
    page.resident = true;
    (page, (addr % PAGE_BYTES) as usize)
}

/// The line at `base` and its check bytes, zeros for both on a page
/// never allocated.
fn line(pages: &PageTable, base: u64) -> (&Line, &LineCheck) {
    let i = (base % PAGE_BYTES) as usize / ECC_LINE_BYTES;
    match pages.get(&(base / PAGE_BYTES)) {
        Some(page) => (&page.data.as_chunks().0[i], &page.check[i]),
        None => (&[0; ECC_LINE_BYTES], &[0; ECC_WORDS_PER_LINE]),
    }
}

/// The line at `base` about to be written, and its check bytes, which
/// the writer must re-encode.
fn written_line(pages: &mut PageTable, base: u64) -> (&mut Line, &mut LineCheck) {
    let (page, at) = cells(pages, base);
    let i = at / ECC_LINE_BYTES;
    page.checked |= 1 << i;
    (&mut page.data.as_chunks_mut().0[i], &mut page.check[i])
}

/// Flips one bit of the cell at `addr`, leaving its check bytes.
pub(crate) fn flip_cell(pages: &mut PageTable, addr: u64, bit: u8) {
    let (page, at) = cells(pages, addr);
    page.data[at] ^= 1 << bit;
}

/// Capacity, functional contents and RAS state of one DIMM's cells.
///
/// Devices embed one and keep only their own timing, bank or wear
/// state. A device's snapshot writes `capacity`, the data list and the
/// RAS section itself, each at the position its image layout has always
/// had them.
#[derive(Debug)]
pub struct MediaArray {
    pub(crate) capacity: u64,
    pages: PageTable,
    ras: MediaRas,
}

impl MediaArray {
    /// An empty array of `capacity` bytes with no fault injector.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        MediaArray {
            capacity,
            pages: PageTable::default(),
            ras: MediaRas::default(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Plants the injector flips due by `now`, before every access;
    /// nothing is re-encoded, since they are what ECC exists to catch.
    fn plant_due(&mut self, now: SimTime) {
        if let Some(inj) = &mut self.ras.injector {
            inj.plant_due(now, &mut self.pages, &self.ras.retired, self.capacity);
        }
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
        if buf.is_empty() {
            return ReadOutcome::Clean;
        }
        self.plant_due(now);
        let mut outcome = ReadOutcome::Clean;
        for (base, at, span) in spans(addr, buf.len(), ECC_LINE_BYTES as u64) {
            let (line, check) = line(&self.pages, base);
            let (sensed, line_outcome) = self.ras.verify_read(base, line, check);
            buf[span.clone()].copy_from_slice(&sensed[at..at + span.len()]);
            outcome = outcome.merge(line_outcome);
        }
        self.ras.count_read(outcome);
        outcome
    }

    /// The data side of a demand write: heals or poisons partially
    /// covered lines, stores `data` and re-encodes the check bytes.
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds the capacity.
    pub fn write(&mut self, now: SimTime, addr: u64, data: &[u8]) {
        check_range(self.capacity, addr, data.len());
        if !data.is_empty() {
            self.plant_due(now);
            self.store(addr, data, true);
        }
    }

    /// Merges `data` into the lines it covers and re-encodes each,
    /// after the RAS prepares each line for a `demand` write.
    fn store(&mut self, addr: u64, data: &[u8], demand: bool) {
        for (base, at, span) in spans(addr, data.len(), ECC_LINE_BYTES as u64) {
            let (line, check) = written_line(&mut self.pages, base);
            if demand {
                self.ras
                    .pre_write(base, line, check, span.len() == ECC_LINE_BYTES);
            }
            line[at..at + span.len()].copy_from_slice(&data[span]);
            *check = encode_line(line);
        }
    }

    /// Functional read without timing or ECC (a memory-side cache hit,
    /// the accelerator DMA path, an NVDIMM save).
    pub fn peek(&self, addr: u64, buf: &mut [u8]) {
        check_range(self.capacity, addr, buf.len());
        for (base, at, span) in spans(addr, buf.len(), ECC_LINE_BYTES as u64) {
            let (line, _) = line(&self.pages, base);
            buf[span.clone()].copy_from_slice(&line[at..at + span.len()]);
        }
    }

    /// Functional write without timing (a cache write-back, the
    /// accelerator DMA path, an NVDIMM restore). Check bytes follow the
    /// new contents.
    pub fn poke(&mut self, addr: u64, data: &[u8]) {
        check_range(self.capacity, addr, data.len());
        self.store(addr, data, false);
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
        assert_eq!(addr % ECC_LINE_BYTES as u64, 0, "line-aligned reads");
        self.plant_due(now);
        let (line, check) = line(&self.pages, addr);
        self.ras.sideband_read(addr, line, check)
    }

    /// Maintenance-path write of one line, optionally depositing it
    /// with its poison marker (evacuation moves rot as rot).
    ///
    /// # Panics
    ///
    /// As [`Self::sideband_read_line`].
    pub fn sideband_write_line(&mut self, addr: u64, data: &[u8; 128], poison: bool) {
        check_range(self.capacity, addr, ECC_LINE_BYTES);
        assert_eq!(addr % ECC_LINE_BYTES as u64, 0, "line-aligned writes");
        self.store(addr, data, false);
        self.ras.sideband_write(addr, poison);
    }

    /// One patrol-scrub pass at `now` over the resident pages in
    /// address order (zero simulated time).
    pub fn scrub_pass(&mut self, now: SimTime) -> ScrubReport {
        self.plant_due(now);
        let resident = self.pages.iter_mut().filter(|(_, page)| page.resident);
        self.ras.scrub(resident.map(|(&idx, page)| {
            let lines = page.data.as_chunks_mut().0.iter_mut().zip(&page.check);
            (idx * PAGE_BYTES, lines)
        }))
    }

    /// Installs a deterministic media-fault injector whose flip
    /// schedule starts at `now`, replacing any previous one. With
    /// `wear_acceleration` set, wear reported through
    /// [`Self::note_wear`] drives stuck-cell failures through the
    /// Figure 8 endurance band
    /// ([`crate::EnduranceClass::expected_failures`]).
    pub fn attach_media_faults_at(&mut self, now: SimTime, cfg: FaultConfig) {
        self.ras.injector = Some(MediaFaultInjector::new_at(cfg, now));
    }

    /// Reports that the 64 B line at `line_addr` has absorbed `writes`
    /// writes, for the injector's wear model.
    pub fn note_wear(&mut self, line_addr: u64, writes: u64, endurance: EnduranceClass) {
        if let Some(inj) = &mut self.ras.injector {
            inj.note_write(line_addr, writes, endurance);
        }
    }

    /// Cumulative RAS counters (ECC corrections, scrub activity,
    /// retirements).
    pub fn ras_counters(&self) -> RasCounters {
        self.ras.counters
    }

    /// Pages retired so far (4 KiB base addresses, ascending).
    pub fn retired_pages(&self) -> Vec<u64> {
        self.ras.retired.iter().copied().collect()
    }

    /// The cells lost power: contents and everything derived from them
    /// are gone. Retirement records and the fault plan (physical
    /// defects) survive. Only volatile technologies call this.
    pub fn power_loss(&mut self) {
        self.pages.clear();
        self.ras.on_power_loss();
    }

    /// The image's data list: `(page index, its 4096 bytes)` for each
    /// resident page in ascending order, after their count.
    pub(crate) fn persist_data(&self, out: &mut Vec<u8>) {
        let count_at = out.len();
        0u64.persist(out);
        let mut count = 0u64;
        for (idx, page) in self.pages.iter().filter(|(_, page)| page.resident) {
            idx.persist(out);
            out.extend_from_slice(&page.data);
            count += 1;
        }
        out[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
    }

    /// Reads a data list whose page indices strictly increase and stay
    /// below the capacity.
    pub(crate) fn restore_data(&self, r: &mut SnapReader<'_>) -> Result<PageTable, RestoreError> {
        let page_count = self.capacity.div_ceil(PAGE_BYTES) as usize;
        let listed = snapshot::restore_sparse_with(r, page_count, 8 + PAGE_BYTES as usize, |r| {
            let mut page = MediaPage::blank();
            page.resident = true;
            page.data.copy_from_slice(r.take(PAGE_BYTES as usize)?);
            Ok(page)
        })?;
        Ok(listed
            .into_iter()
            .map(|(idx, page)| (idx as u64, page))
            .collect())
    }

    pub(crate) fn lay_data(&mut self, pages: PageTable) -> Result<(), RestoreError> {
        self.pages = pages;
        Ok(())
    }

    /// The image's RAS section: `(line address, check bytes)` for each
    /// checked line in ascending order after their count, then the rest
    /// of the RAS state.
    pub(crate) fn persist_ras(&self, out: &mut Vec<u8>) {
        let lines = self.pages.iter().flat_map(|(&idx, page)| {
            let base = (idx * PAGE_BYTES) as usize;
            let checked = (0..LINES_PER_PAGE).filter(|i| page.checked & (1 << i) != 0);
            checked.map(move |i| (base + i * ECC_LINE_BYTES, page.check[i]))
        });
        snapshot::persist_sparse(lines, out);
        self.ras.persist(out);
    }

    /// Reads a RAS section whose checked lines are aligned and below
    /// the capacity.
    pub(crate) fn restore_ras(&self, r: &mut SnapReader<'_>) -> Result<RasSection, RestoreError> {
        let entry_bytes = 8 + ECC_WORDS_PER_LINE;
        let checks = snapshot::restore_sparse(r, self.capacity as usize, entry_bytes)?;
        if checks.iter().any(|(base, _)| base % ECC_LINE_BYTES != 0) {
            return Err(RestoreError::Malformed {
                context: "checked line not line-aligned",
            });
        }
        Ok((checks, MediaRas::restore(r)?))
    }

    /// Lays the checked lines over the data list laid before; a line on
    /// a page the list lacks gets a page without data, so it re-images
    /// exactly.
    pub(crate) fn lay_ras(&mut self, (checks, ras): RasSection) -> Result<(), RestoreError> {
        for (base, check) in checks {
            let page = self.pages.entry(base as u64 / PAGE_BYTES);
            let page = page.or_insert_with(MediaPage::blank);
            let i = base % PAGE_BYTES as usize / ECC_LINE_BYTES;
            page.check[i] = check;
            page.checked |= 1 << i;
        }
        self.ras = ras;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::DEFAULT_RETIRE_THRESHOLD;

    fn array() -> MediaArray {
        MediaArray::new(1 << 20)
    }

    /// Flips the bits of `mask` in the byte at `addr` behind the check
    /// bytes' back: a latent error.
    fn rot(a: &mut MediaArray, addr: u64, mask: u8) {
        for bit in (0..8).filter(|b| mask & (1 << b) != 0) {
            flip_cell(&mut a.pages, addr, bit);
        }
    }

    #[test]
    fn sideband_write_preserves_poison_across_migration() {
        let (mut src, mut dst) = (array(), array());
        let data = [0x5Au8; ECC_LINE_BYTES];
        src.write(SimTime::ZERO, 0, &data);
        // Rot the line beyond correction: two flips in one word.
        rot(&mut src, 0, 0b11);

        let (moved, poisoned) = src.sideband_read_line(SimTime::from_us(1), 0);
        assert!(poisoned, "double flip must travel as poison");

        dst.sideband_write_line(0, &moved, poisoned);
        let (_, still_poisoned) = dst.sideband_read_line(SimTime::from_us(1), 0);
        assert!(still_poisoned, "poison marker survives the move");
        let mut buf = [0u8; ECC_LINE_BYTES];
        let outcome = dst.read(SimTime::from_us(2), 0, &mut buf);
        assert!(outcome.is_uncorrectable(), "destination read is poisoned");

        // A fully-covering demand write supersedes the rot as usual.
        dst.write(SimTime::from_us(3), 0, &data);
        let outcome = dst.read(SimTime::from_us(4), 0, &mut buf);
        assert!(outcome.is_clean());
        assert_eq!(buf, data);
    }

    #[test]
    fn sideband_read_returns_verified_clean_line() {
        let mut a = array();
        let data = [0xC3u8; ECC_LINE_BYTES];
        a.write(SimTime::ZERO, 128, &data);
        let before = a.ras_counters();
        let (line, poisoned) = a.sideband_read_line(SimTime::from_us(1), 128);
        assert_eq!(line, data);
        assert!(!poisoned);
        // Maintenance reads never perturb the demand accounting.
        assert_eq!(a.ras_counters(), before);
    }

    #[test]
    fn ras_demand_read_corrects_buffer_not_store() {
        let mut a = array();
        let data = [0xA5u8; 128];
        a.poke(0, &data);
        rot(&mut a, 3, 0x08);

        let mut buf = [0u8; 128];
        let outcome = a.read(SimTime::ZERO, 0, &mut buf);
        assert_eq!(outcome, ReadOutcome::Corrected { bits: 1 });
        assert_eq!(buf, data, "returned data corrected");
        let mut b = [0u8; 1];
        a.peek(3, &mut b);
        assert_eq!(b[0], 0xA5 ^ 0x08, "store still has the flip");

        // A scrub pass heals the array.
        let report = a.scrub_pass(SimTime::ZERO);
        assert_eq!(report.corrected, 1);
        a.peek(3, &mut b);
        assert_eq!(b[0], 0xA5, "scrub healed the store");
    }

    #[test]
    fn two_flips_in_one_word_go_uncorrectable() {
        let mut a = array();
        a.poke(0, &[0u8; 128]);
        rot(&mut a, 16, 0x05); // two bits of word 2
        let mut buf = [0u8; 128];
        let outcome = a.read(SimTime::ZERO, 0, &mut buf);
        assert!(outcome.is_uncorrectable());
        assert_eq!(a.ras_counters().demand_uncorrectable, 1);
    }

    #[test]
    fn scrub_retires_noisy_pages() {
        let mut a = array();
        a.poke(0, &[0xFFu8; 128]);
        // Same single-bit fault re-planted across passes (a stuck cell
        // without an injector): flip, scrub, repeat, one pass past the
        // threshold.
        let mut retired = Vec::new();
        for _ in 0..=DEFAULT_RETIRE_THRESHOLD {
            rot(&mut a, 0, 0x01);
            retired.extend(a.scrub_pass(SimTime::ZERO).retired_pages);
        }
        assert_eq!(retired, vec![0]);
        assert_eq!(a.ras_counters().pages_retired, 1);
        assert_eq!(a.retired_pages(), vec![0]);
    }

    #[test]
    fn partial_write_cannot_launder_a_poisoned_line() {
        let mut a = array();
        a.poke(0, &[0x5Au8; 128]);
        rot(&mut a, 0, 0x03); // double-bit error in word 0

        let mut buf = [0u8; 128];
        assert!(a.read(SimTime::ZERO, 0, &mut buf).is_uncorrectable());

        // Partial write to the same line: the fresh bytes merge, but
        // the line must stay poisoned.
        a.write(SimTime::ZERO, 64, &[0x11u8; 16]);
        assert!(a.read(SimTime::ZERO, 0, &mut buf).is_uncorrectable());

        // A full-line rewrite clears the poison.
        a.write(SimTime::ZERO, 0, &[0x22u8; 128]);
        let outcome = a.read(SimTime::ZERO, 0, &mut buf);
        assert!(outcome.is_clean());
        assert_eq!(buf, [0x22u8; 128]);
    }

    #[test]
    fn unwritten_lines_verify_clean() {
        let mut a = array();
        let mut buf = [0xFFu8; 256];
        let outcome = a.read(SimTime::ZERO, 4096, &mut buf);
        assert!(outcome.is_clean());
        assert_eq!(buf, [0u8; 256]);
        assert!(a.pages.is_empty(), "a read allocates no page");
    }

    #[test]
    fn unaligned_spans_verify_whole_lines() {
        let mut a = array();
        let data: Vec<u8> = (0..512u32).map(|i| (i % 249) as u8).collect();
        a.poke(64, &data);
        // Flip a bit outside the read span but inside an overlapped line.
        rot(&mut a, 70, 0x80);
        let mut buf = [0u8; 100];
        let outcome = a.read(SimTime::ZERO, 96, &mut buf);
        assert_eq!(outcome, ReadOutcome::Corrected { bits: 1 });
        assert_eq!(&buf[..], &data[32..132]);
    }

    #[test]
    fn peek_and_poke_cross_pages() {
        let mut a = array();
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        a.poke(PAGE_BYTES - 50, &data);
        let mut buf = vec![0xFFu8; 9100];
        a.peek(PAGE_BYTES - 100, &mut buf);
        assert_eq!(&buf[..50], &[0u8; 50]);
        assert_eq!(&buf[50..9050], &data[..]);
        assert_eq!(&buf[9050..], &[0u8; 50]);
        assert_eq!(a.pages.keys().collect::<Vec<_>>(), [&0, &1, &2, &3]);
    }

    #[test]
    fn flips_past_the_capacity_are_suppressed_not_planted() {
        let mut a = MediaArray::new(PAGE_BYTES);
        a.attach_media_faults_at(
            SimTime::ZERO,
            FaultConfig {
                seed: 1,
                transient_flips: 4,
                window: SimTime::from_us(1),
                hot_start: PAGE_BYTES,
                hot_len: PAGE_BYTES,
                stuck_cells: 0,
                wear_acceleration: 0.0,
            },
        );
        let report = a.scrub_pass(SimTime::from_us(2));
        assert_eq!(report.lines_scanned, 0);
        assert!(a.pages.is_empty(), "no page past the capacity");
        let stats = a.ras.injector.as_ref().expect("attached").stats();
        assert_eq!((stats.planted, stats.suppressed), (0, 4));
    }
}
