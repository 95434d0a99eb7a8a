//! SEC-DED ECC over the media path.
//!
//! Server DIMMs carry 8 check bits per 64-bit word (a x72 rank); the
//! buffer chip corrects any single-bit error and detects any
//! double-bit error per word. This module implements that
//! Hamming(72,64) code — one check byte per `u64`, sixteen check bytes
//! per 128-byte cache line — plus the per-device RAS bookkeeping
//! ([`MediaRas`]): check-byte storage, demand-read verification,
//! patrol scrubbing and page retirement.
//!
//! Design invariants:
//!
//! * `encode(0) == 0`, so lines that were never written (which
//!   [`crate::SparseMemory`] reads back as zeros) verify clean without
//!   materializing check bytes.
//! * Verification and scrubbing take **zero simulated time** — the
//!   ECC pipeline is part of the array access in real hardware, and
//!   the repo's latency tests pin exact picosecond values.
//! * Demand reads correct the *returned* buffer only; the stored copy
//!   is healed by the patrol scrubber. This is what makes scrub
//!   on/off observable: latent single-bit errors that are never
//!   scrubbed accumulate until two land in the same word and the line
//!   goes uncorrectable.

use std::collections::{BTreeSet, HashMap};

use contutto_sim::persist_fields;
use contutto_sim::snapshot::{persist_sorted_map, restore_map, Persist, RestoreError, SnapReader};
use contutto_sim::SimTime;

use crate::endurance::EnduranceClass;
use crate::fault::MediaFaultInjector;
use crate::store::SparseMemory;

/// Bytes per ECC-protected cache line.
pub const ECC_LINE_BYTES: usize = 128;
/// 64-bit words per ECC-protected cache line.
pub const ECC_WORDS_PER_LINE: usize = ECC_LINE_BYTES / 8;

/// Codeword position (1..=71) of each of the 64 data bits: the
/// positions that are not powers of two, in ascending order.
const DATA_POS: [u8; 64] = {
    let mut tbl = [0u8; 64];
    let mut pos = 1u8;
    let mut i = 0;
    while i < 64 {
        if !pos.is_power_of_two() {
            tbl[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    tbl
};

/// Inverse of [`DATA_POS`]: data-bit index for a codeword position
/// (255 for parity positions and out-of-range).
const POS_TO_BIT: [u8; 128] = {
    let mut tbl = [255u8; 128];
    let mut i = 0;
    while i < 64 {
        tbl[DATA_POS[i] as usize] = i as u8;
        i += 1;
    }
    tbl
};

/// Check byte of a word whose only set bit is data bit `i`: the bit's
/// codeword position, plus the overall parity of that bit and the
/// position's Hamming bits.
const fn unit_check(i: usize) -> u8 {
    let p = DATA_POS[i];
    let overall = (1 + p.count_ones()) & 1;
    p | ((overall as u8) << 7)
}

/// `ENCODE_TABLES[k][b]` is the check byte of a word whose only
/// non-zero byte is byte `k` (little-endian) holding `b`: the XOR of
/// the unit checks of `b`'s set bits.
static ENCODE_TABLES: [[u8; 256]; 8] = {
    let mut tables = [[0u8; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let mut bit = 0;
            while bit < 8 {
                if b & (1 << bit) != 0 {
                    tables[k][b] ^= unit_check(8 * k + bit);
                }
                bit += 1;
            }
            b += 1;
        }
        k += 1;
    }
    tables
};

/// Computes the check byte for a 64-bit data word: bits 0-6 are the
/// Hamming parity bits (positions 1,2,4,…,64 of the codeword), bit 7
/// is the overall parity that upgrades SEC to SEC-DED.
///
/// Every media access encodes sixteen words, so this is eight table
/// lookups, one per data byte, XORed together. That is exact because
/// the check byte is linear over GF(2): each Hamming bit is an XOR of
/// data bits, and the overall parity is an XOR of data and Hamming
/// bits. [`encode_reference`] is the bit walk it must equal.
pub fn encode(word: u64) -> u8 {
    let t = &ENCODE_TABLES;
    let b = word.to_le_bytes();
    t[0][b[0] as usize]
        ^ t[1][b[1] as usize]
        ^ t[2][b[2] as usize]
        ^ t[3][b[3] as usize]
        ^ t[4][b[4] as usize]
        ^ t[5][b[5] as usize]
        ^ t[6][b[6] as usize]
        ^ t[7][b[7] as usize]
}

/// The set-bit walk that [`encode`] replaces, kept as its test
/// oracle. Nothing outside tests calls it.
pub fn encode_reference(word: u64) -> u8 {
    let mut p = 0u8;
    let mut w = word;
    while w != 0 {
        let i = w.trailing_zeros() as usize;
        p ^= DATA_POS[i];
        w &= w - 1;
    }
    // Overall parity covers the 64 data bits and the 7 Hamming bits,
    // making the parity of the full 72-bit codeword even.
    let overall = (word.count_ones() + u32::from(p).count_ones()) & 1;
    p | ((overall as u8) << 7)
}

/// Outcome of decoding one 64-bit word against its check byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordDecode {
    /// Word and check byte agree.
    Clean,
    /// A single flipped data bit was corrected in place.
    CorrectedData {
        /// Which data bit (0-63) was repaired.
        bit: u8,
    },
    /// A check bit was flipped; the data itself is intact.
    CorrectedCheck,
    /// A double-bit (or worse) error — the data cannot be trusted.
    Uncorrectable,
}

/// Decodes `word` against its stored check byte, correcting a
/// single-bit data error in place.
pub fn decode(word: &mut u64, check: u8) -> WordDecode {
    let expect = encode(*word);
    let syndrome = (expect ^ check) & 0x7f;
    // Parity of all 72 stored bits: even when clean or after a
    // double-bit error, odd after any single-bit error.
    let odd = (word.count_ones() + u32::from(check).count_ones()) & 1 == 1;
    match (syndrome, odd) {
        (0, false) => WordDecode::Clean,
        (0, true) => WordDecode::CorrectedCheck, // overall-parity bit itself
        (s, true) => {
            let bit = POS_TO_BIT[s as usize & 0x7f];
            if s.is_power_of_two() {
                WordDecode::CorrectedCheck
            } else if bit != 255 {
                *word ^= 1u64 << bit;
                WordDecode::CorrectedData { bit }
            } else {
                WordDecode::Uncorrectable
            }
        }
        (_, false) => WordDecode::Uncorrectable,
    }
}

/// Check bytes for one 128-byte line.
pub type LineCheck = [u8; ECC_WORDS_PER_LINE];

/// Encodes all sixteen words of a 128-byte line.
pub fn encode_line(line: &[u8; ECC_LINE_BYTES]) -> LineCheck {
    let mut check = [0u8; ECC_WORDS_PER_LINE];
    for (chunk, c) in line.chunks_exact(8).zip(check.iter_mut()) {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(chunk);
        *c = encode(u64::from_le_bytes(bytes));
    }
    check
}

/// Decodes a 128-byte line in place; returns the merged outcome.
///
/// Nearly every line read is clean, so the line's check bytes are
/// recomputed and compared with the stored ones first. A match is
/// `Clean` exactly as the word-by-word decode would find it: a word
/// whose check byte equals its encoding has a zero syndrome and even
/// codeword parity. Only a mismatch runs the per-word decode, which is
/// the path that corrects.
pub fn decode_line(line: &mut [u8; ECC_LINE_BYTES], check: &LineCheck) -> ReadOutcome {
    if encode_line(line) == *check {
        return ReadOutcome::Clean;
    }
    let mut outcome = ReadOutcome::Clean;
    for (w, c) in check.iter().enumerate() {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&line[w * 8..w * 8 + 8]);
        let mut word = u64::from_le_bytes(bytes);
        let d = decode(&mut word, *c);
        match d {
            WordDecode::Clean => {}
            WordDecode::CorrectedData { .. } => {
                line[w * 8..w * 8 + 8].copy_from_slice(&word.to_le_bytes());
                outcome = outcome.merge(ReadOutcome::Corrected { bits: 1 });
            }
            WordDecode::CorrectedCheck => {
                outcome = outcome.merge(ReadOutcome::Corrected { bits: 1 });
            }
            WordDecode::Uncorrectable => outcome = outcome.merge(ReadOutcome::Uncorrectable),
        }
    }
    outcome
}

/// ECC verdict of a device read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadOutcome {
    /// Data matched its check bits everywhere.
    #[default]
    Clean,
    /// One or more single-bit errors were corrected; the returned
    /// data is good.
    Corrected {
        /// Total bits corrected across the access.
        bits: u32,
    },
    /// At least one word had a multi-bit error; the returned data for
    /// that region is untrustworthy and must be treated as poisoned.
    Uncorrectable,
}

impl ReadOutcome {
    /// Whether the data needs no attention.
    pub fn is_clean(self) -> bool {
        matches!(self, ReadOutcome::Clean)
    }

    /// Whether the data is unusable.
    pub fn is_uncorrectable(self) -> bool {
        matches!(self, ReadOutcome::Uncorrectable)
    }

    /// Bits corrected (zero unless `Corrected`).
    pub fn corrected_bits(self) -> u32 {
        match self {
            ReadOutcome::Corrected { bits } => bits,
            _ => 0,
        }
    }

    /// Worst-of combination of two outcomes.
    pub fn merge(self, other: ReadOutcome) -> ReadOutcome {
        match (self, other) {
            (ReadOutcome::Uncorrectable, _) | (_, ReadOutcome::Uncorrectable) => {
                ReadOutcome::Uncorrectable
            }
            (ReadOutcome::Corrected { bits: a }, ReadOutcome::Corrected { bits: b }) => {
                ReadOutcome::Corrected { bits: a + b }
            }
            (c @ ReadOutcome::Corrected { .. }, ReadOutcome::Clean)
            | (ReadOutcome::Clean, c @ ReadOutcome::Corrected { .. }) => c,
            (ReadOutcome::Clean, ReadOutcome::Clean) => ReadOutcome::Clean,
        }
    }
}

/// A device read: when the data is available, and what ECC saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// Completion time of the access.
    pub done: SimTime,
    /// ECC verdict for the returned bytes.
    pub outcome: ReadOutcome,
}

/// Result of one patrol-scrub pass over a device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// 128-byte lines examined.
    pub lines_scanned: u64,
    /// Single-bit errors corrected *in the array*.
    pub corrected: u64,
    /// Lines found uncorrectable (left in place; demand reads will
    /// poison them).
    pub uncorrectable: u64,
    /// Pages retired this pass for exceeding the correctable-error
    /// threshold (4 KiB page base addresses).
    pub retired_pages: Vec<u64>,
}

/// Cumulative RAS counters for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasCounters {
    /// Bits corrected on demand reads.
    pub demand_corrected: u64,
    /// Demand reads that returned uncorrectable data.
    pub demand_uncorrectable: u64,
    /// Bits corrected by the patrol scrubber.
    pub scrub_corrected: u64,
    /// Uncorrectable lines seen by the scrubber.
    pub scrub_uncorrectable: u64,
    /// Scrub passes completed.
    pub scrub_passes: u64,
    /// Pages retired.
    pub pages_retired: u64,
}

impl std::iter::Sum for RasCounters {
    /// Field-by-field total, e.g. across a buffer's ports.
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(RasCounters::default(), |t, c| RasCounters {
            demand_corrected: t.demand_corrected + c.demand_corrected,
            demand_uncorrectable: t.demand_uncorrectable + c.demand_uncorrectable,
            scrub_corrected: t.scrub_corrected + c.scrub_corrected,
            scrub_uncorrectable: t.scrub_uncorrectable + c.scrub_uncorrectable,
            scrub_passes: t.scrub_passes + c.scrub_passes,
            pages_retired: t.pages_retired + c.pages_retired,
        })
    }
}

const PAGE_BYTES: u64 = 4096;

/// Correctable errors a page may accumulate before the scrubber
/// retires it.
pub const DEFAULT_RETIRE_THRESHOLD: u32 = 16;

/// Per-device RAS state: check-byte store, optional fault injector,
/// per-page health accounting and the patrol-scrub walker.
///
/// Devices embed one of these next to their [`SparseMemory`]; the
/// split keeps borrows simple (`&mut self.ras` alongside
/// `&mut self.store`).
#[derive(Debug, Clone, Default)]
pub struct MediaRas {
    check: HashMap<u64, LineCheck>,
    injector: Option<MediaFaultInjector>,
    page_correctable: HashMap<u64, u32>,
    retired: BTreeSet<u64>,
    /// Lines known uncorrectable. The entry survives until the line
    /// is fully rewritten, so a partial write merging fresh bytes
    /// into a rotten line cannot launder the garbage into "clean".
    poisoned: BTreeSet<u64>,
    retire_threshold: u32,
    counters: RasCounters,
}

impl MediaRas {
    /// Fresh state with the default retirement threshold.
    pub fn new() -> Self {
        MediaRas {
            retire_threshold: DEFAULT_RETIRE_THRESHOLD,
            ..MediaRas::default()
        }
    }

    /// Installs a fault injector (replacing any previous one).
    pub fn attach_injector(&mut self, injector: MediaFaultInjector) {
        self.injector = Some(injector);
    }

    /// Forwards a per-line write count to the injector's wear model
    /// (see [`MediaFaultInjector::note_write`]). Returns `true` when
    /// a new wear-induced stuck cell appeared.
    pub fn note_write(&mut self, line_addr: u64, writes: u64, endurance: EnduranceClass) -> bool {
        match &mut self.injector {
            Some(inj) => inj.note_write(line_addr, writes, endurance),
            None => false,
        }
    }

    /// Correctable errors per page before retirement.
    pub fn set_retire_threshold(&mut self, threshold: u32) {
        assert!(threshold > 0, "retire threshold must be positive");
        self.retire_threshold = threshold;
    }

    /// Cumulative counters.
    pub fn counters(&self) -> RasCounters {
        self.counters
    }

    /// Pages retired so far (4 KiB base addresses, ascending).
    pub fn retired_pages(&self) -> Vec<u64> {
        self.retired.iter().copied().collect()
    }

    /// Plants any injector events due by `now` into the array, then
    /// re-encodes nothing — the flips are exactly what ECC exists to
    /// catch. Call before every array access.
    fn plant_due(&mut self, now: SimTime, store: &mut SparseMemory) {
        if let Some(inj) = &mut self.injector {
            inj.plant_due(now, store, &self.retired);
        }
    }

    /// Prepares the array for a write of `len` bytes at `addr`: plants
    /// due faults, then corrects (in the array) any latent single-bit
    /// errors in partially-covered lines so the post-write re-encode
    /// cannot bless corrupted neighbor bytes as clean. Lines that are
    /// uncorrectable and not fully overwritten stay poisoned.
    /// Call **before** the store write.
    pub fn pre_write(&mut self, now: SimTime, addr: u64, len: usize, store: &mut SparseMemory) {
        if len == 0 {
            return;
        }
        self.plant_due(now, store);
        let end = addr + len as u64;
        let first = addr / ECC_LINE_BYTES as u64;
        let last = (end - 1) / ECC_LINE_BYTES as u64;
        for line_idx in first..=last {
            let base = line_idx * ECC_LINE_BYTES as u64;
            if addr <= base && end >= base + ECC_LINE_BYTES as u64 {
                // Fully overwritten: fresh data supersedes any rot.
                self.poisoned.remove(&base);
                continue;
            }
            let mut line = [0u8; ECC_LINE_BYTES];
            store.read(base, &mut line);
            let check = self.check.get(&base).copied().unwrap_or_default();
            match decode_line(&mut line, &check) {
                ReadOutcome::Clean => {}
                ReadOutcome::Corrected { bits } => {
                    store.write(base, &line);
                    self.counters.demand_corrected += u64::from(bits);
                    self.account(base, ReadOutcome::Corrected { bits });
                }
                ReadOutcome::Uncorrectable => {
                    self.poisoned.insert(base);
                }
            }
        }
    }

    /// Records a write: re-encodes the check bytes of every line the
    /// write touched (reading the merged line back from the store).
    /// Call **after** the store write, paired with [`Self::pre_write`].
    pub fn record_write(&mut self, addr: u64, len: usize, store: &SparseMemory) {
        if len == 0 {
            return;
        }
        let first = addr / ECC_LINE_BYTES as u64;
        let last = (addr + len as u64 - 1) / ECC_LINE_BYTES as u64;
        for line_idx in first..=last {
            let base = line_idx * ECC_LINE_BYTES as u64;
            let mut line = [0u8; ECC_LINE_BYTES];
            store.read(base, &mut line);
            self.check.insert(base, encode_line(&line));
        }
    }

    /// Maintenance-path read of one full line through the service
    /// interface (FSI → I²C on ConTutto, paper §3.4): functional, zero
    /// simulated time, and independent of the DMI link. Plants due
    /// faults so the sideband sees the same array state a demand read
    /// at `now` would, runs the ECC check on a private copy of the
    /// line, and reports whether the line must travel as poison — but
    /// charges no demand/scrub counters and heals nothing.
    ///
    /// # Panics
    ///
    /// Panics if `line_base` is not line-aligned.
    pub fn sideband_read(
        &mut self,
        now: SimTime,
        line_base: u64,
        store: &mut SparseMemory,
    ) -> ([u8; ECC_LINE_BYTES], bool) {
        assert_eq!(line_base % ECC_LINE_BYTES as u64, 0, "line-aligned reads");
        self.plant_due(now, store);
        let mut line = [0u8; ECC_LINE_BYTES];
        store.read(line_base, &mut line);
        if let Some(inj) = &self.injector {
            inj.overlay(line_base, &mut line, &self.retired);
        }
        let check = self.check.get(&line_base).copied().unwrap_or_default();
        let outcome = decode_line(&mut line, &check);
        let poisoned = outcome.is_uncorrectable() || self.poisoned.contains(&line_base);
        (line, poisoned)
    }

    /// Maintenance-path write of one full line. Unlike the demand path
    /// ([`Self::pre_write`]), a sideband write can deposit a line
    /// *with* its poison marker: evacuation must move rot as rot,
    /// never launder it into clean data.
    ///
    /// # Panics
    ///
    /// Panics if `line_base` is not line-aligned.
    pub fn sideband_write(
        &mut self,
        line_base: u64,
        data: &[u8; ECC_LINE_BYTES],
        poison: bool,
        store: &mut SparseMemory,
    ) {
        assert_eq!(line_base % ECC_LINE_BYTES as u64, 0, "line-aligned writes");
        store.write(line_base, data);
        self.check.insert(line_base, encode_line(data));
        if poison {
            self.poisoned.insert(line_base);
        } else {
            self.poisoned.remove(&line_base);
        }
    }

    /// Whether `line_base` is currently marked poisoned.
    pub fn is_poisoned(&self, line_base: u64) -> bool {
        self.poisoned.contains(&line_base)
    }

    /// Resets contents-derived state after the array lost power:
    /// check bytes, per-page accumulation and poison all describe
    /// data that no longer exists. Retirement records and the fault
    /// plan (physical defects) survive.
    pub fn on_power_loss(&mut self) {
        self.check.clear();
        self.page_correctable.clear();
        self.poisoned.clear();
    }

    /// Verifies (and corrects, in `buf` only) a demand read of `len`
    /// bytes at `addr`. `buf` already holds the raw store contents.
    pub fn verify_read(
        &mut self,
        now: SimTime,
        addr: u64,
        buf: &mut [u8],
        store: &mut SparseMemory,
    ) -> ReadOutcome {
        if buf.is_empty() {
            return ReadOutcome::Clean;
        }
        self.plant_due(now, store);
        let first = addr / ECC_LINE_BYTES as u64;
        let last = (addr + buf.len() as u64 - 1) / ECC_LINE_BYTES as u64;
        let mut outcome = ReadOutcome::Clean;
        for line_idx in first..=last {
            let base = line_idx * ECC_LINE_BYTES as u64;
            let mut line = [0u8; ECC_LINE_BYTES];
            store.read(base, &mut line);
            if let Some(inj) = &self.injector {
                inj.overlay(base, &mut line, &self.retired);
            }
            let check = self.check.get(&base).copied().unwrap_or_default();
            let mut line_outcome = decode_line(&mut line, &check);
            if line_outcome.is_uncorrectable() {
                self.poisoned.insert(base);
            } else if self.poisoned.contains(&base) {
                line_outcome = ReadOutcome::Uncorrectable;
            }
            self.account(base, line_outcome);
            outcome = outcome.merge(line_outcome);
            // Copy the verified slice back into the caller's view.
            let copy_start = base.max(addr);
            let copy_end = (base + ECC_LINE_BYTES as u64).min(addr + buf.len() as u64);
            let src = (copy_start - base) as usize..(copy_end - base) as usize;
            let dst = (copy_start - addr) as usize..(copy_end - addr) as usize;
            buf[dst].copy_from_slice(&line[src]);
        }
        match outcome {
            ReadOutcome::Corrected { bits } => self.counters.demand_corrected += u64::from(bits),
            ReadOutcome::Uncorrectable => self.counters.demand_uncorrectable += 1,
            ReadOutcome::Clean => {}
        }
        outcome
    }

    fn account(&mut self, line_base: u64, outcome: ReadOutcome) {
        if let ReadOutcome::Corrected { bits } = outcome {
            let page = line_base / PAGE_BYTES * PAGE_BYTES;
            if !self.retired.contains(&page) {
                *self.page_correctable.entry(page).or_insert(0) += bits;
            }
        }
    }

    /// One patrol-scrub pass: walks every resident page in address
    /// order, corrects latent single-bit errors **in the array**, and
    /// retires pages whose accumulated correctable count crossed the
    /// threshold. Zero simulated time.
    pub fn scrub(&mut self, now: SimTime, store: &mut SparseMemory) -> ScrubReport {
        self.plant_due(now, store);
        let mut report = ScrubReport::default();
        for page in store.resident_page_addrs() {
            if self.retired.contains(&page) {
                continue;
            }
            for line_idx in 0..(PAGE_BYTES / ECC_LINE_BYTES as u64) {
                let base = page + line_idx * ECC_LINE_BYTES as u64;
                report.lines_scanned += 1;
                let mut line = [0u8; ECC_LINE_BYTES];
                store.read(base, &mut line);
                if let Some(inj) = &self.injector {
                    inj.overlay(base, &mut line, &self.retired);
                }
                let check = self.check.get(&base).copied().unwrap_or_default();
                match decode_line(&mut line, &check) {
                    ReadOutcome::Clean => {}
                    ReadOutcome::Corrected { bits } => {
                        // Heal the array copy. Stuck cells re-assert on
                        // the next read, which is exactly how they keep
                        // accumulating toward retirement.
                        store.write(base, &line);
                        report.corrected += u64::from(bits);
                        self.account(base, ReadOutcome::Corrected { bits });
                    }
                    ReadOutcome::Uncorrectable => {
                        self.poisoned.insert(base);
                        report.uncorrectable += 1;
                    }
                }
            }
            let count = self.page_correctable.get(&page).copied().unwrap_or(0);
            if count >= self.retire_threshold {
                self.retired.insert(page);
                self.page_correctable.remove(&page);
                report.retired_pages.push(page);
            }
        }
        self.counters.scrub_corrected += report.corrected;
        self.counters.scrub_uncorrectable += report.uncorrectable;
        self.counters.scrub_passes += 1;
        self.counters.pages_retired += report.retired_pages.len() as u64;
        report
    }
}

persist_fields!(RasCounters {
    demand_corrected,
    demand_uncorrectable,
    scrub_corrected,
    scrub_uncorrectable,
    scrub_passes,
    pages_retired
});

impl Persist for MediaRas {
    fn persist(&self, out: &mut Vec<u8>) {
        persist_sorted_map(&self.check, out);
        self.injector.persist(out);
        persist_sorted_map(&self.page_correctable, out);
        self.retired.persist(out);
        self.poisoned.persist(out);
        self.retire_threshold.persist(out);
        self.counters.persist(out);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let check = restore_map::<u64, LineCheck>(r)?;
        let injector = Option::<MediaFaultInjector>::restore(r)?;
        let page_correctable = restore_map::<u64, u32>(r)?;
        let retired = BTreeSet::restore(r)?;
        let poisoned = BTreeSet::restore(r)?;
        let retire_threshold = r.u32()?;
        if retire_threshold == 0 {
            return Err(RestoreError::Malformed {
                context: "zero retire threshold",
            });
        }
        Ok(MediaRas {
            check,
            injector,
            page_correctable,
            retired,
            poisoned,
            retire_threshold,
            counters: RasCounters::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sideband_write_preserves_poison_across_migration() {
        let mut src_ras = MediaRas::new();
        let mut src = SparseMemory::new();
        let mut dst_ras = MediaRas::new();
        let mut dst = SparseMemory::new();

        let data = [0x5Au8; ECC_LINE_BYTES];
        src_ras.pre_write(SimTime::ZERO, 0, ECC_LINE_BYTES, &mut src);
        src.write(0, &data);
        src_ras.record_write(0, ECC_LINE_BYTES, &src);

        // Rot the line beyond correction: two flips in one word.
        let mut raw = [0u8; ECC_LINE_BYTES];
        src.read(0, &mut raw);
        raw[0] ^= 0b11;
        src.write(0, &raw);

        let (moved, poisoned) = src_ras.sideband_read(SimTime::from_us(1), 0, &mut src);
        assert!(poisoned, "double flip must travel as poison");

        dst_ras.sideband_write(0, &moved, poisoned, &mut dst);
        assert!(dst_ras.is_poisoned(0), "poison marker survives the move");
        let mut buf = [0u8; ECC_LINE_BYTES];
        let outcome = dst_ras.verify_read(SimTime::from_us(2), 0, &mut buf, &mut dst);
        assert!(outcome.is_uncorrectable(), "destination read is poisoned");

        // A fully-covering demand write supersedes the rot as usual.
        dst_ras.pre_write(SimTime::from_us(3), 0, ECC_LINE_BYTES, &mut dst);
        dst.write(0, &data);
        dst_ras.record_write(0, ECC_LINE_BYTES, &dst);
        let outcome = dst_ras.verify_read(SimTime::from_us(4), 0, &mut buf, &mut dst);
        assert!(outcome.is_clean());
        assert_eq!(buf, data);
    }

    #[test]
    fn sideband_read_returns_verified_clean_line() {
        let mut ras = MediaRas::new();
        let mut store = SparseMemory::new();
        let data = [0xC3u8; ECC_LINE_BYTES];
        ras.pre_write(SimTime::ZERO, 128, ECC_LINE_BYTES, &mut store);
        store.write(128, &data);
        ras.record_write(128, ECC_LINE_BYTES, &store);
        let before = ras.counters();
        let (line, poisoned) = ras.sideband_read(SimTime::from_us(1), 128, &mut store);
        assert_eq!(line, data);
        assert!(!poisoned);
        // Maintenance reads never perturb the demand accounting.
        assert_eq!(ras.counters(), before);
    }

    /// A complete proof, not a sample: `encode` and `encode_reference`
    /// are both linear maps from GF(2)^64 to GF(2)^8 (every check bit,
    /// overall parity included, is an XOR of data bits). Two linear
    /// maps that agree on a basis agree everywhere, and the 64 unit
    /// vectors are a basis; the zero word pins that neither map has a
    /// constant term.
    #[test]
    fn table_encode_equals_the_bit_walk_on_a_basis() {
        assert_eq!(encode(0), encode_reference(0));
        for bit in 0..64 {
            let unit = 1u64 << bit;
            assert_eq!(encode(unit), encode_reference(unit), "bit {bit}");
        }
    }

    /// `decode_line` without its clean-line fast path: the word-by-word
    /// decode alone, as the oracle for the shortcut.
    fn decode_line_word_by_word(line: &mut [u8; ECC_LINE_BYTES], check: &LineCheck) -> ReadOutcome {
        let mut outcome = ReadOutcome::Clean;
        for (w, c) in check.iter().enumerate() {
            let mut word = u64::from_le_bytes(line[w * 8..w * 8 + 8].try_into().unwrap());
            match decode(&mut word, *c) {
                WordDecode::Clean => {}
                WordDecode::CorrectedData { .. } => {
                    line[w * 8..w * 8 + 8].copy_from_slice(&word.to_le_bytes());
                    outcome = outcome.merge(ReadOutcome::Corrected { bits: 1 });
                }
                WordDecode::CorrectedCheck => {
                    outcome = outcome.merge(ReadOutcome::Corrected { bits: 1 });
                }
                WordDecode::Uncorrectable => outcome = outcome.merge(ReadOutcome::Uncorrectable),
            }
        }
        outcome
    }

    #[test]
    fn clean_line_fast_path_decodes_exactly_as_word_by_word() {
        let mut rng = contutto_sim::SimRng::seed_from_u64(21);
        const CODEWORD_BITS: u64 = (ECC_LINE_BYTES + ECC_WORDS_PER_LINE) as u64 * 8;
        for case in 0..4_000 {
            let mut line = [0u8; ECC_LINE_BYTES];
            for b in line.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            let mut check = encode_line(&line);
            let flips = case % 4;
            for _ in 0..flips {
                // Data and check bits alike; a repeated position
                // cancels, which the differential covers too.
                let bit = rng.gen_below(CODEWORD_BITS) as usize;
                if bit < ECC_LINE_BYTES * 8 {
                    line[bit / 8] ^= 1 << (bit % 8);
                } else {
                    let bit = bit - ECC_LINE_BYTES * 8;
                    check[bit / 8] ^= 1 << (bit % 8);
                }
            }
            let (mut fast, mut slow) = (line, line);
            let got = decode_line(&mut fast, &check);
            let want = decode_line_word_by_word(&mut slow, &check);
            assert_eq!(got, want, "case {case}, {flips} flips");
            assert_eq!(fast, slow, "case {case}, {flips} flips");
        }
    }

    #[test]
    fn zero_word_encodes_to_zero() {
        assert_eq!(encode(0), 0);
        let mut w = 0u64;
        assert_eq!(decode(&mut w, 0), WordDecode::Clean);
    }

    #[test]
    fn every_single_bit_flip_is_corrected() {
        let word = 0xDEAD_BEEF_0123_4567u64;
        let check = encode(word);
        for bit in 0..64 {
            let mut corrupted = word ^ (1u64 << bit);
            let d = decode(&mut corrupted, check);
            assert_eq!(d, WordDecode::CorrectedData { bit }, "bit {bit}");
            assert_eq!(corrupted, word, "bit {bit} restored");
        }
    }

    #[test]
    fn every_check_bit_flip_leaves_data_intact() {
        let word = 0x0F0F_1234_5678_9ABCu64;
        let check = encode(word);
        for bit in 0..8 {
            let mut w = word;
            let d = decode(&mut w, check ^ (1 << bit));
            assert_eq!(d, WordDecode::CorrectedCheck, "check bit {bit}");
            assert_eq!(w, word);
        }
    }

    #[test]
    fn double_bit_flips_are_detected_not_miscorrected() {
        let word = 0x1122_3344_5566_7788u64;
        let check = encode(word);
        for a in 0..64u32 {
            // A representative stride of second flips (full 64x64 is slow
            // in debug builds for no extra coverage).
            for b in [(a + 1) % 64, (a + 17) % 64, (a + 40) % 64] {
                if a == b {
                    continue;
                }
                let mut corrupted = word ^ (1u64 << a) ^ (1u64 << b);
                let d = decode(&mut corrupted, check);
                assert_eq!(d, WordDecode::Uncorrectable, "bits {a},{b}");
            }
        }
    }

    #[test]
    fn line_roundtrip_and_correction() {
        let mut line = [0u8; ECC_LINE_BYTES];
        for (i, b) in line.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let check = encode_line(&line);
        let mut clean = line;
        assert_eq!(decode_line(&mut clean, &check), ReadOutcome::Clean);

        let mut flipped = line;
        flipped[5] ^= 0x10;
        flipped[77] ^= 0x01;
        assert_eq!(
            decode_line(&mut flipped, &check),
            ReadOutcome::Corrected { bits: 2 }
        );
        assert_eq!(flipped, line);

        let mut dead = line;
        dead[8] ^= 0x03; // two bits in one word
        assert_eq!(decode_line(&mut dead, &check), ReadOutcome::Uncorrectable);
    }

    #[test]
    fn outcome_merge_is_worst_of() {
        let c = ReadOutcome::Corrected { bits: 2 };
        assert_eq!(ReadOutcome::Clean.merge(c), c);
        assert_eq!(
            c.merge(ReadOutcome::Corrected { bits: 3 }),
            ReadOutcome::Corrected { bits: 5 }
        );
        assert_eq!(
            c.merge(ReadOutcome::Uncorrectable),
            ReadOutcome::Uncorrectable
        );
        assert!(ReadOutcome::Clean.merge(ReadOutcome::Clean).is_clean());
    }

    #[test]
    fn ras_demand_read_corrects_buffer_not_store() {
        let mut store = SparseMemory::new();
        let mut ras = MediaRas::new();
        let data = [0xA5u8; 128];
        store.write(0, &data);
        ras.record_write(0, 128, &store);
        // Plant a latent flip directly.
        let mut b = [0u8; 1];
        store.read(3, &mut b);
        store.write(3, &[b[0] ^ 0x08]);

        let mut buf = [0u8; 128];
        store.read(0, &mut buf);
        let outcome = ras.verify_read(SimTime::ZERO, 0, &mut buf, &mut store);
        assert_eq!(outcome, ReadOutcome::Corrected { bits: 1 });
        assert_eq!(buf, data, "returned data corrected");
        store.read(3, &mut b);
        assert_eq!(b[0], 0xA5 ^ 0x08, "store still has the flip");

        // A scrub pass heals the array.
        let report = ras.scrub(SimTime::ZERO, &mut store);
        assert_eq!(report.corrected, 1);
        store.read(3, &mut b);
        assert_eq!(b[0], 0xA5, "scrub healed the store");
    }

    #[test]
    fn two_flips_in_one_word_go_uncorrectable() {
        let mut store = SparseMemory::new();
        let mut ras = MediaRas::new();
        store.write(0, &[0u8; 128]);
        ras.record_write(0, 128, &store);
        store.write(16, &[0x05]); // two bits of word 2
        let mut buf = [0u8; 128];
        store.read(0, &mut buf);
        let outcome = ras.verify_read(SimTime::ZERO, 0, &mut buf, &mut store);
        assert!(outcome.is_uncorrectable());
        assert_eq!(ras.counters().demand_uncorrectable, 1);
    }

    #[test]
    fn scrub_retires_noisy_pages() {
        let mut store = SparseMemory::new();
        let mut ras = MediaRas::new();
        ras.set_retire_threshold(3);
        store.write(0, &[0xFFu8; 128]);
        ras.record_write(0, 128, &store);
        // Same single-bit fault re-planted across passes (a stuck cell
        // without an injector): flip, scrub, repeat.
        let mut retired = Vec::new();
        for _ in 0..4 {
            let mut b = [0u8; 1];
            store.read(0, &mut b);
            store.write(0, &[b[0] ^ 0x01]);
            let report = ras.scrub(SimTime::ZERO, &mut store);
            retired.extend(report.retired_pages);
        }
        assert_eq!(retired, vec![0]);
        assert_eq!(ras.counters().pages_retired, 1);
        assert_eq!(ras.retired_pages(), vec![0]);
    }

    #[test]
    fn partial_write_cannot_launder_a_poisoned_line() {
        let mut store = SparseMemory::new();
        let mut ras = MediaRas::new();
        store.write(0, &[0x5Au8; 128]);
        ras.record_write(0, 128, &store);
        store.write(0, &[0x5A ^ 0x03]); // double-bit error in word 0

        let mut buf = [0u8; 128];
        assert!(ras
            .verify_read(SimTime::ZERO, 0, &mut buf, &mut store)
            .is_uncorrectable());

        // Partial write to the same line: the fresh bytes merge, but
        // the line must stay poisoned.
        ras.pre_write(SimTime::ZERO, 64, 16, &mut store);
        store.write(64, &[0x11u8; 16]);
        ras.record_write(64, 16, &store);
        assert!(ras
            .verify_read(SimTime::ZERO, 0, &mut buf, &mut store)
            .is_uncorrectable());

        // A full-line rewrite clears the poison.
        ras.pre_write(SimTime::ZERO, 0, 128, &mut store);
        store.write(0, &[0x22u8; 128]);
        ras.record_write(0, 128, &store);
        let outcome = ras.verify_read(SimTime::ZERO, 0, &mut buf, &mut store);
        assert!(outcome.is_clean());
        assert_eq!(buf, [0x22u8; 128]);
    }

    #[test]
    fn unwritten_lines_verify_clean() {
        let mut store = SparseMemory::new();
        let mut ras = MediaRas::new();
        let mut buf = [0u8; 256];
        store.read(4096, &mut buf);
        let outcome = ras.verify_read(SimTime::ZERO, 4096, &mut buf, &mut store);
        assert!(outcome.is_clean());
        assert_eq!(buf, [0u8; 256]);
    }

    #[test]
    fn unaligned_spans_verify_whole_lines() {
        let mut store = SparseMemory::new();
        let mut ras = MediaRas::new();
        let data: Vec<u8> = (0..512u32).map(|i| (i % 249) as u8).collect();
        store.write(64, &data);
        ras.record_write(64, data.len(), &store);
        // Flip a bit outside the read span but inside an overlapped line.
        let mut b = [0u8; 1];
        store.read(70, &mut b);
        store.write(70, &[b[0] ^ 0x80]);
        let mut buf = [0u8; 100];
        store.read(96, &mut buf);
        let outcome = ras.verify_read(SimTime::ZERO, 96, &mut buf, &mut store);
        assert_eq!(outcome, ReadOutcome::Corrected { bits: 1 });
        assert_eq!(&buf[..], &data[32..132]);
    }
}
