//! SEC-DED ECC over the media path.
//!
//! Server DIMMs carry 8 check bits per 64-bit word (a x72 rank); the
//! buffer chip corrects any single-bit error and detects any
//! double-bit error per word. This module implements that
//! Hamming(72,64) code — one check byte per `u64`, sixteen check bytes
//! per 128-byte cache line — plus the per-device RAS bookkeeping
//! ([`MediaRas`]): demand-read verification, patrol scrubbing and page
//! retirement, one line at a time. The check bytes themselves live with
//! the data in the page table of [`crate::MediaArray`].
//!
//! Design invariants:
//!
//! * `encode(0) == 0`, so lines that were never written (which the
//!   page table reads back as zeros, with zero check bytes) verify
//!   clean without materializing check bytes.
//! * Verification and scrubbing take **zero simulated time** — the
//!   ECC pipeline is part of the array access in real hardware, and
//!   the repo's latency tests pin exact picosecond values.
//! * Demand reads correct the *returned* buffer only; the stored copy
//!   is healed by the patrol scrubber. This is what makes scrub
//!   on/off observable: latent single-bit errors that are never
//!   scrubbed accumulate until two land in the same word and the line
//!   goes uncorrectable.

use std::collections::{BTreeMap, BTreeSet};

use contutto_sim::persist_fields;
use contutto_sim::snapshot::{Persist, RestoreError, SnapReader};
use contutto_sim::SimTime;

use crate::array::PAGE_BYTES;
use crate::fault::MediaFaultInjector;

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

/// One 128-byte line of data.
pub type Line = [u8; ECC_LINE_BYTES];

/// Check bytes for one 128-byte line.
pub type LineCheck = [u8; ECC_WORDS_PER_LINE];

/// Encodes all sixteen words of a 128-byte line.
pub fn encode_line(line: &Line) -> LineCheck {
    let mut check = [0u8; ECC_WORDS_PER_LINE];
    for (word, c) in line.as_chunks::<8>().0.iter().zip(&mut check) {
        *c = encode(u64::from_le_bytes(*word));
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
pub fn decode_line(line: &mut Line, check: &LineCheck) -> ReadOutcome {
    if encode_line(line) == *check {
        return ReadOutcome::Clean;
    }
    let mut outcome = ReadOutcome::Clean;
    for (bytes, &c) in line.as_chunks_mut::<8>().0.iter_mut().zip(check) {
        let mut word = u64::from_le_bytes(*bytes);
        outcome = outcome.merge(match decode(&mut word, c) {
            WordDecode::Clean => ReadOutcome::Clean,
            WordDecode::CorrectedData { .. } | WordDecode::CorrectedCheck => {
                ReadOutcome::Corrected { bits: 1 }
            }
            WordDecode::Uncorrectable => ReadOutcome::Uncorrectable,
        });
        // Only a corrected data bit changed the word.
        *bytes = word.to_le_bytes();
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

/// Correctable errors a page may accumulate before the scrubber
/// retires it.
pub const DEFAULT_RETIRE_THRESHOLD: u32 = 16;

/// Per-device RAS state: optional fault injector, per-page health
/// accounting, poison markers and counters. The check bytes live with
/// the data in [`crate::MediaArray`]'s page table, which hands the
/// methods here one line and its check bytes at a time.
#[derive(Debug, Clone, Default)]
pub struct MediaRas {
    pub(crate) injector: Option<MediaFaultInjector>,
    page_correctable: BTreeMap<u64, u32>,
    pub(crate) retired: BTreeSet<u64>,
    /// Lines known uncorrectable. The entry survives until the line
    /// is fully rewritten, so a partial write merging fresh bytes
    /// into a rotten line cannot launder the garbage into "clean".
    poisoned: BTreeSet<u64>,
    pub(crate) counters: RasCounters,
}

impl MediaRas {
    /// The line at `base` as a read senses it: `line` with the
    /// injector's stuck cells overlaid.
    fn sense(&self, base: u64, line: &Line) -> Line {
        let mut sensed = *line;
        if let Some(inj) = &self.injector {
            inj.overlay(base, &mut sensed, &self.retired);
        }
        sensed
    }

    /// Decodes `sensed`, the line at `base` as sensed, against its check
    /// bytes. A correctable line is healed in the array (`line` takes
    /// the corrected bytes) and counted toward its page's retirement;
    /// an uncorrectable one is marked poisoned.
    fn heal(&mut self, base: u64, line: &mut Line, sensed: Line, check: &LineCheck) -> ReadOutcome {
        let mut corrected = sensed;
        let outcome = decode_line(&mut corrected, check);
        if let ReadOutcome::Corrected { bits } = outcome {
            *line = corrected;
            self.account(base, bits);
        } else if outcome.is_uncorrectable() {
            self.poisoned.insert(base);
        }
        outcome
    }

    /// Prepares the line at `base` for a demand write that covers it
    /// `whole` or in part. Fresh data for the whole line supersedes any
    /// rot. Before a partial write, latent single-bit errors are healed
    /// so the re-encode after the merge cannot bless corrupted neighbor
    /// bytes as clean, and an uncorrectable line stays poisoned.
    pub fn pre_write(&mut self, base: u64, line: &mut Line, check: &LineCheck, whole: bool) {
        if whole {
            self.poisoned.remove(&base);
        } else if let ReadOutcome::Corrected { bits } = self.heal(base, line, *line, check) {
            self.counters.demand_corrected += u64::from(bits);
        }
    }

    /// Verifies one line of a demand read: the line as sensed and
    /// corrected (in the returned copy only; the patrol scrubber heals
    /// the array) and its verdict. A poisoned line reads uncorrectable.
    pub fn verify_read(
        &mut self,
        base: u64,
        line: &Line,
        check: &LineCheck,
    ) -> (Line, ReadOutcome) {
        let mut sensed = self.sense(base, line);
        let mut outcome = decode_line(&mut sensed, check);
        if outcome.is_uncorrectable() {
            self.poisoned.insert(base);
        } else if self.poisoned.contains(&base) {
            outcome = ReadOutcome::Uncorrectable;
        }
        if let ReadOutcome::Corrected { bits } = outcome {
            self.account(base, bits);
        }
        (sensed, outcome)
    }

    /// Charges a demand read's merged verdict to the counters.
    pub fn count_read(&mut self, outcome: ReadOutcome) {
        match outcome {
            ReadOutcome::Corrected { bits } => self.counters.demand_corrected += u64::from(bits),
            ReadOutcome::Uncorrectable => self.counters.demand_uncorrectable += 1,
            ReadOutcome::Clean => {}
        }
    }

    /// Maintenance-path read of one full line through the service
    /// interface (FSI → I²C on ConTutto, paper §3.4): the line as
    /// sensed and corrected in a private copy, and whether it must
    /// travel as poison. Charges no counters and heals nothing.
    pub fn sideband_read(&self, base: u64, line: &Line, check: &LineCheck) -> (Line, bool) {
        let mut sensed = self.sense(base, line);
        let poisoned = decode_line(&mut sensed, check).is_uncorrectable();
        (sensed, poisoned || self.poisoned.contains(&base))
    }

    /// Marks a line the sideband wrote: unlike a demand write, it can
    /// deposit the line *with* its poison marker, since evacuation must
    /// move rot as rot, never launder it into clean data.
    pub fn sideband_write(&mut self, base: u64, poison: bool) {
        if poison {
            self.poisoned.insert(base);
        } else {
            self.poisoned.remove(&base);
        }
    }

    /// Resets contents-derived state after the array lost power:
    /// per-page accumulation and poison describe data that no longer
    /// exists. Retirement records and the fault plan (physical
    /// defects) survive.
    pub fn on_power_loss(&mut self) {
        self.page_correctable.clear();
        self.poisoned.clear();
    }

    fn account(&mut self, line_base: u64, bits: u32) {
        let page = line_base / PAGE_BYTES * PAGE_BYTES;
        if !self.retired.contains(&page) {
            *self.page_correctable.entry(page).or_insert(0) += bits;
        }
    }

    /// One patrol-scrub pass over `pages`, each a base address and its
    /// lines in order with their check bytes (zero simulated time):
    /// heals latent single-bit errors **in the array**, and retires a
    /// page once its correctable count reaches [`DEFAULT_RETIRE_THRESHOLD`].
    pub fn scrub<'a, L>(&mut self, pages: impl Iterator<Item = (u64, L)>) -> ScrubReport
    where
        L: Iterator<Item = (&'a mut Line, &'a LineCheck)>,
    {
        let mut report = ScrubReport::default();
        for (page, lines) in pages {
            if self.retired.contains(&page) {
                continue;
            }
            for (i, (line, check)) in lines.enumerate() {
                let base = page + (i * ECC_LINE_BYTES) as u64;
                report.lines_scanned += 1;
                // Stuck cells re-assert on the next read after a heal,
                // which is how they accumulate toward retirement.
                match self.heal(base, line, self.sense(base, line), check) {
                    ReadOutcome::Clean => {}
                    ReadOutcome::Corrected { bits } => report.corrected += u64::from(bits),
                    ReadOutcome::Uncorrectable => report.uncorrectable += 1,
                }
            }
            let count = self.page_correctable.get(&page).copied().unwrap_or(0);
            if count >= DEFAULT_RETIRE_THRESHOLD {
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

/// The RAS state after the array's list of checked lines. The image
/// keeps a retire-threshold field, which holds
/// [`DEFAULT_RETIRE_THRESHOLD`].
impl Persist for MediaRas {
    fn persist(&self, out: &mut Vec<u8>) {
        self.injector.persist(out);
        self.page_correctable.persist(out);
        self.retired.persist(out);
        self.poisoned.persist(out);
        DEFAULT_RETIRE_THRESHOLD.persist(out);
        self.counters.persist(out);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let injector = Option::<MediaFaultInjector>::restore(r)?;
        let page_correctable = BTreeMap::restore(r)?;
        let retired = BTreeSet::restore(r)?;
        let poisoned = BTreeSet::restore(r)?;
        if r.u32()? != DEFAULT_RETIRE_THRESHOLD {
            return Err(RestoreError::Malformed {
                context: "retire threshold other than 16",
            });
        }
        Ok(MediaRas {
            injector,
            page_correctable,
            retired,
            poisoned,
            counters: RasCounters::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_retire_threshold_other_than_16_is_refused() {
        let mut img = Vec::new();
        MediaRas::default().persist(&mut img);
        // No injector (1 byte), then three empty maps (8 bytes each).
        let at = 1 + 3 * 8;
        assert_eq!(img[at..at + 4], DEFAULT_RETIRE_THRESHOLD.to_le_bytes());
        assert!(MediaRas::restore(&mut SnapReader::new(&img)).is_ok());
        for threshold in [0u32, 3, 15, 17, u32::MAX] {
            img[at..at + 4].copy_from_slice(&threshold.to_le_bytes());
            let err = MediaRas::restore(&mut SnapReader::new(&img)).unwrap_err();
            assert!(
                matches!(err, RestoreError::Malformed { .. }),
                "{threshold}: {err:?}"
            );
        }
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
}
