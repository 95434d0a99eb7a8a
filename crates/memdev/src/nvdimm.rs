//! NVDIMM-N model: DRAM with a flash backup engine.
//!
//! Paper §4.2(iii): "NVDIMM refers to FLASH-backed DRAM DIMMs which
//! combine the performance of DRAM with non-volatility of FLASH. The
//! main idea is to use DRAM for memory operations and copy the data
//! over to FLASH when the power is removed; a backup power source such
//! as a battery or a super-cap is used to support the copying
//! operation. The copy is performed by the NVDIMM itself and does not
//! need the FPGA or the CPU to stay powered up."
//!
//! Normal operation is DRAM-speed. [`NvdimmN::power_loss`] triggers
//! the save (DRAM → flash) if the supercap is armed; on restore the
//! contents come back. The save sequence for DDR3 is vendor-specific
//! (paper §4.2: "the sequence is vendor specific in the case of
//! DDR3"), which our firmware model has to know about.

use std::fmt;

use contutto_sim::snapshot::{self, Persist, SnapReader};
use contutto_sim::{SimTime, TraceEvent, Tracer};

use crate::array::MediaArray;
use crate::dram::{DdrTimings, Dram};
use crate::ecc::{ReadResult, ScrubReport};
use crate::flash::{FlashConfig, NandFlash};
use crate::traits::{MediaKind, MemoryDevice};

/// State of the NVDIMM save/restore engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveState {
    /// Normal operation; no valid image in flash.
    Idle,
    /// A power-loss save is in progress until the given time.
    Saving {
        /// When the save completes.
        done_at: SimTime,
    },
    /// A valid image sits in flash (power was lost, save completed).
    Saved,
    /// Power loss hit with the supercap disarmed: contents lost.
    Lost,
}

/// How the save/restore handshake is triggered (paper §4.2(iii):
/// "The sequence of operations to be performed to persist DRAM are
/// being standardized through JEDEC for DDR4; the sequence is vendor
/// specific in the case of DDR3").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveSequence {
    /// The JEDEC-standardized DDR4 sequence.
    JedecDdr4,
    /// A vendor-specific DDR3 sequence, identified by vendor code.
    VendorDdr3(u8),
}

impl Persist for SaveState {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            SaveState::Idle => out.push(0),
            SaveState::Saving { done_at } => {
                out.push(1);
                done_at.persist(out);
            }
            SaveState::Saved => out.push(2),
            SaveState::Lost => out.push(3),
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, snapshot::RestoreError> {
        Ok(match r.u8()? {
            0 => SaveState::Idle,
            1 => SaveState::Saving {
                done_at: SimTime::restore(r)?,
            },
            2 => SaveState::Saved,
            3 => SaveState::Lost,
            _ => {
                return Err(snapshot::RestoreError::Malformed {
                    context: "save state discriminant",
                })
            }
        })
    }
}

impl Persist for SaveSequence {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            SaveSequence::JedecDdr4 => out.push(0),
            SaveSequence::VendorDdr3(vendor) => {
                out.push(1);
                vendor.persist(out);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, snapshot::RestoreError> {
        match r.u8()? {
            0 => Ok(SaveSequence::JedecDdr4),
            1 => Ok(SaveSequence::VendorDdr3(r.u8()?)),
            _ => Err(snapshot::RestoreError::Malformed {
                context: "save sequence discriminant",
            }),
        }
    }
}

/// Why a power-restore failed to bring the data back. Either way the
/// DIMM refuses to present the image as valid: the failure is loud,
/// never silent corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// Power returned before the save engine finished; the flash
    /// image is torn (part old, part new) and must not be used.
    TornSave {
        /// When power came back.
        restored_at: SimTime,
        /// When the save would have completed.
        save_done_at: SimTime,
    },
    /// The restored image failed its integrity check (flash bit rot,
    /// bad blocks, or corruption while powered off).
    CrcMismatch {
        /// CRC recorded when the save completed.
        expected: u32,
        /// CRC of what actually came back from flash.
        actual: u32,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::TornSave {
                restored_at,
                save_done_at,
            } => write!(
                f,
                "torn save: power restored at {restored_at} but the save ran until {save_done_at}"
            ),
            RestoreError::CrcMismatch { expected, actual } => write!(
                f,
                "restore CRC mismatch: saved {expected:#010x}, restored {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Energy the save engine draws from the supercap per 4 KiB flash page
/// streamed, in nanojoules. Deterministic integer accounting: a save of
/// `capacity / 4096` pages needs exactly that many multiples of this.
pub const SAVE_COST_PER_PAGE_NJ: u64 = 50_000;

/// Bytes per flash page the save engine streams (and charges for).
const SAVE_PAGE_BYTES: u64 = 4096;

/// A flash-backed DRAM DIMM (NVDIMM-N).
#[derive(Debug)]
pub struct NvdimmN {
    dram: Dram,
    flash: NandFlash,
    armed: bool,
    state: SaveState,
    /// The handshake this DIMM expects.
    sequence: SaveSequence,
    /// Flash streaming bandwidth during save/restore, bytes/sec.
    backup_bandwidth: f64,
    /// CRC of the last saved image, recorded when the save completed.
    save_crc: Option<u32>,
    /// Configured supercap energy, nanojoules (`None` = ideal supercap,
    /// never exhausted — the default, matching a healthy part).
    supercap_budget_nj: Option<u64>,
    /// Energy left in the supercap right now (only meaningful with a
    /// finite budget; recharged when power returns).
    supercap_remaining_nj: u64,
    /// Lifetime energy drawn by the save engine.
    supercap_spent_nj: u64,
    /// The last save ran out of supercap energy mid-stream: the flash
    /// image is truncated and must never be restored, no matter how
    /// much wall time passes before power returns.
    save_truncated: bool,
    tracer: Tracer,
}

impl NvdimmN {
    /// Creates an NVDIMM-N of `capacity` bytes with an armed supercap.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not block-aligned for the
    /// internal flash (256 KiB).
    pub fn new(capacity: u64, timings: DdrTimings) -> Self {
        NvdimmN {
            dram: Dram::new(capacity, timings),
            flash: NandFlash::new(capacity, FlashConfig::slc()),
            armed: true,
            state: SaveState::Idle,
            // DDR3 parts in the paper's era: vendor-specific handshake.
            sequence: SaveSequence::VendorDdr3(0x2C),
            backup_bandwidth: 400e6, // 400 MB/s save engine
            save_crc: None,
            supercap_budget_nj: None,
            supercap_remaining_nj: u64::MAX,
            supercap_spent_nj: 0,
            save_truncated: false,
            tracer: Tracer::off(),
        }
    }

    /// Gives the supercap a finite energy budget in nanojoules. The
    /// save engine charges [`SAVE_COST_PER_PAGE_NJ`] per 4 KiB page
    /// streamed to flash; running out mid-save leaves a truncated
    /// image that every later restore rejects as a torn save.
    pub fn set_supercap_budget_nj(&mut self, nj: u64) {
        self.supercap_budget_nj = Some(nj);
        self.supercap_remaining_nj = nj;
    }

    /// Energy left in the supercap (`None` while the supercap is
    /// ideal/unbudgeted).
    pub fn supercap_remaining_nj(&self) -> Option<u64> {
        self.supercap_budget_nj.map(|_| self.supercap_remaining_nj)
    }

    /// Lifetime energy drawn by the save engine, nanojoules.
    pub fn supercap_spent_nj(&self) -> u64 {
        self.supercap_spent_nj
    }

    /// Energy a full save of this DIMM needs, nanojoules.
    pub fn save_energy_required_nj(&self) -> u64 {
        self.dram.capacity_bytes().div_ceil(SAVE_PAGE_BYTES) * SAVE_COST_PER_PAGE_NJ
    }

    /// Routes save-engine trace events into a shared tracer.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The DRAM side's cell array (the flash holds only the backup
    /// image).
    pub fn array(&self) -> &MediaArray {
        self.dram.array()
    }

    /// Mutable access to the DRAM side's cell array.
    pub fn array_mut(&mut self) -> &mut MediaArray {
        self.dram.array_mut()
    }

    /// Whether a power cut **right now** would preserve the contents.
    ///
    /// This is the paper's point about "non-trivial firmware/BIOS
    /// support": non-volatile media (`kind().is_nonvolatile()`) is a
    /// static property, but actual durability depends on the supercap
    /// being armed and the save engine's state — a disarmed DIMM, or
    /// one still mid-save, is volatile no matter what its media says.
    pub fn is_durable(&self, now: SimTime) -> bool {
        if self.save_truncated {
            return false;
        }
        match self.state {
            SaveState::Lost => false,
            SaveState::Saving { done_at } => now >= done_at,
            SaveState::Saved => true,
            SaveState::Idle => self.armed,
        }
    }

    /// Fault-injection hook for tests: corrupts one byte of the saved
    /// flash image (retention loss while powered off). The next
    /// restore fails its CRC check instead of returning bad data.
    pub fn corrupt_saved_image(&mut self, addr: u64, mask: u8) {
        self.flash.corrupt_byte(addr, mask);
    }

    /// The save handshake this DIMM expects. Firmware must issue a
    /// matching sequence when arming (see [`NvdimmN::arm_with_sequence`]).
    pub fn save_sequence(&self) -> SaveSequence {
        self.sequence
    }

    /// Arms the supercap using an explicit handshake. A mismatched
    /// sequence leaves the DIMM disarmed — the silent failure mode the
    /// paper's "non-trivial firmware/BIOS support" exists to prevent.
    pub fn arm_with_sequence(&mut self, seq: SaveSequence) -> bool {
        self.armed = seq == self.sequence;
        self.armed
    }

    /// Whether the backup power source is armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Arms or disarms the supercap (firmware control).
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Current save-engine state.
    pub fn save_state(&self) -> SaveState {
        self.state
    }

    /// Duration of a full save or restore at the engine bandwidth.
    pub fn backup_duration(&self) -> SimTime {
        let secs = self.dram.capacity_bytes() as f64 / self.backup_bandwidth;
        SimTime::from_ps((secs * 1e12) as u64)
    }

    /// Power is cut. If armed, the on-DIMM engine copies DRAM to flash
    /// (no CPU/FPGA involvement); otherwise contents are lost.
    /// Returns the time the DIMM is quiescent.
    pub fn power_loss(&mut self, now: SimTime) -> SimTime {
        // A redundant cut — power glitching again while the engine is
        // still saving, or after a save completed but before restore —
        // must not re-stream the now-dark DRAM over the valid flash
        // image: that would replace saved data with zeroes behind a
        // clean CRC, a silent loss no restore check could catch.
        match self.state {
            SaveState::Saving { done_at } => return done_at.max(now),
            SaveState::Saved => return now,
            SaveState::Idle | SaveState::Lost => {}
        }
        if self.armed {
            let done = now + self.backup_duration();
            // Functionally: stream the DRAM image into flash, hashing
            // as it goes so restore can prove the image came back.
            // Every 4 KiB page streamed draws SAVE_COST_PER_PAGE_NJ
            // from the supercap; an exhausted supercap stops the
            // engine mid-stream, leaving a truncated image.
            let cap = self.dram.capacity_bytes();
            let mut buf = vec![0u8; 64 * 1024];
            let mut off = 0u64;
            let mut crc = 0u32;
            while off < cap {
                let n = (cap - off).min(buf.len() as u64) as usize;
                if self.supercap_budget_nj.is_some() {
                    let cost = (n as u64).div_ceil(SAVE_PAGE_BYTES) * SAVE_COST_PER_PAGE_NJ;
                    if self.supercap_remaining_nj < cost {
                        self.supercap_spent_nj += self.supercap_remaining_nj;
                        self.supercap_remaining_nj = 0;
                        self.save_truncated = true;
                        self.tracer.record(TraceEvent::SaveEnergyExhausted {
                            saved_bytes: off,
                            capacity_bytes: cap,
                        });
                        break;
                    }
                    self.supercap_remaining_nj -= cost;
                    self.supercap_spent_nj += cost;
                }
                self.dram.array().peek(off, &mut buf[..n]);
                crc = snapshot::crc32_update(crc, &buf[..n]);
                self.flash.write(now, off, &buf[..n]);
                off += n as u64;
            }
            // A truncated image has no valid CRC: the truncation marker
            // itself is what makes the next restore fail loudly.
            self.save_crc = if self.save_truncated { None } else { Some(crc) };
            self.dram.power_loss();
            self.state = SaveState::Saving { done_at: done };
            done
        } else {
            self.dram.power_loss();
            self.state = SaveState::Lost;
            now
        }
    }

    /// Power returns. If a save completed, the image is restored from
    /// flash into DRAM and verified against the save-time CRC. Returns
    /// the time the DIMM is usable.
    ///
    /// # Errors
    ///
    /// * [`RestoreError::TornSave`] if power returns mid-save; the
    ///   torn image is discarded (state becomes [`SaveState::Lost`]).
    /// * [`RestoreError::CrcMismatch`] if the image fails its
    ///   integrity check; likewise discarded.
    pub fn power_restore(&mut self, now: SimTime) -> Result<SimTime, RestoreError> {
        if let Some(budget) = self.supercap_budget_nj {
            // Power is back: the supercap recharges for the next cut.
            self.supercap_remaining_nj = budget;
        }
        if self.save_truncated {
            // The engine died mid-save: the image is torn no matter how
            // long power stayed off. `save_done_at` reports when a full
            // save would have completed.
            let done_at = match self.state {
                SaveState::Saving { done_at } => done_at,
                _ => now,
            };
            self.tracer.record(TraceEvent::SaveTorn {
                restored_ps: now.as_ps(),
                save_done_ps: done_at.as_ps(),
            });
            self.state = SaveState::Lost;
            self.save_crc = None;
            self.save_truncated = false;
            return Err(RestoreError::TornSave {
                restored_at: now,
                save_done_at: done_at,
            });
        }
        match self.state {
            SaveState::Saving { done_at } if now < done_at => {
                self.tracer.record(TraceEvent::SaveTorn {
                    restored_ps: now.as_ps(),
                    save_done_ps: done_at.as_ps(),
                });
                self.state = SaveState::Lost;
                self.save_crc = None;
                Err(RestoreError::TornSave {
                    restored_at: now,
                    save_done_at: done_at,
                })
            }
            SaveState::Saving { .. } | SaveState::Saved => self.restore_image(now),
            SaveState::Idle | SaveState::Lost => {
                self.state = SaveState::Idle;
                Ok(now)
            }
        }
    }

    contutto_sim::state_fields! {
        /// Serializes all dynamic state: both media sides (DRAM contents
        /// plus the flash backup image), the save engine state machine,
        /// including an in-flight or completed flash save, and the
        /// supercap accounting. The attached tracer is a wiring concern
        /// and is not part of the image.
        pub {
            state dram,
            state flash,
            armed,
            state,
            sequence,
            save_crc,
            supercap_budget_nj,
            supercap_remaining_nj,
            supercap_spent_nj,
            save_truncated,
        }
    }

    fn restore_image(&mut self, now: SimTime) -> Result<SimTime, RestoreError> {
        let cap = self.dram.capacity_bytes();
        let mut buf = vec![0u8; 64 * 1024];
        let mut off = 0u64;
        let mut actual = 0u32;
        while off < cap {
            let n = (cap - off).min(buf.len() as u64) as usize;
            self.flash.read(now, off, &mut buf[..n]);
            actual = snapshot::crc32_update(actual, &buf[..n]);
            self.dram.array_mut().poke(off, &buf[..n]);
            off += n as u64;
        }
        if let Some(expected) = self.save_crc {
            if expected != actual {
                self.dram.power_loss();
                self.state = SaveState::Lost;
                self.save_crc = None;
                return Err(RestoreError::CrcMismatch { expected, actual });
            }
        }
        self.state = SaveState::Idle;
        self.save_crc = None;
        Ok(now + self.backup_duration())
    }
}

impl MemoryDevice for NvdimmN {
    fn capacity_bytes(&self) -> u64 {
        self.dram.capacity_bytes()
    }

    fn kind(&self) -> MediaKind {
        MediaKind::NvdimmN
    }

    /// DRAM-speed reads (the flash is only used for backup).
    fn read(&mut self, now: SimTime, addr: u64, buf: &mut [u8]) -> ReadResult {
        self.dram.read(now, addr, buf)
    }

    /// DRAM-speed writes.
    fn write(&mut self, now: SimTime, addr: u64, data: &[u8]) -> SimTime {
        self.dram.write(now, addr, data)
    }

    /// Patrol scrub runs over the DRAM side.
    fn scrub_pass(&mut self, now: SimTime) -> ScrubReport {
        self.dram.scrub_pass(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvdimm() -> NvdimmN {
        // Small capacity keeps the functional save/restore quick.
        NvdimmN::new(1 << 20, DdrTimings::ddr3_1600())
    }

    #[test]
    fn operates_at_dram_speed() {
        let mut nv = nvdimm();
        let mut plain = Dram::new(1 << 20, DdrTimings::ddr3_1600());
        let mut buf = [0u8; 128];
        let a = nv.read(SimTime::ZERO, 0, &mut buf);
        let b = plain.read(SimTime::ZERO, 0, &mut buf);
        assert_eq!(a, b);
    }

    #[test]
    fn armed_power_loss_preserves_contents() {
        let mut nv = nvdimm();
        nv.write(SimTime::ZERO, 4096, &[0xCD; 256]);
        let quiesced = nv.power_loss(SimTime::from_ms(1));
        assert!(matches!(nv.save_state(), SaveState::Saving { .. }));
        let usable = nv
            .power_restore(quiesced + SimTime::from_ms(1))
            .expect("clean restore");
        assert!(usable > quiesced);
        let mut buf = [0u8; 256];
        nv.read(usable, 4096, &mut buf);
        assert_eq!(buf, [0xCD; 256]);
        assert_eq!(nv.save_state(), SaveState::Idle);
    }

    #[test]
    fn disarmed_power_loss_loses_contents() {
        let mut nv = nvdimm();
        nv.set_armed(false);
        nv.write(SimTime::ZERO, 0, &[0xEE; 64]);
        nv.power_loss(SimTime::from_ms(1));
        assert_eq!(nv.save_state(), SaveState::Lost);
        let t = nv
            .power_restore(SimTime::from_ms(2))
            .expect("nothing saved");
        let mut buf = [1u8; 64];
        nv.read(t, 0, &mut buf);
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn early_restore_is_a_torn_image() {
        let mut nv = nvdimm();
        let tracer = Tracer::ring(16);
        nv.attach_tracer(tracer.clone());
        nv.write(SimTime::ZERO, 0, &[1; 64]);
        let done = nv.power_loss(SimTime::from_ms(1));
        assert!(done > SimTime::from_ms(1));
        // Power back too early: typed error, torn image discarded.
        let err = nv.power_restore(SimTime::from_ms(1)).unwrap_err();
        assert_eq!(
            err,
            RestoreError::TornSave {
                restored_at: SimTime::from_ms(1),
                save_done_at: done,
            }
        );
        assert!(err.to_string().contains("torn save"));
        assert_eq!(nv.save_state(), SaveState::Lost);
        assert!(!nv.is_durable(SimTime::from_ms(1)));
        assert_eq!(
            tracer.count_matching(|e| matches!(e, TraceEvent::SaveTorn { .. })),
            1
        );
        // The DIMM recovers as empty, never presenting torn data.
        let t = nv
            .power_restore(SimTime::from_ms(2))
            .expect("empty restart");
        let mut buf = [9u8; 64];
        nv.read(t, 0, &mut buf);
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn corrupted_save_image_fails_restore_loudly() {
        let mut nv = nvdimm();
        nv.write(SimTime::ZERO, 4096, &[0x5A; 128]);
        let quiesced = nv.power_loss(SimTime::from_ms(1));
        // Bit rot in the flash image while powered off.
        nv.corrupt_saved_image(4100, 0x10);
        let err = nv
            .power_restore(quiesced + SimTime::from_ms(1))
            .unwrap_err();
        assert!(
            matches!(err, RestoreError::CrcMismatch { expected, actual } if expected != actual),
            "got {err:?}"
        );
        assert!(err.to_string().contains("CRC mismatch"));
        // Loud loss, not silent corruption: contents are gone.
        assert_eq!(nv.save_state(), SaveState::Lost);
        let t = nv
            .power_restore(SimTime::from_ms(10))
            .expect("empty restart");
        let mut buf = [9u8; 128];
        nv.read(t, 4096, &mut buf);
        assert_eq!(buf, [0u8; 128]);
    }

    #[test]
    fn durability_tracks_supercap_and_save_state() {
        let mut nv = nvdimm();
        // Armed and idle: a cut now would be saved.
        assert!(nv.is_durable(SimTime::ZERO));
        // Disarmed: volatile even though the media is non-volatile.
        nv.set_armed(false);
        assert!(nv.kind().is_nonvolatile());
        assert!(!nv.is_durable(SimTime::ZERO));
        nv.set_armed(true);
        // Mid-save: not durable until the engine finishes.
        let done = nv.power_loss(SimTime::from_ms(1));
        assert!(!nv.is_durable(SimTime::from_ms(1)));
        assert!(nv.is_durable(done));
        nv.power_restore(done).expect("restore");
        assert!(nv.is_durable(done));
        // Lost: never durable.
        nv.set_armed(false);
        nv.power_loss(done + SimTime::from_ms(1));
        assert_eq!(nv.save_state(), SaveState::Lost);
        assert!(!nv.is_durable(done + SimTime::from_ms(2)));
    }

    #[test]
    fn double_power_cut_does_not_destroy_the_save_image() {
        let mut nv = nvdimm();
        nv.write(SimTime::ZERO, 4096, &[0xA5; 128]);
        let done = nv.power_loss(SimTime::from_ms(1));
        // Power glitches: a second cut lands while the engine is still
        // streaming. It must not restart the save from the now-dark
        // DRAM — the in-flight image is all the data there is.
        let quiesced = nv.power_loss(SimTime::from_ms(2));
        assert_eq!(quiesced, done, "the original save window stands");
        assert!(matches!(nv.save_state(), SaveState::Saving { .. }));
        let usable = nv.power_restore(done).expect("image intact");
        let mut buf = [0u8; 128];
        nv.read(usable, 4096, &mut buf);
        assert_eq!(buf, [0xA5; 128], "saved data survived the glitch");
        // And again after the save completed but before any restore.
        nv.write(usable, 4096, &[0x3C; 128]);
        let done2 = nv.power_loss(usable + SimTime::from_ms(1));
        let _ = nv.power_loss(done2 + SimTime::from_ms(1));
        let usable2 = nv.power_restore(done2 + SimTime::from_ms(2)).expect("ok");
        nv.read(usable2, 4096, &mut buf);
        assert_eq!(buf, [0x3C; 128]);
    }

    #[test]
    fn snapshot_mid_save_restores_the_whole_engine() {
        let mut nv = nvdimm();
        nv.set_supercap_budget_nj(nv.save_energy_required_nj());
        nv.write(SimTime::ZERO, 4096, &[0x9D; 128]);
        let done = nv.power_loss(SimTime::from_ms(1));
        assert!(matches!(nv.save_state(), SaveState::Saving { .. }));

        // Snapshot while the save engine is still streaming.
        let mut img = Vec::new();
        nv.snapshot_state(&mut img);
        let mut fresh = nvdimm();
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();
        assert_eq!(fresh.save_state(), nv.save_state());
        assert_eq!(fresh.supercap_spent_nj(), nv.supercap_spent_nj());
        assert_eq!(fresh.supercap_remaining_nj(), nv.supercap_remaining_nj());

        // Both copies complete the power cycle identically.
        let a = nv.power_restore(done).expect("original restores");
        let b = fresh.power_restore(done).expect("restored copy restores");
        assert_eq!(a, b);
        let mut buf_a = [0u8; 128];
        let mut buf_b = [0u8; 128];
        nv.read(a, 4096, &mut buf_a);
        fresh.read(b, 4096, &mut buf_b);
        assert_eq!(buf_a, [0x9D; 128]);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn snapshot_preserves_truncated_save_marker() {
        let mut nv = nvdimm();
        nv.set_supercap_budget_nj(SAVE_COST_PER_PAGE_NJ * 20);
        nv.write(SimTime::ZERO, 0, &[0x55; 64]);
        let done = nv.power_loss(SimTime::from_ms(1));

        let mut img = Vec::new();
        nv.snapshot_state(&mut img);
        let mut fresh = nvdimm();
        fresh.restore_state(&mut SnapReader::new(&img)).unwrap();

        // The truncation marker travelled with the image: the restored
        // copy also refuses to present the torn flash image.
        let err = fresh
            .power_restore(done + SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, RestoreError::TornSave { .. }), "got {err:?}");
    }

    #[test]
    fn snapshot_restore_rejects_bad_discriminant() {
        let nv = nvdimm();
        let mut img = Vec::new();
        nv.snapshot_state(&mut img);
        // The save-state discriminant is the byte right after the
        // armed flag at the tail of the two embedded device images;
        // corrupt the final byte (save_truncated bool) instead, which
        // is position-stable.
        let last = img.len() - 1;
        img[last] = 7;
        let mut fresh = nvdimm();
        let err = fresh.restore_state(&mut SnapReader::new(&img)).unwrap_err();
        assert!(
            matches!(err, snapshot::RestoreError::Malformed { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn backup_duration_scales_with_capacity() {
        let small = NvdimmN::new(1 << 20, DdrTimings::ddr3_1600());
        let large = NvdimmN::new(4 << 20, DdrTimings::ddr3_1600());
        assert_eq!(
            large.backup_duration().as_ps(),
            small.backup_duration().as_ps() * 4
        );
    }

    #[test]
    fn kind_is_nonvolatile() {
        assert!(nvdimm().kind().is_nonvolatile());
    }

    #[test]
    fn starved_supercap_truncates_save_into_a_genuine_torn_image() {
        let mut nv = nvdimm();
        let tracer = Tracer::ring(16);
        nv.attach_tracer(tracer.clone());
        // 1 MiB = 256 pages; a full save needs 256 x 50_000 nJ. Give it
        // enough for one 64 KiB chunk (16 pages) and change.
        nv.set_supercap_budget_nj(SAVE_COST_PER_PAGE_NJ * 20);
        nv.write(SimTime::ZERO, 0, &[0x11; 128]);
        nv.write(SimTime::ZERO, 512 * 1024, &[0x22; 128]);
        let done = nv.power_loss(SimTime::from_ms(1));
        assert_eq!(
            tracer.count_matching(|e| matches!(e, TraceEvent::SaveEnergyExhausted { .. })),
            1
        );
        // Even long after the nominal save window, the DIMM is not
        // durable and the restore is a typed torn save — the engine
        // died mid-stream, it never finished.
        assert!(!nv.is_durable(done + SimTime::from_secs(1)));
        let err = nv.power_restore(done + SimTime::from_secs(1)).unwrap_err();
        assert!(matches!(err, RestoreError::TornSave { .. }), "got {err:?}");
        assert_eq!(nv.save_state(), SaveState::Lost);
        // Loud loss, not silent corruption: the partial image is never
        // presented; the DIMM comes back empty.
        let t = nv
            .power_restore(done + SimTime::from_secs(2))
            .expect("empty restart");
        let mut buf = [9u8; 128];
        nv.read(t, 0, &mut buf);
        assert_eq!(buf, [0u8; 128]);
    }

    #[test]
    fn generous_supercap_saves_cleanly_and_accounts_energy() {
        let mut nv = nvdimm();
        nv.set_supercap_budget_nj(nv.save_energy_required_nj());
        nv.write(SimTime::ZERO, 4096, &[0x77; 128]);
        let done = nv.power_loss(SimTime::from_ms(1));
        assert_eq!(nv.supercap_spent_nj(), nv.save_energy_required_nj());
        assert_eq!(nv.supercap_remaining_nj(), Some(0));
        assert!(nv.is_durable(done));
        let usable = nv.power_restore(done).expect("clean restore");
        // Power back: the supercap recharges for the next cut.
        assert_eq!(
            nv.supercap_remaining_nj(),
            Some(nv.save_energy_required_nj())
        );
        let mut buf = [0u8; 128];
        nv.read(usable, 4096, &mut buf);
        assert_eq!(buf, [0x77; 128]);
    }

    #[test]
    fn save_energy_required_scales_with_capacity() {
        let small = NvdimmN::new(1 << 20, DdrTimings::ddr3_1600());
        let large = NvdimmN::new(4 << 20, DdrTimings::ddr3_1600());
        assert_eq!(small.save_energy_required_nj(), 256 * SAVE_COST_PER_PAGE_NJ);
        assert_eq!(
            large.save_energy_required_nj(),
            small.save_energy_required_nj() * 4
        );
    }

    #[test]
    fn mismatched_arm_sequence_refuses_and_leaves_save_state_untouched() {
        let mut nv = nvdimm();
        nv.write(SimTime::ZERO, 0, &[0xB7; 128]);
        // A save is in flight when firmware fumbles the handshake.
        let done = nv.power_loss(SimTime::from_ms(1));
        let before = nv.save_state();
        assert_eq!(before, SaveState::Saving { done_at: done });
        assert!(!nv.arm_with_sequence(SaveSequence::JedecDdr4));
        assert!(!nv.is_armed());
        // The refusal must not clobber the in-flight save image.
        assert_eq!(nv.save_state(), before);
        // Re-arming with the right sequence and restoring after the
        // save window brings the original data back intact.
        let seq = nv.save_sequence();
        assert!(nv.arm_with_sequence(seq));
        let usable = nv.power_restore(done).expect("save image still valid");
        let mut buf = [0u8; 128];
        nv.read(usable, 0, &mut buf);
        assert_eq!(buf, [0xB7; 128]);
    }

    #[test]
    fn wrong_save_sequence_leaves_dimm_disarmed() {
        let mut nv = nvdimm();
        // Firmware issues the DDR4 JEDEC sequence at a DDR3 part:
        assert!(!nv.arm_with_sequence(SaveSequence::JedecDdr4));
        nv.write(SimTime::ZERO, 0, &[9u8; 64]);
        nv.power_loss(SimTime::from_ms(1));
        assert_eq!(nv.save_state(), SaveState::Lost, "data silently lost");
        // The matching vendor sequence arms it.
        let seq = nv.save_sequence();
        assert!(nv.arm_with_sequence(seq));
        assert!(nv.is_armed());
    }
}
