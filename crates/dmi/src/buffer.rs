//! The buffer-side command interface.
//!
//! A DMI memory buffer (Centaur ASIC or ConTutto FPGA) is a *slave*:
//! it consumes downstream payloads, executes the tagged commands
//! against its memory, and produces upstream payloads (read data,
//! dones). [`DmiBuffer`] is the contract the channel driver uses to
//! plug either buffer implementation behind a [`crate::LinkEndpoint`].
//!
//! Timing contract: `push_downstream` is called when a payload clears
//! the buffer's receive PHY + MBI; the buffer schedules internal work
//! and makes responses available from `pull_upstream` no earlier than
//! their completion times. Each `pull_upstream` call corresponds to
//! one upstream frame-slot grant from the arbiter. Idle frames are
//! never delivered, and idle slots before
//! [`DmiBuffer::next_upstream_ready`] may be skipped without a
//! `pull_upstream` call.
//!
//! [`BufferFrontEnd`] is the part of that protocol every buffer shares:
//! the per-tag write engines and the upstream response queue.

use std::collections::VecDeque;

use contutto_sim::snapshot::{Persist, RestoreError, SnapReader};
use contutto_sim::{MetricsRegistry, SimTime, Tracer};

use crate::command::{CacheLine, Tag, NUM_TAGS};
use crate::frame::{
    line_to_upstream_beats, CommandHeader, DownstreamPayload, LineAssembler, UpstreamPayload,
};

/// What a buffer's media held when power came back.
///
/// One value summarises the whole buffer: the *worst* per-device
/// outcome wins, so a single torn DIMM marks the buffer `TornSave`
/// even if its siblings restored cleanly. Ordering of the variants
/// encodes that severity (later = worse), which lets aggregation be
/// a plain `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PowerRestoreOutcome {
    /// Volatile media: contents were lost by design, nothing to
    /// restore and nothing to report. The reset state is the
    /// architected post-power-on state.
    Volatile,
    /// Nonvolatile media came back with its pre-cut contents intact
    /// (MRAM held state natively, or an NVDIMM image restored clean).
    Restored,
    /// An NVDIMM save image was incomplete — the supercap ran out (or
    /// the cut landed) mid-save. Detected and reported, contents
    /// discarded: a typed data loss, never silent corruption.
    TornSave,
    /// A save image existed but failed its integrity check (CRC
    /// mismatch — flash rot while powered off). Typed data loss.
    CorruptImage,
    /// No usable image at all: the DIMM was disarmed when power cut,
    /// or the image was already consumed. Typed data loss.
    Lost,
}

impl PowerRestoreOutcome {
    /// `true` when the outcome is a typed data loss that firmware must
    /// surface (machine-check + loss report), as opposed to a clean
    /// restore or architected volatility.
    pub fn is_data_loss(self) -> bool {
        matches!(
            self,
            PowerRestoreOutcome::TornSave
                | PowerRestoreOutcome::CorruptImage
                | PowerRestoreOutcome::Lost
        )
    }
}

impl std::fmt::Display for PowerRestoreOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerRestoreOutcome::Volatile => write!(f, "volatile"),
            PowerRestoreOutcome::Restored => write!(f, "restored"),
            PowerRestoreOutcome::TornSave => write!(f, "torn-save"),
            PowerRestoreOutcome::CorruptImage => write!(f, "corrupt-image"),
            PowerRestoreOutcome::Lost => write!(f, "lost"),
        }
    }
}

/// A media fault burst described from the channel's side of the DMI
/// link, mirroring the memdev fault-injector knobs without a
/// dependency on that crate (the dmi crate sits below the device
/// models in the layering). Buffers that own fault-capable media
/// translate this into their device-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaFaultSpec {
    /// Seed for the burst's own RNG stream.
    pub seed: u64,
    /// Transient single-bit flips to schedule across the window.
    pub transient_flips: u32,
    /// Window over which the flips land, starting at the arm time.
    pub window: SimTime,
    /// First line of the hot range flips concentrate in.
    pub hot_start: u64,
    /// Length of the hot range in lines (clamped to ≥ 1).
    pub hot_len: u64,
    /// Permanently stuck cells to plant immediately.
    pub stuck_cells: u32,
}

/// A DMI slave device: parses downstream traffic, executes commands,
/// emits upstream responses.
pub trait DmiBuffer {
    /// Delivers one downstream payload that cleared MBI at `now`. The
    /// channel never delivers [`DownstreamPayload::Idle`]: an idle
    /// frame carries nothing for the buffer to act on.
    fn push_downstream(&mut self, now: SimTime, payload: DownstreamPayload);

    /// Offers the buffer one upstream frame slot at `now`; the buffer
    /// returns a payload if it has one ready (arbitration happens
    /// inside — paper §3.3(iii): "a single unified arbitration unit
    /// for the upstream channel").
    fn pull_upstream(&mut self, now: SimTime) -> Option<UpstreamPayload>;

    /// The earliest time at which [`DmiBuffer::pull_upstream`] can
    /// return a payload, or `None` with no response queued. The
    /// channel skips idle frame slots before this time without calling
    /// `pull_upstream`, so the buffer must not rely on being polled
    /// every slot. The default, `Some(SimTime::ZERO)`, says a response
    /// may be ready at any time, which keeps every slot stepped.
    fn next_upstream_ready(&self) -> Option<SimTime> {
        Some(SimTime::ZERO)
    }

    /// One-way probe-to-echo turnaround through the buffer's PHY and
    /// MBI, used for FRTL determination during training.
    fn frtl_turnaround(&self) -> SimTime;

    /// Human-readable model name (for reports).
    fn name(&self) -> &str;

    /// Connects the buffer to a shared [`Tracer`] so device accesses
    /// and cache activity show up in the channel trace. Default: no
    /// tracing (models opt in).
    fn attach_tracer(&mut self, tracer: Tracer) {
        let _ = tracer;
    }

    /// Contributes this buffer's counters to a [`MetricsRegistry`]
    /// under `prefix` (e.g. `"buffer"`). Default: contributes nothing.
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        let _ = (prefix, registry);
    }

    /// Maintenance-path read of one 128 B line through the buffer's
    /// service interface (ConTutto trains and debugs over an indirect
    /// FSI → I²C path — paper §3.4 — which keeps working when the DMI
    /// link itself is dead). Functional and zero-sim-time; the caller
    /// charges whatever sideband latency its scenario dictates.
    /// Returns the line plus whether it must travel as poison, or
    /// `None` if the model has no sideband (the default).
    fn sideband_read_line(&mut self, now: SimTime, addr: u64) -> Option<([u8; 128], bool)> {
        let _ = (now, addr);
        None
    }

    /// Maintenance-path write of one 128 B line, optionally depositing
    /// it with its poison marker so evacuation never launders rot.
    /// Returns `false` if the model has no sideband (the default).
    fn sideband_write_line(&mut self, addr: u64, data: &[u8; 128], poison: bool) -> bool {
        let _ = (addr, data, poison);
        false
    }

    /// EPOW flush: push every buffered dirty line down to media before
    /// the hold-up window closes (the MBS flush extension ConTutto adds
    /// that "does not exist in the Centaur ASIC" — paper §4.2). Charges
    /// the flush against `energy_nj` (saturating at zero) and returns
    /// the sim time at which the buffer's write pipeline is empty.
    /// Default: nothing buffered, nothing to flush.
    fn epow_flush(&mut self, now: SimTime, energy_nj: &mut u64) -> SimTime {
        let _ = energy_nj;
        now
    }

    /// Power cut: all volatile state — caches, replay buffers, engine
    /// queues, DRAM contents — is gone *now*; media-backed state (an
    /// armed NVDIMM's in-progress save, MRAM cells) persists. Returns
    /// when the buffer is electrically quiet. Default: a stateless
    /// buffer just goes dark.
    fn power_cut(&mut self, now: SimTime) -> SimTime {
        now
    }

    /// Power restore: bring media back up and recover what persisted
    /// (NVDIMM image restore, supercap recharge). Returns when the
    /// media is serviceable plus the worst per-device
    /// [`PowerRestoreOutcome`]. Default: purely volatile buffer.
    fn power_restore(&mut self, now: SimTime) -> (SimTime, PowerRestoreOutcome) {
        (now, PowerRestoreOutcome::Volatile)
    }

    /// Arms (or disarms) the buffer's NVDIMM save engines for the
    /// vendor save sequence. Returns `true` if at least one device
    /// accepted the handshake; `false` when the buffer has no save
    /// engine (the default) or the sequence was refused.
    fn set_save_armed(&mut self, armed: bool) -> bool {
        let _ = armed;
        false
    }

    /// Installs a finite supercap energy budget (nanojoules) on every
    /// save engine behind this buffer. Devices without a save engine
    /// ignore it (the default).
    fn set_supercap_budget_nj(&mut self, nj: u64) {
        let _ = nj;
    }

    /// Arms a media fault burst at runtime: flips scheduled relative
    /// to `now`, stuck cells planted immediately. Returns `true` if
    /// the buffer's media accepted the burst; `false` when the model
    /// has no fault-capable media (the default).
    fn arm_media_faults(&mut self, now: SimTime, spec: MediaFaultSpec) -> bool {
        let _ = (now, spec);
        false
    }

    /// Reconfigures patrol scrub at runtime: `Some(interval)` (re)arms
    /// it with the next pass at `now + interval`, `None` disables it.
    /// Returns `true` if the buffer has a scrub engine; `false`
    /// otherwise (the default).
    fn set_scrub(&mut self, now: SimTime, interval: Option<SimTime>) -> bool {
        let _ = (now, interval);
        false
    }

    /// Current patrol-scrub interval, `None` when scrub is disabled or
    /// the buffer has no scrub engine (the default).
    fn scrub_interval(&self) -> Option<SimTime> {
        None
    }

    /// Serializes the buffer's dynamic state (caches, engine queues,
    /// media contents, save-engine state) into a snapshot payload.
    /// Must be the exact mirror of [`DmiBuffer::restore_state`]: a
    /// model overriding one must override both. Default: a stateless
    /// buffer contributes no bytes.
    fn snapshot_state(&self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Overlays buffer state from a snapshot payload written by
    /// [`DmiBuffer::snapshot_state`] onto this identically-constructed
    /// buffer. Default: reads nothing (matching the empty default
    /// snapshot).
    ///
    /// # Errors
    ///
    /// Propagates [`RestoreError`] from the payload decode.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), RestoreError> {
        let _ = r;
        Ok(())
    }
}

/// The buffer side of the DMI command protocol, identical in Centaur
/// and the ConTutto MBS (paper §3.3(iii)): one write engine per tag
/// collects a command's 8 × 16 B write beats into a line, and one
/// upstream queue returns read data as 4 contiguous 32 B beats and packs
/// two ready dones into one frame.
///
/// It keeps no clock and no counters: the buffer around it decides when
/// a response is ready, executes finished lines and counts events.
#[derive(Debug, Default)]
pub struct BufferFrontEnd {
    /// The open engines, sorted by tag: rarely more than a few, so a
    /// search beats hashing, and the order is the image order.
    engines: Vec<(Tag, CommandHeader, LineAssembler)>,
    ready: VecDeque<(SimTime, UpstreamPayload)>,
}

/// What one write-data beat did to its tag's engine.
#[derive(Debug)]
#[must_use]
pub enum WriteBeat {
    /// Accepted; the line still waits for beats.
    Pending,
    /// The last beat: the engine is free and its command ready to run.
    Complete(CommandHeader, CacheLine),
    /// Dropped, for the buffer to flag: the tag had no open engine (a
    /// stale frame after a retrain, or decode aliasing), or the beat
    /// index or size was impossible.
    Orphaned,
}

impl BufferFrontEnd {
    /// Opens `tag`'s write engine for a write-class `header`. Returns
    /// `true` when it displaced an unfinished assembly, for the buffer
    /// to flag as orphaned: the host aborted that command mid-transfer
    /// (a link reset reclaims tags but cannot reach the buffer).
    #[must_use]
    pub fn open(&mut self, tag: Tag, header: CommandHeader) -> bool {
        debug_assert!(header.expects_data(), "{header:?} carries no data");
        let engine = (tag, header, LineAssembler::downstream());
        match self.find(tag) {
            Ok(i) => {
                self.engines[i] = engine;
                true
            }
            Err(i) => {
                self.engines.insert(i, engine);
                false
            }
        }
    }

    /// Adds one write-data beat to `tag`'s engine.
    pub fn write_data(&mut self, tag: Tag, beat: u8, data: &[u8]) -> WriteBeat {
        let Ok(i) = self.find(tag) else {
            return WriteBeat::Orphaned;
        };
        match self.engines[i].2.try_add_beat(beat, data) {
            Ok(false) => WriteBeat::Pending,
            Ok(true) => {
                let (_, header, assembler) = self.engines.remove(i);
                WriteBeat::Complete(header, assembler.into_line())
            }
            Err(_) => WriteBeat::Orphaned,
        }
    }

    /// Where `tag`'s engine is, or where it would go.
    fn find(&self, tag: Tag) -> Result<usize, usize> {
        self.engines.binary_search_by_key(&tag, |e| e.0)
    }

    /// Engines currently assembling a write-class command.
    pub fn engines_busy(&self) -> usize {
        self.engines.len()
    }

    /// Queues a read's data beats and then its done, all ready at `at`.
    pub fn push_read(&mut self, at: SimTime, tag: Tag, line: &CacheLine, poison: bool) {
        for beat in line_to_upstream_beats(tag, line, poison) {
            self.ready.push_back((at, beat));
        }
        self.push_done(at, tag);
    }

    /// Queues a bare done for `tag`, ready at `at`.
    pub fn push_done(&mut self, at: SimTime, tag: Tag) {
        let done = UpstreamPayload::Done {
            first: tag,
            second: None,
        };
        self.ready.push_back((at, done));
    }

    /// When the last queued response becomes ready.
    pub fn last_ready(&self) -> Option<SimTime> {
        self.ready.back().map(|&(at, _)| at)
    }

    /// When the next response becomes ready. Responses leave in queue
    /// order, so the front gates them all.
    pub fn next_ready(&self) -> Option<SimTime> {
        self.ready.front().map(|&(at, _)| at)
    }

    /// Offers the queue one upstream frame slot at `now`. Two dones
    /// ready back to back share the frame (paper §3.3(iii): "the two
    /// upstream frames may contain completion notification from two
    /// separate command engines"); each such pair bumps `paired`.
    pub fn pull(&mut self, now: SimTime, paired: &mut u64) -> Option<UpstreamPayload> {
        if self.next_ready()? > now {
            return None;
        }
        let (_, first) = self.ready.pop_front()?;
        if let UpstreamPayload::Done {
            first: a,
            second: None,
        } = first
        {
            if let Some(&(
                at,
                UpstreamPayload::Done {
                    first: b,
                    second: None,
                },
            )) = self.ready.front()
            {
                if at <= now {
                    self.ready.pop_front();
                    *paired += 1;
                    return Some(UpstreamPayload::Done {
                        first: a,
                        second: Some(b),
                    });
                }
            }
        }
        Some(first)
    }

    /// Power cut: open engines and queued responses are volatile.
    pub fn clear(&mut self) {
        self.engines.clear();
        self.ready.clear();
    }
}

/// The open engines in tag order, `len, (tag, header, assembler)*`,
/// then the queue, `len, (at, payload)*`.
impl Persist for BufferFrontEnd {
    fn persist(&self, out: &mut Vec<u8>) {
        self.engines.persist(out);
        self.ready.persist(out);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let mut front = BufferFrontEnd::default();
        let n = r.len()?;
        if n > NUM_TAGS {
            return Err(RestoreError::Malformed {
                context: "more write engines in image than tags",
            });
        }
        for _ in 0..n {
            let engine: (Tag, CommandHeader, LineAssembler) = Persist::restore(r)?;
            if !engine.1.expects_data() {
                return Err(RestoreError::Malformed {
                    context: "write engine for a command without data",
                });
            }
            let Err(i) = front.find(engine.0) else {
                return Err(RestoreError::Malformed {
                    context: "duplicate write-engine tag",
                });
            };
            front.engines.insert(i, engine);
        }
        let m = r.len()?;
        // Each queue entry costs at least 9 bytes (timestamp + payload
        // discriminant); reject counts the remaining bytes cannot hold.
        if m > r.remaining() / 9 {
            return Err(RestoreError::Truncated {
                context: "buffer upstream queue",
            });
        }
        for _ in 0..m {
            front.ready.push_back(Persist::restore(r)?);
        }
        Ok(front)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback buffer used to validate the trait contract shape.
    struct Echo {
        pending: Vec<(SimTime, UpstreamPayload)>,
    }

    impl DmiBuffer for Echo {
        fn push_downstream(&mut self, now: SimTime, payload: DownstreamPayload) {
            if let DownstreamPayload::Command { tag, .. } = payload {
                self.pending.push((
                    now + SimTime::from_ns(10),
                    UpstreamPayload::Done {
                        first: tag,
                        second: None,
                    },
                ));
            }
        }

        fn pull_upstream(&mut self, now: SimTime) -> Option<UpstreamPayload> {
            if let Some(pos) = self.pending.iter().position(|(t, _)| *t <= now) {
                Some(self.pending.remove(pos).1)
            } else {
                None
            }
        }

        fn frtl_turnaround(&self) -> SimTime {
            SimTime::from_ns(5)
        }

        fn name(&self) -> &str {
            "echo"
        }
    }

    #[test]
    fn trait_contract_smoke() {
        use crate::command::Tag;
        use crate::frame::CommandHeader;
        let mut e = Echo { pending: vec![] };
        e.push_downstream(
            SimTime::ZERO,
            DownstreamPayload::Command {
                tag: Tag::new(3).unwrap(),
                header: CommandHeader::Flush,
            },
        );
        assert!(e.pull_upstream(SimTime::from_ns(5)).is_none());
        let done = e.pull_upstream(SimTime::from_ns(10)).unwrap();
        assert!(matches!(done, UpstreamPayload::Done { first, .. } if first.raw() == 3));
    }

    #[test]
    fn front_end_restore_errors_are_typed() {
        let engine = |header| (Tag::new(3).unwrap(), (header, LineAssembler::downstream()));
        let write = engine(CommandHeader::Write { addr: 0 });
        let mut twice = Vec::new();
        vec![write.clone(), write].persist(&mut twice);
        let mut no_data = Vec::new();
        vec![engine(CommandHeader::Flush)].persist(&mut no_data);
        let too_many = 33u64.to_le_bytes().to_vec();
        let mut short_queue = [0u64, 2].map(u64::to_le_bytes).concat();
        short_queue.extend([0; 17]);
        for (img, truncated) in [
            (twice, false),
            (no_data, false),
            (too_many, false),
            (short_queue, true),
        ] {
            match BufferFrontEnd::restore(&mut SnapReader::new(&img)) {
                Err(RestoreError::Malformed { .. }) if !truncated => {}
                Err(RestoreError::Truncated { .. }) if truncated => {}
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn default_power_hooks_model_a_fully_volatile_buffer() {
        let mut e = Echo { pending: vec![] };
        let now = SimTime::from_ns(100);
        let mut energy = 42u64;
        assert_eq!(e.epow_flush(now, &mut energy), now);
        assert_eq!(energy, 42, "a stateless buffer charges nothing");
        assert_eq!(e.power_cut(now), now);
        assert_eq!(e.power_restore(now), (now, PowerRestoreOutcome::Volatile));
        assert!(!e.set_save_armed(true));
        assert!(!PowerRestoreOutcome::Volatile.is_data_loss());
        assert!(PowerRestoreOutcome::TornSave.is_data_loss());
        assert!(PowerRestoreOutcome::TornSave < PowerRestoreOutcome::Lost);
    }
}
