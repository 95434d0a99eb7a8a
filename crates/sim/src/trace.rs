//! Deterministic structured protocol tracing.
//!
//! Every layer of the protocol stack (DMI endpoints, the POWER8
//! channel, the Centaur and ConTutto buffers) reports structured
//! [`TraceEvent`]s through a shared [`Tracer`] handle. Events are
//! stamped with the simulation clock, stored in a bounded ring, and
//! folded into a running fingerprint, so that:
//!
//! * a failing integration test can be diagnosed by diffing two rendered
//!   traces rather than by re-running under a debugger, and
//! * determinism is cheap to assert — two same-seed runs must produce
//!   identical fingerprints even when the ring has wrapped.
//!
//! The fingerprint folds a canonical fixed-width binary encoding of
//! each record — its timestamp, a variant tag and every field — one
//! `u64` word at a time. The encoding is injective over events, so
//! the fingerprint is exactly as strong as hashing the rendered text,
//! but recording an event formats nothing and allocates nothing.
//!
//! Tracing is off by default ([`Tracer::off`]) and every recording call
//! is a no-op in that state, so instrumented hot paths cost one branch
//! when observability is not wanted.
//!
//! # Example
//!
//! ```
//! use contutto_sim::{SimTime, TraceEvent, Tracer};
//!
//! let tracer = Tracer::ring(1024);
//! tracer.advance(SimTime::from_ns(8));
//! tracer.record(TraceEvent::TagAcquire { tag: 3 });
//! assert_eq!(tracer.total_recorded(), 1);
//! assert!(tracer.render().contains("tag-acquire"));
//! ```

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::rc::Rc;

use crate::snapshot::{Persist, RestoreError, SnapReader};
use crate::time::SimTime;

/// Direction a DMI frame travels: host→buffer is downstream, buffer→host
/// is upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDir {
    Downstream,
    Upstream,
}

impl LinkDir {
    /// The opposite direction.
    pub fn opposite(self) -> LinkDir {
        match self {
            LinkDir::Downstream => LinkDir::Upstream,
            LinkDir::Upstream => LinkDir::Downstream,
        }
    }
}

impl fmt::Display for LinkDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LinkDir::Downstream => "down",
            LinkDir::Upstream => "up",
        })
    }
}

/// One structured observability event, reported by whichever layer
/// observed it. `dir` is always the direction the frame in question is
/// travelling on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An endpoint put a frame on the wire. `replayed` marks frames
    /// re-sent from the replay buffer (including the freeze-window
    /// duplicates of the ConTutto workaround).
    FrameTx {
        dir: LinkDir,
        seq: u8,
        replayed: bool,
    },
    /// An endpoint accepted a frame (CRC and sequence both good).
    FrameRx { dir: LinkDir, seq: u8 },
    /// A received frame failed its CRC check.
    CrcFailure { dir: LinkDir },
    /// A received frame carried an unexpected sequence number.
    SeqGap { dir: LinkDir, expected: u8, got: u8 },
    /// A transmitter's ACK timeout expired with frames outstanding; it
    /// will rewind and replay.
    ReplayTrigger { dir: LinkDir, unacked: usize },
    /// The transmitter rewound and will re-send `frames` frames starting
    /// at `from_seq`.
    ReplayRewind {
        dir: LinkDir,
        from_seq: u8,
        frames: usize,
    },
    /// A command tag was taken from the pool.
    TagAcquire { tag: u8 },
    /// A command completed and its tag returned to the pool.
    TagRelease { tag: u8 },
    /// A submit found no free tag (pool exhausted).
    TagExhausted,
    /// A blocking wait on a tag exceeded its deadline.
    TagTimeout { tag: u8 },
    /// A timed-out command's tag was returned to the pool outside the
    /// normal done path (timeout reclamation).
    TagReclaimed { tag: u8 },
    /// A timed-out command was rescheduled for another attempt after a
    /// sim-time backoff.
    RetryScheduled {
        tag: u8,
        attempt: u32,
        backoff_ps: u64,
    },
    /// The channel escalated persistent hangs to a full link retrain;
    /// `count` is the channel's lifetime retrain total.
    LinkRetrain { count: u64 },
    /// A memory-buffer device port serviced a read.
    DeviceRead { addr: u64 },
    /// A memory-buffer device port serviced a write.
    DeviceWrite { addr: u64 },
    /// A buffer-side cache lookup hit.
    CacheHit { addr: u64 },
    /// A buffer-side cache lookup missed.
    CacheMiss { addr: u64 },
    /// Media ECC corrected `bits` flipped bits on a demand read.
    EccCorrected { addr: u64, bits: u32 },
    /// Media ECC detected an uncorrectable error; the line is poisoned.
    EccUncorrectable { addr: u64 },
    /// A poisoned line crossed the channel and reached the host as a
    /// typed error instead of silent data.
    PoisonDelivered { addr: u64 },
    /// A patrol-scrub pass over one device finished.
    ScrubPass { corrected: u64, uncorrectable: u64 },
    /// A page crossed the correctable-error threshold and was retired.
    PageRetired { addr: u64 },
    /// Power returned before the NVDIMM save engine finished; the flash
    /// image is torn and must not be restored.
    SaveTorn { restored_ps: u64, save_done_ps: u64 },
    /// A channel was drained of in-flight tags ahead of a failover;
    /// `clean` is false when the link had to be reset to reclaim tags.
    ChannelQuiesced { slot: usize, clean: bool },
    /// The background evacuation engine copied another batch of lines
    /// from a deconfigured channel to its spare.
    MigrationProgress {
        from: usize,
        to: usize,
        migrated: u64,
        remaining: u64,
    },
    /// The memory map was rebound: the physical region formerly served
    /// by `from` is now served by `to`.
    ChannelFailedOver {
        from: usize,
        to: usize,
        mirrored: bool,
    },
    /// A demand read failed on the mirrored primary and was served from
    /// the mirror copy instead.
    MirrorReadFallback { addr: u64 },
    /// A WriteData frame arrived for an idle/unknown tag (late delivery
    /// after a retrain, or decode aliasing) and was dropped.
    FrameOrphaned { tag: u8 },
    /// The FSP asserted an early-power-off warning; the flush cascade
    /// starts.
    EpowAsserted,
    /// One stage of the EPOW flush cascade completed (1 = core caches,
    /// 2 = buffer caches/write pipelines, 3 = in-flight DMI drain,
    /// 4 = NVDIMM save engines confirmed armed).
    EpowFlushStage { stage: u8, charged_nj: u64 },
    /// The system holdup energy ran out before the cascade finished;
    /// `stage` is the first stage that was skipped.
    EpowHoldupExhausted { stage: u8 },
    /// Power was cut: all volatile state is gone.
    PowerCut,
    /// An NVDIMM save engine exhausted its supercap mid-save; the flash
    /// image is truncated at `saved_bytes` of `capacity_bytes`.
    SaveEnergyExhausted {
        saved_bytes: u64,
        capacity_bytes: u64,
    },
    /// Power returned; the system is rebooting.
    PowerRestored,
    /// A non-volatile buffer restored its media image intact after the
    /// power cut.
    NvdimmRestored { slot: usize },
    /// A non-volatile buffer could not restore its image (torn save,
    /// corrupt image, or disarmed supercap); the loss is reported as a
    /// machine check, never silently.
    NvdimmRestoreFailed { slot: usize },
    /// A read stuck past the hedge threshold issued a duplicate to the
    /// mirror; first completion wins, the loser is cancelled.
    HedgeIssued { addr: u64 },
    /// A per-channel circuit breaker changed state (`open` = tripped,
    /// `!open` = closed again after successful probes).
    BreakerTransition { slot: usize, open: bool },
    /// An event carried across a snapshot/restore boundary as its
    /// canonical rendered text (everything after the timestamp
    /// prefix). Re-rendering a restored ring is byte-identical to the
    /// original because this variant displays the text verbatim.
    Restored { line: String },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceEvent::*;
        match self {
            FrameTx { dir, seq, replayed } => {
                write!(f, "frame-tx dir={dir} seq={seq} replayed={replayed}")
            }
            FrameRx { dir, seq } => write!(f, "frame-rx dir={dir} seq={seq}"),
            CrcFailure { dir } => write!(f, "crc-failure dir={dir}"),
            SeqGap { dir, expected, got } => {
                write!(f, "seq-gap dir={dir} expected={expected} got={got}")
            }
            ReplayTrigger { dir, unacked } => {
                write!(f, "replay-trigger dir={dir} unacked={unacked}")
            }
            ReplayRewind {
                dir,
                from_seq,
                frames,
            } => {
                write!(f, "replay-rewind dir={dir} from={from_seq} frames={frames}")
            }
            TagAcquire { tag } => write!(f, "tag-acquire tag={tag}"),
            TagRelease { tag } => write!(f, "tag-release tag={tag}"),
            TagExhausted => write!(f, "tag-exhausted"),
            TagTimeout { tag } => write!(f, "tag-timeout tag={tag}"),
            TagReclaimed { tag } => write!(f, "tag-reclaimed tag={tag}"),
            RetryScheduled {
                tag,
                attempt,
                backoff_ps,
            } => write!(
                f,
                "retry-scheduled tag={tag} attempt={attempt} backoff_ps={backoff_ps}"
            ),
            LinkRetrain { count } => write!(f, "link-retrain count={count}"),
            DeviceRead { addr } => write!(f, "device-read addr={addr:#x}"),
            DeviceWrite { addr } => write!(f, "device-write addr={addr:#x}"),
            CacheHit { addr } => write!(f, "cache-hit addr={addr:#x}"),
            CacheMiss { addr } => write!(f, "cache-miss addr={addr:#x}"),
            EccCorrected { addr, bits } => write!(f, "ecc-corrected addr={addr:#x} bits={bits}"),
            EccUncorrectable { addr } => write!(f, "ecc-uncorrectable addr={addr:#x}"),
            PoisonDelivered { addr } => write!(f, "poison-delivered addr={addr:#x}"),
            ScrubPass {
                corrected,
                uncorrectable,
            } => write!(
                f,
                "scrub-pass corrected={corrected} uncorrectable={uncorrectable}"
            ),
            PageRetired { addr } => write!(f, "page-retired addr={addr:#x}"),
            SaveTorn {
                restored_ps,
                save_done_ps,
            } => write!(
                f,
                "save-torn restored_ps={restored_ps} save_done_ps={save_done_ps}"
            ),
            ChannelQuiesced { slot, clean } => {
                write!(f, "channel-quiesced slot={slot} clean={clean}")
            }
            MigrationProgress {
                from,
                to,
                migrated,
                remaining,
            } => write!(
                f,
                "migration-progress from={from} to={to} migrated={migrated} remaining={remaining}"
            ),
            ChannelFailedOver { from, to, mirrored } => {
                write!(
                    f,
                    "channel-failed-over from={from} to={to} mirrored={mirrored}"
                )
            }
            MirrorReadFallback { addr } => write!(f, "mirror-read-fallback addr={addr:#x}"),
            FrameOrphaned { tag } => write!(f, "frame-orphaned tag={tag}"),
            EpowAsserted => write!(f, "epow-asserted"),
            EpowFlushStage { stage, charged_nj } => {
                write!(f, "epow-flush-stage stage={stage} charged_nj={charged_nj}")
            }
            EpowHoldupExhausted { stage } => write!(f, "epow-holdup-exhausted stage={stage}"),
            PowerCut => write!(f, "power-cut"),
            SaveEnergyExhausted {
                saved_bytes,
                capacity_bytes,
            } => write!(
                f,
                "save-energy-exhausted saved_bytes={saved_bytes} capacity_bytes={capacity_bytes}"
            ),
            PowerRestored => write!(f, "power-restored"),
            NvdimmRestored { slot } => write!(f, "nvdimm-restored slot={slot}"),
            NvdimmRestoreFailed { slot } => write!(f, "nvdimm-restore-failed slot={slot}"),
            HedgeIssued { addr } => write!(f, "hedge-issued addr={addr:#x}"),
            BreakerTransition { slot, open } => {
                write!(f, "breaker-transition slot={slot} open={open}")
            }
            Restored { line } => f.write_str(line),
        }
    }
}

impl TraceEvent {
    /// Feeds the event's canonical binary encoding to `word`, one `u64`
    /// at a time. The first word is a head: the variant tag in bits
    /// 0..8 and the narrow fields (directions, flags, `u8`s, `u32`s)
    /// packed above it at fixed offsets. Every `u64`/`usize` field then
    /// takes a word of its own, in declaration order. A `Restored` line
    /// packs its byte length into the head and follows it with its
    /// bytes, eight to a little-endian word, zero-padded.
    ///
    /// The tag fixes the layout and no field is truncated, so distinct
    /// events always encode differently, and the encodings of a record
    /// sequence concatenate unambiguously.
    fn encode(&self, mut word: impl FnMut(u64)) {
        use TraceEvent::*;
        fn dir(d: LinkDir) -> u64 {
            match d {
                LinkDir::Downstream => 0,
                LinkDir::Upstream => 1,
            }
        }
        let head = |tag: u64, packed: u64| tag | packed << 8;
        match self {
            FrameTx {
                dir: d,
                seq,
                replayed,
            } => word(head(
                0,
                dir(*d) | u64::from(*seq) << 8 | u64::from(*replayed) << 16,
            )),
            FrameRx { dir: d, seq } => word(head(1, dir(*d) | u64::from(*seq) << 8)),
            CrcFailure { dir: d } => word(head(2, dir(*d))),
            SeqGap {
                dir: d,
                expected,
                got,
            } => word(head(
                3,
                dir(*d) | u64::from(*expected) << 8 | u64::from(*got) << 16,
            )),
            ReplayTrigger { dir: d, unacked } => {
                word(head(4, dir(*d)));
                word(*unacked as u64);
            }
            ReplayRewind {
                dir: d,
                from_seq,
                frames,
            } => {
                word(head(5, dir(*d) | u64::from(*from_seq) << 8));
                word(*frames as u64);
            }
            TagAcquire { tag } => word(head(6, u64::from(*tag))),
            TagRelease { tag } => word(head(7, u64::from(*tag))),
            TagExhausted => word(head(8, 0)),
            TagTimeout { tag } => word(head(9, u64::from(*tag))),
            TagReclaimed { tag } => word(head(10, u64::from(*tag))),
            RetryScheduled {
                tag,
                attempt,
                backoff_ps,
            } => {
                word(head(11, u64::from(*tag) | u64::from(*attempt) << 8));
                word(*backoff_ps);
            }
            LinkRetrain { count } => {
                word(head(12, 0));
                word(*count);
            }
            DeviceRead { addr } => {
                word(head(13, 0));
                word(*addr);
            }
            DeviceWrite { addr } => {
                word(head(14, 0));
                word(*addr);
            }
            CacheHit { addr } => {
                word(head(15, 0));
                word(*addr);
            }
            CacheMiss { addr } => {
                word(head(16, 0));
                word(*addr);
            }
            EccCorrected { addr, bits } => {
                word(head(17, u64::from(*bits)));
                word(*addr);
            }
            EccUncorrectable { addr } => {
                word(head(18, 0));
                word(*addr);
            }
            PoisonDelivered { addr } => {
                word(head(19, 0));
                word(*addr);
            }
            ScrubPass {
                corrected,
                uncorrectable,
            } => {
                word(head(20, 0));
                word(*corrected);
                word(*uncorrectable);
            }
            PageRetired { addr } => {
                word(head(21, 0));
                word(*addr);
            }
            SaveTorn {
                restored_ps,
                save_done_ps,
            } => {
                word(head(22, 0));
                word(*restored_ps);
                word(*save_done_ps);
            }
            ChannelQuiesced { slot, clean } => {
                word(head(23, u64::from(*clean)));
                word(*slot as u64);
            }
            MigrationProgress {
                from,
                to,
                migrated,
                remaining,
            } => {
                word(head(24, 0));
                word(*from as u64);
                word(*to as u64);
                word(*migrated);
                word(*remaining);
            }
            ChannelFailedOver { from, to, mirrored } => {
                word(head(25, u64::from(*mirrored)));
                word(*from as u64);
                word(*to as u64);
            }
            MirrorReadFallback { addr } => {
                word(head(26, 0));
                word(*addr);
            }
            FrameOrphaned { tag } => word(head(27, u64::from(*tag))),
            EpowAsserted => word(head(28, 0)),
            EpowFlushStage { stage, charged_nj } => {
                word(head(29, u64::from(*stage)));
                word(*charged_nj);
            }
            EpowHoldupExhausted { stage } => word(head(30, u64::from(*stage))),
            PowerCut => word(head(31, 0)),
            SaveEnergyExhausted {
                saved_bytes,
                capacity_bytes,
            } => {
                word(head(32, 0));
                word(*saved_bytes);
                word(*capacity_bytes);
            }
            PowerRestored => word(head(33, 0)),
            NvdimmRestored { slot } => {
                word(head(34, 0));
                word(*slot as u64);
            }
            NvdimmRestoreFailed { slot } => {
                word(head(35, 0));
                word(*slot as u64);
            }
            HedgeIssued { addr } => {
                word(head(36, 0));
                word(*addr);
            }
            BreakerTransition { slot, open } => {
                word(head(37, u64::from(*open)));
                word(*slot as u64);
            }
            Restored { line } => {
                word(head(38, line.len() as u64));
                for chunk in line.as_bytes().chunks(8) {
                    let mut bytes = [0u8; 8];
                    bytes[..chunk.len()].copy_from_slice(chunk);
                    word(u64::from_le_bytes(bytes));
                }
            }
        }
    }
}

/// A timestamped [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    pub at: SimTime,
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12} ps] {}", self.at.as_ps(), self.event)
    }
}

/// Fingerprint of an empty trace (the 64-bit FNV offset basis).
const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd multiplier of the word fold (2^64 over the golden ratio).
const FOLD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds one encoding word into the fingerprint. For a fixed `word`
/// every step (xor, odd multiply, xorshift) is a bijection of the
/// accumulator, so two streams that differ in a single word never
/// collide, and the xorshift carries high bits back down so a
/// difference anywhere in a word reaches every later fold.
fn fold(hash: u64, word: u64) -> u64 {
    let h = (hash ^ word).wrapping_mul(FOLD_MUL);
    h ^ (h >> 32)
}

struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceRecord>,
    total: u64,
    dropped: u64,
    fingerprint: u64,
}

impl TraceRing {
    fn capacity_is_nonzero(&self, capacity: &usize) -> Result<(), RestoreError> {
        if *capacity == 0 {
            return Err(RestoreError::Malformed {
                context: "trace ring capacity",
            });
        }
        Ok(())
    }

    fn holds_at_most_its_capacity(&self) -> Result<(), RestoreError> {
        if self.events.len() > self.capacity {
            return Err(RestoreError::Malformed {
                context: "trace ring holds more than its capacity",
            });
        }
        Ok(())
    }

    crate::state_fields!({
        capacity if Self::capacity_is_nonzero,
        total,
        dropped,
        fingerprint,
        events,
        check Self::holds_at_most_its_capacity,
    });
}

/// A record is imaged as its time and its rendered text, rendered
/// straight into the image, and restores as a
/// [`TraceEvent::Restored`] line that renders the same.
impl Persist for TraceRecord {
    fn persist(&self, out: &mut Vec<u8>) {
        struct Utf8Sink<'a>(&'a mut Vec<u8>);
        impl fmt::Write for Utf8Sink<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.extend_from_slice(s.as_bytes());
                Ok(())
            }
        }
        self.at.persist(out);
        let len_at = out.len();
        0u64.persist(out);
        write!(Utf8Sink(out), "{}", self.event).expect("writing to a Vec cannot fail");
        let len = (out.len() - len_at - 8) as u64;
        out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        Ok(TraceRecord {
            at: SimTime::restore(r)?,
            event: TraceEvent::Restored {
                line: String::restore(r)?,
            },
        })
    }
}

struct TracerShared {
    now: Cell<SimTime>,
    ring: RefCell<TraceRing>,
}

/// A cheaply cloneable handle to a shared trace buffer.
///
/// All clones of one `Tracer` feed the same ring; the simulation is
/// single-threaded, so the handle uses `Rc` internally and is not
/// `Send`. The clock is advanced by whoever owns the simulation loop
/// (normally `DmiChannel::step`) via [`Tracer::advance`]; layers below
/// the channel record events without needing a time parameter.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<TracerShared>>,
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer retaining the last `capacity` events.
    ///
    /// The running fingerprint and totals cover *all* events ever
    /// recorded, including those evicted from the ring.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn ring(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be nonzero");
        Tracer {
            inner: Some(Rc::new(TracerShared {
                now: Cell::new(SimTime::ZERO),
                ring: RefCell::new(TraceRing {
                    capacity,
                    events: VecDeque::with_capacity(capacity.min(4096)),
                    total: 0,
                    dropped: 0,
                    fingerprint: FINGERPRINT_SEED,
                }),
            })),
        }
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Moves the trace clock forward; subsequent events are stamped with
    /// `now`. Called by the simulation loop, never by leaf layers.
    pub fn advance(&self, now: SimTime) {
        if let Some(inner) = &self.inner {
            inner.now.set(now);
        }
    }

    /// The current trace clock (zero when disabled).
    pub fn now(&self) -> SimTime {
        self.inner
            .as_ref()
            .map_or(SimTime::ZERO, |inner| inner.now.get())
    }

    /// Records one event at the current trace clock. No-op when off.
    pub fn record(&self, event: TraceEvent) {
        let Some(inner) = &self.inner else {
            return;
        };
        let record = TraceRecord {
            at: inner.now.get(),
            event,
        };
        let mut ring = inner.ring.borrow_mut();
        ring.total += 1;
        // The fingerprint folds in the record's canonical binary
        // encoding: injective over records, so it is as strong as a
        // byte-compare of the full (unbounded) trace text, without
        // formatting or allocating anything.
        let mut fingerprint = fold(ring.fingerprint, record.at.as_ps());
        record.event.encode(|w| fingerprint = fold(fingerprint, w));
        ring.fingerprint = fingerprint;
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(record);
    }

    /// Records the `4 * k` records of `k` idle DMI frame slots, the
    /// first slot at `start` and each next one `slot` later. Each slot
    /// records a `FrameTx` and a `FrameRx` downstream, then a `FrameTx`
    /// and a `FrameRx` upstream. `seqs` holds the first slot's sequence
    /// IDs in that order, and each advances by one per slot, modulo
    /// 128. No transmit is a replay. Ring, totals, fingerprint and
    /// clock (left at the last slot) end exactly as recording each
    /// record with [`Tracer::record`] would leave them, but in one
    /// pass: one ring borrow, a tight fingerprint fold, and only the
    /// records that survive in the ring appended. No-op when off.
    pub fn record_idle_run(&self, start: SimTime, slot: SimTime, k: u64, seqs: [u8; 4]) {
        /// Sequence IDs of DMI frames are 7 bits and wrap.
        const SEQ_MODULO: u64 = 128;
        let Some(inner) = &self.inner else {
            return;
        };
        if k == 0 {
            return;
        }
        let event = |i: u64, j: usize| {
            let seq = ((u64::from(seqs[j]) + i) % SEQ_MODULO) as u8;
            let dir = [LinkDir::Downstream, LinkDir::Upstream][j / 2];
            match j {
                0 | 2 => TraceEvent::FrameTx {
                    dir,
                    seq,
                    replayed: false,
                },
                _ => TraceEvent::FrameRx { dir, seq },
            }
        };
        inner.now.set(start + slot * (k - 1));
        let mut ring = inner.ring.borrow_mut();
        let mut fingerprint = ring.fingerprint;
        for i in 0..k {
            let at = (start + slot * i).as_ps();
            for j in 0..4 {
                fingerprint = fold(fingerprint, at);
                event(i, j).encode(|w| fingerprint = fold(fingerprint, w));
            }
        }
        ring.fingerprint = fingerprint;
        let records = 4 * k;
        let kept = records.min(ring.capacity as u64);
        let evicted = (ring.events.len() + kept as usize).saturating_sub(ring.capacity);
        ring.events.drain(..evicted);
        ring.total += records;
        ring.dropped += evicted as u64 + (records - kept);
        for r in records - kept..records {
            let (i, j) = (r / 4, (r % 4) as usize);
            ring.events.push_back(TraceRecord {
                at: start + slot * i,
                event: event(i, j),
            });
        }
    }

    /// Number of events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.ring.borrow().events.len())
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.ring.borrow().total)
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.ring.borrow().dropped)
    }

    /// Running fingerprint over the binary encoding of every event ever
    /// recorded. Two same-seed runs must produce equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(FINGERPRINT_SEED, |inner| inner.ring.borrow().fingerprint)
    }

    /// A copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner.ring.borrow().events.iter().cloned().collect()
        })
    }

    /// Counts retained events matching a predicate.
    pub fn count_matching(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> usize {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .ring
                .borrow()
                .events
                .iter()
                .filter(|r| pred(&r.event))
                .count()
        })
    }

    /// Serializes the full trace state: the clock, then the ring
    /// (capacity, totals, fingerprint and the retained events, as
    /// rendered text, so no event structure needs to survive the
    /// image). No-op encoding is not provided for a disabled tracer;
    /// callers skip the section.
    pub fn snapshot_state(&self, out: &mut Vec<u8>) {
        let inner = self.inner.as_ref().expect("snapshot of a disabled tracer");
        inner.now.get().persist(out);
        inner.ring.borrow().snapshot_state(out);
    }

    /// Rebuilds trace state from [`Tracer::snapshot_state`] bytes.
    ///
    /// When this handle is already enabled the ring is overlaid in the
    /// existing shared ring, so every clone distributed through the
    /// system observes the restored state; otherwise a fresh ring is
    /// created. Restored events render byte-identically to the
    /// originals, and the fingerprint continues from the restored
    /// accumulator, so a resumed run's fingerprint equals the straight
    /// run's.
    ///
    /// # Errors
    ///
    /// Any decode error, or [`crate::snapshot::RestoreError::Malformed`]
    /// for a zero capacity or a ring holding more than its capacity.
    pub fn restore_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::RestoreError> {
        // Hand-written: the clock and ring sit behind the handle every
        // clone shares, so they are overlaid through it.
        let now = SimTime::restore(r)?;
        let inner = self
            .inner
            .get_or_insert_with(|| Tracer::ring(1).inner.expect("an enabled tracer has a ring"));
        inner.ring.borrow_mut().restore_state(r)?;
        inner.now.set(now);
        Ok(())
    }

    /// The ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.ring.borrow().capacity)
    }

    /// Renders the retained trace as text: a header with totals and the
    /// fingerprint, then one line per event. Byte-identical across
    /// same-seed runs.
    pub fn render(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::from("trace: disabled\n");
        };
        let ring = inner.ring.borrow();
        let mut out = format!(
            "trace: {} events ({} retained, {} dropped) fingerprint={:016x}\n",
            ring.total,
            ring.events.len(),
            ring.dropped,
            ring.fingerprint,
        );
        for record in &ring.events {
            out.push_str(&record.to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(off)"),
            Some(inner) => {
                let ring = inner.ring.borrow();
                write!(
                    f,
                    "Tracer(total={}, retained={}, fingerprint={:016x})",
                    ring.total,
                    ring.events.len(),
                    ring.fingerprint,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_is_inert() {
        let t = Tracer::off();
        t.advance(SimTime::from_ns(5));
        t.record(TraceEvent::TagExhausted);
        assert!(!t.is_enabled());
        assert_eq!(t.total_recorded(), 0);
        assert!(t.is_empty());
        assert_eq!(t.render(), "trace: disabled\n");
    }

    #[test]
    fn clones_share_one_ring() {
        let a = Tracer::ring(8);
        let b = a.clone();
        a.advance(SimTime::from_ns(1));
        b.record(TraceEvent::TagAcquire { tag: 0 });
        a.record(TraceEvent::TagRelease { tag: 0 });
        assert_eq!(a.total_recorded(), 2);
        assert_eq!(b.total_recorded(), 2);
        assert_eq!(a.snapshot()[0].at, SimTime::from_ns(1));
    }

    #[test]
    fn snapshot_restore_preserves_render_and_fingerprint() {
        let original = Tracer::ring(4);
        original.advance(SimTime::from_ns(3));
        for tag in 0..6 {
            original.record(TraceEvent::TagAcquire { tag });
        }
        let mut bytes = Vec::new();
        original.snapshot_state(&mut bytes);

        // Restore into a disabled handle: identical render, totals and
        // fingerprint.
        let mut restored = Tracer::off();
        restored
            .restore_state(&mut crate::snapshot::SnapReader::new(&bytes))
            .expect("restore");
        assert_eq!(restored.render(), original.render());
        assert_eq!(restored.now(), original.now());
        assert_eq!(restored.capacity(), 4);
        assert_eq!(restored.dropped(), original.dropped());

        // Recording continues the fingerprint stream exactly.
        let next = TraceEvent::TagRelease { tag: 0 };
        original.record(next.clone());
        restored.record(next);
        assert_eq!(restored.fingerprint(), original.fingerprint());
        assert_eq!(restored.render(), original.render());

        // Restore also overlays into an already-enabled shared ring.
        let mut shared = Tracer::ring(16);
        let peer = shared.clone();
        shared.record(TraceEvent::TagExhausted);
        let mut bytes = Vec::new();
        original.snapshot_state(&mut bytes);
        shared
            .restore_state(&mut crate::snapshot::SnapReader::new(&bytes))
            .expect("overlay restore");
        assert_eq!(peer.render(), original.render());
        assert_eq!(peer.fingerprint(), original.fingerprint());
    }

    #[test]
    fn ring_evicts_oldest_but_fingerprint_covers_all() {
        let small = Tracer::ring(2);
        let large = Tracer::ring(100);
        for tag in 0..10 {
            for t in [&small, &large] {
                t.record(TraceEvent::TagAcquire { tag });
            }
        }
        assert_eq!(small.len(), 2);
        assert_eq!(small.dropped(), 8);
        assert_eq!(small.total_recorded(), 10);
        assert_eq!(
            small.snapshot().last().unwrap().event,
            TraceEvent::TagAcquire { tag: 9 }
        );
        // Same event stream ⇒ same fingerprint, regardless of capacity.
        assert_eq!(small.fingerprint(), large.fingerprint());
    }

    #[test]
    fn an_idle_run_records_like_its_records_one_by_one() {
        const RING: usize = 16;
        let (start, slot) = (SimTime::from_ns(100), SimTime::from_ps(2000));
        // Empty, partly full and full rings; 4k below, at and above the
        // capacity; sequence IDs that start at zero and ones that wrap.
        for prefill in [0, 5, RING + 3] {
            for k in [0, 1, 3, 4, 5, 40] {
                for seqs in [[0, 0, 0, 0], [126, 3, 127, 125]] {
                    let (one_by_one, run) = (Tracer::ring(RING), Tracer::ring(RING));
                    for t in [&one_by_one, &run] {
                        for tag in 0..prefill {
                            t.advance(SimTime::from_ps(tag as u64));
                            t.record(TraceEvent::TagAcquire { tag: tag as u8 });
                        }
                    }
                    for i in 0..k {
                        let seq = |j: usize| ((u64::from(seqs[j]) + i) % 128) as u8;
                        one_by_one.advance(start + slot * i);
                        for (j, dir) in [LinkDir::Downstream, LinkDir::Upstream]
                            .into_iter()
                            .enumerate()
                        {
                            one_by_one.record(TraceEvent::FrameTx {
                                dir,
                                seq: seq(2 * j),
                                replayed: false,
                            });
                            one_by_one.record(TraceEvent::FrameRx {
                                dir,
                                seq: seq(2 * j + 1),
                            });
                        }
                    }
                    run.record_idle_run(start, slot, k, seqs);
                    let case = format!("prefill={prefill} k={k} seqs={seqs:?}");
                    assert_eq!(run.fingerprint(), one_by_one.fingerprint(), "{case}");
                    assert_eq!(run.total_recorded(), one_by_one.total_recorded(), "{case}");
                    assert_eq!(run.dropped(), one_by_one.dropped(), "{case}");
                    assert_eq!(run.len(), one_by_one.len(), "{case}");
                    assert_eq!(run.snapshot(), one_by_one.snapshot(), "{case}");
                    assert_eq!(run.now(), one_by_one.now(), "{case}");
                }
            }
        }
        // Off, it is a no-op like every other recording call.
        let off = Tracer::off();
        off.record_idle_run(start, slot, 10, [0; 4]);
        assert_eq!(off.total_recorded(), 0);
    }

    #[test]
    fn fingerprint_distinguishes_streams() {
        let a = Tracer::ring(4);
        let b = Tracer::ring(4);
        a.record(TraceEvent::CrcFailure {
            dir: LinkDir::Downstream,
        });
        b.record(TraceEvent::CrcFailure {
            dir: LinkDir::Upstream,
        });
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Timestamps are part of the fingerprint too.
        let c = Tracer::ring(4);
        c.advance(SimTime::from_ps(1));
        c.record(TraceEvent::CrcFailure {
            dir: LinkDir::Downstream,
        });
        assert_ne!(a.fingerprint(), c.fingerprint());
        // So is the order of the records.
        let (d, e) = (Tracer::ring(4), Tracer::ring(4));
        d.record(TraceEvent::TagAcquire { tag: 1 });
        d.record(TraceEvent::TagRelease { tag: 1 });
        e.record(TraceEvent::TagRelease { tag: 1 });
        e.record(TraceEvent::TagAcquire { tag: 1 });
        assert_ne!(d.fingerprint(), e.fingerprint());
    }

    /// Every variant, with boundary values in every field.
    fn corpus() -> Vec<TraceEvent> {
        use TraceEvent::*;
        let dirs = [LinkDir::Downstream, LinkDir::Upstream];
        let u8s = [0u8, 1, 0x7F, u8::MAX];
        let u32s = [0u32, 1, u32::MAX];
        let u64s = [0u64, 1, 0xFF, 1 << 32, u64::MAX];
        let usizes = [0usize, 1, usize::MAX];
        let flags = [false, true];
        let mut v = vec![TagExhausted, EpowAsserted, PowerCut, PowerRestored];
        for dir in dirs {
            v.push(CrcFailure { dir });
            for unacked in usizes {
                v.push(ReplayTrigger { dir, unacked });
            }
            for seq in u8s {
                v.push(FrameRx { dir, seq });
                for replayed in flags {
                    v.push(FrameTx { dir, seq, replayed });
                }
                for got in u8s {
                    v.push(SeqGap {
                        dir,
                        expected: seq,
                        got,
                    });
                }
                for frames in usizes {
                    v.push(ReplayRewind {
                        dir,
                        from_seq: seq,
                        frames,
                    });
                }
            }
        }
        for x in u8s {
            v.extend([
                TagAcquire { tag: x },
                TagRelease { tag: x },
                TagTimeout { tag: x },
                TagReclaimed { tag: x },
                FrameOrphaned { tag: x },
                EpowHoldupExhausted { stage: x },
            ]);
            for attempt in u32s {
                for backoff_ps in u64s {
                    v.push(RetryScheduled {
                        tag: x,
                        attempt,
                        backoff_ps,
                    });
                }
            }
            for charged_nj in u64s {
                v.push(EpowFlushStage {
                    stage: x,
                    charged_nj,
                });
            }
        }
        for a in u64s {
            v.extend([
                LinkRetrain { count: a },
                DeviceRead { addr: a },
                DeviceWrite { addr: a },
                CacheHit { addr: a },
                CacheMiss { addr: a },
                EccUncorrectable { addr: a },
                PoisonDelivered { addr: a },
                PageRetired { addr: a },
                MirrorReadFallback { addr: a },
                HedgeIssued { addr: a },
            ]);
            for bits in u32s {
                v.push(EccCorrected { addr: a, bits });
            }
            for b in u64s {
                v.extend([
                    ScrubPass {
                        corrected: a,
                        uncorrectable: b,
                    },
                    SaveTorn {
                        restored_ps: a,
                        save_done_ps: b,
                    },
                    SaveEnergyExhausted {
                        saved_bytes: a,
                        capacity_bytes: b,
                    },
                ]);
            }
        }
        for slot in usizes {
            v.extend([NvdimmRestored { slot }, NvdimmRestoreFailed { slot }]);
            for flag in flags {
                v.extend([
                    ChannelQuiesced { slot, clean: flag },
                    BreakerTransition { slot, open: flag },
                ]);
            }
            for to in usizes {
                for mirrored in flags {
                    v.push(ChannelFailedOver {
                        from: slot,
                        to,
                        mirrored,
                    });
                }
                for migrated in u64s {
                    v.push(MigrationProgress {
                        from: slot,
                        to,
                        migrated,
                        remaining: u64::MAX - migrated,
                    });
                }
            }
        }
        // Restored lines around the 8-byte word boundary, plus a
        // trailing NUL that only the length in the head tells apart.
        // None spells a live event: a restored line stands in for an
        // event whose structure did not survive the image, so it
        // encodes as text, not as the event it renders like.
        for line in ["", "x", "x\0", "12345678", "123456789", "restored"] {
            v.push(Restored {
                line: line.to_owned(),
            });
        }
        v
    }

    fn encoding(event: &TraceEvent) -> Vec<u64> {
        let mut words = Vec::new();
        event.encode(|w| words.push(w));
        words
    }

    #[test]
    fn encodings_differ_exactly_when_renderings_differ() {
        let events: Vec<(String, Vec<u64>)> = corpus()
            .iter()
            .map(|e| (e.to_string(), encoding(e)))
            .collect();
        // The corpus reaches every variant tag.
        let tags: std::collections::BTreeSet<u64> =
            events.iter().map(|(_, words)| words[0] & 0xFF).collect();
        assert_eq!(tags, (0..=38).collect());
        for (text_a, enc_a) in &events {
            for (text_b, enc_b) in &events {
                assert_eq!(enc_a == enc_b, text_a == text_b, "{text_a:?} vs {text_b:?}");
            }
        }
    }

    #[test]
    fn restored_lines_encode_their_text() {
        let line = "frame-rx dir=up seq=9";
        let words = encoding(&TraceEvent::Restored {
            line: line.to_owned(),
        });
        assert_eq!(words[0], 38 | (line.len() as u64) << 8);
        let bytes: Vec<u8> = words[1..].iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(&bytes[..line.len()], line.as_bytes());
        assert!(bytes[line.len()..].iter().all(|&b| b == 0));
        assert_eq!(words.len(), 1 + line.len().div_ceil(8));
    }

    #[test]
    fn render_is_line_per_event() {
        let t = Tracer::ring(16);
        t.advance(SimTime::from_ns(2));
        t.record(TraceEvent::FrameTx {
            dir: LinkDir::Downstream,
            seq: 7,
            replayed: false,
        });
        t.record(TraceEvent::CacheMiss { addr: 0x80 });
        let text = t.render();
        assert!(text.starts_with("trace: 2 events"));
        assert!(text.contains("frame-tx dir=down seq=7 replayed=false"));
        assert!(text.contains("cache-miss addr=0x80"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn recovery_events_render() {
        let t = Tracer::ring(8);
        t.record(TraceEvent::TagReclaimed { tag: 5 });
        t.record(TraceEvent::RetryScheduled {
            tag: 5,
            attempt: 2,
            backoff_ps: 8_000_000,
        });
        t.record(TraceEvent::LinkRetrain { count: 1 });
        let text = t.render();
        assert!(text.contains("tag-reclaimed tag=5"));
        assert!(text.contains("retry-scheduled tag=5 attempt=2 backoff_ps=8000000"));
        assert!(text.contains("link-retrain count=1"));
    }

    #[test]
    fn ras_events_render() {
        let t = Tracer::ring(8);
        t.record(TraceEvent::EccCorrected {
            addr: 0x80,
            bits: 1,
        });
        t.record(TraceEvent::EccUncorrectable { addr: 0x100 });
        t.record(TraceEvent::PoisonDelivered { addr: 0x100 });
        t.record(TraceEvent::ScrubPass {
            corrected: 3,
            uncorrectable: 1,
        });
        t.record(TraceEvent::PageRetired { addr: 0x1000 });
        t.record(TraceEvent::SaveTorn {
            restored_ps: 5,
            save_done_ps: 9,
        });
        let text = t.render();
        assert!(text.contains("ecc-corrected addr=0x80 bits=1"));
        assert!(text.contains("ecc-uncorrectable addr=0x100"));
        assert!(text.contains("poison-delivered addr=0x100"));
        assert!(text.contains("scrub-pass corrected=3 uncorrectable=1"));
        assert!(text.contains("page-retired addr=0x1000"));
        assert!(text.contains("save-torn restored_ps=5 save_done_ps=9"));
    }

    #[test]
    fn failover_events_render() {
        let t = Tracer::ring(8);
        t.record(TraceEvent::ChannelQuiesced {
            slot: 2,
            clean: true,
        });
        t.record(TraceEvent::MigrationProgress {
            from: 2,
            to: 4,
            migrated: 8,
            remaining: 16,
        });
        t.record(TraceEvent::ChannelFailedOver {
            from: 2,
            to: 4,
            mirrored: false,
        });
        t.record(TraceEvent::MirrorReadFallback { addr: 0x4000 });
        t.record(TraceEvent::FrameOrphaned { tag: 7 });
        t.record(TraceEvent::HedgeIssued { addr: 0x4000 });
        t.record(TraceEvent::BreakerTransition {
            slot: 2,
            open: true,
        });
        let text = t.render();
        assert!(text.contains("channel-quiesced slot=2 clean=true"));
        assert!(text.contains("migration-progress from=2 to=4 migrated=8 remaining=16"));
        assert!(text.contains("channel-failed-over from=2 to=4 mirrored=false"));
        assert!(text.contains("mirror-read-fallback addr=0x4000"));
        assert!(text.contains("frame-orphaned tag=7"));
        assert!(text.contains("hedge-issued addr=0x4000"));
        assert!(text.contains("breaker-transition slot=2 open=true"));
    }

    #[test]
    fn power_events_render() {
        let t = Tracer::ring(16);
        t.record(TraceEvent::EpowAsserted);
        t.record(TraceEvent::EpowFlushStage {
            stage: 1,
            charged_nj: 4_000,
        });
        t.record(TraceEvent::EpowHoldupExhausted { stage: 3 });
        t.record(TraceEvent::PowerCut);
        t.record(TraceEvent::SaveEnergyExhausted {
            saved_bytes: 65_536,
            capacity_bytes: 1_048_576,
        });
        t.record(TraceEvent::PowerRestored);
        t.record(TraceEvent::NvdimmRestored { slot: 3 });
        t.record(TraceEvent::NvdimmRestoreFailed { slot: 3 });
        let text = t.render();
        assert!(text.contains("epow-asserted"));
        assert!(text.contains("epow-flush-stage stage=1 charged_nj=4000"));
        assert!(text.contains("epow-holdup-exhausted stage=3"));
        assert!(text.contains("power-cut"));
        assert!(text.contains("save-energy-exhausted saved_bytes=65536 capacity_bytes=1048576"));
        assert!(text.contains("power-restored"));
        assert!(text.contains("nvdimm-restored slot=3"));
        assert!(text.contains("nvdimm-restore-failed slot=3"));
    }

    #[test]
    fn count_matching_filters() {
        let t = Tracer::ring(16);
        t.record(TraceEvent::TagAcquire { tag: 1 });
        t.record(TraceEvent::TagRelease { tag: 1 });
        t.record(TraceEvent::TagAcquire { tag: 2 });
        let acquires = t.count_matching(|e| matches!(e, TraceEvent::TagAcquire { .. }));
        assert_eq!(acquires, 2);
    }

    #[test]
    fn dir_opposite() {
        assert_eq!(LinkDir::Downstream.opposite(), LinkDir::Upstream);
        assert_eq!(LinkDir::Upstream.opposite(), LinkDir::Downstream);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Tracer::ring(0);
    }
}
